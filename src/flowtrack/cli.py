"""Command-line interface and the pipeline glue behind it.

Four subcommands cover the workflow: ``sim`` writes a synthetic scenario to
disk in the same file formats real data uses, ``track`` runs the tracking
pipeline over detections plus point clouds, ``eval`` scores a result file
against ground truth, and ``decimate`` drops frames from a written scenario.
Every run writes a ``run_manifest.json`` capturing the configuration,
inputs, seed and timing; outputs are byte-identical across runs with the
same arguments and seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from collections import deque
from contextlib import closing
from dataclasses import replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .flow import (
    FileFlowEstimator,
    FlowDataError,
    FlowEstimator,
    NN_MAX_MATCH_DISTANCE,
    NearestNeighborFlowEstimator,
    OracleFlowEstimator,
    save_flow,
)
from .geometry import Box3D
from .kitti_io import (
    MAX_FRAME,
    LabelFormatError,
    LabelRow,
    VelodyneFormatError,
    camera_to_lidar_boxes,
    frame_index,
    read_calib,
    read_labels,
    read_velodyne,
    result_rows,
    write_calib,
    write_labels,
    write_results,
    write_velodyne,
)
from .metrics import EvalConfig, EvaluationInputError, MetricsReport, TrackedBox, recall_sweep
from .preprocess import (
    Calibration, CalibrationError, PointCloud, fit_ground, sample_points, filter_fov,
)
from .sim import SCENARIO_LIMIT, FrameData, demo_scenario, generate, read_scenario, select_frames
from .tracker import (
    Detection,
    EmittedTrack,
    SettingsError,
    Tracker,
    TrackerConfig,
    UsageError,
    setting_fields,
)

# Points :func:`preprocess_frame` samples from each frame's cloud.
SAMPLE_SIZE = 6000

# Threads that read and preprocess upcoming clouds, and how many frames ahead
# of the tracked one they may be.  On stream-nn (2-CPU host, in-process, five
# runs each) two workers took a median 4.27 s against 4.92 s for one; a
# lookahead of 2, 4 or 8 frames moved it by less than the run-to-run spread.
PREPROCESS_WORKERS = 2
PREPROCESS_LOOKAHEAD = 4

# Malformed inputs: ``main`` reports them in one line and exits with status 2.
DOMAIN_ERRORS = (CalibrationError, EvaluationInputError, FlowDataError, LabelFormatError,
                 SettingsError, UsageError, VelodyneFormatError)


def write_manifest(
    out_dir: Path,
    command: str,
    args: Mapping[str, object],
    seed: int | None,
    started: float,
    finished: float,
) -> None:
    """Write the per-run manifest next to the outputs."""
    manifest = {
        "command": command,
        "version": __version__,
        "arguments": {k: str(v) if isinstance(v, Path) else v for k, v in args.items()},
        "seed": seed,
        "started_unix": started,
        "duration_s": finished - started,
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def preprocess_frame(cloud: PointCloud, calib: Calibration | None, frame: int) -> PointCloud:
    """Standard per-frame chain: crop to ``calib``'s field of view (no crop
    for ``None``), ground labeling, sampling of ``SAMPLE_SIZE`` points.

    The random draws are keyed by ``(0, frame, 0)`` for the ground fit and
    ``(0, frame, 1)`` for the sample, so every frame is reproducible
    independently of processing order.
    """
    if calib is not None:
        cloud = filter_fov(cloud, calib)
    if len(cloud) >= 3:
        cloud, _ = fit_ground(cloud, seed=(0, frame, 0))
    return sample_points(cloud, SAMPLE_SIZE, seed=(0, frame, 1))


def _sized(row: LabelRow, path: Path) -> LabelRow:
    """``row``, checked to describe a box: its sizes must be positive, and
    its sizes and center coordinates at most ``SCENARIO_LIMIT`` in
    magnitude, the bound that keeps every number derived from them finite."""
    limit = SCENARIO_LIMIT
    if not (0 < row.h <= limit and 0 < row.w <= limit and 0 < row.l <= limit
            and abs(row.x) <= limit and abs(row.y) <= limit and abs(row.z) <= limit):
        raise LabelFormatError(
            f"{path}: frame {row.frame}, id {row.track_id}: box sizes must be positive, and "
            f"sizes and center at most {limit:g} m in magnitude; got h={row.h} "
            f"w={row.w} l={row.l} x={row.x} y={row.y} z={row.z}"
        )
    return row


def read_boxes(
    path: Path, calib: Calibration, category: str | None
) -> dict[int, list[tuple[LabelRow, Box3D]]]:
    """Each frame's ``(row, box)`` pairs of a label file, in file order.

    Only rows of ``category`` are kept (every row for ``None``), their sizes
    checked by :func:`_sized`; the kept rows of the whole file are converted
    to the sensor frame by ``calib`` in one :func:`camera_to_lidar_boxes`
    call.  A frame whose rows are all of other categories maps to an empty
    list.
    """
    kept = {
        frame: [_sized(row, path) for row in rows if category is None or row.category == category]
        for frame, rows in read_labels(path).items()
    }
    boxes = iter(camera_to_lidar_boxes([row for rows in kept.values() for row in rows], calib))
    return {frame: [(row, next(boxes)) for row in rows] for frame, rows in kept.items()}


class CloudFiles(Mapping[int, PointCloud]):
    """A directory's ``<frame>.bin`` clouds by frame index, read on lookup.

    Each stem must be a frame index by :func:`frame_index`, one file per
    frame; otherwise :class:`VelodyneFormatError` names the offending file
    or files.
    """

    def __init__(self, directory: Path) -> None:
        self.paths: dict[int, Path] = {}
        for path in sorted(Path(directory).glob("*.bin")):
            frame = frame_index(path.stem)
            if frame is None:
                raise VelodyneFormatError(f"{path}: a cloud file is named by its frame "
                                          f"index, in ASCII digits from 0 to {MAX_FRAME}")
            if frame in self.paths:
                raise VelodyneFormatError(f"{self.paths[frame]} and {path.name} are both "
                                          f"the cloud of frame {frame}")
            self.paths[frame] = path

    def __getitem__(self, frame: int) -> PointCloud:
        return read_velodyne(self.paths[frame])

    def __iter__(self) -> Iterator[int]:
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)


def _preprocessed(
    clouds_by_frame: Mapping[int, PointCloud], frame: int, calib: Calibration | None
) -> PointCloud | None:
    """:func:`preprocess_frame` of the frame's cloud; ``None`` without one,
    or when no point is left of it."""
    cloud = clouds_by_frame.get(frame)
    if cloud is None:
        return None
    sampled = preprocess_frame(cloud, calib, frame)
    return sampled if len(sampled) else None


def preprocessed_flows(
    clouds_by_frame: Mapping[int, PointCloud],
    frames: Iterable[int],
    calib: Calibration | None,
) -> Iterator[tuple[int, PointCloud | None, PointCloud | None]]:
    """The preprocessing half of the preprocess -> flow chain that ``track``
    and ``sim --write-flow`` share; the caller estimates the flow.

    Yields ``(k, prev, curr)`` for each frame ``k``: ``curr`` is the cloud of
    frame ``k`` preprocessed by :func:`preprocess_frame` with ``calib``,
    ``prev`` the ``curr`` of the frame before, when that frame was among
    ``frames``.
    Either is ``None`` when its cloud is missing or empty after
    preprocessing.

    Each frame's cloud is read and preprocessed on one of
    ``PREPROCESS_WORKERS`` threads, at most ``PREPROCESS_LOOKAHEAD`` frames
    ahead of the one being yielded, while the caller's thread estimates flow
    and consumes what is yielded; results are taken in frame order, so the
    output is that of a sequential loop, and an error reading or
    preprocessing frame ``k`` is raised where that loop would raise it.
    Closing the generator, or an error, stops the threads before it
    returns.  With no clouds at all no thread is started.
    """
    if not clouds_by_frame:
        for frame in frames:
            yield frame, None, None
        return
    # Imported here: concurrent.futures loads logging, which costs more than
    # every other standard module the CLI imports, and runs without clouds
    # never start a thread.
    from concurrent.futures import ThreadPoolExecutor

    upcoming = iter(frames)
    pool = ThreadPoolExecutor(PREPROCESS_WORKERS, thread_name_prefix="flowtrack-preprocess")

    def submitted(frame):
        return frame, pool.submit(_preprocessed, clouds_by_frame, frame, calib)

    try:
        pending = deque(map(submitted, islice(upcoming, PREPROCESS_LOOKAHEAD)))
        prev_sampled: PointCloud | None = None
        while pending:
            frame, job = pending.popleft()
            pending.extend(map(submitted, islice(upcoming, 1)))
            sampled = job.result()
            yield frame, prev_sampled, sampled
            prev_sampled = sampled
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_tracking(
    detections_by_frame: Mapping[int, Sequence[Detection]],
    clouds_by_frame: Mapping[int, PointCloud] | None,
    flow_estimator: FlowEstimator | None,
    tracker_config: TrackerConfig,
    calib: Calibration | None = None,
) -> dict[int, list[EmittedTrack]]:
    """Run the tracker over a sequence given as mappings by frame index.

    Frames are processed in ascending index order over every index from the
    first to the last key of the detections and clouds together, so the
    warm-up starts at the first frame that has input.  Clouds are looked up
    only when a ``flow_estimator`` is given, once per frame, in frame order
    (so without one a :class:`CloudFiles` reads none and no thread starts).
    Clouds are preprocessed ahead, cropped to ``calib``'s field of view
    unless it is ``None``, on background threads by
    :func:`preprocessed_flows` while this thread estimates flow and steps
    the tracker; the threads are stopped before this returns or raises.

    Flow is estimated only where the tracker reads it: the previous frame's
    points inside the live tracklets' boxes, found by one
    :meth:`Tracker.membership` pass that the step reuses.  A frame without
    flow (no estimator, a missing or empty cloud at either end of the pair,
    no live tracklet, or no point inside any box) tracks by constant
    velocity, as :class:`Tracker` describes.
    """
    frames: set[int] = set(detections_by_frame)
    if clouds_by_frame:
        frames |= set(clouds_by_frame)
    if not frames:
        return {}

    clouds = (clouds_by_frame or {}) if flow_estimator is not None else {}
    tracker = Tracker(config=tracker_config)
    results = {}
    with closing(preprocessed_flows(clouds, range(min(frames), max(frames) + 1), calib)) as chain:
        for frame, prev, curr in chain:
            flow = members = None
            if prev is not None and curr is not None and tracker.tracklets:
                members = tracker.membership(prev.positions)
                reads = np.unique(np.concatenate(members))
                if len(reads):
                    flow = flow_estimator.estimate(prev, curr, frame - 1, reads)
            results[frame] = tracker.step(list(detections_by_frame.get(frame, [])), flow, members)
    return results


def run_tracking_files(
    detections_path: Path,
    clouds_dir: Path | None,
    calib_path: Path | None,
    out_dir: Path,
    flow_source: str = "oracle",
    flow_dir: Path | None = None,
    gt_path: Path | None = None,
    predictor: str = "flow",
    config: TrackerConfig | None = None,
    category: str = "Car",
    nn_max_distance: float = NN_MAX_MATCH_DISTANCE,
) -> Path:
    """File-based tracking pipeline; returns the result file path.

    ``predictor="flow"`` estimates flow from ``flow_source`` (``"oracle"``,
    ``"nn"`` or ``"file"``) and needs a ``clouds_dir`` that holds clouds;
    ``"cv"`` estimates none, reads no cloud.  Only detections (and oracle
    ground truth) of ``category`` are read.  With a ``calib_path`` each
    cloud is first cropped to that camera's field of view by
    :func:`filter_fov`.
    """
    if predictor not in ("flow", "cv"):
        raise UsageError(f"unknown predictor {predictor!r}")
    if flow_source not in ("oracle", "nn", "file"):
        raise UsageError(f"unknown flow source {flow_source!r}")
    if predictor == "flow" and clouds_dir is None:
        raise UsageError("--predictor flow needs --clouds")
    if clouds_dir is not None and not Path(clouds_dir).is_dir():
        raise UsageError(f"--clouds {clouds_dir}: no such directory")
    clouds_by_frame = CloudFiles(clouds_dir) if clouds_dir is not None else None
    if predictor == "flow" and not clouds_by_frame:
        raise UsageError(f"--clouds {clouds_dir}: no .bin cloud to estimate flow from")
    calib = read_calib(calib_path) if calib_path else Calibration.nominal()

    detections_by_frame = {
        frame: [
            Detection(box, row.score if row.score is not None else 1.0, row.category)
            for row, box in pairs
        ]
        for frame, pairs in read_boxes(detections_path, calib, category).items()
    }

    flow_estimator: FlowEstimator | None = None
    if predictor == "flow":
        if flow_source == "oracle":
            if gt_path is None:
                raise UsageError("--flow-source oracle needs --gt for the true motions")
            flow_estimator = OracleFlowEstimator({
                frame: {row.track_id: box for row, box in pairs}
                for frame, pairs in read_boxes(gt_path, calib, category).items()
            })
        elif flow_source == "nn":
            if not nn_max_distance > 0:
                raise UsageError(f"--nn-max-dist must be positive, got {nn_max_distance}")
            flow_estimator = NearestNeighborFlowEstimator(nn_max_distance)
        else:
            if flow_dir is None:
                raise UsageError("--flow-source file needs --flow-dir")
            flow_estimator = FileFlowEstimator(flow_dir)

    results = run_tracking(
        detections_by_frame,
        clouds_by_frame,
        flow_estimator,
        config if config is not None else TrackerConfig(),
        calib=calib if calib_path else None,
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / "results.txt"
    write_results(result_path, results, calib)
    return result_path


def load_tracked_frames(path: Path, category: str | None = None) -> dict[int, list[TrackedBox]]:
    """Read a label file into per-frame evaluation boxes by :func:`read_boxes`.

    Boxes use the nominal calibration; ground truth and results go through
    the same transform, so IoU comparisons are unaffected.
    """
    return {
        frame: [TrackedBox(row.track_id, box, row.score) for row, box in pairs]
        for frame, pairs in read_boxes(path, Calibration.nominal(), category).items()
    }


def _check_frame_alignment(gt: Mapping, pred: Mapping, where: str = "") -> None:
    """Reject results whose frame indices share nothing with the ground
    truth of their sequence; that pattern means the two were produced for
    different frame numbering (for example decimated results against
    full-rate truth).  ``where`` prefixes the message."""
    if gt and pred and not gt.keys() & pred.keys():
        raise EvaluationInputError(
            f"{where}results and ground truth cover disjoint frame ranges; "
            "check that both use the same frame numbering"
        )


def run_evaluation(
    gt_path: Path,
    results_path: Path,
    out_dir: Path | None,
    iou_thresholds: Sequence[float] = (0.25,),
    category: str = "Car",
    recall_steps: int = 40,
) -> list[MetricsReport]:
    """Evaluate a result file (or directory of per-sequence files) against
    ground truth and write the reports.  A pair of files is evaluated as
    the one sequence ``""``.  Every threshold is checked by its
    :class:`EvalConfig` before any file is read."""
    configs = [EvalConfig(iou_thres, category, recall_steps) for iou_thres in iou_thresholds]
    gt_path, results_path = Path(gt_path), Path(results_path)
    if gt_path.is_dir() != results_path.is_dir():
        raise EvaluationInputError(
            "ground truth and results must both be files or both be directories"
        )
    if gt_path.is_dir():
        gt, pred = (
            {p.stem: load_tracked_frames(p, category) for p in sorted(path.glob("*.txt"))}
            for path in (gt_path, results_path)
        )
    else:
        gt = {"": load_tracked_frames(gt_path, category)}
        pred = {"": load_tracked_frames(results_path, category)}
    for name in sorted(gt.keys() & pred.keys()):
        _check_frame_alignment(gt[name], pred[name], f"sequence {name}: " if name else "")
    reports = []
    for cfg in configs:
        report = recall_sweep(gt, pred, cfg)
        reports.append(report)
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            stem = f"report_iou{cfg.iou_thres:g}"
            (out_dir / f"{stem}.txt").write_text(report.to_text())
            (out_dir / f"{stem}.json").write_text(
                json.dumps(report.to_dict(), indent=2) + "\n"
            )
    return reports


def write_scenario_outputs(
    frames: Sequence[FrameData],
    out_dir: Path,
    calib: Calibration,
    write_flow: bool = False,
) -> None:
    """Write a generated scenario in the on-disk layout ``track`` consumes.

    Layout: ``calib.txt``, ``velodyne/<frame>.bin``, ``gt.txt``,
    ``detections.txt`` and optionally ``flow/<frame>.sfl``.  Flow files are
    computed by :func:`preprocessed_flows` on the clouds as re-read from
    disk and cropped to ``calib``'s field of view, so a ``track`` run with
    the same calibration sees bit-identical sources.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_calib(out_dir / "calib.txt", calib)

    for frame_data in frames:
        write_velodyne(out_dir / "velodyne" / f"{frame_data.index:06d}.bin", frame_data.cloud)
    gt_rows = result_rows({
        f.index: [EmittedTrack(g.obj_id, g.box, 1.0, g.category) for g in f.gt] for f in frames
    }, calib)
    write_labels(out_dir / "gt.txt", {
        frame: [replace(row, score=None) for row in rows] for frame, rows in gt_rows.items()
    })
    write_labels(out_dir / "detections.txt", result_rows({
        f.index: [EmittedTrack(-1, d.box, d.confidence, d.category) for d in f.detections]
        for f in frames
    }, calib))

    if write_flow:
        boxes_by_frame = {
            f.index: {g.obj_id: g.box for g in f.gt} for f in frames
        }
        estimator = OracleFlowEstimator(boxes_by_frame)
        with closing(preprocessed_flows(
            CloudFiles(out_dir / "velodyne"), [f.index for f in frames], calib
        )) as chain:
            for frame, prev, curr in chain:
                if prev is not None and curr is not None:
                    save_flow(out_dir / "flow", frame - 1, estimator.estimate(prev, curr, frame - 1))


def run_decimation(in_dir: Path, out_dir: Path, stride: int, offset: int) -> list[int]:
    """Decimate a written scenario directory, re-indexing frames densely.

    The frames are those with a cloud, a ground-truth row or a detection,
    as ``track`` sees them.  No ``flow/`` is written.  Returns the list of
    original frame indices kept.
    """
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    if not in_dir.is_dir():
        raise UsageError(f"--in {in_dir}: no such directory")
    clouds = CloudFiles(in_dir / "velodyne").paths
    labels = {
        name: read_labels(in_dir / name)
        for name in ("gt.txt", "detections.txt")
        if (in_dir / name).exists()
    }
    kept = select_frames(sorted(set(clouds).union(*labels.values())), stride, offset)

    out_dir.mkdir(parents=True, exist_ok=True)
    if clouds:
        (out_dir / "velodyne").mkdir(exist_ok=True)
    for new, old in enumerate(kept):
        if old in clouds:
            shutil.copyfile(clouds[old], out_dir / "velodyne" / f"{new:06d}.bin")
    for name, rows in labels.items():
        write_labels(out_dir / name, {
            new: [replace(r, frame=new) for r in rows.get(old, [])]
            for new, old in enumerate(kept)
        })

    calib_path = in_dir / "calib.txt"
    if calib_path.exists():
        shutil.copyfile(calib_path, out_dir / "calib.txt")
    return kept


def _add_track_parser(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser("track", help="run the tracking pipeline")
    p.add_argument("--detections", type=Path, required=True, help="detection label file")
    p.add_argument("--clouds", type=Path, help="directory of point-cloud .bin files")
    p.add_argument("--calib", type=Path, help="calibration file")
    p.add_argument("--gt", type=Path, help="ground-truth file (needed for oracle flow)")
    p.add_argument(
        "--flow-source", choices=("oracle", "nn", "file"), default="oracle",
        help="where flow fields come from",
    )
    p.add_argument("--flow-dir", type=Path, help="directory of .sfl files for --flow-source file")
    p.add_argument("--predictor", choices=("flow", "cv"), default="flow")
    p.add_argument("--config", type=Path, help="key-value configuration file")
    p.add_argument("--category", default="Car", help="category to track")
    p.add_argument("--nn-max-dist", type=float, default=NN_MAX_MATCH_DISTANCE)
    p.add_argument("--out", type=Path, required=True, help="output directory")


def _add_eval_parser(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser("eval", help="score results against ground truth")
    p.add_argument("--gt", type=Path, required=True)
    p.add_argument("--results", type=Path, required=True)
    p.add_argument(
        "--iou-thres", type=float, action="append", default=None,
        help="IoU threshold; repeat for several",
    )
    p.add_argument("--category", default="Car")
    p.add_argument("--recall-steps", type=int, default=40)
    p.add_argument("--out", type=Path, required=True)


def _add_sim_parser(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser("sim", help="generate a synthetic scenario")
    p.add_argument("--scenario", type=Path, help="scenario file; omit for the built-in demo")
    p.add_argument("--frames", type=int, help="demo scenario length (default 30)")
    p.add_argument("--objects", type=int, help="demo scenario object count (default 5)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--write-flow", action="store_true", help="also write exact flow fields")
    p.add_argument("--out", type=Path, required=True)


def _add_decimate_parser(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser("decimate", help="drop frames from a written scenario")
    p.add_argument("--in", dest="in_dir", type=Path, required=True)
    p.add_argument("--stride", type=int, required=True, help="keep every n-th frame")
    p.add_argument("--offset", type=int, default=0, help="index of the first frame kept")
    p.add_argument("--out", type=Path, required=True)


def _run_command(args: argparse.Namespace, arg_record: dict) -> None:
    """Run the parsed subcommand; ``arg_record`` gains the resolved config."""
    if args.command == "track":
        config = TrackerConfig.from_file(args.config) if args.config else TrackerConfig()
        arg_record["resolved_config"] = setting_fields(config)
        result_path = run_tracking_files(
            detections_path=args.detections,
            clouds_dir=args.clouds,
            calib_path=args.calib,
            out_dir=args.out,
            flow_source=args.flow_source,
            flow_dir=args.flow_dir,
            gt_path=args.gt,
            predictor=args.predictor,
            config=config,
            category=args.category,
            nn_max_distance=args.nn_max_dist,
        )
        print(f"results written to {result_path}")
    elif args.command == "eval":
        thresholds = args.iou_thres if args.iou_thres else [0.25]
        reports = run_evaluation(
            gt_path=args.gt,
            results_path=args.results,
            out_dir=args.out,
            iou_thresholds=thresholds,
            category=args.category,
            recall_steps=args.recall_steps,
        )
        for report in reports:
            print(report.to_text(), end="")
    elif args.command == "sim":
        if args.scenario is not None:
            if args.frames is not None or args.objects is not None:
                raise UsageError("--frames and --objects build the demo scenario; "
                                 "a --scenario file sets its own")
            scenario = read_scenario(args.scenario)
        else:
            arg_record["frames"] = 30 if args.frames is None else args.frames
            arg_record["objects"] = 5 if args.objects is None else args.objects
            scenario = demo_scenario(frames=arg_record["frames"], num_objects=arg_record["objects"])
        if args.seed is not None:
            scenario.seed = args.seed
        write_scenario_outputs(
            generate(scenario), args.out, scenario.sensor.calibration(),
            write_flow=args.write_flow,
        )
        print(f"scenario written to {args.out}")
    elif args.command == "decimate":
        kept = run_decimation(args.in_dir, args.out, args.stride, args.offset)
        print(f"kept {len(kept)} frames")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="flowtrack",
        description="3D multi-object tracking with scene-flow motion prediction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_track_parser(subparsers)
    _add_eval_parser(subparsers)
    _add_sim_parser(subparsers)
    _add_decimate_parser(subparsers)
    args = parser.parse_args(argv)

    started = time.time()
    arg_record = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        _run_command(args, arg_record)
    except (*DOMAIN_ERRORS, OSError) as exc:
        # OSError: an input file that is missing or cannot be read.
        message = " ".join(str(exc).splitlines())
        print(f"flowtrack {args.command}: error: {message}", file=sys.stderr)
        return 2

    write_manifest(
        args.out, args.command, arg_record, getattr(args, "seed", None), started, time.time()
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
