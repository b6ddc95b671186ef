"""One round of a workload in a fresh interpreter.

Usage: ``python3 child.py <spec.json> <record.json>``.  The spec names the
checkout's ``src`` directory, the workload's input files and whether to
trace.  The round imports the package, runs one ``track`` or ``eval`` call
through the CLI glue and writes a record with its timings, the samples the
correctness checks need and, when traced, the per-layer metrics.  A
``stream-nn`` round then makes a second, untimed ``track`` call on the fixed
ground-probe scenario and records every ground plane fitted there.

Timing marks are taken by thin wrappers around the calls every run passes
through (``run_tracking``, ``Tracker.step``, ``recall_sweep``,
``evaluate_sequence``); they cost about a microsecond per call.  A tracking
round's frame times are the intervals between ``Tracker.step`` returns; an
``eval-sweep`` round's are the time of each ``evaluate_sequence`` call
divided by the frames it evaluates.
"""

import json
import resource
import sys
import time

T0 = time.perf_counter()


def _hook(owner, attr, before=None, after=None):
    original = getattr(owner, attr)

    def hooked(*args, **kwargs):
        if before:
            before(args)
        result = original(*args, **kwargs)
        if after:
            after(args, result)
        return result

    setattr(owner, attr, hooked)


def _capture_every(period, store, make):
    """After-hook that keeps ``make(args, result)`` for every ``period``-th
    call, starting with the first."""
    count = [0]

    def after(args, result):
        if count[0] % period == 0:
            store.append(make(args, result))
        count[0] += 1

    return after


def _track(cli, files):
    cli.run_tracking_files(
        detections_path=files["detections"],
        clouds_dir=files.get("clouds"),
        calib_path=files["calib"],
        out_dir=files["out"],
        flow_source="nn",
        predictor=files["predictor"],
    )


def main() -> int:
    spec = json.loads(open(sys.argv[1]).read())
    sys.path.insert(0, spec["src"])
    import flowtrack.cli as cli
    import flowtrack.flow
    import flowtrack.metrics
    import flowtrack.tracker
    import numpy as np

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, spec["bench"])
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)

    marks = {}
    frame_ends = []
    evaluations = []
    stamp = time.perf_counter

    def first(name):
        return lambda _args: marks.setdefault(name, stamp())

    captures = {}
    workload = spec["workload"]
    if workload in ("stream-nn", "crowd-cv"):
        _hook(cli, "run_tracking", before=first("start"))
        _hook(flowtrack.tracker.Tracker, "step", after=lambda _a, _r: frame_ends.append(stamp()))
    else:
        _hook(cli, "recall_sweep", before=first("start"))
        # One sample per sequence evaluation: its time divided by the frames
        # it matched.  Single match_frame calls take under 2 ms and their
        # cost depends on how many rows of the frame pass the threshold, so
        # a percentile over them follows the seed's draw more than the code.
        opened = []
        _hook(flowtrack.metrics, "evaluate_sequence",
              before=lambda _a: opened.append(stamp()),
              after=lambda a, _r: evaluations.append(
                  (stamp() - opened.pop()) / max(len(set(a[0]) | set(a[1])), 1)))

    if workload == "stream-nn":
        captures["nn"] = []
        _hook(flowtrack.flow, "estimate_nn", after=_capture_every(
            50, captures["nn"],
            lambda a, r: (a[0].positions.copy(), a[1].positions.copy(), float(a[2]), r.vectors.copy()),
        ))
    elif workload == "crowd-cv":
        # The solver's pairs and the matches ``associate`` keeps of them, on
        # the same frames: both are called once per step.
        captures["assignment"] = []
        captures["matches"] = []
        _hook(flowtrack.tracker, "max_similarity_assignment", after=_capture_every(
            20, captures["assignment"], lambda a, r: (np.array(a[0], dtype=float), list(r)),
        ))
        _hook(flowtrack.tracker, "associate", after=_capture_every(
            20, captures["matches"], lambda a, r: (float(a[1]), list(r.matches)),
        ))

    inputs = spec["inputs"]
    record = {}
    if workload == "eval-sweep":
        reports = cli.run_evaluation(
            inputs["gt"], inputs["results"], inputs["out"], iou_thresholds=(0.25,)
        )
        end = stamp()
        report = reports[0]
        record["report"] = {
            "samota": report.samota,
            "mota": report.mota,
            "rows": [
                [r.recall_target, r.threshold, r.mota, r.motp, r.smota, r.fp, r.fn, r.ids]
                for r in report.rows
            ],
        }
    else:
        _track(cli, inputs)
        end = stamp()

    start = marks["start"]
    record.update(
        setup_s=start - T0,
        wall_s=end - start,
        frame_s=evaluations if workload == "eval-sweep" else np.diff([start] + frame_ends).tolist(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        record["layers"] = layer_metrics(tracer)
    if workload == "stream-nn":
        np.savez(
            spec["captures"],
            **{f"nn{i}_{k}": v for i, c in enumerate(captures["nn"]) for k, v in zip("pcdv", c)},
        )
        # The ground check's own operation, after every figure above is
        # taken: track the fixed probe scenario and keep every fitted plane.
        planes = []
        _hook(cli, "fit_ground", after=lambda _a, r: planes.append((r[1].found, r[1].plane)))
        _track(cli, spec["probe"])
        record["probe_planes"] = planes
    elif workload == "crowd-cv":
        np.savez(spec["captures"], **{f"sim{i}": c[0] for i, c in enumerate(captures["assignment"])})
        record["assignment_pairs"] = [[list(map(int, p)) for p in c[1]] for c in captures["assignment"]]
        record["matches"] = [
            [iou_min, [list(map(int, p)) for p in kept]] for iou_min, kept in captures["matches"]
        ]
    with open(sys.argv[2], "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
