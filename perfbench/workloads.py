"""Seeded input generation for the three benchmark workloads.

Every scenario is built from the public ``flowtrack.sim`` model (objects on
waypoint trajectories, a flat ground plane, detection noise) and written
with the public ``flowtrack.kitti_io`` writers.  The program under test only
ever sees the files written here.  Besides the files, each generator returns
the facts the correctness checks need (ground plane, injected faults), so
the checks never have to trust the program's own reading of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from flowtrack.kitti_io import result_row, write_calib, write_labels, write_velodyne
from flowtrack.sim import (
    GroundSpec,
    NoiseSpec,
    ObjectSpec,
    Scenario,
    Waypoint,
    arc_waypoints,
    generate,
)
from flowtrack.tracker import EmittedTrack

GROUND_Z = -1.73
CAR_H = 1.6
TRACK_FRAMES = 200
# The ground check's input: the stream-nn scenario at one fixed seed, so
# that the check sees the same clouds whatever seed a run is given.
PROBE_SEED = 0
PROBE_FRAMES = 20
# Centre of the ring roads the cars drive on.  It sits far enough in front of
# the sensor that every lane stays inside the 45-degree half-angle frustum.
RING_CENTRE = (34.0, 0.0)


@dataclass
class Lane:
    radius: float
    cars: int
    speed_range: tuple[float, float]


# Concentric one-way lanes: cars of one lane share its speed, so they never
# run into each other; neighbouring lanes run in opposite directions, so
# half of the traffic is oncoming.  Outer lanes are faster, which keeps the
# turn rate gentle (speed / radius stays under 0.08 rad per frame).
STREAM_LANES = [
    Lane(6.0, 2, (0.20, 0.40)),
    Lane(9.5, 3, (0.40, 0.70)),
    Lane(13.0, 4, (0.60, 0.95)),
    Lane(16.5, 5, (0.85, 1.20)),
    Lane(20.0, 6, (1.10, 1.50)),
]
CROWD_LANES = [
    Lane(6.0, 3, (0.20, 0.40)),
    Lane(9.5, 5, (0.40, 0.70)),
    Lane(13.0, 7, (0.60, 0.95)),
    Lane(16.5, 9, (0.85, 1.20)),
    Lane(20.0, 10, (1.00, 1.35)),
    Lane(23.5, 11, (1.10, 1.50)),
]


@dataclass
class TrackingInputs:
    """Files of one tracking workload plus the facts the checks use."""

    directory: Path
    ground_z: float
    has_clouds: bool


def ring_objects(
    lanes: list[Lane], frames: int, rng: np.random.Generator,
    layout: np.random.Generator | None = None,
) -> list[ObjectSpec]:
    """Cars on concentric ring lanes, one constant-turn trajectory each.

    ``layout`` draws the lane speeds and phases (``rng`` when not given),
    ``rng`` the car sizes.
    """
    layout = rng if layout is None else layout
    objects = []
    obj_id = 1
    for index, lane in enumerate(lanes):
        speed = float(layout.uniform(*lane.speed_range))
        direction = 1.0 if index % 2 == 0 else -1.0
        # One chord of length ``speed`` per frame around a circle of the
        # lane's radius; the heading turns by the chord's central angle.
        turn = direction * 2.0 * math.asin(speed / (2.0 * lane.radius))
        phase0 = layout.uniform(0.0, 2.0 * math.pi)
        for k in range(lane.cars):
            phase = phase0 + 2.0 * math.pi * k / lane.cars
            length = float(rng.uniform(3.8, 4.6))
            width = float(rng.uniform(1.7, 1.95))
            x = RING_CENTRE[0] + lane.radius * math.cos(phase)
            y = RING_CENTRE[1] + lane.radius * math.sin(phase)
            # Tangent heading, rotated back by half a chord so the polygon
            # path stays centred on the lane.
            yaw = phase + direction * math.pi / 2.0 + turn / 2.0
            start = Waypoint(frame=0, x=x, y=y, z=GROUND_Z + CAR_H / 2.0, yaw=yaw)
            objects.append(
                ObjectSpec(
                    obj_id=obj_id,
                    category="Car",
                    l=length,
                    w=width,
                    h=CAR_H,
                    waypoints=arc_waypoints(start, speed, turn, frames),
                )
            )
            obj_id += 1
    return objects


def _write_tracking_files(scenario: Scenario, out: Path, with_clouds: bool) -> None:
    calib = scenario.sensor.calibration()
    out.mkdir(parents=True, exist_ok=True)
    write_calib(out / "calib.txt", calib)
    gt_rows, det_rows = {}, {}
    for frame in generate(scenario):
        if with_clouds:
            write_velodyne(out / "velodyne" / f"{frame.index:06d}.bin", frame.cloud)
        gt_rows[frame.index] = [
            replace(
                result_row(frame.index, EmittedTrack(g.obj_id, g.box, 1.0, g.category), calib),
                score=None,
            )
            for g in frame.gt
        ]
        # Highest score first, the order a detector emits them in.
        det_rows[frame.index] = [
            result_row(frame.index, EmittedTrack(-1, d.box, d.confidence, d.category), calib)
            for d in sorted(frame.detections, key=lambda d: -d.confidence)
        ]
    write_labels(out / "gt.txt", gt_rows)
    write_labels(out / "detections.txt", det_rows)


def make_stream_nn(out: Path, seed: int, frames: int = TRACK_FRAMES) -> TrackingInputs:
    """Dense clouds, 20 cars at mixed speeds, noisy scored detections."""
    rng = np.random.default_rng([seed, 1])
    scenario = Scenario(
        frames=frames,
        objects=ring_objects(STREAM_LANES, frames, rng),
        ground=GroundSpec(
            z=GROUND_Z, x_range=(0.0, 60.0), y_range=(-30.0, 30.0),
            num_points=16000, noise_sigma=0.02,
        ),
        noise=NoiseSpec(
            pos_sigma=0.12, yaw_sigma=0.03, fp_rate=0.3, fn_rate=0.05,
            score_range=(0.3, 0.95), fp_score_range=(0.05, 0.5),
        ),
        seed=int(rng.integers(2**31)),
        points_per_object=400,
    )
    _write_tracking_files(scenario, out, with_clouds=True)
    return TrackingInputs(out, GROUND_Z, has_clouds=True)


def make_crowd_cv(out: Path, seed: int) -> TrackingInputs:
    """45 cars alive in every frame, detections only.

    The lane layout is the same for every seed; the seed draws the car
    sizes, the detection noise, misses, false positives and scores.  The
    assignment solver's work depends on how the cars sit relative to each
    other, so a seeded layout would make some seeds markedly slower than
    others and hide a change among them.
    """
    rng = np.random.default_rng([seed, 2])
    scenario = Scenario(
        frames=TRACK_FRAMES,
        objects=ring_objects(CROWD_LANES, TRACK_FRAMES, rng, layout=np.random.default_rng(2)),
        # The clouds are never written; keep them tiny so generation is fast.
        ground=GroundSpec(z=GROUND_Z, num_points=3),
        noise=NoiseSpec(
            pos_sigma=0.12, yaw_sigma=0.03, fp_rate=0.5, fn_rate=0.05,
            score_range=(0.3, 0.95), fp_score_range=(0.05, 0.5),
        ),
        seed=int(rng.integers(2**31)),
        points_per_object=1,
    )
    _write_tracking_files(scenario, out, with_clouds=False)
    return TrackingInputs(out, GROUND_Z, has_clouds=False)


# --- eval-sweep ------------------------------------------------------------

EVAL_SEQUENCES = (("0000", 14), ("0001", 12))
EVAL_CARS = 6
EVAL_MISS_SHARE = 0.12


@dataclass
class InjectedRow:
    """One written result row and what it was made from."""

    frame: int
    result_id: int
    gt_id: int | None  # None for an injected false positive


@dataclass
class EvalSequence:
    name: str
    rows: list[InjectedRow] = field(default_factory=list)


@dataclass
class EvalInputs:
    gt_dir: Path
    results_dir: Path
    sequences: list[EvalSequence]


def _eval_objects(frames: int, rng: np.random.Generator) -> list[ObjectSpec]:
    """Cars in separate lanes 12 m apart, so only a car and its own result
    rows can overlap."""
    objects = []
    for i in range(EVAL_CARS):
        speed = float(rng.uniform(0.3, 1.2))
        turn = float(rng.uniform(-0.01, 0.01))
        start = Waypoint(
            frame=0, x=float(rng.uniform(12.0, 20.0)), y=-30.0 + 12.0 * i,
            z=GROUND_Z + CAR_H / 2.0, yaw=float(rng.uniform(-0.1, 0.1)),
        )
        objects.append(
            ObjectSpec(
                obj_id=i + 1, category="Car", l=float(rng.uniform(3.8, 4.6)),
                w=float(rng.uniform(1.7, 1.95)), h=CAR_H,
                waypoints=arc_waypoints(start, speed, turn, frames),
            )
        )
    return objects


def make_eval_sweep(out: Path, seed: int) -> EvalInputs:
    """Ground truth and scored results with known misses, false positives
    and identity switches.

    A result row keeps its car's size and yaw and is shifted by at most
    0.8 m along the heading, 0.35 m sideways and 0.2 m vertically, so its
    IoU with its own car is at least 0.39 and has a closed form; it cannot
    touch any other car.  False positives sit 200 m away from every car.
    Every score is distinct at the six decimals the files keep, and every
    false positive scores below every true row, as a detector's false
    positives tend to.  The number of rows of each kind is the same for
    every seed, because the sweep's cost grows with the square of the number
    of scored rows, and so is the number of identity switches.  With false
    positives at the bottom, the best row of the sweep keeps every true row
    and no false positive, so the report's MOTA is the same for every seed;
    with false positives among the true rows it moved by a row's share
    whenever a seed put one last.
    """
    rng = np.random.default_rng([seed, 3])
    calib = Scenario(frames=1, objects=[]).sensor.calibration()
    gt_dir, results_dir = out / "gt", out / "results"
    sequences = []
    fp_rows = sum(frames // 2 for _, frames in EVAL_SEQUENCES)
    total_rows = sum(frames for _, frames in EVAL_SEQUENCES) * EVAL_CARS + fp_rows
    scores = np.sort(
        rng.choice(np.arange(10_000, 1_000_000), size=total_rows, replace=False) / 1e6
    )
    fp_score_iter = iter(rng.permutation(scores[:fp_rows]).tolist())
    score_iter = iter(rng.permutation(scores[fp_rows:]).tolist())
    for name, frames in EVAL_SEQUENCES:
        objects = _eval_objects(frames, rng)
        slots = frames * EVAL_CARS
        missed = set(rng.choice(slots, size=round(EVAL_MISS_SHARE * slots), replace=False).tolist())
        fp_frames = set(rng.choice(frames, size=frames // 2, replace=False).tolist())
        # Half of the cars switch to a new result id once, in the middle
        # third of the sequence.  A fixed number of switches keeps the
        # report's MOTA the same for every seed.
        switch_at = {
            int(obj_id): int(rng.integers(frames // 3, 2 * frames // 3))
            for obj_id in rng.choice(
                [spec.obj_id for spec in objects], size=EVAL_CARS // 2, replace=False
            )
        }
        seq = EvalSequence(name)
        gt_rows, res_rows = {}, {}
        next_fp_id = 1000
        for frame in range(frames):
            gt_rows[frame], res_rows[frame] = [], []
            for k, spec in enumerate(objects):
                box = spec.box_at(frame)
                gt_rows[frame].append(
                    replace(
                        result_row(frame, EmittedTrack(spec.obj_id, box, 1.0, "Car"), calib),
                        score=None,
                    )
                )
                if frame * EVAL_CARS + k in missed:
                    continue
                dl, dw, dz = rng.uniform(-0.8, 0.8), rng.uniform(-0.35, 0.35), rng.uniform(-0.2, 0.2)
                c, s = math.cos(box.theta), math.sin(box.theta)
                shifted = box.translated(dl * c - dw * s, dl * s + dw * c, dz)
                result_id = 100 * spec.obj_id
                if spec.obj_id in switch_at and frame >= switch_at[spec.obj_id]:
                    result_id += 1
                res_rows[frame].append(
                    result_row(frame, EmittedTrack(result_id, shifted, next(score_iter), "Car"), calib)
                )
                seq.rows.append(InjectedRow(frame, result_id, spec.obj_id))
            if frame in fp_frames:
                fp_box = replace(
                    objects[0].box_at(frame), x=float(rng.uniform(200.0, 260.0)),
                    y=float(rng.uniform(-20.0, 20.0)),
                )
                res_rows[frame].append(
                    result_row(frame, EmittedTrack(next_fp_id, fp_box, next(fp_score_iter), "Car"), calib)
                )
                seq.rows.append(InjectedRow(frame, next_fp_id, None))
                next_fp_id += 1
        write_labels(gt_dir / f"{name}.txt", gt_rows)
        write_labels(results_dir / f"{name}.txt", res_rows)
        sequences.append(seq)
    return EvalInputs(gt_dir, results_dir, sequences)
