"""Synthetic LiDAR tracking scenarios with exact ground truth.

A scenario holds rigid box-shaped objects following waypoint trajectories
over a flat ground plane, watched by a forward-facing camera.  Each frame
provides the point cloud, ground-truth boxes and noisy detections.  Object
points move rigidly with their boxes, so the pose change of any two frames'
boxes (:func:`flowtrack.flow.motions_from_boxes`) is their exact motion and
exact scene flow is available by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence, TypeVar

import numpy as np

from .geometry import Box3D, wrap_angle
from .preprocess import UNLABELED, Calibration, Frustum, PointCloud
from .tracker import Detection, UsageError

T = TypeVar("T")


@dataclass
class Waypoint:
    """Pose of an object at one frame; poses between waypoints are linearly
    interpolated."""

    frame: int
    x: float
    y: float
    z: float
    yaw: float


@dataclass
class ObjectSpec:
    """Rigid box-shaped object with a waypoint trajectory.

    The waypoints must cover frame 0 through the last scenario frame; the
    per-frame pose comes from linear interpolation (shortest-path for yaw).
    """

    obj_id: int
    category: str
    l: float
    w: float
    h: float
    waypoints: list[Waypoint]

    def pose_at(self, frame: int) -> tuple[float, float, float, float]:
        """Interpolated (x, y, z, yaw) at an integer frame."""
        pts = sorted(self.waypoints, key=lambda p: p.frame)
        if frame < pts[0].frame or frame > pts[-1].frame:
            raise ValueError(
                f"object {self.obj_id}: frame {frame} outside waypoint span "
                f"[{pts[0].frame}, {pts[-1].frame}]"
            )
        for a, b in zip(pts, pts[1:]):
            if a.frame <= frame <= b.frame:
                if a.frame == b.frame:
                    t = 0.0
                else:
                    t = (frame - a.frame) / (b.frame - a.frame)
                yaw = a.yaw + t * wrap_angle(b.yaw - a.yaw)
                return (
                    a.x + t * (b.x - a.x),
                    a.y + t * (b.y - a.y),
                    a.z + t * (b.z - a.z),
                    wrap_angle(yaw),
                )
        last = pts[-1]
        return last.x, last.y, last.z, wrap_angle(last.yaw)

    def box_at(self, frame: int) -> Box3D:
        x, y, z, yaw = self.pose_at(frame)
        return Box3D(x=x, y=y, z=z, l=self.l, w=self.w, h=self.h, theta=yaw)


def arc_waypoints(
    start: Waypoint,
    speed: float,
    turn_rate: float,
    frames: int,
) -> list[Waypoint]:
    """Constant-turn trajectory: one waypoint per frame.

    The object advances ``speed`` meters per frame along its heading while
    the heading rotates by ``turn_rate`` radians per frame.  A zero turn
    rate gives a straight line.
    """
    points = [start]
    x, y, z, yaw = start.x, start.y, start.z, start.yaw
    for frame in range(start.frame + 1, start.frame + frames):
        x += speed * math.cos(yaw)
        y += speed * math.sin(yaw)
        yaw = wrap_angle(yaw + turn_rate)
        points.append(Waypoint(frame=frame, x=x, y=y, z=z, yaw=yaw))
    return points


@dataclass
class GroundSpec:
    """Flat ground plane sampled with uniform points."""

    z: float = 0.0
    x_range: tuple[float, float] = (0.0, 60.0)
    y_range: tuple[float, float] = (-25.0, 25.0)
    num_points: int = 2000
    noise_sigma: float = 0.0


@dataclass
class SensorSpec:
    """Forward-facing camera defining the frustum."""

    focal: float = 600.0
    image_width: int = 1200
    image_height: int = 400
    margin_deg: float = 10.0

    def calibration(self) -> Calibration:
        return Calibration.nominal(self.focal, self.image_width, self.image_height)

    def frustum(self) -> Frustum:
        return Frustum(
            calibration=self.calibration(),
            image_width=self.image_width,
            image_height=self.image_height,
            margin_deg=self.margin_deg,
        )


@dataclass
class NoiseSpec:
    """Detection corruption model.

    ``pos_sigma``/``yaw_sigma`` are Gaussian noise scales on the detection
    center and yaw.  ``fp_rate`` is the per-frame probability of injecting a
    spurious detection uniformly in the frustum; ``fn_rate`` the per-object
    probability of dropping a detection.  Scores are drawn uniformly from
    ``score_range`` for real detections and ``fp_score_range`` for injected
    ones.
    """

    pos_sigma: float = 0.0
    yaw_sigma: float = 0.0
    fp_rate: float = 0.0
    fn_rate: float = 0.0
    score_range: tuple[float, float] = (1.0, 1.0)
    fp_score_range: tuple[float, float] = (0.1, 0.5)


@dataclass
class Scenario:
    """Complete scenario description."""

    frames: int
    objects: list[ObjectSpec]
    ground: GroundSpec = field(default_factory=GroundSpec)
    sensor: SensorSpec = field(default_factory=SensorSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    points_per_object: int = 200


@dataclass
class GtBox:
    """Ground-truth box of one object in one frame."""

    obj_id: int
    category: str
    box: Box3D


@dataclass
class FrameData:
    """Everything the pipeline can consume for one frame.

    Point labels in ``cloud`` are object ids (ground points are
    ``UNLABELED``); the motion of an object's points between two frames is
    the pose change of its boxes in ``gt``.
    """

    index: int
    cloud: PointCloud
    gt: list[GtBox]
    detections: list[Detection]


def _sample_face_points(spec: ObjectSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the box surface in the object's local frame.

    The bottom face is skipped: a roof-mounted LiDAR never sees it, and the
    points would coincide with the ground plane.
    """
    hl, hw, hh = spec.l / 2.0, spec.w / 2.0, spec.h / 2.0
    faces = [
        # (area, fixed axis, fixed value)
        (spec.w * spec.h, 0, hl),
        (spec.w * spec.h, 0, -hl),
        (spec.l * spec.h, 1, hw),
        (spec.l * spec.h, 1, -hw),
        (spec.l * spec.w, 2, hh),
    ]
    areas = np.array([f[0] for f in faces])
    choices = rng.choice(len(faces), size=count, p=areas / areas.sum())
    points = np.empty((count, 3))
    spans = np.array([hl, hw, hh])
    for i, face_index in enumerate(choices):
        _, axis, value = faces[face_index]
        free = [a for a in range(3) if a != axis]
        points[i, axis] = value
        for a in free:
            points[i, a] = rng.uniform(-spans[a], spans[a])
    return points


def _world_points(local: np.ndarray, box: Box3D) -> np.ndarray:
    c, s = math.cos(box.theta), math.sin(box.theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return local @ rot.T + box.center


def _random_frustum_box(scenario: Scenario, rng: np.random.Generator) -> Box3D:
    sensor = scenario.sensor
    half_fov = math.atan2(sensor.image_width / 2.0, sensor.focal)
    azimuth = rng.uniform(-0.9 * half_fov, 0.9 * half_fov)
    radius = rng.uniform(8.0, 45.0)
    l, w, h = 4.0, 1.8, 1.6
    return Box3D(
        x=radius * math.cos(azimuth),
        y=radius * math.sin(azimuth),
        z=scenario.ground.z + h / 2.0,
        l=l,
        w=w,
        h=h,
        theta=rng.uniform(-math.pi, math.pi),
    )


def generate(scenario: Scenario) -> list[FrameData]:
    """Generate every frame of a scenario.

    Object surface points are sampled once in the object frame and moved
    rigidly along the trajectory, so the pose change of an object's boxes
    between any two frames reproduces each of its points' displacement
    exactly.  Ground points are static.  All
    randomness flows from the scenario seed; repeated calls are identical.
    """
    if scenario.frames < 1:
        raise ValueError("scenario needs at least one frame")
    for spec in scenario.objects:
        spec.pose_at(0)
        spec.pose_at(scenario.frames - 1)
    ids = [spec.obj_id for spec in scenario.objects]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate object ids: {ids}")

    rng = np.random.default_rng(scenario.seed)
    ground = scenario.ground
    ground_points = np.column_stack(
        [
            rng.uniform(ground.x_range[0], ground.x_range[1], ground.num_points),
            rng.uniform(ground.y_range[0], ground.y_range[1], ground.num_points),
            np.full(ground.num_points, ground.z)
            + (
                rng.normal(0.0, ground.noise_sigma, ground.num_points)
                if ground.noise_sigma > 0
                else 0.0
            ),
        ]
    )
    local_points = {
        spec.obj_id: _sample_face_points(spec, scenario.points_per_object, rng)
        for spec in scenario.objects
    }
    intensity = rng.uniform(
        0.0, 1.0, ground.num_points + scenario.points_per_object * len(scenario.objects)
    )

    frames: list[FrameData] = []
    for frame in range(scenario.frames):
        gt: list[GtBox] = []
        positions = [ground_points]
        labels = [np.full(len(ground_points), UNLABELED, dtype=int)]
        for spec in scenario.objects:
            box = spec.box_at(frame)
            gt.append(GtBox(obj_id=spec.obj_id, category=spec.category, box=box))
            positions.append(_world_points(local_points[spec.obj_id], box))
            labels.append(np.full(scenario.points_per_object, spec.obj_id, dtype=int))
        cloud = PointCloud(
            positions=np.vstack(positions),
            features=intensity.reshape(-1, 1),
            labels=np.concatenate(labels),
        )

        noise = scenario.noise
        detections: list[Detection] = []
        for entry in gt:
            dropped = rng.uniform() < noise.fn_rate
            offset = rng.normal(0.0, 1.0, 3) * noise.pos_sigma
            yaw_offset = rng.normal(0.0, 1.0) * noise.yaw_sigma
            score = rng.uniform(noise.score_range[0], noise.score_range[1])
            if dropped:
                continue
            detections.append(
                Detection(
                    box=replace(
                        entry.box,
                        x=entry.box.x + offset[0],
                        y=entry.box.y + offset[1],
                        z=entry.box.z + offset[2],
                        theta=wrap_angle(entry.box.theta + yaw_offset),
                    ),
                    confidence=float(score),
                    category=entry.category,
                )
            )
        if rng.uniform() < noise.fp_rate:
            detections.append(
                Detection(
                    box=_random_frustum_box(scenario, rng),
                    confidence=float(
                        rng.uniform(noise.fp_score_range[0], noise.fp_score_range[1])
                    ),
                    category=scenario.objects[0].category if scenario.objects else "Car",
                )
            )

        frames.append(
            FrameData(
                index=frame,
                cloud=cloud,
                gt=gt,
                detections=detections,
            )
        )
    return frames


def select_frames(frames: Sequence[T], stride: int, offset: int) -> list[T]:
    """Every ``stride``-th frame from ``offset`` on: the one decimation rule,
    in memory and on disk.  An empty result emits a ``RuntimeWarning``."""
    if stride < 1:
        raise UsageError(f"stride must be at least 1, got {stride}")
    if offset < 0:
        raise UsageError(f"offset must be non-negative, got {offset}")
    kept = list(frames[offset::stride])
    if not kept:
        warnings.warn("decimation kept no frames", RuntimeWarning, stacklevel=3)
    return kept


def decimate(frames: list[FrameData], stride: int = 2, offset: int = 0) -> list[FrameData]:
    """Keep every ``stride``-th frame starting at ``offset`` and re-index
    densely from zero.

    Clouds, ground truth and detections travel with their frames, so the
    exact motion between two kept frames is still the pose change of their
    ground-truth boxes.  An empty result emits a ``RuntimeWarning``.
    """
    return [
        replace(frame, index=index)
        for index, frame in enumerate(select_frames(frames, stride, offset))
    ]


def demo_scenario(
    frames: int = 30, num_objects: int = 5, seed: int = 7, noise: NoiseSpec | None = None
) -> Scenario:
    """Ready-made scenario: parallel lanes of cars driving forward inside
    the frustum."""
    ground_z = -1.73
    box_h = 1.6
    objects = []
    for i in range(num_objects):
        lane = 3.0 * (i - (num_objects - 1) / 2.0)
        start_x = 9.0 + 2.0 * (i % 3)
        speed = 0.6 + 0.15 * i
        z = ground_z + box_h / 2.0
        objects.append(
            ObjectSpec(
                obj_id=i + 1,
                category="Car",
                l=4.0,
                w=1.8,
                h=box_h,
                waypoints=[
                    Waypoint(frame=0, x=start_x, y=lane, z=z, yaw=0.0),
                    Waypoint(
                        frame=frames - 1,
                        x=start_x + speed * (frames - 1),
                        y=lane,
                        z=z,
                        yaw=0.0,
                    ),
                ],
            )
        )
    return Scenario(
        frames=frames,
        objects=objects,
        ground=GroundSpec(z=ground_z),
        seed=seed,
        noise=noise or NoiseSpec(),
    )


def _parse_floats(value: str, count: int, context: str) -> list[float]:
    parts = value.split()
    if len(parts) != count:
        raise ValueError(f"{context}: expected {count} numbers, got {value!r}")
    return [float(p) for p in parts]


def read_scenario(path: Path) -> Scenario:
    """Parse a scenario description file.

    The format is line-based ``key = value`` with ``[section]`` headers;
    ``[object]`` may repeat.  See :func:`write_scenario` for an example.
    """
    scenario = Scenario(frames=1, objects=[])
    section = ""
    current_object: ObjectSpec | None = None
    objects: list[ObjectSpec] = []

    def finish_object() -> None:
        nonlocal current_object
        if current_object is not None:
            if not current_object.waypoints:
                raise ValueError(f"object {current_object.obj_id} has no waypoints")
            objects.append(current_object)
            current_object = None

    for line_number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{line_number}"
        if line.startswith("[") and line.endswith("]"):
            finish_object()
            section = line[1:-1].strip().lower()
            if section == "object":
                current_object = ObjectSpec(
                    obj_id=len(objects) + 1, category="Car", l=4.0, w=1.8, h=1.6, waypoints=[]
                )
            continue
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()

        if section == "":
            if key == "frames":
                scenario.frames = int(value)
            elif key == "seed":
                scenario.seed = int(value)
            elif key == "points_per_object":
                scenario.points_per_object = int(value)
            else:
                raise ValueError(f"{where}: unknown key {key!r}")
        elif section == "ground":
            if key == "z":
                scenario.ground.z = float(value)
            elif key == "x_range":
                scenario.ground.x_range = tuple(_parse_floats(value, 2, where))
            elif key == "y_range":
                scenario.ground.y_range = tuple(_parse_floats(value, 2, where))
            elif key == "num_points":
                scenario.ground.num_points = int(value)
            elif key == "noise_sigma":
                scenario.ground.noise_sigma = float(value)
            else:
                raise ValueError(f"{where}: unknown ground key {key!r}")
        elif section == "sensor":
            if key == "focal":
                scenario.sensor.focal = float(value)
            elif key == "image_width":
                scenario.sensor.image_width = int(value)
            elif key == "image_height":
                scenario.sensor.image_height = int(value)
            elif key == "margin_deg":
                scenario.sensor.margin_deg = float(value)
            else:
                raise ValueError(f"{where}: unknown sensor key {key!r}")
        elif section == "noise":
            if key == "pos_sigma":
                scenario.noise.pos_sigma = float(value)
            elif key == "yaw_sigma":
                scenario.noise.yaw_sigma = float(value)
            elif key == "fp_rate":
                scenario.noise.fp_rate = float(value)
            elif key == "fn_rate":
                scenario.noise.fn_rate = float(value)
            elif key == "score_range":
                scenario.noise.score_range = tuple(_parse_floats(value, 2, where))
            elif key == "fp_score_range":
                scenario.noise.fp_score_range = tuple(_parse_floats(value, 2, where))
            else:
                raise ValueError(f"{where}: unknown noise key {key!r}")
        elif section == "object":
            assert current_object is not None
            if key == "id":
                current_object.obj_id = int(value)
            elif key == "category":
                current_object.category = value
            elif key == "dims":
                current_object.l, current_object.w, current_object.h = _parse_floats(
                    value, 3, where
                )
            elif key == "waypoint":
                numbers = _parse_floats(value, 5, where)
                current_object.waypoints.append(
                    Waypoint(
                        frame=int(numbers[0]),
                        x=numbers[1],
                        y=numbers[2],
                        z=numbers[3],
                        yaw=numbers[4],
                    )
                )
            else:
                raise ValueError(f"{where}: unknown object key {key!r}")
        else:
            raise ValueError(f"{where}: unknown section [{section}]")

    finish_object()
    scenario.objects = objects
    return scenario


def write_scenario(path: Path, scenario: Scenario) -> None:
    """Write a scenario file readable by :func:`read_scenario`."""
    lines = [
        f"frames = {scenario.frames}",
        f"seed = {scenario.seed}",
        f"points_per_object = {scenario.points_per_object}",
        "",
        "[ground]",
        f"z = {scenario.ground.z}",
        f"x_range = {scenario.ground.x_range[0]} {scenario.ground.x_range[1]}",
        f"y_range = {scenario.ground.y_range[0]} {scenario.ground.y_range[1]}",
        f"num_points = {scenario.ground.num_points}",
        f"noise_sigma = {scenario.ground.noise_sigma}",
        "",
        "[sensor]",
        f"focal = {scenario.sensor.focal}",
        f"image_width = {scenario.sensor.image_width}",
        f"image_height = {scenario.sensor.image_height}",
        f"margin_deg = {scenario.sensor.margin_deg}",
        "",
        "[noise]",
        f"pos_sigma = {scenario.noise.pos_sigma}",
        f"yaw_sigma = {scenario.noise.yaw_sigma}",
        f"fp_rate = {scenario.noise.fp_rate}",
        f"fn_rate = {scenario.noise.fn_rate}",
        f"score_range = {scenario.noise.score_range[0]} {scenario.noise.score_range[1]}",
        f"fp_score_range = {scenario.noise.fp_score_range[0]} {scenario.noise.fp_score_range[1]}",
    ]
    for spec in scenario.objects:
        lines.extend(
            [
                "",
                "[object]",
                f"id = {spec.obj_id}",
                f"category = {spec.category}",
                f"dims = {spec.l} {spec.w} {spec.h}",
            ]
        )
        for wp in spec.waypoints:
            lines.append(f"waypoint = {wp.frame} {wp.x} {wp.y} {wp.z} {wp.yaw}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
