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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence, TypeVar

import numpy as np

from .geometry import Box3D, wrap_angle
from .kitti_io import MAX_FRAME
from .preprocess import UNLABELED, Calibration, PointCloud
from .tracker import (
    Detection, SettingLine, SettingsError, UsageError, build_settings, format_settings,
    parse_setting, read_settings, setting_fields,
)

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
    """Forward-facing camera of the scenario's nominal calibration; a zero
    ``focal`` raises :class:`~flowtrack.preprocess.CalibrationError`."""

    focal: float = 600.0
    image_width: int = 1200
    image_height: int = 400

    def calibration(self) -> Calibration:
        return Calibration.nominal(self.focal, self.image_width, self.image_height)


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


# The fields of Scenario that a scenario file holds as [sections].
SCENARIO_SECTIONS = ("ground", "sensor", "noise")

# Largest magnitude of a scenario's float settings, object sizes and poses:
# a thousand kilometres is beyond any sensor's range, and the bound keeps
# every number that generate derives from them finite, in float32 too.
SCENARIO_LIMIT = 1e6
LIMIT_RULE = f"numbers must be finite and at most {SCENARIO_LIMIT:g} in magnitude"


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

    Raises
    ------
    SettingsError
        For a scenario without frames or with more than ``MAX_FRAME + 1``
        (no file holds a frame index past ``MAX_FRAME``), with a negative
        seed or point count, with a float setting, object size or waypoint
        pose beyond ``SCENARIO_LIMIT`` in magnitude (or not finite), with a
        descending range, with an object size that is not positive, with
        duplicate object ids, or with an object whose waypoints do not
        cover every frame.
    """
    if scenario.frames < 1:
        raise SettingsError(f"scenario needs at least one frame, got {scenario.frames}")
    if scenario.frames > MAX_FRAME + 1:
        raise SettingsError(f"a scenario has at most {MAX_FRAME + 1} frames, indexed 0 to "
                            f"{MAX_FRAME}, got {scenario.frames}")
    if scenario.seed < 0:
        raise SettingsError(f"the scenario seed must be at least 0, got {scenario.seed}")
    if min(scenario.points_per_object, scenario.ground.num_points) < 0:
        raise SettingsError("point counts must be at least 0")
    for name in SCENARIO_SECTIONS:
        for key, value in setting_fields(getattr(scenario, name)).items():
            if isinstance(value, (float, tuple)) and not np.all(np.abs(value) <= SCENARIO_LIMIT):
                raise SettingsError(f"[{name}] {key}: {LIMIT_RULE}, got {value}")
            if isinstance(value, tuple) and value[0] > value[1]:
                raise SettingsError(f"[{name}] {key}: a range runs from low to high, got {value}")
    for spec in scenario.objects:
        sizes = np.array([spec.l, spec.w, spec.h])
        poses = np.array([(wp.x, wp.y, wp.z, wp.yaw) for wp in spec.waypoints])
        bounded = np.all(sizes <= SCENARIO_LIMIT) and np.all(np.abs(poses) <= SCENARIO_LIMIT)
        if not (np.all(sizes > 0) and bounded):
            raise SettingsError(f"object {spec.obj_id}: sizes must be positive and {LIMIT_RULE}")
    ids = [spec.obj_id for spec in scenario.objects]
    if len(set(ids)) != len(ids):
        raise SettingsError(f"duplicate object ids: {ids}")
    for spec in scenario.objects:
        span = [wp.frame for wp in spec.waypoints] or [math.inf]
        if min(span) > 0 or max(span) < scenario.frames - 1:
            raise SettingsError(
                f"object {spec.obj_id}: frames 0 to {scenario.frames - 1} fall outside "
                f"its waypoint span [{min(span)}, {max(span)}]"
            )

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
    """Every ``stride``-th frame from ``offset`` on, the rule ``decimate``
    applies.  A result without a frame raises :class:`UsageError` naming the
    stride, the offset and the frame count."""
    if stride < 1:
        raise UsageError(f"stride must be at least 1, got {stride}")
    if offset < 0:
        raise UsageError(f"offset must be non-negative, got {offset}")
    kept = list(frames[offset::stride])
    if not kept:
        raise UsageError(
            f"decimation with stride {stride} and offset {offset} keeps no frame "
            f"of {len(frames)}"
        )
    return kept


def demo_scenario(
    frames: int = 30, num_objects: int = 5, seed: int = 7, noise: NoiseSpec | None = None
) -> Scenario:
    """Ready-made scenario: parallel lanes of cars driving forward inside
    the frustum.  A negative ``num_objects`` raises :class:`UsageError`."""
    if num_objects < 0:
        raise UsageError(f"the object count must be at least 0, got {num_objects}")
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


# The [object] keys, with a value of the type each is parsed as.  They are
# named here rather than taken from ObjectSpec: dims sets three fields and
# waypoint repeats.
OBJECT_KEYS = {"id": 0, "category": "", "dims": (0.0,) * 3, "waypoint": (0, 0.0, 0.0, 0.0, 0.0)}


def _object_settings(spec: ObjectSpec) -> list[tuple[str, object]]:
    return [
        ("id", spec.obj_id),
        ("category", spec.category),
        ("dims", (spec.l, spec.w, spec.h)),
        *(("waypoint", (wp.frame, wp.x, wp.y, wp.z, wp.yaw)) for wp in spec.waypoints),
    ]


def _read_object(where: str, lines: Sequence[SettingLine], obj_id: int) -> ObjectSpec:
    """One ``[object]`` section; ``obj_id`` is its id unless it sets one."""
    spec = ObjectSpec(obj_id=obj_id, category="Car", l=4.0, w=1.8, h=1.6, waypoints=[])
    for line in lines:
        key, value = line[1], parse_setting(OBJECT_KEYS, line)
        if key == "id":
            spec.obj_id = value
        elif key == "category":
            spec.category = value
        elif key == "dims":
            spec.l, spec.w, spec.h = value
        else:
            spec.waypoints.append(Waypoint(*value))
    if not spec.waypoints:
        raise SettingsError(f"{where}: object {spec.obj_id} has no waypoints")
    return spec


def read_scenario(path: Path) -> Scenario:
    """Read a scenario file, as :func:`write_scenario` writes it.

    The grammar is that of :func:`flowtrack.tracker.read_settings`.  Keys
    before any section are the int/float/str fields of :class:`Scenario`
    (``frames``, ``seed``, ``points_per_object``); the ``[ground]``,
    ``[sensor]`` and ``[noise]`` sections hold the fields of
    :class:`GroundSpec`, :class:`SensorSpec` and :class:`NoiseSpec`, each
    value parsed as the type of the field's default (a range is two
    numbers).  Every ``[object]`` section adds one object: ``id`` (by
    default its position from 1), ``category`` (``Car``), ``dims = l w h``
    (``4 1.8 1.6``) and one or more ``waypoint = frame x y z yaw`` lines.
    Keys left out keep their defaults; ``frames`` defaults to 1.

    Raises
    ------
    SettingsError
        Naming ``file:line`` and the key of the first malformed line, an
        unknown section or key, or an object without waypoints.
    """
    template = Scenario(frames=1, objects=[])
    parts = {"": template, **{name: getattr(template, name) for name in SCENARIO_SECTIONS}}
    lines: dict[str, list[SettingLine]] = {name: [] for name in parts}
    objects: list[ObjectSpec] = []
    for where, header, section_lines in read_settings(path, (*SCENARIO_SECTIONS, "object")):
        if header == "object":
            objects.append(_read_object(where, section_lines, len(objects) + 1))
        else:
            lines[header] += section_lines
    built = {name: build_settings(lines[name], part) for name, part in parts.items()}
    return replace(built.pop(""), objects=objects, **built)


def write_scenario(path: Path, scenario: Scenario) -> None:
    """Write a scenario file readable by :func:`read_scenario`: the scalar
    fields of the scenario and of its ground, sensor and noise settings in
    field order, then one ``[object]`` section per object, sections
    separated by a blank line and each value written as its ``str`` (a
    tuple as its elements separated by spaces)."""
    blocks = [format_settings(setting_fields(scenario).items())]
    blocks += [
        format_settings(setting_fields(getattr(scenario, name)).items(), name)
        for name in SCENARIO_SECTIONS
    ]
    blocks += [format_settings(_object_settings(spec), "object") for spec in scenario.objects]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n\n".join(blocks) + "\n")
