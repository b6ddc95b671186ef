"""Reading and writing KITTI-style tracking files.

Label rows use the standard whitespace-separated columns.  Four layouts are
accepted: plain detection rows (15 columns), detection rows with a trailing
score (16), tracking rows with frame and track id (17), and tracking rows
with a score (18).  Point clouds are the usual packed float32 x/y/z/intensity
records, and calibration files carry the projection, rectification and
sensor-to-camera keys.

Object locations in label files live in the camera frame (x right, y down,
z forward) at the bottom-face center; the tracker works in the sensor frame
(z up) with volumetric centers.  The conversions between the two shift by
half the box height along the vertical axis and flip the yaw convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .geometry import Box3D, footprints, wrap_angle
from .preprocess import Calibration, CalibrationError, PointCloud, UNLABELED
from .tracker import EmittedTrack


# Largest frame index, the six digits every writer pads frame indices to.
MAX_FRAME = 999_999


def frame_index(text: str) -> int | None:
    """``text`` as a frame index: ASCII digits of value at most
    ``MAX_FRAME``; ``None`` for anything else (a sign, an underscore, a
    space, digits of other scripts)."""
    # At most six digits after leading zeros is at most MAX_FRAME, checked
    # before ``int`` meets a string of any length.
    if text.isascii() and text.isdigit() and len(text.lstrip("0")) <= 6:
        return int(text)
    return None


class LabelFormatError(ValueError):
    """Raised for label rows that fit none of the accepted layouts."""


class VelodyneFormatError(ValueError):
    """Raised for point-cloud files whose size is not a whole number of
    x/y/z/intensity records, or that hold a non-finite coordinate."""


@dataclass
class LabelRow:
    """One row of a KITTI-style label or result file.

    ``track_id`` is -1 for detection rows.  ``score`` is ``None`` when the
    row has no confidence column (ground truth does not).
    """

    frame: int
    track_id: int
    category: str
    truncated: float
    occluded: int
    alpha: float
    bbox: tuple[float, float, float, float]
    h: float
    w: float
    l: float
    x: float
    y: float
    z: float
    rotation_y: float
    score: float | None = None


def _parse_row(tokens: list[str], path: Path, line_number: int) -> LabelRow:
    n = len(tokens)
    if n not in (15, 16, 17, 18):
        raise LabelFormatError(
            f"{path}:{line_number}: row has {n} columns; expected 15-18"
        )
    rest = tokens[2:] if n >= 17 else tokens
    frame = frame_index(tokens[0]) if n >= 17 else 0
    if frame is None:
        raise LabelFormatError(f"{path}:{line_number}: frame {tokens[0]!r} is not "
                               f"a frame index in ASCII digits from 0 to {MAX_FRAME}")
    try:
        track_id = int(float(tokens[1])) if n >= 17 else -1
        numbers = list(map(float, rest[1:]))
        if not all(map(math.isfinite, numbers)):
            bad = next(tok for tok, value in zip(rest[1:], numbers) if not math.isfinite(value))
            raise ValueError(f"non-finite number {bad!r}")
        # The numbers come in the file's column order, which is the field order.
        return LabelRow(frame, track_id, rest[0], numbers[0], int(numbers[1]), numbers[2],
                        tuple(numbers[3:7]), *numbers[7:14],
                        score=numbers[14] if len(numbers) == 15 else None)
    except (ValueError, OverflowError) as exc:
        raise LabelFormatError(f"{path}:{line_number}: {exc}") from exc


def read_labels(path: Path) -> dict[int, list[LabelRow]]:
    """Read a label file, grouping rows by frame in their original order.

    Raises
    ------
    LabelFormatError
        For any row with an unaccepted column count, a frame column that
        :func:`frame_index` rejects, an unparsable field or a non-finite
        number, naming the line number.
    """
    path = Path(path)
    frames: dict[int, list[LabelRow]] = {}
    text = path.read_bytes().decode(errors="replace")
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        row = _parse_row(line.split(), path, line_number)
        frames.setdefault(row.frame, []).append(row)
    return frames


def camera_to_lidar_boxes(rows: Sequence[LabelRow], calib: Calibration) -> list[Box3D]:
    """Boxes of label rows in the sensor frame, via the calibration, all
    rows in one conversion.

    The camera-frame location is the bottom-face center; the result uses
    the volumetric center, shifted by ``h / 2`` along the vertical axis.
    A center taken to a non-finite point (a finite calibration can still
    overflow on a far one) raises :class:`CalibrationError` naming its row.
    """
    bottom_cam = np.array([(row.x, row.y, row.z) for row in rows], dtype=float).reshape(-1, 3)
    half_height = np.zeros_like(bottom_cam)
    half_height[:, 1] = [row.h / 2.0 for row in rows]
    with np.errstate(over="ignore", invalid="ignore"):
        centers = calib.camera_to_lidar(bottom_cam - half_height)
    finite = np.isfinite(centers).all(axis=1)
    if not finite.all():
        row = rows[np.argmin(finite)]
        raise CalibrationError(f"frame {row.frame}, id {row.track_id}: the calibration takes "
                               "the box center to a non-finite point")
    return [
        Box3D(
            x=x,
            y=y,
            z=z,
            l=row.l,
            w=row.w,
            h=row.h,
            theta=wrap_angle(-row.rotation_y - math.pi / 2.0),
        )
        for row, (x, y, z) in zip(rows, centers.tolist())
    ]


def read_velodyne(path: Path) -> PointCloud:
    """Read a packed float32 point-cloud file.

    Each record is x, y, z, intensity (little-endian).  Intensity lands in
    the feature column; labels start unlabeled.

    Raises
    ------
    VelodyneFormatError
        If the file size is not a multiple of one record (16 bytes), or a
        record has a non-finite coordinate.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) % 16 != 0:
        raise VelodyneFormatError(
            f"{path}: size {len(data)} is not a multiple of 16-byte records"
        )
    # A signalling NaN raises the invalid flag when cast; it is caught below.
    with np.errstate(invalid="ignore"):
        records = np.frombuffer(data, dtype="<f4").reshape(-1, 4).astype(float)
    bad = np.flatnonzero(~np.isfinite(records[:, :3]).all(axis=1))
    if len(bad):
        raise VelodyneFormatError(f"{path}: record {bad[0]} has a non-finite coordinate")
    return PointCloud(
        positions=records[:, :3],
        features=records[:, 3:4],
        labels=np.full(len(records), UNLABELED, dtype=int),
    )


def write_velodyne(path: Path, cloud: PointCloud) -> None:
    """Write a cloud as packed float32 x/y/z/intensity records."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if cloud.features.shape[1] >= 1:
        intensity = cloud.features[:, :1]
    else:
        intensity = np.zeros((len(cloud), 1))
    records = np.hstack([cloud.positions, intensity]).astype("<f4")
    records.tofile(path)


def read_calib(path: Path) -> Calibration:
    """Read a calibration file.

    Recognized keys (with or without a trailing colon): ``P2``; ``R0_rect``
    or ``R_rect``; ``Tr_velo_to_cam`` or ``Tr_velo_cam``.

    Raises
    ------
    CalibrationError
        Naming the file and the first missing key, a key whose row has the
        wrong number of values, or what makes the values no valid
        :class:`Calibration`.
    """
    path = Path(path)
    values: dict[str, np.ndarray] = {}
    for raw in path.read_bytes().decode(errors="replace").splitlines():
        line = raw.strip()
        if not line:
            continue
        if ":" in line:
            key, _, payload = line.partition(":")
        else:
            key, _, payload = line.partition(" ")
        try:
            numbers = np.array([float(tok) for tok in payload.split()])
        except ValueError:
            continue
        values[key.strip()] = numbers

    def pick(shape: tuple[int, int], *keys: str) -> np.ndarray:
        for key in keys:
            if key in values:
                size = shape[0] * shape[1]
                if values[key].size != size:
                    raise CalibrationError(
                        f"{path}: calibration key {key!r} needs {size} numbers, "
                        f"got {values[key].size}"
                    )
                return values[key].reshape(shape)
        raise CalibrationError(f"{path}: missing calibration key {keys[0]!r}")

    projection = pick((3, 4), "P2")
    rect = np.eye(4)
    rect[:3, :3] = pick((3, 3), "R0_rect", "R_rect")
    velo_to_cam = np.eye(4)
    velo_to_cam[:3, :4] = pick((3, 4), "Tr_velo_to_cam", "Tr_velo_cam")
    try:
        return Calibration(projection=projection, rect=rect, velo_to_cam=velo_to_cam)
    except CalibrationError as exc:
        raise CalibrationError(f"{path}: {exc}") from exc


def write_calib(path: Path, calib: Calibration) -> None:
    """Write a calibration file readable by :func:`read_calib`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    def fmt(values: np.ndarray) -> str:
        return " ".join(f"{v:.12e}" for v in np.asarray(values).ravel())

    lines = [
        f"P2: {fmt(calib.projection)}",
        f"R0_rect: {fmt(calib.rect[:3, :3])}",
        f"Tr_velo_to_cam: {fmt(calib.velo_to_cam[:3, :4])}",
    ]
    path.write_text("\n".join(lines) + "\n")


# One format per row layout: tracking rows without and with a score column.
_ROW_FORMAT = "%d %d %s %.6f %d" + " %.6f" * 12 + "\n"
_SCORED_ROW_FORMAT = _ROW_FORMAT[:-1] + " %.6f\n"


def _format_row(row: LabelRow) -> str:
    values = (row.frame, row.track_id, row.category, row.truncated, row.occluded, row.alpha,
              *row.bbox, row.h, row.w, row.l, row.x, row.y, row.z, row.rotation_y)
    if row.score is None:
        return _ROW_FORMAT % values
    return _SCORED_ROW_FORMAT % (*values, row.score)


def write_labels(path: Path, frames: Mapping[int, Sequence[LabelRow]]) -> None:
    """Write label rows sorted by (frame, track id)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [row for frame in sorted(frames) for row in frames[frame]]
    rows.sort(key=lambda r: (r.frame, r.track_id))
    path.write_text("".join(map(_format_row, rows)))


def _project_bboxes(boxes: Sequence[Box3D], calib: Calibration) -> list[tuple[float, ...]]:
    """2D bounds of each box's projected corners; (-1, -1, -1, -1) when any
    corner sits at or behind the camera plane."""
    bev = footprints(boxes)
    z, h = np.array([(b.z, b.h) for b in boxes], dtype=float).reshape(-1, 2).T
    corners = np.zeros((len(boxes), 8, 3))
    corners[:, :4, :2] = bev
    corners[:, 4:, :2] = bev
    corners[:, :4, 2] = (z - h / 2.0)[:, None]
    corners[:, 4:, 2] = (z + h / 2.0)[:, None]
    uv, depth = calib.project_to_image(corners.reshape(-1, 3))
    uv = uv.reshape(-1, 8, 2)
    behind = np.any(depth.reshape(-1, 8) <= 0.1, axis=1)
    bounds = np.concatenate([uv.min(axis=1), uv.max(axis=1)], axis=1).tolist()
    return [(-1.0, -1.0, -1.0, -1.0) if b else tuple(c) for b, c in zip(behind, bounds)]


def result_rows(
    tracks_by_frame: Mapping[int, Sequence[EmittedTrack]], calib: Calibration | None = None
) -> dict[int, list[LabelRow]]:
    """Label rows of emitted tracks by frame, every frame's tracks converted
    to the camera frame in one batch.

    The conversions are elementwise, so a row gets the same bits in any
    batch.  Each row's score is its track's confidence.
    """
    calibration = calib if calib is not None else Calibration.nominal()
    keyed = [(frame, track) for frame, tracks in tracks_by_frame.items() for track in tracks]
    boxes = [track.box for _, track in keyed]
    fields = np.array([(b.x, b.y, b.z, b.h) for b in boxes], dtype=float).reshape(-1, 4)
    half_height = np.zeros((len(boxes), 3))
    half_height[:, 1] = fields[:, 3] / 2.0
    bottoms = (calibration.lidar_to_camera(fields[:, :3]) + half_height).tolist()
    rows: dict[int, list[LabelRow]] = {frame: [] for frame in tracks_by_frame}
    for (frame, track), (x, y, z), bbox in zip(
        keyed, bottoms, _project_bboxes(boxes, calibration)
    ):
        rotation_y = wrap_angle(-track.box.theta - math.pi / 2.0)
        rows[frame].append(LabelRow(
            frame=frame,
            track_id=track.track_id,
            category=track.category,
            truncated=0.0,
            occluded=0,
            alpha=wrap_angle(rotation_y - math.atan2(x, z)),
            bbox=bbox,
            h=track.box.h,
            w=track.box.w,
            l=track.box.l,
            x=x,
            y=y,
            z=z,
            rotation_y=rotation_y,
            score=track.confidence,
        ))
    return rows


def result_row(
    frame: int, track: EmittedTrack, calib: Calibration | None = None
) -> LabelRow:
    """Label row of one emitted track, converted to the camera frame."""
    return result_rows({frame: [track]}, calib)[frame][0]


def write_results(
    path: Path,
    tracks_by_frame: Mapping[int, Sequence[EmittedTrack]],
    calib: Calibration | None = None,
) -> None:
    """Write emitted tracks as a tracking result file, the whole file's
    tracks converted by one :func:`result_rows` call.

    Rows carry the score column and are sorted by (frame, track id).
    """
    write_labels(path, result_rows(tracks_by_frame, calib))
