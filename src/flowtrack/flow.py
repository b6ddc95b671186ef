"""Scene-flow fields: per-point motion vectors with the points they move.

A flow field assigns one 3D motion vector to every point of the previous
frame's working cloud and holds those points with the vectors.  Three
sources are supported behind one interface: exact flow derived from known
per-instance rigid motions, a nearest-neighbor baseline, and precomputed
fields loaded from disk.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol

import numpy as np

from .geometry import ATTRIBUTION_MARGIN, Box3D, points_in_boxes, wrap_angle
from .preprocess import PointCloud

FLOW_MAGIC = b"SFL1"
# Maximum allowed deviation between stored source coordinates and the cloud
# the field is meant to align with, meters.
SOURCE_ALIGNMENT_TOL = 1e-4
# Default match distance of the nearest-neighbor baseline, meters.
NN_MAX_MATCH_DISTANCE = 2.0


class FlowDataError(ValueError):
    """Raised for malformed flow files or inconsistent flow inputs."""


@dataclass
class FlowField:
    """Per-point motion vectors with the points they move.

    This is the one place that ties a vector to its point: row ``i`` of
    ``vectors`` moves row ``i`` of ``sources``.

    Attributes
    ----------
    sources : np.ndarray
        Positions of the previous frame's points, shape (n, 3).
    vectors : np.ndarray
        One motion vector per source point, shape (n, 3), finite.

    Raises
    ------
    FlowDataError
        When the two arrays differ in length, or a vector is not finite.
    """

    sources: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.sources = np.asarray(self.sources, dtype=float).reshape(-1, 3)
        self.vectors = np.asarray(self.vectors, dtype=float).reshape(-1, 3)
        if len(self.vectors) != len(self.sources):
            raise FlowDataError(
                f"flow has {len(self.vectors)} vectors for {len(self.sources)} points"
            )
        if not np.all(np.isfinite(self.vectors)):
            raise FlowDataError("flow vectors must be finite")

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass
class RigidMotion:
    """Rigid motion ``p -> rotation @ p + translation`` in the sensor frame."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (n, 3)."""
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation

    @classmethod
    def from_pose_delta(cls, prev_box: Box3D, curr_box: Box3D) -> "RigidMotion":
        """Motion carrying a box pose at one frame onto its pose at another.

        The rotation is the yaw change about the vertical axis; the
        translation is whatever maps the rotated previous center onto the
        current center.
        """
        dtheta = wrap_angle(curr_box.theta - prev_box.theta)
        c, s = math.cos(dtheta), math.sin(dtheta)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        translation = curr_box.center - rotation @ prev_box.center
        return cls(rotation=rotation, translation=translation)


class FlowEstimator(Protocol):
    """Anything that can produce a flow field for one frame pair.

    ``frame_index`` identifies the previous frame of the pair; estimators
    backed by files or per-frame ground truth need it, the others ignore it.
    ``reads`` holds the ascending indices of the points of ``prev`` whose
    flow will be read; an estimator may leave the other rows zero.  The
    field is aligned with the whole of ``prev``.
    """

    def estimate(
        self, prev: PointCloud, curr: PointCloud, frame_index: int, reads: np.ndarray
    ) -> FlowField:  # pragma: no cover - protocol
        ...


def estimate_nn(
    prev: PointCloud, curr: PointCloud, max_match_distance: float = NN_MAX_MATCH_DISTANCE
) -> FlowField:
    """Nearest-neighbor flow baseline.

    Each previous-frame point flows onto its nearest current-frame point
    when that neighbor lies within ``max_match_distance``; points without a
    neighbor in range get zero flow.  The search is exact (k-d tree).
    """
    if max_match_distance <= 0:
        raise ValueError(f"max_match_distance must be positive, got {max_match_distance}")
    vectors = np.zeros((len(prev), 3))
    if len(curr) > 0 and len(prev) > 0:
        # Imported here: scipy takes longer to import than the rest of the
        # package, and only this estimator needs it.
        from scipy.spatial import cKDTree

        tree = cKDTree(curr.positions)
        distances, indices = tree.query(prev.positions, k=1)
        matched = distances <= max_match_distance
        vectors[matched] = curr.positions[indices[matched]] - prev.positions[matched]
    return FlowField(prev.positions, vectors)


def _flow_path(path: Path, frame_index: int) -> Path:
    return Path(path) / f"{frame_index:06d}.sfl"


def save_flow(path: Path, frame_index: int, field: FlowField) -> Path:
    """Write the flow for one frame pair under ``path``, named by the index
    of the pair's previous frame, with its source coordinates.

    Layout: magic ``SFL1``, little-endian u32 point count, then per point
    six little-endian f32 values (source x, y, z, flow dx, dy, dz).  The
    stored source coordinates let readers verify that a file really belongs
    to the cloud it is loaded for.
    """
    records = np.hstack([field.sources, field.vectors]).astype("<f4")
    file_path = _flow_path(path, frame_index)
    file_path.parent.mkdir(parents=True, exist_ok=True)
    with open(file_path, "wb") as handle:
        handle.write(FLOW_MAGIC)
        handle.write(struct.pack("<I", len(field)))
        handle.write(records.tobytes())
    return file_path


def load_flow(path: Path, frame_index: int, sources: np.ndarray) -> FlowField:
    """Load the flow field for one frame pair from a directory, checked
    against the cloud it moves.

    Parameters
    ----------
    path : Path
        Directory holding one ``.sfl`` file per frame pair.
    frame_index : int
        Index of the pair's previous frame.
    sources : np.ndarray
        Positions of the cloud the field must align with.  The stored
        source coordinates are checked against them, and the returned field
        holds these positions, not the file's single-precision copies.

    Raises
    ------
    FlowDataError
        On a missing file, a bad magic, a count that disagrees with the
        payload size, non-finite values, a point-count mismatch, or a source
        coordinate deviating by more than ``SOURCE_ALIGNMENT_TOL``.
    """
    file_path = _flow_path(path, frame_index)
    if not file_path.exists():
        raise FlowDataError(f"no flow file for frame {frame_index}: {file_path}")
    data = file_path.read_bytes()
    if len(data) < 8 or data[:4] != FLOW_MAGIC:
        raise FlowDataError(f"{file_path}: not a flow file (bad magic)")
    (count,) = struct.unpack("<I", data[4:8])
    payload = data[8:]
    if len(payload) != count * 24:
        raise FlowDataError(
            f"{file_path}: declared {count} points but payload holds "
            f"{len(payload) / 24:g}"
        )
    # A signalling NaN raises the invalid flag when cast; it is caught below.
    with np.errstate(invalid="ignore"):
        records = np.frombuffer(payload, dtype="<f4").reshape(-1, 6).astype(float)
    if not np.all(np.isfinite(records)):
        raise FlowDataError(f"{file_path}: non-finite values")
    sources = np.asarray(sources, dtype=float).reshape(-1, 3)
    if len(sources) != count:
        raise FlowDataError(
            f"frame {frame_index}: flow has {count} points, cloud has {len(sources)}"
        )
    deviation = float(np.max(np.abs(records[:, :3] - sources), initial=0.0))
    if deviation > SOURCE_ALIGNMENT_TOL:
        raise FlowDataError(
            f"frame {frame_index}: flow sources deviate from the cloud by "
            f"{deviation:.2e} m (max {SOURCE_ALIGNMENT_TOL:.0e})"
        )
    return FlowField(sources, records[:, 3:])


def motions_from_boxes(
    prev_boxes: Mapping[int, Box3D], curr_boxes: Mapping[int, Box3D]
) -> dict[int, RigidMotion]:
    """Per-instance motions from two frames of ground-truth boxes.

    Only instances present in both frames get an entry; everything else is
    treated as static.
    """
    return {
        instance_id: RigidMotion.from_pose_delta(prev_boxes[instance_id], box)
        for instance_id, box in curr_boxes.items()
        if instance_id in prev_boxes
    }


class OracleFlowEstimator:
    """Exact flow derived from ground-truth boxes.

    Each point of the previous cloud inside an instance's box (with
    ``ATTRIBUTION_MARGIN``, so surface points are not lost to rounding)
    moves by that instance's rigid motion, the pose change of its box.  A
    point inside several boxes moves with the lowest instance id.  Points in
    no box, and those of instances that disappear in the next frame, are
    static and get zero flow.  ``reads`` is ignored: every point is moved.
    """

    def __init__(self, boxes_by_frame: Mapping[int, Mapping[int, Box3D]]) -> None:
        self.boxes_by_frame = boxes_by_frame

    def estimate(
        self, prev: PointCloud, curr: PointCloud, frame_index: int, reads: np.ndarray
    ) -> FlowField:
        prev_boxes = self.boxes_by_frame.get(frame_index, {})
        curr_boxes = self.boxes_by_frame.get(frame_index + 1, {})
        motions = motions_from_boxes(prev_boxes, curr_boxes)
        vectors = np.zeros((len(prev), 3))
        claimed = np.zeros(len(prev), dtype=bool)
        ids = sorted(motions)
        members = points_in_boxes([prev_boxes[i] for i in ids], prev.positions, ATTRIBUTION_MARGIN)
        for instance_id, inside in zip(ids, members):
            unclaimed = inside[~claimed[inside]]
            claimed[unclaimed] = True
            points = prev.positions[unclaimed]
            vectors[unclaimed] = motions[instance_id].apply(points) - points
        return FlowField(prev.positions, vectors)


class NearestNeighborFlowEstimator:
    """Estimator wrapper around :func:`estimate_nn`: only the ``reads``
    points of ``prev`` are matched; every other row gets zero flow."""

    def __init__(self, max_match_distance: float = NN_MAX_MATCH_DISTANCE) -> None:
        self.max_match_distance = max_match_distance

    def estimate(
        self, prev: PointCloud, curr: PointCloud, frame_index: int, reads: np.ndarray
    ) -> FlowField:
        vectors = np.zeros((len(prev), 3))
        vectors[reads] = estimate_nn(prev.take(reads), curr, self.max_match_distance).vectors
        return FlowField(prev.positions, vectors)


class FileFlowEstimator:
    """Estimator that loads precomputed fields, validating alignment.

    The loaded file must have exactly one vector per point of the previous
    cloud and its stored source coordinates must match that cloud; a
    mismatch usually means the files were computed against a different
    preprocessing seed.  ``reads`` is ignored: the whole file is loaded.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    def estimate(
        self, prev: PointCloud, curr: PointCloud, frame_index: int, reads: np.ndarray
    ) -> FlowField:
        return load_flow(self.directory, frame_index, sources=prev.positions)
