"""Tracking-by-detection over oriented 3D boxes.

Each live tracklet is advanced by the mean scene-flow vector of the sampled
points inside its box, plus a constant-angular-velocity yaw increment.  The
predicted boxes are matched to the current detections by maximum total IoU,
matched tracklets adopt their detection box verbatim, and births and deaths
follow consecutive-match and missed-frame counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .assignment import max_similarity_assignment
from .flow import FlowField
from .geometry import Box3D, iou_matrix, points_in_box, points_in_boxes, wrap_angle
from .preprocess import PointCloud

# Face margin used when attributing sampled points to a tracklet box, meters.
# It keeps points lying exactly on a box face from being lost to rounding.
ATTRIBUTION_MARGIN = 1e-6


class FrameInputError(ValueError):
    """Raised when a frame's inputs violate the step contract; the frame is
    rejected and the tracker state is left unchanged."""


class UsageError(ValueError):
    """Raised for run arguments outside their range, or missing the input
    another argument needs: a decimation stride below 1, a flow source
    without its ground truth or flow files."""


@dataclass
class Detection:
    """Single-frame detector output."""

    box: Box3D
    confidence: float
    category: str


@dataclass
class Offset:
    """Predicted inter-frame motion of one tracklet."""

    dx: float
    dy: float
    dz: float
    dtheta: float


@dataclass
class Tracklet:
    """Tracked object state.

    Attributes
    ----------
    track_id : int
        Identity, unique within a run and never reused.
    box : Box3D
        Current box (the last adopted detection, or the prediction while the
        tracklet is missed).
    confidence : float
        Confidence of the last adopted detection.
    category : str
        Object category; association never crosses categories.
    age_missed : int
        Consecutive frames without a matched detection.
    hits : int
        Consecutive matched frames.
    confirmed : bool
        Whether the tracklet ever reached ``min_det`` consecutive matches.
        Sticky once set.
    prev_box : Box3D or None
        Box state of the previous frame; carries the yaw history for the
        angular model and the displacement for constant-velocity fallback.
    """

    track_id: int
    box: Box3D
    confidence: float
    category: str
    age_missed: int = 0
    hits: int = 1
    confirmed: bool = False
    prev_box: Box3D | None = None

    @property
    def yaw_prev(self) -> float | None:
        """Yaw of the previous frame's box, if any."""
        return self.prev_box.theta if self.prev_box is not None else None


@dataclass
class EmittedTrack:
    """One confirmed track instance reported for a frame."""

    track_id: int
    box: Box3D
    confidence: float
    category: str


@dataclass
class TrackerConfig:
    """Association and lifecycle parameters.

    ``iou_min`` is the minimum similarity for a valid match, ``max_mis`` the
    number of consecutive missed frames a confirmed tracklet survives, and
    ``min_det`` the number of consecutive matched frames required before a
    new tracklet is confirmed.
    """

    iou_min: float = 0.01
    max_mis: int = 2
    min_det: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.iou_min <= 1.0:
            raise ValueError(f"iou_min must be in [0, 1], got {self.iou_min}")
        if self.max_mis < 0:
            raise ValueError(f"max_mis must be >= 0, got {self.max_mis}")
        if self.min_det < 1:
            raise ValueError(f"min_det must be >= 1, got {self.min_det}")


@dataclass
class PipelineConfig:
    """Tracker parameters plus the pipeline-level choices that ride along in
    the same configuration file."""

    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    flow_source: str = "oracle"
    category: str = "Car"

    @classmethod
    def from_file(cls, path: Path) -> "PipelineConfig":
        """Parse a key-value configuration file.

        One ``key = value`` pair per line (the ``=`` may be omitted); ``#``
        starts a comment.  Recognized keys: ``iou_min``, ``max_mis``,
        ``min_det``, ``flow_source``, ``category``.
        """
        config = cls()
        for line_number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("=", 1) if "=" in line else line.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_number}: expected 'key = value', got {raw!r}")
            key, value = parts[0].strip(), parts[1].strip()
            if key == "iou_min":
                config.tracker.iou_min = float(value)
            elif key == "max_mis":
                config.tracker.max_mis = int(value)
            elif key == "min_det":
                config.tracker.min_det = int(value)
            elif key == "flow_source":
                if value not in ("oracle", "nn", "file"):
                    raise ValueError(f"{path}:{line_number}: unknown flow_source {value!r}")
                config.flow_source = value
            elif key == "category":
                config.category = value
            else:
                raise ValueError(f"{path}:{line_number}: unknown key {key!r}")
        return config


def compute_offset(
    tracklet: Tracklet,
    prev_cloud: PointCloud,
    flow: FlowField,
    inside: np.ndarray | None = None,
) -> tuple[Offset, int]:
    """Motion offset of a tracklet from the flow of the points in its box.

    The translation is the arithmetic mean of the flow vectors of the
    previous-frame sampled points inside the tracklet's current box.  The
    yaw increment assumes constant angular velocity: the change between the
    tracklet's last two adopted yaws, or zero without history.

    ``inside`` holds the indices of those points, as :func:`points_in_boxes`
    gives them with ``ATTRIBUTION_MARGIN``; they are computed when not given.

    Returns
    -------
    tuple
        ``(offset, n_points)`` where ``n_points`` is the number of in-box
        points.  ``n_points == 0`` signals a flow-starved tracklet; the
        offset translation is zero in that case and callers should fall
        back to constant-velocity extrapolation.
    """
    if len(flow) != len(prev_cloud):
        raise FrameInputError(
            f"flow has {len(flow)} vectors for {len(prev_cloud)} points"
        )
    if tracklet.yaw_prev is None:
        dtheta = 0.0
    else:
        dtheta = wrap_angle(tracklet.box.theta - tracklet.yaw_prev)
    if inside is None:
        inside = points_in_box(tracklet.box, prev_cloud.positions, margin=ATTRIBUTION_MARGIN)
    if len(inside) == 0:
        return Offset(0.0, 0.0, 0.0, dtheta), 0
    mean = flow.vectors[inside].mean(axis=0)
    return Offset(float(mean[0]), float(mean[1]), float(mean[2]), dtheta), len(inside)


def predict(tracklet: Tracklet, offset: Offset) -> Box3D:
    """Apply a motion offset to the tracklet's box.

    Dimensions are preserved; the center moves by the offset translation and
    the yaw advances by ``dtheta``, renormalized to (-pi, pi].
    """
    box = tracklet.box
    return replace(
        box,
        x=box.x + offset.dx,
        y=box.y + offset.dy,
        z=box.z + offset.dz,
        theta=wrap_angle(box.theta + offset.dtheta),
    )


def predict_constant_velocity(tracklet: Tracklet) -> Box3D:
    """Extrapolate the tracklet by its last inter-frame displacement.

    With no history (a single observed state) the current box is returned
    unchanged.  The yaw advances by the last yaw increment, wrapped.
    """
    if tracklet.prev_box is None:
        return tracklet.box
    box = tracklet.box
    prev = tracklet.prev_box
    return replace(
        box,
        x=box.x + (box.x - prev.x),
        y=box.y + (box.y - prev.y),
        z=box.z + (box.z - prev.z),
        theta=wrap_angle(box.theta + wrap_angle(box.theta - prev.theta)),
    )


def build_similarity(
    predicted: Sequence[Box3D],
    detections: Sequence[Detection],
    categories: Sequence[str] | None = None,
) -> np.ndarray:
    """Pairwise IoU between predicted tracklet boxes and detections.

    Parameters
    ----------
    predicted : sequence of Box3D
        One predicted box per live tracklet.
    detections : sequence of Detection
        Current-frame detections.
    categories : sequence of str, optional
        Category of each predicted box.  When given, pairs with different
        categories are forced to zero similarity.

    Returns
    -------
    np.ndarray
        Matrix of shape (len(predicted), len(detections)).
    """
    if categories is not None and len(categories) != len(predicted):
        raise ValueError("one category per predicted box is required")
    labels = None if categories is None else (categories, [d.category for d in detections])
    return iou_matrix(predicted, [d.box for d in detections], labels)


@dataclass
class Association:
    """Result of matching tracklets (rows) to detections (columns)."""

    matches: list[tuple[int, int]]
    unmatched_rows: list[int]
    unmatched_cols: list[int]


def associate(similarity: np.ndarray, iou_min: float) -> Association:
    """Match rows to columns by maximum total similarity, then discard weak
    pairs.

    The assignment maximizes the total similarity over all one-to-one
    matchings; pairs whose similarity falls below ``iou_min`` are demoted to
    unmatched afterwards.
    """
    similarity = np.asarray(similarity, dtype=float)
    pairs = max_similarity_assignment(similarity)
    matches = [(i, j) for i, j in pairs if similarity[i, j] >= iou_min]
    matched_rows = {i for i, _ in matches}
    matched_cols = {j for _, j in matches}
    unmatched_rows = [i for i in range(similarity.shape[0]) if i not in matched_rows]
    unmatched_cols = [j for j in range(similarity.shape[1]) if j not in matched_cols]
    return Association(matches, unmatched_rows, unmatched_cols)


class Tracker:
    """Frame-by-frame tracking engine.

    Parameters
    ----------
    config : TrackerConfig
        Association and lifecycle parameters.
    predictor : str
        ``"flow"`` advances tracklets by scene flow (with constant-velocity
        fallback for flow-starved tracklets); ``"cv"`` uses constant
        velocity only and needs no flow input.

    Notes
    -----
    Emission rule: a track is reported for a frame when it is alive and
    confirmed, including frames it coasts through while missed.  During the
    first ``min_det`` frames of a run every live tracklet is reported, so a
    sequence that starts with valid objects is covered from frame one; new
    tracklets appearing later still need ``min_det`` consecutive matches.
    """

    def __init__(self, config: TrackerConfig | None = None, predictor: str = "flow") -> None:
        if predictor not in ("flow", "cv"):
            raise ValueError(f"unknown predictor {predictor!r}")
        self.config = config if config is not None else TrackerConfig()
        self.predictor = predictor
        self.tracklets: list[Tracklet] = []
        self.next_id = 0
        self.frames_seen = 0

    def step(
        self,
        detections: Sequence[Detection],
        prev_cloud: PointCloud | None = None,
        flow: FlowField | None = None,
    ) -> list[EmittedTrack]:
        """Advance the tracker by one frame.

        Parameters
        ----------
        detections : sequence of Detection
            Current-frame detections.
        prev_cloud : PointCloud, optional
            Sampled cloud of the previous frame; required with the flow
            predictor once tracklets exist.
        flow : FlowField, optional
            Flow aligned with ``prev_cloud``.

        Returns
        -------
        list of EmittedTrack
            Reported tracks for this frame.

        Raises
        ------
        FrameInputError
            When flow and cloud are missing or misaligned while tracklets
            are live.  The state is unchanged in that case.
        """
        if self.predictor == "flow" and self.tracklets:
            if flow is None or prev_cloud is None:
                raise FrameInputError(
                    "flow predictor needs prev_cloud and flow once tracklets exist"
                )

        if self.predictor == "cv" or not self.tracklets:
            predicted = [predict_constant_velocity(t) for t in self.tracklets]
        else:
            # One attribution pass for every tracklet; compute_offset rejects
            # a misaligned flow before any state changes.
            members = points_in_boxes(
                [t.box for t in self.tracklets], prev_cloud.positions, margin=ATTRIBUTION_MARGIN
            )
            predicted = []
            for tracklet, inside in zip(self.tracklets, members):
                offset, n_points = compute_offset(tracklet, prev_cloud, flow, inside)
                if n_points == 0:
                    predicted.append(predict_constant_velocity(tracklet))
                else:
                    predicted.append(predict(tracklet, offset))
        self.frames_seen += 1

        similarity = build_similarity(
            predicted, detections, categories=[t.category for t in self.tracklets]
        )
        association = associate(similarity, self.config.iou_min)

        for row, col in association.matches:
            tracklet = self.tracklets[row]
            detection = detections[col]
            tracklet.prev_box = tracklet.box
            tracklet.box = detection.box
            tracklet.confidence = detection.confidence
            tracklet.hits += 1
            tracklet.age_missed = 0
            if tracklet.hits >= self.config.min_det:
                tracklet.confirmed = True

        survivors: set[int] = {row for row, _ in association.matches}
        for row in association.unmatched_rows:
            tracklet = self.tracklets[row]
            tracklet.age_missed += 1
            # A provisional tracklet needs consecutive matches from birth;
            # any gap ends it, and it is never emitted.
            if not tracklet.confirmed:
                continue
            if tracklet.age_missed > self.config.max_mis:
                continue
            tracklet.prev_box = tracklet.box
            tracklet.box = predicted[row]
            tracklet.hits = 0
            survivors.add(row)

        alive = [t for row, t in enumerate(self.tracklets) if row in survivors]
        for col in association.unmatched_cols:
            detection = detections[col]
            alive.append(
                Tracklet(
                    track_id=self.next_id,
                    box=detection.box,
                    confidence=detection.confidence,
                    category=detection.category,
                    hits=1,
                    confirmed=1 >= self.config.min_det,
                )
            )
            self.next_id += 1
        self.tracklets = alive

        warmup = self.frames_seen <= self.config.min_det
        return [
            EmittedTrack(t.track_id, t.box, t.confidence, t.category)
            for t in self.tracklets
            if t.confirmed or warmup
        ]
