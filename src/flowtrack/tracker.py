"""Tracking-by-detection over oriented 3D boxes.

One rule predicts each live tracklet (:func:`predict`): its box moves by a
translation and turns by its last yaw increment.  The translation is the
mean scene-flow vector of the previous frame's sampled points inside the
box (:func:`compute_offset`), or, for a tracklet without such points or a
frame without flow, its last displacement.  The predicted boxes are matched
to the current detections by maximum total IoU, matched tracklets adopt their
detection box verbatim, and births and deaths follow consecutive-match and
missed-frame counters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .assignment import max_similarity_assignment
from .flow import FlowDataError, FlowField
from .geometry import ATTRIBUTION_MARGIN, Box3D, iou_matrix, points_in_boxes, wrap_angle

T = TypeVar("T")


class UsageError(ValueError):
    """Raised for run arguments outside their range, or missing the input
    another argument needs: a decimation stride below 1, an input
    directory that does not exist, a flow source without its ground truth
    or flow files."""


@dataclass
class Detection:
    """Single-frame detector output."""

    box: Box3D
    confidence: float
    category: str


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

    @classmethod
    def from_file(cls, path: Path) -> "TrackerConfig":
        """Read a configuration file (see :func:`read_settings`).

        It holds no section; its keys are the fields of this class
        (``iou_min``, ``max_mis``, ``min_det``), each value checked by
        building the class.

        Raises
        ------
        SettingsError
            Naming ``file:line`` and the key of the first line that is
            malformed, unknown or out of range.
        """
        [(_, _, lines)] = read_settings(path, sections=())
        return build_settings(lines, cls())


class SettingsError(ValueError):
    """Raised for a settings file line that is not a ``[section]`` header or
    a ``key = value`` pair, names an unknown section or key, or holds a
    value its field rejects (the message names ``file:line`` and the key),
    and for scenario settings a scenario cannot be generated from."""


# (where, key, value) of one setting line; ``where`` is "file:line".
SettingLine = tuple[str, str, str]


def read_settings(
    path: Path, sections: Sequence[str]
) -> list[tuple[str, str, list[SettingLine]]]:
    """The sections of a settings file, as ``(where, header, lines)``.

    One grammar serves configuration and scenario files: ``#`` starts a
    comment, ``[name]`` starts a section (names are lower-cased, must be
    one of ``sections`` and may repeat), and every other non-blank line is
    ``key = value``, where the ``=`` may be omitted.  The first section is
    the one before any header, with header ``""``.
    """
    found: list[tuple[str, str, list[SettingLine]]] = [(str(path), "", [])]
    text = Path(path).read_bytes().decode(errors="replace")
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        where = f"{path}:{line_number}"
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip().lower()
            if header not in sections:
                raise SettingsError(f"{where}: unknown section [{header}]")
            found.append((where, header, []))
            continue
        parts = line.split("=", 1) if "=" in line else line.split(None, 1)
        if len(parts) != 2:
            raise SettingsError(f"{where}: expected 'key = value', got {raw!r}")
        found[-1][2].append((where, parts[0].strip(), parts[1].strip()))
    return found


def setting_fields(settings: object) -> dict[str, object]:
    """The fields of a dataclass instance that a settings file holds, by
    name in field order: those whose value is an int, float, str or tuple."""
    values = {f.name: getattr(settings, f.name) for f in fields(settings)}
    return {k: v for k, v in values.items() if isinstance(v, (int, float, str, tuple))}


def parse_setting(types: dict[str, object], line: SettingLine) -> object:
    """The value of a setting line, parsed as the type of ``types[key]``: an
    int, float or str, or for a tuple as many whitespace-separated values,
    each of its element's type."""
    where, key, text = line
    if key not in types:
        raise SettingsError(f"{where}: unknown key {key!r}")
    like = types[key]
    try:
        if not isinstance(like, tuple):
            return type(like)(text)
        parts = text.split()
        if len(parts) == len(like):
            return tuple(type(element)(part) for element, part in zip(like, parts))
    except ValueError:
        pass
    kind = (f"{len(like)} numbers" if isinstance(like, tuple)
            else "an integer" if isinstance(like, int) else "a number")
    raise SettingsError(f"{where}: {key}: expected {kind}, got {text!r}")


def build_settings(lines: Iterable[SettingLine], template: T) -> T:
    """The dataclass instance ``template`` rebuilt with the values of the
    lines, each naming one of its :func:`setting_fields` and parsed as the
    type of the template's value.

    After each line the instance is built again from every value read so
    far, so its ``__post_init__`` checks each value on its own line.
    """
    types = setting_fields(template)
    values: dict[str, object] = {}
    built = template
    for line in lines:
        where, key, _ = line
        values[key] = parse_setting(types, line)
        try:
            built = replace(template, **values)
        except ValueError as exc:
            raise SettingsError(f"{where}: {key}: {exc}") from exc
    return built


def format_settings(items: Iterable[tuple[str, object]], header: str = "") -> str:
    """Settings file text of ``(key, value)`` pairs, one ``key = value`` line
    each under a ``[header]`` line when one is given; a tuple's elements are
    separated by spaces.  :func:`read_settings` reads it back."""
    lines = [f"[{header}]"] if header else []
    for key, value in items:
        text = " ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines)


def compute_offset(flow: FlowField, inside: np.ndarray) -> tuple[np.ndarray | None, int]:
    """Mean flow vector of the points in one tracklet's box.

    ``inside`` holds the indices of those points among ``flow.sources``, as
    :func:`points_in_boxes` gives them with ``ATTRIBUTION_MARGIN``.

    Returns
    -------
    tuple
        ``(mean, n_points)``: the arithmetic mean of the points' flow
        vectors, shape (3,), and their count.  A flow-starved tracklet, with
        no point in its box, gets ``(None, 0)``.
    """
    if len(inside) == 0:
        return None, 0
    return flow.vectors[inside].mean(axis=0), len(inside)


def predict(
    tracklet: Tracklet, translation: np.ndarray | Sequence[float] | None = None
) -> Box3D:
    """The tracklet's box moved to its predicted pose in the next frame.

    The center moves by ``translation``, or without one by the last
    inter-frame displacement.  The yaw advances by the last yaw increment
    (constant angular velocity), or by 0.0 without history, renormalized to
    (-pi, pi].  Dimensions are preserved.  With neither a translation nor
    history the box is returned unchanged.  A move out of the float range,
    as flow vectors near its limit make, raises :class:`FlowDataError`.
    """
    box, prev = tracklet.box, tracklet.prev_box
    if prev is None:
        if translation is None:
            return box
        dtheta = 0.0
    else:
        dtheta = wrap_angle(box.theta - prev.theta)
        if translation is None:
            translation = (box.x - prev.x, box.y - prev.y, box.z - prev.z)
    dx, dy, dz = map(float, translation)
    try:
        return Box3D(
            box.x + dx, box.y + dy, box.z + dz, box.l, box.w, box.h,
            wrap_angle(box.theta + dtheta),
        )
    except ValueError as exc:
        raise FlowDataError(f"tracklet {tracklet.track_id}: moving its box by "
                            f"{(dx, dy, dz)} leaves the float range") from exc


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

    Notes
    -----
    Prediction rule (:func:`predict`): a tracklet with at least one sampled
    point of the previous frame inside its box moves by the mean flow of
    those points (:func:`compute_offset`); every other tracklet, and every
    tracklet of a frame without flow, moves by its last displacement.

    Emission rule: a track is reported for a frame when it is alive and
    confirmed, including frames it coasts through while missed.  A tracklet
    born in the first ``min_det`` frames of a run is reported from birth and
    for as long as it lives, so a sequence that starts with valid objects is
    covered from frame one and no such track drops out before it is
    confirmed; tracklets born later still need ``min_det`` consecutive
    matches.
    """

    def __init__(self, config: TrackerConfig | None = None) -> None:
        self.config = config if config is not None else TrackerConfig()
        self.tracklets: list[Tracklet] = []
        self.next_id = 0
        self.frames_seen = 0

    def membership(self, points: np.ndarray) -> list[np.ndarray]:
        """Indices of ``points`` inside each live tracklet's box, in
        tracklet order: one :func:`points_in_boxes` pass with
        ``ATTRIBUTION_MARGIN`` for every tracklet."""
        return points_in_boxes([t.box for t in self.tracklets], points, margin=ATTRIBUTION_MARGIN)

    def step(
        self,
        detections: Sequence[Detection],
        flow: FlowField | None = None,
        members: list[np.ndarray] | None = None,
    ) -> list[EmittedTrack]:
        """Advance the tracker by one frame.

        Parameters
        ----------
        detections : sequence of Detection
            Current-frame detections.
        flow : FlowField, optional
            Flow of the previous frame's sampled points; each tracklet's
            points are those of ``flow.sources`` inside its box.  Without it
            every tracklet advances by constant velocity.
        members : list of np.ndarray, optional
            :meth:`membership` of ``flow.sources``, when the caller already
            made it; otherwise it is made here.

        Returns
        -------
        list of EmittedTrack
            Reported tracks for this frame.
        """
        if not self.tracklets and not detections:
            # An idle frame: nothing to predict, match or give birth to.
            self.frames_seen += 1
            return []
        translations: list[np.ndarray | None] = [None] * len(self.tracklets)
        if flow is not None and self.tracklets:
            if members is None:
                members = self.membership(flow.sources)
            # A mean past the float range is reported by predict, not warned of.
            with np.errstate(over="ignore"):
                translations = [compute_offset(flow, inside)[0] for inside in members]
        predicted = [predict(t, d) for t, d in zip(self.tracklets, translations)]
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

        # An unconfirmed tracklet has matched in every frame since its birth,
        # so it was born in the run's frame ``frames_seen - hits + 1``.
        return [
            EmittedTrack(t.track_id, t.box, t.confidence, t.category)
            for t in self.tracklets
            if t.confirmed or self.frames_seen - t.hits < self.config.min_det
        ]
