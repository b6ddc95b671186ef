"""Tracking evaluation: per-frame matching, CLEAR counts and recall sweeps.

Ground truth and results are compared per frame by box IoU.  A ground-truth
identity keeps its previous partner whenever their IoU still clears the
threshold; the remaining boxes are matched by maximum total IoU.  Sequence
counts (FP, FN, identity switches, fragmentations) aggregate over frames,
and the averaged metrics sweep a set of target recall levels by filtering
results on their confidence scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .assignment import max_similarity_assignment
from .geometry import Box3D, iou_matrices, iou_matrix


class EvaluationInputError(ValueError):
    """Raised for malformed evaluation inputs."""


@dataclass
class TrackedBox:
    """One box of a track file: identity plus geometry plus optional score."""

    track_id: int
    box: Box3D
    score: float | None = None


@dataclass
class EvalConfig:
    """Evaluation parameters.  ``iou_thres``, the 3D IoU a match needs, is
    in (0, 1]: at 0 or below, boxes that do not overlap would match."""

    iou_thres: float = 0.25
    category: str = "Car"
    num_recall_steps: int = 40

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_thres <= 1.0:
            raise EvaluationInputError(f"the IoU threshold must be in (0, 1], got {self.iou_thres}")
        if self.num_recall_steps < 1:
            raise EvaluationInputError(
                f"the number of recall steps must be positive, got {self.num_recall_steps}"
            )


@dataclass
class FrameMatch:
    """Matching of one frame: index pairs plus the frame's FP and FN."""

    matches: list[tuple[int, int]]
    fp: int
    fn: int


@dataclass
class SequenceCounts:
    """CLEAR counts accumulated over one or more sequences."""

    fp: int = 0
    fn: int = 0
    ids: int = 0
    frag: int = 0
    num_gt: int = 0
    num_matches: int = 0
    iou_sum: float = 0.0

    def merge(self, other: "SequenceCounts") -> "SequenceCounts":
        """Pure fold of two count sets."""
        return SequenceCounts(
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
            ids=self.ids + other.ids,
            frag=self.frag + other.frag,
            num_gt=self.num_gt + other.num_gt,
            num_matches=self.num_matches + other.num_matches,
            iou_sum=self.iou_sum + other.iou_sum,
        )

    @property
    def mota(self) -> float:
        """1 - (FP + FN + IDS) / num_gt."""
        return 1.0 - (self.fp + self.fn + self.ids) / self.num_gt

    @property
    def motp(self) -> float:
        """Mean IoU over matched pairs; 0 with no matches."""
        return self.iou_sum / self.num_matches if self.num_matches else 0.0

    @property
    def recall(self) -> float:
        return self.num_matches / self.num_gt


@dataclass
class RecallRow:
    """Metrics of one recall level of the sweep."""

    recall_target: float
    threshold: float
    mota: float
    motp: float
    smota: float
    fp: int
    fn: int
    ids: int


@dataclass
class MetricsReport:
    """Sweep rows plus the aggregated headline numbers.

    ``samota``, ``amota`` and ``amotp`` are means over the sweep rows on a
    0-100 scale; ``mota``/``motp``/``ids``/``frag`` describe the best
    single threshold (highest accuracy row) on their natural scales.
    """

    iou_thres: float
    category: str
    rows: list[RecallRow] = field(default_factory=list)
    samota: float = 0.0
    amota: float = 0.0
    amotp: float = 0.0
    mota: float = 0.0
    motp: float = 0.0
    ids: int = 0
    frag: int = 0

    def to_dict(self) -> dict:
        """Machine-readable key-value form."""
        return {
            "iou_thres": self.iou_thres,
            "category": self.category,
            "sAMOTA": round(self.samota, 2),
            "AMOTA": round(self.amota, 2),
            "AMOTP": round(self.amotp, 2),
            "MOTA": round(self.mota, 2),
            "MOTP": round(self.motp, 2),
            "IDS": self.ids,
            "FRAG": self.frag,
            "rows": [
                {
                    "recall_target": round(r.recall_target, 4),
                    "threshold": r.threshold,
                    "MOTA": round(r.mota, 4),
                    "MOTP": round(r.motp, 4),
                    "sMOTA": round(r.smota, 4),
                    "FP": r.fp,
                    "FN": r.fn,
                    "IDS": r.ids,
                }
                for r in self.rows
            ],
        }

    def to_text(self) -> str:
        """Fixed two-decimal table."""
        header = (
            f"category={self.category} iou_thres={self.iou_thres:.2f}\n"
            f"{'sAMOTA':>8} {'AMOTA':>8} {'AMOTP':>8} {'MOTA':>8} {'MOTP':>8} "
            f"{'IDS':>6} {'FRAG':>6}\n"
        )
        values = (
            f"{self.samota:8.2f} {self.amota:8.2f} {self.amotp:8.2f} "
            f"{self.mota:8.2f} {self.motp:8.2f} {self.ids:6d} {self.frag:6d}\n"
        )
        return header + values


Frames = Mapping[int, Sequence[TrackedBox]]


def _check_sequence(gt: Frames, pred: Frames) -> None:
    for frames, kind in ((gt, "ground-truth"), (pred, "result")):
        for frame, boxes in frames.items():
            seen: set[int] = set()
            for tracked in boxes:
                if tracked.track_id in seen:
                    raise EvaluationInputError(
                        f"duplicate {kind} row for frame {frame}, id {tracked.track_id}"
                    )
                seen.add(tracked.track_id)
    if sum(len(boxes) for boxes in gt.values()) == 0:
        raise EvaluationInputError("ground truth holds no boxes")


def match_frame(
    gt: Sequence[TrackedBox],
    pred: Sequence[TrackedBox],
    iou_thres: float,
    prev_pairs: Mapping[int, int] | None = None,
    ious: np.ndarray | None = None,
) -> FrameMatch:
    """Match one frame of ground truth against one frame of predictions.

    Pairs that were matched in the previous frame are kept first whenever
    their IoU still reaches ``iou_thres``; the remaining boxes are matched
    by maximum total IoU and pairs below the threshold are dropped.

    Parameters
    ----------
    gt, pred : sequence of TrackedBox
        Boxes of a single frame and category.
    iou_thres : float
        Minimum IoU of a valid match.
    prev_pairs : mapping, optional
        Previous-frame assignment as ``gt_id -> pred_id``.
    ious : np.ndarray, optional
        IoU of every ``(gt[i], pred[j])`` pair, shape ``(len(gt), len(pred))``;
        computed with :func:`~flowtrack.geometry.iou_matrix` by default.

    Returns
    -------
    FrameMatch
        Matched index pairs ``(gt_index, pred_index)`` plus the frame's FP
        (unmatched predictions) and FN (unmatched ground truth).
    """
    if ious is None:
        ious = iou_matrix([t.box for t in gt], [p.box for p in pred])
    prev_pairs = prev_pairs or {}
    pred_index_by_id = {p.track_id: j for j, p in enumerate(pred)}

    matches: list[tuple[int, int]] = []
    taken_gt: set[int] = set()
    taken_pred: set[int] = set()
    for i, truth in enumerate(gt):
        j = pred_index_by_id.get(prev_pairs.get(truth.track_id))
        if j is None or j in taken_pred:
            continue
        if ious[i, j] >= iou_thres:
            matches.append((i, j))
            taken_gt.add(i)
            taken_pred.add(j)

    free_gt = [i for i in range(len(gt)) if i not in taken_gt]
    free_pred = [j for j in range(len(pred)) if j not in taken_pred]
    if free_gt and free_pred:
        similarity = ious[np.ix_(free_gt, free_pred)]
        for a, b in max_similarity_assignment(similarity):
            if similarity[a, b] >= iou_thres:
                matches.append((free_gt[a], free_pred[b]))

    matches.sort()
    return FrameMatch(
        matches=matches, fp=len(pred) - len(matches), fn=len(gt) - len(matches)
    )


class _SequenceFrames:
    """One checked sequence: per frame its ground truth and the IoU matrix
    against all its results, built once, plus memoized frame matches.

    A frame's match at one IoU threshold is memoized on ``(frame, number of
    kept results, previous partner of each ground-truth id)``.  Kept results
    are the frame's rows at or above a score threshold; those sets are
    nested, so their size identifies them.
    """

    def __init__(self, gt: Frames, pred: Frames) -> None:
        self.frames = sorted(set(gt) | set(pred))
        self.gt = {f: list(gt.get(f, [])) for f in self.frames}
        self.gt_ids = {f: [t.track_id for t in boxes] for f, boxes in self.gt.items()}
        rows = {f: pred.get(f, []) for f in self.frames}
        # One IoU kernel pass over the whole sequence: frames hold few boxes.
        matrices = iou_matrices(
            [([t.box for t in self.gt[f]], [p.box for p in rows[f]], None) for f in self.frames]
        )
        self.ious = dict(zip(self.frames, matrices))
        self.columns = {f: {p.track_id: j for j, p in enumerate(rows[f])} for f in self.frames}
        self.memo: dict[tuple, tuple[dict[int, int], list[int], list[float]]] = {}

    def match(
        self, frame: int, kept: Sequence[TrackedBox], iou_thres: float, prev_pairs: dict[int, int]
    ) -> tuple[dict[int, int], list[int], list[float]]:
        """Matched ``gt_id -> pred_id``, unmatched gt ids, matched IoUs in order."""
        key = (frame, len(kept), tuple(map(prev_pairs.get, self.gt_ids[frame])))
        found = self.memo.get(key)
        if found is None:
            gt = self.gt[frame]
            ious = self.ious[frame][:, [self.columns[frame][p.track_id] for p in kept]]
            result = match_frame(gt, kept, iou_thres, prev_pairs, ious)
            matched = {gt[i].track_id: kept[j].track_id for i, j in result.matches}
            found = self.memo[key] = (
                matched,
                [gid for gid in self.gt_ids[frame] if gid not in matched],
                [float(ious[i, j]) for i, j in result.matches],
            )
        return found


def evaluate_sequence(
    gt: Frames, pred: Frames, iou_thres: float, *, frames: _SequenceFrames | None = None
) -> SequenceCounts:
    """CLEAR counts of one sequence.

    An identity switch is counted when a ground-truth identity's matched
    prediction id differs between two consecutive matched frames, no matter
    how many unmatched or absent frames lie between them.  A fragmentation
    is counted when a trajectory goes matched, then unmatched for at least
    one present frame, then matched again.

    Parameters
    ----------
    gt, pred : mapping
        Frame index to boxes.  ``(frame, id)`` pairs must be unique.
    iou_thres : float
        Minimum IoU of a valid match.
    frames : _SequenceFrames, optional
        IoU matrices and match memo of the already checked sequence that
        ``pred`` filters by score, as :func:`recall_sweep` passes them;
        checked and built from ``gt`` and ``pred`` by default.

    Raises
    ------
    EvaluationInputError
        On duplicate ``(frame, id)`` rows or empty ground truth.
    """
    if frames is None:
        _check_sequence(gt, pred)
        frames = _SequenceFrames(gt, pred)
    counts = SequenceCounts()
    prev_pairs: dict[int, int] = {}
    # Per ground-truth identity: prediction id of its most recent matched
    # frame (kept through gaps); identities with an open interruption.
    last_id: dict[int, int] = {}
    in_gap: set[int] = set()

    for frame in frames.frames:
        kept = pred.get(frame, [])
        matched_pred, unmatched, ious = frames.match(frame, kept, iou_thres, prev_pairs)
        counts.fp += len(kept) - len(ious)
        counts.fn += len(unmatched)
        counts.num_gt += len(frames.gt[frame])
        counts.num_matches += len(ious)
        for value in ious:
            counts.iou_sum += value
        for gid, pid in matched_pred.items():
            if last_id.setdefault(gid, pid) != pid:
                counts.ids += 1
                last_id[gid] = pid
            if gid in in_gap:
                counts.frag += 1
                in_gap.remove(gid)
        in_gap |= last_id.keys() & unmatched
        prev_pairs = matched_pred

    return counts


def evaluate_sequences(
    gt_by_sequence: Mapping[str, Frames],
    pred_by_sequence: Mapping[str, Frames],
    iou_thres: float,
    *,
    frames: Mapping[str, _SequenceFrames] | None = None,
) -> SequenceCounts:
    """Evaluate each sequence independently and fold the counts."""
    total = SequenceCounts()
    for name in sorted(gt_by_sequence):
        pred = pred_by_sequence.get(name, {})
        total = total.merge(
            evaluate_sequence(
                gt_by_sequence[name], pred, iou_thres, frames=frames[name] if frames else None
            )
        )
    return total


def smota_value(counts: SequenceCounts, recall_target: float) -> float:
    """Scaled accuracy ``MOTA / r`` at recall level ``r``, clamped to [0, 1].

    This is the AB3DMOT sMOTA, ``1 - (FN + FP + IDS - (1 - r) n) / (r n)``
    with ``n`` ground-truth boxes: crediting the share of ground truth
    expected to be missed at recall ``r`` and dividing by ``r`` simplifies
    to ``MOTA / r``.
    """
    return min(1.0, max(0.0, counts.mota / recall_target))


def recall_sweep(
    gt: Mapping[str, Frames], pred: Mapping[str, Frames], cfg: EvalConfig
) -> MetricsReport:
    """Averaged tracking accuracy over a sweep of target recall levels.

    For each target recall ``r`` in ``{1/L, 2/L, ..., 1}`` the sweep picks
    the confidence threshold whose filtered results reach the smallest
    recall at or above ``r`` and evaluates the filtered results at the
    configured IoU threshold.  Targets that no threshold reaches reuse the
    lowest threshold.  The accuracy of each row is scaled by its target
    recall (see :func:`smota_value`) and the averages are reported on a
    0-100 scale.

    Every distinct score is evaluated, from the highest down: recall is not
    monotone in the threshold, since frames keep their previous pairs.
    The inputs are checked once (scores, unique ``(frame, id)`` rows,
    non-empty ground truth), and each sequence's IoU matrices are built
    once.  Lowering the threshold by one score only adds the rows carrying
    it, so most frames are matched again with the same kept results and the
    same previous pairs: a frame's match is memoized on ``(frame, number of
    kept results, previous partner of each ground-truth id)`` and computed
    once per distinct key.

    Parameters
    ----------
    gt, pred : mapping
        ``sequence -> frame -> boxes``; a single sequence is one entry
        under any name.  Result sequences without ground truth are ignored.
        Every result box needs a confidence score.
    cfg : EvalConfig
        Thresholds, category tag and sweep length.

    Raises
    ------
    EvaluationInputError
        If any result box lacks a score, or on duplicate ``(frame, id)``
        rows, or ground truth without a box (or without a sequence).
    """
    if not gt:
        raise EvaluationInputError("ground truth holds no boxes")
    # Frames entered by each score as the threshold falls to it.
    entering: dict[float, set[tuple[str, int]]] = {}
    for name, frames in pred.items():
        for frame, boxes in frames.items():
            for tracked in boxes:
                if tracked.score is None:
                    raise EvaluationInputError(
                        f"result box in frame {frame} has no confidence score; "
                        "the recall sweep needs scores"
                    )
                entering.setdefault(float(tracked.score), set()).add((name, frame))

    sequences = {}
    for name in sorted(gt):
        _check_sequence(gt[name], pred.get(name, {}))
        sequences[name] = _SequenceFrames(gt[name], pred.get(name, {}))
    kept = {name: {frame: [] for frame in pred.get(name, {})} for name in gt}

    candidates: list[tuple[float, SequenceCounts]] = []
    for threshold in sorted(entering, reverse=True) or [0.0]:
        for name, frame in entering.get(threshold, ()):
            if name in kept:
                kept[name][frame] = [b for b in pred[name][frame] if b.score >= threshold]
        counts = evaluate_sequences(gt, kept, cfg.iou_thres, frames=sequences)
        candidates.append((threshold, counts))
    lowest = candidates[-1]

    rows: list[RecallRow] = []
    best: tuple[float, SequenceCounts] | None = None
    steps = cfg.num_recall_steps
    for k in range(1, steps + 1):
        target = k / steps
        eligible = [
            (counts.recall, threshold, counts)
            for threshold, counts in candidates
            if counts.recall >= target - 1e-12
        ]
        if eligible:
            _, threshold, counts = min(eligible, key=lambda item: (item[0], -item[1]))
        else:
            threshold, counts = lowest
        row = RecallRow(
            recall_target=target,
            threshold=threshold,
            mota=counts.mota,
            motp=counts.motp,
            smota=smota_value(counts, target),
            fp=counts.fp,
            fn=counts.fn,
            ids=counts.ids,
        )
        rows.append(row)
        if best is None or counts.mota > best[1].mota:
            best = (threshold, counts)

    assert best is not None
    report = MetricsReport(
        iou_thres=cfg.iou_thres,
        category=cfg.category,
        rows=rows,
        samota=100.0 * _mean(r.smota for r in rows),
        amota=100.0 * _mean(r.mota for r in rows),
        amotp=100.0 * _mean(r.motp for r in rows),
        mota=best[1].mota,
        motp=best[1].motp,
        ids=best[1].ids,
        frag=best[1].frag,
    )
    return report


def _mean(values: Iterable[float]) -> float:
    items = list(values)
    return math.fsum(items) / len(items)
