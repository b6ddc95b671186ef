"""Frame matching, CLEAR counts and the recall-sweep averages."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flowtrack.metrics as metrics
from flowtrack.geometry import Box3D, wrap_angle
from flowtrack.metrics import (
    EvalConfig,
    EvaluationInputError,
    MetricsReport,
    SequenceCounts,
    TrackedBox,
    evaluate_sequence,
    evaluate_sequences,
    match_frame,
    recall_sweep,
    smota_value,
)

from conftest import record_kernel_pairs
from oracles import (
    best_assignment_bruteforce, iou3d_reference, recall_sweep_reference, reference_counts,
)


def tb(track_id: int, x: float, y: float = 0.0, score: float | None = None) -> TrackedBox:
    return TrackedBox(
        track_id=track_id,
        box=Box3D(x=x, y=y, z=1.0, l=4.0, w=2.0, h=2.0, theta=0.0),
        score=score,
    )


class TestMatchFrame:
    def test_perfect(self):
        gt = [tb(1, 0.0), tb(2, 20.0), tb(3, 40.0)]
        pred = [tb(11, 0.0), tb(12, 20.0), tb(13, 40.0)]
        result = match_frame(gt, pred, 0.25)
        assert result.matches == [(0, 0), (1, 1), (2, 2)]
        assert (result.fp, result.fn) == (0, 0)

    def test_empty_predictions(self):
        result = match_frame([tb(1, 0.0), tb(2, 20.0), tb(3, 40.0)], [], 0.25)
        assert result.matches == []
        assert (result.fp, result.fn) == (0, 3)

    def test_empty_ground_truth(self):
        result = match_frame([], [tb(1, 0.0), tb(2, 20.0)], 0.25)
        assert (result.fp, result.fn) == (2, 0)

    def test_total_iou_beats_greedy(self):
        # Greedy-by-best-pair would give gt1 its 0.818 partner and leave
        # gt0 the 0.25 one; maximum total keeps the straight pairing.
        gt = [tb(1, 0.0), tb(2, 2.0)]
        pred = [tb(11, 0.8), tb(12, 2.4)]
        matrix = np.array(
            [[iou3d_reference(g.box, p.box) for p in pred] for g in gt]
        )
        assert matrix[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert matrix[0, 1] == pytest.approx(0.25, abs=1e-12)
        assert matrix[1, 0] == pytest.approx(2.8 / 5.2, abs=1e-12)
        assert matrix[1, 1] == pytest.approx(3.6 / 4.4, abs=1e-12)
        result = match_frame(gt, pred, 0.01)
        _, expected = best_assignment_bruteforce(matrix)
        assert result.matches == expected == [(0, 0), (1, 1)]

    def test_continuation_beats_higher_iou(self):
        # The previous partner (IoU 0.6) is kept even though a fresh
        # assignment would pick the perfectly overlapping newcomer.
        gt = [tb(1, 0.0)]
        pred = [tb(10, 1.0), tb(11, 0.0)]
        result = match_frame(gt, pred, 0.25, prev_pairs={1: 10})
        assert result.matches == [(0, 0)]
        assert (result.fp, result.fn) == (1, 0)

    def test_continuation_dropped_below_threshold(self):
        gt = [tb(1, 0.0)]
        pred = [tb(10, 3.5), tb(11, 0.0)]
        result = match_frame(gt, pred, 0.25, prev_pairs={1: 10})
        assert result.matches == [(0, 1)]

    def test_continuation_ignores_departed_partner(self):
        gt = [tb(1, 0.0)]
        pred = [tb(11, 0.0)]
        result = match_frame(gt, pred, 0.25, prev_pairs={1: 10})
        assert result.matches == [(0, 0)]


def mota07_fixture() -> tuple[dict, dict]:
    """Two objects over five frames: one identity switch, one missed frame
    with a fragmentation, one spurious prediction.  MOTA = 0.7 exactly."""
    gt = {f: [tb(1, 0.0), tb(2, 20.0)] for f in range(5)}
    pred = {}
    for f in range(5):
        boxes = []
        boxes.append(tb(10 if f < 2 else 11, 0.0))
        if f != 2:
            boxes.append(tb(20, 20.0))
        if f == 4:
            boxes.append(tb(30, 100.0))
        pred[f] = boxes
    return gt, pred


class TestEvaluateSequence:
    def test_perfect(self):
        gt = {f: [tb(1, 0.0), tb(2, 20.0)] for f in range(3)}
        pred = {f: [tb(11, 0.0), tb(12, 20.0)] for f in range(3)}
        counts = evaluate_sequence(gt, pred, 0.25)
        assert (counts.fp, counts.fn, counts.ids, counts.frag) == (0, 0, 0, 0)
        assert counts.num_gt == 6
        assert counts.mota == 1.0
        assert counts.motp == 1.0

    def test_mota_07_fixture(self):
        gt, pred = mota07_fixture()
        counts = evaluate_sequence(gt, pred, 0.25)
        assert (counts.fp, counts.fn, counts.ids, counts.frag) == (1, 1, 1, 1)
        assert counts.num_gt == 10
        assert counts.num_matches == 9
        assert counts.mota == pytest.approx(0.7, abs=1e-12)
        assert counts.motp == pytest.approx(1.0, abs=1e-12)

    def test_fragmentation_requires_present_miss(self):
        # Object absent from the scene between two matched stretches: no
        # fragmentation.  Object present but unmatched in between: one.
        gt_a = {0: [tb(1, 0.0)], 1: [tb(1, 0.0)], 3: [tb(1, 0.0)], 4: [tb(1, 0.0)]}
        pred_a = {f: [tb(10, 0.0)] for f in (0, 1, 3, 4)}
        counts_a = evaluate_sequence(gt_a, pred_a, 0.25)
        assert counts_a.frag == 0

        gt_b = {f: [tb(1, 0.0)] for f in range(4)}
        pred_b = {0: [tb(10, 0.0)], 1: [], 2: [], 3: [tb(10, 0.0)]}
        counts_b = evaluate_sequence(gt_b, pred_b, 0.25)
        assert counts_b.frag == 1
        assert counts_b.ids == 0

    def test_identity_memory_survives_gap(self):
        gt = {f: [tb(1, 0.0)] for f in range(5)}
        pred = {
            0: [tb(10, 0.0)],
            1: [tb(10, 0.0)],
            2: [],
            3: [],
            4: [tb(11, 0.0)],
        }
        counts = evaluate_sequence(gt, pred, 0.25)
        assert counts.ids == 1
        assert counts.frag == 1
        assert counts.fn == 2

    def test_duplicate_ids_rejected(self):
        gt = {0: [tb(1, 0.0), tb(1, 20.0)]}
        with pytest.raises(EvaluationInputError, match="frame 0"):
            evaluate_sequence(gt, {0: []}, 0.25)
        pred = {2: [tb(9, 0.0), tb(9, 20.0)]}
        with pytest.raises(EvaluationInputError, match="frame 2"):
            evaluate_sequence({2: [tb(1, 0.0)]}, pred, 0.25)

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(EvaluationInputError, match="no boxes"):
            evaluate_sequence({0: []}, {0: [tb(1, 0.0)]}, 0.25)


def random_scenario(rng: np.random.Generator, spurious: bool = True):
    """Axis-aligned multi-object scenario with drops, id changes and noise.

    Objects live 12 m apart so only a ground truth and its own perturbed
    prediction ever overlap; every judgement call reduces to bookkeeping.
    """
    num_frames = int(rng.integers(2, 6))
    num_objects = int(rng.integers(1, 5))
    gt: dict[int, list[TrackedBox]] = {f: [] for f in range(num_frames)}
    pred: dict[int, list[TrackedBox]] = {f: [] for f in range(num_frames)}
    spurious_id = 900
    for gid in range(1, num_objects + 1):
        start = int(rng.integers(0, num_frames))
        end = int(rng.integers(start + 1, num_frames + 1))
        switch_at = int(rng.integers(start, end + 1))
        base = gid * 12.0
        for f in range(start, end):
            x = base + 0.5 * f
            gt[f].append(tb(gid, x))
            if rng.uniform() < 0.75:
                jitter = float(rng.uniform(-1.0, 1.0))
                pid = gid * 10 + (1 if f >= switch_at else 0)
                pred[f].append(tb(pid, x + jitter))
    if spurious:
        for f in range(num_frames):
            if rng.uniform() < 0.2:
                pred[f].append(tb(spurious_id, -500.0 - 20.0 * f))
                spurious_id += 1
    return gt, pred


class TestSequenceProperties:
    def test_counts_match_reference(self, rng):
        checked = 0
        for _ in range(20):
            gt, pred = random_scenario(rng)
            if sum(len(b) for b in gt.values()) == 0:
                continue
            counts = evaluate_sequence(gt, pred, 0.25)
            expected = reference_counts(gt, pred, 0.25)
            assert counts.fp == expected["fp"]
            assert counts.fn == expected["fn"]
            assert counts.ids == expected["ids"]
            assert counts.frag == expected["frag"]
            assert counts.num_gt == expected["num_gt"]
            assert counts.num_matches == expected["num_matches"]
            assert counts.iou_sum == pytest.approx(expected["iou_sum"], abs=1e-9)
            checked += 1
        assert checked >= 15

    def test_mota_at_most_one_with_equality_iff_clean(self, rng):
        for _ in range(10):
            gt, pred = random_scenario(rng)
            if sum(len(b) for b in gt.values()) == 0:
                continue
            counts = evaluate_sequence(gt, pred, 0.25)
            assert counts.mota <= 1.0
            clean = counts.fp == 0 and counts.fn == 0 and counts.ids == 0
            assert (counts.mota == 1.0) == clean

    def test_noise_track_only_lowers_mota(self):
        gt, pred = mota07_fixture()
        base = evaluate_sequence(gt, pred, 0.25)
        noisy = {f: boxes + [tb(999, -900.0)] for f, boxes in pred.items()}
        counts = evaluate_sequence(gt, noisy, 0.25)
        assert counts.fp == base.fp + len(pred)
        assert counts.fn == base.fn
        assert counts.ids == base.ids
        assert counts.mota == pytest.approx(base.mota - len(pred) / base.num_gt)

    def test_rigid_transform_invariance(self, rng):
        gt, pred = mota07_fixture()
        phi = 0.7
        tx, ty, tz = 5.0, -3.0, 2.0

        def moved(frames):
            out = {}
            for f, boxes in frames.items():
                moved_boxes = []
                for t in boxes:
                    b = t.box
                    x = b.x * math.cos(phi) - b.y * math.sin(phi) + tx
                    y = b.x * math.sin(phi) + b.y * math.cos(phi) + ty
                    moved_boxes.append(
                        TrackedBox(
                            track_id=t.track_id,
                            box=Box3D(
                                x=x, y=y, z=b.z + tz, l=b.l, w=b.w, h=b.h,
                                theta=wrap_angle(b.theta + phi),
                            ),
                            score=t.score,
                        )
                    )
                out[f] = moved_boxes
            return out

        base = evaluate_sequence(gt, pred, 0.25)
        turned = evaluate_sequence(moved(gt), moved(pred), 0.25)
        assert (turned.fp, turned.fn, turned.ids, turned.frag) == (
            base.fp, base.fn, base.ids, base.frag,
        )
        assert turned.iou_sum == pytest.approx(base.iou_sum, abs=1e-9)

    def test_multi_sequence_fold_is_sum(self):
        gt, pred = mota07_fixture()
        gt2 = {f: [tb(5, -40.0)] for f in range(3)}
        pred2 = {f: [tb(50, -40.0)] for f in range(3)}
        total = evaluate_sequences(
            {"a": gt, "b": gt2}, {"a": pred, "b": pred2}, 0.25
        )
        part_a = evaluate_sequence(gt, pred, 0.25)
        part_b = evaluate_sequence(gt2, pred2, 0.25)
        merged = part_a.merge(part_b)
        assert total == merged
        assert total.num_gt == part_a.num_gt + part_b.num_gt

    def test_state_not_shared_across_sequences(self):
        # The same gt id matched by different pred ids in two sequences is
        # not an identity switch; memory resets per sequence.
        gt = {0: [tb(1, 0.0)]}
        total = evaluate_sequences(
            {"a": gt, "b": gt},
            {"a": {0: [tb(10, 0.0)]}, "b": {0: [tb(11, 0.0)]}},
            0.25,
        )
        assert total.ids == 0


class TestSmotaValue:
    def counts(self, fp: int, fn: int, ids: int = 0, num_gt: int = 10) -> SequenceCounts:
        return SequenceCounts(fp=fp, fn=fn, ids=ids, num_gt=num_gt,
                              num_matches=num_gt - fn, iou_sum=float(num_gt - fn))

    def test_ratio_example(self):
        counts = self.counts(fp=1, fn=5)
        assert counts.mota == pytest.approx(0.4, abs=1e-12)
        assert smota_value(counts, 0.5) == pytest.approx(0.8, abs=1e-12)

    def test_negative_clamps_to_zero(self):
        counts = self.counts(fp=9, fn=5)
        assert counts.mota == pytest.approx(-0.4, abs=1e-12)
        assert smota_value(counts, 0.25) == 0.0

    def test_clamps_to_one(self):
        counts = self.counts(fp=0, fn=1)
        assert smota_value(counts, 0.5) == 1.0


def amota_fixture() -> tuple[dict, dict]:
    """One sequence of a single frame, ten isolated objects, two score bands.

    Threshold 0.9 keeps 5 true and 1 false prediction (MOTA 0.4 at recall
    0.5); threshold 0.5 keeps 10 true and 4 false (MOTA 0.6 at recall 1).
    """
    gt = {0: [tb(i, 30.0 * i) for i in range(10)]}
    pred_boxes = []
    for i in range(5):
        pred_boxes.append(tb(100 + i, 30.0 * i, score=0.9))
    pred_boxes.append(tb(200, -500.0, score=0.9))
    for i in range(5, 10):
        pred_boxes.append(tb(100 + i, 30.0 * i, score=0.5))
    for k in range(3):
        pred_boxes.append(tb(201 + k, -600.0 - 100.0 * k, score=0.5))
    return {"": gt}, {"": {0: pred_boxes}}


class TestRecallSweep:
    @pytest.mark.parametrize("iou_thres", [0.0, -1.0, 1.5, math.nan])
    def test_iou_threshold_outside_unit_interval_rejected(self, iou_thres):
        with pytest.raises(EvaluationInputError, match=r"IoU threshold must be in \(0, 1\]"):
            EvalConfig(iou_thres=iou_thres)
        assert EvalConfig(iou_thres=1.0).iou_thres == 1.0

    def test_two_step_sweep_exact(self):
        gt, pred = amota_fixture()
        cfg = EvalConfig(iou_thres=0.25, num_recall_steps=2)
        report = recall_sweep(gt, pred, cfg)
        assert [r.threshold for r in report.rows] == [0.9, 0.5]
        assert report.rows[0].mota == pytest.approx(0.4, abs=1e-12)
        assert report.rows[1].mota == pytest.approx(0.6, abs=1e-12)
        assert report.rows[0].smota == pytest.approx(0.8, abs=1e-12)
        assert report.rows[1].smota == pytest.approx(0.6, abs=1e-12)
        assert report.amota == pytest.approx(50.0, abs=1e-9)
        assert report.samota == pytest.approx(70.0, abs=1e-9)
        assert report.amotp == pytest.approx(100.0, abs=1e-9)
        assert report.mota == pytest.approx(0.6, abs=1e-12)
        assert report.motp == pytest.approx(1.0, abs=1e-12)
        assert report.ids == 0

    def test_aggregates_are_row_means(self):
        gt, pred = amota_fixture()
        report = recall_sweep(gt, pred, EvalConfig(num_recall_steps=2))
        assert report.amota == pytest.approx(
            100.0 * math.fsum(r.mota for r in report.rows) / len(report.rows)
        )
        assert report.samota == pytest.approx(
            100.0 * math.fsum(r.smota for r in report.rows) / len(report.rows)
        )

    def test_unreachable_targets_reuse_lowest_threshold(self):
        gt = {0: [tb(i, 30.0 * i) for i in range(10)]}
        pred = {0: [tb(100 + i, 30.0 * i, score=0.9) for i in range(5)]
                + [tb(200 + k, -500.0 - 100.0 * k, score=0.9) for k in range(9)]}
        report = recall_sweep({"": gt}, {"": pred}, EvalConfig(num_recall_steps=4))
        assert len(report.rows) == 4
        assert [r.threshold for r in report.rows] == [0.9] * 4
        for row in report.rows:
            assert row.mota == pytest.approx(-0.4, abs=1e-12)
            assert row.smota == 0.0
        assert report.amota == pytest.approx(-40.0, abs=1e-9)
        assert report.samota == 0.0

    def test_default_forty_rows(self):
        gt, pred = amota_fixture()
        report = recall_sweep(gt, pred, EvalConfig())
        assert len(report.rows) == 40
        targets = [r.recall_target for r in report.rows]
        assert targets[0] == pytest.approx(1.0 / 40.0)
        assert targets[-1] == 1.0

    def test_missing_score_rejected(self):
        gt = {0: [tb(1, 0.0)]}
        pred = {0: [tb(10, 0.0)]}
        with pytest.raises(EvaluationInputError, match="score"):
            recall_sweep({"": gt}, {"": pred}, EvalConfig())

    def test_empty_results_zero_rows(self):
        gt = {0: [tb(1, 0.0)], 1: [tb(1, 0.5)]}
        report = recall_sweep({"": gt}, {"": {0: [], 1: []}}, EvalConfig(num_recall_steps=4))
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.mota == 0.0
            assert row.smota == 0.0
        assert report.samota == 0.0
        assert report.amota == 0.0

    def test_no_ground_truth_sequence_rejected(self):
        with pytest.raises(EvaluationInputError, match="ground truth holds no boxes"):
            recall_sweep({}, {}, EvalConfig())
        with pytest.raises(EvaluationInputError, match="ground truth holds no boxes"):
            recall_sweep({"": {}}, {}, EvalConfig())


def crowded_scored_scenario(rng: np.random.Generator) -> tuple[dict, dict]:
    """Two sequences of overlapping cars with scored, jittered results.

    Cars stand 3 m apart with 4 m long boxes, so every result overlaps
    several ground-truth boxes and the assignment decides.  Each sequence
    has one identity switch and low-scored false positives near the cars;
    nearly every result has its own score, so the sweep visits many
    thresholds.
    """
    gt_seqs: dict[str, dict] = {}
    pred_seqs: dict[str, dict] = {}
    for name in ("a", "b"):
        gt: dict[int, list[TrackedBox]] = {}
        pred: dict[int, list[TrackedBox]] = {}
        for f in range(6):
            gt[f] = []
            pred[f] = []
            for gid in range(1, 6):
                x = 3.0 * gid + 0.4 * f
                gt[f].append(tb(gid, x))
                if rng.uniform() < 0.8:
                    pid = 10 * gid + (1 if gid == 2 and f >= 3 else 0)
                    jitter = float(rng.uniform(-1.2, 1.2))
                    score = round(float(rng.uniform(0.3, 1.0)), 3)
                    pred[f].append(tb(pid, x + jitter, y=0.3, score=score))
            if rng.uniform() < 0.5:
                score = round(float(rng.uniform(0.0, 0.3)), 3)
                pred[f].append(tb(900 + f, 3.0 * rng.uniform(1, 5), y=1.5, score=score))
        gt_seqs[name] = gt
        pred_seqs[name] = pred
    return gt_seqs, pred_seqs


def counting(monkeypatch, name: str, key) -> Counter:
    """Patch ``flowtrack.metrics.<name>`` to count its calls by ``key(args)``."""
    calls: Counter = Counter()
    original = getattr(metrics, name)

    def counted(*args, **kwargs):
        calls[key(args)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, name, counted)
    return calls


def frame_state(args) -> tuple:
    """What a frame's match depends on: its ground-truth rows, its kept
    result rows (as the input's objects) and each ground-truth id's
    previous partner."""
    gt, kept, _, prev_pairs = args[:4]
    return (
        tuple(map(id, gt)),
        tuple(map(id, kept)),
        tuple(prev_pairs.get(t.track_id) for t in gt),
    )


class TestRecallSweepMemo:
    def test_match_frame_once_per_frame_state(self, monkeypatch, rng):
        gt, pred = crowded_scored_scenario(rng)
        evaluations = counting(monkeypatch, "evaluate_sequence", lambda args: None)
        matches = counting(monkeypatch, "match_frame", frame_state)
        recall_sweep(gt, pred, EvalConfig(num_recall_steps=10))
        scores = {b.score for frames in pred.values() for rows in frames.values() for b in rows}
        # Every threshold still evaluates both sequences, six frames each ...
        assert evaluations[None] == 2 * len(scores)
        # ... but each frame state is matched once, and most recur.
        assert set(matches.values()) == {1}
        assert sum(matches.values()) < evaluations[None] * 6 / 5

    def test_iou3d_once_per_box_pair(self, monkeypatch, rng):
        gt, pred = crowded_scored_scenario(rng)
        calls = record_kernel_pairs(monkeypatch)
        report = recall_sweep(gt, pred, EvalConfig(num_recall_steps=10))
        assert len({row.threshold for row in report.rows}) > 3
        pairs = {
            (t.box, p.box)
            for name in gt
            for f in gt[name]
            for t in gt[name][f]
            for p in pred[name].get(f, [])
        }
        assert calls and set(calls) <= pairs
        assert set(calls.values()) == {1}

    def test_report_equals_reference_sweep(self, rng):
        gt, pred = crowded_scored_scenario(rng)
        cfg = EvalConfig(num_recall_steps=10)
        report = recall_sweep(gt, pred, cfg)
        assert report.to_dict() == recall_sweep_reference(gt, pred, cfg).to_dict()
        assert report == recall_sweep_reference(gt, pred, cfg)
        assert report.ids > 0 and report.rows[-1].fp > 0

    def test_rows_equal_per_threshold_evaluations(self, rng):
        gt, pred = crowded_scored_scenario(rng)
        report = recall_sweep(gt, pred, EvalConfig(num_recall_steps=10))
        assert len({row.threshold for row in report.rows}) > 3
        for row in report.rows:
            filtered = {
                name: {
                    f: [b for b in boxes if b.score >= row.threshold]
                    for f, boxes in frames.items()
                }
                for name, frames in pred.items()
            }
            counts = evaluate_sequences(gt, filtered, 0.25)
            assert (row.mota, row.motp, row.fp, row.fn, row.ids) == (
                counts.mota, counts.motp, counts.fp, counts.fn, counts.ids
            )

    def test_direct_callers_use_iou3d_by_default(self, monkeypatch, rng):
        gt, pred = crowded_scored_scenario(rng)
        calls = record_kernel_pairs(monkeypatch)
        evaluate_sequence(gt["a"], pred["a"], 0.25)
        assert calls
        before = sum(calls.values())
        evaluate_sequence(gt["a"], pred["a"], 0.25)
        assert sum(calls.values()) == 2 * before

    def test_inputs_checked_before_sweeping(self, rng):
        gt, pred = crowded_scored_scenario(rng)
        with pytest.raises(EvaluationInputError, match="no boxes"):
            recall_sweep({"a": gt["a"], "b": {0: []}}, pred, EvalConfig())
        # A duplicate scored below every other row is still caught.
        first = pred["b"][5][0]
        pred["b"][5].append(TrackedBox(first.track_id, first.box, score=-1.0))
        with pytest.raises(EvaluationInputError, match=f"result row for frame 5, id {first.track_id}"):
            recall_sweep(gt, pred, EvalConfig())


@st.composite
def scored_sequences(draw) -> tuple[dict, dict]:
    """Scored multi-sequence inputs with tied scores, frames without
    results or without ground truth, ground-truth gaps, forced identity
    switches, false positives and a result-only sequence."""
    score = st.sampled_from([0.2, 0.4, 0.5, 0.7, 0.9, 0.95])
    gt_seqs: dict[str, dict] = {}
    pred_seqs: dict[str, dict] = {}
    for name in "abc"[: draw(st.integers(1, 3))]:
        num_frames = draw(st.integers(1, 6))
        gt: dict[int, list[TrackedBox]] = {}
        pred: dict[int, list[TrackedBox]] = {}
        switch_at = draw(st.lists(st.integers(0, 6), min_size=4, max_size=4))
        for f in range(num_frames):
            gt_rows, pred_rows = [], []
            for gid in range(1, 5):
                x = 3.0 * gid + 0.4 * f
                if draw(st.integers(0, 4)):
                    gt_rows.append(tb(gid, x))
                if draw(st.integers(0, 3)):
                    pid = 10 * gid + (f >= switch_at[gid - 1])
                    jitter = draw(st.sampled_from([-1.5, -0.8, 0.0, 0.3, 1.2]))
                    pred_rows.append(tb(pid, x + jitter, y=0.2, score=draw(score)))
            if draw(st.booleans()):
                pred_rows.append(tb(900 + f, 3.0 * draw(st.integers(1, 4)), y=1.5, score=draw(score)))
            # A frame key may be absent on either side.
            if gt_rows or draw(st.booleans()):
                gt[f] = gt_rows
            if pred_rows or draw(st.booleans()):
                pred[f] = pred_rows
        gt_seqs[name], pred_seqs[name] = gt, pred
    if draw(st.booleans()):
        pred_seqs["z"] = {0: [tb(1, 0.0, score=draw(score))]}
    assume(all(any(frames.values()) for frames in gt_seqs.values()))
    return gt_seqs, pred_seqs


class TestRecallSweepMatchesReference:
    """The memoized sweep reports exactly what evaluating every threshold
    anew reports (``tests/oracles.py``)."""

    @settings(max_examples=150, deadline=None)
    @given(
        scored_sequences(),
        st.sampled_from([0.1, 0.25, 0.5, 0.7]),
        st.integers(1, 12),
    )
    def test_random_scored_sequences(self, data, iou_thres, steps):
        gt, pred = data
        cfg = EvalConfig(iou_thres=iou_thres, num_recall_steps=steps)
        report = recall_sweep(gt, pred, cfg)
        reference = recall_sweep_reference(gt, pred, cfg)
        assert report.to_dict() == reference.to_dict()
        assert report.rows == reference.rows
        assert report == reference


class TestReport:
    def test_to_dict_shape(self):
        gt, pred = amota_fixture()
        report = recall_sweep(gt, pred, EvalConfig(num_recall_steps=2))
        data = report.to_dict()
        assert data["sAMOTA"] == 70.0
        assert data["AMOTA"] == 50.0
        assert data["AMOTP"] == 100.0
        assert data["MOTA"] == 0.6
        assert data["IDS"] == 0
        assert len(data["rows"]) == 2
        assert data["rows"][0]["threshold"] == 0.9
        assert data["rows"][0]["sMOTA"] == 0.8

    def test_to_text_table(self):
        gt, pred = amota_fixture()
        report = recall_sweep(gt, pred, EvalConfig(num_recall_steps=2))
        text = report.to_text()
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert "sAMOTA" in lines[1] and "FRAG" in lines[1]
        assert "70.00" in lines[2]
        assert "50.00" in lines[2]
        assert "category=Car" in lines[0]
