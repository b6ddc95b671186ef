"""Flow aggregation, prediction, association and tracklet lifecycle."""

from __future__ import annotations

import copy
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flowtrack.flow import FlowField, OracleFlowEstimator
from flowtrack.geometry import ATTRIBUTION_MARGIN, Box3D, points_in_box, wrap_angle
from flowtrack.preprocess import PointCloud
from flowtrack.tracker import (
    Detection,
    SettingsError,
    Tracker,
    TrackerConfig,
    Tracklet,
    associate,
    build_similarity,
    compute_offset,
    predict,
)
from oracles import hungarian_reference, iou3d_reference


def box_at(x: float, y: float = 0.0, theta: float = 0.0, l: float = 4.0) -> Box3D:
    return Box3D(x=x, y=y, z=1.0, l=l, w=2.0, h=2.0, theta=theta)


def det_at(x: float, y: float = 0.0, confidence: float = 1.0, category: str = "Car") -> Detection:
    return Detection(box=box_at(x, y), confidence=confidence, category=category)


def tracklet_at(x: float, y: float = 0.0, theta: float = 0.0, track_id: int = 0) -> Tracklet:
    return Tracklet(track_id=track_id, box=box_at(x, y, theta), confidence=1.0, category="Car")


def step_with_flow(tracker, detections, flow):
    """One step with ``flow`` and the membership ``run_tracking`` passes with it."""
    return tracker.step(detections, flow, tracker.membership(flow.sources))


def offset_of(tracklet, flow):
    """:func:`compute_offset` over the flow's sources inside the tracklet's box."""
    inside = points_in_box(tracklet.box, flow.sources, margin=ATTRIBUTION_MARGIN)
    return compute_offset(flow, inside)


class TestConfig:
    def test_defaults(self):
        cfg = TrackerConfig()
        assert (cfg.iou_min, cfg.max_mis, cfg.min_det) == (0.01, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(iou_min=1.5)
        with pytest.raises(ValueError, match=re.escape("iou_min must be in (0, 1], got 0.0")):
            TrackerConfig(iou_min=0.0)
        with pytest.raises(ValueError):
            TrackerConfig(max_mis=-1)
        with pytest.raises(ValueError):
            TrackerConfig(min_det=0)

    def test_config_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# tracker settings\n"
            "iou_min = 0.1\n"
            "max_mis = 4\n"
            "min_det = 2\n"
        )
        assert TrackerConfig.from_file(path) == TrackerConfig(iou_min=0.1, max_mis=4, min_det=2)

    def test_config_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("iou_max = 0.1\n")
        with pytest.raises(ValueError, match="iou_max"):
            TrackerConfig.from_file(path)

    @pytest.mark.parametrize("line", ["flow_source = nn", "category = Pedestrian"])
    def test_config_holds_no_flag_setting(self, tmp_path, line):
        path = tmp_path / "cfg.txt"
        path.write_text(f"min_det = 2\n{line}\n")
        key = line.split()[0]
        with pytest.raises(SettingsError, match=re.escape(f"{path}:2: unknown key '{key}'")):
            TrackerConfig.from_file(path)

    def test_config_file_values_are_range_checked(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("min_det = 2\niou_min = 7\n")
        with pytest.raises(SettingsError, match=re.escape(f"{path}:2: iou_min: ")):
            TrackerConfig.from_file(path)

    @pytest.mark.parametrize("line, message", [
        ("max_mis = two", "max_mis: expected an integer, got 'two'"),
        ("iou_min =", "iou_min: expected a number, got ''"),
        ("iou_min", "expected 'key = value'"),
    ])
    def test_config_malformed_value_names_line_and_key(self, tmp_path, line, message):
        path = tmp_path / "cfg.txt"
        path.write_text(f"# header\n\n{line}\n")
        with pytest.raises(SettingsError, match=re.escape(f"{path}:3: {message}")):
            TrackerConfig.from_file(path)

    def test_readme_configuration_block_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1]
        block = section.split("```", 2)[1]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert TrackerConfig.from_file(path) == TrackerConfig(iou_min=0.01, max_mis=2, min_det=3)


class TestComputeOffset:
    def test_mean_of_constant_flow(self):
        tracklet = tracklet_at(0.0)
        points = [[dx, 0.0, 1.0] for dx in (-1.5, -0.5, 0.0, 0.5, 1.5)]
        flow = FlowField(points, [[1.0, 0.0, 0.0]] * 5)
        mean, count = offset_of(tracklet, flow)
        assert count == 5
        assert mean.tolist() == [1.0, 0.0, 0.0]

    def test_two_point_mean(self):
        tracklet = tracklet_at(0.0)
        flow = FlowField([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]], [[1.0, 0, 0], [3.0, 0, 0]])
        mean, count = offset_of(tracklet, flow)
        assert count == 2
        assert mean[0] == 2.0

    def test_only_in_box_points_aggregated(self):
        tracklet = tracklet_at(0.0)
        flow = FlowField([[0.0, 0.0, 1.0], [50.0, 0.0, 1.0]], [[1.0, 0, 0], [9.0, 0, 0]])
        mean, count = offset_of(tracklet, flow)
        assert count == 1
        assert mean[0] == 1.0

    def test_flow_starved_signals_zero_count(self):
        tracklet = tracklet_at(0.0)
        flow = FlowField([[50.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
        assert offset_of(tracklet, flow) == (None, 0)


class TestPredict:
    def test_zero_translation_identity(self):
        tracklet = tracklet_at(2.0, theta=0.4)
        predicted = predict(tracklet, (0.0, 0.0, 0.0))
        assert predicted == tracklet.box

    def test_direct_addition(self):
        tracklet = tracklet_at(0.0, theta=0.1)
        tracklet.prev_box = box_at(-5.0)
        predicted = predict(tracklet, np.array([1.0, 2.0, 0.0]))
        assert (predicted.x, predicted.y, predicted.z) == (1.0, 2.0, 1.0)
        assert all(type(v) is float for v in (predicted.x, predicted.y, predicted.z))
        assert predicted.theta == pytest.approx(0.2)
        assert (predicted.l, predicted.w, predicted.h) == (4.0, 2.0, 2.0)

    def test_yaw_history_increment(self):
        tracklet = tracklet_at(0.0, theta=0.3)
        tracklet.prev_box = box_at(-1.0, theta=0.1)
        predicted = predict(tracklet, (0.0, 0.0, 0.0))
        assert predicted.theta == pytest.approx(0.5, abs=1e-12)

    def test_no_history_zero_dtheta(self):
        tracklet = tracklet_at(0.0, theta=0.7)
        predicted = predict(tracklet, (1.0, 0.0, 0.0))
        assert (predicted.x, predicted.theta) == (1.0, 0.7)

    def test_no_history_turns_negative_zero_yaw_to_zero(self):
        # A translation without history adds a 0.0 yaw increment, so a yaw
        # of -0.0 comes out as 0.0; without either the box is returned as is.
        tracklet = tracklet_at(0.0, theta=-0.0)
        assert math.copysign(1.0, predict(tracklet, (0.0, 0.0, 0.0)).theta) == 1.0
        assert math.copysign(1.0, predict(tracklet).theta) == -1.0

    def test_yaw_wraps(self):
        tracklet = tracklet_at(0.0, theta=3.1)
        tracklet.prev_box = box_at(0.0, theta=3.0)
        predicted = predict(tracklet, (0.0, 0.0, 0.0))
        assert predicted.theta == pytest.approx(3.2 - 2.0 * math.pi, abs=1e-12)
        assert predicted.theta == pytest.approx(-math.pi + 0.0584073, abs=1e-6)


class TestPredictConstantVelocity:
    """:func:`predict` without a translation moves by the last displacement."""

    def test_no_history_identity(self):
        tracklet = tracklet_at(5.0)
        assert predict(tracklet) is tracklet.box

    def test_linear_extrapolation(self):
        tracklet = tracklet_at(1.0)
        tracklet.prev_box = box_at(0.0)
        predicted = predict(tracklet)
        assert (predicted.x, predicted.y) == (2.0, 0.0)

    def test_decimation_doubles_bootstrap_error(self):
        # Constant speed v: a fresh tracklet predicts standstill, so the
        # first prediction misses by v at full rate and by 2v at half rate.
        v = 1.5
        full = tracklet_at(0.0)
        miss_full = abs(predict(full).x - v)
        half = tracklet_at(0.0)
        miss_half = abs(predict(half).x - 2 * v)
        assert miss_half == pytest.approx(2.0 * miss_full)

    def test_angular_increment_carried(self):
        tracklet = tracklet_at(1.0, theta=0.3)
        tracklet.prev_box = box_at(0.0, theta=0.1)
        predicted = predict(tracklet)
        assert predicted.theta == pytest.approx(0.5, abs=1e-12)


class TestBuildSimilarity:
    def test_empty_tracklets(self):
        matrix = build_similarity([], [det_at(0.0), det_at(5.0)])
        assert matrix.shape == (0, 2)

    def test_perfect_overlap(self):
        detection = det_at(0.0)
        matrix = build_similarity([detection.box], [detection])
        assert matrix.tolist() == [[1.0]]

    def test_elementwise_matches_iou(self, rng):
        predicted = [box_at(float(rng.uniform(-5, 5))) for _ in range(3)]
        detections = [det_at(float(rng.uniform(-5, 5))) for _ in range(4)]
        matrix = build_similarity(predicted, detections)
        for i, p in enumerate(predicted):
            for j, d in enumerate(detections):
                assert matrix[i, j] == iou3d_reference(p, d.box)

    def test_cross_category_zeroed(self):
        detection = det_at(0.0, category="Pedestrian")
        matrix = build_similarity([detection.box], [detection], categories=["Car"])
        assert matrix.tolist() == [[0.0]]


class TestAssociate:
    def test_gate_demotes_weak_pairs(self):
        result = associate(np.array([[0.005]]), iou_min=0.01)
        assert result.matches == []
        assert result.unmatched_rows == [0]
        assert result.unmatched_cols == [0]

    def test_partition_complete(self, rng):
        similarity = rng.uniform(0, 1, size=(3, 5))
        result = associate(similarity, iou_min=0.3)
        rows = {i for i, _ in result.matches} | set(result.unmatched_rows)
        cols = {j for _, j in result.matches} | set(result.unmatched_cols)
        assert rows == set(range(3))
        assert cols == set(range(5))
        for i, j in result.matches:
            assert similarity[i, j] >= 0.3

    def test_exact_zero_ties_change_matches_only_at_iou_min_zero(self):
        # The dense scan of the whole matrix gave row 1 the zero pair; the
        # component split pairs the rows without a positive cell with the
        # free columns in index order.  Zero pairs pass only iou_min 0.
        similarity = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
        assert [tuple(map(int, p)) for p in hungarian_reference(similarity)] == [(1, 1), (2, 0)]
        assert associate(similarity, iou_min=0.0).matches == [(0, 1), (2, 0)]
        assert associate(similarity, iou_min=0.01).matches == [(2, 0)]

    def test_equal_similarities_resolve_within_their_component(self):
        # Row 1 overlaps both detections equally.  Its component is solved
        # apart from row 0, so it takes the lower column; the dense scan of
        # the whole matrix had given column 0 to row 0 first.
        similarity = np.array([[0.0, 0.0], [0.5, 0.5]])
        assert [tuple(map(int, p)) for p in hungarian_reference(similarity)] == [(0, 0), (1, 1)]
        assert associate(similarity, iou_min=0.25).matches == [(1, 0)]


def run_frames(tracker: Tracker, frames: list[list[Detection]]):
    """Step through detection lists without flow (constant-velocity path)."""
    emitted = []
    for detections in frames:
        emitted.append(tracker.step(detections))
    return emitted


class TestTrackerLifecycle:
    def test_warmup_emission_then_confirmation(self):
        tracker = Tracker()
        frames = [[det_at(0.0)], [det_at(0.5)], [det_at(1.0)], [det_at(1.5)]]
        emitted = run_frames(tracker, frames)
        assert all(len(e) == 1 for e in emitted)
        assert len({e[0].track_id for e in emitted}) == 1

    def test_tracklet_born_in_last_warmup_frame_reported_until_confirmed(self):
        tracker = Tracker()
        steady, late = det_at(0.0), det_at(40.0)
        frames = [[steady], [steady], [steady, late], [steady, late], [steady, late], [steady]]
        emitted = run_frames(tracker, frames)
        late_id = max(t.track_id for t in emitted[2])
        # Born in frame 2, the warm-up's last, confirmed in frame 4: reported
        # in every frame it lives, not hidden in frame 3 in between.
        assert [late_id in {t.track_id for t in e} for e in emitted] == [
            False, False, True, True, True, True
        ]
        # Born in frame 3, after the warm-up: reported once confirmed.
        emitted = run_frames(Tracker(), [[steady]] * 3 + [[steady, late]] * 3)
        assert [len(e) for e in emitted] == [1, 1, 1, 1, 1, 2]

    def test_short_lived_detection_after_warmup_never_emitted(self):
        tracker = Tracker()
        steady = [det_at(0.0)]
        frames = [steady] * 4 + [steady + [det_at(40.0)], steady + [det_at(40.0)]] + [steady] * 3
        emitted = run_frames(tracker, frames)
        steady_id = emitted[0][0].track_id
        for frame_tracks in emitted:
            assert {t.track_id for t in frame_tracks} == {steady_id}

    def test_two_consecutive_frames_only_not_confirmed(self):
        # min_det = 3: two consecutive matches are one short of confirmation.
        tracker = Tracker()
        frames = [[det_at(0.0)]] * 6 + [
            [det_at(0.0), det_at(40.0)],
            [det_at(0.0), det_at(40.0)],
            [det_at(0.0),],
            [det_at(0.0)],
        ]
        emitted = run_frames(tracker, frames)
        ids = {t.track_id for frame in emitted for t in frame}
        assert len(ids) == 1

    def test_three_consecutive_matches_confirm(self):
        tracker = Tracker()
        steady = [det_at(0.0)]
        extra = det_at(40.0)
        frames = [steady] * 5 + [steady + [extra]] * 3 + [steady] * 2
        emitted = run_frames(tracker, frames)
        ids_late = {t.track_id for t in emitted[7]}
        assert len(ids_late) == 2

    def test_gap_within_max_mis_preserves_id(self):
        tracker = Tracker()
        moving = [[det_at(0.0)], [det_at(1.0)], [det_at(2.0)], [det_at(3.0)]]
        gap = [[], []]
        back = [[det_at(6.0)], [det_at(7.0)]]
        emitted = run_frames(tracker, moving + gap + back)
        first_id = emitted[0][0].track_id
        assert emitted[6][0].track_id == first_id
        assert emitted[7][0].track_id == first_id

    def test_coasting_emits_predicted_boxes(self):
        tracker = Tracker()
        emitted = run_frames(
            tracker, [[det_at(0.0)], [det_at(1.0)], [det_at(2.0)], [], []]
        )
        assert emitted[3][0].box.x == pytest.approx(3.0)
        assert emitted[4][0].box.x == pytest.approx(4.0)

    def test_gap_beyond_max_mis_terminates(self):
        tracker = Tracker()
        moving = [[det_at(0.0)], [det_at(1.0)], [det_at(2.0)], [det_at(3.0)]]
        gap = [[], [], []]
        back = [[det_at(7.0)], [det_at(8.0)]]
        emitted = run_frames(tracker, moving + gap + back)
        first_id = emitted[0][0].track_id
        assert emitted[6] == []
        later_ids = {t.track_id for frame in emitted[7:] for t in frame}
        assert first_id not in later_ids

    def test_provisional_dies_on_first_miss(self):
        tracker = Tracker()
        frames = [
            [det_at(0.0)],
            [det_at(0.0)],
            [det_at(0.0)],
            [det_at(0.0)],
            [det_at(0.0), det_at(40.0)],
            [det_at(0.0)],
            [det_at(0.0), det_at(40.0)],
            [det_at(0.0), det_at(40.0)],
            [det_at(0.0), det_at(40.0)],
            [det_at(0.0)],
        ]
        emitted = run_frames(tracker, frames)
        # The single appearance at frame 4 must not survive the miss at
        # frame 5: had it survived, frames 6-7 would complete confirmation
        # one frame early.  Confirmation lands at frame 8 instead.
        assert len({t.track_id for t in emitted[7]}) == 1
        assert len({t.track_id for t in emitted[8]}) == 2
        # Once confirmed, the miss at frame 9 merely starts coasting.
        assert len({t.track_id for t in emitted[9]}) == 2

    def test_id_propagation_bit_exact(self):
        tracker = Tracker()
        detection = det_at(0.37, y=-1.23)
        tracker.step([det_at(0.0)])
        emitted = tracker.step([detection])
        assert emitted[0].box is detection.box
        assert emitted[0].confidence == detection.confidence

    def test_ids_unique_per_frame_and_never_recycled(self):
        tracker = Tracker()
        rng = np.random.default_rng(3)
        seen_ids: set[int] = set()
        alive_prev: set[int] = set()
        for _ in range(30):
            detections = [
                det_at(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)))
                for _ in range(int(rng.integers(0, 4)))
            ]
            emitted = tracker.step(detections)
            ids = [t.track_id for t in emitted]
            assert len(ids) == len(set(ids))
            new_ids = set(ids) - alive_prev
            assert not (new_ids & seen_ids) or new_ids <= alive_prev
            seen_ids |= set(ids)
            alive_prev = {t.track_id for t in tracker.tracklets}

    def test_deterministic(self):
        frames = [
            [det_at(0.0), det_at(10.0)],
            [det_at(0.6), det_at(10.5)],
            [],
            [det_at(1.8), det_at(11.5)],
        ]
        a = run_frames(Tracker(), frames)
        b = run_frames(Tracker(), frames)
        assert [
            [(t.track_id, t.box, t.confidence) for t in frame] for frame in a
        ] == [[(t.track_id, t.box, t.confidence) for t in frame] for frame in b]

    def test_frame_without_flow_advances_by_last_displacement(self):
        # Frames 0-2 move the car by 1 m each, and frame 2 comes with flow.
        # Frame 3 has no detection: with flow it coasts by the flow, without
        # flow by the last displacement.
        tracker = Tracker()
        tracker.step([det_at(0.0)])
        tracker.step([det_at(1.0)])
        step_with_flow(tracker, [det_at(2.0)], FlowField([[1.0, 0.0, 1.0]], [[0.5, 0.0, 0.0]]))
        with_flow = copy.deepcopy(tracker)
        flow = FlowField([[2.0, 0.0, 1.0]], [[0.5, 0.0, 0.0]])
        assert step_with_flow(with_flow, [], flow)[0].box.x == pytest.approx(2.5)
        assert tracker.step([])[0].box.x == pytest.approx(3.0)
        assert tracker.step([])[0].box.x == pytest.approx(4.0)

    def test_constant_velocity_trace_with_oracle_flow(self):
        # A constant-velocity object followed for 10 frames under exact
        # flow keeps one identity with zero switches.
        speed = 2.0
        boxes = {f: {1: box_at(speed * f)} for f in range(10)}
        estimator = OracleFlowEstimator(boxes)
        tracker = Tracker()
        ids = set()
        prev = None
        for frame in range(10):
            box = boxes[frame][1]
            cloud = PointCloud(
                positions=np.array(
                    [[box.x + dx, box.y, box.z] for dx in (-1.0, 0.0, 1.0)]
                )
            )
            detections = [Detection(box=box, confidence=1.0, category="Car")]
            if prev is None:
                emitted = tracker.step(detections)
            else:
                flow = estimator.estimate(prev, cloud, frame - 1, np.arange(len(prev)))
                emitted = step_with_flow(tracker, detections, flow)
            assert len(emitted) == 1
            ids.add(emitted[0].track_id)
            prev = cloud
        assert len(ids) == 1

    def test_flow_starved_tracklet_falls_back_to_constant_velocity(self):
        # The sampled cloud never covers the object, so every frame is
        # flow-starved and prediction must come from the displacement
        # history instead.
        tracker = Tracker()
        starved = FlowField([[200.0, 0.0, 1.0]], np.zeros((1, 3)))
        tracker.step([det_at(0.0)])
        step_with_flow(tracker, [det_at(1.0)], starved)
        step_with_flow(tracker, [det_at(2.0)], starved)
        emitted = step_with_flow(tracker, [], starved)
        assert emitted[0].box.x == pytest.approx(3.0)

    def test_cross_category_never_associates(self):
        tracker = Tracker()
        tracker.step([det_at(0.0, category="Car")])
        car_id = tracker.tracklets[0].track_id
        tracker.step([det_at(0.0, category="Pedestrian")])
        # A perfectly overlapping detection of another category starts a
        # new tracklet; the unmatched provisional car dies on the miss.
        assert [t.category for t in tracker.tracklets] == ["Pedestrian"]
        assert tracker.tracklets[0].track_id != car_id
