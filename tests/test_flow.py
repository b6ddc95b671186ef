"""Flow estimators, rigid motions and the flow file format."""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowtrack.flow import (
    FLOW_MAGIC,
    FileFlowEstimator,
    FlowDataError,
    FlowField,
    NearestNeighborFlowEstimator,
    OracleFlowEstimator,
    RigidMotion,
    estimate_nn,
    load_flow,
    motions_from_boxes,
    read_flow_file,
    save_flow,
    write_flow_file,
)
from flowtrack.geometry import Box3D
from flowtrack.preprocess import PointCloud


def cloud_of(positions, labels=None) -> PointCloud:
    return PointCloud(
        positions=np.asarray(positions, dtype=float),
        labels=None if labels is None else np.asarray(labels, dtype=int),
    )


class TestFlowField:
    def test_length(self):
        field = FlowField(np.zeros((4, 3)), np.zeros((4, 3)))
        assert len(field) == 4

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FlowField(np.zeros((1, 3)), np.array([[0.0, math.nan, 0.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            FlowField(np.zeros((4, 3)), np.zeros((4, 2)))

    def test_rejects_vectors_misaligned_with_sources(self):
        with pytest.raises(FlowDataError, match="flow has 2 vectors for 3 points"):
            FlowField(np.zeros((3, 3)), np.zeros((2, 3)))


class TestRigidMotion:
    def test_from_pose_delta_carries_prev_pose_to_curr(self):
        prev = Box3D(x=1, y=2, z=0, l=4, w=2, h=1.5, theta=0.2)
        curr = Box3D(x=3, y=1, z=0.5, l=4, w=2, h=1.5, theta=0.9)
        motion = RigidMotion.from_pose_delta(prev, curr)
        moved_center = motion.apply(prev.center.reshape(1, 3))[0]
        assert np.max(np.abs(moved_center - curr.center)) <= 1e-12
        # A point one meter along the previous heading must land one meter
        # along the current heading.
        nose_prev = prev.center + np.array(
            [math.cos(prev.theta), math.sin(prev.theta), 0.0]
        )
        nose_curr = curr.center + np.array(
            [math.cos(curr.theta), math.sin(curr.theta), 0.0]
        )
        moved_nose = motion.apply(nose_prev.reshape(1, 3))[0]
        assert np.max(np.abs(moved_nose - nose_curr)) <= 1e-12


def oracle_field(positions, prev_boxes, curr_boxes) -> FlowField:
    """The oracle flow of ``positions`` from frame 0 to frame 1 of the
    given ground-truth boxes."""
    estimator = OracleFlowEstimator({0: prev_boxes, 1: curr_boxes})
    return estimator.estimate(cloud_of(positions), cloud_of([[0, 0, 0]]), 0)


class TestOracleFlow:
    def test_pure_translation(self):
        prev_box = Box3D(x=0.5, y=0.5, z=0.5, l=4, w=4, h=4, theta=0)
        field = oracle_field(
            [[0, 0, 0], [1, 1, 1], [5, 5, 5]], {7: prev_box}, {7: replace(prev_box, x=1.5)}
        )
        assert field.vectors[0].tolist() == [1.0, 0.0, 0.0]
        assert field.vectors[1].tolist() == [1.0, 0.0, 0.0]
        assert field.vectors[2].tolist() == [0.0, 0.0, 0.0]

    def test_unlabeled_points_static(self):
        field = oracle_field([[2, 2, 0]], {}, {})
        assert field.vectors[0].tolist() == [0.0, 0.0, 0.0]

    def test_quarter_turn_about_center(self):
        # Rotating pi/2 about the box center sends center + (1, 0, 0) to
        # center + (0, 1, 0): flow (-1, 1, 0).
        prev_box = Box3D(x=4.0, y=-2.0, z=1.0, l=4, w=2, h=2, theta=0)
        curr_box = replace(prev_box, theta=math.pi / 2)
        field = oracle_field([[5.0, -2.0, 1.0]], {3: prev_box}, {3: curr_box})
        assert field.vectors[0] == pytest.approx([-1.0, 1.0, 0.0], abs=1e-12)

    def test_rigid_exactness_property(self, rng):
        # Every point keeps its coordinates in the frame of its box.
        for _ in range(20):
            prev_box = Box3D(x=0, y=0, z=0, l=30, w=30, h=30, theta=0.0)
            curr_box = Box3D(*rng.uniform(-5, 5, 3), l=30, w=30, h=30,
                             theta=float(rng.uniform(-math.pi, math.pi)))
            positions = rng.uniform(-10, 10, size=(100, 3))
            field = oracle_field(positions, {0: prev_box}, {0: curr_box})
            c, s = math.cos(curr_box.theta), math.sin(curr_box.theta)
            rotation = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
            expected = positions @ rotation.T + curr_box.center
            assert np.max(np.abs(positions + field.vectors - expected)) <= 1e-9

    def test_sources_are_the_cloud_positions(self):
        prev = cloud_of([[0, 0, 0], [10, 10, 10]])
        box = Box3D(x=0, y=0, z=0, l=2, w=2, h=2, theta=0)
        estimator = OracleFlowEstimator({0: {7: box}, 1: {7: replace(box, x=1.0)}})
        field = estimator.estimate(prev, cloud_of([[0, 0, 0]]), 0)
        assert np.shares_memory(field.sources, prev.positions)

    def test_overlapping_boxes_lower_id_claims_shared_point(self):
        # Boxes 2 and 5 overlap on 1 <= x <= 2; given in descending id order.
        box_5 = Box3D(x=2.5, y=0, z=0, l=3, w=2, h=2, theta=0)
        box_2 = Box3D(x=0.0, y=0, z=0, l=4, w=2, h=2, theta=0)
        prev_boxes = {5: box_5, 2: box_2}
        curr_boxes = {5: replace(box_5, y=3.0), 2: replace(box_2, x=1.0)}
        field = oracle_field([[-1.5, 0, 0], [1.5, 0, 0], [3.5, 0, 0]], prev_boxes, curr_boxes)
        assert field.vectors.tolist() == [[1.0, 0, 0], [1.0, 0, 0], [0, 3.0, 0]]


class TestEstimateNn:
    def test_identical_clouds_zero_field(self, rng):
        positions = rng.uniform(-10, 10, size=(100, 3))
        field = estimate_nn(cloud_of(positions), cloud_of(positions))
        assert np.array_equal(field.vectors, np.zeros((100, 3)))

    def test_sparse_translation_recovered(self):
        # Grid spacing 2 m, shift 0.5 m, matching radius 1 m: every point
        # pairs with its own translate.  Checked against an exhaustive
        # pairwise nearest-neighbor search.
        grid = np.array(
            [[2.0 * i, 2.0 * j, 0.0] for i in range(5) for j in range(5)]
        )
        shift = np.array([0.5, 0.0, 0.0])
        field = estimate_nn(cloud_of(grid), cloud_of(grid + shift), 1.0)
        assert np.max(np.abs(field.vectors - shift)) == 0.0

        curr = grid + shift
        for idx, point in enumerate(grid):
            distances = np.linalg.norm(curr - point, axis=1)
            best = curr[np.argmin(distances)]
            assert np.array_equal(field.vectors[idx], best - point)

    def test_isolated_point_gets_zero(self):
        prev = cloud_of([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        curr = cloud_of([[0.2, 0.0, 0.0]])
        field = estimate_nn(prev, curr, max_match_distance=1.0)
        assert field.vectors[0] == pytest.approx([0.2, 0.0, 0.0])
        assert field.vectors[1].tolist() == [0.0, 0.0, 0.0]

    def test_alignment_invariant(self, rng):
        prev = cloud_of(rng.uniform(-5, 5, size=(37, 3)))
        curr = cloud_of(rng.uniform(-5, 5, size=(11, 3)))
        field = estimate_nn(prev, curr)
        assert len(field) == len(prev)
        assert np.shares_memory(field.sources, prev.positions)

    def test_invalid_radius_rejected(self):
        with pytest.raises(ValueError):
            estimate_nn(cloud_of([[0, 0, 0]]), cloud_of([[0, 0, 0]]), 0.0)


class TestFlowFiles:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        sources = rng.uniform(-50, 50, size=(100, 3)).astype(np.float32).astype(float)
        vectors = rng.uniform(-2, 2, size=(100, 3)).astype(np.float32).astype(float)
        path = save_flow(tmp_path, 4, FlowField(sources, vectors))
        assert path.name == "000004.sfl"
        field = read_flow_file(path)
        assert np.array_equal(field.sources, sources)
        assert np.array_equal(field.vectors, vectors)

    def test_well_formed_count_three(self, tmp_path):
        sources = np.arange(9, dtype=float).reshape(3, 3)
        vectors = np.ones((3, 3))
        write_flow_file(tmp_path / "f.sfl", FlowField(sources, vectors))
        field = read_flow_file(tmp_path / "f.sfl")
        assert len(field) == 3

    def test_truncated_payload_rejected(self, tmp_path):
        file_path = tmp_path / "f.sfl"
        write_flow_file(file_path, FlowField(np.zeros((3, 3)), np.zeros((3, 3))))
        data = file_path.read_bytes()
        file_path.write_bytes(data[:-4])
        with pytest.raises(FlowDataError, match="declared 3"):
            read_flow_file(file_path)

    def test_bad_magic_rejected(self, tmp_path):
        file_path = tmp_path / "f.sfl"
        file_path.write_bytes(b"XXXX" + struct.pack("<I", 0))
        with pytest.raises(FlowDataError, match="magic"):
            read_flow_file(file_path)

    def test_non_finite_payload_rejected(self, tmp_path):
        file_path = tmp_path / "f.sfl"
        payload = np.full((1, 6), np.nan, dtype="<f4")
        file_path.write_bytes(FLOW_MAGIC + struct.pack("<I", 1) + payload.tobytes())
        with pytest.raises(FlowDataError, match="finite"):
            read_flow_file(file_path)

    def test_signalling_nan_rejected_without_a_warning(self, tmp_path):
        file_path = tmp_path / "f.sfl"
        payload = b"\x00" * 20 + b"\x01\x00\x80\x7f"
        file_path.write_bytes(FLOW_MAGIC + struct.pack("<I", 1) + payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FlowDataError, match="finite"):
                read_flow_file(file_path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from([FLOW_MAGIC, b"", b"SFL", b"XXXX"]),
        st.one_of(st.integers(0, 2**32 - 1).map(lambda c: struct.pack("<I", c)), st.binary(max_size=5)),
        st.lists(st.floats(width=32), max_size=18),
        st.binary(max_size=5),
    )
    def test_fuzzed_file_raises_only_flow_data_error(self, tmp_path, magic, count, values, tail):
        file_path = tmp_path / "f.sfl"
        file_path.write_bytes(magic + count + np.array(values, dtype="<f4").tobytes() + tail)
        try:
            field = read_flow_file(file_path)
        except FlowDataError:
            return
        assert len(field.sources) == len(field) and np.isfinite(field.sources).all()

    def test_missing_file_names_frame(self, tmp_path):
        with pytest.raises(FlowDataError, match="frame 7"):
            load_flow(tmp_path, 7, np.zeros((3, 3)))

    def test_source_count_mismatch_names_frame(self, tmp_path):
        save_flow(tmp_path, 2, FlowField(np.zeros((3, 3)), np.zeros((3, 3))))
        with pytest.raises(FlowDataError, match="frame 2"):
            load_flow(tmp_path, 2, sources=np.zeros((4, 3)))

    def test_source_deviation_rejected(self, tmp_path):
        sources = np.zeros((3, 3))
        save_flow(tmp_path, 0, FlowField(sources, np.zeros((3, 3))))
        off = sources.copy()
        off[1, 0] += 5e-4
        with pytest.raises(FlowDataError, match="deviate"):
            load_flow(tmp_path, 0, sources=off)
        # Within tolerance passes.
        near = sources.copy()
        near[1, 0] += 5e-5
        assert len(load_flow(tmp_path, 0, sources=near)) == 3

    def test_loaded_field_moves_the_cloud_not_the_file_copy(self, tmp_path, rng):
        # The file stores single-precision sources; the loaded field holds
        # the cloud's own double-precision positions.
        sources = rng.uniform(-50, 50, size=(10, 3))
        save_flow(tmp_path, 1, FlowField(sources, np.zeros((10, 3))))
        assert not np.array_equal(read_flow_file(tmp_path / "000001.sfl").sources, sources)
        assert np.array_equal(load_flow(tmp_path, 1, sources).sources, sources)


class TestEstimatorClasses:
    def test_oracle_estimator_from_boxes(self):
        prev_box = Box3D(x=0, y=0, z=0, l=4, w=2, h=2, theta=0)
        curr_box = Box3D(x=1, y=0, z=0, l=4, w=2, h=2, theta=0)
        boxes = {0: {5: prev_box}, 1: {5: curr_box}}
        estimator = OracleFlowEstimator(boxes)
        prev = cloud_of([[0.5, 0.3, 0.2], [30.0, 0.0, 0.0]])
        field = estimator.estimate(prev, cloud_of([[0, 0, 0]]), 0)
        assert field.vectors[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert field.vectors[1].tolist() == [0.0, 0.0, 0.0]

    def test_oracle_estimator_departed_instance_static(self):
        prev_box = Box3D(x=0, y=0, z=0, l=4, w=2, h=2, theta=0)
        boxes = {0: {5: prev_box}, 1: {}}
        estimator = OracleFlowEstimator(boxes)
        prev = cloud_of([[0.0, 0.0, 0.0]])
        field = estimator.estimate(prev, cloud_of([[0, 0, 0]]), 0)
        assert field.vectors[0].tolist() == [0.0, 0.0, 0.0]

    def test_nn_estimator_wraps_function(self, rng):
        positions = rng.uniform(-5, 5, size=(30, 3))
        estimator = NearestNeighborFlowEstimator(max_match_distance=1.0)
        field = estimator.estimate(cloud_of(positions), cloud_of(positions), 0)
        assert np.array_equal(field.vectors, np.zeros((30, 3)))

    def test_file_estimator_round_trip(self, tmp_path, rng):
        positions = rng.uniform(-5, 5, size=(20, 3)).astype(np.float32).astype(float)
        vectors = rng.uniform(-1, 1, size=(20, 3)).astype(np.float32).astype(float)
        save_flow(tmp_path, 3, FlowField(positions, vectors))
        estimator = FileFlowEstimator(tmp_path)
        field = estimator.estimate(cloud_of(positions), cloud_of(positions), 3)
        assert np.array_equal(field.vectors, vectors)


class TestMotionsFromBoxes:
    def test_only_common_ids(self):
        a = Box3D(x=0, y=0, z=0, l=1, w=1, h=1, theta=0)
        b = Box3D(x=1, y=0, z=0, l=1, w=1, h=1, theta=0)
        motions = motions_from_boxes({1: a, 2: a}, {1: b, 3: b})
        assert set(motions) == {1}
        assert motions[1].translation == pytest.approx([1.0, 0.0, 0.0])
