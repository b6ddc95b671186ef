"""Oriented-box geometry: normalization, corners, IoU, containment."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowtrack.geometry as geometry
import oracles
from conftest import nearby_box, random_box, record_kernel_pairs
from flowtrack.geometry import (
    CLIP_TOL,
    Box3D,
    footprints,
    iou3d,
    iou_matrices,
    iou_matrix,
    points_in_box,
    points_in_boxes,
    wrap_angle,
)
from oracles import (
    aligned_iou3d,
    corners_reference,
    iou3d_reference,
    mc_iou3d,
    polygon_area_reference,
    points_in_box_reference,
    points_in_boxes_reference,
    wrap_reference,
)


class TestWrapAngle:
    def test_fixed_points(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == pytest.approx(math.pi, abs=1e-15)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi, abs=1e-15)
        assert wrap_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)
        assert wrap_angle(3.2) == pytest.approx(3.2 - 2.0 * math.pi, abs=1e-12)

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_matches_loop_reference(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi
        assert wrapped == pytest.approx(wrap_reference(angle), abs=1e-9)

    @given(st.floats(min_value=-math.pi + 1e-9, max_value=math.pi, allow_nan=False))
    def test_identity_inside_range(self, angle):
        assert wrap_angle(angle) == pytest.approx(angle, abs=1e-12)


class TestBox3D:
    def test_rejects_nonpositive_dims(self):
        for bad in ({"l": 0.0}, {"w": -1.0}, {"h": 0.0}):
            kwargs = dict(x=0, y=0, z=0, l=2, w=2, h=2, theta=0)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                Box3D(**kwargs)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box3D(x=math.nan, y=0, z=0, l=1, w=1, h=1, theta=0)
        with pytest.raises(ValueError):
            Box3D(x=0, y=0, z=0, l=1, w=1, h=1, theta=math.inf)

    def test_theta_normalized_on_construction(self):
        box = Box3D(x=0, y=0, z=0, l=1, w=1, h=1, theta=3.2)
        assert box.theta == pytest.approx(wrap_reference(3.2), abs=1e-12)
        assert -math.pi < box.theta <= math.pi

    def test_volume_and_center(self):
        box = Box3D(x=1, y=2, z=3, l=4, w=2, h=1.5, theta=0.3)
        assert box.volume == pytest.approx(12.0)
        assert np.allclose(box.center, [1, 2, 3])


class TestFootprints:
    @staticmethod
    def _corner_set(box):
        return {(round(x, 9), round(y, 9)) for x, y in footprints([box])[0]}

    def test_axis_aligned_unit_case(self):
        box = Box3D(x=0, y=0, z=0, l=2, w=2, h=1, theta=0)
        assert self._corner_set(box) == {(1, 1), (-1, 1), (-1, -1), (1, -1)}

    def test_square_rotation_symmetry(self):
        box = Box3D(x=0, y=0, z=0, l=2, w=2, h=1, theta=math.pi / 2)
        assert self._corner_set(box) == {(1, 1), (-1, 1), (-1, -1), (1, -1)}

    def test_translated_case(self):
        box = Box3D(x=1, y=0, z=0, l=4, w=2, h=1, theta=0)
        assert self._corner_set(box) == {(3, 1), (-1, 1), (-1, -1), (3, -1)}

    def test_counter_clockwise_order(self, rng):
        for _ in range(50):
            corners = footprints([random_box(rng)])[0]
            area = 0.0
            for i in range(4):
                x1, y1 = corners[i]
                x2, y2 = corners[(i + 1) % 4]
                area += x1 * y2 - x2 * y1
            assert area > 0.0


class TestIou3d:
    def test_identity_exact(self, rng):
        for _ in range(100):
            box = random_box(rng)
            assert iou3d(box, box) == 1.0

    def test_far_apart_exact_zero(self):
        a = Box3D(x=0, y=0, z=0, l=4, w=2, h=1.5, theta=0.3)
        b = Box3D(x=100, y=0, z=0, l=4, w=2, h=1.5, theta=-0.8)
        assert iou3d(a, b) == 0.0

    def test_vertical_disjoint_exact_zero(self):
        a = Box3D(x=0, y=0, z=0, l=4, w=2, h=1, theta=0)
        b = Box3D(x=0, y=0, z=5, l=4, w=2, h=1, theta=0)
        assert iou3d(a, b) == 0.0

    def test_axis_aligned_overlap_case(self):
        a = Box3D(x=0, y=0, z=0, l=4, w=2, h=1.5, theta=0)
        b = Box3D(x=2, y=0, z=0, l=4, w=2, h=1.5, theta=0)
        expected = aligned_iou3d(a, b)
        assert expected == pytest.approx(6.0 / 18.0, abs=1e-12)
        assert iou3d(a, b) == pytest.approx(expected, abs=1e-12)

    def test_matches_closed_form_when_axis_aligned(self, rng):
        for _ in range(200):
            a = random_box(rng)
            a = Box3D(a.x, a.y, a.z, a.l, a.w, a.h, 0.0)
            b = nearby_box(rng, a)
            b = Box3D(b.x, b.y, b.z, b.l, b.w, b.h, 0.0)
            assert iou3d(a, b) == pytest.approx(aligned_iou3d(a, b), abs=1e-9)

    def test_symmetry_exact(self, rng):
        for _ in range(300):
            a = random_box(rng)
            b = nearby_box(rng, a)
            assert iou3d(a, b) == iou3d(b, a)

    def test_range(self, rng):
        for _ in range(300):
            a = random_box(rng)
            b = nearby_box(rng, a)
            assert 0.0 <= iou3d(a, b) <= 1.0

    def test_rigid_invariance(self, rng):
        for _ in range(100):
            a = random_box(rng)
            b = nearby_box(rng, a)
            phi = float(rng.uniform(-math.pi, math.pi))
            tx, ty = rng.uniform(-20, 20, size=2)
            cos_p, sin_p = math.cos(phi), math.sin(phi)

            def moved(box):
                return Box3D(
                    x=cos_p * box.x - sin_p * box.y + tx,
                    y=sin_p * box.x + cos_p * box.y + ty,
                    z=box.z,
                    l=box.l,
                    w=box.w,
                    h=box.h,
                    theta=wrap_angle(box.theta + phi),
                )

            assert iou3d(moved(a), moved(b)) == pytest.approx(
                iou3d(a, b), abs=1e-9
            )

    def test_square_half_turn_same_footprint(self, rng):
        for _ in range(50):
            base = random_box(rng)
            square = Box3D(base.x, base.y, base.z, base.l, base.l, base.h, base.theta)
            flipped = Box3D(
                base.x,
                base.y,
                base.z,
                base.l,
                base.l,
                base.h,
                wrap_angle(base.theta + math.pi),
            )
            third = nearby_box(rng, base)
            assert iou3d(square, third) == pytest.approx(
                iou3d(flipped, third), abs=1e-12
            )

    def test_shared_edge_contributes_zero(self):
        a = Box3D(x=0, y=0, z=0, l=2, w=2, h=1, theta=0)
        b = Box3D(x=2, y=0, z=0, l=2, w=2, h=1, theta=0)
        assert iou3d(a, b) == 0.0

    def test_monte_carlo_agreement_sample(self, rng):
        # Smaller cousin of the acceptance run: 20 pairs at 2e5 samples.
        for _ in range(20):
            a = random_box(rng)
            b = nearby_box(rng, a)
            estimate = mc_iou3d(a, b, num_samples=200_000, seed=int(rng.integers(1 << 31)))
            assert iou3d(a, b) == pytest.approx(estimate, abs=0.02)


def loop_iou_matrix(rows, cols, categories=None) -> np.ndarray:
    """The plain double loop over the scalar referee that the shared builder
    must reproduce bit for bit."""
    matrix = np.zeros((len(rows), len(cols)))
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            if categories is None or categories[0][i] == categories[1][j]:
                matrix[i, j] = iou3d_reference(a, b)
    return matrix


def corner_to_corner(gap: float) -> tuple[Box3D, Box3D]:
    """Two 3 x 4 boxes (circumradius exactly 2.5) turned so that a corner of
    each points at the other along the x axis, centers ``5 - gap`` apart."""
    diagonal = math.atan2(4.0, 3.0)
    a = Box3D(x=0.0, y=0.0, z=0.0, l=3.0, w=4.0, h=1.0, theta=-diagonal)
    b = Box3D(x=5.0 - gap, y=0.0, z=0.0, l=3.0, w=4.0, h=1.0, theta=math.pi - diagonal)
    return a, b


class TestIouMatrix:
    @pytest.fixture(autouse=True)
    def kernel_pairs(self, monkeypatch):
        self.pairs = record_kernel_pairs(monkeypatch)

    def assert_matches_loop(self, rows, cols, categories=None):
        self.pairs.clear()
        built = iou_matrix(rows, cols, categories)
        expected = loop_iou_matrix(rows, cols, categories)
        assert built.shape == expected.shape
        assert built.tobytes() == expected.tobytes()
        # The bulk reject never drops a pair with positive IoU.
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                if expected[i, j] > 0.0:
                    assert (a, b) in self.pairs
        return sum(self.pairs.values())

    def test_empty_sides(self, rng):
        boxes = [random_box(rng) for _ in range(3)]
        assert iou_matrix([], boxes).shape == (0, 3)
        assert iou_matrix(boxes, []).shape == (3, 0)
        assert iou_matrix([], [], categories=([], [])).shape == (0, 0)

    def test_category_mismatch_zero_and_not_computed(self):
        box = Box3D(x=0, y=0, z=0, l=4, w=2, h=1.5, theta=0.3)
        rows = [box, box]
        cols = [box, box, box]
        categories = (["Car", "Pedestrian"], ["Car", "Pedestrian", "Car"])
        assert self.assert_matches_loop(rows, cols, categories) == 3
        assert iou_matrix(rows, cols, categories=categories).tolist() == [
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
        ]

    def test_centers_exactly_circumradii_apart(self):
        a, b = corner_to_corner(0.0)
        diagonal = Box3D(x=3.0, y=4.0, z=0.0, l=3.0, w=4.0, h=1.0, theta=0.0)
        assert math.hypot(b.x - a.x, b.y - a.y) == 5.0
        # Both pairs sit exactly on the kernel's own cut, so the kernel decides them.
        assert self.assert_matches_loop([a], [b, diagonal]) == 2

    @given(st.floats(min_value=0.0, max_value=1e-3))
    def test_near_the_circumradius_cut(self, gap):
        a, b = corner_to_corner(gap)
        self.assert_matches_loop([a], [b])

    def test_vertically_stacked_boxes(self):
        low = Box3D(x=0, y=0, z=0.0, l=4, w=2, h=2, theta=0.1)
        high = Box3D(x=0.5, y=0, z=2.0, l=4, w=2, h=2, theta=0.4)
        overlapping = Box3D(x=0, y=0.2, z=1.5, l=4, w=2, h=2, theta=0.0)
        self.assert_matches_loop([low, high], [high, low, overlapping])

    def test_random_boxes(self, rng):
        for _ in range(30):
            rows = [random_box(rng) for _ in range(int(rng.integers(1, 12)))]
            cols = [nearby_box(rng, rows[int(rng.integers(len(rows)))]) for _ in range(8)]
            cols += [random_box(rng) for _ in range(int(rng.integers(0, 5)))]
            self.assert_matches_loop(rows, cols)


KERNEL = settings(max_examples=60, deadline=None)

boxes = st.builds(
    Box3D,
    x=st.floats(-15.0, 15.0),
    y=st.floats(-15.0, 15.0),
    z=st.floats(-2.0, 2.0),
    l=st.floats(0.5, 5.0),
    w=st.floats(0.5, 5.0),
    h=st.floats(0.5, 5.0),
    theta=st.floats(-math.pi, math.pi),
)


def assert_kernel_matches_referee(a_boxes, b_boxes):
    """The diagonal of ``iou_matrix(a_boxes, b_boxes)``, each cell the
    referee's bits; the whole matrix transposes exactly with its inputs."""
    matrix = iou_matrix(a_boxes, b_boxes)
    got = np.diagonal(matrix)
    want = np.array([iou3d_reference(a, b) for a, b in zip(a_boxes, b_boxes)], dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # The canonical pair order makes the kernel exactly symmetric too.
    assert iou_matrix(b_boxes, a_boxes).tobytes() == np.ascontiguousarray(matrix.T).tobytes()
    return got


class TestIouKernel:
    """The batched kernel, through ``iou_matrix``, against the
    one-pair-at-a-time referee, bit for bit."""

    @KERNEL
    @given(st.integers(0, 2**32 - 1))
    def test_random_and_nearby_pairs(self, seed):
        rng = np.random.default_rng(seed)
        a_boxes = [random_box(rng) for _ in range(40)]
        b_boxes = [nearby_box(rng, a) if i % 4 else random_box(rng) for i, a in enumerate(a_boxes)]
        ious = assert_kernel_matches_referee(a_boxes, b_boxes)
        assert np.count_nonzero(ious) > 0

    @KERNEL
    @given(st.lists(st.tuples(boxes, boxes), min_size=1, max_size=12))
    def test_drawn_pairs(self, pairs):
        assert_kernel_matches_referee([a for a, _ in pairs], [b for _, b in pairs])

    @KERNEL
    @given(boxes, st.floats(0.05, 0.95), st.floats(-math.pi, math.pi))
    def test_identical_and_nested(self, outer, scale, turn):
        # The inner box's circumcircle fits inside the outer footprint.
        radius = scale * min(outer.l, outer.w) / 2.0
        inner = Box3D(
            outer.x, outer.y, outer.z, radius * math.sqrt(2.0), radius * math.sqrt(2.0),
            outer.h * scale, outer.theta + turn,
        )
        ious = assert_kernel_matches_referee([outer, outer, inner], [outer, inner, inner])
        assert ious[0] == 1.0 and ious[2] == 1.0
        assert ious[1] == pytest.approx(inner.volume / outer.volume, rel=1e-9)

    def test_empty_inputs(self):
        assert assert_kernel_matches_referee([], []).shape == (0,)
        assert iou_matrices([]) == []

    @KERNEL
    @given(st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3), st.floats(-1e-12, 1e-12)))
    def test_corner_to_corner_at_the_circumradius_cut(self, gap):
        a, b = corner_to_corner(gap)
        ious = assert_kernel_matches_referee([a, b], [b, a])
        if gap <= 0.0:
            assert ious.tolist() == [0.0, 0.0]

    @KERNEL
    @given(st.floats(-5e-11, 5e-11), st.floats(0.1, 3.9), st.floats(-1e-9, 1e-9))
    def test_near_parallel_edges(self, turn, shift, lateral):
        # Long edges of the two boxes lie within CLIP_TOL of parallel and of
        # one line, so the clip skips crossings of nearly parallel edges.
        a = Box3D(x=0.0, y=0.0, z=0.0, l=4.0, w=2.0, h=1.0, theta=0.0)
        b = Box3D(x=shift, y=2.0 + lateral, z=0.0, l=4.0, w=2.0, h=1.0, theta=turn)
        c = Box3D(x=shift, y=lateral, z=0.2, l=4.0, w=2.0, h=1.0, theta=turn)
        assert abs(turn) * 4.0 * 4.0 < CLIP_TOL
        assert_kernel_matches_referee([a, a], [b, c])

    def test_near_parallel_edges_reach_the_skip(self, rng, monkeypatch):
        a = Box3D(x=0.0, y=0.0, z=0.0, l=4.0, w=2.0, h=1.0, theta=0.0)
        others = [
            Box3D(x=float(rng.uniform(0.1, 3.9)), y=2.0 + float(rng.uniform(-1e-9, 1e-9)),
                  z=0.0, l=4.0, w=2.0, h=1.0, theta=float(rng.uniform(-5e-11, 5e-11)))
            for _ in range(300)
        ]
        skipping = assert_kernel_matches_referee([a] * len(others), others)
        # Without the tolerance the referee clips some of these pairs
        # differently, so the skip was taken.
        monkeypatch.setattr(oracles, "CLIP_TOL", 0.0)
        without = [oracles.iou3d_reference(a, b) for b in others]
        assert skipping.tolist() != without

    @KERNEL
    @given(boxes)
    def test_touching_footprints_and_zero_vertical_overlap(self, box):
        c, s = math.cos(box.theta), math.sin(box.theta)
        beside = box.translated(box.l * c, box.l * s, 0.0)
        above = box.translated(0.0, 0.0, box.h)
        assert_kernel_matches_referee([box, box], [beside, above])
        # Dyadic sizes make the shared face exact: both give exactly 0.0.
        low = Box3D(x=0.5, y=-1.25, z=0.25, l=4.0, w=2.0, h=1.5, theta=0.0)
        ious = assert_kernel_matches_referee(
            [low, low], [low.translated(4.0, 0.0, 0.0), low.translated(0.5, 0.0, 1.5)]
        )
        assert ious.tolist() == [0.0, 0.0]

    def test_iou3d_is_the_one_cell_case(self, rng):
        for _ in range(50):
            a = random_box(rng)
            b = nearby_box(rng, a)
            assert iou3d(a, b) == iou3d_reference(a, b) == iou_matrix([a], [b])[0, 0]

    @KERNEL
    @given(st.integers(0, 2**32 - 1))
    def test_matrices_share_one_kernel_call(self, seed):
        rng = np.random.default_rng(seed)
        problems = []
        for _ in range(int(rng.integers(0, 5))):
            rows = [random_box(rng, center_range=4.0) for _ in range(int(rng.integers(0, 5)))]
            cols = [random_box(rng, center_range=4.0) for _ in range(int(rng.integers(0, 5)))]
            problems.append((rows, cols, None))
        calls = []
        kernel = geometry._field_ious
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_field_ious", lambda a, b: calls.append(len(a)) or kernel(a, b))
            matrices = iou_matrices(problems)
        assert len(calls) == 1
        assert len(matrices) == len(problems)
        for (rows, cols, _), matrix in zip(problems, matrices):
            assert matrix.tobytes() == loop_iou_matrix(rows, cols).tobytes()
            assert matrix.shape == (len(rows), len(cols))


class TestExplicitArithmeticOrder:
    """Corners and areas are spelled out elementwise and summed in vertex
    order, so the scalar and batched routes agree bit for bit.  Against the
    matrix-product and ``np.dot`` formulation they replaced, whose BLAS
    summation order is unspecified, they agree to rounding only."""

    def test_corners_bit_identical_across_routes(self, rng):
        sample = [random_box(rng) for _ in range(200)]
        batch = footprints(sample)
        for box, corners in zip(sample, batch):
            assert footprints([box])[0].tobytes() == corners_reference(box).tobytes()
            assert corners.tobytes() == corners_reference(box).tobytes()
        assert footprints([]).shape == (0, 4, 2)

    @KERNEL
    @given(st.integers(0, 2**32 - 1))
    def test_close_to_the_blas_formulation(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            a = random_box(rng)
            b = nearby_box(rng, a)
            assert np.allclose(corners_reference(a), corners_reference(a, blas=True), rtol=0, atol=1e-12)
            assert iou3d_reference(a, b) == pytest.approx(
                iou3d_reference(a, b, blas=True), rel=0, abs=1e-12
            )


def shoelace_rows(rows: list[np.ndarray], width: int) -> tuple[np.ndarray, ...]:
    """Polygons of shape (n, 2) as the kernel's zero-padded ``xs``, ``ys``
    and ``count``."""
    xs, ys = np.zeros((len(rows), width)), np.zeros((len(rows), width))
    for row, polygon in enumerate(rows):
        xs[row, :len(polygon)], ys[row, :len(polygon)] = polygon[:, 0], polygon[:, 1]
    return xs, ys, np.array([len(polygon) for polygon in rows], dtype=int)


class TestKernelParts:
    """The shoelace sums and the canonical pair order, bit for bit against
    one-at-a-time loops."""

    def assert_shoelace_matches_loop(self, polygons, width):
        areas = geometry._shoelace(*shoelace_rows(polygons, width))
        want = np.array([polygon_area_reference(p) for p in polygons], dtype=float)
        assert areas.tobytes() == want.tobytes()
        return areas

    @KERNEL
    @given(st.integers(0, 2**32 - 1))
    def test_shoelace_matches_the_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        polygons = []
        for _ in range(30):
            n = int(rng.integers(3, 9))
            angles = np.sort(rng.uniform(-math.pi, math.pi, n))
            radius = rng.uniform(0.1, 5.0, n)
            center = rng.uniform(-1e3, 1e3, 2)
            polygons.append(np.stack([radius * np.cos(angles), radius * np.sin(angles)], 1) + center)
        # Rows padded to the widest and beyond.
        self.assert_shoelace_matches_loop(polygons, 8)
        self.assert_shoelace_matches_loop(polygons, 11)

    def test_shoelace_degenerate_rows(self):
        polygons = [
            # Collinear: both sums cancel.
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
            np.array([[1.5, -2.0], [1.5, 0.5], [1.5, 7.0]]),
            # First term x_0 * y_1 is -0.0.
            np.array([[0.0, 1.0], [1.0, -2.0], [3.0, 0.5]]),
            np.array([[0.0, -1.0], [0.0, -2.0], [-0.0, -3.0], [0.0, -4.0]]),
            # Fewer than three vertices: no area.
            np.array([[0.0, 0.0], [1.0, 0.0]]),
            np.empty((0, 2)),
        ]
        areas = self.assert_shoelace_matches_loop(polygons, 4)
        assert areas.tolist() == [0.0, 0.0, areas[2], 0.0, 0.0, 0.0]
        assert areas[2] > 0.0
        # Every zero is +0.0.
        assert not np.signbit(areas).any()

    def test_vanishing_volumes_score_zero(self):
        # Footprints of 1e-240 m2 whose volumes underflow to 0.0: no union to
        # divide by, so 0.0 and no warning, where a NaN came out before.
        tiny = Box3D(x=0.0, y=0.0, z=0.0, l=1e-120, w=1e-120, h=1e-120, theta=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert iou_matrix([tiny], [tiny, tiny.translated(0.0, 0.0, 5e-121)]).tolist() == [
                [0.0, 0.0]
            ]

    @KERNEL
    @given(boxes, st.floats(-math.pi, math.pi), st.floats(0.5, 5.0))
    def test_field_ious_both_orders_on_tied_leading_fields(self, box, theta, h):
        others = [box, replace(box, theta=theta), replace(box, h=h)]
        a, b = geometry._box_fields([box] * len(others)), geometry._box_fields(others)
        forward, backward = geometry._field_ious(a, b), geometry._field_ious(b, a)
        assert forward.tobytes() == backward.tobytes()
        want = np.array([iou3d_reference(box, other) for other in others], dtype=float)
        assert forward.tobytes() == want.tobytes()
        assert forward[0] == 1.0

class TestPointsInBox:
    def test_center_included(self, rng):
        for _ in range(20):
            box = random_box(rng)
            inside = points_in_box(box, np.array([[box.x, box.y, box.z]]))
            assert inside.tolist() == [0]

    def test_distant_point_excluded(self, rng):
        for _ in range(20):
            box = random_box(rng)
            diag = math.sqrt(box.l**2 + box.w**2 + box.h**2)
            point = np.array([[box.x + 2 * diag, box.y, box.z]])
            assert points_in_box(box, point).size == 0

    def test_rotated_point_along_heading(self):
        box = Box3D(x=0, y=0, z=0, l=4, w=2, h=2, theta=math.pi / 4)
        distance = 0.9 * box.l / 2.0
        point = np.array(
            [
                [
                    distance * math.cos(box.theta),
                    distance * math.sin(box.theta),
                    0.0,
                ]
            ]
        )
        assert points_in_box(box, point).tolist() == [0]
        assert points_in_box_reference(box, point).tolist() == [0]

    def test_boundary_inclusive(self):
        box = Box3D(x=0, y=0, z=0, l=4, w=2, h=2, theta=0)
        faces = np.array(
            [
                [2.0, 0.0, 0.0],
                [-2.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, -1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0],
                [2.0, 1.0, 1.0],
            ]
        )
        assert points_in_box(box, faces).tolist() == list(range(len(faces)))

    def test_margin_expands_every_face(self):
        box = Box3D(x=0, y=0, z=0, l=4, w=2, h=2, theta=0)
        just_outside = np.array(
            [
                [2.05, 0.0, 0.0],
                [0.0, 1.05, 0.0],
                [0.0, 0.0, 1.05],
            ]
        )
        assert points_in_box(box, just_outside).size == 0
        assert points_in_box(box, just_outside, margin=0.1).tolist() == [0, 1, 2]

    def test_agrees_with_rotation_oracle(self, rng):
        # 10^4 pairs: points drawn around each box so membership is uncertain.
        for _ in range(100):
            box = random_box(rng)
            radius = math.hypot(box.l, box.w)
            points = np.column_stack(
                [
                    rng.uniform(box.x - radius, box.x + radius, size=100),
                    rng.uniform(box.y - radius, box.y + radius, size=100),
                    rng.uniform(box.z - box.h, box.z + box.h, size=100),
                ]
            )
            got = points_in_box(box, points)
            want = points_in_box_reference(box, points)
            assert got.tolist() == want.tolist()

    def test_indices_ascending(self, rng):
        box = random_box(rng)
        points = rng.uniform(-10, 10, size=(500, 3))
        indices = points_in_box(box, points)
        assert np.all(np.diff(indices) > 0) or indices.size <= 1

    def test_bad_shape_rejected(self):
        box = Box3D(x=0, y=0, z=0, l=1, w=1, h=1, theta=0)
        with pytest.raises(ValueError):
            points_in_box(box, np.zeros((3, 2)))


def scattered_boxes_and_points(rng, scale: float, size: float, count: int):
    """``count`` boxes of about ``size`` within ``scale`` of the origin, and
    points scattered over the same area plus points on and just off each
    box's footprint edges and faces."""
    boxes = [
        Box3D(
            x=rng.uniform(-scale, scale), y=rng.uniform(-scale, scale), z=rng.uniform(-2, 2),
            l=size * rng.uniform(0.1, 3.0), w=size * rng.uniform(0.1, 3.0),
            h=rng.uniform(0.1, 3.0), theta=rng.uniform(-4.0, 4.0),
        )
        for _ in range(count)
    ]
    points = rng.uniform(-scale, scale, size=(int(rng.integers(0, 2000)), 3))
    points[:, 2] = rng.uniform(-3.0, 3.0, size=len(points))
    near = []
    for box in boxes:
        corners = footprints([box])[0]
        for i in range(4):
            for t in (0.0, 0.5, 1.0):
                x, y = corners[i] + t * (corners[(i + 1) % 4] - corners[i])
                near.append([x, y, box.z + rng.choice([-1.0, 0.0, 1.0]) * box.h / 2.0])
                jitter = rng.normal(size=2) * size * 1e-7
                near.append([x + jitter[0], y + jitter[1], box.z])
    return boxes, np.vstack([points, np.reshape(near, (-1, 3))])


class TestPointsInBoxes:
    """The batched kernel tests only the points in each box's x-window; its
    indices must be those of the per-box loop over every point."""

    @pytest.mark.parametrize("margin", [0.0, 1e-6, 0.1])
    def test_equals_per_box_loop(self, rng, margin):
        for _ in range(60):
            scale = 10.0 ** rng.uniform(-3, 6)
            # Car-sized boxes, boxes at the scale of the scene, and boxes
            # so small that their corners round together.
            size = rng.choice([1.0, scale, 10.0 ** rng.uniform(-14, -6)])
            boxes, points = scattered_boxes_and_points(
                rng, scale, size, int(rng.integers(0, 25))
            )
            got = points_in_boxes(boxes, points, margin)
            want = points_in_boxes_reference(boxes, points, margin)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tolist() == w.tolist()

    def test_box_with_collapsed_corners(self):
        # Far from the origin a tiny box's corners round to one point, every
        # edge has length zero, and the loop's edge tests hold for every
        # point: the kernel must not confine such a box to its x-window.
        box = Box3D(x=1e5, y=1e5, z=0.0, l=1e-14, w=1e-14, h=1.0, theta=0.3)
        assert np.unique(footprints([box])[0], axis=0).shape == (1, 2)
        points = np.array(
            [[0.0, 0.0, 0.0], [1e5, 1e5, 0.0], [1e5 + 1.0, 3.0, 0.2], [0.0, 0.0, 5.0]]
        )
        assert points_in_boxes([box], points)[0].tolist() == [0, 1, 2]
        assert points_in_boxes_reference([box], points)[0].tolist() == [0, 1, 2]

    def test_chunks_give_the_same_indices(self, rng, monkeypatch):
        boxes, points = scattered_boxes_and_points(rng, 20.0, 4.0, 30)
        whole = points_in_boxes(boxes, points, 1e-6)
        monkeypatch.setattr(geometry, "MEMBERSHIP_CELLS", 7)
        chunked = points_in_boxes(boxes, points, 1e-6)
        assert [c.tolist() for c in chunked] == [w.tolist() for w in whole]
        assert any(len(w) for w in whole)

    def test_one_box_case(self, rng):
        boxes, points = scattered_boxes_and_points(rng, 20.0, 4.0, 5)
        for box, inside in zip(boxes, points_in_boxes(boxes, points)):
            assert points_in_box(box, points).tolist() == inside.tolist()

    def test_empty_inputs(self):
        box = Box3D(x=0, y=0, z=0, l=1, w=1, h=1, theta=0)
        assert points_in_boxes([], np.zeros((4, 3))) == []
        [inside] = points_in_boxes([box], np.zeros((0, 3)))
        assert inside.size == 0 and inside.dtype == np.intp
