"""Oriented-box geometry: normalization, corners, IoU, containment."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nearby_box, random_box
from flowtrack.geometry import (
    Box3D,
    corners_bev,
    iou3d,
    iou_matrix,
    points_in_box,
    wrap_angle,
)
from oracles import (
    aligned_iou3d,
    mc_iou3d,
    points_in_box_reference,
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


class TestCornersBev:
    @staticmethod
    def _corner_set(box):
        return {(round(x, 9), round(y, 9)) for x, y in corners_bev(box)}

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
            corners = corners_bev(random_box(rng))
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
    """The plain double loop the shared builder must reproduce bit for bit."""
    matrix = np.zeros((len(rows), len(cols)))
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            if categories is None or categories[0][i] == categories[1][j]:
                matrix[i, j] = iou3d(a, b)
    return matrix


def recording_iou(calls: list):
    def iou(a: Box3D, b: Box3D) -> float:
        calls.append((a, b))
        return iou3d(a, b)

    return iou


def corner_to_corner(gap: float) -> tuple[Box3D, Box3D]:
    """Two 3 x 4 boxes (circumradius exactly 2.5) turned so that a corner of
    each points at the other along the x axis, centers ``5 - gap`` apart."""
    diagonal = math.atan2(4.0, 3.0)
    a = Box3D(x=0.0, y=0.0, z=0.0, l=3.0, w=4.0, h=1.0, theta=-diagonal)
    b = Box3D(x=5.0 - gap, y=0.0, z=0.0, l=3.0, w=4.0, h=1.0, theta=math.pi - diagonal)
    return a, b


class TestIouMatrix:
    def assert_matches_loop(self, rows, cols, categories=None):
        calls: list = []
        built = iou_matrix(rows, cols, recording_iou(calls), categories)
        expected = loop_iou_matrix(rows, cols, categories)
        assert built.shape == expected.shape
        assert built.tobytes() == expected.tobytes()
        # The bulk reject never drops a pair with positive IoU.
        called = {(id(a), id(b)) for a, b in calls}
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                if expected[i, j] > 0.0:
                    assert (id(a), id(b)) in called
        return calls

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
        calls = self.assert_matches_loop(rows, cols, categories)
        assert len(calls) == 3
        assert iou_matrix(rows, cols, categories=categories).tolist() == [
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
        ]

    def test_centers_exactly_circumradii_apart(self):
        a, b = corner_to_corner(0.0)
        diagonal = Box3D(x=3.0, y=4.0, z=0.0, l=3.0, w=4.0, h=1.0, theta=0.0)
        assert math.hypot(b.x - a.x, b.y - a.y) == 5.0
        calls = self.assert_matches_loop([a], [b, diagonal])
        # Both pairs sit exactly on iou3d's own cut, so iou3d decides them.
        assert len(calls) == 2

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
