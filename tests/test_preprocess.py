"""Cloud container, calibration, frustum filter, ground fit, sampling."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtrack.preprocess import (
    FOV_MARGIN_DEG,
    GROUND,
    UNLABELED,
    Calibration,
    CalibrationError,
    GroundFit,
    PointCloud,
    filter_fov,
    _inlier_bounds,
    fit_ground,
    sample_points,
)
from oracles import fit_ground_reference


def make_cloud(positions, labels=None, features=None) -> PointCloud:
    return PointCloud(
        positions=np.asarray(positions, dtype=float),
        features=None if features is None else np.asarray(features, dtype=float),
        labels=None if labels is None else np.asarray(labels, dtype=int),
    )


class TestPointCloud:
    def test_defaults_unlabeled(self):
        cloud = make_cloud([[1, 2, 3], [4, 5, 6]])
        assert len(cloud) == 2
        assert cloud.labels.tolist() == [UNLABELED, UNLABELED]

    def test_rejects_misaligned_labels(self):
        with pytest.raises(ValueError):
            make_cloud([[0, 0, 0]], labels=[0, 1])

    def test_rejects_misaligned_features(self):
        with pytest.raises(ValueError):
            make_cloud([[0, 0, 0]], features=[[1.0], [2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_cloud([[0, 0, math.nan]])

    def test_take_preserves_alignment(self):
        cloud = make_cloud(
            [[0, 0, 0], [1, 1, 1], [2, 2, 2]],
            labels=[5, 6, 7],
            features=[[0.1], [0.2], [0.3]],
        )
        sub = cloud.take(np.array([0, 2]))
        assert sub.positions.tolist() == [[0, 0, 0], [2, 2, 2]]
        assert sub.labels.tolist() == [5, 7]
        assert sub.features.tolist() == [[0.1], [0.3]]


class TestCalibration:
    def test_nominal_projects_forward_axis_to_center(self):
        calib = Calibration.nominal()
        uv, depth = calib.project_to_image(np.array([[10.0, 0.0, 0.0]]))
        assert depth[0] == pytest.approx(10.0)
        assert uv[0].tolist() == pytest.approx([600.0, 200.0])

    def test_round_trip_identity(self, rng):
        calib = Calibration.nominal()
        points = rng.uniform(-20, 20, size=(200, 3))
        back = calib.camera_to_lidar(calib.lidar_to_camera(points))
        assert np.max(np.abs(back - points)) <= 1e-9

    def test_behind_camera_uv_is_nan(self):
        calib = Calibration.nominal()
        uv, depth = calib.project_to_image(np.array([[-5.0, 0.0, 0.0]]))
        assert depth[0] == pytest.approx(-5.0)
        assert np.isnan(uv[0]).all()

    def test_degenerate_calibration_rejected(self):
        calib = Calibration.nominal()
        for fx, fy in ((0.0, 0.0), (0.0, 600.0), (600.0, 0.0)):
            projection = calib.projection.copy()
            projection[0, 0], projection[1, 1] = fx, fy
            with pytest.raises(CalibrationError, match="degenerate projection"):
                Calibration(projection=projection, rect=calib.rect, velo_to_cam=calib.velo_to_cam)
        with pytest.raises(CalibrationError, match="degenerate projection"):
            Calibration.nominal(focal=0.0)

    def test_singular_transform_rejected(self):
        calib = Calibration.nominal()
        for scale in (0.0, 1e-5):
            with pytest.raises(CalibrationError, match="not invertible"):
                Calibration(projection=calib.projection, rect=calib.rect,
                            velo_to_cam=calib.velo_to_cam * scale)

    @pytest.mark.parametrize("name", ["projection", "rect", "velo_to_cam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, name, value):
        calib = Calibration.nominal()
        fields = {"projection": calib.projection, "rect": calib.rect,
                  "velo_to_cam": calib.velo_to_cam}
        fields[name] = fields[name].copy()
        fields[name][1, 3] = value
        with pytest.raises(CalibrationError, match="must be finite"):
            Calibration(**fields)

    def test_overflowing_composition_rejected(self):
        calib = Calibration.nominal()
        rect = calib.rect.copy()
        rect[2, 0] = 1e300
        with pytest.raises(CalibrationError, match="must be finite"):
            Calibration(projection=calib.projection, rect=rect,
                        velo_to_cam=calib.velo_to_cam * 1e10)


NOMINAL = Calibration.nominal()


def azimuth_point(azimuth_deg: float, depth: float = 10.0) -> list[float]:
    a = math.radians(azimuth_deg)
    return [depth * math.cos(a), depth * math.sin(a), 0.0]


class TestFilterFov:
    def test_center_point_kept(self):
        cloud = make_cloud([[10.0, 0.0, 0.0]])
        kept = filter_fov(cloud, NOMINAL)
        assert len(kept) == 1

    def test_behind_camera_removed(self):
        cloud = make_cloud([[-10.0, 0.0, 0.0], [-1e-3, 0.0, 0.0], [0.0, 5.0, 0.0]])
        assert len(filter_fov(cloud, NOMINAL)) == 0

    def test_margin_keeps_points_up_to_ten_degrees_outside(self):
        # Nominal horizontal half field of view is 45 degrees: azimuth 50
        # sits 5 degrees outside the left edge, azimuth 56 one degree past
        # the margin.
        assert FOV_MARGIN_DEG == 10.0
        for azimuth, kept in [(50.0, 1), (54.99, 1), (55.01, 0), (56.0, 0)]:
            for sign in (1.0, -1.0):
                assert len(filter_fov(make_cloud([azimuth_point(sign * azimuth)]), NOMINAL)) == kept

    def test_image_spans_twice_the_principal_point(self):
        # A KITTI-like camera: the principal point is off the image center
        # of its 1242 x 375 image, and the crop is symmetric about it.
        projection = [[721.54, 0.0, 609.56, 0.0], [0.0, 721.54, 172.85, 0.0], [0.0, 0.0, 1.0, 0.0]]
        calib = Calibration(projection, NOMINAL.rect, NOMINAL.velo_to_cam)
        half_az = math.degrees(math.atan2(609.56, 721.54)) + FOV_MARGIN_DEG
        half_el = math.degrees(math.atan2(172.85, 721.54)) + FOV_MARGIN_DEG
        for azimuth, kept in [(half_az - 0.01, 1), (half_az + 0.01, 0)]:
            for sign in (1.0, -1.0):
                assert len(filter_fov(make_cloud([azimuth_point(sign * azimuth)]), calib)) == kept
        for elevation, kept in [(half_el - 0.01, 1), (half_el + 0.01, 0)]:
            for sign in (1.0, -1.0):
                e = math.radians(sign * elevation)
                point = [10.0 * math.cos(e), 0.0, 10.0 * math.sin(e)]
                assert len(filter_fov(make_cloud([point]), calib)) == kept

    def test_idempotent(self, rng):
        cloud = make_cloud(rng.uniform(-30, 30, size=(500, 3)))
        once = filter_fov(cloud, NOMINAL)
        twice = filter_fov(once, NOMINAL)
        assert np.array_equal(once.positions, twice.positions)

    def test_labels_follow_points(self):
        cloud = make_cloud(
            [[10, 0, 0], [-10, 0, 0], [12, 1, 0]],
            labels=[3, 4, 5],
            features=[[0.5], [0.6], [0.7]],
        )
        kept = filter_fov(cloud, NOMINAL)
        assert kept.labels.tolist() == [3, 5]
        assert kept.features.tolist() == [[0.5], [0.7]]


class TestFitGround:
    def test_synthetic_plane_with_objects(self, rng):
        plane = np.column_stack(
            [
                rng.uniform(-20, 20, size=5000),
                rng.uniform(-20, 20, size=5000),
                rng.normal(0.0, 0.01, size=5000),
            ]
        )
        objects = np.column_stack(
            [
                rng.uniform(-20, 20, size=500),
                rng.uniform(-20, 20, size=500),
                rng.uniform(0.5, 2.0, size=500),
            ]
        )
        cloud = make_cloud(np.vstack([plane, objects]))
        labeled, fit = fit_ground(cloud, inlier_threshold=0.05, seed=3)
        assert fit.found
        plane_labels = labeled.labels[:5000]
        object_labels = labeled.labels[5000:]
        assert np.count_nonzero(plane_labels == GROUND) >= 0.99 * 5000
        assert np.count_nonzero(object_labels == GROUND) == 0

    def test_plane_under_standing_boxes_is_the_ground(self, rng):
        # LiDAR-like scene: noisy flat ground (sigma 2 cm) and box-shaped
        # cars standing on it, seen on their sides and roofs.  The sides
        # reach down into the inlier band, so a raw three-point hypothesis
        # tilts or lifts toward them; the least-squares refit over the
        # hypothesis' inliers sits on the ground.
        ground_z = -1.73
        ground = np.column_stack(
            [
                rng.uniform(0.0, 40.0, size=10000),
                rng.uniform(-20.0, 20.0, size=10000),
                rng.normal(ground_z, 0.02, size=10000),
            ]
        )
        l, w, h, n = 4.0, 1.8, 1.5, 300
        cars = []
        for _ in range(10):
            cx, cy = rng.uniform(5.0, 35.0), rng.uniform(-15.0, 15.0)
            face = rng.integers(0, 5, size=n)
            u = rng.uniform(-0.5, 0.5, size=(n, 2))
            x = np.select([face == 0, face == 1], [l / 2, -l / 2], u[:, 0] * l)
            y = np.select([face == 2, face == 3], [w / 2, -w / 2], u[:, 1] * w)
            z = np.where(face == 4, h, rng.uniform(0.0, h, size=n))
            cars.append(np.column_stack([cx + x, cy + y, ground_z + z]))
        _, fit = fit_ground(make_cloud(np.vstack([ground, *cars])), seed=7)
        assert fit.found
        a, b, c, d = fit.plane
        corners = np.array([[0.0, -20.0], [0.0, 20.0], [40.0, -20.0], [40.0, 20.0]])
        fitted_z = -(d + a * corners[:, 0] + b * corners[:, 1]) / c
        assert np.abs(fitted_z - ground_z).max() < 0.01

    def test_three_coplanar_points(self):
        cloud = make_cloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        labeled, fit = fit_ground(cloud, min_inlier_fraction=1.0)
        assert fit.found
        assert labeled.labels.tolist() == [GROUND, GROUND, GROUND]

    def test_uniform_cube_finds_no_ground(self, rng):
        cloud = make_cloud(rng.uniform(0, 10, size=(2000, 3)))
        labeled, fit = fit_ground(cloud, min_inlier_fraction=0.6, seed=1)
        assert not fit.found
        assert np.array_equal(labeled.labels, cloud.labels)
        assert np.array_equal(labeled.positions, cloud.positions)

    def test_plane_without_inliers_is_not_found(self):
        # A zero-width band may leave even the hypothesis' own three points
        # outside it; with no inlier there is nothing to refit.
        cloud = make_cloud(np.random.default_rng(1).uniform(-1, 1, size=(11, 3)))
        labeled, fit = fit_ground(
            cloud, inlier_threshold=0.0, iterations=1, min_inlier_fraction=0.0, seed=0
        )
        assert fit == GroundFit(found=False, hypotheses=1)
        assert labeled is cloud

    def test_instance_labels_never_relabeled(self, rng):
        positions = np.column_stack(
            [
                rng.uniform(-10, 10, size=1000),
                rng.uniform(-10, 10, size=1000),
                np.zeros(1000),
            ]
        )
        labels = np.full(1000, UNLABELED)
        labels[:100] = 7
        cloud = make_cloud(positions, labels=labels)
        labeled, fit = fit_ground(cloud)
        assert fit.found
        assert np.all(labeled.labels[:100] == 7)
        assert np.all(labeled.labels[100:] == GROUND)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_ground(make_cloud([[0, 0, 0], [1, 1, 1]]))

    def test_deterministic_for_seed(self, rng):
        cloud = make_cloud(rng.uniform(-10, 10, size=(300, 3)))
        a, _ = fit_ground(cloud, seed=5)
        b, _ = fit_ground(cloud, seed=5)
        assert np.array_equal(a.labels, b.labels)


# Hypothesis counts around the batch size of the ground fit's inlier counting.
ITERATIONS = st.sampled_from([0, 1, 7, 8, 9, 23])


@st.composite
def random_clouds(draw):
    """Uniform or plane-plus-clutter clouds; optionally half duplicates, so
    that some triples are degenerate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 400))
    positions = rng.uniform(-20.0, 20.0, size=(n, 3))
    if draw(st.booleans()):
        positions[: n // 2, 2] = rng.normal(-1.7, draw(st.sampled_from([0.0, 0.02, 0.2])), n // 2)
    if draw(st.booleans()):
        positions[n // 2 :] = positions[rng.integers(0, max(n // 2, 1), n - n // 2)]
    labels = rng.choice([UNLABELED, GROUND, 3], size=n, p=[0.8, 0.1, 0.1])
    return make_cloud(positions, labels=labels)


@st.composite
def lattice_clouds(draw):
    """Points of a small integer lattice scaled by a power of two, with the
    inlier threshold a whole number of lattice steps: many points lie
    exactly on the edge of a hypothesis' inlier band."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([0.125, 0.25, 1.0]))
    extent = draw(st.integers(1, 4))
    n = draw(st.integers(3, 300))
    positions = rng.integers(-extent, extent + 1, size=(n, 3)) * step
    return make_cloud(positions), step * draw(st.integers(1, 2))


@st.composite
def degenerate_clouds(draw):
    """Clouds on which every triple is degenerate: one repeated point, or
    collinear points at whole multiples of an integer direction."""
    n = draw(st.integers(3, 50))
    if draw(st.booleans()):
        return make_cloud(np.tile([1.5, -2.0, 0.25], (n, 1)))
    direction = np.array(draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3)))
    steps = np.array(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
    return make_cloud(steps[:, None] * direction + np.array([4.0, 0.0, -1.0]))


def assert_same_fit(cloud, **kwargs):
    labeled, fit = fit_ground(cloud, **kwargs)
    expected_cloud, expected_fit = fit_ground_reference(cloud, **kwargs)
    assert fit == expected_fit
    assert np.array_equal(labeled.labels, expected_cloud.labels)
    assert np.array_equal(labeled.positions, cloud.positions)
    return fit


class TestFitGroundMatchesReference:
    """The batched hypothesis scoring gives the same fit, bit for bit, as
    scoring one hypothesis at a time (``tests/oracles.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(
        random_clouds(),
        ITERATIONS,
        st.sampled_from([0.01, 0.05, 0.15, 2.0]),
        st.sampled_from([0.0, 0.25, 0.6]),
        st.integers(0, 1000),
    )
    def test_random_clouds(self, cloud, iterations, threshold, fraction, seed):
        assert_same_fit(
            cloud, inlier_threshold=threshold, iterations=iterations,
            min_inlier_fraction=fraction, seed=seed,
        )

    @settings(max_examples=300, deadline=None)
    @given(lattice_clouds(), ITERATIONS, st.sampled_from([0.0, 0.25]), st.integers(0, 1000))
    def test_lattice_points_on_the_band_edge(self, lattice, iterations, fraction, seed):
        cloud, threshold = lattice
        assert_same_fit(
            cloud, inlier_threshold=threshold, iterations=iterations,
            min_inlier_fraction=fraction, seed=seed,
        )

    @settings(max_examples=100, deadline=None)
    @given(degenerate_clouds(), ITERATIONS, st.integers(0, 1000))
    def test_all_triples_degenerate(self, cloud, iterations, seed):
        fit = assert_same_fit(cloud, iterations=iterations, min_inlier_fraction=0.0, seed=seed)
        assert not fit.found

    def test_inlier_bounds_hold_at_the_band_edge(self, rng):
        # Thresholds equal to a point's distance as the one-plane expression
        # computes it: the single-precision product rounds that distance
        # either way, and its bound must still count the point.
        positions = rng.uniform(-20.0, 20.0, size=(2000, 3))
        normals = rng.normal(size=(40, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = rng.uniform(-5.0, 5.0, size=40)
        distances = np.column_stack(
            [np.abs(positions @ normal + offset) for normal, offset in zip(normals, offsets)]
        )
        for edge in distances[rng.integers(len(positions), size=40), np.arange(40)]:
            bounds = _inlier_bounds(positions, edge)(normals, offsets)
            assert (bounds >= np.count_nonzero(distances <= edge, axis=0)).all()
            assert (bounds <= np.count_nonzero(distances <= edge + 1e-3, axis=0)).all()

    @pytest.mark.parametrize("seed", range(40))
    def test_first_of_equal_counts_wins_over_a_looser_bound(self, seed):
        # Two parallel layers of 25 points; three more points lie 1e-9 m
        # beyond the band of the upper layer's plane.  Both planes count 25
        # inliers, but the upper one's single-precision bound is 28, so the
        # search meets it first and must still pick the first hypothesis.
        grid = np.array([[x, y] for x in range(5) for y in range(5)], dtype=float)
        layers = [np.column_stack([grid, np.full(25, z)]) for z in (0.0, 1.0)]
        beyond = np.column_stack([grid[:3] + 0.5, np.full(3, 1.25 + 1e-9)])
        cloud = make_cloud(np.vstack([*layers, beyond]))
        assert_same_fit(cloud, inlier_threshold=0.25, iterations=20, min_inlier_fraction=0.0,
                        seed=seed)

    @pytest.mark.parametrize("iterations", [0, 1, 7, 8, 9, 200])
    def test_plane_with_clutter(self, rng, iterations):
        ground = np.column_stack(
            [rng.uniform(0, 40, 3000), rng.uniform(-20, 20, 3000), rng.normal(-1.73, 0.02, 3000)]
        )
        cloud = make_cloud(np.vstack([ground, rng.uniform(-5, 40, size=(1000, 3))]))
        fit = assert_same_fit(cloud, iterations=iterations, seed=11)
        if iterations in (0, 200):
            assert fit.found == (iterations == 200)


def ground_and_clutter(rng, ground_share: float, n: int = 4000):
    """Flat noisy ground at z = -1.73 (sigma 2 cm) under uniform clutter up
    to 8 m high; ``ground_share`` of the points are ground."""
    k = round(ground_share * n)
    ground = np.column_stack(
        [rng.uniform(0, 40, k), rng.uniform(-20, 20, k), rng.normal(-1.73, 0.02, k)]
    )
    clutter = np.column_stack(
        [rng.uniform(0, 40, n - k), rng.uniform(-20, 20, n - k), rng.uniform(-1.73, 6.27, n - k)]
    )
    return make_cloud(np.vstack([ground, clutter]))


class TestAdaptiveStop:
    """The ground fit stops once its best hypothesis is trusted with 99.9 %
    confidence, and the batched fit stops where the one-at-a-time loop does."""

    @pytest.mark.parametrize("share", [0.6, 0.65, 0.8])
    @pytest.mark.parametrize("seed", range(5))
    def test_mostly_ground_stops_early_on_the_plane(self, share, seed):
        cloud = ground_and_clutter(np.random.default_rng(seed), share)
        fit = assert_same_fit(cloud, seed=seed)
        assert fit.found
        assert fit.hypotheses <= 30
        a, b, c, d = fit.plane
        corners = np.array([[0.0, -20.0], [0.0, 20.0], [40.0, -20.0], [40.0, 20.0]])
        assert np.abs(-(d + a * corners[:, 0] + b * corners[:, 1]) / c + 1.73).max() < 0.02

    @pytest.mark.parametrize("share", [0.1, 0.25, 0.29])
    def test_little_ground_draws_every_hypothesis(self, share):
        cloud = ground_and_clutter(np.random.default_rng(2), share)
        fit = assert_same_fit(cloud, min_inlier_fraction=0.0, seed=2)
        assert fit.hypotheses == 200

    def test_one_iteration(self, rng):
        cloud = ground_and_clutter(rng, 0.65)
        fit = assert_same_fit(cloud, iterations=1, min_inlier_fraction=0.0, seed=4)
        assert fit.hypotheses == 1
        assert fit.found

    def test_degenerate_triples_count_but_never_stop(self):
        # Collinear points: every triple is degenerate, no plane is ever
        # found, so every hypothesis is drawn.
        cloud = make_cloud(np.arange(30)[:, None] * np.array([1.0, 2.0, 0.5]))
        fit = assert_same_fit(cloud, iterations=50, min_inlier_fraction=0.0, seed=0)
        assert fit == GroundFit(found=False, hypotheses=50)

class TestSamplePoints:
    def test_n_at_least_pool_returns_pool_in_order(self):
        cloud = make_cloud(
            [[0, 0, 0], [1, 1, 1], [2, 2, 2]], labels=[UNLABELED, GROUND, 4]
        )
        sampled = sample_points(cloud, 10)
        assert sampled.positions.tolist() == [[0, 0, 0], [2, 2, 2]]
        assert sampled.labels.tolist() == [UNLABELED, 4]

    def test_draws_exact_count_from_non_ground(self, rng):
        positions = rng.uniform(-10, 10, size=(20000, 3))
        labels = np.full(20000, UNLABELED)
        labels[: len(labels) // 2] = GROUND
        cloud = make_cloud(positions, labels=labels)
        sampled = sample_points(cloud, 6000, seed=9)
        assert len(sampled) == 6000
        assert np.count_nonzero(sampled.labels == GROUND) == 0

    def test_deterministic_and_seed_sensitive(self, rng):
        cloud = make_cloud(rng.uniform(-10, 10, size=(1000, 3)))
        a = sample_points(cloud, 100, seed=1)
        b = sample_points(cloud, 100, seed=1)
        c = sample_points(cloud, 100, seed=2)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)

    def test_subset_preserves_original_order(self, rng):
        positions = np.arange(300, dtype=float).reshape(100, 3)
        cloud = make_cloud(positions)
        sampled = sample_points(cloud, 40, seed=0)
        first_column = sampled.positions[:, 0]
        assert np.all(np.diff(first_column) > 0)

    def test_all_ground_cloud_gives_empty_sample(self):
        cloud = make_cloud([[0, 0, 0], [1, 1, 1]], labels=[GROUND, GROUND])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sampled = sample_points(cloud, 1)
        assert len(sampled) == 0 and sampled.positions.shape == (0, 3)

    def test_empty_cloud_gives_empty_sample(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sampled = sample_points(make_cloud(np.empty((0, 3))), 10)
        assert len(sampled) == 0 and sampled.features.shape == (0, 0)

    def test_invalid_count_rejected(self, rng):
        cloud = make_cloud(rng.uniform(-1, 1, size=(10, 3)))
        with pytest.raises(ValueError):
            sample_points(cloud, 0)
