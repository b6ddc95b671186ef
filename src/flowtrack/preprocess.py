"""Point-cloud container and the per-frame preprocessing chain.

The chain mirrors what a LiDAR tracking front end needs before motion
estimation: restrict the cloud to the camera frustum, label the ground plane
so it can be excluded, then draw a fixed-size working subset of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Largest magnitude of a calibration entry: beyond it a finite calibration
# can take a point or a box past the float range.
CALIBRATION_LIMIT = 1e6

# Degrees by which :func:`filter_fov` widens each image edge, so objects
# about to leave the field of view survive one more frame.
FOV_MARGIN_DEG = 10.0

# Per-point label values.  Non-negative labels are instance ids.
UNLABELED = -1
GROUND = -2

# The ground fit stops drawing hypotheses once, at its best plane's inlier
# share, a triple of inliers would have been drawn with this probability.
GROUND_CONFIDENCE = 0.999
# Plane hypotheses drawn and bounded together by the ground fit.
_BATCH = 8


class CalibrationError(ValueError):
    """Raised when calibration data is missing or degenerate."""


@dataclass
class PointCloud:
    """Point set with per-point features and labels.

    Attributes
    ----------
    positions : np.ndarray
        Array of shape (n, 3), finite.
    features : np.ndarray
        Array of shape (n, c); c may be zero.  Intensity lives here for
        LiDAR data.
    labels : np.ndarray
        Array of shape (n,), int.  ``UNLABELED``, ``GROUND`` or a
        non-negative instance id.
    """

    positions: np.ndarray
    features: np.ndarray = field(default=None)  # type: ignore[assignment]
    labels: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("point positions must be finite")
        n = len(self.positions)
        if self.features is None:
            self.features = np.empty((n, 0))
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim == 1:
            self.features = self.features.reshape(-1, 1)
        if self.features.shape[0] != n:
            raise ValueError(
                f"features have {self.features.shape[0]} rows for {n} points"
            )
        if self.labels is None:
            self.labels = np.full(n, UNLABELED, dtype=int)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.shape != (n,):
            raise ValueError(f"labels have shape {self.labels.shape} for {n} points")

    def __len__(self) -> int:
        return len(self.positions)

    def take(self, indices: np.ndarray) -> "PointCloud":
        """Subset the cloud, keeping positions, features and labels aligned."""
        indices = np.asarray(indices, dtype=int)
        return PointCloud(
            positions=self.positions[indices],
            features=self.features[indices],
            labels=self.labels[indices],
        )


def _affine(points: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Points of shape (n, 3) under the affine map of the first three rows
    of ``matrix`` (its last column is the translation), shape (n, 3).

    Each coordinate is spelled out elementwise rather than taken from a
    matrix product: numpy multiplies one point with a matrix-vector kernel
    and many with a matrix-matrix kernel, whose summation orders differ, so
    the product would give a point bits that depend on the batch size.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    return np.stack(
        [x * m[0] + y * m[1] + z * m[2] + m[3] for m in matrix[:3].tolist()], axis=1
    )


@dataclass
class Calibration:
    """Sensor-to-image calibration, valid once built: construction raises
    :class:`CalibrationError` for an entry that is not finite or exceeds
    ``CALIBRATION_LIMIT`` in magnitude, a zero focal length or a singular
    transform.

    Attributes
    ----------
    projection : np.ndarray
        Camera projection matrix, shape (3, 4), applied to rectified camera
        coordinates.
    rect : np.ndarray
        Rectifying rotation as a 4x4 homogeneous matrix.
    velo_to_cam : np.ndarray
        Rigid sensor-to-camera transform as a 4x4 homogeneous matrix.
    velo_to_cam_rect : np.ndarray
        Composed sensor-to-rectified-camera transform ``rect @ velo_to_cam``,
        shape (4, 4).  It and its inverse are computed once, on
        construction; a calibration is not changed afterwards.
    """

    projection: np.ndarray
    rect: np.ndarray
    velo_to_cam: np.ndarray
    velo_to_cam_rect: np.ndarray = field(init=False, repr=False, compare=False)
    _cam_rect_to_velo: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.projection = np.asarray(self.projection, dtype=float).reshape(3, 4)
        self.rect = np.asarray(self.rect, dtype=float).reshape(4, 4)
        self.velo_to_cam = np.asarray(self.velo_to_cam, dtype=float).reshape(4, 4)
        with np.errstate(all="ignore"):
            self.velo_to_cam_rect = self.rect @ self.velo_to_cam
            det = np.linalg.det(self.velo_to_cam_rect)
        # Entries within the limit keep the composed transform finite too.
        matrices = (self.projection, self.rect, self.velo_to_cam)
        if not all((np.abs(m) <= CALIBRATION_LIMIT).all() for m in matrices):
            raise CalibrationError("calibration entries must be finite and at most "
                                   f"{CALIBRATION_LIMIT:g} in magnitude")
        fx, fy = self.projection[0, 0], self.projection[1, 1]
        if fx == 0.0 or fy == 0.0:
            raise CalibrationError(f"degenerate projection: fx={fx} fy={fy}")
        if not abs(det) >= 1e-12:
            raise CalibrationError("sensor-to-camera transform is not invertible")
        self._cam_rect_to_velo = np.linalg.inv(self.velo_to_cam_rect)

    def lidar_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Map points of shape (n, 3) from the sensor frame to the rectified
        camera frame."""
        return _affine(points, self.velo_to_cam_rect)

    def camera_to_lidar(self, points: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`lidar_to_camera`."""
        return _affine(points, self._cam_rect_to_velo)

    def project_to_image(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project sensor-frame points into the image.

        Returns
        -------
        tuple
            ``(uv, depth)`` where ``uv`` has shape (n, 2) and ``depth`` is
            the rectified camera z coordinate.  Points at or behind the
            camera plane get ``uv`` rows of NaN.
        """
        cam = self.lidar_to_camera(points)
        uvw = _affine(cam, self.projection)
        # Every row is divided, then the rows at or behind the camera plane
        # are overwritten; the others get the bits they would get alone.
        with np.errstate(divide="ignore", invalid="ignore"):
            uv = uvw[:, :2] / uvw[:, 2:3]
        uv[~(uvw[:, 2] > 0)] = np.nan
        return uv, cam[:, 2]

    @classmethod
    def nominal(
        cls,
        focal: float = 600.0,
        image_width: int = 1200,
        image_height: int = 400,
    ) -> "Calibration":
        """Idealized forward-facing camera.

        The camera optical axis points along sensor +x, image x runs along
        sensor -y and image y along sensor -z.  Principal point sits at the
        image center.
        """
        velo_to_cam = np.array(
            [
                [0.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        projection = np.array(
            [
                [focal, 0.0, image_width / 2.0, 0.0],
                [0.0, focal, image_height / 2.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        return cls(projection=projection, rect=np.eye(4), velo_to_cam=velo_to_cam)


@dataclass
class GroundFit:
    """Outcome of a ground-plane search.

    ``plane`` holds ``(a, b, c, d)`` with ``a*x + b*y + c*z + d = 0`` and a
    unit normal; it is ``None`` when no plane was found.  ``hypotheses``
    counts the plane hypotheses drawn, degenerate ones included.
    """

    found: bool
    plane: tuple[float, float, float, float] | None = None
    num_inliers: int = 0
    hypotheses: int = 0


def filter_fov(cloud: PointCloud, calib: Calibration) -> PointCloud:
    """Keep the points whose projection falls inside the widened image of
    ``calib``'s camera.

    The image spans ``[0, 2 * cx]`` by ``[0, 2 * cy]`` pixels, the principal
    point at its center, and each edge is widened by ``FOV_MARGIN_DEG``: a
    point is kept when its azimuth and elevation from the optical axis are
    at most ``atan2(cx, fx)`` and ``atan2(cy, fy)`` plus the margin in
    magnitude.  Membership is evaluated per point, so the operation is
    idempotent.  Points at or behind the camera plane are always removed.
    The focal lengths are non-zero, as every :class:`Calibration` checks.
    """
    fx = calib.projection[0, 0]
    fy = calib.projection[1, 1]
    cx = calib.projection[0, 2]
    cy = calib.projection[1, 2]

    uv, depth = calib.project_to_image(cloud.positions)
    keep = depth > 0.0

    margin = math.radians(FOV_MARGIN_DEG)
    az = np.arctan2(uv[:, 0] - cx, fx)
    el = np.arctan2(uv[:, 1] - cy, fy)
    with np.errstate(invalid="ignore"):
        keep &= np.abs(az) <= math.atan2(cx, fx) + margin
        keep &= np.abs(el) <= math.atan2(cy, fy) + margin
    return cloud.take(np.nonzero(keep)[0])


def _plane_distances(positions: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    return np.abs(positions @ normal + offset)


def _refit_plane(positions: np.ndarray) -> tuple[np.ndarray, float]:
    """Total-least-squares plane through a point set: centroid plus the
    singular vector of the smallest singular value."""
    centroid = positions.mean(axis=0)
    _, _, vt = np.linalg.svd(positions - centroid, full_matrices=False)
    normal = vt[-1]
    return normal, -float(normal @ centroid)


def _inlier_bounds(
    positions: np.ndarray, threshold: float
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Scorer of planes through points of the cloud: for unit ``normals``
    and their ``offsets`` it gives, per plane, at least the count of points
    ``_plane_distances`` puts within ``threshold``.

    Eight planes at a time are scored by one single-precision product with
    the homogeneous coordinates, whose rounding error the slack exceeds: the
    offset of a unit normal through a point of the cloud is at most
    ``sqrt(3)`` times the largest coordinate.  The coordinates, the slack
    and the blocks are made once, for every call of the scorer.
    """
    homogeneous = np.ones((4, len(positions)), dtype=np.float32)
    homogeneous[:3] = positions.T
    limit = threshold + 1e-5 * (1.0 + 3.0 * float(np.abs(positions).max()))
    # Eight planes per product, so the block stays in cache; the blocks are
    # reused, as fresh ones cost about as much in page faults as the product.
    distances = np.empty((_BATCH, len(positions)), dtype=np.float32)
    inside = np.empty(distances.shape, dtype=bool)

    def bounds(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        planes = np.column_stack([normals, offsets]).astype(np.float32)
        counts = np.empty(len(planes), dtype=int)
        for start in range(0, len(planes), _BATCH):
            chunk = planes[start : start + _BATCH]
            block, mask = distances[: len(chunk)], inside[: len(chunk)]
            np.abs(np.matmul(chunk, homogeneous, out=block), out=block)
            np.less_equal(block, limit, out=mask)
            # Row by row: a whole-block count with ``axis=1`` takes six times
            # as long as these eight calls.
            counts[start : start + len(chunk)] = [np.count_nonzero(row) for row in mask]
        return counts

    return bounds


def _hypotheses_needed(inliers: int, n: int) -> float:
    """Hypotheses after which RANSAC trusts its best one (Fischler and
    Bolles, 1981): ``ceil(log(1 - GROUND_CONFIDENCE) / log(1 - w**3))`` for
    the inlier share ``w = inliers / n``, the least ``k`` at which ``k``
    draws hold a triple of inliers with probability ``GROUND_CONFIDENCE``.
    Infinite for ``w == 0``."""
    w3 = (inliers / n) ** 3
    if w3 == 0.0:
        return math.inf
    if w3 >= 1.0:
        return 1
    # log1p(-w3) is log(1 - w3) without the rounding of 1 - w3 to 1.
    return math.ceil(math.log(1.0 - GROUND_CONFIDENCE) / math.log1p(-w3))


def fit_ground(
    cloud: PointCloud,
    inlier_threshold: float = 0.15,
    iterations: int = 200,
    min_inlier_fraction: float = 0.25,
    seed: int | tuple = 0,
) -> tuple[PointCloud, GroundFit]:
    """Label ground points by random-sample-consensus plane fitting.

    Three-point plane hypotheses are drawn until the best one is trusted
    (:func:`_hypotheses_needed` of its inlier count, with degenerate triples
    counted), or ``iterations`` are drawn; the first one with the most
    inliers is refined by a least-squares fit over its inliers.  Points
    within ``inlier_threshold`` of the refined plane are labeled ``GROUND``.
    Only unlabeled (or already ground) points are relabeled; instance labels
    are never touched, and coordinates are never modified.

    Parameters
    ----------
    cloud : PointCloud
        Input cloud, at least 3 points.
    inlier_threshold : float
        Maximum point-to-plane distance for an inlier, meters.
    iterations : int
        Most random hypotheses drawn; all of them when no hypothesis has an
        inlier.
    min_inlier_fraction : float
        Minimum fraction of the cloud the winning plane must explain.
    seed : int or tuple
        Seed for the hypothesis sampler.

    Returns
    -------
    tuple
        ``(labeled_cloud, fit)``.  When no plane has an inlier or reaches
        ``min_inlier_fraction`` the cloud is returned unchanged and
        ``fit.found`` is False.
    """
    n = len(cloud)
    if n < 3:
        raise ValueError(f"ground fitting needs at least 3 points, got {n}")
    rng = np.random.default_rng(seed)
    positions = cloud.positions
    bounds_of = _inlier_bounds(positions, inlier_threshold)

    # Hypotheses are drawn and bounded eight at a time, then judged in draw
    # order: one is counted exactly (the scalar expressions of a
    # one-at-a-time loop) when its bound exceeds the best count, and wins
    # with strictly more inliers.  Draws past the stop are never judged.
    best_count, inliers, drawn, needed = 0, None, 0, math.inf
    while drawn < min(iterations, needed):
        # One draw per hypothesis, in order: the random stream of a one-at-a-time loop.
        triples = [
            rng.choice(n, size=3, replace=False) for _ in range(min(_BATCH, iterations - drawn))
        ]
        p0, p1, p2 = positions[np.array(triples, dtype=int).T]
        normals = np.cross(p1 - p0, p2 - p0)
        norms = np.sqrt(np.vecdot(normals, normals))
        valid = ~(norms < 1e-12)
        normals /= np.where(valid, norms, 1.0)[:, None]
        bounds = np.where(valid, bounds_of(normals, -np.vecdot(normals, p0)), -1)
        for triple, bound in zip(triples, bounds.tolist()):
            drawn += 1
            if bound > best_count:
                p0, p1, p2 = positions[triple]
                normal = np.cross(p1 - p0, p2 - p0)
                normal = normal / np.linalg.norm(normal)
                mask = _plane_distances(positions, normal, -float(normal @ p0)) <= inlier_threshold
                count = int(np.count_nonzero(mask))
                if count > best_count:
                    best_count, inliers = count, mask
                    needed = _hypotheses_needed(best_count, n)
            if drawn >= needed:
                break
    if inliers is None or best_count / n < min_inlier_fraction:
        return cloud, GroundFit(found=False, hypotheses=drawn)

    normal, offset = _refit_plane(positions[inliers])
    refined = _plane_distances(positions, normal, offset) <= inlier_threshold

    labels = cloud.labels.copy()
    relabelable = (labels == UNLABELED) | (labels == GROUND)
    labels[refined & relabelable] = GROUND
    labeled = PointCloud(positions=cloud.positions, features=cloud.features, labels=labels)
    fit = GroundFit(
        found=True,
        plane=(float(normal[0]), float(normal[1]), float(normal[2]), float(offset)),
        num_inliers=int(refined.sum()),
        hypotheses=drawn,
    )
    return labeled, fit


def sample_points(cloud: PointCloud, n: int, seed: int | tuple = 0) -> PointCloud:
    """Draw a uniform working subset of the non-ground points.

    Parameters
    ----------
    cloud : PointCloud
        Input cloud.
    n : int
        Requested sample size, at least 1.  When the non-ground pool holds
        fewer than ``n`` points the whole pool is returned in its original
        order.
    seed : int or tuple
        Seed for the sampler; a fixed seed gives an identical subset.

    Returns
    -------
    PointCloud
        Sampled cloud with positions, features and labels aligned; the
        selected indices are ascending, so the output is a subsequence of
        the input.  A cloud with no point left but ground, or no point at
        all, gives an empty sample.
    """
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    pool = np.nonzero(cloud.labels != GROUND)[0]
    if n >= len(pool):
        return cloud.take(pool)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(pool, size=n, replace=False)
    chosen.sort()
    return cloud.take(chosen)
