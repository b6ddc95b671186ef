"""Oriented 3D bounding boxes and the geometric primitives built on them.

Boxes live in a right-handed frame with z up.  The footprint of a box is the
rectangle obtained by rotating an axis-aligned ``l`` x ``w`` rectangle by the
yaw angle ``theta`` about the vertical axis through the box center; ``l`` runs
along the heading direction.  Volume overlap decomposes into footprint overlap
(convex polygon clipping) times vertical extent overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

# Tolerance used when deciding whether clipped polygon edges are collinear.
CLIP_TOL = 1e-9

# Slack of iou_matrix's bulk reject, meters: numpy's and math's hypot may
# differ in the last bit, so pairs this close to iou3d's own cut reach iou3d.
PREFILTER_SLACK = 1e-9


def wrap_angle(angle: float) -> float:
    """Normalize an angle in radians to the half-open interval (-pi, pi].

    Parameters
    ----------
    angle : float
        Angle in radians, any magnitude.

    Returns
    -------
    float
        Equivalent angle in (-pi, pi].
    """
    wrapped = math.remainder(angle, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D bounding box.

    Attributes
    ----------
    x, y, z : float
        Volumetric center.
    l, w, h : float
        Extent along the heading direction, lateral direction and the
        vertical axis.  All strictly positive.
    theta : float
        Yaw about the vertical axis, normalized to (-pi, pi] on construction.
    """

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    theta: float

    def __post_init__(self) -> None:
        values = (self.x, self.y, self.z, self.l, self.w, self.h, self.theta)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"box fields must be finite, got {values}")
        if self.l <= 0 or self.w <= 0 or self.h <= 0:
            raise ValueError(
                f"box dimensions must be positive, got l={self.l} w={self.w} h={self.h}"
            )
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def center(self) -> np.ndarray:
        """Volumetric center as an array of shape (3,)."""
        return np.array([self.x, self.y, self.z])

    @property
    def volume(self) -> float:
        """Box volume ``l * w * h``."""
        return self.l * self.w * self.h

    def translated(self, dx: float, dy: float, dz: float) -> "Box3D":
        """Return a copy shifted by the given center offset."""
        return replace(self, x=self.x + dx, y=self.y + dy, z=self.z + dz)


def corners_bev(box: Box3D) -> np.ndarray:
    """Footprint corners of a box in the horizontal plane.

    Parameters
    ----------
    box : Box3D
        Box whose footprint is requested.

    Returns
    -------
    np.ndarray
        Array of shape (4, 2) with the corners in counter-clockwise order,
        starting at the corner that lies at ``(+l/2, +w/2)`` in the box frame.
    """
    c = math.cos(box.theta)
    s = math.sin(box.theta)
    hl = box.l / 2.0
    hw = box.w / 2.0
    local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([box.x, box.y])


def _polygon_area(polygon: np.ndarray) -> float:
    """Shoelace area of a polygon given as an (n, 2) array of CCW vertices."""
    if len(polygon) < 3:
        return 0.0
    x = polygon[:, 0]
    y = polygon[:, 1]
    x_next = np.concatenate((x[1:], x[:1]))
    y_next = np.concatenate((y[1:], y[:1]))
    area = 0.5 * float(np.dot(x, y_next) - np.dot(y, x_next))
    return max(area, 0.0)


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Intersection of two convex polygons by successive half-plane clipping.

    Both inputs must list vertices counter-clockwise.  Vertices exactly on a
    clip edge count as inside, so clipping a polygon against itself returns
    the polygon unchanged.  Intersections with a nearly parallel edge
    (cross product below ``CLIP_TOL``) are skipped; such degenerate overlaps
    contribute zero area.
    """
    output = [tuple(p) for p in subject]
    for i in range(len(clip)):
        if not output:
            break
        cx1, cy1 = clip[i]
        cx2, cy2 = clip[(i + 1) % len(clip)]
        ex, ey = cx2 - cx1, cy2 - cy1
        vertices = output
        output = []
        signs = [ex * (py - cy1) - ey * (px - cx1) for px, py in vertices]
        for j, (px, py) in enumerate(vertices):
            k = (j + 1) % len(vertices)
            qx, qy = vertices[k]
            inside_p = signs[j] >= 0.0
            inside_q = signs[k] >= 0.0
            if inside_p:
                output.append((px, py))
            if inside_p != inside_q:
                dx, dy = qx - px, qy - py
                den = ex * dy - ey * dx
                if abs(den) < CLIP_TOL:
                    continue
                t = (ey * (px - cx1) - ex * (py - cy1)) / den
                output.append((px + t * dx, py + t * dy))
    return np.array(output) if output else np.empty((0, 2))


def _sort_key(box: Box3D) -> tuple:
    return (box.x, box.y, box.z, box.l, box.w, box.h, box.theta)


def iou3d(a: Box3D, b: Box3D) -> float:
    """Intersection-over-union of two oriented 3D boxes.

    The overlap volume is the clipped footprint area times the vertical
    extent overlap.  The arguments are internally put into a canonical order
    before computing, which makes the result exactly symmetric.

    Parameters
    ----------
    a, b : Box3D
        Boxes to compare.

    Returns
    -------
    float
        IoU in [0, 1].  Identical boxes give exactly 1.0; boxes whose
        footprints or vertical extents do not overlap give exactly 0.0.
    """
    if _sort_key(a) > _sort_key(b):
        a, b = b, a

    a_bottom, a_top = a.z - a.h / 2.0, a.z + a.h / 2.0
    b_bottom, b_top = b.z - b.h / 2.0, b.z + b.h / 2.0
    dz = min(a_top, b_top) - max(a_bottom, b_bottom)
    if dz <= 0.0:
        return 0.0

    # Cheap reject: footprints cannot overlap when the center distance
    # exceeds the sum of the footprint circumradii.
    radius_a = math.hypot(a.l, a.w) / 2.0
    radius_b = math.hypot(b.l, b.w) / 2.0
    if math.hypot(a.x - b.x, a.y - b.y) > radius_a + radius_b:
        return 0.0

    corners_a = corners_bev(a)
    corners_b = corners_bev(b)
    inter_area = _polygon_area(_clip_polygon(corners_a, corners_b))
    if inter_area <= 0.0:
        return 0.0

    inter_volume = inter_area * dz
    volume_a = _polygon_area(corners_a) * (a_top - a_bottom)
    volume_b = _polygon_area(corners_b) * (b_top - b_bottom)
    union = volume_a + volume_b - inter_volume
    return min(max(inter_volume / union, 0.0), 1.0)


def _extents(boxes: Sequence[Box3D]) -> tuple[np.ndarray, ...]:
    """Center x, y, bottom, top and footprint circumradius of each box."""
    x, y, z, l, w, h = np.array([(b.x, b.y, b.z, b.l, b.w, b.h) for b in boxes]).T
    return x, y, z - h / 2.0, z + h / 2.0, np.hypot(l, w) / 2.0


def iou_matrix(
    rows: Sequence[Box3D],
    cols: Sequence[Box3D],
    iou: Callable[[Box3D, Box3D], float] = iou3d,
    categories: tuple[Sequence[str], Sequence[str]] | None = None,
) -> np.ndarray:
    """Matrix of ``iou(rows[i], cols[j])``, shape (len(rows), len(cols)).

    ``iou`` is called in row-major order, and only on the pairs that pass
    :func:`iou3d`'s cheap rejects (vertical overlap, footprint circumcircles)
    done in bulk and widened by ``PREFILTER_SLACK``, and whose categories
    (row categories, column categories) match when ``categories`` is given.
    Every other cell is 0.0, which is what :func:`iou3d` returns for it.
    """
    similarity = np.zeros((len(rows), len(cols)))
    if not len(rows) or not len(cols):
        return similarity
    ax, ay, a_bottom, a_top, a_radius = _extents(rows)
    bx, by, b_bottom, b_top, b_radius = _extents(cols)
    dz = np.minimum.outer(a_top, b_top) - np.maximum.outer(a_bottom, b_bottom)
    distance = np.hypot(np.subtract.outer(ax, bx), np.subtract.outer(ay, by))
    reach = np.add.outer(a_radius, b_radius) + PREFILTER_SLACK
    candidate = (dz > -PREFILTER_SLACK) & (distance <= reach)
    if categories is not None:
        row_categories, col_categories = (np.asarray(c, dtype=object) for c in categories)
        candidate &= np.equal.outer(row_categories, col_categories)
    ii, jj = np.nonzero(candidate)
    similarity[ii, jj] = [iou(rows[i], cols[j]) for i, j in zip(ii.tolist(), jj.tolist())]
    return similarity


def points_in_box(box: Box3D, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Indices of points inside an oriented box, boundary inclusive.

    The footprint test checks the signed distance to each footprint edge,
    the vertical test checks the distance to the horizontal mid-plane.

    Parameters
    ----------
    box : Box3D
        Containing box.
    points : np.ndarray
        Array of shape (n, 3).
    margin : float, optional
        Extra slab of this width (meters) around every face that still
        counts as inside.  Useful when points lie exactly on box faces and
        float rounding would otherwise drop them.

    Returns
    -------
    np.ndarray
        Indices into ``points``, ascending, dtype int.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {points.shape}")
    mask = np.abs(points[:, 2] - box.z) <= box.h / 2.0 + margin
    corners = corners_bev(box)
    for i in range(4):
        ex, ey = corners[(i + 1) % 4] - corners[i]
        edge_len = math.hypot(ex, ey)
        rel_x = points[:, 0] - corners[i, 0]
        rel_y = points[:, 1] - corners[i, 1]
        # cross / |edge| is the signed distance; positive means left of the
        # edge, i.e. inside for a CCW polygon.
        mask &= ex * rel_y - ey * rel_x >= -margin * edge_len
    return np.nonzero(mask)[0]
