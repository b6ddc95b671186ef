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
from typing import Sequence

import numpy as np

# Tolerance used when deciding whether clipped polygon edges are collinear.
CLIP_TOL = 1e-9

# Slack of iou_matrix's bulk reject, meters: numpy's and math's hypot may
# differ in the last bit, so pairs this close to the clipping kernel's own
# cut reach it.
PREFILTER_SLACK = 1e-9

# Box-point pairs tested at once by points_in_boxes, at most: about 8 MB per
# float temporary.
MEMBERSHIP_CELLS = 1 << 20

# Relative widening of points_in_boxes' x-window, per unit of a box's scale
# (its |x| + |y| + l + w + 1): some ten orders of magnitude above the
# rounding of the containment tests.
WINDOW_SLACK = 1e-6

# Face margin used when attributing sampled points to a box (a tracklet's,
# or a ground-truth box for oracle flow), meters.  It keeps points lying
# exactly on a box face from being lost to rounding.
ATTRIBUTION_MARGIN = 1e-6


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
        if not all(map(math.isfinite, values)):
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


def _corner_xy(x, y, l, w, c, s):
    """Footprint corner coordinates as two lists of four, counter-clockwise
    from the corner at ``(+l/2, +w/2)`` in the box frame.

    The arguments are floats or equally shaped arrays (``c``, ``s``: cosine
    and sine of the yaw).  Each coordinate is spelled out elementwise rather
    than taken from a matrix product, whose BLAS summation order is not
    specified, so the scalar and the batched IoU agree bit for bit.
    """
    hl, hw = l / 2.0, w / 2.0
    lc, ls, wc, ws = hl * c, hl * s, hw * c, hw * s
    xs = [lc - ws + x, -lc - ws + x, -lc + ws + x, lc + ws + x]
    ys = [ls + wc + y, -ls + wc + y, -ls - wc + y, ls - wc + y]
    return xs, ys


def _footprint_xy(fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner x and y of each row of a :func:`_box_fields` array, (n, 4)
    each; the yaw's cosine and sine come from ``math`` per box."""
    theta = fields[:, 6].tolist()
    cos = np.array(list(map(math.cos, theta)), dtype=float)
    sin = np.array(list(map(math.sin, theta)), dtype=float)
    xs, ys = _corner_xy(fields[:, 0], fields[:, 1], fields[:, 3], fields[:, 4], cos, sin)
    return np.stack(xs, axis=1), np.stack(ys, axis=1)


def footprints(boxes: Sequence[Box3D]) -> np.ndarray:
    """Footprint corners of each box, shape (n, 4, 2): counter-clockwise
    from the one at ``(+l/2, +w/2)`` in the box frame."""
    return np.stack(_footprint_xy(_box_fields(boxes)), axis=2)


def _shoelace(xs: np.ndarray, ys: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Area of each polygon whose first ``count`` CCW vertices fill a row of
    ``xs`` and ``ys``; 0.0 below three vertices.

    Each shoelace sum is one ``accumulate`` along the row from a leading 0.0
    (padding adds 0.0): vertex order, the order a scalar loop reproduces
    exactly.
    """
    points = np.stack([xs, ys])
    column = np.arange(xs.shape[1])
    # Vertex k's successor, the row wrapping at its count, coordinates swapped.
    swapped = points[::-1]
    rolled = np.concatenate([swapped[:, :, 1:], swapped[:, :, :1]], axis=2)
    after = np.where(column + 1 < count[:, None], rolled, swapped[:, :, :1])
    # x_k * y_after and y_k * x_after of every vertex k.
    terms = np.zeros((2, len(xs), len(column) + 1))
    terms[:, :, 1:] = np.where(column < count[:, None], points * after, 0.0)
    forward, backward = np.add.accumulate(terms, axis=2)[:, :, -1]
    return np.where(count >= 3, np.maximum(0.5 * (forward - backward), 0.0), 0.0)


def _clip_polygons(
    xs: np.ndarray, ys: np.ndarray, clip_xs: np.ndarray, clip_ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersections of convex polygon pairs by successive half-plane
    clipping (Sutherland & Hodgman), all pairs at once.

    Row ``p`` holds the subject's CCW vertices (``xs``, ``ys``) and the clip
    polygon's (``clip_xs``, ``clip_ys``).  Vertices exactly on a clip edge
    count as inside, so clipping a polygon against itself returns it
    unchanged.  Intersections with a nearly parallel edge (cross product
    below ``CLIP_TOL``) are skipped; such degenerate overlaps contribute zero
    area.  Returns the clipped vertices, zero-padded to the widest result,
    and each row's vertex count.
    """
    rows, width = xs.shape
    count = np.full(rows, width)
    valid = np.ones(xs.shape, dtype=bool)
    # Both polygons closed: each row's vertex 0 again after its last one.
    clip = np.stack([clip_xs, clip_ys])[:, :, [*range(clip_xs.shape[1]), 0]]
    closed = np.stack([xs, ys])[:, :, [*range(width), 0]]
    # Each clip edge's (ey, ex): times an (x, y) pair, one product gives both
    # terms of a cross product.
    swapped_edges = np.diff(clip, axis=2)[::-1]
    for i in range(swapped_edges.shape[2]):
        edge = swapped_edges[:, :, i, None]
        ey_rel_x, ex_rel_y = edge * (closed - clip[:, :, i, None])
        side = ex_rel_y - ey_rel_x >= 0.0
        points = closed[:, :, :-1]
        step = closed[:, :, 1:] - points
        ey_dx, ex_dy = edge * step
        den = ex_dy - ey_dx
        solid = np.abs(den) >= CLIP_TOL
        t = np.divide(ey_rel_x[:, :-1] - ex_rel_y[:, :-1], den, out=np.zeros_like(den), where=solid)
        # Each vertex emits itself if inside, then its edge's crossing.  A
        # padding column repeats vertex 0, so its edge has zero length and
        # never crosses.
        emitted = np.empty((2, rows, 2 * points.shape[2]))
        emitted[:, :, 0::2] = points
        emitted[:, :, 1::2] = points + t * step
        emit = np.empty((rows, emitted.shape[2]), dtype=bool)
        emit[:, 0::2] = side[:, :-1] & valid
        emit[:, 1::2] = (side[:, :-1] != side[:, 1:]) & solid
        count = emit.sum(axis=1)
        # Boolean masks walk each row in order, so the vertex order holds.
        kept = np.arange(count.max(initial=0) + 1) < count[:, None]
        compact = np.zeros((2, *kept.shape))
        compact[0][kept], compact[1][kept] = emitted[0][emit], emitted[1][emit]
        closed = np.where(kept, compact, compact[:, :, :1])
        valid = kept[:, :-1]
    xs, ys = np.where(valid, closed[:, :, :-1], 0.0)
    return xs, ys, count


def _box_fields(boxes: Sequence[Box3D]) -> np.ndarray:
    """``x, y, z, l, w, h, theta`` of each box, shape (n, 7)."""
    return np.array(
        [(b.x, b.y, b.z, b.l, b.w, b.h, b.theta) for b in boxes], dtype=float
    ).reshape(-1, 7)


def _hypot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``math.hypot`` of each element pair; numpy's may differ in the last bit."""
    return np.array(list(map(math.hypot, a.tolist(), b.tolist())), dtype=float)


def _field_ious(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each pair of rows of two (n, 7) :func:`_box_fields` arrays,
    in [0, 1]: the clipped footprint area times the vertical overlap, every
    pair clipped in one batched pass.  Identical boxes give exactly 1.0."""
    # Canonical order: the pair's lexicographically smaller row of fields
    # goes first, which makes the result exactly symmetric.
    swap = (a > b)[np.arange(len(a)), (a != b).argmax(axis=1)]
    a, b = np.where(swap[:, None], b, a), np.where(swap[:, None], a, b)

    a_bottom, a_top = a[:, 2] - a[:, 5] / 2.0, a[:, 2] + a[:, 5] / 2.0
    b_bottom, b_top = b[:, 2] - b[:, 5] / 2.0, b[:, 2] + b[:, 5] / 2.0
    dz = np.minimum(a_top, b_top) - np.maximum(a_bottom, b_bottom)
    # Cheap reject: footprints cannot overlap when the center distance
    # exceeds the sum of the footprint circumradii.
    reach = _hypot(a[:, 3], a[:, 4]) / 2.0 + _hypot(b[:, 3], b[:, 4]) / 2.0
    near = (dz > 0.0) & (_hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1]) <= reach)

    ious = np.zeros(len(a))
    pairs = np.count_nonzero(near)
    # Both boxes of every near pair: a's rows, then b's.
    xs, ys = _footprint_xy(np.concatenate([a[near], b[near]]))
    height = np.concatenate([a_top[near] - a_bottom[near], b_top[near] - b_bottom[near]])
    inter_area = _shoelace(*_clip_polygons(xs[:pairs], ys[:pairs], xs[pairs:], ys[pairs:]))
    inter_volume = inter_area * dz[near]
    volume = _shoelace(xs, ys, np.full(2 * pairs, 4)) * height
    union = volume[:pairs] + volume[pairs:] - inter_volume
    # A union of 0.0 (volumes that underflow, or vanish in rounding next to
    # a far center) scores 0.0 rather than dividing by it.
    iou = np.divide(inter_volume, union, out=np.zeros_like(union), where=union > 0.0)
    ious[near] = np.where(inter_area > 0.0, np.minimum(np.maximum(iou, 0.0), 1.0), 0.0)
    return ious


def iou3d(a: Box3D, b: Box3D) -> float:
    """Intersection-over-union of two oriented 3D boxes: the one-cell case
    of :func:`iou_matrix`."""
    return float(iou_matrix([a], [b])[0, 0])


def _candidates(
    rows: Sequence[Box3D], cols: Sequence[Box3D], categories: tuple | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of the pairs that pass the bulk reject, and
    the two boxes' fields of each."""
    a, b = _box_fields(rows), _box_fields(cols)
    a_bottom, a_top = a[:, 2] - a[:, 5] / 2.0, a[:, 2] + a[:, 5] / 2.0
    b_bottom, b_top = b[:, 2] - b[:, 5] / 2.0, b[:, 2] + b[:, 5] / 2.0
    dz = np.minimum.outer(a_top, b_top) - np.maximum.outer(a_bottom, b_bottom)
    distance = np.hypot(np.subtract.outer(a[:, 0], b[:, 0]), np.subtract.outer(a[:, 1], b[:, 1]))
    reach = np.add.outer(np.hypot(a[:, 3], a[:, 4]) / 2.0, np.hypot(b[:, 3], b[:, 4]) / 2.0)
    candidate = (dz > -PREFILTER_SLACK) & (distance <= reach + PREFILTER_SLACK)
    if categories is not None:
        # Integer codes compare in one call; objects compare one pair at a time.
        codes = {c: k for k, c in enumerate({*categories[0], *categories[1]})}
        candidate &= np.equal.outer(*([codes[c] for c in side] for side in categories))
    ii, jj = np.nonzero(candidate)
    return ii, jj, a[ii], b[jj]


def iou_matrices(
    problems: Sequence[tuple[Sequence[Box3D], Sequence[Box3D], tuple | None]],
) -> list[np.ndarray]:
    """:func:`iou_matrix` of each ``(rows, cols, categories)`` problem, with
    one pass of the clipping kernel over the candidate pairs of all of
    them."""
    found = [_candidates(*problem) for problem in problems]
    ious = _field_ious(
        np.concatenate([np.empty((0, 7)), *(f[2] for f in found)]),
        np.concatenate([np.empty((0, 7)), *(f[3] for f in found)]),
    )
    matrices = []
    start = 0
    for (rows, cols, _), (ii, jj, _, _) in zip(problems, found):
        matrix = np.zeros((len(rows), len(cols)))
        matrix[ii, jj] = ious[start:start + len(ii)]
        start += len(ii)
        matrices.append(matrix)
    return matrices


def iou_matrix(
    rows: Sequence[Box3D],
    cols: Sequence[Box3D],
    categories: tuple[Sequence[str], Sequence[str]] | None = None,
) -> np.ndarray:
    """IoU of each pair ``(rows[i], cols[j])`` of oriented 3D boxes, shape
    (len(rows), len(cols)); the IoU is exactly symmetric in the two boxes.

    Only the pairs that pass the clipping kernel's cheap rejects (vertical
    overlap, footprint circumcircles) done in bulk and widened by
    ``PREFILTER_SLACK``, and whose categories (row categories, column
    categories) match when ``categories`` is given, reach the kernel, in
    row-major order.  Every other cell is 0.0, which is what the kernel
    gives a pair it rejects.
    """
    return iou_matrices([(rows, cols, categories)])[0]


def points_in_boxes(
    boxes: Sequence[Box3D], points: np.ndarray, margin: float = 0.0
) -> list[np.ndarray]:
    """Indices of the points inside each oriented box, boundary inclusive.

    The footprint test checks the signed distance to each footprint edge,
    the vertical test checks the distance to the horizontal mid-plane.
    Every (box, point) pair is tested with the same per-element expressions,
    on :func:`footprints`' corners, so a box's indices do not depend on the
    other boxes.  Only the points whose x lies within the box footprint's
    x-range, widened by ``2 * |margin|`` plus ``WINDOW_SLACK`` times the
    box's scale, reach the tests; every point outside that window fails
    them, since the tests' rounding stays far below that slack.  A box
    narrower than that slack has all points tested.  Boxes are tested
    ``MEMBERSHIP_CELLS // len(points)`` at a time, which bounds the
    temporaries.

    Parameters
    ----------
    boxes : sequence of Box3D
        Containing boxes.
    points : np.ndarray
        Array of shape (n, 3).
    margin : float, optional
        Extra slab of this width (meters) around every face that still
        counts as inside.  Useful when points lie exactly on box faces and
        float rounding would otherwise drop them.

    Returns
    -------
    list of np.ndarray
        Per box, indices into ``points``, ascending, dtype int.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {points.shape}")
    fields = _box_fields(boxes)
    xs, ys = _footprint_xy(fields)
    half_height = fields[:, 5] / 2.0 + margin
    edges = []
    for i in range(4):
        ex, ey = xs[:, (i + 1) % 4] - xs[:, i], ys[:, (i + 1) % 4] - ys[:, i]
        edges.append((xs[:, i], ys[:, i], ex, ey, -margin * _hypot(ex, ey)))

    scale = 1.0 + np.abs(fields[:, 0]) + np.abs(fields[:, 1]) + fields[:, 3] + fields[:, 4]
    slack = 2.0 * abs(margin) + WINDOW_SLACK * scale
    order = np.argsort(points[:, 0])
    sorted_x = points[order, 0]
    lo = np.searchsorted(sorted_x, xs.min(axis=1) - slack, side="left")
    hi = np.searchsorted(sorted_x, xs.max(axis=1) + slack, side="right")
    narrow = np.minimum(fields[:, 3], fields[:, 4]) < WINDOW_SLACK * scale
    lo[narrow], hi[narrow] = 0, len(points)

    members: list[np.ndarray] = []
    step = max(MEMBERSHIP_CELLS // max(len(points), 1), 1)
    for start in range(0, len(fields), step):
        ids = np.arange(start, min(start + step, len(fields)))
        counts = hi[ids] - lo[ids]
        box = np.repeat(ids, counts)
        # Each box's window of the x order, one after the other.
        shift = np.repeat(lo[ids] - (np.cumsum(counts) - counts), counts)
        index = order[np.arange(len(box)) + shift]
        mask = np.abs(points[index, 2] - fields[box, 2]) <= half_height[box]
        for x0, y0, ex, ey, reach in edges:
            rel_x = points[index, 0] - x0[box]
            rel_y = points[index, 1] - y0[box]
            # cross / |edge| is the signed distance; positive means left of
            # the edge, i.e. inside for a CCW polygon.
            mask &= ex[box] * rel_y - ey[box] * rel_x >= reach[box]
        box, index = box[mask], index[mask]
        index = index[np.lexsort((index, box))]
        members += np.split(index, np.cumsum(np.bincount(box - start, minlength=len(ids)))[:-1])
    return members


def points_in_box(box: Box3D, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Indices of points inside an oriented box: the one-box case of
    :func:`points_in_boxes`."""
    return points_in_boxes([box], points, margin)[0]
