"""Independent reference implementations used to cross-check the package.

Every function here computes its answer by a different route than the
library code: sampling instead of clipping, exhaustive enumeration instead
of optimization, whole-timeline analysis instead of streaming state.  Tests
compare the two routes; nothing in this module may import algorithmic code
from the package beyond plain data containers, except
``recall_sweep_reference``: it re-runs the package's per-sequence evaluation
(refereed by ``reference_counts``) anew at every threshold, the
route the memoized sweep replaces.  ``iou3d_reference``,
``points_in_boxes_reference`` and ``result_rows_reference`` are the
one-at-a-time routes the batched IoU kernel, point attribution and result
conversion replace: the same arithmetic, one pair, box or row per call; the
last uses the package's ``Calibration`` transforms and ``wrap_angle`` on
one row at a time.
``preprocessed_flows_reference`` is the sequential loop the pipelined
preprocessing replaces; it calls the package's ``preprocess_frame``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from flowtrack.cli import preprocess_frame
from flowtrack.geometry import Box3D, wrap_angle
from flowtrack.kitti_io import LabelRow
from flowtrack.metrics import (
    EvalConfig,
    MetricsReport,
    RecallRow,
    SequenceCounts,
    TrackedBox,
    evaluate_sequences,
    smota_value,
)
from flowtrack.preprocess import GROUND, UNLABELED, Calibration, GroundFit, PointCloud
from flowtrack.tracker import EmittedTrack


def wrap_reference(angle: float) -> float:
    """Angle wrapped into (-pi, pi] by repeated shifting."""
    while angle > math.pi:
        angle -= 2.0 * math.pi
    while angle <= -math.pi:
        angle += 2.0 * math.pi
    return angle


def _inside_mask(box: Box3D, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Containment by rotating points into the box frame (axis-aligned test)."""
    delta = points - np.array([box.x, box.y, box.z])
    cos_t, sin_t = math.cos(box.theta), math.sin(box.theta)
    local_x = delta[:, 0] * cos_t + delta[:, 1] * sin_t
    local_y = -delta[:, 0] * sin_t + delta[:, 1] * cos_t
    return (
        (np.abs(local_x) <= box.l / 2.0 + margin)
        & (np.abs(local_y) <= box.w / 2.0 + margin)
        & (np.abs(delta[:, 2]) <= box.h / 2.0 + margin)
    )


def points_in_box_reference(
    box: Box3D, points: np.ndarray, margin: float = 0.0
) -> np.ndarray:
    """Indices of contained points, via the rotate-into-frame route."""
    return np.nonzero(_inside_mask(box, np.asarray(points, dtype=float), margin))[0]


def points_in_boxes_reference(
    boxes: Sequence[Box3D], points: np.ndarray, margin: float = 0.0
) -> list[np.ndarray]:
    """Indices of the points inside each box, one box at a time over every
    point: signed distances to the edges of ``corners_reference``'s
    footprint and to the mid-plane, the per-box loop the batched kernel
    replaces."""
    points = np.asarray(points, dtype=float)
    members = []
    for box in boxes:
        mask = np.abs(points[:, 2] - box.z) <= box.h / 2.0 + margin
        corners = corners_reference(box)
        for i in range(4):
            ex, ey = corners[(i + 1) % 4] - corners[i]
            edge_len = math.hypot(ex, ey)
            rel_x = points[:, 0] - corners[i, 0]
            rel_y = points[:, 1] - corners[i, 1]
            mask &= ex * rel_y - ey * rel_x >= -margin * edge_len
        members.append(np.nonzero(mask)[0])
    return members


def preprocessed_flows_reference(
    clouds_by_frame: Mapping[int, PointCloud],
    frames: Iterable[int],
    calib: Calibration | None,
) -> Iterator[tuple[int, PointCloud | None, PointCloud | None]]:
    """The preprocessing of the preprocess -> flow chain as one sequential
    loop on the caller's thread: each frame read and preprocessed, then
    yielded with the frame before."""
    prev_sampled = None
    for frame in frames:
        sampled = None
        if (cloud := clouds_by_frame.get(frame)) is not None:
            sampled = preprocess_frame(cloud, calib, frame)
            sampled = sampled if len(sampled) else None
        yield frame, prev_sampled, sampled
        prev_sampled = sampled


def _footprint_bounds(box: Box3D) -> tuple[np.ndarray, np.ndarray]:
    """Tight axis-aligned bounds of the box footprint in the xy plane."""
    cos_t, sin_t = math.cos(box.theta), math.sin(box.theta)
    ex = (abs(cos_t) * box.l + abs(sin_t) * box.w) / 2.0
    ey = (abs(sin_t) * box.l + abs(cos_t) * box.w) / 2.0
    return np.array([box.x - ex, box.y - ey]), np.array([box.x + ex, box.y + ey])


# Scratch buffers reused across mc_iou3d calls, keyed by sample count.
# Single precision is plenty: the boundary band it blurs is ~1e-5 of the
# box extent, far below the Monte-Carlo noise floor.
_MC_SCRATCH: dict[int, tuple[np.ndarray, ...]] = {}


def _mc_scratch(n: int) -> tuple[np.ndarray, ...]:
    if n not in _MC_SCRATCH:
        _MC_SCRATCH[n] = (
            np.empty((n, 2), dtype=np.float32),
            np.empty((4, n), dtype=np.float32),
            np.empty(n, dtype=bool),
            np.empty(n, dtype=bool),
        )
    return _MC_SCRATCH[n]


def mc_iou3d(a: Box3D, b: Box3D, num_samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo IoU of two oriented boxes sharing the vertical axis.

    Both boxes rotate about z only, so membership factorizes into a planar
    rotated-rectangle test times an exact vertical-overlap factor.  All
    samples are therefore spent on the one quantity with no closed form
    here, the footprint overlap area: points are drawn uniformly over the
    intersection of the two footprints' bounding rectangles and tested
    against both rectangles at once.  Volumes and the union follow
    analytically.  With n samples the standard error of the area fraction
    is sqrt(p(1-p)/n), so the IoU error is well under 1e-2 for n = 10^6.

    Each rectangle test is one affine map of the raw uniforms (the sample
    scaling, the shift into the box frame, the rotation, and the division
    by the half extents all fold into a single 4x2 matrix and offset) and
    two comparisons per axis, evaluated in float32 scratch shared across
    calls.
    """
    z_overlap = min(a.z + a.h / 2.0, b.z + b.h / 2.0) - max(
        a.z - a.h / 2.0, b.z - b.h / 2.0
    )
    if z_overlap <= 0.0:
        return 0.0
    lo_a, hi_a = _footprint_bounds(a)
    lo_b, hi_b = _footprint_bounds(b)
    lo = np.maximum(lo_a, lo_b)
    hi = np.minimum(hi_a, hi_b)
    span = hi - lo
    if span[0] <= 0.0 or span[1] <= 0.0:
        return 0.0

    # Rows of the stacked map: sample coords are lo + u * span, and the
    # scaled local coordinate of box (c, theta) is D R^T (coords - c) with
    # D = diag(2/l, 2/w), so on raw uniforms u the map is
    # (D R^T diag(span)) u + D R^T (lo - c), inside iff every row lies in
    # [-1, 1].
    rows, offsets = [], []
    for box in (a, b):
        cos_t, sin_t = math.cos(box.theta), math.sin(box.theta)
        scaled_rt = np.array([[cos_t, sin_t], [-sin_t, cos_t]]) * np.array(
            [[2.0 / box.l], [2.0 / box.w]]
        )
        rows.append(scaled_rt * span)
        offsets.append(scaled_rt @ (lo - np.array([box.x, box.y])))
    matrix = np.vstack(rows).astype(np.float32)
    shift = np.concatenate(offsets)

    uniforms, mapped, mask, tmp = _mc_scratch(num_samples)
    rng = np.random.default_rng(seed)
    rng.random(out=uniforms, dtype=np.float32)
    np.matmul(matrix, uniforms.T, out=mapped)
    f = np.float32
    np.less_equal(mapped[0], f(1.0 - shift[0]), out=mask)
    np.greater_equal(mapped[0], f(-1.0 - shift[0]), out=tmp)
    mask &= tmp
    for i in (1, 2, 3):
        np.less_equal(mapped[i], f(1.0 - shift[i]), out=tmp)
        mask &= tmp
        np.greater_equal(mapped[i], f(-1.0 - shift[i]), out=tmp)
        mask &= tmp

    fraction = np.count_nonzero(mask) / num_samples
    inter = fraction * float(span[0]) * float(span[1]) * z_overlap
    union = a.volume + b.volume - inter
    return inter / union


def aligned_iou3d(a: Box3D, b: Box3D) -> float:
    """Closed-form IoU for two axis-aligned (theta = 0) boxes."""
    assert a.theta == 0.0 and b.theta == 0.0

    def overlap(c1: float, e1: float, c2: float, e2: float) -> float:
        return max(0.0, min(c1 + e1 / 2, c2 + e2 / 2) - max(c1 - e1 / 2, c2 - e2 / 2))

    inter = (
        overlap(a.x, a.l, b.x, b.l)
        * overlap(a.y, a.w, b.y, b.w)
        * overlap(a.z, a.h, b.z, b.h)
    )
    union = a.l * a.w * a.h + b.l * b.w * b.h - inter
    return inter / union


CLIP_TOL = 1e-9


def corners_reference(box: Box3D, blas: bool = False) -> np.ndarray:
    """Footprint corners, CCW from ``(+l/2, +w/2)``, each coordinate spelled
    out elementwise; ``blas=True`` takes them from a matrix product instead,
    as the package did before its IoU kernel was batched."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    hl, hw = box.l / 2.0, box.w / 2.0
    if blas:
        local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
        return local @ np.array([[c, -s], [s, c]]).T + np.array([box.x, box.y])
    return np.array([
        [hl * c - hw * s + box.x, hl * s + hw * c + box.y],
        [-hl * c - hw * s + box.x, -hl * s + hw * c + box.y],
        [-hl * c + hw * s + box.x, -hl * s - hw * c + box.y],
        [hl * c + hw * s + box.x, hl * s - hw * c + box.y],
    ])


def polygon_area_reference(polygon: np.ndarray, blas: bool = False) -> float:
    """Shoelace area of CCW vertices, both sums taken sequentially in vertex
    order; ``blas=True`` takes them with ``np.dot`` instead."""
    n = len(polygon)
    if n < 3:
        return 0.0
    x, y = polygon[:, 0], polygon[:, 1]
    x_next, y_next = np.roll(x, -1), np.roll(y, -1)
    if blas:
        return max(0.5 * float(np.dot(x, y_next) - np.dot(y, x_next)), 0.0)
    forward = backward = 0.0
    for k in range(n):
        forward += x[k] * y_next[k]
        backward += y[k] * x_next[k]
    return max(0.5 * (forward - backward), 0.0)


def clip_polygon_reference(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clipping of one convex CCW polygon by another, one
    vertex at a time; edges within ``CLIP_TOL`` of parallel emit nothing."""
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


def iou3d_reference(a: Box3D, b: Box3D, blas: bool = False) -> float:
    """IoU of two oriented boxes, one pair at a time: canonical pair order,
    vertical and circumcircle rejects, clipped footprint area times vertical
    overlap.  ``blas`` selects the corner and area formulation."""
    if (a.x, a.y, a.z, a.l, a.w, a.h, a.theta) > (b.x, b.y, b.z, b.l, b.w, b.h, b.theta):
        a, b = b, a
    a_bottom, a_top = a.z - a.h / 2.0, a.z + a.h / 2.0
    b_bottom, b_top = b.z - b.h / 2.0, b.z + b.h / 2.0
    dz = min(a_top, b_top) - max(a_bottom, b_bottom)
    if dz <= 0.0:
        return 0.0
    radius_a = math.hypot(a.l, a.w) / 2.0
    radius_b = math.hypot(b.l, b.w) / 2.0
    if math.hypot(a.x - b.x, a.y - b.y) > radius_a + radius_b:
        return 0.0
    corners_a = corners_reference(a, blas)
    corners_b = corners_reference(b, blas)
    inter_area = polygon_area_reference(clip_polygon_reference(corners_a, corners_b), blas)
    if inter_area <= 0.0:
        return 0.0
    inter_volume = inter_area * dz
    volume_a = polygon_area_reference(corners_a, blas) * (a_top - a_bottom)
    volume_b = polygon_area_reference(corners_b, blas) * (b_top - b_bottom)
    union = volume_a + volume_b - inter_volume
    return min(max(inter_volume / union, 0.0), 1.0)


def result_rows_reference(
    frame: int, tracks: Sequence[EmittedTrack], calib: Calibration
) -> list[LabelRow]:
    """Camera-frame label rows of emitted tracks, converted one track at a
    time: its center, then its eight corners, through the calibration."""
    rows = []
    for track in tracks:
        box = track.box
        center_cam = calib.lidar_to_camera(box.center.reshape(1, 3))[0]
        bottom_cam = center_cam + np.array([0.0, box.h / 2.0, 0.0])
        rotation_y = wrap_angle(-box.theta - math.pi / 2.0)
        corners = np.zeros((8, 3))
        corners[:4, :2] = corners[4:, :2] = corners_reference(box)
        corners[:4, 2] = box.z - box.h / 2.0
        corners[4:, 2] = box.z + box.h / 2.0
        uv, depth = calib.project_to_image(corners)
        bbox = (-1.0, -1.0, -1.0, -1.0)
        if not np.any(depth <= 0.1):
            bbox = (float(uv[:, 0].min()), float(uv[:, 1].min()),
                    float(uv[:, 0].max()), float(uv[:, 1].max()))
        rows.append(LabelRow(
            frame=frame, track_id=track.track_id, category=track.category,
            truncated=0.0, occluded=0,
            alpha=wrap_angle(rotation_y - math.atan2(bottom_cam[0], bottom_cam[2])),
            bbox=bbox, h=box.h, w=box.w, l=box.l,
            x=float(bottom_cam[0]), y=float(bottom_cam[1]), z=float(bottom_cam[2]),
            rotation_y=rotation_y, score=track.confidence,
        ))
    return rows


def best_assignment_bruteforce(
    similarity: np.ndarray,
) -> tuple[float, list[tuple[int, int]]]:
    """Maximum-total one-to-one assignment by exhaustive enumeration.

    Considers every injection from the smaller axis into the larger one;
    among equal totals the lexicographically first pairing wins.  Only
    feasible for matrices up to about 8x8.
    """
    similarity = np.asarray(similarity, dtype=float)
    rows, cols = similarity.shape
    if rows == 0 or cols == 0:
        return 0.0, []
    best_total = -math.inf
    best_pairs: list[tuple[int, int]] = []
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            total = math.fsum(similarity[i, perm[i]] for i in range(rows))
            if total > best_total:
                best_total = total
                best_pairs = [(i, perm[i]) for i in range(rows)]
    else:
        for perm in itertools.permutations(range(rows), cols):
            total = math.fsum(similarity[perm[j], j] for j in range(cols))
            if total > best_total:
                best_total = total
                best_pairs = sorted((perm[j], j) for j in range(cols))
    return best_total, best_pairs


def hungarian_reference(similarity: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-similarity assignment by the scalar numpy Hungarian method.

    This is the package's earlier solver, kept unchanged: the same algorithm,
    scan order and strict comparisons as the dense scan
    ``assignment._dense_assignment``, but computed on numpy arrays and numpy
    scalars.  It is the referee for the exact pairs, tie-breaks included,
    that the list-based dense scan must return.
    """
    similarity = np.asarray(similarity, dtype=float)
    n_rows, n_cols = similarity.shape
    if n_rows == 0 or n_cols == 0:
        return []

    n = max(n_rows, n_cols)
    cost = np.zeros((n, n))
    cost[:n_rows, :n_cols] = -similarity

    # Potentials u, v and the column-to-row matching p, 1-based with a
    # sentinel at index 0.
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = np.inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    pairs = [
        (p[j] - 1, j - 1)
        for j in range(1, n + 1)
        if p[j] - 1 < n_rows and j - 1 < n_cols
    ]
    pairs.sort()
    return pairs


def _iou_for_counts(a: Box3D, b: Box3D) -> float:
    """IoU used inside the reference evaluator, via Monte-Carlo-free
    geometry: axis-aligned closed form when both boxes are unrotated, else a
    dense-sample estimate is avoided by construction (reference scenarios
    use unrotated boxes)."""
    return aligned_iou3d(a, b)


def reference_counts(
    gt: Mapping[int, Sequence[TrackedBox]],
    pred: Mapping[int, Sequence[TrackedBox]],
    iou_thres: float,
) -> dict[str, float]:
    """Definition-chasing CLEAR counts over whole timelines.

    Matching per frame: previous-frame identity pairs are kept when still
    above the threshold, the rest is completed by exhaustive maximum-total
    enumeration.  Counting is then done after the fact on each ground-truth
    identity's full timeline: every present frame contributes a match or a
    miss, identity switches compare consecutive matched entries (gaps do not
    reset them), fragmentations count maximal miss runs strictly between two
    matched entries.
    """
    frames = sorted(set(gt) | set(pred))
    # timeline[gid] = list of (frame, matched pred id or None) on present frames
    timeline: dict[int, list[tuple[int, int | None]]] = {}
    total_pred = 0
    total_matches = 0
    iou_sum = 0.0
    prev_pairs: dict[int, int] = {}

    for frame in frames:
        gt_boxes = list(gt.get(frame, []))
        pred_boxes = list(pred.get(frame, []))
        total_pred += len(pred_boxes)

        gt_ids = [b.track_id for b in gt_boxes]
        pred_ids = [b.track_id for b in pred_boxes]
        matched: dict[int, int] = {}

        # Continuation: keep previous identity pairs still above threshold.
        for gi, gid in enumerate(gt_ids):
            pid = prev_pairs.get(gid)
            if pid is not None and pid in pred_ids:
                pj = pred_ids.index(pid)
                if _iou_for_counts(gt_boxes[gi].box, pred_boxes[pj].box) >= iou_thres:
                    matched[gi] = pj

        free_gt = [i for i in range(len(gt_boxes)) if i not in matched]
        free_pred = [j for j in range(len(pred_boxes)) if j not in matched.values()]
        if free_gt and free_pred:
            sub = np.array(
                [
                    [
                        _iou_for_counts(gt_boxes[i].box, pred_boxes[j].box)
                        for j in free_pred
                    ]
                    for i in free_gt
                ]
            )
            _, pairs = best_assignment_bruteforce(sub)
            for a, b in pairs:
                if sub[a, b] >= iou_thres:
                    matched[free_gt[a]] = free_pred[b]

        prev_pairs = {}
        for gi, pj in matched.items():
            total_matches += 1
            iou_sum += _iou_for_counts(gt_boxes[gi].box, pred_boxes[pj].box)
            prev_pairs[gt_ids[gi]] = pred_ids[pj]
        for gi, gid in enumerate(gt_ids):
            pid = pred_ids[matched[gi]] if gi in matched else None
            timeline.setdefault(gid, []).append((frame, pid))

    num_gt = sum(len(entries) for entries in timeline.values())
    fn = num_gt - total_matches
    fp = total_pred - total_matches

    ids = 0
    frag = 0
    for entries in timeline.values():
        matched_ids = [pid for _, pid in entries if pid is not None]
        ids += sum(1 for x, y in zip(matched_ids, matched_ids[1:]) if x != y)
        # Miss runs strictly between two matched present frames.
        status = [pid is not None for _, pid in entries]
        seen_match = False
        open_gap = False
        for ok in status:
            if ok:
                if open_gap:
                    frag += 1
                    open_gap = False
                seen_match = True
            elif seen_match:
                open_gap = True
    return {
        "fp": fp,
        "fn": fn,
        "ids": ids,
        "frag": frag,
        "num_gt": num_gt,
        "num_matches": total_matches,
        "iou_sum": iou_sum,
    }


def fit_ground_reference(
    cloud: PointCloud,
    inlier_threshold: float = 0.15,
    iterations: int = 200,
    min_inlier_fraction: float = 0.25,
    seed: int | tuple = 0,
) -> tuple[PointCloud, GroundFit]:
    """RANSAC ground fit scoring one hypothesis at a time.

    The plain loop the batched ``fit_ground`` must reproduce bit for bit:
    one ``rng.choice`` triple per iteration, a skipped degenerate triple,
    the first strictly best inlier count kept, and after every hypothesis,
    degenerate ones too, the adaptive stop: once ``k`` hypotheses are drawn
    and ``k >= ceil(log(1 - 0.999) / log(1 - w**3))`` for the best inlier
    share ``w``, no more are drawn (never while ``w == 0``).  Then a
    least-squares refit over the winner's inliers.
    """

    def distances(normal: np.ndarray, offset: float) -> np.ndarray:
        return np.abs(positions @ normal + offset)

    n = len(cloud)
    if n < 3:
        raise ValueError(f"ground fitting needs at least 3 points, got {n}")
    rng = np.random.default_rng(seed)
    positions = cloud.positions

    best_count = 0
    best_plane: tuple[np.ndarray, float] | None = None
    drawn = 0
    for drawn in range(1, iterations + 1):
        idx = rng.choice(n, size=3, replace=False)
        p0, p1, p2 = positions[idx]
        normal = np.cross(p1 - p0, p2 - p0)
        norm = np.linalg.norm(normal)
        if not norm < 1e-12:
            normal = normal / norm
            count = int(np.sum(distances(normal, -float(normal @ p0)) <= inlier_threshold))
            if count > best_count:
                best_count = count
                best_plane = (normal, -float(normal @ p0))
        w3 = (best_count / n) ** 3
        if w3 >= 1.0 or (w3 > 0.0 and drawn >= math.ceil(math.log(1 - 0.999) / math.log1p(-w3))):
            break

    if best_plane is None or best_count / n < min_inlier_fraction:
        return cloud, GroundFit(found=False, hypotheses=drawn)

    inliers = distances(*best_plane) <= inlier_threshold
    centroid = positions[inliers].mean(axis=0)
    _, _, vt = np.linalg.svd(positions[inliers] - centroid, full_matrices=False)
    normal, offset = vt[-1], -float(vt[-1] @ centroid)
    refined = distances(normal, offset) <= inlier_threshold

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


def recall_sweep_reference(
    gt: Mapping, pred: Mapping, cfg: EvalConfig
) -> MetricsReport:
    """Recall sweep that filters the results and evaluates every sequence
    anew at each distinct score, with no state shared between
    thresholds.  Inputs are ``sequence -> frame -> boxes``; every result
    box needs a score."""
    scores = sorted(
        {float(b.score) for frames in pred.values() for boxes in frames.values() for b in boxes},
        reverse=True,
    ) or [0.0]
    candidates: list[tuple[float, SequenceCounts]] = []
    for threshold in scores:
        filtered = {
            name: {f: [b for b in boxes if b.score >= threshold] for f, boxes in frames.items()}
            for name, frames in pred.items()
        }
        candidates.append((threshold, evaluate_sequences(gt, filtered, cfg.iou_thres)))

    rows: list[RecallRow] = []
    best: tuple[float, SequenceCounts] | None = None
    for k in range(1, cfg.num_recall_steps + 1):
        target = k / cfg.num_recall_steps
        eligible = [(c.recall, t, c) for t, c in candidates if c.recall >= target - 1e-12]
        if eligible:
            _, threshold, counts = min(eligible, key=lambda item: (item[0], -item[1]))
        else:
            threshold, counts = candidates[-1]
        rows.append(RecallRow(
            recall_target=target, threshold=threshold, mota=counts.mota, motp=counts.motp,
            smota=smota_value(counts, target),
            fp=counts.fp, fn=counts.fn, ids=counts.ids,
        ))
        if best is None or counts.mota > best[1].mota:
            best = (threshold, counts)

    def mean(values: list[float]) -> float:
        return math.fsum(values) / len(values)

    assert best is not None
    return MetricsReport(
        iou_thres=cfg.iou_thres, category=cfg.category, rows=rows,
        samota=100.0 * mean([r.smota for r in rows]),
        amota=100.0 * mean([r.mota for r in rows]),
        amotp=100.0 * mean([r.motp for r in rows]),
        mota=best[1].mota, motp=best[1].motp, ids=best[1].ids, frag=best[1].frag,
    )
