"""Correctness checks, computed apart from the package.

Nothing here calls the package's geometry, assignment, metrics or flow
code: boxes are parsed from the label text directly, IoU is computed by
clipping footprints in their own way, nearest neighbours by brute force and
optimal assignments by ``scipy.optimize.linear_sum_assignment``.  Each check
returns a list of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import math
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

IOU_THRESHOLD = 0.25


# --- label files -----------------------------------------------------------


def read_rows(path: Path) -> list[tuple[int, int, np.ndarray, float | None]]:
    """Rows of a tracking label file as ``(frame, id, box, score)``.

    ``box`` is ``(x, y, z, l, w, h, yaw)`` in a z-up frame: the camera
    frame's ground plane (x, z) becomes (x, y) here, and z is the height of
    the box centre above the camera's bottom face level.
    """
    rows = []
    for line in Path(path).read_text().splitlines():
        f = line.split()
        if not f:
            continue
        h, w, l = float(f[10]), float(f[11]), float(f[12])
        x, y, z, ry = float(f[13]), float(f[14]), float(f[15]), float(f[16])
        box = np.array([x, z, -y + h / 2.0, l, w, h, -ry])
        rows.append((int(f[0]), int(f[1]), box, float(f[17]) if len(f) > 17 else None))
    return rows


def by_frame(rows) -> dict[int, list]:
    frames = defaultdict(list)
    for row in rows:
        frames[row[0]].append(row)
    return frames


# --- IoU -------------------------------------------------------------------


def _footprint(box: np.ndarray) -> list[tuple[float, float]]:
    x, y, _, l, w, _, yaw = box
    c, s = math.cos(yaw), math.sin(yaw)
    return [
        (x + c * dl - s * dw, y + s * dl + c * dw)
        for dl, dw in ((l / 2, w / 2), (-l / 2, w / 2), (-l / 2, -w / 2), (l / 2, -w / 2))
    ]


def _clip(subject, a, b):
    """Part of a convex polygon on the left of the directed line a -> b."""
    def side(p):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    out = []
    for i, p in enumerate(subject):
        q = subject[(i + 1) % len(subject)]
        sp, sq = side(p), side(q)
        if sp >= 0:
            out.append(p)
        if (sp >= 0) != (sq >= 0):
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _area(poly) -> float:
    return 0.5 * abs(
        sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(poly, poly[1:] + poly[:1]))
    )


def iou(a: np.ndarray, b: np.ndarray) -> float:
    """3D IoU of two yawed boxes: footprint overlap times height overlap."""
    dz = min(a[2] + a[5] / 2, b[2] + b[5] / 2) - max(a[2] - a[5] / 2, b[2] - b[5] / 2)
    if dz <= 0 or math.dist(a[:2], b[:2]) > (math.hypot(a[3], a[4]) + math.hypot(b[3], b[4])) / 2:
        return 0.0
    poly = _footprint(a)
    fb = _footprint(b)
    for i in range(4):
        if len(poly) < 3:
            return 0.0
        poly = _clip(poly, fb[i], fb[(i + 1) % 4])
    inter = (_area(poly) if len(poly) >= 3 else 0.0) * dz
    union = a[3] * a[4] * a[5] + b[3] * b[4] * b[5] - inter
    return inter / union


# --- tracking outputs ------------------------------------------------------


def check_track_file(path: Path, warmup_frames: int) -> list[str]:
    """``(frame, id)`` is unique and no id comes back after its track died.

    A confirmed track is reported in every frame it lives, coasting
    included, so after the warm-up the frames of one id form one unbroken
    run.  The first ``warmup_frames`` frames are left out: there every live
    tracklet is reported, confirmed or not.
    """
    failures = []
    seen = set()
    frames_of = defaultdict(list)
    for frame, track_id, _, _ in read_rows(path):
        if (frame, track_id) in seen:
            failures.append(f"duplicate row for frame {frame}, id {track_id}")
        seen.add((frame, track_id))
        if frame >= warmup_frames:
            frames_of[track_id].append(frame)
    for track_id, frames in frames_of.items():
        frames = sorted(set(frames))
        if frames[-1] - frames[0] + 1 != len(frames):
            failures.append(f"id {track_id} is reused after a gap: frames {frames[:3]}...{frames[-3:]}")
    return failures[:5]


def clear_mota(gt_path: Path, result_path: Path) -> float:
    """CLEAR MOTA at IoU 0.25 of every result row against the ground truth.

    A ground-truth id keeps last frame's partner while their IoU clears the
    threshold; the rest is matched for the largest total IoU.
    """
    gt, res = by_frame(read_rows(gt_path)), by_frame(read_rows(result_path))
    fp = fn = ids = n_gt = 0
    last_partner: dict[int, int] = {}
    prev_pairs: dict[int, int] = {}
    for frame in sorted(set(gt) | set(res)):
        g, r = gt.get(frame, []), res.get(frame, [])
        n_gt += len(g)
        r_index = {row[1]: j for j, row in enumerate(r)}
        pairs = {}
        for i, row in enumerate(g):
            j = r_index.get(prev_pairs.get(row[1]))
            if j is not None and j not in pairs.values() and iou(row[2], r[j][2]) >= IOU_THRESHOLD:
                pairs[i] = j
        free_g = [i for i in range(len(g)) if i not in pairs]
        free_r = [j for j in range(len(r)) if j not in pairs.values()]
        if free_g and free_r:
            m = np.array([[iou(g[i][2], r[j][2]) for j in free_r] for i in free_g])
            for a, b in zip(*linear_sum_assignment(m, maximize=True)):
                if m[a, b] >= IOU_THRESHOLD:
                    pairs[free_g[a]] = free_r[b]
        prev_pairs = {}
        for i, j in pairs.items():
            gid, rid = g[i][1], r[j][1]
            if gid in last_partner and last_partner[gid] != rid:
                ids += 1
            last_partner[gid] = rid
            prev_pairs[gid] = rid
        fp += len(r) - len(pairs)
        fn += len(g) - len(pairs)
    return 1.0 - (fp + fn + ids) / n_gt


def check_nearest_neighbour(prev, curr, max_distance, vectors, tol=1e-9) -> list[str]:
    """nn flow against a brute-force search: every previous point flows
    onto a current point at the smallest distance, or gets zero flow when
    that distance exceeds ``max_distance``.

    All squared distances come from one matrix product; the exact distance
    is then recomputed for every candidate within 1e-6 m^2 of the row's
    minimum, far above the product's rounding error, so ties and near-ties
    are judged exactly.
    """
    bad = 0
    curr_sq = (curr * curr).sum(axis=1)
    for start in range(0, len(prev), 1000):
        p, v = prev[start:start + 1000], vectors[start:start + 1000]
        d2 = (p * p).sum(axis=1)[:, None] + curr_sq[None, :] - 2.0 * (p @ curr.T)
        rows, cols = np.nonzero(d2 <= d2.min(axis=1)[:, None] + 1e-6)
        nearest = np.full(len(p), np.inf)
        np.minimum.at(nearest, rows, np.linalg.norm(p[rows] - curr[cols], axis=1))
        landing = np.full(len(p), np.inf)
        np.minimum.at(landing, rows, np.linalg.norm(p[rows] + v[rows] - curr[cols], axis=1))
        in_range = nearest <= max_distance
        moved = np.linalg.norm(v, axis=1)
        bad += int(np.sum(in_range & ((np.abs(moved - nearest) > tol) | (landing > tol))))
        bad += int(np.sum(~in_range & (moved != 0.0)))
    return [f"nn flow of {bad} points differs from brute force"] if bad else []


def check_ground_plane(plane, ground_z: float, tolerance: float) -> list[str]:
    """The fitted plane is the scenario's flat ground ``z = ground_z``: tilt
    under 0.5 degrees, and height within ``tolerance`` 30 m ahead."""
    if plane is None:
        return ["no ground plane found"]
    a, b, c, d = plane
    tilt = math.degrees(math.acos(min(1.0, abs(c) / math.sqrt(a * a + b * b + c * c))))
    height = -(d + a * 30.0) / c
    if tilt > 0.5 or abs(height - ground_z) > tolerance:
        return [f"ground plane at z = {height:.3f} 30 m ahead, tilt {tilt:.3f} deg; true plane z = {ground_z}"]
    return []


def check_assignment(similarity: np.ndarray, pairs, iou_min: float, kept) -> list[str]:
    """The solver's pairs are one-to-one, cover the smaller side and reach
    the optimum total found by ``linear_sum_assignment``; the association
    keeps exactly the pairs of at least ``iou_min``."""
    rows, cols = similarity.shape
    pairs = [tuple(p) for p in pairs]
    wanted = sorted(p for p in pairs if similarity[p] >= iou_min)
    if sorted(tuple(p) for p in kept) != wanted:
        return [f"association keeps {len(kept)} pairs, expected the {len(wanted)} of IoU >= {iou_min}"]
    if rows == 0 or cols == 0:
        return [] if not pairs else ["pairs on an empty matrix"]
    if len({i for i, _ in pairs}) != len(pairs) or len({j for _, j in pairs}) != len(pairs):
        return ["assignment is not one-to-one"]
    if len(pairs) != min(rows, cols):
        return [f"assignment has {len(pairs)} pairs on a {rows}x{cols} matrix"]
    r, c = linear_sum_assignment(similarity, maximize=True)
    best = float(similarity[r, c].sum())
    chosen = float(sum(similarity[p] for p in pairs))
    if abs(best - chosen) > 1e-9 * max(1.0, best):
        return [f"assignment total {chosen!r} is below the optimum {best!r}"]
    return []


# --- eval-sweep --------------------------------------------------------------


def expected_sweep(gt_dir: Path, results_dir: Path, sequences, recall_steps: int = 40):
    """The sweep derived from what the generator injected.

    Every true result row matches its own car and nothing else, so the
    counts at a score threshold follow from the rows kept: true rows are
    matches, injected false positives are FP, the missing rest of the
    ground truth is FN, and an identity switch is a change of result id
    between consecutive kept rows of one car.  IoU has a closed form since a
    row keeps its car's size and yaw.
    """
    kept_rows = []  # (score, sequence, gt_id or None, frame, result_id, iou)
    n_gt = 0
    for seq in sequences:
        gt = {(f, i): box for f, i, box, _ in read_rows(gt_dir / f"{seq.name}.txt")}
        n_gt += len(gt)
        scored = {(f, i): (box, score) for f, i, box, score in read_rows(results_dir / f"{seq.name}.txt")}
        for row in seq.rows:
            box, score = scored[(row.frame, row.result_id)]
            overlap = 0.0
            if row.gt_id is not None:
                overlap = _shifted_iou(gt[(row.frame, row.gt_id)], box)
            kept_rows.append((score, seq.name, row.gt_id, row.frame, row.result_id, overlap))

    in_frame_order = sorted(kept_rows, key=lambda r: (r[1], r[3]))

    def counts(threshold):
        tp = fp = ids = 0
        iou_sum = 0.0
        last = {}
        for score, name, gt_id, frame, result_id, overlap in in_frame_order:
            if score < threshold:
                continue
            if gt_id is None:
                fp += 1
                continue
            tp += 1
            iou_sum += overlap
            key = (name, gt_id)
            if key in last and last[key] != result_id:
                ids += 1
            last[key] = result_id
        fn = n_gt - tp
        return dict(recall=tp / n_gt, mota=1.0 - (fp + fn + ids) / n_gt,
                    motp=iou_sum / tp if tp else 0.0, fp=fp, fn=fn, ids=ids)

    thresholds = sorted({r[0] for r in kept_rows}, reverse=True)
    table = {t: counts(t) for t in thresholds}
    rows = []
    for k in range(1, recall_steps + 1):
        target = k / recall_steps
        eligible = [t for t in thresholds if table[t]["recall"] >= target - 1e-12]
        t = min(eligible, key=lambda t: (table[t]["recall"], -t)) if eligible else thresholds[-1]
        c = table[t]
        rows.append(dict(target=target, threshold=t, smota=min(1.0, max(0.0, c["mota"] / target)), **c))
    samota = 100.0 * math.fsum(r["smota"] for r in rows) / len(rows)
    return rows, samota, max(r["mota"] for r in rows)


def _shifted_iou(gt: np.ndarray, res: np.ndarray) -> float:
    """IoU of two boxes of equal size and yaw, from their offset in the box
    frame: the overlap is a box of the size minus the offset."""
    l, w, h, yaw = gt[3], gt[4], gt[5], gt[6]
    dx, dy, dz = res[0] - gt[0], res[1] - gt[1], res[2] - gt[2]
    along = abs(dx * math.cos(yaw) + dy * math.sin(yaw))
    across = abs(-dx * math.sin(yaw) + dy * math.cos(yaw))
    inter = max(0.0, l - along) * max(0.0, w - across) * max(0.0, h - abs(dz))
    return inter / (2.0 * l * w * h - inter)


def check_sweep(record: dict, expected_rows, expected_samota: float) -> list[str]:
    """Every sweep row of the program's report against the derived one.

    A report row is ``[target, threshold, MOTA, MOTP, sMOTA, FP, FN, IDS]``.
    """
    failures = []
    got = record["rows"]
    if len(got) != len(expected_rows):
        return [f"report has {len(got)} sweep rows, expected {len(expected_rows)}"]
    for row, want in zip(got, expected_rows):
        target, threshold, mota, motp, smota, fp, fn, ids = row
        exact = (threshold, fp, fn, ids) == (want["threshold"], want["fp"], want["fn"], want["ids"])
        close = all(
            abs(a - b) <= 1e-9 for a, b in
            ((mota, want["mota"]), (motp, want["motp"]), (smota, want["smota"]))
        )
        if not (exact and close):
            failures.append(f"sweep row at recall {target:.3f}: got {row}, expected {want}")
    if abs(record["samota"] - expected_samota) > 1e-9:
        failures.append(f"sAMOTA {record['samota']!r}, expected {expected_samota!r}")
    return failures[:5]
