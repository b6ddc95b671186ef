"""Optimal one-to-one assignment by the Hungarian method.

The solver maximizes total similarity over rectangular matrices.  The matrix
is padded to square with zero-value dummy cells, negated, and solved with the
classic O(n^3) potential-based shortest-augmenting-path formulation.  Scans
run in index order, so among equal-total assignments the one reached first by
low row and column indices wins; results are fully deterministic.
"""

from __future__ import annotations

import numpy as np


def max_similarity_assignment(similarity: np.ndarray) -> list[tuple[int, int]]:
    """Assignment of rows to columns maximizing the total similarity.

    Parameters
    ----------
    similarity : np.ndarray
        Matrix of shape (n_rows, n_cols), finite.  May be empty in either
        dimension.

    Returns
    -------
    list of tuple
        Pairs ``(row, col)`` sorted by row.  Every row and column appears at
        most once; with a rectangular matrix the smaller side is fully
        assigned.

    Raises
    ------
    ValueError
        If the matrix contains non-finite entries.
    """
    similarity = np.asarray(similarity, dtype=float)
    if similarity.ndim != 2:
        raise ValueError(f"similarity must be 2-D, got shape {similarity.shape}")
    n_rows, n_cols = similarity.shape
    if n_rows == 0 or n_cols == 0:
        return []
    if not np.all(np.isfinite(similarity)):
        raise ValueError("similarity matrix must be finite")

    # Python lists and floats (IEEE doubles, so every sum and comparison is
    # the one numpy scalars would make, only faster).  Potentials u, v, the
    # column-to-row matching p and the cost rows are 1-based with a sentinel
    # at index 0.
    n = max(n_rows, n_cols)
    pad = [0.0] * (n - n_cols)
    cost = [[]] + [[0.0, *row, *pad] for row in (-similarity).tolist()]
    cost += [[0.0] * (n + 1)] * (n - n_rows)
    inf = float("inf")
    u, v = [0.0] * (n + 1), [0.0] * (n + 1)
    p, way = [0] * (n + 1), [0] * (n + 1)
    columns = range(1, n + 1)
    for i in columns:
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row = cost[i0]
            u_i0 = u[i0]
            delta = inf
            j1 = -1
            for j in columns:
                if used[j]:
                    continue
                cur = row[j] - u_i0 - v[j]
                m = minv[j]
                if cur < m:
                    minv[j] = m = cur
                    way[j] = j0
                if m < delta:
                    delta = m
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
