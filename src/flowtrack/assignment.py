"""Optimal one-to-one assignment by the Hungarian method.

The solver maximizes total similarity over rectangular matrices; the smaller
side is always fully assigned.  The dense scan pads a matrix to square with
zero-value dummy cells, negates it, and solves it with the classic O(n^3)
potential-based shortest-augmenting-path formulation.  Its scans run in index
order, so among equal-total assignments the one reached first by low row and
column indices wins.

A matrix with no negative entry is split first.  A zero cell adds nothing to
a total, so the optimum is the union of the optima of the connected
components of the graph whose edges are the positive cells (the clustering
step of multiple-hypothesis tracking, Reid, IEEE TAC 1979).  A component of
one row and one column is taken as is; every larger one is solved by the
dense scan on its sub-matrix, rows and columns in index order.  The rows left
over are then paired with the free columns in index order, on cells that
are all zero.  Tie rule: among equal-total assignments, each component
takes the dense scan's choice on its own sub-matrix, and zero cells go to
the leftover pairing; so where exact ties involve zero cells the pairs can
differ from those of the dense scan on the whole matrix, which a matrix
with a negative entry still gets.  Results are fully deterministic.
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
    if not np.isfinite(similarity).all():
        raise ValueError("similarity matrix must be finite")
    if (similarity < 0).any():
        return _dense_assignment(similarity)

    # Positive cells in row-major order.  A cell whose row and column hold
    # no other positive cell is a 1 x 1 component and a pair of its own.
    cell_rows, cell_cols = np.nonzero(similarity > 0)
    single = (np.bincount(cell_rows, minlength=n_rows)[cell_rows] == 1) & (
        np.bincount(cell_cols, minlength=n_cols)[cell_cols] == 1
    )
    pairs = list(zip(cell_rows[single].tolist(), cell_cols[single].tolist()))
    cell_rows, cell_cols = cell_rows[~single].tolist(), cell_cols[~single].tolist()

    # Union-find over the other cells: node i is row i, node n_rows + j is
    # column j.
    parent = list(range(n_rows + n_cols))

    def root(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for i, j in zip(cell_rows, cell_cols):
        parent[root(i)] = root(n_rows + j)
    components: dict[int, tuple[list[int], list[int]]] = {}
    for i in dict.fromkeys(cell_rows):
        components.setdefault(root(i), ([], []))[0].append(i)
    for j in sorted(set(cell_cols)):
        components[root(n_rows + j)][1].append(j)
    for sub_rows, sub_cols in components.values():
        sub_pairs = _dense_assignment(similarity[np.ix_(sub_rows, sub_cols)])
        pairs += [(sub_rows[a], sub_cols[b]) for a, b in sub_pairs]

    taken_rows = {i for i, _ in pairs}
    taken_cols = {j for _, j in pairs}
    pairs += zip(
        [i for i in range(n_rows) if i not in taken_rows],
        [j for j in range(n_cols) if j not in taken_cols],
    )
    pairs.sort()
    return pairs


def _dense_assignment(similarity: np.ndarray) -> list[tuple[int, int]]:
    """:func:`max_similarity_assignment` by one dense scan of the whole
    padded matrix; ``similarity`` is a finite 2-D float array."""
    # Python lists and floats (IEEE doubles, so every sum and comparison is
    # the one numpy scalars would make, only faster).  Potentials u, v, the
    # column-to-row matching p and the cost rows are 1-based with a sentinel
    # at index 0.
    n_rows, n_cols = similarity.shape
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
