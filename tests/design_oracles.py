"""Cell-by-cell references for the vectorized score-grid helpers in
``svoed.design``; property tests compare the two."""

import numpy as np

NEIGHBOR_OFFSETS = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                         if (di, dj) != (0, 0))


def local_maxima_loop(grid):
    """Defined cells none of their eight defined neighbors exceeds, by value
    descending."""
    G = np.asarray(grid, dtype=float)
    ni, nj = G.shape
    found = []
    for i in range(ni):
        for j in range(nj):
            v = G[i, j]
            if np.isnan(v):
                continue
            ok = True
            for di, dj in NEIGHBOR_OFFSETS:
                a, b = i + di, j + dj
                if 0 <= a < ni and 0 <= b < nj and not np.isnan(G[a, b]) and G[a, b] > v:
                    ok = False
                    break
            if ok:
                found.append((i, j))
    found.sort(key=lambda ij: -G[ij])
    return found


def pair_score_grid_loop(candidates, values, size):
    """Each pair's value at (i, j) and (j, i), in candidate order; NaN elsewhere."""
    grid = np.full((size, size), np.nan)
    for (i, j), v in zip(candidates, values):
        grid[i, j] = v
        grid[j, i] = v
    return grid
