"""Geometry of anchored boxes clipped by diagonal half-planes.

Everything here reduces to one question: how much of the box [0,x] x [0,y]
lies on or above the line u + v = r?  Writing g(u,v) = u + v - r, the answer
depends only on which of the box vertices B = (x,0), C = (x,y), D = (0,y)
lie strictly above the line (the origin A never does for r > 0):

    no vertex:   0
    C only:      g(x,y)^2 / 2
    B and C:     (g(x,y)^2 - g(x,0)^2) / 2
    C and D:     (g(x,y)^2 - g(0,y)^2) / 2
    B, C and D:  (g(x,y)^2 - g(x,0)^2 - g(0,y)^2) / 2

i.e. the big corner triangle minus whatever pokes out past the box edges.
All four cases collapse into the single expression

    (relu(x+y-r)^2 - relu(x-r)^2 - relu(y-r)^2) / 2

because the subtracted squares vanish exactly in the cases where the
corresponding vertex is outside.

On top of the clipped areas sit the per-cell overlap fractions of the
diagonal partition: q_i(x,y) is N times the area of cell i inside [0,x]x[0,y],
obtained as N * (V(r_{i-1}) - V(r_i)) with V(r_0) = x*y and V(r_N) = 0.
overlap_vector returns all N of them at once; q_i alone is its entry i - 1.
mean_square_overlap is the quadrature of q_i^2 that `stratdisc verify` holds
the closed-form strip integrals against.
"""

from __future__ import annotations

import math

import numpy as np

from .partition import GeneratingSet

# Grid rows per quadrature block in mean_square_overlap: three _CHUNK x grid
# float64 arrays, 0.19 MB at `verify`'s grid 1000.  That stays below glibc's
# mmap threshold: freeing a larger block would raise it and the heap's trim
# threshold, and keep later heap growth resident (0.8 MB more at 32 rows).
_CHUNK = 8


def intersection_area_grid(r: float | np.ndarray, x: float | np.ndarray, y: float | np.ndarray) -> np.ndarray:
    """Area of [0,x] x [0,y] on or above the line u + v = r.

    r, x and y are scalars or broadcastable arrays.  Always within [0, x*y];
    exact zero when the box never reaches the line and for degenerate boxes.

    Computed as ((g*g - bx*bx) - by*by) * 0.5 with g = relu(x + y - r),
    bx = relu(x - r) and by = relu(y - r), every pass in place: the call
    allocates the result g, of the broadcast shape of r, x and y, and one
    scratch array for bx that by reuses when their shapes agree.  It never
    writes to r, x or y.  Scalar inputs give an np.float64.
    """
    g = np.add(x, y, out=np.empty(np.broadcast_shapes(np.shape(r), np.shape(x), np.shape(y))))
    g -= r
    np.maximum(g, 0.0, out=g)
    bx = np.empty(np.broadcast_shapes(np.shape(x), np.shape(r)))
    by_shape = np.broadcast_shapes(np.shape(y), np.shape(r))
    _clip_area(g, r, ((x, bx), (y, bx if bx.shape == by_shape else np.empty(by_shape))))
    g *= 0.5
    return g[()]


def _clip_area(g: np.ndarray, r: float | np.ndarray,
               edges: tuple[tuple[float | np.ndarray, np.ndarray], ...]) -> None:
    """The clipped-area formula, in place: g = relu(x + y - r) in, twice the area out.

    Squares g and subtracts relu(side - r)^2 for each (side, scratch) pair
    in edges, computed in scratch.  Scaling by 2 is exact short of
    subnormals, so a caller may fold the halving into a later product, as
    N/2 times a difference of two results.  An edge with side <= r
    everywhere subtracts exact zeros, so a caller may leave it out.
    """
    g *= g
    for side, t in edges:
        np.subtract(side, r, out=t)
        np.maximum(t, 0.0, out=t)
        t *= t
        g -= t


def overlap_vector(gs: GeneratingSet, x: float | np.ndarray, y: float | np.ndarray) -> np.ndarray:
    """All overlap fractions (q_1, ..., q_N) at each point, in one kernel call.

    x and y are scalars or broadcastable arrays of shape S; the result has
    shape S + (N,), and row j holds the N fractions at point j.  Each value
    is bitwise the one a call on that point alone returns.
    """
    x = np.asarray(x, dtype=np.float64)[..., np.newaxis]
    y = np.asarray(y, dtype=np.float64)[..., np.newaxis]
    xy = x * y
    v = np.empty(xy.shape[:-1] + (gs.n + 1,), dtype=np.float64)
    v[..., :1] = xy
    v[..., 1:-1] = intersection_area_grid(gs.cuts[1:-1], x, y)
    v[..., -1] = 0.0
    return gs.n * (v[..., :-1] - v[..., 1:])


def mean_square_overlap(gs: GeneratingSet, grid: int = 2000) -> list[float]:
    """Midpoint-rule quadrature of q_i^2 over the unit square, for i = 1 .. N.

    The numeric cross-check for the closed-form strip integrals.  Rows are
    processed in blocks; within a block x + y is formed once, and each
    cut's doubled V from _clip_area is computed in place in one of two
    reused buffers, starting from 2xy, so q_i = (N/2) 2(V(r_{i-1}) - V(r_i))
    costs a few in-place passes.  The edge terms are left out at cuts
    r >= 1, where every x and y is below r.  Each grid row is summed on its
    own and the per-row sums of each strip are combined with fsum, so every
    value is bitwise that of a quadrature of that strip alone.
    """
    if grid < 10:
        raise ValueError(f"grid must be >= 10, got {grid}")
    n = gs.n
    mids = (np.arange(grid) + 0.5) / grid
    y_row = mids[np.newaxis, :]
    row_sums: list[list[float]] = [[] for _ in range(n)]
    rows = min(_CHUNK, grid)
    blocks = np.empty((3, rows, grid))
    bx, by = np.empty((rows, 1)), np.empty_like(y_row)
    for a in range(0, grid, _CHUNK):
        x_col = mids[a:a + _CHUNK, np.newaxis]
        s, v_prev, v_i = blocks[:, :len(x_col)]
        np.add(x_col, y_row, out=s)
        np.multiply(x_col, y_row, out=v_prev)
        v_prev *= 2.0
        for sums, r in zip(row_sums, gs.cuts[1:-1].tolist()):
            np.subtract(s, r, out=v_i)
            np.maximum(v_i, 0.0, out=v_i)
            _clip_area(v_i, r, ((x_col, bx[:len(x_col)]), (y_row, by)) if r < 1.0 else ())
            # q = (N/2) 2(V(r_{i-1}) - V(r_i)), squared, in v_prev's own buffer
            v_prev -= v_i
            v_prev *= n / 2
            v_prev *= v_prev
            sums.extend(np.sum(v_prev, axis=1).tolist())
            v_prev, v_i = v_i, v_prev
        v_prev *= n / 2  # cell N: V(r_N) = 0
        v_prev *= v_prev
        row_sums[-1].extend(np.sum(v_prev, axis=1).tolist())
    return [math.fsum(sums) / (grid * grid) for sums in row_sums]
