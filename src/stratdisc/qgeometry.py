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
overlap_square_integrals integrates every q_i^2 over the unit square
exactly, the numbers `stratdisc verify` holds the closed-form strip
integrals against.
"""

from __future__ import annotations

import math

import numpy as np

from .partition import GeneratingSet

# Gauss-Legendre nodes and weights on [0, 1], exact up to degree 5.
_GL_NODES = np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)])
_GL_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0

# The lines that bound overlap_square_integrals' trapezoids, as y = c + s*x:
# the square's edges y = 0 and y = 1, then strip i's kinks y = r and
# y = r - x for r in {r_{i-1}, r_i}.
_LINE_SLOPES = np.array([0.0, 0.0, 0.0, 0.0, -1.0, -1.0])


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


def overlap_square_integrals(gs: GeneratingSet) -> np.ndarray:
    """The integrals of q_i^2 over the unit square, exactly, for i = 1 .. N.

    q_i is a quadratic between its kink lines x = r, y = r and x + y = r,
    for r in {r_{i-1}, r_i}.  x is cut into slabs at every crossing of
    those lines with each other and with the square's edges: 0, 1, r,
    r - 1 and r_i - r_{i-1}, clipped to [0, 1].  No two of the lines
    y = 0, 1, r and r - x cross inside a slab, so, clipped to the square
    and sorted at each x node, each two in a row bound a trapezoid on which
    q_i^2 is a quartic, and 3 x 3 Gauss-Legendre integrates it exactly.
    Every strip has 6 slabs of 5 trapezoids, empty ones included, so one
    pass of overlap_vector gives q_i at the nodes of all strips.  It runs
    on blocks of strips that keep its (points, N + 1) arrays within 64 KiB,
    below glibc's mmap threshold.
    """
    n = gs.n
    lo, hi = gs.cuts[:-1, np.newaxis], gs.cuts[1:, np.newaxis]
    zero, one = np.zeros_like(lo), np.ones_like(lo)
    edges = np.sort(np.clip(np.hstack([zero, one, lo, hi, lo - 1.0, hi - 1.0, hi - lo]), 0.0, 1.0), axis=1)
    width = np.diff(edges, axis=1)[..., np.newaxis]
    # (strip, slab, x node, line): the lines in order at each x node
    x = edges[:, :-1, np.newaxis] + width * _GL_NODES
    c = np.hstack([zero, one, lo, hi, lo, hi])[:, np.newaxis, np.newaxis, :]
    lines = np.sort(np.clip(c + _LINE_SLOPES * x[..., np.newaxis], 0.0, 1.0), axis=3)
    # (strip, slab, x node, trapezoid, y node)
    height = np.diff(lines, axis=3)[..., np.newaxis]
    y = lines[..., :-1, np.newaxis] + height * _GL_NODES
    weight = (width * _GL_WEIGHTS)[..., np.newaxis, np.newaxis] * height * _GL_WEIGHTS
    x, y, weight = (a.reshape(n, -1) for a in np.broadcast_arrays(x[..., np.newaxis, np.newaxis], y, weight))
    q = np.empty_like(x)
    step = max(1, 2**13 // (x.shape[1] * (n + 1)))
    for a in range(0, n, step):
        b = min(a + step, n)
        q[a:b] = overlap_vector(gs, x[a:b], y[a:b])[np.arange(b - a), :, np.arange(a, b)]
    return np.sum(weight * q * q, axis=1)
