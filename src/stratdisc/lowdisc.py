"""Halton integration nodes and L2 discrepancy of finite point sets.

The discrepancy function of a point set P in [0,1]^2 is
D(x, y) = #(P in [0,x) x [0,y)) / N - x*y, and L2^2 is its squared L2 norm.
The pairwise (Warnock) identity evaluates the integral exactly:

    L2^2 = 1/9 - (2/N) sum_i (1-x_i^2)(1-y_i^2)/4
               + (1/N^2) sum_{i,j} (1-max(x_i,x_j))(1-max(y_i,y_j))

One kernel evaluates it on a stack of point sets, each sorted by x once, in
O(N) memory per set; a single set is a stack of one.  An exact integral of
D^2 over the cells of the points' own grid is kept alongside for
`stratdisc verify`, as an independent check; it never feeds production
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .partition import integer


@dataclass(frozen=True)
class HaltonConfig:
    """Node-set recipe: the count of Halton (2, 3) nodes, an int >= 1 (partition.integer)."""

    count: int = 40000

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", integer(self.count, "count", 1))


@dataclass(frozen=True)
class PointSet:
    """A finite multiset of points in the closed unit square, as an (n, 2) array."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) array of points, got shape {pts.shape}")
        # NaN fails every comparison, so only this form of the test refuses it
        if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):
            raise ValueError("points must lie in the closed unit square")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _radical_inverse_block(base: int, count: int) -> np.ndarray:
    """Van der Corput radical inverses of indices 1..count.

    The digit-reversed fraction of each index, with the digit loop
    vectorized; digits are accumulated least-significant first.
    """
    k = np.arange(1, count + 1, dtype=np.int64)
    inv = np.zeros(count, dtype=np.float64)
    f = 1.0
    while k.any():
        k, digit = np.divmod(k, base)
        f /= base
        inv += f * digit
    return inv


def halton(config: HaltonConfig = HaltonConfig()) -> PointSet:
    """Halton nodes h = 1 .. count in bases 2 and 3."""
    x = _radical_inverse_block(2, config.count)
    y = _radical_inverse_block(3, config.count)
    return PointSet(np.column_stack([x, y]))


def l2_discrepancy_sq_batch(points: np.ndarray) -> np.ndarray:
    """Pairwise identity applied to a stack of point sets, shape (R, n, 2) -> (R,).

    Within n * 2^-52 of the identity in exact arithmetic.  With u = 1 - x,
    1 - max(x_i, x_j) is min(u_i, u_j) exactly, since fl(1 - a) never
    increases with a.  Each set is sorted by x once, so u does not increase
    along it and min(u_i, u_j) = u_j for i < j, ties included: the double sum
    is sum_j u_j (v_j + 2 s_j) with s_j = sum_{i<j} min(v_i, v_j), built one
    offset at a time on (n, R) arrays with the replicates contiguous.  O(R n^2)
    time, O(R n) memory; a replicate's value has the same bits at any R, and
    the input is never written to.
    """
    n = points.shape[1]
    if n < 1:
        raise ValueError("point sets must be nonempty")
    x = points[..., 0]
    y = points[..., 1]
    linear = np.sum((1.0 - x * x) * (1.0 - y * y), axis=1) / 4.0
    order = np.argsort(x, axis=1)
    u = np.subtract(1.0, np.take_along_axis(x, order, axis=1).T, order="C")
    v = np.subtract(1.0, np.take_along_axis(y, order, axis=1).T, order="C")
    s = np.zeros_like(v)
    t = np.empty_like(v)
    for d in range(1, n):
        np.minimum(v[d:], v[:-d], out=t[:n - d])
        s[d:] += t[:n - d]
    # summed per contiguous replicate row: a column sum over (n, R) adds a
    # lone replicate pairwise but a stack of them row by row
    pairwise = np.sum(((2.0 * s + v) * u).T.copy(), axis=1)
    return 1.0 / 9.0 - 2.0 * linear / n + pairwise / (n * n)


def l2_discrepancy_sq_cells(ps: PointSet) -> float:
    """L2^2 of ps as the integral of D^2 over the cells of the points' own grid.

    On each cell [x0, x1] x [y0, y1] of (0, sorted x, 1) x (0, sorted y, 1)
    the fraction c of points in [0,x) x [0,y) is constant, so the integral
    of (c - xy)^2 over it is

        c^2 (x1 - x0)(y1 - y0) - 2c (x1^2 - x0^2)/2 (y1^2 - y0^2)/2
            + (x1^3 - x0^3)/3 (y1^3 - y0^3)/3,

    and the last term sums to 1/9 over the square.  Number the gaps
    between grid lines 0 .. N from the left: a point of x rank k (1-based)
    lies left of every x in gaps k .. N, and gaps between tied coordinates
    are empty.  So N c is a histogram of the (x rank, y rank) pairs with
    two cumsums, in O(N^2) time and memory.  The terms are added with fsum.
    The result shares no formula with the pairwise identity.
    """
    n = ps.n
    if n < 1:
        raise ValueError("point set must be nonempty")
    order = np.argsort(ps.points, axis=0)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(1, n + 1)[:, np.newaxis], axis=0)
    grid = np.vstack([np.zeros(2), np.take_along_axis(ps.points, order, axis=0), np.ones(2)])
    (dx, dy), (dx2, dy2) = np.diff(grid, axis=0).T, np.diff(grid * grid, axis=0).T
    c = np.bincount(rank[:, 0] * (n + 1) + rank[:, 1], minlength=(n + 1) ** 2).reshape(n + 1, n + 1)
    c = c.cumsum(axis=0).cumsum(axis=1) / n
    terms = c * (c * np.outer(dx, dy) - np.outer(dx2, dy2) / 2.0)
    return math.fsum([*terms.ravel().tolist(), 1.0 / 9.0])
