"""Halton integration nodes and L2 discrepancy of finite point sets.

The discrepancy function of a point set P in [0,1]^2 is
D(x, y) = #(P in [0,x) x [0,y)) / N - x*y, and L2^2 is its squared L2 norm.
The pairwise (Warnock) identity evaluates the integral exactly:

    L2^2 = 1/9 - (2/N) sum_i (1-x_i^2)(1-y_i^2)/4
               + (1/N^2) sum_{i,j} (1-max(x_i,x_j))(1-max(y_i,y_j))

One kernel evaluates it on a stack of point sets, each sorted by x once, in
O(N) memory per set; a single set is a stack of one.  A midpoint-quadrature
brute force over anchor boxes is kept alongside for `stratdisc verify`, as
an independent check; it never feeds production numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Anchor rows per block of x*y products in brute_force_l2_sq, so that no
# second grid x grid array is built.
_ROWS = 64


@dataclass(frozen=True)
class HaltonConfig:
    """Node-set recipe: coprime bases, first index, and count."""

    bases: tuple[int, int] = (2, 3)
    start_index: int = 1
    count: int = 40000

    def __post_init__(self) -> None:
        b1, b2 = self.bases
        if b1 < 2 or b2 < 2:
            raise ValueError(f"bases must be >= 2, got {self.bases}")
        if math.gcd(b1, b2) != 1:
            raise ValueError(f"bases must be coprime, got {self.bases}")
        if self.start_index < 1:
            raise ValueError(f"start index must be >= 1, got {self.start_index}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


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


def _radical_inverse_block(base: int, start: int, count: int) -> np.ndarray:
    """Van der Corput radical inverses of indices start..start+count-1.

    The digit-reversed fraction of each index, with the digit loop
    vectorized; digits are accumulated least-significant first.
    """
    k = np.arange(start, start + count, dtype=np.int64)
    inv = np.zeros(count, dtype=np.float64)
    f = 1.0
    while k.any():
        k, digit = np.divmod(k, base)
        f /= base
        inv += f * digit
    return inv


def halton(config: HaltonConfig = HaltonConfig()) -> PointSet:
    """Halton nodes h = start_index .. start_index + count - 1."""
    b1, b2 = config.bases
    x = _radical_inverse_block(b1, config.start_index, config.count)
    y = _radical_inverse_block(b2, config.start_index, config.count)
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


def brute_force_l2_sq(ps: PointSet, grid: int) -> float:
    """Midpoint quadrature of D(x,y)^2 over a grid x grid lattice of anchors.

    The count table changes from one anchor row to the next only at the
    distinct x ranks of the points, at most min(n, grid + 1) of them.  Its
    rows are built as a 2-D prefix sum over a histogram of those ranks and
    gathered for every anchor row, so cost is O(grid^2 + n log n) and memory
    O(grid^2): the anchor products x*y are subtracted in place, a block of
    rows at a time.  Counts are exact integers, so the order of the prefix
    sums does not change any bit.
    """
    if ps.n < 1:
        raise ValueError("point set must be nonempty")
    if grid < 10:
        raise ValueError(f"grid must be >= 10, got {grid}")
    mids = (np.arange(grid) + 0.5) / grid
    # rank = number of anchor midpoints strictly greater than the coordinate,
    # i.e. the first anchor whose half-open box [0, mid) contains the point
    ix = np.searchsorted(mids, ps.points[:, 0], side="right")
    iy = np.searchsorted(mids, ps.points[:, 1], side="right")
    ranks, rank_of = np.unique(ix, return_inverse=True)
    # row 0 stays empty: anchor rows below every x rank count no point
    hist = np.zeros((ranks.size + 1, grid + 1), dtype=np.float64)
    np.add.at(hist, (rank_of + 1, iy), 1.0)
    table = hist.cumsum(axis=0).cumsum(axis=1)[:, :grid]
    deviation = table[np.searchsorted(ranks, np.arange(grid), side="right")]
    deviation /= ps.n
    for a in range(0, grid, _ROWS):
        deviation[a:a + _ROWS] -= mids[a:a + _ROWS, np.newaxis] * mids
    deviation *= deviation
    return float(np.mean(deviation))
