"""Equi-volume partitions of the unit square and stratified sampling.

The diagonal partition cuts [0,1]^2 with N-1 lines orthogonal to the main
diagonal, placed at offsets r_1 < ... < r_{N-1} (measured as x+y = r) chosen
so that every strip has area exactly 1/N.  Below the anti-diagonal the region
{x+y <= r} is a triangle of area r^2/2, which gives r_i = sqrt(2i/N) for
i <= N/2; above it the complementary triangle gives r_i = 2 - sqrt(2(N-i)/N).
The module also provides the two reference partitions used for comparison:
vertical strips and the m x m jittered grid.

Sampling is one uniform point per cell.  Each cell draws from its own RNG
stream derived from (seed, cell index), so results do not depend on the order
in which cells are visited or on how many samples are requested.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

# Rejection sampling cap: a diagonal cell occupies at least 1/(2N) of its
# bounding box, so hitting this many misses for one point means the inputs
# are corrupt rather than unlucky.
MAX_ATTEMPTS_PER_POINT = 10**6

_STREAM_DIAGONAL = 0
_STREAM_VERTICAL = 1
_STREAM_JITTERED = 2


@dataclass(frozen=True)
class GeneratingSet:
    """Breakpoints r_1 < ... < r_{N-1} of the diagonal partition.

    Cell i is the strip {r_{i-1} <= x+y < r_i} intersected with the unit
    square, with the conventions r_0 = 0 and r_N = 2.
    """

    n: int
    breakpoints: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 cells, got n={self.n}")
        if len(self.breakpoints) != self.n - 1:
            raise ValueError("breakpoint count must be n - 1")
        prev = 0.0
        for r in self.breakpoints:
            if not (prev < r < 2.0):
                raise ValueError("breakpoints must be strictly increasing in (0, 2)")
            prev = r

    def boundary(self, i: int) -> float:
        """Lower boundary offset r_i, extended by r_0 = 0 and r_N = 2."""
        if i == 0:
            return 0.0
        if i == self.n:
            return 2.0
        return self.breakpoints[i - 1]


def generating_set(n: int) -> GeneratingSet:
    """Breakpoints of the N-cell equi-volume diagonal partition.

    For 2i <= N the cut sits below the anti-diagonal at sqrt(2i/N); otherwise
    it mirrors the complementary cut at 2 - sqrt(2(N-i)/N).  Both branches
    compute the same square root for mirrored indices, so the symmetry
    r_i + r_{N-i} = 2 holds exactly in floating point.
    """
    if n < 2:
        raise ValueError(f"need at least 2 cells, got n={n}")
    breakpoints = []
    for i in range(1, n):
        if 2 * i <= n:
            breakpoints.append(math.sqrt(2.0 * i / n))
        else:
            breakpoints.append(2.0 - math.sqrt(2.0 * (n - i) / n))
    return GeneratingSet(n=n, breakpoints=tuple(breakpoints))


def cell_of(gs: GeneratingSet, x: float, y: float) -> int:
    """Index of the strip containing (x, y); strips are closed below, open above.

    The single exception is the corner (1,1) with x+y = 2 = r_N, which
    belongs to the last cell.  Points outside the closed unit square are
    rejected.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"point ({x}, {y}) outside the unit square")
    return bisect_right(gs.breakpoints, x + y) + 1


def cell_area(gs: GeneratingSet, i: int) -> float:
    """Area of cell i, computed from the triangle areas below each cut."""
    if not 1 <= i <= gs.n:
        raise ValueError(f"cell index {i} out of range 1..{gs.n}")
    return _area_below(gs.boundary(i)) - _area_below(gs.boundary(i - 1))


def _area_below(r: float) -> float:
    """Area of {x+y <= r} within the unit square."""
    if r <= 1.0:
        return r * r / 2.0
    return 1.0 - (2.0 - r) * (2.0 - r) / 2.0


def _cell_stream(seed: int, stream: int, cell: int) -> np.random.Generator:
    """Independent per-cell generator; stream tags keep partition kinds apart."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, cell)))


def _diagonal_cell_batch(gs: GeneratingSet, i: int, count: int, seed: int) -> np.ndarray:
    """count uniform points from diagonal cell i, shape (count, 2).

    Rejection from the cell's bounding box [max(0, r_{i-1}-1), min(1, r_i)]^2.
    Acceptance is area / box_area >= 1/(2N); draws are batched but consumed in
    stream order, so the first accepted point never depends on count.
    """
    r_lo = gs.boundary(i - 1)
    r_hi = gs.boundary(i)
    lo = max(0.0, r_lo - 1.0)
    hi = min(1.0, r_hi)
    width = hi - lo
    accept_p = (1.0 / gs.n) / (width * width)
    rng = _cell_stream(seed, _STREAM_DIAGONAL, i)

    out = np.empty((count, 2), dtype=np.float64)
    filled = 0
    attempts = 0
    budget = MAX_ATTEMPTS_PER_POINT * count
    while filled < count:
        need = count - filled
        draw = min(int(need / accept_p * 1.2) + 32, budget - attempts)
        if draw <= 0:
            raise RuntimeError(
                f"rejection sampling for cell {i} of n={gs.n} exceeded "
                f"{MAX_ATTEMPTS_PER_POINT} attempts per point"
            )
        u = lo + width * rng.random((draw, 2))
        s = u[:, 0] + u[:, 1]
        ok = (s >= r_lo) & (s < r_hi)
        taken = u[ok][:need]
        out[filled:filled + taken.shape[0]] = taken
        filled += taken.shape[0]
        attempts += draw
    return out


def sample_stratified_batch(gs: GeneratingSet, count: int, seed: int) -> np.ndarray:
    """count independent stratified samples, shape (count, n, 2)."""
    pts = np.empty((count, gs.n, 2), dtype=np.float64)
    for i in range(1, gs.n + 1):
        pts[:, i - 1, :] = _diagonal_cell_batch(gs, i, count, seed)
    return pts


def sample_vertical_batch(n: int, count: int, seed: int) -> np.ndarray:
    """count samples of the vertical-strip partition, shape (count, n, 2)."""
    if n < 1:
        raise ValueError(f"need at least 1 strip, got n={n}")
    pts = np.empty((count, n, 2), dtype=np.float64)
    for i in range(1, n + 1):
        u = _cell_stream(seed, _STREAM_VERTICAL, i).random((count, 2))
        pts[:, i - 1, 0] = (i - 1 + u[:, 0]) / n
        pts[:, i - 1, 1] = u[:, 1]
    return pts


def sample_jittered_batch(m: int, count: int, seed: int) -> np.ndarray:
    """count samples of the m x m jittered grid, shape (count, m*m, 2).

    Cell k (1-based) covers [a/m, (a+1)/m] x [b/m, (b+1)/m] with
    a, b = divmod(k-1, m): x-major enumeration.
    """
    if m < 1:
        raise ValueError(f"need at least a 1x1 grid, got m={m}")
    n = m * m
    pts = np.empty((count, n, 2), dtype=np.float64)
    for k in range(1, n + 1):
        a, b = divmod(k - 1, m)
        u = _cell_stream(seed, _STREAM_JITTERED, k).random((count, 2))
        pts[:, k - 1, 0] = (a + u[:, 0]) / m
        pts[:, k - 1, 1] = (b + u[:, 1]) / m
    return pts


def sample_partition(kind: str, n: int, count: int, seed: int) -> np.ndarray:
    """count samples of the n-cell partition of the given kind, shape (count, n, 2).

    kind is "diagonal", "vertical" or "jittered"; the jittered grid needs a
    square n.  Cells appear in index order along axis 1.
    """
    if kind == "diagonal":
        return sample_stratified_batch(generating_set(n), count, seed)
    if kind == "vertical":
        return sample_vertical_batch(n, count, seed)
    if kind == "jittered":
        m = math.isqrt(n)
        if m * m != n:
            raise ValueError(f"jittered partition needs a square point count, got n={n}")
        return sample_jittered_batch(m, count, seed)
    raise ValueError(f"unknown partition kind: {kind!r}")
