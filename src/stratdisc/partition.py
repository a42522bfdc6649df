"""Equi-volume partitions of the unit square and stratified sampling.

The diagonal partition cuts [0,1]^2 with N-1 lines orthogonal to the main
diagonal, placed at offsets r_1 < ... < r_{N-1} (measured as x+y = r) chosen
so that every strip has area exactly 1/N.  Below the anti-diagonal the region
{x+y <= r} is a triangle of area r^2/2, which gives r_i = sqrt(2i/N) for
i <= N/2; above it the complementary triangle gives r_i = 2 - sqrt(2(N-i)/N).
The module also samples the two reference partitions used for comparison:
vertical strips and the m x m jittered grid.  A sample lists its points in
cell order, so no routine here needs a cell lookup.

Sampling is one uniform point per cell.  The diagonal cells are sampled
exactly by inverting the same area function: an offset s whose area below
is uniform on the strip's share fixes the chord x+y = s, and given s the
point is uniform on that chord, so no draw is rejected.  Each cell draws
from its own RNG stream derived from (seed, cell index), so results do not
depend on the order in which cells are visited or on how many samples are
requested.  The streams are numpy's PCG64, computed without numpy.random by
the streams module, which is loaded on the first draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    r_i is the offset below which the square has area i/N (_offset_below).
    Both branches of that formula compute the same square root for mirrored
    indices, so the symmetry r_i + r_{N-i} = 2 holds exactly in floating point.
    """
    if n < 2:
        raise ValueError(f"need at least 2 cells, got n={n}")
    return GeneratingSet(n=n, breakpoints=tuple(_offset_below(np.arange(1, n), n).tolist()))


def _offset_below(m: np.ndarray, n: int) -> np.ndarray:
    """Offset s at which {x+y <= s} has area m/n in the unit square, for 0 <= m <= n.

    The inverse of the triangle areas: sqrt(2m/n) when 2m <= n, else
    2 - sqrt(2(n-m)/n).  Integer m gives the cuts; fractional m samples.
    """
    m = np.asarray(m, dtype=np.float64)
    return np.where(2.0 * m <= n, np.sqrt(2.0 * m / n), 2.0 - np.sqrt(2.0 * (n - m) / n))


def _cell_uniforms(seed: int, stream: int, n: int, count: int, start: int = 0) -> np.ndarray:
    """Uniforms on [0,1) for rows start..start+count-1 of n cells, shape (count, n, 2).

    Cell i (1-based) reads stream `stream` of streams.cell_uniforms; the
    stream tags keep partition kinds apart.
    """
    # imported here, so that the commands that never sample do not load it
    from .streams import cell_uniforms

    return cell_uniforms(seed, stream, n, count, start)


def sample_stratified_batch(gs: GeneratingSet, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Rows start..start+count-1 of stratified samples of generating_set(n), shape (count, n, 2).

    Cell i draws the offset s = x+y so that the area below it is uniform on
    [(i-1)/N, i/N), then a uniform point on the chord x+y = s.  s is clamped
    below r_i because (i-1) + u rounds to i when u is within an ulp of 1.
    """
    n = gs.n
    u = _cell_uniforms(seed, _STREAM_DIAGONAL, n, count, start)
    cuts_hi = np.append(gs.breakpoints, 2.0)
    s = np.minimum(_offset_below(np.arange(n) + u[..., 0], n), np.nextafter(cuts_hi, 0.0))
    lo = np.maximum(s - 1.0, 0.0)
    x = lo + (np.minimum(s, 1.0) - lo) * u[..., 1]
    return np.stack([x, s - x], axis=-1)


def sample_vertical_batch(n: int, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Rows start..start+count-1 of vertical-strip samples, shape (count, n, 2)."""
    if n < 1:
        raise ValueError(f"need at least 1 strip, got n={n}")
    u = _cell_uniforms(seed, _STREAM_VERTICAL, n, count, start)
    return np.stack([(np.arange(n) + u[..., 0]) / n, u[..., 1]], axis=-1)


def sample_jittered_batch(m: int, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Rows start..start+count-1 of m x m jittered-grid samples, shape (count, m*m, 2).

    Cell k (1-based) covers [a/m, (a+1)/m] x [b/m, (b+1)/m] with
    a, b = divmod(k-1, m): x-major enumeration.
    """
    if m < 1:
        raise ValueError(f"need at least a 1x1 grid, got m={m}")
    a, b = np.divmod(np.arange(m * m), m)
    u = _cell_uniforms(seed, _STREAM_JITTERED, m * m, count, start)
    return np.stack([(a + u[..., 0]) / m, (b + u[..., 1]) / m], axis=-1)


def sample_partition(kind: str, n: int, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Rows start..start+count-1 of samples of the n-cell partition `kind`, shape (count, n, 2).

    kind is "diagonal", "vertical" or "jittered"; the jittered grid needs a
    square n.  Cells appear in index order along axis 1.
    """
    if kind == "diagonal":
        return sample_stratified_batch(generating_set(n), count, seed, start)
    if kind == "vertical":
        return sample_vertical_batch(n, count, seed, start)
    if kind == "jittered":
        m = math.isqrt(n)
        if m * m != n:
            raise ValueError(f"jittered partition needs a square point count, got n={n}")
        return sample_jittered_batch(m, count, seed, start)
    raise ValueError(f"unknown partition kind: {kind!r}")
