"""Equi-volume partitions of the unit square and stratified sampling.

The diagonal partition cuts [0,1]^2 with lines orthogonal to the main
diagonal, at offsets 0 = r_0 < r_1 < ... < r_N = 2 (measured as x+y = r)
chosen so that every strip has area exactly 1/N; r_0 and r_N are the
square's corners.  Below the anti-diagonal the region {x+y <= r} is a
triangle of area r^2/2, which gives r_i = sqrt(2i/N) for i <= N/2; above it
the complementary triangle gives r_i = 2 - sqrt(2(N-i)/N).  The module also
samples the two reference partitions used for comparison, vertical strips
and the m x m jittered grid, both as grids of equal boxes.  A sample lists
its points in cell order, so no routine here needs a cell lookup.

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
import numbers
from dataclasses import dataclass, field

import numpy as np

_STREAM_DIAGONAL = 0
_STREAM_VERTICAL = 1
_STREAM_JITTERED = 2
# verify's check points: a tag that no partition uses
_STREAM_CHECKS = 3

# the partition kinds sample_partition accepts
PARTITIONS = ("diagonal", "vertical", "jittered")


@dataclass(frozen=True)
class GeneratingSet:
    """Cuts 0 = r_0 < r_1 < ... < r_N = 2 of the N-cell diagonal partition.

    Cell i is the strip {r_{i-1} <= x+y < r_i} intersected with the unit
    square.  n alone fixes the partition: cuts is the read-only float64
    array of r_i, the offset below which the square has area i/N
    (_offset_below), so r_0 = 0 and r_N = 2 exactly.  Both branches of that
    formula compute the same square root for mirrored indices, so the
    symmetry r_i + r_{N-i} = 2 holds exactly in floating point.
    """

    n: int
    cuts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.n, numbers.Real) and float(self.n).is_integer()):
            raise ValueError(f"n must be an integer, got n={self.n!r}")
        n = int(self.n)
        if n < 2:
            raise ValueError(f"need at least 2 cells, got n={n}")
        cuts = _offset_below(np.arange(n + 1), n)
        cuts.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cuts", cuts)

    def boundary(self, i: int) -> float:
        """Cut offset r_i, for 0 <= i <= N."""
        if not 0 <= i <= self.n:
            raise ValueError(f"cut index must be in 0..{self.n}, got {i}")
        return float(self.cuts[i])


def generating_set(n: int) -> GeneratingSet:
    """The N-cell equi-volume diagonal partition."""
    return GeneratingSet(n)


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
    s = np.minimum(_offset_below(np.arange(n) + u[..., 0], n), np.nextafter(gs.cuts[1:], 0.0))
    lo = np.maximum(s - 1.0, 0.0)
    x = lo + (np.minimum(s, 1.0) - lo) * u[..., 1]
    return np.stack([x, s - x], axis=-1)


def _grid_batch(cols: int, rows: int, stream: int, count: int, seed: int, start: int) -> np.ndarray:
    """Rows start..start+count-1 of samples of the cols x rows grid, shape (count, cols*rows, 2).

    Cell k (1-based) covers [a/cols, (a+1)/cols] x [b/rows, (b+1)/rows] with
    a, b = divmod(k-1, rows): x-major enumeration.
    """
    a, b = np.divmod(np.arange(cols * rows), rows)
    u = _cell_uniforms(seed, stream, cols * rows, count, start)
    return np.stack([(a + u[..., 0]) / cols, (b + u[..., 1]) / rows], axis=-1)


def sample_partition(kind: str, n: int, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Rows start..start+count-1 of samples of the n-cell partition `kind`, shape (count, n, 2).

    kind is one of PARTITIONS.  "vertical" is the n x 1 grid of strips and
    "jittered" the m x m grid, which needs n = m*m.  Cells appear in index
    order along axis 1.  n is checked against the spawn key before any O(n) array.
    """
    from .streams import _check_spawn_key

    _check_spawn_key(seed, n)
    if kind == "diagonal":
        return sample_stratified_batch(generating_set(n), count, seed, start)
    if kind not in PARTITIONS:
        raise ValueError(f"unknown partition kind: {kind!r}")
    if n < 1:
        raise ValueError(f"need at least 1 cell, got n={n}")
    if kind == "vertical":
        return _grid_batch(n, 1, _STREAM_VERTICAL, count, seed, start)
    m = math.isqrt(n)
    if m * m != n:
        raise ValueError(f"jittered partition needs a square point count, got n={n}")
    return _grid_batch(m, m, _STREAM_JITTERED, count, seed, start)
