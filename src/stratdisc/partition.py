"""Equi-volume partitions of the unit square and stratified sampling.

The diagonal partition cuts [0,1]^2 with lines orthogonal to the main
diagonal, at offsets 0 = r_0 < r_1 < ... < r_N = 2 (measured as x+y = r)
chosen so that every strip has area exactly 1/N; r_0 and r_N are the
square's corners.  Below the anti-diagonal the region {x+y <= r} is a
triangle of area r^2/2, which gives r_i = sqrt(2i/N) for i <= N/2; above it
the complementary triangle gives r_i = 2 - sqrt(2(N-i)/N).  The reference
partitions, vertical strips and the m x m jittered grid, are each a Grid of
equal boxes, with its exact expectation.  Every partition is a frozen
object with a cell count n and sample(count, seed, start), which lists the
points in cell order.

Sampling is one uniform point per cell.  The diagonal cells are sampled
exactly by inverting the same area function: an offset s whose area below
is uniform on the strip's share fixes the chord x+y = s, and given s the
point is uniform on that chord, so no draw is rejected.  Each cell draws
from its own RNG stream derived from (seed, stream tag, cell index), so
results depend neither on the cell order nor on the number of samples.
The kind fixes the tag: 0 is the diagonal, 1 a Grid of one row, 2 any other
Grid and 3 verify's check points.  The streams are numpy's PCG64, computed
without numpy.random by the streams module, loaded on the first draw.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

MAX_CELLS = 2**32 - 1
# verify's check points: a tag that no partition uses
STREAM_CHECKS = 3


def integer(value: int, name: str = "n", least: int | None = None) -> int:
    """value as an int, refused unless integral (4.0, np.int64(4) pass) and >= least; an int is never made a float."""
    if not (isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())):
        raise ValueError(f"{name} must be an integer, got {name}={value!r}")
    if least is not None and int(value) < least:
        raise ValueError(f"need {name} >= {least}, got {name}={value!r}")
    return int(value)


def check_cell_count(n: int) -> None:
    """Refuse n > MAX_CELLS, before any O(n) array: a cell index is one 32-bit word of its spawn key."""
    if n > MAX_CELLS:
        raise ValueError(f"cell index {n} does not fit the 32-bit spawn key word")


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
        n = integer(self.n, least=2)
        check_cell_count(n)
        cuts = _offset_below(np.arange(n + 1), n)
        cuts.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cuts", cuts)

    def boundary(self, i: int) -> float:
        """Cut offset r_i, for 0 <= i <= N."""
        i = integer(i, "i")
        if not 0 <= i <= self.n:
            raise ValueError(f"cut index must be in 0..{self.n}, got {i}")
        return float(self.cuts[i])

    def sample(self, count: int, seed: int, start: int = 0) -> np.ndarray:
        """Rows start..start+count-1 of stratified samples, shape (count, n, 2); see sample_stratified_batch."""
        return sample_stratified_batch(self, count, seed, start)


def _offset_below(m: np.ndarray, n: int) -> np.ndarray:
    """Offset s at which {x+y <= s} has area m/n in the unit square, for 0 <= m <= n.

    The inverse of the triangle areas: sqrt(2m/n) when 2m <= n, else
    2 - sqrt(2(n-m)/n).  Integer m gives the cuts; fractional m samples.
    s is written over m when m is a float64 array.  Doubling is exact, so
    2n - 2m has the bits of 2(n-m), and 2m > n is m > n/2.
    """
    m = np.asarray(m, dtype=np.float64)
    upper = m > n / 2
    m *= 2.0
    np.subtract(2 * n, m, out=m, where=upper)
    m /= n
    np.sqrt(m, out=m)
    np.subtract(2.0, m, out=m, where=upper)
    return m


def sample_stratified_batch(gs: GeneratingSet, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Rows start..start+count-1 of stratified samples of gs, shape (count, n, 2).

    Cell i draws the offset s = x+y so that the area below it is uniform on
    [(i-1)/N, i/N), then a uniform point on the chord x+y = s.  s is clamped
    below r_i because (i-1) + u rounds to i when u is within an ulp of 1.
    The point x = lo + (min(s, 1) - lo)·u, lo = max(s - 1, 0), and y = s - x
    are written over the planes of the uniforms, which are returned.
    """
    # imported here, so that the commands that never sample do not load it
    from .streams import cell_uniforms

    n = gs.n
    u = cell_uniforms(seed, 0, n, count, start)
    x, y = u[..., 0], u[..., 1]  # the two uniforms until the point is written over them
    s = _offset_below(x + np.arange(n), n)
    np.minimum(s, np.nextafter(gs.cuts[1:], 0.0), out=s)
    lo = np.maximum(np.subtract(s, 1.0, out=x), 0.0, out=x)
    width = np.minimum(s, 1.0)
    width -= lo
    y *= width
    x += y
    np.subtract(s, x, out=y)
    return u


@dataclass(frozen=True)
class Grid:
    """The cols x rows grid of equal boxes, drawn from stream tag 1 if rows == 1, else 2.

    Cell k (1-based) covers [a/cols, (a+1)/cols] x [b/rows, (b+1)/rows] with
    a, b = divmod(k-1, rows): x-major enumeration.
    """

    cols: int
    rows: int
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cols", integer(self.cols, "cols", 1))
        object.__setattr__(self, "rows", integer(self.rows, "rows", 1))
        object.__setattr__(self, "n", self.cols * self.rows)
        check_cell_count(self.n)

    def sample(self, count: int, seed: int, start: int = 0) -> np.ndarray:
        """Rows start..start+count-1 of samples, shape (count, n, 2): one uniform point per box.

        The points are written over the uniforms they are drawn from.
        """
        from .streams import cell_uniforms

        u = cell_uniforms(seed, 1 if self.rows == 1 else 2, self.n, count, start)
        # (a, b) of every cell, then the scale of a box
        u += np.transpose(np.divmod(np.arange(self.n), self.rows))
        u /= (self.cols, self.rows)
        return u

    def expected_l2_sq(self) -> float:
        """E[L2^2] of a sample, (9N - (3 cols - 1)(3 rows - 1)) / (36 N^2), rounded once.

        The shares q_k of the boxes in [0,x] x [0,y] sum to N x y, whose
        integral is N/4, and the integrals of q_k^2 sum to (3 cols - 1)(3 rows - 1)/36.
        """
        return (9 * self.n - (3 * self.cols - 1) * (3 * self.rows - 1)) / (36 * self.n**2)


def _jittered(n: int) -> Grid:
    n = integer(n, least=1)
    m = math.isqrt(n)
    if m * m != n:
        raise ValueError(f"jittered partition needs a square point count, got n={n}")
    return Grid(m, m)


# each --partition kind's constructor from n; the command line resolves the name
PARTITIONS = {"diagonal": GeneratingSet, "vertical": lambda n: Grid(n, 1), "jittered": _jittered}
