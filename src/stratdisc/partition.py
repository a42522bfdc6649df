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
requested.

Cell i's stream is numpy's PCG64 seeded by
SeedSequence(entropy=seed, spawn_key=(stream, i)).  Building one
SeedSequence per cell costs tens of microseconds, so the seed words of every
cell are computed in one pass of SeedSequence's uint32 hash on numpy arrays,
one lane per cell, and handed to PCG64 as they are; the streams are the
SeedSequence ones bit for bit.  A sample row uses two 64-bit outputs of its
cell's stream, so the samplers take a row offset `start` and advance each
stream past the earlier rows: rows start .. start+count-1 of a draw equal
those rows of a longer draw from row 0, and a long run can be drawn in
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_STREAM_DIAGONAL = 0
_STREAM_VERTICAL = 1
_STREAM_JITTERED = 2

# numpy's SeedSequence: pool size and the constants of its uint32 hash
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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


def _seed_words(seed: int, stream: int, n: int) -> np.ndarray:
    """Seed words of cells 1..n, shape (n, 4) uint64.

    Row i-1 is SeedSequence(entropy=seed, spawn_key=(stream, i))
    .generate_state(4, np.uint64), the words PCG64 seeds itself from.  The
    SeedSequence hash runs here on uint32 arrays with one lane per cell; only
    the last entropy word, the cell index, differs between lanes.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if n > _MASK32:
        raise ValueError(f"cell index {n} does not fit the 32-bit spawn key word")
    # 32-bit words of the seed, least significant first, zero-padded to the
    # pool size as SeedSequence pads them when a spawn key follows
    words = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words)) + [stream]
    lanes = np.arange(1, n + 1, dtype=np.uint32)
    entropy = [np.full_like(lanes, w) for w in words] + [lanes]

    def hasher(hash_const: int, mult: int):
        def hashmix(value: np.ndarray) -> np.ndarray:
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = hash_const * mult & _MASK32
            value *= np.uint32(hash_const)
            return value ^ (value >> np.uint32(16))

        return hashmix

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    hashmix = hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[k % _POOL_SIZE]) for k in range(2 * _POOL_SIZE)], axis=1)
    return state.view(np.uint64)


def _cell_uniforms(seed: int, stream: int, n: int, count: int, start: int = 0) -> np.ndarray:
    """Uniforms on [0,1) for rows start..start+count-1 of n cells, shape (count, n, 2).

    Cell i (1-based) reads its own generator, PCG64 seeded as by
    SeedSequence(seed, spawn_key=(stream, i)); stream tags keep partition
    kinds apart.  Row r of a cell is outputs 2r and 2r+1 of its stream, so
    it depends on neither count nor start.
    """
    # numpy.random is imported here, not at module level, so that the CLI
    # commands that never sample do not load it
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Precomputed seed words, handed to PCG64 in place of a SeedSequence."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("seed words are held for PCG64's four uint64 words only")
            return self.words

    if start < 0:
        raise ValueError(f"row offset must be non-negative, got {start}")
    seed_words = _seed_words(seed, stream, n)
    u = np.empty((count, n, 2))
    for i, words in enumerate(seed_words):
        bit_generator = PCG64(SeedWords(words))
        if start:
            bit_generator.advance(2 * start)
        u[:, i] = Generator(bit_generator).random((count, 2))
    return u


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
