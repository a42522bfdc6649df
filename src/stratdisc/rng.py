"""A stand-in for numpy.random.default_rng(seed), computed without numpy.random.

`verify` draws its brute-force check sets from Generator, which returns the
bits numpy's generator returns for the same .random and .integers calls.
Its stream is the PCG64 of stratdisc.streams, seeded by SeedSequence(seed)
with an empty spawn key; numpy's own generator is the test oracle.
"""

from __future__ import annotations

import numpy as np

from .streams import _MASK32, _11, _cell_words, _halves, _lcg_jump, _mul_add, _step_sums, _xsl_rr


class Generator:
    """numpy.random.default_rng(seed), bit for bit, for .random and .integers.

    Like a cell stream of streams.cell_uniforms, the stream is held as the
    words P and D of _cell_words, so that output t reads the state
    C_(t+2)·D + P, and only the count of outputs drawn changes.  Calls
    return what numpy's generator returns for the same calls in the same
    order, including the upper half of a 64-bit output that a 32-bit draw
    keeps for the next one.
    """

    def __init__(self, seed: int) -> None:
        self._p_hi, self._p_lo, self._d_hi, self._d_lo = _cell_words(seed, None, 1, 1)
        self._drawn = 0
        self._half: int | None = None

    def _next64(self, count: int) -> np.ndarray:
        """The next count 64-bit outputs of the stream, shape (count, 1) uint64."""
        mult, plus = _lcg_jump(self._drawn + 2)
        steps_hi, steps_lo = _step_sums(count)
        t = _mul_add(_halves(mult), (steps_hi, steps_lo), _halves(plus))
        hi, lo = _mul_add(t, (self._d_hi, self._d_lo), (self._p_hi, self._p_lo))
        _xsl_rr(hi, lo, np.empty_like(lo), hi)
        self._drawn += count
        return lo

    def _next_uint32(self) -> int:
        """PCG64's next_uint32: the low half of a fresh output, whose high half the next call returns."""
        if self._half is not None:
            word, self._half = self._half, None
            return word
        word = int(self._next64(1)[0, 0])
        self._half = word >> 32
        return word & _MASK32

    def random(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Uniforms on [0, 1) of the given shape, one 64-bit output each: (next64 >> 11)·2^-53."""
        lo = self._next64(int(np.prod(shape)))
        lo >>= _11
        return np.multiply(lo, 2.0**-53).reshape(shape)

    def integers(self, low: int, high: int) -> int:
        """An integer in [low, high), for high - low <= 2^32: Lemire's draw on next_uint32.

        The product of a 32-bit word and the span is kept unless its low
        word falls below 2^32 mod span, where a new word is drawn; numpy
        skips that modulo when the low word is at least span, which is
        above it.  A span of 1 draws nothing.
        """
        span = high - low
        if not 1 <= span <= 2**32:
            raise ValueError(f"need 1 <= high - low <= 2^32, got {low}, {high}")
        if span == 1:
            return low
        m = self._next_uint32() * span
        while m & _MASK32 < 2**32 % span:
            m = self._next_uint32() * span
        return low + (m >> 32)
