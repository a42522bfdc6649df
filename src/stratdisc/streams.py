"""The per-cell random streams of the samplers, computed in numpy.

Cell i's stream is numpy's PCG64 seeded by
SeedSequence(entropy=seed, spawn_key=(stream, i)), reproduced bit for bit
without numpy.random.  The seed words of every cell come from one pass of
SeedSequence's uint32 hash on numpy arrays, one lane per cell.  PCG64 is a
128-bit LCG, so k steps are one multiply-add whose constants come from
jump-ahead (Brown, "Random number generation with arbitrary strides",
1994): every output of every cell is a product of a per-output constant
and a per-cell word, computed for all cells at once in uint64 halves and
turned into doubles by PCG64's output function.  numpy's own PCG64 is
the test oracle.  A sample row uses two 64-bit outputs of its cell's
stream, so a draw takes a row offset `start` and jumps each stream past
the earlier rows: rows start .. start+count-1 of a draw equal those rows
of a longer draw from row 0, and a long run can be drawn in blocks.
`verify` draws its check points from these streams too, at a stream tag
that no partition uses.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .partition import check_cell_count, integer

# numpy's SeedSequence: pool size and the constants of its uint32 hash
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64: the multiplier M of its 128-bit LCG
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = 2**64 - 1, 2**128 - 1
# outputs per tile of the sampler's (output, cell) grid
_TILE = 2**15


def _check_spawn_key(seed: int, n: int) -> int:
    """seed as an int >= 0 (partition.integer); then a cell count n past the spawn key word is refused."""
    seed = integer(seed, "seed", 0)
    check_cell_count(n)
    return seed


def _seed_words(seed: int, stream: int, n: int, first: int = 1) -> np.ndarray:
    """Seed words of cells first..n, shape (n - first + 1, 4) uint64.

    Row i - first is SeedSequence(entropy=seed, spawn_key=(stream, i))
    .generate_state(4, np.uint64), the words PCG64 seeds itself from.  The
    SeedSequence hash runs here on uint32 arrays with one lane per cell; only
    the last entropy word, the cell index, differs between lanes.
    """
    seed = _check_spawn_key(seed, n)
    # 32-bit words of the seed, least significant first, zero-padded to the
    # pool size as SeedSequence pads them when a spawn key follows
    words = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    lanes = np.arange(first, n + 1, dtype=np.uint32)
    entropy = [np.full_like(lanes, w) for w in (*words, stream)] + [lanes]

    def hasher(hash_const: int, mult: int):
        def hashmix(value: np.ndarray) -> np.ndarray:
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = hash_const * mult & _MASK32
            value *= hash_const
            return value ^ (value >> 16)

        return hashmix

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

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


def _lcg_jump(k: int) -> tuple[int, int]:
    """(M^k, C_k) mod 2^128, with C_k = 1 + M + ... + M^(k-1): k steps of the LCG.

    k steps take state x to M^k·x + C_k·inc.  Brown's square-and-multiply
    over the bits of k, as in PCG's advance.
    """
    mult, plus = 1, 0
    cur_mult, cur_plus = _PCG_MULT, 1
    while k:
        if k & 1:
            mult, plus = mult * cur_mult & _MASK128, (plus * cur_mult + cur_plus) & _MASK128
        cur_mult, cur_plus = cur_mult * cur_mult & _MASK128, (cur_mult + 1) * cur_plus & _MASK128
        k >>= 1
    return mult, plus


def _halves(c: int) -> tuple[np.uint64, np.uint64]:
    """(hi, lo) uint64 words of a 128-bit integer."""
    return np.uint64(c >> 64), np.uint64(c & _MASK64)


def _mul_add128(a, b, c, hi, lo, mid, tmp) -> None:
    """Write the (hi, lo) words of a·b + c mod 2^128 into hi and lo, in place.

    a, b and c are (hi, lo) pairs of uint64 words that broadcast to the
    shape of the four output and scratch arrays.  The high word of the
    low words' product is assembled from 32-bit limbs.
    """
    a0, a1 = a[1] & _MASK32, a[1] >> 32
    b0, b1 = b[1] & _MASK32, b[1] >> 32
    np.multiply(a0, b0, out=mid)
    mid >>= 32
    mid += np.multiply(a1, b0, out=tmp)
    np.bitwise_and(mid, _MASK32, out=hi)
    hi += np.multiply(a0, b1, out=tmp)
    hi >>= 32
    hi += np.right_shift(mid, 32, out=mid)
    hi += np.multiply(a1, b1, out=tmp)
    hi += np.multiply(a[0], b[1], out=tmp)
    hi += np.multiply(a[1], b[0], out=tmp)
    np.multiply(a[1], b[1], out=lo)
    lo += c[1]
    hi += np.less(lo, c[1], out=tmp)
    hi += c[0]


def _mul_add(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) word arrays of a·b + c mod 2^128; see _mul_add128."""
    shape = np.broadcast_shapes(*(np.shape(w) for w in (*a, *b, *c)))
    words = [np.empty(shape, np.uint64) for _ in range(4)]
    _mul_add128(a, b, c, *words)
    return words[0], words[1]


def _xsl_rr(hi, lo, tmp, rot) -> None:
    """PCG64's output function XSL-RR, in place: the 64-bit outputs of states (hi, lo) into lo.

    The xor of the state's words, rotated right by hi >> 58.  tmp and rot
    are scratch arrays of lo's shape; rot may be hi itself.
    """
    np.bitwise_xor(hi, lo, out=lo)
    np.right_shift(hi, 58, out=rot)
    np.subtract(64, rot, out=tmp)
    tmp &= 63  # a shift by 64 when rot = 0 is past the word
    np.left_shift(lo, tmp, out=tmp)
    lo >>= rot
    lo |= tmp


@lru_cache(maxsize=4)
def _step_sums(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) words of C_0 .. C_{k-1} as (k, 1) columns, by doubling: C_{j+L} = M^L·C_j + C_L."""
    hi, lo = np.zeros(1, np.uint64), np.zeros(1, np.uint64)
    while len(lo) < k:
        mult, plus = _lcg_jump(len(lo))
        ext_hi, ext_lo = _mul_add(_halves(mult), (hi, lo), _halves(plus))
        hi, lo = np.concatenate([hi, ext_hi]), np.concatenate([lo, ext_lo])
    hi.flags.writeable = lo.flags.writeable = False
    return hi[:k, None], lo[:k, None]


@lru_cache(maxsize=1)
def _cell_words(seed: int, stream: int, first: int, last: int) -> tuple[np.ndarray, ...]:
    """Words (P_hi, P_lo, D_hi, D_lo) of the streams of cells first..last, read-only.

    PCG64 seeds from the words (w0:w1, w2:w3) of _seed_words with
    inc = (w2:w3)·2 + 1 and P = w0:w1 + inc, and its output t reads the LCG
    state M^(t+2)·P + C_(t+2)·inc = C_(t+2)·D + P, with D = (M-1)·P + inc.
    Cached, so that a run drawn in blocks hashes its seeds once.
    """
    words = _seed_words(seed, stream, last, first=first)
    inc = words[:, 2] << 1 | words[:, 3] >> 63, words[:, 3] << 1 | 1
    p = _mul_add(_halves(1), (words[:, 0], words[:, 1]), inc)
    d = _mul_add(_halves(_PCG_MULT - 1), p, inc)
    for w in (*p, *d):
        w.flags.writeable = False
    return (*p, *d)


def cell_uniforms(seed: int, stream: int, n: int, count: int, start: int = 0) -> np.ndarray:
    """Uniforms on [0,1) for rows start..start+count-1 of n cells, shape (count, n, 2).

    Cell i (1-based) reads its own PCG64 stream, seeded as by
    SeedSequence(seed, spawn_key=(stream, i)).  Row r of a cell is outputs
    2r and 2r+1 of its stream, so it depends on neither count nor start.
    Output t of every cell reads the state C_(t+2)·D + P of _cell_words, so
    the draw is one product of a per-output constant and a per-cell word,
    taken in tiles of the (output, cell) grid that stay in cache, and
    PCG64's output function _xsl_rr turns it into 64 bits whose top 53 scale
    to [0, 1).
    """
    seed = _check_spawn_key(seed, n)
    count, start = integer(count, "count", 0), integer(start, "start", 0)
    u = np.empty((count, n, 2))
    cols = max(1, min(n, _TILE))
    rows = max(2, min(_TILE // cols & ~1, 2 * count))  # even: a tile holds whole sample rows
    steps_hi, steps_lo = _step_sums(rows)
    buf = np.empty((4, rows, cols), np.uint64)
    for c in range(0, n, cols):
        # words of at most _TILE cells are held, so at most 1 MiB outlives the draw
        p_hi, p_lo, d_hi, d_lo = _cell_words(seed, stream, c + 1, min(n, c + cols))
        for k in range(0, 2 * count, rows):
            out = u[k // 2:(k + rows) // 2, c:c + cols].transpose(0, 2, 1)
            hi, lo, tmp, rot = buf[:, :2 * out.shape[0], :out.shape[2]]
            # output t = 2·start + k + j reads C_(t+2) = C_(o+j) = M^o·C_j + C_o, o = 2·start + k + 2
            mult, plus = _lcg_jump(2 * start + k + 2)
            t = _mul_add(_halves(mult), (steps_hi[:len(hi)], steps_lo[:len(hi)]), _halves(plus))
            _mul_add128(t, (d_hi, d_lo), (p_hi, p_lo), hi, lo, tmp, rot)
            _xsl_rr(hi, lo, tmp, rot)
            lo >>= 11
            np.multiply(lo.reshape(out.shape), 2.0**-53, out=out)
    return u

