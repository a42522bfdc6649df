"""Closed-form expected squared L2 discrepancy of the diagonal partition.

For every N >= 2 the expectation decomposes as

    E[L2^2] = 1/(4N) - (1/N^2) * sum_{i=1}^N Q_i,      Q_i = integral of q_i^2

and each strip integral Q_i has an explicit elementary form.  The paper
prints five regimes: the first strip (the triangle at the origin), strips
below the anti-diagonal (2 <= i <= N/2), for odd N the middle strip that
straddles it (i = (N+1)/2), strips above it ((N+3)/2 <= i < N), and the last
strip, which contributes exactly 1/(15N).  The lower and upper regimes are
printed as cubics whose terms of size N^3 cancel to an O(1) result, and the
middle one as N^2 (1 - a)^2 times a quartic in a = sqrt((N-1)/N).  Three
equal forms, rationalised to be free of that cancellation, compute them
here: the lower form for 1 <= i <= N/2, which at i = 1 is the printed first
strip; the middle strip; and the upper form for (N+3)/2 <= i <= N, which at
i = N is 1/(15N) bit for bit.  The lower and upper forms are vectorised over
i.  The printed forms are the 50-digit oracle in tests/oracles.py.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterator, Sequence

import numpy as np

from .estimators import DiscrepancyEstimate, _exact_sum

# Strips per form call in _strip_blocks.  Each block's temporaries are
# 32 KiB arrays, under glibc's 128 KiB mmap threshold, so they are reused
# from the heap instead of being mapped and page-faulted afresh.
_BLOCK = 2**12

# Largest n the closed forms accept.  The strips are streamed at about
# 26 ns each, so n = 2^30 takes about 28 s on a 2-vCPU box; past 2^53 a
# float64 strip index would no longer be exact.
MAX_CLOSED_FORM_N = 2**30


def _require_n(n: int) -> int:
    """n as an int, refused unless integral and 2 <= n <= MAX_CLOSED_FORM_N;
    np.int64(4) and 4.0 pass as 4."""
    if not (isinstance(n, numbers.Real) and (isinstance(n, numbers.Integral) or float(n).is_integer())):
        raise ValueError(f"n must be an integer, got n={n!r}")
    if n < 2:
        raise ValueError(f"closed forms require n >= 2, got n={n}")
    if n > MAX_CLOSED_FORM_N:
        raise ValueError(f"closed forms accept n <= {MAX_CLOSED_FORM_N}, got n={n}")
    return int(n)


def _strip_indices(n: int, i: int | np.ndarray, lo: int, hi: int, regime: str) -> np.ndarray:
    """i as float64 (scalar or array), checked once to be integers with lo <= i <= hi.

    An integer dtype is integral already, so only other input is compared
    with its floor: the table's blocks of np.arange allocate nothing more.
    A refused index is printed in full, as given.
    """
    given = np.asarray(i)
    idx = given.astype(np.float64, copy=False)
    if idx.size and (idx.min() < lo or idx.max() > hi):
        bad = given.flat[idx.argmin() if idx.min() < lo else idx.argmax()]
        raise ValueError(f"{regime} strips are {lo} <= i <= {hi} for n={n}, got i={bad}")
    if given.dtype.kind not in "iu":
        fractional = idx != np.floor(idx)
        if np.any(fractional):
            raise ValueError(f"{regime} strip index must be an integer, got i={given[fractional].flat[0]}")
    return idx


def strip_integral_lower(n: int, i: int | np.ndarray) -> float | np.ndarray:
    """Q_i for the first strip and the strips below the anti-diagonal,
    1 <= i <= N/2; i scalar or array.

    With p = sqrt(i-1), q = sqrt(i) and sigma = p + q, the printed cubic
    equals 15N*Q_i = 15N + 13i - 7 - (i-1)^2/(pq + i - 1/2)
    + sqrt(2N) * (8iq/sigma^2 - (38i + 6pq - 16)/sigma), using q - p = 1/sigma
    and pq - (i - 1/2) = -1/(4(pq + i - 1/2)).  At i = 1 (p = 0, q = 1) it is
    15N + 6 - 14 sqrt(2N), the printed first strip.
    """
    n = _require_n(n)
    i = _strip_indices(n, i, 1, n // 2, "lower")
    m = i - 1.0
    p, q = np.sqrt(m), np.sqrt(i)
    pq, sigma = p * q, p + q
    return (
        15.0 * n + 13.0 * i - 7.0 - m * m / (pq + i - 0.5)
        + math.sqrt(2.0 * n) * (8.0 * i * q / (sigma * sigma) - (38.0 * i + 6.0 * pq - 16.0) / sigma)
    ) / (15.0 * n)


def strip_integral_middle(n: int) -> float:
    """Q_i of the strip that straddles the anti-diagonal, i = (N+1)/2, for odd N >= 3.

    The strip lies between a = sqrt((N-1)/N) and 2 - a, and the printed form
    N^2 (1-a)^2 (19 + 50a - 24a^2 + 62a^3 - 47a^4)/180 takes N(1-a) = 1/(1+a).
    """
    n = _require_n(n)
    if n % 2 == 0:
        raise ValueError(f"the middle strip needs odd n >= 3, got n={n}")
    a = math.sqrt((n - 1) / n)
    return (19.0 + a * (50.0 + a * (-24.0 + a * (62.0 - 47.0 * a)))) / (180.0 * (1.0 + a) ** 2)


def strip_integral_upper(n: int, i: int | np.ndarray) -> float | np.ndarray:
    """Q_i for the strips above the anti-diagonal and the last strip,
    (N+3)/2 <= i <= N; i scalar or array.

    With u = N - i and s = sqrt(u(u+1)), the printed cubic equals
    15N*Q_i = 3u + 1 - 2u(s - u)^2, and s - u = u/(s + u) with
    (s + u)^2 = u(2u + 1 + 2s).  At i = N (u = 0) it is 1/(15N) bit for bit,
    the printed last strip.
    """
    n = _require_n(n)
    u = n - _strip_indices(n, i, (n + 3) // 2, n, "upper")
    return (3.0 * u + 1.0 - 2.0 * u * u / (2.0 * u + 1.0 + 2.0 * np.sqrt(u * (u + 1.0)))) / (15.0 * n)


def _strip_blocks(n: int) -> Iterator[Sequence[float]]:
    """Q_1..Q_N for n >= 2 in strip order, in blocks of at most _BLOCK strips.

    The blocks are the lower form's arrays, (Q_middle,) for odd n and the
    upper form's arrays.  Both forms are elementwise, so every value is
    bitwise that of one call on the form's whole index range.
    """
    n = _require_n(n)
    for a in range(1, n // 2 + 1, _BLOCK):
        yield strip_integral_lower(n, np.arange(a, min(a + _BLOCK, n // 2 + 1)))
    if n % 2:
        yield (strip_integral_middle(n),)
    for a in range((n + 3) // 2, n + 1, _BLOCK):
        yield strip_integral_upper(n, np.arange(a, min(a + _BLOCK, n + 1)))


def strip_integral_table(n: int) -> np.ndarray:
    """All strip integrals Q_1..Q_N for n >= 2, in strip order, as a read-only float64 array.

    The table is filled from _strip_blocks, so besides its own 8n bytes it
    holds one block of a form's temporaries.  The exact expectation and the
    interior sum stream those blocks instead and never build the table.
    """
    values = np.empty(_require_n(n))
    a = 0
    for block in _strip_blocks(n):
        values[a:a + len(block)] = block
        a += len(block)
    values.setflags(write=False)
    return values


def expected_l2_sq_exact(n: int) -> DiscrepancyEstimate:
    """E[L2^2] of the diagonal partition, exactly, for 2 <= n <= MAX_CLOSED_FORM_N.

    The strip integrals are streamed block by block into one exact sum, so
    no O(n) array is held.  The sum is correctly rounded, so the result is
    bitwise the fsum of the whole table.
    """
    n = _require_n(n)
    total = _exact_sum(_strip_blocks(n))
    value = 1.0 / (4.0 * n) - total / (n * n)
    return DiscrepancyEstimate(value)


def expected_l2_sq_asymptotic(n: int) -> float:
    """Leading-order expectation 5/(72n); valid for any n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return 5.0 / (72.0 * n)
