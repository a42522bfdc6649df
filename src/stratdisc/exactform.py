"""Closed-form expected squared L2 discrepancy of the diagonal partition.

For every N >= 2 the expectation decomposes as

    E[L2^2] = 1/(4N) - (1/N^2) * sum_{i=1}^N Q_i,      Q_i = integral of q_i^2

and each strip integral Q_i has an explicit elementary form.  Five regimes
occur: the first strip (the triangle at the origin), strips below the
anti-diagonal (2 <= i <= N/2), for odd N the middle strip that straddles it
(i = (N+1)/2), strips above it ((N+3)/2 <= i < N), and the last strip,
which contributes exactly 1/(15N).  The lower and upper regimes are printed
as cubics whose terms of size N^3 cancel to an O(1) result, and the middle
one as N^2 (1 - a)^2 times a quartic in a = sqrt((N-1)/N); here they are
evaluated, vectorised over i, in equal rationalised forms free of that
cancellation.  The printed forms are the 50-digit oracle in tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np

from .estimators import DiscrepancyEstimate

_SQRT2 = math.sqrt(2.0)

# Strips per regime call in strip_integral_table; bounds its temporaries.
_BLOCK = 2**16


def _require_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"closed forms require n >= 2, got n={n}")


def _strip_indices(n: int, i: int | np.ndarray, lo: int, hi: int, regime: str) -> np.ndarray:
    """i as float64 (scalar or array), checked once to be integers with lo <= i <= hi.

    An integer dtype is integral already, so only other input is compared
    with its floor: the table's blocks of np.arange allocate nothing more.
    """
    given = np.asarray(i)
    idx = given.astype(np.float64, copy=False)
    if idx.size and (idx.min() < lo or idx.max() > hi):
        bad = idx.min() if idx.min() < lo else idx.max()
        raise ValueError(f"{regime} strips are {lo} <= i <= {hi} for n={n}, got i={bad:g}")
    if given.dtype.kind not in "iu":
        fractional = idx != np.floor(idx)
        if np.any(fractional):
            raise ValueError(f"{regime} strip index must be an integer, got i={idx[fractional].flat[0]:g}")
    return idx


def strip_integral_first(n: int) -> float:
    """Q_1 = 1 - 14*sqrt(2)/(15*sqrt(N)) + 2/(5N)."""
    _require_n(n)
    return 1.0 - 14.0 * _SQRT2 / (15.0 * math.sqrt(n)) + 2.0 / (5.0 * n)


def strip_integral_last(n: int) -> float:
    """Q_N = 1/(15N), the strip at the far corner."""
    _require_n(n)
    return 1.0 / (15.0 * n)


def strip_integral_lower(n: int, i: int | np.ndarray) -> float | np.ndarray:
    """Q_i for strips below the anti-diagonal, 2 <= i <= N/2; i scalar or array.

    With p = sqrt(i-1), q = sqrt(i) and sigma = p + q, the printed cubic
    equals 15N*Q_i = 15N + 13i - 7 - (i-1)^2/(pq + i - 1/2)
    + sqrt(2N) * (8iq/sigma^2 - (38i + 6pq - 16)/sigma), using q - p = 1/sigma
    and pq - (i - 1/2) = -1/(4(pq + i - 1/2)).
    """
    i = _strip_indices(n, i, 2, n // 2, "lower")
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
    if n < 3 or n % 2 == 0:
        raise ValueError(f"the middle strip needs odd n >= 3, got n={n}")
    a = math.sqrt((n - 1) / n)
    return (19.0 + a * (50.0 + a * (-24.0 + a * (62.0 - 47.0 * a)))) / (180.0 * (1.0 + a) ** 2)


def strip_integral_upper(n: int, i: int | np.ndarray) -> float | np.ndarray:
    """Q_i for strips above the anti-diagonal, (N+3)/2 <= i < N; i scalar or array.

    With u = N - i and s = sqrt(u(u+1)), the printed cubic equals
    15N*Q_i = 3u + 1 - 2u(s - u)^2, and s - u = u/(s + u).
    """
    u = n - _strip_indices(n, i, (n + 3) // 2, n - 1, "upper")
    w = np.sqrt(u * (u + 1.0)) + u
    return (3.0 * u + 1.0 - 2.0 * u * u * u / (w * w)) / (15.0 * n)


def strip_integral_table(n: int) -> np.ndarray:
    """All strip integrals Q_1..Q_N for n >= 2, in strip order, as a read-only float64 array.

    The table is allocated once and the lower and upper regimes are evaluated
    into it in blocks of _BLOCK strips, so their temporaries stay a few MiB
    at any n.  Both regime formulas are elementwise, so every value is
    bitwise that of one call on the regime's whole index range.
    """
    _require_n(n)
    values = np.empty(n)
    values[0] = strip_integral_first(n)
    for regime, lo, hi in ((strip_integral_lower, 2, n // 2 + 1), (strip_integral_upper, (n + 3) // 2, n)):
        for a in range(lo, hi, _BLOCK):
            b = min(a + _BLOCK, hi)
            values[a - 1:b - 1] = regime(n, np.arange(a, b))
    if n % 2:
        values[n // 2] = strip_integral_middle(n)
    values[-1] = strip_integral_last(n)
    values.setflags(write=False)
    return values


def expected_l2_sq_exact(n: int) -> DiscrepancyEstimate:
    """E[L2^2] of the diagonal partition, exactly, for n >= 2.

    The table is summed through a memoryview: fsum then reads Python floats,
    the same values with the same result, faster than numpy scalars.
    """
    total = math.fsum(memoryview(strip_integral_table(n)))
    value = 1.0 / (4.0 * n) - total / (n * n)
    return DiscrepancyEstimate(value)


def expected_l2_sq_asymptotic(n: int) -> float:
    """Leading-order expectation 5/(72n); valid for any n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return 5.0 / (72.0 * n)
