"""Closed-form expected squared L2 discrepancy of the diagonal partition.

For even N the expectation decomposes as

    E[L2^2] = 1/(4N) - (1/N^2) * sum_{i=1}^N Q_i,      Q_i = integral of q_i^2

and each strip integral Q_i has an explicit elementary form.  Four regimes
occur: the first strip (the triangle at the origin), strips below the
anti-diagonal (2 <= i <= N/2), strips above it (N/2 < i < N), and the last
strip, which contributes exactly 1/(15N).  The two middle regimes are
printed as cubics whose terms of size N^3 cancel to an O(1) result; here they
are evaluated, vectorised over i, in equal rationalised forms free of that
cancellation.  The printed forms are the 50-digit oracle in tests/oracles.py.

Odd N is rejected throughout: the strip boundaries exist (the partition
module handles them), but no closed form is available here for the middle
strip that straddles the anti-diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import DiscrepancyEstimate, Method

_SQRT2 = math.sqrt(2.0)

# Strips per regime call in strip_integral_table; bounds its temporaries.
_BLOCK = 2**16


@dataclass(frozen=True, eq=False)
class StripIntegralTable:
    """The strip integrals Q_1..Q_N for one even N, as a read-only float64 array.

    A float64 array passed in is taken over, not copied, and made read-only.
    """

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != (self.n,):
            raise ValueError("table length must equal n")
        if values.min() < 0.0:
            raise ValueError("strip integrals cannot be negative")
        last = 1.0 / (15.0 * self.n)
        if not math.isclose(values[-1], last, rel_tol=1e-12):
            raise ValueError(f"last strip integral must be 1/(15n), got {values[-1]}")


def _require_even(n: int, smallest: int) -> None:
    if n < smallest or n % 2:
        raise ValueError(f"closed forms require even n >= {smallest}, got n={n}")


def _strip_indices(n: int, i: int | np.ndarray, lo: int, hi: int, regime: str) -> np.ndarray:
    """i as float64 (scalar or array), checked once against lo <= i <= hi."""
    _require_even(n, 4)
    idx = np.asarray(i, dtype=np.float64)
    if idx.min() < lo or idx.max() > hi:
        bad = idx.min() if idx.min() < lo else idx.max()
        raise ValueError(f"{regime} strips are {lo} <= i <= {hi} for n={n}, got i={bad:g}")
    return idx


def strip_integral_first(n: int) -> float:
    """Q_1 = 1 - 14*sqrt(2)/(15*sqrt(N)) + 2/(5N)."""
    _require_even(n, 2)
    return 1.0 - 14.0 * _SQRT2 / (15.0 * math.sqrt(n)) + 2.0 / (5.0 * n)


def strip_integral_last(n: int) -> float:
    """Q_N = 1/(15N), the strip at the far corner."""
    _require_even(n, 2)
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


def strip_integral_upper(n: int, i: int | np.ndarray) -> float | np.ndarray:
    """Q_i for strips above the anti-diagonal, N/2 < i < N; i scalar or array.

    With u = N - i and s = sqrt(u(u+1)), the printed cubic equals
    15N*Q_i = 3u + 1 - 2u(s - u)^2, and s - u = u/(s + u).
    """
    u = n - _strip_indices(n, i, n // 2 + 1, n - 1, "upper")
    w = np.sqrt(u * (u + 1.0)) + u
    return (3.0 * u + 1.0 - 2.0 * u * u * u / (w * w)) / (15.0 * n)


def strip_integral_table(n: int) -> StripIntegralTable:
    """All strip integrals for even n >= 4, in strip order.

    The table is allocated once and each regime is evaluated into it in
    blocks of _BLOCK strips, so the regimes' temporaries stay a few MiB at
    any n.  Both regime formulas are elementwise, so every value is bitwise
    that of one call on the regime's whole index range.
    """
    _require_even(n, 4)
    values = np.empty(n)
    values[0] = strip_integral_first(n)
    for regime, lo, hi in ((strip_integral_lower, 2, n // 2 + 1), (strip_integral_upper, n // 2 + 1, n)):
        for a in range(lo, hi, _BLOCK):
            b = min(a + _BLOCK, hi)
            values[a - 1:b - 1] = regime(n, np.arange(a, b))
    values[-1] = strip_integral_last(n)
    return StripIntegralTable(n=n, values=values)


def expected_l2_sq_exact(n: int) -> DiscrepancyEstimate:
    """E[L2^2] of the diagonal partition, exactly, for even n >= 2.

    n = 2 has only the first and last strips; larger n uses the full table.
    """
    _require_even(n, 2)
    if n == 2:
        total = strip_integral_first(2) + strip_integral_last(2)
    else:
        total = math.fsum(strip_integral_table(n).values)
    value = 1.0 / (4.0 * n) - total / (n * n)
    return DiscrepancyEstimate(value=value, method=Method.EXACT, meta={"n": n})


def expected_l2_sq_asymptotic(n: int) -> float:
    """Leading-order expectation 5/(72n); valid for any n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return 5.0 / (72.0 * n)
