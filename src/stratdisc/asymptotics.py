"""Numerical verification of the large-N analysis behind the 5/(72N) law.

The closed-form route to the asymptotic constant rests on elementary but
long summation identities:

  * approximants for sums of the form sum_{i=2}^{n/2} i^k sqrt(i-1)
    (trapezoid-plus-derivative corrections of the integral, after expanding
    sqrt(x-1) around large x);
  * generalized-harmonic approximants sum_{i=1}^n i^k ~ zeta(-k)
    + n^{k+1}/(k+1) + n^k/2 + k n^{k-1}/12;
  * the pairing g(i) = Q_i + Q_{N+1-i} of mirror strips, whose polynomial
    pieces regroup into four component sums (by power of i) that are summed
    separately and collapse to 13N/72 + O(sqrt(N)).

Everything is checked by direct compensated summation of terms with the bits
of Python's i**k (see _powers); the component sums, whose terms of size N^3
cancel, are summed exactly in integers, with each square root taken as a
fixed-point integer floor, so that every sum is within 2^-64 of its exact
value before it is rounded once to float.
The sqrt-sum approximants are transcribed verbatim.  Each differs from the
direct sum by c + a ln n + O(n^p), with (p, c, a) derived per k and listed in
SQRT_SUM_REMAINDERS beside the printed formulas: the k = 1/2 and k = 1
forms are off by a constant (about 0.0375 and 0.100), and the k = 3/2 form
drops the -(1/16) ln n of the direct sum.  Each is then held to one bound,
|printed - c - a ln n - direct| <= C n^p, rather than a fitted slope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import MAX_DIRECT_N
from .exactform import exact_sum, strip_blocks, strip_indices, strip_integral_lower, strip_integral_upper
from .partition import integer

_SQRT2 = math.sqrt(2.0)

# zeta(-k) for the supported exponents.  The non-integer values were
# cross-checked against the n -> infinity limit of the direct sums minus the
# polynomial part; note zeta(-5/2) is positive.
ZETA_NEG = {
    0.5: -0.20788622497735457,
    1.0: -1.0 / 12.0,
    1.5: -0.025485201889833036,
    2.0: 0.0,
    2.5: 0.008516928777850331,
    3.0: 1.0 / 120.0,
}

# (p, c, a) per k: power_sqrt_sum_approx(n, k) - power_sqrt_sum(n, k) is
# c + a ln n + O(n^p).  c and a come from the direct sum written as
# sum_{j=1}^{n/2-1} (j+1)^k sqrt(j), expanded binomially and summed power by
# power of j by Euler-Maclaurin; c_1 = 5/6 - 41 sqrt(2)/60 - zeta(-1/2)
# - zeta(-3/2).  p is the first power of n left over, except at k = 3/2: its
# O(1/n) remainder is below the float rounding of its n^3-sized terms at
# n = 2^14, so it is held to n^-1/2.
SQRT_SUM_REMAINDERS = {
    0.5: (-1.0, 0.037522747754928905316, 0.0),
    1.0: (-0.5, 0.100325492578905985286, 0.0),
    1.5: (-0.5, -0.062607729023513743, 1.0 / 16.0),
    2.0: (0.5, 0.0, 0.0),
    2.5: (1.0, 0.0, 0.0),
}

CHECK_NS = tuple(2**j for j in range(6, 15))


def _check_even(n: int) -> int:
    n = integer(n)
    if n < 4 or n % 2:
        raise ValueError(f"need even n >= 4, got n={n}")
    return n


def _powers(first: int, last: int, k: float) -> np.ndarray:
    """i**k for i = first .. last with the bits Python gives: pow on int i for an
    int k (the exact power, rounded once), else np.float_power, whose float64 loop
    is the C library's pow, as math.pow is.  np.power rounds differently at k = 1.5.
    A term past the float range raises OverflowError, as math.pow does."""
    if isinstance(k, int):
        return np.fromiter(map(pow, range(first, last + 1), itertools.repeat(k)), np.float64)
    with np.errstate(over="ignore"):
        terms = np.float_power(np.arange(first, last + 1, dtype=np.float64), k)
    if np.isinf(terms).any():
        raise OverflowError("math range error")
    return terms


def power_sqrt_sum(ns: Sequence[int], k: float) -> list[float]:
    """Direct compensated sums of i^k * sqrt(i-1) for i = 2 .. n/2, one per n in ns.

    The terms are computed once, up to the largest n, and each n gets the
    exact sum (the fsum) of its prefix; every value is that of a sum over its own terms.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    ns = [_check_even(n) for n in ns]
    top = max(ns, default=0)
    if top > MAX_DIRECT_N:
        raise ValueError(f"n={top} exceeds the direct-summation cap {MAX_DIRECT_N}")
    terms = _powers(2, top // 2, k) * np.sqrt(np.arange(1.0, top // 2))
    return [exact_sum([terms[:n // 2 - 1]]) for n in ns]


def power_sqrt_sum_approx(n: int, k: float) -> float:
    """Closed-form approximant of power_sqrt_sum.

    k = 1/2 has its own expression (the expansion picks up a logarithm);
    any other k > 0 uses the general four-term form.
    """
    n = _check_even(n)
    if k == 0.5:
        return (
            n**2 / 8.0
            - n / 4.0
            + (_SQRT2 * (6.0 * n**2 - 10.0 * n - 2.0) / (math.sqrt(n - 2.0) * math.sqrt(n)) + 21.0)
            / (24.0 * _SQRT2)
            - math.log(n / 4.0) / 8.0
            - 1.0
        )
    if k <= 0.0:
        raise ValueError(f"approximant needs k > 0, got k={k}")
    t1 = -(2.0 ** (-k - 2.5)) * (4.0**k - 2.0 * n ** (k - 0.5)) / (1.0 - 2.0 * k)
    t2 = -(2.0 ** (0.5 - k) * n ** (k + 0.5) - 2.0 ** (k + 1.5)) / (2.0 * (2.0 * k + 1.0))
    t3 = 2.0 ** (-k - 0.5) * (n ** (k + 1.5) - 2.0 ** (2.0 * k + 3.0)) / (2.0 * k + 3.0)
    t4 = (2.0 ** (-k - 3.0) / 3.0) * (
        _SQRT2 * (2.0 * k * (n - 2.0) + n * (6.0 * n - 11.0)) * n ** (k - 1.0) / math.sqrt(n - 2.0)
        + 11.0 * 4.0**k
        - 4.0**k * k
    )
    return t1 + t2 + t3 + t4


def power_sum(ns: Sequence[int], k: float) -> list[float]:
    """Direct compensated sums of i^k for i = 1 .. n, one per n in ns.

    The terms are computed once, up to the largest n, and each n gets the
    exact sum (the fsum) of its prefix; every value is that of a sum over its own terms.
    """
    ns = [integer(n, least=1) for n in ns]
    top = max(ns, default=0)
    if top > MAX_DIRECT_N:
        raise ValueError(f"n={top} exceeds the direct-summation cap {MAX_DIRECT_N}")
    terms = _powers(1, top, k)
    return [exact_sum([terms[:n]]) for n in ns]


def power_sum_approx(n: int, k: float) -> float:
    """Generalized-harmonic approximant zeta(-k) + n^{k+1}/(k+1) + n^k/2 + k n^{k-1}/12.

    Exact for k = 1 and k = 2; error O(n^{k-2}) otherwise.  Supported k are
    the six exponents appearing in the component sums.
    """
    n = integer(n, least=1)
    zeta = ZETA_NEG.get(float(k))
    if zeta is None:
        raise ValueError(f"unsupported exponent k={k}; supported: {sorted(ZETA_NEG)}")
    return zeta + n ** (k + 1.0) / (k + 1.0) + n**k / 2.0 + k * n ** (k - 1.0) / 12.0


def paired_strip_integral(n: int, i: int | np.ndarray) -> float | np.ndarray:
    """g(i) = Q_i + Q_{N+1-i}: the printed combined form for mirror strips.

    Defined for 2 <= i <= n/2, i scalar or array; agrees with the two strip
    integrals summed separately to ~1e-12.
    """
    n = _check_even(n)
    i = strip_indices(n, i, 2, n // 2, "pair")
    s_lo = np.sqrt((i - 1.0) / n)
    s_hi = np.sqrt(i / n)
    return (
        -8.0 * (i * i * i)
        + i * i * (-16.0 * _SQRT2 * n * s_lo + 8.0 * n * s_lo * s_hi + 16.0 * _SQRT2 * n * s_hi + 20.0)
        + i * (32.0 * _SQRT2 * n * s_lo - 16.0 * n * s_lo * s_hi - 40.0 * _SQRT2 * n * s_hi)
        + (-16.0 * _SQRT2 * n * s_lo + 8.0 * n * s_lo * s_hi + 10.0 * _SQRT2 * n * s_hi + 15.0 * n - 5.0)
    ) / (15.0 * n)


@dataclass(frozen=True)
class ComponentSums:
    """The four component sums of sum_i g(i), split by power of i.

    Each field is its piece, within 2^-64 of the exact sum, rounded once to
    float.  Iterating yields the four pieces.  Their terms of size N^3
    cancel in the total, so a float sum of the rounded pieces is off by
    about N^3 eps; `total` is the four added exactly and then rounded once.
    """

    cubic: float
    quadratic: float
    linear: float
    constant: float
    total: float

    def __iter__(self) -> Iterator[float]:
        return iter((self.cubic, self.quadratic, self.linear, self.constant))


def component_sums(n: int) -> ComponentSums:
    """Directly sum the cubic, quadratic, linear, and constant pieces of g.

    Their total equals the interior strip-integral sum sum_{i=2}^{N-1} Q_i.
    Every piece carries the factor 1/(15N), and sqrt(2) N s_lo, N s_lo s_hi
    and sqrt(2) N s_hi are the square roots of the integers 2N(i-1), (i-1)i
    and 2Ni.  Each root is taken as the integer isqrt(R << 2p), its floor
    in units of 2^-p, so the numerators are exact integer sums.  Their
    coefficients add up to less than 15N * N^2 in magnitude, so the floors
    shift every piece and the total by less than N^2 2^-p, which is below
    2^-64 for p = 2 bit_length(N) + 64.  Each field is then one integer
    division, which Python rounds once and correctly.
    """
    n = _check_even(n)
    p = 2 * n.bit_length() + 64
    shift = 2 * p
    cubic = quadratic = linear = constant = 0
    twenty = 20 << p
    offset = (15 * n - 5) << p
    a = math.isqrt(2 * n << shift)  # sqrt(2N(i-1)) at i = 2
    for i in range(2, n // 2 + 1):
        b = math.isqrt((i - 1) * i << shift)
        c = math.isqrt(2 * n * i << shift)
        cubic -= 8 * i**3
        quadratic += i**2 * (-16 * a + 8 * b + 16 * c + twenty)
        linear += i * (32 * a - 16 * b - 40 * c)
        constant += -16 * a + 8 * b + 10 * c + offset
        a = c
    scale = 15 * n << p
    return ComponentSums(
        cubic / (15 * n),
        quadratic / scale,
        linear / scale,
        constant / scale,
        total=((cubic << p) + quadratic + linear + constant) / scale,
    )


def cubic_component_closed_form(n: int) -> float:
    """The cubic component in closed form: -N^3/120 - N^2/30 - N/30 + 8/(15N).

    Evaluated as the one integer fraction (64 - (N(N+2))^2) / (120N), which
    Python divides with a single correct rounding at every n.
    """
    n = _check_even(n)
    return (64 - (n * (n + 2)) ** 2) / (120 * n)


def interior_strip_sum(n: int) -> float:
    """sum_{i=2}^{N-1} Q_i: the strip blocks and one block (-Q_1, -Q_N) added
    exactly and rounded once, so bitwise the fsum of the table without its
    first and last entry."""
    ends = (-strip_integral_lower(n, 1), -strip_integral_upper(n, n))
    return exact_sum(itertools.chain(strip_blocks(n), [ends]))
