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

Everything is checked by direct compensated summation; the component sums,
whose terms of size N^3 cancel, are summed exactly in integers, with each
square root taken as a fixed-point integer floor, so that every sum is
within 2^-64 of its exact value before it is rounded once to float.
The sqrt-sum approximants are transcribed verbatim; direct summation shows
the k = 1/2 and k = 1 variants differ from the true sums by a small
n-independent constant (about 0.0375 and 0.100 respectively) on top of the
stated decay.  The order reports therefore estimate that limiting offset and fit the decay
of the remainder, reporting both the raw and offset-adjusted exponents
rather than altering the printed formulas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import MAX_DIRECT_N
from .exactform import _strip_blocks

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

DEFAULT_FIT_NS = tuple(2**j for j in range(6, 15))


@dataclass(frozen=True)
class ApproximantOrderReport:
    """Fitted error behavior of a sqrt-sum approximant across a range of n.

    fitted_order is the raw log-log slope of |closed - direct|;
    constant_offset is the estimated n -> infinity limit of (closed - direct)
    (zero when the claimed order is nonnegative), and adjusted_order refits
    after subtracting it.
    """

    k: float
    claimed_order: float
    fitted_order: float
    constant_offset: float
    adjusted_order: float


def power_sqrt_sum(ns: Sequence[int], k: float) -> list[float]:
    """Direct compensated sums of i^k * sqrt(i-1) for i = 2 .. n/2, one per n in ns.

    The terms are computed once, up to the largest n, and each n gets the
    fsum of its prefix; every value is that of a sum over its own terms.
    """
    for n in ns:
        if n < 4 or n % 2:
            raise ValueError(f"need even n >= 4, got n={n}")
        if n > MAX_DIRECT_N:
            raise ValueError(f"n={n} exceeds the direct-summation cap {MAX_DIRECT_N}")
        if k < 0:
            raise ValueError(f"need k >= 0, got k={k}")
    terms = [i**k * math.sqrt(i - 1.0) for i in range(2, max(ns, default=0) // 2 + 1)]
    return [math.fsum(terms[:n // 2 - 1]) for n in ns]


def power_sqrt_sum_approx(n: int, k: float) -> float:
    """Closed-form approximant of power_sqrt_sum.

    k = 1/2 has its own expression (the expansion picks up a logarithm);
    any other k > 0 uses the general four-term form.
    """
    if n < 4 or n % 2:
        raise ValueError(f"need even n >= 4, got n={n}")
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


def power_sqrt_claimed_order(k: float) -> float:
    """Stated error exponent of power_sqrt_sum_approx: -1 for k=1/2, else k - 3/2."""
    return -1.0 if k == 0.5 else k - 1.5


def power_sum(ns: Sequence[int], k: float) -> list[float]:
    """Direct compensated sums of i^k for i = 1 .. n, one per n in ns.

    The terms are computed once, up to the largest n, and each n gets the
    fsum of its prefix; every value is that of a sum over its own terms.
    """
    for n in ns:
        if n < 1:
            raise ValueError(f"need n >= 1, got n={n}")
        if n > MAX_DIRECT_N:
            raise ValueError(f"n={n} exceeds the direct-summation cap {MAX_DIRECT_N}")
    terms = [i**k for i in range(1, max(ns, default=0) + 1)]
    return [math.fsum(terms[:n]) for n in ns]


def power_sum_approx(n: int, k: float) -> float:
    """Generalized-harmonic approximant zeta(-k) + n^{k+1}/(k+1) + n^k/2 + k n^{k-1}/12.

    Exact for k = 1 and k = 2; error O(n^{k-2}) otherwise.  Supported k are
    the six exponents appearing in the component sums.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    zeta = ZETA_NEG.get(float(k))
    if zeta is None:
        raise ValueError(f"unsupported exponent k={k}; supported: {sorted(ZETA_NEG)}")
    return zeta + n ** (k + 1.0) / (k + 1.0) + n**k / 2.0 + k * n ** (k - 1.0) / 12.0


def paired_strip_integral(n: int, i: int) -> float:
    """g(i) = Q_i + Q_{N+1-i}: the printed combined form for mirror strips.

    Defined for 2 <= i <= n/2; agrees with the two strip integrals summed
    separately to ~1e-12.
    """
    if n < 4 or n % 2:
        raise ValueError(f"need even n >= 4, got n={n}")
    if not 2 <= i <= n // 2:
        raise ValueError(f"pair index must satisfy 2 <= i <= n/2, got i={i}, n={n}")
    s_lo = math.sqrt((i - 1.0) / n)
    s_hi = math.sqrt(i / n)
    return (
        -8.0 * i**3
        + i**2 * (-16.0 * _SQRT2 * n * s_lo + 8.0 * n * s_lo * s_hi + 16.0 * _SQRT2 * n * s_hi + 20.0)
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
    if n < 4 or n % 2:
        raise ValueError(f"need even n >= 4, got n={n}")
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
    if n < 4 or n % 2:
        raise ValueError(f"need even n >= 4, got n={n}")
    return (64 - (n * (n + 2)) ** 2) / (120 * n)


def interior_strip_sum(n: int) -> float:
    """sum_{i=2}^{N-1} Q_i, the strip table without its first and last entry,
    streamed in blocks: bitwise the fsum of that slice of the table."""
    return math.fsum(itertools.chain.from_iterable(_strip_blocks(n, ends=False)))


def fit_error_order(ns: Sequence[int], errors: Sequence[float]) -> float:
    """Log-log least-squares slope of |error| against n.

    The slope of the line fit in closed form, sum(dx dy) / sum(dx^2) with dx
    and dy taken about their means and each sum an fsum: the fit
    np.polyfit(log n, log |error|, 1) makes, without a LAPACK call.
    """
    if len(ns) != len(errors) or len(set(ns)) < 2:
        raise ValueError("need matching sequences with at least 2 distinct n")
    log_n = [math.log(n) for n in ns]
    log_e = [math.log(max(abs(e), 1e-300)) for e in errors]
    mean_n, mean_e = math.fsum(log_n) / len(ns), math.fsum(log_e) / len(ns)
    dx = [x - mean_n for x in log_n]
    return math.fsum(d * (y - mean_e) for d, y in zip(dx, log_e)) / math.fsum(d * d for d in dx)


def estimate_limit_offset(ns: Sequence[int], errors: Sequence[float], decay: float) -> float:
    """Extrapolate the n -> infinity limit of errors assuming c + A*n^(-decay).

    Uses the last two points; exact for the model, and the model's leftover
    curvature only perturbs the estimate at higher order.
    """
    if len(ns) < 2 or len(ns) != len(errors):
        raise ValueError("need matching sequences of at least 2 points")
    if decay <= 0:
        raise ValueError(f"decay must be positive, got {decay}")
    n1, n2 = ns[-2], ns[-1]
    e1, e2 = errors[-2], errors[-1]
    a = (e1 - e2) / (n1 ** (-decay) - n2 ** (-decay))
    return e2 - a * n2 ** (-decay)


def power_sqrt_order_report(k: float, ns: Sequence[int] = DEFAULT_FIT_NS) -> ApproximantOrderReport:
    """Fit the error order of the sqrt-sum approximant over a range of n.

    For claimed orders below zero the report additionally extrapolates the
    constant offset of (closed - direct) and refits the remainder; for
    growing errors the offset is irrelevant and kept at zero.
    """
    claimed = power_sqrt_claimed_order(k)
    approx = [power_sqrt_sum_approx(n, k) for n in ns]
    signed = [a - direct for a, direct in zip(approx, power_sqrt_sum(ns, k))]
    raw = fit_error_order(ns, signed)
    if claimed < 0.0:
        offset = estimate_limit_offset(ns, signed, -claimed)
        adjusted = fit_error_order(ns, [e - offset for e in signed])
    else:
        offset = 0.0
        adjusted = raw
    return ApproximantOrderReport(
        k=k,
        claimed_order=claimed,
        fitted_order=raw,
        constant_offset=offset,
        adjusted_order=adjusted,
    )
