"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity by a different route than the library:
clipped areas by slicing instead of vertex cases, the pairwise discrepancy
identity by plain Python loops and in exact rational arithmetic, radical
inverses by exact rational digit reversal, the strip integrals from their
printed polynomial forms in 50-digit arithmetic.  A few keep an earlier form
of a library routine (the clipped-area kernel with a fresh array per pass,
the per-strip overlap fraction and quadrature, the full-histogram brute
force, the per-n power sums, the per-cell draw by numpy's own SeedSequence
and PCG64 (from row 0, or advanced to a row offset), the MC moments summed
from a list, the component sums in 40-digit decimal arithmetic),
which the library must reproduce bit for bit.  The O(n^2) min-form and
max-form Warnock kernels, which the sort-once kernel replaced, must agree
with each other bit for bit, and the log-log slope by np.polyfit must
match the closed-form fit within 1e-12.  The cell lookup, cell areas and the
jittered-grid closed form, which no library routine needs, live here too, and
so does the CLI's earlier per-value CSV rendering, which its row template
must reproduce byte for byte.  None of this code is imported by the package.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf, sqrt

from stratdisc import estimators
from stratdisc.asymptotics import ComponentSums
from stratdisc.lowdisc import l2_discrepancy_sq_batch
from stratdisc.partition import sample_partition
from stratdisc.qgeometry import intersection_area_grid


def overlap_fraction(gs, i: int, x, y):
    """q_i(x, y): N times the area of cell i inside the box [0,x] x [0,y].

    The per-strip form: x and y are scalars or broadcastable arrays, and the
    difference of clipped areas at the cell's two cuts is exactly zero
    whenever x + y <= r_{i-1}.  The library's overlap_vector must equal it
    bit for bit.
    """
    n = gs.n
    if not 1 <= i <= n:
        raise ValueError(f"cell index {i} out of range 1..{n}")
    v_lo = x * y if i == 1 else intersection_area_grid(gs.boundary(i - 1), x, y)
    v_hi = 0.0 if i == n else intersection_area_grid(gs.boundary(i), x, y)
    return n * (v_lo - v_hi)


def cell_of(gs, x: float, y: float) -> int:
    """Index of the strip containing (x, y); strips are closed below, open above.

    The single exception is the corner (1,1) with x+y = 2 = r_N, which
    belongs to the last cell.  Points outside the closed unit square are
    rejected.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"point ({x}, {y}) outside the unit square")
    # the interior cuts r_1 .. r_{N-1} at or below x + y, plus one
    return bisect_right(gs.cuts, x + y, 1, gs.n)


def cell_area(gs, i: int) -> float:
    """Area of cell i, computed from the triangle areas below each cut."""
    if not 1 <= i <= gs.n:
        raise ValueError(f"cell index {i} out of range 1..{gs.n}")
    return _area_below(gs.boundary(i)) - _area_below(gs.boundary(i - 1))


def _area_below(r: float) -> float:
    """Area of {x+y <= r} within the unit square."""
    if r <= 1.0:
        return r * r / 2.0
    return 1.0 - (2.0 - r) * (2.0 - r) / 2.0


def jittered_baseline(m: int) -> float:
    """E[L2^2] of a jittered sample on the m x m grid: ((m/2)^2 - (m/2 - 1/6)^2)/m^4."""
    if m < 1:
        raise ValueError(f"need at least a 1x1 grid, got m={m}")
    half = m / 2.0
    return (half * half - (half - 1.0 / 6.0) ** 2) / float(m) ** 4


def clipped_area_by_slices(r: float, x: float, y: float) -> float:
    """Area of [0,x] x [0,y] on or above u + v = r, by exact slice integration.

    For fixed u the admissible v-interval has length clamp(u + y - r, 0, y),
    a piecewise-linear function of u with breakpoints at r - y and r.
    Integrating each linear piece exactly avoids any quadrature error.
    """
    if x <= 0.0 or y <= 0.0:
        return 0.0
    u1 = min(max(r - y, 0.0), x)
    u2 = min(max(r, 0.0), x)
    ramp = ((u2 + y - r) ** 2 - (u1 + y - r) ** 2) / 2.0
    flat = y * (x - u2)
    return ramp + flat


def overlap_by_slices(breaks_lo: float, breaks_hi: float, n: int, x: float, y: float) -> float:
    """q_i(x, y) recomputed from the slice oracle: n * (A(r_lo) - A(r_hi))."""
    a_lo = x * y if breaks_lo == 0.0 else clipped_area_by_slices(breaks_lo, x, y)
    a_hi = 0.0 if breaks_hi >= 2.0 else clipped_area_by_slices(breaks_hi, x, y)
    return n * (a_lo - a_hi)


def intersection_area_by_temporaries(r, x, y):
    """Clipped area of [0,x] x [0,y] above u + v = r, one fresh array per pass.

    The kernel's expression before it was rewritten in place; the library's
    intersection_area_grid must equal it bit for bit.
    """
    g = np.maximum(x + y - r, 0.0)
    bx = np.maximum(x - r, 0.0)
    by = np.maximum(y - r, 0.0)
    return ((g * g - bx * bx) - by * by) * 0.5


def cell_uniforms_by_seed_sequence(seed: int, stream: int, i: int, count: int, start: int = 0) -> np.ndarray:
    """Rows start..start+count-1 of cell i's uniforms, shape (count, 2).

    The sampler's draw before it computed the seed words of all cells in one
    pass: a SeedSequence and a generator per cell, drawing every row from 0.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream, i))
    return np.random.default_rng(seq).random((start + count, 2))[start:]


def cell_uniforms_by_advance(seed: int, stream: int, i: int, count: int, start: int = 0) -> np.ndarray:
    """Rows start..start+count-1 of cell i's uniforms, shape (count, 2).

    numpy's own generator: a SeedSequence, PCG64 advanced past the 2·start
    outputs of the earlier rows, and Generator.random, so a large start
    costs nothing.
    """
    bit_generator = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(stream, i)))
    bit_generator.advance(2 * start)
    return np.random.Generator(bit_generator).random((count, 2))


def warnock_batch_min_form(points: np.ndarray) -> np.ndarray:
    """Pairwise identity on a stack (R, n, 2) over every pair, factors in min form.

    The batch kernel before it sorted each set once: u = 1 - x and v = 1 - y
    per point, and min(u_i, u_j) * min(v_i, v_j) summed over two (R, n, n)
    temporaries.  It must equal the max form bit for bit.
    """
    n = points.shape[1]
    if n < 1:
        raise ValueError("point sets must be nonempty")
    x = points[..., 0]
    y = points[..., 1]
    linear = np.sum((1.0 - x * x) * (1.0 - y * y), axis=1) / 4.0
    u = 1.0 - x
    v = 1.0 - y
    pair = np.minimum(u[:, :, None], u[:, None, :])
    pair *= np.minimum(v[:, :, None], v[:, None, :])
    pairwise = np.sum(pair, axis=(1, 2))
    return 1.0 / 9.0 - 2.0 * linear / n + pairwise / (n * n)


def warnock_batch_max_form(points: np.ndarray) -> np.ndarray:
    """Pairwise identity on a stack (R, n, 2) with the factors 1 - max(., .).

    The batch kernel before it took its factors in min form.
    """
    n = points.shape[1]
    if n < 1:
        raise ValueError("point sets must be nonempty")
    x = points[..., 0]
    y = points[..., 1]
    linear = np.sum((1.0 - x * x) * (1.0 - y * y), axis=1) / 4.0
    mx = np.maximum(x[:, :, None], x[:, None, :])
    my = np.maximum(y[:, :, None], y[:, None, :])
    np.subtract(1.0, mx, out=mx)
    np.subtract(1.0, my, out=my)
    mx *= my
    pairwise = np.sum(mx, axis=(1, 2))
    return 1.0 / 9.0 - 2.0 * linear / n + pairwise / (n * n)


def mc_moments_by_list(n: int, replicates: int, seed: int, partition: str = "diagonal") -> tuple[float, float]:
    """Mean and standard error of MC replicates with the values held in a Python list.

    expected_l2_sq_mc before it kept the values in one float64 array: the
    same blocks, concatenated and converted to a list for both fsum passes.
    The library's value and std_error must equal these bit for bit.
    """
    rows = max(1, estimators._BLOCK_POINTS // n)
    values = []
    for start in range(0, replicates, rows):
        points = sample_partition(partition, n, min(rows, replicates - start), seed, start)
        values.append(l2_discrepancy_sq_batch(points))
    as_list = np.concatenate(values).tolist()
    mean = math.fsum(as_list) / replicates
    variance = math.fsum((v - mean) ** 2 for v in as_list) / (replicates - 1)
    return mean, math.sqrt(variance / replicates)


def warnock_by_loops(points: np.ndarray) -> float:
    """Squared L2 discrepancy by the pairwise identity, written as bare loops."""
    n = len(points)
    linear = []
    pairwise = []
    for xi, yi in points:
        linear.append((1.0 - xi * xi) * (1.0 - yi * yi) / 4.0)
        for xj, yj in points:
            pairwise.append((1.0 - max(xi, xj)) * (1.0 - max(yi, yj)))
    return 1.0 / 9.0 - 2.0 * math.fsum(linear) / n + math.fsum(pairwise) / (n * n)


def warnock_exact(points: np.ndarray) -> Fraction:
    """The pairwise identity on one set (n, 2) in exact rational arithmetic.

    Every float in [0, 1] is a whole multiple of 2^-1074, so the coordinates
    are held as integers on that scale: 1 - x, the max and every product and
    sum are exact, and only the caller's final conversion rounds.
    """
    n = len(points)
    one = 2**1074
    xs = [int(Fraction(x) * one) for x in points[:, 0].tolist()]
    ys = [int(Fraction(y) * one) for y in points[:, 1].tolist()]
    linear = Fraction(sum((one * one - x * x) * (one * one - y * y) for x, y in zip(xs, ys)), 4 * one**4)
    pairwise = Fraction(
        sum((one - max(xi, xj)) * (one - max(yi, yj)) for xi, yi in zip(xs, ys) for xj, yj in zip(xs, ys)),
        one * one,
    )
    return Fraction(1, 9) - 2 * linear / n + pairwise / (n * n)


def l2_by_anchor_grid(points: np.ndarray, grid: int) -> float:
    """Midpoint quadrature of the squared discrepancy function, O(grid^2 * n).

    Slower than the library's prefix-sum brute force but with no shared
    machinery; only usable for small point sets and coarse grids.
    """
    n = len(points)
    mids = (np.arange(grid) + 0.5) / grid
    total = []
    for ax in mids:
        inside_x = points[:, 0] < ax
        for ay in mids:
            count = np.count_nonzero(inside_x & (points[:, 1] < ay))
            dev = count / n - ax * ay
            total.append(dev * dev)
    return math.fsum(total) / (grid * grid)


def brute_force_by_histogram(points: np.ndarray, grid: int) -> float:
    """Anchor-grid quadrature of D^2 from a full (grid+1)^2 histogram.

    Counts every anchor box by a double cumsum over the histogram of the
    points' anchor ranks, then averages the squared deviation.
    """
    mids = (np.arange(grid) + 0.5) / grid
    ix = np.searchsorted(mids, points[:, 0], side="right")
    iy = np.searchsorted(mids, points[:, 1], side="right")
    hist = np.zeros((grid + 1, grid + 1), dtype=np.float64)
    np.add.at(hist, (ix, iy), 1.0)
    counts = hist.cumsum(axis=0).cumsum(axis=1)[:grid, :grid]
    deviation = counts / len(points) - np.outer(mids, mids)
    return float(np.mean(deviation * deviation))


def mean_square_overlap_per_strip(gs, i: int, grid: int) -> float:
    """Midpoint-rule quadrature of q_i^2 for one strip.

    Both cuts of the strip are evaluated afresh in every block of 200 grid
    rows; each row is summed on its own and the row sums combined with fsum.
    """
    mids = (np.arange(grid) + 0.5) / grid
    y_row = mids[np.newaxis, :]
    row_sums = []
    for a in range(0, grid, 200):
        q = overlap_fraction(gs, i, mids[a:a + 200, np.newaxis], y_row)
        row_sums.extend(np.sum(q * q, axis=1).tolist())
    return math.fsum(row_sums) / (grid * grid)


def radical_inverse(base: int, k: int) -> float:
    """Digit-reversed fraction of k in the given base (van der Corput).

    Scalar float loop that accumulates digits least-significant first, the
    same order as the package's vectorized block.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if k < 1:
        raise ValueError(f"index must be >= 1, got {k}")
    inv = 0.0
    f = 1.0
    while k > 0:
        k, digit = divmod(k, base)
        f /= base
        inv += f * digit
    return inv


def radical_inverse_by_digits(base: int, k: int) -> float:
    """Digit-reversal radical inverse via exact rationals."""
    digits = []
    while k > 0:
        k, d = divmod(k, base)
        digits.append(d)
    value = Fraction(0)
    for j, d in enumerate(digits):
        value += Fraction(d, base ** (j + 1))
    return float(value)


def power_sqrt_by_loop(n: int, k: float) -> float:
    """Plain (uncompensated) sum of i^k sqrt(i-1) for i = 2 .. n/2."""
    total = 0.0
    for i in range(2, n // 2 + 1):
        total += i**k * math.sqrt(i - 1.0)
    return total


def power_by_loop(n: int, k: float) -> float:
    """Plain sum of i^k for i = 1 .. n."""
    total = 0.0
    for i in range(1, n + 1):
        total += i**k
    return total


def power_sum_by_generator(n: int, k: float) -> float:
    """Compensated sum of i^k for i = 1 .. n, over its own terms."""
    return math.fsum(i**k for i in range(1, n + 1))


def power_sqrt_sum_by_generator(n: int, k: float) -> float:
    """Compensated sum of i^k sqrt(i-1) for i = 2 .. n/2, over its own terms."""
    return math.fsum(i**k * math.sqrt(i - 1.0) for i in range(2, n // 2 + 1))


def fit_order_by_polyfit(ns, errors) -> float:
    """Log-log slope of |error| against n by numpy's least-squares line fit
    (LAPACK), the earlier form of asymptotics.fit_error_order."""
    log_e = np.log(np.maximum(np.abs(np.asarray(errors, dtype=np.float64)), 1e-300))
    return float(np.polyfit(np.log(np.asarray(ns, dtype=np.float64)), log_e, 1)[0])


def component_sums_by_decimal(n: int) -> ComponentSums:
    """The four component sums of sum_i g(i) in 40-digit decimal arithmetic.

    The earlier form of asymptotics.component_sums: each square root is
    taken and each term summed at 40 digits, the cubic numerator as an exact
    integer, and each piece is divided by 15N once.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        cubic = 0
        quadratic = linear = constant = Decimal(0)
        a = Decimal(2 * n).sqrt()  # sqrt(2N(i-1)) at i = 2
        for i in range(2, n // 2 + 1):
            b = Decimal((i - 1) * i).sqrt()
            c = Decimal(2 * n * i).sqrt()
            cubic -= 8 * i**3
            quadratic += i**2 * (-16 * a + 8 * b + 16 * c + 20)
            linear += i * (32 * a - 16 * b - 40 * c)
            constant += -16 * a + 8 * b + 10 * c + (15 * n - 5)
            a = c
        scale = Decimal(15 * n)
        pieces = [Decimal(cubic) / scale, quadratic / scale, linear / scale, constant / scale]
        return ComponentSums(*(float(p) for p in pieces), total=float(sum(pieces)))


def strip_integral_printed(n: int, i: int) -> mpf:
    """Q_i of the diagonal partition from the printed formulas, at 50 digits.

    The five regimes as printed: the first strip, the lower and upper cubics
    (whose terms of size n^3 cancel, harmless at this precision), for odd n
    the middle strip N^2 (1-a)^2 (19 + 50a - 24a^2 + 62a^3 - 47a^4)/180 with
    a = sqrt((N-1)/N), and the last strip 1/(15n).
    """
    with mp.workdps(50):
        n, i = mpf(n), mpf(i)
        if i == 1:
            return 1 - 14 * sqrt(2) / (15 * sqrt(n)) + 2 / (5 * n)
        if i == n:
            return 1 / (15 * n)
        if 2 * i == n + 1:
            a = sqrt((n - 1) / n)
            return n**2 * (1 - a) ** 2 * (19 + 50 * a - 24 * a**2 + 62 * a**3 - 47 * a**4) / 180
        if i <= n / 2:
            a = sqrt(2 * n) * sqrt(i - 1)
            b = sqrt((i - 1) * i)
            c = sqrt(2 * n) * sqrt(i)
            poly = (
                -4 * i**3
                + i**2 * (-16 * a + 4 * b + 16 * c + 10)
                + i * (32 * a - 8 * b - 40 * c + 5)
                + (-16 * a + 4 * b + 10 * c + 15 * n - 5)
            )
        else:
            t = sqrt(1 - i / n) * sqrt((n + 1 - i) / n)
            poly = (
                4 * i**3
                + i**2 * (4 * n * t - 12 * n - 2)
                + i * (-8 * n**2 * t + 12 * n**2 + 4 * n - 3)
                + (4 * n**3 * t - 4 * n**3 - 2 * n**2 + 3 * n + 1)
            )
        return poly / (15 * n)


def expected_l2_sq_printed(n: int) -> mpf:
    """E[L2^2] = 1/(4n) - sum_i Q_i / n^2 for n >= 2, at 50 digits."""
    with mp.workdps(50):
        total = mp.fsum(strip_integral_printed(n, i) for i in range(1, n + 1))
        return 1 / mpf(4 * n) - total / mpf(n) ** 2


# Expected squared discrepancy of the diagonal partition, precomputed with
# 25-digit adaptive quadrature of the strip overlap integrals (outer and
# inner integrals split analytically at every kink of the integrand), then
# rounded to the nearest binary64.
EXACT_HIGH_PRECISION = {
    2: 0.05,
    4: 0.020353234628542648,
    6: 0.012701923511028121,
    16: 0.004442186659296323,
}

# Q_mid, the integral of q_i^2 over the middle strip i = (n+1)/2 of odd n,
# integrated exactly: on each cell of the square cut by the kinks of the
# clipped areas (x + y = a, x + y = 2 - a and x = a, y = a, with
# a = sqrt((n-1)/n)) q_i^2 is one polynomial, integrated symbolically with
# sympy, then rounded to 25 significant digits.
MIDDLE_STRIP_INTEGRAL = {
    3: "0.09543823109099507805519380",
    5: "0.09103020686386448815423404",
    7: "0.08896252874856001984457392",
    9: "0.08776800455932463037070037",
    15: "0.08604121413514594667014229",
    33: "0.08458156851275711454230767",
    65: "0.08397065508730164841990586",
    1025: "0.08337396886628695444484685",
}

# Printed reference values for the expected squared discrepancy (quasi-Monte
# Carlo approximation, reported to the shown digits).
PRINTED_TABLE1 = {
    4: 0.0203506,
    6: 0.0127002,
    8: 0.009239,
    10: 0.007267,
    12: 0.005993,
    14: 0.005101,
    16: 0.004441,
    32: 0.002188,
    48: 0.001453,
    64: 0.001088,
    80: 0.000869,
    96: 0.000724,
    112: 0.000620,
    128: 0.000543,
}


def render_csv_by_join(records: list[dict]) -> str:
    """CSV text as the CLI rendered it before its row template: each value of
    each record formatted alone (floats to 12 significant digits, anything
    else by str) and joined with commas, under a header of the first
    record's keys."""
    rows = [",".join(format(v, ".12g") if isinstance(v, float) else str(v) for v in r.values()) for r in records]
    return "\n".join([",".join(records[0]), *rows]) + "\n"
