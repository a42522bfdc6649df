"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity by a different route than the library:
clipped areas by slicing instead of vertex cases, the pairwise discrepancy
identity by plain Python loops and in exact rational arithmetic, the
integral of D^2 over the points' own grid cells by counting each cell in
exact rational arithmetic, the integrals of q_i^2 by midpoint quadrature
strip by strip, radical inverses by exact rational digit reversal, the
strip integrals from their printed polynomial forms in 50-digit
arithmetic.  A few keep an earlier form of a library routine (the
clipped-area kernel with a fresh array per pass, the per-strip overlap
fraction, the all-cut overlap vector, the exact q_i^2 integrals read off
its dense output, the per-n power sums, the scalar pair form, the per-point
and per-strip loops of the telescoping and pair-identity checks, the
per-cell draw by numpy's own SeedSequence
and PCG64 (from row 0, or advanced to a row offset), the MC moments summed
from a list, the component sums in 40-digit decimal arithmetic),
which the library must reproduce bit for bit.  The O(n^2) min-form and
max-form Warnock kernels, which the sort-once kernel replaced, must agree
with each other bit for bit.  The sqrt-sum approximants' offsets c + a ln n
and remainder orders are derived here in mpmath, from the direct sums
expanded binomially and summed by Euler-Maclaurin, and the log-log slope of
acceptance criterion 4 is np.polyfit's.  The jittered grid's closed form,
written as a difference of squares in float arithmetic, checks Grid's
integer fraction.  The cell lookup and cell areas, which no library routine
needs, live here too, and so does the CLI's earlier per-value CSV
rendering, which its row template must reproduce byte for byte.  None of this code is imported by the package.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf, sqrt

from stratdisc import asymptotics, checks, estimators, exactform, partition, qgeometry
from stratdisc.asymptotics import ComponentSums
from stratdisc.lowdisc import l2_discrepancy_sq_batch
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


def overlap_vector_by_all_cuts(gs, x, y) -> np.ndarray:
    """All overlap fractions (q_1, ..., q_N) at each point, in one kernel call.

    x and y are scalars or broadcastable arrays of shape S; the result has
    shape S + (N,), and row j holds the N fractions at point j: every cut at
    every point, with V(r_N) = 0 set by hand.  The library's overlap_vector,
    which takes each strip's own two cuts along axis 0, must equal its
    transpose bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)[..., np.newaxis]
    y = np.asarray(y, dtype=np.float64)[..., np.newaxis]
    xy = x * y
    v = np.empty(xy.shape[:-1] + (gs.n + 1,), dtype=np.float64)
    v[..., :1] = xy
    v[..., 1:-1] = intersection_area_grid(gs.cuts[1:-1], x, y)
    v[..., -1] = 0.0
    return gs.n * (v[..., :-1] - v[..., 1:])


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
    if m != int(m):
        raise ValueError(f"m must be an integer, got m={m}")
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


def mc_moments_by_list(partition, replicates: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of MC replicates with the values held in a Python list.

    expected_l2_sq_mc before it kept the values in one float64 array: the
    same blocks, concatenated and converted to a list for both fsum passes.
    The library's value and std_error must equal these bit for bit.
    """
    rows = max(1, estimators._BLOCK_POINTS // partition.n)
    values = []
    for start in range(0, replicates, rows):
        points = partition.sample(min(rows, replicates - start), seed, start)
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


def cell_integral_exact(points: np.ndarray) -> Fraction:
    """The integral of D(x, y)^2 in exact rational arithmetic, cell by cell.

    Each cell of the grid (0, sorted x, 1) x (0, sorted y, 1) is counted
    afresh: a point lies in [0,x) x [0,y) for every (x, y) inside the cell
    exactly when its coordinates are at most the cell's lower corner.  On
    the cell, D = c - xy with c constant, and its square is integrated as a
    polynomial.
    """
    n = len(points)
    pts = [(Fraction(x), Fraction(y)) for x, y in points.tolist()]
    xs = [Fraction(0), *sorted(x for x, _ in pts), Fraction(1)]
    ys = [Fraction(0), *sorted(y for _, y in pts), Fraction(1)]
    total = Fraction(0)
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            c = Fraction(sum(x <= x0 and y <= y0 for x, y in pts), n)
            total += (c * c * (x1 - x0) * (y1 - y0) - c * (x1**2 - x0**2) * (y1**2 - y0**2) / 2
                      + (x1**3 - x0**3) * (y1**3 - y0**3) / 9)
    return total


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


def overlap_square_integrals_by_overlap_vector(gs) -> np.ndarray:
    """The exact integrals of q_i^2 in their dense-gather form.

    The same Gauss-Legendre nodes as qgeometry.overlap_square_integrals,
    but q_i at strip i's nodes is read off overlap_vector_by_all_cuts,
    which computes all N + 1 clipped areas at every node: O(N^2) work, in
    blocks of strips that keep its (points, N + 1) arrays within 64 KiB.
    The library's engine, which evaluates only each strip's own two cuts,
    must equal it bit for bit.
    """
    n = gs.n
    lo, hi = gs.cuts[:-1, np.newaxis], gs.cuts[1:, np.newaxis]
    zero, one = np.zeros_like(lo), np.ones_like(lo)
    edges = np.sort(np.clip(np.hstack([zero, one, lo, hi, lo - 1.0, hi - 1.0, hi - lo]), 0.0, 1.0), axis=1)
    width = np.diff(edges, axis=1)[..., np.newaxis]
    x = edges[:, :-1, np.newaxis] + width * qgeometry._GL_NODES
    c = np.hstack([zero, one, lo, hi, lo, hi])[:, np.newaxis, np.newaxis, :]
    lines = np.sort(np.clip(c + qgeometry._LINE_SLOPES * x[..., np.newaxis], 0.0, 1.0), axis=3)
    height = np.diff(lines, axis=3)[..., np.newaxis]
    y = lines[..., :-1, np.newaxis] + height * qgeometry._GL_NODES
    weight = (width * qgeometry._GL_WEIGHTS)[..., np.newaxis, np.newaxis] * height * qgeometry._GL_WEIGHTS
    x, y, weight = (a.reshape(n, -1) for a in np.broadcast_arrays(x[..., np.newaxis, np.newaxis], y, weight))
    q = np.empty_like(x)
    step = max(1, 2**13 // (x.shape[1] * (n + 1)))
    for a in range(0, n, step):
        b = min(a + step, n)
        q[a:b] = overlap_vector_by_all_cuts(gs, x[a:b], y[a:b])[np.arange(b - a), :, np.arange(a, b)]
    return np.sum(weight * q * q, axis=1)


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


def _power_sum_by_euler_maclaurin(m: int, e: mpf) -> mpf:
    """sum_{j=1}^m j^e at the working precision, by Euler-Maclaurin about m with
    the constant zeta(-e), or at e = -1 the harmonic number's Euler gamma.
    Eight Bernoulli terms leave an error of order m^(e-17)."""
    m = mpf(m)
    if e == -1:
        return mp.log(m) + mp.euler + 1 / (2 * m) - mp.fsum(
            mp.bernoulli(2 * j) / (2 * j * m ** (2 * j)) for j in range(1, 9)
        )
    return mp.zeta(-e) + m ** (e + 1) / (e + 1) + m**e / 2 + mp.fsum(
        mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.ff(e, 2 * j - 1) * m ** (e - 2 * j + 1)
        for j in range(1, 9)
    )


def power_sqrt_sum_expanded(n: int, k: float) -> mpf:
    """sum_{i=2}^{n/2} i^k sqrt(i-1) at the working precision, for even n >= 64.

    The sum is sum_{j=1}^{M} (j+1)^k sqrt(j) with M = n/2 - 1: its j = 1 term
    2^k plus sum_r C(k, r) sum_{j=2}^{M} j^(k+1/2-r), each power summed by
    Euler-Maclaurin.  The series in r ends at r = k for an integer k; for a
    half-integer k its terms fall like 2^-r and it is cut below 1e-40.
    """
    k = mpf(k)
    total, r = 2**k, 0
    while r <= k or (k != int(k) and abs(term) >= mpf(10) ** -40):
        term = mp.binomial(k, r) * (_power_sum_by_euler_maclaurin(n // 2 - 1, k + mpf(1) / 2 - r) - 1)
        total += term
        r += 1
    return total


def power_sqrt_sum_approx_printed(n: int, k: float) -> mpf:
    """asymptotics.power_sqrt_sum_approx transcribed at the working precision,
    sqrt(2) and the logarithm included."""
    n, k, half, sqrt2 = mpf(n), mpf(k), mpf(1) / 2, mp.sqrt(2)
    if k == half:
        return (
            n**2 / 8 - n / 4 + (sqrt2 * (6 * n**2 - 10 * n - 2) / (mp.sqrt(n - 2) * mp.sqrt(n)) + 21) / (24 * sqrt2)
            - mp.log(n / 4) / 8 - 1
        )
    t1 = -(2 ** (-k - 5 * half)) * (4**k - 2 * n ** (k - half)) / (1 - 2 * k)
    t2 = -(2 ** (half - k) * n ** (k + half) - 2 ** (k + 3 * half)) / (2 * (2 * k + 1))
    t3 = 2 ** (-k - half) * (n ** (k + 3 * half) - 2 ** (2 * k + 3)) / (2 * k + 3)
    t4 = (2 ** (-k - 3) / 3) * (
        sqrt2 * (2 * k * (n - 2) + n * (6 * n - 11)) * n ** (k - 1) / mp.sqrt(n - 2) + 11 * 4**k - 4**k * k
    )
    return t1 + t2 + t3 + t4


def sqrt_sum_offset(n: int, k: float, a: float = 0.0) -> mpf:
    """printed - a ln n - direct for the sqrt-sum approximant at even n, in
    mpmath at (k + 3/2) log10 n + 40 digits, enough that the n^(k+3/2)-sized
    terms of both sides cancel with 30 digits to spare."""
    with mp.workdps(int((k + 1.5) * math.log10(n)) + 40):
        value = power_sqrt_sum_approx_printed(n, k) - a * mp.log(n) - power_sqrt_sum_expanded(n, k)
    return value


def check_telescoping_by_rows(ns, points: np.ndarray, tol: float) -> list[dict]:
    """checks.check_telescoping with a Python loop over the rows of q: one fsum,
    product, difference and max per point."""
    worst = 0.0
    for n in ns:
        gs = partition.GeneratingSet(n)
        for block in (points[a:a + 256] for a in range(0, len(points), 256)):
            q = overlap_vector_by_all_cuts(gs, block[:, 0], block[:, 1])
            for row, (x, y) in zip(q.tolist(), block.tolist()):
                worst = max(worst, abs(math.fsum(row) - n * x * y))
    return [checks._record("telescoping", worst <= tol, f"max |sum q_i - n*x*y| = {checks.fmt(worst)}")]


def paired_strip_integral_scalar(n: int, i: int) -> float:
    """asymptotics.paired_strip_integral in its earlier scalar form: Python
    int powers i**3 and i**2 and math.sqrt, one pair index at a time."""
    root2 = math.sqrt(2.0)
    s_lo = math.sqrt((i - 1.0) / n)
    s_hi = math.sqrt(i / n)
    return (
        -8.0 * i**3
        + i**2 * (-16.0 * root2 * n * s_lo + 8.0 * n * s_lo * s_hi + 16.0 * root2 * n * s_hi + 20.0)
        + i * (32.0 * root2 * n * s_lo - 16.0 * n * s_lo * s_hi - 40.0 * root2 * n * s_hi)
        + (-16.0 * root2 * n * s_lo + 8.0 * n * s_lo * s_hi + 10.0 * root2 * n * s_hi + 15.0 * n - 5.0)
    ) / (15.0 * n)


def check_pair_identity_by_loop(ns, tol: float) -> list[dict]:
    """checks.check_pair_identity with the scalar pair form, one pair index i at a time."""
    records = []
    for n in ns:
        worst = max(
            abs(
                paired_strip_integral_scalar(n, i)
                - (exactform.strip_integral_lower(n, i) + exactform.strip_integral_upper(n, n + 1 - i))
            )
            for i in range(2, n // 2 + 1)
        )
        records.append(checks._record(
            f"pair-identity n={n}", worst <= tol, f"max |pair - (lower+upper)| = {checks.fmt(worst)}"
        ))
    return records


def fit_order_by_polyfit(ns, errors) -> float:
    """Log-log slope of |error| against n by numpy's least-squares line fit:
    the decay order that acceptance criterion 4 reads off the gap between the
    closed form and the 5/(72n) law.  No check of the package fits a slope."""
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
