"""The verification suite: the summation identities and cross-method checks.

Each check takes its sizes, inputs and tolerances and returns records of
name, pass flag and detail.  The module has two callers: `stratdisc verify`
(`cli.run_verify`) runs the checks at its sizes, and the acceptance gate
(`tests/test_acceptance.py`) runs the same functions at its own.  No other
command loads it.  It never imports `stratdisc.cli`: under
`python -m stratdisc.cli` the CLI is `__main__`, and that import would load
and run it a second time.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

# modules, not names: each call looks its function up in the layer, so a
# function patched there (by a test or perfbench's tracer) is the one run
from . import asymptotics, exactform, lowdisc, partition, qgeometry

Record = dict[str, Any]


def fmt(value: float) -> str:
    """Canonical float rendering: 12 significant digits, '.' separator."""
    return format(value, ".12g")


def _record(name: str, passed: bool, detail: str) -> Record:
    return {"name": name, "passed": bool(passed), "detail": detail}


def check_sqrt_sum_orders(ks: Sequence[float], tol: float) -> list[Record]:
    """Each sqrt-sum approximant, less its derived c + a ln n, within tol * n^p
    of the direct sum over CHECK_NS, with (p, c, a) from SQRT_SUM_REMAINDERS."""
    ns = asymptotics.CHECK_NS
    records = []
    for k in ks:
        p, c, a = asymptotics.SQRT_SUM_REMAINDERS[k]
        worst = max(
            abs(asymptotics.power_sqrt_sum_approx(n, k) - direct - c - a * math.log(n)) / n**p
            for n, direct in zip(ns, asymptotics.power_sqrt_sum(ns, k))
        )
        records.append(_record(
            f"sqrt-sum-order k={fmt(k)}",
            worst <= tol,
            f"max |printed - c - a ln n - direct|/n^p = {fmt(worst)} "
            f"(p = {fmt(p)}, c = {fmt(c)}, a = {fmt(a)}; bound {fmt(tol)})",
        ))
    return records


def check_harmonic(ns: Sequence[int], rel_tol: float) -> list[Record]:
    """Harmonic approximants over ns: within the claimed O(n^(k-2)) with constant 1
    for k = 1/2, 3/2, 5/2; exact to rel_tol for k = 1, 2; off by the constant
    1/120 for k = 3, after a floating-point slack of rel_tol times the sum.
    """
    records = []
    for k in (0.5, 1.5, 2.5):
        worst = max(
            abs(asymptotics.power_sum_approx(n, k) - direct) / n ** (k - 2.0)
            for n, direct in zip(ns, asymptotics.power_sum(ns, k))
        )
        records.append(_record(
            f"harmonic-bound k={fmt(k)}", worst <= 1.0, f"max |error|/n^(k-2) = {fmt(worst)} (bound 1)"
        ))
    for k in (1.0, 2.0):
        worst = max(
            abs(asymptotics.power_sum_approx(n, k) - direct) / direct
            for n, direct in zip(ns, asymptotics.power_sum(ns, k))
        )
        records.append(_record(
            f"harmonic-exact k={fmt(k)}", worst <= rel_tol, f"max relative error {fmt(worst)}"
        ))
    worst = max(
        abs(asymptotics.power_sum_approx(n, 3.0) - direct) - rel_tol * direct
        for n, direct in zip(ns, asymptotics.power_sum(ns, 3.0))
    )
    records.append(_record(
        "harmonic-constant k=3", worst <= 1.0 / 120.0 + 1e-6, f"max |error| - fp slack = {fmt(worst)}"
    ))
    return records


def check_pair_identity(ns: Sequence[int], tol: float) -> list[Record]:
    """g(i) = Q_i + Q_{N+1-i} against the two regime formulas, for each n."""
    records = []
    for n in ns:
        i = np.arange(2, n // 2 + 1)
        pairs = asymptotics.paired_strip_integral(n, i)
        sums = exactform.strip_integral_lower(n, i) + exactform.strip_integral_upper(n, n + 1 - i)
        worst = float(np.max(np.abs(pairs - sums)))
        records.append(_record(
            f"pair-identity n={n}", worst <= tol, f"max |pair - (lower+upper)| = {fmt(worst)}"
        ))
    return records


def check_components(ns: Sequence[int], cubic_tol: float, identity_tol: float) -> list[Record]:
    """The cubic component against its closed form, and the component total
    against the interior strip sum, worst over ns."""
    worst_cubic = 0.0
    worst_total = 0.0
    for n in ns:
        comps = asymptotics.component_sums(n)
        worst_cubic = max(worst_cubic, abs(comps.cubic - asymptotics.cubic_component_closed_form(n)))
        worst_total = max(worst_total, abs(comps.total - asymptotics.interior_strip_sum(n)))
    label = ",".join(map(str, ns))
    return [
        _record(f"component-cubic-closed n={{{label}}}", worst_cubic <= cubic_tol,
                f"max |direct - closed| = {fmt(worst_cubic)}"),
        _record(f"component-identity n={{{label}}}", worst_total <= identity_tol,
                f"max |sum(components) - interior sum| = {fmt(worst_total)}"),
    ]


def check_collapse(ns: Sequence[int], growth: float) -> list[Record]:
    """|interior sum - 13n/72| / sqrt(n) over increasing ns, each at most growth
    times the last."""
    normalized = [abs(asymptotics.interior_strip_sum(n) - 13.0 * n / 72.0) / math.sqrt(n) for n in ns]
    ok = all(later <= growth * earlier for earlier, later in zip(normalized, normalized[1:]))
    return [_record(
        "collapse-order",
        ok and all(math.isfinite(v) for v in normalized),
        "normalized |interior - 13n/72|/sqrt(n): " + ", ".join(fmt(v) for v in normalized),
    )]


def check_strip_quadrature(ns: Sequence[int], tol: float) -> list[Record]:
    """Closed-form strip integrals against the exact piecewise integrals of q_i^2."""
    records = []
    for n in ns:
        table = exactform.strip_integral_table(n)
        quads = qgeometry.overlap_square_integrals(partition.GeneratingSet(n))
        worst = float(np.max(np.abs(table - quads)))
        records.append(_record(
            f"strip-quadrature n={n}", worst <= tol, f"max |closed - quadrature| = {fmt(worst)}"
        ))
    return records


def check_cross_method(nodes: lowdisc.PointSet, ns: Sequence[int], tol: float) -> list[Record]:
    """Relative gap of the QMC estimate on nodes to the closed form, worst over ns."""
    exact = [exactform.expected_l2_sq_exact(n).value for n in ns]
    qmc = qgeometry.expected_l2_sq_qmc(ns, nodes)
    del nodes  # the generator then holds the last reference and drops it once sorted
    worst = max([0.0, *(abs(q - e) / e for e, q in zip(exact, qmc))])
    label = ",".join(map(str, ns))
    return [_record("exact-vs-qmc", worst <= tol, f"max relative gap {fmt(worst)} over n in {{{label}}}")]


def check_worked_example(tol: float) -> list[Record]:
    """The four overlap fractions at (0.4, 0.8) with n = 4 against their rounded values."""
    got = qgeometry.overlap_vector(partition.GeneratingSet(4), 0.4, 0.8)[:, 0].tolist()
    worst = max(abs(g - w) for g, w in zip(got, (0.8114, 0.3886, 0.08, 0.0)))
    return [_record("worked-example", worst <= tol, f"q = ({', '.join(fmt(v) for v in got)})")]


def _l2_sq(points: np.ndarray) -> float:
    return float(lowdisc.l2_discrepancy_sq_batch(points[np.newaxis])[0])


def check_pairwise_anchors(tol: float) -> list[Record]:
    """The pairwise identity at the single points (1, 1) and (0, 0): 1/9 and 11/18."""
    corner = _l2_sq(np.array([[1.0, 1.0]]))
    origin = _l2_sq(np.array([[0.0, 0.0]]))
    return [_record(
        "pairwise-anchors",
        abs(corner - 1.0 / 9.0) <= tol and abs(origin - 11.0 / 18.0) <= tol,
        f"(1,1) -> {fmt(corner)}, (0,0) -> {fmt(origin)}",
    )]


def check_pairwise_vs_brute(sets: Sequence[np.ndarray], tol: float) -> list[Record]:
    """The pairwise identity against the cell integral of D^2 on each (k, 2) point array of sets."""
    worst = 0.0
    for points in sets:
        pts = lowdisc.PointSet(points)
        worst = max(worst, abs(_l2_sq(pts.points) - lowdisc.l2_discrepancy_sq_cells(pts)))
    return [_record("pairwise-vs-brute", worst <= tol, f"max |pairwise - brute| = {fmt(worst)}")]


def check_telescoping(ns: Sequence[int], points: np.ndarray, tol: float) -> list[Record]:
    """sum_i q_i(x, y) = n x y at every point, for each n."""
    worst = 0.0
    for n in ns:
        gs = partition.GeneratingSet(n)
        # points in blocks, so that neither q nor a list of it is held whole
        for block in (points[a:a + 256] for a in range(0, len(points), 256)):
            x, y = block[:, 0], block[:, 1]
            sums = np.fromiter(map(math.fsum, qgeometry.overlap_vector(gs, x, y).T.tolist()), np.float64, len(x))
            worst = max(worst, float(np.max(np.abs(sums - n * x * y))))
    return [_record("telescoping", worst <= tol, f"max |sum q_i - n*x*y| = {fmt(worst)}")]
