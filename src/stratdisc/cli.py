"""Command-line interface: tables, ratio curves, samples, MC runs, verification.

All output is plain CSV or JSON with floats printed to 12 significant
digits, so identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

# Each command and check imports the library modules it runs, so a command
# loads only its own modules; the parser reads partition's kinds and the
# package's direct-summation cap.
if TYPE_CHECKING:
    from .lowdisc import PointSet

TABLE1_NS = (4, 6, 8, 10, 12, 14, 16, 32, 48, 64, 80, 96, 112, 128)
RATIO_DEFAULT_NS = (4, 8, 16, 32, 64, 128)

Record = dict[str, Any]


def fmt(value: float) -> str:
    """Canonical float rendering: 12 significant digits, '.' separator."""
    return format(value, ".12g")


def _jnum(value: float) -> float:
    """Float rounded to the printed precision, for JSON emission."""
    return float(fmt(value))


def _render(args: argparse.Namespace, records: Iterable[Record],
            envelope: Callable[[list[Record]], Any] = lambda rows: {"rows": rows}) -> str:
    """Records, all with the same keys and the same value types, as CSV or as
    JSON inside envelope.

    CSV: the keys are the header, and one row template built from the first
    record prints each float as fmt does ('%.12g') and any other value as
    str does ('%s').  JSON: floats are rounded to the printed precision.
    Records are consumed one at a time, so a generator of them is never held
    whole.
    """
    header = template = ""
    rows: list[Any] = []
    for record in records:
        if args.format == "json":
            rows.append({key: _jnum(v) if isinstance(v, float) else v for key, v in record.items()})
            continue
        if not header:
            header = ",".join(record)
            template = ",".join("%.12g" if isinstance(v, float) else "%s" for v in record.values())
        rows.append(template % tuple(record.values()))
    if args.format == "json":
        import json

        return json.dumps(envelope(rows), indent=2) + "\n"
    return "\n".join([header, *rows]) + "\n"


def cmd_table(args: argparse.Namespace) -> str:
    """Per-n expected discrepancy by every method, plus the baselines."""
    from . import estimators, exactform, lowdisc

    # the exact column first, so an n it refuses fails before any QMC work
    exact = [exactform.expected_l2_sq_exact(n).value for n in args.n]
    qmc = estimators._qmc_values(args.n, lowdisc.halton(lowdisc.HaltonConfig(count=args.m_nodes)))

    def row(n: int, exact: float, qmc: float) -> Record:
        return {
            "n": n,
            "exact": exact,
            "qmc": qmc,
            "asymptotic": exactform.expected_l2_sq_asymptotic(n),
            "random": estimators.random_baseline(n),
            "vertical": estimators.vertical_baseline(n),
        }

    return _render(args, map(row, args.n, exact, qmc))


def cmd_ratio(args: argparse.Namespace) -> str:
    """Ratio of the i.i.d. baseline to the exact diagonal expectation."""
    from . import estimators, exactform

    def row(n: int) -> Record:
        return {"n": n, "ratio": estimators.ratio_to_random(n, exactform.expected_l2_sq_exact(n))}

    return _render(args, map(row, args.n))


def cmd_sample(args: argparse.Namespace) -> str:
    """One stratified sample: rows of (x, y, cell)."""
    from . import partition

    points = partition.sample_partition(args.partition, args.n[0], 1, args.seed)[0].tolist()
    return _render(
        args,
        ({"x": x, "y": y, "cell": c} for c, (x, y) in enumerate(points, start=1)),
        lambda rows: {"n": args.n[0], "seed": args.seed, "partition": args.partition, "points": rows},
    )


def cmd_mc(args: argparse.Namespace) -> str:
    """Monte Carlo estimate over stratified replicates, with standard error."""
    from . import estimators

    est = estimators.expected_l2_sq_mc(args.n[0], args.replicates, args.seed, args.partition)
    record = {
        "n": args.n[0],
        "partition": args.partition,
        "replicates": args.replicates,
        "seed": args.seed,
        "value": est.value,
        "std_error": est.std_error,
    }
    return _render(args, [record], lambda rows: rows[0])


# ---------------------------------------------------------------------------
# verification suite
#
# Each check takes its sizes, inputs and tolerances and returns records of
# name, pass flag and detail.  `run_verify` runs them at the sizes below; the
# acceptance gate runs the same functions at its own sizes.


def _record(name: str, passed: bool, detail: str) -> Record:
    return {"name": name, "passed": bool(passed), "detail": detail}


def check_sqrt_sum_orders(ks: Sequence[float], tol: float) -> list[Record]:
    """Each sqrt-sum approximant, less its derived c + a ln n, within tol * n^p
    of the direct sum over CHECK_NS, with (p, c, a) from SQRT_SUM_REMAINDERS."""
    from . import asymptotics

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
    from . import asymptotics

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
    from . import asymptotics, exactform

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
    from . import asymptotics

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
    from . import asymptotics

    normalized = [abs(asymptotics.interior_strip_sum(n) - 13.0 * n / 72.0) / math.sqrt(n) for n in ns]
    ok = all(later <= growth * earlier for earlier, later in zip(normalized, normalized[1:]))
    return [_record(
        "collapse-order",
        ok and all(math.isfinite(v) for v in normalized),
        "normalized |interior - 13n/72|/sqrt(n): " + ", ".join(fmt(v) for v in normalized),
    )]


def check_strip_quadrature(ns: Sequence[int], tol: float) -> list[Record]:
    """Closed-form strip integrals against the exact piecewise integrals of q_i^2."""
    from . import exactform, partition, qgeometry

    records = []
    for n in ns:
        table = exactform.strip_integral_table(n)
        quads = qgeometry.overlap_square_integrals(partition.generating_set(n))
        worst = float(np.max(np.abs(table - quads)))
        records.append(_record(
            f"strip-quadrature n={n}", worst <= tol, f"max |closed - quadrature| = {fmt(worst)}"
        ))
    return records


def check_cross_method(nodes: PointSet, ns: Sequence[int], tol: float) -> list[Record]:
    """Relative gap of the QMC estimate on nodes to the closed form, worst over ns."""
    from . import estimators, exactform

    exact = [exactform.expected_l2_sq_exact(n).value for n in ns]
    qmc = estimators._qmc_values(ns, nodes)
    del nodes  # the generator then holds the last reference and drops it once sorted
    worst = max([0.0, *(abs(q - e) / e for e, q in zip(exact, qmc))])
    label = ",".join(map(str, ns))
    return [_record("exact-vs-qmc", worst <= tol, f"max relative gap {fmt(worst)} over n in {{{label}}}")]


def check_worked_example(tol: float) -> list[Record]:
    """The four overlap fractions at (0.4, 0.8) with n = 4 against their rounded values."""
    from . import partition, qgeometry

    got = qgeometry.overlap_vector(partition.generating_set(4), 0.4, 0.8)[:, 0].tolist()
    worst = max(abs(g - w) for g, w in zip(got, (0.8114, 0.3886, 0.08, 0.0)))
    return [_record("worked-example", worst <= tol, f"q = ({', '.join(fmt(v) for v in got)})")]


def _l2_sq(points: np.ndarray) -> float:
    from . import lowdisc

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
    from . import lowdisc

    worst = 0.0
    for points in sets:
        pts = lowdisc.PointSet(points)
        worst = max(worst, abs(_l2_sq(pts.points) - lowdisc.l2_discrepancy_sq_cells(pts)))
    return [_record("pairwise-vs-brute", worst <= tol, f"max |pairwise - brute| = {fmt(worst)}")]


def check_telescoping(ns: Sequence[int], points: np.ndarray, tol: float) -> list[Record]:
    """sum_i q_i(x, y) = n x y at every point, for each n."""
    from . import partition, qgeometry

    worst = 0.0
    for n in ns:
        gs = partition.generating_set(n)
        # points in blocks, so that neither q nor a list of it is held whole
        for block in (points[a:a + 256] for a in range(0, len(points), 256)):
            x, y = block[:, 0], block[:, 1]
            sums = np.fromiter(map(math.fsum, qgeometry.overlap_vector(gs, x, y).T.tolist()), np.float64, len(x))
            worst = max(worst, float(np.max(np.abs(sums - n * x * y))))
    return [_record("telescoping", worst <= tol, f"max |sum q_i - n*x*y| = {fmt(worst)}")]


def run_verify(args: argparse.Namespace) -> tuple[str, bool]:
    from . import asymptotics, lowdisc, partition

    # sorted and deduplicated: the collapse check compares neighbouring n
    ns = tuple(sorted(set(args.n or ())))
    checks = [
        *check_sqrt_sum_orders((0.5, 1.0, 1.5, 2.0, 2.5), tol=0.25),
        *check_harmonic(asymptotics.CHECK_NS, rel_tol=1e-12),
        *check_pair_identity((8, 16, 64), tol=1e-10),
        *check_components(ns or (4, 16, 64, 256), cubic_tol=1e-9, identity_tol=1e-8),
        *check_collapse(ns or tuple(2**j for j in range(6, 13)), growth=2.0),
        *check_strip_quadrature((4, 8), tol=1e-12),
        *check_cross_method(lowdisc.halton(lowdisc.HaltonConfig(count=20000)), (4, 16, 64), tol=0.01),
        *check_worked_example(tol=5e-4),
        *check_pairwise_anchors(tol=1e-12),
    ]
    # drawn after the QMC check, so the points and the stream caches are not
    # held through its 20,000 nodes
    u = partition._cell_uniforms(20240817, partition._STREAM_CHECKS, 2000, 1)[0]
    checks += [
        *check_pairwise_vs_brute([u[:k] for k in (1, 2, 7, 19, 32)], tol=1e-12),
        *check_telescoping((4, 16), u, tol=1e-10),
    ]
    all_passed = all(r["passed"] for r in checks)

    if args.format == "json":
        text = _render(args, checks, lambda rows: {"checks": rows, "passed": all_passed})
    else:
        lines = [f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['detail']}" for r in checks]
        lines.append(f"{sum(r['passed'] for r in checks)}/{len(checks)} checks passed")
        text = "\n".join(lines) + "\n"
    return text, all_passed


# ---------------------------------------------------------------------------
# argument parsing


def _parse_n_list(raw: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.replace(" ", "").split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _checked(parse: Callable[[str], Any], ok: Callable[[Any], bool], rule: str) -> Callable[[str], Any]:
    """An argparse type: parse raw, then reject a value for which ok is false."""

    def check(raw: str) -> Any:
        value = parse(raw)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {raw!r}")
        return value

    # argparse names the type in its error for unparsable input: "invalid int value"
    check.__name__ = parse.__name__
    return check


def build_parser() -> argparse.ArgumentParser:
    """The one parser: each setting's default and range rule is stated here once.

    Every command stores in `run` the function that takes the parsed
    arguments and returns the output text; verify's returns its pass flag too.
    """
    from . import MAX_DIRECT_N
    from .partition import PARTITIONS

    parser = argparse.ArgumentParser(
        prog="stratdisc",
        description="Expected L2 discrepancy of diagonally stratified samples of the unit square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    n_list = _checked(_parse_n_list, lambda ns: min(ns) >= 2, "n values must be >= 2")

    def add_common(p: argparse.ArgumentParser, run: Callable[[argparse.Namespace], Any]) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", default=None, help="write output to a file instead of stdout")
        p.set_defaults(run=run)

    p_table = sub.add_parser("table", help="expected discrepancy by all methods, per n")
    p_table.add_argument("--n", type=n_list, metavar="LIST", default=TABLE1_NS,
                         help=f"comma-separated cell counts (default: {','.join(map(str, TABLE1_NS))})")
    p_table.add_argument("--m-nodes", type=_checked(int, lambda m: m >= 1, "must be >= 1"), default=40000,
                         help="integration node count (default %(default)s)")
    add_common(p_table, cmd_table)

    p_ratio = sub.add_parser("ratio", help="i.i.d.-to-stratified expectation ratio, per n")
    p_ratio.add_argument("--n", type=n_list, metavar="LIST", default=RATIO_DEFAULT_NS,
                         help=f"comma-separated cell counts (default: {','.join(map(str, RATIO_DEFAULT_NS))})")
    add_common(p_ratio, cmd_ratio)

    for name, run, summary in (
        ("sample", cmd_sample, "draw one stratified sample"),
        ("mc", cmd_mc, "Monte Carlo estimate over stratified replicates"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--n", type=_checked(n_list, lambda ns: len(ns) == 1, "expected exactly one value"),
                       metavar="N", required=True)
        if name == "mc":
            p.add_argument("--replicates", type=_checked(int, lambda r: r >= 2, "must be >= 2"), default=10000)
        p.add_argument("--seed", type=_checked(int, lambda s: s >= 0, "must be >= 0"), default=0)
        p.add_argument("--partition", choices=PARTITIONS, default="diagonal")
        add_common(p, run)

    p_verify = sub.add_parser("verify", help="run the summation and cross-method checks")
    p_verify.add_argument(
        "--n",
        type=_checked(n_list, lambda ns: all(4 <= n <= MAX_DIRECT_N and n % 2 == 0 for n in ns),
                      f"values must be even, >= 4 and <= {MAX_DIRECT_N}"),
        metavar="LIST",
        default=None,
        help=f"override n values for the component-sum and collapse checks (even, 4 to {MAX_DIRECT_N})",
    )
    add_common(p_verify, run_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # --out is opened to append before the command runs: a bad path fails at
    # once, a file already there is kept until the text is ready, and a file
    # created here is removed if the command fails
    created = args.out is not None and not os.path.lexists(args.out)
    try:
        if args.out is not None:
            open(args.out, "a").close()
        result = args.run(args)
        text, passed = result if args.command == "verify" else (result, True)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            created = False
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if created and os.path.lexists(args.out):
            os.remove(args.out)
    return 0 if passed else 3


def entry() -> int:
    """`main`, then `gc.freeze()`: exit's collections skip what is left alive."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
