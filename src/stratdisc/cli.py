"""Command-line interface: argument parsing, dispatch and rendering of the
table, ratio, sample, mc and verify commands.

All output is plain CSV or JSON with floats printed to 12 significant
digits, so identical invocations produce byte-identical bytes.  verify's
checks live in `stratdisc.checks`, which no other command loads.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Any, Callable, Iterable, Sequence

# Each command imports the library modules it runs, so a command loads (and,
# without bytecode, compiles) only its own modules; the parser reads
# partition's kinds, which loads numpy, and the package's direct-summation cap.

TABLE1_NS = (4, 6, 8, 10, 12, 14, 16, 32, 48, 64, 80, 96, 112, 128)
RATIO_DEFAULT_NS = (4, 8, 16, 32, 64, 128)

Record = dict[str, Any]


def _jnum(value: float) -> float:
    """Float rounded to the printed precision, for JSON emission."""
    return float("%.12g" % value)


def _render(args: argparse.Namespace, records: Iterable[Record],
            envelope: Callable[[list[Record]], Any] = lambda rows: {"rows": rows}) -> str:
    """Records, all with the same keys and the same value types, as CSV or as
    JSON inside envelope.

    CSV: the keys are the header, and one row template built from the first
    record prints each float to 12 significant digits ('%.12g') and any
    other value as str does ('%s').  JSON: floats are rounded to the printed
    precision.
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
    from . import exactform, lowdisc, partition, qgeometry

    # the exact column first, so an n it refuses fails before any QMC work
    exact = [exactform.expected_l2_sq_exact(n).value for n in args.n]
    qmc = qgeometry.expected_l2_sq_qmc(args.n, lowdisc.halton(lowdisc.HaltonConfig(count=args.m_nodes)))

    def row(n: int, exact: float, qmc: float) -> Record:
        return {
            "n": n,
            "exact": exact,
            "qmc": qmc,
            "asymptotic": exactform.expected_l2_sq_asymptotic(n),
            "random": exactform.random_baseline(n),
            "vertical": partition.Grid(n, 1).expected_l2_sq(),
        }

    return _render(args, map(row, args.n, exact, qmc))


def cmd_ratio(args: argparse.Namespace) -> str:
    """Ratio of the i.i.d. baseline to the exact diagonal expectation."""
    from . import exactform

    def row(n: int) -> Record:
        return {"n": n, "ratio": exactform.ratio_to_random(n, exactform.expected_l2_sq_exact(n))}

    return _render(args, map(row, args.n))


def cmd_sample(args: argparse.Namespace) -> str:
    """One stratified sample: rows of (x, y, cell)."""
    from . import partition

    points = partition.PARTITIONS[args.partition](args.n).sample(1, args.seed)[0].tolist()
    return _render(
        args,
        ({"x": x, "y": y, "cell": c} for c, (x, y) in enumerate(points, start=1)),
        lambda rows: {"n": args.n, "seed": args.seed, "partition": args.partition, "points": rows},
    )


def cmd_mc(args: argparse.Namespace) -> str:
    """Monte Carlo estimate over stratified replicates, with standard error."""
    from . import estimators, partition

    est = estimators.expected_l2_sq_mc(partition.PARTITIONS[args.partition](args.n), args.replicates, args.seed)
    record = {
        "n": args.n,
        "partition": args.partition,
        "replicates": args.replicates,
        "seed": args.seed,
        "value": est.value,
        "std_error": est.std_error,
    }
    return _render(args, [record], lambda rows: rows[0])


def run_verify(args: argparse.Namespace) -> tuple[str, bool]:
    """The checks of `stratdisc.checks` at verify's sizes, and whether all passed."""
    from . import asymptotics, checks, lowdisc, partition

    # sorted and deduplicated: the collapse check compares neighbouring n
    ns = tuple(sorted(set(args.n or ())))
    # the QMC check's 20,000 nodes are verify's largest allocation: it runs
    # first, on the smallest heap, and its record keeps its place below; the
    # check points are drawn after it, so they are not held through it
    cross_method = checks.check_cross_method(lowdisc.halton(lowdisc.HaltonConfig(count=20000)), (4, 16, 64), tol=0.01)
    from .streams import cell_uniforms

    u = cell_uniforms(20240817, partition.STREAM_CHECKS, 2000, 1)[0]
    records = [
        *checks.check_sqrt_sum_orders((0.5, 1.0, 1.5, 2.0, 2.5), tol=0.25),
        *checks.check_harmonic(asymptotics.CHECK_NS, rel_tol=1e-12),
        *checks.check_pair_identity((8, 16, 64), tol=1e-10),
        *checks.check_components(ns or (4, 16, 64, 256), cubic_tol=1e-9, identity_tol=1e-8),
        *checks.check_collapse(ns or tuple(2**j for j in range(6, 13)), growth=2.0),
        *checks.check_strip_quadrature((4, 8), tol=1e-12),
        *cross_method,
        *checks.check_worked_example(tol=5e-4),
        *checks.check_pairwise_anchors(tol=1e-12),
        *checks.check_pairwise_vs_brute([u[:k] for k in (1, 2, 7, 19, 32)], tol=1e-12),
        *checks.check_telescoping((4, 16), u, tol=1e-10),
    ]
    all_passed = all(r["passed"] for r in records)

    if args.format == "json":
        text = _render(args, records, lambda rows: {"checks": rows, "passed": all_passed})
    else:
        lines = [f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['detail']}" for r in records]
        lines.append(f"{sum(r['passed'] for r in records)}/{len(records)} checks passed")
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
        p.add_argument("--n", type=_checked(int, lambda n: n >= 2, "must be >= 2"), metavar="N", required=True)
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
