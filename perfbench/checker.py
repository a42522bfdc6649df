"""Correctness checks for every result row the stratdisc CLI prints.

A result row is a `table` or `ratio` row, the `mc` estimate, a `sample`
point or a `verify` check.  Each row ends in one of three states:

  ok       the printed values match the benchmark's own references;
  refused  no value was delivered: the row is missing, the process exited
           non-zero or printed a traceback, or it printed the `error:odd-n`
           marker for an even n;
  wrong    a value was printed and it is wrong, a `verify` line reads FAIL,
           or two identical invocations printed different bytes.

Both refused and wrong rows count as failed; only wrong rows make a run
incorrect.  References are independent of the package: the closed form is
re-evaluated with mpmath at 50 digits, the strip cuts are recomputed from
sqrt(2i/N), and the baselines are their textbook formulas.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

ODD_MARKER = "error:odd-n"

# Closed-form rows (`exact`, `ratio`) must match the 50-digit reference to
# six significant digits, so a wrong leading digit fails the row.  Finer
# deviations are not gated here: the largest one is reported as rel_err.
CLOSED_FORM_RTOL = 1e-6
# The paper's claim for the QMC column: within 1% of the exact value.
QMC_RTOL = 0.01
# Simple baselines are printed to 12 significant digits.
PRINTED_RTOL = 1e-10
# An MC estimate is wrong when |value - exact| exceeds this many standard
# errors.  For a correct estimator the chance per run is about 2e-9.
MC_Z_BOUND = 6.0
# Coordinates are printed to 12 significant digits, so a point may sit this
# far outside its strip after rounding and still be right.
STRIP_SLACK = 1e-11

REFERENCE_DPS = 50
_CACHE = Path(__file__).resolve().parent / ".cache" / "references.json"

OK, REFUSED, WRONG = "ok", "refused", "wrong"


@dataclass
class Row:
    """Verdict on one result row; rel_err is set for rows the metric covers."""

    status: str
    rel_err: float | None = None
    problem: str | None = None


# ---------------------------------------------------------------------------
# references


def _closed_form_mp(n: int) -> str:
    """E[L2^2] of the even-n closed form, as a decimal string.

    Sums the four strip regimes of the paper strip by strip in mpmath at
    REFERENCE_DPS digits.  Consecutive strips share one square root, so each
    strip costs one sqrt.
    """
    from mpmath import mp, mpf, nstr, sqrt

    with mp.workdps(REFERENCE_DPS):
        big_n = mpf(n)
        s2n = sqrt(2 * big_n)
        total = 1 - 14 * sqrt(mpf(2)) / (15 * sqrt(big_n)) + mpf(2) / (5 * big_n) + 1 / (15 * big_n)
        acc = mpf(0)
        root_prev = mpf(1)  # sqrt(i - 1) at i = 2
        for i in range(2, n // 2 + 1):
            root = sqrt(i)
            a = s2n * root_prev
            b = root_prev * root
            c = s2n * root
            acc += (
                -4 * i**3
                + i * i * (-16 * a + 4 * b + 16 * c + 10)
                + i * (32 * a - 8 * b - 40 * c + 5)
                + (-16 * a + 4 * b + 10 * c + 15 * n - 5)
            )
            root_prev = root
        root_prev = sqrt(n - n // 2)  # sqrt(n + 1 - i) at i = n/2 + 1
        for i in range(n // 2 + 1, n):
            root = sqrt(n - i)
            t = root * root_prev / big_n
            acc += (
                4 * i**3
                + i * i * (4 * big_n * t - 12 * n - 2)
                + i * (-8 * big_n * big_n * t + 12 * n * n + 4 * n - 3)
                + (4 * big_n**3 * t - 4 * n**3 - 2 * n * n + 3 * n + 1)
            )
            root_prev = root
        total += acc / (15 * big_n)
        return nstr(1 / (4 * big_n) - total / (big_n * big_n), REFERENCE_DPS)


def exact_references(ns: Iterable[int]) -> dict[int, float]:
    """Reference E[L2^2] for each even n >= 4, computed once and cached on disk.

    The cache holds the 50-digit decimal strings; a run reads it and only
    evaluates the sizes it lacks.
    """
    try:
        cached = json.loads(_CACHE.read_text())
    except (OSError, ValueError):
        cached = {}
    if cached.get("dps") != REFERENCE_DPS:
        cached = {"dps": REFERENCE_DPS, "values": {}}
    values: dict[str, str] = cached["values"]
    missing = sorted({n for n in ns if str(n) not in values})
    for n in missing:
        if n < 4 or n % 2:
            raise ValueError(f"the closed-form reference needs even n >= 4, got n={n}")
        values[str(n)] = _closed_form_mp(n)
    if missing:
        _CACHE.parent.mkdir(exist_ok=True)
        tmp = _CACHE.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(cached, indent=1, sort_keys=True))
        os.replace(tmp, _CACHE)
    return {n: float(values[str(n)]) for n in ns}


def random_baseline(n: int) -> float:
    return 5.0 / (36.0 * n)


def ratio_reference(n: int, exact: float) -> float:
    return random_baseline(n) / exact


def diagonal_cut(n: int, i: int) -> float:
    """Cut r_i of the N-strip equi-volume partition, r_0 = 0 and r_N = 2."""
    if 2 * i <= n:
        return math.sqrt(2.0 * i / n)
    return 2.0 - math.sqrt(2.0 * (n - i) / n)


# ---------------------------------------------------------------------------
# row checks


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _csv_rows(stdout: str, header: str, expected: int) -> list[list[str] | None]:
    """Split CSV output into exactly `expected` rows; absent rows are None."""
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        return [None] * expected
    rows: list[list[str] | None] = [line.split(",") for line in lines[1:expected + 1]]
    rows.extend([None] * (expected - len(rows)))
    return rows


def _number(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _closed_form_cell(n: int, text: str, ref: float, what: str) -> Row:
    if text == ODD_MARKER:
        return Row(REFUSED, problem=f"n={n}: {what} printed {ODD_MARKER} for an even n")
    value = _number(text)
    if value is None:
        return Row(WRONG, problem=f"n={n}: {what} is not a number: {text!r}")
    err = _rel(value, ref)
    if err > CLOSED_FORM_RTOL:
        return Row(WRONG, err, f"n={n}: {what} {text} is off the reference {ref!r} by {err:.3g}")
    return Row(OK, err)


def check_table(stdout: str, ns: Sequence[int], refs: dict[int, float]) -> list[Row]:
    """`table` rows: the exact, QMC and baseline columns against their references."""
    verdicts = []
    for n, row in zip(ns, _csv_rows(stdout, "n,exact,qmc,asymptotic,random,vertical", len(ns))):
        if row is None or len(row) != 6 or row[0] != str(n):
            verdicts.append(Row(REFUSED, problem=f"n={n}: table row missing or malformed"))
            continue
        ref = refs[n]
        exact = _closed_form_cell(n, row[1], ref, "exact")
        if exact.status != OK:
            verdicts.append(exact)
            continue
        qmc = _number(row[2])
        if qmc is None or _rel(qmc, ref) > QMC_RTOL:
            verdicts.append(Row(WRONG, problem=f"n={n}: qmc {row[2]} is not within 1% of {ref!r}"))
            continue
        baselines = (5.0 / (72.0 * n), random_baseline(n), (3.0 * n + 2.0) / (36.0 * n * n))
        printed = [_number(cell) for cell in row[3:]]
        if any(p is None or _rel(p, want) > PRINTED_RTOL for p, want in zip(printed, baselines)):
            verdicts.append(Row(WRONG, problem=f"n={n}: baseline columns {row[3:]} are wrong"))
            continue
        verdicts.append(Row(OK, max(exact.rel_err, _rel(qmc, ref))))
    return verdicts


def check_ratio(stdout: str, ns: Sequence[int], refs: dict[int, float]) -> list[Row]:
    """`ratio` rows against 5/(36n) over the reference expectation."""
    verdicts = []
    for n, row in zip(ns, _csv_rows(stdout, "n,ratio", len(ns))):
        if row is None or len(row) != 2 or row[0] != str(n):
            verdicts.append(Row(REFUSED, problem=f"n={n}: ratio row missing or malformed"))
            continue
        verdicts.append(_closed_form_cell(n, row[1], ratio_reference(n, refs[n]), "ratio"))
    return verdicts


def check_mc(stdout: str, n: int, replicates: int, seed: int, ref: float) -> list[Row]:
    """The single `mc` row: echoed parameters and a |z| bound against the exact value."""
    (row,) = _csv_rows(stdout, "n,partition,replicates,seed,value,std_error", 1)
    if row is None or len(row) != 6:
        return [Row(REFUSED, problem="mc row missing or malformed")]
    if row[:4] != [str(n), "diagonal", str(replicates), str(seed)]:
        return [Row(WRONG, problem=f"mc row echoes {row[:4]}")]
    value, std_error = _number(row[4]), _number(row[5])
    if value is None or std_error is None or std_error <= 0.0:
        return [Row(WRONG, problem=f"mc value {row[4]} / std_error {row[5]} unusable")]
    z = (value - ref) / std_error
    if abs(z) > MC_Z_BOUND:
        return [Row(WRONG, problem=f"mc estimate {row[4]} is {z:+.2f} standard errors from {ref!r}")]
    return [Row(OK)]


def check_sample(stdout: str, n: int) -> list[Row]:
    """`sample` rows: point i lies in the unit square and inside strip i."""
    verdicts = []
    for i, row in enumerate(_csv_rows(stdout, "x,y,cell", n), start=1):
        if row is None or len(row) != 3:
            verdicts.append(Row(REFUSED, problem=f"sample point {i} missing or malformed"))
            continue
        x, y = _number(row[0]), _number(row[1])
        if x is None or y is None or row[2] != str(i):
            verdicts.append(Row(WRONG, problem=f"sample row {i} reads {row}"))
            continue
        s = x + y
        inside = (
            0.0 <= x <= 1.0
            and 0.0 <= y <= 1.0
            and diagonal_cut(n, i - 1) - STRIP_SLACK <= s <= diagonal_cut(n, i) + STRIP_SLACK
        )
        if inside:
            verdicts.append(Row(OK))
        else:
            verdicts.append(Row(WRONG, problem=f"sample point {i} ({row[0]}, {row[1]}) is outside strip {i}"))
    return verdicts


def check_verify(stdout: str, checks: int) -> list[Row]:
    """`verify` lines: at least `checks` PASS lines, then a matching summary."""
    lines = stdout.splitlines()
    results = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    verdicts = [Row(OK) if line.startswith("PASS ") else Row(WRONG, problem=line) for line in results]
    verdicts += [Row(REFUSED, problem=f"verify check {k + 1} missing") for k in range(len(results), checks)]
    passed = sum(row.status == OK for row in verdicts)
    summary = f"{passed}/{len(results)} checks passed"
    if lines != results + [summary] and verdicts[-1].status == OK:
        verdicts[-1] = Row(WRONG, problem=f"verify output does not end in {summary!r}")
    return verdicts


# ---------------------------------------------------------------------------
# tally over a run


@dataclass
class Tally:
    """Row verdicts over every invocation of a run, with the determinism check.

    The first output of each invocation is the reference bytes; any later
    identical invocation whose row differs from it marks that row wrong.
    """

    attempted: int = 0
    refused: int = 0
    wrong: int = 0
    rel_err: float | None = None
    problems: list[str] = field(default_factory=list)
    _first: dict[tuple[str, ...], list[str]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.refused + self.wrong

    def record(
        self,
        argv: tuple[str, ...],
        check: Callable[[str], list[Row]],
        stdout: bytes,
        stderr: bytes,
        returncode: int,
    ) -> None:
        text = stdout.decode("utf-8", errors="replace")
        rows = check(text)
        if returncode != 0 or b"Traceback" in stderr:
            reason = f"{' '.join(argv)}: exit {returncode}: {stderr.decode(errors='replace')[-300:]}"
            rows = [r if r.status == WRONG else Row(REFUSED, problem=reason) for r in rows]
        first = self._first.setdefault(argv, text.splitlines())
        lines = text.splitlines()
        for k, row in enumerate(rows):
            # line 0 is the CSV header, except for verify, which has none
            line = k if argv[0] == "verify" else k + 1
            if row.status != WRONG and first[line:line + 1] != lines[line:line + 1]:
                rows[k] = Row(WRONG, problem=f"{' '.join(argv)}: row {k + 1} differs between identical invocations")
        for row in rows:
            self.attempted += 1
            if row.status == REFUSED:
                self.refused += 1
            elif row.status == WRONG:
                self.wrong += 1
            if row.rel_err is not None:
                self.rel_err = max(self.rel_err or 0.0, row.rel_err)
            if row.problem and len(self.problems) < 10 and row.problem not in self.problems:
                self.problems.append(row.problem)
