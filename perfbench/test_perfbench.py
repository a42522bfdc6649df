"""Tests of the benchmark itself: smoke-size runs, metric names and units,
the checker's verdicts on seeded corruptions, and the memory guard.

Run from the root of a checkout with:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys

import pytest

import checker
import run

sys.path.insert(0, str(run.SRC))
import spans  # noqa: E402  (needs the package on the path)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SMOKE = {
    "table": lambda seed: run.table_workload(ns=(4, 6, 8), m_nodes=2000),
    "mc": lambda seed: run.mc_workload(seed, n=8, replicates=200, sample_n=64),
    "analytic": lambda seed: run.analytic_workload(ns=(4, 16, 64)),
}


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCH[section]}


def test_benchmark_names_its_workloads_and_layers():
    assert [w["name"] for w in BENCH["workloads"]] == ["table", "mc", "analytic"]
    assert _units("per_layer") == run.PER_LAYER_UNITS
    assert set(spans.LAYERS) == {name.split(".")[0] for name in run.PER_LAYER_UNITS} - {"trace"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_reports_every_metric_with_its_unit(name, trace):
    result, report = run.measure(name, SMOKE[name](3), seconds=0, trace=bool(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["failed"]) == (True, 0), report["problems"]
    assert result["attempted"] >= run.MIN_RUNS * (1 + trace)
    section = "per_layer" if trace else "end_to_end"
    assert {key: m["unit"] for key, m in result["metrics"].items()} == _units(section)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert report["error_rate"] == {"unit": "ratio", "value": 0.0}
    assert ("rel_err" in report) == (name != "mc")
    assert report["wall_s"]["samples"] == report["runs"] >= run.MIN_RUNS


def test_traced_run_counts_the_work_of_each_layer():
    result, _ = run.measure("mc", SMOKE["mc"](3), seconds=0, trace=True)
    metrics = {key: m["value"] for key, m in result["metrics"].items()}
    assert metrics["lowdisc.l2_discrepancy_sq_batch.pair_terms"] == 200 * 8 * 8
    assert metrics["lowdisc.l2_discrepancy_sq_batch.temp_bytes_computed"] == 200 * 8 * 8 * 8
    assert metrics["lowdisc.l2_discrepancy_sq_batch.peak_alloc_mb"] > 0
    assert metrics["partition.sample_stratified_batch.points"] == 200 * 8 + 64
    assert 0 < metrics["partition.sample_stratified_batch.accept_ratio_computed"] < 1
    assert metrics["qgeometry.intersection_area_grid.calls"] == 0


def test_spans_restore_the_package_functions():
    modules = spans.import_layers()
    before = {name: dict(vars(module)) for name, module in modules.items()}
    with spans.patched(spans.Tracer().wrap):
        assert modules["estimators"].l2_discrepancy_sq_batch is not before["lowdisc"]["l2_discrepancy_sq_batch"]
    assert {name: dict(vars(module)) for name, module in modules.items()} == before


def test_warnock_guard_refuses_sizes_over_budget():
    assert run.warnock_temp_bytes(run.MC_N, run.MC_REPLICATES) <= run.WARNOCK_TEMP_BUDGET
    with pytest.raises(ValueError, match="budget"):
        run.mc_workload(1, n=128)


def test_references_match_the_package_where_it_is_precise():
    from stratdisc import expected_l2_sq_exact

    refs = checker.exact_references([4, 64, 128])
    for n, ref in refs.items():
        assert abs(expected_l2_sq_exact(n).value - ref) <= 1e-12 * ref


# ---------------------------------------------------------------------------
# seeded corruptions


def _output(argv: tuple[str, ...]) -> str:
    done = spans.replay(argv)
    assert done.returncode == 0
    return done.stdout.decode()


def _statuses(rows: list[checker.Row]) -> list[str]:
    return [row.status for row in rows]


def _wrong_digit(text: str) -> str:
    """Change the fourth significant digit of a printed float."""
    significant = [
        k for k, ch in enumerate(text) if ch.isdigit() and (ch != "0" or any(c in "123456789" for c in text[:k]))
    ]
    k = significant[3]
    return text[:k] + str((int(text[k]) + 5) % 10) + text[k + 1:]


@pytest.fixture(scope="module")
def table_case():
    ns = (4, 6, 8)
    (inv,) = run.table_workload(ns=ns, m_nodes=2000)
    return inv, _output(inv.argv)


def test_clean_outputs_pass(table_case):
    inv, text = table_case
    assert _statuses(inv.check(text)) == ["ok"] * 3


def test_wrong_digit_in_exact_column_is_wrong(table_case):
    inv, text = table_case
    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[1] = _wrong_digit(cells[1])
    lines[2] = ",".join(cells)
    assert _statuses(inv.check("\n".join(lines) + "\n")) == ["ok", "wrong", "ok"]


def test_wrong_digit_in_ratio_column_is_wrong():
    inv = run.analytic_workload(ns=(4, 16))[0]
    lines = _output(inv.argv).splitlines()
    n, ratio = lines[2].split(",")
    lines[2] = f"{n},{_wrong_digit(ratio)}"
    assert _statuses(inv.check("\n".join(lines) + "\n")) == ["ok", "wrong"]


def test_odd_n_marker_on_even_n_is_a_failure(table_case):
    inv, text = table_case
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[1] = checker.ODD_MARKER
    lines[1] = ",".join(cells)
    tally = checker.Tally()
    tally.record(inv.argv, inv.check, ("\n".join(lines) + "\n").encode(), b"", 0)
    assert (tally.attempted, tally.refused, tally.wrong) == (3, 1, 0)


def test_point_outside_its_strip_is_wrong():
    inv = run.mc_workload(5, n=8, replicates=200, sample_n=64)[1]
    lines = _output(inv.argv).splitlines()
    cell = lines[10].split(",")[2]
    lines[10] = ",".join(lines[40].split(",")[:2] + [cell])
    statuses = _statuses(inv.check("\n".join(lines) + "\n"))
    assert statuses.count("wrong") == 1 and statuses[9] == "wrong"


def test_mc_estimate_far_from_exact_is_wrong():
    inv = run.mc_workload(5, n=8, replicates=200, sample_n=64)[0]
    header, row = _output(inv.argv).splitlines()
    cells = row.split(",")
    assert _statuses(inv.check(f"{header}\n{row}\n")) == ["ok"]
    cells[4] = repr(float(cells[4]) + 10 * float(cells[5]))
    assert _statuses(inv.check(f"{header}\n{','.join(cells)}\n")) == ["wrong"]


def test_fail_line_is_wrong_and_fails_the_invocation():
    inv = run.analytic_workload(ns=(4,))[1]
    text = _output(inv.argv)
    assert _statuses(inv.check(text)) == ["ok"] * run.VERIFY_CHECKS
    assert _statuses(inv.check(text.replace("passed", "ran")))[-1] == "wrong"
    checks = run.VERIFY_CHECKS
    corrupted = text.replace("PASS ", "FAIL ", 1).replace(f"{checks}/{checks}", f"{checks - 1}/{checks}")
    assert _statuses(inv.check(corrupted))[0] == "wrong"
    tally = checker.Tally()
    tally.record(inv.argv, inv.check, corrupted.encode(), b"", 3)
    assert (tally.wrong, tally.refused) == (1, checks - 1)


def test_missing_rows_and_tracebacks_are_refused(table_case):
    inv, text = table_case
    assert _statuses(inv.check("\n".join(text.splitlines()[:2]) + "\n")) == ["ok", "refused", "refused"]
    tally = checker.Tally()
    tally.record(inv.argv, inv.check, text.encode(), b"Traceback (most recent call last):\n", 1)
    assert (tally.refused, tally.wrong) == (3, 0)


def test_identical_invocations_must_print_identical_bytes(table_case):
    inv, text = table_case
    lines = text.splitlines()
    lines[3] = lines[3][:-1] + str((int(lines[3][-1]) + 1) % 10)
    tally = checker.Tally()
    tally.record(inv.argv, inv.check, text.encode(), b"", 0)
    tally.record(inv.argv, inv.check, ("\n".join(lines) + "\n").encode(), b"", 0)
    assert (tally.attempted, tally.wrong) == (6, 1)


def test_run_fails_without_the_program(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "perfbench" / "no-such-src")
    assert run.main(["--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_times_are_scaled_by_the_probe_next_to_them():
    # a run taken while the host ran the probe twice as slow counts half
    scaled = run.scaled([2.0, 4.0, 3.0], [0.6, 1.2, 0.6], reference=0.6)
    assert scaled["values"] == [2.0, 2.0, 3.0]
    assert scaled["median"] == 2.0


def test_probe_reports_start_within_its_spawn_to_reap_time():
    total, start = run.probe()
    assert 0 < start < total
