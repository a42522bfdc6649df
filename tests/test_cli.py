"""Tests for the command-line interface: schemas, determinism, exit codes."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from stratdisc import GeneratingSet, asymptotics, checks, cli, estimators, exactform, expected_l2_sq_exact

from oracles import (
    check_pair_identity_by_loop,
    check_telescoping_by_rows,
    expected_l2_sq_printed,
    render_csv_by_join,
)


DATA = Path(__file__).parent / "data"


def run_main(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(args):
    return subprocess.run([sys.executable, "-m", "stratdisc.cli", *args], capture_output=True, text=True)


class TestTableCommand:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run_main(["table", "--n", "4,6", "--m-nodes", "2000"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,exact,qmc,asymptotic,random,vertical"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "4"
        assert float(first[1]) == pytest.approx(expected_l2_sq_exact(4).value, rel=1e-11)

    def test_nodes_are_sorted_once(self, capsys, monkeypatch):
        sorts = []
        argsort = np.argsort

        def counting(*args, **kwargs):
            sorts.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        code, out, _ = run_main(["table", "--m-nodes", "3000"], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + len(cli.TABLE1_NS)
        assert len(sorts) == 1

    def test_odd_n_exact_column(self, capsys):
        code, out, err = run_main(["table", "--n", "3,5,7", "--m-nodes", "500"], capsys)
        assert (code, err) == (0, "")
        for line, n in zip(out.strip().split("\n")[1:], (3, 5, 7)):
            row = line.split(",")
            assert row[1] == checks.fmt(expected_l2_sq_exact(n).value)
            assert float(row[2]) > 0.0  # qmc column still present

    def test_json_schema(self, capsys):
        code, out, _ = run_main(["table", "--n", "4", "--m-nodes", "500", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        assert set(row) == {"n", "exact", "qmc", "asymptotic", "random", "vertical"}
        assert row["n"] == 4

    def test_json_odd_n_is_a_number(self, capsys):
        _, out, _ = run_main(["table", "--n", "3", "--m-nodes", "500", "--format", "json"], capsys)
        assert json.loads(out)["rows"][0]["exact"] == 0.0290077432096

    def test_n2_exact_close_to_qmc(self, capsys):
        _, out, _ = run_main(["table", "--n", "2"], capsys)
        row = out.strip().split("\n")[1].split(",")
        assert abs(float(row[1]) - float(row[2])) <= 1e-3

    def test_csv_roundtrip_precision(self, capsys):
        # parsing the printed floats loses nothing at 12 significant digits
        _, out, _ = run_main(["table", "--n", "8", "--m-nodes", "1000"], capsys)
        row = out.strip().split("\n")[1].split(",")
        reparsed = checks.fmt(float(row[1]))
        assert reparsed == row[1]


class TestRatioCommand:
    def test_values(self, capsys):
        code, out, _ = run_main(["ratio", "--n", "4,128"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,ratio"
        assert float(lines[1].split(",")[1]) == pytest.approx(1.705981, abs=1e-5)
        assert float(lines[2].split(",")[1]) == pytest.approx(1.997909, abs=1e-5)

    def test_odd_n_value(self, capsys):
        code, out, err = run_main(["ratio", "--n", "7"], capsys)
        assert (code, err) == (0, "")
        assert out.strip().split("\n")[1] == "7,1.85534290479"

    def test_json(self, capsys):
        _, out, _ = run_main(["ratio", "--n", "4", "--format", "json"], capsys)
        assert json.loads(out)["rows"][0]["n"] == 4

    def test_large_n_stays_below_two(self, capsys):
        code, out, err = run_main(["ratio", "--n", "65536,131072,262144"], capsys)
        assert code == 0
        assert err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [n for n, _ in rows] == ["65536", "131072", "262144"]
        assert all(1.99 < float(v) < 2.0 for _, v in rows)

    def test_large_odd_n_stays_below_two(self, capsys):
        code, out, err = run_main(["ratio", "--n", "65537,1048577"], capsys)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [n for n, _ in rows] == ["65537", "1048577"]
        assert all(1.99 < float(v) < 2.0 for _, v in rows)

    def test_odd_ladder_pin_matches_oracle(self):
        # each pinned ratio is the 12-digit rounding of 5/(36n) over the
        # 50-digit printed expectation (checked once up to n = 1048577)
        rows = [line.split(",") for line in (DATA / "ratio_odd_ladder.csv").read_text().split("\n")[1:] if line]
        for n, pinned in ((int(n), v) for n, v in rows if int(n) <= 1025):
            with mp.workdps(50):
                ratio = mpf(5) / (36 * n) / expected_l2_sq_printed(n)
            assert pinned == checks.fmt(float(mp.nstr(ratio, 12))), n

    @pytest.mark.parametrize(
        "argv", [["ratio", "--n", "4"], ["table", "--n", "4", "--m-nodes", "500"]], ids=["ratio", "table"]
    )
    def test_even_n_failure_is_an_error_not_odd_n(self, argv, capsys, monkeypatch):
        def broken(n):
            raise ValueError("strip table broke")

        monkeypatch.setattr(exactform, "strip_blocks", broken)
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert "error: strip table broke" in err
        assert out == ""

    @pytest.mark.parametrize("command", [["ratio"], ["table", "--m-nodes", "500"]], ids=["ratio", "table"])
    @pytest.mark.parametrize("n", [exactform.MAX_CLOSED_FORM_N + 1, 2**53 + 1, 10**400])
    def test_n_above_the_closed_form_cap_is_refused(self, command, n, capsys):
        # refused before any strip is evaluated: streaming 2^53 strips would
        # run for years instead of failing
        code, out, err = run_main([*command, "--n", f"4,{n}"], capsys)
        assert (code, out) == (2, "")
        assert f"error: closed forms accept n <= {exactform.MAX_CLOSED_FORM_N}, got n={n}" in err


class TestSampleCommand:
    def test_rows_and_cells(self, capsys):
        code, out, _ = run_main(["sample", "--n", "6", "--seed", "1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,y,cell"
        assert len(lines) == 7
        gs = GeneratingSet(6)
        for line in lines[1:]:
            xs, ys, cs = line.split(",")
            s = float(xs) + float(ys)
            c = int(cs)
            assert gs.boundary(c - 1) <= s < gs.boundary(c)

    def test_n2_cells(self, capsys):
        _, out, _ = run_main(["sample", "--n", "2", "--seed", "0"], capsys)
        lines = out.strip().split("\n")[1:]
        assert [int(l.split(",")[2]) for l in lines] == [1, 2]

    def test_vertical_and_jittered(self, capsys):
        _, out, _ = run_main(["sample", "--n", "4", "--partition", "vertical"], capsys)
        assert len(out.strip().split("\n")) == 5
        _, out, _ = run_main(["sample", "--n", "9", "--partition", "jittered"], capsys)
        assert len(out.strip().split("\n")) == 10

    def test_jittered_requires_square(self, capsys):
        code, _, err = run_main(["sample", "--n", "5", "--partition", "jittered"], capsys)
        assert code == 2
        assert "square" in err

    def test_json_points(self, capsys):
        _, out, _ = run_main(["sample", "--n", "3", "--seed", "4", "--format", "json"], capsys)
        payload = json.loads(out)
        assert payload["n"] == 3
        assert len(payload["points"]) == 3
        assert set(payload["points"][0]) == {"x", "y", "cell"}

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "4294967296", "--seed", "1"],
        ["sample", "--n", "4294967296", "--partition", "vertical"],
        ["sample", "--n", "4294967296", "--partition", "jittered"],
        ["mc", "--n", "4294967296", "--replicates", "2"],
    ])
    def test_cell_count_past_the_spawn_key_is_refused_before_allocating(self, argv, capsys):
        # n = 2^32 (65536^2, so jittered takes it too) has no 32-bit spawn key
        # word; it is refused before the O(n) cuts or grid indices are built
        from stratdisc import partition, streams  # loaded before the trace starts

        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == "error: cell index 4294967296 does not fit the 32-bit spawn key word\n"
        assert peak < 2**20

    @pytest.mark.parametrize("command", [["sample"], ["mc", "--replicates", "2"]], ids=["sample", "mc"])
    def test_n_past_the_float_range_is_refused_by_the_cell_count(self, command, capsys):
        # 2^1024 has no float64: it reaches the spawn-key check as an int
        code = cli.main([*command, "--n", str(2**1024)])
        assert code == 2
        assert capsys.readouterr().err == f"error: cell index {2**1024} does not fit the 32-bit spawn key word\n"


class TestMcCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run_main(["mc", "--n", "4", "--replicates", "200", "--seed", "8"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,partition,replicates,seed,value,std_error"
        row = lines[1].split(",")
        assert row[:4] == ["4", "diagonal", "200", "8"]
        assert float(row[5]) > 0.0

    def test_replicates_validated(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["mc", "--n", "4", "--replicates", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_json(self, capsys):
        _, out, _ = run_main(
            ["mc", "--n", "4", "--replicates", "100", "--seed", "2", "--format", "json"], capsys
        )
        payload = json.loads(out)
        assert payload["replicates"] == 100
        assert payload["std_error"] > 0.0


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_main(["verify", "--n", "4,16"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert all(l.startswith("PASS") for l in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_json_report(self, capsys):
        code, out, _ = run_main(["verify", "--n", "4,16", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(set(c) == {"name", "passed", "detail"} for c in payload["checks"])

    def test_injected_fault_fails(self, capsys, monkeypatch):
        # a harmonic approximant that drifts by a constant must fail the checks
        exact = asymptotics.power_sum_approx
        monkeypatch.setattr(asymptotics, "power_sum_approx", lambda n, k: exact(n, k) + 1e-3)
        code, out, _ = run_main(["verify", "--n", "4,16"], capsys)
        assert code == 3
        assert "FAIL" in out

    @pytest.mark.parametrize("raw, canonical", [("256,4", "4,256"), ("4096,64", "64,4096"), ("16,4,16", "4,16")])
    def test_n_order_and_repeats_do_not_matter(self, raw, canonical, capsys):
        # the collapse check compares neighbouring n, so the list is sorted
        # and deduplicated before any check runs
        assert run_main(["verify", "--n", raw], capsys) == run_main(["verify", "--n", canonical], capsys)
        assert run_main(["verify", "--n", raw], capsys)[0] == 0

    def test_n_override_validated(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--n", "5"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("n", ["4096", "16384", "65536"])
    def test_large_n_passes(self, n, capsys):
        # the pair components cancel at size n^3; summed at 40 digits they
        # meet the unchanged absolute bounds
        code, out, _ = run_main(["verify", "--n", n], capsys)
        assert code == 0, out
        assert out.endswith("24/24 checks passed\n")

    def test_n_override_capped_at_direct_sum_limit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--n", str(2 * asymptotics.MAX_DIRECT_N)])
        assert exc.value.code == 2
        assert str(asymptotics.MAX_DIRECT_N) in capsys.readouterr().err

    @pytest.mark.parametrize("k, field", [(0.5, 1), (1.0, 1), (1.5, 2)], ids=["c_half", "c_one", "a_three_halves"])
    def test_missing_term_fails(self, k, field, capsys, monkeypatch):
        # without its derived constant or log term an approximant leaves its bound
        table = dict(asymptotics.SQRT_SUM_REMAINDERS)
        table[k] = tuple(0.0 if j == field else v for j, v in enumerate(table[k]))
        monkeypatch.setattr(asymptotics, "SQRT_SUM_REMAINDERS", table)
        text, passed = cli.run_verify(argparse.Namespace(n=None, format="csv"))
        assert not passed
        failed = [line for line in text.splitlines() if line.startswith("FAIL")]
        assert [line.split(":")[0] for line in failed] == [f"FAIL sqrt-sum-order k={checks.fmt(k)}"]
        code, out, _ = run_main(["verify"], capsys)
        assert code == 3
        assert out.endswith("23/24 checks passed\n")

    def test_runs_without_blas_or_lapack(self, monkeypatch):
        # no check fits a slope or reaches numpy's least-squares solvers, so
        # OpenBLAS is never started
        def refused(*args, **kwargs):
            raise AssertionError("verify called a LAPACK solver")

        monkeypatch.setattr(np, "polyfit", refused)
        monkeypatch.setattr(np.linalg, "lstsq", refused)
        text, passed = cli.run_verify(argparse.Namespace(n=None, format="csv"))
        assert passed
        assert text.endswith("24/24 checks passed\n")


def _check_points() -> np.ndarray:
    from stratdisc import partition, streams

    return streams.cell_uniforms(20240817, partition.STREAM_CHECKS, 2000, 1)[0]


def _edge_points(n: int) -> np.ndarray:
    """(0, 0), (1, 1), points on the square's four edges, and points on every
    cut line x + y = r_i of the n-cell partition: its diagonal point and its
    ends on the square's edges."""
    t = np.linspace(0.0, 1.0, 17)
    zero, one = np.zeros_like(t), np.ones_like(t)
    r = GeneratingSet(n).cuts
    lo, hi = np.maximum(r - 1.0, 0.0), np.minimum(r, 1.0)
    pairs = [(t, zero), (zero, t), (t, one), (one, t), (r / 2, r / 2), (hi, lo), (lo, hi)]
    return np.concatenate([[[0.0, 0.0], [1.0, 1.0]], *(np.stack(p, axis=1) for p in pairs)])


class TestVectorisedChecks:
    """The telescoping and pair-identity checks against the per-point and
    per-index loops they replaced.  With fmt replaced by the float's repr
    the details carry every bit of the worst error."""

    @pytest.fixture(params=["fmt", "repr"])
    def render(self, request, monkeypatch):
        if request.param == "repr":
            monkeypatch.setattr(checks, "fmt", lambda value: repr(float(value)))

    @pytest.mark.parametrize("ns", [(4, 16), (4,), (16,), (64,), (1000,)])
    def test_telescoping_on_the_check_points(self, ns, render):
        points = _check_points()
        assert checks.check_telescoping(ns, points, 1e-10) == check_telescoping_by_rows(ns, points, 1e-10)

    @pytest.mark.parametrize("n", [4, 16, 64, 1000])
    def test_telescoping_on_cuts_corners_and_edges(self, n, render):
        points = _edge_points(n)
        assert checks.check_telescoping((n,), points, 1e-10) == check_telescoping_by_rows((n,), points, 1e-10)

    @pytest.mark.parametrize("ns", [(8, 16, 64), (4,), (16,), (64,), (1000,)])
    def test_pair_identity(self, ns, render):
        assert checks.check_pair_identity(ns, 1e-10) == check_pair_identity_by_loop(ns, 1e-10)


class TestArgumentHandling:
    @pytest.mark.parametrize(
        "args",
        [
            ["table", "--n", "x"],
            ["sample", "--n", "4,8"],
            ["mc", "--n", "4,8"],
            ["sample"],
            ["table", "--n", "1"],
            ["nosuchcommand"],
            ["sample", "--n", "4", "--seed", "-1"],
            ["mc", "--n", "4", "--replicates", "10", "--seed", "-1"],
            ["table", "--m-nodes", "0"],
            ["mc", "--n", "4", "--replicates", "1"],
            ["verify", "--n", "3"],
            ["verify", "--n", "2097152"],
            ["ratio", "--n", "0"],
            ["sample", "--n", "1"],
            ["mc", "--n", "1", "--replicates", "2"],
        ],
    )
    def test_bad_arguments_exit_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_allocation_failure_exits_2(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 6.71 GiB for an array with shape (1, 30000, 30000)")

        monkeypatch.setattr(estimators, "expected_l2_sq_mc", exhausted)
        code, out, err = run_main(["mc", "--n", "30000", "--replicates", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_main(["table", "--n", "4", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,exact")

    def test_negative_seed_names_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["sample", "--n", "4", "--seed", "-1"])
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["ratio", "--n", "4"], ["verify", "--n", "4,16"]])
    def test_out_to_missing_directory_exits_2(self, command, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_main([*command, "--out", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_out_unwritable_fails_before_the_command(self, monkeypatch, tmp_path, capsys):
        calls = []
        monkeypatch.setattr(cli, "run_verify", lambda args: calls.append(args))
        code, out, err = run_main(["verify", "--out", str(tmp_path / "missing" / "x.txt")], capsys)
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("error: ")

    def test_failing_command_leaves_no_file(self, monkeypatch, tmp_path, capsys):
        def fail(args):
            raise ValueError("no table")

        monkeypatch.setattr(cli, "cmd_table", fail)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("kept\n")
        for target in (new, old):
            code, _, err = run_main(["table", "--out", str(target)], capsys)
            assert (code, err) == (2, "error: no table\n")
        assert not new.exists()
        assert old.read_text() == "kept\n"

    def test_out_replaces_a_longer_file(self, tmp_path, capsys):
        target = tmp_path / "ratio.csv"
        target.write_text("x" * 10_000)
        assert run_main(["ratio", "--n", "4", "--out", str(target)], capsys)[0] == 0
        assert target.read_text() == cli.cmd_ratio(cli.build_parser().parse_args(["ratio", "--n", "4"]))

    def test_fmt_renders_12_significant_digits(self):
        assert checks.fmt(0.020353234628542593) == "0.0203532346285"
        assert checks.fmt(1.0 / 3.0) == "0.333333333333"
        assert checks.fmt(2.0) == "2"


class TestDeterminism:
    def test_repeated_invocations_byte_identical(self):
        args = ["table", "--n", "4,6,16", "--m-nodes", "4000"]
        a = run_subprocess(args)
        b = run_subprocess(args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_sample_byte_identical(self):
        args = ["sample", "--n", "8", "--seed", "77"]
        a = run_subprocess(args)
        b = run_subprocess(args)
        assert a.stdout == b.stdout
        assert a.stdout.count("\n") == 9

    def test_console_entry_point_runs(self):
        result = run_subprocess(["--help"])
        assert result.returncode == 0
        assert "table" in result.stdout


class TestProcessEntry:
    """`entry` ends every process with `gc.freeze()`; `main` leaves the GC alone."""

    # runs the module as `python -m` does; the atexit hook sees the state
    # that the interpreter's final collections will meet
    WRAPPER = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "runpy.run_module('stratdisc.cli', run_name='__main__')\n"
    )

    @pytest.mark.parametrize("argv, code", [
        (["ratio", "--n", "4"], 0),
        (["--help"], 0),
        (["ratio", "--n", "1"], 2),
        (["ratio", "--n", "1073741825"], 2),
        (["verify", "--out", "{missing}"], 2),
    ], ids=["success", "help", "usage-error", "closed-form-cap", "unwritable-out"])
    def test_every_exit_route_freezes(self, argv, code, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [a.format(missing=tmp_path / "missing" / "x") for a in argv]
        try:
            in_process = cli.main(argv)
        except SystemExit as exc:
            in_process = exc.code
        out = capsys.readouterr().out
        done = subprocess.run([sys.executable, "-c", self.WRAPPER, *argv], capture_output=True, text=True)
        assert in_process == done.returncode == code
        assert done.stdout == out
        assert done.stderr.splitlines()[-1] == "frozen True"

    def test_verify_as_main_never_imports_cli(self):
        # the checks run under `python -m`, where the CLI is __main__; an
        # import of stratdisc.cli would load and run it a second time
        wrapper = (
            "import atexit, runpy, sys\n"
            "atexit.register(lambda: print('cli imported', 'stratdisc.cli' in sys.modules, file=sys.stderr))\n"
            "runpy.run_module('stratdisc.cli', run_name='__main__')\n"
        )
        done = subprocess.run([sys.executable, "-c", wrapper, "verify"], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == (DATA / "verify_default.txt").read_text()
        assert done.stderr.splitlines()[-1] == "cli imported False"

    def test_main_leaves_the_gc_alone(self, capsys):
        before = gc.isenabled(), gc.get_freeze_count()
        assert cli.main(["ratio", "--n", "4"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_entry_returns_what_main_returns(self, monkeypatch):
        # verify's failed check, exit 3, reaches the process unchanged
        frozen = []
        monkeypatch.setattr(cli, "main", lambda: 3)
        monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(True))
        assert (cli.entry(), frozen) == (3, [True])

    def test_one_entry_for_script_and_module(self):
        # read as text: tomllib is not in Python 3.10
        project = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        script = re.search(r'^stratdisc = "stratdisc\.cli:(\w+)"$', project, re.M).group(1)
        source = Path(cli.__file__).read_text()
        module = re.search(r'^if __name__ == "__main__":\n    sys\.exit\((\w+)\(\)\)\n', source, re.M).group(1)
        assert script == module == "entry"


class TestCsvRender:
    """The CSV row template against the per-value format-and-join it replaced."""

    CSV = argparse.Namespace(format="csv")

    @pytest.mark.parametrize(
        "records",
        [
            [{"n": 4, "partition": "diagonal", "seed": 2**64 + 7}, {"n": 16, "partition": "vertical", "seed": 0}],
            [{"x": -0.0, "y": 5e-324, "cell": 1}, {"x": 1e16, "y": 0.1 + 0.2, "cell": 2}],
            [{"n": 2, "value": math.inf, "std_error": -math.inf}, {"n": 3, "value": math.nan, "std_error": 0.0}],
            [{"x": np.float64(1.0) / 3.0, "y": np.float64(-0.0)}, {"x": np.float64(1e-310), "y": np.float64(2.5)}],
        ],
        ids=["ints-and-strs", "edge-floats", "non-finite", "numpy-floats"],
    )
    def test_matches_the_per_value_join(self, records):
        assert cli._render(self.CSV, iter(records)) == render_csv_by_join(records)

    @given(st.lists(st.tuples(st.floats(), st.integers(), st.floats(width=32)), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_random_floats_match_the_per_value_join(self, rows):
        records = [{"a": a, "k": k, "b": b} for a, k, b in rows]
        assert cli._render(self.CSV, records) == render_csv_by_join(records)


class TestPinnedOutput:
    """Output bytes pinned to files; a faster path must reproduce them exactly."""

    @pytest.mark.parametrize(
        "args, name",
        [
            (["table"], "table_default.csv"),
            (["mc", "--n", "16", "--replicates", "2000", "--seed", "5"], "mc_n16_r2000_s5.csv"),
            (["verify"], "verify_default.txt"),
            (["ratio", "--n", "4,16,64,256,1024,4096,16384,65536,131072,262144"], "ratio_ladder.csv"),
            (["mc", "--n", "64", "--replicates", "10000", "--seed", "1"], "mc_n64_r10000_s1.csv"),
            (["sample", "--n", "64", "--seed", "3"], "sample_n64_s3.csv"),
            (["sample", "--n", "16", "--seed", str(2**64 + 7)], "sample_n16_s18446744073709551623.csv"),
            (
                ["mc", "--n", "16", "--replicates", "2000", "--seed", "5", "--partition", "vertical"],
                "mc_n16_r2000_s5_vertical.csv",
            ),
            (
                ["mc", "--n", "16", "--replicates", "2000", "--seed", "5", "--partition", "jittered"],
                "mc_n16_r2000_s5_jittered.csv",
            ),
            (["table", "--n", "3,4,6", "--m-nodes", "500", "--format", "json"], "table_n3_4_6_m500.json"),
            (["ratio", "--n", "3,4,16", "--format", "json"], "ratio_n3_4_16.json"),
            (
                ["sample", "--n", "9", "--seed", "4", "--partition", "jittered", "--format", "json"],
                "sample_n9_s4_jittered.json",
            ),
            (["mc", "--n", "4", "--replicates", "100", "--seed", "2", "--format", "json"], "mc_n4_r100_s2.json"),
            (["verify", "--n", "4,16", "--format", "json"], "verify_n4_16.json"),
            (["mc", "--n", "256", "--replicates", "200", "--seed", "7"], "mc_n256_r200_s7.csv"),
            (["ratio", "--n", "3,5,7,9,15,33,65,1025,65537,1048577"], "ratio_odd_ladder.csv"),
            (["verify", "--n", "4096,65536"], "verify_n4096_65536.txt"),
            (["sample", "--n", "1024", "--seed", "9"], "sample_n1024_s9.csv"),
            (["mc", "--n", "1024", "--replicates", "40", "--seed", "3"], "mc_n1024_r40_s3.csv"),
            (["sample", "--n", "16", "--seed", "5", "--partition", "vertical"], "sample_n16_s5_vertical.csv"),
            (["verify", "--n", "256,4"], "verify_n256_4.txt"),
            (["ratio", "--n", "16777216,16777217"], "ratio_n16777216_16777217.csv"),
            (["verify", "--n", "1048576"], "verify_n1048576.txt"),
            # a repeated n and a descending order: each row resets the QMC sums
            (["table", "--n", "128,4,4,7,2", "--m-nodes", "3000"], "table_n128_4_4_7_2_m3000.csv"),
        ],
    )
    def test_output_matches_pinned_file(self, args, name, capsys):
        code, out, err = run_main(args, capsys)
        assert code == 0
        assert err == ""
        assert out.encode() == (DATA / name).read_bytes()

    def test_large_sample_matches_pinned_digest(self, capsys):
        # 2^20 points: 32 stream tiles and 38.7 MB of rendered rows, pinned as
        # the `sha256sum` line of the output
        code, out, err = run_main(["sample", "--n", "1048576", "--seed", "3"], capsys)
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert f"{digest}  -\n" == (DATA / "sample_n1048576_s3.sha256").read_text()


def _stratdisc(*names):
    return tuple(f"stratdisc.{name}" for name in names)


@pytest.mark.parametrize("argv, prints, unloaded", [
    (["--help"], "usage: stratdisc",
     _stratdisc("asymptotics", "checks", "estimators", "exactform", "lowdisc", "qgeometry", "streams")),
    (["table", "--n", "4"], "n,exact,qmc",
     (*_stratdisc("asymptotics", "checks", "estimators", "streams"), "json", "concurrent.futures")),
    (["ratio", "--n", "4"], "n,ratio",
     _stratdisc("asymptotics", "checks", "estimators", "lowdisc", "qgeometry", "streams")),
    (["mc", "--n", "16", "--replicates", "20"], "n,partition", _stratdisc("asymptotics", "checks", "qgeometry")),
    (["sample", "--n", "16"], "x,y,cell",
     _stratdisc("asymptotics", "checks", "exactform", "estimators", "lowdisc", "qgeometry")),
    (["verify"], "24/24 checks passed", _stratdisc("estimators")),
], ids=["help", "table", "ratio", "mc", "sample", "verify"])
def test_command_loads_only_its_modules(argv, prints, unloaded):
    # each command imports the library modules it runs, and no more (only
    # verify loads the checks); none loads numpy.random (the cell streams,
    # which verify's check points are drawn from too, are computed in numpy)
    # or numpy.ma (which np.unique on floats imports), and a CSV table loads
    # neither json nor a thread pool
    code = (
        "import sys, stratdisc.cli\n"
        "try:\n    code = stratdisc.cli.main(sys.argv[2:])\nexcept SystemExit as exc:\n    code = exc.code\n"
        "print(code, [m for m in sys.argv[1].split(',') if m in sys.modules])"
    )
    names = ",".join(("numpy.random", "numpy.ma", *unloaded))
    done = subprocess.run([sys.executable, "-c", code, names, *argv], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert prints in done.stdout
    assert done.stdout.splitlines()[-1] == "0 []"
