"""Benchmark of the stratdisc command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table|mc|analytic|all --seed S --seconds T --trace 0|1

Each workload is a fixed list of CLI invocations.  One client runs it as a
closed loop: every invocation is a fresh `python -m stratdisc.cli`
subprocess, started only after the previous one exits, until T seconds have
passed (at least twice, so repeated invocations can be compared byte for
byte).  A `--help` subprocess after each workload run gives the set-up cost.
Every printed result row is checked against references the benchmark
computes itself (see checker.py).

--trace 0 prints the end-to-end metrics: the median wall time of one
workload run, its largest child max RSS, the set-up time, and (on the
report line) error_rate and rel_err.  The host is shared and its speed
drifts by tens of percent over seconds to minutes, moving every time with
it.  So the fixed probe calibrate.py runs before the first workload run
and after each `--help`.  Each workload run's time is divided by the mean
of the probes just before and after it, each set-up time by the start of
the probe right after it, and both are multiplied by the probe's times on
the host the benchmark was defined on (REF_PROBE_S, REF_START_S): they
read as seconds on that host.  The unscaled medians
are printed as raw_wall_s and raw_setup_s.  --trace 1 alternates the same
untraced runs with in-process replays through `stratdisc.cli.main` with
every layer's public functions wrapped (see spans.py), and prints the
per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is a JSON report with
the provenance, every metric with its unit and sample count, and the first
problems the checker found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from importlib import metadata
from pathlib import Path
from typing import Callable

import checker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"

# One thread everywhere: BLAS pools in the children and, for the traced
# replay, in this process; STRATDISC_THREADS is left unset.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# Paper Table 1 sizes, printed by `stratdisc table` by default.
TABLE_NS = (4, 6, 8, 10, 12, 14, 16, 32, 48, 64, 80, 96, 112, 128)
# Doubling-by-four ladder for the closed form; n >= 16384 shows the seed's
# precision loss, and n = 262144 its refusal of an even n.
RATIO_NS = (4, 16, 64, 256, 1024, 4096, 16384, 65536, 131072, 262144)
MC_N, MC_REPLICATES, SAMPLE_N = 64, 10000, 4096
VERIFY_CHECKS = 24
# The Warnock kernel builds (chunk, n, n) float64 temporaries, several alive
# at once.  An `mc` size whose single temporary exceeds this is refused
# before anything starts, so no workload can exhaust a small shared box.
WARNOCK_CHUNK = 4096
WARNOCK_TEMP_BUDGET = 256 * 2**20

# calibrate.py's spawn-to-reap and start seconds, typical of the 2-vCPU
# host the benchmark was defined on.  wall_s and setup_s are scaled to a
# host that runs the probe in exactly these times (see scaled()).
REF_PROBE_S = 0.6
REF_START_S = 0.2

MIN_RUNS = 2
CHILD_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Callable[[str], list[checker.Row]]


def warnock_temp_bytes(n: int, replicates: int) -> int:
    return min(replicates, WARNOCK_CHUNK) * n * n * 8


def table_workload(ns=TABLE_NS, m_nodes: int | None = None) -> list[Invocation]:
    refs = checker.exact_references(ns)
    argv = ("table",) if ns == TABLE_NS and m_nodes is None else (
        "table", "--n", ",".join(map(str, ns)), "--m-nodes", str(m_nodes or 40000)
    )
    return [Invocation(argv, partial(checker.check_table, ns=ns, refs=refs))]


def mc_workload(seed: int, n=MC_N, replicates=MC_REPLICATES, sample_n=SAMPLE_N) -> list[Invocation]:
    need = warnock_temp_bytes(n, replicates)
    if need > WARNOCK_TEMP_BUDGET:
        raise ValueError(
            f"mc at n={n}, replicates={replicates} needs {need / 2**20:.0f} MiB per Warnock "
            f"temporary, over the {WARNOCK_TEMP_BUDGET / 2**20:.0f} MiB budget"
        )
    ref = checker.exact_references([n])[n]
    return [
        Invocation(
            ("mc", "--n", str(n), "--replicates", str(replicates), "--seed", str(seed)),
            partial(checker.check_mc, n=n, replicates=replicates, seed=seed, ref=ref),
        ),
        Invocation(("sample", "--n", str(sample_n), "--seed", str(seed)), partial(checker.check_sample, n=sample_n)),
    ]


def analytic_workload(ns=RATIO_NS) -> list[Invocation]:
    refs = checker.exact_references(ns)
    return [
        Invocation(("ratio", "--n", ",".join(map(str, ns))), partial(checker.check_ratio, ns=ns, refs=refs)),
        Invocation(("verify",), partial(checker.check_verify, checks=VERIFY_CHECKS)),
    ]


def workload(name: str, seed: int) -> list[Invocation]:
    if name == "table":
        return table_workload()
    if name == "mc":
        return mc_workload(seed)
    return analytic_workload()


# ---------------------------------------------------------------------------
# subprocess runs


class BenchError(RuntimeError):
    """The benchmark cannot measure: the program is absent or cannot start."""


@dataclass
class Child:
    stdout: bytes
    stderr: bytes
    returncode: int
    seconds: float
    maxrss_mb: float


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "STRATDISC_THREADS"}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    return env


def run_child(args: tuple[str, ...]) -> Child:
    """One `python -m stratdisc.cli` subprocess; see spawn."""
    return spawn((sys.executable, "-m", "stratdisc.cli", *args))


def spawn(command: tuple[str, ...]) -> Child:
    """One subprocess, timed from spawn to reap.

    Both pipes are drained as output arrives; the child is reaped with
    wait4 to read its own max RSS.  A child still running after
    CHILD_TIMEOUT_S is killed and reported with exit code -9.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        env=child_env(),
        cwd=ROOT,
    )
    chunks: dict[object, list[bytes]] = {proc.stdout: [], proc.stderr: []}
    deadline = start + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as selector:
        for pipe in chunks:
            selector.register(pipe, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                break
            for key, _ in selector.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    for pipe in chunks:
        pipe.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
        proc.returncode,
        seconds,
        usage.ru_maxrss / 1024.0,
    )


def setup_seconds() -> float:
    child = run_child(("--help",))
    if child.returncode != 0 or b"usage: stratdisc" not in child.stdout:
        raise BenchError(f"`stratdisc --help` failed with exit {child.returncode}: {child.stderr[-500:]!r}")
    return child.seconds


def probe() -> tuple[float, float]:
    """Spawn-to-reap and start seconds of one calibrate.py child.

    Start is the spawn-to-reap time less the child's in-process work
    phases: interpreter start, numpy import and exit, as in `--help`.
    """
    child = spawn((sys.executable, str(CALIBRATE)))
    if child.returncode != 0:
        raise BenchError(f"calibrate.py failed with exit {child.returncode}: {child.stderr[-500:]!r}")
    phases = json.loads(child.stdout)
    return child.seconds, child.seconds - (phases["scalar_s"] + phases["vector_s"] + phases["memory_s"])


# ---------------------------------------------------------------------------
# metrics


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and count of one run's samples, and the samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values), "values": values}


def scaled(times: list[float], probes: list[float], reference: float) -> dict[str, float]:
    """Summary of times scaled, each by the probe time taken around it, to
    a host whose probe takes `reference` seconds.

    The host's speed drifts by tens of percent between and within runs;
    a time divided by a probe time taken within seconds of it is far
    steadier.
    """
    return summary([reference * t / p for t, p in zip(times, probes)])


PER_LAYER_UNITS = {
    "qgeometry.intersection_area_grid.busy_s": "s",
    "qgeometry.intersection_area_grid.calls": "count",
    "qgeometry.intersection_area_grid.elements": "count",
    "estimators.expected_l2_sq_qmc.self_s": "s",
    "estimators.expected_l2_sq_qmc.node_strip_evals": "count",
    "lowdisc.halton.busy_s": "s",
    "lowdisc.halton.nodes": "count",
    "partition.generating_set.busy_s": "s",
    "partition.sample_stratified_batch.busy_s": "s",
    "partition.sample_stratified_batch.points": "count",
    "partition.sample_stratified_batch.accept_ratio_computed": "ratio",
    "partition.sample_stratified.busy_s": "s",
    "lowdisc.l2_discrepancy_sq_batch.busy_s": "s",
    "lowdisc.l2_discrepancy_sq_batch.calls": "count",
    "lowdisc.l2_discrepancy_sq_batch.pair_terms": "count",
    "lowdisc.l2_discrepancy_sq_batch.temp_bytes_computed": "bytes",
    "lowdisc.l2_discrepancy_sq_batch.peak_alloc_mb": "MB",
    "estimators.expected_l2_sq_mc.self_s": "s",
    "exactform.strip_integral_table.busy_s": "s",
    "exactform.strip_integral_table.strips": "count",
    "exactform.expected_l2_sq_exact.self_s": "s",
    "asymptotics.power_sum.busy_s": "s",
    "asymptotics.power_sqrt_order_report.busy_s": "s",
    "asymptotics.component_sums.busy_s": "s",
    "asymptotics.interior_sum_check.busy_s": "s",
    "qgeometry.overlap_vector.busy_s": "s",
    "qgeometry.overlap_vector.calls": "count",
    "qgeometry.mean_square_overlap.busy_s": "s",
    "lowdisc.l2_discrepancy_sq.busy_s": "s",
    "lowdisc.brute_force_l2_sq.busy_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def layer_values(stats, output_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced workload run, keyed as in PER_LAYER_UNITS."""
    values: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        function, _, key = name.rpartition(".")
        stat = stats.get(function)
        if stat is None:
            values[name] = 0.0
        elif key in ("busy_s", "self_s", "calls"):
            values[name] = float(getattr(stat, key))
        else:
            values[name] = float(stat.counts.get(key, 0.0))
    sampler = stats.get("partition.sample_stratified_batch")
    if sampler is not None:
        values["partition.sample_stratified_batch.accept_ratio_computed"] = (
            sampler.counts["points"] / sampler.counts["attempts_computed"]
        )
    values["cli.output_bytes"] = float(output_bytes)
    return values


def provenance(seed: int) -> dict[str, object]:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "seed": seed,
        "child_thread_env": {**THREAD_ENV, "STRATDISC_THREADS": None},
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


# ---------------------------------------------------------------------------
# the run


def measure(name: str, invocations: list[Invocation], seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload for `seconds`; return the result line and the report."""
    tally = checker.Tally()
    walls: list[float] = []
    rss: list[float] = []
    setups: list[float] = []
    probe_starts: list[float] = []
    traced_walls: list[float] = []
    layer_runs: list[dict[str, float]] = []
    tracer = None
    if trace:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import spans

        spans.import_layers()
        tracer = spans.Tracer()

    probes = [probe()[0]]  # the probe before the first workload run
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_RUNS or time.perf_counter() < deadline:
        start = time.perf_counter()
        peak = 0.0
        for inv in invocations:
            child = run_child(inv.argv)
            peak = max(peak, child.maxrss_mb)
            tally.record(inv.argv, inv.check, child.stdout, child.stderr, child.returncode)
        walls.append(time.perf_counter() - start)
        rss.append(peak)
        setups.append(setup_seconds())
        probe_s, probe_start = probe()
        probes.append(probe_s)
        probe_starts.append(probe_start)
        if tracer is not None:
            tracer.reset()
            out_bytes = 0
            start = time.perf_counter()
            with spans.patched(tracer.wrap):
                for inv in invocations:
                    done = spans.replay(inv.argv)
                    out_bytes += len(done.stdout)
                    tally.record(inv.argv, inv.check, done.stdout, done.stderr, done.returncode)
            traced_walls.append(time.perf_counter() - start)
            layer_runs.append(layer_values(tracer.stats, out_bytes))

    wall, setup = summary(walls), summary(setups)
    report = {
        "workload": name,
        "runs": len(walls),
        "wall_s": {"unit": "s", **scaled(walls, [(a + b) / 2 for a, b in zip(probes, probes[1:])], REF_PROBE_S)},
        "peak_rss_mb": {"unit": "MB", **summary(rss)},
        "setup_s": {"unit": "s", **scaled(setups, probe_starts, REF_START_S)},
        "raw_wall_s": {"unit": "s", **wall},
        "raw_setup_s": {"unit": "s", **setup},
        "probe_s": {"unit": "s", **summary(probes)},
        "probe_start_s": {"unit": "s", **summary(probe_starts)},
        "error_rate": {"unit": "ratio", "value": tally.failed / tally.attempted},
        "attempted_rows": tally.attempted,
        "refused_rows": tally.refused,
        "wrong_rows": tally.wrong,
        "problems": tally.problems,
    }
    if name != "mc":
        report["rel_err"] = {"unit": "ratio", "value": tally.rel_err}
    if tracer is None:
        metrics = {
            "wall_s": {"value": report["wall_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"]["median"], "unit": "MB"},
            "setup_s": {"value": report["setup_s"]["median"], "unit": "s"},
        }
    else:
        layers = {key: statistics.median(run[key] for run in layer_runs) for key in PER_LAYER_UNITS}
        if layers["lowdisc.l2_discrepancy_sq_batch.calls"]:
            layers["lowdisc.l2_discrepancy_sq_batch.peak_alloc_mb"] = spans.alloc_peak_mb(
                [inv.argv for inv in invocations], "lowdisc.l2_discrepancy_sq_batch"
            )
        # in-process traced time against the untraced time net of set-up,
        # which every subprocess invocation pays and the replay does not
        untraced = wall["median"] - len(invocations) * setup["median"]
        layers["trace.overhead_ratio"] = statistics.median(traced_walls) / untraced
        report["traced_wall_s"] = {"unit": "s", **summary(traced_walls)}
        metrics = {key: {"value": value, "unit": PER_LAYER_UNITS[key]} for key, value in layers.items()}
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("table", "mc", "analytic", "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "stratdisc" / "cli.py").is_file():
        print(f"error: no stratdisc source under {SRC}", file=sys.stderr)
        return 2
    names = ("table", "mc", "analytic") if args.workload == "all" else (args.workload,)
    # set before the traced run imports numpy into this process
    os.environ.update(THREAD_ENV)
    os.environ.pop("STRATDISC_THREADS", None)
    try:
        setup_seconds()  # fails fast when the program cannot start
        for name in names:
            result, report = measure(name, workload(name, args.seed), args.seconds, bool(args.trace))
            report["provenance"] = provenance(args.seed)
            for key in ("wall_s", "peak_rss_mb", "setup_s", "error_rate", "rel_err", "raw_wall_s", "raw_setup_s"):
                if key in report:
                    item = report[key]
                    value = item.get("median", item.get("value"))
                    samples = f" (median of {item['samples']})" if "samples" in item else ""
                    print(f"{name} {key} {value} {item['unit']}{samples}")
            print(json.dumps(report, sort_keys=True))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
