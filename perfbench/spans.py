"""In-process tracing of the stratdisc layers, from outside the package.

The traced run replays a workload's argv through `stratdisc.cli.main` with
the public functions of the library modules replaced by timing wrappers.
A wrapper is installed on every module attribute bound to the function, so
names pulled in with `from .x import f` are traced in the importing module
too.  The package source is not changed, and the originals are restored
when the replay ends.

In `cli` only `main` is wrapped: its self time is then parsing, formatting
and emitting, and every call into a library layer is a child span.  The
per-element scalar kernels (PER_ELEMENT) are not wrapped either.

Spans are aggregated in memory per function name: calls, busy time (the
span's duration) and self time (the duration minus what child spans cover),
plus per-function counts of the work each call was asked to do.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import time
import tracemalloc
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

LAYERS = ("cli", "asymptotics", "estimators", "exactform", "lowdisc", "partition", "qgeometry")


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))


# Scalar kernels evaluated once per strip or per point, hundreds of
# thousands of times in one `ratio` run.  A span per call would cost more
# than the call, so their time stays in their caller's self time.
PER_ELEMENT = {
    "exactform.strip_integral_lower",
    "exactform.strip_integral_upper",
    "qgeometry.intersection_area",
    "qgeometry.classify_vertices",
    "qgeometry.signed_offset",
}

# Counts are taken from a call's arguments, i.e. the work requested, so a
# call that raises is counted too.
Counter = Callable[[Stat, tuple], None]


def _count(key: str, amount: Callable[..., float]) -> Counter:
    def counter(stat: Stat, args: tuple) -> None:
        stat.counts[key] += amount(*args)

    return counter


def _qmc_node_strip_evals(n, nodes=None) -> float:
    from stratdisc.lowdisc import HaltonConfig

    return n * (HaltonConfig().count if nodes is None else nodes.n)


def _warnock_counts(stat: Stat, args: tuple) -> None:
    reps, n = args[0].shape[:2]
    stat.counts["pair_terms"] += reps * n * n
    # (reps, n, n) float64: the size of each pairwise temporary the kernel builds
    stat.counts["temp_bytes_computed"] = max(stat.counts["temp_bytes_computed"], reps * n * n * 8)


def _sampler_counts(stat: Stat, args: tuple) -> None:
    gs, count = args[0], args[1]
    # Rejection from strip i's bounding box accepts with probability
    # (1/N) / width_i^2, so a point costs N * width_i^2 draws on average.
    attempts = 0.0
    for i in range(1, gs.n + 1):
        width = min(1.0, gs.boundary(i)) - max(0.0, gs.boundary(i - 1) - 1.0)
        attempts += count * gs.n * width * width
    stat.counts["points"] += count * gs.n
    stat.counts["attempts_computed"] += attempts


COUNTERS: dict[str, Counter] = {
    "qgeometry.intersection_area_grid": _count("elements", lambda r, x, y: np.broadcast(x, y).size),
    "estimators.expected_l2_sq_qmc": _count("node_strip_evals", _qmc_node_strip_evals),
    "lowdisc.halton": _count("nodes", lambda config: config.count),
    "exactform.strip_integral_table": _count("strips", lambda n: n),
    "partition.sample_stratified_batch": _sampler_counts,
    "lowdisc.l2_discrepancy_sq_batch": _warnock_counts,
}


class Tracer:
    """Aggregates spans per function name; reset between workload runs."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._children: list[float] = []

    def reset(self) -> None:
        self.stats = defaultdict(Stat)

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        children = self._children
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if counter is not None:
                counter(self.stats[name], args)
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                covered = children.pop()
                if children:
                    children[-1] += duration
                stat = self.stats[name]
                stat.calls += 1
                stat.busy_s += duration
                stat.self_s += duration - covered

        traced.__wrapped__ = fn
        return traced


def import_layers() -> dict[str, Any]:
    return {layer: importlib.import_module(f"stratdisc.{layer}") for layer in LAYERS}


def public_functions(layer: str, module: Any) -> dict[str, Callable]:
    """The functions a layer defines and exports; only `main` for the CLI."""
    if layer == "cli":
        return {"main": module.main}
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__
    }


@contextlib.contextmanager
def patched(replace: Callable[[str, Callable], Callable], names: set[str] | None = None) -> Iterator[None]:
    """Bind replace(qualified_name, fn) in place of each public layer function.

    Every module attribute that refers to a replaced function is rebound,
    and all of them are restored on exit.  `names` limits the replacement to
    those qualified names.
    """
    modules = import_layers()
    wrappers: dict[int, Callable] = {}
    for layer, module in modules.items():
        for name, fn in public_functions(layer, module).items():
            qualified = f"{layer}.{name}"
            if qualified not in PER_ELEMENT and (names is None or qualified in names):
                wrappers[id(fn)] = replace(qualified, fn)
    undo = []
    try:
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)


@dataclass
class Replay:
    stdout: bytes
    stderr: bytes
    returncode: int
    seconds: float


def replay(argv: tuple[str, ...]) -> Replay:
    """Run one CLI invocation in this process through `stratdisc.cli.main`.

    Looks `main` up on the module at call time, so a traced wrapper is used
    when one is installed.  Output is captured; an exception is reported the
    way an uncaught one would be, as a traceback and exit code 1.
    """
    cli = importlib.import_module("stratdisc.cli")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    seconds = time.perf_counter() - start
    return Replay(out.getvalue().encode(), err.getvalue().encode(), code, seconds)


def alloc_peak_mb(argvs: list[tuple[str, ...]], name: str) -> float:
    """Largest tracemalloc peak of one call of `name` while replaying argvs.

    tracemalloc runs only inside each call of that one function, in a pass
    of its own, so it inflates none of the traced timings.
    """
    peak = 0

    def measured(_: str, fn: Callable) -> Callable:
        def call(*args, **kwargs):
            nonlocal peak
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return call

    with patched(measured, {name}):
        for argv in argvs:
            replay(argv)
    return peak / 2**20
