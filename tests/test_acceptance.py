"""Acceptance gate: the nine headline checks, one visible line each.

Every test prints `PASS <name>: <detail>` (or FAIL) directly to the
terminal, then asserts.  Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import stratdisc
from stratdisc import cli
from stratdisc.asymptotics import fit_error_order

from oracles import PRINTED_TABLE1

TABLE_NS = tuple(sorted(PRINTED_TABLE1))
MC_SEED = 20240817
BRUTE_SEED = 12345


@pytest.fixture
def report(capsys):
    def _report(name, ok, detail):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
        assert ok, f"{name}: {detail}"

    return _report


def test_criterion_1_table_reproduction(report, monkeypatch):
    """All 14 tabulated values reproduced within 1% by the table command."""
    monkeypatch.delenv("STRATDISC_THREADS", raising=False)
    start = time.perf_counter()
    out = cli.cmd_table(cli.RunConfig(command="table"))
    elapsed = time.perf_counter() - start
    got = {}
    for line in out.strip().split("\n")[1:]:
        parts = line.split(",")
        got[int(parts[0])] = float(parts[2])
    worst = max(abs(got[n] - PRINTED_TABLE1[n]) / PRINTED_TABLE1[n] for n in TABLE_NS)
    ok = worst <= 0.01 and elapsed < 60.0
    report(
        "criterion-1 table-reproduction",
        ok,
        f"max relative gap {worst:.3e} over 14 rows, runtime {elapsed:.2f}s (< 60s)",
    )


def test_criterion_2_exact_vs_qmc(report, qmc_sweep, exact_sweep):
    """Closed form and node-set integration agree to 1% for even n up to 128."""
    worst_n, worst = max(
        ((n, abs(exact_sweep[n] - qmc_sweep[n]) / exact_sweep[n]) for n in qmc_sweep),
        key=lambda t: t[1],
    )
    ok = worst <= 0.01
    report(
        "criterion-2 exact-vs-qmc",
        ok,
        f"max relative gap {worst:.3e} at n={worst_n} over even n in 2..128",
    )


def test_criterion_3_worked_example(report):
    """The four overlap fractions at (0.4, 0.8) with n=4 match the rounded values."""
    gs = stratdisc.generating_set(4)
    got = [stratdisc.overlap_fraction(gs, i, 0.4, 0.8) for i in range(1, 5)]
    want = [0.8114, 0.3886, 0.08, 0.0]
    worst = max(abs(g - w) for g, w in zip(got, want))
    ok = worst <= 5e-4
    report(
        "criterion-3 worked-example",
        ok,
        f"q = ({', '.join(f'{v:.6f}' for v in got)}), max gap {worst:.2e} (tol 5e-4)",
    )


def test_criterion_4_asymptotic_decay(report):
    """n * exact converges to 5/72 and the gap decays faster than n^-1.25."""
    ns = (256, 1024, 4096)
    scaled = [abs(n * stratdisc.expected_l2_sq_exact(n).value - 5.0 / 72.0) for n in ns]
    gaps = [
        abs(stratdisc.expected_l2_sq_exact(n).value - stratdisc.expected_l2_sq_asymptotic(n))
        for n in ns
    ]
    slope = fit_error_order(ns, gaps)
    ok = scaled[0] > scaled[1] > scaled[2] and slope <= -1.25
    report(
        "criterion-4 asymptotic-decay",
        ok,
        f"|n*exact - 5/72| = {scaled[0]:.2e} > {scaled[1]:.2e} > {scaled[2]:.2e}, "
        f"fitted decay {slope:.3f} (<= -1.25)",
    )


def test_criterion_5_ratio_limit(report):
    """The iid-to-stratified ratio approaches 2 from below, monotonically."""
    ns = [2**j for j in range(2, 13)]
    ratios = [
        stratdisc.ratio_to_random(n, stratdisc.expected_l2_sq_exact(n)) for n in ns
    ]
    monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
    ok = 1.99 <= ratios[-1] <= 2.0 and monotone
    report(
        "criterion-5 ratio-limit",
        ok,
        f"ratio(4096) = {ratios[-1]:.6f} in [1.99, 2], monotone over 4..4096: {monotone}",
    )


def test_criterion_6_strong_partition_principle(report, qmc_sweep, exact_sweep):
    """Both estimates sit strictly below the iid and vertical baselines."""
    below_random = all(
        qmc_sweep[n] < stratdisc.random_baseline(n)
        and exact_sweep[n] < stratdisc.random_baseline(n)
        for n in qmc_sweep
    )
    below_vertical = all(
        qmc_sweep[n] < stratdisc.vertical_baseline(n)
        and exact_sweep[n] < stratdisc.vertical_baseline(n)
        for n in qmc_sweep
        if n >= 4
    )
    ok = below_random and below_vertical
    report(
        "criterion-6 strong-partition-principle",
        ok,
        f"below 5/(36n) for all tested even n: {below_random}; "
        f"below vertical baseline for n >= 4: {below_vertical}",
    )


def test_criterion_7_oracle_suite(report):
    """Closed forms vs quadrature, pairwise identity vs brute force, telescoping."""
    worst_strip = 0.0
    for n in (4, 8, 16):
        gs = stratdisc.generating_set(n)
        table = stratdisc.strip_integral_table(n)
        quads = stratdisc.mean_square_overlap(gs, grid=2000)
        for i in range(1, n + 1):
            worst_strip = max(worst_strip, abs(table.values[i - 1] - quads[i - 1]))

    rng = np.random.default_rng(BRUTE_SEED)
    worst_brute = 0.0
    for _ in range(20):
        pts = stratdisc.PointSet(rng.random((int(rng.integers(1, 33)), 2)))
        pairwise = stratdisc.l2_discrepancy_sq(pts)
        brute = stratdisc.brute_force_l2_sq(pts, grid=2000)
        worst_brute = max(worst_brute, abs(pairwise - brute))

    gs6 = stratdisc.generating_set(6)
    xy = np.random.default_rng(MC_SEED).random((10000, 2))
    q = stratdisc.overlap_vector(gs6, xy[:, 0], xy[:, 1])
    worst_tel = max(
        abs(math.fsum(row) - 6.0 * x * y)
        for row, (x, y) in zip(q.tolist(), xy.tolist())
    )

    ok = worst_strip <= 1e-4 and worst_brute <= 1e-3 and worst_tel <= 1e-10
    report(
        "criterion-7 oracle-suite",
        ok,
        f"strip closed-vs-quadrature {worst_strip:.2e} (tol 1e-4), "
        f"pairwise-vs-brute {worst_brute:.2e} (tol 1e-3), "
        f"telescoping {worst_tel:.2e} (tol 1e-10)",
    )


def test_criterion_8_summation_verification(report):
    """Approximant error orders, the component-sum identity, and the collapse."""
    order_ok = True
    order_details = []
    for k in (0.5, 1.0, 1.5, 2.0, 2.5):
        rep = stratdisc.power_sqrt_order_report(k)
        gap = min(
            abs(rep.fitted_order - rep.claimed_order),
            abs(rep.adjusted_order - rep.claimed_order),
        )
        order_ok = order_ok and gap <= 0.25
        order_details.append(f"k={k:g}:{gap:.2f}")

    # harmonic approximants: exact where exactness is claimed, and the
    # remaining errors inside the claimed O(n^{k-2}) envelope (their true
    # decay is faster still, so a two-sided slope fit is not meaningful)
    harmonic_ns = (64, 1024, 16384)
    direct = {
        k: dict(zip(harmonic_ns, stratdisc.power_sum(harmonic_ns, k)))
        for k in (0.5, 1.0, 1.5, 2.0, 2.5)
    }
    harmonic_ok = True
    for n in harmonic_ns:
        for k in (1.0, 2.0):
            harmonic_ok = harmonic_ok and math.isclose(
                stratdisc.power_sum_approx(n, k), direct[k][n], rel_tol=1e-12
            )
        for k in (0.5, 1.5, 2.5):
            err = abs(stratdisc.power_sum_approx(n, k) - direct[k][n])
            harmonic_ok = harmonic_ok and err <= n ** (k - 2.0)

    worst_identity = 0.0
    for n in range(4, 257, 2):
        total = math.fsum(stratdisc.component_sums(n))
        worst_identity = max(worst_identity, abs(total - stratdisc.interior_strip_sum(n)))

    collapse_ns = [2**j for j in range(9, 14)]  # four octaves
    normalized = [
        stratdisc.interior_sum_check(n).abs_error / math.sqrt(n) for n in collapse_ns
    ]
    collapse_ok = all(b <= 2.0 * a for a, b in zip(normalized, normalized[1:]))

    ok = order_ok and harmonic_ok and worst_identity <= 1e-8 and collapse_ok
    report(
        "criterion-8 summation-verification",
        ok,
        f"order gaps [{', '.join(order_details)}] (<= 0.25), harmonic bounds: {harmonic_ok}, "
        f"component identity {worst_identity:.2e} (tol 1e-8), "
        f"collapse normalized errors {normalized[0]:.3f} -> {normalized[-1]:.3f}",
    )


def test_criterion_9_mc_consistency(report):
    """A large MC run brackets the exact value at 3 sigma, deterministically."""
    details = []
    ok = True
    estimates = {}
    for n in (4, 16):
        est = stratdisc.expected_l2_sq_mc(n, 100000, seed=MC_SEED)
        estimates[n] = est
        exact = stratdisc.expected_l2_sq_exact(n).value
        z = (est.value - exact) / est.std_error
        ok = ok and abs(z) <= 3.0
        details.append(f"n={n}: z={z:+.2f}")
    again = stratdisc.expected_l2_sq_mc(4, 100000, seed=MC_SEED)
    deterministic = (
        again.value == estimates[4].value and again.std_error == estimates[4].std_error
    )
    ok = ok and deterministic
    report(
        "criterion-9 mc-consistency",
        ok,
        f"{', '.join(details)} (|z| <= 3), repeat run identical: {deterministic}",
    )
