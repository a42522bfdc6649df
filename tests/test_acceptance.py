"""Acceptance gate: the nine headline checks, one visible line each.

Every test prints `PASS <name>: <detail>` (or FAIL) directly to the
terminal, then asserts.  Criteria 3, 7 and 8 run the check functions of
`stratdisc verify` at their own sizes, seeds and tolerances, and print each
of its records indented under their line; no check is computed twice.
The sizes and tolerances of the gate are pinned here.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import stratdisc
from stratdisc import asymptotics, checks, cli

from oracles import PRINTED_TABLE1, fit_order_by_polyfit

TABLE_NS = tuple(sorted(PRINTED_TABLE1))
MC_SEED = 20240817
BRUTE_SEED = 12345


@pytest.fixture
def report(capsys):
    def _report(name, ok, detail, records=()):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
            for r in records:
                print(f"    {'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['detail']}", flush=True)
        assert ok, f"{name}: {detail}"

    return _report


@pytest.fixture
def report_checks(report):
    """Report a list of verify's records; the criterion passes if every record does."""

    def _report_checks(name, records):
        passed = sum(r["passed"] for r in records)
        report(name, passed == len(records), f"{passed}/{len(records)} verify checks pass", records)

    return _report_checks


def criterion_8_checks():
    """Criterion 8's records; also run under an injected fault below."""
    return [
        *checks.check_sqrt_sum_orders((0.5, 1.0, 1.5, 2.0, 2.5), tol=0.25),
        # exact where exactness is claimed, and the remaining errors inside
        # the claimed O(n^{k-2}) envelope (their true decay is faster still,
        # so a two-sided slope fit is not meaningful)
        *checks.check_harmonic((64, 1024, 16384), rel_tol=1e-12),
        *checks.check_components(range(4, 257, 2), cubic_tol=1e-9, identity_tol=1e-8),
        *checks.check_collapse([2**j for j in range(9, 14)], growth=2.0),  # four octaves
    ]


def test_criterion_1_table_reproduction(report):
    """All 14 tabulated values reproduced within 1% by the table command."""
    start = time.perf_counter()
    out = cli.cmd_table(cli.build_parser().parse_args(["table"]))
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


def test_criterion_3_worked_example(report_checks):
    """The four overlap fractions at (0.4, 0.8) with n=4 match the rounded values."""
    report_checks("criterion-3 worked-example", checks.check_worked_example(tol=5e-4))


def test_criterion_4_asymptotic_decay(report):
    """n * exact converges to 5/72 and the gap decays faster than n^-1.25."""
    ns = (256, 1024, 4096)
    scaled = [abs(n * stratdisc.expected_l2_sq_exact(n).value - 5.0 / 72.0) for n in ns]
    gaps = [
        abs(stratdisc.expected_l2_sq_exact(n).value - stratdisc.expected_l2_sq_asymptotic(n))
        for n in ns
    ]
    slope = fit_order_by_polyfit(ns, gaps)
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
        qmc_sweep[n] < stratdisc.Grid(n, 1).expected_l2_sq()
        and exact_sweep[n] < stratdisc.Grid(n, 1).expected_l2_sq()
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


def test_criterion_7_oracle_suite(report_checks):
    """Closed forms vs exact integrals of q_i^2, pairwise identity vs the cell integral of D^2, telescoping."""
    rng = np.random.default_rng(BRUTE_SEED)
    brute_sets = [rng.random((int(rng.integers(1, 33)), 2)) for _ in range(20)]
    report_checks("criterion-7 oracle-suite", [
        *checks.check_strip_quadrature((4, 8, 16), tol=1e-4),
        *checks.check_pairwise_vs_brute(brute_sets, tol=1e-3),
        *checks.check_telescoping((6,), np.random.default_rng(MC_SEED).random((10000, 2)), tol=1e-10),
    ])


def test_criterion_8_summation_verification(report_checks):
    """Approximant remainders, the component-sum identity, and the collapse."""
    report_checks("criterion-8 summation-verification", criterion_8_checks())


def test_injected_fault_fails_verify_and_criterion_8(monkeypatch):
    # verify and criterion 8 run one definition of the harmonic check, so a
    # drifting approximant fails both
    exact = asymptotics.power_sum_approx
    monkeypatch.setattr(asymptotics, "power_sum_approx", lambda n, k: exact(n, k) + 1e-3)
    text, passed = cli.run_verify(cli.build_parser().parse_args(["verify", "--n", "4,16"]))
    assert not passed
    assert "FAIL harmonic-exact k=1:" in text
    failed = [r["name"] for r in criterion_8_checks() if not r["passed"]]
    assert "harmonic-exact k=1" in failed


def test_criterion_9_mc_consistency(report):
    """A large MC run brackets the exact value at 3 sigma, deterministically."""
    details = []
    ok = True
    estimates = {}
    for n in (4, 16):
        est = stratdisc.expected_l2_sq_mc(stratdisc.GeneratingSet(n), 100000, seed=MC_SEED)
        estimates[n] = est
        exact = stratdisc.expected_l2_sq_exact(n).value
        z = (est.value - exact) / est.std_error
        ok = ok and abs(z) <= 3.0
        details.append(f"n={n}: z={z:+.2f}")
    again = stratdisc.expected_l2_sq_mc(stratdisc.GeneratingSet(4), 100000, seed=MC_SEED)
    deterministic = (
        again.value == estimates[4].value and again.std_error == estimates[4].std_error
    )
    ok = ok and deterministic
    report(
        "criterion-9 mc-consistency",
        ok,
        f"{', '.join(details)} (|z| <= 3), repeat run identical: {deterministic}",
    )
