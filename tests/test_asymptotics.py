"""Tests for the summation approximants and the large-n collapse checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stratdisc import (
    component_sums,
    cubic_component_closed_form,
    estimate_limit_offset,
    fit_error_order,
    interior_strip_sum,
    paired_strip_integral,
    power_sqrt_order_report,
    power_sqrt_sum,
    power_sqrt_sum_approx,
    power_sum,
    power_sum_approx,
    strip_integral_lower,
    strip_integral_table,
    strip_integral_upper,
)
from stratdisc.asymptotics import DEFAULT_FIT_NS, MAX_DIRECT_N, ZETA_NEG, power_sqrt_claimed_order

from oracles import (
    component_sums_by_decimal,
    fit_order_by_polyfit,
    power_by_loop,
    power_sqrt_by_loop,
    power_sqrt_sum_by_generator,
    power_sum_by_generator,
)


class TestDirectSums:
    def test_power_sqrt_small_values(self):
        assert power_sqrt_sum([4], 1.0)[0] == 2.0  # single term 2*sqrt(1)
        assert power_sqrt_sum([6], 1.0)[0] == pytest.approx(2.0 + 3.0 * math.sqrt(2.0), abs=1e-15)

    @pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_power_sqrt_matches_loop(self, k):
        assert power_sqrt_sum([2048], k)[0] == pytest.approx(power_sqrt_by_loop(2048, k), rel=1e-13)

    def test_power_sum_known_values(self):
        assert power_sum([10], 1.0)[0] == 55.0
        assert power_sum([5], 2.0)[0] == 55.0
        assert power_sum([4], 3.0)[0] == 100.0

    def test_power_sum_matches_loop(self):
        assert power_sum([3000], 1.5)[0] == pytest.approx(power_by_loop(3000, 1.5), rel=1e-13)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            power_sqrt_sum([5], 1.0)  # odd
        with pytest.raises(ValueError):
            power_sqrt_sum([2], 1.0)  # too small
        with pytest.raises(ValueError):
            power_sqrt_sum([4], -0.5)
        with pytest.raises(ValueError):
            power_sqrt_sum([2 * MAX_DIRECT_N], 1.0)
        with pytest.raises(ValueError):
            power_sum([0], 1.0)


    @pytest.mark.parametrize("k", sorted(ZETA_NEG))
    @pytest.mark.parametrize("ns", [DEFAULT_FIT_NS, (513, 1, 4096, 2, 64, 1, 37)])
    def test_power_sum_ladder_equals_per_n_sums(self, k, ns):
        assert power_sum(ns, k) == [power_sum_by_generator(n, k) for n in ns]

    @pytest.mark.parametrize("k", sorted(ZETA_NEG))
    @pytest.mark.parametrize("ns", [DEFAULT_FIT_NS, (514, 4, 4096, 6, 64, 4, 38)])
    def test_power_sqrt_sum_ladder_equals_per_n_sums(self, k, ns):
        assert power_sqrt_sum(ns, k) == [power_sqrt_sum_by_generator(n, k) for n in ns]

    def test_ladder_validated_per_element(self):
        assert power_sum([], 1.0) == power_sqrt_sum([], 1.0) == []
        with pytest.raises(ValueError, match="need n >= 1, got n=0"):
            power_sum([4, 0, 8], 1.0)
        with pytest.raises(ValueError, match="exceeds the direct-summation cap"):
            power_sum([4, MAX_DIRECT_N + 1], 1.0)
        with pytest.raises(ValueError, match="need even n >= 4, got n=7"):
            power_sqrt_sum([8, 7], 1.0)
        with pytest.raises(ValueError, match="need k >= 0"):
            power_sqrt_sum([8, 16], -0.5)


class TestSqrtSumApproximant:
    def test_relative_accuracy(self):
        # relative error is tiny even where an additive constant remains
        for k in (0.5, 1.0, 1.5, 2.0, 2.5):
            direct = power_sqrt_sum([4096], k)[0]
            approx = power_sqrt_sum_approx(4096, k)
            assert approx == pytest.approx(direct, rel=1e-6)

    def test_constant_offset_k_half(self):
        # the k=1/2 approximant approaches the direct sum plus a fixed
        # offset near 0.03752; measured, not taken from any closed form
        report = power_sqrt_order_report(0.5)
        assert report.constant_offset == pytest.approx(0.0375227, abs=1e-4)
        assert report.adjusted_order == pytest.approx(-1.0, abs=0.25)

    def test_constant_offset_k_one(self):
        report = power_sqrt_order_report(1.0)
        assert report.constant_offset == pytest.approx(0.1003249, abs=1e-4)
        assert report.adjusted_order == pytest.approx(-0.5, abs=0.25)

    @pytest.mark.parametrize("k", [1.5, 2.0, 2.5])
    def test_growing_error_orders_fit_raw(self, k):
        report = power_sqrt_order_report(k)
        assert report.constant_offset == 0.0
        assert report.fitted_order == report.adjusted_order
        assert abs(report.adjusted_order - report.claimed_order) <= 0.25

    def test_claimed_orders(self):
        assert power_sqrt_claimed_order(0.5) == -1.0
        assert power_sqrt_claimed_order(1.0) == -0.5
        assert power_sqrt_claimed_order(1.5) == 0.0
        assert power_sqrt_claimed_order(2.5) == 1.0

    def test_report_fields(self):
        report = power_sqrt_order_report(0.5, ns=(64, 128, 256, 512))
        assert report.k == 0.5
        assert report.claimed_order == -1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            power_sqrt_sum_approx(5, 1.0)
        with pytest.raises(ValueError):
            power_sqrt_sum_approx(8, -1.0)
        with pytest.raises(ValueError):
            power_sqrt_sum_approx(8, 0.0)


class TestHarmonicApproximant:
    @pytest.mark.parametrize("n", [16, 256, 4096])
    def test_exact_for_integer_k(self, n):
        for k in (1.0, 2.0):
            assert power_sum_approx(n, k) == pytest.approx(power_sum([n], k)[0], rel=1e-12)

    def test_k3_constant_remainder(self):
        # the k=3 approximant misses the true sum by exactly the 1/120 term;
        # larger n would drown the constant in ulp rounding of n^4/4
        for n in (16, 64, 256):
            gap = power_sum([n], 3.0)[0] - power_sum_approx(n, 3.0)
            assert gap == pytest.approx(-1.0 / 120.0, abs=1e-6)

    @pytest.mark.parametrize("k", [0.5, 1.5, 2.5])
    def test_error_within_claimed_bound(self, k):
        for n in (64, 512, 4096):
            err = abs(power_sum_approx(n, k) - power_sum([n], k)[0])
            assert err <= n ** (k - 2.0)

    def test_zeta_constants_match_direct_limits(self):
        # recover each zeta value empirically from the direct sums
        def tail(n, k):
            poly = n ** (k + 1.0) / (k + 1.0) + n**k / 2.0 + k * n ** (k - 1.0) / 12.0
            return power_sum([n], k)[0] - poly

        assert tail(2**16, 0.5) == pytest.approx(ZETA_NEG[0.5], abs=1e-8)
        assert tail(2**16, 1.5) == pytest.approx(ZETA_NEG[1.5], abs=1e-3)
        # slower n^{-1/2} remainder: one Richardson step
        est = 2.0 * tail(4096, 2.5) - tail(1024, 2.5)
        assert est == pytest.approx(ZETA_NEG[2.5], abs=2e-3)

    def test_zeta_5_half_is_positive(self):
        assert ZETA_NEG[2.5] > 0.0

    def test_unsupported_exponent(self):
        with pytest.raises(ValueError):
            power_sum_approx(10, 0.7)
        with pytest.raises(ValueError):
            power_sum_approx(0, 1.0)


class TestPairedStrips:
    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_pair_equals_sum_of_mirror_strips(self, n):
        for i in range(2, n // 2 + 1):
            pair = paired_strip_integral(n, i)
            split = strip_integral_lower(n, i) + strip_integral_upper(n, n + 1 - i)
            assert pair == pytest.approx(split, abs=1e-12)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            paired_strip_integral(8, 1)
        with pytest.raises(ValueError):
            paired_strip_integral(8, 5)
        with pytest.raises(ValueError):
            paired_strip_integral(7, 2)


class TestComponentSums:
    def test_n4_single_pair_by_hand(self):
        comps = component_sums(4)
        assert comps.cubic == pytest.approx(-16.0 / 15.0, abs=1e-15)
        total = math.fsum(comps)
        assert total == pytest.approx(paired_strip_integral(4, 2), abs=1e-12)

    def test_cubic_closed_form(self):
        for n in (4, 16, 64, 256):
            assert component_sums(n).cubic == pytest.approx(
                cubic_component_closed_form(n), abs=1e-9
            )

    @pytest.mark.parametrize("n", [*range(4, 513, 2), 4096, 65536])
    def test_matches_decimal_sums(self, n):
        # the integer sums round to the same float as the 40-digit ones,
        # field for field
        assert component_sums(n) == component_sums_by_decimal(n)

    @pytest.mark.parametrize("n", [4096, 65536])
    def test_components_at_large_n(self, n):
        # float sums of the pieces lose about n^3 eps; the exact total and
        # the correctly rounded cubic hold the verify bounds
        comps = component_sums(n)
        assert abs(comps.total - interior_strip_sum(n)) <= 1e-8
        assert abs(comps.cubic - cubic_component_closed_form(n)) <= 1e-9

    def test_iterates_over_the_four_pieces(self):
        comps = component_sums(64)
        assert list(comps) == [comps.cubic, comps.quadratic, comps.linear, comps.constant]
        assert comps.total == pytest.approx(math.fsum(comps), abs=1e-12)

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_components_rebuild_interior_sum(self, n):
        total = math.fsum(component_sums(n))
        assert total == pytest.approx(interior_strip_sum(n), abs=1e-8)

    def test_interior_sum_matches_table(self):
        n = 12
        table = strip_integral_table(n)
        want = math.fsum(table[1:-1].tolist())
        assert interior_strip_sum(n) == pytest.approx(want, abs=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            component_sums(5)
        with pytest.raises(ValueError):
            cubic_component_closed_form(5)
        with pytest.raises(ValueError):
            interior_strip_sum(1)


class TestCollapse:
    def test_error_grows_no_faster_than_sqrt_n(self):
        ns = (256, 512, 1024, 2048, 4096)
        normalized = [abs(interior_strip_sum(n) - 13.0 * n / 72.0) / math.sqrt(n) for n in ns]
        assert all(b <= 2.0 * a for a, b in zip(normalized, normalized[1:]))


class TestFitHelpers:
    def test_fit_recovers_synthetic_slope(self):
        ns = (32, 64, 128, 256)
        errors = [3.0 * n**-2.0 for n in ns]
        assert fit_error_order(ns, errors) == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_slope_matches_polyfit_on_the_sqrt_sum_inputs(self, k):
        # the raw and offset-adjusted errors that verify's sqrt-sum-order checks fit
        ns = DEFAULT_FIT_NS
        signed = [power_sqrt_sum_approx(n, k) - direct for n, direct in zip(ns, power_sqrt_sum(ns, k))]
        inputs = [signed]
        if power_sqrt_claimed_order(k) < 0:
            offset = estimate_limit_offset(ns, signed, -power_sqrt_claimed_order(k))
            inputs.append([e - offset for e in signed])
        for errors in inputs:
            assert abs(fit_error_order(ns, errors) - fit_order_by_polyfit(ns, errors)) <= 1e-12

    @pytest.mark.parametrize("ns, errors", [
        ((4, 8), (0.5, 0.125)),
        ((2, 3, 5, 1000), (1.0, -2.0, 0.0, 3e-7)),
        (np.array([64, 256, 1024, 4096]), np.array([1e-3, 2e-4, -7e-5, 1e-5])),
        (tuple(2**j for j in range(2, 21)), tuple((-1) ** j * 1.5 ** -j for j in range(2, 21))),
    ])
    def test_slope_matches_polyfit(self, ns, errors):
        assert abs(fit_error_order(ns, errors) - fit_order_by_polyfit(ns, errors)) <= 1e-12

    def test_offset_recovers_synthetic_constant(self):
        ns = (64, 128, 256, 512)
        errors = [0.25 + 7.0 / n for n in ns]
        assert estimate_limit_offset(ns, errors, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_error_order((4,), (0.1,))
        with pytest.raises(ValueError):
            fit_error_order((4, 8), (0.1,))
        with pytest.raises(ValueError, match="distinct"):
            fit_error_order((8, 8), (0.1, 0.2))
        with pytest.raises(ValueError):
            estimate_limit_offset((4, 8), (0.1, 0.2), 0.0)
