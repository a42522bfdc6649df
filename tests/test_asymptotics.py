"""Tests for the summation approximants and the large-n collapse checks."""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from stratdisc import (
    component_sums,
    cubic_component_closed_form,
    interior_strip_sum,
    paired_strip_integral,
    power_sqrt_sum,
    power_sqrt_sum_approx,
    power_sum,
    power_sum_approx,
    strip_integral_lower,
    strip_integral_table,
    strip_integral_upper,
)
from stratdisc.asymptotics import CHECK_NS, MAX_DIRECT_N, SQRT_SUM_REMAINDERS, ZETA_NEG, _powers

from oracles import (
    component_sums_by_decimal,
    paired_strip_integral_scalar,
    power_by_loop,
    power_sqrt_by_loop,
    power_sqrt_sum_approx_printed,
    power_sqrt_sum_by_generator,
    power_sqrt_sum_expanded,
    power_sum_by_generator,
    sqrt_sum_offset,
)

# The first power of n left in printed - c - a ln n - direct, from the
# expansion of each sum in powers of n.  The table holds k = 3/2 to n^-1/2:
# its O(1/n) remainder is below the float rounding of its terms at n = 2^14.
DERIVED_ORDER = {0.5: -1.0, 1.0: -0.5, 1.5: -1.0, 2.0: 0.5, 2.5: 1.0}

# n at which each derived offset is within 1e-31 of its limit
OFFSET_N = {0.5: 10**32, 1.0: 10**64, 1.5: 10**32}


@functools.cache
def derived_offsets(k: float) -> tuple[mpf, mpf]:
    """printed - a ln n - direct at OFFSET_N[k] and ten decades further on."""
    a = SQRT_SUM_REMAINDERS[k][2]
    return sqrt_sum_offset(OFFSET_N[k], k, a), sqrt_sum_offset(OFFSET_N[k] * 10**10, k, a)


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
    @pytest.mark.parametrize("ns", [CHECK_NS, (513, 1, 4096, 2, 64, 1, 37)])
    def test_power_sum_ladder_equals_per_n_sums(self, k, ns):
        assert power_sum(ns, k) == [power_sum_by_generator(n, k) for n in ns]

    @pytest.mark.parametrize("k", sorted(ZETA_NEG))
    @pytest.mark.parametrize("ns", [CHECK_NS, (514, 4, 4096, 6, 64, 4, 38)])
    def test_power_sqrt_sum_ladder_equals_per_n_sums(self, k, ns):
        assert power_sqrt_sum(ns, k) == [power_sqrt_sum_by_generator(n, k) for n in ns]

    # i^3 first reaches 2^53 at i = 208,064: past it the int k = 3 terms round
    # the exact power and the float k = 3.0 terms are the C library's pow
    @pytest.mark.parametrize("k", [3, 3.0, 2.5])
    def test_power_sum_at_the_cap_equals_its_own_sum(self, k):
        assert power_sum([MAX_DIRECT_N], k) == [power_sum_by_generator(MAX_DIRECT_N, k)]

    @pytest.mark.parametrize("k", [2, 2.0, 2.5])
    def test_power_sqrt_sum_at_the_cap_equals_its_own_sum(self, k):
        assert power_sqrt_sum([MAX_DIRECT_N], k) == [power_sqrt_sum_by_generator(MAX_DIRECT_N, k)]

    @pytest.mark.parametrize("k", sorted(ZETA_NEG))
    def test_ladders_of_one_n_and_of_none(self, k):
        assert power_sum([3000], k) == [power_sum_by_generator(3000, k)]
        assert power_sqrt_sum([3000], k) == [power_sqrt_sum_by_generator(3000, k)]
        assert power_sum([], k) == power_sqrt_sum([], k) == []

    @pytest.mark.parametrize("k", [0, 0.5, 1, 1.0, 1.5, 2, 2.0, 2.5, 3, 3.0, -1, 3.5])
    @pytest.mark.parametrize(
        "first, last", [(1, 4000), (207_000, 209_000), (MAX_DIRECT_N - 100, MAX_DIRECT_N), (1, MAX_DIRECT_N)]
    )
    def test_terms_have_the_bits_of_python_powers(self, k, first, last):
        # an int k = 3 past 2^53 rounds the exact integer i**3 once; a float
        # k = 3.0 is libm's pow there, which differs from it at many i
        want = [float(i**k) for i in range(first, last + 1)]
        assert _powers(first, last, k).tolist() == want
        assert _powers(first, last, k).tobytes() == np.array(want).tobytes()

    def test_float_terms_need_no_math_pow(self, monkeypatch):
        want = [float(i**1.5) for i in range(1, 2**14 + 1)]

        def refuse(x, y):
            raise AssertionError("math.pow called")

        monkeypatch.setattr(math, "pow", refuse)
        assert _powers(1, 2**14, 1.5).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("k", [60.0, 60])
    def test_a_term_past_the_float_range_raises(self, k):
        with pytest.raises(OverflowError):
            power_sum([2**20], k)

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
        with pytest.raises(ValueError, match="need k >= 0, got k=-1.0"):
            power_sqrt_sum([], -1.0)


class TestSqrtSumApproximant:
    def test_relative_accuracy(self):
        # relative error is tiny even where an additive constant remains
        for k in (0.5, 1.0, 1.5, 2.0, 2.5):
            direct = power_sqrt_sum([4096], k)[0]
            approx = power_sqrt_sum_approx(4096, k)
            assert approx == pytest.approx(direct, rel=1e-6)

    @staticmethod
    def assert_offset_is_derived(k):
        # c is the 30-digit limit of printed - a ln n - direct, which two n
        # ten decades apart agree on
        near, far = derived_offsets(k)
        with mp.workdps(40):
            assert abs(near - far) < mpf(10) ** -30
        assert SQRT_SUM_REMAINDERS[k][1] == float(near)

    def test_constant_offset_k_half(self):
        self.assert_offset_is_derived(0.5)

    def test_constant_offset_k_three_halves(self):
        self.assert_offset_is_derived(1.5)

    def test_constant_offset_k_one(self):
        _, c, a = SQRT_SUM_REMAINDERS[1.0]
        near, far = derived_offsets(1.0)
        with mp.workdps(40):
            closed = mpf(5) / 6 - 41 * mp.sqrt(2) / 60 - mp.zeta(-0.5) - mp.zeta(-1.5)
            assert abs(near - far) < mpf(10) ** -30
            assert abs(near - closed) < mpf(10) ** -30
        assert a == 0.0
        assert c == float(near) == float(closed)

    def test_log_term_is_the_dropped_minus_one_over_16i(self):
        # i^2 sqrt(1 - 1/i) = i^2 - i/2 - 1/8 - 1/(16i) + ...: the 1/(16i)
        # sums to (1/16) ln n, which the four-term k = 3/2 form leaves out
        assert SQRT_SUM_REMAINDERS[1.5][2] == 1 / 16 == -float(mp.binomial(1.5, 3))
        assert all(SQRT_SUM_REMAINDERS[k][2] == 0.0 for k in (0.5, 1.0, 2.0, 2.5))
        assert SQRT_SUM_REMAINDERS[2.0][1] == SQRT_SUM_REMAINDERS[2.5][1] == 0.0

    def test_claimed_orders(self):
        # n^-p (printed - c - a ln n - direct) tends to a nonzero limit at the
        # derived order p: it moves by under 1e-3 of itself from 10^20 to 10^30
        for k, p in DERIVED_ORDER.items():
            c_exact = derived_offsets(k)[1] if k in OFFSET_N else 0
            a = SQRT_SUM_REMAINDERS[k][2]
            with mp.workdps(40):
                near, far = ((sqrt_sum_offset(n, k, a) - c_exact) / mpf(n) ** p for n in (10**20, 10**30))
                assert abs(near) > 1e-3
                assert abs(far / near - 1) < 1e-3
            assert SQRT_SUM_REMAINDERS[k][0] == (-0.5 if k == 1.5 else p)

    @pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 2.0, 2.5])
    @pytest.mark.parametrize("n", [64, 1024, 16384])
    def test_derivation_matches_the_float_forms(self, k, n):
        # the mpmath sides of the derivation are the library's sums and formulas
        with mp.workdps(40):
            direct, printed = power_sqrt_sum_expanded(n, k), power_sqrt_sum_approx_printed(n, k)
        assert float(direct) == pytest.approx(power_sqrt_sum([n], k)[0], rel=1e-15)
        assert float(printed) == pytest.approx(power_sqrt_sum_approx(n, k), rel=1e-14)

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

    @pytest.mark.parametrize("n", [4, 6, 8, 64, 1000, 4096, 2**16 + 2, 2**20])
    def test_array_equals_scalar_form(self, n):
        # i*i*i and i*i are exact below 2^53 and np.sqrt is correctly
        # rounded, so the vectorised form has the scalar form's bits
        rng = np.random.default_rng(n)
        i = np.unique(np.r_[2, n // 2, rng.integers(2, n // 2 + 1, 3000)])
        want = np.array([paired_strip_integral_scalar(n, j) for j in i.tolist()])
        assert paired_strip_integral(n, i).tobytes() == want.tobytes()
        assert paired_strip_integral(n, int(i[-1])) == want[-1]

    def test_index_validation(self):
        with pytest.raises(ValueError):
            paired_strip_integral(8, 1)
        with pytest.raises(ValueError):
            paired_strip_integral(8, 5)
        with pytest.raises(ValueError):
            paired_strip_integral(7, 2)
        with pytest.raises(ValueError, match="pair strips are 2 <= i <= 4 for n=8, got i=5"):
            paired_strip_integral(8, np.array([2, 5]))
        with pytest.raises(ValueError, match="pair strip index must be an integer, got i=2.5"):
            paired_strip_integral(8, 2.5)


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

    @pytest.mark.parametrize("call", [
        lambda n: power_sqrt_sum([8, n], 1.0),
        lambda n: power_sqrt_sum_approx(n, 1.0),
        lambda n: paired_strip_integral(n, 2),
        component_sums,
        cubic_component_closed_form,
    ], ids=["power_sqrt_sum", "power_sqrt_sum_approx", "paired_strip_integral", "component_sums", "cubic"])
    @pytest.mark.parametrize("n", [-4, 0, 2, 3, 5, 1025])
    def test_odd_or_small_n_refused_with_one_message(self, call, n):
        with pytest.raises(ValueError) as exc:
            call(n)
        assert str(exc.value) == f"need even n >= 4, got n={n}"

    @pytest.mark.parametrize("call", [
        lambda n: power_sqrt_sum([8, n], 1.0),
        lambda n: power_sqrt_sum_approx(n, 1.0),
        lambda n: power_sum([5, n], 1.0),
        lambda n: power_sum_approx(n, 1.0),
        lambda n: paired_strip_integral(n, 2),
        lambda n: dataclasses.astuple(component_sums(n)),
        cubic_component_closed_form,
    ], ids=["power_sqrt_sum", "power_sqrt_sum_approx", "power_sum", "power_sum_approx", "paired_strip_integral",
            "component_sums", "cubic"])
    def test_integral_n_read_as_int_and_fractional_n_refused(self, call):
        want = call(8)
        for same in (np.int64(8), 8.0):
            got = call(same)
            assert type(got) is type(want) and np.array(got).tobytes() == np.array(want).tobytes()
        for bad in (5.5, 6.5):
            with pytest.raises(ValueError, match=f"n must be an integer, got n={bad}"):
                call(bad)

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
