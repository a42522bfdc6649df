"""Tests for the closed-form strip integrals and the exact expectation."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stratdisc import cli, exactform
from stratdisc.asymptotics import interior_strip_sum
from stratdisc import (
    expected_l2_sq_asymptotic,
    expected_l2_sq_exact,
    generating_set,
    strip_integral_lower,
    strip_integral_table,
    strip_integral_upper,
)
from stratdisc.exactform import strip_integral_middle
from stratdisc.qgeometry import overlap_square_integrals

from oracles import EXACT_HIGH_PRECISION, MIDDLE_STRIP_INTEGRAL, expected_l2_sq_printed, strip_integral_printed


class TestStripIntegrals:
    def test_first_strip_formula(self):
        # the lower form at i = 1 is the printed first strip
        assert strip_integral_lower(4, 1) == pytest.approx(
            1.0 - 14.0 * math.sqrt(2.0) / (15.0 * 2.0) + 0.1, abs=1e-15
        )

    def test_last_strip_value(self):
        # the upper form at i = N is the printed last strip
        assert strip_integral_upper(4, 4) == 1.0 / 60.0
        assert strip_integral_upper(128, 128) == pytest.approx(1.0 / (15 * 128), abs=1e-18)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_closed_forms_match_quadrature(self, n):
        # the exact piecewise integrals of q_i^2, not a grid quadrature
        quads = overlap_square_integrals(generating_set(n))
        np.testing.assert_allclose(strip_integral_table(n), quads, rtol=1e-13, atol=0)

    def test_table_layout(self):
        table = strip_integral_table(8)
        assert table.shape == (8,)
        assert table.dtype == np.float64
        assert table[0] == strip_integral_lower(8, 1)
        assert table[1] == strip_integral_lower(8, 2)
        assert table[4] == strip_integral_upper(8, 5)
        assert table[-1] == strip_integral_upper(8, 8)

    def test_integrals_decrease_along_strips(self):
        # the box [0,x]x[0,y] reaches early strips far more often
        for n in (15, 16):
            table = strip_integral_table(n)
            assert all(a > b for a, b in zip(table, table[1:]))

    def test_index_ranges_enforced(self):
        with pytest.raises(ValueError):
            strip_integral_lower(8, 0)
        with pytest.raises(ValueError):
            strip_integral_lower(8, 5)
        with pytest.raises(ValueError):
            strip_integral_upper(8, 4)
        with pytest.raises(ValueError):
            strip_integral_upper(8, 9)
        # odd n: the middle strip (n+1)/2 = 5 belongs to neither form
        assert strip_integral_lower(9, 4) > strip_integral_upper(9, 6) > 0.0
        with pytest.raises(ValueError):
            strip_integral_lower(9, 5)
        with pytest.raises(ValueError):
            strip_integral_upper(9, 5)
        with pytest.raises(ValueError):
            strip_integral_upper(9, 10)

    @pytest.mark.parametrize(
        "form, i, shown",
        [
            (strip_integral_lower, 0, "1 <= i <= 1048576 for n=2097152, got i=0"),
            (strip_integral_lower, 1048577, "1 <= i <= 1048576 for n=2097152, got i=1048577"),
            (strip_integral_upper, 1048576, "1048577 <= i <= 2097152 for n=2097152, got i=1048576"),
            (strip_integral_upper, 2097153, "1048577 <= i <= 2097152 for n=2097152, got i=2097153"),
            (strip_integral_upper, 2097152.5, "1048577 <= i <= 2097152 for n=2097152, got i=2097152.5"),
            (strip_integral_upper, np.array([1048577, 2097153]), "for n=2097152, got i=2097153"),
        ],
        ids=["lower-below", "lower-above", "upper-below", "upper-above", "upper-fraction", "upper-array"],
    )
    def test_index_out_of_range_printed_in_full(self, form, i, shown):
        # {:g} would print 1048577 as 1.04858e+06, which reads as in range
        with pytest.raises(ValueError) as exc:
            form(2**21, i)
        assert str(exc.value).endswith(shown)

    @pytest.mark.parametrize(
        "regime, i",
        [
            (strip_integral_lower, 2.5),
            (strip_integral_lower, np.float64(3.25)),
            (strip_integral_lower, np.array([2.0, 3.5, 4.0])),
            (strip_integral_lower, math.nan),
            (strip_integral_upper, 6.5),
            (strip_integral_upper, np.float64(5.75)),
            (strip_integral_upper, np.array([5.0, 6.0, 6.5])),
            (strip_integral_upper, np.array([5.0, math.nan])),
        ],
        ids=["lower-2.5", "lower-float64", "lower-array", "lower-nan",
             "upper-6.5", "upper-float64", "upper-array", "upper-nan-array"],
    )
    def test_non_integral_index_rejected(self, regime, i):
        # inside the regime's range, but between two strips
        with pytest.raises(ValueError, match="must be an integer"):
            regime(8, i)

    @pytest.mark.parametrize("regime, i", [(strip_integral_lower, 3), (strip_integral_upper, 6)])
    def test_integral_floats_accepted(self, regime, i):
        assert regime(8, float(i)) == regime(8, i)
        assert np.array_equal(regime(8, np.array([float(i)])), np.array([regime(8, i)]))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_n_table_holds_the_middle_strip(self, n):
        table = strip_integral_table(n)
        assert table.shape == (n,)
        assert table[n // 2] == strip_integral_middle(n)
        for i in range(1, n + 1):
            if 2 * i != n + 1:
                regime = strip_integral_lower if i <= n // 2 else strip_integral_upper
                assert table[i - 1] == regime(n, i)

    @pytest.mark.parametrize(
        "func, n",
        [
            (lambda n: strip_integral_lower(n, 1), 4),
            (lambda n: strip_integral_upper(n, n), 4),
            (strip_integral_middle, 5),
            (lambda n: strip_integral_lower(n, 2), 4),
            (lambda n: strip_integral_upper(n, 5), 6),
            (strip_integral_table, 4),
            (expected_l2_sq_exact, 4),
            (interior_strip_sum, 4),
        ],
        ids=["first", "last", "middle", "lower", "upper", "table", "exact", "interior-sum"],
    )
    def test_non_integral_n_rejected_integral_n_accepted(self, func, n):
        for bad in (n + 0.5, np.float64(n - 0.25), math.nan, "4"):
            with pytest.raises(ValueError, match="n must be an integer"):
                func(bad)
        want = func(n)
        for same in (np.int64(n), float(n)):
            got = func(same)
            assert type(got) is type(want)
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes()
            else:
                assert got == want

    def test_middle_strip_needs_odd_n(self):
        for n in (0, 1, 2, 4, 64):
            with pytest.raises(ValueError):
                strip_integral_middle(n)

    @pytest.mark.parametrize("regime", [strip_integral_lower, strip_integral_upper])
    @pytest.mark.parametrize("n, start", [(3, 2), (64, 0)])
    def test_empty_index_array_gives_empty_array(self, regime, n, start):
        values = regime(n, np.arange(start, start))
        assert values.dtype == np.float64
        assert values.shape == (0,)

    @pytest.mark.parametrize("n", sorted(MIDDLE_STRIP_INTEGRAL))
    def test_middle_strip_matches_exact_integral(self, n):
        want = float(MIDDLE_STRIP_INTEGRAL[n])
        assert strip_integral_middle(n) == pytest.approx(want, rel=1e-15, abs=0)

    def test_strip_quadrature_check_passes_at_odd_n(self):
        records = cli.check_strip_quadrature((3, 5, 7, 9), tol=1e-12)
        assert all(r["passed"] for r in records), records

    def test_table_validation(self):
        # no entry is negative and the last is 1/(15n), for odd and even n
        for n in (2, 3, 4, 5, 9, 64, 65, 1024, 1025, 2**16 + 1):
            table = strip_integral_table(n)
            assert table.min() >= 0.0
            assert table[-1] == 1.0 / (15.0 * n)
        with pytest.raises(ValueError):
            strip_integral_table(1)


class TestPrecisionContract:
    """The rationalised regimes against the printed formulas in 50-digit arithmetic."""

    @pytest.mark.parametrize("n", [*range(4, 65, 2), *range(3, 66, 2)])
    def test_every_table_entry_small_n(self, n):
        values = strip_integral_table(n)
        for i in range(1, n + 1):
            assert values[i - 1] == pytest.approx(float(strip_integral_printed(n, i)), rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [4096, 2**18, 2**24])
    def test_sampled_strips_large_n(self, n):
        rng = np.random.default_rng(n)
        lower = np.unique(np.r_[1, 2, 3, n // 2 - 1, n // 2, rng.integers(2, n // 2 + 1, 40)])
        upper = np.unique(np.r_[n // 2 + 1, n // 2 + 2, n - 2, n - 1, n, rng.integers(n // 2 + 1, n, 40)])
        for fn, idx in ((strip_integral_lower, lower), (strip_integral_upper, upper)):
            got = fn(n, idx)
            want = np.array([float(strip_integral_printed(n, int(i))) for i in idx])
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @given(st.integers(2, exactform.MAX_CLOSED_FORM_N))
    @example(2)
    @example(3)
    @example(exactform.MAX_CLOSED_FORM_N)
    def test_end_strips_at_every_n(self, n):
        # the lower form at i = 1 and the upper form at i = N are the
        # printed first and last strips
        first = float(strip_integral_printed(n, 1))
        assert strip_integral_lower(n, 1) == pytest.approx(first, rel=1e-13, abs=0)
        assert strip_integral_upper(n, n) == 1.0 / (15.0 * n)

    @pytest.mark.parametrize("n", [255, 1025, 4097])
    def test_every_table_entry_large_odd_n(self, n):
        want = np.array([float(strip_integral_printed(n, i)) for i in range(1, n + 1)])
        np.testing.assert_allclose(strip_integral_table(n), want, rtol=1e-13, atol=0)

    def test_table_is_the_regime_calls_at_large_n(self):
        n = 4096
        values = strip_integral_table(n)
        assert np.array_equal(values[: n // 2], strip_integral_lower(n, np.arange(1, n // 2 + 1)))
        assert np.array_equal(values[n // 2 :], strip_integral_upper(n, np.arange(n // 2 + 1, n + 1)))
        assert values[n // 2] == strip_integral_upper(n, n // 2 + 1)

    @pytest.mark.parametrize("n", [*range(2, 65, 2), 256, 1024, 4096, *range(3, 66, 2), 255, 1025, 4097])
    def test_expectation(self, n):
        want = float(expected_l2_sq_printed(n))
        assert expected_l2_sq_exact(n).value == pytest.approx(want, rel=1e-14, abs=0)

    def test_excess_over_leading_term_decays_past_2_20(self):
        # n*E - 5/72 decays like n^(-3/2): a factor 8 from 2^18 to 2^20
        excess = {n: n * expected_l2_sq_exact(n).value - 5.0 / 72.0 for n in (2**18, 2**20)}
        assert excess[2**20] > 0.0
        assert 6.0 < excess[2**18] / excess[2**20] < 10.0

    def test_table_values_are_read_only(self):
        with pytest.raises(ValueError):
            strip_integral_table(8)[0] = 0.0


class TestBlockedTable:
    """The table is filled in blocks; its values are those of one call per regime."""

    @staticmethod
    def assert_equals_unblocked(n):
        values = strip_integral_table(n)
        lower = strip_integral_lower(n, np.arange(1, n // 2 + 1))
        middle = [strip_integral_middle(n)] if n % 2 else []
        upper = strip_integral_upper(n, np.arange((n + 3) // 2, n + 1))
        want = np.concatenate((lower, middle, upper))
        assert values.tobytes() == want.tobytes()

    def test_large_n(self):
        self.assert_equals_unblocked(2**20)

    def test_large_odd_n(self):
        self.assert_equals_unblocked(2**20 + 1)

    @pytest.mark.parametrize("d", [-2, 0, 2])
    def test_regime_lengths_around_a_block(self, d):
        # each form has n/2 strips: one less than, equal to and one more
        # than a block
        self.assert_equals_unblocked(2 * exactform._BLOCK + d)

    def test_memory_bounded_at_2_22(self):
        # the 32 MiB table plus one block of regime temporaries; evaluating
        # each regime in one call would take five times the table
        tracemalloc.start()
        try:
            strip_integral_table(2**22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


class TestStreamedSums:
    """The exact form and the interior sum stream the strips into one correctly
    rounded sum, bitwise the fsum of the table; no table is held."""

    @pytest.mark.parametrize("n", [
        2, 3, 4, 5, 64, 65, 1025, 2**18, 2**18 + 1, 2**20,
        *(2 * np.random.default_rng(7).integers(2, 300_000, size=8)).tolist(),
    ])
    def test_equal_to_fsum_of_the_table(self, n):
        table = strip_integral_table(n)
        assert expected_l2_sq_exact(n).value == 1.0 / (4.0 * n) - math.fsum(table.tolist()) / (n * n)
        assert interior_strip_sum(n) == math.fsum(table[1:-1].tolist())

    @pytest.mark.parametrize("func", [expected_l2_sq_exact, interior_strip_sum], ids=["exact", "interior-sum"])
    def test_memory_flat_in_n(self, func):
        # one block of regime temporaries at every n; the table at 2^20
        # alone would be 8 MiB
        peaks = []
        for n in (2**16, 2**18, 2**20):
            tracemalloc.start()
            try:
                func(n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2**20, peaks
        assert peaks[-1] <= peaks[0] + 2**16, peaks

    @pytest.mark.parametrize(
        "func",
        [
            lambda n: strip_integral_lower(n, 1),
            lambda n: strip_integral_upper(n, n),
            strip_integral_table,
            expected_l2_sq_exact,
            interior_strip_sum,
        ],
        ids=["first", "last", "table", "exact", "interior-sum"],
    )
    def test_n_above_the_cap_refused(self, func):
        cap = exactform.MAX_CLOSED_FORM_N
        for n in (cap + 1, np.int64(cap + 1), float(2**53 + 2), 10**400):
            with pytest.raises(ValueError, match=f"closed forms accept n <= {cap}"):
                func(n)

    def test_n_at_the_cap_accepted(self):
        cap = exactform.MAX_CLOSED_FORM_N
        assert strip_integral_upper(cap, cap) == 1.0 / (15.0 * cap)
        assert strip_integral_lower(cap, cap // 2) > 0.0


class TestExactExpectation:
    def test_n2_value(self):
        # two strips: 1/8 - (Q_1 + Q_2)/4 with Q_1 + Q_2 = 3/10
        assert expected_l2_sq_exact(2).value == pytest.approx(0.05, abs=1e-15)

    @pytest.mark.parametrize("n", sorted(EXACT_HIGH_PRECISION))
    def test_matches_high_precision_oracle(self, n):
        got = expected_l2_sq_exact(n).value
        assert got == pytest.approx(EXACT_HIGH_PRECISION[n], rel=1e-12)

    def test_method_and_meta(self):
        # the estimate carries no method tag or meta dict: only the value,
        # and no standard error for the exact form
        est = expected_l2_sq_exact(6)
        assert dataclasses.asdict(est) == {"value": est.value, "std_error": None}
        assert est.value == pytest.approx(EXACT_HIGH_PRECISION[6], rel=1e-12)

    def test_assembled_from_table(self):
        for n in (2, 3, 12, 13):
            total = math.fsum(strip_integral_table(n).tolist())
            want = 1.0 / (4.0 * n) - total / (n * n)
            assert expected_l2_sq_exact(n).value == want

    def test_decreasing_in_n(self):
        values = [expected_l2_sq_exact(n).value for n in range(2, 65)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_agrees_with_qmc_at_odd_n(self, halton_nodes):
        records = cli.check_cross_method(halton_nodes, range(3, 66, 2), tol=1e-3)
        assert all(r["passed"] for r in records), records


class TestAsymptotic:
    def test_leading_term(self):
        assert expected_l2_sq_asymptotic(72) == pytest.approx(5.0 / 72.0 / 72.0, abs=1e-18)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            expected_l2_sq_asymptotic(0)

    def test_approaches_exact_value(self):
        # relative gap shrinks with n
        gaps = []
        for n in (16, 64, 256):
            exact = expected_l2_sq_exact(n).value
            gaps.append(abs(exact - expected_l2_sq_asymptotic(n)) / exact)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.005
