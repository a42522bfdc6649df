"""Tests for Halton nodes and the discrepancy evaluators."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratdisc import HaltonConfig, PointSet, halton, l2_discrepancy_sq_batch
from stratdisc.lowdisc import _radical_inverse_block, brute_force_l2_sq

from oracles import (
    brute_force_by_histogram,
    l2_by_anchor_grid,
    radical_inverse,
    radical_inverse_by_digits,
    warnock_batch_max_form,
    warnock_batch_min_form,
    warnock_by_loops,
    warnock_exact,
)


class TestRadicalInverse:
    @pytest.mark.parametrize(
        "k,want",
        [(1, 0.5), (2, 0.25), (3, 0.75), (4, 0.125), (5, 0.625), (6, 0.375)],
    )
    def test_base2_known_values(self, k, want):
        assert radical_inverse(2, k) == want

    @pytest.mark.parametrize("k,want", [(1, 1 / 3), (2, 2 / 3), (3, 1 / 9), (4, 4 / 9)])
    def test_base3_known_values(self, k, want):
        assert radical_inverse(3, k) == pytest.approx(want, abs=1e-15)

    @given(base=st.sampled_from([2, 3, 5, 7, 10]), k=st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_matches_digit_reversal_oracle(self, base, k):
        assert radical_inverse(base, k) == pytest.approx(
            radical_inverse_by_digits(base, k), abs=1e-15
        )

    @pytest.mark.parametrize("base", [2, 3, 5])
    def test_block_matches_scalar_bitwise(self, base):
        block = _radical_inverse_block(base, 2000)
        scalar = np.array([radical_inverse(base, k) for k in range(1, 2001)])
        np.testing.assert_array_equal(block, scalar)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            radical_inverse(1, 5)
        with pytest.raises(ValueError):
            radical_inverse(2, 0)


class TestHalton:
    def test_first_points_bases_2_3(self):
        ps = halton(HaltonConfig(count=4))
        want = np.array(
            [[0.5, 1 / 3], [0.25, 2 / 3], [0.75, 1 / 9], [0.125, 4 / 9]]
        )
        np.testing.assert_allclose(ps.points, want, atol=1e-15)

    def test_default_config(self):
        assert HaltonConfig().count == 40000

    def test_points_in_open_unit_square(self):
        ps = halton(HaltonConfig(count=1000))
        assert np.all(ps.points > 0.0)
        assert np.all(ps.points < 1.0)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            HaltonConfig(count=0)


class TestPointSet:
    def test_coerces_to_float64(self):
        ps = PointSet([[0, 0], [1, 1]])
        assert ps.points.dtype == np.float64
        assert ps.n == 2

    @pytest.mark.parametrize(
        "bad",
        [np.zeros((3,)), np.zeros((2, 3)), [[0.5, -0.1]], [[1.5, 0.5]]],
    )
    def test_rejects_bad_shapes_and_ranges(self, bad):
        with pytest.raises(ValueError):
            PointSet(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_rejects_non_finite_coordinates(self, bad, at):
        pts = np.array([[0.5, 0.5], [0.2, 0.3]])
        pts[at] = bad
        with pytest.raises(ValueError, match="closed unit square"):
            PointSet(pts)


def l2_one(points):
    """The batch kernel on a single replicate."""
    return l2_discrepancy_sq_batch(np.asarray(points, dtype=np.float64)[np.newaxis])[0]


class TestPairwiseDiscrepancy:
    def test_corner_point_anchors(self):
        # single point at (1,1): the box never contains it, L2^2 = 1/9
        assert l2_one([[1.0, 1.0]]) == pytest.approx(1 / 9, abs=1e-15)
        # single point at the origin: always counted, L2^2 = 11/18
        assert l2_one([[0.0, 0.0]]) == pytest.approx(11 / 18, abs=1e-15)

    def test_single_interior_point(self):
        # direct integral for one point (a, b) evaluated by the loop oracle
        pts = np.array([[0.3, 0.7]])
        assert l2_one(pts) == pytest.approx(warnock_by_loops(pts), abs=1e-15)

    def test_matches_loop_oracle_random_sets(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            pts = rng.random((int(rng.integers(1, 20)), 2))
            got = l2_one(pts)
            want = warnock_by_loops(pts)
            assert got == pytest.approx(want, abs=1e-13)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        stack = rng.random((6, 12, 2))
        batch = l2_discrepancy_sq_batch(stack)
        scalar = np.array([l2_one(p) for p in stack])
        np.testing.assert_allclose(batch, scalar, atol=1e-14)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            l2_one(np.empty((0, 2)))


_EPS = np.finfo(np.float64).eps
_HALF = np.nextafter(0.5, [0.0, 1.0])
# 0, 1, 1 - ulp, the least subnormal, ties and values one ulp apart
_ADVERSARIAL_POOL = np.array([0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324, 0.5, *_HALF,
                              0.1, np.nextafter(0.1, 1.0), 0.9, np.nextafter(0.9, 0.0)])


def assert_within_exact(stack):
    """Each replicate of the kernel within n * eps of the exact identity."""
    n = stack.shape[1]
    for got, points in zip(l2_discrepancy_sq_batch(stack).tolist(), stack):
        assert abs(Fraction(got) - warnock_exact(points)) <= n * _EPS


class TestMinFormBits:
    """The min form of the pairwise factors, on which the sort-once kernel rests.

    The O(n^2) min-form oracle equals the max form bit for bit; the kernel is
    held to the exact identity within n * eps.
    """

    @pytest.mark.parametrize("r, n", [(1, 1), (1, 7), (50, 16), (9, 64), (3, 200)])
    def test_random_stacks(self, r, n):
        stack = np.random.default_rng(r * n).random((r, n, 2))
        assert warnock_batch_min_form(stack).tobytes() == warnock_batch_max_form(stack).tobytes()
        assert_within_exact(stack)

    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_adversarial_coordinates(self, n):
        stack = np.random.default_rng(n).choice(_ADVERSARIAL_POOL, size=(40, n, 2))
        assert warnock_batch_min_form(stack).tobytes() == warnock_batch_max_form(stack).tobytes()
        assert_within_exact(stack)

    @pytest.mark.parametrize("r, n, ties", [(7, 1, False), (40, 33, False), (25, 64, False), (4, 300, False),
                                             (30, 17, True)])
    def test_replicate_bits_independent_of_stack(self, r, n, ties):
        # each replicate alone, as a stack of one, against the whole stack
        rng = np.random.default_rng(n)
        stack = rng.choice(_ADVERSARIAL_POOL, size=(r, n, 2)) if ties else rng.random((r, n, 2))
        alone = np.concatenate([l2_discrepancy_sq_batch(stack[i:i + 1]) for i in range(r)])
        assert alone.tobytes() == l2_discrepancy_sq_batch(stack).tobytes()

    def test_input_left_unmodified(self):
        stack = np.random.default_rng(5).random((6, 12, 2))
        before = stack.copy()
        l2_discrepancy_sq_batch(stack)
        assert stack.tobytes() == before.tobytes()


class TestBruteForce:
    def test_matches_pairwise_on_random_sets(self):
        rng = np.random.default_rng(12345)
        for _ in range(5):
            pts = PointSet(rng.random((int(rng.integers(1, 33)), 2)))
            exact = l2_one(pts.points)
            approx = brute_force_l2_sq(pts, grid=1000)
            assert approx == pytest.approx(exact, abs=1e-3)

    def test_matches_slow_anchor_oracle(self):
        rng = np.random.default_rng(99)
        pts = rng.random((8, 2))
        fast = brute_force_l2_sq(PointSet(pts), grid=60)
        slow = l2_by_anchor_grid(pts, grid=60)
        assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 17, 32, 500, 3000])
    # 1013^2 is not a multiple of 8, and its reduction leaves split mid-row
    @pytest.mark.parametrize("grid", [10, 60, 1000, 1013])
    def test_equals_histogram_oracle(self, m, grid):
        pts = np.random.default_rng(m * grid).random((m, 2))
        assert brute_force_l2_sq(PointSet(pts), grid) == brute_force_by_histogram(pts, grid)

    @pytest.mark.parametrize("grid", [10, 60, 1000])
    def test_equals_histogram_oracle_on_edges(self, grid):
        # the corners, anchor midpoints (on a box edge, so outside it), and
        # repeated x ranks
        mids = (np.arange(grid) + 0.5) / grid
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0],
                        [mids[0], mids[-1]], [mids[3], mids[3]], [mids[3], 0.2], [mids[-1], mids[0]]])
        for points in (pts, pts[:1], pts[1:2], pts[4:]):
            assert brute_force_l2_sq(PointSet(points), grid) == brute_force_by_histogram(points, grid)

    def test_memory_bounded_at_grid_1000(self):
        # the full 1000 x 1000 deviation array alone would be 7.6 MiB; and
        # nothing outlives the call until a garbage collection
        pts = PointSet(np.random.default_rng(3).random((32, 2)))
        tracemalloc.start()
        try:
            brute_force_l2_sq(pts, grid=1000)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20
        assert current < 2**16

    def test_single_corner_point(self):
        val = brute_force_l2_sq(PointSet([[1.0, 1.0]]), grid=500)
        assert val == pytest.approx(1 / 9, abs=1e-3)

    def test_grid_validated(self):
        with pytest.raises(ValueError):
            brute_force_l2_sq(PointSet([[0.5, 0.5]]), grid=9)
