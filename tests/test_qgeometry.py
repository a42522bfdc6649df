"""Tests for clipped-box areas and per-cell overlap fractions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratdisc import (
    HaltonConfig,
    generating_set,
    halton,
    intersection_area_grid,
    overlap_vector,
    qgeometry,
    strip_integral_table,
)
from stratdisc.qgeometry import overlap_square_integrals

from oracles import (
    clipped_area_by_slices,
    intersection_area_by_temporaries,
    mean_square_overlap_per_strip,
    overlap_by_slices,
    overlap_fraction,
    overlap_square_integrals_by_overlap_vector,
    overlap_vector_by_all_cuts,
)

UNIT = st.floats(min_value=0.0, max_value=1.0)
CUT = st.floats(min_value=1e-9, max_value=2.0, exclude_max=True)


class TestIntersectionArea:
    @given(r=CUT, x=UNIT, y=UNIT)
    @settings(max_examples=500, deadline=None)
    def test_matches_slice_oracle(self, r, x, y):
        area = intersection_area_grid(r, x, y)
        oracle = clipped_area_by_slices(r, x, y)
        assert area == pytest.approx(oracle, abs=1e-12)

    @given(r=CUT, x=UNIT, y=UNIT)
    @settings(max_examples=300, deadline=None)
    def test_bounded_by_box(self, r, x, y):
        area = intersection_area_grid(r, x, y)
        assert 0.0 <= area <= x * y + 1e-15

    def test_degenerate_box(self):
        assert intersection_area_grid(0.5, 0.0, 0.7) == 0.0
        assert intersection_area_grid(0.5, 0.7, 0.0) == 0.0

    def test_whole_box_when_cut_below(self):
        # r tiny: nearly the whole box survives
        assert intersection_area_grid(1e-12, 1.0, 1.0) == pytest.approx(1.0, abs=1e-11)

    def test_points_exactly_on_the_line(self):
        # x + y = r exactly (dyadic values) must give exact zero for scalars and arrays
        assert intersection_area_grid(0.75, 0.25, 0.5) == 0.0
        assert intersection_area_grid(0.75, np.array([0.25]), np.array([0.5]))[0] == 0.0

    @given(x=UNIT, y=UNIT)
    @settings(max_examples=300, deadline=None)
    def test_last_cut_gives_positive_zero(self, x, y):
        # V(r_N) = V(2) is +0.0 on the closed square, so overlap_vector needs
        # no hand-set V(r_N) = 0
        area = intersection_area_grid(2.0, x, y)
        assert area == 0.0 and not np.signbit(area)

    def test_last_cut_gives_positive_zero_at_the_edges(self):
        below = np.nextafter(1.0, 0.0)
        for x, y in [(1.0, 1.0), (below, 1.0), (1.0, below), (below, below), (0.0, 0.0)]:
            assert_same_bits(intersection_area_grid(2.0, x, y), np.float64(0.0))
        c = edge_coordinates(16)
        area = intersection_area_grid(2.0, c[:, None], c[None, :])
        assert_same_bits(area, np.zeros_like(area))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def edge_coordinates(n):
    """0, 1, 1 - ulp, ties, cut midpoints and their neighbours one ulp apart."""
    cuts = generating_set(n).cuts[1:-1]
    half = cuts / 2.0
    base = np.concatenate([[0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324, 0.5, 0.5], half[half <= 1.0]])
    return np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, 1.0)]).clip(0.0, 1.0)


class TestKernelBits:
    """The in-place kernel against its fresh-array form, bit for bit."""

    def test_scalars(self):
        rng = np.random.default_rng(1)
        for r, x, y in rng.random((300, 3)) * [2.0, 1.0, 1.0]:
            got = intersection_area_grid(float(r), float(x), float(y))
            assert type(got) is np.float64
            assert_same_bits(got, intersection_area_by_temporaries(float(r), float(x), float(y)))

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 64])
    def test_adversarial_coordinates_every_shape(self, n):
        cuts = generating_set(n).cuts[1:-1]
        c = edge_coordinates(n)
        x, y = np.meshgrid(c, c, indexing="ij")
        x, y = x.ravel(), y.ravel()
        # scalar cut over arrays, as the QMC strip loop calls it
        for r in [*cuts, *np.nextafter(cuts, 0.0), *np.nextafter(cuts, 2.0)]:
            assert_same_bits(intersection_area_grid(r, x, y), intersection_area_by_temporaries(r, x, y))
        # every cut against a column of points, as the all-cut oracle calls it
        assert_same_bits(intersection_area_grid(cuts, x[:, None], y[:, None]),
                         intersection_area_by_temporaries(cuts, x[:, None], y[:, None]))
        # an outer grid of x and y, as the strip quadrature calls it
        for r in cuts:
            assert_same_bits(intersection_area_grid(r, c[:, None], c[None, :]),
                             intersection_area_by_temporaries(r, c[:, None], c[None, :]))
        # scalar point, array of cuts; and every point, scalar by scalar
        assert_same_bits(intersection_area_grid(cuts, 0.75, 0.5), intersection_area_by_temporaries(cuts, 0.75, 0.5))
        for xi, yi in zip(c, c[::-1]):
            assert_same_bits(intersection_area_grid(cuts[0], xi, yi),
                             intersection_area_by_temporaries(cuts[0], xi, yi))

    def test_random_broadcast_stacks(self):
        rng = np.random.default_rng(8)
        cuts = generating_set(33).cuts[1:-1]
        x, y = rng.random((2, 4, 50, 1))
        assert_same_bits(intersection_area_grid(cuts, x, y), intersection_area_by_temporaries(cuts, x, y))
        assert_same_bits(intersection_area_grid(cuts, x, 0.5), intersection_area_by_temporaries(cuts, x, 0.5))
        r = rng.random((4, 1, 7)) * 2.0
        assert_same_bits(intersection_area_grid(r, x, y), intersection_area_by_temporaries(r, x, y))

    def test_inputs_left_unmodified(self):
        rng = np.random.default_rng(3)
        r = rng.random(9) * 2.0
        x, y = rng.random((2, 40, 1))
        copies = [a.copy() for a in (r, x, y)]
        intersection_area_grid(r, x, y)
        intersection_area_grid(r[0], x, y)
        intersection_area_grid(r[0], x[:, 0], y[:, 0])
        for a, before in zip((r, x, y), copies):
            assert_same_bits(a, before)


class TestOverlapFraction:
    def test_worked_example_n4(self):
        # documented check at (0.4, 0.8) with four cells
        gs = generating_set(4)
        got = overlap_vector(gs, 0.4, 0.8)[:, 0]
        want = [0.8114, 0.3886, 0.08, 0.0]
        np.testing.assert_allclose(got, want, atol=5e-4)

    def test_support_is_exact_zero(self):
        gs = generating_set(8)
        # box corner below the cell's lower cut: exact 0.0, not merely tiny
        x, y = 0.3, 0.2
        q = overlap_vector(gs, x, y).ravel()
        for i in range(1, 9):
            if x + y <= gs.boundary(i - 1):
                assert q[i - 1] == 0.0

    @given(
        n=st.integers(min_value=2, max_value=24),
        x=UNIT,
        y=UNIT,
    )
    @settings(max_examples=200, deadline=None)
    def test_fractions_lie_in_unit_interval(self, n, x, y):
        for q in overlap_vector(generating_set(n), x, y).ravel():
            assert -1e-12 <= q <= 1.0 + 1e-12

    @given(
        n=st.integers(min_value=2, max_value=24),
        x=UNIT,
        y=UNIT,
    )
    @settings(max_examples=200, deadline=None)
    def test_telescoping_sum(self, n, x, y):
        total = math.fsum(overlap_vector(generating_set(n), x, y).ravel().tolist())
        assert total == pytest.approx(n * x * y, abs=1e-10)

    @given(x=UNIT, y=UNIT)
    @settings(max_examples=200, deadline=None)
    def test_matches_slice_oracle(self, x, y):
        gs = generating_set(6)
        q = overlap_vector(gs, x, y).ravel()
        for i in range(1, 7):
            got = q[i - 1]
            want = overlap_by_slices(gs.boundary(i - 1), gs.boundary(i), 6, x, y)
            assert got == pytest.approx(want, abs=1e-10)

    def test_index_out_of_range(self):
        gs = generating_set(4)
        with pytest.raises(ValueError):
            overlap_fraction(gs, 0, 0.5, 0.5)
        with pytest.raises(ValueError):
            overlap_fraction(gs, 5, 0.5, 0.5)


class TestOverlapVector:
    def test_matches_scalar_entries(self):
        gs = generating_set(9)
        vec = overlap_vector(gs, 0.37, 0.61).ravel()
        scalar = [overlap_fraction(gs, i, 0.37, 0.61) for i in range(1, 10)]
        np.testing.assert_array_equal(vec, np.array(scalar))

    @pytest.mark.parametrize("n", [4, 7, 16])
    def test_matches_per_cell_calls_on_halton_nodes(self, n):
        # one kernel call over all cuts, including the exact zeros past the
        # box's reach, equals evaluating each cell on its own
        gs = generating_set(n)
        for x, y in halton(HaltonConfig(count=100)).points:
            per_cell = [overlap_fraction(gs, i, x, y) for i in range(1, n + 1)]
            np.testing.assert_array_equal(overlap_vector(gs, x, y).ravel(), np.array(per_cell))

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_batch_equals_per_point_loop(self, n):
        # Halton points, the corners, points on every cut and one ulp off
        gs = generating_set(n)
        cuts = gs.cuts[1:-1] / 2.0
        x = np.concatenate([halton(HaltonConfig(count=200)).points[:, 0], [0.0, 1.0, 0.0, 1.0], cuts,
                            np.nextafter(cuts, 1.0)])
        y = np.concatenate([halton(HaltonConfig(count=200)).points[:, 1], [0.0, 1.0, 1.0, 0.0], cuts, cuts])
        batch = overlap_vector(gs, x, y).T
        assert batch.shape == (x.size, n)
        for j in range(x.size):
            np.testing.assert_array_equal(batch[j], overlap_vector(gs, x[j], y[j])[:, 0])
        # each strip its own three points: strip i's row holds entry i of theirs
        grid = overlap_vector(gs, x[:3 * n].reshape(n, 3), y[:3 * n].reshape(n, 3))
        np.testing.assert_array_equal(grid, batch[:3 * n].reshape(n, 3, n)[np.arange(n), :, np.arange(n)])
        np.testing.assert_array_equal(overlap_vector(gs, 0.37, y), overlap_vector(gs, np.full(y.size, 0.37), y))

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 64])
    def test_equals_all_cut_oracle_transposed(self, n):
        # bit for bit on the cut-edge grid: at scalars, at (M,) points that
        # every strip shares, and at each strip's own (N, K) points
        gs = generating_set(n)
        c = edge_coordinates(n)
        x, y = (a.ravel() for a in np.meshgrid(c, c, indexing="ij"))
        assert_same_bits(overlap_vector(gs, x, y), overlap_vector_by_all_cuts(gs, x, y).T)
        assert_same_bits(overlap_vector(gs, 0.37, y), overlap_vector_by_all_cuts(gs, 0.37, y).T)
        for xi, yi in zip(c, c[::-1]):
            assert_same_bits(overlap_vector(gs, xi, yi)[:, 0], overlap_vector_by_all_cuts(gs, xi, yi))
        x, y = x[:x.size // n * n].reshape(n, -1), y[:y.size // n * n].reshape(n, -1)
        dense = overlap_vector_by_all_cuts(gs, x, y)
        assert_same_bits(overlap_vector(gs, x, y), dense[np.arange(n), :, np.arange(n)])

    def test_grid_matches_scalar(self):
        # an array call of the per-strip oracle equals per-point calls
        gs = generating_set(5)
        rng = np.random.default_rng(77)
        x = rng.random(64)
        y = rng.random(64)
        for i in range(1, 6):
            grid = overlap_fraction(gs, i, x, y)
            scalar = np.array([overlap_fraction(gs, i, xi, yi) for xi, yi in zip(x, y)])
            np.testing.assert_array_equal(grid, scalar)

    def test_grid_index_out_of_range(self):
        gs = generating_set(4)
        with pytest.raises(ValueError):
            overlap_fraction(gs, 5, np.array([0.5]), np.array([0.5]))


class TestMeanSquareOverlap:
    """The exact integrals of q_i^2 that verify holds the closed-form strip integrals against."""

    def test_converges_to_closed_form(self):
        gs = generating_set(4)
        table = strip_integral_table(4)
        exact = overlap_square_integrals(gs)
        for i in range(1, 5):
            quad = mean_square_overlap_per_strip(gs, i, 1000)
            assert quad == pytest.approx(table[i - 1], abs=1e-6)
            # the exact integral is closer than the quadrature converging to it
            assert abs(exact[i - 1] - table[i - 1]) < abs(quad - table[i - 1])

    # grids 37, 1000 and 2000 end in a partial block of the oracle's rows;
    # n = 65 puts 32 cuts on each side of r = 1
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 16, 65])
    @pytest.mark.parametrize("grid", [10, 37, 1000, 2000])
    def test_equals_per_strip_quadrature(self, n, grid):
        # q_i is C^1, with |q_i| <= 1, 0 <= dq_i/dx <= N (r_i - r_{i-1})
        # <= sqrt(2N) and |d2q_i/dx2| <= N, so |d2(q_i^2)/dx2| <= 6N, and
        # likewise in y; the midpoint rule's error is then at most
        # h^2/24 (6N + 6N) = N h^2 / 2
        gs = generating_set(n)
        exact = overlap_square_integrals(gs)
        quads = [mean_square_overlap_per_strip(gs, i, grid) for i in range(1, n + 1)]
        for want, quad in zip(exact, quads):
            assert abs(quad - want) <= n / (2 * grid * grid)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_matches_closed_form_table(self, n):
        got = overlap_square_integrals(generating_set(n))
        assert got.shape == (n,)
        np.testing.assert_allclose(got, strip_integral_table(n), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [33, 64, 65, 256, 1024, 4096])
    def test_matches_closed_form_table_at_larger_n(self, n):
        # q_i = N (V(r_{i-1}) - V(r_i)) loses about N ulps to cancellation
        got = overlap_square_integrals(generating_set(n))
        np.testing.assert_allclose(got, strip_integral_table(n), rtol=n * 1e-15, atol=0)
        assert got[-1] == pytest.approx(1.0 / (15.0 * n), rel=n * 1e-15)

    @pytest.mark.parametrize("n", [*range(2, 130), 255, 256, 257, 500])
    def test_equals_dense_gather_oracle(self, n):
        # each strip's own two cuts give the entry i - 1 of the all-cut
        # oracle's output, bit for bit, with no O(N^2) work
        gs = generating_set(n)
        assert_same_bits(overlap_square_integrals(gs), overlap_square_integrals_by_overlap_vector(gs))

    def test_two_kernel_calls_at_the_strips_own_cuts(self, monkeypatch):
        # no all-cut O(N^2) path: one call at the lower cuts, one at the upper
        kernel = qgeometry.intersection_area_grid
        shapes = []

        def spy(r, x, y):
            shapes.append(np.shape(r))
            return kernel(r, x, y)

        monkeypatch.setattr(qgeometry, "intersection_area_grid", spy)
        assert overlap_square_integrals(generating_set(64)).shape == (64,)
        assert shapes == [(64, 1), (64, 1)]
