"""Tests for the diagonal partition geometry and the stratified samplers."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratdisc import cli, partition, streams
from stratdisc import (
    GeneratingSet,
    Grid,
    overlap_vector,
    sample_stratified_batch,
)
from stratdisc.partition import PARTITIONS

from oracles import cell_area, cell_of, cell_uniforms_by_advance, cell_uniforms_by_seed_sequence, jittered_baseline


class TestGeneratingSet:
    def test_n4_breakpoints(self):
        gs = GeneratingSet(4)
        want = [0.0, math.sqrt(0.5), 1.0, 2.0 - math.sqrt(0.5), 2.0]
        assert gs.cuts.tolist() == want

    def test_n6_breakpoints(self):
        gs = GeneratingSet(6)
        want = [
            0.0,
            math.sqrt(1.0 / 3.0),
            math.sqrt(2.0 / 3.0),
            1.0,
            2.0 - math.sqrt(2.0 / 3.0),
            2.0 - math.sqrt(1.0 / 3.0),
            2.0,
        ]
        assert gs.cuts.tolist() == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 10, 16, 33, 128])
    def test_mirror_symmetry_is_exact(self, n):
        cuts = GeneratingSet(n).cuts
        for i in range(n + 1):
            assert cuts[i] + cuts[n - i] == 2.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 2**20])
    def test_cut_endpoints_are_exact(self, n):
        cuts = GeneratingSet(n).cuts
        assert cuts.shape == (n + 1,) and cuts.dtype == np.float64
        assert cuts[0] == 0.0 and cuts[-1] == 2.0

    @pytest.mark.parametrize("n", [*range(2, 301), 4097])
    def test_cuts_are_the_offset_formula(self, n):
        want = partition._offset_below(np.arange(n + 1), n)
        assert GeneratingSet(n).cuts.tobytes() == want.tobytes()

    def test_cuts_are_read_only(self):
        gs = GeneratingSet(4)
        with pytest.raises(ValueError, match="read-only"):
            gs.cuts[1] = 0.5

    def test_sets_with_equal_n_are_equal(self):
        # n alone fixes the partition
        assert GeneratingSet(4) == GeneratingSet(4)
        assert hash(GeneratingSet(4)) == hash(GeneratingSet(4))
        assert len({GeneratingSet(4), GeneratingSet(4), GeneratingSet(5)}) == 2
        assert GeneratingSet(4) != GeneratingSet(5)
        assert repr(GeneratingSet(4)) == "GeneratingSet(n=4)"

    @pytest.mark.parametrize("n", [np.int64(4), np.uint8(4), 4.0, np.float64(4.0)],
                             ids=["int64", "uint8", "float", "float64"])
    def test_integral_n_is_stored_as_int(self, n):
        gs = GeneratingSet(n)
        assert type(gs.n) is int and gs.n == 4
        assert gs == GeneratingSet(4)
        assert gs.cuts.tobytes() == GeneratingSet(4).cuts.tobytes()
        # count, seed and start of the same type are read as the same ints
        assert gs.sample(n - 1, n, start=n - 2).tobytes() == GeneratingSet(4).sample(3, 4, start=2).tobytes()

    @pytest.mark.parametrize(
        "n",
        [4.5, np.float64(2.25), math.nan, math.inf, "4", None,
         np.array([0.0, 0.5, 2.0]), np.array([0.0, 1.0, 2.0]), np.array([4]), np.array([])],
        ids=["4.5", "float64-2.25", "nan", "inf", "str", "None",
             "cuts-uneven", "cuts-n2", "one-element-array", "empty-array"],
    )
    def test_non_integral_n_rejected(self, n):
        # a partition is built from n only: hand-built cut arrays are refused too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n must be an integer"):
                GeneratingSet(n)

    @pytest.mark.parametrize("n", [2, 5, 33])
    def test_boundary_reads_the_cuts(self, n):
        gs = GeneratingSet(n)
        assert gs.n == n
        assert [gs.boundary(i) for i in range(n + 1)] == gs.cuts.tolist()

    @pytest.mark.parametrize("n", [2, 4, 6, 100])
    def test_even_n_has_midpoint_one(self, n):
        assert GeneratingSet(n).boundary(n // 2) == 1.0

    @pytest.mark.parametrize("n", [3, 5, 7, 99])
    def test_odd_n_skips_one(self, n):
        assert 1.0 not in GeneratingSet(n).cuts.tolist()

    def test_strictly_increasing(self):
        assert np.all(np.diff(GeneratingSet(50).cuts) > 0.0)

    def test_boundary_extremes(self):
        gs = GeneratingSet(5)
        assert gs.boundary(0) == 0.0
        assert gs.boundary(5) == 2.0
        assert gs.boundary(2.0) == gs.boundary(np.int64(2)) == gs.boundary(2)
        with pytest.raises(ValueError, match="i must be an integer, got i=2.5"):
            gs.boundary(2.5)

    @pytest.mark.parametrize("i", [-1, -6, 6, 100])
    def test_boundary_rejects_out_of_range_index(self, i):
        with pytest.raises(ValueError, match="cut index must be in 0..5"):
            GeneratingSet(5).boundary(i)

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_cells_rejected(self, n):
        with pytest.raises(ValueError, match=f"need n >= 2, got n={n}"):
            GeneratingSet(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 17, 64])
    def test_cells_have_equal_area(self, n):
        gs = GeneratingSet(n)
        for i in range(1, n + 1):
            assert cell_area(gs, i) == pytest.approx(1.0 / n, abs=1e-15)

    def test_cell_area_index_range(self):
        gs = GeneratingSet(4)
        with pytest.raises(ValueError):
            cell_area(gs, 0)
        with pytest.raises(ValueError):
            cell_area(gs, 5)


class TestCellOf:
    def test_center_point_n6(self):
        assert cell_of(GeneratingSet(6), 0.5, 0.5) == 4

    def test_origin_in_first_cell(self):
        assert cell_of(GeneratingSet(8), 0.0, 0.0) == 1

    def test_far_corner_in_last_cell(self):
        assert cell_of(GeneratingSet(8), 1.0, 1.0) == 8

    def test_boundary_points_round_up(self):
        # strips are closed below: a point exactly on r_i starts cell i+1
        gs = GeneratingSet(4)
        r1 = gs.cuts[1]
        x = y = r1 / 2.0
        if x + y == r1:
            assert cell_of(gs, x, y) == 2
        assert cell_of(gs, 0.5, 0.5) == 3  # x+y = 1 = r_2 exactly

    @given(
        n=st.integers(min_value=2, max_value=40),
        x=st.floats(min_value=0.0, max_value=1.0),
        y=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_cell_brackets_its_point(self, n, x, y):
        gs = GeneratingSet(n)
        i = cell_of(gs, x, y)
        assert 1 <= i <= n
        assert gs.boundary(i - 1) <= x + y
        if i < n:
            assert x + y < gs.boundary(i)

    @pytest.mark.parametrize("x,y", [(-0.1, 0.5), (0.5, 1.5), (2.0, 2.0)])
    def test_rejects_outside_unit_square(self, x, y):
        with pytest.raises(ValueError, match="outside the unit square"):
            cell_of(GeneratingSet(4), x, y)

    def test_corners_allowed(self):
        gs = GeneratingSet(4)
        assert cell_of(gs, 0.0, 0.0) == 1
        assert cell_of(gs, 1.0, 1.0) == 4


class TestStratifiedSampler:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 50])
    def test_each_point_lands_in_its_cell(self, n):
        gs = GeneratingSet(n)
        points = gs.sample(1, seed=5)[0]
        assert points.shape == (n, 2)
        for c, (x, y) in enumerate(points.tolist(), start=1):
            assert cell_of(gs, x, y) == c

    def test_same_seed_same_points(self):
        gs = GeneratingSet(6)
        a = sample_stratified_batch(gs, 1, seed=11)
        b = sample_stratified_batch(gs, 1, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_points(self):
        gs = GeneratingSet(6)
        a = sample_stratified_batch(gs, 1, seed=11)
        b = sample_stratified_batch(gs, 1, seed=12)
        assert not np.array_equal(a, b)

    def test_batch_shape(self):
        gs = GeneratingSet(5)
        pts = sample_stratified_batch(gs, 7, seed=0)
        assert pts.shape == (7, 5, 2)

    def test_batch_prefix_property(self):
        # the first replicate must not depend on how many were requested
        gs = GeneratingSet(8)
        one = sample_stratified_batch(gs, 1, seed=3)
        many = sample_stratified_batch(gs, 50, seed=3)
        np.testing.assert_array_equal(one[0], many[0])

    def test_batch_points_in_cells(self):
        for n in (3, 10, 101, 4096):
            gs = GeneratingSet(n)
            pts = sample_stratified_batch(gs, 200, seed=9)
            assert np.all((pts >= 0.0) & (pts <= 1.0)), n
            s = pts[..., 0] + pts[..., 1]
            lo = np.array([gs.boundary(i) for i in range(n)])
            hi = np.array([gs.boundary(i) for i in range(1, n + 1)])
            assert np.all((s >= lo) & (s < hi)), n

    @pytest.mark.parametrize("n", [4, 5])
    def test_box_shares_follow_the_uniform_law(self, n):
        # the share of cell-i points in [0,x] x [0,y] estimates q_i(x, y);
        # n = 5 has a middle strip straddling the anti-diagonal
        gs = GeneratingSet(n)
        reps = 200_000
        pts = sample_stratified_batch(gs, reps, seed=21)
        for x, y in [(0.3, 0.8), (0.5, 0.5), (0.7, 0.4), (0.9, 0.9), (1.0, 0.6), (0.6, 1.0)]:
            inside = np.mean((pts[..., 0] <= x) & (pts[..., 1] <= y), axis=0)
            for i, q in enumerate(overlap_vector(gs, x, y)[:, 0].tolist(), start=1):
                if min(q, 1.0 - q) < 1e-12:  # the box misses or holds the whole cell
                    assert inside[i - 1] == round(q)
                else:
                    z = (inside[i - 1] - q) / math.sqrt(q * (1.0 - q) / reps)
                    assert abs(z) <= 5.0, (x, y, i, z)

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 4096])
    def test_rounding_edge_uniforms_stay_in_their_cell(self, n, monkeypatch):
        # u0 = 1 - 2**-53 makes (i-1) + u0 round to i for large i; the
        # offset must still land below r_i
        top = 1.0 - 2.0**-53
        edges = np.array([[u0, u1] for u0 in (0.0, top) for u1 in (0.0, 0.5, top)])

        def edge_uniforms(seed, stream, n, count, start=0):
            return np.broadcast_to(edges[:, None, :], (count, n, 2))

        monkeypatch.setattr(streams, "cell_uniforms", edge_uniforms)
        gs = GeneratingSet(n)
        pts = sample_stratified_batch(gs, len(edges), seed=0)
        for row in pts.tolist():
            assert [cell_of(gs, x, y) for x, y in row] == list(range(1, n + 1))

class TestReferenceSamplers:
    def test_vertical_points_in_strips(self):
        pts = PARTITIONS["vertical"](8).sample(100, seed=4)
        for i in range(1, 9):
            col = pts[:, i - 1, 0]
            assert np.all((col >= (i - 1) / 8.0) & (col < i / 8.0))
        assert np.all((pts[..., 1] >= 0.0) & (pts[..., 1] < 1.0))

    def test_jittered_points_in_subsquares(self):
        m = 3
        pts = PARTITIONS["jittered"](m * m).sample(50, seed=6)
        assert pts.shape == (50, 9, 2)
        for k in range(1, 10):
            a, b = divmod(k - 1, m)
            assert np.all((pts[:, k - 1, 0] >= a / m) & (pts[:, k - 1, 0] < (a + 1) / m))
            assert np.all((pts[:, k - 1, 1] >= b / m) & (pts[:, k - 1, 1] < (b + 1) / m))

    def test_jittered_prefix_property(self):
        one = PARTITIONS["jittered"](9).sample(1, seed=14)
        many = PARTITIONS["jittered"](9).sample(20, seed=14)
        np.testing.assert_array_equal(one[0], many[0])

    def test_vertical_prefix_property(self):
        one = PARTITIONS["vertical"](6).sample(1, seed=14)
        many = PARTITIONS["vertical"](6).sample(20, seed=14)
        np.testing.assert_array_equal(one[0], many[0])

    def test_stream_separation(self):
        # same seed, different partition kinds: distinct streams
        diag = PARTITIONS["diagonal"](4).sample(1, seed=0)
        vert = PARTITIONS["vertical"](4).sample(1, seed=0)
        jitt = PARTITIONS["jittered"](4).sample(1, seed=0)
        assert not np.array_equal(diag, vert)
        assert not np.array_equal(vert, jitt)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_vertical_rejects_bad_n(self, bad):
        with pytest.raises(ValueError, match=f"need cols >= 1, got cols={bad}"):
            PARTITIONS["vertical"](bad)

    @pytest.mark.parametrize("bad", [0, -2, 8])
    def test_jittered_rejects_bad_m(self, bad):
        with pytest.raises(ValueError, match=f"need n >= 1, got n={bad}|square point count"):
            PARTITIONS["jittered"](bad)

    @pytest.mark.parametrize("kind", ["vertical", "jittered"])
    def test_grid_kinds_take_n_by_the_integer_rule(self, kind):
        for bad in (2.5, math.nan, "9"):
            with pytest.raises(ValueError, match="must be an integer"):
                PARTITIONS[kind](bad)
        assert PARTITIONS[kind](9.0) == PARTITIONS[kind](np.int64(9)) == PARTITIONS[kind](9)


class TestSamplePartition:
    def test_dispatches_to_the_batch_samplers(self):
        assert PARTITIONS["diagonal"](6) == GeneratingSet(6)
        np.testing.assert_array_equal(
            PARTITIONS["diagonal"](6).sample(5, seed=3), sample_stratified_batch(GeneratingSet(6), 5, seed=3)
        )
        # vertical: the 6 x 1 grid on stream 1; jittered: the 3 x 3 grid on stream 2, x-major
        assert (PARTITIONS["vertical"](6), PARTITIONS["jittered"](9)) == (Grid(6, 1), Grid(3, 3))
        u = streams.cell_uniforms(3, 1, 6, 5)
        want = np.stack([(np.arange(6) + u[..., 0]) / 6, u[..., 1]], axis=-1)
        assert PARTITIONS["vertical"](6).sample(5, seed=3).tobytes() == want.tobytes()
        a, b = np.divmod(np.arange(9), 3)
        u = streams.cell_uniforms(3, 2, 9, 5)
        want = np.stack([(a + u[..., 0]) / 3, (b + u[..., 1]) / 3], axis=-1)
        assert PARTITIONS["jittered"](9).sample(5, seed=3).tobytes() == want.tobytes()

    def test_unknown_kind_rejected(self, capsys):
        # a kind is a name only on the command line, whose parser refuses any other
        assert "hexagonal" not in PARTITIONS
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--n", "4", "--partition", "hexagonal"])
        assert exc.value.code == 2
        assert "invalid choice: 'hexagonal'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, n", [("diagonal", 7), ("diagonal", 64), ("vertical", 6), ("jittered", 9)]
    )
    @pytest.mark.parametrize("a, b", [(0, 1), (0, 40), (5, 6), (13, 40), (39, 40)])
    def test_row_offset_reads_the_same_rows(self, kind, n, a, b):
        full = PARTITIONS[kind](n).sample(40, seed=17)
        part = PARTITIONS[kind](n).sample(b - a, 17, start=a)
        assert part.tobytes() == full[a:b].tobytes()

    def test_negative_row_offset_rejected(self):
        with pytest.raises(ValueError, match="need start >= 0, got start=-1"):
            PARTITIONS["vertical"](4).sample(1, seed=0, start=-1)


def _grid_expectation_by_boxes(cols, rows):
    """E[L2^2] of the cols x rows grid in exact arithmetic, from the box shares.

    Box (a, b) holds q = f_a(x) g_b(y) of [0,x] x [0,y], f_a(x) = clamp(cols x - a, 0, 1),
    whose integral is 1 - (a + 1)/cols + 1/(2 cols) and that of its square
    1 - (a + 1)/cols + 1/(3 cols); E = (1/N^2) sum of the integrals of q - q^2.
    """

    def moments(m):
        return (
            sum(1 - Fraction(a + 1, m) + Fraction(1, 2 * m) for a in range(m)),
            sum(1 - Fraction(a + 1, m) + Fraction(1, 3 * m) for a in range(m)),
        )

    (f1, f2), (g1, g2) = moments(cols), moments(rows)
    n = cols * rows
    return (f1 * g1 - f2 * g2) / (n * n)


class TestGrid:
    def test_expected_value_is_the_rounded_box_integral(self):
        shapes = [(c, r) for c in range(1, 13) for r in range(1, 13)]
        shapes += [(2**14, 1), (1, 2**14), (1000, 999), (2**12, 2**12), (3, 2**13 + 1)]
        for cols, rows in shapes:
            assert Grid(cols, rows).expected_l2_sq() == float(_grid_expectation_by_boxes(cols, rows)), (cols, rows)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 16, 64, 255, 1024])
    def test_square_grid_is_the_jittered_closed_form(self, m):
        got = Grid(m, m).expected_l2_sq()
        assert got == float(Fraction(6 * m - 1, 36 * m**4))
        assert got == pytest.approx(jittered_baseline(m), rel=1e-12, abs=0.0)

    def test_vertical_strips_are_the_float_formula(self):
        # (3n + 2) and 36 n^2 are exact in float64 up to n = 2^23, so the
        # float formula is the rounded fraction there, bit for bit
        ns = [*range(1, 2**14 + 1), 10**5 + 3, 10**6, 3 * 2**20 + 1, 2**23 - 1, 2**23]
        got = np.array([Grid(n, 1).expected_l2_sq() for n in ns])
        n = np.array(ns, dtype=np.float64)
        assert got.tobytes() == ((3.0 * n + 2.0) / (36.0 * n * n)).tobytes()

    @pytest.mark.parametrize("cols, rows", [(0, 1), (1, 0), (-1, 4), (4, -2)])
    def test_rejects_an_empty_side(self, cols, rows):
        with pytest.raises(ValueError, match=f"need cols >= 1, got cols={cols}" if cols < 1
                           else f"need rows >= 1, got rows={rows}"):
            Grid(cols, rows)

    def test_cell_count_is_the_product(self):
        assert Grid(5, 3).n == 15
        assert Grid(2**32 - 1, 1).n == partition.MAX_CELLS

    @pytest.mark.parametrize("side", ["cols", "rows"])
    @pytest.mark.parametrize("bad", [2.5, np.float64(0.5), math.nan, math.inf, "4", None],
                             ids=["2.5", "float64-0.5", "nan", "inf", "str", "None"])
    def test_non_integral_side_rejected(self, side, bad):
        with pytest.raises(ValueError, match=f"{side} must be an integer, got {side}="):
            Grid(**{"cols": 4, "rows": 4, side: bad})

    def test_integral_sides_stored_as_int(self):
        grid = Grid(4.0, np.int64(2))
        assert (type(grid.cols), type(grid.rows), type(grid.n)) == (int, int, int)
        assert grid == Grid(4, 2)
        assert grid.sample(3, 5).tobytes() == Grid(4, 2).sample(3, 5).tobytes()
        for count, seed, start in [(np.int64(3), np.int64(5), np.int64(1)), (3.0, 5.0, 1.0)]:
            assert grid.sample(count, seed, start).tobytes() == Grid(4, 2).sample(3, 5, 1).tobytes()

    @pytest.mark.parametrize("cols, rows", [(5, 1), (1, 5), (3, 3), (2, 8), (8, 2)])
    def test_one_row_draws_tag_1_and_any_other_grid_tag_2(self, cols, rows):
        n = cols * rows
        u = streams.cell_uniforms(7, 1 if rows == 1 else 2, n, 3, 2)
        a, b = np.divmod(np.arange(n), rows)
        want = np.stack([(a + u[..., 0]) / cols, (b + u[..., 1]) / rows], axis=-1)
        assert Grid(cols, rows).sample(3, 7, start=2).tobytes() == want.tobytes()

    def test_one_box_is_the_same_grid_for_both_kinds(self):
        # jittered at n = 1 is Grid(1, 1), a grid of one row: it draws tag 1, as vertical does
        assert PARTITIONS["jittered"](1) == PARTITIONS["vertical"](1) == Grid(1, 1)

    @pytest.mark.parametrize("make", [
        lambda: GeneratingSet(2**1024),
        lambda: Grid(2**1024, 1),
        lambda: Grid(1, 2**1024),
    ], ids=["diagonal", "vertical", "column"])
    def test_cell_count_past_the_float_range_refused_as_an_int(self, make):
        # 2^1024 has no float64: the integer rule must not convert it
        with pytest.raises(ValueError, match=f"cell index {2**1024} does not fit the 32-bit spawn key word"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: GeneratingSet(2**32),
        lambda: Grid(2**32, 1),
        lambda: Grid(2**16, 2**16),
        lambda: PARTITIONS["jittered"](2**32),
    ], ids=["diagonal", "vertical", "grid", "jittered"])
    def test_cell_count_past_the_spawn_key_refused_before_allocating(self, make):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cell index 4294967296 does not fit the 32-bit spawn key word"):
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSeedWords:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 1, 2**200 + 99])
    @pytest.mark.parametrize("stream", [0, 1, 2, partition.STREAM_CHECKS])
    @pytest.mark.parametrize("start", [0, 1, 1023])
    def test_streams_equal_the_seed_sequence_draw(self, seed, stream, start):
        u = streams.cell_uniforms(seed, stream, 4096, 3, start)
        for i in (1, 2, 2048, 4096):
            want = cell_uniforms_by_seed_sequence(seed, stream, i, 3, start)
            assert u[:, i - 1].tobytes() == want.tobytes(), i

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 2, 4096])
    @pytest.mark.parametrize("start", [0, 1, 2**40 + 3])
    @pytest.mark.parametrize("edge", ["one", "tile-1", "tile", "tile+1", "3tile+5"])
    def test_streams_across_tile_edges_and_far_offsets(self, n, start, edge):
        # a tile of the (output, cell) grid holds `tile` sample rows at this n
        tile = max(2, streams._TILE // n & ~1) // 2
        count = {"one": 1, "tile-1": tile - 1, "tile": tile, "tile+1": tile + 1, "3tile+5": 3 * tile + 5}[edge]
        u = streams.cell_uniforms(7, 2, n, count, start)
        assert u.shape == (count, n, 2)
        for i in sorted({1, n // 2 + 1, n}):
            want = cell_uniforms_by_advance(7, 2, i, count, start)
            assert u[:, i - 1].tobytes() == want.tobytes(), i

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tile", [1, 2, 4, 6])
    @pytest.mark.parametrize("n, count, start", [(1, 5, 0), (2, 5, 1), (7, 3, 2**40 + 3), (9, 4, 1), (16, 1, 0)])
    def test_small_tiles_split_rows_and_cells(self, tile, n, count, start, monkeypatch):
        # tiles of a few outputs and cells cross both tile edges many times
        monkeypatch.setattr(streams, "_TILE", tile)
        u = streams.cell_uniforms(3, 0, n, count, start)
        want = np.stack([cell_uniforms_by_advance(3, 0, i, count, start) for i in range(1, n + 1)], axis=1)
        assert u.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cast", [np.int64, float], ids=["int64", "float"])
    def test_integral_seed_count_and_start_read_as_ints(self, cast):
        # drawn first: a draw at the int seed would fill the cache of the seed's words
        got = streams.cell_uniforms(cast(2**40 + 3), 1, 5, cast(3), cast(7))
        assert got.tobytes() == streams.cell_uniforms(2**40 + 3, 1, 5, 3, 7).tobytes()

    @pytest.mark.parametrize("args, message", [
        ((2.5, 0, 4, 1, 0), "seed must be an integer, got seed=2.5"),
        ((1, 0, 4, 2.5, 0), "count must be an integer, got count=2.5"),
        ((1, 0, 4, 1, 2.5), "start must be an integer, got start=2.5"),
        ((1, 0, 4, -1, 0), "need count >= 0, got count=-1"),
    ], ids=["fractional-seed", "fractional-count", "fractional-start", "negative-count"])
    def test_bad_seed_count_or_start_refused(self, args, message):
        with pytest.raises(ValueError, match=message):
            streams.cell_uniforms(*args)

    def test_empty_draws(self):
        assert streams.cell_uniforms(1, 0, 4, 0).shape == (0, 4, 2)
        assert streams.cell_uniforms(1, 0, 0, 3).shape == (3, 0, 2)

    def test_cell_index_past_32_bits_rejected(self):
        with pytest.raises(ValueError, match="32-bit"):
            streams._seed_words(0, 0, 2**32)
        with pytest.raises(ValueError, match="32-bit"):
            streams.cell_uniforms(0, 1, 2**32, 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="need seed >= 0, got seed=-1"):
            streams._seed_words(-1, 0, 4)

