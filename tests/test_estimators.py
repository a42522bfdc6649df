"""Tests for the QMC and MC estimators and the closed-form baselines."""

from __future__ import annotations

import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratdisc import estimators
from stratdisc import (
    DiscrepancyEstimate,
    HaltonConfig,
    PointSet,
    expected_l2_sq_exact,
    expected_l2_sq_mc,
    expected_l2_sq_qmc,
    generating_set,
    halton,
    l2_discrepancy_sq_batch,
    random_baseline,
    ratio_to_random,
    sample_partition,
    vertical_baseline,
)

from oracles import jittered_baseline, mc_moments_by_list, overlap_fraction


def _per_strip_value(n, nodes):
    """The QMC estimate with every strip's overlap fraction recomputed on every node."""
    x = nodes.points[:, 0]
    y = nodes.points[:, 1]
    gs = generating_set(n)
    acc = np.zeros_like(x)
    for i in range(1, n + 1):
        q = overlap_fraction(gs, i, x, y)
        acc += q * (1.0 - q)
    return math.fsum(acc.tolist()) / (nodes.n * n * n)


def _cut_nodes(n):
    """Nodes with x + y == r_i exactly in float64, several on every cut, and their neighbours."""
    points = []
    for r in generating_set(n).cuts[1:-1].tolist():
        on_cut = [
            (x, r - x)
            for x in (0.0, r / 2.0, 1.0, 0.1, 0.3, 0.7)
            if x <= r and r - x <= 1.0 and x + (r - x) == r
        ]
        assert len(on_cut) >= 2
        for x, y in on_cut:
            points += [(x, y), (x, np.nextafter(y, 0.0)), (x, min(1.0, np.nextafter(y, 2.0)))]
    return np.array(points)


def _boundary_nodes():
    """Nodes on the axes and the top and right edges, the four corners included."""
    t = np.array([0.0, 1e-300, 0.25, 0.5, 0.75, 1.0])
    zero, one = np.zeros_like(t), np.ones_like(t)
    return np.vstack([np.column_stack(pair) for pair in ((t, zero), (zero, t), (t, one), (one, t))])


class TestDiscrepancyEstimate:
    def test_std_error_only_for_mc(self, halton_nodes):
        est = expected_l2_sq_mc(4, 100, seed=5)
        assert math.isfinite(est.std_error) and est.std_error > 0.0
        assert expected_l2_sq_exact(6).std_error is None
        assert expected_l2_sq_qmc(4, halton_nodes).std_error is None

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            DiscrepancyEstimate(value=-0.1)


class TestQmcEstimator:
    def test_default_nodes_reproduce_reference_value(self):
        est = expected_l2_sq_qmc(4)
        assert est.value == pytest.approx(0.0203506, abs=1e-6)
        # the node set of `stratdisc table`, bit for bit against recomputing every strip
        nodes = halton(HaltonConfig())
        for n in (4, 64, 128):
            assert expected_l2_sq_qmc(n).value == _per_strip_value(n, nodes)

    def test_close_to_exact(self, halton_nodes):
        for n in (2, 4, 10, 32):
            exact = expected_l2_sq_exact(n).value
            qmc = expected_l2_sq_qmc(n, halton_nodes).value
            assert qmc == pytest.approx(exact, rel=1e-3)

    def test_strip_carry_equals_per_strip_loop(self, halton_nodes):
        # the estimator reuses each cut's clipped area; recomputing every
        # strip independently must give bitwise-identical numbers
        nodes = halton(HaltonConfig(count=1000))
        x = nodes.points[:, 0]
        y = nodes.points[:, 1]
        for n in (4, 7):
            gs = generating_set(n)
            acc = np.zeros_like(x)
            for i in range(1, n + 1):
                q = overlap_fraction(gs, i, x, y)
                acc += q * (1.0 - q)
            value = math.fsum(acc.tolist()) / (nodes.n * n * n)
            assert expected_l2_sq_qmc(n, nodes).value == value

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 16, 64, 128, 129])
    def test_edge_nodes_equal_per_strip_loop(self, n):
        # nodes exactly on a cut, on the axes, at the corners, and repeated:
        # skipping the nodes that do not reach a cut, and the edge terms at
        # cuts r >= 1 (r = 1 itself for even n), must change no bit
        nodes = PointSet(np.vstack([halton(HaltonConfig(count=300)).points, _cut_nodes(n), _boundary_nodes()]))
        nodes = PointSet(np.vstack([nodes.points, nodes.points[::7]]))
        assert expected_l2_sq_qmc(n, nodes).value == _per_strip_value(n, nodes)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("which", ["cuts", "origin"])
    def test_degenerate_node_sets_equal_per_strip_loop(self, n, which):
        nodes = PointSet({"cuts": _cut_nodes(n), "origin": [[0.0, 0.0]]}[which])
        assert expected_l2_sq_qmc(n, nodes).value == _per_strip_value(n, nodes)

    def test_node_order_does_not_matter(self, halton_nodes):
        shuffled = PointSet(np.random.default_rng(0).permutation(halton_nodes.points))
        for n in (4, 7, 64):
            assert expected_l2_sq_qmc(n, shuffled).value == expected_l2_sq_qmc(n, halton_nodes).value

    def test_kernel_sees_only_nodes_past_each_cut(self, halton_nodes, monkeypatch):
        elements = 0
        clip = estimators._clip_area

        def counting(g, r, edges):
            nonlocal elements
            elements += g.size
            return clip(g, r, edges)

        monkeypatch.setattr(estimators, "_clip_area", counting)
        n, m = 64, halton_nodes.n
        expected_l2_sq_qmc(n, halton_nodes)
        s = halton_nodes.points[:, 0] + halton_nodes.points[:, 1]
        assert elements == sum(int(np.count_nonzero(s > r)) for r in generating_set(n).cuts[1:-1])
        assert elements <= 0.55 * (n - 1) * m

    @pytest.mark.parametrize("n", range(2, 129))
    def test_corner_node_gives_zero(self, n):
        # at (1, 1) every q_i is 1 in exact arithmetic, so the value is 0;
        # a total rounded below zero is floored, one rounded above stays
        value = expected_l2_sq_qmc(n, PointSet([[1.0, 1.0]])).value
        assert 0.0 <= value <= 1e-16

    def test_works_for_odd_n(self):
        nodes = halton(HaltonConfig(count=2000))
        est = expected_l2_sq_qmc(5, nodes)
        # between the even neighbors, by interlacing of the expectations
        assert expected_l2_sq_qmc(6, nodes).value < est.value < expected_l2_sq_qmc(4, nodes).value

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            expected_l2_sq_qmc(1)


def _sum_outcome(total, blocks):
    """What total(blocks) gives: ("value", repr) or ("nan",) or the exception type.

    repr keeps the sign bit, so fsum's +0.0 for a sum of -0.0 is held too.
    """
    try:
        value = total(blocks)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return ("nan",) if math.isnan(value) else ("value", repr(value))


def _fsum_of_blocks(blocks):
    return math.fsum(itertools.chain.from_iterable(blocks))


# a block is a handful of floats, tiled to a length that takes the fsum path
# (short) or the extraction path (at least _FSUM_BELOW values)
_BLOCK_VALUES = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12)
_BLOCKS = st.lists(
    st.tuples(_BLOCK_VALUES, st.sampled_from([0, 1024, 1500, 4096])), max_size=4
).map(lambda drawn: [np.resize(np.array(values, dtype=np.float64), max(len(values), size) if values else 0)
                     for values, size in drawn])


def _tiled(*blocks, size=1024):
    """Each block as a short list and again tiled to size values."""
    return [list(block) for block in blocks] + [np.resize(np.array(block, dtype=np.float64), size) for block in blocks]


TINY = 5e-324
WIDE = [np.random.default_rng(k).standard_normal(1024) * 10.0 ** np.arange(-200, 200, 400 / 1024) for k in range(40)]
HUGE = np.nextafter(2.0**960, 0.0)


class TestExactSum:
    """estimators._exact_sum is math.fsum over the chained blocks, bit for bit."""

    @given(_BLOCKS)
    @settings(max_examples=300, deadline=None)
    @example([np.array([1e16, 1.0, -1e16])])
    @example([np.array([-0.0])])
    @example([])
    def test_equals_fsum(self, blocks):
        assert _sum_outcome(estimators._exact_sum, blocks) == _sum_outcome(_fsum_of_blocks, blocks)

    @pytest.mark.parametrize("blocks", [
        [],
        [[]],
        [[0.3]],
        [[-0.0]],
        [[-0.0], np.full(2000, -0.0)],
        [[0.0, -0.0]],
        _tiled([1e16, 1.0, -1e16]),
        _tiled([1e308, -1e308, 1e-308]),
        _tiled([1e308, 1e-300, -1e308, -1e-300]),
        _tiled([TINY, 3 * TINY, -TINY, 2.0**-1022]),
        _tiled([2.0**-1022 - TINY, TINY]),
        _tiled([HUGE, -HUGE / 3, 1e-300, TINY]),
        _tiled([HUGE, HUGE / 2]),
        _tiled([1.0, 1e-30], [1e30, -1e-30], [2.0**-1060, 1e-320], size=4096),
        [np.linspace(-1.0, 1.0, 4097) * 10.0 ** np.arange(-150, 150, 300 / 4097)],
        [np.random.default_rng(5).standard_normal(40000) * 10.0 ** np.random.default_rng(6).integers(-30, 30, 40000)],
        # dozens of extraction levels a block, so the collected level sums are
        # peeled down to a few floats several times, then cancelled exactly
        [*WIDE, *(-block for block in WIDE), [1e-300]],
    ], ids=lambda blocks: f"{len(blocks)}-blocks")
    def test_adversarial_blocks(self, blocks):
        assert _sum_outcome(estimators._exact_sum, blocks) == _sum_outcome(_fsum_of_blocks, blocks)

    @pytest.mark.parametrize("size", [1, 1024])
    @pytest.mark.parametrize("values, outcome", [
        ([math.inf, 1.0], ("value", "inf")),
        ([-math.inf, 1.0], ("value", "-inf")),
        ([math.inf, -math.inf], ValueError),
        ([math.nan, 1.0], ("nan",)),
        ([math.nan, math.inf], ("nan",)),
        ([1e308, 1e308], OverflowError),
        ([1e308, 1e308, -1e308], OverflowError),
    ])
    def test_non_finite_and_overflow_as_fsum(self, values, size, outcome):
        # the non-finite values come after a block that the exact path has
        # already summed
        blocks = [np.full(2000, 0.1), np.resize(np.array(values), max(size, len(values)))]
        assert _sum_outcome(_fsum_of_blocks, blocks) == outcome
        assert _sum_outcome(estimators._exact_sum, blocks) == outcome

    def test_reads_a_generator_once(self):
        values = np.random.default_rng(8).random(10000) ** 7
        blocks = (values[a:a + 4096] for a in range(0, values.size, 4096))
        assert estimators._exact_sum(blocks) == math.fsum(values.tolist())


class TestSharedQmcPath:
    """_qmc_values: one sort and one buffer set for a node set, every n in order."""

    NS = (128, 4, 4, 7, 2)

    @pytest.mark.parametrize("which", ["halton", "cuts", "one"])
    def test_equals_per_n_calls_and_per_strip_loop(self, which):
        if which == "halton":
            nodes = PointSet(np.random.default_rng(1).permutation(halton(HaltonConfig(count=3000)).points))
        elif which == "cuts":
            nodes = PointSet(np.vstack([*map(_cut_nodes, sorted(set(self.NS))), _boundary_nodes()]))
        else:
            nodes = PointSet([[0.3, 0.8]])
        values = list(estimators._qmc_values(self.NS, nodes))
        assert values == [expected_l2_sq_qmc(n, nodes).value for n in self.NS]
        assert values == [_per_strip_value(n, nodes) for n in self.NS]

    def test_drops_the_node_set_once_sorted(self):
        nodes = halton(HaltonConfig(count=500))
        ref = weakref.ref(nodes)
        values = estimators._qmc_values((4, 16), nodes)
        del nodes
        next(values)
        assert ref() is None

    def test_peak_memory_of_table1_is_that_of_one_n(self, halton_nodes):
        from stratdisc.cli import TABLE1_NS

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: expected_l2_sq_qmc(128, halton_nodes))
        table = peak(lambda: list(estimators._qmc_values(TABLE1_NS, halton_nodes)))
        assert table <= 1.1 * one


class TestMcEstimator:
    def test_deterministic_per_seed(self):
        a = expected_l2_sq_mc(4, 500, seed=42)
        b = expected_l2_sq_mc(4, 500, seed=42)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_seed_changes_value(self):
        a = expected_l2_sq_mc(4, 500, seed=42)
        b = expected_l2_sq_mc(4, 500, seed=43)
        assert a.value != b.value

    def test_covers_exact_value_diagonal(self):
        est = expected_l2_sq_mc(4, 4000, seed=9)
        exact = expected_l2_sq_exact(4).value
        assert abs(est.value - exact) <= 4.0 * est.std_error

    def test_covers_vertical_baseline(self):
        est = expected_l2_sq_mc(4, 4000, seed=7, partition="vertical")
        assert abs(est.value - vertical_baseline(4)) <= 4.0 * est.std_error

    def test_covers_jittered_baseline(self):
        est = expected_l2_sq_mc(4, 4000, seed=7, partition="jittered")
        assert abs(est.value - jittered_baseline(2)) <= 4.0 * est.std_error

    def test_replicate_count_independent_prefix(self):
        # growing the replicate count must not change earlier draws, so the
        # two estimates agree within combined noise
        small = expected_l2_sq_mc(16, 1000, seed=3)
        large = expected_l2_sq_mc(16, 5000, seed=3)
        gap = abs(small.value - large.value)
        assert gap <= 4.0 * (small.std_error + large.std_error)

    def test_chunking_invisible_in_result(self):
        est = expected_l2_sq_mc(4, 4100, seed=11)
        assert est.std_error > 0.0

    def test_memory_bounded_at_large_n(self):
        # one (replicates, n, n) Warnock temporary here would be 100 MiB
        tracemalloc.start()
        try:
            expected_l2_sq_mc(256, 200, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_memory_bounded_at_n4096(self):
        # two (n, n) Warnock temporaries per replicate peaked at 256 MiB here
        tracemalloc.start()
        try:
            expected_l2_sq_mc(4096, 4, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_warnock_chunk_size_invisible_in_result(self, monkeypatch):
        # kernel calls of 7 replicates against one call on all 300
        full = expected_l2_sq_mc(16, 300, seed=4)
        monkeypatch.setattr(estimators, "_BLOCK_POINTS", 7 * 16)
        chunked = expected_l2_sq_mc(16, 300, seed=4)
        assert chunked.value == full.value
        assert chunked.std_error == full.std_error

    @pytest.mark.parametrize("chunk", [1, 8, 300])
    def test_warnock_chunk_budgets_at_n64(self, monkeypatch, chunk):
        # kernel calls of one replicate, eight and all of them: each call
        # gets one block, and its values are the kernel's on the whole stack
        n, replicates, seed = 64, 300, 6
        full = expected_l2_sq_mc(n, replicates, seed)
        seen = []

        def spy(points):
            values = l2_discrepancy_sq_batch(points)
            seen.append(values)
            return values

        monkeypatch.setattr(estimators, "l2_discrepancy_sq_batch", spy)
        monkeypatch.setattr(estimators, "_BLOCK_POINTS", chunk * n)
        chunked = expected_l2_sq_mc(n, replicates, seed)
        assert [v.size for v in seen] == [min(chunk, replicates - a) for a in range(0, replicates, chunk)]
        want = l2_discrepancy_sq_batch(sample_partition("diagonal", n, replicates, seed))
        assert np.concatenate(seen).tobytes() == want.tobytes()
        assert chunked.value == full.value
        assert chunked.std_error == full.std_error

    @pytest.mark.parametrize(
        "n, replicates, kind", [(8, 8193, "diagonal"), (64, 1025, "vertical"), (16, 3000, "jittered")]
    )
    def test_streamed_blocks_equal_one_batch(self, n, replicates, kind):
        # replicate counts that end in a partial block
        est = expected_l2_sq_mc(n, replicates, 12, kind)
        values = l2_discrepancy_sq_batch(sample_partition(kind, n, replicates, 12)).tolist()
        mean = math.fsum(values) / replicates
        variance = math.fsum((v - mean) ** 2 for v in values) / (replicates - 1)
        assert est.value == mean
        assert est.std_error == math.sqrt(variance / replicates)

    @pytest.mark.parametrize("block_points, rows", [(1, 1), (384 * 16, 384), (2**16, 4096)])
    def test_block_size_invisible_in_result(self, monkeypatch, block_points, rows):
        # at n = 16 a block is block_points // 16 replicates, and at least one
        n, replicates, seed = 16, 1000, 2
        full = expected_l2_sq_mc(n, replicates, seed, "jittered")
        blocks = []

        def spy(kind, n, count, seed, start=0):
            blocks.append((start, count))
            return sample_partition(kind, n, count, seed, start)

        monkeypatch.setattr(estimators, "sample_partition", spy)
        monkeypatch.setattr(estimators, "_BLOCK_POINTS", block_points)
        streamed = expected_l2_sq_mc(n, replicates, seed, "jittered")
        assert blocks == [(a, min(rows, replicates - a)) for a in range(0, replicates, rows)]
        assert streamed.value == full.value
        assert streamed.std_error == full.std_error

    def test_memory_bounded_in_replicates(self):
        # all 100,000 replicates drawn at once peaked at 390 MiB
        tracemalloc.start()
        try:
            expected_l2_sq_mc(64, 100_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "n, replicates, seed, kind",
        [(4, 100_000, 1, "diagonal"), (64, 3001, 5, "vertical"), (9, 20_000, 2, "jittered"), (2, 2, 0, "diagonal")],
    )
    def test_moments_equal_list_form(self, n, replicates, seed, kind):
        est = expected_l2_sq_mc(n, replicates, seed, kind)
        assert (est.value, est.std_error) == mc_moments_by_list(n, replicates, seed, kind)

    def test_memory_bounded_at_a_million_replicates(self):
        # the values held as a Python list peaked at 46 MiB; one float64
        # array of them is 7.6 MiB
        tracemalloc.start()
        try:
            expected_l2_sq_mc(4, 10**6, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            expected_l2_sq_mc(4, 1, seed=0)
        with pytest.raises(ValueError):
            expected_l2_sq_mc(5, 100, seed=0, partition="jittered")
        with pytest.raises(ValueError):
            expected_l2_sq_mc(4, 100, seed=0, partition="hexagonal")


class TestBaselines:
    def test_random_baseline_formula(self):
        assert random_baseline(1) == pytest.approx(5 / 36)
        assert random_baseline(4) == pytest.approx(5 / 144)

    def test_vertical_baseline_formula(self):
        assert vertical_baseline(4) == pytest.approx(14 / 576)
        assert vertical_baseline(1) == pytest.approx(5 / 36)  # one strip = one iid point

    def test_jittered_baseline_formula(self):
        assert jittered_baseline(2) == pytest.approx(11 / 576)
        assert jittered_baseline(1) == pytest.approx(5 / 36)  # 1x1 grid = one iid point

    def test_jittered_below_vertical_below_random(self):
        assert jittered_baseline(2) < vertical_baseline(4) < random_baseline(4)

    def test_ratio_to_random(self):
        est = expected_l2_sq_exact(4)
        assert ratio_to_random(4, est) == pytest.approx(random_baseline(4) / est.value)

    def test_ratio_rejects_zero_estimate(self):
        est = DiscrepancyEstimate(value=0.0)
        with pytest.raises(ValueError):
            ratio_to_random(4, est)

    @pytest.mark.parametrize("fn", [random_baseline, vertical_baseline, jittered_baseline])
    def test_baselines_reject_nonpositive(self, fn):
        with pytest.raises(ValueError):
            fn(0)
