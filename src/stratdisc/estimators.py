"""Estimators of the expected squared L2 discrepancy of stratified samples.

Two numerical routes are implemented here and cross-checked against the
closed form elsewhere:

  * quasi-Monte Carlo: integrate (1/N^2) sum_i q_i(x)(1 - q_i(x)) over the
    unit square using a fixed node set (Halton bases 2 and 3 by default);
  * Monte Carlo: draw stratified samples, evaluate each with the pairwise
    discrepancy identity, and average.

The i.i.d. baseline 5/(36N) is the comparison value of the ratio statistics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .lowdisc import HaltonConfig, PointSet, halton, l2_discrepancy_sq_batch
from .partition import GeneratingSet, Grid, generating_set
from .qgeometry import _clip_area

# Points per block of the streamed MC loop: one block of replicates is
# sampled, scored by one Warnock kernel call and dropped before the next, so
# MC memory grows with neither the replicate count nor n^2.
_BLOCK_POINTS = 2**15

# _exact_sum hands shorter blocks to fsum as they are: 16 ns a value against 15 us a block
_FSUM_BELOW = 1024


@dataclass(frozen=True)
class DiscrepancyEstimate:
    """A value of E[L2^2] and, for MC, its standard error."""

    value: float
    std_error: float | None = None

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError(f"expected squared discrepancy cannot be negative: {self.value}")


def _exact_sum(blocks: Iterable[Sequence[float]]) -> float:
    """math.fsum of every value in blocks, bit for bit, its errors included.

    Blocks of _FSUM_BELOW or more values are split by error-free extraction
    (Rump, Ogita and Oishi 2008): with sigma = 2^k >= 2^b max|v|, b the bit
    length of the size, q = (sigma + v) - sigma and v - q are exact and the
    q sum exactly; each level takes 53 - b bits off v.  One fsum of the
    level sums and the shorter blocks rounds once; a long list of them is
    replaced by the floats fsum peels off its exact total.  A block with a
    value that is non-finite or >= 2^960 goes to fsum with all the rest.
    """
    parts: list[float] = []
    blocks = iter(blocks)
    for block in blocks:
        v = np.array(block, dtype=np.float64)
        top = np.abs(v).max(initial=0.0)
        if not top < 2.0**960:
            return math.fsum(itertools.chain(parts, v, itertools.chain.from_iterable(blocks)))
        if v.size < _FSUM_BELOW:
            parts.extend(v.tolist())
        while v.size >= _FSUM_BELOW and top > 0.0:
            sigma = 2.0 ** (math.frexp(top)[1] + v.size.bit_length())
            q = (v + sigma) - sigma
            v -= q
            parts.append(float(q.sum()))
            top = np.abs(v).max()
        if len(parts) > _FSUM_BELOW:
            peeled: list[float] = []
            while rest := math.fsum(itertools.chain(parts, (-x for x in peeled))):
                peeled.append(rest)
            parts = peeled
    return math.fsum(parts)


def _qmc_values(ns: Iterable[int], nodes: PointSet) -> Iterator[float]:
    """expected_l2_sq_qmc(n, nodes).value for each n in ns, in order: the
    nodes are sorted once, and the buffers allocated once, for all n."""
    if nodes.n < 1:
        raise ValueError("node set must be nonempty")
    s = nodes.points[:, 0] + nodes.points[:, 1]
    order = np.argsort(s)
    s, x, y = s[order], nodes.points[order, 0], nodes.points[order, 1]
    del order, nodes
    # V(r_{i-1}) and V(r_i), doubled, alternate between two node-indexed
    # buffers; scratch holds the edge terms and then 1 - q
    v_prev, v_i, scratch, acc = (np.empty_like(s) for _ in range(4))
    for n in ns:
        cuts = generating_set(n).cuts[1:]
        # starts[i - 1]: the first sorted node with s > r_i; the last cut,
        # r_N = 2, is past every node, so V(r_N) = 0 on all of them
        starts = np.searchsorted(s, cuts, side="right").tolist()
        np.multiply(x, y, out=v_prev)
        v_prev *= 2.0
        acc.fill(0.0)
        lo = 0
        for r, hi in zip(cuts.tolist(), starts):
            # past hi, s > r, so relu(x + y - r) is s - r as the kernel rounds it;
            # for r >= 1 the edge terms relu(x - r)^2 and relu(y - r)^2 are exact
            # zeros, as a PointSet has x, y <= 1, and are left out
            g, t = v_i[hi:], scratch[hi:]
            np.subtract(s[hi:], r, out=g)
            _clip_area(g, r, ((x[hi:], t), (y[hi:], t)) if r < 1.0 else ())
            # nodes in [lo, hi) have V(r_i) = 0: their q is N V(r_{i-1})
            q, t = v_prev[lo:], scratch[lo:]
            q[hi - lo:] -= g
            # q = (N/2) 2(V(r_{i-1}) - V(r_i)) and q(1 - q), in V(r_{i-1})'s buffer
            q *= n / 2
            np.subtract(1.0, q, out=t)
            q *= t
            acc[lo:] += q
            v_prev, v_i, lo = v_i, v_prev, hi
        # a node at or near (1, 1) has q = 1 in exact arithmetic, and rounding
        # can leave q(1 - q) a few ulps below zero; only the total is floored,
        # so every nonnegative value keeps its bits
        yield max(_exact_sum(acc[a:a + 4096] for a in range(0, acc.size, 4096)) / (acc.size * n * n), 0.0)


def expected_l2_sq_qmc(n: int, nodes: PointSet | None = None) -> DiscrepancyEstimate:
    """Node-set average of (1/N^2) sum_i q_i(1 - q_i) over the partition strips.

    With V(r) the clipped area of a node's box at cut r, q_i = N (V(r_{i-1})
    - V(r_i)), formed bit for bit as N/2 times a difference of _clip_area's
    doubled areas.  The strip loop carries V from the previous cut, so each
    cut is evaluated once, and only on the nodes that reach past it: sorted
    by s = x + y, as the kernel computes it, a node with s <= r_i has
    V(r_i) = 0.0 exactly, no relu argument of the kernel being positive, at
    this and every later cut, whose exact zeros are skipped.  Each node so
    gets the same nonzero additions in the same order as in the per-strip
    loop, and the per-node sums are added exactly and rounded once, as fsum
    does, so the value is bitwise that of the per-strip loop.  A total below
    zero can only be rounding residue and is returned as 0.0.  Defaults to
    Halton bases (2, 3) with 40000 nodes.
    """
    if nodes is None:
        nodes = halton(HaltonConfig())
    return DiscrepancyEstimate(next(_qmc_values((n,), nodes)))


def expected_l2_sq_mc(partition: GeneratingSet | Grid, replicates: int, seed: int) -> DiscrepancyEstimate:
    """Average pairwise-identity discrepancy over stratified replicates of partition.

    std_error is the unbiased sample standard deviation divided by
    sqrt(replicates).  The replicates are streamed in blocks: each block is
    drawn as rows start.. of every cell's stream, scored and dropped.  The
    kernel's value for a replicate does not depend on the others in its
    block, so the result is that of one batch of all replicates, and it is
    deterministic in (partition, replicates, seed).
    """
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates for a standard error, got {replicates}")
    rows = max(1, _BLOCK_POINTS // partition.n)
    values = np.empty(replicates)
    for start in range(0, replicates, rows):
        points = partition.sample(min(rows, replicates - start), seed, start)
        values[start:start + rows] = l2_discrepancy_sq_batch(points)
    # a memoryview feeds fsum Python floats one at a time, as fast as a
    # list of them and without holding one
    mean = math.fsum(memoryview(values)) / replicates
    variance = math.fsum((v - mean) ** 2 for v in memoryview(values)) / (replicates - 1)
    return DiscrepancyEstimate(mean, math.sqrt(variance / replicates))


def random_baseline(n: int) -> float:
    """E[L2^2] of n i.i.d. uniform points: 5/(36n)."""
    if n < 1:
        raise ValueError(f"need at least 1 point, got n={n}")
    return 5.0 / (36.0 * n)


def ratio_to_random(n: int, est: DiscrepancyEstimate) -> float:
    """random_baseline(n) divided by the estimate; the headline comparison."""
    if est.value <= 0.0:
        raise ValueError("ratio undefined for a nonpositive estimate")
    return random_baseline(n) / est.value
