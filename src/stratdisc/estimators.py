"""Monte Carlo estimate of the expected squared L2 discrepancy of stratified samples.

Stratified samples of a partition are drawn, each is evaluated with the
pairwise discrepancy identity, and the values are averaged.  The closed form
and the QMC estimate it is checked against live in exactform and qgeometry.
"""

from __future__ import annotations

import math

import numpy as np

from .exactform import DiscrepancyEstimate
from .lowdisc import l2_discrepancy_sq_batch
from .partition import GeneratingSet, Grid, integer

# Points per block of the streamed MC loop: one block of replicates is
# sampled, scored by one Warnock kernel call and dropped before the next, so
# MC memory grows with neither the replicate count nor n^2.
_BLOCK_POINTS = 2**15


def expected_l2_sq_mc(partition: GeneratingSet | Grid, replicates: int, seed: int) -> DiscrepancyEstimate:
    """Average pairwise-identity discrepancy over stratified replicates of partition.

    std_error is the unbiased sample standard deviation divided by
    sqrt(replicates).  The replicates are streamed in blocks: each block is
    drawn as rows start.. of every cell's stream, scored and dropped.  The
    kernel's value for a replicate does not depend on the others in its
    block, so the result is that of one batch of all replicates, and it is
    deterministic in (partition, replicates, seed).
    """
    replicates = integer(replicates, "replicates", 2)
    rows = max(1, _BLOCK_POINTS // partition.n)
    values = np.empty(replicates)
    for start in range(0, replicates, rows):
        count = min(rows, replicates - start)
        # passed straight on, so that the kernel can drop the block once it is gathered
        values[start:start + count] = l2_discrepancy_sq_batch(partition.sample(count, seed, start))
    # a memoryview feeds fsum Python floats one at a time, as fast as a
    # list of them and without holding one
    mean = math.fsum(memoryview(values)) / replicates
    variance = math.fsum((v - mean) ** 2 for v in memoryview(values)) / (replicates - 1)
    return DiscrepancyEstimate(mean, math.sqrt(variance / replicates))
