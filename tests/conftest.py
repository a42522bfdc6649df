"""Shared fixtures: the expensive node set and sweeps are built once."""

from __future__ import annotations

import pytest

from stratdisc import HaltonConfig, expected_l2_sq_exact, expected_l2_sq_qmc, halton


@pytest.fixture(scope="session")
def halton_nodes():
    """The default 40000-node Halton set in bases (2, 3)."""
    return halton(HaltonConfig())


@pytest.fixture(scope="session")
def qmc_sweep(halton_nodes):
    """Quasi-Monte Carlo estimates for every even n from 2 to 128."""
    ns = range(2, 129, 2)
    return dict(zip(ns, expected_l2_sq_qmc(ns, halton_nodes)))


@pytest.fixture(scope="session")
def exact_sweep():
    """Closed-form values for every even n from 2 to 128."""
    return {n: expected_l2_sq_exact(n).value for n in range(2, 129, 2)}
