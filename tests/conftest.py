"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging

import pytest

from repro.sim.params import NetworkParams
from repro.topology.builder import (
    chain_of_switches,
    paper_example_cluster,
    single_switch,
    star_of_switches,
    topology_a,
    topology_b,
    topology_c,
)


@pytest.fixture(autouse=True)
def _ledger_in_tmp(tmp_path, monkeypatch):
    """Keep every test's run-ledger writes inside its tmp dir.

    CLI commands append to the run ledger by default; without this the
    suite would pollute the developer's ``~/.cache/repro-aapc``.
    """
    monkeypatch.setenv("REPRO_AAPC_LEDGER_DIR", str(tmp_path / "ledger"))


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    """Undo any logging setup a test leaves on the ``repro`` logger.

    A CLI run with ``-v`` attaches a handler and turns ``propagate``
    off, which would hide later tests' records from ``caplog``.
    """
    logger = logging.getLogger("repro")
    level, handlers, propagate = (
        logger.level, list(logger.handlers), logger.propagate
    )
    yield
    logger.setLevel(level)
    logger.handlers[:] = handlers
    logger.propagate = propagate


@pytest.fixture
def fig1():
    """The paper's Figure 1 example cluster (6 machines, 4 switches)."""
    return paper_example_cluster()


@pytest.fixture
def topo_a():
    return topology_a()


@pytest.fixture
def topo_b():
    return topology_b()


@pytest.fixture
def topo_c():
    return topology_c()


@pytest.fixture
def small_star():
    """A small two-level cluster: hub with machines on three switches."""
    return star_of_switches([3, 2, 2])


@pytest.fixture
def small_chain():
    """A small chain cluster with unequal switch populations."""
    return chain_of_switches([3, 1, 2])


@pytest.fixture
def tiny_switch():
    """Four machines on one switch (smallest interesting star)."""
    return single_switch(4)


@pytest.fixture
def quiet_params():
    """Deterministic, noise-free simulation parameters for unit tests."""
    return NetworkParams().without_noise()


@pytest.fixture
def fast_params():
    """Noise-free parameters with negligible software overheads.

    Completion times then equal pure transfer times, which tests can
    compute by hand.
    """
    return NetworkParams(
        post_overhead=0.0,
        rendezvous_latency=0.0,
        eager_latency=0.0,
        sync_latency=0.0,
        jitter=0.0,
        rank_speed_spread=0.0,
        stall_prob=0.0,
    )
