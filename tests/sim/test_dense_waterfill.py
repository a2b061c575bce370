"""Bit-exactness of the array waterfill and the slot-array flow state.

LAM posts every message at once, so its flow sets are dense: settles
re-solve hundreds of flows, the network keeps per-flow state in its
slot arrays, and the array waterfill
(:meth:`IncrementalAllocator.solve_slots`) rates the flows.  All of it
must reproduce the python filler and the per-flow float path exactly —
``==``, not approx — because an ulp in one rate moves completion times:

* every array solve is checked against
  :meth:`IncrementalAllocator._solve_python` on the same scope;
* whole runs with the array paths on and off agree on every simulated
  time and byte ledger, with and without fault boundaries.  Both arms
  run the same dense floor, so they re-solve the same scopes and differ
  only in where per-flow state lives and which filler rates a scope.

The random-tree case is the ``campaign`` CLI golden's LAM cell, which a
filler that freezes exactly-tied edges together moves by an ulp.
"""

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.faults.plan import FaultPlan, LinkFault
from repro.sim import allocator as allocator_mod
from repro.sim import network as network_mod
from repro.sim.allocator import IncrementalAllocator
from repro.sim.engine import Engine
from repro.sim.executor import run_programs
from repro.sim.network import FlowNetwork
from repro.sim.params import NetworkParams
from repro.topology.builder import (
    chain_of_switches,
    random_tree,
    single_switch,
    star_of_switches,
)

#: name -> (topology factory, message size, dense-mode flow floor).  The
#: 16-rank cases (240 flows) run at the production floor; the 14-rank
#: tree (182 flows) lowers it so its dense settles use the slot arrays.
CASES = {
    "star-8KB": (lambda: star_of_switches([4, 4, 4, 4]), 8 * 1024, None),
    "star-64KB": (lambda: star_of_switches([4, 4, 4, 4]), 64 * 1024, None),
    "chain-8KB": (lambda: chain_of_switches([4, 4, 4, 4]), 8 * 1024, None),
    "chain-64KB": (lambda: chain_of_switches([4, 4, 4, 4]), 64 * 1024, None),
    "campaign-tree-8KB": (lambda: random_tree(14, 5, seed=0), 8 * 1024, 32),
}


def _run_lam(topo, msize, faults=None):
    programs = get_algorithm("lam").build_programs(topo, msize)
    return run_programs(
        topo, programs, msize, NetworkParams(seed=0), faults=faults
    )


@pytest.fixture
def checked_solves(monkeypatch):
    """Re-run every array solve through the python filler and compare."""
    counts = {"solves": 0, "dense": 0}
    array_solve = IncrementalAllocator.solve_slots

    def solve_slots(self, slots, now):
        rates, touched, iterations = array_solve(self, slots, now)
        net = self.net
        flows = [net._slots.flows[s] for s in slots.tolist()]
        scope = {f.fid: f for f in flows}
        saved = [f.rate for f in flows]
        py_touched, py_iterations, _ = self._solve_python(
            scope, self.component_edges(scope), now
        )
        expected = [f.rate for f in flows]
        for f, rate in zip(flows, saved):
            f.rate = rate
        assert rates.tolist() == expected
        assert (touched, iterations) == (py_touched, py_iterations)
        counts["solves"] += 1
        counts["dense"] += net._dense
        return rates, touched, iterations

    monkeypatch.setattr(IncrementalAllocator, "solve_slots", solve_slots)
    return counts


@pytest.mark.parametrize("case", sorted(CASES))
def test_array_waterfill_equals_python_filler(case, checked_solves, monkeypatch):
    make_topo, msize, dense_floor = CASES[case]
    if dense_floor is not None:
        monkeypatch.setattr(network_mod, "DENSE_MIN_FLOWS", dense_floor)
    _run_lam(make_topo(), msize)
    assert checked_solves["dense"] > 0, "no settle ran in dense mode"


def _python_only(monkeypatch):
    """Per-flow floats and the python filler everywhere (same scopes)."""
    monkeypatch.setattr(IncrementalAllocator, "solves_slots", False)
    monkeypatch.setattr(allocator_mod, "_PYTHON_MAX_FLOWS", 10**9)


def _assert_identical(a, b):
    assert a.completion_time == b.completion_time
    assert a.rank_finish == b.rank_finish
    assert a.bytes_delivered == b.bytes_delivered
    assert list(a.edge_bytes.items()) == list(b.edge_bytes.items())
    assert a.events_processed == b.events_processed
    assert a.max_edge_multiplexing == b.max_edge_multiplexing


@pytest.mark.parametrize("case", sorted(CASES))
def test_array_paths_are_bit_identical_end_to_end(case, monkeypatch):
    make_topo, msize, dense_floor = CASES[case]
    topo = make_topo()
    if dense_floor is not None:
        monkeypatch.setattr(network_mod, "DENSE_MIN_FLOWS", dense_floor)
    arrays = _run_lam(topo, msize)
    _python_only(monkeypatch)
    _assert_identical(arrays, _run_lam(topo, msize))


@pytest.mark.parametrize("failed", [False, True], ids=["degrade", "outage"])
def test_dense_mode_across_fault_boundaries(failed, monkeypatch):
    """Whole-set re-solves at a link's degradation or failure and at
    its recovery, with the capacities the fault injector scales."""
    topo = star_of_switches([4, 4, 4, 4])
    trunk = next(
        (u, v) for u, v in topo.links if topo.is_switch(u) and topo.is_switch(v)
    )
    fault = LinkFault(link=trunk, start=2e-3, end=8e-3, factor=0.3, failed=failed)
    plan = FaultPlan(name="dense", seed=3, link_faults=[fault])
    plan.validate_against(topo)
    monkeypatch.setattr(network_mod, "DENSE_MIN_FLOWS", 32)
    arrays = _run_lam(topo, 8 * 1024, faults=plan)
    _python_only(monkeypatch)
    _assert_identical(arrays, _run_lam(topo, 8 * 1024, faults=plan))


def test_tiny_shares_take_the_tolerant_scan(monkeypatch):
    """Below a share of 16 the reference's ``share < best - 1e-15`` is
    not a plain ``<``; the array waterfill then replays its scan."""

    def run():
        engine = Engine()
        net = FlowNetwork(engine, single_switch(8), NetworkParams(bandwidth=50.0))
        done = {}
        machines = list(net.topology.machines)
        for i, src in enumerate(machines):
            for j, dst in enumerate(machines):
                if src != dst:
                    size = 40.0 + 3.0 * i + j
                    net.start_flow(
                        src, dst, size,
                        lambda f: done.__setitem__(f.tag, engine.now),
                        tag=len(done) + 100 * i + j,
                    )
        engine.run()
        return done

    arrays = run()
    _python_only(monkeypatch)
    assert arrays == run()


def test_ufuncs_accumulate_in_index_order():
    """The array paths rely on these being sequential, not pairwise."""
    rng = np.random.default_rng(0)
    values = rng.uniform(0.0, 1e6, 4096)
    expected = 0.0
    for v in values.tolist():
        expected += v
    assert float(np.cumsum(values)[-1]) == expected

    start = 1e9
    share = 12345.678901
    avail = np.array([start, start])
    np.subtract.at(avail, np.zeros(1000, dtype=np.intp), share)
    sequential = start
    for _ in range(1000):
        sequential -= share
    assert avail[0] == sequential

    # Each flow's bytes onto each column of its row, flow by flow.
    moved = rng.uniform(0.0, 1e5, 300)
    cols = rng.integers(0, 3, (300, 4))
    ledger = np.zeros(3)
    np.add.at(ledger, cols.ravel(), np.repeat(moved, 4))
    by_hand = [0.0, 0.0, 0.0]
    for row_cols, m in zip(cols.tolist(), moved.tolist()):
        for c in row_cols:
            by_hand[c] += m
    assert ledger.tolist() == by_hand
