"""Tests for the flow-level network: timing, max-min fairness, conservation."""

import pytest

from repro.algorithms import get_algorithm
from repro.errors import SimulationError
from repro.obs.metrics_registry import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.executor import run_programs
from repro.sim.network import FlowNetwork
from repro.sim.params import NetworkParams
from repro.topology.builder import (
    chain_of_switches,
    paper_example_cluster,
    random_tree,
    single_switch,
    star_of_switches,
)


def make_net(topo=None, **kwargs):
    params = NetworkParams(
        base_efficiency=1.0,
        contention_floor_small=1.0,
        contention_floor_large=1.0,
        contention_gamma=0.0,
        **kwargs,
    )
    engine = Engine()
    if topo is None:
        topo = single_switch(4)
    return engine, FlowNetwork(engine, topo, params), params


class TestSingleFlow:
    def test_exact_transfer_time(self):
        engine, net, params = make_net()
        done = []
        net.start_flow("n0", "n1", 1_000_000, lambda f: done.append(engine.now))
        engine.run()
        assert done == [pytest.approx(1_000_000 / params.bandwidth)]

    def test_flow_metadata(self):
        engine, net, _ = make_net()
        records = []
        flow = net.start_flow("n0", "n1", 500.0, records.append)
        engine.run()
        assert flow.end_time is not None
        assert flow.remaining == 0.0
        assert flow.edges == (("n0", "s0"), ("s0", "n1"))
        assert records == [flow]

    def test_zero_size_rejected(self):
        _, net, _ = make_net()
        with pytest.raises(SimulationError):
            net.start_flow("n0", "n1", 0, lambda f: None)


class TestSharing:
    def test_two_flows_same_uplink_halve(self):
        """Two flows out of n0 share its uplink: both take twice as long."""
        engine, net, params = make_net()
        times = {}
        net.start_flow("n0", "n1", 1e6, lambda f: times.__setitem__("a", engine.now))
        net.start_flow("n0", "n2", 1e6, lambda f: times.__setitem__("b", engine.now))
        engine.run()
        expected = 2e6 / params.bandwidth
        assert times["a"] == pytest.approx(expected)
        assert times["b"] == pytest.approx(expected)

    def test_disjoint_flows_independent(self):
        engine, net, params = make_net()
        times = {}
        net.start_flow("n0", "n1", 1e6, lambda f: times.__setitem__("a", engine.now))
        net.start_flow("n2", "n3", 1e6, lambda f: times.__setitem__("b", engine.now))
        engine.run()
        assert times["a"] == pytest.approx(1e6 / params.bandwidth)
        assert times["b"] == pytest.approx(1e6 / params.bandwidth)

    def test_released_capacity_speeds_up_survivor(self):
        """After the short flow finishes, the long one gets full bandwidth."""
        engine, net, params = make_net()
        times = {}
        b = params.bandwidth
        net.start_flow("n0", "n1", b, lambda f: times.__setitem__("short", engine.now))
        net.start_flow("n0", "n2", 1.5 * b, lambda f: times.__setitem__("long", engine.now))
        engine.run()
        # share until the short one ends: both at B/2; short needs B bytes
        # -> ends at t=2. Long has 0.5B left, full speed -> ends at 2.5.
        assert times["short"] == pytest.approx(2.0)
        assert times["long"] == pytest.approx(2.5)

    def test_max_min_unequal_paths(self):
        """Classic max-min example on a chain: a long flow and two locals."""
        topo = chain_of_switches([2, 2])
        engine = Engine()
        params = NetworkParams(
            base_efficiency=1.0,
            contention_floor_small=1.0,
            contention_floor_large=1.0,
            contention_gamma=0.0,
        )
        net = FlowNetwork(engine, topo, params)
        b = params.bandwidth
        rates = {}

        def snapshot():
            for name, flow in flows.items():
                rates[name] = flow.rate

        flows = {
            # crosses trunk and both hosts' links
            "cross": net.start_flow("n0", "n2", 10 * b, lambda f: None),
            # competes with cross at n0's uplink
            "local": net.start_flow("n0", "n1", 10 * b, lambda f: None),
        }
        engine.schedule(0.001, snapshot)
        engine.run(until=0.002)
        # n0's uplink is the only contended edge: each gets B/2.
        assert rates["cross"] == pytest.approx(b / 2)
        assert rates["local"] == pytest.approx(b / 2)


class TestConservationAndStats:
    def test_bytes_conserved(self):
        engine, net, _ = make_net()
        total = 0.0
        import random

        rng = random.Random(3)
        machines = ["n0", "n1", "n2", "n3"]
        for i in range(12):
            src, dst = rng.sample(machines, 2)
            size = rng.randint(1_000, 500_000)
            total += size
            engine.schedule(
                rng.random() * 0.01,
                lambda s=src, d=dst, z=size: net.start_flow(s, d, z, lambda f: None),
            )
        engine.run()
        assert net.bytes_injected == pytest.approx(total)
        assert net.bytes_delivered == pytest.approx(total, rel=1e-6)
        assert net.active_flows == 0

    def test_peak_and_multiplexing_stats(self):
        engine, net, _ = make_net()
        for dst in ("n1", "n2", "n3"):
            net.start_flow("n0", dst, 1e6, lambda f: None)
        engine.run()
        assert net.peak_concurrent_flows == 3
        assert net.max_edge_multiplexing == 3


class TestContentionPenalty:
    def test_endpoint_penalty_applies(self):
        engine = Engine()
        params = NetworkParams(
            base_efficiency=1.0,
            contention_floor_small=0.5,
            contention_floor_large=0.5,
            contention_gamma=1e9,  # jump straight to the floor
            contention_grace=1,
        )
        topo = single_switch(4)
        net = FlowNetwork(engine, topo, params)
        times = {}
        net.start_flow("n0", "n1", 1e6, lambda f: times.__setitem__("a", engine.now))
        net.start_flow("n0", "n2", 1e6, lambda f: times.__setitem__("b", engine.now))
        engine.run()
        # uplink capacity halves: 2 MB through B/2 instead of B
        assert times["a"] == pytest.approx(4e6 / params.bandwidth)

    def test_trunk_penalty_milder_than_endpoint(self):
        engine = Engine()
        params = NetworkParams(
            base_efficiency=1.0,
            contention_floor_small=0.5,
            contention_floor_large=0.5,
            trunk_floor_small=0.8,
            trunk_floor_large=0.8,
            contention_gamma=1e9,
            contention_grace=1,
        )
        topo = chain_of_switches([2, 2])
        net = FlowNetwork(engine, topo, params)
        times = {}
        # two flows sharing only the trunk (different hosts both sides)
        net.start_flow("n0", "n2", 1e6, lambda f: times.__setitem__("a", engine.now))
        net.start_flow("n1", "n3", 1e6, lambda f: times.__setitem__("b", engine.now))
        engine.run()
        # trunk capacity 0.8 * B shared by two flows
        assert times["a"] == pytest.approx(2e6 / (0.8 * params.bandwidth))


class TestSameInstantBatching:
    """Same-timestamp completion/start events must never double-complete.

    Regression lockdown for the deadline-heap generation check: a flow
    whose completion timer fires in the same engine batch as new flow
    starts (which re-solve rates and re-queue deadlines) must fire its
    ``on_complete`` exactly once, under both allocators.
    """

    @pytest.mark.parametrize("allocator", ["incremental", "reference"])
    def test_completion_coinciding_with_start(self, allocator):
        engine, net, params = make_net(allocator=allocator)
        b = params.bandwidth
        calls = {}

        def record(tag):
            def cb(flow):
                calls[tag] = calls.get(tag, 0) + 1
            return cb

        # Two same-size flows on disjoint paths: both complete at
        # exactly t=1.0; a third flow starts at precisely that instant
        # (same engine timestamp, same batch).
        net.start_flow("n0", "n1", b, record("a"), tag=1)
        net.start_flow("n2", "n3", b, record("b"), tag=2)
        engine.schedule(
            1.0, lambda: net.start_flow("n0", "n2", b, record("c"), tag=3)
        )
        engine.run()
        assert calls == {"a": 1, "b": 1, "c": 1}

    @pytest.mark.parametrize("allocator", ["incremental", "reference"])
    def test_completion_chain_at_one_instant(self, allocator):
        """Completions whose callbacks start flows that also complete.

        The settle loop folds callback-started flows into the same
        instant; a flow started and (instantly re-rated) in that batch
        must still complete exactly once, later.
        """
        engine, net, params = make_net(allocator=allocator)
        b = params.bandwidth
        calls = []

        def chain(flow):
            calls.append(("first", engine.now))
            # Start the follow-up inside the completion callback: it
            # joins the same engine batch at t=1.0.
            net.start_flow("n1", "n2", b, lambda f: calls.append(("second", engine.now)))

        net.start_flow("n0", "n1", b, chain)
        engine.run()
        assert calls == [("first", pytest.approx(1.0)), ("second", pytest.approx(2.0))]
        assert net.active_flows == 0

    def test_pooled_flow_handle_identity_not_confused(self):
        """A pooled Flow object reused at the completion instant keeps
        the two logical transfers' callbacks separate."""
        engine, net, params = make_net()
        b = params.bandwidth
        seen = []
        net.start_flow("n0", "n1", b, lambda f: seen.append(("a", f.fid)))
        engine.schedule(
            1.5, lambda: net.start_flow("n2", "n3", b, lambda f: seen.append(("b", f.fid)))
        )
        engine.run()
        assert [s[0] for s in seen] == ["a", "b"]
        assert seen[0][1] != seen[1][1]
        assert net.flow_pool_reuses >= 1



def _run_with_registry(topo, algorithm):
    msize = 64 * 1024
    programs = get_algorithm(algorithm).build_programs(topo, msize)
    registry = MetricsRegistry()
    with registry.activate():
        run_programs(topo, programs, msize, NetworkParams(seed=0))
    return registry


class TestScopePolicy:
    """The network alone decides when a settle re-solves the whole set.

    The paper's routine is contention-free, so every closure is one
    flow and no settle goes wide; LAM posts every message at once, so
    its settles do.
    """

    @pytest.mark.parametrize(
        "make_topo, flows",
        [
            (paper_example_cluster, 30),
            (lambda: random_tree(32, 4, seed=0), 992),
        ],
        ids=["paper-example", "random-tree-32"],
    )
    def test_scheduled_routine_solves_one_flow_at_a_time(self, make_topo, flows):
        registry = _run_with_registry(make_topo(), "generated")
        component = registry.histogram("network.component_flows")
        assert component.max == 1
        assert component.count == flows
        assert registry.get("network.full_resolves") == 0

    def test_lam_settles_go_wide(self):
        registry = _run_with_registry(star_of_switches([4, 4, 4, 4]), "lam")
        assert registry.get("network.full_resolves") > 0
