"""Differential lockdown of the incremental max-min allocator.

The incremental allocator must be *rate-for-rate indistinguishable*
from the reference progressive filler — same per-flow completion times,
same completion order, same delivered bytes — on every workload the
simulator can produce.  This suite replays seeded random scenarios
through both allocators and compares:

* **Network level** (``TestNetworkScenarios``): random topologies x
  random flow sets (random sources, destinations, sizes, start times),
  checking every flow's completion time and mid-run rate snapshots.
* **Executor level** (``TestExecutorScenarios``): full AAPC runs across
  topology x algorithm x message-size grids, with all noise sources
  active, checking completion time, per-rank finish times and byte
  ledgers.
* **Dense flow sets** (``test_dense_executor_scenarios_match``): LAM on
  16 ranks (240 flows at once), where the incremental side keeps flow
  state in the network's slot arrays and runs the array waterfill.
* **Fault boundaries** (``TestFaultScenarios``): fault plans with
  mid-run capacity changes (degradations, outages, recoveries) forcing
  full re-solves at fault boundaries, plus stragglers and crashes.

Tolerance: the two allocators follow the same freezing order, so rates
agree to the accumulation-order ulp (measured <= 1e-14 relative); the
suite enforces 1e-9 which is many orders of magnitude tighter than any
quantity the simulator reports.

The scenario count across the whole module is asserted to stay >= 200
(``test_scenario_coverage_floor``) so future edits cannot quietly
shrink the lockdown.
"""

import math
import random
import zlib

import pytest

from repro.algorithms import get_algorithm
from repro.errors import StallError
from repro.faults.plan import FaultPlan, HostStraggler, LinkFault, RankCrash
from repro.sim.engine import Engine
from repro.sim.executor import run_programs
from repro.sim.network import DENSE_MIN_FLOWS, FlowNetwork
from repro.sim.params import NetworkParams
from repro.topology.builder import (
    chain_of_switches,
    random_tree,
    single_switch,
    star_of_switches,
    topology_a,
)

REL_TOL = 1e-9
ABS_TOL = 1e-9

#: Running tally of differential scenarios executed, for the floor check.
_SCENARIOS_RUN = {"count": 0}


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _assert_scalar(name, a, b):
    assert _close(a, b), f"{name}: reference={a!r} incremental={b!r}"


def _assert_map(name, a, b):
    assert a.keys() == b.keys(), f"{name}: key sets differ"
    for k in a:
        assert _close(a[k], b[k]), (
            f"{name}[{k!r}]: reference={a[k]!r} incremental={b[k]!r}"
        )


# ---------------------------------------------------------------------------
# Network-level scenarios: raw flow sets against FlowNetwork.
# ---------------------------------------------------------------------------


def _random_topology(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return single_switch(rng.randrange(4, 9))
    if kind == 1:
        return chain_of_switches([rng.randrange(2, 5) for _ in range(3)])
    if kind == 2:
        return star_of_switches([rng.randrange(2, 5) for _ in range(4)])
    return random_tree(rng.randrange(6, 14), rng.randrange(2, 5), seed=rng.randrange(10**6))


def _random_flows(rng, machines):
    """(src, dst, nbytes, start_time) tuples, with bursts of shared starts."""
    flows = []
    nflows = rng.randrange(3, 40)
    t = 0.0
    for _ in range(nflows):
        src, dst = rng.sample(list(machines), 2)
        nbytes = float(rng.choice([512, 4096, 65536, 1 << 20])) * rng.uniform(0.5, 2.0)
        # Half the flows start at the running timestamp (exact-tie
        # batching paths), the rest at jittered instants.
        if rng.random() < 0.5:
            t += rng.uniform(0.0, 2e-3)
        flows.append((src, dst, nbytes, t))
    return flows


def _run_network_scenario(seed: int, allocator: str):
    rng = random.Random(seed)
    topo = _random_topology(rng)
    flows = _random_flows(rng, topo.machines)
    probe_times = sorted(rng.uniform(1e-4, 5e-2) for _ in range(3))

    params = NetworkParams(seed=seed, allocator=allocator)
    engine = Engine()
    net = FlowNetwork(engine, topo, params)
    completions = {}
    rate_snaps = []

    def start(i, spec):
        src, dst, nbytes, _ = spec
        net.start_flow(
            src, dst, nbytes,
            lambda f, i=i: completions.__setitem__(i, engine.now),
            tag=i,
        )

    for i, spec in enumerate(flows):
        engine.schedule(spec[3], lambda i=i, spec=spec: start(i, spec))

    def snapshot():
        rate_snaps.append(
            {f.tag: f.rate for f in list(net._flows.values())}
        )

    for pt in probe_times:
        engine.schedule(pt, snapshot)
    engine.run()
    net.sync_progress()
    assert len(completions) == len(flows), "not every flow completed"
    return {
        "completions": completions,
        "snapshots": rate_snaps,
        "bytes_delivered": net.bytes_delivered,
        "edge_bytes": dict(net.edge_bytes),
    }


NETWORK_SEEDS = list(range(120))


@pytest.mark.parametrize("seed", NETWORK_SEEDS)
def test_network_scenarios_match(seed):
    ref = _run_network_scenario(seed, "reference")
    inc = _run_network_scenario(seed, "incremental")
    _assert_map("completion_time", ref["completions"], inc["completions"])
    assert len(ref["snapshots"]) == len(inc["snapshots"])
    for i, (a, b) in enumerate(zip(ref["snapshots"], inc["snapshots"])):
        _assert_map(f"rate_snapshot[{i}]", a, b)
    _assert_scalar("bytes_delivered", ref["bytes_delivered"], inc["bytes_delivered"])
    _assert_map("edge_bytes", ref["edge_bytes"], inc["edge_bytes"])
    _SCENARIOS_RUN["count"] += 1


# ---------------------------------------------------------------------------
# Executor-level scenarios: full AAPC runs with every noise source on.
# ---------------------------------------------------------------------------


def _compare_runs(topo, algo, msize, seed, faults=None):
    programs = get_algorithm(algo).build_programs(topo, msize)
    results = {}
    for allocator in ("reference", "incremental"):
        params = NetworkParams(seed=seed, allocator=allocator)
        try:
            results[allocator] = run_programs(
                topo, programs, msize, params,
                faults=faults,
                check_delivery=faults is None,
            )
        except StallError as exc:
            # A crash stalls the surviving peers: both allocators must
            # reach the identical diagnosis.
            results[allocator] = exc.diagnosis
    ref, inc = results["reference"], results["incremental"]
    assert type(ref) is type(inc), (ref, inc)
    if not hasattr(ref, "completion_time"):
        assert ref.crashed_ranks == inc.crashed_ranks
        assert sorted(b.rank for b in ref.blocked) == sorted(
            b.rank for b in inc.blocked
        )
    else:
        _assert_scalar(
            "completion_time", ref.completion_time, inc.completion_time
        )
        _assert_map("rank_finish", ref.rank_finish, inc.rank_finish)
        _assert_scalar(
            "bytes_delivered", ref.bytes_delivered, inc.bytes_delivered
        )
        _assert_map("edge_bytes", ref.edge_bytes, inc.edge_bytes)
        assert ref.crashed_ranks == inc.crashed_ranks
    _SCENARIOS_RUN["count"] += 1


_EXEC_TOPOLOGIES = {
    "single8": lambda: single_switch(8),
    "chain": lambda: chain_of_switches([3, 2, 3]),
    "star": lambda: star_of_switches([3, 3, 3, 3]),
    "paper_a": topology_a,
}

_EXEC_ALGOS = ("lam", "bruck", "mpich", "mpich-ring", "scheduled")
_EXEC_SIZES = (4096, 65536)


@pytest.mark.parametrize("topo_name", sorted(_EXEC_TOPOLOGIES))
@pytest.mark.parametrize("algo", _EXEC_ALGOS)
@pytest.mark.parametrize("msize", _EXEC_SIZES)
def test_executor_scenarios_match(topo_name, algo, msize):
    topo = _EXEC_TOPOLOGIES[topo_name]()
    seed = zlib.crc32(f"{topo_name}/{algo}/{msize}".encode()) % 997
    _compare_runs(topo, algo, msize, seed=seed)


# ---------------------------------------------------------------------------
# Dense scenarios: every message in flight at once, above the flow count
# at which the incremental side switches to its slot arrays.
# ---------------------------------------------------------------------------

_DENSE_TOPOLOGIES = {
    "star16": lambda: star_of_switches([4, 4, 4, 4]),
    "chain16": lambda: chain_of_switches([4, 4, 4, 4]),
}
_DENSE_SIZES = (8192, 65536)


@pytest.mark.parametrize("topo_name", sorted(_DENSE_TOPOLOGIES))
@pytest.mark.parametrize("msize", _DENSE_SIZES)
def test_dense_executor_scenarios_match(topo_name, msize):
    topo = _DENSE_TOPOLOGIES[topo_name]()
    n = topo.num_machines
    assert n * (n - 1) >= DENSE_MIN_FLOWS
    seed = zlib.crc32(f"dense/{topo_name}/{msize}".encode()) % 997
    _compare_runs(topo, "lam", msize, seed=seed)


# ---------------------------------------------------------------------------
# Fault-boundary scenarios: mid-run capacity changes force full re-solves.
# ---------------------------------------------------------------------------


def _fault_plans(topo):
    machines = topo.machines
    sw_link = None
    for u, v in topo.links:
        if u.startswith("s") and v.startswith("s"):
            sw_link = (u, v)
            break
    if sw_link is None:
        sw_link = topo.links[0]
    plans = {
        "degrade": FaultPlan(
            name="degrade", seed=3,
            link_faults=[LinkFault(link=sw_link, start=5e-3, end=4e-2, factor=0.25)],
        ),
        "outage": FaultPlan(
            name="outage", seed=3,
            link_faults=[LinkFault(link=sw_link, start=1e-2, end=3e-2, failed=True)],
        ),
        "straggler": FaultPlan(
            name="straggler", seed=3,
            stragglers=[HostStraggler(rank=machines[1], factor=6.0, end=5e-2)],
        ),
        "crash": FaultPlan(
            name="crash", seed=3,
            crashes=[RankCrash(rank=machines[-1], time=8e-3)],
        ),
        "compound": FaultPlan(
            name="compound", seed=3,
            link_faults=[
                LinkFault(link=sw_link, start=2e-3, end=2e-2, factor=0.5),
                LinkFault(link=sw_link, start=3e-2, end=5e-2, factor=0.8),
            ],
            stragglers=[HostStraggler(rank=machines[0], factor=3.0, start=1e-2)],
        ),
    }
    return plans


_FAULT_ALGOS = ("lam", "bruck", "mpich", "scheduled")
_FAULT_KINDS = ("degrade", "outage", "straggler", "crash", "compound")


@pytest.mark.parametrize("algo", _FAULT_ALGOS)
@pytest.mark.parametrize("kind", _FAULT_KINDS)
@pytest.mark.parametrize("topo_name", ("chain", "star"))
def test_fault_scenarios_match(topo_name, algo, kind):
    topo = _EXEC_TOPOLOGIES[topo_name]()
    plan = _fault_plans(topo)[kind]
    plan.validate_against(topo)
    _compare_runs(topo, algo, 65536, seed=11, faults=plan)


# ---------------------------------------------------------------------------
# Coverage floor.
# ---------------------------------------------------------------------------


def test_scenario_coverage_floor():
    """The differential lockdown must keep >= 200 scenarios.

    Runs last within the module (pytest executes in definition order),
    after every parametrized scenario above has counted itself.
    """
    expected = (
        len(NETWORK_SEEDS)
        + len(_EXEC_TOPOLOGIES) * len(_EXEC_ALGOS) * len(_EXEC_SIZES)
        + len(_DENSE_TOPOLOGIES) * len(_DENSE_SIZES)
        + len(_FAULT_ALGOS) * len(_FAULT_KINDS) * 2
    )
    assert expected >= 200
    assert _SCENARIOS_RUN["count"] == expected
