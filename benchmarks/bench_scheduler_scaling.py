"""Scaling of the routine generator — and of the simulator itself.

The paper's generator runs offline, but a practical release must build
schedules for realistic cluster sizes quickly.  This bench times the
full pipeline (root + global schedule + assignment + verification) and
the sync-plan construction across cluster sizes, and checks optimality
holds throughout.

The ``slow``-marked tests extend the sweep to the *simulator's* engine
loop at cluster scale: a 128-rank AAPC comparing the incremental
allocator against the reference progressive filler (the two must agree
rate-for-rate; the incremental one must be >= 5x faster), 48- and
64-rank LAM runs (every message in flight at once: the dense regime),
and a 1024-rank AAPC that must finish inside a hard wall-clock budget.  The
scale points land in a run-ledger record under ``out/ledger/`` with
``sim_wall_ms`` set, so CI gates the wall-clock trend with::

    repro-aapc report regress --ledger-dir benchmarks/out/ledger \\
        --baseline benchmarks/baseline_scaling.json
"""

import os
import time
from typing import Dict

import pytest

from repro.algorithms import get_algorithm
from repro.core.scheduler import schedule_aapc
from repro.core.synchronization import build_sync_plan
from repro.obs.ledger import AlgorithmEntry, RunLedger, RunRecord, topology_fingerprint
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.analysis import aapc_load
from repro.topology.builder import star_of_switches

#: Where the scale sweep records land; CI runs ``report regress``
#: against this directory with the committed baseline file.
SCALING_LEDGER_DIR = os.path.join(os.path.dirname(__file__), "out", "ledger")

AAPC_MSIZE = 64 * 1024
AAPC_SEED = 7

#: Hard per-test wall-clock ceilings (seconds).  Generous on purpose:
#: the committed baseline gates the finer-grained trend; these only
#: catch catastrophic (order-of-magnitude) blowups even on slow CI.
BUDGET_128_S = 90.0
BUDGET_LAM_S = 120.0
BUDGET_1024_S = 240.0

#: Acceptance floor for the incremental allocator at 128 ranks.
MIN_SPEEDUP_128 = 5.0

#: Scale-point entries accumulated across the slow tests in this
#: module; the 1024-rank test (defined last, so it runs last) folds
#: them into one ledger record.
_LEDGER_ENTRIES: Dict[str, AlgorithmEntry] = {}


def cluster(n_machines):
    """A star of four switches with n_machines total (paper-style shape)."""
    per = n_machines // 4
    sizes = [per, per, per, n_machines - 3 * per]
    return star_of_switches(sizes)


def test_scheduler_scaling(emit, benchmark):
    lines = [
        "routine-generation cost vs cluster size (star of 4 switches):",
        "",
        f"{'machines':>9} {'phases':>7} {'messages':>9} {'schedule+verify':>16} {'sync plan':>10}",
    ]
    for n in (8, 16, 32, 64, 96):
        topo = cluster(n)
        t0 = time.perf_counter()
        schedule = schedule_aapc(topo)  # includes verification
        t1 = time.perf_counter()
        assert schedule.num_phases == aapc_load(topo)
        build_sync_plan(schedule)
        t2 = time.perf_counter()
        lines.append(
            f"{n:>9} {schedule.num_phases:>7} {len(schedule):>9} "
            f"{t1 - t0:>15.3f}s {t2 - t1:>9.3f}s"
        )
    emit("scheduler_scaling", "\n".join(lines))

    topo = cluster(48)
    benchmark.pedantic(
        lambda: schedule_aapc(topo, verify=False), rounds=5, iterations=1
    )


# ---------------------------------------------------------------------------
# Simulator scale sweep (slow): engine-loop wall clock at cluster size.
# ---------------------------------------------------------------------------


def _timed_aapc(topo, algo, allocator):
    """One AAPC run; returns (result, engine-loop wall seconds).

    Program construction is deliberately outside the timed region: the
    budget gates the *simulator*, not the offline generator (which
    ``test_scheduler_scaling`` above already tracks).
    """
    programs = get_algorithm(algo).build_programs(topo, AAPC_MSIZE)
    params = NetworkParams(seed=AAPC_SEED, allocator=allocator)
    t0 = time.perf_counter()
    result = run_programs(topo, programs, AAPC_MSIZE, params)
    return result, time.perf_counter() - t0


def _record_scale_sweep(topo):
    """Fold the accumulated scale points into one ledger record."""
    record = RunRecord.new(
        "bench-scaling",
        topology_spec="star-of-4",
        topology_fingerprint=topology_fingerprint(topo),
        num_machines=topo.num_machines,
        msize=AAPC_MSIZE,
        params={"seed": AAPC_SEED, "allocator": "incremental"},
        algorithms=dict(_LEDGER_ENTRIES),
    )
    RunLedger(SCALING_LEDGER_DIR).append(record)


@pytest.mark.slow
def test_allocator_speedup_128rank(emit):
    """128-rank bruck: incremental allocator >= 5x the reference filler.

    Both allocators must agree on the simulated completion time to
    1e-9 relative (the differential suite locks the full rate vector;
    this is the cheap end-to-end cross-check at scale).
    """
    topo = cluster(128)
    ref, ref_wall = _timed_aapc(topo, "bruck", "reference")
    inc, inc_wall = _timed_aapc(topo, "bruck", "incremental")
    assert inc.completion_time == pytest.approx(
        ref.completion_time, rel=1e-9
    )
    speedup = ref_wall / inc_wall
    _LEDGER_ENTRIES["bruck-128"] = AlgorithmEntry(
        completion_time_ms=inc.completion_time * 1e3,
        sim_wall_ms=inc_wall * 1e3,
    )
    _LEDGER_ENTRIES["bruck-128-reference"] = AlgorithmEntry(
        completion_time_ms=ref.completion_time * 1e3,
        sim_wall_ms=ref_wall * 1e3,
    )
    emit(
        "allocator_speedup_128",
        "\n".join(
            [
                "128-rank bruck AAPC, 64 KiB, engine-loop wall clock:",
                "",
                f"  reference allocator:   {ref_wall:8.2f}s",
                f"  incremental allocator: {inc_wall:8.2f}s",
                f"  speedup:               {speedup:8.2f}x  (floor {MIN_SPEEDUP_128:.0f}x)",
                f"  simulated completion:  {inc.completion_time * 1e3:8.2f} ms (both allocators)",
            ]
        ),
    )
    assert inc_wall <= BUDGET_128_S, (
        f"128-rank engine loop took {inc_wall:.1f}s > {BUDGET_128_S:.0f}s budget"
    )
    assert speedup >= MIN_SPEEDUP_128, (
        f"incremental allocator only {speedup:.2f}x faster than reference "
        f"at 128 ranks (floor {MIN_SPEEDUP_128:.0f}x)"
    )


@pytest.mark.slow
@pytest.mark.parametrize("n", [48, 64])
def test_dense_lam_budget(emit, n):
    """n-rank LAM: all n(n-1) messages post at once — the dense regime.

    Settles re-solve thousands of flows at once, so these are the scale
    points for the wide settles, the slot-array flow state and the
    array waterfill.  Their ``lam-<n>`` entries let the committed
    baseline gate both the wall clock and the simulated completion
    time.
    """
    topo = cluster(n)
    result, wall = _timed_aapc(topo, "lam", "incremental")
    _LEDGER_ENTRIES[f"lam-{n}"] = AlgorithmEntry(
        completion_time_ms=result.completion_time * 1e3,
        sim_wall_ms=wall * 1e3,
    )
    emit(
        f"dense_lam_{n}",
        "\n".join(
            [
                f"{n}-rank LAM AAPC, 64 KiB, incremental allocator:",
                "",
                f"  engine-loop wall clock: {wall:8.2f}s  (budget {BUDGET_LAM_S:.0f}s)",
                f"  simulated completion:   {result.completion_time * 1e3:8.2f} ms",
                f"  peak concurrent flows:  {result.peak_concurrent_flows:>8d}",
            ]
        ),
    )
    assert wall <= BUDGET_LAM_S, (
        f"{n}-rank LAM engine loop took {wall:.1f}s > {BUDGET_LAM_S:.0f}s budget"
    )


@pytest.mark.slow
def test_cluster_scale_1024rank_budget(emit):
    """1024-rank bruck AAPC completes inside the wall-clock budget.

    The run (and any earlier scale points from this module) is recorded
    in the ledger with ``sim_wall_ms``; CI's ``report regress`` gate
    compares it against the committed ``baseline_scaling.json``.
    """
    topo = cluster(1024)
    result, wall = _timed_aapc(topo, "bruck", "incremental")
    _LEDGER_ENTRIES["bruck-1024"] = AlgorithmEntry(
        completion_time_ms=result.completion_time * 1e3,
        sim_wall_ms=wall * 1e3,
    )
    _record_scale_sweep(topo)
    emit(
        "cluster_scale_1024",
        "\n".join(
            [
                "1024-rank bruck AAPC, 64 KiB, incremental allocator:",
                "",
                f"  engine-loop wall clock: {wall:8.2f}s  (budget {BUDGET_1024_S:.0f}s)",
                f"  simulated completion:   {result.completion_time:8.2f} s",
                f"  engine events:          {result.events_processed:>10d}",
                f"  bytes delivered:        {result.bytes_delivered:.3e}",
            ]
        ),
    )
    assert len(result.rank_finish) == 1024
    assert wall <= BUDGET_1024_S, (
        f"1024-rank engine loop took {wall:.1f}s > {BUDGET_1024_S:.0f}s budget"
    )
