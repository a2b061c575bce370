"""Schedule-health diagnostics: handcrafted traces and simulated runs."""

import pytest

from repro.algorithms import GeneratedAlltoall, get_algorithm
from repro.obs.diagnostics import schedule_health
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.sim.trace import Trace
from repro.topology.builder import paper_example_cluster
from repro.units import kib


def _two_phase_trace() -> Trace:
    trace = Trace()
    # Phase 0: n0 waits 0.2 s on a sync from n1; n1 closes the phase.
    trace.add(0.0, "n0", "post_isend", peer="n1", tag=1, phase=0)
    trace.add(0.1, "n0", "sync_wait", peer="n1", tag=9, phase=0)
    trace.add(0.3, "n0", "sync_recv", peer="n1", tag=9, phase=0)
    trace.add(0.05, "n1", "post_isend", peer="n0", tag=1, phase=0)
    trace.add(0.4, "n1", "complete_send", peer="n0", tag=1, phase=0)
    # Phase 1: starts after phase 0 ends (no overlap); n0 closes it.
    trace.add(0.5, "n1", "post_isend", peer="n0", tag=2, phase=1)
    trace.add(0.6, "n0", "post_isend", peer="n1", tag=2, phase=1)
    trace.add(0.9, "n0", "complete_send", peer="n1", tag=2, phase=1)
    return trace


class TestHandcrafted:
    def test_phase_spans_sync_wait_and_drift(self):
        health = schedule_health(_two_phase_trace())
        assert [p.phase for p in health.phases] == [0, 1]
        p0, p1 = health.phases
        assert p0.start == pytest.approx(0.0)
        assert p0.end == pytest.approx(0.4)
        assert p0.span == pytest.approx(0.4)
        assert p0.sync_wait == pytest.approx(0.2)
        assert p0.drift == pytest.approx(0.05)  # n0 first at 0.0, n1 at 0.05
        assert p1.sync_wait == 0.0
        assert p1.drift == pytest.approx(0.1)
        assert health.total_sync_wait == pytest.approx(0.2)
        assert health.max_drift == pytest.approx(0.1)

    def test_bottleneck_ranks(self):
        health = schedule_health(_two_phase_trace())
        assert health.phases[0].bottleneck_rank == "n1"
        assert health.phases[1].bottleneck_rank == "n0"

    def test_no_overlap_between_disjoint_phases(self):
        health = schedule_health(_two_phase_trace())
        assert health.overlap_fraction == 0.0

    def test_unmatched_sync_wait_is_not_counted(self):
        trace = Trace()
        trace.add(0.0, "n0", "sync_wait", peer="n1", tag=9, phase=0)
        trace.add(0.5, "n0", "post_isend", peer="n1", tag=1, phase=0)
        health = schedule_health(trace)
        assert health.total_sync_wait == 0.0

    def test_untagged_trace_yields_no_phases(self):
        trace = Trace()
        trace.add(0.0, "n0", "post_isend", peer="n1", tag=1)
        health = schedule_health(trace)
        assert health.phases == []
        assert health.total_sync_wait == 0.0
        assert health.max_drift == 0.0
        assert health.contention_free_verified is None

    def test_as_dict_round_trips_to_json_types(self):
        import json

        health = schedule_health(_two_phase_trace())
        text = json.dumps(health.as_dict())
        back = json.loads(text)
        assert back["total_sync_wait_ms"] == pytest.approx(200.0)
        assert len(back["phases"]) == 2
        assert back["phases"][0]["bottleneck_rank"] == "n1"
        assert "critical_path" not in back


class TestSimulatedRuns:
    def _run(self, algorithm):
        topo = paper_example_cluster()
        msize = kib(64)
        programs = algorithm.build_programs(topo, msize)
        return run_programs(topo, programs, msize, NetworkParams(),
                            telemetry=True)

    def test_sync_wait_nonzero_only_for_synchronized_programs(self):
        synced = self._run(GeneratedAlltoall())
        unsynced = self._run(GeneratedAlltoall(sync_mode="none"))
        assert synced.telemetry.health.total_sync_wait > 0.0
        assert unsynced.telemetry.health.total_sync_wait == 0.0

    def test_contention_verdict_flows_through(self):
        scheduled = self._run(get_algorithm("scheduled"))
        lam = self._run(get_algorithm("lam"))
        assert scheduled.telemetry.health.contention_free_verified is True
        assert lam.telemetry.health.contention_free_verified is False

    def test_phases_cover_schedule(self):
        run = self._run(GeneratedAlltoall())
        health = run.telemetry.health
        assert len(health.phases) >= 2
        assert {p.bottleneck_rank for p in health.phases} <= set(
            run.telemetry.machines
        )
        # Phases are reported in schedule order and have positive spans.
        assert [p.phase for p in health.phases] == sorted(
            p.phase for p in health.phases
        )
        assert all(p.span > 0 for p in health.phases)
