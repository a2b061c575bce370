"""Edge cases of the flight recorder: degenerate runs, ring buffer,
schema-versioned report loading."""

from __future__ import annotations

import io
import json

import pytest

from repro.algorithms import get_algorithm
from repro.errors import ReproError
from repro.obs.perfetto import perfetto_trace
from repro.obs.telemetry import (
    METRICS_SCHEMA_VERSION,
    load_metrics,
    loads_metrics,
)
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.sim.trace import Trace
from repro.topology.builder import single_switch


class TestDegenerateRuns:
    def test_single_rank_run_yields_valid_empty_metrics(self):
        topo = single_switch(1)
        programs = get_algorithm("lam").build_programs(topo, 1024)
        run = run_programs(
            topo, programs, 1024, NetworkParams(seed=0), telemetry=True
        )
        assert run.telemetry is not None
        metrics = run.telemetry.metrics_dict()
        assert metrics["schema"] == METRICS_SCHEMA_VERSION
        assert metrics["num_ranks"] == 1
        assert metrics["flows"]["count"] == 0
        assert metrics["total_contention_events"] == 0
        assert metrics["contention_free_verified"] is True
        # The whole report must be JSON-serialisable despite being empty.
        assert loads_metrics(json.dumps(metrics)) == json.loads(
            json.dumps(metrics)
        )

    def test_single_rank_perfetto_trace_is_valid(self):
        topo = single_switch(1)
        programs = get_algorithm("lam").build_programs(topo, 1024)
        run = run_programs(
            topo, programs, 1024, NetworkParams(seed=0), telemetry=True
        )
        trace = perfetto_trace(run.telemetry)
        json.dumps(trace)  # must serialise
        assert isinstance(trace["traceEvents"], list)
        assert trace["otherData"]["contention_free_verified"] is True

    def test_two_rank_run_summary_renders(self):
        topo = single_switch(2)
        programs = get_algorithm("lam").build_programs(topo, 1024)
        run = run_programs(
            topo, programs, 1024, NetworkParams(seed=0), telemetry=True
        )
        text = run.telemetry.summary()
        assert "completion" in text
        assert "2 ranks" in text


class TestRingBufferEviction:
    def _full_trace(self) -> Trace:
        trace = Trace(max_records=3)
        for i in range(5):
            trace.add(float(i), f"n{i % 2}", "post_isend", phase=i % 2)
        return trace

    def test_eviction_counts_survive(self):
        trace = self._full_trace()
        assert trace.dropped == 2
        assert len(trace.records) == 3

    def test_dropped_unchanged_by_of_phase_and_between(self):
        trace = self._full_trace()
        in_phase = trace.of_phase(0)
        window = trace.between(2.0, 4.0)
        assert trace.dropped == 2  # queries never mutate the counter
        assert all(r.phase == 0 for r in in_phase)
        assert [r.time for r in window] == [2.0, 3.0, 4.0]
        # Re-query: results stable, counter still intact.
        assert trace.of_phase(0) == in_phase
        assert trace.dropped == 2

    def test_queries_see_only_surviving_records(self):
        trace = self._full_trace()
        times = sorted(r.time for r in trace.records)
        assert times == [2.0, 3.0, 4.0]
        assert trace.of_phase(1) == [
            r for r in trace.records if r.phase == 1
        ]


class TestMetricsLoading:
    def test_load_metrics_roundtrip_from_path(self, tmp_path):
        topo = single_switch(2)
        programs = get_algorithm("lam").build_programs(topo, 1024)
        run = run_programs(
            topo, programs, 1024, NetworkParams(seed=0), telemetry=True
        )
        path = str(tmp_path / "metrics.json")
        run.telemetry.write_metrics(path)
        data = load_metrics(path)
        assert data["schema"] == METRICS_SCHEMA_VERSION
        assert data["num_ranks"] == 2

    def test_future_schema_rejected(self):
        report = json.dumps({"schema": METRICS_SCHEMA_VERSION + 1})
        with pytest.raises(ReproError, match="upgrade repro"):
            loads_metrics(report)

    def test_schema_1_loads_and_schema_3_is_rejected(self):
        # Schema 2 dropped schedule_health.critical_path; older reports
        # that still carry it load unchanged.
        old = {
            "schema": 1,
            "schedule_health": {
                "phases": [],
                "critical_path": [{"phase": 0, "rank": "n0", "end_ms": 1.0}],
            },
        }
        assert loads_metrics(json.dumps(old)) == old
        with pytest.raises(ReproError, match="schema 3"):
            loads_metrics(json.dumps({"schema": 3}))

    def test_invalid_schema_rejected(self):
        with pytest.raises(ReproError, match="invalid schema"):
            loads_metrics(json.dumps({"schema": "two"}))

    def test_corrupt_json_rejected(self):
        with pytest.raises(ReproError, match="corrupt"):
            load_metrics(io.StringIO("{nope"))

    def test_non_object_rejected(self):
        with pytest.raises(ReproError, match="JSON object"):
            loads_metrics("[1, 2]")
