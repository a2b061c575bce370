"""The run pipeline: build → run → analyze → export in one place."""

from __future__ import annotations

import json

import pytest

from repro.harness.pipeline import build, run_pipeline
from repro.obs.ledger import AlgorithmEntry
from repro.obs.telemetry import load_metrics
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.builder import paper_example_cluster

MSIZE = 8 * 1024


@pytest.fixture
def topo():
    return paper_example_cluster()


class TestRun:
    def test_matches_a_direct_run(self, topo):
        params = NetworkParams(seed=3)
        built = build(topo, "generated", MSIZE)
        direct = run_programs(topo, built.programs, MSIZE, params)
        outcome = run_pipeline(topo, "generated", MSIZE, params, built=built)
        assert outcome.result.completion_time == direct.completion_time
        assert outcome.built is built
        assert outcome.name == "generated"
        assert outcome.label.startswith("generated")

    def test_build_is_profiled_and_attached(self, topo):
        outcome = run_pipeline(
            topo, "generated", MSIZE, NetworkParams(), telemetry=True
        )
        assert outcome.built.seconds > 0
        assert outcome.built.profile.spans
        assert outcome.telemetry.pipeline is outcome.built.profile

    def test_stats_cover_the_run(self, topo):
        outcome = run_pipeline(
            topo, "lam", MSIZE, NetworkParams(), stats=True
        )
        assert outcome.result.stats["counters"]["engine.events_total"] > 0
        plain = run_pipeline(topo, "lam", MSIZE, NetworkParams())
        assert plain.result.stats is None

    def test_no_telemetry_skips_analyses_and_exports(self, topo, tmp_path):
        path = tmp_path / "m.json"
        outcome = run_pipeline(
            topo, "generated", MSIZE, NetworkParams(),
            audit=True, attribution=True, metrics_out=str(path),
        )
        assert outcome.audit is None and outcome.attribution is None
        assert not outcome.analysis_errors
        assert not path.exists()


class TestAnalyses:
    def test_clean_run_has_no_errors(self, topo, tmp_path):
        metrics = tmp_path / "m.json"
        outcome = run_pipeline(
            topo, "generated", MSIZE, NetworkParams(), telemetry=True,
            audit=True, attribution=True, metrics_out=str(metrics),
        )
        assert outcome.audit is not None
        assert outcome.attribution is not None
        assert outcome.analysis_errors == {}
        data = load_metrics(str(metrics))
        assert "analysis_errors" not in data
        assert "phase_audit" in data and "attribution" in data
        entry = outcome.entry().as_dict()
        assert "analysis_errors" not in entry
        assert "critical_path" not in entry["attribution"]

    def test_repro_error_is_recorded_not_swallowed(
        self, topo, tmp_path, capsys
    ):
        metrics = tmp_path / "m.json"
        outcome = run_pipeline(
            topo, "generated", MSIZE, NetworkParams(), telemetry=True,
            trace_cap=5, attribution=True, metrics_out=str(metrics),
        )
        assert outcome.attribution is None
        message = outcome.analysis_errors["attribution"]
        assert "ring buffer dropped" in message
        assert "warning: attribution failed: " in capsys.readouterr().err
        assert load_metrics(str(metrics))["analysis_errors"] == {
            "attribution": message
        }
        entry = outcome.entry()
        assert entry.analysis_errors == {"attribution": message}
        again = AlgorithmEntry.from_dict(
            json.loads(json.dumps(entry.as_dict()))
        )
        assert again.analysis_errors == {"attribution": message}

    def test_other_exceptions_propagate(self, topo, monkeypatch):
        import repro.harness.pipeline as pipeline

        def broken(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(pipeline, "explain_telemetry", broken)
        with pytest.raises(KeyError):
            run_pipeline(
                topo, "generated", MSIZE, NetworkParams(), telemetry=True,
                attribution=True,
            )


class TestFaults:
    def _plan(self):
        from repro.faults.plan import FaultPlan, SyncFault

        return FaultPlan(
            name="loss", seed=7, sync_faults=[SyncFault(loss=0.2)]
        )

    def test_resilient_run_is_never_audited(self, topo):
        outcome = run_pipeline(
            topo, "generated", MSIZE, NetworkParams(), faults=self._plan(),
            telemetry=True, audit=True,
        )
        assert outcome.resilient is not None and outcome.completed
        assert outcome.built is None
        assert outcome.audit is None and not outcome.analysis_errors
        assert outcome.telemetry.phase_audit is None
        entry = outcome.entry()
        assert entry.telemetry["algorithm_used"] == "generated"
        assert entry.scheduler_runtime_ms is None

    def test_plain_injection_keeps_the_build(self, topo):
        outcome = run_pipeline(
            topo, "generated", MSIZE, NetworkParams(), faults=self._plan(),
            resilient=False,
        )
        assert outcome.resilient is None
        assert outcome.built is not None
        assert outcome.result.fault_stats is not None

    def test_resilient_run_rejects_a_live_monitor(self, topo, tmp_path):
        from repro.errors import ReproError

        path = tmp_path / "s.jsonl"
        with pytest.raises(ReproError, match="no\\s+live monitor"):
            run_pipeline(
                topo, "generated", MSIZE, NetworkParams(),
                faults=self._plan(), stats_out=str(path),
            )
        assert not path.exists()
