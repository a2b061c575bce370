"""CLI behaviour that rides on the shared run pipeline."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

TWO_SWITCH = str(Path(__file__).parent.parent / "examples" / "two-switch.topo")


@pytest.fixture
def loss_plan(tmp_path):
    from repro.faults.plan import FaultPlan, SyncFault

    path = str(tmp_path / "loss.json")
    FaultPlan(name="loss", seed=7, sync_faults=[SyncFault(loss=0.2)]).to_json(
        path
    )
    return path


class TestAnalysisErrors:
    def test_trace_cap_records_attribution_failure(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main([
            "trace", "fig1", "--trace-cap", "5", "-o",
            str(tmp_path / "t.json"), "--metrics-out", str(metrics),
        ]) == 0
        data = json.loads(metrics.read_text())
        assert "ring buffer dropped" in data["analysis_errors"]["attribution"]
        assert "warning: attribution failed:" in capsys.readouterr().err

    def test_repro_cells_carry_analysis_errors(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        metrics = tmp_path / "m.json"
        ledger = str(tmp_path / "led")
        assert main([
            "repro", "topology-a", "--sizes", "8KB", "--repetitions", "1",
            "--trace-cap", "5", "--metrics-out", str(metrics),
            "--ledger-dir", ledger,
        ]) == 0
        cells = json.loads(metrics.read_text())["cells"]
        assert cells
        for cell in cells:
            assert "attribution" in cell["analysis_errors"]
        (record,) = RunLedger(ledger).records()
        for entry in record.algorithms.values():
            assert "attribution" in entry.analysis_errors

    def test_clean_simulate_has_no_analysis_errors(self, tmp_path):
        from repro.obs.ledger import RunLedger

        metrics = tmp_path / "m.json"
        ledger = str(tmp_path / "led")
        assert main([
            "simulate", TWO_SWITCH, "--algorithm",
            "scheduled", "--metrics-out", str(metrics),
            "--ledger-dir", ledger,
        ]) == 0
        assert "analysis_errors" not in json.loads(metrics.read_text())
        (record,) = RunLedger(ledger).records()
        (entry,) = record.algorithms.values()
        assert entry.analysis_errors is None
        assert entry.phase_audit is not None


class TestSimulateFaultConflicts:
    @pytest.mark.parametrize("extra", [
        ["--stats-out", "{tmp}/s.jsonl"],
        ["--metrics-interval", "0.1"],
    ])
    def test_rejected_before_any_run(self, tmp_path, loss_plan, capsys, extra):
        argv = [
            "simulate", "fig1", "--faults", loss_plan,
            "--metrics-out", str(tmp_path / "m.json"),
            "--ledger-dir", str(tmp_path / "led"),
            *[a.replace("{tmp}", str(tmp_path)) for a in extra],
        ]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro-aapc: error: --faults")
        for name in ("s.jsonl", "m.json", "led"):
            assert not (tmp_path / name).exists()


class TestCampaignAllocator:
    def test_allocator_flag_reaches_the_simulator(self, monkeypatch, capsys):
        import repro.sim.network as network

        seen = []
        real = network.make_allocator

        def spy(name, net):
            seen.append(name)
            return real(name, net)

        monkeypatch.setattr(network, "make_allocator", spy)
        assert main([
            "campaign", "--topologies", "1", "--msize", "8KB",
            "--repetitions", "1", "--allocator", "reference", "--no-ledger",
        ]) == 0
        assert seen and set(seen) == {"reference"}


class TestDashboardErrors:
    def test_sentinel_failure_propagates(self, tmp_path, monkeypatch):
        import repro.obs.sentinel as sentinel
        from repro.obs.dashboard import write_dashboard
        from repro.obs.ledger import RunLedger

        ledger = str(tmp_path / "led")
        assert main(["simulate", "fig1", "--algorithm", "lam", "--msize",
                     "8KB", "--ledger-dir", ledger]) == 0

        def broken(*args, **kwargs):
            raise RuntimeError("sentinel bug")

        monkeypatch.setattr(sentinel, "run_sentinel", broken)
        with pytest.raises(RuntimeError, match="sentinel bug"):
            write_dashboard(
                RunLedger(ledger).records(), str(tmp_path / "d.html")
            )
