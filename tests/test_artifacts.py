"""The shared JSON artifact codec and every reader built on it."""

import io
import json

import pytest

from repro.algorithms import get_algorithm
from repro.errors import FaultPlanError, ReproError
from repro.faults.plan import load_fault_plan
from repro.harness.persistence import loads_result, result_to_dict
from repro.harness.runner import ExperimentResult
from repro.obs.attribution import load_attribution
from repro.obs.ledger import RunLedger, load_baseline
from repro.obs.metrics_registry import loads_snapshot
from repro.obs.perfetto import perfetto_trace, write_perfetto
from repro.obs.telemetry import load_metrics
from repro.core.schedule_io import load_schedule
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.builder import paper_example_cluster, single_switch


def _ledger(text, tmp_path):
    # Two copies, so the bad line is not the torn trailing append the
    # ledger forgives.
    (tmp_path / "ledger.jsonl").write_text(f"{text}\n{text}\n")
    return RunLedger(str(tmp_path)).records()


def _baseline(text, tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(text)
    return load_baseline(str(path))


READERS = {
    "metrics": lambda text, tmp: load_metrics(io.StringIO(text)),
    "attribution": lambda text, tmp: load_attribution(io.StringIO(text)),
    "stats": lambda text, tmp: loads_snapshot(text),
    "ledger": _ledger,
    "baseline": _baseline,
    "result": lambda text, tmp: loads_result(text),
    "schedule": lambda text, tmp: load_schedule(io.StringIO(text)),
    "fault-plan": lambda text, tmp: load_fault_plan(io.StringIO(text)),
}

#: Readers of documents that carry no ``schema`` key.
SCHEMALESS = {"fault-plan"}

CASES = {
    "corrupt": ('{"schema": 1', "corrupt"),
    "array": ("[1]", "JSON object"),
    "future": ('{"schema": 99}', "upgrade repro"),
    "invalid": ('{"schema": "x"}', "invalid schema"),
}


@pytest.mark.parametrize(
    "reader,case",
    [
        (reader, case)
        for reader in READERS
        for case in CASES
        if reader not in SCHEMALESS or case in ("corrupt", "array")
    ],
)
def test_reader_rejects(reader, case, tmp_path):
    text, match = CASES[case]
    with pytest.raises(ReproError, match=match) as info:
        READERS[reader](text, tmp_path)
    if reader == "fault-plan":
        assert isinstance(info.value, FaultPlanError)


@pytest.mark.parametrize("sink", ["path", "stream"])
def test_write_json_matches_dumps_across_batches(sink, tmp_path):
    from repro.artifacts import write_json

    data = {
        "schema": 1,
        "events": [{"i": i, "x": i / 7} for i in range(2500)],
        "empty": [],
        "nested": {"rows": list(range(3000))},
        "name": "café",
    }
    if sink == "path":
        path = tmp_path / "doc.json"
        write_json(str(path), data)
        text = path.read_text(encoding="utf-8")
    else:
        buf = io.StringIO()
        write_json(buf, data)
        text = buf.getvalue()
    assert text == json.dumps(data) + "\n"


def test_write_perfetto_matches_dumps(tmp_path):
    topo = paper_example_cluster()
    programs = get_algorithm("scheduled").build_programs(topo, 65536)
    telemetry = run_programs(
        topo, programs, 65536, NetworkParams(), telemetry=True
    ).telemetry
    path = tmp_path / "trace.json"
    write_perfetto(telemetry, str(path))
    assert path.read_text(encoding="utf-8") == (
        json.dumps(perfetto_trace(telemetry)) + "\n"
    )


def test_result_with_retired_pool_flows_key_loads():
    result = ExperimentResult("old", single_switch(2), NetworkParams())
    data = result_to_dict(result)
    data["params"]["pool_flows"] = False
    loaded = loads_result(json.dumps(data))
    assert loaded.params == NetworkParams()
