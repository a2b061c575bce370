"""Tests of the benchmark itself, on the few-machine smoke workloads.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.program import OpKind, Program  # noqa: E402
from spans import SpanRecorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

SMOKE = [workloads.WORKLOADS[w["name"]].smoke for w in SPEC["workloads"]]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("smoke", SMOKE)
def test_every_metric_is_printed_with_its_unit(smoke, trace, tmp_path):
    env = dict(os.environ, REPRO_AAPC_LEDGER_DIR=str(tmp_path / "ledger"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", smoke,
         "--seed", "0", "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_JOBS
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in wanted:
        assert f"{m['name']} " in proc.stdout
        assert f" {m['unit']}\n" in proc.stdout
    # Ledger records go to the run's temporary directory only, and no
    # job artifact outlives the run.
    assert not (tmp_path / "ledger").exists()
    leftovers = [n for n in os.listdir(os.path.join(BENCH_DIR, "out"))
                 if n.startswith("tmp-")]
    assert leftovers == []


def test_layer_map_covers_every_per_layer_metric():
    path = os.path.join(BENCH_DIR, "layers.json")
    with open(path, "r", encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    mapped = [name for layer in layers.values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    names = {w["name"] for w in SPEC["workloads"]}
    ends = {m["name"] for m in SPEC["end_to_end"]}
    for layer in layers.values():
        for move in layer["moves"]:
            assert move["workload"] in names and move["metric"] in ends


def _run_main(capsys, monkeypatch, workload):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", "")
    code = run.main(["--workload", workload, "--seed", "0",
                     "--seconds", "0.3", "--trace", "0"])
    out, err = capsys.readouterr()
    return code, _last_json(out), err


def test_a_removed_send_op_counts_the_job_as_failed(capsys, monkeypatch):
    real = workloads.get_algorithm
    calls = []

    class DropOneSend:
        def __init__(self, inner):
            self.inner = inner
            self.name = inner.name

        def build_programs(self, topology, msize):
            programs = self.inner.build_programs(topology, msize)
            rank, program = next(iter(programs.items()))
            ops = list(program.ops)
            ops.remove(next(op for op in ops if op.kind == OpKind.ISEND))
            programs[rank] = Program(rank, ops)
            return programs

    def sabotaged(name):
        calls.append(name)
        # Call 1 is the warm-up; call 2 the first timed job.
        return DropOneSend(real(name)) if len(calls) == 2 else real(name)

    monkeypatch.setattr(workloads, "get_algorithm", sabotaged)
    code, result, err = _run_main(capsys, monkeypatch, "scheduled-fig1")
    assert code == 0
    assert result["failed"] == 1 and result["attempted"] >= 2
    assert result["correct"] is False
    assert "deadlock" in err


def test_a_perturbed_reference_counts_every_job_as_failed(capsys, monkeypatch):
    real = workloads.load_references
    calls = []

    def perturbed():
        calls.append(1)
        refs = real()
        if len(calls) == 1:  # the warm-up's inputs
            return refs
        return {k: v * (1 + 1e-6) for k, v in refs.items()}

    monkeypatch.setattr(workloads, "load_references", perturbed)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", "")
    with pytest.raises(SystemExit, match="every job failed"):
        run.main(["--workload", "lam-fig1", "--seed", "0",
                  "--seconds", "0.3", "--trace", "0"])
    err = capsys.readouterr().err
    assert err.count("differs from the committed reference") >= run.MIN_JOBS


def test_a_reference_within_1e9_passes():
    inputs = workloads.make_inputs(workloads.WORKLOADS["lam-fig1"], 0)
    inputs.reference *= 1 + 5e-10
    out = os.path.join(BENCH_DIR, "out")
    os.makedirs(out, exist_ok=True)
    job = workloads.run_job(inputs, SpanRecorder(), 0, out)
    job.remove_artifacts()


def test_unpaired_perfetto_events_fail_the_run_checks():
    from repro.sim.executor import run_programs

    inputs = workloads.make_inputs(workloads.WORKLOADS["observe-fig1"], 3)
    out = os.path.join(BENCH_DIR, "out")
    os.makedirs(out, exist_ok=True)
    job = workloads.run_job(inputs, SpanRecorder(), 0, out)
    try:
        off = run_programs(inputs.topology, job.programs, workloads.MSIZE,
                           inputs.params)
        assert workloads.check_observed_job(inputs, job, off) > 0
        with open(job.perfetto_path, "r", encoding="utf-8") as fh:
            trace = json.load(fh)
        trace["traceEvents"].remove(
            next(e for e in trace["traceEvents"] if e["ph"] == "e"))
        with open(job.perfetto_path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        with pytest.raises(workloads.JobFailure, match="without their 'e'"):
            workloads.check_observed_job(inputs, job, off)
    finally:
        job.remove_artifacts()


def test_self_times_subtract_child_spans():
    spans = SpanRecorder()
    with spans.span("job", 7):
        with spans.span("core.build", 7):
            pass
        with spans.span("obs.write_metrics", 7):
            pass
    job, build, write = spans.spans
    own = spans.self_times(7)
    assert own["job"] == pytest.approx(
        job.duration - build.duration - write.duration)
    assert sum(own.values()) == pytest.approx(job.duration)
