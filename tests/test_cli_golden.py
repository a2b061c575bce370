"""Golden lock-down of the CLI's run-shaped subcommands.

Every case runs one ``repro-aapc`` command in-process and captures what
it leaves behind: exit code, stdout, stderr, every artifact file it
writes (metrics JSON, Perfetto trace, report JSONs, stats JSONL) and
the ledger record it appends.  The capture is compared with the files
under ``tests/golden/cli/<case>/``.

Only fields that differ between two identical runs are masked:
wall-clock timings (pipeline span start/duration, ``wall_time_s``,
``scheduler_runtime_ms``, ``sim_wall_ms``, the live monitor's rates),
the Perfetto pipeline track (pid 5, which replays those timings), the
ledger's ``run_id`` / ``timestamp`` / ``git_sha``, and the temporary
directory in stdout.

A second golden, ``parser_defaults.json``, records the parsed-defaults
namespace of every subcommand so the set of flags and their defaults
cannot drift.

After an intended change, regenerate the goldens with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "cli"
REPO = Path(__file__).resolve().parent.parent

#: Pipeline-profile track of the Perfetto export: wall-clock spans.
_PERFETTO_PIPELINE_PID = 5
#: Monitor fields computed from the wall clock.
_MONITOR_WALL_FIELDS = ("events_per_sec", "sim_wall_ratio", "eta_s")
MASK = "<masked>"

_ARTIFACTS = [
    "--metrics-out", "{tmp}/metrics.json",
    "--trace-out", "{tmp}/trace.json",
    "--ledger-dir", "{tmp}/ledger",
]

CASES: Dict[str, List[str]] = {
    "simulate-fig1": [
        "simulate", "fig1", "--algorithms", "generated", "lam",
        *_ARTIFACTS, "--stats-out", "{tmp}/stats.jsonl",
    ],
    "simulate-two-switch": [
        "simulate", "examples/two-switch.topo",
        "--algorithms", "generated", "lam", *_ARTIFACTS,
    ],
    "simulate-faults": [
        "simulate", "fig1", "--algorithms", "generated", "lam",
        "--faults", "{tmp}/plan.json", *_ARTIFACTS,
    ],
    "trace-phases": [
        "trace", "fig1", "--phases", "-o", "{tmp}/trace.json",
        "--metrics-out", "{tmp}/metrics.json",
    ],
    "explain": [
        "explain", "fig1", "--no-noise", "--json-out",
        "{tmp}/attribution.json", "--trace-out", "{tmp}/trace.json",
        "--ledger-dir", "{tmp}/ledger",
    ],
    "phases": [
        "phases", "fig1", "--no-noise", "--json-out", "{tmp}/audit.json",
        "--trace-out", "{tmp}/trace.json", "--ledger-dir", "{tmp}/ledger",
    ],
    "gantt": ["gantt", "fig1", "--phases"],
    "inspect": ["inspect", "fig1"],
    "chaos": [
        "chaos", "fig1", "--msize", "16KB",
        "--diagnosis-out", "{tmp}/diagnosis.json",
        "--ledger-dir", "{tmp}/ledger",
    ],
    "repro": [
        "repro", "topology-a", "--sizes", "8KB", "--repetitions", "1",
        "--metrics-out", "{tmp}/metrics.json",
        "--ledger-dir", "{tmp}/ledger",
    ],
    "campaign": [
        "campaign", "--topologies", "1", "--msize", "8KB",
        "--repetitions", "1", "--ledger-dir", "{tmp}/ledger",
    ],
}

#: Minimal argv per subcommand for the parsed-defaults golden.
PARSER_ARGVS: Dict[str, List[str]] = {
    "analyze": ["analyze", "fig1"],
    "schedule": ["schedule", "fig1"],
    "codegen": ["codegen", "fig1"],
    "simulate": ["simulate", "fig1"],
    "trace": ["trace", "fig1"],
    "top": ["top", "fig1"],
    "dash": ["dash"],
    "explain": ["explain", "fig1"],
    "phases": ["phases", "fig1"],
    "stp": ["stp", "wiring.txt"],
    "gantt": ["gantt", "fig1"],
    "inspect": ["inspect", "fig1"],
    "campaign": ["campaign"],
    "repro": ["repro", "topology-a"],
    "chaos": ["chaos"],
    "report list": ["report", "list"],
    "report show": ["report", "show"],
    "report compare": ["report", "compare", "a", "b"],
    "report regress": ["report", "regress", "--baseline", "latest"],
    "report sentinel": ["report", "sentinel"],
}


def _write_fault_plan(tmp: Path) -> None:
    from repro.faults.plan import FaultPlan, SyncFault

    FaultPlan(
        name="loss", seed=7, sync_faults=[SyncFault(loss=0.2)]
    ).to_json(str(tmp / "plan.json"))


# ----------------------------------------------------------------------
# masking
# ----------------------------------------------------------------------
def _mask_spans(spans) -> None:
    for span in spans or []:
        for key in ("start_ms", "duration_ms"):
            if key in span:
                span[key] = MASK


def _mask_stats(stats) -> None:
    if isinstance(stats, dict) and "wall_time_s" in stats:
        stats["wall_time_s"] = MASK
        for key in _MONITOR_WALL_FIELDS:
            if key in stats.get("monitor", {}):
                stats["monitor"][key] = MASK


def _mask_metrics(data: dict) -> dict:
    _mask_spans(data.get("pipeline"))
    _mask_stats(data.get("stats"))
    return data


def _mask_perfetto(data: dict) -> dict:
    data["traceEvents"] = [
        e for e in data["traceEvents"]
        if e.get("pid") != _PERFETTO_PIPELINE_PID
    ]
    return data


def _mask_ledger_record(record: dict) -> dict:
    for key in ("run_id", "timestamp", "git_sha"):
        record[key] = MASK
    for entry in record.get("algorithms", {}).values():
        for key in ("scheduler_runtime_ms", "sim_wall_ms"):
            if key in entry:
                entry[key] = MASK
        _mask_spans(entry.get("pipeline"))
        _mask_stats(entry.get("stats"))
    return record


def _mask_json(data):
    if isinstance(data, dict) and "traceEvents" in data:
        return _mask_perfetto(data)
    if isinstance(data, dict) and "links" in data and "engine" in data:
        return _mask_metrics(data)
    return data


def _dump(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def capture(case: str, tmp: Path, capsys) -> Dict[str, str]:
    """Run *case* in *tmp* and return ``{golden file name: text}``."""
    from repro.obs.ledger import RunLedger

    tmp.mkdir(parents=True, exist_ok=True)
    if case == "simulate-faults":
        _write_fault_plan(tmp)
    before = {p.name for p in tmp.iterdir()}
    argv = [a.replace("{tmp}", str(tmp)) for a in CASES[case]]
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    files: Dict[str, str] = {
        "exit_code.txt": f"{code}\n",
        "stdout.txt": out.replace(str(tmp), "<tmp>"),
        "stderr.txt": err.replace(str(tmp), "<tmp>"),
    }
    for path in sorted(tmp.iterdir()):
        if path.name in before or path.is_dir():
            continue
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".jsonl":
            lines = [json.loads(line) for line in text.splitlines()]
            for snapshot in lines:
                _mask_stats(snapshot)
            files[path.name + ".json"] = _dump(lines)
        else:
            files[path.name] = _dump(_mask_json(json.loads(text)))
    ledger = tmp / "ledger"
    if ledger.is_dir():
        with open(RunLedger(str(ledger)).path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        files["ledger.json"] = _dump(
            [_mask_ledger_record(r) for r in records]
        )
    return files


def parser_defaults() -> str:
    parser = build_parser()
    namespaces = {}
    for name, argv in PARSER_ARGVS.items():
        ns = vars(parser.parse_args(argv))
        ns["func"] = ns["func"].__name__
        namespaces[name] = ns
    return _dump(namespaces)


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _repo_cwd(monkeypatch):
    # Cases name example topologies by repo-relative path.
    monkeypatch.chdir(REPO)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, tmp_path, capsys):
    got = capture(case, tmp_path / "run", capsys)
    golden = GOLDEN / case
    expected = sorted(p.name for p in golden.iterdir())
    assert sorted(got) == expected, "artifact set changed"
    for name in expected:
        want = (golden / name).read_text(encoding="utf-8")
        assert got[name] == want, f"{case}/{name} differs from the golden"


def test_parser_defaults_golden():
    want = (GOLDEN / "parser_defaults.json").read_text(encoding="utf-8")
    assert parser_defaults() == want


# ----------------------------------------------------------------------
# regeneration
# ----------------------------------------------------------------------
class _Capsys:
    """Minimal stand-in for pytest's capsys when regenerating."""

    def __init__(self) -> None:
        import io

        self._io = io
        self._start()

    def _start(self) -> None:
        self.out, self.err = self._io.StringIO(), self._io.StringIO()
        self._saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = self.out, self.err

    def readouterr(self):
        sys.stdout, sys.stderr = self._saved
        result = self.out.getvalue(), self.err.getvalue()
        self._start()
        return result

    def close(self) -> None:
        sys.stdout, sys.stderr = self._saved


def _regenerate(cases: List[str]) -> None:
    import shutil
    import tempfile

    os.chdir(REPO)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            os.environ["REPRO_AAPC_LEDGER_DIR"] = os.path.join(tmp, "default")
            capsys = _Capsys()
            try:
                files = capture(case, Path(tmp) / "run", capsys)
            finally:
                capsys.close()
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for name, text in files.items():
            (target / name).write_text(text, encoding="utf-8")
        print(f"wrote {target} ({len(files)} files)")
    (GOLDEN / "parser_defaults.json").write_text(
        parser_defaults(), encoding="utf-8"
    )


if __name__ == "__main__":
    _regenerate(sys.argv[1:] or sorted(CASES))
