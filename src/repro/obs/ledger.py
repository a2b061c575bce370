"""Persistent, append-only run ledger: cross-run metrics that survive.

Every ``simulate`` / ``repro`` / ``campaign`` invocation appends one
schema-versioned JSON line to ``<ledger-dir>/ledger.jsonl`` recording
what ran (git SHA, topology fingerprint, parameters), how it performed
(per-algorithm completion times, telemetry summary) and how much the
offline pipeline cost (scheduler runtime, span timings from
:mod:`repro.obs.profiling`).  The ``repro-aapc report`` CLI family
reads it back: ``list`` / ``show`` / ``compare`` / ``regress`` — the
last one is the CI perf gate, exiting non-zero when completion time or
scheduler runtime regresses past a threshold against a baseline.

The default location is ``~/.cache/repro-aapc/ledger/`` and can be
overridden per call (``--ledger-dir``) or globally via the
``REPRO_AAPC_LEDGER_DIR`` environment variable.  The format is JSONL:
append-only, mergeable, trivially greppable.
"""

from __future__ import annotations

import hashlib
import io
import logging
import os
import subprocess
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro._version import __version__
from repro.artifacts import check_schema, dumps_json, read_json
from repro.errors import ReproError
from repro.obs.metrics_registry import validate_stats
from repro.units import format_duration_ms

logger = logging.getLogger("repro.obs.ledger")

#: Version of the ledger record schema.  Bump on incompatible change;
#: readers reject records from the future with a clear error.
LEDGER_SCHEMA_VERSION = 1

LEDGER_FILENAME = "ledger.jsonl"

#: Environment variable overriding the default ledger directory.
LEDGER_DIR_ENV = "REPRO_AAPC_LEDGER_DIR"


def default_ledger_dir() -> str:
    """``$REPRO_AAPC_LEDGER_DIR`` or ``~/.cache/repro-aapc/ledger``."""
    env = os.environ.get(LEDGER_DIR_ENV)
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro-aapc", "ledger"
    )


def topology_fingerprint(topology) -> str:
    """Short content hash of a topology's canonical text form.

    Two topologies fingerprint equal iff their serialised descriptions
    match (same nodes, links and rank order) — the key that keeps runs
    on different clusters from being compared as like-for-like.
    """
    from repro.topology.serialization import dumps_topology

    text = dumps_topology(topology)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def current_git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The checked-out commit, or None outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    return sha or None


# ----------------------------------------------------------------------
# record model
# ----------------------------------------------------------------------
@dataclass
class AlgorithmEntry:
    """Per-algorithm measurements inside one run record."""

    completion_time_ms: float
    throughput_mbps: Optional[float] = None
    #: Wall-clock cost of building the programs (the offline pipeline).
    scheduler_runtime_ms: Optional[float] = None
    #: Wall-clock cost of the simulator's engine loop for this run —
    #: the raw-speed budget the scaling bench gates on.
    sim_wall_ms: Optional[float] = None
    #: Condensed flight-recorder summary (contention verdict etc.).
    telemetry: Optional[Dict[str, object]] = None
    #: Pipeline profiler spans (``PipelineProfile.as_dicts()`` form).
    pipeline: Optional[List[Dict[str, object]]] = None
    #: Optimality-gap attribution (``AttributionReport.as_dict()``).
    attribution: Optional[Dict[str, object]] = None
    #: Hot-path metrics snapshot (the schema-versioned ``stats``
    #: envelope from :mod:`repro.obs.metrics_registry`).
    stats: Optional[Dict[str, object]] = None
    #: Condensed phase-observatory verdict
    #: (``PhaseAuditReport.summary_dict()``): per-phase predicted-vs-
    #: observed divergence counts and the contention-free certificate
    #: check, kept per run so the dashboard can heatmap phase health
    #: over history.
    phase_audit: Optional[Dict[str, object]] = None
    #: ``{analysis: message}`` for each requested analysis that failed
    #: on this run (absent when every analysis succeeded).
    analysis_errors: Optional[Dict[str, str]] = None

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "completion_time_ms": self.completion_time_ms,
        }
        if self.throughput_mbps is not None:
            data["throughput_mbps"] = self.throughput_mbps
        if self.scheduler_runtime_ms is not None:
            data["scheduler_runtime_ms"] = self.scheduler_runtime_ms
        if self.sim_wall_ms is not None:
            data["sim_wall_ms"] = self.sim_wall_ms
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
        if self.pipeline is not None:
            data["pipeline"] = self.pipeline
        if self.attribution is not None:
            data["attribution"] = self.attribution
        if self.stats is not None:
            data["stats"] = self.stats
        if self.phase_audit is not None:
            data["phase_audit"] = self.phase_audit
        if self.analysis_errors:
            data["analysis_errors"] = self.analysis_errors
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AlgorithmEntry":
        stats = data.get("stats")
        if stats is not None:
            validate_stats(stats)
        return cls(
            completion_time_ms=float(data["completion_time_ms"]),
            throughput_mbps=data.get("throughput_mbps"),
            scheduler_runtime_ms=data.get("scheduler_runtime_ms"),
            sim_wall_ms=data.get("sim_wall_ms"),
            telemetry=data.get("telemetry"),
            pipeline=data.get("pipeline"),
            attribution=data.get("attribution"),
            stats=stats,
            phase_audit=data.get("phase_audit"),
            analysis_errors=data.get("analysis_errors"),
        )


@dataclass
class RunRecord:
    """One ledger line: everything needed to compare runs later."""

    run_id: str
    timestamp: str
    command: str
    topology_spec: str
    topology_fingerprint: str
    num_machines: int
    msize: Optional[int]
    params: Dict[str, object]
    algorithms: Dict[str, AlgorithmEntry]
    git_sha: Optional[str] = None
    #: ``{"name": ..., "fingerprint": ...}`` of the fault plan the run
    #: executed under, when chaos was injected.
    fault_plan: Optional[Dict[str, str]] = None
    schema: int = LEDGER_SCHEMA_VERSION
    repro_version: str = __version__

    @classmethod
    def new(
        cls,
        command: str,
        *,
        topology_spec: str,
        topology_fingerprint: str,
        num_machines: int,
        msize: Optional[int],
        params: Dict[str, object],
        algorithms: Dict[str, AlgorithmEntry],
        fault_plan: Optional[Dict[str, str]] = None,
    ) -> "RunRecord":
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        return cls(
            run_id=f"{time.strftime('%Y%m%d-%H%M%S', time.gmtime())}"
            f"-{uuid.uuid4().hex[:6]}",
            timestamp=stamp + "Z",
            command=command,
            topology_spec=topology_spec,
            topology_fingerprint=topology_fingerprint,
            num_machines=num_machines,
            msize=msize,
            params=params,
            algorithms=algorithms,
            git_sha=current_git_sha(),
            fault_plan=fault_plan,
        )

    @property
    def fault_fingerprint(self) -> Optional[str]:
        """The fault plan's fingerprint, or ``None`` for a clean run.

        Partition key for comparisons: a chaos run must never be
        gated against a clean baseline (or against a different plan).
        """
        if not self.fault_plan:
            return None
        return self.fault_plan.get("fingerprint") or self.fault_plan.get(
            "name"
        )

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema": self.schema,
            "repro_version": self.repro_version,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "command": self.command,
            "git_sha": self.git_sha,
            "topology": {
                "spec": self.topology_spec,
                "fingerprint": self.topology_fingerprint,
                "num_machines": self.num_machines,
            },
            "msize": self.msize,
            "params": self.params,
            "algorithms": {
                name: entry.as_dict()
                for name, entry in sorted(self.algorithms.items())
            },
        }
        if self.fault_plan is not None:
            data["fault_plan"] = self.fault_plan
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        schema = check_schema(
            data, "ledger record", LEDGER_SCHEMA_VERSION, None
        )
        topo = data.get("topology") or {}
        return cls(
            run_id=str(data["run_id"]),
            timestamp=str(data.get("timestamp", "")),
            command=str(data.get("command", "")),
            topology_spec=str(topo.get("spec", "")),
            topology_fingerprint=str(topo.get("fingerprint", "")),
            num_machines=int(topo.get("num_machines", 0)),
            msize=data.get("msize"),
            params=dict(data.get("params") or {}),
            algorithms={
                name: AlgorithmEntry.from_dict(entry)
                for name, entry in (data.get("algorithms") or {}).items()
            },
            git_sha=data.get("git_sha"),
            fault_plan=data.get("fault_plan"),
            schema=schema,
            repro_version=str(data.get("repro_version", "")),
        )


# ----------------------------------------------------------------------
# the ledger store
# ----------------------------------------------------------------------
#: Sentinel for :meth:`RunLedger.find`: no fault-partition filtering.
_ANY_FAULT = object()


class RunLedger:
    """Append/read interface over one ledger directory."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or default_ledger_dir()

    @property
    def path(self) -> str:
        return os.path.join(self.directory, LEDGER_FILENAME)

    def append(self, record: RunRecord) -> str:
        """Append one record as a JSON line; returns the ledger path.

        The line (payload + newline) is written with a single
        ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
        writers (parallel CI shards sharing a ledger) interleave whole
        records rather than torn fragments.
        """
        os.makedirs(self.directory, exist_ok=True)
        payload = dumps_json(record.as_dict()).encode("utf-8")
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        logger.info(
            "ledger: appended run %s (%s on %s) to %s",
            record.run_id,
            record.command,
            record.topology_spec,
            self.path,
        )
        return self.path

    def records(self, *, skip_unreadable: bool = False) -> List[RunRecord]:
        """All records, oldest first.

        A corrupt or truncated *final* line — the signature of a crash
        or full disk mid-append — is skipped with a logged warning so
        one bad shutdown does not brick the whole ledger.  By default,
        corruption anywhere *before* the last line still raises: that
        is not a torn append but real damage, and silently dropping
        records would skew every later comparison.

        With ``skip_unreadable=True`` (the sentinel's history scan),
        every unreadable line — mid-file corruption *and* records from
        a newer schema this version cannot parse — is skipped with a
        warning instead: a time-series sweep over months of history
        should degrade gracefully rather than refuse to look at
        anything because one record is from the future.
        """
        if not os.path.exists(self.path):
            return []
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        numbered = [
            (lineno, line.strip())
            for lineno, line in enumerate(lines, start=1)
            if line.strip()
        ]
        out: List[RunRecord] = []
        for i, (lineno, line) in enumerate(numbered):
            try:
                data = read_json(
                    io.StringIO(line), f"ledger line {lineno} in {self.path}"
                )
            except ReproError as exc:
                if i == len(numbered) - 1:
                    logger.warning(
                        "ledger: skipping corrupt trailing line "
                        "(truncated append?): %s",
                        exc,
                    )
                    continue
                if skip_unreadable:
                    logger.warning("ledger: skipping %s", exc)
                    continue
                raise
            try:
                out.append(RunRecord.from_dict(data))
            except ReproError as exc:
                if skip_unreadable:
                    logger.warning(
                        "ledger: skipping unreadable record on line %d "
                        "in %s: %s",
                        lineno,
                        self.path,
                        exc,
                    )
                    continue
                raise
        return out

    def find(self, ref: str, fault_fingerprint=_ANY_FAULT) -> RunRecord:
        """Resolve *ref*: ``latest``, a run id, or a unique id prefix.

        When *fault_fingerprint* is given (``None`` = clean runs only,
        a string = that fault plan), ``latest`` resolves within that
        partition, so e.g. ``report regress`` against a clean baseline
        never silently picks up a chaos run that happened to land last.
        """
        records = self.records()
        if not records:
            raise ReproError(f"ledger {self.path} is empty")
        if fault_fingerprint is not _ANY_FAULT and ref == "latest":
            records = [
                r for r in records
                if r.fault_fingerprint == fault_fingerprint
            ]
            if not records:
                label = fault_fingerprint or "clean (no fault plan)"
                raise ReproError(
                    f"ledger {self.path} has no runs in fault partition "
                    f"{label!r}"
                )
        if ref == "latest":
            return records[-1]
        matches = [r for r in records if r.run_id.startswith(ref)]
        if not matches:
            raise ReproError(
                f"no run matching {ref!r} in {self.path} "
                f"({len(records)} records)"
            )
        exact = [r for r in matches if r.run_id == ref]
        if exact:
            return exact[-1]
        ids = {r.run_id for r in matches}
        if len(ids) > 1:
            raise ReproError(
                f"ambiguous run reference {ref!r}: matches {sorted(ids)[:5]}"
            )
        return matches[-1]


def load_baseline(ref: str, ledger: Optional[RunLedger] = None) -> RunRecord:
    """A baseline for ``report regress``: a JSON file path or a run ref.

    A file may hold either a full run record or a bare
    ``{"algorithms": {...}}`` mapping (the committed-baseline form).
    """
    if os.path.exists(ref):
        what = f"baseline file {ref}"
        data = read_json(ref, what)
        if "run_id" in data:
            return RunRecord.from_dict(data)
        check_schema(data, what, LEDGER_SCHEMA_VERSION, LEDGER_SCHEMA_VERSION)
        return RunRecord(
            run_id=f"baseline:{os.path.basename(ref)}",
            timestamp="",
            command=str(data.get("command", "baseline")),
            topology_spec=str(data.get("topology", {}).get("spec", "")),
            topology_fingerprint=str(
                data.get("topology", {}).get("fingerprint", "")
            ),
            num_machines=int(data.get("topology", {}).get("num_machines", 0)),
            msize=data.get("msize"),
            params=dict(data.get("params") or {}),
            algorithms={
                name: AlgorithmEntry.from_dict(entry)
                for name, entry in (data.get("algorithms") or {}).items()
            },
            git_sha=data.get("git_sha"),
        )
    if ledger is None:
        ledger = RunLedger()
    return ledger.find(ref)


# ----------------------------------------------------------------------
# comparison / regression gating
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricDelta:
    """One compared metric between two runs."""

    algorithm: str
    metric: str  # "completion_time_ms" | "scheduler_runtime_ms"
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        if self.baseline <= 0:
            return float("inf") if self.current > 0 else 1.0
        return self.current / self.baseline

    @property
    def change_percent(self) -> float:
        return (self.ratio - 1.0) * 100.0

    def as_dict(self) -> Dict[str, object]:
        """Machine-readable form (``report compare/regress --json``)."""
        ratio = self.ratio
        return {
            "algorithm": self.algorithm,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": None if ratio == float("inf") else ratio,
            "change_percent": (
                None if ratio == float("inf") else self.change_percent
            ),
        }

    def _render(self, value: float) -> str:
        """Human-readable value: durations get auto-picked units."""
        if self.metric.endswith("_ms"):
            return format_duration_ms(value)
        return f"{value:.3f}"

    def __str__(self) -> str:
        arrow = "+" if self.current >= self.baseline else ""
        return (
            f"{self.algorithm:<24s} {self.metric:<22s} "
            f"{self._render(self.baseline):>10s} -> "
            f"{self._render(self.current):<10s} "
            f"({arrow}{self.change_percent:.1f}%)"
        )


_GATED_METRICS = ("completion_time_ms", "scheduler_runtime_ms", "sim_wall_ms")


def ensure_same_fault_partition(
    baseline: RunRecord, current: RunRecord
) -> None:
    """Refuse to compare runs from different fault partitions.

    A run under chaos injection is expected to be slower; gating it
    against a clean baseline (or vice versa, or against a different
    fault plan) produces meaningless regressions.  Raises
    :class:`ReproError` when the fingerprints differ.
    """

    def label(r: RunRecord) -> str:
        fp = r.fault_fingerprint
        if fp is None:
            return "clean (no fault plan)"
        name = (r.fault_plan or {}).get("name", "")
        return f"fault plan {name!r} ({fp})" if name else f"fault plan {fp}"

    if baseline.fault_fingerprint != current.fault_fingerprint:
        raise ReproError(
            f"refusing to compare runs from different fault partitions: "
            f"baseline {baseline.run_id} is {label(baseline)}, "
            f"current {current.run_id} is {label(current)}; "
            f"compare runs under the same fault plan (or both clean)"
        )


def compare_records(
    baseline: RunRecord, current: RunRecord
) -> List[MetricDelta]:
    """Metric deltas for every algorithm present in both records."""
    deltas: List[MetricDelta] = []
    for name in sorted(set(baseline.algorithms) & set(current.algorithms)):
        base, cur = baseline.algorithms[name], current.algorithms[name]
        for metric in _GATED_METRICS:
            b = getattr(base, metric)
            c = getattr(cur, metric)
            if b is None or c is None:
                continue
            deltas.append(
                MetricDelta(
                    algorithm=name,
                    metric=metric,
                    baseline=float(b),
                    current=float(c),
                )
            )
    return deltas


def find_regressions(
    baseline: RunRecord, current: RunRecord, threshold: float
) -> List[MetricDelta]:
    """Deltas exceeding ``baseline * (1 + threshold)`` — the perf gate.

    *threshold* is a fraction (``0.05`` = 5%).  Both completion time
    and scheduler runtime are gated; lower is better for both.
    """
    if threshold < 0:
        raise ReproError(f"threshold must be non-negative, got {threshold}")
    return [
        d
        for d in compare_records(baseline, current)
        if d.ratio > 1.0 + threshold
    ]


def parse_threshold(text: str) -> float:
    """``"5%"`` → 0.05; ``"0.05"`` → 0.05."""
    text = text.strip()
    try:
        if text.endswith("%"):
            return float(text[:-1]) / 100.0
        return float(text)
    except ValueError as exc:
        raise ReproError(f"bad threshold {text!r}; use e.g. '5%'") from exc
