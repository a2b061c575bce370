"""The one run pipeline: build → run → analyze → export.

Every run-shaped entry point — the CLI's run subcommands,
:func:`~repro.harness.runner.run_experiment` and
:func:`~repro.harness.campaign.run_campaign` — goes through
:func:`run_pipeline`.  It builds the programs under the pipeline
profiler, runs them (under :func:`~repro.faults.runtime.run_resilient`
when given a fault plan), attaches the requested analyses to the run's
telemetry and writes the requested artifacts.  An analysis that raises
:class:`~repro.errors.ReproError` is recorded in ``analysis_errors``
(and the metrics JSON) with a ``warning:`` line on stderr; any other
exception propagates.  The returned :class:`RunOutcome` builds its own
ledger entry; appending the record is left to the caller.
"""

from __future__ import annotations

import logging
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

from repro.algorithms import get_algorithm
from repro.algorithms.base import AlltoallAlgorithm
from repro.core.program import Program
from repro.errors import ReproError
from repro.harness.metrics import summarize_links
from repro.obs.attribution import explain_telemetry
from repro.obs.ledger import AlgorithmEntry
from repro.obs.metrics_registry import MetricsRegistry, SnapshotWriter
from repro.obs.monitor import MonitorConfig
from repro.obs.phase_audit import DEFAULT_OCCUPANCY_TOLERANCE, audit_phases
from repro.obs.profiling import PipelineProfile, PipelineProfiler
from repro.sim.executor import RunResult, run_programs
from repro.sim.params import NetworkParams
from repro.topology.graph import Topology
from repro.units import bytes_per_sec_to_mbps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.runtime import ResilientResult
    from repro.obs.attribution import AttributionReport
    from repro.obs.phase_audit import PhaseAuditReport

logger = logging.getLogger("repro.harness.pipeline")


@dataclass
class Build:
    """An algorithm's programs and the profile of building them."""

    algorithm: AlltoallAlgorithm
    programs: Dict[str, Program]
    profile: PipelineProfile
    seconds: float


def build(
    topology: Topology, algorithm: Union[str, AlltoallAlgorithm], msize: int
) -> Build:
    """Build *algorithm* (a registry name or an instance), profiled."""
    if isinstance(algorithm, str):
        algorithm = get_algorithm(algorithm)
    profiler = PipelineProfiler()
    t0 = time.perf_counter()
    with profiler.activate():
        programs = algorithm.build_programs(topology, msize)
    seconds = time.perf_counter() - t0
    profile = profiler.report()
    logger.info(
        "%s: built programs in %.1f ms (%d pipeline spans)",
        algorithm.name, seconds * 1e3, len(profile.spans),
    )
    return Build(algorithm, programs, profile, seconds)


@dataclass
class RunOutcome:
    """One pass through the pipeline."""

    topology: Topology
    msize: int
    #: The algorithm as requested (registry name).
    requested: str
    #: None when a resilient run was unrecoverable.
    result: Optional[RunResult]
    #: None for resilient runs, which build (and may repair or replace)
    #: their own programs.
    built: Optional[Build]
    #: Wall-clock seconds of the run stage.
    sim_seconds: float
    resilient: Optional["ResilientResult"] = None
    audit: Optional["PhaseAuditReport"] = None
    attribution: Optional["AttributionReport"] = None
    analysis_errors: Dict[str, str] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.result is not None

    @property
    def telemetry(self):
        return self.result.telemetry if self.result is not None else None

    @property
    def name(self) -> str:
        return self.built.algorithm.name if self.built else self.requested

    @property
    def label(self) -> str:
        """Size-resolved algorithm description for terminal output."""
        if self.built is None:
            return self.requested
        return self.built.algorithm.describe(self.topology, self.msize)

    @property
    def throughput_mbps(self) -> float:
        n = self.topology.num_machines
        return bytes_per_sec_to_mbps(
            self.result.aggregate_throughput(n, self.msize)
        )

    def attribution_summary(self) -> Optional[Dict[str, object]]:
        """The attribution report without its (large) critical path."""
        if self.attribution is None:
            return None
        data = self.attribution.as_dict()
        data.pop("critical_path", None)
        return data

    def entry(self) -> AlgorithmEntry:
        """The run-ledger entry of this (completed) run."""
        result, built, res = self.result, self.built, self.resilient
        if res is not None:
            telemetry = {
                "fault_stats": result.fault_stats or {},
                "algorithm_used": res.algorithm_used,
                "fallback_decisions": res.decisions_dict(),
            }
        elif result.telemetry is not None:
            telemetry = summarize_links(result.telemetry).as_dict()
        else:
            telemetry = None
        return AlgorithmEntry(
            completion_time_ms=result.completion_time * 1e3,
            throughput_mbps=self.throughput_mbps,
            scheduler_runtime_ms=built.seconds * 1e3 if built else None,
            sim_wall_ms=self.sim_seconds * 1e3,
            telemetry=telemetry,
            pipeline=built.profile.as_dicts() if built else None,
            attribution=self.attribution_summary(),
            stats=result.stats,
            phase_audit=self.audit.summary_dict() if self.audit else None,
            analysis_errors=dict(self.analysis_errors) or None,
        )


def run_pipeline(
    topology: Topology,
    algorithm: Union[str, AlltoallAlgorithm],
    msize: int,
    params: NetworkParams,
    *,
    built: Optional[Build] = None,
    faults=None,
    resilient: bool = True,
    telemetry: bool = False,
    trace: bool = False,
    trace_cap: Optional[int] = None,
    stats: bool = False,
    stats_out: Optional[str] = None,
    on_snapshot: Optional[Callable] = None,
    monitor_interval: float = MonitorConfig.interval,
    audit: bool = False,
    audit_tolerance: float = DEFAULT_OCCUPANCY_TOLERANCE,
    attribution: bool = False,
    metrics_out: Optional[str] = None,
    trace_out: Optional[str] = None,
    oracle=None,
    check_delivery: bool = True,
) -> RunOutcome:
    """Build, run, analyze and export one algorithm on one topology.

    *built* reuses an earlier :func:`build`.  *faults* runs the plan
    resiliently (retry, repair, fallback); with *resilient* false it is
    injected into a plain run, where a stall raises
    :class:`~repro.errors.StallError`.  *stats* activates a metrics
    registry over build and run; *stats_out* (JSONL) and *on_snapshot*
    receive live monitor snapshots every *monitor_interval* wall-clock
    seconds.  The analyses and exports need *telemetry*.
    """
    requested = algorithm if isinstance(algorithm, str) else algorithm.name
    resilient = resilient and faults is not None
    if resilient and (trace or stats_out or on_snapshot):
        raise ReproError(
            "a resilient fault-plan run records no rank trace and has no "
            "live monitor"
        )
    writer = SnapshotWriter(stats_out) if stats_out else None
    sinks = [s for s in (writer and writer.write, on_snapshot) if s]

    def fan_out(snapshot) -> None:
        for sink in sinks:
            sink(snapshot)

    monitor = (
        MonitorConfig(interval=monitor_interval, on_snapshot=fan_out)
        if sinks else None
    )
    registry = MetricsRegistry().activate() if stats else nullcontext()
    res = None
    try:
        with registry:
            if resilient:
                from repro.faults.runtime import run_resilient

                t0 = time.perf_counter()
                res = run_resilient(
                    topology, requested, msize, params, faults=faults,
                    telemetry=telemetry, max_trace_records=trace_cap,
                )
                result, built = res.result, None
            else:
                built = built or build(topology, algorithm, msize)
                t0 = time.perf_counter()
                result = run_programs(
                    topology, built.programs, msize, params, oracle=oracle,
                    trace=trace, telemetry=telemetry,
                    max_trace_records=trace_cap, faults=faults,
                    check_delivery=check_delivery, monitor=monitor,
                )
            sim_seconds = time.perf_counter() - t0
    finally:
        if writer is not None:
            writer.close()
    outcome = RunOutcome(
        topology, msize, requested, result, built, sim_seconds, res
    )
    tel = outcome.telemetry
    if tel is None:
        return outcome
    if built is not None:
        tel.pipeline = built.profile
        # Only a run of the pipeline's own build is audited: a resilient
        # run may have repaired or replaced its programs.
        if audit:
            outcome.audit = _analyze(
                outcome, "phase_audit",
                lambda: audit_phases(
                    tel, topology, built.programs, oracle=oracle,
                    occupancy_tolerance=audit_tolerance,
                ),
            )
            if outcome.audit is not None:
                tel.phase_audit = outcome.audit.as_dict()
    if attribution:
        outcome.attribution = _analyze(
            outcome, "attribution",
            lambda: explain_telemetry(tel, topology, algorithm=outcome.name),
        )
    tel.analysis_errors = dict(outcome.analysis_errors)
    if trace_out:
        tel.write_perfetto(trace_out)
    if metrics_out:
        tel.write_metrics(metrics_out)
    return outcome


def _analyze(outcome: RunOutcome, name: str, analysis: Callable):
    """Run one analysis; a :class:`ReproError` becomes an explicit
    ``analysis_errors`` entry and a stderr warning, never a silent None."""
    try:
        return analysis()
    except ReproError as exc:
        outcome.analysis_errors[name] = str(exc)
        print(f"warning: {name} failed: {exc}", file=sys.stderr)
        return None
