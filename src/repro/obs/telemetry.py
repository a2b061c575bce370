"""The telemetry bundle a simulated run returns.

:class:`RunTelemetry` packages everything the flight recorder captured
— the per-rank :class:`~repro.sim.trace.Trace`, the per-link/per-flow
:class:`~repro.obs.link_metrics.LinkMetricsReport`, the
:class:`~repro.obs.diagnostics.ScheduleHealth` diagnostics, engine
counters, and the raw occupancy samples the Perfetto exporter replays
into counter tracks.

``run_programs(..., telemetry=True)`` attaches one of these to
``RunResult.telemetry``; ``metrics_dict()`` is the JSON report the CLI
writes for ``--metrics-out``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro._version import __version__
from repro.artifacts import check_schema, read_json, write_json
from repro.obs.bus import LinkOccupancy
from repro.obs.diagnostics import ScheduleHealth
from repro.obs.link_metrics import LinkMetricsReport
from repro.obs.profiling import PipelineProfile
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.causal import CausalAnalysis
    from repro.sim.params import NetworkParams

#: Version of the ``--metrics-out`` report schema.  Bump on
#: incompatible change; :func:`load_metrics` rejects reports from the
#: future with a clear error.  Schema 2 dropped
#: ``schedule_health.critical_path``; schema-1 reports still load.
METRICS_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class EngineStats:
    """Event-loop counters for one run."""

    events_processed: int
    peak_heap_depth: int
    bus_events: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "events_processed": self.events_processed,
            "peak_heap_depth": self.peak_heap_depth,
            "bus_events": self.bus_events,
        }


def _edge_key(edge: Tuple[str, str]) -> str:
    return f"{edge[0]}->{edge[1]}"


@dataclass
class RunTelemetry:
    """Everything the flight recorder captured for one run."""

    completion_time: float
    machines: Tuple[str, ...]
    bandwidth: float
    trace: Trace
    links: LinkMetricsReport
    health: ScheduleHealth
    engine: EngineStats
    #: Raw per-edge occupancy samples, in time order (Perfetto counters).
    occupancy: List[LinkOccupancy] = field(default_factory=list)
    #: Offline-pipeline profile for the schedule this run executed
    #: (attached by callers that built programs under an active
    #: :class:`~repro.obs.profiling.PipelineProfiler`).
    pipeline: Optional[PipelineProfile] = None
    #: Declared fault windows (``repro.faults.events.FaultWindow``) —
    #: plain dataclasses, no import of :mod:`repro.faults` needed here.
    faults: Tuple[object, ...] = ()
    #: Sync disruption/retransmit/abandon events, in time order.
    sync_disruptions: Tuple[object, ...] = ()
    #: Injector counters (``FaultStats.as_dict()``), when faults ran.
    fault_stats: Optional[Dict[str, int]] = None
    #: Run context for the offline causal analyzer (attached by the
    #: executor): per-block message size, the run's NetworkParams and
    #: any per-physical-link bandwidth overrides.
    msize: Optional[int] = None
    params: Optional["NetworkParams"] = None
    link_bandwidths: Optional[Dict[Tuple[str, str], float]] = None
    #: Optimality-gap attribution (``AttributionReport.as_dict()``),
    #: attached by :func:`repro.obs.attribution.explain_telemetry`.
    attribution: Optional[Dict[str, object]] = None
    #: Hot-path metrics snapshot (the schema-versioned ``stats``
    #: envelope from :mod:`repro.obs.metrics_registry`), attached by the
    #: executor when a registry was active during the run.
    stats: Optional[Dict[str, object]] = None
    #: The causal analysis behind the attribution — the Perfetto
    #: exporter renders its critical path as a track plus flow arrows.
    causal: Optional["CausalAnalysis"] = None
    #: Recovery-policy records attached by the resilient runtime when a
    #: fault plan forced repair or fallback decisions:
    #: ``RepairDecision`` / ``FallbackDecision`` instances (duck-typed —
    #: :mod:`repro.obs` never imports :mod:`repro.faults`), rendered on
    #: the Perfetto faults track.
    recovery_decisions: Tuple[object, ...] = ()
    #: Phase-observatory audit (``PhaseAuditReport.as_dict()``),
    #: attached by :func:`repro.obs.phase_audit.audit_phases` callers —
    #: the Perfetto exporter renders it as a per-phase divergence
    #: track and ``metrics_dict`` embeds it.
    phase_audit: Optional[Dict[str, object]] = None
    #: ``{analysis: message}`` for each analysis a caller requested on
    #: this run that failed; ``metrics_dict`` embeds it when non-empty.
    analysis_errors: Dict[str, str] = field(default_factory=dict)

    @property
    def contention_free_verified(self) -> bool:
        return self.links.contention_free

    @property
    def total_contention_events(self) -> int:
        return self.links.total_contention_events

    def metrics_dict(self) -> Dict[str, object]:
        """The JSON metrics report (``--metrics-out``)."""
        flows = self.links.flows
        mean_rate = (
            sum(f.achieved_rate for f in flows) / len(flows) if flows else 0.0
        )
        data: Dict[str, object] = {
            "schema": METRICS_SCHEMA_VERSION,
            "repro_version": __version__,
            "completion_time_ms": self.completion_time * 1e3,
            "num_ranks": len(self.machines),
            "bandwidth_bytes_per_sec": self.bandwidth,
            "contention_free_verified": self.contention_free_verified,
            "total_contention_events": self.total_contention_events,
            "max_concurrent_flows_any_link": self.links.max_concurrent_any_link,
            "max_link_utilization": self.links.max_utilization,
            "flows": {
                "count": len(flows),
                "mean_achieved_rate_bytes_per_sec": mean_rate,
            },
            "links": {
                _edge_key(edge): report.as_dict()
                for edge, report in sorted(self.links.links.items())
            },
            "schedule_health": self.health.as_dict(),
            "engine": self.engine.as_dict(),
        }
        if self.pipeline is not None:
            data["pipeline"] = self.pipeline.as_dicts()
        if self.attribution is not None:
            data["attribution"] = dict(self.attribution)
        if self.stats is not None:
            data["stats"] = dict(self.stats)
        if self.phase_audit is not None:
            data["phase_audit"] = dict(self.phase_audit)
        if self.fault_stats is not None:
            data["faults"] = {
                "windows": [
                    {
                        "start": w.start,
                        "end": w.end,
                        "kind": w.kind,
                        "target": w.target,
                        "detail": w.detail,
                    }
                    for w in self.faults
                ],
                "disruptions": len(self.sync_disruptions),
                "stats": dict(self.fault_stats),
            }
        if self.analysis_errors:
            data["analysis_errors"] = dict(self.analysis_errors)
        return data

    # ------------------------------------------------------------------
    def write_metrics(self, path: str) -> None:
        """Write the JSON metrics report to *path*."""
        write_json(path, self.metrics_dict())

    def write_perfetto(self, path: str) -> None:
        """Write the Chrome/Perfetto ``trace_event`` JSON to *path*."""
        from repro.obs.perfetto import write_perfetto

        write_perfetto(self, path)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Terminal one-pager: verdict, sync cost, hottest links."""
        lines = [
            f"completion      {self.completion_time * 1e3:.2f} ms  "
            f"({len(self.machines)} ranks, {len(self.links.flows)} flows)",
            f"contention-free verified: "
            f"{'yes' if self.contention_free_verified else 'NO'}  "
            f"(over-subscription events: {self.total_contention_events}, "
            f"peak link multiplexing: {self.links.max_concurrent_any_link})",
            f"sync wait total {self.health.total_sync_wait * 1e3:.2f} ms   "
            f"max phase drift {self.health.max_drift * 1e3:.2f} ms   "
            f"phase overlap {self.health.overlap_fraction:.2f}",
            "busiest links (mean utilization of line rate):",
        ]
        for report in self.links.busiest_links(5):
            lines.append(
                f"  {_edge_key(report.edge):>14s}  "
                f"{report.utilization * 100:5.1f}%  "
                f"busy {report.busy_fraction * 100:5.1f}%  "
                f"mux {report.max_concurrent}  "
                f"contention {report.contention_events}"
            )
        return "\n".join(lines)


def load_metrics(source: Union[str, IO[str]]) -> Dict[str, object]:
    """Read and validate a ``--metrics-out`` report.

    Accepts a file path or a text stream.  Raises
    :class:`~repro.errors.ReproError` for corrupt JSON and for reports
    written by a *newer* repro whose schema this version cannot read.
    Pre-versioning reports (no ``schema`` key) load as-is.
    """
    data = read_json(source, "metrics report")
    check_schema(
        data, "metrics report", METRICS_SCHEMA_VERSION, METRICS_SCHEMA_VERSION
    )
    return data


def loads_metrics(text: str) -> Dict[str, object]:
    return load_metrics(io.StringIO(text))
