"""Run experiment grids: topology x algorithm x workload, with repetitions.

:func:`run_experiment` is the workhorse behind every benchmark: it
builds each algorithm's programs once per message size, simulates each
seeded repetition, and returns a queryable :class:`ExperimentResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import AlltoallAlgorithm
from repro.errors import ReproError
from repro.harness.metrics import (
    LinkSummary,
    aggregate_throughput_mbps,
    completion_stats,
    summarize_links,
)
from repro.harness.pipeline import build, run_pipeline
from repro.harness.workloads import Workload
from repro.obs.phase_audit import VERDICT_UNOBSERVED
from repro.sim.params import NetworkParams
from repro.topology.graph import Topology
from repro.topology.paths import PathOracle


@dataclass
class MeasurementPoint:
    """Averaged result for one (algorithm, workload) cell."""

    algorithm: str
    #: Size-resolved description (e.g. ``mpich(mpich-ring)``).
    variant: str
    msize: int
    mean_time: float
    min_time: float
    max_time: float
    samples: List[float]
    throughput_mbps: float
    peak_concurrent_flows: int
    max_edge_multiplexing: int
    #: Link-level telemetry from the first repetition, when the
    #: experiment ran with ``telemetry=True`` (None otherwise).
    link_stats: Optional[LinkSummary] = None
    #: Wall-clock seconds spent building the cell's programs — the
    #: offline scheduling pipeline cost (root finding, phase
    #: partitioning, sync planning, program emission).
    build_time: Optional[float] = None
    #: Optimality-gap attribution of the instrumented repetition
    #: (:mod:`repro.obs.attribution` report dict, without the path);
    #: tells which component dominates the gap at this cell's size.
    attribution: Optional[Dict[str, object]] = None
    #: Phase-observatory summary of the instrumented repetition
    #: (:meth:`repro.obs.phase_audit.PhaseAuditReport.summary_dict`):
    #: did the observed per-link loads match the static model, phase by
    #: phase?  None when the cell ran without telemetry or with no
    #: observable flows (pure-eager sizes).
    phase_audit: Optional[Dict[str, object]] = None
    #: ``{analysis: message}`` for each analysis that failed on the
    #: instrumented repetition (None when all succeeded).
    analysis_errors: Optional[Dict[str, str]] = None

    @property
    def dominant_component(self) -> Optional[str]:
        if self.attribution is None:
            return None
        return self.attribution.get("dominant_component")  # type: ignore[return-value]

    @property
    def worst_phase_divergence(self) -> Optional[float]:
        """Worst occupancy deviation across phases; ``inf`` on a
        contention violation inside a certified phase, None when the
        cell carried no phase audit."""
        if self.phase_audit is None:
            return None
        if self.phase_audit.get("violations"):
            return float("inf")
        dev = self.phase_audit.get("max_occupancy_deviation", 0.0)
        return float(dev) if dev is not None else 0.0


@dataclass
class ExperimentResult:
    """All cells of one experiment grid."""

    name: str
    topology: Topology
    params: NetworkParams
    points: List[MeasurementPoint] = field(default_factory=list)

    def cell(self, algorithm: str, msize: int) -> MeasurementPoint:
        for p in self.points:
            if p.algorithm == algorithm and p.msize == msize:
                return p
        raise ReproError(f"no measurement for ({algorithm}, {msize})")

    def algorithms(self) -> List[str]:
        seen: List[str] = []
        for p in self.points:
            if p.algorithm not in seen:
                seen.append(p.algorithm)
        return seen

    def sizes(self) -> List[int]:
        seen: List[int] = []
        for p in self.points:
            if p.msize not in seen:
                seen.append(p.msize)
        return seen

    def series(self, algorithm: str) -> List[Tuple[int, float]]:
        """(msize, mean completion time) pairs for one algorithm."""
        return [
            (p.msize, p.mean_time) for p in self.points if p.algorithm == algorithm
        ]


def run_experiment(
    name: str,
    topology: Topology,
    algorithms: Sequence[AlltoallAlgorithm],
    workloads: Sequence[Workload],
    params: Optional[NetworkParams] = None,
    *,
    check_delivery: bool = True,
    telemetry: bool = False,
    faults=None,
    max_trace_records: Optional[int] = None,
) -> ExperimentResult:
    """Simulate every (algorithm, workload) cell and average repetitions.

    With *telemetry* on, the first repetition of each cell runs under
    the flight recorder and its link-level summary, gap attribution and
    phase audit are attached to the cell's :class:`MeasurementPoint`
    (one instrumented run per cell keeps the grid cost flat).

    *faults* (a :class:`~repro.faults.plan.FaultPlan`) injects the same
    chaos into every repetition; a stalled cell raises
    :class:`~repro.errors.StallError` with a diagnosis rather than
    hanging the grid.
    """
    if params is None:
        params = NetworkParams()
    oracle = PathOracle(topology)
    result = ExperimentResult(name=name, topology=topology, params=params)
    n = topology.num_machines
    for workload in workloads:
        for algorithm in algorithms:
            built = build(topology, algorithm, workload.msize)
            samples: List[float] = []
            peak_flows = 0
            max_mux = 0
            instrumented: Dict[str, object] = {}
            for i, seed in enumerate(workload.seeds()):
                outcome = run_pipeline(
                    topology, algorithm, workload.msize,
                    params.with_seed(seed), built=built, oracle=oracle,
                    check_delivery=check_delivery,
                    telemetry=telemetry and i == 0, faults=faults,
                    resilient=False, trace_cap=max_trace_records,
                    audit=True, attribution=True,
                )
                run = outcome.result
                samples.append(run.completion_time)
                peak_flows = max(peak_flows, run.peak_concurrent_flows)
                max_mux = max(max_mux, run.max_edge_multiplexing)
                if run.telemetry is not None:
                    audit = outcome.audit
                    instrumented = dict(
                        link_stats=summarize_links(run.telemetry),
                        attribution=outcome.attribution_summary(),
                        # A run with no observable flows (eager sizes)
                        # has nothing to audit: the harness reads it as
                        # no audit.
                        phase_audit=audit.summary_dict() if audit and any(
                            r.verdict != VERDICT_UNOBSERVED
                            for r in audit.rows
                        ) else None,
                        analysis_errors=outcome.analysis_errors or None,
                    )
            mean, lo, hi = completion_stats(samples)
            result.points.append(
                MeasurementPoint(
                    algorithm=algorithm.name,
                    variant=algorithm.describe(topology, workload.msize),
                    msize=workload.msize,
                    mean_time=mean,
                    min_time=lo,
                    max_time=hi,
                    samples=samples,
                    throughput_mbps=aggregate_throughput_mbps(
                        n, workload.msize, mean
                    ),
                    peak_concurrent_flows=peak_flows,
                    max_edge_multiplexing=max_mux,
                    build_time=built.seconds,
                    **instrumented,
                )
            )
    return result
