"""Optimality-gap attribution: *why* a run missed the paper's bound.

The paper's Section 3 bound says an AAPC over a tree topology cannot
finish faster than ``load * msize / B`` (the bottleneck link's traffic
at raw line rate).  :func:`attribute_gap` decomposes the measured
shortfall against that bound into named components, using the critical
path from :mod:`repro.obs.causal`:

``protocol_efficiency``
    The part of the bound that is unreachable by construction: a single
    TCP stream only sustains ``base_efficiency`` of line rate, so even a
    perfect schedule serializes the bottleneck traffic at
    ``load * msize / (eff * B)``.  This component is the difference
    between that *achievable* optimum and the theoretical one.
``startup``
    Critical-path time spent in per-operation software overheads and
    handshake latencies (the per-message α of the classic α-β model).
``sync_wait``
    Critical-path time waiting on pair-wise synchronization messages
    (and barriers) — the price the scheduled algorithm pays to keep
    phases contention-free.
``contention``
    Transfer stretch: critical-path flows that ran below the single-flow
    achievable rate because they shared links (max-min fair share below
    full capacity, per the LinkMetricsReport evidence).
``fault``
    Critical-path time inside straggler windows and sync retransmission
    delays (PR 3 fault injection).
``residual``
    Everything the model cannot name: critical-path serialized transfer
    above/below the achievable bottleneck serialization, plus any trace
    anomalies.  Near zero for a healthy scheduled run; large *negative*
    values mean the critical path carried far less transfer than the
    bound assumes (typical for contention-dominated naive runs).

The six components sum to ``measured − theoretical_optimum`` **exactly**
(it is an algebraic identity over the telescoping critical path, not an
estimate), which is what makes the ``--budget`` gate in
``repro-aapc explain`` trustworthy.

Reports carry the same ``schema``/``repro_version`` envelope as metrics
and ledger files; :func:`load_attribution` rejects files written by a
newer schema with :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro._version import __version__
from repro.artifacts import check_schema, read_json, write_json
from repro.errors import ReproError
from repro.obs.causal import CausalAnalysis, analyze
from repro.topology.analysis import weighted_best_case_completion_time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import RunTelemetry
    from repro.sim.params import NetworkParams
    from repro.topology.graph import Topology

#: Version of the attribution-report schema (``--json-out`` artifact,
#: metrics/ledger ``attribution`` blocks).  Bump on incompatible change.
ATTRIBUTION_SCHEMA_VERSION = 1

#: Gap components, in display order.
GAP_COMPONENTS = (
    "protocol_efficiency",
    "startup",
    "sync_wait",
    "contention",
    "fault",
    "residual",
)


@dataclass
class AttributionReport:
    """Decomposition of one run's gap to the Section 3 bound."""

    algorithm: str
    num_ranks: int
    msize: int
    #: All times in seconds.
    measured_completion: float
    theoretical_optimum: float
    achievable_optimum: float
    #: ``GAP_COMPONENTS`` → seconds; sums exactly to :attr:`gap`.
    components: Dict[str, float]
    #: The causal analysis behind the numbers.
    causal: Optional[CausalAnalysis] = None
    anomalies: int = 0

    @property
    def gap(self) -> float:
        return self.measured_completion - self.theoretical_optimum

    @property
    def dominant_component(self) -> str:
        """The largest (positive) contributor to the gap."""
        return max(GAP_COMPONENTS, key=lambda c: self.components.get(c, 0.0))

    def fraction_of_optimum(self, component: str) -> float:
        if component not in self.components:
            raise ReproError(
                f"unknown attribution component {component!r}; "
                f"expected one of {', '.join(GAP_COMPONENTS)}"
            )
        if self.theoretical_optimum <= 0:
            return 0.0
        return self.components[component] / self.theoretical_optimum

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema": ATTRIBUTION_SCHEMA_VERSION,
            "repro_version": __version__,
            "algorithm": self.algorithm,
            "num_ranks": self.num_ranks,
            "msize": self.msize,
            "measured_completion_ms": self.measured_completion * 1e3,
            "theoretical_optimum_ms": self.theoretical_optimum * 1e3,
            "achievable_optimum_ms": self.achievable_optimum * 1e3,
            "gap_ms": self.gap * 1e3,
            "components_ms": {
                c: self.components.get(c, 0.0) * 1e3 for c in GAP_COMPONENTS
            },
            "components_fraction_of_optimum": {
                c: self.fraction_of_optimum(c) for c in GAP_COMPONENTS
            },
            "dominant_component": self.dominant_component,
            "anomalies": self.anomalies,
        }
        if self.causal is not None:
            data["critical_path"] = self.causal.as_dict()
        return data

    def write(self, path: str) -> None:
        write_json(path, self.as_dict())

    # ------------------------------------------------------------------
    def summary(self, top: int = 8) -> str:
        """Terminal report: bound, gap, component table, hot segments."""
        gap = self.gap
        opt = self.theoretical_optimum
        lines = [
            f"{self.algorithm or 'run'}: {self.num_ranks} ranks, "
            f"msize {self.msize} B",
            f"measured completion   {self.measured_completion * 1e3:9.3f} ms",
            f"optimum (load/B)      {opt * 1e3:9.3f} ms    "
            f"achievable (/eff)     {self.achievable_optimum * 1e3:9.3f} ms",
            f"gap to optimum        {gap * 1e3:9.3f} ms"
            + (f"  ({gap / opt * 100:5.1f}% of optimum)" if opt > 0 else ""),
            "",
            f"{'component':<20s} {'ms':>9s} {'% gap':>7s} {'% optimum':>10s}",
        ]
        for c in GAP_COMPONENTS:
            v = self.components.get(c, 0.0)
            pct_gap = (v / gap * 100) if abs(gap) > 1e-15 else 0.0
            pct_opt = (v / opt * 100) if opt > 0 else 0.0
            lines.append(
                f"{c:<20s} {v * 1e3:9.3f} {pct_gap:7.1f} {pct_opt:10.1f}"
            )
        lines.append(f"dominant component: {self.dominant_component}")
        if self.causal is not None:
            lines.append("")
            lines.append(
                f"critical path: {len(self.causal.segments)} segments "
                f"({self.causal.critical_path_length() * 1e3:.3f} ms, "
                f"{self.causal.anomalies} anomalies); longest:"
            )
            for i, seg in enumerate(self.causal.top_segments(top), 1):
                lines.append(
                    f"  {i:>2d}. {seg.duration * 1e3:8.3f} ms  "
                    f"[{seg.component:<10s}] {seg.label}"
                    + (f"  (phase {seg.phase})" if seg.phase >= 0 else "")
                )
        return "\n".join(lines)


def attribute_gap(
    analysis: CausalAnalysis,
    topology: "Topology",
    msize: int,
    params: "NetworkParams",
    link_bandwidths: Optional[Dict[Tuple[str, str], float]] = None,
    algorithm: str = "",
) -> AttributionReport:
    """Decompose *analysis*'s completion gap against the Section 3 bound."""
    theoretical = weighted_best_case_completion_time(
        topology, msize, params.bandwidth, link_bandwidths
    )
    achievable = theoretical / params.base_efficiency
    totals = analysis.component_totals
    measured = analysis.completion_time
    # The critical path telescopes to the measured completion; if
    # anomalies cut it short, the uncovered prefix lands in residual so
    # the identity sum(components) == measured - theoretical holds.
    uncovered = measured - analysis.critical_path_length()
    components = {
        "protocol_efficiency": achievable - theoretical,
        "startup": totals.get("startup", 0.0),
        "sync_wait": totals.get("sync_wait", 0.0),
        "contention": totals.get("contention", 0.0),
        "fault": totals.get("fault", 0.0),
        "residual": totals.get("transfer", 0.0) - achievable + uncovered,
    }
    return AttributionReport(
        algorithm=algorithm,
        num_ranks=len(topology.machines),
        msize=msize,
        measured_completion=measured,
        theoretical_optimum=theoretical,
        achievable_optimum=achievable,
        components=components,
        causal=analysis,
        anomalies=analysis.anomalies,
    )


def explain_telemetry(
    telemetry: "RunTelemetry",
    topology: "Topology",
    algorithm: str = "",
) -> AttributionReport:
    """Analyze + attribute one run, caching the results on *telemetry*.

    After this call ``telemetry.causal`` holds the
    :class:`~repro.obs.causal.CausalAnalysis` (the Perfetto exporter
    renders it as a critical-path track with flow arrows) and
    ``telemetry.attribution`` the report dict (emitted into metrics
    JSON and ledger records).
    """
    if telemetry.msize is None or telemetry.params is None:
        raise ReproError(
            "telemetry lacks run context (msize/params); re-run the "
            "simulation with this version of repro"
        )
    analysis = analyze(telemetry)
    report = attribute_gap(
        analysis,
        topology,
        telemetry.msize,
        telemetry.params,
        telemetry.link_bandwidths,
        algorithm=algorithm,
    )
    telemetry.causal = analysis
    telemetry.attribution = report.as_dict()
    return report


def check_budgets(
    report: AttributionReport, budgets: Dict[str, float]
) -> List[str]:
    """Check components against fractions of the theoretical optimum.

    *budgets* maps component name → maximum allowed fraction of the
    optimum (e.g. ``{"residual": 0.10}``).  Returns human-readable
    violation strings (empty = all within budget).  Unknown component
    names raise :class:`ReproError`.
    """
    violations = []
    for component, budget in budgets.items():
        frac = report.fraction_of_optimum(component)
        if frac > budget:
            violations.append(
                f"{component} is {frac * 100:.1f}% of optimum "
                f"(budget {budget * 100:.1f}%): "
                f"{report.components[component] * 1e3:.3f} ms"
            )
    return violations


# ----------------------------------------------------------------------
# envelope-checked loading (PR 2 convention)
# ----------------------------------------------------------------------
def load_attribution(source: Union[str, IO[str]]) -> Dict[str, object]:
    """Read and validate an ``explain --json-out`` attribution report.

    Accepts a path or text stream.  Raises :class:`ReproError` for
    corrupt JSON and for reports written by a newer repro whose schema
    this version cannot read.
    """
    data = read_json(source, "attribution report")
    check_schema(
        data,
        "attribution report",
        ATTRIBUTION_SCHEMA_VERSION,
        ATTRIBUTION_SCHEMA_VERSION,
    )
    return data


def loads_attribution(text: str) -> Dict[str, object]:
    return load_attribution(io.StringIO(text))
