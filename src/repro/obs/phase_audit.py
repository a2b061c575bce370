"""Phase observatory: predicted-vs-observed divergence auditing.

The paper's Theorem makes each scheduled phase *predictable*: no two
messages share a directed link, so static analysis can state exactly
which links a phase loads and by how many bytes.  This module checks
that promise against reality.  It joins the static model
(:func:`repro.core.program_analysis.analyze_programs`) with the flight
recorder's flow records (:mod:`repro.obs.link_metrics`) on the shared
*effective round* key and produces, per phase:

* the **observed window** (first flow start .. last flow end, widened
  by trace records) and per-rank **barrier skew** — how staggered the
  ranks entered the phase;
* per directed link, predicted message count and bytes vs observed
  bytes, flow count and **contention events** (flow arrivals onto a
  link already busy *within the phase's own traffic*, recomputed from
  flow intervals so cross-phase bleed is attributed to the arriving
  phase);
* a **duration ratio**: observed span against the contention-free
  serial transfer bound ``max_link_bytes / (line_rate * efficiency)``;
* a **verdict** per (phase, link): ``contention-violation`` when
  contention was observed inside a phase the static certificate deemed
  contention-free (concurrency ≤ 1 — the Theorem broken), ``divergent``
  when occupancy strays outside tolerance or an uncertified phase shows
  real contention, ``unobserved`` when the run carried no wire flows at
  all (eager messages), else ``ok``.

:func:`audit_phases` returns a :class:`PhaseAuditReport`; its ranked
``divergences``, ``summary()`` table, schema-versioned ``as_dict()``
and condensed ``summary_dict()`` (the form the ledger stores per
algorithm entry) power the ``repro-aapc phases`` subcommand, the
Perfetto divergence track and the dashboard's phase heatmap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro._version import __version__
from repro.core.program import Program
from repro.core.program_analysis import ContentionReport, analyze_programs
from repro.errors import ReproError
from repro.obs.bus import Edge
from repro.topology.graph import Topology
from repro.topology.paths import PathOracle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.diagnostics import ScheduleHealth
    from repro.obs.telemetry import RunTelemetry

#: Version of the phase-audit report schema.  Bump on incompatible
#: change; consumers (ledger summaries, dashboards) key on it.
PHASE_AUDIT_SCHEMA_VERSION = 1

VERDICT_OK = "ok"
VERDICT_DIVERGENT = "divergent"
VERDICT_VIOLATION = "contention-violation"
VERDICT_UNOBSERVED = "unobserved"

#: Severity order for ranking divergence rows (worst first).
_VERDICT_RANK = {
    VERDICT_VIOLATION: 0,
    VERDICT_DIVERGENT: 1,
    VERDICT_UNOBSERVED: 2,
    VERDICT_OK: 3,
}

#: Default relative tolerance for predicted-vs-observed occupancy.
DEFAULT_OCCUPANCY_TOLERANCE = 0.10

#: Two flows "overlap" only if one starts this much before the other
#: ends — guards against same-instant handoffs at phase boundaries.
_OVERLAP_EPS = 1e-12


def _edge_key(edge: Edge) -> str:
    return f"{edge[0]}->{edge[1]}"


@dataclass(frozen=True)
class PhaseWindow:
    """Observed time window of one phase, with per-rank entry skew."""

    phase: int
    start: float
    end: float
    #: Per source rank: first flow start minus the window start (s) —
    #: how late each rank entered the phase relative to the earliest.
    rank_offsets: Dict[str, float] = field(default_factory=dict)

    @property
    def span(self) -> float:
        return max(self.end - self.start, 0.0)

    @property
    def barrier_skew(self) -> float:
        """Spread of per-rank phase entry (max offset), seconds."""
        if not self.rank_offsets:
            return 0.0
        return max(self.rank_offsets.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "start_ms": self.start * 1e3,
            "end_ms": self.end * 1e3,
            "span_ms": self.span * 1e3,
            "barrier_skew_ms": self.barrier_skew * 1e3,
            "rank_offsets_ms": {
                rank: off * 1e3
                for rank, off in sorted(self.rank_offsets.items())
            },
        }


@dataclass(frozen=True)
class PhaseDivergence:
    """Predicted vs observed load of one directed link in one phase."""

    phase: int
    edge: Edge
    predicted_messages: int
    predicted_bytes: float
    observed_bytes: float
    observed_flows: int
    #: Flow arrivals onto this edge while it already carried a flow,
    #: counted within the phase's window (arriving flow's phase).
    contention_events: int
    #: Static certificate: analysis found concurrency ≤ 1 here, i.e.
    #: the verifier's contention-free promise covers this (phase, link).
    certified_contention_free: bool
    verdict: str

    @property
    def occupancy_ratio(self) -> float:
        """Observed bytes / predicted bytes (inf when unpredicted)."""
        if self.predicted_bytes <= 0:
            return float("inf") if self.observed_bytes > 0 else 1.0
        return self.observed_bytes / self.predicted_bytes

    @property
    def deviation(self) -> float:
        """``|occupancy_ratio - 1|`` — the gate's distance measure."""
        ratio = self.occupancy_ratio
        if ratio == float("inf"):
            return float("inf")
        return abs(ratio - 1.0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "link": _edge_key(self.edge),
            "predicted_messages": self.predicted_messages,
            "predicted_bytes": self.predicted_bytes,
            "observed_bytes": self.observed_bytes,
            "observed_flows": self.observed_flows,
            "contention_events": self.contention_events,
            "certified_contention_free": self.certified_contention_free,
            "occupancy_ratio": self.occupancy_ratio,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class PhaseDuration:
    """Observed phase span vs the contention-free transfer bound."""

    phase: int
    #: ``max_link_bytes / (line_rate * base_efficiency)`` — the serial
    #: bound a contention-free phase cannot beat (excludes handshakes).
    predicted: float
    observed: float

    @property
    def ratio(self) -> float:
        if self.predicted <= 0:
            return float("inf") if self.observed > 0 else 1.0
        return self.observed / self.predicted

    def as_dict(self) -> Dict[str, object]:
        ratio = self.ratio
        return {
            "phase": self.phase,
            "predicted_ms": self.predicted * 1e3,
            "observed_ms": self.observed * 1e3,
            "ratio": None if ratio == float("inf") else ratio,
        }


@dataclass
class PhaseAuditReport:
    """Everything the phase observatory learned about one run."""

    msize: int
    occupancy_tolerance: float
    windows: List[PhaseWindow]
    durations: List[PhaseDuration]
    #: Every (phase, link) row, ranked worst-first.
    rows: List[PhaseDivergence]
    #: Static worst per-phase edge concurrency (analysis echo).
    max_phase_edge_concurrency: int = 0
    #: Per phase with rows: (worst verdict, predicted bytes, observed
    #: bytes, contention events), totalled from ``rows`` once.
    phase_totals: Dict[int, Tuple[str, float, float, int]] = field(
        init=False, repr=False
    )

    def __post_init__(self) -> None:
        totals: Dict[int, Tuple[str, float, float, int]] = {}
        for r in self.rows:
            verdict, pred, obs, events = totals.get(
                r.phase, (VERDICT_OK, 0.0, 0.0, 0)
            )
            if _VERDICT_RANK[r.verdict] < _VERDICT_RANK[verdict]:
                verdict = r.verdict
            totals[r.phase] = (
                verdict,
                pred + r.predicted_bytes,
                obs + r.observed_bytes,
                events + r.contention_events,
            )
        self.phase_totals = totals

    # ------------------------------------------------------------------
    @property
    def phases(self) -> List[int]:
        """Every audited phase (with a window or a row), in order."""
        return sorted({w.phase for w in self.windows} | set(self.phase_totals))

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def violations(self) -> List[PhaseDivergence]:
        return [r for r in self.rows if r.verdict == VERDICT_VIOLATION]

    @property
    def divergences(self) -> List[PhaseDivergence]:
        """Rows that are not ``ok``, worst first."""
        return [r for r in self.rows if r.verdict != VERDICT_OK]

    @property
    def max_occupancy_deviation(self) -> float:
        """Worst ``|ratio - 1|`` over rows with any observed traffic."""
        observed = [
            r.deviation
            for r in self.rows
            if r.verdict != VERDICT_UNOBSERVED
            and (r.observed_bytes > 0 or r.predicted_bytes > 0)
        ]
        return max(observed, default=0.0)

    @property
    def worst_duration_ratio(self) -> float:
        finite = [
            d.ratio for d in self.durations if d.ratio != float("inf")
        ]
        return max(finite, default=1.0)

    @property
    def total_contention_events(self) -> int:
        return sum(r.contention_events for r in self.rows)

    @property
    def worst_divergence(self) -> float:
        """One number for sweep cells: inf on a Theorem violation,
        else the worst occupancy deviation."""
        if self.violations:
            return float("inf")
        return self.max_occupancy_deviation

    @property
    def clean(self) -> bool:
        """No violation and no divergent row (unobserved rows pass)."""
        return not any(
            r.verdict in (VERDICT_VIOLATION, VERDICT_DIVERGENT)
            for r in self.rows
        )

    # ------------------------------------------------------------------
    def gate(self, max_divergence: float) -> List[str]:
        """Budget-style gate: the list of failures (empty = pass).

        Any Theorem violation fails outright; otherwise the worst
        occupancy deviation must stay within *max_divergence*.
        """
        if max_divergence < 0:
            raise ReproError(
                f"max divergence must be non-negative, got {max_divergence}"
            )
        problems: List[str] = []
        for row in self.violations:
            problems.append(
                f"phase {row.phase} link {_edge_key(row.edge)}: "
                f"{row.contention_events} contention event(s) inside a "
                f"certified contention-free phase"
            )
        dev = self.max_occupancy_deviation
        if dev > max_divergence:
            worst = max(
                (
                    r
                    for r in self.rows
                    if r.verdict != VERDICT_UNOBSERVED
                ),
                key=lambda r: (r.deviation, r.observed_bytes),
                default=None,
            )
            where = (
                f" (phase {worst.phase} link {_edge_key(worst.edge)})"
                if worst is not None and worst.deviation >= dev
                else ""
            )
            shown = "inf" if dev == float("inf") else f"{dev * 100:.1f}%"
            problems.append(
                f"occupancy deviation {shown} exceeds "
                f"--max-divergence {max_divergence * 100:.1f}%{where}"
            )
        return problems

    # ------------------------------------------------------------------
    def phase_verdict(self, phase: int) -> str:
        """The worst verdict among *phase*'s rows (ok when it has none)."""
        return self.phase_totals.get(phase, (VERDICT_OK,))[0]

    def summary(self) -> str:
        """Terminal table: one line per phase, then ranked divergences."""
        windows = {w.phase: w for w in self.windows}
        durations = {d.phase: d for d in self.durations}
        phases = self.phases
        lines = [
            f"phase audit: {len(phases)} phases, "
            f"{len({r.edge for r in self.rows})} links, "
            f"msize {self.msize}, tolerance "
            f"{self.occupancy_tolerance * 100:.0f}%",
            f"{'phase':>5s} {'window ms':>19s} {'skew ms':>8s} "
            f"{'pred B':>12s} {'obs B':>12s} {'ratio':>6s} "
            f"{'contn':>5s} {'dur x':>6s}  verdict",
        ]
        for phase in phases:
            verdict, pred, obs, contention = self.phase_totals.get(
                phase, (VERDICT_OK, 0.0, 0.0, 0)
            )
            win = windows.get(phase)
            dur = durations.get(phase)
            ratio = obs / pred if pred > 0 else float("inf")
            ratio_s = f"{ratio:6.2f}" if ratio != float("inf") else "   inf"
            dur_s = (
                f"{dur.ratio:6.2f}"
                if dur is not None and dur.ratio != float("inf")
                else "     -"
            )
            win_s = (
                f"[{win.start * 1e3:8.3f},{win.end * 1e3:8.3f}]"
                if win is not None
                else f"{'-':>19s}"
            )
            skew_s = (
                f"{win.barrier_skew * 1e3:8.3f}" if win is not None
                else f"{'-':>8s}"
            )
            lines.append(
                f"{phase:>5d} {win_s} {skew_s} {pred:>12.0f} {obs:>12.0f} "
                f"{ratio_s} {contention:>5d} {dur_s}  {verdict}"
            )
        flagged = self.divergences
        if flagged:
            lines.append("divergent links (worst first):")
            for row in flagged[:10]:
                ratio = row.occupancy_ratio
                ratio_s = f"{ratio:.2f}x" if ratio != float("inf") else "inf"
                lines.append(
                    f"  phase {row.phase:>3d}  {_edge_key(row.edge):>16s}  "
                    f"pred {row.predicted_bytes:.0f} B obs "
                    f"{row.observed_bytes:.0f} B ({ratio_s})  "
                    f"contention {row.contention_events}  [{row.verdict}]"
                )
            if len(flagged) > 10:
                lines.append(f"  ... and {len(flagged) - 10} more")
        lines.append(
            f"verdict: "
            + (
                "OK — every phase within tolerance, no contention "
                "inside certified phases"
                if self.clean
                else f"{len(self.violations)} violation(s), "
                f"{len([r for r in self.divergences if r.verdict == VERDICT_DIVERGENT])} "
                f"divergent row(s), worst occupancy deviation "
                + (
                    "inf"
                    if self.max_occupancy_deviation == float("inf")
                    else f"{self.max_occupancy_deviation * 100:.1f}%"
                )
            )
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def summary_dict(self) -> Dict[str, object]:
        """Condensed form the ledger stores per algorithm entry."""
        dev = self.max_occupancy_deviation
        return {
            "schema": PHASE_AUDIT_SCHEMA_VERSION,
            "num_phases": self.num_phases,
            "violations": len(self.violations),
            "divergent_rows": len(
                [r for r in self.divergences if r.verdict == VERDICT_DIVERGENT]
            ),
            "contention_events": self.total_contention_events,
            "max_occupancy_deviation": (
                None if dev == float("inf") else dev
            ),
            "worst_duration_ratio": self.worst_duration_ratio,
            "clean": self.clean,
            "phase_verdicts": {
                str(phase): self.phase_verdict(phase)
                for phase in self.phases
            },
        }

    def as_dict(self) -> Dict[str, object]:
        """Full schema-versioned artifact (``phases --json-out``)."""
        return {
            "schema": PHASE_AUDIT_SCHEMA_VERSION,
            "repro_version": __version__,
            "msize": self.msize,
            "occupancy_tolerance": self.occupancy_tolerance,
            "max_phase_edge_concurrency": self.max_phase_edge_concurrency,
            "windows": [w.as_dict() for w in self.windows],
            "durations": [d.as_dict() for d in self.durations],
            "rows": [r.as_dict() for r in self.rows],
            "summary": self.summary_dict(),
        }


# ----------------------------------------------------------------------
# the audit itself
# ----------------------------------------------------------------------
def _observed_by_phase_edge(
    flows,
) -> Tuple[
    Dict[Tuple[int, Edge], float],
    Dict[Tuple[int, Edge], int],
    Dict[Tuple[int, Edge], int],
]:
    """Observed bytes / flow counts / contention per (phase, edge).

    Contention is recomputed from flow intervals with a per-edge sweep
    (arrival onto a busy edge = one event, attributed to the arriving
    flow's phase) so cross-phase bleed lands on the phase that barged
    in, which the run-global link counters cannot distinguish.
    """
    observed_bytes: Dict[Tuple[int, Edge], float] = {}
    observed_flows: Dict[Tuple[int, Edge], int] = {}
    contention: Dict[Tuple[int, Edge], int] = {}
    per_edge: Dict[Edge, List] = {}
    for flow in flows:
        for edge in flow.path:
            key = (flow.phase, edge)
            observed_bytes[key] = observed_bytes.get(key, 0.0) + flow.nbytes
            observed_flows[key] = observed_flows.get(key, 0) + 1
            per_edge.setdefault(edge, []).append(flow)
    for edge, edge_flows in per_edge.items():
        edge_flows.sort(key=lambda f: (f.start, f.end))
        active_ends: List[float] = []
        for flow in edge_flows:
            active_ends = [
                end for end in active_ends if end > flow.start + _OVERLAP_EPS
            ]
            if active_ends:
                key = (flow.phase, edge)
                contention[key] = contention.get(key, 0) + 1
            active_ends.append(flow.end)
    return observed_bytes, observed_flows, contention


def _phase_windows(flows, health: "ScheduleHealth") -> List[PhaseWindow]:
    """Observed window + per-rank entry offsets, per effective phase.

    Flow lifetimes set the window; *health*'s trace spans widen it.
    """
    bounds: Dict[int, Tuple[float, float]] = {}
    first_by_rank: Dict[int, Dict[str, float]] = {}
    for flow in flows:
        lo, hi = bounds.get(flow.phase, (flow.start, flow.end))
        bounds[flow.phase] = (min(lo, flow.start), max(hi, flow.end))
        ranks = first_by_rank.setdefault(flow.phase, {})
        prev = ranks.get(flow.src)
        if prev is None or flow.start < prev:
            ranks[flow.src] = flow.start
    for span in health.phases:
        if span.phase in bounds:
            blo, bhi = bounds[span.phase]
            bounds[span.phase] = (min(blo, span.start), max(bhi, span.end))
    windows = []
    for phase in sorted(bounds):
        lo, hi = bounds[phase]
        ranks = first_by_rank.get(phase, {})
        earliest = min(ranks.values(), default=lo)
        windows.append(
            PhaseWindow(
                phase=phase,
                start=lo,
                end=hi,
                rank_offsets={
                    rank: t - earliest for rank, t in ranks.items()
                },
            )
        )
    return windows


def audit_phases(
    telemetry: "RunTelemetry",
    topology: Topology,
    programs: Dict[str, Program],
    *,
    msize: Optional[int] = None,
    occupancy_tolerance: float = DEFAULT_OCCUPANCY_TOLERANCE,
    oracle: Optional[PathOracle] = None,
    analysis: Optional[ContentionReport] = None,
) -> PhaseAuditReport:
    """Join the static model with a run's telemetry, per phase.

    *telemetry* must come from an instrumented run of exactly
    *programs* on *topology* (``run_programs(..., telemetry=True)``).
    Pass *analysis* to reuse an existing
    :func:`~repro.core.program_analysis.analyze_programs` report.
    """
    if msize is None:
        msize = telemetry.msize
    if msize is None:
        raise ReproError(
            "phase audit needs the per-block message size; pass msize= "
            "or use telemetry from an executor that records it"
        )
    if occupancy_tolerance < 0:
        raise ReproError(
            f"occupancy tolerance must be non-negative, "
            f"got {occupancy_tolerance}"
        )
    if oracle is None:
        oracle = PathOracle(topology)
    if analysis is None:
        analysis = analyze_programs(topology, programs, msize, oracle=oracle)

    # Duration bound per phase: the busiest link's serial transfer time
    # at modelled efficiency — what a contention-free phase should take,
    # give or take handshakes and sync.
    efficiency = getattr(telemetry.params, "base_efficiency", 1.0) or 1.0
    overrides = telemetry.link_bandwidths or {}

    def _line_rate(edge: Edge) -> float:
        reverse = overrides.get((edge[1], edge[0]), telemetry.bandwidth)
        return overrides.get(edge, reverse)

    # Predicted per (phase, edge): message counts and byte loads, and
    # per phase the duration bound from its busiest link.
    predicted_bytes: Dict[Tuple[int, Edge], float] = {}
    predicted_msgs: Dict[Tuple[int, Edge], int] = {}
    bounds: Dict[int, float] = {}
    for phase, msgs in analysis.phase_messages.items():
        loads: Dict[Edge, float] = {}
        for src, dst, nbytes in msgs:
            for edge in oracle.path_edges(src, dst):
                loads[edge] = loads.get(edge, 0.0) + nbytes
                key = (phase, edge)
                predicted_msgs[key] = predicted_msgs.get(key, 0) + 1
        if not loads:
            continue
        bounds[phase] = max(
            (
                nbytes / (_line_rate(edge) * efficiency)
                for edge, nbytes in loads.items()
                if _line_rate(edge) > 0
            ),
            default=0.0,
        )
        for edge, nbytes in loads.items():
            predicted_bytes[(phase, edge)] = nbytes

    flows = telemetry.links.flows
    observed_bytes, observed_flows, contention = _observed_by_phase_edge(
        flows
    )
    windows = _phase_windows(flows, telemetry.health)

    # The run carried no wire flows at all (pure-eager message size):
    # nothing to compare, so predicted rows become "unobserved" rather
    # than a wall of spurious 100% divergences.
    run_unobserved = not flows

    rows: List[PhaseDivergence] = []
    for key in sorted(set(predicted_bytes) | set(observed_bytes)):
        phase, edge = key
        pred_b = predicted_bytes.get(key, 0.0)
        pred_n = predicted_msgs.get(key, 0)
        obs_b = observed_bytes.get(key, 0.0)
        obs_n = observed_flows.get(key, 0)
        events = contention.get(key, 0)
        certified = pred_n <= 1
        if certified and events > 0:
            verdict = VERDICT_VIOLATION
        elif run_unobserved:
            verdict = VERDICT_UNOBSERVED
        elif events > 0:
            # Real over-subscription in an uncertified phase: the model
            # predicted it could happen, the wire confirms it did.
            verdict = VERDICT_DIVERGENT
        else:
            ratio = obs_b / pred_b if pred_b > 0 else float("inf")
            deviation = (
                abs(ratio - 1.0) if ratio != float("inf") else float("inf")
            )
            verdict = (
                VERDICT_DIVERGENT
                if deviation > occupancy_tolerance
                else VERDICT_OK
            )
        rows.append(
            PhaseDivergence(
                phase=phase,
                edge=edge,
                predicted_messages=pred_n,
                predicted_bytes=pred_b,
                observed_bytes=obs_b,
                observed_flows=obs_n,
                contention_events=events,
                certified_contention_free=certified,
                verdict=verdict,
            )
        )
    rows.sort(
        key=lambda r: (
            _VERDICT_RANK[r.verdict],
            -r.contention_events,
            -(0.0 if r.deviation == float("inf") else r.deviation),
            -r.observed_bytes,
            r.phase,
            r.edge,
        )
    )

    spans = {w.phase: w.span for w in windows}
    durations = [
        PhaseDuration(
            phase=phase,
            predicted=bounds.get(phase, 0.0),
            observed=spans.get(phase, 0.0),
        )
        for phase in sorted(set(bounds) | set(spans))
    ]

    return PhaseAuditReport(
        msize=msize,
        occupancy_tolerance=occupancy_tolerance,
        windows=windows,
        durations=durations,
        rows=rows,
        max_phase_edge_concurrency=analysis.max_phase_edge_concurrency,
    )
