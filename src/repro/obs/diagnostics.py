"""Schedule-health diagnostics computed from an execution trace.

Where :mod:`repro.core.verify` checks the *static* claim (no two
messages of a phase share a link), this module checks the *dynamic*
one: what actually happened on the simulated wire.

* **Per-phase sync wait** — seconds ranks spent blocked in
  ``sync_wait`` before the matching ``sync_recv`` arrived.  Nonzero
  only for synchronized programs; it is the price paid to keep phases
  from bleeding into each other.
* **Per-phase drift** — the spread of per-rank first-activity times
  within the phase.  Unsynchronized noisy runs drift apart; pair-wise
  synchronized runs stay tight.
* **Phase overlap** — fraction of consecutive phase pairs whose spans
  overlap (pipelining depth; see
  :func:`repro.sim.gantt.phase_overlap_fraction` for why overlap alone
  is not contention).
* **Bottleneck rank** — per phase, the rank whose last activity closes
  the phase (the run's exact critical path is
  :mod:`repro.obs.causal`'s, which ``explain`` reports).
* **Contention-free verified** — the empirical verdict from observed
  link occupancy (via :class:`repro.obs.link_metrics.LinkMetricsReport`):
  ``True`` iff no directed link ever carried two concurrent flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.link_metrics import LinkMetricsReport


@dataclass(frozen=True)
class PhaseHealth:
    """Observed health of one schedule phase."""

    phase: int
    start: float
    end: float
    #: Total seconds ranks spent blocked on this phase's sync messages.
    sync_wait: float
    #: Spread (max - min) of per-rank first activity in the phase.
    drift: float
    #: Rank whose last activity closes the phase.
    bottleneck_rank: str

    @property
    def span(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "start_ms": self.start * 1e3,
            "end_ms": self.end * 1e3,
            "span_ms": self.span * 1e3,
            "sync_wait_ms": self.sync_wait * 1e3,
            "drift_ms": self.drift * 1e3,
            "bottleneck_rank": self.bottleneck_rank,
        }


@dataclass
class ScheduleHealth:
    """Aggregate diagnostics for one run: its trace-side phase table."""

    #: One row per phase-tagged phase, in phase order.
    phases: List[PhaseHealth]
    overlap_fraction: float
    #: Empirical contention verdict; None when no link data was collected.
    contention_free_verified: Optional[bool]

    @property
    def total_sync_wait(self) -> float:
        return sum(p.sync_wait for p in self.phases)

    @property
    def max_drift(self) -> float:
        if not self.phases:
            return 0.0
        return max(p.drift for p in self.phases)

    def as_dict(self) -> Dict[str, object]:
        return {
            "contention_free_verified": self.contention_free_verified,
            "total_sync_wait_ms": self.total_sync_wait * 1e3,
            "max_phase_drift_ms": self.max_drift * 1e3,
            "phase_overlap_fraction": self.overlap_fraction,
            "phases": [p.as_dict() for p in self.phases],
        }


def schedule_health(
    trace: Trace, links: "Optional[LinkMetricsReport]" = None
) -> ScheduleHealth:
    """Compute :class:`ScheduleHealth` from a phase-tagged trace.

    One pass over the records.  Works on any trace; runs without phase
    tags yield empty phase lists.  Pass the run's link report to fill
    the empirical contention verdict.
    """
    pending: Dict[Tuple[str, str, int], float] = {}
    sync_waits: Dict[int, float] = {}
    spans: Dict[int, Tuple[float, float]] = {}
    closers: Dict[int, str] = {}
    firsts: Dict[int, Dict[str, float]] = {}
    for r in trace.records:
        if r.what == "sync_wait":
            pending[(r.rank, r.peer, r.tag)] = r.time
        elif r.what == "sync_recv":
            posted = pending.pop((r.rank, r.peer, r.tag), None)
            if posted is not None:
                wait = r.time - posted
                sync_waits[r.phase] = sync_waits.get(r.phase, 0.0) + wait
        if r.phase < 0:
            continue
        lo, hi = spans.get(r.phase, (r.time, r.time))
        # Ties go to the later record: the last one at the max time.
        if r.time >= hi:
            hi = r.time
            closers[r.phase] = r.rank
        spans[r.phase] = (min(lo, r.time), hi)
        ranks = firsts.setdefault(r.phase, {})
        if r.time < ranks.get(r.rank, float("inf")):
            ranks[r.rank] = r.time
    phases: List[PhaseHealth] = []
    for phase in sorted(spans):
        start, end = spans[phase]
        entries = firsts[phase].values()
        phases.append(
            PhaseHealth(
                phase=phase,
                start=start,
                end=end,
                sync_wait=sync_waits.get(phase, 0.0),
                drift=max(entries) - min(entries),
                bottleneck_rank=closers[phase],
            )
        )
    overlapping = sum(
        1 for a, b in zip(phases, phases[1:]) if b.start < a.end
    )
    return ScheduleHealth(
        phases=phases,
        overlap_fraction=(
            overlapping / (len(phases) - 1) if len(phases) > 1 else 0.0
        ),
        contention_free_verified=(links.contention_free if links is not None else None),
    )
