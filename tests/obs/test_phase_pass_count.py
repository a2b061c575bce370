"""Per-phase analyses make a fixed number of passes over their input.

The paper's routine runs in ``load`` phases (over a thousand at 64
ranks), so an analysis that rescans the trace or the audit rows once
per phase is quadratic.  These tests count how often each analysis
iterates its input and require the count not to grow with the number
of phases.
"""

from __future__ import annotations

from repro.obs.diagnostics import schedule_health
from repro.obs.phase_audit import (
    VERDICT_DIVERGENT,
    VERDICT_OK,
    PhaseAuditReport,
    PhaseDivergence,
    PhaseDuration,
    PhaseWindow,
)
from repro.sim.trace import Trace


class CountingList(list):
    """A list that counts how many times it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _trace(num_phases: int) -> Trace:
    trace = Trace()
    for phase in range(num_phases):
        t = float(phase)
        trace.add(t, "n0", "post_isend", peer="n1", tag=1, phase=phase)
        trace.add(t + 0.1, "n0", "sync_wait", peer="n1", tag=9, phase=phase)
        trace.add(t + 0.3, "n0", "sync_recv", peer="n1", tag=9, phase=phase)
        trace.add(t + 0.2, "n1", "complete_send", peer="n0", tag=1, phase=phase)
    trace.records = CountingList(trace.records)
    return trace


def _report(num_phases: int) -> PhaseAuditReport:
    rows = CountingList()
    for phase in range(num_phases):
        for edge, verdict in ((("s0", "s1"), VERDICT_OK),
                              (("s1", "s0"), VERDICT_DIVERGENT)):
            rows.append(PhaseDivergence(
                phase=phase,
                edge=edge,
                predicted_messages=1,
                predicted_bytes=100.0,
                observed_bytes=100.0 if verdict == VERDICT_OK else 150.0,
                observed_flows=1,
                contention_events=0,
                certified_contention_free=True,
                verdict=verdict,
            ))
    return PhaseAuditReport(
        msize=100,
        occupancy_tolerance=0.10,
        windows=[
            PhaseWindow(phase=p, start=float(p), end=p + 0.5)
            for p in range(num_phases)
        ],
        durations=[
            PhaseDuration(phase=p, predicted=0.25, observed=0.5)
            for p in range(num_phases)
        ],
        rows=rows,
    )


def _health_passes(num_phases: int) -> int:
    trace = _trace(num_phases)
    health = schedule_health(trace)
    assert len(health.phases) == num_phases
    return trace.records.iterations


def _audit_passes(num_phases: int):
    report = _report(num_phases)
    counts = []
    for render in (report.summary, report.summary_dict, report.as_dict):
        report.rows.iterations = 0
        render()
        counts.append(report.rows.iterations)
    return counts


def test_schedule_health_passes_do_not_grow_with_phases():
    assert _health_passes(600) == _health_passes(5) <= 2


def test_audit_rendering_passes_do_not_grow_with_phases():
    assert _audit_passes(600) == _audit_passes(5)
