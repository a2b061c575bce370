"""Chrome/Perfetto ``trace_event`` JSON export.

Produces the classic Trace Event Format (loadable by both
``chrome://tracing`` and https://ui.perfetto.dev): a JSON object with a
``traceEvents`` array.  The run is laid out as up to eight
"processes": the first four always, the others when the run carries
their data:

* **ranks** (pid 1) — one thread per rank.  Every trace record becomes
  an instant event; ``sync_wait → sync_recv`` pairs become duration
  slices, so the cost of pair-wise synchronization is visible as boxes.
* **links** (pid 2) — one *counter track per directed link* showing the
  concurrent-flow count over time.  A contention-free run never shows a
  counter above 1; LAM-style post-everything traffic spikes to dozens.
* **flows** (pid 3) — one thread per source rank, each transfer an
  async slice from wire-entry to last byte (overlap-safe).
* **phases** (pid 4) — one thread per schedule phase with a single
  slice spanning the phase's first to last activity; drift and overlap
  are visible at a glance.
* **pipeline** (pid 5) — the *offline* scheduling pipeline, when the
  run's programs were built under an active
  :class:`~repro.obs.profiling.PipelineProfiler`: one nested slice per
  span (rooting, phase partitioning, program emission, transitive
  reduction, ...), counters in the args.  Its clock is the profiler's
  monotonic epoch, not simulated time — read it as its own timeline.
* **faults** (pid 6) — when the run executed under a fault plan: one
  duration slice per declared fault window (open-ended windows are
  clipped to the completion time) plus an instant per sync disruption /
  retransmit / abandonment, so chaos lines up with rank stalls.
* **critical path** (pid 7) — when a causal analysis is attached to the
  telemetry (``repro-aapc explain`` / ``explain_telemetry``): one lane
  per rank plus a *wire* lane, each critical-path segment a slice named
  by its dominant component, with **flow arrows** stitching the path
  together wherever it hops between ranks or onto the wire.  Following
  the arrows end to end reads off exactly where the completion time
  went.
* **phase audit** (pid 8) — when a phase-observatory audit is attached
  (``repro-aapc phases --trace-out`` / :func:`~repro.obs.phase_audit.
  audit_phases`): one slice per audited phase over its observed window,
  named by its verdict, with the predicted-vs-observed byte totals,
  contention events and duration ratio in the args — the divergence
  report laid out on the run's own timeline.

Timestamps are microseconds (the format's native unit).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro._version import __version__
from repro.artifacts import write_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import RunTelemetry

_PID_RANKS = 1
_PID_LINKS = 2
_PID_FLOWS = 3
_PID_PHASES = 4
_PID_PIPELINE = 5
_PID_FAULTS = 6
_PID_CRITICAL = 7
_PID_PHASE_AUDIT = 8


def _us(t: float) -> float:
    return t * 1e6


def _meta(pid: int, name: str, tid: int = 0, *, thread: bool = False) -> dict:
    return {
        "name": "thread_name" if thread else "process_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def perfetto_events(telemetry: "RunTelemetry") -> List[dict]:
    """The ``traceEvents`` array for one run."""
    events: List[dict] = [
        _meta(_PID_RANKS, "ranks"),
        _meta(_PID_LINKS, "links"),
        _meta(_PID_FLOWS, "flows"),
        _meta(_PID_PHASES, "phases"),
    ]
    rank_tid: Dict[str, int] = {
        rank: tid for tid, rank in enumerate(sorted(telemetry.machines))
    }
    for rank, tid in rank_tid.items():
        events.append(_meta(_PID_RANKS, rank, tid, thread=True))
        events.append(_meta(_PID_FLOWS, f"flows from {rank}", tid, thread=True))

    # --- rank tracks: instants + sync-wait slices --------------------
    sync_started: Dict[tuple, float] = {}
    for r in telemetry.trace.records:
        tid = rank_tid.get(r.rank)
        if tid is None:
            continue
        if r.what == "sync_wait":
            sync_started[(r.rank, r.peer, r.tag)] = r.time
        elif r.what == "sync_recv":
            t0 = sync_started.pop((r.rank, r.peer, r.tag), None)
            if t0 is not None:
                events.append(
                    {
                        "name": f"sync_wait {r.peer}",
                        "cat": "sync",
                        "ph": "X",
                        "ts": _us(t0),
                        "dur": _us(r.time - t0),
                        "pid": _PID_RANKS,
                        "tid": tid,
                        "args": {"phase": r.phase, "tag": r.tag},
                    }
                )
                continue
        events.append(
            {
                "name": r.what,
                "cat": "op",
                "ph": "i",
                "s": "t",
                "ts": _us(r.time),
                "pid": _PID_RANKS,
                "tid": tid,
                "args": {"peer": r.peer, "tag": r.tag, "phase": r.phase},
            }
        )

    # --- link counter tracks -----------------------------------------
    link_names = sorted({s.edge for s in telemetry.occupancy})
    for i, edge in enumerate(link_names):
        events.append(_meta(_PID_LINKS, f"{edge[0]}->{edge[1]}", i, thread=True))
    for sample in telemetry.occupancy:
        events.append(
            {
                "name": f"{sample.edge[0]}->{sample.edge[1]} flows",
                "cat": "link",
                "ph": "C",
                "ts": _us(sample.time),
                "pid": _PID_LINKS,
                "args": {"flows": sample.count},
            }
        )

    # --- flow async slices -------------------------------------------
    for flow in telemetry.links.flows:
        tid = rank_tid.get(flow.src, 0)
        common = {
            "cat": "flow",
            "id": flow.fid,
            "pid": _PID_FLOWS,
            "tid": tid,
            "name": f"{flow.src}->{flow.dst} ({int(flow.nbytes)} B)",
        }
        events.append({**common, "ph": "b", "ts": _us(flow.start)})
        events.append({**common, "ph": "e", "ts": _us(flow.end)})

    # --- phase slices -------------------------------------------------
    for phase in telemetry.health.phases:
        events.append(
            _meta(_PID_PHASES, f"phase {phase.phase}", phase.phase, thread=True)
        )
        events.append(
            {
                "name": f"phase {phase.phase}",
                "cat": "phase",
                "ph": "X",
                "ts": _us(phase.start),
                "dur": _us(phase.span),
                "pid": _PID_PHASES,
                "tid": phase.phase,
                "args": {
                    "sync_wait_ms": phase.sync_wait * 1e3,
                    "drift_ms": phase.drift * 1e3,
                    "bottleneck_rank": phase.bottleneck_rank,
                },
            }
        )

    # --- offline pipeline track --------------------------------------
    if telemetry.pipeline is not None and telemetry.pipeline.spans:
        events.append(_meta(_PID_PIPELINE, "pipeline"))
        events.append(
            _meta(_PID_PIPELINE, "scheduling pipeline", 0, thread=True)
        )
        events.extend(telemetry.pipeline.perfetto_events(pid=_PID_PIPELINE))

    # --- faults track -------------------------------------------------
    recovery = getattr(telemetry, "recovery_decisions", ())
    if telemetry.faults or telemetry.sync_disruptions or recovery:
        events.append(_meta(_PID_FAULTS, "faults"))
        events.append(_meta(_PID_FAULTS, "fault windows", 0, thread=True))
        events.append(_meta(_PID_FAULTS, "sync disruptions", 1, thread=True))
        if recovery:
            events.append(
                _meta(_PID_FAULTS, "recovery decisions", 2, thread=True)
            )
        horizon = telemetry.completion_time
        for w in telemetry.faults:
            end = horizon if w.end is None else min(w.end, max(horizon, w.start))
            events.append(
                {
                    "name": f"{w.kind} {w.target}",
                    "cat": "fault",
                    "ph": "X",
                    "ts": _us(w.start),
                    "dur": _us(max(0.0, end - w.start)),
                    "pid": _PID_FAULTS,
                    "tid": 0,
                    "args": {"kind": w.kind, "target": w.target,
                             "detail": w.detail, "open_ended": w.end is None},
                }
            )
        for ev in telemetry.sync_disruptions:
            kind = type(ev).__name__
            if kind == "SyncDisrupted":
                name = f"{ev.what} {ev.src}->{ev.dst}"
                args = {"tag": ev.tag, "attempt": ev.attempt, "delay": ev.delay}
            elif kind == "SyncRetransmit":
                name = f"retransmit {ev.src}->{ev.dst}"
                args = {"tag": ev.tag, "attempt": ev.attempt,
                        "backoff": ev.backoff}
            elif kind == "SyncAbandoned":
                name = f"ABANDONED {ev.src}->{ev.dst}"
                args = {"tag": ev.tag, "attempts": ev.attempts}
            else:  # pragma: no cover - future event kinds
                continue
            events.append(
                {
                    "name": name,
                    "cat": "fault",
                    "ph": "i",
                    "s": "t",
                    "ts": _us(ev.time),
                    "pid": _PID_FAULTS,
                    "tid": 1,
                    "args": args,
                }
            )
        for d in recovery:
            # Duck-typed: RepairDecision has a `tier`, FallbackDecision
            # has from/to algorithms (repro.obs never imports
            # repro.faults).
            if hasattr(d, "tier"):
                verdict = "ok" if d.succeeded else "rejected"
                name = f"repair[{d.tier}] {verdict}"
            else:
                name = f"fallback {d.from_algorithm}->{d.to_algorithm}"
            events.append(
                {
                    "name": name,
                    "cat": "fault",
                    "ph": "i",
                    "s": "t",
                    "ts": _us(d.time),
                    "pid": _PID_FAULTS,
                    "tid": 2,
                    "args": d.as_dict(),
                }
            )

    # --- critical-path track + flow arrows ---------------------------
    if telemetry.causal is not None and telemetry.causal.segments:
        events.extend(_critical_path_events(telemetry.causal, rank_tid))

    # --- phase-audit divergence track --------------------------------
    phase_audit = getattr(telemetry, "phase_audit", None)
    if phase_audit:
        events.extend(_phase_audit_events(phase_audit))
    return events


def _phase_audit_events(audit: Dict[str, object]) -> List[dict]:
    """Divergence track (pid 8) from an attached phase-audit dict.

    One lane, one slice per audited phase spanning its observed
    window; the slice name leads with the verdict so a violation is
    legible without expanding args.
    """
    events: List[dict] = [
        _meta(_PID_PHASE_AUDIT, "phase audit"),
        _meta(_PID_PHASE_AUDIT, "predicted vs observed", 0, thread=True),
    ]
    rows = audit.get("rows") or []
    by_phase: Dict[int, List[dict]] = {}
    for row in rows:
        by_phase.setdefault(int(row.get("phase", -1)), []).append(row)
    verdicts = (audit.get("summary") or {}).get("phase_verdicts") or {}
    for window in audit.get("windows") or []:
        phase = int(window.get("phase", -1))
        start_ms = float(window.get("start_ms", 0.0))
        span_ms = float(window.get("span_ms", 0.0))
        phase_rows = by_phase.get(phase, [])
        verdict = verdicts.get(str(phase), "ok")
        name = (
            f"phase {phase}: {verdict}"
            if verdict != "ok"
            else f"phase {phase} ok"
        )
        events.append(
            {
                "name": name,
                "cat": "phase_audit",
                "ph": "X",
                "ts": start_ms * 1e3,
                "dur": span_ms * 1e3,
                "pid": _PID_PHASE_AUDIT,
                "tid": 0,
                "args": {
                    "verdict": verdict,
                    "barrier_skew_ms": window.get("barrier_skew_ms"),
                    "predicted_bytes": sum(
                        float(r.get("predicted_bytes", 0.0))
                        for r in phase_rows
                    ),
                    "observed_bytes": sum(
                        float(r.get("observed_bytes", 0.0))
                        for r in phase_rows
                    ),
                    "contention_events": sum(
                        int(r.get("contention_events", 0))
                        for r in phase_rows
                    ),
                    "divergent_links": [
                        r.get("link")
                        for r in phase_rows
                        if r.get("verdict") not in ("ok", None)
                    ],
                },
            }
        )
    return events


def _critical_path_events(causal, rank_tid: Dict[str, int]) -> List[dict]:
    """Critical-path lanes (pid 7) and the arrows that stitch them.

    Lane 0 is the *wire* (transfer segments); each rank gets its own
    lane.  Consecutive segments always share an endpoint in time, so a
    lane change is a causal hop — rendered as a ``ph:"s"``/``ph:"f"``
    flow arrow from the middle of the previous slice to the middle of
    the next (mid-slice anchors bind reliably in both chrome://tracing
    and ui.perfetto.dev).
    """
    events: List[dict] = [
        _meta(_PID_CRITICAL, "critical path"),
        _meta(_PID_CRITICAL, "wire", 0, thread=True),
    ]
    for rank, tid in rank_tid.items():
        events.append(_meta(_PID_CRITICAL, rank, tid + 1, thread=True))

    def lane(seg) -> int:
        if seg.kind == "transfer":
            return 0
        rank = seg.dst_rank or seg.src_rank
        return rank_tid.get(rank, -1) + 1

    prev = None  # (lane, midpoint_us)
    arrow = 0
    for seg in causal.segments:
        tid = lane(seg)
        mid = _us((seg.start + seg.end) / 2.0)
        events.append(
            {
                "name": f"{seg.component}: {seg.label}",
                "cat": "critical_path",
                "ph": "X",
                "ts": _us(seg.start),
                "dur": _us(seg.duration),
                "pid": _PID_CRITICAL,
                "tid": tid,
                "args": {
                    "kind": seg.kind,
                    "phase": seg.phase,
                    "component": seg.component,
                    "components_ms": {
                        k: v * 1e3 for k, v in seg.components.items()
                    },
                },
            }
        )
        if prev is not None and prev[0] != tid:
            arrow += 1
            common = {
                "cat": "critical_path",
                "name": "critical path",
                "id": arrow,
                "pid": _PID_CRITICAL,
            }
            events.append(
                {**common, "ph": "s", "tid": prev[0], "ts": prev[1]}
            )
            events.append(
                {**common, "ph": "f", "bp": "e", "tid": tid, "ts": mid}
            )
        prev = (tid, mid)
    return events


def perfetto_trace(telemetry: "RunTelemetry") -> dict:
    """The full JSON object (``traceEvents`` + display hints)."""
    return {
        "traceEvents": perfetto_events(telemetry),
        "displayTimeUnit": "ms",
        "otherData": {
            "completion_time_ms": telemetry.completion_time * 1e3,
            "contention_free_verified": telemetry.contention_free_verified,
            "generator": "repro-aapc flight recorder",
            "repro_version": __version__,
        },
    }


def write_perfetto(telemetry: "RunTelemetry", path: str) -> None:
    """Serialize the trace to *path* (open at ui.perfetto.dev)."""
    write_json(path, perfetto_trace(telemetry))
