"""Text timelines from execution traces.

Turns a :class:`~repro.sim.trace.Trace` into terminal-friendly views:

* :func:`render_rank_gantt` — one row per rank, time binned across the
  width, showing when each rank posts sends/receives, waits, and syncs.
  The drift of unsynchronized phased algorithms — and the lockstep of
  the pair-wise-synchronized schedule — is visible at a glance.
* :func:`phase_latency_table` — per schedule phase: first activity,
  last activity, span; quantifies phase overlap.

Legend for the gantt cells (when several events share a bin the most
"interesting" wins, in this order):

    ``Y`` sync wait   ``s`` send post   ``r`` recv post
    ``w`` waitall completion   ``.`` other activity   space = idle
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.sim.trace import Trace, TraceRecord
from repro.units import seconds_to_ms

#: Cell priority: later entries overwrite earlier ones within a bin.
_GLYPH_PRIORITY = {
    "": 0,
    ".": 1,
    "w": 2,
    "r": 3,
    "s": 4,
    "Y": 5,
}

_WHAT_TO_GLYPH = {
    "post_send": "s",
    "post_recv": "r",
    "complete_send": "w",
    "complete_recv": "w",
    "waitall_done": "w",
    "sync_wait": "Y",
    "sync_recv": "Y",
    "sync_send": "s",
    "barrier": "w",
}


def render_rank_gantt(
    trace: Trace,
    ranks: Optional[Sequence[str]] = None,
    *,
    width: int = 72,
    t0: float = 0.0,
    t1: Optional[float] = None,
) -> str:
    """Render per-rank activity rows over binned simulated time.

    *t0*/*t1* optionally zoom the view to a time window (seconds); the
    default covers the whole trace.
    """
    if not trace.records:
        raise ReproError("trace is empty; run with trace=True")
    if t1 is None:
        t1 = max(r.time for r in trace.records)
    records = trace.between(t0, t1)
    if not records:
        raise ReproError(f"no trace records in window [{t0}, {t1}]")
    if ranks is None:
        seen: List[str] = []
        for r in records:
            if r.rank not in seen:
                seen.append(r.rank)
        ranks = sorted(seen)
    span = t1 - t0
    span = span if span > 0 else 1e-9
    rows: Dict[str, List[str]] = {rank: [""] * width for rank in ranks}
    rank_set = set(ranks)
    for record in records:
        if record.rank not in rank_set:
            continue
        cell = min(width - 1, int((record.time - t0) / span * width))
        glyph = _WHAT_TO_GLYPH.get(record.what, ".")
        row = rows[record.rank]
        if _GLYPH_PRIORITY[glyph] > _GLYPH_PRIORITY[row[cell]]:
            row[cell] = glyph
    name_width = max(len(r) for r in ranks)
    lines = [
        f"{seconds_to_ms(t0):g} {'-' * (width - 2)}> {seconds_to_ms(t1):.2f} ms "
        "(s=send r=recv w=complete Y=sync)"
    ]
    for rank in ranks:
        body = "".join(c if c else " " for c in rows[rank])
        lines.append(f"{rank:>{name_width}} |{body}|")
    return "\n".join(lines)


def phase_latency_table(trace: Trace) -> str:
    """Per-phase first/last activity, span and record count, in ms."""
    spans = trace.phase_spans()
    if not spans:
        raise ReproError("trace has no phase-tagged records")
    lines = [
        f"{'phase':>6} {'start ms':>10} {'end ms':>10} {'span ms':>9} {'ops':>6}"
    ]
    ops = Counter(r.phase for r in trace.records)
    for phase in sorted(spans):
        lo, hi = spans[phase]
        lines.append(
            f"{phase:>6} {seconds_to_ms(lo):>10.2f} {seconds_to_ms(hi):>10.2f} "
            f"{seconds_to_ms(hi - lo):>9.2f} {ops[phase]:>6}"
        )
    return "\n".join(lines)


def phase_overlap_fraction(trace: Trace) -> float:
    """Fraction of consecutive phase pairs whose activity spans overlap.

    Note the spans include operation *posting*: ranks legitimately post
    receives for future phases early (pipelining), so even a perfectly
    synchronized run shows high overlap.  This measures pipelining
    depth, not contention — for contention use the executor's
    ``max_edge_multiplexing`` (1 = contention-free execution).
    """
    from repro.obs.diagnostics import schedule_health

    return schedule_health(trace).overlap_fraction
