"""Ledger analytics dashboard: one self-contained static HTML file.

``repro-aapc dash`` turns the append-only run ledger into a browsable
report — no server, no network fetches, every byte inline.  Runs are
grouped by topology fingerprint (the key that keeps different clusters
from being compared as like-for-like) and each group renders:

* the per-algorithm **completion-time trajectory** across runs,
* the **scheduler-runtime trend** (offline pipeline cost),
* the **attribution-component stacked view** (where the gap to the
  paper's ``load/B`` bound goes, per run and algorithm),
* **hot-loop counter trends** from the ``stats`` blocks the metrics
  registry appends (events processed, max-min re-solves, syncs posted)
  — the evidence base for the engine/solver vectorisation work,
* the **phase-audit heatmap** — one cell per (run × algorithm, phase)
  colored by the phase observatory's verdict, so a contention
  violation or occupancy divergence anywhere in history is one glance
  away,
* the **sentinel timeline** — the regression sentinel's
  changepoint/robust-z anomalies plotted against the group's run
  axis, marking exactly where a metric stepped or spiked.

Charts are hand-emitted inline SVG: series colors come from a fixed
categorical palette (assigned per algorithm across the whole document,
never cycled), light and dark modes are both first-class via CSS custom
properties, every chart carries a legend, hover tooltips, and a
collapsible data table so no value is readable by color alone.
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.units import format_duration_ms

# Categorical palette (validated order; dark column is the same hues
# re-stepped for the dark surface, not a separate palette).
_SERIES_LIGHT = (
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
)
_SERIES_DARK = (
    "#3987e5", "#d95926", "#199e70", "#c98500",
    "#d55181", "#008300", "#9085e9", "#e66767",
)

#: Attribution components, in stacking (and palette-slot) order.
_GAP_COMPONENTS = (
    "protocol_efficiency",
    "startup",
    "sync_wait",
    "contention",
    "fault",
    "residual",
)

#: Hot-loop counters worth trending (subset of the registry's names).
_TREND_COUNTERS = (
    "engine.events_total",
    "network.resolves_total",
    "network.flow_set_changes",
    "mpi.syncs_posted",
    "mpi.syncs_retired",
    "mpi.retransmits",
)

# Chart geometry (SVG user units).
_W, _H = 680, 240
_ML, _MR, _MT, _MB = 64, 16, 14, 34


def write_dashboard(records: Sequence[object], path: str, *, title: str = "repro-aapc ledger dashboard") -> None:
    """Render *records* (ledger :class:`RunRecord` objects) to *path*."""
    text = render_dashboard(records, title=title)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def render_dashboard(
    records: Sequence[object], *, title: str = "repro-aapc ledger dashboard"
) -> str:
    """The full HTML document for a sequence of ledger records."""
    groups: Dict[str, List[object]] = {}
    for r in records:
        groups.setdefault(r.topology_fingerprint, []).append(r)

    # One fixed color slot per algorithm across the whole document, in
    # sorted order: color follows the entity, never its rank.
    algorithms = sorted(
        {name for r in records for name in r.algorithms}
    )
    alg_slot = {name: i for i, name in enumerate(algorithms[:8])}

    body: List[str] = []
    if not records:
        body.append("<p class='empty'>The ledger has no records yet.</p>")
    for fingerprint in sorted(groups):
        body.append(_render_group(fingerprint, groups[fingerprint], alg_slot))

    # Token replacement, not str.format: the inline CSS/JS is full of
    # braces.
    return (
        _HTML_TEMPLATE.replace("__TITLE__", html.escape(title))
        .replace("__VERSION__", html.escape(__version__))
        .replace("__NRECORDS__", str(len(records)))
        .replace("__NGROUPS__", str(len(groups)))
        .replace("__BODY__", "\n".join(body))
    )


# ----------------------------------------------------------------------
# per-fingerprint group
# ----------------------------------------------------------------------
def _render_group(
    fingerprint: str, records: List[object], alg_slot: Dict[str, int]
) -> str:
    spec = records[-1].topology_spec or "?"
    labels = [r.run_id[-13:] for r in records]
    parts: List[str] = [
        "<section class='group'>",
        f"<h2>{html.escape(spec)} <span class='fp'>topology "
        f"{html.escape(fingerprint)} &middot; {len(records)} run(s)"
        "</span></h2>",
    ]

    # Completion-time trajectory.
    completion = {
        name: [
            r.algorithms[name].completion_time_ms if name in r.algorithms else None
            for r in records
        ]
        for name in sorted({n for r in records for n in r.algorithms})
        if name in alg_slot
    }
    parts.append(
        _line_chart(
            f"completion-{fingerprint}",
            "Completion time by algorithm",
            completion,
            labels,
            alg_slot,
            fmt=format_duration_ms,
        )
    )

    # Scheduler-runtime trend.
    sched = {
        name: [
            (
                r.algorithms[name].scheduler_runtime_ms
                if name in r.algorithms
                else None
            )
            for r in records
        ]
        for name in completion
    }
    sched = {
        name: vals
        for name, vals in sched.items()
        if any(v is not None for v in vals)
    }
    if sched:
        parts.append(
            _line_chart(
                f"sched-{fingerprint}",
                "Scheduler runtime (offline pipeline)",
                sched,
                labels,
                alg_slot,
                fmt=format_duration_ms,
            )
        )

    # Attribution stacked view.
    bars: List[Tuple[str, Dict[str, float]]] = []
    for r, label in zip(records, labels):
        for name in sorted(r.algorithms):
            attribution = r.algorithms[name].attribution
            if not attribution:
                continue
            components = attribution.get("components_ms") or {}
            bars.append(
                (
                    f"{label} {name}",
                    {c: float(components.get(c, 0.0)) for c in _GAP_COMPONENTS},
                )
            )
    if bars:
        parts.append(
            _stacked_chart(
                f"attrib-{fingerprint}",
                "Optimality-gap attribution (components, ms)",
                bars,
            )
        )

    # Hot-loop counter trends (one small chart per counter: the scales
    # differ by orders of magnitude, so they never share an axis).
    stat_rows: Dict[str, List[Optional[float]]] = {}
    for counter in _TREND_COUNTERS:
        vals: List[Optional[float]] = []
        for r in records:
            best: Optional[float] = None
            for entry in r.algorithms.values():
                stats = entry.stats
                if stats:
                    v = (stats.get("counters") or {}).get(counter)
                    if v is not None:
                        best = (best or 0.0) + float(v)
            vals.append(best)
        if any(v is not None for v in vals):
            stat_rows[counter] = vals
    if stat_rows:
        parts.append("<h3>Hot-loop counters</h3><div class='sparkrow'>")
        for counter, vals in stat_rows.items():
            parts.append(
                _line_chart(
                    f"ctr-{fingerprint}-{counter}",
                    counter,
                    {counter: vals},
                    labels,
                    {counter: 0},
                    fmt=lambda v: f"{v:,.0f}",
                    small=True,
                )
            )
        parts.append("</div>")

    # Phase-audit heatmap (runs that carried a phase observatory pass).
    heat_rows: List[Tuple[str, Dict[int, str]]] = []
    for r, label in zip(records, labels):
        for name in sorted(r.algorithms):
            audit = getattr(r.algorithms[name], "phase_audit", None)
            if not audit:
                continue
            verdicts = {
                int(phase): str(verdict)
                for phase, verdict in (
                    audit.get("phase_verdicts") or {}
                ).items()
            }
            if verdicts:
                heat_rows.append((f"{label} {name}", verdicts))
    if heat_rows:
        parts.append(
            _phase_heatmap(
                f"phases-{fingerprint}",
                "Phase-audit verdicts (phase observatory)",
                heat_rows,
            )
        )

    # Sentinel timeline: anomalies over this group's history.
    parts.append(_sentinel_panel(fingerprint, records, labels))

    parts.append("</section>")
    return "\n".join(parts)


#: Verdict -> palette slot for the phase heatmap (shared swatch CSS).
_VERDICT_SLOTS = (
    ("ok", 2),                     # green
    ("divergent", 3),              # amber
    ("contention-violation", 7),   # red
    ("unobserved", 4),             # muted pink
)


def _phase_heatmap(
    chart_id: str,
    title: str,
    rows: List[Tuple[str, Dict[int, str]]],
) -> str:
    """Grid of per-phase verdicts: one row per run × algorithm."""
    slot_of = dict(_VERDICT_SLOTS)
    phases = sorted({p for _, verdicts in rows for p in verdicts})
    cell, gap, label_w = 22, 3, 170
    w = label_w + len(phases) * (cell + gap) + 16
    h = 26 + len(rows) * (cell + gap) + 8
    out = [
        f"<figure class='chart' id='{html.escape(chart_id)}'>",
        f"<figcaption>{html.escape(title)}</figcaption>",
        f"<svg viewBox='0 0 {w} {h}' role='img' "
        f"aria-label='{html.escape(title)}'>",
    ]
    for j, phase in enumerate(phases):
        x = label_w + j * (cell + gap) + cell / 2.0
        out.append(
            f"<text class='tick' x='{x:.1f}' y='14' "
            f"text-anchor='middle'>{phase}</text>"
        )
    for i, (label, verdicts) in enumerate(rows):
        y = 26 + i * (cell + gap)
        out.append(
            f"<text class='tick' x='{label_w - 8}' "
            f"y='{y + cell / 2.0 + 3.5:.1f}' text-anchor='end'>"
            f"{html.escape(label[:24])}</text>"
        )
        for j, phase in enumerate(phases):
            verdict = verdicts.get(phase)
            if verdict is None:
                continue
            x = label_w + j * (cell + gap)
            slot = slot_of.get(verdict, 0)
            tip = f"{label} &middot; phase {phase}: {verdict}"
            out.append(
                f"<rect class='fill s{slot}' x='{x}' y='{y}' "
                f"width='{cell}' height='{cell}' rx='3' "
                f"data-tip=\"{html.escape(tip, quote=True)}\"/>"
            )
    out.append("</svg>")
    out.append("<div class='legend'>")
    for verdict, slot in _VERDICT_SLOTS:
        out.append(
            f"<span class='key'><span class='swatch s{slot}'></span>"
            f"{html.escape(verdict)}</span>"
        )
    out.append("</div>")
    head = "".join(f"<th>phase {p}</th>" for p in phases)
    body = []
    for label, verdicts in rows:
        cells = "".join(
            f"<td>{html.escape(verdicts.get(p, '&mdash;'))}</td>"
            if verdicts.get(p) is not None
            else "<td>&mdash;</td>"
            for p in phases
        )
        body.append(
            f"<tr><th scope='row'>{html.escape(label)}</th>{cells}</tr>"
        )
    out.append(
        "<details><summary>Data table</summary><table>"
        f"<thead><tr><th>run</th>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table></details>"
    )
    out.append("</figure>")
    return "\n".join(out)


def _sentinel_panel(
    fingerprint: str, records: List[object], labels: List[str]
) -> str:
    """Regression-sentinel anomalies on the group's run axis."""
    from repro.obs.sentinel import run_sentinel

    report = run_sentinel(records)
    index_of = {r.run_id: i for i, r in enumerate(records)}
    anomalies = [
        a for a in report.anomalies if a.point.run_id in index_of
    ]
    if not anomalies:
        return (
            "<p class='empty'>Sentinel: no anomalies in "
            f"{report.series_scanned} series.</p>"
        )
    lanes = sorted(
        {f"{a.key.algorithm} {a.key.metric}" for a in anomalies}
    )
    lane_of = {lane: i for i, lane in enumerate(lanes)}
    cell, label_w = 24, 230
    n = len(records)
    w = label_w + max(n, 1) * cell + 16
    h = 26 + len(lanes) * cell + 8
    out = [
        f"<figure class='chart' id='sentinel-{html.escape(fingerprint)}'>",
        "<figcaption>Sentinel timeline (anomalies over ledger "
        "history)</figcaption>",
        f"<svg viewBox='0 0 {w} {h}' role='img' "
        "aria-label='Sentinel timeline'>",
    ]
    step = max(1, n // 8)
    for i, label in enumerate(labels):
        if i % step and i != n - 1:
            continue
        x = label_w + i * cell + cell / 2.0
        out.append(
            f"<text class='tick' x='{x:.1f}' y='14' "
            f"text-anchor='middle'>{html.escape(label[-6:])}</text>"
        )
    for lane, i in lane_of.items():
        y = 26 + i * cell
        out.append(
            f"<text class='tick' x='{label_w - 8}' "
            f"y='{y + cell / 2.0 + 3.5:.1f}' text-anchor='end'>"
            f"{html.escape(lane[:32])}</text>"
        )
        out.append(
            f"<line class='grid' x1='{label_w}' "
            f"y1='{y + cell / 2.0:.1f}' x2='{w - 8}' "
            f"y2='{y + cell / 2.0:.1f}'/>"
        )
    for a in anomalies:
        i = index_of[a.point.run_id]
        lane = lane_of[f"{a.key.algorithm} {a.key.metric}"]
        x = label_w + i * cell + cell / 2.0
        y = 26 + lane * cell + cell / 2.0
        slot = 7 if a.direction == "regression" else 2
        score = "inf" if a.score == float("inf") else f"{a.score:.2f}"
        tip = (
            f"{a.key.algorithm} {a.key.metric} &middot; {a.kind} at "
            f"{a.point.run_id}: {format_duration_ms(a.baseline)} &rarr; "
            f"{format_duration_ms(a.point.value)} (score {score}, "
            f"{a.direction})"
        )
        if a.kind == "step":
            out.append(
                f"<rect class='fill s{slot}' x='{x - 5:.1f}' "
                f"y='{y - 5:.1f}' width='10' height='10' "
                f"data-tip=\"{html.escape(tip, quote=True)}\"/>"
            )
        else:
            out.append(
                f"<circle class='mark s{slot}' cx='{x:.1f}' "
                f"cy='{y:.1f}' r='5' "
                f"data-tip=\"{html.escape(tip, quote=True)}\"/>"
            )
    out.append("</svg>")
    out.append(
        "<div class='legend'>"
        "<span class='key'><span class='swatch s7'></span>regression"
        "</span>"
        "<span class='key'><span class='swatch s2'></span>improvement"
        "</span>"
        "<span class='key'>square = step, dot = outlier</span>"
        "</div>"
    )
    body = []
    for a in anomalies:
        body.append(
            f"<tr><th scope='row'>{html.escape(a.point.run_id)}</th>"
            f"<td>{html.escape(a.key.algorithm)}</td>"
            f"<td>{html.escape(a.key.metric)}</td>"
            f"<td>{html.escape(a.kind)}</td>"
            f"<td>{html.escape(format_duration_ms(a.baseline))}</td>"
            f"<td>{html.escape(format_duration_ms(a.point.value))}</td>"
            f"<td>{html.escape(a.direction)}</td></tr>"
        )
    out.append(
        "<details><summary>Data table</summary><table>"
        "<thead><tr><th>run</th><th>algorithm</th><th>metric</th>"
        "<th>kind</th><th>baseline</th><th>value</th><th>direction</th>"
        "</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table></details>"
    )
    out.append("</figure>")
    return "\n".join(out)


# ----------------------------------------------------------------------
# charts
# ----------------------------------------------------------------------
def _nice_ticks(lo: float, hi: float, n: int = 4) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    return [lo + span * i / n for i in range(n + 1)]


def _line_chart(
    chart_id: str,
    title: str,
    series: Dict[str, List[Optional[float]]],
    xlabels: List[str],
    slot_of: Dict[str, int],
    *,
    fmt,
    small: bool = False,
) -> str:
    w, h = (320, 140) if small else (_W, _H)
    ml, mr, mt, mb = (54, 10, 10, 24) if small else (_ML, _MR, _MT, _MB)
    values = [v for vals in series.values() for v in vals if v is not None]
    lo = 0.0
    hi = max(values) if values else 1.0
    ticks = _nice_ticks(lo, hi)
    n = max(len(xlabels), 1)

    def sx(i: int) -> float:
        if n == 1:
            return ml + (w - ml - mr) / 2.0
        return ml + (w - ml - mr) * i / (n - 1)

    def sy(v: float) -> float:
        return h - mb - (h - mb - mt) * (v - lo) / (ticks[-1] - lo or 1.0)

    out: List[str] = [
        f"<figure class='chart' id='{html.escape(chart_id)}'>",
        f"<figcaption>{html.escape(title)}</figcaption>",
        f"<svg viewBox='0 0 {w} {h}' role='img' "
        f"aria-label='{html.escape(title)}'>",
    ]
    for t in ticks:
        y = sy(t)
        out.append(
            f"<line class='grid' x1='{ml}' y1='{y:.1f}' x2='{w - mr}' "
            f"y2='{y:.1f}'/>"
        )
        out.append(
            f"<text class='tick' x='{ml - 6}' y='{y + 3.5:.1f}' "
            f"text-anchor='end'>{html.escape(fmt(t))}</text>"
        )
    out.append(
        f"<line class='axis' x1='{ml}' y1='{h - mb}' x2='{w - mr}' "
        f"y2='{h - mb}'/>"
    )
    step = max(1, n // (4 if small else 8))
    for i, label in enumerate(xlabels):
        if i % step and i != n - 1:
            continue
        out.append(
            f"<text class='tick' x='{sx(i):.1f}' y='{h - mb + 14}' "
            f"text-anchor='middle'>{html.escape(label)}</text>"
        )
    for name, vals in series.items():
        slot = slot_of.get(name, 0) % 8
        points = [
            (sx(i), sy(v)) for i, v in enumerate(vals) if v is not None
        ]
        if len(points) > 1:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
            out.append(
                f"<polyline class='line s{slot}' points='{path}'/>"
            )
        for (x, y), (i, v) in zip(
            points, [(i, v) for i, v in enumerate(vals) if v is not None]
        ):
            tip = f"{name} &middot; {xlabels[i]}: {fmt(v)}"
            out.append(
                f"<circle class='mark s{slot}' cx='{x:.1f}' cy='{y:.1f}' "
                f"r='4' data-tip=\"{html.escape(tip, quote=True)}\"/>"
            )
    out.append("</svg>")
    if not small and len(series) >= 2:
        out.append("<div class='legend'>")
        for name in series:
            slot = slot_of.get(name, 0) % 8
            out.append(
                f"<span class='key'><span class='swatch s{slot}'></span>"
                f"{html.escape(name)}</span>"
            )
        out.append("</div>")
    out.append(_data_table(series, xlabels, fmt))
    out.append("</figure>")
    return "\n".join(out)


def _stacked_chart(
    chart_id: str,
    title: str,
    bars: List[Tuple[str, Dict[str, float]]],
) -> str:
    w, h = _W, _H
    ml, mr, mt, mb = _ML, _MR, _MT, 48
    totals = [sum(max(v, 0.0) for v in comps.values()) for _, comps in bars]
    hi = max(totals) if totals else 1.0
    ticks = _nice_ticks(0.0, hi)
    n = len(bars)
    slot_w = (w - ml - mr) / max(n, 1)
    bar_w = min(36.0, slot_w * 0.6)

    def sy(v: float) -> float:
        return h - mb - (h - mb - mt) * v / (ticks[-1] or 1.0)

    out: List[str] = [
        f"<figure class='chart' id='{html.escape(chart_id)}'>",
        f"<figcaption>{html.escape(title)}</figcaption>",
        f"<svg viewBox='0 0 {w} {h}' role='img' "
        f"aria-label='{html.escape(title)}'>",
    ]
    for t in ticks:
        y = sy(t)
        out.append(
            f"<line class='grid' x1='{ml}' y1='{y:.1f}' x2='{w - mr}' "
            f"y2='{y:.1f}'/>"
        )
        out.append(
            f"<text class='tick' x='{ml - 6}' y='{y + 3.5:.1f}' "
            f"text-anchor='end'>{html.escape(format_duration_ms(t))}</text>"
        )
    out.append(
        f"<line class='axis' x1='{ml}' y1='{h - mb}' x2='{w - mr}' "
        f"y2='{h - mb}'/>"
    )
    for i, (label, comps) in enumerate(bars):
        x = ml + slot_w * (i + 0.5) - bar_w / 2.0
        y = h - mb
        for j, comp in enumerate(_GAP_COMPONENTS):
            v = max(comps.get(comp, 0.0), 0.0)
            if v <= 0:
                continue
            seg_h = (h - mb - mt) * v / (ticks[-1] or 1.0)
            y_top = y - seg_h
            tip = f"{label} &middot; {comp}: {format_duration_ms(v)}"
            # 2px surface gap between stacked segments.
            out.append(
                f"<rect class='fill s{j}' x='{x:.1f}' "
                f"y='{y_top:.1f}' width='{bar_w:.1f}' "
                f"height='{max(seg_h - 2.0, 0.5):.1f}' rx='2' "
                f"data-tip=\"{html.escape(tip, quote=True)}\"/>"
            )
            y = y_top
        out.append(
            f"<text class='tick' x='{ml + slot_w * (i + 0.5):.1f}' "
            f"y='{h - mb + 14}' text-anchor='middle'>"
            f"{html.escape(label[:18])}</text>"
        )
    out.append("</svg>")
    out.append("<div class='legend'>")
    for j, comp in enumerate(_GAP_COMPONENTS):
        out.append(
            f"<span class='key'><span class='swatch s{j}'></span>"
            f"{html.escape(comp)}</span>"
        )
    out.append("</div>")
    series = {
        comp: [comps.get(comp, 0.0) for _, comps in bars]
        for comp in _GAP_COMPONENTS
    }
    out.append(_data_table(series, [label for label, _ in bars], format_duration_ms))
    out.append("</figure>")
    return "\n".join(out)


def _data_table(
    series: Dict[str, List[Optional[float]]],
    xlabels: List[str],
    fmt,
) -> str:
    head = "".join(f"<th>{html.escape(name)}</th>" for name in series)
    rows = []
    for i, label in enumerate(xlabels):
        cells = "".join(
            f"<td>{html.escape(fmt(vals[i])) if i < len(vals) and vals[i] is not None else '&mdash;'}</td>"
            for vals in series.values()
        )
        rows.append(f"<tr><th scope='row'>{html.escape(label)}</th>{cells}</tr>")
    return (
        "<details><summary>Data table</summary><table>"
        f"<thead><tr><th>run</th>{head}</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table></details>"
    )


# ----------------------------------------------------------------------
# document shell (palette + hover layer inline; zero external fetches)
# ----------------------------------------------------------------------
_CSS_SERIES_LIGHT = "\n".join(
    f".viz-root .s{i} {{ --series: {c}; }}" for i, c in enumerate(_SERIES_LIGHT)
)
_CSS_SERIES_DARK = "\n".join(
    f".s{i} {{ --series: {c}; }}" for i, c in enumerate(_SERIES_DARK)
)

_DARK_VARS = """    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255,255,255,0.10);
"""

_HTML_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>__TITLE__</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
}
""" + _CSS_SERIES_LIGHT + """
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
""" + _DARK_VARS + """  }
""" + _CSS_SERIES_DARK.replace(
    ".s", '  :root:where(:not([data-theme="light"])) .viz-root .s'
) + """
}
:root[data-theme="dark"] .viz-root {
""" + _DARK_VARS + """}
""" + _CSS_SERIES_DARK.replace(".s", ':root[data-theme="dark"] .viz-root .s') + """
body.viz-root {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 24px 0 8px; }
h3 { font-size: 14px; margin: 16px 0 8px; color: var(--text-secondary); }
.sub, .fp, .empty { color: var(--text-secondary); font-weight: normal; }
.fp { font-size: 12px; }
.group { margin-bottom: 16px; }
.chart {
  margin: 0 0 16px; padding: 12px;
  background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 8px;
  max-width: 720px; display: inline-block; vertical-align: top;
}
.chart figcaption { color: var(--text-secondary); margin-bottom: 6px; }
.sparkrow .chart { max-width: 352px; margin-right: 8px; }
svg { display: block; width: 100%; height: auto; }
.grid { stroke: var(--grid); stroke-width: 1; }
.axis { stroke: var(--baseline); stroke-width: 1; }
.tick { fill: var(--muted); font-size: 10px;
        font-variant-numeric: tabular-nums; }
.line { fill: none; stroke: var(--series); stroke-width: 2;
        stroke-linejoin: round; }
.mark { fill: var(--series); stroke: var(--surface-1); stroke-width: 2; }
.fill { fill: var(--series); }
.legend { margin-top: 6px; }
.key { margin-right: 14px; color: var(--text-secondary); font-size: 12px; }
.swatch { display: inline-block; width: 10px; height: 10px;
          border-radius: 2px; background: var(--series);
          margin-right: 5px; vertical-align: -1px; }
details { margin-top: 8px; color: var(--text-secondary); font-size: 12px; }
table { border-collapse: collapse; margin-top: 6px; }
th, td { border: 1px solid var(--grid); padding: 3px 8px;
         font-variant-numeric: tabular-nums; text-align: right; }
th[scope="row"], thead th { text-align: left; font-weight: 600; }
#tip {
  position: fixed; display: none; pointer-events: none;
  background: var(--surface-1); color: var(--text-primary);
  border: 1px solid var(--border); border-radius: 4px;
  padding: 4px 8px; font-size: 12px; z-index: 10;
  box-shadow: 0 2px 8px rgba(0,0,0,0.15);
}
</style>
</head>
<body class="viz-root">
<h1>__TITLE__</h1>
<p class="sub">repro-aapc __VERSION__ &middot; __NRECORDS__ record(s) across
__NGROUPS__ topology fingerprint(s). Generated from the run ledger; fully
self-contained.</p>
__BODY__
<div id="tip" role="status"></div>
<script>
(function () {
  var tip = document.getElementById('tip');
  document.addEventListener('mouseover', function (e) {
    var t = e.target.getAttribute && e.target.getAttribute('data-tip');
    if (t) { tip.innerHTML = t; tip.style.display = 'block'; }
  });
  document.addEventListener('mousemove', function (e) {
    if (tip.style.display === 'block') {
      tip.style.left = (e.clientX + 12) + 'px';
      tip.style.top = (e.clientY + 12) + 'px';
    }
  });
  document.addEventListener('mouseout', function (e) {
    if (e.target.getAttribute && e.target.getAttribute('data-tip')) {
      tip.style.display = 'none';
    }
  });
})();
</script>
</body>
</html>
"""
