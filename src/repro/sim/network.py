"""Flow-level network model with max-min fair bandwidth sharing.

Every in-flight (rendezvous) message is a :class:`Flow` over the unique
directed tree path between its endpoints.  Whenever the flow set
changes, rates are recomputed by **progressive filling**: repeatedly
find the directed edge with the smallest fair share
``available_capacity / unfrozen_flows`` and freeze its flows at that
share — the classic max-min allocation.  Edge capacity shrinks under
multiplexing via :meth:`NetworkParams.effective_capacity`, modelling
TCP/Ethernet goodput collapse (see :mod:`repro.sim.params`).

The solve itself is delegated to an allocator
(:mod:`repro.sim.allocator`): the default ``incremental`` allocator
re-solves only the connected component of the flow/edge incidence
graph reachable from edges whose flow set changed — flows elsewhere
keep their rates, which max-min decomposition makes exact — while the
``reference`` allocator re-runs the original full filling every time.

Rate-change instants are *batched*: adds/removes/completions at the
same instant coalesce into a single settle that runs at the end of the
engine's same-timestamp batch (:meth:`Engine.defer`), which keeps both
event counts and re-solve counts manageable when e.g. the LAM
algorithm launches ~1000 flows at once.  Per-flow byte accounting is
lazy — a flow's ``remaining`` is caught up only when its own rate
changes, at its completion deadline, or via :meth:`sync_progress`.

This module alone decides whether traffic is dense.  After two
consecutive settles whose closure held at least :data:`DENSE_MIN_FLOWS`
flows, with at least that many active, the network is *wide* — LAM's
all-at-once posting, where every closure is nearly the whole flow set:
each settle marks every edge dirty and re-solves the whole flow set
with no closure walk.  It stays wide until fewer than
:data:`DENSE_MIN_FLOWS` flows are active.  Contention-free traffic
never is: its closures are single flows.

Per-flow state lives in one of two places:

* **Python floats on the** :class:`Flow` (sparse traffic, the common
  case): completions come from a deadline heap whose entries carry the
  flow's generation counter, so superseded entries are skipped lazily.
* **Arrays indexed by the flow's slot** (:class:`FlowSlots`) while the
  network is wide and its allocator solves slots
  (:attr:`~repro.sim.allocator.BaseAllocator.solves_slots`).  Advancing
  bytes, finding due flows, the waterfill and the deadline recompute
  are then array operations; ``Flow.rate`` is still kept current.

Every active flow owns a slot either way: its row of the slot × edge
incidence matrix (columns in first-seen edge order) feeds the array
waterfill, which also solves large components of sparse traffic.  Both
representations perform the same float operations in the same order,
so on the same scopes they give the same results bit for bit.  The
scope itself does matter at rounding level: it decides which flows a
settle advances, which moves byte ledgers and times by ulps, within the
allocator differential suite's 1e-9.  Completed :class:`Flow` objects
are pooled and reused by later :meth:`start_flow` calls; a completed
flow's fields stay readable until the object is reused.
"""

from __future__ import annotations

import heapq
import math
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.bus import EventBus, FlowFinished, FlowStarted, LinkOccupancy
from repro.obs.metrics_registry import active_registry
from repro.sim.allocator import make_allocator
from repro.sim.engine import Engine
from repro.sim.params import NetworkParams
from repro.topology.graph import Edge, Topology
from repro.topology.paths import PathOracle

#: Residual bytes below which a flow counts as finished (float safety).
_EPSILON_BYTES = 1e-6

#: Slack when collecting due deadlines: the engine may fire a timer one
#: rounding step before the stored deadline (``now + (d - now)`` need
#: not equal ``d`` in floats); deadlines this close are due.
_EPSILON_TIME = 1e-12

#: Closure size (flows re-solved at once) from which settles go wide
#: and per-flow state moves into the slot arrays.  Measured crossover,
#: LAM on star-of-4 trees at 8 KB and 64 KB: per-flow floats and slot
#: arrays break even between 90 and 132 flows, and the arrays win from
#: 182 on (see CHANGES.md for the sweep).
DENSE_MIN_FLOWS = 128

_SLOT = attrgetter("slot")


class Flow:
    """One fluid transfer over a fixed directed path."""

    __slots__ = (
        "fid", "src", "dst", "edges", "size", "remaining", "rate",
        "on_complete", "start_time", "end_time", "tag", "phase",
        "gen", "updated", "drate", "slot",
    )

    def __init__(
        self,
        fid: int,
        src: str,
        dst: str,
        edges: Tuple[Edge, ...],
        nbytes: float,
        on_complete: Callable[["Flow"], None],
        start_time: float,
        tag: int = -1,
        phase: int = -1,
    ) -> None:
        #: Invalidates queued deadline entries when the rate changes.
        self.gen = 0
        #: Row of the network's :class:`FlowSlots` (-1 = none).
        self.slot = -1
        self.reinit(
            fid, src, dst, edges, nbytes, on_complete, start_time, tag, phase
        )

    def reinit(
        self,
        fid: int,
        src: str,
        dst: str,
        edges: Tuple[Edge, ...],
        nbytes: float,
        on_complete: Callable[["Flow"], None],
        start_time: float,
        tag: int = -1,
        phase: int = -1,
    ) -> None:
        """Recycle a pooled object for a fresh transfer."""
        self.fid = fid
        self.src = src
        self.dst = dst
        self.edges = edges
        self.size = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.on_complete = on_complete
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self.tag = tag
        self.phase = phase
        self.gen += 1
        #: Simulated time up to which ``remaining`` is accounted.
        self.updated = start_time
        #: Rate under which the live deadline-heap entry was computed
        #: (0.0 = no live entry).  A solve that lands on the same rate
        #: keeps the entry: the completion instant is unchanged.
        self.drate = 0.0


class FlowSlots:
    """Per-flow arrays indexed by slot, plus the slot × edge incidence.

    ``cols[slot]`` lists the flow's path edges as column numbers — the
    network's first-seen edge order, which is the reference filler's
    scan order — padded with :attr:`pad`.  ``remaining``, ``rate``,
    ``updated`` and ``deadline`` hold the flow's state only while the
    network is in dense mode; ``deadline`` is ``inf`` for free slots and
    for flows without a completion instant (rate 0).
    """

    def __init__(self, ncols: int) -> None:
        #: Padding column, one past the last edge column.
        self.pad = ncols
        #: Owner of each slot (``None`` = free).
        self.flows: List[Optional[Flow]] = []
        self._free: List[int] = []
        self.cols = np.full((0, 1), ncols, dtype=np.intp)
        self.big = np.zeros(0, dtype=bool)
        self.remaining = np.zeros(0)
        self.rate = np.zeros(0)
        self.updated = np.zeros(0)
        self.deadline = np.zeros(0)
        self._resize(64, 1)

    @property
    def width(self) -> int:
        """Columns per incidence row (the longest path seen)."""
        return self.cols.shape[1]

    def _resize(self, capacity: int, width: int) -> None:
        n = len(self.big)
        cols = np.full((capacity, width), self.pad, dtype=np.intp)
        cols[:n, : self.width] = self.cols
        self.cols = cols
        #: Padding that completes a row of ``k`` columns, by ``k``.
        self._pad_tails = [[self.pad] * (width - k) for k in range(width + 1)]
        for name, fill in (
            ("big", False), ("remaining", 0.0), ("rate", 0.0),
            ("updated", 0.0), ("deadline", math.inf),
        ):
            old = getattr(self, name)
            new = np.full(capacity, fill, dtype=old.dtype)
            new[:n] = old
            setattr(self, name, new)

    def acquire(self, flow: Flow, cols: List[int], big: bool) -> int:
        """A free slot for *flow*, which crosses edge columns *cols*."""
        if self._free:
            slot = self._free.pop()
            self.flows[slot] = flow
        else:
            slot = len(self.flows)
            self.flows.append(flow)
            if slot == len(self.big):
                self._resize(2 * slot, self.width)
        if len(cols) > self.width:
            self._resize(len(self.big), len(cols))
        self.cols[slot] = cols + self._pad_tails[len(cols)]
        self.big[slot] = big
        return slot

    def release(self, slot: int) -> None:
        self.flows[slot] = None
        self._free.append(slot)


class FlowNetwork:
    """The cluster's links plus the active flow set and rate solver."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        params: NetworkParams,
        oracle: Optional[PathOracle] = None,
        link_bandwidths: Optional[Dict[Tuple[str, str], float]] = None,
        bus: Optional[EventBus] = None,
        injector=None,
    ) -> None:
        """*link_bandwidths* optionally overrides the uniform link speed
        per physical link; keys may name either orientation and apply to
        both directed edges (full-duplex links).  *bus* is an optional
        telemetry bus: flow starts/finishes and per-edge occupancy
        changes are published to it (``None`` = zero overhead).
        *injector* is an optional
        :class:`~repro.faults.injector.FaultInjector`: edge capacities
        are scaled by its per-edge factor and rates are re-solved at
        every fault boundary (degradation onset/clearance)."""
        self.engine = engine
        self.bus = bus
        self.injector = injector
        self.topology = topology
        self.params = params
        self.oracle = oracle if oracle is not None else PathOracle(topology)
        self._edge_bandwidth: Dict[Edge, float] = {}
        if link_bandwidths:
            for (u, v), bw in link_bandwidths.items():
                if bw <= 0:
                    raise SimulationError(
                        f"bandwidth for link ({u!r}, {v!r}) must be positive"
                    )
                if v not in topology.neighbors(u):
                    raise SimulationError(
                        f"no physical link between {u!r} and {v!r}"
                    )
                self._edge_bandwidth[(u, v)] = bw
                self._edge_bandwidth[(v, u)] = bw
        self._flows: Dict[int, Flow] = {}
        self._edge_flows: Dict[Edge, Set[int]] = {}
        #: First-seen rank per edge, which is also its incidence column:
        #: the solvers scan edges in this order so tie-breaks match the
        #: reference's dict scan.
        self._edge_order: Dict[Edge, int] = {}
        # Endpoint edges (machine uplinks/downlinks) suffer the incast
        # collapse; switch-to-switch trunks share fluidly.
        self._endpoint_edge: Dict[Edge, bool] = {
            (u, v): topology.is_machine(u) or topology.is_machine(v)
            for u, v in topology.directed_edges()
        }
        ncols = len(self._endpoint_edge)
        #: Per column: the edge, its kind and its line bandwidth.
        self._col_edge: List[Edge] = []
        self._col_endpoint = np.zeros(ncols, dtype=bool)
        self._col_bandwidth = np.zeros(ncols)
        self._slots = FlowSlots(ncols)
        #: True while the slot arrays, not the Flow objects, hold the
        #: per-flow state (see the module docstring).
        self._dense = False
        #: Consecutive settles whose scope held at least
        #: DENSE_MIN_FLOWS flows.
        self._scope_run = 0
        #: Dense-mode byte ledger per column (the pad column absorbs
        #: padding), and which columns already have an ``edge_bytes`` key.
        self._col_bytes = np.zeros(ncols + 1)
        self._col_seen = np.zeros(ncols + 1, dtype=bool)
        self._col_seen[ncols] = True
        self._next_fid = 0
        self._dirty = False
        self._allocator = make_allocator(params.allocator, self)
        #: (deadline, fid, flow.gen) completion heap; entries whose fid
        #: is gone or whose gen lags the flow's are stale and skipped.
        self._deadlines: List[Tuple[float, int, int]] = []
        self._timer_target = math.inf
        self._timer_epoch = 0
        self._pool: List[Flow] = []
        # Statistics for the invariant tests and reports.
        self.bytes_injected = 0.0
        self.bytes_delivered = 0.0
        self.peak_concurrent_flows = 0
        self.max_edge_multiplexing = 0
        self.flow_pool_reuses = 0
        #: Bytes actually transported per directed edge.
        self.edge_bytes: Dict[Edge, float] = {}
        # Fault boundaries are rate-change instants: re-solve max-min
        # whenever a link degrades, fails or recovers so every flow's
        # piecewise-constant rate stays exact.  Capacities change
        # globally, so the whole flow set is dirtied.
        if injector is not None:
            for t in injector.boundaries():
                if t > 0:
                    self.engine.schedule(t, self._boundary_resolve)
        # Metric handles captured once; None handles keep the hot paths
        # at one test per site (see repro.obs.metrics_registry).
        registry = active_registry()
        if registry is not None:
            self._m_resolves = registry.counter(
                "network.resolves_total", "Max-min rate re-solves"
            )
            self._m_flowset = registry.counter(
                "network.flow_set_changes", "Flow-set / rate-change instants"
            )
            self._m_touched = registry.histogram(
                "network.resolve_touched", "Flow x link pairs per re-solve"
            )
            self._m_waterfill = registry.histogram(
                "network.waterfill_iterations", "Progressive-filling rounds"
            )
            self._m_saturated = registry.histogram(
                "network.saturated_links", "Edges frozen per re-solve"
            )
            self._m_inflight = registry.gauge(
                "network.flows_in_flight", "Active flows after a settle"
            )
            self._m_component = registry.histogram(
                "network.component_flows", "Flows re-rated per solve"
            )
            self._m_full = registry.counter(
                "network.full_resolves", "Solves covering the whole flow set"
            )
            self._m_pool = registry.counter(
                "network.flow_pool_reuses", "Flow objects recycled from the pool"
            )
        else:
            self._m_resolves = None
            self._m_flowset = None
            self._m_touched = None
            self._m_waterfill = None
            self._m_saturated = None
            self._m_inflight = None
            self._m_component = None
            self._m_full = None
            self._m_pool = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def start_flow(
        self,
        src: str,
        dst: str,
        nbytes: float,
        on_complete: Callable[[Flow], None],
        *,
        tag: int = -1,
        phase: int = -1,
    ) -> Flow:
        """Inject a transfer of *nbytes* from *src* to *dst*.

        *on_complete* fires (via the engine) when the last byte arrives.
        *tag*/*phase* identify the carrying message for telemetry.
        """
        if nbytes <= 0:
            raise SimulationError(f"flow size must be positive, got {nbytes}")
        edges = self.oracle.path_edges(src, dst)
        if not edges:
            raise SimulationError(f"no path from {src!r} to {dst!r}")
        now = self.engine.now
        fid = self._next_fid
        self._next_fid += 1
        pool = self._pool
        if pool:
            flow = pool.pop()
            flow.reinit(
                fid, src, dst, edges, nbytes, on_complete, now, tag, phase
            )
            self.flow_pool_reuses += 1
            if self._m_pool is not None:
                self._m_pool.value += 1
        else:
            flow = Flow(
                fid, src, dst, edges, nbytes, on_complete, now, tag, phase
            )
        self._flows[fid] = flow
        edge_flows = self._edge_flows
        order = self._edge_order
        cols = []
        for e in edges:
            fids = edge_flows.get(e)
            if fids is None:
                fids = self._register_edge(e)
            fids.add(fid)
            cols.append(order[e])
        slots = self._slots
        slot = flow.slot = slots.acquire(
            flow, cols, flow.size >= self.params.large_flow_threshold
        )
        if self._dense:
            slots.remaining[slot] = flow.size
            slots.rate[slot] = 0.0
            slots.updated[slot] = now
        self.bytes_injected += nbytes
        if len(self._flows) > self.peak_concurrent_flows:
            self.peak_concurrent_flows = len(self._flows)
        if self.bus is not None:
            self.bus.publish(
                FlowStarted(
                    now, fid, src, dst, flow.size, edges,
                    flow.tag, flow.phase,
                )
            )
            for e in edges:
                self.bus.publish(
                    LinkOccupancy(now, e, len(edge_flows[e]))
                )
        self._allocator.note_edges_dirty(edges)
        self._mark_dirty()
        return flow

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def sync_progress(self) -> None:
        """Bring every active flow's byte accounting up to ``now``.

        Rates and completions are always exact; only the byte ledgers
        (``bytes_delivered``/``edge_bytes``/``Flow.remaining``) are
        lazy.  Call this before reading them while flows are still in
        flight (the executor does, for stalled/crashed runs)."""
        now = self.engine.now
        if self._dense:
            if self._flows:
                self._advance_slots(self._scope_slots(self._flows), now)
            self._flush_slots()
            return
        for flow in self._flows.values():
            if flow.updated != now:
                self._advance_flow(flow, now)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _register_edge(self, e: Edge) -> Set[int]:
        """Give a first-seen edge its flow set and incidence column."""
        col = self._edge_order[e] = len(self._edge_order)
        self._col_edge.append(e)
        self._col_endpoint[col] = self._endpoint_edge[e]
        self._col_bandwidth[col] = self._edge_bandwidth.get(
            e, self.params.bandwidth
        )
        fids = self._edge_flows[e] = set()
        return fids

    @staticmethod
    def _scope_slots(scope: Dict[int, Flow]) -> np.ndarray:
        return np.fromiter(map(_SLOT, scope.values()), np.intp, len(scope))

    def _mark_dirty(self) -> None:
        if not self._dirty:
            self._dirty = True
            self.engine.defer(self._settle)
            if self._m_flowset is not None:
                self._m_flowset.value += 1

    def _boundary_resolve(self) -> None:
        """Fault boundary: capacities changed globally — re-solve all."""
        self._allocator.note_all_dirty()
        self._mark_dirty()

    def _advance_flow(self, flow: Flow, now: float) -> None:
        """Account bytes *flow* moved since its last catch-up."""
        dt = now - flow.updated
        if dt > 0.0 and flow.rate > 0.0:
            before = flow.remaining
            after = before - flow.rate * dt
            if after < 0.0:
                after = 0.0
            flow.remaining = after
            moved = before - after
            self.bytes_delivered += moved
            edge_bytes = self.edge_bytes
            for e in flow.edges:
                edge_bytes[e] = edge_bytes.get(e, 0.0) + moved
        flow.updated = now

    def _settle(self) -> None:
        """Recompute rates for every flow a change could have touched.

        Runs at the end of the engine's same-timestamp batch (see
        :meth:`Engine.defer`), so any number of same-instant flow-set
        changes produce one solve.  Completion callbacks may start new
        flows at the same instant; the loop folds them into the scope
        until the instant is quiescent, then solves once.
        """
        if not self._dirty:
            return
        now = self.engine.now
        alloc = self._allocator
        wide = self._scope_run >= 2 and len(self._flows) >= DENSE_MIN_FLOWS
        dense = wide and alloc.solves_slots
        if dense != self._dense:
            if dense:
                self._enter_dense()
            else:
                self._leave_dense()
        full_before = alloc.full_solves
        scope: Dict[int, Flow] = {}
        slots = None
        while self._dirty:
            self._dirty = False
            if self._m_resolves is not None:
                self._m_resolves.value += 1
            if wide:
                alloc.note_all_dirty()
            alloc.collect_scope(scope)
            due: List[Flow] = []
            if dense:
                slots = self._scope_slots(scope)
                remaining = self._advance_slots(slots, now)
                is_due = remaining <= _EPSILON_BYTES
                if is_due.any():
                    owners = self._slots.flows
                    due = [owners[s] for s in slots[is_due].tolist()]
                    slots = slots[~is_due]
            else:
                for flow in scope.values():
                    if flow.updated != now:
                        self._advance_flow(flow, now)
                    if flow.remaining <= _EPSILON_BYTES:
                        due.append(flow)
            if due:
                due.sort(key=lambda f: f.fid)
                for flow in due:
                    scope.pop(flow.fid, None)
                    self._complete_flow(flow)
        if len(scope) >= DENSE_MIN_FLOWS:
            self._scope_run += 1
        else:
            self._scope_run = 0
        if self._m_inflight is not None:
            self._m_inflight.value = len(self._flows)
        if not scope:
            return
        if dense:
            touched, iterations, saturated = self._solve_dense(slots, now)
        else:
            touched, iterations, saturated = alloc.solve(scope, now)
        if self._m_waterfill is not None:
            self._m_touched.observe(touched)
            self._m_waterfill.observe(iterations)
            self._m_saturated.observe(saturated)
            self._m_component.observe(len(scope))
            if alloc.full_solves != full_before:
                self._m_full.value += 1
        if not dense:
            self._requeue(scope, now)
        self._arm_timer()

    def _requeue(self, scope: Dict[int, Flow], now: float) -> None:
        """Heap entries for every re-rated flow in *scope*."""
        deadlines = self._deadlines
        pushes: List[Tuple[float, int, int]] = []
        for flow in scope.values():
            rate = flow.rate
            if rate == flow.drate:
                # Unchanged rate: the live entry (if any) still names
                # the right completion instant — no heap churn.
                continue
            flow.gen += 1
            flow.drate = rate
            if rate > 0.0:
                pushes.append((now + flow.remaining / rate, flow.fid, flow.gen))
            # rate == 0: frozen behind a failed link; a fault boundary
            # (recovery) or the stall watchdog wakes us.
        if len(pushes) * 2 >= len(deadlines):
            # Most of the heap just went stale (every re-rated flow's
            # old entry has a lagging gen).  Rebuilding — live survivors
            # plus the new entries, one O(n) heapify — is cheaper than
            # n pushes into a stale-laden heap and also purges the
            # garbage, keeping the heap near the live-flow count.
            flows = self._flows
            live = [
                entry
                for entry in deadlines
                if (f := flows.get(entry[1])) is not None and f.gen == entry[2]
            ]
            live.extend(pushes)
            heapq.heapify(live)
            self._deadlines = live
        else:
            for entry in pushes:
                heapq.heappush(deadlines, entry)

    # -- dense mode: per-flow state in the slot arrays -----------------
    def _enter_dense(self) -> None:
        """Move every active flow's state into its slot."""
        st = self._slots
        flows = list(self._flows.values())
        slots = self._scope_slots(self._flows)
        st.remaining[slots] = [f.remaining for f in flows]
        st.rate[slots] = [f.rate for f in flows]
        st.updated[slots] = [f.updated for f in flows]
        live = self._flows
        for d, fid, gen in self._deadlines:
            flow = live.get(fid)
            if flow is not None and flow.gen == gen:
                st.deadline[flow.slot] = d
        self._deadlines = []
        order = self._edge_order
        for e, nbytes in self.edge_bytes.items():
            col = order[e]
            self._col_bytes[col] = nbytes
            self._col_seen[col] = True
        self._dense = True

    def _leave_dense(self) -> None:
        """Hand the slot state back to the flows and the deadline heap."""
        self._flush_slots()
        st = self._slots
        heap = []
        for flow in self._flows.values():
            flow.drate = flow.rate
            d = float(st.deadline[flow.slot])
            if d != math.inf:
                heap.append((d, flow.fid, flow.gen))
        heapq.heapify(heap)
        self._deadlines = heap
        st.deadline.fill(math.inf)
        self._dense = False

    def _flush_slots(self) -> None:
        """Copy the slot byte state out to ``edge_bytes`` and the flows."""
        st = self._slots
        flows = list(self._flows.values())
        slots = self._scope_slots(self._flows)
        for flow, remaining, updated in zip(
            flows, st.remaining[slots].tolist(), st.updated[slots].tolist()
        ):
            flow.remaining = remaining
            flow.updated = updated
        edge_bytes = self.edge_bytes
        col_edge = self._col_edge
        col_bytes = self._col_bytes
        for col in np.flatnonzero(self._col_seen[:-1]).tolist():
            edge_bytes[col_edge[col]] = float(col_bytes[col])

    def _advance_slots(self, slots: np.ndarray, now: float) -> np.ndarray:
        """:meth:`_advance_flow` over *slots*, in order; returns remaining.

        The ledgers add each flow's bytes one at a time in *slots* order
        — ``cumsum`` and ``add.at`` are sequential — so every sum is the
        scalar path's, bit for bit.
        """
        st = self._slots
        before = st.remaining[slots]
        rate = st.rate[slots]
        dt = now - st.updated[slots]
        after = before - rate * dt
        after[after < 0.0] = 0.0
        moved = before - after
        st.remaining[slots] = after
        st.updated[slots] = now
        ledger = np.empty(len(moved) + 1)
        ledger[0] = self.bytes_delivered
        ledger[1:] = moved
        self.bytes_delivered = float(np.cumsum(ledger)[-1])
        cols = st.cols[slots]
        np.add.at(self._col_bytes, cols.ravel(), np.repeat(moved, st.width))
        if not self._col_seen[: len(self._col_edge)].all():
            moving = cols[(dt > 0.0) & (rate > 0.0)]
            if not self._col_seen[moving].all():
                # First bytes on some edge: give it its ``edge_bytes``
                # key where the scalar path would (flow order, then
                # path order).
                for col in moving.ravel().tolist():
                    if not self._col_seen[col]:
                        self._col_seen[col] = True
                        self.edge_bytes[self._col_edge[col]] = 0.0
        return after

    def _solve_dense(self, slots: np.ndarray, now: float) -> Tuple[int, int, int]:
        """Array waterfill over *slots*, then their changed deadlines."""
        st = self._slots
        rates, touched, iterations = self._allocator.solve_slots(slots, now)
        changed = rates != st.rate[slots]
        if changed.any():
            slots = slots[changed]
            rates = rates[changed]
            st.rate[slots] = rates
            # rate 0 (frozen behind a failed link) leaves an inf deadline.
            with np.errstate(divide="ignore"):
                st.deadline[slots] = now + st.remaining[slots] / rates
            owners = st.flows
            for slot, rate in zip(slots.tolist(), rates.tolist()):
                owners[slot].rate = rate
        return touched, iterations, iterations

    def _fire_dense(self, now: float) -> bool:
        """:meth:`_fire_heap` over the slot deadlines."""
        st = self._slots
        due = np.flatnonzero(st.deadline <= now + _EPSILON_TIME).tolist()
        if len(due) > 1:
            # The heap's pop order: by deadline, then fid.
            deadline, owners = st.deadline, st.flows
            due.sort(key=lambda s: (deadline[s], owners[s].fid))
        completed = False
        for slot in due:
            flow = st.flows[slot]
            remaining = float(self._advance_slots(np.array([slot]), now)[0])
            rate = float(st.rate[slot])
            if remaining <= _EPSILON_BYTES or remaining <= rate * _EPSILON_TIME:
                edges = flow.edges
                self._complete_flow(flow)
                self._allocator.note_edges_dirty(edges)
                completed = True
            else:
                st.deadline[slot] = now + remaining / rate
                break
        return completed

    # -- completion timer ------------------------------------------------
    def _arm_timer(self) -> None:
        """Schedule the completion timer for the earliest live deadline.

        Each arming that actually schedules bumps ``_timer_epoch``,
        instantly invalidating every previously scheduled timer event:
        we only schedule when the new deadline is *earlier* than the
        outstanding target, so the newest event is always the one that
        should fire, and superseded events die in O(1) at dispatch.
        """
        if self._dense:
            d = float(self._slots.deadline.min())
        else:
            deadlines = self._deadlines
            flows = self._flows
            while deadlines:
                d, fid, gen = deadlines[0]
                flow = flows.get(fid)
                if flow is not None and flow.gen == gen:
                    break
                heapq.heappop(deadlines)
            else:
                return
        if d < self._timer_target:
            self._timer_target = d
            self._timer_epoch += 1
            epoch = self._timer_epoch
            self.engine.schedule(
                max(0.0, d - self.engine.now),
                lambda: self._on_deadline(epoch),
            )

    def _on_deadline(self, epoch: int) -> None:
        """Completion timer: finish every flow whose deadline is due.

        Stale heap entries (completed flows, superseded rates) are
        dropped lazily via the fid lookup and generation check — a
        flow can never be completed twice, however events batch.
        """
        if epoch != self._timer_epoch:
            return  # superseded by a later arming at an earlier time
        self._timer_target = math.inf
        now = self.engine.now
        if self._dense:
            completed = self._fire_dense(now)
        else:
            completed = self._fire_heap(now)
        if completed:
            self._mark_dirty()
        self._arm_timer()

    def _fire_heap(self, now: float) -> bool:
        deadlines = self._deadlines
        flows = self._flows
        completed = False
        while deadlines and deadlines[0][0] <= now + _EPSILON_TIME:
            d, fid, gen = heapq.heappop(deadlines)
            flow = flows.get(fid)
            if flow is None or flow.gen != gen:
                continue
            if flow.updated != now:
                self._advance_flow(flow, now)
            # Done when the byte residue is negligible — or when it
            # would drain within the timer's own resolution.  Without
            # the second clause a sub-ulp residue requeues a deadline
            # at (float-)``now`` forever: the flow can't advance twice
            # at one timestamp, so nothing ever shrinks the residue.
            if (
                flow.remaining <= _EPSILON_BYTES
                or flow.remaining <= flow.rate * _EPSILON_TIME
            ):
                edges = flow.edges
                self._complete_flow(flow)
                self._allocator.note_edges_dirty(edges)
                completed = True
            else:
                # Fired a rounding step early: requeue and retry at the
                # recomputed deadline (a fresh timer, not this batch).
                heapq.heappush(
                    deadlines, (now + flow.remaining / flow.rate, fid, gen)
                )
                break
        return completed

    def _complete_flow(self, flow: Flow) -> None:
        fid = flow.fid
        if self._flows.get(fid) is not flow:
            return  # already completed
        del self._flows[fid]
        for e in flow.edges:
            self._edge_flows[e].discard(fid)
        flow.remaining = 0.0
        flow.rate = 0.0
        flow.gen += 1
        if self._dense:
            self._slots.rate[flow.slot] = 0.0
            self._slots.deadline[flow.slot] = math.inf
        self._slots.release(flow.slot)
        now = self.engine.now
        flow.end_time = now
        if self.bus is not None:
            self.bus.publish(
                FlowFinished(
                    now, fid, flow.src, flow.dst, flow.size,
                    flow.start_time, flow.tag, flow.phase,
                )
            )
            for e in flow.edges:
                self.bus.publish(
                    LinkOccupancy(now, e, len(self._edge_flows[e]))
                )
        flow.on_complete(flow)
        # Only after the callback: the handle it received must not
        # mutate under it.  The object stays readable (end_time, size,
        # ...) until a later start_flow recycles it.
        self._pool.append(flow)
