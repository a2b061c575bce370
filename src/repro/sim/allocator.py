"""Max-min rate solvers: the reference filler and the incremental one.

Two interchangeable allocators compute the max-min fair rate vector for
the active flow set (see :mod:`repro.sim.network` for the model):

* :class:`ReferenceAllocator` — the original, deliberately simple
  progressive filling over **every** directed edge at **every**
  rate-change instant.  O(flows x links) per re-solve; kept as the
  trusted oracle for the differential suite
  (``tests/sim/test_allocator_differential.py``).
* :class:`IncrementalAllocator` — tracks the set of *dirty* edges
  (edges whose flow set changed since the last solve), expands it to
  the connected component of the flow/edge incidence graph, and
  re-solves **only that component**.  Max-min allocation decomposes
  exactly over these components — flows in different components share
  no edge, so the filling rounds of one component never touch the
  state of another — hence untouched flows keep their previous rates
  unchanged.  Whether traffic is dense is the network's decision, not
  the allocator's: at fault boundaries and on wide settles
  (:mod:`repro.sim.network`) it marks every edge dirty with
  :meth:`~IncrementalAllocator.note_all_dirty`, and the scope is the
  whole flow set with no closure walk.  Single-flow components (every
  component of a contention-free schedule) take an allocation-free
  fast path, small components run the reference filler restricted to
  the component, and larger ones run an array waterfill over the
  network's slot × edge incidence
  (:class:`~repro.sim.network.FlowSlots`).

Every filler performs the reference's float operations in the
reference's order, so all of them give the same rates bit for bit on
the same component: edges are scanned in the global first-seen order
and the first strict minimum share wins; each round freezes exactly one
edge; and each frozen flow subtracts its share from every edge it
crosses one subtraction at a time (``ufunc.at`` is sequential).
Freezing exactly-tied edges together, or subtracting ``k * share`` at
once, would reach the same fixpoint only up to an ulp, and an ulp in a
rate moves completion times.  Pick an allocator via
:attr:`NetworkParams.allocator`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.topology.graph import Edge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Flow, FlowNetwork

#: Components of up to this many flows run the python filler; larger
#: ones the array waterfill.  Measured crossover (LAM and bruck over
#: star-of-4 trees, see CHANGES.md): the array set-up costs a fixed
#: ~0.1 ms per solve, which the python filler's O(edges^2) scan only
#: exceeds from a few dozen flows on.
_PYTHON_MAX_FLOWS = 24

#: The reference takes a share as the new minimum only when it is below
#: the best so far by more than 1e-15.  From this share on that slack
#: is under half an ulp, so the test is a plain ``<`` and the winner is
#: ``argmin``'s first minimum.
_EXACT_ARGMIN_FLOOR = 16.0


class BaseAllocator:
    """Shared dirty-tracking interface driven by :class:`FlowNetwork`."""

    name = "base"
    #: Whether wide settles may keep their flows in the network's slot
    #: arrays and call :meth:`IncrementalAllocator.solve_slots`.
    solves_slots = False

    def __init__(self, network: "FlowNetwork") -> None:
        self.net = network
        #: Scopes that took the whole flow set (fault boundaries, wide
        #: settles, and every reference solve).
        self.full_solves = 0

    # -- dirty tracking ------------------------------------------------
    def note_edges_dirty(self, edges: Iterable[Edge]) -> None:
        """The flow set of *edges* changed since the last solve."""

    def note_all_dirty(self) -> None:
        """Every edge must be re-solved (capacities changed globally)."""

    # -- solving -------------------------------------------------------
    def collect_scope(self, scope: Dict[int, "Flow"]) -> None:
        """Move the closure of the dirty set into *scope* and clear it.

        *scope* maps fid -> Flow and accumulates across calls (the
        settle loop re-collects after completion callbacks mutate the
        flow set).  Entries already present are kept.
        """
        raise NotImplementedError

    def solve(
        self, scope: Dict[int, "Flow"], now: float
    ) -> Tuple[int, int, int]:
        """Assign max-min rates to every flow in *scope*.

        Returns ``(touched, iterations, saturated)``: flow x link
        incidence pairs examined, filling rounds run, and edges frozen
        (every filler saturates exactly one edge per round).
        """
        raise NotImplementedError


class ReferenceAllocator(BaseAllocator):
    """Full progressive filling over all edges — the trusted oracle."""

    name = "reference"

    def collect_scope(self, scope: Dict[int, "Flow"]) -> None:
        scope.update(self.net._flows)

    def solve(
        self, scope: Dict[int, "Flow"], now: float
    ) -> Tuple[int, int, int]:
        net = self.net
        params = net.params
        injector = net.injector
        self.full_solves += 1
        # Per-edge state: unfrozen flow count and available capacity.
        unfrozen_count: Dict[Edge, int] = {}
        available: Dict[Edge, float] = {}
        touched = 0
        for e, fids in net._edge_flows.items():
            n = len(fids)
            if n == 0:
                continue
            touched += n
            largest = max(net._flows[fid].size for fid in fids)
            unfrozen_count[e] = n
            capacity = params.effective_capacity(
                n,
                largest,
                net._endpoint_edge[e],
                line_bandwidth=net._edge_bandwidth.get(e),
            )
            if injector is not None:
                capacity *= injector.link_factor(e, now)
            available[e] = capacity
            if n > net.max_edge_multiplexing:
                net.max_edge_multiplexing = n
        frozen: Set[int] = set()
        for flow in scope.values():
            flow.rate = 0.0
        remaining_flows = len(scope)
        iterations = 0
        while remaining_flows > 0:
            iterations += 1
            # Find the tightest edge.
            best_edge: Optional[Edge] = None
            best_share = float("inf")
            for e, count in unfrozen_count.items():
                if count <= 0:
                    continue
                share = available[e] / count
                if share < best_share - 1e-15:
                    best_share = share
                    best_edge = e
            if best_edge is None:
                raise SimulationError(
                    "max-min allocation stalled with flows unassigned"
                )
            # Freeze every unfrozen flow crossing the tightest edge.
            for fid in list(net._edge_flows[best_edge]):
                if fid in frozen:
                    continue
                flow = net._flows[fid]
                flow.rate = best_share
                frozen.add(fid)
                remaining_flows -= 1
                for e in flow.edges:
                    unfrozen_count[e] -= 1
                    available[e] -= best_share
            unfrozen_count[best_edge] = 0
        return touched, iterations, iterations


class IncrementalAllocator(BaseAllocator):
    """Dirty-component re-solve; python or array filler by size."""

    name = "incremental"
    solves_slots = True

    def __init__(self, network: "FlowNetwork") -> None:
        super().__init__(network)
        # Insertion-ordered so the component scan visits edges in the
        # same relative order as the reference's global dict scan (Edge
        # keys are string tuples whose *set* order would be
        # hash-randomized per process; dicts are deterministic).
        self._dirty_edges: Dict[Edge, None] = {}
        self._all_dirty = False

    # -- dirty tracking ------------------------------------------------
    def note_edges_dirty(self, edges: Iterable[Edge]) -> None:
        if self._all_dirty:
            return
        dirty = self._dirty_edges
        for e in edges:
            dirty[e] = None

    def note_all_dirty(self) -> None:
        self._all_dirty = True
        self._dirty_edges.clear()

    # -- solving -------------------------------------------------------
    def collect_scope(self, scope: Dict[int, "Flow"]) -> None:
        net = self.net
        if self._all_dirty:
            self._all_dirty = False
            self._dirty_edges.clear()
            scope.update(net._flows)
            self.full_solves += 1
            return
        dirty = self._dirty_edges
        if not dirty:
            return
        self._dirty_edges = {}
        edge_flows = net._edge_flows
        flows = net._flows
        # Transitive closure over the flow/edge incidence graph: every
        # flow sharing an edge (directly or through intermediaries)
        # with a changed edge may see its bottleneck shift; nothing
        # outside the closure can.
        stack: List[Edge] = list(dirty)
        seen: Set[Edge] = set(dirty)
        nflows = len(flows)
        while stack:
            if len(scope) == nflows:
                # The closure already covers every active flow; the
                # remaining frontier cannot add anything.
                break
            e = stack.pop()
            for fid in edge_flows.get(e, ()):
                if fid in scope:
                    continue
                flow = flows[fid]
                scope[fid] = flow
                for e2 in flow.edges:
                    if e2 not in seen:
                        seen.add(e2)
                        stack.append(e2)

    def solve(
        self, scope: Dict[int, "Flow"], now: float
    ) -> Tuple[int, int, int]:
        if len(scope) == 1:
            return self._solve_single(next(iter(scope.values())), now)
        if len(scope) <= _PYTHON_MAX_FLOWS:
            return self._solve_python(scope, self.component_edges(scope), now)
        slots = self.net._scope_slots(scope)
        rates, touched, iterations = self.solve_slots(slots, now)
        for flow, rate in zip(scope.values(), rates.tolist()):
            flow.rate = rate
        return touched, iterations, iterations

    def component_edges(self, scope: Dict[int, "Flow"]) -> List[Edge]:
        """The edges of *scope* in global first-seen order (= the
        reference scan order restricted to the component, so near-tie
        breaks agree)."""
        edge_set: Dict[Edge, None] = {}
        for flow in scope.values():
            for e in flow.edges:
                edge_set[e] = None
        return sorted(edge_set, key=self.net._edge_order.__getitem__)

    # -- fast paths ----------------------------------------------------
    def _solve_single(
        self, flow: "Flow", now: float
    ) -> Tuple[int, int, int]:
        """A lone flow gets the min capacity along its path (eta = 1).

        Contention-free schedules put **every** flow in this case, so
        it avoids even the dict bookkeeping of the python filler.
        """
        net = self.net
        params = net.params
        injector = net.injector
        size = flow.size
        best = float("inf")
        for e in flow.edges:
            capacity = params.effective_capacity(
                1,
                size,
                net._endpoint_edge[e],
                line_bandwidth=net._edge_bandwidth.get(e),
            )
            if injector is not None:
                capacity *= injector.link_factor(e, now)
            if capacity < best:
                best = capacity
        flow.rate = best
        if net.max_edge_multiplexing < 1:
            net.max_edge_multiplexing = 1
        return len(flow.edges), 1, 1

    def _edge_capacity(self, e: Edge, n: int, largest: float, now: float) -> float:
        net = self.net
        capacity = net.params.effective_capacity(
            n,
            largest,
            net._endpoint_edge[e],
            line_bandwidth=net._edge_bandwidth.get(e),
        )
        if net.injector is not None:
            capacity *= net.injector.link_factor(e, now)
        return capacity

    def _solve_python(
        self,
        scope: Dict[int, "Flow"],
        comp_edges: List[Edge],
        now: float,
    ) -> Tuple[int, int, int]:
        """The reference filler restricted to one small component."""
        net = self.net
        edge_flows = net._edge_flows
        flows = net._flows
        unfrozen_count: Dict[Edge, int] = {}
        available: Dict[Edge, float] = {}
        touched = 0
        for e in comp_edges:
            fids = edge_flows[e]
            n = len(fids)
            if n == 0:
                continue
            touched += n
            largest = max(flows[fid].size for fid in fids)
            unfrozen_count[e] = n
            available[e] = self._edge_capacity(e, n, largest, now)
            if n > net.max_edge_multiplexing:
                net.max_edge_multiplexing = n
        frozen: Set[int] = set()
        for flow in scope.values():
            flow.rate = 0.0
        remaining_flows = len(scope)
        iterations = 0
        while remaining_flows > 0:
            iterations += 1
            best_edge: Optional[Edge] = None
            best_share = float("inf")
            for e, count in unfrozen_count.items():
                if count <= 0:
                    continue
                share = available[e] / count
                if share < best_share - 1e-15:
                    best_share = share
                    best_edge = e
            if best_edge is None:
                raise SimulationError(
                    "max-min allocation stalled with flows unassigned"
                )
            for fid in list(edge_flows[best_edge]):
                if fid in frozen:
                    continue
                flow = flows[fid]
                flow.rate = best_share
                frozen.add(fid)
                remaining_flows -= 1
                for e in flow.edges:
                    unfrozen_count[e] -= 1
                    available[e] -= best_share
            unfrozen_count[best_edge] = 0
        return touched, iterations, iterations

    # -- array waterfill -----------------------------------------------
    def solve_slots(
        self, slots: "np.ndarray", now: float
    ) -> Tuple["np.ndarray", int, int]:
        """The python filler over the flows in *slots*, as array ops.

        *slots* must be a closed component (or a union of them), as
        every scope is.  Returns ``(rates, touched, iterations)`` with
        ``rates[i]`` the rate of the flow in ``slots[i]`` — equal, bit
        for bit, to what :meth:`_solve_python` assigns.
        """
        net = self.net
        store = net._slots
        pad = store.pad
        glob = store.cols[slots]
        nflows, width = glob.shape
        # The component's edges, in first-seen order, become local
        # columns 0..nedges-1; padding becomes column nedges.
        global_counts = np.bincount(glob.ravel(), minlength=pad + 1)
        comp = np.flatnonzero(global_counts[:pad])
        nedges = len(comp)
        local = np.full(pad + 1, nedges, dtype=np.intp)
        local[comp] = np.arange(nedges)
        inc = local[glob]
        counts = np.append(global_counts[comp], 0)
        touched = int(counts.sum())
        peak = int(counts.max())
        if peak > net.max_edge_multiplexing:
            net.max_edge_multiplexing = peak
        # Large-flow flag per edge (AAPC sizes are uniform: one test).
        flags = store.big[slots]
        if flags.all() or not flags.any():
            big = bool(flags[0])
        else:
            big = np.zeros(nedges + 1, dtype=bool)
            big[inc[flags]] = True
            big = big[:nedges]
        available = np.empty(nedges + 1)
        available[:nedges] = self._capacities(comp, counts[:nedges], big, now)
        available[nedges] = np.inf
        unfrozen_count = counts.astype(np.float64)
        # Edge -> flows incidence: flow indices grouped by column (a
        # radix sort on the narrowest integer type).
        flat = inc.ravel().astype(np.min_scalar_type(nedges))
        by_edge = np.argsort(flat, kind="stable") // width
        bounds = [0]
        bounds.extend(np.cumsum(counts).tolist())
        rates = np.zeros(nflows)
        unfrozen = np.ones(nflows, dtype=bool)
        share = np.empty(nedges + 1)
        left = nflows
        iterations = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            while left:
                iterations += 1
                np.divide(available, unfrozen_count, out=share)
                share[unfrozen_count <= 0.0] = np.inf
                best = int(share.argmin())
                best_share = float(share[best])
                if not _EXACT_ARGMIN_FLOOR <= best_share < np.inf:
                    best, best_share = _first_min(share.tolist())
                crossing = by_edge[bounds[best]:bounds[best + 1]]
                frozen = crossing[unfrozen[crossing]]
                rates[frozen] = best_share
                unfrozen[frozen] = False
                left -= len(frozen)
                hit = inc.take(frozen, axis=0)
                np.subtract.at(available, hit, best_share)
                np.subtract.at(unfrozen_count, hit, 1.0)
        return rates, touched, iterations

    def _capacities(
        self,
        comp: "np.ndarray",
        counts: "np.ndarray",
        big,
        now: float,
    ) -> "np.ndarray":
        """:meth:`_edge_capacity` for edge columns *comp*.

        *big* says per column (or once for all) whether a large flow
        crosses it.  The same IEEE operations as
        :meth:`NetworkParams.effective_capacity`, so the values match
        the scalar path bit for bit."""
        net = self.net
        params = net.params
        endpoint = net._col_endpoint[comp]
        floor = np.where(
            endpoint,
            np.where(
                big, params.contention_floor_large, params.contention_floor_small
            ),
            np.where(big, params.trunk_floor_large, params.trunk_floor_small),
        )
        excess = counts - params.contention_grace
        contended = excess > 0
        denom = np.where(contended, 1.0 + params.contention_gamma * excess, 1.0)
        eta = np.where(contended, floor + (1.0 - floor) / denom, 1.0)
        capacity = (net._col_bandwidth[comp] * params.base_efficiency) * eta
        injector = net.injector
        if injector is not None:
            col_edge = net._col_edge
            for i, col in enumerate(comp.tolist()):
                capacity[i] *= injector.link_factor(col_edge[col], now)
        return capacity


def _first_min(shares: List[float]) -> Tuple[int, float]:
    """The reference's tightest-edge scan (dead edges hold ``inf``)."""
    best = -1
    best_share = float("inf")
    for i, share in enumerate(shares):
        if share < best_share - 1e-15:
            best_share = share
            best = i
    if best < 0:
        raise SimulationError("max-min allocation stalled with flows unassigned")
    return best, best_share


def make_allocator(name: str, network: "FlowNetwork") -> BaseAllocator:
    """Build the allocator selected by :attr:`NetworkParams.allocator`."""
    if name == "incremental":
        return IncrementalAllocator(network)
    if name == "reference":
        return ReferenceAllocator(network)
    raise SimulationError(f"unknown allocator {name!r}")
