"""MPDA — the Multipath Partial-topology Dissemination Algorithm (Fig. 4).

MPDA is PDA plus the machinery that makes the successor sets *loop-free
at every instant* (Theorem 3):

- every LSU a router sends is acknowledged by all its neighbors before
  the router sends the next one (one-hop synchronization, unlike the
  network-wide synchronization of diffusing computations);
- a router is **ACTIVE** while waiting for those ACKs and **PASSIVE**
  otherwise; events received while ACTIVE update the neighbor tables but
  the main-table update (MTU) is deferred to the ACTIVE→PASSIVE
  transition;
- the **feasible distance** :math:`FD^i_j` is kept no larger than any
  distance value this router has *reported* that a neighbor may still
  hold: lowered to ``min(FD, D)`` at every PASSIVE-state MTU, and reset
  to ``min(D_before, D_after)`` at the ACTIVE→PASSIVE transition (at that
  point every neighbor has acknowledged — hence applied — the last
  report, so older history is irrelevant);
- successors are chosen by the LFI rule :math:`S^i_j =
  \\{k : D^i_{jk} < FD^i_j\\}` (Eq. 17) after *every* event.

:func:`check_safety` verifies the LFI conditions across a whole network
of live routers, including in-flight states; the simulation drivers call
it after every event to machine-check Theorem 3.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Mapping

from repro.core.lfi import LFIViolation, cycle_violation, eq17_violation
from repro.core.linkstate import INFINITY, LSUMessage
from repro.core.pda import PDARouter
from repro.exceptions import LoopError
from repro.graph.topology import NodeId
from repro.graph.validation import find_successor_cycle


class RouterState(enum.Enum):
    """MPDA synchronization state."""

    PASSIVE = "passive"
    ACTIVE = "active"


class MPDARouter(PDARouter):
    """One router running MPDA.

    In addition to the PDA state, keeps the feasible distances
    ``feasible_distance[j]`` (:math:`FD^i_j`), the successor sets
    ``successor_sets[j]`` (:math:`S^i_j`), and the ACTIVE/PASSIVE
    synchronization state with the set of neighbors whose ACK is pending.
    """

    #: MPDA keeps a dirty-destination set, so NTU must report which
    #: neighbor-table rows an LSU actually moved (see PDARouter).
    _TRACK_ROWS = True

    def __init__(self, node_id: NodeId) -> None:
        super().__init__(node_id)
        self.state = RouterState.PASSIVE
        #: Per-neighbor count of LSUs sent and not yet acknowledged.  A
        #: counter (not a set) because a newly-up neighbor receives a
        #: full-table dump in addition to the regular diff floods.
        self.pending_acks: dict[NodeId, int] = {}
        self.feasible_distance: dict[NodeId, float] = {}
        self._successor_sets: dict[NodeId, set[NodeId]] = {}
        #: True while a recorded input change has not been folded into
        #: ``_successor_sets`` yet; the property flushes on read.
        self._succ_stale = False
        self.transitions = 0  # PASSIVE -> ACTIVE count, a protocol metric
        self.acks_received = 0  # consumed ACKs, one per LSU round-trip
        #: dest -> causal event id of the last successor-set change
        #: (written by the driver when causal tracing is active).
        self.succ_provenance: dict[NodeId, int | None] = {}
        #: Destinations whose LFI inputs (a neighbor row or FD entry)
        #: changed since the successor sets were last recomputed.
        self._dirty_dests: set[NodeId] = set()
        #: When True the next recomputation rebuilds every destination
        #: (initial state, or the adjacent-link set itself changed).
        self._dirty_all = True
        #: True while ``FD_j = min(FD_j, D_j)`` is known to be a no-op:
        #: set after each lowering/reset, cleared when MTU recomputes
        #: the distances it folds in.
        self._fd_clean = False
        #: The destinations whose distance MTU moved, and those that
        #: left the universe, since the last lowering/reset; None when
        #: every distance must be folded.
        self._fd_moved: tuple[list[NodeId], list[NodeId]] | None = None
        #: The FD lag set: ``{j: D_j}`` for every destination whose
        #: feasible distance differs from its distance (absent = ∞) as
        #: of the last lowering/reset.  Each fold leaves ``FD_j <= D_j``,
        #: so ``FD_j`` is present for every entry.
        self._fd_lag: dict[NodeId, float] = {}

    def _note_rows_changed(self, destinations) -> None:
        if not self._dirty_all:
            self._dirty_dests.update(destinations)

    def _links_changed(self) -> None:
        # The successor rule quantifies over the adjacent-link set, so
        # membership changes can move any destination's set.
        self._dirty_all = True
        super()._links_changed()

    def _distances_recomputed(self, moved, left=()) -> None:
        # ``moved`` is relative to the previous MTU, so it covers every
        # unfolded change only when that MTU's distances were folded.
        if moved is None or not self._fd_clean:
            self._fd_moved = None
        else:
            self._fd_moved = (moved, left)
        self._fd_clean = False

    def _outstanding(self) -> bool:
        """True while any sent LSU still awaits its acknowledgment."""
        return any(count > 0 for count in self.pending_acks.values())

    def _note_sent(self, neighbor: NodeId) -> None:
        self.pending_acks[neighbor] = self.pending_acks.get(neighbor, 0) + 1
        self.state = RouterState.ACTIVE

    def _greet(self, neighbor: NodeId) -> None:
        if len(self.main_table):
            super()._greet(neighbor)
            self._note_sent(neighbor)
            self.transitions += 1

    # ------------------------------------------------------------------
    # events (PDA entry points reuse _after_ntu, overridden below)
    # ------------------------------------------------------------------
    def receive(self, message: LSUMessage) -> None:
        """An LSU arrived; it may acknowledge our last LSU and/or carry
        topology entries that themselves require an acknowledgment."""
        sender = message.sender
        if sender not in self.link_costs:
            return  # stale: the adjacent link failed meanwhile
        self.lsu_received += 1
        if message.ack and self.pending_acks.get(sender, 0) > 0:
            self.pending_acks[sender] -= 1
            self.acks_received += 1
        if message.entries:
            self._ntu_apply_lsu(message)
            self._after_ntu(lsu_sender=sender)
        else:
            # Pure ACK: no table changes and nothing to acknowledge back
            # (acknowledging ACKs would chatter forever).
            self._after_ntu(lsu_sender=None)

    def link_down(self, neighbor: NodeId) -> None:
        """Adjacent link failed: pending ACKs from that neighbor are
        treated as received (the paper's deadlock-avoidance rule)."""
        self.pending_acks.pop(neighbor, None)
        super().link_down(neighbor)

    # ------------------------------------------------------------------
    # the Fig. 4 state machine
    # ------------------------------------------------------------------
    def _after_ntu(self, lsu_sender: NodeId | None) -> None:
        self.route_version += 1
        changes: tuple = ()
        if self.state is RouterState.PASSIVE:
            # Step 2: update T and lower the feasible distances.
            changes = self._mtu()
            self._lower_feasible_distances()
        elif not self._outstanding():
            # Step 3: the last ACK arrived — leave the ACTIVE phase.
            self.state = RouterState.PASSIVE
            changes = self._mtu()
            self._reset_feasible_distances()
        # else: ACTIVE with ACKs outstanding — MTU is deferred.

        # Step 4: successor sets from the LFI rule.  The sets feed only
        # the forwarding layer — no protocol message depends on them —
        # so the incremental mode defers the recomputation until a
        # reader (the router manager, an auditor, a test) actually looks
        # at them; recomputing once per accumulated dirty set yields the
        # same sets as recomputing after every event.
        if self.INCREMENTAL:
            self._succ_stale = True
        else:
            self._recompute_successors()

        # Steps 5-8: flood changes (going ACTIVE) and/or acknowledge.
        if changes and self.link_costs:
            self.transitions += 1
            for nbr in self.link_costs:
                self._note_sent(nbr)
            self._broadcast(changes, ack_to=lsu_sender)
        elif lsu_sender is not None:
            self._send(lsu_sender, LSUMessage(self.node_id, (), ack=True))

    def _lower_feasible_distances(self) -> None:
        """Fig. 4 step 2b: ``FD_j = min(FD_j, D_j)`` for every known j.

        Lowering only reads ``self.distances``; once it has run, it stays
        a no-op until MTU actually recomputes those distances (pure-ACK
        events leave them untouched), so ``_fd_clean`` short-circuits it.
        Every lowering or reset leaves ``FD_j <= D_j`` for each ``j``, so
        afterwards only the destinations MTU reports as moved or gone
        can need lowering, and only their lag entries can change; a
        from-scratch MTU reports None and the whole distance map is
        folded (rebuilding the lag set on the way).
        """
        if self._fd_clean:
            return
        self._fd_clean = True
        dirty = self._dirty_dests
        feasible = self.feasible_distance
        distances = self.distances
        inf = INFINITY
        if self._fd_moved is not None:
            lag = self._fd_lag
            dist_get = distances.get
            moved, left = self._fd_moved
            for j in itertools.chain(moved, left):
                d = dist_get(j, inf)
                fd = feasible.get(j, inf)
                if d < fd:
                    feasible[j] = d
                    dirty.add(j)
                    lag.pop(j, None)
                elif fd < d:
                    lag[j] = d
                else:
                    lag.pop(j, None)
            return
        me = self.node_id
        lag = self._fd_lag = {}
        held = 0  # FD entries whose destination is in ``distances``
        for j, d in distances.items():
            if j == me:
                continue
            fd = feasible.get(j)
            if fd is None:
                if d == inf:
                    continue
                feasible[j] = d
                dirty.add(j)
            elif d < fd:
                feasible[j] = d
                dirty.add(j)
            elif fd < d:
                lag[j] = d
            held += 1
        if held != len(feasible):
            # FD kept for destinations with no distance at all: D = ∞.
            for j in feasible:
                if j not in distances:
                    lag[j] = inf

    def _reset_feasible_distances(self) -> None:
        """Fig. 4 step 3c: ``FD_j = min(D_j^before, D_j^after)``.

        Unlike step 2b this may *raise* FD: every neighbor has ACKed the
        last LSU, so only the just-reported and the about-to-be-reported
        distances can still be in any neighbor's tables.

        ``D^before`` is the distance map of the last fold (MTU does not
        run while ACTIVE), which the lag set holds: ``D_j^before`` is
        ``_fd_lag[j]`` for a lagging ``j`` and ``FD_j`` (absent = ∞) for
        every other.  So after an incremental MTU only the lag set and
        the destinations MTU moved or dropped can change; every other
        ``FD_j`` equals both distances already.  After a from-scratch
        MTU every distance and every FD entry is visited.
        """
        dirty = self._dirty_dests
        feasible = self.feasible_distance
        distances = self.distances
        dist_get = distances.get
        inf = INFINITY
        old_lag = self._fd_lag
        lag = self._fd_lag = {}
        if self._fd_moved is None:
            me = self.node_id
            targets = [j for j in distances if j != me]
            targets.extend(j for j in feasible if j not in distances)
        else:
            moved, left = self._fd_moved
            targets = itertools.chain(old_lag, moved, left)
        for j in targets:
            b = old_lag.get(j)
            if b is None:
                b = feasible.get(j, inf)
            d = dist_get(j, inf)
            if b < d:
                fd = b
                lag[j] = d
            else:
                fd = d
            if fd == inf:
                if feasible.pop(j, None) is not None:
                    dirty.add(j)
            elif feasible.get(j) != fd:
                feasible[j] = fd
                dirty.add(j)
        # The reset already folded the current distances in (FD <= D for
        # every entry), so the next step-2b lowering is a no-op.
        self._fd_clean = True

    def _recompute_successors(self) -> None:
        """Fig. 4 step 4: :math:`S_j = \\{k : D^i_{jk} < FD^i_j\\}`.

        A destination with no feasible-distance entry has
        :math:`FD = \\infty`; neighbors with finite reported distance
        are then usable — safe because this router has never reported a
        finite distance to that destination, so no neighbor can be
        routing through it (see module docstring).

        The rule for destination *j* reads only *j*'s feasible distance,
        *j*'s row of each neighbor table, and the adjacent-link set; NTU
        and the FD updates record which of those moved, so only the
        dirty destinations are recomputed.  The full rebuild below is
        kept verbatim for the initial pass, link-set changes, and the
        ``INCREMENTAL = False`` reference mode.
        """
        if self._dirty_all or not self.INCREMENTAL:
            self._dirty_all = False
            self._dirty_dests.clear()
            destinations: set[NodeId] = set(self.feasible_distance)
            for dists in self.nbr_distances.values():
                destinations.update(dists)
            destinations.discard(self.node_id)

            successors: dict[NodeId, set[NodeId]] = {}
            feasible = self.feasible_distance
            all_rows = [
                (k, self.nbr_distances.get(k)) for k in self.link_costs
            ]
            for j in destinations:
                fd = feasible.get(j, INFINITY)
                chosen = set()
                for k, row in all_rows:
                    if k == j:
                        if fd > 0.0:
                            chosen.add(k)
                    elif row is not None:
                        dist_kj = row.get(j)
                        if dist_kj is not None and dist_kj < fd:
                            chosen.add(k)
                if chosen:
                    successors[j] = chosen
            self._successor_sets = successors
            return

        dirty = self._dirty_dests
        if not dirty:
            return
        self._dirty_dests = set()
        me = self.node_id
        feasible = self.feasible_distance
        successors = self._successor_sets
        nbr_distances = self.nbr_distances
        rows = [(k, nbr_distances.get(k)) for k in self.link_costs]
        for j in dirty:
            if j == me:
                continue
            fd = feasible.get(j, INFINITY)
            chosen = set()
            for k, row in rows:
                if k == j:
                    if fd > 0.0:
                        chosen.add(k)
                elif row is not None:
                    dist_kj = row.get(j)
                    if dist_kj is not None and dist_kj < fd:
                        chosen.add(k)
            if chosen:
                successors[j] = chosen
            else:
                successors.pop(j, None)

    # ------------------------------------------------------------------
    # forwarding-layer queries
    # ------------------------------------------------------------------
    @property
    def successor_sets(self) -> dict[NodeId, set[NodeId]]:
        """:math:`S^i_j` per destination, recomputed lazily on read."""
        if self._succ_stale:
            self._succ_stale = False
            self._recompute_successors()
        return self._successor_sets

    def successors(self, destination: NodeId) -> set[NodeId]:
        """:math:`S^i_j` — may be empty when no loop-free route is known."""
        return set(self.successor_sets.get(destination, ()))

    def successor_snapshot(self) -> dict[NodeId, set[NodeId]]:
        """A diffable copy of the current successor sets.

        A shallow copy suffices: recomputation installs fresh set
        objects (or pops the key) and never mutates a stored set in
        place, so the snapshot's values stay frozen-in-time.
        """
        return dict(self.successor_sets)

    def marginal_distance_via(
        self, destination: NodeId
    ) -> dict[NodeId, float]:
        """:math:`D^i_{jk} + l^i_k` for each successor — IH/AH's input."""
        return {
            k: self.neighbor_distance(k, destination) + self.link_costs[k]
            for k in self.successors(destination)
            if k in self.link_costs
        }

    def best_successor(self, destination: NodeId) -> NodeId | None:
        """The single best successor — how the paper derives its SP
        baseline ("restrict our multipath routing algorithm to use only
        the best successor")."""
        via = self.marginal_distance_via(destination)
        if not via:
            return None
        return min(via, key=lambda k: (via[k], repr(k)))

    def is_passive(self) -> bool:
        return self.state is RouterState.PASSIVE

    def __repr__(self) -> str:
        return f"MPDARouter({self.node_id!r}, {self.state.value})"


def check_safety(
    routers: Mapping[NodeId, MPDARouter],
    destination: NodeId | None = None,
) -> None:
    """Machine-check Theorem 3 over live router states.

    Verifies, for each destination (or just ``destination``), with
    :func:`check_destination`:

    1. Eq. (17): every successor's reported distance is below the
       router's feasible distance;
    2. Eq. (16), in its reported-value form: each router's feasible
       distance never exceeds the copy of *its own* distance held by any
       neighbor (that copy is what neighbors base their choices on);
    3. the global successor graph is acyclic.

    Raises:
        LFIViolation / LoopError: if the invariant is broken.
    """
    views = safety_views(routers)
    if destination is not None:
        destinations = {destination}
    else:
        destinations = set()
        for view in views.values():
            destinations.update(view[1])
    for j in destinations:
        check_destination(views, j)


#: One router's live state as :func:`check_destination` reads it:
#: ``(feasible_distance, successor_sets, nbr_distances, link_costs,
#: peers)``, where ``peers`` lists ``(k, row)`` for each up neighbor
#: ``k`` that holds a distance row ``row`` of this router (``row[j]`` is
#: this router's distance to ``j`` as ``k`` knows it).
SafetyView = tuple[
    dict[NodeId, float],
    dict[NodeId, set[NodeId]],
    dict[NodeId, dict[NodeId, float]],
    dict[NodeId, float],
    list[tuple[NodeId, dict[NodeId, float]]],
]


def safety_views(
    routers: Mapping[NodeId, MPDARouter],
) -> dict[NodeId, SafetyView]:
    """Read each router's live state once, for any number of
    :func:`check_destination` calls against the unchanged network.

    The views alias the routers' own dicts; nothing is copied.
    """
    views = {}
    for i, router in routers.items():
        views[i] = (
            router.feasible_distance,
            router.successor_sets,
            router.nbr_distances,
            router.link_costs,
            [],
        )
    for i, (_, _, _, links, peers) in views.items():
        for k in links:
            peer = views.get(k)
            if peer is not None and i in peer[3]:
                row = peer[2].get(i)
                if row is not None:
                    peers.append((k, row))
    return views


def check_destination(views: Mapping[NodeId, SafetyView], j: NodeId) -> None:
    """The per-destination body of :func:`check_safety`.

    ``views`` come from :func:`safety_views`.  Checks Eq. (17) at every
    router in ``views`` order, then acyclicity, then Eq. (16), and
    raises the first violation.

    Acyclicity is decided by a certificate first: when every successor
    edge ``i -> k`` strictly lowers the feasible distance
    (:math:`FD^k_j < FD^i_j`, the destination ranking below everything
    and routers outside ``views`` being sinks), the nodes are strictly
    ordered along every edge and the graph has no cycle.  Eqs. (16) and
    (17) together imply the certificate (Theorem 1's argument), but it
    is tested here on its own, not assumed; only when some edge fails
    the test does :func:`~repro.graph.validation.find_successor_cycle`
    search the graph, given the same input as :meth:`MPDARouter.successors`
    copies would build.

    A violating router's successors are re-walked in the order of a
    copy of its set, so the message names the same successor whatever
    the live set's iteration order.

    Raises:
        LFIViolation / LoopError: if the invariant is broken.
    """
    inf = INFINITY
    ordered = True  # the FD-order certificate holds so far
    eq16 = None  # the first Eq. (16) violation, raised after acyclicity
    for i, (feasible, succ_sets, rows, links, peers) in views.items():
        if i == j:
            if succ_sets.get(j):
                ordered = False  # the destination is no sink
            continue
        fd = feasible.get(j, inf)
        succ = succ_sets.get(j)
        if succ:
            for k in succ:
                if k == j:
                    d = 0.0
                else:
                    row = rows.get(k)
                    d = inf if row is None else row.get(j, inf)
                    if ordered:
                        peer = views.get(k)
                        if peer is not None and not peer[0].get(j, inf) < fd:
                            ordered = False
                if not d < fd or k not in links:
                    raise _first_eq17_violation(i, j, fd, succ, rows, links)
        if eq16 is None and fd != inf:
            for k, row in peers:
                held = row.get(j, inf)
                if fd > held + 1e-12:
                    eq16 = LoopError(
                        f"router {i!r}: FD to {j!r} is {fd!r} but neighbor "
                        f"{k!r} holds distance {held!r} (Eq. 16 violated)"
                    )
                    break
    if not ordered:
        cycle = find_successor_cycle(
            {i: list(set(view[1].get(j, ()))) for i, view in views.items()}
        )
        if cycle is not None:
            raise cycle_violation(j, cycle)
    if eq16 is not None:
        raise eq16


def _first_eq17_violation(
    i: NodeId,
    j: NodeId,
    fd: float,
    succ: set[NodeId],
    rows: Mapping[NodeId, Mapping[NodeId, float]],
    links: Mapping[NodeId, float],
) -> LFIViolation:
    """The first Eq. (17) failure among ``succ``, in the order of a copy
    of the set (what :meth:`MPDARouter.successors` returns)."""
    for k in set(succ):
        if k not in links:
            return eq17_violation(i, k, j, None, fd)
        d = 0.0 if k == j else rows.get(k, {}).get(j, INFINITY)
        if not d < fd:
            return eq17_violation(i, k, j, d, fd)
    raise AssertionError("no Eq. 17 violation to report")  # pragma: no cover
