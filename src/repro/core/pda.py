"""PDA — the Partial-topology Dissemination Algorithm (Figs. 1-3).

Each router maintains its own shortest-path tree ``T_i`` (the *main
topology table*) and a per-neighbor table ``T_k_i``, a time-delayed copy
of neighbor *k*'s tree.  On every event (an LSU from a neighbor, or an
adjacent-link change) the router runs:

- **NTU** (Neighbor Topology-table Update, Fig. 2): apply the LSU to the
  neighbor's table and recompute that neighbor's distances by running
  Dijkstra rooted at the neighbor;
- **MTU** (Main Topology-table Update, Fig. 3): merge the neighbor trees —
  for each known node *j*, copy *j*'s outgoing links from the *preferred
  neighbor* ``p`` minimizing :math:`D^i_{jp} + l^i_p` (conflicts between
  neighbors are resolved by distance to the head of the link, not by
  sequence numbers), override adjacent links with locally measured costs,
  run Dijkstra, and keep only the tree.  Differences from the previous
  tree are flooded to the neighbors as LSU entries.

PDA converges to correct shortest paths a finite time after the last
change (Theorem 2, proved via n-hop minimum trees).  Routers here are
transport-agnostic: outgoing messages accumulate in ``outbox`` and a
driver (:mod:`repro.core.driver` or the packet simulator) delivers them.
"""

from __future__ import annotations

import itertools

from repro.core.linkstate import (
    INFINITY,
    EntryOp,
    FrozenTree,
    LinkEntry,
    LSUMessage,
    TopologyTable,
)
from repro.exceptions import RoutingError
from repro.graph.shortest_paths import (
    dijkstra,
    rank_nodes,
    update_shortest_paths,
)
from repro.graph.topology import NodeId

#: Process-wide router identities.  ``id()`` would be ambiguous here:
#: sequential experiments create and drop whole router populations, and
#: a recycled address must not alias a stale entry in an auditor's
#: incremental cache.
_uid_counter = itertools.count(1)


class PDARouter:
    """One router running PDA.

    Public event entry points (each may queue messages on ``outbox``):

    - :meth:`link_up` — an adjacent link came up (or a router boots and
      discovers its neighbor);
    - :meth:`link_cost_change` — the measured cost of an adjacent link
      changed (this is how marginal-delay updates enter the protocol);
    - :meth:`link_down` — an adjacent link failed;
    - :meth:`receive` — an LSU message arrived from a neighbor.

    Attributes:
        main_table: the current tree ``T_i`` as an immutable
            :class:`FrozenTree` — the same object the incremental mode
            floods with its LSUs (empty before the first MTU).
        outbox: queued ``(neighbor, LSUMessage)`` pairs for the driver.
        mtu_runs / lsu_sent / lsu_received: protocol statistics.

    Incremental bookkeeping: every event that can change MTU's inputs
    (adjacent link set or cost, any neighbor-table content) sets
    ``_tables_dirty``; MTU is deterministic in those inputs and
    idempotent, so while the flag is clear :meth:`_mtu` returns the empty
    diff without recomputing — the dominant case for MPDA's pure-ACK
    deliveries.  ``INCREMENTAL = False`` (subclass hook) disables every
    such shortcut; the differential tests run a reference router with it
    off and assert byte-identical behavior.
    """

    #: Master switch for the incremental shortcuts (MTU clean-skip, NTU
    #: no-op-LSU skip, dirty-destination successor recomputation).  The
    #: non-incremental path is the semantics oracle for testing.
    INCREMENTAL = True

    #: Whether `_ntu_apply_lsu` should diff neighbor-table rows and report
    #: changed destinations via `_note_rows_changed` (MPDA needs this for
    #: its dirty-destination set; plain PDA skips the diff cost).
    _TRACK_ROWS = False

    def __init__(self, node_id: NodeId) -> None:
        self.node_id = node_id
        #: Stable identity for observers' caches (see module comment).
        self._uid = next(_uid_counter)
        #: Bumped after every processed event; observers (the invariant
        #: auditor) use it to tell which routers may have changed state
        #: since they last looked.
        self.route_version = 0
        self.main_table = FrozenTree.empty(node_id)
        self.neighbor_tables: dict[NodeId, TopologyTable] = {}
        self.link_costs: dict[NodeId, float] = {}
        self.distances: dict[NodeId, float] = {}
        #: nbr_distances[k][j] = D^i_jk, distance k -> j in this router's
        #: copy of k's topology (NTU step 1c).
        self.nbr_distances: dict[NodeId, dict[NodeId, float]] = {}
        self.outbox: list[tuple[NodeId, LSUMessage]] = []
        #: dest -> causal event id of the last distance change (written
        #: by the protocol driver when causal tracing is active; see
        #: :mod:`repro.obs.causal`).  Empty and untouched otherwise.
        self.route_provenance: dict[NodeId, int | None] = {}
        self.mtu_runs = 0
        self.lsu_sent = 0
        self.lsu_received = 0
        self.entries_sent = 0
        #: True when MTU's inputs changed since its last recomputation.
        self._tables_dirty = True
        #: Tie-break ranks over the known-node universe; its key set *is*
        #: the universe, and it is rebuilt only when membership changes.
        self._rank: dict[NodeId, int] = {}
        #: Per-neighbor version of the frozen snapshot currently held
        #: in ``neighbor_tables`` (absent = mutable or out-of-sync).
        self._nbr_versions: dict[NodeId, int] = {}
        #: MTU steps 3-4 state carried across runs: per-destination
        #: preferred neighbor and its merged value, and the candidate
        #: graph as out- and in-adjacency (``_radj[t][h]`` = cost of
        #: ``h -> t``).  Valid while ``_mtu_full`` is False;
        #: ``_best_dirty`` lists destinations whose neighbor rows moved
        #: and ``_group_dirty`` the heads whose copied link group must
        #: be re-sourced.  ``distances`` and ``_pred`` (Dijkstra's
        #: predecessor map over the candidate graph) are carried too and
        #: patched in place by the incremental tree update.
        self._best_val: dict[NodeId, float] = {}
        self._best_nbr: dict[NodeId, NodeId] = {}
        self._adj: dict[NodeId, list[tuple[NodeId, float]]] = {}
        self._radj: dict[NodeId, dict[NodeId, float]] = {}
        self._pred: dict[NodeId, NodeId | None] = {}
        self._best_dirty: set[NodeId] = set()
        self._group_dirty: set[NodeId] = set()
        #: The single neighbor all of ``_best_dirty`` came from, or None
        #: once several senders contributed (None disables the
        #: challenger short-cut in ``_mtu_refresh``).
        self._dirty_sender: NodeId | None = None
        self._mtu_full = True

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def link_up(self, neighbor: NodeId, cost: float) -> None:
        """Adjacent link to ``neighbor`` came up with measured cost ``cost``."""
        self._check_cost(neighbor, cost)
        self.link_costs[neighbor] = cost
        self.neighbor_tables.setdefault(neighbor, TopologyTable())
        self.nbr_distances.setdefault(neighbor, {neighbor: 0.0})
        self._tables_dirty = True
        self._links_changed()
        self._greet(neighbor)
        self._after_ntu(lsu_sender=None)

    def _greet(self, neighbor: NodeId) -> None:
        """NTU step 2: greet a new neighbor with the full main table."""
        dump = self.main_table.full_dump()
        if dump:
            self._send(
                neighbor,
                LSUMessage(
                    self.node_id, dump, snapshot=self._full_snapshot()
                ),
            )

    def _full_snapshot(self) -> FrozenTree | None:
        """The current tree as a full-dump snapshot (greeting messages)."""
        if not self.INCREMENTAL:
            return None
        return self.main_table.as_full(self.node_id)

    def link_cost_change(self, neighbor: NodeId, cost: float) -> None:
        """The measured cost of the adjacent link changed (NTU step 3)."""
        self._check_cost(neighbor, cost)
        if neighbor not in self.link_costs:
            raise RoutingError(
                f"{self.node_id!r}: cost change for unknown link to "
                f"{neighbor!r}"
            )
        self.link_costs[neighbor] = cost
        self._tables_dirty = True
        #: Every merged value through this neighbor shifted; rebuild
        #: the preferred-neighbor state from scratch next MTU.
        self._mtu_full = True
        self._after_ntu(lsu_sender=None)

    def link_down(self, neighbor: NodeId) -> None:
        """Adjacent link failed (NTU step 4): clear the neighbor's table."""
        self.link_costs.pop(neighbor, None)
        self.neighbor_tables.pop(neighbor, None)
        self.nbr_distances.pop(neighbor, None)
        self._nbr_versions.pop(neighbor, None)
        self._tables_dirty = True
        self._links_changed()
        self._after_ntu(lsu_sender=None)

    def receive(self, message: LSUMessage) -> None:
        """An LSU arrived from a (current) neighbor."""
        sender = message.sender
        self.lsu_received += 1
        if sender not in self.link_costs:
            # Stale message from a link that has since failed; the paper's
            # delivery assumptions make this impossible, but drivers that
            # inject failures may race — drop it.
            return
        self._ntu_apply_lsu(message)
        self._after_ntu(lsu_sender=sender)

    # ------------------------------------------------------------------
    # NTU / MTU internals
    # ------------------------------------------------------------------
    def _ntu_apply_lsu(self, message: LSUMessage) -> None:
        """NTU step 1: apply entries and recompute the sender's distances."""
        sender = message.sender
        table = self.neighbor_tables.get(sender)
        snap = message.snapshot
        if self.INCREMENTAL and snap is not None:
            stored = self._nbr_versions.get(sender)
            if (stored is not None and stored == snap.prev_version) or (
                snap.applies_to_empty and (table is None or len(table) == 0)
            ):
                # The held table is exactly the state the entries were
                # diffed against (it *is* the sender's previous
                # snapshot, or both are empty and the entries rebuild
                # the whole tree), so adopting the sender's frozen
                # result is identical to replaying the entries.
                self.neighbor_tables[sender] = snap
                self.nbr_distances[sender] = snap.dist
                self._nbr_versions[sender] = snap.version
                self._tables_dirty = True
                self._note_mtu_dirty(sender, snap.changed_rows, message.entries)
                if self._TRACK_ROWS and snap.changed_rows:
                    self._note_rows_changed(snap.changed_rows)
                return
        # Entry path: replay the LSU onto a mutable copy.  This is the
        # reference semantics, also taken on duplicated or reordered
        # delivery where the snapshot's baseline doesn't match.
        if table is None:
            table = self.neighbor_tables[sender] = TopologyTable()
        elif isinstance(table, FrozenTree):
            table = self.neighbor_tables[sender] = table.thaw()
            self.nbr_distances[sender] = dict(self.nbr_distances[sender])
            self._nbr_versions.pop(sender, None)
        old = self.nbr_distances.get(sender)
        if self.INCREMENTAL and old is not None:
            changed, changed_nodes = table.apply_incremental(
                message.entries, sender, old
            )
            if not changed:
                # Every entry was a no-op on the table, so the sender's
                # distances — and MTU's inputs — are exactly as before.
                return
            self._tables_dirty = True
            if changed_nodes is not None:
                # ``old`` was patched in place and ``changed_nodes``
                # covers every destination whose row differs.
                self._note_mtu_dirty(sender, changed_nodes, message.entries)
                if self._TRACK_ROWS and changed_nodes:
                    self._note_rows_changed(changed_nodes)
                return
            # The post-apply table is transiently not a tree rooted at
            # the sender; fall through to the full recompute + row diff.
        else:
            changed = table.apply(message.entries)
            if not changed and self.INCREMENTAL:
                return
            self._tables_dirty = True
        # No exact row diff is tracked on this path (first LSU from a
        # neighbor, non-tree transients, reference mode): rebuild the
        # carried MTU state from scratch instead.
        self._mtu_full = True
        new = table.distances_from(sender)
        new.setdefault(sender, 0.0)
        self.nbr_distances[sender] = new
        if self._TRACK_ROWS:
            if old is None:
                self._note_rows_changed(new)
            else:
                self._note_rows_changed(
                    j
                    for j in old.keys() | new.keys()
                    if old.get(j) != new.get(j)
                )

    def _note_mtu_dirty(self, sender: NodeId, rows, entries) -> None:
        """Record what an applied LSU invalidates in the carried MTU state.

        ``rows`` (destinations whose distance through ``sender`` moved)
        re-open the preferred-neighbor choice; entry heads whose current
        preferred neighbor *is* the sender had their copied link group
        edited in place, so the group is re-sourced even when the choice
        itself stands.
        """
        if not self._best_dirty:
            self._dirty_sender = sender
        elif self._dirty_sender != sender:
            self._dirty_sender = None
        self._best_dirty.update(rows)
        best_nbr = self._best_nbr
        group_dirty = self._group_dirty
        for entry in entries:
            head = entry.head
            if best_nbr.get(head) == sender:
                group_dirty.add(head)

    def _note_rows_changed(self, destinations) -> None:
        """Hook: destinations whose neighbor-table rows changed (MPDA)."""

    def _links_changed(self) -> None:
        """The adjacent-link *set* changed: every destination's
        preferred-neighbor choice may move, so the carried MTU state is
        rebuilt from scratch (MPDA's override also dirties the LFI
        successor sets)."""
        self._mtu_full = True

    def _distances_recomputed(self, moved, left=()) -> None:
        """Hook: MTU recomputed ``self.distances`` (MPDA re-arms FD).

        ``moved`` lists the destinations whose distance changed and
        ``left`` the nodes that left the universe (their distance is
        gone); ``moved`` is None when MTU recomputed every distance from
        scratch.
        """

    def _after_ntu(self, lsu_sender: NodeId | None) -> None:
        """The tail of procedure PDA: MTU, then flood any differences."""
        self.route_version += 1
        changes = self._mtu()
        if changes:
            self._broadcast(changes)

    def _universe(self) -> list[NodeId]:
        """Every node this router has heard of."""
        # Only the keys (and their first-seen order) matter; merging the
        # tables' internal mappings directly skips per-table dict
        # materialization on this per-MTU path.
        known: dict[NodeId, object] = {self.node_id: None}
        known.update(self.link_costs)
        for table in self.neighbor_tables.values():
            known.update(table.nodes_map_view())
        return list(known)

    def _universe_rank(self, universe):
        """Tie-break ranks for ``universe``, cached across MTU runs.

        Rank comparison is equivalent to the repr order the paper's
        "lower address" tie rule uses (see :func:`rank_nodes`); the map
        is rebuilt only when the universe gains or loses nodes.
        """
        nodes = set(universe)
        if self._rank.keys() != nodes:
            self._rank = rank_nodes(nodes)
        return self._rank

    def _universe_moves(self, rows):
        """Nodes that joined and left the universe since the last MTU.

        The universe is this router, its adjacent neighbors and every
        node with a row in some neighbor table.  The adjacent-link set
        is fixed between full MTUs, and a row appears or vanishes only
        with a row diff, which lands in ``_best_dirty`` — so only the
        dirty ``rows`` can change membership, and after
        :meth:`_mtu_refresh` a row node has a preferred neighbor exactly
        while some up neighbor still reports it.  The rank map is
        rebuilt when membership moved (a repr sort keeps the survivors'
        relative order, so the carried shortest-path tree and the ranks
        :meth:`_mtu_refresh` compared stay valid).
        """
        rank = self._rank
        best_nbr = self._best_nbr
        link_costs = self.link_costs
        me = self.node_id
        joined: list[NodeId] = []
        left: list[NodeId] = []
        for j in rows:
            if j in rank:
                if j not in best_nbr and j not in link_costs and j != me:
                    left.append(j)
            elif j in best_nbr:
                joined.append(j)
        if joined or left:
            nodes = set(rank)
            nodes.difference_update(left)
            nodes.update(joined)
            self._rank = rank_nodes(nodes)
        return joined, left

    def _mtu(self):
        """MTU (Fig. 3): rebuild the main table; return the LSU diff.

        MTU is a pure function of the adjacent-link costs and the
        neighbor tables, and running it twice on the same inputs yields
        the same tree and an empty diff — so when nothing marked those
        inputs dirty the whole computation is skipped (the counter still
        advances: a skipped run is still a protocol-level MTU event).

        Otherwise steps 3-5 either rebuild the candidate graph over the
        merged node universe (:meth:`_mtu_rebuild`, then a full Dijkstra
        in :meth:`_mtu_tree`) or patch the carried one
        (:meth:`_mtu_refresh`, then an incremental tree update in
        :meth:`_mtu_patch`, with universe moves read off the dirty
        rows); both land on the same tree, distances and diff entries,
        and replace ``main_table`` by its next snapshot when the tree
        changed.
        """
        self.mtu_runs += 1
        if not self._tables_dirty and self.INCREMENTAL:
            return ()
        self._tables_dirty = False
        link_costs = self.link_costs
        up = [n for n in link_costs if link_costs[n] < INFINITY]
        if self._mtu_full or not self.INCREMENTAL:
            universe = self._universe()
            rank = self._universe_rank(universe)
            self._mtu_rebuild(up, rank)
            return self._mtu_tree(universe, rank)
        rows = self._best_dirty
        changed = self._mtu_refresh(up, self._rank)
        joined, left = self._universe_moves(rows)
        return self._mtu_patch(self._rank, changed, joined, left)

    def _mtu_tree(self, universe, rank):
        """MTU steps 6-8 from scratch: Dijkstra, then one diff pass.

        A single pass over the predecessor map yields the restricted
        distance view and the ADD/CHANGE half of the diff against the
        main table's groups (a link (h, t) is in the tree iff
        ``pred[t] == h``, so no intermediate tree dict is
        materialized); the next snapshot is the current one patched
        copy-on-write with that diff.
        """
        old = self.main_table
        me = self.node_id
        radj = self._radj
        # The adjacency carries the costs; the cost map goes unread.
        dist, pred = dijkstra({}, me, nodes=universe, rank=rank, adj=self._adj)
        old_group = old.links_with_head_view
        flood: dict[NodeId, float] = {me: 0.0}
        entries: list[LinkEntry] = []
        for t, h in pred.items():
            if h is None:
                continue
            cost = radj[t][h]
            flood[t] = dist[t]
            old_cost = old_group(h).get((h, t))
            if old_cost is None:
                entries.append(LinkEntry(EntryOp.ADD, h, t, cost))
            elif old_cost != cost:
                entries.append(LinkEntry(EntryOp.CHANGE, h, t, cost))
        pred_get = pred.get
        for h, t in old:
            if pred_get(t) != h:
                entries.append(LinkEntry(EntryOp.DELETE, h, t))
        self.distances = dist
        self._pred = pred
        self._distances_recomputed(None)
        changes = tuple(entries)
        if changes:
            prev_flood = old.dist
            prev_get = prev_flood.get
            changed_rows = {j for j, v in flood.items() if prev_get(j) != v}
            for j in prev_flood:
                if j not in flood:
                    changed_rows.add(j)
            self.main_table = old.patched(
                changes, dist=flood, changed_rows=changed_rows
            )
        return changes

    def _mtu_patch(self, rank, changed, joined, left):
        """MTU steps 6-8 on the carried tree: only what moved.

        ``changed`` lists the candidate links :meth:`_mtu_refresh`
        re-sourced with a different cost (or none, when removed or
        added); :func:`update_shortest_paths` patches the carried
        ``distances``/``_pred`` to exactly what Dijkstra would return,
        and reports which distances and predecessors moved.  A tree link
        ``(pred[t], t)`` can only appear, vanish or change cost where
        ``t``'s predecessor moved or a re-sourced link is its tree link,
        so those are the only diff entries — emitted without a pass over
        the tree — and the main table's next snapshot is patched
        copy-on-write.
        """
        if not (changed or joined or left):
            self._distances_recomputed([])
            return ()
        dist, pred = self.distances, self._pred
        moved, repointed = update_shortest_paths(
            dist,
            pred,
            self.node_id,
            self._adj,
            self._radj,
            rank,
            changed,
            joined,
            left,
        )
        self._distances_recomputed(moved, left)
        radj = self._radj
        entries: list[LinkEntry] = []
        deletes: list[LinkEntry] = []
        for t, old_head in repointed.items():
            if old_head is not None:
                deletes.append(LinkEntry(EntryOp.DELETE, old_head, t))
            h = pred.get(t)
            if h is not None:
                entries.append(LinkEntry(EntryOp.ADD, h, t, radj[t][h]))
        for h, t, old_cost in changed:
            if old_cost is not None and t not in repointed and pred.get(t) == h:
                entries.append(LinkEntry(EntryOp.CHANGE, h, t, radj[t][h]))
        if not entries and not deletes:
            return ()
        entries.extend(deletes)
        changes = tuple(entries)

        # Only tree nodes (plus self) are flooded, so the restricted
        # view moves exactly where a distance or a predecessor moved.
        old = self.main_table
        prev_flood = old.dist
        flood = dict(prev_flood)
        changed_rows: set[NodeId] = set()
        for t in itertools.chain(moved, repointed):
            if pred.get(t) is None:
                if flood.pop(t, None) is not None:
                    changed_rows.add(t)
            else:
                d = dist[t]
                if prev_flood.get(t) != d:
                    flood[t] = d
                    changed_rows.add(t)
        self.main_table = old.patched(changes, dist=flood, changed_rows=changed_rows)
        return changes

    def _mtu_rebuild(self, up, rank) -> None:
        """MTU steps 3-5 from scratch; prime the incremental state.

        Steps 3-4: preferred neighbor per head node, copy its links.
        Iterating each up neighbor's distance rows (instead of probing
        every neighbor for every universe node) gives the same
        (min value, then lowest-address neighbor) winner per node.
        """
        best_val: dict[NodeId, float] = {}
        best_nbr: dict[NodeId, NodeId] = {}
        link_costs = self.link_costs
        for k in up:
            lc = link_costs[k]
            rows = self.nbr_distances.get(k)
            if not rows:
                continue
            rank_k = rank[k]
            for j, dist_kj in rows.items():
                val = dist_kj + lc
                cur = best_val.get(j)
                if cur is None:
                    best_val[j] = val
                    best_nbr[j] = k
                elif val < cur or (val == cur and rank_k < rank[best_nbr[j]]):
                    best_val[j] = val
                    best_nbr[j] = k

        # The candidate graph is grouped by head as it is built (each
        # preferred neighbor contributes exactly the links leaving one
        # head), so Dijkstra gets its adjacency for free instead of
        # regrouping O(E) links every run.
        adj: dict[NodeId, list[tuple[NodeId, float]]] = {}
        me = self.node_id
        tables = self.neighbor_tables
        for j, k in best_nbr.items():
            if j == me or best_val[j] == INFINITY:
                continue
            view = tables[k].links_with_head_view(j)
            adj[j] = [(tail, cost) for (_, tail), cost in view.items()]

        # Step 5: adjacent links override anything neighbors reported.
        adj[me] = [(k, link_costs[k]) for k in up]

        radj: dict[NodeId, dict[NodeId, float]] = {}
        for head, out in adj.items():
            for tail, cost in out:
                into = radj.get(tail)
                if into is None:
                    radj[tail] = {head: cost}
                else:
                    into[head] = cost

        self._best_val = best_val
        self._best_nbr = best_nbr
        self._adj = adj
        self._radj = radj
        self._best_dirty.clear()
        self._group_dirty.clear()
        self._mtu_full = False

    def _mtu_refresh(self, up, rank):
        """MTU steps 3-5, touching only destinations whose inputs moved.

        ``_best_dirty`` holds every node whose merged-distance row
        changed in some neighbor table since the last run; re-probing
        just those rows reproduces the full argmin's winner because the
        probe is a pure (value, lower-address) argmin over the same
        inputs and untouched rows cannot have changed their entry.
        ``_group_dirty`` holds nodes whose copied link group may differ
        even with an unchanged winner (the winning neighbor re-announced
        links leaving that head); their groups are spliced in place.

        Returns ``(head, tail, old_cost)`` for every candidate link
        whose cost moved (``old_cost`` None for a new link; a removed
        link is gone from ``_radj``) — the edit list the incremental
        tree update consumes.
        """
        best_val, best_nbr = self._best_val, self._best_nbr
        link_costs = self.link_costs
        nbr_rows = self.nbr_distances
        group_dirty = self._group_dirty
        adj = self._adj
        rows = [(k, nbr_rows.get(k), link_costs[k], rank[k]) for k in up]
        # When every dirty row came from one sender, a destination whose
        # current winner is a *different* neighbor only needs the
        # sender's new value checked against the incumbent: the winner's
        # own value is untouched, so unless the challenger beats it (or
        # ties with a lower address) nothing changes.
        ds = self._dirty_sender
        if ds is not None and ds in link_costs:
            ds_row = nbr_rows.get(ds)
            ds_lc = link_costs[ds]
            ds_rk = rank[ds]
        else:
            ds = None
        for j in self._best_dirty:
            if ds is not None:
                w = best_nbr.get(j)
                if w is not None and w != ds:
                    d = ds_row.get(j) if ds_row else None
                    if d is None:
                        continue
                    val = d + ds_lc
                    bv = best_val[j]
                    if val > bv or (val == bv and ds_rk > rank[w]):
                        continue
            bv = INFINITY
            bk = None
            br = 0
            for k, row, lc, rk in rows:
                if not row:
                    continue
                d = row.get(j)
                if d is None:
                    continue
                val = d + lc
                if bk is None or val < bv or (val == bv and rk < br):
                    bv, bk, br = val, k, rk
            prev = best_nbr.get(j)
            if bk is None:
                if prev is not None:
                    del best_nbr[j]
                    del best_val[j]
                    group_dirty.add(j)
            else:
                best_val[j] = bv
                best_nbr[j] = bk
                # A winner flip changes which table the group is copied
                # from; an INFINITY<->finite flip adds or removes the
                # group even when the winner is unchanged.
                if prev != bk or (j in adj) != (bv < INFINITY):
                    group_dirty.add(j)
        self._best_dirty = set()

        radj = self._radj
        tables = self.neighbor_tables
        me = self.node_id
        changed: list[tuple[NodeId, NodeId, float | None]] = []
        for j in group_dirty:
            if j == me:
                continue
            old_adj = adj.pop(j, None)
            old = dict(old_adj) if old_adj else {}
            k = best_nbr.get(j)
            if k is not None and best_val[j] < INFINITY:
                view = tables[k].links_with_head_view(j)
                if view:
                    adj[j] = [(tail, cost) for (_, tail), cost in view.items()]
                    for (_, tail), cost in view.items():
                        old_cost = old.pop(tail, None)
                        if old_cost != cost:
                            changed.append((j, tail, old_cost))
                            into = radj.get(tail)
                            if into is None:
                                radj[tail] = {j: cost}
                            else:
                                into[j] = cost
            for tail, old_cost in old.items():
                into = radj[tail]
                del into[j]
                if not into:
                    del radj[tail]
                changed.append((j, tail, old_cost))
        self._group_dirty = set()
        return changed

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------
    def _send(self, neighbor: NodeId, message: LSUMessage) -> None:
        self.outbox.append((neighbor, message))
        self.lsu_sent += 1
        self.entries_sent += len(message.entries)

    def _broadcast(self, entries, ack_to: NodeId | None = None) -> None:
        """Send ``entries`` to every up neighbor (ACK flag to ``ack_to``).

        The snapshot rides along whenever the entries are the diff MTU
        just flooded — ``_broadcast`` is only reached straight after a
        changed MTU, which made ``main_table`` the post-diff snapshot.
        """
        snapshot = self.main_table if self.INCREMENTAL else None
        for nbr in self.link_costs:
            self._send(
                nbr,
                LSUMessage(
                    self.node_id,
                    tuple(entries),
                    ack=(nbr == ack_to),
                    snapshot=snapshot,
                ),
            )

    @staticmethod
    def _check_cost(neighbor: NodeId, cost: float) -> None:
        if not cost > 0 or cost == INFINITY:
            raise RoutingError(
                f"adjacent link cost to {neighbor!r} must be positive and "
                f"finite, got {cost!r}"
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def distance_to(self, destination: NodeId) -> float:
        """:math:`D^i_j` — this router's distance to ``destination``."""
        if destination == self.node_id:
            return 0.0
        return self.distances.get(destination, INFINITY)

    def neighbor_distance(self, neighbor: NodeId, destination: NodeId) -> float:
        """:math:`D^i_{jk}` — ``neighbor``'s distance to ``destination``
        according to this router's copy of its topology."""
        if neighbor == destination:
            return 0.0
        return self.nbr_distances.get(neighbor, {}).get(destination, INFINITY)

    def up_neighbors(self) -> list[NodeId]:
        """Neighbors with an operational adjacent link."""
        return list(self.link_costs)

    def __repr__(self) -> str:
        return f"PDARouter({self.node_id!r})"
