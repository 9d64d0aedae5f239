"""Link-state update (LSU) messages and topology tables.

The unit of information exchanged between routers is the LSU message: one
or more entries, each the triplet ``[h, t, d]`` (head, tail, cost of link
``h -> t``) tagged *add*, *change* or *delete*, plus an ACK flag used by
MPDA to acknowledge the previous LSU from that neighbor.

Each router keeps a *main* table ``T_i`` (its own shortest-path tree after
MTU), an immutable :class:`FrozenTree`, and one *neighbor* table ``T_k_i``
per neighbor — a time-delayed copy of that neighbor's main table: the
sender's adopted snapshot, or a mutable :class:`TopologyTable` where LSU
entries are replayed.
"""

from __future__ import annotations

import enum
import itertools
import os
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from repro.graph.shortest_paths import dijkstra
from repro.graph.topology import LinkId, NodeId

INFINITY = float("inf")

#: Shared empty mapping returned by no-copy view accessors.
_EMPTY_LINKS: Mapping = {}


class EntryOp(enum.Enum):
    """What an LSU entry does to the receiver's neighbor table."""

    ADD = "add"
    CHANGE = "change"
    DELETE = "delete"


@dataclass(frozen=True)
class LinkEntry:
    """One LSU entry: the link ``head -> tail`` with cost ``cost``."""

    op: EntryOp
    head: NodeId
    tail: NodeId
    cost: float = INFINITY

    def __str__(self) -> str:  # compact form used in protocol traces
        if self.op is EntryOp.DELETE:
            return f"-({self.head}->{self.tail})"
        sign = "+" if self.op is EntryOp.ADD else "~"
        return f"{sign}({self.head}->{self.tail}:{self.cost:.4g})"


class _LSUSequence:
    """The process-wide LSU sequence, resettable and fork-safe.

    ``seq`` exists for traces, causal tags and debugging only (PDA
    validates link information by distance to the head node, never by
    sequence number), but the causal tracker keys in-flight message
    tags by it, so reproducibility demands that a run's sequence stream
    be a function of the run alone: a fleet worker resets the counter
    before each cell (:func:`reset_lsu_sequence`), and a fork starts the
    child at 1 automatically (``os.register_at_fork`` below), so any
    cell replayed standalone sees byte-identical sequence numbers.
    """

    __slots__ = ("_count",)

    def __init__(self) -> None:
        self._count = itertools.count(1)

    def __call__(self) -> int:
        return next(self._count)

    def reset(self) -> None:
        self._count = itertools.count(1)


_sequence = _LSUSequence()


def reset_lsu_sequence() -> None:
    """Restart LSU sequence numbers at 1 (fleet cells, test isolation).

    Safe whenever no driver is mid-run: routers never compare sequence
    numbers, and the causal tag map is cleared at every quiescence.
    """
    _sequence.reset()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=reset_lsu_sequence)


@dataclass(frozen=True)
class LSUMessage:
    """A link-state update from ``sender``.

    Attributes:
        sender: the originating router.
        entries: topology differences (may be empty for a pure ACK).
        ack: True when this message also acknowledges the last LSU
            received from the destination neighbor (MPDA only).
        seq: monotonically increasing id, for traces and debugging only —
            the protocol itself never inspects it (PDA validates link
            information by distance to the head node, not sequence
            numbers).
        snapshot: optional :class:`FrozenTree` of the sender's tree
            after applying ``entries`` — a shared-reference shortcut
            for receivers whose copy already matches the state the
            entries were diffed against.  Purely an acceleration: the
            entries alone carry the full protocol content.
    """

    sender: NodeId
    entries: tuple[LinkEntry, ...] = ()
    ack: bool = False
    seq: int = field(default_factory=_sequence)
    snapshot: "FrozenTree | None" = field(
        default=None, compare=False, repr=False
    )

    @property
    def is_pure_ack(self) -> bool:
        return self.ack and not self.entries

    def __str__(self) -> str:
        body = ",".join(str(e) for e in self.entries) or "empty"
        flag = "+ack" if self.ack else ""
        return f"LSU#{self.seq}[{self.sender}:{body}{flag}]"


class TopologyTable:
    """A set of directed links with costs — one router's view of a graph.

    Alongside the flat link map the table maintains two derived indexes,
    updated O(1) per mutation, that the protocol hot path leans on:

    - ``_by_head[h]``: the links leaving ``h`` (MTU copies a node's
      outgoing links from its preferred neighbor's table — a full link
      scan per node would make MTU quadratic);
    - ``_node_refs[n]``: how many link endpoints mention ``n`` (so
      :meth:`nodes` needs no scan), plus ``_in_links[n]`` (the links
      *into* ``n``) and ``_multi_in`` counting in-degree >= 2 nodes (so
      :meth:`distances_from` / :meth:`apply_incremental` can recognize
      when the table is a forest and skip Dijkstra entirely).
    """

    def __init__(self, links: Mapping[LinkId, float] | None = None) -> None:
        self._links: dict[LinkId, float] = {}
        self._by_head: dict[NodeId, dict[LinkId, float]] = {}
        self._node_refs: dict[NodeId, int] = {}
        self._in_links: dict[NodeId, dict[NodeId, float]] = {}
        self._multi_in = 0  # nodes with in-degree >= 2
        if links:
            for (head, tail), cost in links.items():
                self.set_link(head, tail, cost)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def set_link(self, head: NodeId, tail: NodeId, cost: float) -> bool:
        """Add or update a link; True when the table changed."""
        link_id = (head, tail)
        links = self._links
        old = links.get(link_id)
        if old is not None and old == cost:
            return False
        links[link_id] = cost
        self._by_head.setdefault(head, {})[link_id] = cost
        incoming = self._in_links.setdefault(tail, {})
        incoming[head] = cost
        if old is None:
            refs = self._node_refs
            refs[head] = refs.get(head, 0) + 1
            refs[tail] = refs.get(tail, 0) + 1
            if len(incoming) == 2:
                self._multi_in += 1
        return True

    def delete_link(self, head: NodeId, tail: NodeId) -> bool:
        """Remove a link; True when it existed."""
        link_id = (head, tail)
        if self._links.pop(link_id, None) is None:
            return False
        outgoing = self._by_head[head]
        del outgoing[link_id]
        if not outgoing:
            del self._by_head[head]
        refs = self._node_refs
        for node in (head, tail):
            left = refs[node] - 1
            if left:
                refs[node] = left
            else:
                del refs[node]
        incoming = self._in_links[tail]
        del incoming[head]
        if len(incoming) == 1:
            self._multi_in -= 1
        elif not incoming:
            del self._in_links[tail]
        return True

    def apply(self, entries: Iterable[LinkEntry]) -> bool:
        """Apply LSU entries in order; True when anything changed."""
        changed = False
        for entry in entries:
            if entry.op is EntryOp.DELETE:
                changed = self.delete_link(entry.head, entry.tail) or changed
            else:
                changed = (
                    self.set_link(entry.head, entry.tail, entry.cost) or changed
                )
        return changed

    def apply_incremental(
        self,
        entries: Iterable[LinkEntry],
        root: NodeId,
        dist: dict[NodeId, float],
    ) -> tuple[bool, set[NodeId] | None]:
        """Apply LSU entries and patch ``dist`` (distances from ``root``).

        ``dist`` must equal ``distances_from(root)`` for the pre-apply
        table; on the tree fast path it is updated in place to the
        post-apply distances and the set of nodes whose value changed
        (including nodes entering or leaving the table) is returned —
        exactly the rows a full recompute-and-compare would flag.

        Returns ``(table_changed, changed_nodes)``.  ``changed_nodes``
        is None when the post-apply table is not a tree rooted at
        ``root`` (mid-update transient); ``dist`` is then untouched and
        the caller must fall back to :meth:`distances_from`.

        Only subtrees below modified links are walked, and a branch is
        pruned as soon as a recomputed value comes out unchanged — an
        LSU touching k links costs O(affected region), not O(table).
        """
        refs = self._node_refs
        changed_any = False
        seeds: set[NodeId] = set()
        removed: set[NodeId] = set()
        entered: set[NodeId] = set()
        for entry in entries:
            head, tail = entry.head, entry.tail
            if entry.op is EntryOp.DELETE:
                if not self.delete_link(head, tail):
                    continue
                changed_any = True
                seeds.add(tail)
                for node in (head, tail):
                    if node not in refs:
                        removed.add(node)
                        entered.discard(node)
            else:
                if not self.set_link(head, tail, entry.cost):
                    continue
                changed_any = True
                # The head is seeded too: its value is normally
                # unaffected by an outgoing link (pruned on first
                # check), but a node deleted and re-added within one
                # LSU would otherwise keep a stale distance.
                seeds.add(tail)
                seeds.add(head)
                for node in (head, tail):
                    if node not in dist and node not in entered:
                        entered.add(node)
                        removed.discard(node)
        if not changed_any:
            return False, set()
        if self._multi_in or root in self._in_links:
            return True, None
        changed: set[NodeId] = set()
        for node in removed:
            if node != root and dist.pop(node, None) is not None:
                changed.add(node)
        for node in entered:
            if node in refs and node not in dist:
                dist[node] = INFINITY
                changed.add(node)
        in_links = self._in_links
        by_head = self._by_head
        stack = [t for t in seeds if t in refs]
        while stack:
            node = stack.pop()
            if node == root:
                continue  # the root's own distance is pinned at 0.0
            incoming = in_links.get(node)
            if incoming:
                ((head, cost),) = incoming.items()
                value = dist.get(head, INFINITY) + cost
            else:
                value = INFINITY
            if dist.get(node) != value:
                dist[node] = value
                changed.add(node)
                outgoing = by_head.get(node)
                if outgoing:
                    for _, tail in outgoing:
                        stack.append(tail)
        return True, changed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def cost(self, head: NodeId, tail: NodeId) -> float:
        """Cost of the link, or infinity when absent."""
        return self._links.get((head, tail), INFINITY)

    def links(self) -> dict[LinkId, float]:
        """All links as a plain cost map (a copy)."""
        return dict(self._links)

    def links_with_head_view(self, head: NodeId) -> Mapping[LinkId, float]:
        """Read-only view of the links leaving ``head`` (no copy).

        The MTU inner loop only iterates the result; callers must not
        mutate it or hold it across table mutations.
        """
        return self._by_head.get(head, _EMPTY_LINKS)

    def nodes(self) -> set[NodeId]:
        """Every node appearing as a head or tail."""
        return set(self._node_refs)

    def nodes_view(self):
        """Iterable view of the node set (no copy; do not hold)."""
        return self._node_refs.keys()

    def nodes_map_view(self) -> Mapping[NodeId, object]:
        """The node set as a mapping (values meaningless; no copy).

        Lets callers merge node sets with one C-level ``dict.update``
        instead of materializing an intermediate ``dict.fromkeys``.
        """
        return self._node_refs

    def distances_from(
        self, root: NodeId, nodes: list[NodeId] | None = None
    ) -> dict[NodeId, float]:
        """Shortest distances from ``root`` within this table.

        When the table is a forest with no link into ``root`` — the
        steady state for a neighbor table, which holds that neighbor's
        shortest-path *tree* — every reachable node has exactly one path
        from ``root``, so a single propagation pass reproduces Dijkstra's
        distances exactly (the same additions in root-outward order;
        nodes on unreachable components stay at infinity either way).
        Anything else (mid-update transients, raw faulty channels) falls
        back to Dijkstra.
        """
        if nodes is None and not self._multi_in and root not in self._in_links:
            dist = dict.fromkeys(self._node_refs, INFINITY)
            dist[root] = 0.0
            by_head = self._by_head
            stack = [root]
            while stack:
                node = stack.pop()
                outgoing = by_head.get(node)
                if outgoing is None:
                    continue
                d = dist[node]
                for (_, tail), cost in outgoing.items():
                    dist[tail] = d + cost
                    stack.append(tail)
            return dist
        return dijkstra(self._links, root, nodes=nodes)[0]

    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self) -> Iterator[LinkId]:
        return iter(self._links)

    def __contains__(self, link_id: LinkId) -> bool:
        return link_id in self._links

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TopologyTable):
            return NotImplemented
        return self._links == other._links

    def __repr__(self) -> str:
        return f"TopologyTable({len(self._links)} links)"


class FrozenTree:
    """An immutable tree snapshot: a router's main table, flooded with LSUs.

    A router's main table *is* its current snapshot (an empty one before
    the first MTU).  MTU builds the next snapshot whenever its tree
    changes, in the ``INCREMENTAL = False`` reference mode too; the
    incremental mode also attaches it to the LSU, and it is then shared
    by reference with every receiver of the flood.  A receiver may adopt it
    in place of replaying the LSU entries exactly when its current copy
    of the sender's table equals the state the entries were diffed
    against — either the copy *is* the sender's previous snapshot (same
    object, recognized by version), or the copy is empty and the entries
    rebuild the tree from scratch (``applies_to_empty``).  In both cases
    the swap lands the receiver on the same table content and the same
    distance values the entry replay would produce, by construction, at
    O(1) instead of O(entries + affected region).  Any other receiver
    state — duplicated or reordered delivery over a raw faulty channel,
    or either end in the reference mode, which builds snapshots but
    neither attaches nor adopts them — takes the entry path.

    Instances are shared across routers and must never be mutated; a
    receiver that needs to edit its copy materializes a mutable
    :class:`TopologyTable` with :meth:`thaw` first.

    Consecutive snapshots of one sender share structure: :meth:`patched`
    copies only the outer head map and gives each head an LSU touches a
    fresh group, so every other per-head group dict is the *same object*
    in both snapshots (and in every receiver holding either).  The rule
    that keeps this safe is the same as for whole snapshots: a group
    reachable from any snapshot is never written again — a change to a
    head's links always builds a new group dict.

    Attributes:
        version: the sender's table version this snapshot captures.
        prev_version: the version the LSU entries were diffed against
            (None for a full-table greeting dump).
        applies_to_empty: True when folding the entries onto an *empty*
            table yields exactly this snapshot's content (full dumps,
            and diffs taken against an empty tree).
        dist: distances from the sender within the tree (tree nodes
            plus the sender) — what the receiver's NTU would compute.
        changed_rows: destinations whose ``dist`` entry differs from
            the predecessor state's, i.e. the row diff the receiver's
            NTU would report.
    """

    __slots__ = (
        "version",
        "prev_version",
        "applies_to_empty",
        "dist",
        "changed_rows",
        "_by_head",
        "_nodes",
        "_n_links",
    )

    def __init__(
        self,
        *,
        version: int,
        prev_version: int | None,
        applies_to_empty: bool,
        dist: dict[NodeId, float],
        changed_rows: set[NodeId],
        by_head: dict[NodeId, dict[LinkId, float]],
        nodes: dict[NodeId, None],
        n_links: int,
    ) -> None:
        self.version = version
        self.prev_version = prev_version
        self.applies_to_empty = applies_to_empty
        self.dist = dist
        self.changed_rows = changed_rows
        self._by_head = by_head
        self._nodes = nodes
        self._n_links = n_links

    @classmethod
    def empty(cls, root: NodeId) -> "FrozenTree":
        """The main table of a router whose MTU has not run yet."""
        dist = {root: 0.0}
        return cls(
            version=0,
            prev_version=None,
            applies_to_empty=True,
            dist=dist,
            changed_rows=set(),
            by_head={},
            nodes=dist,
            n_links=0,
        )

    @classmethod
    def from_tree(
        cls,
        tree: Mapping[LinkId, float],
        root: NodeId,
        dist: Mapping[NodeId, float],
        *,
        version: int,
        prev_version: int | None,
        applies_to_empty: bool,
        prev_flood: Mapping[NodeId, float],
    ) -> "FrozenTree":
        """Freeze a ``(dist, tree)`` shortest-path result in one pass.

        The reference construction of a snapshot: the MTU tail builds
        its snapshots itself (:meth:`patched` with its own diff), and
        tests hold them to this function's result.

        ``dist`` may cover the sender's whole node universe; the
        snapshot keeps only the tree's nodes (all finite) plus the
        root, matching what :meth:`TopologyTable.distances_from` would
        return on the receiver.  ``prev_flood`` is the same restricted
        view of the predecessor state, used to derive ``changed_rows``.
        """
        # ``tree`` is a shortest-path tree rooted at ``root``: every node
        # but the root appears exactly once as a tail, and every head is
        # the root or some tail — so one fused pass over the links
        # collects the groups and the restricted distances together, and
        # the distance map's key set doubles as the node set.
        by_head: dict[NodeId, dict[LinkId, float]] = {}
        flood: dict[NodeId, float] = {root: 0.0}
        group_of = by_head.get
        for link_id, cost in tree.items():
            head, tail = link_id
            group = group_of(head)
            if group is None:
                group = by_head[head] = {}
            group[link_id] = cost
            flood[tail] = dist[tail]
        prev_get = prev_flood.get
        changed = {j for j, v in flood.items() if prev_get(j) != v}
        for j in prev_flood:
            if j not in flood:
                changed.add(j)
        return cls(
            version=version,
            prev_version=prev_version,
            applies_to_empty=applies_to_empty,
            dist=flood,
            changed_rows=changed,
            by_head=by_head,
            nodes=flood,
            n_links=len(tree),
        )

    def patched(
        self,
        entries: Iterable[LinkEntry],
        *,
        dist: dict[NodeId, float],
        changed_rows: set[NodeId],
    ) -> "FrozenTree":
        """The sender's next snapshot (next version): this one with
        ``entries`` applied.

        Copy-on-write: the outer head map is copied, each head an entry
        touches gets a new group dict, and every other group is shared
        with ``self`` (see the class docstring).  ``entries`` must be a
        tree diff against this snapshot (distinct links; ADD for a link
        absent here, CHANGE/DELETE for one present); ``dist`` and
        ``changed_rows`` are the new restricted distance view and its
        row diff, which the caller already holds.
        """
        old_groups = self._by_head
        fresh: dict[NodeId, dict[LinkId, float]] = {}
        n_links = self._n_links
        for entry in entries:
            head = entry.head
            group = fresh.get(head)
            if group is None:
                group = fresh[head] = dict(old_groups.get(head, _EMPTY_LINKS))
            link = (head, entry.tail)
            if entry.op is EntryOp.DELETE:
                del group[link]
                n_links -= 1
            else:
                if entry.op is EntryOp.ADD:
                    n_links += 1
                group[link] = entry.cost
        by_head = dict(old_groups)
        for head, group in fresh.items():
            if group:
                by_head[head] = group
            else:
                by_head.pop(head, None)
        return FrozenTree(
            version=self.version + 1,
            prev_version=self.version,
            applies_to_empty=len(self.dist) == 1,
            dist=dist,
            changed_rows=changed_rows,
            by_head=by_head,
            nodes=dist,
            n_links=n_links,
        )

    def as_full(self, root: NodeId) -> "FrozenTree":
        """A full-dump variant of this snapshot (greeting messages).

        Shares every underlying mapping; only the acceptance metadata
        differs: it applies to an empty table and every row counts as
        changed relative to that empty baseline.
        """
        changed = set(self.dist)
        changed.discard(root)
        return FrozenTree(
            version=self.version,
            prev_version=None,
            applies_to_empty=True,
            dist=self.dist,
            changed_rows=changed,
            by_head=self._by_head,
            nodes=self._nodes,
            n_links=self._n_links,
        )

    def thaw(self) -> TopologyTable:
        """A mutable :class:`TopologyTable` with this snapshot's links."""
        table = TopologyTable()
        for group in self._by_head.values():
            for (head, tail), cost in group.items():
                table.set_link(head, tail, cost)
        return table

    # Read-only surface shared with TopologyTable (what MTU, the greeting
    # dump and introspection touch).
    def links_with_head_view(self, head: NodeId) -> Mapping[LinkId, float]:
        return self._by_head.get(head, _EMPTY_LINKS)

    def cost(self, head: NodeId, tail: NodeId) -> float:
        """Cost of the link, or infinity when absent."""
        return self._by_head.get(head, _EMPTY_LINKS).get((head, tail), INFINITY)

    def nodes(self) -> set[NodeId]:
        """The tree's nodes (the root included, even with no links)."""
        return set(self._nodes)

    def nodes_view(self):
        return self._nodes.keys()

    def nodes_map_view(self):
        return self._nodes

    def links(self) -> dict[LinkId, float]:
        out: dict[LinkId, float] = {}
        for group in self._by_head.values():
            out.update(group)
        return out

    def full_dump(self) -> tuple[LinkEntry, ...]:
        """ADD entries for every link — sent to a newly-up neighbor."""
        return tuple(
            LinkEntry(EntryOp.ADD, head, tail, cost)
            for group in self._by_head.values()
            for (head, tail), cost in group.items()
        )

    def __len__(self) -> int:
        return self._n_links

    def __iter__(self) -> Iterator[LinkId]:
        return itertools.chain.from_iterable(self._by_head.values())

    def __repr__(self) -> str:
        return f"FrozenTree(v{self.version}, {self._n_links} links)"
