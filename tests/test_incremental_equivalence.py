"""Differential tests: optimized hot paths vs reference semantics.

PR 7 made the protocol core incremental (dirty-destination MTU state,
snapshot flooding, patched neighbor distances) and vectorized the
allocation heuristics.  Every shortcut claims *bit-for-bit* equality
with the straightforward implementation; these tests run both sides —
``INCREMENTAL = False`` routers and the scalar IH/AH kernels are kept
precisely to serve as oracles — over converged states, failover
windows, and adversarial fuzz schedules, and assert the claim.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import ah, ah_batch, ih, ih_batch
from repro.core.driver import ProtocolDriver
from repro.core.linkstate import (
    INFINITY,
    EntryOp,
    FrozenTree,
    LinkEntry,
    LSUMessage,
    TopologyTable,
)
from repro.core.mpda import MPDARouter
from repro.core.pda import PDARouter
from repro.core.transport import FaultyChannel, ReliableTransport
from repro.graph.generators import waxman
from repro.graph.shortest_paths import rank_nodes
from repro.graph.topologies import cairn, net1
from repro.testing.fuzz import build_topology, generate_case


class ReferenceRouter(MPDARouter):
    """MPDA with every incremental shortcut disabled."""

    INCREMENTAL = False


def _recording(router_cls):
    """``router_cls`` logging every LSU it sends into ``cls.sent``.

    A sent LSU is ``(sender, receiver, ack, frozenset(entries))``: the
    entry *set* is the wire contract — the order of entries within one
    LSU is not (it already varies with ``PYTHONHASHSEED`` on string
    node ids), while every entry's floats must match exactly.
    """

    class Recording(router_cls):
        sent: list = []

        def _send(self, neighbor, message):
            self.sent.append(
                (self.node_id, neighbor, message.ack, frozenset(message.entries))
            )
            super()._send(neighbor, message)

    return Recording


def _assert_same_state(optimized: ProtocolDriver, reference: ProtocolDriver):
    """The two drivers must agree on every protocol-visible quantity."""
    assert optimized.message_stats() == reference.message_stats()
    opt_cls = type(next(iter(optimized.routers.values())))
    ref_cls = type(next(iter(reference.routers.values())))
    assert opt_cls.sent == ref_cls.sent
    for node, router in optimized.routers.items():
        ref = reference.routers[node]
        assert router.distances == ref.distances, node
        assert router.feasible_distance == ref.feasible_distance, node
        assert router.successor_sets == ref.successor_sets, node
        assert router.nbr_distances == ref.nbr_distances, node


def _pair(topo, seed=0):
    optimized = ProtocolDriver(topo, _recording(MPDARouter), seed=seed)
    reference = ProtocolDriver(topo, _recording(ReferenceRouter), seed=seed)
    costs = topo.idle_marginal_costs()
    for driver in (optimized, reference):
        driver.start(costs)
        driver.run()
    return optimized, reference, costs


@pytest.mark.parametrize("make_topo", [net1, cairn, lambda: waxman(40, seed=2)])
def test_failover_window_differential(make_topo):
    """Cold start, link failure, and restoration: identical throughout."""
    topo = make_topo()
    optimized, reference, costs = _pair(topo)
    _assert_same_state(optimized, reference)

    link = next(iter(topo.links())).link_id
    a, b = link
    for driver in (optimized, reference):
        driver.fail_link(a, b)
        driver.run()
    _assert_same_state(optimized, reference)

    for driver in (optimized, reference):
        driver.restore_link(a, b, costs[(a, b)], costs[(b, a)])
        driver.run()
    _assert_same_state(optimized, reference)

    bumped = {link_id: cost * 1.7 for link_id, cost in list(costs.items())[:4]}
    for driver in (optimized, reference):
        driver.set_costs(bumped)
        driver.run()
    _assert_same_state(optimized, reference)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_schedule_differential(seed):
    """Adversarial schedules (in-flight events, partial pumping):
    the optimized core must stay message-for-message identical."""
    case = generate_case(seed)
    topo_spec = case.topology
    base_costs = build_topology(topo_spec).idle_marginal_costs()

    def execute(router_cls):
        driver = ProtocolDriver(
            build_topology(topo_spec),
            _recording(router_cls),
            seed=case.driver_seed,
        )
        driver.start(base_costs)
        driver.run()
        for event in case.schedule:
            op, *args = event
            if op == "fail_link":
                driver.fail_link(args[0], args[1])
            elif op == "restore_link":
                a, b = args
                driver.restore_link(
                    a, b, base_costs[(a, b)], base_costs[(b, a)]
                )
            elif op == "set_cost":
                head, tail, cost = args
                if tail in driver.routers[head].link_costs:
                    driver.set_costs({(head, tail): cost})
            elif op == "pump":
                for _ in range(args[0]):
                    if not driver.step():
                        break
            # "partition" needs the faulty transport; irrelevant here —
            # the schedules still interleave events with in-flight LSUs.
        driver.run()
        driver.verify_converged()
        return driver

    _assert_same_state(execute(MPDARouter), execute(ReferenceRouter))


# ----------------------------------------------------------------------
# allocation kernels
# ----------------------------------------------------------------------
@st.composite
def _allocation_rows(draw):
    n_rows = draw(st.integers(1, 20))
    rows = []
    for _ in range(n_rows):
        keys = draw(
            st.lists(
                st.integers(0, 30), min_size=1, max_size=5, unique=True
            )
        )
        rows.append(
            {
                k: draw(
                    st.floats(
                        0.0, 50.0, allow_nan=False, allow_infinity=False
                    )
                )
                for k in keys
            }
        )
    return rows


@settings(max_examples=60, deadline=None)
@given(rows=_allocation_rows())
def test_ih_batch_matches_scalar(rows):
    scalar = [ih(row) for row in rows]
    batched = ih_batch(rows)
    assert batched == scalar
    # bit-for-bit includes each result dict's key order
    assert [list(b) for b in batched] == [list(s) for s in scalar]


@settings(max_examples=60, deadline=None)
@given(rows=_allocation_rows(), steps=st.integers(1, 3))
def test_ah_batch_matches_scalar(rows, steps):
    phis = [ih(row) for row in rows]
    for _ in range(steps):
        scalar = [ah(phi, row) for phi, row in zip(phis, rows)]
        batched = ah_batch(phis, rows)
        assert batched == scalar
        assert [list(b) for b in batched] == [list(s) for s in scalar]
        phis = batched


def test_ah_tie_break_is_natural_order():
    """Regression: equal-distance ties pick the *naturally* smallest
    successor.  A repr-based tie-break would sort node 10 ahead of
    node 2 and move the traffic the other way."""
    phi = {10: 0.3, 2: 0.3, 3: 0.4}
    distance_via = {10: 1.0, 2: 1.0, 3: 2.0}
    adjusted = ah(phi, distance_via)
    assert adjusted[2] == pytest.approx(0.7)
    assert adjusted[10] == pytest.approx(0.3)
    assert adjusted[3] == 0.0
    assert ah_batch([phi], [distance_via]) == [adjusted]


# ----------------------------------------------------------------------
# snapshot flooding (FrozenTree)
# ----------------------------------------------------------------------
def _snap(tree, root, dist, *, version, prev_version, prev_flood):
    return FrozenTree.from_tree(
        tree,
        root,
        dist,
        version=version,
        prev_version=prev_version,
        applies_to_empty=prev_version is None,
        prev_flood=prev_flood,
    )


def test_frozen_tree_from_tree_shape():
    tree = {("s", "x"): 1.0, ("x", "y"): 2.0}
    dist = {"s": 0.0, "x": 1.0, "y": 3.0}
    snap = _snap(
        tree, "s", dist, version=1, prev_version=None, prev_flood={"s": 0.0}
    )
    assert snap.dist == dist
    assert snap.changed_rows == {"x", "y"}
    assert snap.links() == tree
    assert dict(snap.links_with_head_view("x")) == {("x", "y"): 2.0}
    assert set(snap.nodes_view()) == {"s", "x", "y"}
    assert len(snap) == 2
    assert snap.thaw().links() == tree


def test_snapshot_accept_swaps_reference():
    """An in-sync receiver adopts the frozen tree without replaying."""
    router = PDARouter("i")
    router.link_up("s", 1.0)
    tree = {("s", "x"): 1.0}
    snap1 = _snap(
        tree,
        "s",
        {"s": 0.0, "x": 1.0},
        version=1,
        prev_version=None,
        prev_flood={"s": 0.0},
    )
    router.receive(
        LSUMessage(
            sender="s",
            entries=(LinkEntry(EntryOp.ADD, "s", "x", 1.0),),
            snapshot=snap1,
        )
    )
    assert router.neighbor_tables["s"] is snap1
    assert router.nbr_distances["s"] is snap1.dist
    assert router.distances["x"] == 2.0

    snap2 = _snap(
        {("s", "x"): 3.0},
        "s",
        {"s": 0.0, "x": 3.0},
        version=2,
        prev_version=1,
        prev_flood=snap1.dist,
    )
    router.receive(
        LSUMessage(
            sender="s",
            entries=(LinkEntry(EntryOp.CHANGE, "s", "x", 3.0),),
            snapshot=snap2,
        )
    )
    assert router.neighbor_tables["s"] is snap2
    assert router.distances["x"] == 4.0


def test_snapshot_desync_falls_back_to_entries():
    """Duplicated or reordered delivery: the snapshot's baseline no
    longer matches, so the receiver must thaw and replay the entries —
    same state, different representation."""
    router = PDARouter("i")
    router.link_up("s", 1.0)
    snap1 = _snap(
        {("s", "x"): 1.0},
        "s",
        {"s": 0.0, "x": 1.0},
        version=1,
        prev_version=None,
        prev_flood={"s": 0.0},
    )
    message = LSUMessage(
        sender="s",
        entries=(LinkEntry(EntryOp.ADD, "s", "x", 1.0),),
        snapshot=snap1,
    )
    router.receive(message)
    assert router.neighbor_tables["s"] is snap1

    # Duplicate delivery: version 1 does not follow version 1.
    router.receive(message)
    table = router.neighbor_tables["s"]
    assert isinstance(table, TopologyTable)
    assert table.links() == {("s", "x"): 1.0}
    assert router.nbr_distances["s"] == {"s": 0.0, "x": 1.0}
    assert router.distances["x"] == 2.0

    # A snapshot from the future (version 3 diffed against a version 2
    # this router never saw): entries still carry the protocol content.
    snap3 = _snap(
        {("s", "x"): 5.0},
        "s",
        {"s": 0.0, "x": 5.0},
        version=3,
        prev_version=2,
        prev_flood={"s": 0.0, "x": 4.0},
    )
    router.receive(
        LSUMessage(
            sender="s",
            entries=(LinkEntry(EntryOp.CHANGE, "s", "x", 5.0),),
            snapshot=snap3,
        )
    )
    assert isinstance(router.neighbor_tables["s"], TopologyTable)
    assert router.nbr_distances["s"] == {"s": 0.0, "x": 5.0}
    assert router.distances["x"] == 6.0


class _SnapshotChecked(MPDARouter):
    """MPDA checking its main table after every changed MTU.

    The main table *is* the flooded snapshot, built copy-on-write by the
    MTU tail.  It is held to two references that do not read it: the
    tree read off the router's own predecessor map, and what an
    entry-replaying receiver holds (the previous snapshot thawed, with
    the LSU's entries applied).  It must also agree with the documented
    :meth:`FrozenTree.from_tree` construction, and the previous snapshot
    (which receivers may still hold, and which shares groups with the
    new one) must come out untouched.
    """

    checked = 0
    patched = 0

    def _mtu_patch(self, *args):
        type(self).patched += 1
        return super()._mtu_patch(*args)

    def _mtu(self):
        prev = self.main_table
        prev_state = (prev.links(), dict(prev.dist))
        changes = super()._mtu()
        if not changes:
            assert self.main_table is prev
            return changes
        snap = self.main_table
        tree = {
            (h, t): self._radj[t][h] for t, h in self._pred.items() if h is not None
        }
        replayed = prev.thaw()
        replayed.apply(changes)
        assert replayed.links() == tree
        assert snap.links() == tree
        assert len(snap) == len(tree)
        assert snap.version == prev.version + 1
        assert snap.prev_version == prev.version
        rebuilt = FrozenTree.from_tree(
            tree,
            self.node_id,
            self.distances,
            version=snap.version,
            prev_version=snap.prev_version,
            applies_to_empty=len(prev.dist) == 1,
            prev_flood=prev.dist,
        )
        assert rebuilt.dist == snap.dist
        assert rebuilt.changed_rows == snap.changed_rows
        assert rebuilt.applies_to_empty == snap.applies_to_empty
        assert set(rebuilt.nodes_view()) == set(snap.nodes_view())
        assert (prev.links(), prev.dist) == prev_state
        type(self).checked += 1
        return changes


def test_fused_mtu_snapshot_matches_from_tree():
    """Every snapshot through cold start, a failover window and a cost
    change matches the reference construction."""
    for topo in (net1(), waxman(40, seed=2)):
        router_cls = type("Checked", (_SnapshotChecked,), {})
        driver = ProtocolDriver(topo, router_cls, seed=0)
        costs = topo.idle_marginal_costs()
        driver.start(costs)
        driver.run()
        a, b = next(iter(topo.links())).link_id
        driver.fail_link(a, b)
        driver.run()
        driver.restore_link(a, b, costs[(a, b)], costs[(b, a)])
        driver.run()
        driver.set_costs({link: c * 1.7 for link, c in list(costs.items())[:4]})
        driver.run()
        driver.verify_converged()
        assert router_cls.checked > len(driver.routers)
        # The incremental tree update (not only full rebuilds) was checked.
        assert router_cls.patched > 0


class _FDChecked(MPDARouter):
    """MPDA checking every feasible-distance fold and universe update.

    After each step-2b lowering and step-3c reset, ``feasible_distance``
    must equal the full-scan rule evaluated on copies of the pre-call
    state (for the reset: the distances right before its MTU), and the
    lag set must list exactly the destinations whose FD differs from
    their distance.  After each incremental MTU the distance map must
    cover exactly the merged node universe, ranked as from scratch.
    """

    lowerings = 0
    lag_resets = 0
    patches = 0

    def _mtu(self):
        self._checked_before = dict(self.distances)
        return super()._mtu()

    def _lower_feasible_distances(self):
        expected = dict(self.feasible_distance)
        for j, d in self.distances.items():
            if j != self.node_id and d < expected.get(j, INFINITY):
                expected[j] = d
        super()._lower_feasible_distances()
        assert self.feasible_distance == expected
        self._assert_lag_exact()
        type(self).lowerings += 1

    def _reset_feasible_distances(self):
        before, after = self._checked_before, self.distances
        expected = {}
        for j in before.keys() | after.keys():
            fd = min(before.get(j, INFINITY), after.get(j, INFINITY))
            if j != self.node_id and fd < INFINITY:
                expected[j] = fd
        lagged = self._fd_moved is not None
        super()._reset_feasible_distances()
        assert self.feasible_distance == expected
        self._assert_lag_exact()
        type(self).lag_resets += lagged

    def _assert_lag_exact(self):
        dist = self.distances
        assert self._fd_lag == {
            j: dist.get(j, INFINITY)
            for j, fd in self.feasible_distance.items()
            if fd != dist.get(j, INFINITY)
        }

    def _mtu_patch(self, *args):
        changes = super()._mtu_patch(*args)
        universe = self._universe()
        assert set(self.distances) == set(universe)
        assert self._rank == rank_nodes(universe)
        type(self).patches += 1
        return changes


def _fd_checked_run(topo, transport=None, pump=0):
    """Cold start, a failover window and a cost change under
    :class:`_FDChecked`; ``pump`` deliveries run before each disturbance
    settles, so events also land while routers are ACTIVE."""
    router_cls = type("Checked", (_FDChecked,), {})
    driver = ProtocolDriver(topo, router_cls, seed=0, transport=transport)
    costs = topo.idle_marginal_costs()
    driver.start(costs)
    driver.run()
    a, b = next(iter(topo.links())).link_id
    driver.fail_link(a, b)
    for _ in range(pump):
        driver.step()
    others = [link for link in costs if {*link} != {a, b}]
    driver.set_costs({link: costs[link] * 1.3 for link in others[4:8]})
    driver.run()
    driver.restore_link(a, b, costs[(a, b)], costs[(b, a)])
    driver.run()
    driver.set_costs({link: c * 1.7 for link, c in list(costs.items())[:4]})
    driver.run()
    driver.verify_converged()
    return router_cls


@pytest.mark.parametrize("make_topo", [net1, lambda: waxman(40, seed=2)])
def test_fd_reset_and_universe_match_full_scan(make_topo):
    """The lag-set reset, the moved-only lowering and the universe read
    off dirty rows agree with their full-scan rules after every call."""
    router_cls = _fd_checked_run(make_topo(), pump=5)
    # The lag-set path (not only full scans after rebuilds) was checked.
    assert router_cls.lag_resets > 0
    assert router_cls.lowerings > 0
    assert router_cls.patches > 0


@pytest.mark.parametrize("seed", range(3))
def test_fd_reset_matches_full_scan_over_faulty_channel(seed):
    """The same checks with retransmitted, reordered and duplicated
    frames underneath the reliable transport."""
    channel = FaultyChannel(seed=seed, loss=0.2, dup=0.2, reorder=0.3)
    router_cls = _fd_checked_run(net1(), transport=ReliableTransport(channel), pump=3)
    assert router_cls.lag_resets > 0


# ----------------------------------------------------------------------
# incremental neighbor-table patching
# ----------------------------------------------------------------------
def _tree_table():
    table = TopologyTable()
    table.set_link("r", "a", 1.0)
    table.set_link("r", "b", 2.0)
    table.set_link("a", "c", 1.0)
    table.set_link("c", "d", 1.0)
    return table


def _check_incremental(table, entries):
    dist = table.distances_from("r")
    dist.setdefault("r", 0.0)
    changed, changed_nodes = table.apply_incremental(entries, "r", dist)
    fresh = table.distances_from("r")
    fresh.setdefault("r", 0.0)
    assert changed_nodes is not None
    assert dist == fresh
    return changed, changed_nodes


def test_apply_incremental_cost_change_updates_subtree():
    table = _tree_table()
    changed, rows = _check_incremental(
        table, [LinkEntry(EntryOp.CHANGE, "a", "c", 3.0)]
    )
    assert changed
    assert rows == {"c", "d"}  # the subtree below the edited link


def test_apply_incremental_prunes_unchanged_branches():
    table = _tree_table()
    # Re-adding an identical link is a no-op: nothing recomputed.
    changed, rows = _check_incremental(
        table, [LinkEntry(EntryOp.ADD, "r", "a", 1.0)]
    )
    assert not changed
    assert rows == set()


def test_apply_incremental_grows_and_shrinks():
    table = _tree_table()
    changed, rows = _check_incremental(
        table,
        [
            LinkEntry(EntryOp.ADD, "d", "e", 2.0),
            LinkEntry(EntryOp.DELETE, "r", "b", 0.0),
        ],
    )
    assert changed
    assert rows == {"e", "b"}  # one node entered, one left


def test_apply_incremental_non_tree_transient_returns_none():
    table = _tree_table()
    dist = table.distances_from("r")
    dist.setdefault("r", 0.0)
    before = dict(dist)
    # A second parent for "c" makes the table not a tree: the fast
    # path must decline and leave ``dist`` untouched.
    changed, changed_nodes = table.apply_incremental(
        [LinkEntry(EntryOp.ADD, "b", "c", 1.0)], "r", dist
    )
    assert changed
    assert changed_nodes is None
    assert dist == before
