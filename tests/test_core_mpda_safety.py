"""check_safety against a reference copy of its earlier, map-shaped form.

The reference below is the checker as it stood before it read live
router state directly: it extracts per-destination ``feasible`` /
``reported`` / ``successors`` maps and runs the Eq. (17), acyclicity and
Eq. (16) checks on them, with a DFS cycle search for every destination.
It is kept here only as an oracle: :func:`repro.core.mpda.check_safety`
must raise the same exception type with the same message (hence the
same first violation) on every state, clean or corrupted.
"""

import random

import pytest

from repro.core.driver import ProtocolDriver
from repro.core.lfi import LFIViolation
from repro.core.linkstate import INFINITY
from repro.core.mpda import MPDARouter, check_safety
from repro.exceptions import LoopError
from repro.graph import validation
from repro.graph.topologies import cairn, net1

# ----------------------------------------------------------------------
# the reference checker
# ----------------------------------------------------------------------


def _reference_check_lfi(destination, feasible_distance, reported, successors):
    for router, fd in feasible_distance.items():
        known = reported.get(router, {})
        succ = successors.get(router, set())
        for nbr in succ:
            if nbr not in known:
                raise LFIViolation(
                    f"router {router!r}: successor {nbr!r} has no reported "
                    f"distance to {destination!r}"
                )
            if not known[nbr] < fd:
                raise LFIViolation(
                    f"router {router!r}: successor {nbr!r} has "
                    f"D_jk = {known[nbr]!r} >= FD = {fd!r} "
                    f"(Eq. 17 violated for destination {destination!r})"
                )
    cycle = validation.find_successor_cycle(
        {router: list(succ) for router, succ in successors.items()}
    )
    if cycle is not None:
        raise LFIViolation(
            f"successor graph for {destination!r} has cycle {cycle!r} "
            "(Theorem 1 violated)"
        )


def _reference_check_destination(j, feasible, reported, successors):
    _reference_check_lfi(j, feasible, reported, successors)
    for i, fd in feasible.items():
        if fd == INFINITY:
            continue
        for k in reported.get(i, ()):
            peer_view = reported.get(k)
            if peer_view is None:
                continue
            held = peer_view.get(i)
            if held is None:
                continue
            if fd > held + 1e-12:
                raise LoopError(
                    f"router {i!r}: FD to {j!r} is {fd!r} but neighbor "
                    f"{k!r} holds distance {held!r} (Eq. 16 violated)"
                )


def reference_check_safety(routers, destination=None):
    destinations = set()
    if destination is not None:
        destinations.add(destination)
    else:
        for router in routers.values():
            destinations.update(router.successor_sets)
    for j in destinations:
        feasible = {
            i: router.feasible_distance.get(j, INFINITY)
            for i, router in routers.items()
            if i != j
        }
        reported = {
            i: {
                k: router.neighbor_distance(k, j)
                for k in router.up_neighbors()
            }
            for i, router in routers.items()
        }
        successors = {
            i: router.successors(j) for i, router in routers.items()
        }
        _reference_check_destination(j, feasible, reported, successors)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _outcome(check, routers, destination=None):
    """``None`` for a clean state, else ``(exception type, message)``."""
    try:
        check(routers, destination)
    except (LFIViolation, LoopError) as error:
        return type(error), str(error)
    return None


def _assert_same_verdict(routers, destination=None):
    expected = _outcome(reference_check_safety, routers, destination)
    assert _outcome(check_safety, routers, destination) == expected
    return expected


def _mid_convergence_states(topo, seed, samples):
    """Yield a driver paused at ``samples`` points of a cold start, a
    link failure and the link's restore (routers ACTIVE, LSUs in
    flight)."""
    rng = random.Random(seed)
    driver = ProtocolDriver(topo, MPDARouter, seed=seed)
    driver.start(topo.idle_marginal_costs())
    a, b = sorted(
        (ln.link_id for ln in topo.links()), key=repr
    )[rng.randrange(len(topo.nodes))]
    phases = (
        lambda: None,
        lambda: driver.fail_link(a, b),
        lambda: driver.restore_link(a, b, 1.0, 1.0),
    )
    for disturb in phases:
        disturb()
        for _ in range(samples):
            for _ in range(rng.randrange(1, 12)):
                if not driver.step():
                    break
            yield driver
        driver.run()


def _add_successor(router, j, extra):
    """Put ``extra`` into S_j (a fresh set, as recomputation would);
    returns the undo."""
    sets = router.successor_sets
    before = sets.get(j)
    sets[j] = set(before or ()) | set(extra)

    def undo():
        if before is None:
            sets.pop(j, None)
        else:
            sets[j] = before

    return undo


def _set_fd(router, j, value):
    feasible = router.feasible_distance
    before = feasible.get(j)
    feasible[j] = value

    def undo():
        if before is None:
            feasible.pop(j, None)
        else:
            feasible[j] = before

    return undo


def _corrupt(routers, rng):
    """One random corruption of the live state; returns (kind, undo)."""
    nodes = sorted(routers, key=repr)
    i = rng.choice(nodes)
    router = routers[i]
    j = rng.choice([n for n in nodes if n != i])
    kind = rng.choice(
        ("add_successor", "scale_fd", "non_neighbor", "many", "loop")
    )
    neighbors = sorted(router.link_costs, key=repr)
    strangers = [n for n in nodes if n != i and n not in router.link_costs]
    if kind == "add_successor" and neighbors:
        return kind, _add_successor(router, j, [rng.choice(neighbors)])
    if kind == "scale_fd":
        fd = router.feasible_distance.get(j, 1.0)
        factor = rng.choice((0.0, 0.5, 0.999, 1.001, 2.0, 10.0))
        return kind, _set_fd(router, j, fd * factor)
    if kind == "non_neighbor" and strangers:
        return kind, _add_successor(router, j, [rng.choice(strangers)])
    if kind == "many":
        # Five or more successors: a set that size may iterate in a
        # different order than its copy, so the first violation named
        # must come from the copy's order, as the reference's does.
        extra = rng.sample(nodes, min(len(nodes), rng.randrange(5, 9)))
        return kind, _add_successor(router, j, extra)
    # "loop": a neighbor k that routes through i becomes i's successor,
    # with FD raised so that Eq. 17 holds at i: a successor cycle.
    upstream = [
        k for k in neighbors if i in routers[k].successor_sets.get(j, ())
    ]
    if not upstream:
        return "none", lambda: None
    k = rng.choice(upstream)
    raised = max(
        router.feasible_distance.get(j, 0.0),
        router.neighbor_distance(k, j) + 1.0,
    )
    undo_fd = _set_fd(router, j, raised)
    undo_succ = _add_successor(router, j, [k])

    def undo():
        undo_succ()
        undo_fd()

    return kind, undo


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("make_topo", [cairn, net1], ids=["cairn", "net1"])
    def test_same_verdict_on_corrupted_live_states(self, make_topo):
        topo = make_topo()
        verdicts = []
        for seed in range(4):
            rng = random.Random(1000 + seed)
            for driver in _mid_convergence_states(topo, seed, samples=8):
                routers = driver.routers
                verdicts.append(_assert_same_verdict(routers))
                for _ in range(3):
                    _, undo = _corrupt(routers, rng)
                    verdicts.append(_assert_same_verdict(routers))
                    undo()
        violating = [v for v in verdicts if v is not None]
        # The corpus must exercise every kind of verdict, clean included.
        assert len(violating) >= len(verdicts) // 4
        assert len(violating) < len(verdicts)
        messages = " | ".join(message for _, message in violating)
        for needle in ("Eq. 17", "no reported distance", "Eq. 16", "cycle"):
            assert needle in messages, needle

    def test_single_destination_matches(self):
        topo = net1()
        rng = random.Random(7)
        for driver in _mid_convergence_states(topo, 3, samples=6):
            routers = driver.routers
            _, undo = _corrupt(routers, rng)
            for j in topo.nodes:
                _assert_same_verdict(routers, j)
            undo()

    def test_quiescent_states_pass(self):
        for topo in (cairn(), net1()):
            driver = ProtocolDriver(topo, MPDARouter, seed=0)
            driver.start(topo.idle_marginal_costs())
            driver.run()
            assert _assert_same_verdict(driver.routers) is None


def _hand_built(spec):
    """Routers from ``{node: (links, fd, successors, rows)}`` toward the
    destination ``"j"``: ``rows[k]`` is k's distance to j as known here."""
    routers = {}
    for node, (links, fd, succ, rows) in spec.items():
        router = MPDARouter(node)
        router.link_costs = {k: 1.0 for k in links}
        router.feasible_distance = {} if fd is None else {"j": fd}
        router._successor_sets = {"j": set(succ)} if succ else {}
        router._succ_stale = False
        router._dirty_all = False
        router.nbr_distances = {k: {"j": d} for k, d in rows.items()}
        routers[node] = router
    return routers


class TestCertificateFallback:
    """States on which the FD-order certificate fails, so acyclicity is
    decided by the cycle search instead."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        import repro.core.mpda as mpda

        calls = []
        search = validation.find_successor_cycle

        def counting(successors):
            calls.append(successors)
            return search(successors)

        monkeypatch.setattr(mpda, "find_successor_cycle", counting)
        return calls

    def test_acyclic_tie_within_eq16_tolerance_passes(self, fallbacks):
        # a -> b -> j with FD_b slightly above FD_a: the edge a -> b does
        # not lower FD, yet Eqs. 16-17 hold (Eq. 16 allows 1e-12 slack)
        # and the graph is acyclic.
        fd_a, fd_b = 1.0 + 2.0**-44, 1.0 + 2.0**-42
        routers = _hand_built(
            {
                "a": (["b"], fd_a, ["b"], {"b": 1.0}),
                "b": (["a", "j"], fd_b, ["j"], {"a": 2.0, "j": 0.0}),
                "j": (["b"], None, [], {"b": 1.0}),
            }
        )
        assert _assert_same_verdict(routers) is None
        assert len(fallbacks) == 1

    def test_acyclic_one_sided_link_passes(self, fallbacks):
        # b has not brought the link to a up, so no Eq. 16 bound ties
        # FD_b to a's copy; a -> b raises FD, the graph is still a DAG.
        routers = _hand_built(
            {
                "a": (["b"], 2.0, ["b"], {"b": 1.0}),
                "b": (["j"], 5.0, ["j"], {"j": 0.0}),
                "j": (["b"], None, [], {"b": 5.0}),
            }
        )
        assert _assert_same_verdict(routers) is None
        assert len(fallbacks) == 1

    def test_two_cycle_raises_the_cycle_message(self, fallbacks):
        # Equal FDs: a certificate that accepted "<=" would miss this.
        routers = _hand_built(
            {
                "a": (["b", "j"], 10.0, ["b"], {"b": 1.0, "j": 0.0}),
                "b": (["a", "j"], 10.0, ["a"], {"a": 1.0, "j": 0.0}),
                "j": (["a", "b"], None, [], {"a": 1.0, "b": 1.0}),
            }
        )
        expected = _assert_same_verdict(routers)
        assert expected is not None
        assert expected[0] is LFIViolation
        assert "has cycle" in expected[1]
        assert len(fallbacks) == 1

    def test_destination_with_a_successor_is_no_sink(self, fallbacks):
        # Every edge into j "lowers FD" (j ranks lowest), but j itself
        # routes back to a: the cycle a -> j -> a must still be found.
        routers = _hand_built(
            {
                "a": (["j"], 2.0, ["j"], {"j": 0.0}),
                "j": (["a"], None, ["a"], {"a": 2.0}),
            }
        )
        expected = _assert_same_verdict(routers)
        assert expected is not None and "has cycle" in expected[1]
        assert len(fallbacks) == 1

    def test_ordered_state_needs_no_search(self, fallbacks):
        driver = ProtocolDriver(net1(), MPDARouter, seed=0)
        driver.start(net1().idle_marginal_costs())
        driver.run()
        check_safety(driver.routers)
        assert fallbacks == []
