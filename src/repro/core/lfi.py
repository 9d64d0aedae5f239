"""The Loop-Free Invariant (LFI) conditions — Eqs. (16)-(17), Theorem 1.

The paper's central verification device: if at every instant every router
*i* keeps a *feasible distance* :math:`FD^i_j` satisfying

.. math::

    FD^i_j \\le D^i_{jk} \\quad \\forall k \\in N^i   \\qquad (16)

(where :math:`D^i_{jk}` is *k*'s distance to *j* as known to *i*) and
chooses successors

.. math::

    S^i_j = \\{\\,k \\mid D^i_{jk} < FD^i_j\\,\\}           \\qquad (17)

then the union of all successor sets is loop-free at every instant.

This module provides a checker used by the test suite and simulation
safety monitors against live MPDA router states, and the *converged*
successor-set computation :func:`lfi_successors` (by Theorem 4, what MPDA
produces once quiet: :math:`S^i_j = \\{k : D^k_j < D^i_j\\}`).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.graph.shortest_paths import CostMap, bellman_ford
from repro.graph.topology import NodeId, Topology
from repro.graph.validation import find_successor_cycle


class LFIViolation(AssertionError):
    """A router state violates the LFI conditions.

    Derives from AssertionError because in a correct implementation this
    is unreachable; the safety monitors promote it to a test failure.
    """


def check_lfi(
    destination: NodeId,
    feasible_distance: Mapping[NodeId, float],
    reported: Mapping[NodeId, Mapping[NodeId, float]],
    successors: Mapping[NodeId, set[NodeId]],
) -> None:
    """Verify Eq. (17) and acyclicity for one destination's state maps.

    Live routers are checked by :func:`repro.core.mpda.check_safety`,
    which adds Eq. (16) and gives the same messages.

    Args:
        destination: the destination *j*.
        feasible_distance: :math:`FD^i_j` per router *i*.
        reported: ``reported[i][k]`` = :math:`D^i_{jk}`, the distance from
            neighbor *k* to *j* in *i*'s copy of *k*'s topology.
        successors: :math:`S^i_j` per router.

    Raises:
        LFIViolation: if any condition fails.
    """
    for router, fd in feasible_distance.items():
        known = reported.get(router, {})
        succ = successors.get(router, set())
        for nbr in succ:
            if nbr not in known or not known[nbr] < fd:
                raise eq17_violation(
                    router, nbr, destination, known.get(nbr), fd
                )
    cycle = find_successor_cycle(
        {router: list(succ) for router, succ in successors.items()}
    )
    if cycle is not None:
        raise cycle_violation(destination, cycle)


def eq17_violation(
    router: NodeId,
    nbr: NodeId,
    destination: NodeId,
    reported: float | None,
    fd: float,
) -> LFIViolation:
    """The error for successor ``nbr`` of ``router`` failing Eq. (17):
    no reported distance (``reported is None``) or not below ``fd``."""
    if reported is None:
        return LFIViolation(
            f"router {router!r}: successor {nbr!r} has no reported "
            f"distance to {destination!r}"
        )
    return LFIViolation(
        f"router {router!r}: successor {nbr!r} has "
        f"D_jk = {reported!r} >= FD = {fd!r} "
        f"(Eq. 17 violated for destination {destination!r})"
    )


def cycle_violation(destination: NodeId, cycle: list[NodeId]) -> LFIViolation:
    """The error for a successor-graph cycle toward ``destination``."""
    return LFIViolation(
        f"successor graph for {destination!r} has cycle {cycle!r} "
        "(Theorem 1 violated)"
    )


def lfi_successors(
    topo: Topology,
    costs: CostMap,
    destination: NodeId,
    *,
    dist: Mapping[NodeId, float] | None = None,
) -> dict[NodeId, list[NodeId]]:
    """Converged multipath successor sets for one destination.

    With globally consistent distances :math:`D^i_j` under ``costs``, the
    set is :math:`S^i_j = \\{k \\in N^i : D^k_j < D^i_j\\}` — neighbors
    strictly closer to the destination, regardless of the cost of the
    link to them ("multiple paths of unequal cost").  This is the steady
    state MPDA converges to (Theorem 4).  ``dist`` may supply the
    precomputed all-sources distances to ``destination``.
    """
    if dist is None:
        dist = bellman_ford(costs, destination, nodes=topo.nodes)
    successors: dict[NodeId, list[NodeId]] = {}
    for node in topo.nodes:
        if node == destination:
            successors[node] = []
            continue
        own = dist.get(node, float("inf"))
        successors[node] = [
            nbr
            for nbr in topo.neighbors(node)
            if costs.get((node, nbr)) is not None
            and dist.get(nbr, float("inf")) < own
        ]
    return successors


def shortest_successor(
    topo: Topology,
    costs: CostMap,
    destination: NodeId,
    *,
    dist: Mapping[NodeId, float] | None = None,
) -> dict[NodeId, list[NodeId]]:
    """Single best successor per router (the SP baseline's sets).

    The best successor minimizes :math:`D^k_j + l^i_k`; ties break on the
    deterministic node order so all experiments are reproducible.
    """
    if dist is None:
        dist = bellman_ford(costs, destination, nodes=topo.nodes)
    successors: dict[NodeId, list[NodeId]] = {}
    for node in topo.nodes:
        if node == destination:
            successors[node] = []
            continue
        best: NodeId | None = None
        best_val = float("inf")
        for nbr in topo.neighbors(node):
            cost = costs.get((node, nbr))
            if cost is None:
                continue
            via = dist.get(nbr, float("inf")) + cost
            if via < best_val or (via == best_val and repr(nbr) < repr(best)):
                best, best_val = nbr, via
        # Loop-freedom for the single path still requires the neighbor to
        # be strictly closer; with consistent costs the minimizing
        # neighbor always is, unless the destination is unreachable.
        if best is not None and dist.get(best, float("inf")) < dist.get(
            node, float("inf")
        ):
            successors[node] = [best]
        else:
            successors[node] = []
    return successors
