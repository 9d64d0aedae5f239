"""Per-layer spans recorded from outside the program.

The benchmark does not edit the package under test.  For a traced run
it replaces public functions and methods of the layer modules with
timing wrappers, and puts the originals back afterwards.  Each wrapper
is a span named ``<module>.<qualname>`` (module without the ``repro.``
prefix) that records its calls, its total time and its self time: the
total minus the time its wrapped callees took.

A function re-bound by ``from ... import`` (``dijkstra`` inside
``core.pda``, ``check_safety`` inside ``core.driver``) is a second
reference to the same object, so :func:`install` also swaps every
module-level alias of a wrapped function across the loaded ``repro``
modules.  Methods are wrapped in the defining class's own dict, so an
override and the ``super()`` call it makes are separate spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: The spans, by module.  ``Class.method`` wraps one method,
#: ``*.method`` the method in every class of the module that defines it
#: itself (the transport and policy families), a bare name a function.
SPANS: dict[str, tuple[str, ...]] = {
    "repro.graph.shortest_paths": (
        "dijkstra",
        "SharedSPF.distances_to",
        "k_shortest_paths",
        "bellman_ford",
    ),
    "repro.core.pda": (
        "PDARouter.receive",
        "PDARouter.link_up",
        "PDARouter.link_down",
        "PDARouter.link_cost_change",
    ),
    "repro.core.mpda": (
        "MPDARouter.receive",
        "MPDARouter.link_down",
        "check_safety",
    ),
    "repro.core.linkstate": (
        # FrozenTree.from_tree is on no path since the MTU tail builds
        # snapshots itself; thaw counts adopted snapshots replayed.
        "TopologyTable.apply_incremental",
        "FrozenTree.thaw",
    ),
    "repro.core.driver": (
        "ProtocolDriver.run",
        "ProtocolDriver.step",
        "ProtocolDriver.verify_converged",
    ),
    "repro.core.transport": ("*.send", "*.pop", "*.tick"),
    "repro.core.allocation": (
        "AllocationTable.update",
        "AllocationTable.update_many",
    ),
    "repro.core.router": (
        "MPRouting.update_routes",
        "MPRouting.adjust_allocation",
    ),
    "repro.fluid.evaluator": ("link_flows", "node_flows", "flow_delays"),
    "repro.fluid.queues": ("FluidQueues.step",),
    "repro.gallager.opt": ("optimize",),
    "repro.gallager.marginals": ("marginal_distances",),
    "repro.gallager.blocking": ("blocked_nodes",),
    "repro.netsim.network": ("PacketNetwork.run", "PacketNetwork.measure_costs"),
    "repro.netsim.node": ("SimNode.receive",),
    "repro.netsim.link": ("SimLink.send",),
    "repro.policy.paper": ("*.on_costs", "*.on_short_costs", "*.on_link_event"),
    "repro.policy.ecmp_k": ("*.on_costs", "*.on_short_costs", "*.on_link_event"),
    "repro.policy.backpressure": (
        "*.on_costs",
        "*.on_short_costs",
        "*.on_link_event",
    ),
    "repro.policy.opt": ("*.on_costs", "*.on_short_costs", "*.on_link_event"),
    "repro.sim.control": (
        "TwoTimescaleController.run",
        "FluidPlane.advance",
        "PacketPlane.advance",
    ),
    "repro.testing.fuzz": (
        "generate_case",
        "run_case",
        "run_policy_case",
    ),
    "repro.fleet.worker": ("execute_cell", "run_shard"),
    "repro.fleet.merge": ("merge_report",),
}

#: Span-name prefix -> layer, most specific first.  The first match
#: names the layer a span's self time is booked to.
LAYERS: tuple[tuple[str, str], ...] = (
    ("core.mpda.check_safety", "check_safety"),
    ("graph.shortest_paths", "spf"),
    ("core.pda", "protocol"),
    ("core.mpda", "protocol"),
    ("core.linkstate", "linkstate"),
    ("core.driver", "driver"),
    ("core.transport", "transport"),
    ("core.allocation", "allocation"),
    ("fluid", "fluid"),
    ("gallager", "gallager"),
    ("netsim", "netsim"),
    ("core.router", "control"),
    ("policy", "control"),
    ("sim.control", "control"),
    ("testing.fuzz", "fuzz"),
    ("fleet", "fleet"),
    ("benchmark", "benchmark"),
)


def layer_of(span: str) -> str:
    for prefix, layer in LAYERS:
        if span == prefix or span.startswith(prefix + "."):
            return layer
    raise KeyError(span)


def patch(spans: dict[str, tuple[str, ...]], wrap, undo: list) -> None:
    """Replace every target of ``spans`` (as in :data:`SPANS`) by
    ``wrap(name, original)``, and every module-level alias of a wrapped
    function across the loaded ``repro`` modules.  ``undo`` collects what
    :func:`unpatch` puts back.  A target the package no longer has is
    skipped.
    """
    originals: dict[int, tuple] = {}
    for module_name, targets in spans.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        short = module_name.removeprefix("repro.")
        for target in targets:
            owner_name, _, attr = target.rpartition(".")
            if not owner_name:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                wrapped = wrap(f"{short}.{attr}", fn)
                _set(undo, module, attr, wrapped)
                originals[id(fn)] = (fn, wrapped)
                continue
            if owner_name == "*":
                owners = [
                    cls
                    for _, cls in inspect.getmembers(module, inspect.isclass)
                    if cls.__module__ == module_name and attr in vars(cls)
                ]
            else:
                owner = getattr(module, owner_name, None)
                owners = [owner] if owner is not None and attr in vars(owner) else []
            for cls in owners:
                name = f"{short}.{cls.__name__}.{attr}"
                _set(undo, cls, attr, wrap(name, vars(cls)[attr]))
    # Aliases made by ``from module import name``.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                _set(undo, module, attr, entry[1])


def _set(undo: list, owner, attr: str, value) -> None:
    undo.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, value)


def unpatch(undo: list) -> None:
    """Put every original back (reverse order: aliases first)."""
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


class Tracer:
    """Span statistics: ``name -> [calls, total_s, self_s]``.

    ``total_s`` counts only the outermost activation of a span, so a
    recursive call is not counted twice; ``self_s`` counts every
    activation net of its wrapped callees.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        # Time taken by wrapped callees, one slot per open span.
        self._children: list[float] = []
        self._depth: dict[str, int] = {}
        self._undo: list = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        depth = self._depth
        depth[name] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[name] -= 1
                stats[0] += 1
                stats[2] += elapsed - children.pop()
                if not depth[name]:
                    stats[1] += elapsed
                if children:
                    children[-1] += elapsed

        return span

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every span of :data:`SPANS`; :meth:`uninstall` undoes it."""
        patch(SPANS, self.wrap, self._undo)

    def uninstall(self) -> None:
        unpatch(self._undo)

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def layers(self) -> dict[str, float]:
        """Self time per layer (see :data:`LAYERS`)."""
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.stats.items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + self_s
        return out

