"""The four benchmark workloads.

Each workload has three steps:

- ``setup(seed)`` builds the inputs (topology, scenario, plan).  It is
  the part of ``setup_s`` that follows ``import repro``.
- ``run(inputs)`` is the timed section.  It calls the public entry
  points of the package and returns what :meth:`finish` needs.
  ``rep_s`` is its nominal duration on a 2-vCPU 2.1 GHz Xeon VM; a
  run of ``--seconds`` repeats it ``round(seconds / rep_s)`` times (at
  least once), a count fixed by the arguments so that two versions of
  the program are timed on the same work.  ``hooks`` names functions the
  section calls often, in the form of ``tracing.SPANS``: the reference
  probes of ``reference.ScaledClock`` run from them.
- ``finish(inputs, state)`` runs outside the timed section, after any
  tracing is removed.  It returns an :class:`Outcome`: the op count
  behind ``ops_per_s``, the exact counts a traced run must repeat, and
  the output checks.

The packages under test are imported inside the functions, so that
``run.py`` can put the checkout's ``src`` on the path first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field

#: Exact counts at the default seed (0).  A change that moves one of
#: them changed behaviour, not speed.  failover-w300 is pinned to the
#: n=300 entry of ``BENCH_scale.json`` instead (34912 LSUs, 8113 MTU
#: runs when this was written).
GOLDEN: dict[str, dict] = {
    "packet-cairn": {
        "packets_injected": 104293,
        "packets_delivered": 104268,
        "packets_dropped": 2,
    },
    "fuzz-zoo": {
        "cells": 350,
        "lsu_delivered": 7544,
        "mtu_runs": 2719,
        "report_sha256": (
            "61d106e4e8041916605da5f99626f6e52676e1e875857f95a706afe06ae571d3"
        ),
    },
    "figs-opt": {"fig09_opt_iterations": 1018, "fig10_opt_iterations": 1387},
}


@dataclass
class Outcome:
    """What a finished run reports."""

    #: The work unit behind ``ops_per_s`` (LSUs, packets, cells, OPT
    #: iterations), counted once per run.
    ops: int
    #: Deterministic counts: equal on every run of one seed, and equal
    #: between the traced and the untraced run.
    counts: dict = field(default_factory=dict)
    #: Output checks by name: True = passed.
    checks: dict = field(default_factory=dict)
    #: Host latency per cell, seconds (fuzz-zoo only).
    cell_s: list = field(default_factory=list)


# ----------------------------------------------------------------------
# failover-w300
# ----------------------------------------------------------------------
class FailoverW300:
    """BENCH_scale's cold start -> link failure -> restore at n=300.

    Live MPDA (policy ``mp``) on the fluid plane over ``PerfectChannel``;
    300 nodes x 12 destinations puts IH/AH on the batch path.
    """

    name = "failover-w300"
    op = "LSU delivered"
    rep_s = 17.0
    nodes = 300
    #: Probe hooks (see reference.ScaledClock).
    hooks = {
        "repro.core.driver": ("ProtocolDriver.step",),
        "repro.core.allocation": ("AllocationTable.update_many",),
        "repro.sim.control": ("FluidPlane.advance",),
    }

    def setup(self, seed: int):
        from repro.bench.scale import WORKLOAD, scale_scenario
        from repro.sim.control import QuasiStaticConfig

        scenario, _ = scale_scenario(self.nodes, seed=seed)
        # The configuration of repro.bench.scale.scale_point.
        config = QuasiStaticConfig(
            tl=WORKLOAD["tl"],
            ts=WORKLOAD["ts"],
            duration=WORKLOAD["duration"],
            warmup=0.0,
            policy="mp",
            damping=0.5,
            seed=seed,
        )
        return {"seed": seed, "scenario": scenario, "config": config}

    def run(self, inputs):
        from repro.sim.control import TwoTimescaleController

        # repro.sim.control.run(scenario, config) with the controller
        # kept, so that finish() can reach the protocol driver.
        controller = TwoTimescaleController(inputs["scenario"], inputs["config"])
        result = controller.run()
        return controller, result

    def finish(self, inputs, state) -> Outcome:
        from repro.exceptions import ReproError

        controller, result = state
        stats = result.protocol_stats
        counts = {
            "lsu_delivered": int(stats["delivered"]),
            "lsu_sent": int(stats["lsu_sent"]),
            "mtu_runs": int(stats["mtu_runs"]),
        }
        # MPRouting keeps its ProtocolDriver private; the Dijkstra
        # oracle check needs it.
        driver = controller.policy._mpr._driver
        try:
            driver.verify_converged()
            converged = True
        except ReproError:
            converged = False
        checks = {"verify_converged": converged}
        if inputs["seed"] == 0:
            checks["bench_scale_n300_counts"] = _bench_scale_counts(
                self.nodes
            ) == counts
        return Outcome(ops=counts["lsu_delivered"], counts=counts, checks=checks)


def _bench_scale_counts(n: int) -> dict | None:
    """The committed BENCH_scale.json counts for ``n`` nodes, if any."""
    path = os.path.join(_root(), "BENCH_scale.json")
    try:
        with open(path) as fh:
            document = json.load(fh)
    except (OSError, ValueError):
        return None
    for entry in document.get("entries", []):
        if entry.get("n") == n and entry.get("seed") == 0:
            return {
                "lsu_delivered": entry["messages"],
                "lsu_sent": entry["lsu_sent"],
                "mtu_runs": entry["mtu_runs"],
            }
    return None


# ----------------------------------------------------------------------
# packet-cairn
# ----------------------------------------------------------------------
class PacketCairn:
    """The packet plane on CAIRN at the Fig. 11 load, with an outage.

    MP runs oracle-mode (no observation is open), so the protocol sends
    nothing and CAIRN's 27 x 10 pairs keep IH/AH on the scalar path.
    """

    name = "packet-cairn"
    op = "packet delivered"
    rep_s = 9.0
    tl, ts, duration = 10.0, 2.0, 40.0
    outage = (14.0, 26.0)
    #: Probe hooks.
    hooks = {
        "repro.netsim.monitor": ("FlowMonitor.note_injected",),
        "repro.sim.control": ("PacketPlane.advance",),
    }

    def setup(self, seed: int):
        from repro.bench.convergence import pick_loaded_failure_link
        from repro.bench.figures import CAIRN_LOAD
        from repro.sim.control import PacketRunConfig
        from repro.sim.scenario import cairn_scenario, with_failures

        base = cairn_scenario(load=CAIRN_LOAD)
        failed = pick_loaded_failure_link(base.topo, base.traffic)
        scenario = with_failures(base, {failed: [self.outage]})
        config = PacketRunConfig(
            tl=self.tl, ts=self.ts, duration=self.duration, damping=0.5, seed=seed
        )
        return {"seed": seed, "scenario": scenario, "config": config}

    def run(self, inputs):
        from repro.sim.control import run

        plane = _checked_packet_plane(inputs["scenario"], inputs["config"])
        run(inputs["scenario"], inputs["config"], plane=plane)
        return plane

    def finish(self, inputs, plane) -> Outcome:
        plane.check()  # the final state, after the last window
        monitor = plane.network.flow_monitor
        counts = {
            "packets_injected": monitor.total_injected(),
            "packets_delivered": monitor.total_delivered(),
            "packets_dropped": monitor.total_dropped(),
            "property1_checks": plane.property1_checks,
        }
        checks = {
            "property1_after_each_tl": not plane.property1_failures,
            "in_flight_nonnegative": not plane.in_flight_failures,
            "packets_delivered": counts["packets_delivered"] > 0,
        }
        checks.update(_golden_checks(self.name, inputs["seed"], counts))
        return Outcome(
            ops=counts["packets_delivered"], counts=counts, checks=checks
        )


def _checked_packet_plane(scenario, config):
    """A PacketPlane that checks Property 1 and in-flight after each Tl.

    The checks read the policy's ``phi()`` and ``routing()`` and the
    flow monitor; they change no state, so the plane runs the code path
    of ``repro.sim.control.PacketPlane``.
    """
    from repro.core.allocation import validate_property1
    from repro.exceptions import AllocationError
    from repro.sim.control import PacketPlane

    class CheckedPacketPlane(PacketPlane):
        property1_checks = 0
        property1_failures = 0
        in_flight_failures = 0

        def bind(self, routing):
            super().bind(routing)
            self.policy = routing

        def advance(self, time, dt, traffic):
            # Windows start at multiples of Ts; the Tl route update ran
            # at the end of the previous window.
            if self._tick and self._tick % self.config.epochs_per_tl == 0:
                self.check()
            return super().advance(time, dt, traffic)

        def check(self) -> None:
            phi = self.policy.phi()
            for dest, successors in self.policy.routing().items():
                for node, succ in successors.items():
                    self.property1_checks += 1
                    try:
                        validate_property1(
                            phi.get(node, {}).get(dest, {}), succ
                        )
                    except AllocationError:
                        self.property1_failures += 1
            if self.network.flow_monitor.in_flight() < 0:
                self.in_flight_failures += 1

    return CheckedPacketPlane(scenario, config)


# ----------------------------------------------------------------------
# fuzz-zoo
# ----------------------------------------------------------------------
class FuzzZoo:
    """An audited fuzz campaign over every FUZZ_POLICIES member.

    Reliable transport (``ReliableTransport(FaultyChannel)``), Theorem 3
    checked after every delivery, run inline in this process.  The cases
    are stratified by topology: the first ``FIXED_STRATA[kind]`` case
    seeds of each named topology from case seed 0 on, the same for every
    seed, and the first ``SEEDED_STRATA[kind]`` random-graph case seeds
    of each size from ``seed * SEED_STRIDE`` on.  A CAIRN case (its
    ``mp`` and ``ecmp-k`` cells) costs about as much as all the others
    together, and a named-topology case's cost changes twofold from one
    case to the next; a random-graph case costs about 5x more at 8 nodes
    than at 4.  So the seed varies only the random graphs, in a fixed
    mix of sizes (the generator's own mix), and the campaign's work stays
    comparable between seeds.
    """

    name = "fuzz-zoo"
    op = "cell"
    rep_s = 10.0
    SEED_STRIDE = 100_000
    FIXED_STRATA = {"cairn": 1, "net1": 5}
    SEEDED_STRATA = {
        "random/4": 9,
        "random/5": 9,
        "random/6": 11,
        "random/7": 8,
        "random/8": 7,
    }
    #: Probe hooks.
    hooks = {
        "repro.fleet.worker": ("execute_cell",),
        "repro.core.driver": ("ProtocolDriver.step",),
        "repro.core.mpda": ("check_safety",),
        "repro.graph.shortest_paths": ("k_shortest_paths",),
    }

    def setup(self, seed: int):
        from repro.fleet import FUZZ_POLICIES, FleetPlan, fuzz_plan
        from repro.testing.fuzz import generate_case

        strata = {
            **_first_cases(generate_case, 0, self.FIXED_STRATA),
            **_first_cases(
                generate_case, seed * self.SEED_STRIDE, self.SEEDED_STRATA
            ),
        }
        # In case-seed order, as one scan from 0 gives at seed 0.
        case_seeds = sorted(s for found in strata.values() for s in found)
        cells = []
        for case_seed in case_seeds:
            for cell in fuzz_plan(len(FUZZ_POLICIES), seed=case_seed).cells:
                cells.append(dataclasses.replace(cell, index=len(cells)))
        plan = FleetPlan(
            kind="fuzz",
            cells=tuple(cells),
            shards=1,
            meta={
                "cases": len(cells),
                "seed": seed,
                "case_seeds": case_seeds,
                "policies": list(FUZZ_POLICIES),
                "reliable": True,
            },
        )
        # Fleet journals; removed again by finish().
        out_dir = os.path.join(_root(), f".perfbench_out-{os.getpid()}")
        return {
            "seed": seed,
            "plan": plan,
            "cairn_seeds": set(strata["cairn"]),
            "out_dir": out_dir,
        }

    def run(self, inputs):
        from repro.fleet import run_fleet, worker

        # Host latency per cell, timed around the fleet's own per-cell
        # call (run_shard looks execute_cell up at call time).
        cell_s: list[float] = []
        execute = worker.execute_cell

        def timed_cell(*args, **kwargs):
            start = time.perf_counter()
            try:
                return execute(*args, **kwargs)
            finally:
                cell_s.append(time.perf_counter() - start)

        worker.execute_cell = timed_cell
        try:
            report = run_fleet(inputs["plan"], out_dir=inputs["out_dir"], inline=True)
        finally:
            worker.execute_cell = execute
        return report, cell_s

    def finish(self, inputs, state) -> Outcome:
        from repro.fleet.merge import report_bytes

        report, cell_s = state
        shutil.rmtree(inputs["out_dir"], ignore_errors=True)
        rows = report["rows"]
        passed = sum(1 for row in rows if row["status"] == "pass")
        mp = [
            row["result"]["metrics"]
            for row in rows
            if row["status"] == "pass" and row["params"]["policy"] == "mp"
        ]
        counts = {
            "cells": len(rows),
            "cells_passed": passed,
            "lsu_delivered": sum(m["delivered"] for m in mp),
            "mtu_runs": sum(m["message_stats"]["mtu_runs"] for m in mp),
            "transport_data_sent": sum(m["transport"]["data_sent"] for m in mp),
            "transport_retransmits": sum(
                m["transport"]["retransmits"] for m in mp
            ),
            "report_sha256": hashlib.sha256(report_bytes(report)).hexdigest(),
        }
        # Cells that did not pass count as failed ops in run.py.
        checks = {
            "cairn_mp_cells": any(
                row["params"]["policy"] == "mp"
                and row["params"]["seed"] in inputs["cairn_seeds"]
                for row in rows
            ),
        }
        checks.update(_golden_checks(self.name, inputs["seed"], counts))
        return Outcome(
            ops=len(rows),
            counts=counts,
            checks=checks,
            cell_s=cell_s,
        )


def _first_cases(generate_case, start: int, quota: dict) -> dict:
    """The first ``quota[kind]`` fuzz case seeds of each kind, scanning
    from ``start``.  A kind is a named topology (``cairn``, ``net1``) or
    ``random/<nodes>``."""
    found: dict[str, list[int]] = {kind: [] for kind in quota}
    case_seed = start
    while any(len(found[kind]) < count for kind, count in quota.items()):
        topology = generate_case(case_seed).topology
        kind = topology.get("name") or f"random/{topology['n']}"
        if len(found.get(kind, ())) < quota.get(kind, 0):
            found[kind].append(case_seed)
        case_seed += 1
    return found


# ----------------------------------------------------------------------
# figs-opt
# ----------------------------------------------------------------------
class FigsOpt:
    """Figs. 9 and 10: Gallager's OPT against MP on CAIRN and NET1.

    The figures run on the paper's fixed scenarios, so the seed does not
    change the inputs.  MP runs oracle-mode with scalar IH/AH.
    """

    name = "figs-opt"
    op = "OPT iteration"
    rep_s = 10.0
    #: The claims of benchmarks/test_fig09 and test_fig10.
    CLAIMS = {
        "fig09": {"mean": 1.05, "max": 1.10},
        "fig10": {"mean": 1.08, "max": 1.15},
    }
    #: Probe hooks.
    hooks = {
        "repro.fluid.evaluator": ("link_flows",),
        "repro.gallager.marginals": ("marginal_distances",),
        "repro.sim.control": ("FluidPlane.advance",),
    }

    def setup(self, seed: int):
        import repro.bench  # noqa: F401 - the import is the setup

        return {"seed": seed}

    def run(self, inputs):
        from repro.bench import fig09_cairn_opt_vs_mp, fig10_net1_opt_vs_mp

        return {"fig09": fig09_cairn_opt_vs_mp(), "fig10": fig10_net1_opt_vs_mp()}

    def finish(self, inputs, figures) -> Outcome:
        counts = {}
        checks = {}
        for key, figure in figures.items():
            metrics = figure.metrics
            claim = self.CLAIMS[key]
            counts[f"{key}_opt_iterations"] = int(metrics["opt_iterations"])
            checks[f"{key}_mean_claim"] = metrics["mp_over_opt_mean"] < claim["mean"]
            checks[f"{key}_max_claim"] = metrics["mp_over_opt_max"] < claim["max"]
            checks[f"{key}_opt_converged"] = metrics["opt_converged"] == 1.0
        checks.update(_golden_checks(self.name, inputs["seed"], counts))
        return Outcome(ops=sum(counts.values()), counts=counts, checks=checks)


# ----------------------------------------------------------------------
def _golden_checks(name: str, seed: int, counts: dict) -> dict:
    """At the default seed, every pinned count must repeat exactly."""
    if seed != 0:
        return {}
    return {
        f"golden_{key}": counts.get(key) == value
        for key, value in GOLDEN[name].items()
    }


def _root() -> str:
    """The checkout root: the parent of this file's directory."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


WORKLOADS = {
    cls.name: cls
    for cls in (FailoverW300, PacketCairn, FuzzZoo, FigsOpt)
}
