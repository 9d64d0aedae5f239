"""The repository benchmark: end-to-end and per-layer numbers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload failover-w300 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``failover-w300``,
``packet-cairn``, ``fuzz-zoo`` and ``figs-opt``.  ``all`` runs each of
them in a fresh process and prints one table.

``--trace 0`` measures with tracing off.  It sets up in five fresh
processes (``setup_s`` is their median), then runs the workload
``round(seconds / rep_s)`` times (at least once; ``rep_s`` is the
workload's nominal duration) and reports medians over the runs.  Times
are host seconds rescaled to one reference CPU speed by probes timed
next to the work (see ``reference.py``): the shared host's speed drifts
by half over minutes, and the rescaled time does not.  The host seconds
are printed beside them.  The benchmark runs with ``PYTHONHASHSEED=0``
(it re-executes itself to get it), so that hash layout does not vary
from one process to the next.

``--trace 1`` runs the workload untraced, with the span wrappers of
``tracing.py`` installed, and untraced again; it checks that all three
runs give the same exact counts and reports per-layer numbers, with the
tracing overhead against the mean of the two untraced runs.  These are
plain host seconds, without probes, so that no probe time falls in a
span.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check makes ``correct`` false; the exit code stays 0.  Without the
package sources (``src/repro``) next to this directory the benchmark
exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

NAMES = ("failover-w300", "packet-cairn", "fuzz-zoo", "figs-opt")

#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def _use_checkout_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no package sources at {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _setup_probe(name: str, seed: int) -> None:
    """Body of one set-up process: import, build the inputs, exit."""
    from workloads import WORKLOADS

    WORKLOADS[name]().setup(seed)
    os._exit(0)  # skip interpreter teardown: not part of set-up


def _measure_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """Host and scaled wall time of :data:`SETUP_PROBES` fresh set-up
    processes."""
    from reference import scaled

    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--setup-probe",
        "--workload",
        name,
        "--seed",
        str(seed),
    ]
    return [
        scaled(subprocess.run, command, check=True, cwd=ROOT)
        for _ in range(SETUP_PROBES)
    ]


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_outcome(outcome) -> None:
    for key, value in outcome.counts.items():
        print(f"  count  {key:<28} {value}")
    for key, ok in outcome.checks.items():
        print(f"  check  {key:<28} {'ok' if ok else 'FAILED'}")


def _timed_run(workload, inputs, run) -> tuple:
    """One timed run, then its outcome (finish() is not timed)."""
    start = time.perf_counter()
    state = run(inputs)
    elapsed = time.perf_counter() - start
    return workload.finish(inputs, state), elapsed


def _scaled_run(workload, inputs) -> tuple:
    """One timed run with probes, then its outcome and its clock."""
    from reference import ScaledClock

    clock = ScaledClock(workload.hooks)
    state = clock.time(workload.run, inputs)
    return workload.finish(inputs, state), clock


def _attempted_failed(outcome) -> tuple[int, int]:
    """fail_ratio's parts: the output checks, plus fuzz-zoo's cells."""
    cells = outcome.counts.get("cells", 0)
    attempted = len(outcome.checks) + cells
    failed = sum(1 for ok in outcome.checks.values() if not ok)
    failed += cells - outcome.counts.get("cells_passed", 0)
    return attempted, failed


# ----------------------------------------------------------------------
# tracing off: end-to-end metrics
# ----------------------------------------------------------------------
def repeats(workload, seconds: float) -> int:
    """Timed repeats in a run of ``seconds``: fixed by the arguments, so
    that two versions of the program are timed on the same work."""
    return max(1, round(seconds / workload.rep_s))


def measure(name: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    setup_times = _measure_setup(name, seed)
    inputs = workload.setup(seed)

    clocks = []
    first = None
    repeat_ok = True
    for _ in range(repeats(workload, seconds)):
        outcome, clock = _scaled_run(workload, inputs)
        clocks.append(clock)
        if first is None:
            first = outcome
        elif outcome.counts != first.counts or outcome.checks != first.checks:
            repeat_ok = False
    first.checks["repeats_identical"] = repeat_ok

    run_s = statistics.median(clock.scaled_s() for clock in clocks)
    metrics = {
        "setup_s": _metric(statistics.median(s for _, s in setup_times), "s"),
        "run_s": _metric(run_s, "s"),
        "ops_per_s": _metric(first.ops / run_s, "op/s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    attempted, failed = _attempted_failed(first)

    print(f"workload {name}  seed {seed}  ({workload.op} = 1 op)")
    print("  setup runs, host s (scaled s): "
          + " ".join(f"{h:.3f} ({s:.3f})" for h, s in setup_times))
    print("  timed runs, host s (scaled s): "
          + " ".join(f"{c.host_s():.3f} ({c.scaled_s():.3f})" for c in clocks)
          + f"; {sum(len(c.probes) for c in clocks)} probes")
    for key, entry in metrics.items():
        print(f"  metric {key:<14} {entry['value']:.6g} {entry['unit']}")
    print(f"  metric {'fail_ratio':<14} {failed / attempted:.6g} 1"
          f"  ({failed} of {attempted})")
    if first.cell_s:
        deciles = statistics.quantiles(first.cell_s, n=10)
        for label, value in (("cell_p50_ms", deciles[4]), ("cell_p90_ms", deciles[8])):
            print(f"  metric {label:<14} {1e3 * value:.6g} ms"
                  f"  ({len(first.cell_s)} cells)")
    _print_outcome(first)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# tracing on: per-layer metrics
# ----------------------------------------------------------------------
def measure_traced(name: str, seed: int) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    inputs = workload.setup(seed)

    tracer = Tracer()

    def traced_run(inputs):
        # finish() runs after uninstall: its oracle checks call traced
        # functions too.
        tracer.install()
        try:
            return tracer.wrap("benchmark.run", workload.run)(inputs)
        finally:
            tracer.uninstall()

    # Untraced, traced, untraced: the two bare runs bracket the traced
    # one, so warm-up in the first run does not read as negative
    # tracing overhead.
    first, first_s = _timed_run(workload, inputs, workload.run)
    traced, traced_s = _timed_run(workload, inputs, traced_run)
    last, last_s = _timed_run(workload, inputs, workload.run)
    bare_s = (first_s + last_s) / 2
    traced.checks["traced_counts_equal_untraced"] = (
        first.counts == traced.counts == last.counts
    )

    metrics = per_layer_metrics(tracer, traced, bare_s, traced_s)
    attempted, failed = _attempted_failed(traced)

    print(f"workload {name}  seed {seed}  traced")
    print(f"  untraced run_s {bare_s:.4f}  traced run_s {traced_s:.4f}  "
          f"overhead {traced_s - bare_s:+.4f} s")
    print(f"  {'span':<52}{'calls':>10}{'total_s':>11}{'self_s':>10}")
    for span in sorted(tracer.stats, key=lambda s: -tracer.stats[s][2]):
        calls, total, self_s = tracer.stats[span]
        if calls:
            print(f"  {span:<52}{calls:>10}{total:>11.4f}{self_s:>10.4f}")
    layers = tracer.layers()
    for layer in sorted(layers, key=lambda item: -layers[item]):
        share = layers[layer] / traced_s if traced_s else 0.0
        print(f"  layer {layer:<14} self_s {layers[layer]:9.4f}  {share:6.1%}")
    _print_outcome(traced)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def per_layer_metrics(tracer, outcome, bare_s: float, traced_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json.

    Self times are reported for the layers every workload runs (SPF,
    IH/AH allocation, the policy/controller layer) and for whichever
    layer dominates the workload; a layer only some workloads run is
    reported by its call counts, with its self time in the span table
    printed above the result.
    """
    layers = tracer.layers()
    dominant = max(
        (layer for layer in layers if layer != "benchmark"),
        key=layers.__getitem__,
    )
    counts = outcome.counts

    def calls(*spans):
        return _metric(sum(tracer.calls(span) for span in spans), "count")

    def count(key):
        return _metric(counts.get(key, 0), "count")

    def ratio(num, den):
        return _metric(num / den if den else 0.0, "1")

    receive = ("core.pda.PDARouter.receive", "core.mpda.MPDARouter.receive")
    lsu = counts.get("lsu_delivered", 0)
    thaws = tracer.calls("core.linkstate.FrozenTree.thaw")
    return {
        "traced_run_s": _metric(traced_s, "s"),
        "trace_overhead_s": _metric(traced_s - bare_s, "s"),
        "dominant_layer_self_s": _metric(layers[dominant], "s"),
        "dominant_layer_share": ratio(layers[dominant], traced_s),
        "spf_self_s": _metric(layers.get("spf", 0.0), "s"),
        "allocation_self_s": _metric(layers.get("allocation", 0.0), "s"),
        "control_self_s": _metric(layers.get("control", 0.0), "s"),
        "dijkstra_calls": calls("graph.shortest_paths.dijkstra"),
        "shared_spf_calls": calls("graph.shortest_paths.SharedSPF.distances_to"),
        "k_shortest_paths_calls": calls("graph.shortest_paths.k_shortest_paths"),
        "router_receive_calls": calls(*receive),
        "apply_incremental_calls": calls(
            "core.linkstate.TopologyTable.apply_incremental"
        ),
        "thaw_calls": _metric(thaws, "count"),
        "thaw_per_lsu": ratio(thaws, lsu),
        "driver_step_calls": calls("core.driver.ProtocolDriver.step"),
        "check_safety_calls": calls("core.mpda.check_safety"),
        "allocation_update_calls": calls("core.allocation.AllocationTable.update"),
        "allocation_update_many_calls": calls(
            "core.allocation.AllocationTable.update_many"
        ),
        "link_flows_calls": calls("fluid.evaluator.link_flows"),
        "node_flows_calls": calls("fluid.evaluator.node_flows"),
        "marginal_distances_calls": calls("gallager.marginals.marginal_distances"),
        "blocked_nodes_calls": calls("gallager.blocking.blocked_nodes"),
        "sim_node_receive_calls": calls("netsim.node.SimNode.receive"),
        "sim_link_send_calls": calls("netsim.link.SimLink.send"),
        "fuzz_cells": calls("fleet.worker.execute_cell"),
        "lsu_delivered": count("lsu_delivered"),
        "mtu_runs": count("mtu_runs"),
        "transport_data_sent": count("transport_data_sent"),
        "transport_retransmits": count("transport_retransmits"),
        "packets_delivered": count("packets_delivered"),
        "packets_delivered_per_injected": ratio(
            counts.get("packets_delivered", 0), counts.get("packets_injected", 0)
        ),
        "opt_iterations": _metric(
            sum(v for k, v in counts.items() if k.endswith("opt_iterations")),
            "count",
        ),
    }


# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process (peak RSS and set-up are per
    process); one summary table."""
    results = {}
    for name in NAMES:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ]
        done = subprocess.run(
            command, check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print()
    header = f"{'workload':<16}{'correct':>8}{'failed':>8}"
    names = list(next(iter(results.values()))["metrics"])
    print(header + "".join(f"{m:>16}" for m in names))
    for name, result in results.items():
        row = f"{name:<16}{str(result['correct']):>8}"
        row += f"{result['failed']:>4}/{result['attempted']:<3}"
        row += "".join(
            f"{result['metrics'][m]['value']:>16.6g}" for m in names
        )
        print(row)
    return results


def _fix_hash_seed() -> None:
    """Run again with string hashing fixed, if it is not.

    With a random hash seed each process lays out its string-keyed
    dicts and sets differently, which moves the same run's time by ~7%
    from one process to the next.  The benchmark replaces itself (no
    child process) with ``PYTHONHASHSEED=0``; its set-up processes
    inherit it.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.stdout.flush()
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_sources()
    _fix_hash_seed()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
    if args.workload == "all":
        results = run_all(args.seed, args.seconds, args.trace)
        print(json.dumps({"workloads": results}, sort_keys=True))
        return 0
    if args.trace:
        result = measure_traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
