"""Host time rescaled to one reference CPU speed.

The benchmark runs on a few cores of a shared host.  The speed the
process gets from them drifts by half or more over minutes, as other
tenants come and go, so two runs of the same code a few minutes apart
can differ by 50% in host time.  Medians within one run do not remove
that: the whole run is slow.

A *probe* is a fixed computation that does not use the package under
test: Dijkstra with ``heapq`` over a seeded random graph, the same kind
of interpreter work (dicts, tuples, floats, calls) as the workloads.
:class:`ScaledClock` runs a probe every :data:`PROBE_INTERVAL_S` of a
timed section, from hooks on a few functions the workload calls often,
and excludes the probes' own time from the section.  Each stretch of
work between two probes is scaled by ``REFERENCE_S / probe``, the mean
of the two probes around it: its host time at the speed the reference
host gives a probe when nothing else runs.  A change to the program
moves the scaled time as it moves host time; a change in the host's
load mostly cancels.

The probe does not touch the package, so no change to the program can
change ``REFERENCE_S`` or the probes.
"""

from __future__ import annotations

import functools
import gc
import heapq
import random
import statistics
import time

from tracing import patch, unpatch

#: Seconds one probe takes on an idle 2-vCPU 2.1 GHz Xeon VM.  A
#: constant: it only fixes the unit of scaled time.
REFERENCE_S = 0.0011

#: Host seconds of work between two probes in a timed section.
PROBE_INTERVAL_S = 0.25

#: Probes taken next to an untimed step (see :func:`scaled`).
PROBE_BURST = 25


def _reference_graph(nodes: int = 400, degree: int = 4, seed: int = 1) -> dict:
    rng = random.Random(seed)
    adj: dict[int, list] = {node: [] for node in range(nodes)}
    for head in range(nodes):
        for _ in range(degree):
            tail = rng.randrange(nodes)
            if tail != head:
                weight = rng.random()
                adj[head].append((tail, weight))
                adj[tail].append((head, weight))
    return adj


_GRAPH = _reference_graph()


def _shortest_paths(adj: dict) -> int:
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for tail, weight in adj[node]:
            candidate = d + weight
            if candidate < dist.get(tail, float("inf")):
                dist[tail] = candidate
                heapq.heappush(heap, (candidate, tail))
    return len(done)


def probe() -> float:
    """Host seconds of one probe.

    The probe runs once untimed, so that its data is in cache whatever
    the workload touched before, then once timed.  The collector is off
    meanwhile: the probe makes no cycles, and a collection started by
    its allocations would time the workload's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _shortest_paths(_GRAPH)
        start = time.perf_counter()
        _shortest_paths(_GRAPH)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale_factor(probes: list[float]) -> float:
    """``REFERENCE_S`` over the median of ``probes``."""
    return REFERENCE_S / statistics.median(probes)


class ScaledClock:
    """Times one section, with probes from hooks on ``spans``.

    ``spans`` names the hook functions in the form of
    ``tracing.SPANS``.  A hook runs a probe when the last one is at
    least :data:`PROBE_INTERVAL_S` old, then calls the original.
    """

    def __init__(self, spans: dict[str, tuple[str, ...]]) -> None:
        self.spans = spans
        #: Host seconds of work between probe i and probe i + 1.
        self.segments: list[float] = []
        #: Host seconds of each probe.
        self.probes: list[float] = []
        self._since = 0.0
        self._due = 0.0
        self._undo: list = []

    def _probe(self) -> None:
        now = time.perf_counter()
        if self.probes:
            self.segments.append(now - self._since)
        self.probes.append(probe())
        self._since = time.perf_counter()
        self._due = self._since + PROBE_INTERVAL_S

    def _wrap(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def hook(*args, **kwargs):
            if clock() >= self._due:
                self._probe()
            return fn(*args, **kwargs)

        return hook

    def time(self, fn, *args):
        """``fn(*args)``, timed with the hooks installed."""
        patch(self.spans, self._wrap, self._undo)
        try:
            self._probe()
            try:
                return fn(*args)
            finally:
                self._probe()
        finally:
            unpatch(self._undo)

    def host_s(self) -> float:
        """Host seconds of the section, probes excluded."""
        return sum(self.segments)

    def scaled_s(self) -> float:
        """Seconds of the section at the reference speed."""
        return sum(
            segment * 2.0 * REFERENCE_S / (before + after)
            for segment, before, after in zip(
                self.segments, self.probes, self.probes[1:]
            )
        )


def scaled(fn, *args, **kwargs) -> tuple[float, float]:
    """Host and scaled seconds of ``fn(*args, **kwargs)``, a step with
    no hooks.

    :data:`PROBE_BURST` probes run right before and right after it;
    their median gives the scale.
    """
    probes = [probe() for _ in range(PROBE_BURST)]
    start = time.perf_counter()
    fn(*args, **kwargs)
    host = time.perf_counter() - start
    probes += [probe() for _ in range(PROBE_BURST)]
    return host, host * scale_factor(probes)
