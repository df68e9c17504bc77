"""Shared pieces of the benchmark: scales, timing summaries, the report.

Every workload returns a :class:`Report`; ``run.py`` prints it.  The
metric names and units a report must carry are declared once, in
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import copy
import math
import random
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The skewed wiki-Talk stand-in (19,200 nodes, 90,693 edges).
GRAPH_TRACE = 8
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class CorrectnessError(AssertionError):
    """The program answered wrongly; the run must not report numbers."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CorrectnessError` unless ``condition`` holds."""
    if not condition:
        raise CorrectnessError(message)


@dataclass(frozen=True)
class Scale:
    """Input sizes of one run (``full`` is the benchmark; ``tiny`` smoke-tests it)."""

    graph_scale: float
    batch_sources: int
    kleene_sources: int
    reference_sources: int
    warmup_requests: int
    update_batch: int
    read_sources: int
    #: ``update_mix`` update batches per round (after its warm-up).
    round_batches: int
    setup_repeats: int


SCALES = {
    "full": Scale(
        graph_scale=1.0,
        batch_sources=128,
        kleene_sources=8,
        reference_sources=8,
        warmup_requests=32,
        update_batch=512,
        read_sources=32,
        round_batches=200,
        setup_repeats=SETUP_REPEATS,
    ),
    "tiny": Scale(
        graph_scale=0.05,
        batch_sources=16,
        kleene_sources=2,
        reference_sources=4,
        warmup_requests=8,
        update_batch=32,
        read_sources=8,
        round_batches=16,
        setup_repeats=2,
    ),
}


def load_graph(scale: Scale):
    """The benchmark graph (generation is part of every set-up)."""
    from repro.graph import load_dataset

    return load_dataset(GRAPH_TRACE, scale=scale.graph_scale)


def uniform_sources(rng: random.Random, nodes: Sequence[int], count: int) -> List[int]:
    """``count`` start nodes drawn uniformly, with replacement."""
    return [nodes[rng.randrange(len(nodes))] for _ in range(count)]


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


# ----------------------------------------------------------------------
# Clocks and host speed
# ----------------------------------------------------------------------
def cpu_clock(pid: int) -> Callable[[], float]:
    """CPU seconds used so far by process ``pid``, all its threads (Linux).

    This is the clock ``clock_getcpuclockid(pid)`` would return: CPU time
    the kernel charged to the process, excluding time the virtual CPU
    was taken away by the host (steal) or given to other processes.
    """
    clock_id = ((~pid) << 3) | 2  # CPUCLOCK_SCHED of the whole process
    return lambda: time.clock_gettime(clock_id)


#: CPU seconds the reference work takes at nominal host speed (its usual
#: time on the machine the README names).  Normalized timings read as
#: timings on a host of that speed.
REFERENCE_NOMINAL_S = 0.012
#: Least wall time between two reference samples taken at op boundaries.
REFERENCE_EVERY_S = 0.25
#: Reference samples on each side of a moment that set its speed.
REFERENCE_NEIGHBOURS = 2
#: Reference samples taken before and after each set-up.
REFERENCE_AROUND_SETUP = 2


class HostSpeed:
    """How fast the host runs through a run, from a fixed reference computation.

    Shared hosts change a core's speed by tens of percent from one
    second to the next, and CPU time follows.  This times a fixed mix
    of the kinds of work the program does (dict updates, deep copies of
    sets, numpy sorts and counts; none of the program's code) at op
    boundaries through the run.  :meth:`normalize` scales a CPU timing
    by nominal over measured reference cost around the moment it was
    taken, so it reads as on a host of nominal speed.  A slower program
    still reads slower: the reference does not run its code.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(2024)
        self._keys = rng.integers(0, 1 << 16, size=30_000, dtype=np.int64)
        self._order = rng.permutation(self._keys.size)
        self._key_list = self._keys[:15_000].tolist()
        self._rows = [set(rng.integers(0, 1 << 20, size=150).tolist()) for _ in range(40)]
        self.moments: List[float] = []
        self.costs: List[float] = []
        self._last = -math.inf
        self._work()  # first calls pay one-off costs; never time them

    def _work(self) -> int:
        table: Dict[int, int] = {}
        for key in self._key_list:
            table[key] = table.get(key, 0) + 1
        repeated = sorted(key for key, count in table.items() if count > 1)
        # Answer rows are sets of node ids; result caches deep-copy them.
        copied = copy.deepcopy(self._rows)
        gathered = self._keys[self._order]
        order = np.argsort(gathered, kind="stable")
        distinct = np.unique(gathered[order[: gathered.size // 2]])
        counts = np.bincount(gathered, minlength=1 << 16)
        return len(repeated) + len(copied) + int(distinct.size) + int(np.cumsum(counts)[-1])

    def sample(self, repeats: int = 1) -> None:
        """Time the reference work ``repeats`` times, now."""
        for _ in range(repeats):
            started = time.perf_counter()
            cpu = time.process_time()
            self._work()
            self.costs.append(time.process_time() - cpu)
            self._last = time.perf_counter()
            self.moments.append((started + self._last) / 2)

    def maybe_sample(self) -> None:
        """Sample if :data:`REFERENCE_EVERY_S` has passed since the last one."""
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()

    def factor(self, moment: float) -> float:
        """Nominal over measured reference cost around wall time ``moment``."""
        index = bisect_left(self.moments, moment)
        near = self.costs[max(index - REFERENCE_NEIGHBOURS, 0):index + REFERENCE_NEIGHBOURS]
        return REFERENCE_NOMINAL_S / statistics.fmean(near)

    def normalize(self, timings: Sequence[Tuple[float, float]]) -> List[float]:
        """``(moment, seconds)`` timings scaled to nominal host speed."""
        return [seconds * self.factor(moment) for moment, seconds in timings]


def pim_totals(stats_list) -> Dict[str, float]:
    """Simulated cost summed over ``ExecutionStats`` objects."""
    totals = {"pim.sim_ms": 0.0, "pim.ipc_bytes": 0, "pim.cpc_bytes": 0}
    for stats in stats_list:
        totals["pim.sim_ms"] += stats.total_time_ms
        totals["pim.ipc_bytes"] += stats.ipc.bytes_moved
        totals["pim.cpc_bytes"] += stats.cpc.bytes_moved
    return totals


@dataclass
class Report:
    """What one run measured."""

    workload: str
    #: Gated end-to-end metrics: name -> (value, sample count).
    end_to_end: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: The workload's own metric names (``batch_p50_ms``, ``read_p90_ms``,
    #: ...): name -> (value, unit, sample count).  Printed, not gated.
    named: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: Per-layer metrics of the traced slices: name -> value.
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Free-form lines printed above the result (findings, check notes).
    notes: List[str] = field(default_factory=list)

    def timing(self, name: str, values: Sequence[float], pct: Optional[float] = None,
               unit: str = "ms") -> float:
        """Record the median (or ``pct``-th percentile) of ``values`` under ``name``."""
        value = median(values) if pct is None else percentile(values, pct)
        self.named[name] = (value, unit, len(values))
        return value


# ----------------------------------------------------------------------
# Per-layer metrics from traced slices
# ----------------------------------------------------------------------
def layer_metrics(summary: dict, operations: int) -> Dict[str, float]:
    """Per-operation self times and counts from a tracer summary.

    ``*_s`` metrics are self seconds per workload operation (a batch, a
    request or an update batch); counts are per operation too, so runs
    that completed different numbers of operations compare directly.
    """
    ops = max(operations, 1)
    self_s = summary["self_s"]
    calls = summary["calls"]
    counts = summary["counts"]
    samples = summary["samples"]

    def layer_seconds(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names) / ops

    wal_ops = counts.get("update_processor.ops", 0.0)
    answers = counts.get("net.answers", 0.0)
    return {
        "query_processor.lower_s": layer_seconds("query_processor.lower"),
        "query_processor.cache_s": layer_seconds("query_processor.execute_on_view"),
        "engine.execute_s": layer_seconds("engine.execute"),
        "engine.calls": calls.get("engine.execute", 0) / ops,
        "engine.matches": counts.get("engine.matches", 0.0) / ops,
        "node_migrator.maintenance_s": layer_seconds("node_migrator.run_maintenance"),
        "node_migrator.moves": counts.get("node_migrator.moves", 0.0) / ops,
        "storage.to_csr_s": layer_seconds("storage.to_csr"),
        "storage.to_csr_calls": calls.get("storage.to_csr", 0) / ops,
        "epoch.publishes": counts.get("epoch.publishes", 0.0) / ops,
        "epoch.pin_s": layer_seconds("epoch.pin", "epoch.current"),
        "scheduler.wait_p50_ms": _median_or_zero(samples.get("scheduler.wait_ms", [])),
        "scheduler.sojourn_p50_ms": _median_or_zero(
            samples.get("scheduler.sojourn_ms", [])
        ),
        "net.encode_s": layer_seconds("net.encode"),
        "net.decode_s": layer_seconds("net.decode"),
        "net.bytes_per_answer": (
            counts.get("net.answer_bytes", 0.0) / answers if answers else 0.0
        ),
        "update_processor.apply_s": layer_seconds("update_processor.apply_batch"),
        "update_processor.ops": wal_ops / ops,
        "durability.wal_s": layer_seconds(
            "durability.log_batch", "durability.encode_record"
        ),
        "durability.wal_bytes_per_op": (
            counts.get("durability.wal_bytes", 0.0) / wal_ops if wal_ops else 0.0
        ),
        "durability.checkpoints": counts.get("durability.checkpoints", 0.0) / ops,
        "durability.checkpoint_s": layer_seconds("durability.checkpoint_now"),
        # Read from the server's STATS frame; only serve_net has a server.
        "scheduler.batches": 0.0,
        "scheduler.queries_per_batch": 0.0,
        "net.busy_replies": 0.0,
        "net.timeouts": 0.0,
    }


def _median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def cache_ratios(before, after) -> Dict[str, float]:
    """Plan/result cache hit ratios between two ``cache_stats`` snapshots."""
    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    out = {}
    for cache in ("plan", "result"):
        hits = delta(f"{cache}_cache_hits")
        attempts = hits + delta(f"{cache}_cache_misses")
        out[f"query_processor.{cache}_cache_hit_ratio"] = hits / attempts if attempts else 0.0
    return out


def partition_metrics(system) -> Dict[str, float]:
    """Placement quality of ``system`` (taken after warm-up)."""
    quality = system.partition_quality()
    return {
        "partition.host_nodes": system.host_node_count(),
        "partition.cut_fraction": quality.edge_cut_fraction,
    }


#: Slices of a traced run, alternately untraced and traced, so host
#: speed changes and workload drift hit both halves alike.
TRACE_SLICES = 6


def alternate(measure, start_tracing, stop_tracing, seconds: float):
    """Run ``measure(slice_seconds, traced)`` in alternating slices.

    Returns the untraced and the traced slices' results, in order.
    """
    plain, traced = [], []
    each = seconds / TRACE_SLICES
    for index in range(TRACE_SLICES):
        if index % 2 == 0:
            plain.append(measure(each, False))
            continue
        start_tracing()
        try:
            traced.append(measure(each, True))
        finally:
            stop_tracing()
    return plain, traced


def overhead_pct(untraced_rate: float, traced_rate: float) -> float:
    """Tracing overhead: how much slower the traced window ran, in percent."""
    if traced_rate <= 0:
        return 0.0
    return (untraced_rate / traced_rate - 1.0) * 100.0


#: Where traced runs write their spans (relative to the working directory).
TRACE_DIR = ".perfbench_out"


def write_spans(tracer, workload: str, seed: int, side: str = "main") -> str:
    """Write ``tracer``'s spans to ``TRACE_DIR`` and return the path."""
    import os

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}-{side}.jsonl")
    tracer.write_spans(path)
    return path
