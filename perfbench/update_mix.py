"""``update_mix``: one durable writer with reads after its writes.

The writer logs to a write-ahead log in a scratch directory under the
working directory, with the default flush policy (``wal_fsync=False``,
a checkpoint every 64 batches), and applies 512-op mixed insert/delete
batches from ``UpdateStream.mixed_batch``.  After every 8th batch it
reads its writes back: a pinned-session (``system.begin()``) 2-hop read
of 32 fresh sources.  The run is made of fixed-work rounds, each on a
freshly set-up system: 200 update batches and their 25 reads.  At the
end it closes the last round's system and times ``Moctopus.recover`` on
its directory.  Every write makes a new epoch,
so each read pays a snapshot splice, an epoch publish and a result-cache
miss plus fill: it uses the caches and the engine the opposite way from
``serve_net``, and also loads the WAL and the periodic checkpoints.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple

from common import (
    REFERENCE_AROUND_SETUP,
    REFERENCE_NOMINAL_S,
    HostSpeed,
    Report,
    Scale,
    cache_ratios,
    check,
    layer_metrics,
    load_graph,
    median,
    overhead_pct,
    partition_metrics,
    pim_totals,
    uniform_sources,
    write_spans,
)
from tracer import Tracer

NAME = "update_mix"
READ_EVERY = 8
READ_HOPS = 2
UPDATE_TAIL_PCT = 99
READ_TAIL_PCT = 90
#: Tail percentile of the gated read metric.  One read in eight overlaps
#: a checkpoint (every 8th read lands on the 64th batch) and takes 2-6x
#: longer, so p90 sits on the edge of that group and swings with its
#: fastest member; p80 is the tail of the other reads.
GATED_READ_TAIL_PCT = 80
RECOVER_REPEATS = 3
#: Rounds in a run at least; a traced run alternates plain and traced ones.
MIN_ROUNDS = 3
#: Scratch directories of durable systems (relative to the working directory).
SCRATCH_DIR = ".perfbench_tmp"


class _StreamGraph:
    """The graph as ``UpdateStream`` samples it, kept in step with the writes.

    The stream re-lists every node and edge of its graph for each batch,
    which on the live mirror costs several times the update itself.
    This view holds the same nodes and edges in lists it patches after
    each applied batch, so deletions always remove edges that exist and
    insertions add edges that do not, and the graph keeps its size.
    """

    def __init__(self, graph) -> None:
        self._nodes = list(graph.nodes())
        self._known = set(self._nodes)
        self._edges = list(graph.edges())
        self._position = {edge: index for index, edge in enumerate(self._edges)}

    def nodes(self) -> List[int]:
        return self._nodes

    def edges(self) -> List[Tuple[int, int]]:
        return self._edges

    def has_edge(self, src: int, dst: int) -> bool:
        return (src, dst) in self._position

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def apply(self, ops) -> None:
        from repro.graph.stream import UpdateKind

        for op in ops:
            edge = (op.src, op.dst)
            if op.kind is UpdateKind.INSERT:
                if edge in self._position:
                    continue
                for node in edge:
                    if node not in self._known:
                        self._known.add(node)
                        self._nodes.append(node)
                self._position[edge] = len(self._edges)
                self._edges.append(edge)
            elif edge in self._position:
                index = self._position.pop(edge)
                last = self._edges.pop()
                if index < len(self._edges):
                    self._edges[index] = last
                    self._position[last] = index


class _Writer:
    """The seed-determined update/read sequence against one system."""

    def __init__(self, system, graph: _StreamGraph, nodes: List[int], seed: int,
                 stream: str, scale: Scale):
        from repro.graph.stream import UpdateStream

        self.system = system
        self.graph = graph
        self._updates = UpdateStream(graph, seed=_stream_seed(seed, stream))
        self._rng = random.Random(f"{seed}-{stream}-reads")
        self._nodes = nodes
        self._scale = scale

    def next_batch(self):
        batch = self._updates.mixed_batch(self._scale.update_batch)
        self.graph.apply(batch)
        return batch

    def read_sources(self) -> List[int]:
        return uniform_sources(self._rng, self._nodes, self._scale.read_sources)

    def read(self, sources):
        with self.system.begin() as session:
            return session.batch_khop(sources, READ_HOPS)


def _stream_seed(seed: int, stream: str) -> int:
    """A stable integer seed per (seed, stream) pair."""
    return random.Random(f"{seed}-{stream}").getrandbits(63)


def _setup(scale: Scale, seed: int, directory: str):
    """Generate, bulk-load durably and warm up (8 batches + one read)."""
    from repro import Moctopus, MoctopusConfig

    started = time.perf_counter()
    cpu = time.process_time()
    graph = load_graph(scale)
    system = Moctopus.from_graph(
        graph, MoctopusConfig(engine="matrix", durability_dir=directory)
    )
    nodes = list(graph.nodes())
    stream_graph = _StreamGraph(graph)
    warmup = _Writer(system, stream_graph, nodes, seed, "warmup", scale)
    warm_stats = [system.apply_updates(warmup.next_batch()) for _ in range(READ_EVERY)]
    warm_stats.append(warmup.read(warmup.read_sources())[1])
    cpu = time.process_time() - cpu
    timing = ((started + time.perf_counter()) / 2, cpu)
    return system, stream_graph, nodes, timing, pim_totals(warm_stats)


def _timed(action, speed: HostSpeed, tracer, out: list):
    """Run ``action()``; append (moment, CPU s, wall ms) to ``out``."""
    speed.maybe_sample()
    if tracer is not None:
        tracer.begin_request()
    started = time.perf_counter()
    cpu = time.process_time()
    action()
    cpu = time.process_time() - cpu
    ended = time.perf_counter()
    out.append(((started + ended) / 2, cpu, (ended - started) * 1e3))


def _window(writer: _Writer, batches: int, speed: HostSpeed, tracer=None):
    """Apply ``batches`` update batches, reading after every 8th.

    Returns the update and read timings and the ops applied.
    """
    updates: list = []
    reads: list = []
    ops = 0
    for number in range(1, batches + 1):
        batch = writer.next_batch()
        _timed(lambda: writer.system.apply_updates(batch), speed, tracer, updates)
        ops += len(batch)
        if number % READ_EVERY == 0:
            sources = writer.read_sources()
            _timed(lambda: writer.read(sources), speed, tracer, reads)
    return updates, reads, ops


@dataclass
class _Round:
    """What one round measured."""

    setup: Tuple[float, float]
    updates: list
    reads: list
    ops: int
    traced: bool


def _rate(speed: HostSpeed, rounds: List[_Round]) -> float:
    """Update ops per normalized CPU second inside ``apply_updates``."""
    timings = [(moment, cpu) for r in rounds for moment, cpu, _ in r.updates]
    busy = sum(speed.normalize(timings))
    return sum(r.ops for r in rounds) / busy if busy else 0.0


def _fits(rounds_started: List[float], started: float, seconds: float) -> bool:
    """Whether another round, as long as the mean one so far, ends in time."""
    now = time.perf_counter()
    mean_round = (now - rounds_started[0]) / len(rounds_started)
    return now + mean_round - started <= seconds


def run(seed: int, seconds: float, trace: bool, scale: Scale) -> Report:
    from repro import Moctopus

    report = Report(NAME)
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    speed = HostSpeed()
    tracer = Tracer() if trace else None
    rounds: List[_Round] = []
    pim = None
    system = None
    directory = None
    layers: dict = {}
    cache_delta: Counter = Counter()
    rounds_started: List[float] = []
    started = time.perf_counter()
    try:
        # Fixed-work rounds, each on a fresh system, until the time is up:
        # the graph gains nodes as the writer runs, so a round's cost
        # does not depend on how many batches came before it.
        while len(rounds) < MIN_ROUNDS or _fits(rounds_started, started, seconds):
            if system is not None:
                system.close()
                shutil.rmtree(directory, ignore_errors=True)
                system = None
            gc.collect()
            rounds_started.append(time.perf_counter())
            directory = tempfile.mkdtemp(prefix=f"{NAME}-", dir=SCRATCH_DIR)
            speed.sample(REFERENCE_AROUND_SETUP)
            system, stream_graph, nodes, setup, warm_pim = _setup(scale, seed, directory)
            speed.sample(REFERENCE_AROUND_SETUP)
            check(
                pim is None or warm_pim == pim,
                f"simulated counts differ between identical set-ups: {pim} vs {warm_pim}",
            )
            pim = warm_pim
            # In a traced run, every second round is traced.
            traced = trace and len(rounds) % 2 == 1
            if trace and not layers:
                layers = partition_metrics(system)
            writer = _Writer(system, stream_graph, nodes, seed, f"run-{len(rounds)}", scale)
            if traced:
                before = dict(system.cache_stats.counters)
                tracer.install()
            try:
                updates, reads, ops = _window(
                    writer, scale.round_batches, speed, tracer if traced else None
                )
            finally:
                if traced:
                    tracer.uninstall()
                    for name, value in system.cache_stats.counters.items():
                        cache_delta[name] += value - before.get(name, 0)
            rounds.append(_Round(setup, updates, reads, ops, traced))
        speed.sample()

        probe = writer.read_sources()
        live_answers, _ = writer.read(probe)
        live_edges = system.num_edges
        check(
            stream_graph.num_edges == live_edges,
            f"the system holds {live_edges} edges, its writes imply {stream_graph.num_edges}",
        )
        system.close()
        system = None
        recover_times = []
        for _ in range(RECOVER_REPEATS):
            recover_started = time.perf_counter()
            recovered = Moctopus.recover(directory, engine="matrix")
            recover_times.append(time.perf_counter() - recover_started)
            try:
                check(
                    recovered.num_edges == live_edges,
                    f"recovered {recovered.num_edges} edges, the live system had {live_edges}",
                )
                with recovered.begin() as session:
                    answers, _ = session.batch_khop(probe, READ_HOPS)
                check(answers == live_answers, "recovered answers differ from the live system's")
            finally:
                recovered.close()
    finally:
        if system is not None:
            system.close()
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
    report.notes.append(
        f"correctness: {RECOVER_REPEATS} recoveries match the live system on "
        f"{live_edges} edges and a {len(probe)}-source probe; warm-up simulated "
        f"counts identical over {len(rounds)} set-ups"
    )

    plain = [r for r in rounds if not r.traced]
    if trace:
        traced_rounds = [r for r in rounds if r.traced]
        traced_updates = sum(len(r.updates) for r in traced_rounds)
        layers.update(layer_metrics(tracer.summary(), traced_updates))
        layers.update(cache_ratios({}, cache_delta))
        layers.update(pim)
        layers["trace.overhead_pct"] = overhead_pct(
            _rate(speed, plain), _rate(speed, traced_rounds)
        )
        report.per_layer = layers
        report.notes.append(f"spans written to {write_spans(tracer, NAME, seed)}")

    updates = [timing for r in plain for timing in r.updates]
    reads = [timing for r in plain for timing in r.reads]
    update_wall = [wall_ms for _, _, wall_ms in updates]
    read_wall = [wall_ms for _, _, wall_ms in reads]
    read_cpu = [s * 1e3 for s in speed.normalize([(m, c) for m, c, _ in reads])]
    ops = sum(r.ops for r in plain)
    rate = _rate(speed, plain)
    report.attempted = len(updates) + len(reads)
    report.failed = 0
    setup_s = report.timing("setup_s", speed.normalize([r.setup for r in rounds]), unit="s")
    report.named["update_ops_per_s"] = (ops / sum(update_wall) * 1e3, "1/s", len(updates))
    report.timing("update_p50_ms", update_wall)
    report.timing(f"update_p{UPDATE_TAIL_PCT}_ms", update_wall, UPDATE_TAIL_PCT)
    report.timing("read_p50_ms", read_wall)
    report.timing(f"read_p{READ_TAIL_PCT}_ms", read_wall, READ_TAIL_PCT)
    report.named["update_ops_per_cpu_s"] = (rate, "1/s", len(updates))
    read_p50 = report.timing("read_p50_cpu_ms", read_cpu)
    report.timing(f"read_p{READ_TAIL_PCT}_cpu_ms", read_cpu, READ_TAIL_PCT)
    read_tail = report.timing(
        f"read_p{GATED_READ_TAIL_PCT}_cpu_ms", read_cpu, GATED_READ_TAIL_PCT
    )
    report.named["recover_s"] = (median(recover_times), "s", len(recover_times))
    report.named["host_speed"] = (
        REFERENCE_NOMINAL_S / median(speed.costs), "ratio", len(speed.costs)
    )
    report.named["error_rate"] = (0.0, "ratio", report.attempted)
    report.end_to_end = {
        "setup_s": (setup_s, len(rounds)),
        "throughput_per_cpu_s": (rate, len(updates)),
        "query_p50_cpu_ms": (read_p50, len(reads)),
        "query_tail_cpu_ms": (read_tail, len(reads)),
    }
    return report
