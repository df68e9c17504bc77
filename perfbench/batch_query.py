"""``batch_query``: the paper's own workload.

One caller runs a closed loop of live ``Moctopus.execute`` batches that
cycle through k-hop k = 2, 3, 4 (128 fresh uniform sources each),
the fixed-length RPQ ``.{2}/.`` (128 sources) and the Kleene closure
``.+`` (8 sources), with post-query migration on.  It loads the engine
kernels, result materialization, the DFA fixpoint path and migration,
and bypasses the caches, the scheduler, the wire and writes: a change
to a serving layer should read "no change" here.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Iterator, List, Tuple

from common import (
    REFERENCE_AROUND_SETUP,
    REFERENCE_NOMINAL_S,
    HostSpeed,
    Report,
    Scale,
    alternate,
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

#: The batch shapes, in cycle order: (kind, hops or expression).
SHAPES = (("khop", 2), ("khop", 3), ("khop", 4), ("rpq", ".{2}/."), ("rpq", ".+"))
#: Tail percentile.  Each shape fills a fifth of the latency
#: distribution, so p20, p40, p60 and p80 fall on the gaps between
#: shapes and jump from run to run; p70 is the middle of the
#: second-slowest shape.  A 30-second run completes about 60 batches,
#: so p90 would have only six samples beyond it.
TAIL_PCT = 70
NAME = "batch_query"
WARMUP_BATCHES = 3


def _query(shape, sources):
    from repro.rpq import KHopQuery, RPQuery

    kind, detail = shape
    if kind == "khop":
        return KHopQuery(hops=detail, sources=sources)
    return RPQuery(detail, sources)


def _batches(rng: random.Random, nodes, scale: Scale) -> Iterator:
    """The endless, seed-determined batch sequence."""
    while True:
        for shape in SHAPES:
            count = scale.kleene_sources if shape[1] == ".+" else scale.batch_sources
            yield _query(shape, uniform_sources(rng, nodes, count))


def _setup(scale: Scale, seed: int):
    """Generate, bulk-load and warm up; returns the CPU time it took too.

    The warm-up runs the three k-hop shapes once: the first batches
    migrate thousands of nodes, later ones a few dozen.
    """
    from repro import Moctopus, MoctopusConfig

    started = time.perf_counter()
    cpu = time.process_time()
    graph = load_graph(scale)
    system = Moctopus.from_graph(graph, MoctopusConfig(engine="matrix"))
    nodes = list(graph.nodes())
    warm_stats = []
    warmup = _batches(random.Random(f"{seed}-warmup"), nodes, scale)
    for _ in range(WARMUP_BATCHES):
        _, stats = system.execute(next(warmup))
        warm_stats += [stats, system.last_maintenance_stats]
    cpu = time.process_time() - cpu
    return system, nodes, ((started + time.perf_counter()) / 2, cpu), pim_totals(warm_stats)


def _window(system, batches: Iterator, seconds: float, speed: HostSpeed, tracer=None):
    """Closed loop for ``seconds``; per batch (moment, CPU s, wall ms, sources)."""
    done: List[Tuple[float, float, float, int]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        query = next(batches)
        speed.maybe_sample()
        if tracer is not None:
            tracer.begin_request()
        started = time.perf_counter()
        cpu = time.process_time()
        system.execute(query)
        cpu = time.process_time() - cpu
        ended = time.perf_counter()
        done.append(((started + ended) / 2, cpu, (ended - started) * 1e3, len(query.sources)))
    speed.sample()
    return done


def _stats_fingerprint(stats) -> Tuple:
    """Everything a simulated execution reports, for exact comparison."""
    return (
        tuple(sorted(stats.breakdown().items())),
        stats.cpc.bytes_moved,
        stats.cpc.transfers,
        stats.ipc.bytes_moved,
        stats.ipc.transfers,
        tuple(stats.phase_pim_times),
        tuple(sorted(stats.counters.items())),
    )


def _check_against_reference(system, nodes, scale: Scale, seed: int) -> Tuple[int, int]:
    """Answers and simulated stats equal the ``python`` engine's on a sample."""
    rng = random.Random(f"{seed}-check")
    checked = 0
    for shape in SHAPES:
        count = max(1, scale.kleene_sources // 4) if shape[1] == ".+" else scale.reference_sources
        query = _query(shape, uniform_sources(rng, nodes, count))
        fast, fast_stats = system.execute(query, auto_migrate=False)
        system.use_engine("python")
        try:
            reference, reference_stats = system.execute(query, auto_migrate=False)
        finally:
            system.use_engine("matrix")
        check(fast == reference, f"{shape}: matrix answers differ from the python reference")
        check(
            _stats_fingerprint(fast_stats) == _stats_fingerprint(reference_stats),
            f"{shape}: simulated stats differ from the python reference",
        )
        checked += len(query.sources)
    return checked, len(SHAPES)


def _rate(speed: HostSpeed, done) -> float:
    """Sources per normalized CPU second over ``done`` batches."""
    busy = sum(speed.normalize([(moment, cpu) for moment, cpu, _, _ in done]))
    return sum(count for *_, count in done) / busy if busy else 0.0


def run(seed: int, seconds: float, trace: bool, scale: Scale) -> Report:
    report = Report(NAME)
    speed = HostSpeed()
    setups = []
    pim = None
    system = nodes = None
    for _ in range(scale.setup_repeats):
        system = nodes = None
        gc.collect()
        speed.sample(REFERENCE_AROUND_SETUP)
        system, nodes, timing, warm_pim = _setup(scale, seed)
        setups.append(timing)
        check(
            pim is None or warm_pim == pim,
            f"simulated counts differ between identical set-ups: {pim} vs {warm_pim}",
        )
        pim = warm_pim
    speed.sample(REFERENCE_AROUND_SETUP)
    layers = partition_metrics(system) if trace else {}

    batches = _batches(random.Random(f"{seed}-run"), nodes, scale)
    if trace:
        tracer = Tracer()
        cache_before = dict(system.cache_stats.counters)
        plain, traced = alternate(
            lambda each, on: _window(system, batches, each, speed, tracer if on else None),
            tracer.install, tracer.uninstall, seconds,
        )
        done = [batch for part in plain for batch in part]
        traced_done = [batch for part in traced for batch in part]
        layers.update(layer_metrics(tracer.summary(), len(traced_done)))
        layers.update(cache_ratios(cache_before, system.cache_stats.counters))
        layers.update(pim)
        layers["trace.overhead_pct"] = overhead_pct(
            _rate(speed, done), _rate(speed, traced_done)
        )
        report.per_layer = layers
        report.notes.append(f"spans written to {write_spans(tracer, NAME, seed)}")
    else:
        done = _window(system, batches, seconds, speed)

    checked, shapes = _check_against_reference(system, nodes, scale, seed)
    report.notes.append(
        f"correctness: {checked} sources over {shapes} shapes equal the python "
        "reference (answers and simulated stats); warm-up simulated counts "
        f"identical over {len(setups)} set-ups"
    )

    wall = [wall_ms for _, _, wall_ms, _ in done]
    cpu = [seconds * 1e3 for seconds in speed.normalize([(m, c) for m, c, _, _ in done])]
    sources = sum(count for *_, count in done)
    rate = _rate(speed, done)
    report.attempted = len(done)
    report.failed = 0
    setup_s = report.timing("setup_s", speed.normalize(setups), unit="s")
    report.named["sources_per_s"] = (sources / sum(wall) * 1e3, "1/s", len(wall))
    report.timing("batch_p50_ms", wall)
    report.timing(f"batch_p{TAIL_PCT}_ms", wall, TAIL_PCT)
    # The issue's name; a run has fewer than ten batches beyond p90.
    report.timing("batch_p90_ms", wall, 90)
    report.named["sources_per_cpu_s"] = (rate, "1/s", len(cpu))
    p50 = report.timing("batch_p50_cpu_ms", cpu)
    tail = report.timing(f"batch_p{TAIL_PCT}_cpu_ms", cpu, TAIL_PCT)
    report.named["host_speed"] = (
        REFERENCE_NOMINAL_S / median(speed.costs), "ratio", len(speed.costs)
    )
    report.named["error_rate"] = (0.0, "ratio", len(done))
    report.end_to_end = {
        "setup_s": (setup_s, len(setups)),
        "throughput_per_cpu_s": (rate, len(cpu)),
        "query_p50_cpu_ms": (p50, len(cpu)),
        "query_tail_cpu_ms": (tail, len(cpu)),
    }
    return report
