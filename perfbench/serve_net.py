"""``serve_net``: online clients over TCP.

``Moctopus.listen()`` runs in a child process, so the load generator's
Python work does not share the server's interpreter lock.  One asyncio
thread drives 2 ``AsyncMoctopusClient`` connections in a closed loop,
each keeping 4 requests in flight.  Requests are single-source k-hop 2,
k-hop 3 and RPQ ``.{2}/.`` in a fixed 2:1:1 mix; sources are drawn
Zipf(s = 1.1) over all nodes, so about 70% of traffic lands on a
256-source hot set (the result cache holds 256 entries).  The graph is
read-only, so the epoch never changes.  It loads wire encode/decode,
scheduler queueing and coalescing, the plan and result caches and
small-batch engine overhead, and does no migration and no writes.

Run as ``python3 perfbench/serve_net.py --child --graph-scale S --seed N`` it is
the server process: it answers line commands on standard input
(``trace``, ``pause``, ``summary``, ``partition``, ``stop``) with one JSON line each.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import itertools
import json
import os
import random
import select
import subprocess
import sys
import time
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from typing import Dict, Iterator, List, Tuple

from common import (
    REFERENCE_AROUND_SETUP,
    REFERENCE_NOMINAL_S,
    HostSpeed,
    Report,
    Scale,
    alternate,
    cache_ratios,
    check,
    cpu_clock,
    layer_metrics,
    load_graph,
    median,
    overhead_pct,
    write_spans,
)
from tracer import Tracer

NAME = "serve_net"
CONNECTIONS = 2
IN_FLIGHT = 4
ZIPF_S = 1.1
EXPRESSION = ".{2}/."
#: The fixed 2:1:1 request mix, issued in this order.
MIX = (("khop", 2), ("khop", 3), ("khop", 2), ("rpq", EXPRESSION))
TAIL_PCT = 99
#: The closed loop runs in slices of this many seconds; between slices,
#: with nothing in flight, the host's speed is sampled.
SLICE_SECONDS = 2.0
REFERENCE_PER_SLICE = 2
#: Longest the parent waits for one reply line from the server process.
CHILD_REPLY_TIMEOUT = 60.0
#: Requests of the untimed wire-versus-scheduler comparison.
CHECK_REQUESTS = 48


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class ZipfRequests:
    """Seed-determined request stream: Zipf sources, fixed 2:1:1 mix."""

    def __init__(self, nodes, seed: int, stream: str) -> None:
        ranked = list(nodes)
        random.Random(f"{seed}-ranks").shuffle(ranked)
        self._ranked = ranked
        self._cumulative = list(accumulate(r ** -ZIPF_S for r in range(1, len(ranked) + 1)))
        self._rng = random.Random(f"{seed}-{stream}")
        self._mix = itertools.cycle(MIX)

    def __iter__(self) -> Iterator[Tuple[str, object, int]]:
        return self

    def __next__(self) -> Tuple[str, object, int]:
        kind, detail = next(self._mix)
        point = self._rng.random() * self._cumulative[-1]
        rank = min(bisect_right(self._cumulative, point), len(self._ranked) - 1)
        return kind, detail, self._ranked[rank]


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def child_main(graph_scale: float, seed: int) -> int:
    """Build the system, listen, then obey line commands until ``stop``."""
    from common import GRAPH_TRACE, partition_metrics
    from repro import Moctopus, MoctopusConfig
    from repro.graph import load_dataset

    graph = load_dataset(GRAPH_TRACE, scale=graph_scale)
    system = Moctopus.from_graph(graph, MoctopusConfig(engine="matrix"))
    server = system.listen()
    tracer = None
    _reply({"port": server.port})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                tracer = tracer or Tracer()
                tracer.install()
                _reply({"ok": True})
            elif command == "pause":
                tracer.uninstall()
                _reply({"ok": True})
            elif command == "summary":
                _reply({"summary": tracer.summary(),
                        "path": write_spans(tracer, NAME, seed, "server")})
            elif command == "partition":
                _reply(partition_metrics(system))
            elif command == "stop":
                break
    finally:
        server.close()
        if tracer is not None:
            tracer.uninstall()
    _reply({"stopped": True})
    return 0


class ServerProcess:
    """The parent's handle on one server child process."""

    def __init__(self, scale: Scale, seed: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child",
             "--graph-scale", repr(scale.graph_scale), "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = self._read()["port"]
        except BaseException:
            self.stop()
            raise

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_REPLY_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("server process did not answer")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Stop the child and wait for it; kill it if it does not exit."""
        if self.proc.poll() is None:
            try:
                self.command("stop")
                self.proc.wait(timeout=CHILD_REPLY_TIMEOUT)
            except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------
async def _send(client, kind: str, detail, source: int):
    if kind == "khop":
        return await client.khop(source, detail)
    return await client.rpq(source, detail)


async def _slice(clients, requests: Iterator, deadline: float, clock, done: list,
                 failures: Counter) -> None:
    """2 connections x 4 in flight until ``deadline``, then drain.

    Appends (moment, system CPU s, wall ms) per answered request to ``done``.
    """
    from repro.net.client import ServerBusy, ServerError

    async def worker(client) -> None:
        while time.perf_counter() < deadline:
            kind, detail, source = next(requests)
            started = time.perf_counter()
            cpu = clock()
            try:
                await _send(client, kind, detail, source)
            except ServerBusy:
                failures["busy"] += 1
                continue
            except ServerError as error:
                failures[error.code] += 1
                continue
            cpu = clock() - cpu
            ended = time.perf_counter()
            done.append(((started + ended) / 2, cpu, (ended - started) * 1e3))

    await asyncio.gather(*(worker(c) for c in clients for _ in range(IN_FLIGHT)))


async def _closed_loop(port: int, requests: Iterator, seconds: float, speed: HostSpeed,
                       clock):
    """The closed loop for ``seconds``, in slices with reference samples between.

    Returns per-request timings, per-slice (moment, system CPU s, wall s)
    timings, failures and the server's final STATS.
    """
    from repro.net.client import AsyncMoctopusClient

    clients = [await AsyncMoctopusClient.connect("127.0.0.1", port) for _ in range(CONNECTIONS)]
    done: list = []
    slices: list = []
    failures: Counter = Counter()
    end = time.perf_counter() + seconds
    try:
        while time.perf_counter() < end:
            # No request is in flight here, so the reference runs alone.
            speed.sample(REFERENCE_PER_SLICE)
            started = time.perf_counter()
            cpu = clock()
            await _slice(clients, requests, min(end, started + SLICE_SECONDS), clock,
                         done, failures)
            ended = time.perf_counter()
            slices.append(((started + ended) / 2, clock() - cpu, ended - started))
        speed.sample(REFERENCE_PER_SLICE)
        stats = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
    return done, slices, failures, stats


async def _sequential(port: int, queries) -> Tuple[List[set], dict]:
    """Send ``queries`` one at a time; their answers and the server's STATS."""
    from repro.net.client import AsyncMoctopusClient

    client = await AsyncMoctopusClient.connect("127.0.0.1", port)
    try:
        answers = [(await _send(client, *query))[0] for query in queries]
        stats = await client.stats()
    finally:
        await client.close()
    return answers, stats


async def _stats(port: int) -> dict:
    from repro.net.client import AsyncMoctopusClient

    client = await AsyncMoctopusClient.connect("127.0.0.1", port)
    try:
        return await client.stats()
    finally:
        await client.close()


def _served_pim(stats: dict) -> Dict[str, float]:
    return {
        "pim.sim_ms": stats["served_total_time_seconds"] * 1e3,
        "pim.ipc_bytes": stats["served_ipc_bytes"],
        "pim.cpc_bytes": stats["served_cpc_bytes"],
    }


def _setup(scale: Scale, seed: int, nodes):
    """Start a server process and warm it with sequential requests.

    Returns the server, the set-up's (moment, CPU s) timing: both
    processes' CPU time, the server's from its start, and the warm-up
    simulated counts.
    """
    started = time.perf_counter()
    cpu = time.process_time()
    server = ServerProcess(scale, seed)
    try:
        warmup = ZipfRequests(nodes, seed, "warmup")
        queries = [next(warmup) for _ in range(scale.warmup_requests)]
        _, stats = asyncio.run(_sequential(server.port, queries))
        cpu = time.process_time() - cpu + cpu_clock(server.proc.pid)()
    except BaseException:
        server.stop()
        raise
    return server, ((started + time.perf_counter()) / 2, cpu), _served_pim(stats)


def _direct_answers(scale: Scale, queries) -> List[set]:
    """The same queries through an in-process ``BatchScheduler``."""
    from repro import Moctopus, MoctopusConfig

    system = Moctopus.from_graph(load_graph(scale), MoctopusConfig(engine="matrix"))
    with system.serve() as scheduler:
        futures = [
            scheduler.submit(source, detail) if kind == "khop"
            else scheduler.submit_rpq(source, detail)
            for kind, detail, source in queries
        ]
        return [future.result(timeout=CHILD_REPLY_TIMEOUT) for future in futures]


def _merge(first: dict, second: dict) -> dict:
    merged = {"self_s": Counter(), "calls": Counter(), "counts": Counter(), "samples": {}}
    for summary in (first, second):
        for key in ("self_s", "calls", "counts"):
            merged[key].update(summary[key])
        for name, values in summary["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
    return merged


def _caches(stats: dict) -> dict:
    prefix = "cache_"
    return {name[len(prefix):]: value for name, value in stats.items() if name.startswith(prefix)}


def _rate(speed: HostSpeed, slices, answered: int, wall: bool = False) -> float:
    """Answered requests per normalized CPU (or ``wall``) second of ``slices``."""
    busy = sum(speed.normalize([(m, w if wall else c) for m, c, w in slices]))
    return answered / busy if busy else 0.0


def run(seed: int, seconds: float, trace: bool, scale: Scale) -> Report:
    report = Report(NAME)
    speed = HostSpeed()
    nodes = list(load_graph(scale).nodes())
    setups: List[Tuple[float, float]] = []
    pim = None
    server = None
    try:
        for _ in range(scale.setup_repeats):
            if server is not None:
                server.stop()
                server = None
            gc.collect()
            speed.sample(REFERENCE_AROUND_SETUP)
            server, timing, warm_pim = _setup(scale, seed, nodes)
            setups.append(timing)
            check(
                pim is None or warm_pim == pim,
                f"simulated counts differ between identical set-ups: {pim} vs {warm_pim}",
            )
            pim = warm_pim
        speed.sample(REFERENCE_AROUND_SETUP)
        layers = server.command("partition") if trace else {}
        server_cpu = cpu_clock(server.proc.pid)

        def clock() -> float:
            """CPU seconds of both processes: the server and this client."""
            return server_cpu() + time.process_time()

        requests = ZipfRequests(nodes, seed, "run")
        if trace:
            tracer = Tracer()

            def measure(each: float, on: bool):
                before = asyncio.run(_stats(server.port)) if on else None
                return (*asyncio.run(_closed_loop(server.port, requests, each, speed, clock)),
                        before)

            def start_tracing() -> None:
                server.command("trace")
                tracer.install()

            def stop_tracing() -> None:
                tracer.uninstall()
                server.command("pause")

            plain, traced = alternate(measure, start_tracing, stop_tracing, seconds)
            done = [request for part in plain for request in part[0]]
            slices = [timing for part in plain for timing in part[1]]
            failures = sum((part[2] for part in plain), Counter())
            traced_done = [request for part in traced for request in part[0]]
            ops = len(traced_done) + sum(sum(part[2].values()) for part in traced)
            served = Counter()
            for *_, after, before in traced:
                for name in after:
                    if isinstance(after[name], (int, float)) and name in before:
                        served[name] += after[name] - before[name]
            child = server.command("summary")
            layers.update(layer_metrics(_merge(tracer.summary(), child["summary"]), ops))
            layers.update(cache_ratios({}, _caches(served)))
            batches = served["scheduler_batches_executed"]
            layers["scheduler.batches"] = batches / max(ops, 1)
            layers["scheduler.queries_per_batch"] = (
                served["scheduler_queries_served"] / batches if batches else 0.0
            )
            layers["net.busy_replies"] = served["admission_rejections"] / max(ops, 1)
            layers["net.timeouts"] = served["queries_timed_out"] / max(ops, 1)
            layers.update(pim)
            # Per wall second: the slowdown a client sees.
            layers["trace.overhead_pct"] = overhead_pct(
                _rate(speed, slices, len(done), wall=True),
                _rate(speed, [t for part in traced for t in part[1]], len(traced_done),
                      wall=True),
            )
            report.per_layer = layers
            report.notes.append(
                f"spans written to {write_spans(tracer, NAME, seed, 'client')} "
                f"and {child['path']}"
            )
        else:
            done, slices, failures, _ = asyncio.run(
                _closed_loop(server.port, requests, seconds, speed, clock)
            )

        sample = ZipfRequests(nodes, seed, "check")
        queries = [next(sample) for _ in range(CHECK_REQUESTS)]
        wire, final_stats = asyncio.run(_sequential(server.port, queries))
    finally:
        if server is not None:
            server.stop()
    direct = _direct_answers(scale, queries)
    mismatched = [q for q, a, b in zip(queries, wire, direct) if a != b]
    check(not mismatched, f"wire answers differ from direct BatchScheduler answers: {mismatched[:3]}")
    report.notes.append(
        f"correctness: {len(queries)} wire answers equal direct BatchScheduler answers; "
        f"warm-up simulated counts identical over {len(setups)} set-ups"
    )
    report.notes.append(
        "server counters: "
        f"busy={final_stats['admission_rejections']} "
        f"timeouts={final_stats['queries_timed_out']} "
        f"failed={final_stats['queries_failed']}"
    )

    failed = sum(failures.values())
    attempted = len(done) + failed
    wall = [wall_ms for _, _, wall_ms in done]
    cpu = [s * 1e3 for s in speed.normalize([(m, c) for m, c, _ in done])]
    rate = _rate(speed, slices, len(done))
    report.attempted = attempted
    report.failed = failed
    setup_s = report.timing("setup_s", speed.normalize(setups), unit="s")
    report.named["requests_per_s"] = (
        len(done) / (seconds / 2 if trace else seconds), "1/s", len(done)
    )
    report.timing("request_p50_ms", wall)
    report.timing(f"request_p{TAIL_PCT}_ms", wall, TAIL_PCT)
    report.named["requests_per_cpu_s"] = (rate, "1/s", len(done))
    p50 = report.timing("request_p50_cpu_ms", cpu)
    tail = report.timing(f"request_p{TAIL_PCT}_cpu_ms", cpu, TAIL_PCT)
    report.named["host_speed"] = (
        REFERENCE_NOMINAL_S / median(speed.costs), "ratio", len(speed.costs)
    )
    report.named["error_rate"] = (failed / attempted if attempted else 0.0, "ratio", attempted)
    report.end_to_end = {
        "setup_s": (setup_s, len(setups)),
        "throughput_per_cpu_s": (rate, len(done)),
        "query_p50_cpu_ms": (p50, len(done)),
        "query_tail_cpu_ms": (tail, len(done)),
    }
    return report


def _parse_child_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="serve_net server process")
    parser.add_argument("--child", action="store_true", required=True)
    parser.add_argument("--graph-scale", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    return parser.parse_args(argv)


if __name__ == "__main__":
    # This file's directory is already on the path; add the program's.
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    _args = _parse_child_args()
    sys.exit(child_main(_args.graph_scale, _args.seed))
