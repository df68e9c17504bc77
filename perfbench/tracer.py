"""Span tracing installed from the benchmark's own files.

The program has no tracing of its own yet, so the traced run wraps the
public functions each layer exposes (:data:`LAYER_HOOKS`) and records
one span per call: name, start, end, parent span and request id.  Spans
live in memory and are written out once, at the end of the run.  A
layer's self time is the time its spans cover minus the time their
child spans cover.

End-to-end numbers never come from a traced run: the wrappers are only
installed for the traced slices of a run and removed after each one.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Span record slots (a list per span keeps the hot path allocation-light).
NAME, START, END, PARENT, REQUEST, CHILD_NS, THREAD = range(7)

#: (module, owner attribute or None for a module function, function name,
#: span name).  Every name is a public function of the layer; the span
#: name's prefix (before the first dot) is the layer it is charged to.
LAYER_HOOKS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.core.query_processor", "QueryProcessor", "lower", "query_processor.lower"),
    ("repro.core.query_processor", "QueryProcessor", "execute_on_view",
     "query_processor.execute_on_view"),
    ("repro.engine.python_engine", "PythonEngine", "execute", "engine.execute"),
    ("repro.engine.vectorized", "VectorizedEngine", "execute", "engine.execute"),
    ("repro.engine.matrix_engine", "MatrixEngine", "execute", "engine.execute"),
    ("repro.core.system", "Moctopus", "run_maintenance", "node_migrator.run_maintenance"),
    ("repro.core.local_storage", "LocalGraphStorage", "to_csr", "storage.to_csr"),
    ("repro.core.hetero_storage", "HeterogeneousGraphStorage", "to_csr", "storage.to_csr"),
    ("repro.serve.epoch", "EpochManager", "pin", "epoch.pin"),
    ("repro.serve.epoch", "EpochManager", "current", "epoch.current"),
    ("repro.core.update_processor", "UpdateProcessor", "apply_batch",
     "update_processor.apply_batch"),
    ("repro.durability", "DurabilityController", "log_batch", "durability.log_batch"),
    ("repro.durability", "DurabilityController", "checkpoint_now",
     "durability.checkpoint_now"),
    ("repro.durability.wal", None, "encode_record", "durability.encode_record"),
    ("repro.net.server", None, "encode_frame", "net.encode"),
    ("repro.net.server", None, "decode_frame", "net.decode"),
    ("repro.net.protocol", None, "decode_frame", "net.decode"),
    ("repro.net.client", None, "encode_frame", "net.encode"),
    ("repro.serve.scheduler", "BatchScheduler", "submit", "scheduler.submit"),
    ("repro.serve.scheduler", "BatchScheduler", "submit_rpq", "scheduler.submit"),
)


class Tracer:
    """In-memory span recorder plus the counters taken at the same calls."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_request(self) -> None:
        """Start a request on this thread: its next root spans share a fresh id."""
        self._local.request = next(self._request_ids)

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            request = parent[REQUEST]
        else:
            parent = None
            request = getattr(self._local, "request", None)
            if request is None:
                request = next(self._request_ids)
        record = [name, time.perf_counter_ns(), 0, parent, request, 0,
                  threading.get_ident()]
        stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[END] = time.perf_counter_ns()
        self._stack().pop()
        parent = record[PARENT]
        if parent is not None:
            parent[CHILD_NS] += record[END] - record[START]
        self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._count_lock:
            self.samples[name].append(value)

    # -- installation --------------------------------------------------
    def wrap(
        self,
        owner,
        attribute: str,
        span_name: str,
        hooks: Optional[Tuple[Optional[Callable], Callable]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``hooks`` is ``(before, after)``: ``before(args)`` runs before
        the call and its value reaches ``after(tracer, args, result,
        record, token)``, which runs once the call returned, to take
        counts at the same boundary.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        before, after = hooks if hooks is not None else (None, None)
        tracer = self

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            record = tracer.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(record)
            if after is not None:
                after(tracer, args, result, record, token)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", attribute)
        traced.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attribute, traced)
        self._restore.append((owner, attribute, original))

    def install(self) -> "Tracer":
        """Wrap every hook in :data:`LAYER_HOOKS` (idempotent per tracer)."""
        if self._restore:
            return self
        for module_name, owner_name, attribute, span_name in LAYER_HOOKS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self.wrap(owner, attribute, span_name, _HOOKS.get(span_name))
        return self

    def uninstall(self) -> None:
        """Put every wrapped function back, newest wrapper first."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- reporting -----------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, in seconds."""
        totals: Dict[str, float] = defaultdict(float)
        for record in self.spans:
            own = record[END] - record[START] - record[CHILD_NS]
            totals[record[NAME]] += own / 1e9
        return dict(totals)

    def root_calls(self, name: str) -> int:
        """Spans named ``name`` whose parent is not also ``name``."""
        return sum(
            1
            for record in self.spans
            if record[NAME] == name
            and (record[PARENT] is None or record[PARENT][NAME] != name)
        )

    def summary(self) -> dict:
        """Self times, root-call counts, counters and samples (JSON-able)."""
        names = sorted({record[NAME] for record in self.spans})
        return {
            "self_s": self.self_seconds(),
            "calls": {name: self.root_calls(name) for name in names},
            "counts": dict(self.counts),
            "samples": {name: list(values) for name, values in self.samples.items()},
        }

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line (parents by span index)."""
        index = {id(record): position for position, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for position, record in enumerate(self.spans):
                parent = record[PARENT]
                handle.write(
                    json.dumps(
                        {
                            "id": position,
                            "name": record[NAME],
                            "start_ns": record[START],
                            "end_ns": record[END],
                            "parent": None if parent is None else index.get(id(parent)),
                            "request": record[REQUEST],
                            "thread": record[THREAD],
                        }
                    )
                )
                handle.write("\n")


# ----------------------------------------------------------------------
# Counts taken where the work happens
# ----------------------------------------------------------------------
def _engine_result(tracer: Tracer, args, result, record, token) -> None:
    if record[PARENT] is None or record[PARENT][NAME] != "engine.execute":
        tracer.count("engine.matches", result[0].total_matches)


def _execute_on_view_result(tracer: Tracer, args, result, record, token) -> None:
    # The scheduler resolves the batch's futures right after this call
    # returns, on this thread: their done callbacks read the start.
    tracer._local.last_execute_start = record[START]


def _maintenance_result(tracer: Tracer, args, result, record, token) -> None:
    tracer.count("node_migrator.moves", result[0])


def _published_before(args) -> int:
    return args[0].published_epochs


def _epoch_current(tracer: Tracer, args, result, record, token) -> None:
    tracer.count("epoch.publishes", args[0].published_epochs - token)


def _apply_result(tracer: Tracer, args, result, record, token) -> None:
    tracer.count("update_processor.ops", len(args[1]))


def _encode_record(tracer: Tracer, args, result, record, token) -> None:
    parent = record[PARENT]
    if parent is not None and parent[NAME] == "durability.log_batch":
        tracer.count("durability.wal_bytes", len(result))


def _checkpoint_result(tracer: Tracer, args, result, record, token) -> None:
    tracer.count("durability.checkpoints")


def _encode_result(tracer: Tracer, args, result, record, token) -> None:
    if args and args[0].get("type") == "result":
        tracer.count("net.answers")
        tracer.count("net.answer_bytes", len(result))


def _submit_result(tracer: Tracer, args, result, record, token) -> None:
    submitted = record[END]

    def done(gate) -> None:
        started = getattr(tracer._local, "last_execute_start", None)
        finished = time.perf_counter_ns()
        if started is not None and started >= submitted:
            tracer.sample("scheduler.wait_ms", (started - submitted) / 1e6)
        tracer.sample("scheduler.sojourn_ms", (finished - submitted) / 1e6)

    result.add_done_callback(done)


_HOOKS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "engine.execute": (None, _engine_result),
    "query_processor.execute_on_view": (None, _execute_on_view_result),
    "node_migrator.run_maintenance": (None, _maintenance_result),
    "epoch.current": (_published_before, _epoch_current),
    "update_processor.apply_batch": (None, _apply_result),
    "durability.encode_record": (None, _encode_record),
    "durability.checkpoint_now": (None, _checkpoint_result),
    "net.encode": (None, _encode_result),
    "scheduler.submit": (None, _submit_result),
}
