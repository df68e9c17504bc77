"""Smoke test of the benchmark at a tiny scale.

Run from the repository root::

    python3 perfbench/smoke.py

It checks that every workload emits every metric ``BENCHMARK.json``
declares, untraced and traced; that the simulated ``pim.*`` counts
repeat exactly between two runs with the same seed on ``batch_query``
and ``update_mix``; and that the correctness gate of each workload
trips (exit 1, no result line) when the program's answers are
corrupted.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_query", "serve_net", "update_mix")
#: Per-run limit; a tiny run takes a few seconds.
RUN_TIMEOUT = 180


def _args(workload: str, trace: int, seed: int = 1):
    return ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny"]


def _run(arguments, corrupt: str = ""):
    command = [sys.executable, os.path.join(HERE, "smoke.py" if corrupt else "run.py")]
    if corrupt:
        command += ["--corrupt", corrupt]
    return subprocess.run(
        command + arguments, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT
    )


def _result(completed) -> dict:
    if completed.returncode != 0:
        raise AssertionError(f"run failed ({completed.returncode}):\n{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_metrics(declared: dict) -> None:
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(_run(_args(workload, trace)))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True
            assert result["attempted"] >= 1 and result["failed"] >= 0
            names = {metric["name"] for metric in declared[group]}
            assert set(result["metrics"]) == names, (workload, trace, set(result["metrics"]) ^ names)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
            print(f"ok   {workload} trace={trace}: {len(names)} metrics")


def check_pim_repeats() -> None:
    for workload in ("batch_query", "update_mix"):
        first, second = (_result(_run(_args(workload, 1, seed=7))) for _ in range(2))
        for name in ("pim.sim_ms", "pim.ipc_bytes", "pim.cpc_bytes"):
            assert first["metrics"][name] == second["metrics"][name], (workload, name)
        print(f"ok   {workload}: pim.* counts repeat exactly")


def check_gate_trips() -> None:
    for workload in WORKLOADS:
        completed = _run(_args(workload, 0), corrupt=workload)
        assert completed.returncode == 1, (workload, completed.returncode, completed.stderr[-3000:])
        assert "CORRECTNESS FAILURE" in completed.stderr, completed.stderr[-3000:]
        assert '"correct"' not in completed.stdout
        print(f"ok   {workload}: the correctness gate trips on a corrupted answer")


# ----------------------------------------------------------------------
# Corruptions (run in a child process, then the benchmark as usual)
# ----------------------------------------------------------------------
def _drop_one(destinations) -> None:
    """Remove one destination from the first non-empty answer row."""
    for row in destinations:
        if row:
            row.discard(next(iter(row)))
            return


def corrupt(workload: str) -> None:
    if workload == "batch_query":
        from repro.engine.matrix_engine import MatrixEngine

        original = MatrixEngine.execute

        def execute(self, plan, sources, view=None):
            result, stats = original(self, plan, sources, view)
            _drop_one(result.destinations)
            return result, stats

        MatrixEngine.execute = execute
    elif workload == "serve_net":
        from repro.net import client

        original = client._interpret

        def interpret(frame):
            outcome = original(frame)
            if frame["type"] == "result":
                _drop_one([outcome[0]])
            return outcome

        client._interpret = interpret
    elif workload == "update_mix":
        from repro.core.system import Moctopus

        original = Moctopus.__dict__["recover"].__func__

        def recover(cls, durability_dir, config=None, engine=None):
            system = original(cls, durability_dir, config=config, engine=engine)
            system.delete_edges([next(iter(system.graph.edges()))])
            return system

        Moctopus.recover = classmethod(recover)


def main(argv) -> int:
    if argv[:1] == ["--corrupt"]:
        sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
        corrupt(argv[1])
        import run

        return run.main(argv[2:])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    check_metrics(declared)
    check_pim_repeats()
    check_gate_trips()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
