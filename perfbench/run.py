"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_query --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the same workload in alternating untraced and traced
parts (time slices; whole rounds on ``update_mix``), with span wrappers
around every layer in the traced parts, and reports the per-layer
metrics of the traced parts plus the tracing overhead.
Metric names and units come from ``BENCHMARK.json``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed correctness check exits 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("batch_query", "serve_net", "update_mix")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the smoke test only",
    )
    return parser.parse_args(argv)


def load_declared() -> dict:
    """Metric names and units declared in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in declared["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in declared["per_layer"]},
    }


def render(report, declared: dict, trace: bool) -> dict:
    """Print the human-readable table and build the result object."""
    print(f"workload {report.workload}")
    for note in report.notes:
        print(f"  {note}")
    print(f"  {'metric':<34} {'value':>14}  {'unit':<8} samples")
    for name, (value, unit, samples) in report.named.items():
        print(f"  {name:<34} {value:>14.6g}  {unit:<8} {samples}")
    group = "per_layer" if trace else "end_to_end"
    wanted = declared[group]
    if trace:
        values = dict(report.per_layer)
        print("  per-layer (traced window):")
        for name in wanted:
            print(f"    {name:<36} {values.get(name, math.nan):>14.6g}  {wanted[name]}")
    else:
        values = {name: value for name, (value, _) in report.end_to_end.items()}
    missing = sorted(set(wanted) - set(values))
    extra = sorted(set(values) - set(wanted))
    if missing or extra:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"metrics without a finite value: {bad}")
    return {
        "correct": True,
        "attempted": int(report.attempted),
        "failed": int(report.failed),
        "metrics": {
            name: {"value": values[name], "unit": wanted[name]} for name in wanted
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    started = time.perf_counter()
    declared = load_declared()
    # The benchmark's modules and the program under test, from this checkout.
    sys.path[:0] = [HERE, SRC]
    from common import SCALES, CorrectnessError

    workload = __import__(args.workload)
    try:
        report = workload.run(args.seed, args.seconds, bool(args.trace), SCALES[args.scale])
    except CorrectnessError as error:
        print(f"CORRECTNESS FAILURE: {error}", file=sys.stderr)
        return 1
    result = render(report, declared, bool(args.trace))
    print(f"  wall time {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
