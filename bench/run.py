"""arborzeta benchmark: one run of one workload.

    python3 bench/run.py --workload exact-hopf --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The inputs come from ``--seed``
alone.  The run repeats whole rounds until ``--seconds`` have passed; each
round is a fresh interpreter (``worker.py``) that imports the package from
``src/``, so every round starts with cold caches, as a command-line user
does.  Outputs of every round are checked independently (``checks.py``).
The last line of stdout is the result as JSON: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run,
named as in BENCHMARK.json; ``attempted`` and ``failed`` count the operations
of one round.  The line before it records the environment and the round count.
A traced run writes its first round's spans to
``bench/traces/<workload>-seed<seed>.json.gz``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ROUND_TIMEOUT = 150


def _worker(spec: dict, extra: list) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC, *extra]
    proc = subprocess.run(
        cmd, input=json.dumps(spec), capture_output=True, text=True, timeout=ROUND_TIMEOUT, cwd=ROOT
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout) if proc.stdout else {}


def percentile(values: list, q: float) -> float:
    """Linear interpolation between order statistics; inf marks a failed operation."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(data[hi]):
        return math.inf
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def end_to_end(rounds: list, failed: set) -> dict:
    """Times are at the reference host speed (see worker.py), and each
    operation's time is its median over rounds, which all run the same
    operations from the same cold start."""
    n = len(rounds[0]["op_ref_s"])
    per_op = [statistics.median(r["op_ref_s"][i] for r in rounds) for i in range(n)]
    # a failed operation misses every latency limit
    latencies = [math.inf if str(i) in failed else t for i, t in enumerate(per_op)]
    return {
        "setup_s": statistics.median(r["setup_ref_s"] for r in rounds),
        "ops_per_s": (n - len(failed)) / sum(per_op),
        "op_p50_ms": 1e3 * percentile(latencies, 0.5),
        "op_p90_ms": 1e3 * percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(rounds: list) -> dict:
    return {name: statistics.median(r["layers"][name] for r in rounds) for name in rounds[0]["layers"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "arborzeta", "__init__.py")):
        print(f"error: no arborzeta package under {SRC}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    spec = inputs.make(args.workload, args.seed)
    _worker({}, ["--warm"])  # compile bytecode once, outside every measurement
    extra = ["--trace"] if args.trace else []
    if args.trace:
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        spans_path = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.json.gz")
    rounds, problems, refs = [], [], {}
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        spans = ["--spans", spans_path] if args.trace and not rounds else []
        spec["order"] = inputs.round_order(spec, args.seed, len(rounds))
        r = _worker(spec, extra + spans)
        problems += checks.failures(spec, r["errors"])
        problems += checks.CHECKS[args.workload](spec, r["outputs"], refs)
        rounds.append(r)
    for msg in sorted(set(problems)):
        print(f"check failed: {msg}", file=sys.stderr)
    for i, msg in sorted(rounds[0]["errors"].items(), key=lambda kv: int(kv[0])):
        print(f"operation {i} failed: {msg}", file=sys.stderr)

    # the counts of one round: every round attempts the same operations
    failed = set().union(*(r["errors"] for r in rounds))
    if args.trace:
        values, declared = per_layer(rounds), bench["per_layer"]
    else:
        values, declared = end_to_end(rounds, failed), bench["end_to_end"]
    op_s = sum(sum(r["op_s"]) for r in rounds) / len(rounds)
    kernel_s = statistics.median(k for r in rounds for k in r["kernel_s"])
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": len(rounds),
        "op_s_per_round": op_s, "kernel_median_s": kernel_s,
        "python": platform.python_version(), "cpus": os.cpu_count(),
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(spec["ops"]),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
