"""Steadiness of the benchmark: two sets of runs of the same code, compared.

    python3 bench/steady.py

Two sets of ten runs of every workload of BENCHMARK.json.  Each run is
``bench/run.py --trace 0`` with its own seed (set s, run k uses seed
1 + 10*s + k) and the run length of BENCHMARK.json.  For each workload and
end-to-end metric it prints every set's median, quartiles and spread
(interquartile distance over the median, as ``statistics.quantiles`` gives
them), and whether the sets agree: every spread within the metric's bound,
the second median no worse than the first by more than the bound, and the
same share of failed operations in every run.  The runs, with the Python version and CPU count each recorded,
go to ``bench/results/steady-<time>.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr.strip()}")
    return {"seed": seed, "wall_s": wall, "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for k in range(RUNS):
                r = run_once(bench, w, 1 + s * RUNS + k, seconds)
                runs[w][s].append(r)
                res = r["result"]
                print(f"set {s} {w} seed {r['seed']}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} rounds={r['info']['rounds']} "
                      f"wall={r['wall_s']:.1f}s", file=sys.stderr, flush=True)

    report, all_ok = {}, True
    for w in workloads:
        shares = {r["result"]["failed"] / r["result"]["attempted"] for rs in runs[w] for r in rs}
        correct = all(r["result"]["correct"] for rs in runs[w] for r in rs)
        rows = {}
        for m in bench["end_to_end"]:
            sets = [summarize([r["result"]["metrics"][m["name"]]["value"] for r in rs]) for rs in runs[w]]
            spread_ok = all(s["spread"] <= m["bound"] for s in sets)
            sign = 1 if m["better"] == "lower" else -1
            worse = [sign * (s["median"] - sets[0]["median"]) / sets[0]["median"] for s in sets[1:]]
            ok = spread_ok and all(x <= m["bound"] for x in worse)
            rows[m["name"]] = {"sets": sets, "worse_than_first": worse, "bound": m["bound"], "agree": ok}
            all_ok &= ok
        all_ok &= correct and len(shares) == 1
        report[w] = {"metrics": rows, "failed_shares": sorted(shares), "correct": correct}

        print(f"\n{w}: correct={correct} failed share(s)={sorted(shares)}")
        for name, row in rows.items():
            cells = "  ".join(
                f"med={s['median']:.5g} q1={s['q1']:.5g} q3={s['q3']:.5g} spread={s['spread']:.3f}"
                for s in row["sets"]
            )
            drift = " ".join(f"{x:+.3f}" for x in row["worse_than_first"])
            print(f"  {name:12s} bound={row['bound']:<5} {cells}  worse={drift or '-'}  "
                  f"{'agree' if row['agree'] else 'DISAGREE'}")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump({"seconds": seconds, "report": report, "runs": runs}, fh, indent=1)
    print(f"\n{'all sets agree' if all_ok else 'sets DISAGREE'}; runs written to {path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
