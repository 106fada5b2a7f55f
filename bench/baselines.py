"""Wall time of the command-line verbs behind the ROADMAP reference figures.

    python3 bench/baselines.py

Each verb runs as a fresh interpreter, as the ``arborzeta`` console script
would, with the package imported from ``src/`` and stdout discarded.  The
time includes interpreter start-up.  Prints the median and quartiles of five
repeats per verb and writes them to ``bench/results/baselines-<time>.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

VERBS = {
    "verify all": ["verify", "all"],
    "enumerate 8 --decorations 2": ["enumerate", "8", "--decorations", "2"],
    "suite_hopf (verify hopf)": ["verify", "hopf"],
    "suite_bmz weight 7 (verify bmz --max-weight 7)": ["verify", "bmz", "--max-weight", "7"],
    "cold zeta y2(y2,y2)": ["zeta", "y2(y2,y2)"],
}
REPEATS = 5
ENTRY = "import sys; from arborzeta.cli import main; sys.exit(main(sys.argv[1:]))"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c", "import arborzeta"], env=env, check=True)  # bytecode
    out = {"python": platform.python_version(), "cpus": os.cpu_count(), "verbs": {}}
    for name, argv in VERBS.items():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", ENTRY, *argv], env=env, cwd=ROOT,
                           stdout=subprocess.DEVNULL, check=True)
            times.append(time.perf_counter() - t0)
        q1, med, q3 = statistics.quantiles(times, n=4)
        out["verbs"][name] = {"median_s": med, "q1_s": q1, "q3_s": q3, "times_s": times}
        print(f"{name:48s} median {med:.3f} s  (q1 {q1:.3f}, q3 {q3:.3f}, n={len(times)})")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", time.strftime("baselines-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
