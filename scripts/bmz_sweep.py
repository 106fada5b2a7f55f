#!/usr/bin/env python3
"""Residuals of the two-regularization comparison, word by word.

For each summation word w up to a chosen weight, compare the shuffle
regularization of its image word against the corrected quasi-shuffle
regularization and print the residual.  All residuals should sit at
roundoff level, far below the working tolerance.
"""

import argparse
import sys
import time

from arborzeta.hoffman import compositions
from arborzeta.words import y_word
from arborzeta.zeta import check_bmz


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-weight", type=int, default=4)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args()

    worst = 0.0
    count = 0
    t0 = time.perf_counter()
    for weight in range(args.max_weight + 1):
        for parts in compositions(weight):
            w = y_word(*parts)
            residual = check_bmz(w, args.tol)
            worst = max(worst, residual)
            count += 1
            print(f"{str(w):24s} residual = {residual:.3e}")
    elapsed = time.perf_counter() - t0
    print(f"\n{count} words up to weight {args.max_weight}, "
          f"worst residual {worst:.3e}, {elapsed:.2f}s")
    return 0 if worst <= 10 * args.tol else 1


if __name__ == "__main__":
    sys.exit(main())
