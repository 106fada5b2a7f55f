#!/usr/bin/env python3
"""Residuals of the two-regularization comparison, word by word.

For each summation word w up to a chosen weight, compare the shuffle
regularization of its image word against the corrected quasi-shuffle
regularization and print the residual.  All residuals should sit at
roundoff level, far below the working tolerance.  A refused argument prints
``error: ...`` on stderr and exits with status 2.
"""

import argparse
import sys
import time

from arborzeta.verify import suite_bmz


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-weight", type=int, default=4)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args()

    t0 = time.perf_counter()
    try:
        rows = suite_bmz(args.tol, args.max_weight)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    for row in rows:
        print(f"{row.name.removeprefix('bmz:'):24s} residual = {row.residual:.3e}")
    worst = max(row.residual for row in rows)
    print(f"\n{len(rows)} words up to weight {args.max_weight}, "
          f"worst residual {worst:.3e}, {elapsed:.2f}s")
    return 0 if all(row.passed for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
