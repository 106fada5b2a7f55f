#!/usr/bin/env python3
"""Run every verification suite and print the combined report.

Exit status is 1 when any row fails, so this doubles as a CI gate, and 2 when
an argument is refused (``error: ...`` on stderr, nothing on stdout).
"""

import argparse
import sys
import time

from arborzeta.verify import SUITE_NAMES, all_passed, format_rows, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--max-weight", type=int, default=None)
    parser.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    args = parser.parse_args()

    # every suite runs before any is printed, so a refused argument prints no report
    reports = []
    try:
        for name in SUITE_NAMES:
            if name == "all":
                continue
            t0 = time.perf_counter()
            # only the bmz suite reads a max weight, and the others refuse one
            rows = run_suite(name, tol=args.tol, max_weight=args.max_weight if name == "bmz" else None)
            reports.append((name, time.perf_counter() - t0, rows))
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = 0
    for name, elapsed, rows in reports:
        print(f"== suite {name} ({elapsed:.2f}s) ==")
        print(format_rows(rows, args.format))
        print()
        if not all_passed(rows):
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
