#!/usr/bin/env python3
"""Truncated tree sums closing in on the accelerated values.

For a few contracted trees, print the certified tree-native value with its
bound, then the gap between the brute-force truncation at increasing cutoffs
and that value, next to the documented tail bound.  The gap must stay under
the tail bound at every cutoff, and the certified bound under --tol;
watching both gaps shrink together is the point of the exercise.  Exit
status is 1 when a bound is violated, and 2 when an argument is refused
(``error: ...`` on stderr, nothing on stdout).
"""

import argparse
import sys

from arborzeta.forests import parse_tree, print_tree
from arborzeta.zeta import brute_tree_sum, eval_tree_bounded, tree_truncation_bound

DEFAULT_TREES = ["y2", "y3(y2)", "y2(y3)", "y2(y2,y2)", "y3(y2,y2)"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trees", nargs="*", default=DEFAULT_TREES)
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--cutoffs", type=int, nargs="+",
                        default=[100, 500, 2500, 12500])
    args = parser.parse_args()

    # every tree is evaluated before any is printed, so a refused tree,
    # tolerance or cutoff prints nothing but the error
    try:
        results = []
        for text in args.trees:
            t = parse_tree(text)
            exact, certified = eval_tree_bounded(t, args.tol)
            gaps = [(N, abs(exact - brute_tree_sum(t, N)), tree_truncation_bound(t, N))
                    for N in args.cutoffs]
            results.append((t, exact, certified, gaps))
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ok = True
    for t, exact, certified, gaps in results:
        ok = ok and certified <= args.tol
        print(f"{print_tree(t)}  value = {exact:.12g}   bound = {certified:.3e}"
              + ("" if certified <= args.tol else "   ABOVE TOL"))
        for N, gap, bound in gaps:
            inside = gap <= bound + 10 * args.tol
            ok = ok and inside
            print(f"  N = {N:6d}   gap = {gap:.3e}   bound = {bound:.3e}"
                  + ("" if inside else "   VIOLATION"))
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
