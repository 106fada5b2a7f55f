#!/usr/bin/env python3
"""Truncated tree sums closing in on the accelerated values.

For a few contracted trees, print the certified tree-native value with its
bound, then the gap between the brute-force truncation at increasing cutoffs
and that value, next to the documented tail bound.  The gap must stay under
the tail bound at every cutoff, and the certified bound under --tol;
watching both gaps shrink together is the point of the exercise.
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

    ok = True
    for text in args.trees:
        t = parse_tree(text)
        exact, certified = eval_tree_bounded(t, args.tol)
        ok = ok and certified <= args.tol
        print(f"{print_tree(t)}  value = {exact:.12g}   bound = {certified:.3e}"
              + ("" if certified <= args.tol else "   ABOVE TOL"))
        for N in args.cutoffs:
            gap = abs(exact - brute_tree_sum(t, N))
            bound = tree_truncation_bound(t, N)
            inside = gap <= bound + 10 * args.tol
            ok = ok and inside
            print(f"  N = {N:6d}   gap = {gap:.3e}   bound = {bound:.3e}"
                  + ("" if inside else "   VIOLATION"))
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
