"""Seeded inputs of the three workloads, built without importing arborzeta.

A tree is a nested tuple ``(label, children)`` with ``label`` a letter token
such as ``"y2"`` or ``"x0"`` and ``children`` a sorted tuple of trees; it is
serialized in the package's forest grammar (``y2(y3,y2)``, ``;`` between the
trees of a forest, ``e`` for the empty forest).  Keeping the generator apart
from the package means the program under test receives only text, and the
counts and masses computed here are references the package does not share.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

WORKLOADS = ("exact-hopf", "tree-values", "regularization")

# OEIS A038055: rooted trees with n vertices, each vertex one of 2 colours.
A038055 = (2, 4, 14, 52, 214, 916, 4116, 18996)

HOPF_MAX_FOREST = 4    # coassociativity and coalgebra morphism: forests <= 4 vertices
HOPF_MAX_COCYCLE = 3   # grafting cocycle: B+_d(f) for forests f <= 3 vertices
HOPF_MAX_LADDER = 5    # ladder section: words <= 5 letters
HOPF_MAX_HOOK = 5      # hook-length formula: x-trees <= 5 vertices
EXPLOG_MAX_LEN = 5     # exp(log(w)) = w on y-words <= 5 letters ...
EXPLOG_MAX_INDEX = 3   # ... with indices <= 3
CENSUS_MAX = 8         # enumerate_trees(n, {y1, y2}) for n <= 8

TREE_TOL = 1e-9
TREE_MAX_VERTICES = 7
TREE_DECORATION_SEED = 2016
TREE_FOREST_SIZES = ((2, 2), (2, 3), (2, 4), (3, 3)) * 3  # vertices of t1, t2
MAX_MASS = 1000        # see README: the a-priori split refuses larger masses at 1e-9
Y2_LADDERS = range(2, 8)       # zeta({2}^n), n = 2..7 vertices
Y31_LADDERS = range(1, 4)      # zeta({3,1}^n), n = 1..3
NAMED_TOL = 1e-7      # the named tree, y2(y2(y2,y2),y2(y2,y2),y2(y2,y2)), fails at this tol
NAMED_REFUSAL = "tolerance below supported precision"

REG_TOL = 1e-9
REG_MAX_WEIGHT = 8


# ---------------------------------------------------------------------------
# trees as nested tuples

def tree(label: str, children=()) -> tuple:
    return (label, tuple(sorted(children)))


def text(t: tuple) -> str:
    label, kids = t
    if not kids:
        return label
    return f"{label}({','.join(text(c) for c in kids)})"


def forest_text(trees) -> str:
    return ";".join(text(t) for t in trees) if trees else "e"


def size(t: tuple) -> int:
    return 1 + sum(size(c) for c in t[1])


def labels(t: tuple) -> list:
    return [t[0]] + [l for c in t[1] for l in labels(c)]


@lru_cache(maxsize=None)
def labelled_trees(n: int, alphabet: tuple) -> tuple:
    """All canonical trees with n vertices labelled from the alphabet."""
    if n < 1:
        return ()
    return tuple(sorted(tree(a, f) for a in alphabet for f in labelled_forests(n - 1, alphabet)))


@lru_cache(maxsize=None)
def labelled_forests(n: int, alphabet: tuple) -> tuple:
    """All forests (sorted tuples of trees) with n vertices in total."""
    if n == 0:
        return ((),)
    out = set()
    for s in range(1, n + 1):
        for t in labelled_trees(s, alphabet):
            for rest in labelled_forests(n - s, alphabet):
                out.add(tuple(sorted((t,) + rest)))
    return tuple(sorted(out))


def shapes(n: int) -> tuple:
    """Unlabelled rooted trees with n vertices (label ``"."``)."""
    return labelled_trees(n, (".",))


def relabel(t: tuple, pick) -> tuple:
    return tree(pick(), [relabel(c, pick) for c in t[1]])


def hook_count(t: tuple) -> int:
    """Linear extensions of the tree order: n! / prod of subtree sizes."""
    prod = 1
    stack = [t]
    while stack:
        node = stack.pop()
        prod *= size(node)
        stack.extend(node[1])
    return math.factorial(size(t)) // prod


def _strict_maps(trees, j: int) -> int:
    """Maps of all vertices into 1..j that increase strictly from root to leaf."""

    def below(t) -> list:
        # below(t)[m] = labellings of t whose root value is exactly m
        kids = [below(c) for c in t[1]]
        tails = [[sum(g[m + 1:]) for m in range(j + 1)] for g in kids]
        out = [0] * (j + 1)
        for m in range(1, j + 1):
            v = 1
            for tail in tails:
                v *= tail[m]
            out[m] = v
        return out

    total = 1
    for t in trees:
        total *= sum(below(t))
    return total


def contracting_mass(trees) -> int:
    """Coefficient sum of the contracting expansion of a forest.

    Counts the surjections of the vertices onto 1..k (any k) that increase
    strictly along every edge, by inclusion-exclusion over the image.
    """
    n = sum(size(t) for t in trees)
    maps = [_strict_maps(trees, j) for j in range(n + 1)]
    return sum(
        sum((-1) ** (k - i) * math.comb(k, i) * maps[i] for i in range(k + 1))
        for k in range(1, n + 1)
    )


# ---------------------------------------------------------------------------
# words

def compositions(k: int) -> list:
    if k == 0:
        return [()]
    return [(first,) + rest for first in range(1, k + 1) for rest in compositions(k - first)]


def y_text(indices) -> str:
    return ".".join(f"y{n}" for n in indices) if indices else "e"


def dual(indices: tuple) -> tuple:
    """Dual index: reverse the x-word of y-indices and swap x0 with x1."""
    bits = [b for n in indices for b in [0] * (n - 1) + [1]]
    flipped = [1 - b for b in reversed(bits)]
    out, run = [], 0
    for b in flipped:
        if b == 0:
            run += 1
        else:
            out.append(run + 1)
            run = 0
    return tuple(out)


# ---------------------------------------------------------------------------
# workloads

def _exact_hopf(rng: random.Random) -> dict:
    ops = []
    for alpha, letters in (("y", ("y1", "y2")), ("x", ("x0", "x1"))):
        for n in range(HOPF_MAX_FOREST + 1):
            for f in labelled_forests(n, letters):
                ops.append({"kind": "coassoc", "forest": forest_text(f)})
                ops.append({"kind": "morphism", "alpha": alpha, "forest": forest_text(f)})
        for n in range(HOPF_MAX_COCYCLE + 1):
            for f in labelled_forests(n, letters):
                for d in letters:
                    ops.append({"kind": "cocycle", "forest": forest_text(f), "root": d})
        for n in range(1, HOPF_MAX_LADDER + 1):
            for w in itertools.product(letters, repeat=n):
                ops.append({"kind": "ladder", "alpha": alpha, "word": ".".join(w)})
    for n in range(1, HOPF_MAX_HOOK + 1):
        for t in labelled_trees(n, ("x0", "x1")):
            ops.append({"kind": "hook", "tree": text(t), "expect": hook_count(t)})
    for n in range(1, EXPLOG_MAX_LEN + 1):
        for w in itertools.product(range(1, EXPLOG_MAX_INDEX + 1), repeat=n):
            ops.append({"kind": "explog", "word": y_text(w)})
    for n in range(1, CENSUS_MAX + 1):
        ops.append({"kind": "census", "n": n, "expect": A038055[n - 1]})
    return {"ops": ops}


def _tree_values(rng: random.Random) -> dict:
    # Decorations come from a fixed generator, not from the seed: drawn per
    # seed they moved a round's evaluation work by up to a quarter.
    fixed = random.Random(TREE_DECORATION_SEED)
    pick = lambda: fixed.choice(("y2", "y3"))
    trees = []
    for n in range(2, TREE_MAX_VERTICES + 1):
        for s in shapes(n):
            if contracting_mass((s,)) <= MAX_MASS:
                trees.append(relabel(s, pick))
    ops = [{"kind": "tree", "trees": [t], "tol": TREE_TOL} for t in trees]
    for a, b in TREE_FOREST_SIZES:
        while True:
            i = rng.choice([k for k, t in enumerate(trees) if size(t) == a])
            j = rng.choice([k for k, t in enumerate(trees) if size(t) == b])
            pair = (trees[i], trees[j])
            if contracting_mass(pair) <= MAX_MASS:
                break
        ops.append({"kind": "forest", "trees": list(pair), "parts": [i, j], "tol": TREE_TOL})
    for n in Y2_LADDERS:
        t = None
        for _ in range(n):
            t = tree("y2", [] if t is None else [t])
        ops.append({"kind": "ladder2", "trees": [t], "n": n, "tol": TREE_TOL})
    for n in Y31_LADDERS:
        t = None
        for label in ["y3", "y1"] * n:
            t = tree(label, [] if t is None else [t])
        ops.append({"kind": "ladder31", "trees": [t], "n": n, "tol": TREE_TOL})
    cherry = tree("y2", [tree("y2"), tree("y2")])
    named = tree("y2", [cherry] * 3)
    ops.append({"kind": "named", "trees": [named], "tol": NAMED_TOL, "refusal": NAMED_REFUSAL})
    for op in ops:
        if "trees" in op:
            op["text"] = forest_text(op["trees"])
    return {"ops": ops}


def _regularization(rng: random.Random) -> dict:
    words = [c for k in range(REG_MAX_WEIGHT + 1) for c in compositions(k)]
    return {"ops": [{"word": list(w), "text": y_text(w)} for w in words], "tol": REG_TOL}


def round_order(spec: dict, seed: int, round_index: int) -> list:
    """The order of the operations in one round of a run.

    Each round has its own order, so that an operation's time, taken as its
    median over rounds, does not hang on which operations happened to fill
    the package's caches before it in a single order."""
    order = list(range(len(spec["ops"])))
    random.Random(f"{spec['workload']}:{seed}:{round_index}").shuffle(order)
    return order


def make(workload: str, seed: int) -> dict:
    """The inputs of one run; the same seed gives the same inputs."""
    build = {
        "exact-hopf": _exact_hopf,
        "tree-values": _tree_values,
        "regularization": _regularization,
    }[workload]
    spec = build(random.Random(seed))
    spec["workload"] = workload
    return spec
