"""Decorated non-planar rooted trees and forests in canonical form.

A tree is a root decoration plus a multiset of child subtrees; a forest is a
multiset of trees and the empty forest is the algebra unit.  Multisets are
stored as tuples sorted by a canonical key, so structural equality is
multiset equality.  The canonical order compares (vertex count, root
decoration, the sorted child list, recursively); serialization follows the
grammar::

    tree   := decoration ('(' tree (',' tree)* ')')?
    forest := tree (';' tree)* | 'e'

with decorations written as letter tokens (x0, x1, y3, ...) and whitespace
insignificant.  Printing always emits the canonical form.

The coproduct implemented here is the admissible-cut coproduct of the
Butcher-Connes-Kreimer Hopf algebra, computed through the grafting recursion

    coproduct(B+_d(f)) = B+_d(f) (x) 1 + (id (x) B+_d) coproduct(f),

where B+_d grafts a forest onto a new root decorated d.  In each tensor the
left leg is the pruned crown and the right leg is the trunk containing the
original roots.  Grading is by vertex count; the counit kills everything but
the empty forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence, Tuple

from .lincomb import LinComb, TensorPair, bilinear
from .words import Letter, ParseError, letter_rank, letter_weight, parse_letter_at


@dataclass(frozen=True, slots=True)
class Tree:
    """Root decoration plus canonically sorted children.

    The canonical key (vertex count, root decoration rank, child keys) and the
    hash are computed once, from the children's stored values.
    """

    decoration: Letter
    children: Tuple["Tree", ...] = ()
    key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kids = tuple(c.key for c in self.children)
        size = 1 + sum(k[0] for k in kids)
        object.__setattr__(self, "key", (size, letter_rank(self.decoration), kids))
        object.__setattr__(self, "_hash", hash((self.decoration, self.children)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Forest:
    trees: Tuple[Tree, ...] = ()

    def __str__(self) -> str:
        if not self.trees:
            return "e"
        return ";".join(print_tree(t) for t in self.trees)

    def __repr__(self) -> str:
        return f"Forest({self})"


EMPTY_FOREST = Forest()


def tree_key(t: Tree):
    """Canonical sort key: (vertex count, root decoration rank, child keys)."""
    return t.key


def size(t: Tree) -> int:
    return t.key[0]


def make_tree(decoration: Letter, children: Iterable[Tree] = ()) -> Tree:
    """Tree constructor that sorts children into canonical order."""
    kids = tuple(sorted(children, key=tree_key))
    return Tree(decoration, kids)


def make_forest(trees: Iterable[Tree] = ()) -> Forest:
    return Forest(tuple(sorted(trees, key=tree_key)))


def vertex(decoration: Letter) -> Tree:
    return Tree(decoration, ())


def forest_of(*trees: Tree) -> Forest:
    return make_forest(trees)


def bplus(decoration: Letter, forest: Forest = EMPTY_FOREST) -> Tree:
    """Grafting operator: attach every tree of the forest under a new root."""
    return make_tree(decoration, forest.trees)


def forest_product(f: Forest, g: Forest) -> Forest:
    """Commutative forest product: disjoint union of the two multisets."""
    return make_forest(f.trees + g.trees)


def grade(f: Forest) -> int:
    """Number of vertices."""
    return sum(size(t) for t in f.trees)


def tree_weight(t: Tree) -> int:
    return letter_weight(t.decoration) + sum(tree_weight(c) for c in t.children)


def forest_weight(f: Forest) -> int:
    """Total decoration weight (index sum for y-decorations, count for x)."""
    return sum(tree_weight(t) for t in f.trees)


def counit(f: Forest) -> int:
    return 0 if f.trees else 1


def _pair_product(p: TensorPair, q: TensorPair) -> TensorPair:
    return TensorPair(forest_product(p.left, q.left), forest_product(p.right, q.right))


@lru_cache(maxsize=None)
def _coproduct_tree(t: Tree) -> LinComb:
    inner = coproduct(Forest(t.children))
    grafted = inner.map_basis(
        lambda p: TensorPair(p.left, Forest((bplus(t.decoration, p.right),)))
    )
    return grafted + LinComb.unit(TensorPair(Forest((t,)), EMPTY_FOREST))


def coproduct(f: Forest) -> LinComb:
    """Admissible-cut coproduct, multiplicative over the forest product."""
    total = LinComb.unit(TensorPair(EMPTY_FOREST, EMPTY_FOREST))
    for t in f.trees:
        total = bilinear(_pair_product, total, _coproduct_tree(t))
    return total


def enumerate_trees(n: int, decorations: Sequence[Letter]) -> list:
    """All canonical trees with exactly n vertices, decorated from the given set.

    Output is sorted by the canonical key and free of duplicates: a tree is
    exactly a root decoration plus a child forest, so the recursion below hits
    each canonical tree once.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    decorations = tuple(decorations)
    out = [
        bplus(d, f)
        for d in decorations
        for f in enumerate_forests(n - 1, decorations)
    ] if n >= 1 else []
    return sorted(out, key=tree_key)


def enumerate_forests(n: int, decorations: Sequence[Letter]) -> list:
    """All canonical forests with exactly n vertices."""
    decorations = tuple(decorations)
    trees_by_size = {s: enumerate_trees(s, decorations) for s in range(1, n + 1)}

    def build(remaining: int, bound):
        # multisets as non-increasing sequences of canonical keys
        if remaining == 0:
            return [()]
        out = []
        for s in range(remaining, 0, -1):
            for t in trees_by_size[s]:
                k = tree_key(t)
                if bound is not None and k > bound:
                    continue
                for rest in build(remaining - s, k):
                    out.append((t,) + rest)
        return out

    return [make_forest(ts) for ts in build(n, None)]


def print_tree(t: Tree) -> str:
    if not t.children:
        return str(t.decoration)
    return f"{t.decoration}({','.join(print_tree(c) for c in t.children)})"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            found = self.peek() or "end of input"
            raise ParseError(f"expected {ch!r}, found {found!r}", self.pos)
        self.pos += 1

    def letter(self) -> Letter:
        self.skip_ws()
        letter, end = parse_letter_at(self.text, self.pos)
        self.pos = end
        return letter

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_tree_node(sc: _Scanner) -> Tree:
    deco = sc.letter()
    children = []
    if sc.peek() == "(":
        sc.expect("(")
        children.append(_parse_tree_node(sc))
        while sc.peek() == ",":
            sc.expect(",")
            children.append(_parse_tree_node(sc))
        sc.expect(")")
    return make_tree(deco, children)


def _check_alphabet(f: Forest, where: int) -> Forest:
    kinds = set()

    def walk(t: Tree) -> None:
        kinds.add(type(t.decoration))
        for c in t.children:
            walk(c)

    for t in f.trees:
        walk(t)
    if len(kinds) > 1:
        raise ParseError("forest mixes the x and y alphabets", where)
    return f


def parse_forest(text: str) -> Forest:
    """Parse the forest grammar; raises ParseError with a position on bad input."""
    sc = _Scanner(text)
    if sc.peek() == "e":
        pos = sc.pos
        sc.pos += 1
        if not sc.at_end():
            raise ParseError("unexpected input after the empty forest 'e'", sc.pos)
        return EMPTY_FOREST
    if sc.at_end():
        raise ParseError("empty input, expected a forest", sc.pos)
    trees = [_parse_tree_node(sc)]
    while sc.peek() == ";":
        sc.expect(";")
        trees.append(_parse_tree_node(sc))
    if not sc.at_end():
        raise ParseError(f"unexpected trailing input {sc.text[sc.pos:sc.pos + 8]!r}", sc.pos)
    return _check_alphabet(make_forest(trees), 0)


def parse_tree(text: str) -> Tree:
    """Parse a single tree; rejects forests with more than one component."""
    f = parse_forest(text)
    if len(f.trees) != 1:
        raise ParseError("expected a single tree", 0)
    return f.trees[0]
