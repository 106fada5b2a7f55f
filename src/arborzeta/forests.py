"""Decorated non-planar rooted trees and forests in canonical form.

A tree is a root decoration plus a multiset of child subtrees; a forest is a
multiset of trees and the empty forest is the algebra unit.  Multisets are
stored as tuples sorted by a canonical key, so structural equality is
multiset equality; ``Tree`` and ``Forest`` store their hash and compare it
before their fields.  Two trees compare equal in a loop, not a recursion,
that walks both in the same order and checks identity, stored hash,
decoration and child count at each pair of vertices, so trees of any depth
compare; ``print_tree`` likewise keeps its own stack.  The canonical order
compares (vertex count, root decoration, the sorted child list,
recursively); serialization follows the grammar::

    tree   := decoration ('(' tree (',' tree)* ')')?
    forest := tree (';' tree)* | 'e'

with decorations written as letter tokens (x0, x1, y3, ...) and whitespace
insignificant.  Printing always emits the canonical form.  ``parse_forest``
is one loop over a stack of the vertices still open: a letter opens a vertex
on '(' and otherwise closes it and every vertex whose ')' follows.  Within
one call it keeps a single object per distinct subtree, so equal siblings
sort by one shared key.

The tree folds of the paper (both arborifications, the tree sums, the
weight) run from the leaves up; ``bottom_up`` lists every vertex after all
of its descendants, a preorder taken with a stack and reversed, so none of
them recurses.

The coproduct implemented here is the admissible-cut coproduct of the
Butcher-Connes-Kreimer Hopf algebra, which satisfies the grafting identity

    coproduct(B+_d(f)) = B+_d(f) (x) 1 + (id (x) B+_d) coproduct(f),

where B+_d grafts a forest onto a new root decorated d.  In each tensor the
left leg is the pruned crown and the right leg is the trunk containing the
original roots.  Grading is by vertex count; the counit kills everything but
the empty forest.  ``coproduct`` is ``tabled`` (see ``lincomb``): a forest
not in the table is entered by a fold over ``bottom_up``, first the one-tree
forest of each vertex by the identity above, then the forest as the product
of its trees', and the table's budget is checked once the fold ends.

The census (``enumerate_trees``, ``enumerate_forests``) builds every smaller
size exactly once per call, bottom-up: the trees with m vertices are the
canonical forests with m - 1 vertices grafted under each decoration, which
come out in canonical order with no sorting, and the forests with m vertices
extend each tree by a smaller forest of trees no smaller than it.  The
decorations must be distinct and come from one alphabet, since the canonical
key ranks a decoration by its value alone.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import partial, reduce
from operator import attrgetter
from typing import Iterable, Sequence, Tuple

from .lincomb import _TABLE, TERM_COST, Immutable, LinComb, TensorPair, bilinear, table_put, tabled
from .words import Letter, ParseError, letter_rank, letter_weight, parse_letter_at


class Tree(Immutable):
    """Root decoration plus canonically sorted children.

    The canonical key (vertex count, root decoration rank, child keys) and the
    hash are computed once, from the children's stored values.
    """

    __slots__ = ("decoration", "children", "key", "_hash")

    def __init__(self, decoration: Letter, children: Tuple["Tree", ...] = ()):
        n, kids = 1, []  # a plain loop: the census builds tens of thousands of trees
        for c in children:
            kids.append(k := c.key)
            n += k[0]
        object.__setattr__(self, "decoration", decoration)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "key", (n, letter_rank(decoration), tuple(kids)))
        object.__setattr__(self, "_hash", hash((decoration, children)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not Tree:
            return NotImplemented
        # letters are interned, so the decorations compare by identity
        if not self.children:  # most calls compare leaves: no lists for them
            return self.decoration is other.decoration and not other.children
        left, right = [self], [other]  # walked in step by a loop, so any depth compares
        for a, b in zip(left, right):
            if a is not b:
                if (a._hash != b._hash or a.decoration is not b.decoration
                        or len(a.children) != len(b.children)):
                    return False
                left += a.children
                right += b.children
        return True

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Tree, (self.decoration, self.children)

    def __repr__(self) -> str:
        return f"Tree(decoration={self.decoration!r}, children={self.children!r})"


class Forest(Immutable):
    """Canonically sorted tuple of trees; the hash is computed once, at construction."""

    __slots__ = ("trees", "_hash")

    def __init__(self, trees: Tuple[Tree, ...] = ()):
        object.__setattr__(self, "trees", trees)
        object.__setattr__(self, "_hash", hash(trees))

    def __eq__(self, other: object) -> bool:
        if type(other) is not Forest:
            return NotImplemented
        return self._hash == other._hash and self.trees == other.trees

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Forest, (self.trees,)

    def __str__(self) -> str:
        if not self.trees:
            return "e"
        return ";".join(print_tree(t) for t in self.trees)

    def __repr__(self) -> str:
        return f"Forest({self})"


EMPTY_FOREST = Forest()
_KEY = attrgetter("key")  # canonical sort key: (vertex count, root rank, child keys)


def size(t: Tree) -> int:
    return t.key[0]


def make_tree(decoration: Letter, children: Iterable[Tree] = ()) -> Tree:
    """Tree constructor that sorts children into canonical order."""
    return Tree(decoration, tuple(sorted(children, key=_KEY)))


def make_forest(trees: Iterable[Tree] = ()) -> Forest:
    return Forest(tuple(sorted(trees, key=_KEY)))


def vertex(decoration: Letter) -> Tree:
    return Tree(decoration, ())


def bplus(decoration: Letter, forest: Forest = EMPTY_FOREST) -> Tree:
    """Grafting operator: attach every tree of the forest under a new root."""
    return make_tree(decoration, forest.trees)


def forest_product(f: Forest, g: Forest) -> Forest:
    """Commutative forest product: disjoint union of the two multisets; e is the unit."""
    return make_forest(f.trees + g.trees) if f.trees and g.trees else (f if f.trees else g)


def grade(f: Forest) -> int:
    """Number of vertices."""
    return sum(size(t) for t in f.trees)


def bottom_up(trees: Iterable[Tree], known=()) -> list:
    """Every vertex of the trees, as its subtree, each after all of its
    descendants, leaving out the subtrees in ``known`` with all of theirs:
    a preorder taken with a stack, reversed."""
    order, stack = [], list(trees)
    while stack:
        t = stack.pop()
        if t not in known:
            order.append(t)
            stack += t.children
    order.reverse()
    return order


def tree_weight(t: Tree) -> int:
    return sum(letter_weight(s.decoration) for s in bottom_up((t,)))


def forest_weight(f: Forest) -> int:
    """Total decoration weight (index sum for y-decorations, count for x)."""
    return sum(tree_weight(t) for t in f.trees)


def counit(f: Forest) -> int:
    return 0 if f.trees else 1


def _pair_product(p: TensorPair, q: TensorPair) -> TensorPair:
    return TensorPair(forest_product(p.left, q.left), forest_product(p.right, q.right))


def _product(trees: Tuple[Tree, ...]) -> LinComb:
    # the product of the trees' entries: e (x) e for none, else started from the first tree's
    cops = [_TABLE["coproduct", Forest((t,))] for t in trees] or [LinComb.unit(TensorPair(EMPTY_FOREST, EMPTY_FOREST))]
    return reduce(partial(bilinear, _pair_product), cops[1:], cops[0])


def _coproduct_tree(t: Tree) -> LinComb:
    # grafting the trunks of distinct terms under the root gives distinct terms
    terms = {TensorPair(p.left, Forest((Tree(t.decoration, p.right.trees),))): c
             for p, c in _product(t.children).items()}
    terms[TensorPair(Forest((t,)), EMPTY_FOREST)] = 1
    return LinComb(terms)


@tabled
def coproduct(f: Forest) -> LinComb:
    """Admissible-cut coproduct, multiplicative over the forest product."""
    # enter each vertex's one-tree forest; a one-tree f is its root's, which tabled enters
    order = bottom_up(f.trees)
    if len(f.trees) == 1:
        order.pop()
    for t in order:
        key = ("coproduct", Forest((t,)))
        if key not in _TABLE:
            table_put(key, cop := _coproduct_tree(t), TERM_COST * len(cop))
    return _coproduct_tree(f.trees[0]) if len(f.trees) == 1 else _product(f.trees)


def enumerate_trees(n: int, decorations: Sequence[Letter]) -> list:
    """All canonical trees with exactly n vertices, decorated from the given
    set, sorted by the canonical key and free of duplicates."""
    if n == 0:
        return []
    decos, forests = _census(n - 1, decorations)
    return [Tree(d, f) for d in decos for f in forests[n - 1]]


def enumerate_forests(n: int, decorations: Sequence[Letter]) -> list:
    """All canonical forests with exactly n vertices, in canonical order."""
    return [Forest(f) for f in _census(n, decorations)[1][n]]


def _census(n: int, decorations: Sequence[Letter]) -> Tuple[list, list]:
    """The decorations sorted by rank, and for m = 0..n the canonical forests
    with m vertices as tuples of trees, in canonical order (see above)."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    decos = sorted(decorations, key=letter_rank)
    if len({letter_rank(d) for d in decos}) < len(decos) or len({type(d) for d in decos}) > 1:
        names = ", ".join(map(str, decorations))
        raise ValueError(f"decorations must be distinct letters of one alphabet, got {names}")
    trees: list = []  # every tree built so far, in canonical order
    forests, heads = [[()]], [[float("inf")]]  # heads[m]: index in trees of each forest's first tree
    for m in range(1, n + 1):
        trees += [Tree(d, f) for d in decos for f in forests[m - 1]]
        level, first = [], []
        for i, t in enumerate(trees):
            rest = forests[m - t.key[0]][bisect_left(heads[m - t.key[0]], i):]
            level += [(t,) + r for r in rest]
            first += [i] * len(rest)
        forests.append(level)
        heads.append(first)
    return decos, forests


def print_tree(t: Tree) -> str:
    # a stack of trees still to print and of the text between them, so any depth prints
    out, stack = [], [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append(str(item.decoration))
        if item.children:
            out.append("(")
            stack.append(")")
            for c in reversed(item.children[1:]):
                stack += (c, ",")
            stack.append(item.children[0])
    return "".join(out)


def parse_forest(text: str) -> Forest:
    """Parse the forest grammar; raises ParseError with a position on bad input."""
    space = re.compile(r"\s*").match  # \s is exactly str.isspace
    pos = space(text).end()
    if text.startswith("e", pos):
        pos = space(text, pos + 1).end()
        if pos < len(text):
            raise ParseError("unexpected input after the empty forest 'e'", pos)
        return EMPTY_FOREST
    if pos == len(text):
        raise ParseError("empty input, expected a forest", pos)
    stack = [(None, [])]  # the open vertices as (decoration, children); the bottom one holds the trees
    built: dict = {}  # one object per distinct subtree, so equal siblings sort by one key
    alphabets = set()
    while True:
        letter, pos = parse_letter_at(text, space(text, pos).end())
        alphabets.add(type(letter))
        stack.append((letter, []))
        pos = space(text, pos).end()
        if text.startswith("(", pos):
            pos += 1
            continue
        while True:  # close the vertex just read, and each one whose ')' follows
            node = make_tree(*stack.pop())
            stack[-1][1].append(built.setdefault(node, node))
            found = text[pos:pos + 1]
            if found == (";" if len(stack) == 1 else ","):
                break
            if len(stack) == 1:
                if found:
                    raise ParseError(f"unexpected trailing input {text[pos:pos + 8]!r}", pos)
                if len(alphabets) > 1:
                    raise ParseError("forest mixes the x and y alphabets", 0)
                return make_forest(stack[0][1])
            if found != ")":
                raise ParseError(f"expected ')', found {repr(found) if found else 'end of input'}", pos)
            pos = space(text, pos + 1).end()
        pos += 1


def parse_tree(text: str) -> Tree:
    """Parse a single tree; rejects forests with more than one component."""
    f = parse_forest(text)
    if len(f.trees) != 1:
        raise ParseError("expected a single tree", 0)
    return f.trees[0]
