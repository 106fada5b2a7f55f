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
reads the tokens of one regex scan with a stack of the vertices still open:
a letter opens a vertex on '(' and otherwise closes it and every vertex whose
')' follows.  A closed subtree is the table's entry ("tree", (decoration,
children)), built on first use, so equal subtrees of all texts read since the
table last cleared are one object: equal siblings sort by one shared key, and
a later lookup of a subtree matches it by identity.

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
extend each tree by a smaller forest of trees no smaller than it.  The forests
of one size are three parallel lists, of their trees, of those trees' keys and
of the index of each one's first tree, shared by every decoration: ``_fill``,
which fills every ``Tree(...)``, stores the key (m, rank, the forest's keys)
with no loop over the children.  The decorations must be distinct and come
from one alphabet, since the canonical key ranks a decoration by its value
alone.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import partial, reduce
from operator import attrgetter
from typing import Iterable, Sequence, Tuple

from .lincomb import _TABLE, TERM_COST, Immutable, LinComb, TensorPair, bilinear, slot_setters, table_put, tabled, trim
from .words import LETTER_TOKEN, Letter, ParseError, letter_error, letter_of, letter_rank, letter_weight


class Tree(Immutable):
    """Root decoration plus canonically sorted children.

    The canonical key (vertex count, root decoration rank, child keys), built from
    the children's stored keys, and the hash are stored once, by ``_fill``.
    """

    __slots__ = ("decoration", "children", "key", "_hash")

    def __init__(self, decoration: Letter, children: Tuple["Tree", ...] = ()):
        n, kids = 1, []  # a plain loop: for a few children it beats two comprehensions
        for c in children:
            kids.append(k := c.key)
            n += k[0]
        _fill(self, decoration, children, (n, letter_rank(decoration), tuple(kids)))

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
        _set_trees(self, trees)
        _set_forest_hash(self, hash(trees))

    def __eq__(self, other: object) -> bool:
        if type(other) is not Forest:
            return NotImplemented
        return self._hash == other._hash and self.trees == other.trees

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Forest, (self.trees,)

    def __str__(self) -> str:
        return ";".join(map(print_tree, self.trees)) or "e"

    def __repr__(self) -> str:
        return f"Forest({self})"


_set_decoration, _set_children, _set_key, _set_tree_hash = slot_setters(Tree)
_set_trees, _set_forest_hash = slot_setters(Forest)
EMPTY_FOREST = Forest()
_KEY = attrgetter("key")  # canonical sort key: (vertex count, root rank, child keys)


def _fill(t: Tree, decoration: Letter, children: Tuple[Tree, ...], key: tuple) -> Tree:
    """Store a tree's fields, its canonical key and its hash in t; returns t."""
    _set_decoration(t, decoration)
    _set_children(t, children)
    _set_key(t, key)
    _set_tree_hash(t, hash((decoration, children)))
    return t


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
    decos, forests, keys = _census(n - 1, decorations)
    return _graft(decos, forests[n - 1], keys[n - 1], n)


def enumerate_forests(n: int, decorations: Sequence[Letter]) -> list:
    """All canonical forests with exactly n vertices, in canonical order."""
    return list(map(Forest, _census(n, decorations)[1][n]))


def _graft(decos: list, forests: list, keys: list, m: int) -> list:
    """The trees with m vertices: each decoration over each forest with m - 1 vertices,
    given as its trees and their keys."""
    return [_fill(Tree.__new__(Tree), d, f, (m, r, k))
            for d in decos for r in (letter_rank(d),) for f, k in zip(forests, keys)]


def _census(n: int, decorations: Sequence[Letter]) -> Tuple[list, list, list]:
    """The decorations sorted by rank, and for m = 0..n the canonical forests with m
    vertices, in canonical order (see above): each forest's trees, and their keys."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    decos = sorted(decorations, key=letter_rank)
    if len({letter_rank(d) for d in decos}) < len(decos) or len({type(d) for d in decos}) > 1:
        names = ", ".join(map(str, decorations))
        raise ValueError(f"decorations must be distinct letters of one alphabet, got {names}")
    trees: list = []  # every tree built so far, in canonical order
    # three parallel lists per level: each forest's trees, their keys, the index of its first tree
    forests, keys, firsts = [[()]], [[()]], [[float("inf")]]
    for m in range(1, n + 1):
        trees += _graft(decos, forests[m - 1], keys[m - 1], m)
        fs, ks, ix = [], [], []
        for i, t in enumerate(trees):  # t, then a smaller forest of trees no smaller than t
            j = m - t.key[0]
            start = bisect_left(firsts[j], i)
            fs += [(t,) + f for f in forests[j][start:]]
            ks += [(t.key,) + k for k in keys[j][start:]]
            ix += [i] * (len(firsts[j]) - start)
        forests.append(fs)
        keys.append(ks)
        firsts.append(ix)
    return decos, forests, keys


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


_TOKEN = re.compile(rf"\s*({LETTER_TOKEN}|\S)")  # a letter or one other character; \s is str.isspace


def _token_start(text: str, i: int) -> int:
    """Where token i of text starts, or len(text) past its last token."""
    starts = [m.start(1) for m in _TOKEN.finditer(text)]
    return starts[i] if i < len(starts) else len(text)


def parse_forest(text: str) -> Forest:
    """Parse the forest grammar; raises ParseError with a position on bad input."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty input, expected a forest", len(text))
    if tokens[0] == "e":
        if len(tokens) > 1:
            raise ParseError("unexpected input after the empty forest 'e'", _token_start(text, 1))
        return EMPTY_FOREST
    tokens.append("")  # the end of the text
    stack = [(None, [])]  # the open vertices as (decoration, children); the bottom one holds the trees
    i = 0
    while True:
        letter = letter_of(tokens[i])
        if letter is None:
            raise letter_error(text, _token_start(text, i))
        stack.append((letter, []))
        i += 1
        if tokens[i] == "(":
            i += 1
            continue
        while True:  # close the vertex just read, and each one whose ')' follows
            decoration, kids = stack.pop()
            kids = tuple(sorted(kids, key=_KEY) if kids[1:] else kids)  # in canonical order
            node = _TABLE.get(key := ("tree", (decoration, kids))) or table_put(key, Tree(decoration, kids), TERM_COST)
            stack[-1][1].append(node)
            tok = tokens[i]
            if tok == (";" if len(stack) == 1 else ","):
                break
            if len(stack) == 1:
                if tok:
                    pos = _token_start(text, i)
                    raise ParseError(f"unexpected trailing input {text[pos:pos + 8]!r}", pos)
                if "x" in text and "y" in text:  # in a valid text only the letters hold an x or a y
                    raise ParseError("forest mixes the x and y alphabets", 0)
                trim()
                return make_forest(stack[0][1])
            if tok != ")":
                found = repr(tok[0]) if tok else "end of input"
                raise ParseError(f"expected ')', found {found}", _token_start(text, i))
            i += 1
        i += 1


def parse_tree(text: str) -> Tree:
    """Parse a single tree; rejects forests with more than one component."""
    f = parse_forest(text)
    if len(f.trees) != 1:
        raise ParseError("expected a single tree", 0)
    return f.trees[0]
