"""Arborification morphisms between forests and words.

Both maps send a decorated forest to a linear combination of words and are
the unique Hopf-algebra morphisms turning grafting into right concatenation:
arborify(B+_d(f)) appends the letter d to every word of arborify(f).  On a
product of trees the simple flavor multiplies with the shuffle and the
contracting flavor with the quasi-shuffle, so the simple expansion counts the
linear extensions of the forest order while the contracting expansion also
collects the degenerate extensions where incomparable vertices merge.
``arborify_x`` and ``arborify_y`` are ``tabled`` (see ``lincomb``); a forest
of the other alphabet is refused and enters nothing in the table.

The ladder map is a section of both flavors: it turns a nonempty word into
the linear tree whose root carries the last letter and whose top vertex
carries the first, so arborify(ladder(w)) = w for every word w.

The tree-level block substitution sends a summation forest to a combination
of integration ladders by substituting blocks inside the contracting
expansion; composing it with the simple arborification recovers the word
level substitution applied to the contracting expansion.
"""

from __future__ import annotations

from typing import Optional

from .lincomb import LinComb, tabled
from .forests import EMPTY_FOREST, Forest, Tree, bottom_up, make_tree
from .words import (
    Word,
    XLetter,
    YLetter,
    X0,
    X1,
    as_comb,
    interleave_sum,
    merge_code,
    s_map,
)


def _product(maps: list, merge) -> dict:
    # the product of the trees' maps code string -> coefficient; the empty forest
    # gives the unit word, any other forest's product starts from its first tree
    total = maps[0] if maps else {"": 1}
    for m in maps[1:]:
        total = interleave_sum(total, m, merge)
    return total


_FLAVORS = {"x": (None, XLetter, "simple arborification needs integration (x)"),
            "y": (merge_code, YLetter, "contracting arborification needs summation (y)")}


def alphabet_of(f: Forest) -> str:
    """The flavor f's decorations choose, read off its first root: "x" (simple), else "y" (contracting; e too)."""
    return "x" if f.trees and isinstance(f.trees[0].decoration, XLetter) else "y"


def letter_map(f: Forest, alphabet: str) -> dict:
    """arborify_x (alphabet "x") or arborify_y ("y") of f as a map word code string -> coefficient."""
    merge, letter_type, needs = _FLAVORS[alphabet]
    order = bottom_up(f.trees)
    for t in reversed(order):  # roots first: a forest of the other alphabet is named by its last root
        if not isinstance(t.decoration, letter_type):
            raise ValueError(f"{needs} decorations, found {t.decoration}")
    # The walk puts a vertex's children, in order, right before it, so the maps of subtrees
    # whose parent is not built yet form a stack with those children on top; a child's map is
    # dropped once its parent's is built, and a repeated subtree is expanded again
    maps: list = []
    for t in order:
        kids = maps[len(maps) - len(t.children):]
        del maps[len(maps) - len(t.children):]
        d = t.decoration._code
        maps.append({ls + d: c for ls, c in _product(kids, merge).items()})
    return _product(maps, merge)


@tabled
def arborify_x(f: Forest) -> LinComb:
    """Simple arborification: shuffle over trees, decorations from {x0, x1}."""
    return as_comb(letter_map(f, "x"))


@tabled
def arborify_y(f: Forest) -> LinComb:
    """Contracting arborification: quasi-shuffle over trees, y-decorations."""
    return as_comb(letter_map(f, "y"))


def ladder(w: Word) -> Tree:
    """Linear tree for a nonempty word: root gets the last letter."""
    if not w.letters:
        raise ValueError("the empty word has no ladder tree")
    t: Optional[Tree] = None
    for letter in w.letters:
        t = make_tree(letter, () if t is None else (t,))
    return t


def s_tree(f: Forest) -> LinComb:
    """Tree-level block substitution: y-forest to combination of x-ladders."""

    def to_ladder_forest(w: Word) -> Forest:
        if not w.letters:
            return EMPTY_FOREST
        return Forest((ladder(s_map(w)),))

    return arborify_y(f).map_basis(to_ladder_forest)


def divergence_reason_y(f: Forest) -> Optional[str]:
    """None when every leaf carries an index >= 2 (a single vertex is its own
    leaf), else a message naming the offending vertex."""
    for leaf in bottom_up(f.trees):
        if not leaf.children:
            d = leaf.decoration
            if not isinstance(d, YLetter):
                raise ValueError(f"expected y-decorations, found {d}")
            if d.index < 2:
                return f"leaf decorated {d} makes the nested sum divergent (needs index >= 2)"
    return None


def divergence_reason_x(f: Forest) -> Optional[str]:
    """None when every root is x1 and every leaf x0 (so a single vertex never
    converges), else a message naming the offending vertex."""
    for t in f.trees:
        d = t.decoration
        if not isinstance(d, XLetter):
            raise ValueError(f"expected x-decorations, found {d}")
        if not t.children:
            return "a single vertex is both root and leaf, so the tree cannot converge"
        if d != X1:
            return f"root decorated {d} makes the value divergent (root must be x1)"
        for leaf in bottom_up((t,)):
            if not leaf.children and leaf.decoration != X0:
                return f"leaf decorated {leaf.decoration} makes the value divergent (leaves must be x0)"
    return None
