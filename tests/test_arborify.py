"""Arborification: forests onto words, ladder sections, tree substitution.

Oracle: both flavors re-derived from the summation domain.  A simple
arborification term corresponds to a linear extension of the forest's
ancestor order (word read in decreasing rank, root landing last); a
contracting term corresponds to an order-preserving surjection onto levels,
with each level's decorations merged.  Enumerated directly with itertools.
"""

import itertools
from fractions import Fraction

import pytest

from conftest import table_cost
from arborzeta import lincomb
from arborzeta.lincomb import LinComb
from arborzeta.words import Word, X0, X1, XLetter, YLetter, merge_y, s_map, x_word, y_word
from arborzeta.forests import (
    Forest,
    Tree,
    coproduct,
    enumerate_forests,
    forest_product,
    make_forest,
    parse_forest,
    parse_tree,
    vertex,
)
from arborzeta.arborify import (
    arborify_x,
    arborify_y,
    divergence_reason_x,
    divergence_reason_y,
    ladder,
    letter_map,
    s_tree,
)

Y1, Y2 = YLetter(1), YLetter(2)


# ---------------------------------------------------------------------------
# oracles

def _poset(f: Forest):
    """Vertices as ids with decoration and strict ancestor pairs."""
    decos = []
    pairs = []

    def walk(t, ancestors):
        vid = len(decos)
        decos.append(t.decoration)
        for a in ancestors:
            pairs.append((a, vid))
        for c in t.children:
            walk(c, ancestors + (vid,))

    for t in f.trees:
        walk(t, ())
    return decos, pairs


def simple_oracle(f: Forest) -> LinComb:
    decos, pairs = _poset(f)
    n = len(decos)
    out = {}
    for perm in itertools.permutations(range(n)):
        rank = {v: i for i, v in enumerate(perm)}
        if any(rank[a] >= rank[b] for a, b in pairs):
            continue
        word = Word(tuple(decos[v] for v in reversed(perm)))
        out[word] = out.get(word, 0) + 1
    return LinComb(out)


def contracting_oracle(f: Forest) -> LinComb:
    decos, pairs = _poset(f)
    n = len(decos)
    out = {}
    for levels in range(0, n + 1):
        for assign in itertools.product(range(levels), repeat=n):
            if set(assign) != set(range(levels)):
                continue
            if any(assign[a] >= assign[b] for a, b in pairs):
                continue
            letters = []
            for lvl in range(levels - 1, -1, -1):
                group = [decos[v] for v in range(n) if assign[v] == lvl]
                merged = group[0]
                for d in group[1:]:
                    merged = merge_y(merged, d)
                letters.append(merged)
            word = Word(tuple(letters))
            out[word] = out.get(word, 0) + 1
    return LinComb(out)


class TestOracles:
    def test_simple_flavor_matches_linear_extensions(self):
        for n in range(0, 5):
            for f in enumerate_forests(n, (X0, X1)):
                assert arborify_x(f) == simple_oracle(f), str(f)

    def test_contracting_flavor_matches_level_surjections(self):
        for n in range(0, 5):
            for f in enumerate_forests(n, (Y1, Y2)):
                assert arborify_y(f) == contracting_oracle(f), str(f)


class TestTable:
    """Both maps keep their images in the package's table."""

    @pytest.mark.parametrize("fn, letters, oracle", [(arborify_y, (Y1, Y2), contracting_oracle),
                                                     (arborify_x, (X0, X1), simple_oracle)], ids=["y", "x"])
    def test_cold_warm_and_cleared_up_to_five_vertices(self, each_way, fn, letters, oracle):
        fs = [f for n in range(0, 6) for f in enumerate_forests(n, letters)]
        later = (f for n in itertools.count(6) for f in enumerate_forests(n, letters))
        each_way(fn, fn.__name__, fs, {f: oracle(f) for f in fs}, later)

    def test_an_image_over_the_budget_is_not_kept(self):
        # 7 lone vertices whose index sums never collide: 47,293 words, more than the budget
        f = parse_forest(";".join(f"y{2 ** i}" for i in range(7)))
        small = parse_forest("y2(y3)")
        arborify_y(small)
        got = arborify_y(f)
        assert lincomb.TERM_COST * len(got) > lincomb._TABLE_BUDGET
        assert lincomb._table_cost == table_cost() <= lincomb._TABLE_BUDGET
        assert ("arborify_y", f) not in lincomb._TABLE
        assert arborify_y(small) == contracting_oracle(small)

    @pytest.mark.parametrize("text, fn, other, message", [
        ("x1(x0,x0)", arborify_x, arborify_y,
         "contracting arborification needs summation (y) decorations, found x1"),
        ("y2(y1);y3", arborify_y, arborify_x,
         "simple arborification needs integration (x) decorations, found y2"),
    ])
    def test_wrong_alphabet_refused_with_the_other_entry_kept(self, text, fn, other, message):
        f = parse_forest(text)
        expected = fn(f)
        assert (fn.__name__, f) in lincomb._TABLE
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                other(f)
            assert str(exc.value) == message
            assert (other.__name__, f) not in lincomb._TABLE
        assert fn(f) == expected

    def test_maps_keep_apart_on_a_shared_argument(self):
        # the empty forest lies in both alphabets, and the coproduct is tabled too
        assert arborify_x(Forest()) == arborify_y(Forest()) == LinComb.unit(Word())
        assert {("arborify_x", Forest()), ("arborify_y", Forest())} <= set(lincomb._TABLE)
        assert coproduct(Forest()) != arborify_x(Forest())


class TestFrozenExpansions:
    def test_decorated_cherry_contracting(self):
        f = Forest((parse_tree("y3(y1,y2)"),))
        assert arborify_y(f) == LinComb(
            {
                y_word(1, 2, 3): Fraction(1),
                y_word(2, 1, 3): Fraction(1),
                y_word(3, 3): Fraction(1),
            }
        )

    def test_equal_branch_cherry_contracting(self):
        f = Forest((parse_tree("y2(y2,y2)"),))
        assert arborify_y(f) == LinComb(
            {y_word(2, 2, 2): Fraction(2), y_word(4, 2): Fraction(1)}
        )

    def test_mixed_branch_simple(self):
        f = Forest((parse_tree("x1(x0,x1(x0))"),))
        assert arborify_x(f) == LinComb(
            {x_word(0, 0, 1, 1): Fraction(2), x_word(0, 1, 0, 1): Fraction(1)}
        )

    def test_equal_branch_simple(self):
        f = Forest((parse_tree("x1(x0,x0(x0))"),))
        assert arborify_x(f) == LinComb({x_word(0, 0, 0, 1): Fraction(3)})

    def test_empty_forest(self):
        from arborzeta.forests import EMPTY_FOREST
        from arborzeta.words import EMPTY_WORD

        assert arborify_y(EMPTY_FOREST) == LinComb.unit(EMPTY_WORD)
        assert arborify_x(EMPTY_FOREST) == LinComb.unit(EMPTY_WORD)

    def test_wrong_alphabet_rejected(self):
        with pytest.raises(ValueError):
            arborify_y(Forest((parse_tree("x1(x0)"),)))
        with pytest.raises(ValueError):
            arborify_x(Forest((parse_tree("y2(y2)"),)))


class TestLetterMap:
    def test_wraps_both_flavors(self):
        for text, arb, alphabet in (("y3(y1,y2);y2", arborify_y, "y"), ("x1(x0,x1(x0))", arborify_x, "x")):
            f = parse_forest(text)
            assert LinComb({Word(ls): c for ls, c in letter_map(f, alphabet).items()}) == arb(f)

    def test_shared_subtrees(self):
        # parse_forest builds equal subtrees as one object: twins, a root that
        # is also a child, and a subtree read by two different parents
        for text in ("y3(y2(y2),y2(y2))", "y2;y3(y2)", "y2(y3(y2),y4(y3(y2)))", "y2;y2(y2);y2"):
            f = parse_forest(text)
            assert arborify_y(f) == contracting_oracle(f), text

    def test_deep_chain_memory(self):
        # a child's map is dropped once its parent is built, so a 3,000-deep
        # chain holds a few words at a time, not one word per depth
        import tracemalloc

        f = parse_forest("y1(" * 2999 + "y2" + ")" * 2999)
        tracemalloc.start()
        try:
            comb = arborify_y(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert comb == LinComb.unit(y_word(2, *[1] * 2999))  # the leaf first, the root last
        assert peak < 2 << 20, peak


class TestLadder:
    def test_root_is_last_letter(self):
        t = ladder(y_word(1, 2))
        assert t.decoration == Y2
        assert t.children[0].decoration == Y1
        assert t == parse_tree("y2(y1)")

    def test_empty_rejected(self):
        from arborzeta.words import EMPTY_WORD

        with pytest.raises(ValueError):
            ladder(EMPTY_WORD)

    def test_section_of_arborification(self):
        for k in range(1, 6):
            for letters in itertools.product((Y1, Y2), repeat=k):
                w = Word(letters)
                assert arborify_y(make_forest((ladder(w),))) == LinComb.unit(w)
            for letters in itertools.product((X0, X1), repeat=k):
                w = Word(letters)
                assert arborify_x(make_forest((ladder(w),))) == LinComb.unit(w)


class TestMorphisms:
    def test_algebra_morphism_both_flavors(self):
        ys = [f for n in range(0, 3) for f in enumerate_forests(n, (Y1, Y2))]
        from arborzeta.words import product_comb

        for f in ys:
            for g in ys:
                lhs = arborify_y(forest_product(f, g))
                rhs = product_comb(arborify_y(f), arborify_y(g), merge=merge_y)
                assert lhs == rhs
        xs = [f for n in range(0, 3) for f in enumerate_forests(n, (X0, X1))]
        for f in xs:
            for g in xs:
                assert arborify_x(forest_product(f, g)) == product_comb(
                    arborify_x(f), arborify_x(g)
                )

    def test_coalgebra_morphism_contracting(self):
        from arborzeta.forests import coproduct
        from arborzeta.lincomb import TensorPair
        from arborzeta.words import deconcat

        for n in range(0, 5):
            for f in enumerate_forests(n, (Y1, Y2)):
                lhs = LinComb()
                for w, c in arborify_y(f).items():
                    lhs = lhs + c * deconcat(w)
                rhs = LinComb()
                for p, c in coproduct(f).items():
                    for wl, cl in arborify_y(p.left).items():
                        for wr, cr in arborify_y(p.right).items():
                            rhs = rhs + LinComb.unit(TensorPair(wl, wr), c * cl * cr)
                assert lhs == rhs


class TestTreeSubstitution:
    def test_cherry_example_gives_three_six_vertex_ladders(self):
        f = Forest((parse_tree("y3(y1,y2)"),))
        got = s_tree(f)
        expected = LinComb(
            {
                make_forest((ladder(s_map(y_word(1, 2, 3))),)): Fraction(1),
                make_forest((ladder(s_map(y_word(2, 1, 3))),)): Fraction(1),
                make_forest((ladder(s_map(y_word(3, 3))),)): Fraction(1),
            }
        )
        assert got == expected
        # every resulting ladder carries the full weight as its length
        for forest, _ in got.items():
            (tree,) = forest.trees
            assert _ladder_length(tree) == 6

    def test_intertwines_substitution_and_arborification(self):
        for n in range(0, 4):
            for f in enumerate_forests(n, (Y1, Y2)):
                lhs = LinComb()
                for forest, c in s_tree(f).items():
                    lhs = lhs + c * arborify_x(forest)
                rhs = arborify_y(f).map_basis(s_map)
                assert lhs == rhs


def _ladder_length(t: Tree) -> int:
    length = 1
    while t.children:
        (t,) = t.children
        length += 1
    return length


class TestConvergencePredicates:
    def test_y_trees(self):
        assert divergence_reason_y(Forest((parse_tree("y2(y2,y2)"),))) is None
        # an inner y1 on the path is fine; a y1 leaf is not
        assert divergence_reason_y(Forest((parse_tree("y2(y1(y2))"),))) is None
        assert divergence_reason_y(Forest((parse_tree("y2(y1)"),))) is not None
        reason = divergence_reason_y(Forest((parse_tree("y3(y1,y2)"),)))
        assert reason is not None and "y1" in reason

    def test_inner_y1_is_fine(self):
        # only leaves force divergence in the nested sum
        assert divergence_reason_y(Forest((parse_tree("y1(y2)"),))) is None

    def test_x_trees(self):
        assert divergence_reason_x(Forest((parse_tree("x1(x0)"),))) is None
        assert divergence_reason_x(Forest((parse_tree("x1(x0,x1(x0))"),))) is None
        assert divergence_reason_x(Forest((vertex(X1),))) is not None
        assert divergence_reason_x(Forest((parse_tree("x0(x0)"),))) is not None
        assert divergence_reason_x(Forest((parse_tree("x1(x1)"),))) is not None

    def test_divergence_reasons_name_the_culprit(self):
        assert "root" in divergence_reason_x(Forest((parse_tree("x0(x0)"),)))
        assert "leaf" in divergence_reason_x(Forest((parse_tree("x1(x1)"),)))
        assert "single vertex" in divergence_reason_x(Forest((vertex(X0),)))

    def test_empty_forest_converges(self):
        from arborzeta.forests import EMPTY_FOREST

        assert divergence_reason_y(EMPTY_FOREST) is None
        assert divergence_reason_x(EMPTY_FOREST) is None

    def test_convergence_matches_word_expansion(self):
        from arborzeta.words import is_convergent_x, is_convergent_y

        for n in range(1, 5):
            for f in enumerate_forests(n, (Y1, Y2)):
                words_ok = all(is_convergent_y(w) for w, _ in arborify_y(f).items())
                assert (divergence_reason_y(f) is None) == words_ok
            for f in enumerate_forests(n, (X0, X1)):
                words_ok = all(is_convergent_x(w) for w, _ in arborify_x(f).items())
                assert (divergence_reason_x(f) is None) == words_ok
