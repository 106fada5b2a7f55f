"""Decorated rooted forests: canonical forms, coproduct, enumeration.

Two oracles anchor this module.  The coproduct oracle enumerates vertex
subsets directly and keeps those closed under taking parents (the trunks);
the census oracle builds every decorated tree from parent arrays and counts
distinct canonical forms.  Both are independent of the implementation's
recursions.  A third reference, the grafting recursion with every product
started from the unit pair e (x) e, pins the coproduct's first-tree start.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import table_cost

from arborzeta import lincomb
from arborzeta.lincomb import LinComb, TensorPair, bilinear
from arborzeta.words import X0, X1, YLetter
from arborzeta.forests import (
    EMPTY_FOREST,
    Forest,
    ParseError,
    Tree,
    _pair_product,
    bottom_up,
    bplus,
    coproduct,
    counit,
    enumerate_forests,
    enumerate_trees,
    forest_product,
    forest_weight,
    grade,
    make_forest,
    make_tree,
    parse_forest,
    parse_tree,
    print_tree,
    size,
    tree_weight,
    vertex,
)

Y1, Y2, Y3 = YLetter(1), YLetter(2), YLetter(3)


# ---------------------------------------------------------------------------
# oracle 1: coproduct by direct subset enumeration

def _vertex_paths(f: Forest):
    paths = []

    def walk(t, path):
        paths.append((path, t.decoration))
        for i, c in enumerate(t.children):
            walk(c, path + (i,))

    for i, t in enumerate(f.trees):
        walk(t, (i,))
    return paths


def downset_coproduct(f: Forest) -> LinComb:
    """Every parent-closed vertex subset is a trunk; its complement, closed
    under children, splits into the crown's complete subtrees."""
    paths = _vertex_paths(f)
    index = {p: d for p, d in paths}
    out = LinComb()
    for bits in itertools.product((0, 1), repeat=len(paths)):
        trunk_set = {p for (p, _), b in zip(paths, bits) if b}
        if any(len(p) > 1 and p[:-1] not in trunk_set for p in trunk_set):
            continue

        def rebuild(path, keep):
            kids = []
            i = 0
            while path + (i,) in index:
                child = path + (i,)
                if child in keep:
                    kids.append(rebuild(child, keep))
                i += 1
            return make_tree(index[path], tuple(kids))

        trunk_trees = [rebuild((i,), trunk_set) for i in range(len(f.trees)) if (i,) in trunk_set]
        crown_set = {p for p, _ in paths if p not in trunk_set}
        crown_roots = [p for p in crown_set if len(p) == 1 or p[:-1] not in crown_set]
        crown_trees = [rebuild(p, crown_set) for p in crown_roots]
        out = out + LinComb.unit(
            TensorPair(make_forest(tuple(crown_trees)), make_forest(tuple(trunk_trees)))
        )
    return out


# ---------------------------------------------------------------------------
# oracle 2: census by labeled parent arrays

def labeled_census(n: int, decorations) -> set:
    """All decorated rooted trees on n vertices as canonical forms, built
    from parent arrays parent[i] < i (every shape occurs at least once)."""
    found = set()
    parent_choices = [range(i) for i in range(1, n)]
    for parents in itertools.product(*parent_choices):
        for decos in itertools.product(decorations, repeat=n):
            children = {i: [] for i in range(n)}
            for i, p in enumerate(parents, start=1):
                children[i] = children.get(i, [])
                children[p].append(i)

            def build(i):
                return make_tree(decos[i], tuple(build(c) for c in children[i]))

            found.add(build(0))
    return found


TWO_DECO_FORESTS = [f for n in range(0, 5) for f in enumerate_forests(n, (Y1, Y2))]


def _check_each_way(each_way, letters, oracle):
    """coproduct agrees with the oracle on every forest of up to 5 vertices over
    the two letters, asked for three ways: with the table empty, again with it
    warm, and in reverse order once more distinct forests than its budget have
    cleared it.  Each vertex's one-tree forest is among
    the forests, so they are exactly the coproduct entries of the warm table."""
    fs = [f for n in range(0, 6) for f in enumerate_forests(n, letters)]
    later = (f for n in itertools.count(6) for f in enumerate_forests(n, letters))
    each_way(coproduct, "coproduct", fs, {f: oracle(f) for f in fs}, later)


class TestCoproductOracle:
    def test_matches_downset_enumeration_on_all_small_forests(self, each_way):
        _check_each_way(each_way, (Y1, Y2), downset_coproduct)

    def test_matches_on_x_decorated(self, each_way):
        _check_each_way(each_way, (X0, X1), downset_coproduct)


def unit_start_coproduct(f: Forest) -> LinComb:
    """The grafting recursion with every forest product started from e (x) e,
    uncached: the form coproduct had before its products started from the
    first tree."""
    total = LinComb.unit(TensorPair(EMPTY_FOREST, EMPTY_FOREST))
    for t in f.trees:
        grafted = unit_start_coproduct(Forest(t.children)).map_basis(
            lambda p, t=t: TensorPair(p.left, make_forest((bplus(t.decoration, p.right),)))
        )
        tree_cop = grafted + LinComb.unit(TensorPair(make_forest((t,)), EMPTY_FOREST))
        total = bilinear(_pair_product, total, tree_cop)
    return total


class TestCoproductUnitStart:
    @pytest.mark.parametrize("letters", [(Y1, Y2), (X0, X1)], ids=["y", "x"])
    def test_matches_unit_start_up_to_five_vertices(self, letters, each_way):
        _check_each_way(each_way, letters, unit_start_coproduct)

    def test_empty_forest_is_the_unit_pair(self):
        assert unit_start_coproduct(EMPTY_FOREST) == LinComb.unit(TensorPair(EMPTY_FOREST, EMPTY_FOREST))
        assert coproduct(EMPTY_FOREST) == LinComb.unit(TensorPair(EMPTY_FOREST, EMPTY_FOREST))


class TestCensusOracle:
    def test_single_decoration_counts(self):
        for n, expected in [(1, 1), (2, 1), (3, 2), (4, 4)]:
            assert len(labeled_census(n, (Y1,))) == expected

    def test_two_decoration_counts(self):
        assert len(labeled_census(1, (Y1, Y2))) == 2
        assert len(labeled_census(2, (Y1, Y2))) == 4
        assert len(labeled_census(3, (Y1, Y2))) == 14

    def test_enumerate_trees_equals_census(self):
        for decorations in ((Y1, Y2), (Y1, Y2, Y3)):
            for n in range(1, 6):
                trees = enumerate_trees(n, decorations)
                assert set(trees) == labeled_census(n, decorations)
                # each census tree is grafted from a forest record, not by Tree(...)
                for t in trees:
                    for other in (Tree(t.decoration, t.children), parse_tree(print_tree(t))):
                        assert other == t and hash(other) == hash(t) and other.key == t.key


class TestEnumeration:
    def test_undecorated_tree_counts(self):
        counts = [len(enumerate_trees(n, (Y1,))) for n in range(1, 6)]
        assert counts == [1, 1, 2, 4, 9]

    def test_two_decoration_tree_counts(self):
        # OEIS A038055
        counts = [len(enumerate_trees(n, (Y1, Y2))) for n in range(1, 7)]
        assert counts == [2, 4, 14, 52, 214, 916]
        assert [len(enumerate_trees(n, (X1, X0))) for n in range(1, 5)] == [2, 4, 14, 52]

    def test_forest_counts_shift_tree_counts(self):
        # grafting everything under a fresh root is a bijection between
        # forests of n vertices and trees of n+1
        for n in range(0, 5):
            assert len(enumerate_forests(n, (Y1,))) == len(enumerate_trees(n + 1, (Y1,)))

    def test_no_duplicates_and_sorted(self):
        for n in range(1, 6):
            trees = enumerate_trees(n, (Y2, Y1))
            assert len(trees) == len(set(trees))
            assert all(size(t) == n for t in trees)
            assert all(a.key < b.key for a, b in zip(trees, trees[1:]))
            assert all(make_tree(t.decoration, t.children).children == t.children for t in trees)

    def test_forests_canonical_and_sorted(self):
        for n in range(0, 5):
            forests = enumerate_forests(n, (Y1, Y2))
            keys = [tuple(t.key for t in f.trees) for f in forests]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert all(make_forest(f.trees) == f and grade(f) == n for f in forests)
            assert len(forests) == len(enumerate_trees(n + 1, (Y1, Y2))) // 2

    @pytest.mark.parametrize("decorations", [(Y1, Y1), (Y1, X1), (Y2, X1), (X0, X0, X1)])
    def test_repeated_or_mixed_decorations_rejected(self, decorations):
        names = ", ".join(map(str, decorations))
        for enumerate_ in (enumerate_trees, enumerate_forests):
            with pytest.raises(ValueError, match=names):
                enumerate_(3, decorations)

    def test_negative_size_rejected(self):
        for enumerate_ in (enumerate_trees, enumerate_forests):
            with pytest.raises(ValueError):
                enumerate_(-1, (Y1,))

    def test_enumerate_forests_small(self):
        assert enumerate_forests(0, (Y1,)) == [EMPTY_FOREST]
        two = enumerate_forests(2, (Y1,))
        assert len(two) == 2  # the 2-ladder and the pair of single vertices


class TestCanonicalForm:
    def test_child_order_is_canonical(self):
        a = make_tree(Y1, (vertex(Y2), vertex(Y1)))
        b = make_tree(Y1, (vertex(Y1), vertex(Y2)))
        assert a == b

    def test_forest_order_is_canonical(self):
        f = make_forest((vertex(Y2), vertex(Y1)))
        g = make_forest((vertex(Y1), vertex(Y2)))
        assert f == g

    def test_parse_normalizes(self):
        assert parse_tree("y1(y2,y1)") == parse_tree("y1(y1,y2)")
        assert parse_forest("y2;y1") == parse_forest("y1;y2")

    def test_stored_forest_hash(self):
        for f in TWO_DECO_FORESTS:
            assert f._hash == hash(f.trees) == hash(f)
            assert hash(parse_forest(str(f))) == hash(f)
        assert EMPTY_FOREST._hash == hash(())

    def test_stored_key_and_hash(self):
        def ref_size(t):
            return 1 + sum(ref_size(c) for c in t.children)

        def ref_key(t):
            rank = t.decoration.value if t.decoration in (X0, X1) else t.decoration.index
            return (ref_size(t), rank, tuple(ref_key(c) for c in t.children))

        for n in range(1, 6):
            for t in enumerate_trees(n, (Y1, Y2)) + enumerate_trees(n, (X0, X1)) + enumerate_trees(n, (Y1, Y2, Y3)):
                assert t.key == ref_key(t)
                assert t._hash == hash((t.decoration, t.children))
                assert size(t) == n
                flipped = make_tree(t.decoration, reversed(t.children))
                rebuilt = Tree(t.decoration, tuple(parse_tree(print_tree(c)) for c in t.children))
                for other in (flipped, rebuilt):
                    assert other == t and hash(other) == hash(t) and other.key == t.key

    def test_grade_size_weight(self):
        t = parse_tree("y3(y1,y2(y2))")
        assert size(t) == 4
        assert tree_weight(t) == 8
        f = parse_forest("y3(y1,y2(y2));y2")
        assert grade(f) == 5
        assert forest_weight(f) == 10
        assert grade(EMPTY_FOREST) == 0

    def test_forest_product(self):
        f = parse_forest("y1;y2")
        g = parse_forest("y1(y1)")
        assert forest_product(f, g) == parse_forest("y1;y1(y1);y2")
        assert forest_product(f, EMPTY_FOREST) == f


class TestCoproductStructure:
    def test_counit(self):
        assert counit(EMPTY_FOREST) == Fraction(1)
        assert counit(parse_forest("y1")) == Fraction(0)

    def test_ladder_display(self):
        dot = vertex(Y1)
        l2 = bplus(Y1, make_forest((dot,)))
        f = make_forest((l2,))
        fd = make_forest((dot,))
        assert coproduct(f) == LinComb(
            {
                TensorPair(f, EMPTY_FOREST): Fraction(1),
                TensorPair(EMPTY_FOREST, f): Fraction(1),
                TensorPair(fd, fd): Fraction(1),
            }
        )

    def test_cherry_display_has_coefficient_two(self):
        dot = vertex(Y1)
        l2 = bplus(Y1, make_forest((dot,)))
        cherry = bplus(Y1, make_forest((dot, dot)))
        f = make_forest((cherry,))
        assert coproduct(f) == LinComb(
            {
                TensorPair(f, EMPTY_FOREST): Fraction(1),
                TensorPair(EMPTY_FOREST, f): Fraction(1),
                TensorPair(make_forest((dot,)), make_forest((l2,))): Fraction(2),
                TensorPair(make_forest((dot, dot)), make_forest((dot,))): Fraction(1),
            }
        )

    def test_empty_forest(self):
        assert coproduct(EMPTY_FOREST) == LinComb.unit(TensorPair(EMPTY_FOREST, EMPTY_FOREST))

    def test_multiplicative_over_forest_product(self):
        pairs = [
            (parse_forest("y1"), parse_forest("y2")),
            (parse_forest("y1(y2)"), parse_forest("y1")),
            (parse_forest("y1;y1"), parse_forest("y2(y1)")),
        ]
        for f, g in pairs:
            lhs = coproduct(forest_product(f, g))
            rhs = LinComb()
            for p, cp in coproduct(f).items():
                for q, cq in coproduct(g).items():
                    rhs = rhs + LinComb.unit(
                        TensorPair(forest_product(p.left, q.left), forest_product(p.right, q.right)),
                        cp * cq,
                    )
            assert lhs == rhs

    def test_cocycle_identity(self):
        for n in range(0, 4):
            for f in enumerate_forests(n, (Y1, Y2)):
                for d in (Y1, Y2):
                    t = bplus(d, f)
                    lhs = coproduct(make_forest((t,)))
                    rhs = LinComb.unit(TensorPair(make_forest((t,)), EMPTY_FOREST)) + coproduct(f).map_basis(
                        lambda p, d=d: TensorPair(p.left, make_forest((bplus(d, p.right),)))
                    )
                    assert lhs == rhs

    def test_coassociativity_exhaustive(self):
        for f in TWO_DECO_FORESTS:
            lhs = LinComb()
            rhs = LinComb()
            for p, c in coproduct(f).items():
                for q, d in coproduct(p.left).items():
                    lhs = lhs + LinComb.unit((q.left, q.right, p.right), c * d)
                for q, d in coproduct(p.right).items():
                    rhs = rhs + LinComb.unit((p.left, q.left, q.right), c * d)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# equality and printing at any depth, and equality against printing

def _chain(depth, top):
    """A y2 leaf under depth - 2 y1 vertices under a root decorated top, built bottom-up."""
    t = vertex(Y2)
    for _ in range(depth - 2):
        t = Tree(Y1, (t,))
    return Tree(top, (t,))


def _build(decos, parents):
    # vertex i > 0 hangs under parents[i - 1] < i, so building from the last
    # vertex down finishes every vertex's children before the vertex itself
    kids = [[] for _ in decos]
    for i in range(len(decos) - 1, 0, -1):
        kids[parents[i - 1]].append(make_tree(decos[i], kids[i]))
    return make_tree(decos[0], kids[0])


@st.composite
def tree_specs(draw, letters):
    n = draw(st.integers(1, 6))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    return draw(st.lists(st.sampled_from(letters), min_size=n, max_size=n)), parents


class TestDeepTrees:
    def test_separately_built_deep_chains_compare(self):
        a, b = _chain(5000, Y1), _chain(5000, Y1)
        assert a is not b and a.children[0] is not b.children[0]
        assert a == b and hash(a) == hash(b)
        assert a != _chain(5000, Y2)
        assert make_forest((a, vertex(Y1))) == make_forest((vertex(Y1), b))

    def test_deep_chain_coproduct(self):
        # the fold keeps its own order, so any depth goes; the chain's O(depth^2)
        # terms in one-tree entries leave the table when the call ends
        got = coproduct(Forest((_chain(500, Y1),)))
        assert len(got) == 501
        assert sorted(grade(p.left) for p, _ in got.items()) == list(range(501))
        assert all(grade(p.left) + grade(p.right) == 500 and c == 1 for p, c in got.items())
        assert lincomb._table_cost == table_cost() <= lincomb._TABLE_BUDGET

    def test_deep_chain_prints(self):
        assert print_tree(_chain(5000, Y1)) == "y1(" * 4999 + "y2" + ")" * 4999

    def test_deep_chain_parses(self):
        text = "y1(" * 4999 + "y2" + ")" * 4999
        assert parse_tree(text) == _chain(5000, Y1)
        assert str(parse_forest(f"{text};y3( {text} )")) == f"{text};y3({text})"

    def test_equal_subtrees_parse_to_one_object(self):
        c = "y1(" * 599 + "y2" + ")" * 599
        t = parse_tree(f"y3({c},{c})")
        assert t.children[0] is t.children[1]
        assert t == Tree(YLetter(3), (_chain(600, Y1), _chain(600, Y1)))

    def test_bottom_up(self):
        f = parse_forest("y3(y1,y2(y1));y1;y2(y2)")
        order = bottom_up(f.trees)
        assert len(order) == grade(f)
        for i, t in enumerate(order):  # every child comes before its parent
            assert all(c in order[:i] for c in t.children)
        # a subtree in known is left out with its descendants
        assert [print_tree(t) for t in order] == ["y1", "y2", "y2(y2)", "y1", "y1", "y2(y1)", "y3(y1,y2(y1))"]
        assert [print_tree(t) for t in bottom_up(f.trees, {parse_tree("y2(y1)")})] == [
            "y1", "y2", "y2(y2)", "y1", "y3(y1,y2(y1))"]
        deep = _chain(5000, Y1)
        assert len(bottom_up((deep,))) == 5000 and bottom_up((deep,))[-1] is deep
        assert tree_weight(deep) == 5001

    @given(st.sampled_from([(Y1, Y2, YLetter(3)), (X0, X1)]).flatmap(
        lambda letters: st.tuples(tree_specs(letters), tree_specs(letters), st.booleans())))
    @settings(max_examples=300, deadline=None)
    def test_equal_exactly_when_printed_equal(self, specs):
        spec_a, spec_b, same = specs
        # the same spec built twice gives an equal tree made of distinct objects
        a, b = _build(*spec_a), _build(*(spec_a if same else spec_b))
        assert (a == b) == (print_tree(a) == print_tree(b))
        if a == b:
            assert hash(a) == hash(b)


class TestParsePrint:
    def test_round_trip_all_small(self):
        for f in TWO_DECO_FORESTS:
            assert parse_forest(str(f)) == f
        for n in range(1, 4):
            for t in enumerate_trees(n, (X0, X1)):
                assert parse_tree(print_tree(t)) == t

    def test_examples(self):
        t = parse_tree("y3(y1,y2)")
        assert t == make_tree(YLetter(3), (vertex(Y1), vertex(Y2)))
        assert parse_forest("e") == EMPTY_FOREST
        assert str(EMPTY_FOREST) == "e"

    def test_nested(self):
        t = parse_tree("x1(x0,x1(x0))")
        assert size(t) == 4
        assert t.decoration == X1

    @pytest.mark.parametrize(
        "text",
        ["y1(", "y1)", "y1(y2", "y1()", "y1(,y2)", "y1(y2,)", "y1(x0)", "y1;;y2", "", "e;y1", "y1 y2"],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_forest(text)

    @pytest.mark.parametrize("text, position", [("y2(y3);", 7), ("y2(y3,", 6), ("y2(y3, ", 7), ("y2(", 3)])
    def test_end_of_input_named(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_forest(text)
        assert str(info.value) == (
            f"expected a letter token (x0, x1, or y<n>), found end of input (at position {position})"
        )

    @pytest.mark.parametrize("text, message", [
        ("y1(y2", "expected ')', found end of input (at position 5)"),
        ("y1(y2 y3)", "expected ')', found 'y' (at position 6)"),
    ])
    def test_expected_token_named(self, text, message):
        # the end of input is named as the letter parser names it, unquoted
        with pytest.raises(ParseError) as info:
            parse_forest(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("y2(y3,)", "expected a letter token (x0, x1, or y<n>), found ')' (at position 6)"),
        ("(y2)", "expected a letter token (x0, x1, or y<n>), found '(y2)' (at position 0)"),
        ("y2(y3 y4)", "expected ')', found 'y' (at position 6)"),
        ("y2(y3(y4),y5 ;", "expected ')', found ';' (at position 13)"),
        ("y2(y3),y4", "unexpected trailing input ',y4' (at position 6)"),
        ("y2(y3))", "unexpected trailing input ')' (at position 6)"),
        ("e y2", "unexpected input after the empty forest 'e' (at position 2)"),
        (" e(", "unexpected input after the empty forest 'e' (at position 2)"),
        ("   ", "empty input, expected a forest (at position 3)"),
        ("", "empty input, expected a forest (at position 0)"),
        ("y2(x0)", "forest mixes the x and y alphabets (at position 0)"),
        ("y2;x1", "forest mixes the x and y alphabets (at position 0)"),
    ])
    def test_every_error_site(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_forest(text)
        assert str(info.value) == message

    def test_tree_rejects_forest(self):
        with pytest.raises(ParseError):
            parse_tree("y1;y2")
