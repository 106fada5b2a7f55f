"""Words, shuffle and quasi-shuffle products, block substitution.

The oracles at the top re-derive both products from their definitions
(position-subset interleavings, jointly surjective order-preserving pairs)
without the recursion used by the implementation.
"""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arborzeta import words
from arborzeta.lincomb import LinComb, TensorPair, bilinear
from arborzeta.words import (
    EMPTY_WORD,
    ParseError,
    Word,
    X0,
    X1,
    XLetter,
    YLetter,
    concat,
    deconcat,
    decode,
    encode,
    is_convergent_x,
    is_convergent_y,
    merge_y,
    parse_word,
    product_comb,
    quasi_shuffle,
    s_inverse,
    s_map,
    shuffle,
    weight,
    x_word,
    y_letter,
    y_word,
)


# ---------------------------------------------------------------------------
# oracles: definitions re-derived with raw itertools, no shared code

def shuffle_oracle(u: Word, v: Word) -> LinComb:
    """Sum over position subsets: choose which slots of the result take u."""
    m, n = len(u.letters), len(v.letters)
    out = {}
    for spots in itertools.combinations(range(m + n), m):
        taken = set(spots)
        ui = iter(u.letters)
        vi = iter(v.letters)
        letters = tuple(next(ui) if i in taken else next(vi) for i in range(m + n))
        w = Word(letters)
        out[w] = out.get(w, 0) + 1
    return LinComb(out)


def quasi_shuffle_oracle(u: Word, v: Word) -> LinComb:
    """Sum over jointly surjective order-preserving placements of u and v.

    For each target length L, choose the slot sets A (letters of u) and B
    (letters of v) with A union B covering all L slots; slots in both get the
    merged letter.
    """
    m, n = len(u.letters), len(v.letters)
    out = {}
    for overlap in range(0, min(m, n) + 1):
        L = m + n - overlap
        for A in itertools.combinations(range(L), m):
            for B in itertools.combinations(range(L), n):
                if set(A) | set(B) != set(range(L)):
                    continue
                ui = iter(u.letters)
                vi = iter(v.letters)
                setA, setB = set(A), set(B)
                letters = []
                for i in range(L):
                    if i in setA and i in setB:
                        letters.append(merge_y(next(ui), next(vi)))
                    elif i in setA:
                        letters.append(next(ui))
                    else:
                        letters.append(next(vi))
                w = Word(tuple(letters))
                out[w] = out.get(w, 0) + 1
    return LinComb(out)


X_WORDS = [x_word(*bits) for k in range(0, 4) for bits in itertools.product((0, 1), repeat=k)]
Y_WORDS = [y_word(*ix) for k in range(0, 4) for ix in itertools.product((1, 2, 3), repeat=k)]


class TestProductOracles:
    def test_shuffle_matches_interleaving_definition(self):
        for u in X_WORDS:
            for v in X_WORDS:
                if len(u.letters) + len(v.letters) <= 5:
                    assert shuffle(u, v) == shuffle_oracle(u, v), (u, v)

    def test_quasi_shuffle_matches_surjection_definition(self):
        small = [w for w in Y_WORDS if len(w.letters) <= 2]
        for u in small:
            for v in small:
                assert quasi_shuffle(u, v) == quasi_shuffle_oracle(u, v), (u, v)

    def test_quasi_shuffle_three_by_two(self):
        u = y_word(1, 2, 1)
        v = y_word(2, 3)
        assert quasi_shuffle(u, v) == quasi_shuffle_oracle(u, v)


class TestFrozenProducts:
    def test_ten_term_shuffle(self):
        got = shuffle(x_word(0, 1), x_word(0, 0, 1))
        assert got == LinComb(
            {
                x_word(0, 1, 0, 0, 1): Fraction(1),
                x_word(0, 0, 1, 0, 1): Fraction(3),
                x_word(0, 0, 0, 1, 1): Fraction(6),
            }
        )
        assert sum(c for _, c in got.items()) == 10

    def test_depth_one_quasi_shuffle(self):
        assert quasi_shuffle(y_word(2), y_word(3)) == LinComb(
            {y_word(2, 3): Fraction(1), y_word(3, 2): Fraction(1), y_word(5): Fraction(1)}
        )

    def test_divergent_letter_square(self):
        assert quasi_shuffle(y_word(1), y_word(1)) == LinComb(
            {y_word(1, 1): Fraction(2), y_word(2): Fraction(1)}
        )

    def test_empty_word_is_unit(self):
        w = x_word(0, 1)
        assert shuffle(w, EMPTY_WORD) == LinComb.unit(w)
        assert quasi_shuffle(y_word(2), EMPTY_WORD) == LinComb.unit(y_word(2))
        assert shuffle(EMPTY_WORD, EMPTY_WORD) == LinComb.unit(EMPTY_WORD)


class TestProductAlgebra:
    @given(st.lists(st.integers(1, 3), max_size=3), st.lists(st.integers(1, 3), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_quasi_shuffle_commutes(self, a, b):
        assert quasi_shuffle(y_word(*a), y_word(*b)) == quasi_shuffle(y_word(*b), y_word(*a))

    @given(
        st.lists(st.integers(0, 1), max_size=2),
        st.lists(st.integers(0, 1), max_size=2),
        st.lists(st.integers(0, 1), max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_shuffle_associates(self, a, b, c):
        from arborzeta.words import product_comb

        u, v, w = x_word(*a), x_word(*b), x_word(*c)
        lhs = product_comb(shuffle(u, v), LinComb.unit(w))
        rhs = product_comb(LinComb.unit(u), shuffle(v, w))
        assert lhs == rhs

    @given(st.lists(st.integers(1, 2), max_size=2), st.lists(st.integers(1, 2), max_size=2),
           st.lists(st.integers(1, 2), max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_quasi_shuffle_associates(self, a, b, c):
        from arborzeta.words import product_comb

        u, v, w = y_word(*a), y_word(*b), y_word(*c)
        lhs = product_comb(quasi_shuffle(u, v), LinComb.unit(w), merge=merge_y)
        rhs = product_comb(LinComb.unit(u), quasi_shuffle(v, w), merge=merge_y)
        assert lhs == rhs


signed = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-3, 2)])


def small_combs(letters):
    words = st.lists(st.sampled_from(letters), max_size=3).map(lambda ls: Word(tuple(ls)))
    return st.lists(st.tuples(words, signed), max_size=4).map(LinComb)


def stored_and_nonzero(comb):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for _, c in comb.items()) \
        and all(c for _, c in comb.items())


class TestProductComb:
    """product_comb sums its terms itself; it must equal the bilinear extension."""

    def test_cancelling_terms_are_dropped(self):
        a = LinComb({y_word(1): 1, y_word(2): -1})
        b = LinComb({y_word(1): Fraction(1, 2), y_word(2): Fraction(1, 2)})
        got = product_comb(a, b)
        assert got == LinComb({y_word(1, 1): 1, y_word(2, 2): -1})
        assert stored_and_nonzero(got) and type(got.coeff(y_word(1, 1))) is int

    @given(small_combs([YLetter(1), YLetter(2)]), small_combs([YLetter(1), YLetter(2)]))
    @settings(max_examples=80, deadline=None)
    def test_y_combinations(self, a, b):
        for merge, product, oracle in ((None, shuffle, shuffle_oracle), (merge_y, quasi_shuffle, quasi_shuffle_oracle)):
            got = product_comb(a, b, merge)
            assert got == bilinear(lambda u, v: product(u, v), a, b)
            assert got == bilinear(oracle, a, b)
            assert stored_and_nonzero(got)

    @given(small_combs([X0, X1]), small_combs([X0, X1]))
    @settings(max_examples=40, deadline=None)
    def test_x_combinations(self, a, b):
        got = product_comb(a, b)
        assert got == bilinear(lambda u, v: shuffle(u, v), a, b) == bilinear(shuffle_oracle, a, b)
        assert stored_and_nonzero(got)


class TestWordHash:
    def test_stored_hash(self):
        built = [parse_word("y2.y3.y1"), y_word(2, 3, 1), concat(y_word(2), y_word(3, 1)),
                 Word((YLetter(2),) + (YLetter(3), YLetter(1)))]
        for w in built:
            assert w == built[0]
            assert hash(w) == hash(built[0])
            assert w._hash == hash(w.letters)
        assert len(set(built)) == 1
        assert EMPTY_WORD._hash == hash(())


class TestLetters:
    def test_letter_validation(self):
        with pytest.raises(ValueError):
            XLetter(2)
        with pytest.raises(ValueError):
            YLetter(0)

    def test_letter_tokens(self):
        assert str(X0) == "x0" and str(X1) == "x1"
        assert str(YLetter(12)) == "y12"

    def test_merge(self):
        assert merge_y(YLetter(2), YLetter(3)) == YLetter(5)

    def test_bool_rejected(self):
        for bad in (lambda: YLetter(True), lambda: XLetter(True), lambda: XLetter(False),
                    lambda: x_word(True, 1), lambda: y_word(2, True)):
            with pytest.raises(ValueError):
                bad()

    def test_non_int_rejected(self):
        for bad in (lambda: YLetter(2.0), lambda: XLetter(1.0), lambda: YLetter("2")):
            with pytest.raises(ValueError):
                bad()

    def test_weight(self):
        assert weight(y_word(2, 3, 1)) == 6
        assert weight(x_word(0, 1, 1)) == 3
        assert weight(EMPTY_WORD) == 0


class TestInternedLetters:
    def test_one_object_per_value(self):
        assert YLetter(3) is YLetter(3) and XLetter(1) is X1
        assert merge_y(YLetter(1), YLetter(2)) is YLetter(3)
        assert y_word(2, 2).letters[0] is y_word(2).letters[0]

    def test_y_letter_reads_the_intern_table(self):
        assert y_letter(3) is YLetter(3) and y_letter(987_654) is YLetter(987_654)
        assert s_inverse(x_word(0, 0, 1, 1)).letters == (YLetter(3), YLetter(1))
        for bad in (0, -2):
            with pytest.raises(ValueError, match=f"^y-letter index must be a positive integer, got {bad}$"):
                y_letter(bad)

    def test_parsed_letters_are_interned(self):
        w = parse_word("y12.y1.y12")
        assert w.letters[0] is YLetter(12) and w.letters[1] is YLetter(1)
        assert all(a is b for a, b in zip(parse_word("x0.x1").letters, (X0, X1)))

    def test_copy_and_pickle_return_the_same_object(self):
        for letter in (X0, X1, YLetter(1), YLetter(57)):
            assert copy.copy(letter) is letter
            assert copy.deepcopy(letter) is letter
            assert pickle.loads(pickle.dumps(letter)) is letter

    def test_alphabets_differ(self):
        assert XLetter(1) != YLetter(1)
        assert len({XLetter(1), YLetter(1)}) == 2

    def test_value_str_repr_order(self):
        assert X1.value == 1 and YLetter(4).index == 4
        assert (str(X0), str(YLetter(4))) == ("x0", "y4")
        assert (repr(X0), repr(YLetter(4))) == ("XLetter(value=0)", "YLetter(index=4)")
        assert X0 < X1 <= X1 and YLetter(2) > YLetter(1) >= YLetter(1)
        assert sorted([YLetter(3), YLetter(1), YLetter(2)]) == [YLetter(1), YLetter(2), YLetter(3)]
        with pytest.raises(TypeError):
            X0 < YLetter(1)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            YLetter(2).index = 3
        with pytest.raises(AttributeError):
            del X0.value
        assert YLetter(2).index == 2 and X0.value == 0


@st.composite
def word_pairs(draw):
    """(alphabet, u, v): two words of one alphabet, y-indices also past the last character code."""
    if draw(st.booleans()):
        return ("x", *(x_word(*draw(st.lists(st.integers(0, 1), max_size=4))) for _ in "uv"))
    indices = st.integers(1, 6) | st.integers(0x10FFFF, 0x110001) | st.integers(1 << 64, 1 << 66)
    return ("y", *(y_word(*draw(st.lists(indices, max_size=4))) for _ in "uv"))


def _mass(comb):
    return sum(c for _, c in comb.items())


class TestLetterCodes:
    """Each letter's one-character code, and the products that run on code strings:
    against the oracles above and the counting theorems, with indices past every code."""

    @given(word_pairs())
    @settings(max_examples=150, deadline=None)
    def test_product_masses_and_round_trip(self, pair):
        alphabet, u, v = pair
        p, q = len(u), len(v)
        assert decode(encode(u)) == u and decode(encode(v)) == v
        assert shuffle(u, v) == shuffle_oracle(u, v)
        assert _mass(shuffle(u, v)) == math.comb(p + q, p)
        if alphabet == "y":  # the Delannoy number: k contracted pairs
            delannoy = sum(math.comb(p, k) * math.comb(q, k) * 2 ** k for k in range(min(p, q) + 1))
            assert quasi_shuffle(u, v) == quasi_shuffle_oracle(u, v)
            assert _mass(quasi_shuffle(u, v)) == delannoy

    def test_the_code_limit_is_refused_by_name(self, monkeypatch):
        class Full(list):  # every code taken, without a million letters
            def __len__(self):
                return 0x110000

        monkeypatch.setattr(words, "_BY_CODE", Full(words._BY_CODE))
        assert y_letter(2) is YLetter(2)  # a letter made before keeps its code
        fresh = 10 ** 30 + 7
        with pytest.raises(ValueError, match="^no code left for y1000000000000000000000000000007: "
                                             "a process holds at most 1,114,112 letters$"):
            YLetter(fresh)
        assert fresh not in words._Y_LETTERS


class TestBlockSubstitution:
    def test_single_letters(self):
        assert s_map(y_word(1)) == x_word(1)
        assert s_map(y_word(2)) == x_word(0, 1)
        assert s_map(y_word(4)) == x_word(0, 0, 0, 1)

    def test_homomorphism(self):
        for u in Y_WORDS[:30]:
            for v in Y_WORDS[:10]:
                assert s_map(concat(u, v)) == concat(s_map(u), s_map(v))
        assert s_map(y_word(2, 3)) == x_word(0, 1, 0, 0, 1)

    def test_weight_becomes_length(self):
        for w in Y_WORDS:
            assert len(s_map(w).letters) == weight(w)

    def test_round_trip(self):
        for w in Y_WORDS:
            assert s_inverse(s_map(w)) == w

    def test_bijection_onto_words_ending_x1(self):
        # X-words of length L ending in x1 and Y-words of weight L both
        # number 2^(L-1); the substitution matches them up exactly
        for L in range(1, 7):
            targets = {
                Word(tuple(X0 if b == 0 else X1 for b in bits) + (X1,))
                for bits in itertools.product((0, 1), repeat=L - 1)
            }
            images = set()
            for parts in _compositions_of(L):
                images.add(s_map(y_word(*parts)))
            assert images == targets
            assert len(images) == 2 ** (L - 1)

    def test_s_inverse_rejects_bad_tail(self):
        with pytest.raises(ValueError):
            s_inverse(x_word(1, 0))

    def test_s_map_rejects_x_letters(self):
        with pytest.raises(ValueError):
            s_map(x_word(0, 1))


def _compositions_of(k):
    if k == 0:
        return [()]
    out = []
    for first in range(1, k + 1):
        for rest in _compositions_of(k - first):
            out.append((first,) + rest)
    return out


class TestConvergence:
    def test_y_words(self):
        assert is_convergent_y(EMPTY_WORD)
        assert is_convergent_y(y_word(2, 1, 1))
        assert not is_convergent_y(y_word(1))
        assert not is_convergent_y(y_word(1, 5))

    def test_x_words(self):
        assert is_convergent_x(EMPTY_WORD)
        assert is_convergent_x(x_word(0, 1))
        assert is_convergent_x(x_word(0, 0, 1, 1))
        assert not is_convergent_x(x_word(1, 0, 1))
        assert not is_convergent_x(x_word(0, 1, 0))
        assert not is_convergent_x(x_word(1))

    def test_substitution_preserves_convergence(self):
        for w in Y_WORDS:
            assert is_convergent_y(w) == is_convergent_x(s_map(w)) or not w.letters


class TestDeconcat:
    def test_small_example(self):
        w = y_word(1, 2)
        got = deconcat(w)
        assert got == LinComb(
            {
                TensorPair(w, EMPTY_WORD): Fraction(1),
                TensorPair(y_word(1), y_word(2)): Fraction(1),
                TensorPair(EMPTY_WORD, w): Fraction(1),
            }
        )

    def test_coassociativity(self):
        for w in [x_word(0, 1, 0, 1), y_word(1, 2, 3), y_word(2, 2, 1, 1), x_word(0, 0, 1, 1, 0, 1)]:
            lhs = LinComb()
            rhs = LinComb()
            for p, c in deconcat(w).items():
                for q, d in deconcat(p.left).items():
                    lhs = lhs + LinComb.unit((q.left, q.right, p.right), c * d)
                for q, d in deconcat(p.right).items():
                    rhs = rhs + LinComb.unit((p.left, q.left, q.right), c * d)
            assert lhs == rhs

    def test_counit(self):
        for w in Y_WORDS[:20]:
            left = LinComb()
            for p, c in deconcat(w).items():
                if p.left == EMPTY_WORD:
                    left = left + LinComb.unit(p.right, c)
            assert left == LinComb.unit(w)

    def test_bialgebra_compatibility_with_shuffle(self):
        # deconcat of a shuffle equals the componentwise shuffle of deconcats
        pairs = [(x_word(0, 1), x_word(1,)), (x_word(0, 1), x_word(0, 1)), (x_word(1, 1), x_word(0,))]
        for u, v in pairs:
            lhs = LinComb()
            for w, c in shuffle(u, v).items():
                lhs = lhs + c * deconcat(w)
            rhs = LinComb()
            for p, cp in deconcat(u).items():
                for q, cq in deconcat(v).items():
                    for wl, cl in shuffle(p.left, q.left).items():
                        for wr, cr in shuffle(p.right, q.right).items():
                            rhs = rhs + LinComb.unit(TensorPair(wl, wr), cp * cq * cl * cr)
            assert lhs == rhs

    def test_bialgebra_compatibility_with_quasi_shuffle(self):
        pairs = [(y_word(1), y_word(2)), (y_word(1, 1), y_word(2)), (y_word(2), y_word(3))]
        for u, v in pairs:
            lhs = LinComb()
            for w, c in quasi_shuffle(u, v).items():
                lhs = lhs + c * deconcat(w)
            rhs = LinComb()
            for p, cp in deconcat(u).items():
                for q, cq in deconcat(v).items():
                    for wl, cl in quasi_shuffle(p.left, q.left).items():
                        for wr, cr in quasi_shuffle(p.right, q.right).items():
                            rhs = rhs + LinComb.unit(TensorPair(wl, wr), cp * cq * cl * cr)
            assert lhs == rhs


def deconcat_oracle(w: Word) -> LinComb:
    """Every split of w into a prefix and the rest, each counted once."""
    return LinComb((TensorPair(Word(w.letters[:r]), Word(w.letters[r:])), 1) for r in range(len(w) + 1))


class TestDeconcatTable:
    @pytest.mark.parametrize("letters", [(X0, X1), (YLetter(1), YLetter(2))], ids=["x", "y"])
    def test_cold_warm_and_cleared_up_to_length_six(self, each_way, letters):
        ws = [Word(ls) for n in range(0, 7) for ls in itertools.product(letters, repeat=n)]
        later = (Word(ls) for n in itertools.count(7) for ls in itertools.product(letters, repeat=n))
        each_way(deconcat, "deconcat", ws, {w: deconcat_oracle(w) for w in ws}, later)


class TestParsePrint:
    def test_round_trip(self):
        for w in X_WORDS + Y_WORDS:
            assert parse_word(str(w)) == w

    def test_empty(self):
        assert parse_word("e") == EMPTY_WORD
        assert str(EMPTY_WORD) == "e"

    def test_examples(self):
        assert parse_word("y2.y13") == Word((YLetter(2), YLetter(13)))
        assert parse_word("x0.x1") == x_word(0, 1)

    @pytest.mark.parametrize(
        "text", ["y0", "x2", "y1.", ".y1", "y1..y2", "x0.y1", "y1.x0", "foo", "y1 y2", ""]
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_word(text)

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_word("y1.q2")
        assert info.value.position == 3

    def test_error_position_counts_in_the_callers_text(self):
        for text, position in [("  y2..y3", 5), ("\ty2.y3.q", 7), (" y2 .y3", 3), ("  y2.x0", 2)]:
            with pytest.raises(ParseError) as info:
                parse_word(text)
            assert info.value.position == position, text

    @pytest.mark.parametrize("text, position", [("y2.", 3), ("  y2. ", 5), ("x0.x1.", 6)])
    def test_end_of_input_named(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_word(text)
        assert str(info.value) == (
            f"expected a letter token (x0, x1, or y<n>), found end of input (at position {position})"
        )
