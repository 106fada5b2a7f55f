"""The exp/log isomorphism between quasi-shuffle and shuffle word algebras.

The defining sums make exp an algebra morphism taking the shuffle product to
the quasi-shuffle product, exp(u sh v) = exp(u) qsh exp(v), with log its
inverse; the six small displays and the inverse property pin both maps down.
A term-by-term Fraction reference, built from apply_composition and the
closed-form coefficients, checks the integer sums on random combinations.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arborzeta.lincomb import LinComb, TensorPair
from arborzeta.hoffman import apply_composition, compositions, exp_comb, exp_word, log_comb, log_word
from arborzeta.words import (
    Word,
    YLetter,
    deconcat,
    merge_y,
    product_comb,
    quasi_shuffle,
    shuffle,
    x_word,
    y_word,
)


class TestCompositions:
    def test_small(self):
        assert compositions(1) == [(1,)]
        assert compositions(2) == [(1, 1), (2,)]
        assert compositions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_count_is_power_of_two(self):
        for k in range(1, 9):
            assert len(compositions(k)) == 2 ** (k - 1)

    def test_all_sum_to_k(self):
        for parts in compositions(6):
            assert sum(parts) == 6
        assert len(set(compositions(6))) == 32


class TestApplyComposition:
    def test_singleton_blocks(self):
        assert apply_composition((1, 1), y_word(1, 2)) == y_word(1, 2)

    def test_single_block(self):
        assert apply_composition((2,), y_word(1, 2)) == y_word(3)

    def test_mixed_blocks(self):
        assert apply_composition((2, 1), y_word(1, 1, 2)) == y_word(2, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_composition((3,), y_word(1, 2))


class TestSixDisplays:
    """The k = 1, 2, 3 display pairs, instantiated at (y1, y2, y3)."""

    def test_exp_one_letter(self):
        assert exp_word(y_word(1)) == LinComb.unit(y_word(1))

    def test_log_one_letter(self):
        assert log_word(y_word(1)) == LinComb.unit(y_word(1))

    def test_exp_two_letters(self):
        assert exp_word(y_word(1, 2)) == LinComb(
            {y_word(1, 2): Fraction(1), y_word(3): Fraction(1, 2)}
        )

    def test_log_two_letters(self):
        assert log_word(y_word(1, 2)) == LinComb(
            {y_word(1, 2): Fraction(1), y_word(3): Fraction(-1, 2)}
        )

    def test_exp_three_letters(self):
        assert exp_word(y_word(1, 2, 3)) == LinComb(
            {
                y_word(1, 2, 3): Fraction(1),
                y_word(3, 3): Fraction(1, 2),   # [y1y2].y3
                y_word(1, 5): Fraction(1, 2),   # y1.[y2y3]
                y_word(6): Fraction(1, 6),      # [y1y2y3]
            }
        )

    def test_log_three_letters(self):
        assert log_word(y_word(1, 2, 3)) == LinComb(
            {
                y_word(1, 2, 3): Fraction(1),
                y_word(3, 3): Fraction(-1, 2),
                y_word(1, 5): Fraction(-1, 2),
                y_word(6): Fraction(1, 3),
            }
        )

    def test_empty_word_fixed(self):
        assert exp_word(Word(())) == LinComb.unit(Word(()))
        assert log_word(Word(())) == LinComb.unit(Word(()))


ALL_WORDS_5_3 = [
    y_word(*ix)
    for k in range(0, 6)
    for ix in itertools.product((1, 2, 3), repeat=k)
]


class TestInverse:
    def test_log_exp_identity_up_to_length_five(self):
        for w in ALL_WORDS_5_3:
            assert log_comb(exp_word(w)) == LinComb.unit(w)

    def test_exp_log_identity_up_to_length_five(self):
        for w in ALL_WORDS_5_3:
            assert exp_comb(log_word(w)) == LinComb.unit(w)

    @given(st.lists(st.integers(1, 4), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_inverse_property(self, ix):
        w = y_word(*ix)
        assert log_comb(exp_word(w)) == LinComb.unit(w)
        assert exp_comb(log_word(w)) == LinComb.unit(w)


class TestMorphism:
    def test_exp_takes_shuffle_to_quasi_shuffle(self):
        words = [y_word(*ix) for k in range(0, 3) for ix in itertools.product((1, 2), repeat=k)]
        for u in words:
            for v in words:
                if len(u.letters) + len(v.letters) > 5:
                    continue
                lhs = LinComb()
                for w, c in shuffle(u, v).items():
                    lhs = lhs + c * exp_word(w)
                rhs = product_comb(exp_word(u), exp_word(v), merge=merge_y)
                assert lhs == rhs, (u, v)

    def test_log_takes_quasi_shuffle_to_shuffle(self):
        words = [y_word(*ix) for k in range(0, 3) for ix in itertools.product((1, 2), repeat=k)]
        for u in words:
            for v in words:
                if len(u.letters) + len(v.letters) > 4:
                    continue
                lhs = LinComb()
                for w, c in quasi_shuffle(u, v).items():
                    lhs = lhs + c * log_word(w)
                rhs = product_comb(log_word(u), log_word(v))
                assert lhs == rhs, (u, v)

    def test_coalgebra_morphism(self):
        for w in [y_word(1, 2), y_word(2, 1, 1), y_word(1, 1, 2, 3)]:
            lhs = LinComb()
            for u, c in exp_word(w).items():
                lhs = lhs + c * deconcat(u)
            rhs = LinComb()
            for p, c in deconcat(w).items():
                for ul, cl in exp_word(p.left).items():
                    for ur, cr in exp_word(p.right).items():
                        rhs = rhs + LinComb.unit(TensorPair(ul, ur), c * cl * cr)
            assert lhs == rhs


def reference(a: LinComb, log: bool) -> LinComb:
    """exp or log of a, one Fraction term per (term, composition) pair."""
    out = []
    for w, c in a.items():
        k = len(w.letters)
        for parts in compositions(k):
            if log:
                coeff = Fraction((-1) ** (k - len(parts)), math.prod(parts))
            else:
                coeff = Fraction(1, math.prod(math.factorial(i) for i in parts))
            out.append((apply_composition(parts, w), c * coeff))
    return LinComb(out)


def stored_form(a: LinComb) -> bool:
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for _, c in a.items())


y_words = st.lists(st.integers(1, 4), max_size=6).map(lambda ix: y_word(*ix))
signed = st.fractions(-4, 4, max_denominator=12).filter(bool)


@st.composite
def y_combinations(draw, log: bool):
    """Signed combinations of y-words of lengths 0 to 6; on request a term and
    its negative cancel in the input, or a word of the image of the first term
    is subtracted so that it cancels in the output."""
    pairs = draw(st.lists(st.tuples(y_words, signed), max_size=4))
    if pairs:
        w, c = pairs[0]
        choice = draw(st.sampled_from(("plain", "input", "output")))
        if choice == "input":
            pairs.append((w, -c))
        elif choice == "output":
            # the image of u starts with u itself, and every other word it has is shorter
            u, r = draw(st.sampled_from(reference(LinComb.unit(w, c), log).items()))
            pairs.append((u, -r))
    return LinComb(pairs)


class TestAgainstReference:
    @given(y_combinations(log=False))
    @settings(max_examples=150, deadline=None)
    def test_exp_comb(self, a):
        got = exp_comb(a)
        assert got == reference(a, log=False)
        assert stored_form(got)

    @given(y_combinations(log=True))
    @settings(max_examples=150, deadline=None)
    def test_log_comb(self, a):
        got = log_comb(a)
        assert got == reference(a, log=True)
        assert stored_form(got)

    @given(y_words)
    @settings(max_examples=80, deadline=None)
    def test_words(self, w):
        for word_map, log in ((exp_word, False), (log_word, True)):
            got = word_map(w)
            assert got == reference(LinComb.unit(w), log)
            assert stored_form(got)

    def test_output_cancellation(self):
        # exp(y1.y2) = y1.y2 + 1/2*y3, so subtracting 1/2*y3 cancels the y3 term
        a = LinComb({y_word(1, 2): 1, y_word(3): Fraction(-1, 2)})
        assert exp_comb(a) == LinComb.unit(y_word(1, 2))
        assert log_comb(a) == LinComb({y_word(1, 2): 1, y_word(3): -1})

    def test_zero_combination(self):
        assert exp_comb(LinComb()) == LinComb()
        assert log_comb(LinComb()) == LinComb()

    def test_empty_word(self):
        for got in (exp_word(Word(())), log_word(Word(())), exp_comb(LinComb.unit(Word(()), Fraction(-3, 2)))):
            assert [w for w, _ in got.items()] == [Word(())]
            assert stored_form(got)
        assert type(exp_word(Word(())).coeff(Word(()))) is int


class TestRefusesXWords:
    @pytest.mark.parametrize("w", [x_word(1), x_word(0, 1)], ids=str)
    def test_word_maps(self, w):
        for word_map in (exp_word, log_word):
            with pytest.raises(ValueError, match=f"summation \\(y\\) words, got {w}$"):
                word_map(w)

    def test_comb_maps(self):
        a = LinComb({y_word(2): 1, x_word(0, 1): 1})
        for comb_map in (exp_comb, log_comb):
            with pytest.raises(ValueError, match="got x0.x1$"):
                comb_map(a)
