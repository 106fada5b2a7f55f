"""The exp/log isomorphism between quasi-shuffle and shuffle word algebras.

The defining sums make exp an algebra morphism taking the shuffle product to
the quasi-shuffle product, exp(u sh v) = exp(u) qsh exp(v), with log its
inverse; the six small displays and the inverse property pin both maps down.
"""

import itertools
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
