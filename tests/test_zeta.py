"""Numerical zeta values, regularized characters, the correction operator.

Oracles: a raw nested-loop evaluator for truncated sums (independent of the
prefix-array recursion), mpmath for depth one, and the explicit closed-form
constants pi^2/6 and pi^4/90.  The accelerated evaluator must agree with
plain truncation within the documented tail bound, and the truncated tree
sum must equal the truncated word expansion exactly.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import clear_table, table_cost

from arborzeta import lincomb
from arborzeta.hoffman import compositions
from arborzeta.lincomb import LinComb, ThetaPoly
from arborzeta.words import Word, is_convergent_x, s_inverse, s_map, x_word, y_word
from arborzeta.forests import Forest, make_tree, parse_forest, parse_tree, vertex
from arborzeta.arborify import arborify_y, ladder
from arborzeta.words import YLetter
from arborzeta.zeta import (
    NumericRegValue,
    brute_tree_sum,
    compare_bmz,
    eval_comb_bounded,
    eval_mzv_bounded,
    eval_tree_bounded,
    eval_reg,
    hoffman_reg_relation,
    mzv_truncation_bound,
    naive_mzv,
    reg_qsh,
    reg_sh,
    rho,
    tree_truncation_bound,
    zeta_comb_x,
    zeta_comb_y,
    zeta_tree_x,
    zeta_tree_y,
)


# ---------------------------------------------------------------------------
# oracle: raw nested loops, no shared machinery

def nested_loop_mzv(exponents, N):
    if not exponents:
        return 1.0

    def rec(depth, lower):
        n = exponents[depth]
        total = 0.0
        if depth == len(exponents) - 1:
            for k in range(lower, N + 1):
                total += k ** (-n)
            return total
        for k in range(lower, N + 1):
            total += k ** (-n) * rec(depth + 1, k + 1)
        return total

    # outermost index is the largest, so recurse from the inside out:
    # sum over k1 > k2 > ... means the last exponent ranges lowest
    def outer(depth, upper):
        n = exponents[depth]
        total = 0.0
        if depth == len(exponents) - 1:
            for k in range(1, upper):
                total += float(k) ** (-n)
            return total
        for k in range(len(exponents) - depth, upper):
            total += float(k) ** (-n) * outer(depth + 1, k)
        return total

    return outer(0, N + 1)


class TestNaiveOracle:
    def test_depth_one_matches_plain_sum(self):
        direct = sum(k ** -2 for k in range(1, 101))
        assert abs(naive_mzv((2,), 100) - direct) < 1e-14

    def test_depth_two_matches_nested_loops(self):
        for idx in [(2, 1), (3, 2), (2, 2)]:
            assert abs(naive_mzv(idx, 60) - nested_loop_mzv(idx, 60)) < 1e-13

    def test_depth_three_matches_nested_loops(self):
        for idx in [(2, 1, 1), (3, 1, 2), (2, 2, 2)]:
            assert abs(naive_mzv(idx, 30) - nested_loop_mzv(idx, 30)) < 1e-13

    def test_empty_index(self):
        assert naive_mzv((), 10) == 1.0

    def test_monotone_in_truncation(self):
        assert naive_mzv((2, 1), 100) < naive_mzv((2, 1), 200)


class TestEvalMzv:
    def test_depth_one_against_closed_forms(self):
        v, bound = eval_mzv_bounded((2,), 1e-9)
        assert abs(v - math.pi ** 2 / 6) <= bound
        v, bound = eval_mzv_bounded((4,), 1e-9)
        assert abs(v - math.pi ** 4 / 90) <= bound

    def test_depth_one_against_mpmath(self):
        for n in range(2, 9):
            v = eval_mzv_bounded((n,), 1e-12)[0]
            assert abs(v - float(mpmath.zeta(n))) <= 3e-12, n

    def test_euler_reduction(self):
        assert abs(eval_mzv_bounded((2, 1), 1e-9)[0] - eval_mzv_bounded((3,), 1e-9)[0]) <= 2e-9

    def test_certified_against_truncation_bound(self):
        for idx in [(2,), (2, 1), (3, 2), (2, 1, 1), (4, 1, 1), (2, 2, 2)]:
            v = eval_mzv_bounded(idx, 1e-10)[0]
            approx = naive_mzv(idx, 2000)
            assert approx <= v + 1e-9
            assert abs(v - approx) <= mzv_truncation_bound(idx, 2000) + 1e-9

    def test_truncation_bound_is_honest(self):
        # high precision value minus truncation must stay under the bound
        for idx in [(2,), (2, 1), (3, 2), (2, 1, 1, 1)]:
            v = eval_mzv_bounded(idx, 1e-12)[0]
            for N in (100, 400, 1600):
                tail = v - naive_mzv(idx, N)
                assert 0.0 <= tail <= mzv_truncation_bound(idx, N) + 1e-11, (idx, N)

    @given(
        st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple),
        st.integers(2, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_indices_certified(self, rest, first):
        idx = (first,) + rest
        v = eval_mzv_bounded(idx, 1e-9)[0]
        approx = naive_mzv(idx, 3000)
        assert abs(v - approx) <= mzv_truncation_bound(idx, 3000) + 2e-9

    def test_empty_index_is_one(self):
        assert eval_mzv_bounded((), 1e-9)[0] == 1.0

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            eval_mzv_bounded((1,), 1e-9)
        with pytest.raises(ValueError):
            eval_mzv_bounded((1, 2), 1e-9)

    def test_tiny_tolerance_rejected(self):
        for tol in (1e-13, math.nan, math.inf, True):
            with pytest.raises(ValueError):
                eval_mzv_bounded((2,), tol)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            eval_mzv_bounded((2, 0), 1e-9)
        with pytest.raises(ValueError):
            eval_mzv_bounded((2.0,), 1e-9)
        # True == 1, so only an explicit check keeps it from passing as zeta(3,1) or zeta(1)
        for exponents in ((3, True), (True,)):
            with pytest.raises(ValueError, match=r"^exponents must be positive integers, got \(.*True"):
                eval_mzv_bounded(exponents, 1e-9)

    def test_slow_converger_still_certified(self):
        v, bound = eval_mzv_bounded((2, 1, 1, 1, 1), 1e-10)
        assert bound <= 1e-10
        assert abs(v - naive_mzv((2, 1, 1, 1, 1), 4000)) <= mzv_truncation_bound(
            (2, 1, 1, 1, 1), 4000
        ) + 1e-9


class TestWordValues:
    def test_both_alphabets_agree(self):
        for w in [y_word(2), y_word(2, 1), y_word(3, 2), y_word(2, 1, 1)]:
            assert zeta_comb_y(LinComb.unit(w)) == zeta_comb_x(LinComb.unit(s_map(w)))

    def test_divergent_words_rejected(self):
        with pytest.raises(ValueError, match=r"^word y1\.y2 is divergent: it starts with y1$"):
            zeta_comb_y(LinComb.unit(y_word(1, 2)))
        with pytest.raises(ValueError, match=r"^word x1\.x1 is divergent: it must start with x0 and end with x1$"):
            zeta_comb_x(LinComb.unit(x_word(1, 1)))

    def test_empty_word(self):
        assert zeta_comb_y(LinComb.unit(Word(()))) == 1.0

    def test_quasi_shuffle_character(self):
        from arborzeta.words import quasi_shuffle

        pairs = [
            (y_word(2), y_word(2)),
            (y_word(2), y_word(3)),
            (y_word(2, 1), y_word(2)),
            (y_word(3), y_word(2, 2)),
            (y_word(2, 1), y_word(2, 1)),
        ]
        for u, v in pairs:
            lhs = zeta_comb_y(quasi_shuffle(u, v), 1e-10)
            rhs = zeta_comb_y(LinComb.unit(u), 1e-10) * zeta_comb_y(LinComb.unit(v), 1e-10)
            assert abs(lhs - rhs) <= 1e-8, (u, v)

    def test_shuffle_character(self):
        from arborzeta.words import shuffle

        pairs = [
            (x_word(0, 1), x_word(0, 1)),
            (x_word(0, 1), x_word(0, 0, 1)),
            (x_word(0, 1, 1), x_word(0, 1)),
        ]
        for u, v in pairs:
            lhs = zeta_comb_x(shuffle(u, v), 1e-10)
            rhs = zeta_comb_x(LinComb.unit(u), 1e-10) * zeta_comb_x(LinComb.unit(v), 1e-10)
            assert abs(lhs - rhs) <= 1e-8, (u, v)


class TestCombinationBound:
    """eval_comb_bounded on both alphabets: |value - reference| <= bound <= tol."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-10])
    def test_certified_against_references(self, tol):
        from arborzeta.words import quasi_shuffle, shuffle

        with mpmath.workdps(30):
            z2z3, z3 = float(mpmath.zeta(2) * mpmath.zeta(3)), float(mpmath.zeta(3))
        cases = [
            (quasi_shuffle(y_word(2), y_word(3)), z2z3),
            (shuffle(x_word(0, 1), x_word(0, 0, 1)), z2z3),
            (LinComb.unit(y_word(2, 1)), z3),
            # exact combinations of integration words whose value is zero
            *((hoffman_reg_relation(y_word(*e)), 0.0) for e in [(2,), (3,), (2, 1), (2, 2), (3, 1, 2)]),
        ]
        for comb, reference in cases:
            value, bound = eval_comb_bounded(comb, tol)
            assert abs(value - reference) <= bound <= tol, comb


class TestRegularization:
    def test_convergent_words_fixed(self):
        w = y_word(2, 3)
        assert reg_qsh(w) == ThetaPoly.constant(LinComb.unit(w))
        v = x_word(0, 1)
        assert reg_sh(v) == ThetaPoly.constant(LinComb.unit(y_word(2)))

    def test_single_divergent_letter(self):
        theta_unit = ThetaPoly.theta(LinComb.unit(Word(())))
        assert reg_qsh(y_word(1)) == theta_unit
        assert reg_sh(x_word(1)) == theta_unit

    def test_frozen_qsh_values(self):
        assert reg_qsh(y_word(1, 1)) == ThetaPoly(
            {2: LinComb.unit(Word(()), Fraction(1, 2)), 0: LinComb.unit(y_word(2), Fraction(-1, 2))}
        )
        assert reg_qsh(y_word(1, 2)) == ThetaPoly(
            {
                1: LinComb.unit(y_word(2)),
                0: LinComb({y_word(2, 1): Fraction(-1), y_word(3): Fraction(-1)}),
            }
        )
        assert reg_qsh(y_word(1, 1, 1)) == ThetaPoly(
            {
                3: LinComb.unit(Word(()), Fraction(1, 6)),
                1: LinComb.unit(y_word(2), Fraction(-1, 2)),
                0: LinComb.unit(y_word(3), Fraction(1, 3)),
            }
        )

    def test_frozen_sh_values(self):
        assert reg_sh(x_word(1, 1)) == ThetaPoly({2: LinComb.unit(Word(()), Fraction(1, 2))})
        assert reg_sh(x_word(1, 0, 1)) == ThetaPoly(
            {1: LinComb.unit(y_word(2)), 0: LinComb.unit(y_word(2, 1), Fraction(-2))}
        )

    def test_sh_requires_trailing_x1(self):
        with pytest.raises(ValueError):
            reg_sh(x_word(1, 0))

    def test_leading_coefficient_of_divergent_powers(self):
        for k in range(1, 6):
            poly = reg_qsh(y_word(*([1] * k)))
            assert poly.degree() == k
            assert poly.coeff(k) == LinComb.unit(Word(()), Fraction(1, math.factorial(k)))

    def test_qsh_character_property(self):
        from arborzeta.words import product_comb

        words = [y_word(*ix) for k in range(0, 3) for ix in itertools.product((1, 2), repeat=k)]
        for u in words:
            for v in words:
                if len(u.letters) + len(v.letters) > 4:
                    continue
                lhs = ThetaPoly()
                from arborzeta.words import quasi_shuffle, merge_y

                for w, c in quasi_shuffle(u, v).items():
                    lhs = lhs + reg_qsh(w).scale(c)
                rhs = reg_qsh(u).mul_with(
                    reg_qsh(v), lambda a, b: product_comb(a, b, merge=merge_y)
                )
                assert lhs == rhs, (u, v)

    def test_sh_character_property(self):
        from arborzeta.words import product_comb, shuffle

        def mul_as_x(a, b):
            prod = product_comb(a.map_basis(s_map), b.map_basis(s_map))
            return prod.map_basis(s_inverse)

        words = [x_word(1), x_word(0, 1), x_word(1, 1), x_word(0, 1, 1)]
        for u in words:
            for v in words:
                lhs = ThetaPoly()
                for w, c in shuffle(u, v).items():
                    lhs = lhs + reg_sh(w).scale(c)
                rhs = reg_sh(u).mul_with(reg_sh(v), mul_as_x)
                assert lhs == rhs, (u, v)

    def test_all_coefficients_convergent(self):
        for w in [y_word(1, 1, 2), y_word(1, 2, 1), y_word(1, 1, 1, 1)]:
            for _, comb in reg_qsh(w).items():
                from arborzeta.words import is_convergent_y

                assert all(is_convergent_y(u) for u, _ in comb.items())


class TestEvalReg:
    def test_numeric_coefficients(self):
        val = eval_reg(reg_qsh(y_word(1, 1)), 1e-10)
        assert abs(val.poly.coeff(2, 0.0) - 0.5) < 1e-15
        assert abs(val.poly.coeff(0, 0.0) + 0.5 * eval_mzv_bounded((2,), 1e-10)[0]) < 1e-9
        assert val.tol == 1e-10

    def test_plain_constant(self):
        val = eval_reg(ThetaPoly.constant(LinComb.unit(y_word(3))), 1e-9)
        assert abs(val.poly.coeff(0, 0.0) - 1.2020569031595942) < 1e-9


class TestRho:
    def test_fixes_constants_and_linear(self):
        one = NumericRegValue(ThetaPoly.constant(1.0), 1e-9)
        assert rho(one).poly == one.poly
        lin = NumericRegValue(ThetaPoly({1: 2.0, 0: -3.0}), 1e-9)
        assert rho(lin).poly == lin.poly

    def test_quadratic_example(self):
        z2 = eval_mzv_bounded((2,), 1e-10)[0]
        p = NumericRegValue(ThetaPoly({2: 0.5, 0: -0.5 * z2}), 1e-9)
        out = rho(p).poly
        assert abs(out.coeff(2, 0.0) - 0.5) < 1e-15
        assert abs(out.coeff(1, 0.0)) < 1e-15
        assert abs(out.coeff(0, 0.0)) < 1e-9

    def test_degree_drop_is_structural(self):
        import random

        rng = random.Random(7)
        for _ in range(25):
            d = rng.randint(0, 8)
            coeffs = {k: rng.uniform(-3, 3) for k in range(d + 1)}
            coeffs[d] = coeffs[d] or 1.0
            p = NumericRegValue(ThetaPoly(coeffs), 1e-9)
            diff = rho(p).poly - p.poly
            # exact: the generator only ever writes degrees <= d - 2
            assert all(k <= d - 2 for k, _ in diff.items())
            assert rho(p).poly.coeff(d, 0.0) == p.poly.coeff(d, 0.0)
            if d >= 1:
                assert rho(p).poly.coeff(d - 1, 0.0) == p.poly.coeff(d - 1, 0.0)


    def test_derived_tolerance_refused_only_when_used(self):
        # rho evaluates zeta(n) at tol/10, and only for a polynomial of degree >= 2
        lin = NumericRegValue(ThetaPoly({1: 2.0, 0: -3.0}), 1e-12)
        assert rho(lin).poly == lin.poly
        with pytest.raises(ValueError) as info:
            rho(NumericRegValue(ThetaPoly({2: 1.0}), 1e-12))
        assert str(info.value) == "rho evaluates zeta(n) to tol/10 = 1e-13, below the supported 1e-12"


class TestLogPowerHelpers:
    """_lp_deriv and _lp_antideriv against a term-by-term reference: the same
    terms, added in the same order, so the same floats in the same key order."""

    @staticmethod
    def _put(out, key, v):
        v = out.get(key, 0.0) + v
        if v:
            out[key] = v
        elif key in out:
            del out[key]

    def reference_deriv(self, p):
        # d/dx x^-a ln(x)^b = -a x^-(a+1) ln(x)^b + b x^-(a+1) ln(x)^(b-1)
        out = {}
        for (a, b), c in p.items():
            if a:
                self._put(out, (a + 1, b), -a * c)
            if b:
                self._put(out, (a + 1, b - 1), b * c)
        return out

    def reference_antideriv(self, p):
        # integral of x^-a ln^b = sum_j (-1)^(b-j) b!/j! x^(1-a) ln^j / (1-a)^(b-j+1), a >= 2
        out = {}
        for (a, b), c in p.items():
            coef = 1.0 / (1 - a)
            for j in range(b, -1, -1):
                self._put(out, (a - 1, j), c * coef)
                coef *= -j / (1 - a)
        return out

    log_powers = st.dictionaries(
        st.tuples(st.integers(2, 14), st.integers(0, 3)),
        st.floats(0.001, 10.0) | st.floats(-10.0, -0.001),
        max_size=10,
    )

    @given(log_powers)
    @settings(max_examples=150, deadline=None)
    def test_match_reference(self, p):
        from arborzeta.zeta import _lp_antideriv, _lp_deriv

        for got, ref in ((_lp_deriv(p), self.reference_deriv(p)), (_lp_antideriv(p), self.reference_antideriv(p))):
            assert list(got.items()) == list(ref.items())
        back = _lp_deriv(_lp_antideriv(p))
        scale = max((abs(c) for c in p.values()), default=0.0)
        for key in set(back) | set(p):
            assert abs(back.get(key, 0.0) - p.get(key, 0.0)) <= 1e-12 * scale

    def test_antiderivative_of_a_reciprocal_power(self):
        from arborzeta.zeta import _lp_antideriv

        assert _lp_antideriv({(1, 2): 3.0}) == {(0, 3): 1.0}
        assert _lp_antideriv({(3, 1): 2.0}) == {(2, 1): -1.0, (2, 0): -0.5}
        with pytest.raises(ValueError):
            _lp_antideriv({(0, 1): 1.0})


class TestDenseKernel:
    """The tree evaluator's dense power lists (entry a the coefficient of x^-a)
    against exact Fraction arithmetic on small dyadic coefficients."""

    dyadic = st.builds(lambda k, j: Fraction(k, 2 ** j), st.integers(-64, 64), st.integers(0, 6))

    @given(st.lists(dyadic, min_size=1, max_size=14), st.lists(dyadic, min_size=1, max_size=14))
    @settings(max_examples=150, deadline=None)
    def test_product_is_the_exact_convolution(self, p, q):
        from arborzeta.zeta import _ps_mul

        exact = [Fraction(0)] * (len(p) + len(q) - 1)
        for a, c in enumerate(p):
            for b, d in enumerate(q):
                exact[a + b] += c * d
        # small dyadic products and their sums are exact in double precision
        assert _ps_mul([float(c) for c in p], [float(d) for d in q]) == [float(c) for c in exact]

    @given(st.lists(dyadic, min_size=1, max_size=11))
    @settings(max_examples=150, deadline=None)
    def test_tail_expansion_follows_the_monomial_rules(self, terms):
        from arborzeta.zeta import _em_tail, _gamma

        kept = [Fraction(0)] * 2 + terms
        # E = -Phi - g, Phi = integral(g) - g/2 + g'/12 - g'''/720, term by term
        parts = [[] for _ in range(len(kept) + 3)]
        g5 = [Fraction(0)] * (len(kept) + 5)
        for a, c in enumerate(kept):
            if c:
                parts[a - 1].append(-c / (1 - a))
                parts[a].append(c / 2)
                parts[a + 1].append(a * c / 12)
                parts[a + 3].append(-a * (a + 1) * (a + 2) * c / 720)
                parts[a].append(-c)
                g5[a + 5] = -a * (a + 1) * (a + 2) * (a + 3) * (a + 4) * c
        E, got5 = _em_tail([float(c) for c in kept])
        assert (len(E), len(got5)) == (len(parts), len(g5))
        # the rounding budget the bound assumes for E: gamma_9 per contribution
        budget = Fraction(_gamma(9))
        for k, ps in enumerate(parts):
            assert abs(Fraction(E[k]) - sum(ps, Fraction(0))) <= budget * sum(map(abs, ps)), k
        for k, exact in enumerate(g5):
            assert abs(Fraction(got5[k]) - exact) <= budget * abs(exact), k

    def test_order_below_two_refused(self):
        from arborzeta.zeta import _vertex_tail

        with pytest.raises(AssertionError, match=r"a tree tail needs summands decaying like x\^-2"):
            _vertex_tail(parse_tree("y1"), 16)


class TestCheckBmz:
    def test_trivial_words(self):
        assert compare_bmz(Word(()))[2] == 0.0
        assert compare_bmz(y_word(1))[2] == 0.0

    def test_small_words_tight(self):
        for w in [y_word(1, 1), y_word(1, 2), y_word(2, 1), y_word(2), y_word(1, 1, 1)]:
            assert compare_bmz(w, 1e-10)[2] <= 1e-9, w

    def test_weight_three_sweep(self):
        for parts in [(3,), (1, 2), (2, 1), (1, 1, 1)]:
            assert compare_bmz(y_word(*parts), 1e-9)[2] <= 1e-8


class TestHoffmanRegRelation:
    def test_frozen_first_instance(self):
        got = hoffman_reg_relation(y_word(2))
        assert got == LinComb({x_word(0, 1, 1): Fraction(1), x_word(0, 0, 1): Fraction(-1)})

    def test_outputs_convergent(self):
        for w in [y_word(2), y_word(3), y_word(2, 2), y_word(2, 1)]:
            for u, _ in hoffman_reg_relation(w).items():
                assert is_convergent_x(u)

    def test_numeric_zero(self):
        for w in [y_word(2), y_word(3), y_word(2, 1), y_word(2, 2), y_word(3, 1)]:
            assert abs(zeta_comb_x(hoffman_reg_relation(w), 1e-10)) <= 1e-8, w

    def test_empty_word_cancels_exactly(self):
        assert hoffman_reg_relation(Word(())) == LinComb()

    def test_divergent_input_rejected(self):
        with pytest.raises(ValueError):
            hoffman_reg_relation(y_word(1, 2))


class TestTreeValues:
    def test_contracted_cherry_value(self):
        t = parse_tree("y2(y2,y2)")
        v = zeta_tree_y(t, 1e-10)
        expected = 2.0 * eval_mzv_bounded((2, 2, 2), 1e-10)[0] + eval_mzv_bounded((4, 2), 1e-10)[0]
        assert abs(v - expected) <= 1e-9

    def test_divergent_tree_rejected_with_reason(self):
        with pytest.raises(ValueError) as info:
            zeta_tree_y(parse_tree("y3(y1,y2)"))
        assert "y1" in str(info.value)

    def test_simple_tree_values(self):
        v = zeta_tree_x(parse_tree("x1(x0,x1(x0))"), 1e-10)
        expected = 2.0 * eval_mzv_bounded((3, 1), 1e-10)[0] + eval_mzv_bounded((2, 2), 1e-10)[0]
        assert abs(v - expected) <= 1e-9
        v2 = zeta_tree_x(parse_tree("x1(x0,x0(x0))"), 1e-10)
        assert abs(v2 - 3.0 * eval_mzv_bounded((4,), 1e-10)[0]) <= 1e-9

    def test_ladder_section_consistency(self):
        for w in [y_word(2), y_word(2, 1), y_word(3, 2, 1)]:
            t = ladder(s_map(w))
            assert abs(zeta_tree_x(t, 1e-10) - zeta_comb_y(LinComb.unit(w), 1e-10)) <= 1e-9

    def test_multiplicative_over_forests(self):
        f = Forest((parse_tree("y2"), parse_tree("y2")))
        lhs = zeta_tree_y(f, 1e-10)
        rhs = zeta_comb_y(LinComb.unit(y_word(2)), 1e-10) ** 2
        assert abs(lhs - rhs) <= 1e-8


class TestBruteTreeSum:
    def test_single_vertex(self):
        assert brute_tree_sum(vertex(YLetter(2)), 2) == 1.25
        assert abs(brute_tree_sum(vertex(YLetter(2)), 2000) - naive_mzv((2,), 2000)) < 1e-14

    def test_ladders_match_nested_sum(self):
        # the ladder section, checked against the word oracle: two codes that share nothing
        indices = [e for n in range(2, 7) for e in compositions(n) if e[0] >= 2]
        assert len(indices) == 31
        for e in indices:
            tree_sum, word_sum = brute_tree_sum(ladder(y_word(*e)), 300), naive_mzv(e, 300)
            assert abs(tree_sum - word_sum) <= 1e-14 * word_sum, e

    def test_cherry_at_bound_two(self):
        assert brute_tree_sum(parse_tree("y2(y2,y2)"), 2) == 1.0 / 16.0

    def test_truncation_identity_with_word_expansion(self):
        # cutting every vertex at N decomposes exactly into truncated word sums
        N = 40
        from arborzeta.forests import enumerate_trees

        for n in range(1, 4):
            for t in enumerate_trees(n, (YLetter(2), YLetter(3))):
                brute = brute_tree_sum(t, N)
                expanded = 0.0
                for w, c in arborify_y(Forest((t,))).items():
                    expanded += float(c) * naive_mzv(tuple(l.index for l in w.letters), N)
                assert abs(brute - expanded) <= 1e-12, t

    def test_oracle_equivalence_within_documented_bound(self):
        for text in ["y2", "y3(y2)", "y2(y2,y2)", "y2(y3)"]:
            t = parse_tree(text)
            lhs = brute_tree_sum(t, 5000)
            rhs = zeta_tree_y(t, 1e-9)
            assert abs(lhs - rhs) <= tree_truncation_bound(t, 5000) + 1e-8, text
        # a cutoff sweep: the gap closes inside the tail bound at every N
        tol = 1e-10
        for text in ["y2", "y3(y2)", "y2(y3)", "y2(y2,y2)", "y3(y2,y2)"]:
            t = parse_tree(text)
            value, bound = eval_tree_bounded(t, tol)
            assert bound <= tol, text
            for N in (100, 500, 2500, 12500):
                gap = abs(value - brute_tree_sum(t, N))
                assert gap <= tree_truncation_bound(t, N) + 10 * tol, (text, N)

    def test_truncation_bounds_refuse_small_cutoff(self):
        # both tail bounds are derived for N >= 50 only
        with pytest.raises(ValueError, match="^tail bound derivation assumes N >= 50$"):
            tree_truncation_bound(parse_tree("y2(y3)"), 49)
        with pytest.raises(ValueError, match="^tail bound derivation assumes N >= 50$"):
            mzv_truncation_bound((2,), 49)

    def test_wrong_alphabet_rejected(self):
        with pytest.raises(ValueError):
            brute_tree_sum(parse_tree("x1(x0)"), 10)


# ---------------------------------------------------------------------------
# tree-native evaluator: closed forms, Hurwitz sums, and the word route

def _hurwitz_star(a, bs):
    """sum_k k^-a prod_b zeta(b, k+1): a star summed over its root."""
    with mpmath.workdps(20):
        return float(mpmath.nsum(
            lambda k: k ** -a * mpmath.fprod(mpmath.zeta(b, k + 1) for b in bs), [1, mpmath.inf]
        ))


def _word_route(f):
    """zeta_comb_y(arborify_y(f)) and its certified error, at the tightest
    tolerance the word route accepts for this expansion."""
    comb = arborify_y(f)
    tol = max(1e-11, 1e-12 * math.ceil(sum(abs(c) for _, c in comb.items())))
    return zeta_comb_y(comb, tol), tol


@st.composite
def convergent_y_forests(draw):
    """Forests of at most 6 vertices over {y1, y2, y3} whose leaves are not y1."""
    n = draw(st.integers(1, 6))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    roots = [i for i in range(n) if parents[i] is None or draw(st.integers(0, 4)) == 0]
    decos = [draw(st.integers(1, 3)) for _ in range(n)]
    kids = {i: [j for j in range(n) if parents[j] == i and j not in roots] for i in range(n)}

    def build(i):
        index = decos[i] if kids[i] else max(decos[i], 2)
        return make_tree(YLetter(index), [build(j) for j in kids[i]])

    return Forest(tuple(build(i) for i in roots))


class TestTreeEvaluator:
    def test_y2_ladders_closed_form(self):
        for n in range(1, 8):
            v, bound = eval_tree_bounded(ladder(y_word(*[2] * n)), 1e-12)
            exact = float(mpmath.pi ** (2 * n) / mpmath.factorial(2 * n + 1))
            assert bound <= 1e-12
            assert abs(v - exact) <= bound + 1e-16 * exact, n

    def test_31_ladders_closed_form(self):
        for n in range(1, 4):
            v, bound = eval_tree_bounded(ladder(y_word(*[3, 1] * n)), 1e-12)
            exact = float(2 * mpmath.pi ** (4 * n) / mpmath.factorial(4 * n + 2))
            assert bound <= 1e-12
            assert abs(v - exact) <= bound + 1e-16 * exact, n

    def test_stars_against_hurwitz_sums(self):
        cases = [(2, [2, 2], 1e-12), (3, [2, 3, 2], 1e-10), (1, [2, 2], 1e-10), (2, [2] * 6, 1e-9)]
        for a, bs, tol in cases:
            text = f"y{a}({','.join(f'y{b}' for b in bs)})"
            v, bound = eval_tree_bounded(parse_tree(text), tol)
            ref = _hurwitz_star(a, bs)
            assert bound <= tol
            assert abs(v - ref) <= bound + 1e-16 * ref, text

    def test_bound_is_honest_at_small_cutoffs(self, monkeypatch):
        # at K = 16 or 32 the error is visible, so a missing part of the bound shows
        import arborzeta.zeta as zeta_mod

        # (tree, reference, certified error of the reference)
        cases = [
            (ladder(y_word(2, 2, 2)), float(mpmath.pi ** 6 / mpmath.factorial(7)), 0.0),
            (ladder(y_word(3, 1, 3, 1)), float(2 * mpmath.pi ** 8 / mpmath.factorial(10)), 0.0),
            (parse_tree("y2(y3,y2,y2)"), _hurwitz_star(2, [3, 2, 2]), 0.0),
            (parse_tree("y1(y2,y2)"), _hurwitz_star(1, [2, 2]), 0.0),
            # three unequal children and a deep chain, against the word route
            *((f, *_word_route(f)) for f in map(parse_forest, ["y2(y3(y2),y2,y2(y2))", "y3(y2(y2(y2)))"])),
        ]
        for K in (16, 32):
            monkeypatch.setattr(zeta_mod, "_TREE_K0", K)
            for t, exact, slack in cases:
                v, bound = eval_tree_bounded(t, 1e-3)
                assert bound < 1e-8
                assert abs(v - exact) <= bound + slack, (t, K)

    def test_named_tree_against_word_route(self):
        f = parse_forest("y2(y2(y2,y2),y2(y2,y2),y2(y2,y2))")
        v, bound = eval_tree_bounded(f, 1e-7)
        assert bound <= 1e-7
        assert abs(v - zeta_comb_y(arborify_y(f), 1e-6)) <= 1.1e-6

    def test_forest_is_product_of_trees(self):
        a, _ = eval_tree_bounded(parse_tree("y2(y3)"), 1e-12)
        b, _ = eval_tree_bounded(parse_tree("y3(y2,y2)"), 1e-12)
        v, bound = eval_tree_bounded(parse_forest("y2(y3);y3(y2,y2)"), 1e-12)
        assert bound <= 1e-12
        assert abs(v - a * b) <= 1e-12

    def test_empty_forest_is_one(self):
        assert eval_tree_bounded(Forest(()), 1e-9) == (1.0, 0.0)

    def test_tolerance_gate(self):
        t = parse_tree("y2(y2)")
        for tol, message in [
            (math.nan, "tolerance must be a finite number, got nan"),
            (math.inf, "tolerance must be a finite number, got inf"),
            (True, "tolerance must be a finite number, got True"),
            (1e-13, "tolerance below supported precision (min 1e-12)"),
            (0, "tolerance must be positive, got 0"),
            (-1, "tolerance must be positive, got -1"),
        ]:
            with pytest.raises(ValueError) as info:
                eval_tree_bounded(t, tol)
            assert str(info.value) == message

    def test_rounding_beyond_tolerance_refused(self):
        # the rounding term grows with the value and the cutoff, so a forest
        # of value zeta(2)^30 cannot be certified to 1e-12 at any cutoff
        with pytest.raises(ArithmeticError):
            eval_tree_bounded(Forest((vertex(YLetter(2)),) * 30), 1e-12)

    def test_divergent_and_wrong_alphabet_rejected(self):
        with pytest.raises(ValueError, match=r"^leaf decorated y1 makes the nested sum divergent \(needs index >= 2\)$"):
            eval_tree_bounded(parse_tree("y2(y1)"), 1e-9)
        with pytest.raises(ValueError, match="^expected y-decorations, found x0$"):
            eval_tree_bounded(parse_tree("x1(x0)"), 1e-9)

    @given(convergent_y_forests())
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_word_route(self, f):
        tol = 1e-9
        v, bound = eval_tree_bounded(f, tol)
        assert bound <= tol
        comb = arborify_y(f)
        # the smallest tolerance the word route accepts for this expansion
        mass = sum(abs(c) for _, c in comb.items())
        word_tol = max(tol, 1e-12 * math.ceil(mass))
        assert abs(v - zeta_comb_y(comb, word_tol)) <= bound + word_tol


# ---------------------------------------------------------------------------
# the vertex tails, one dict per cutoff K in the package's table under ("tails", K)

def _chain(depth):
    return "y1(" * (depth - 1) + "y2" + ")" * (depth - 1)


def _cutoffs():
    return sorted(K for name, K in lincomb._TABLE if name == "tails")


class TestTailTable:
    def test_separately_parsed_deep_chains(self):
        # the second chain finds every subtree of the first one in the table,
        # whose lookup compares the trees without recursion
        a = eval_tree_bounded(parse_forest(_chain(490)), 1e-9)
        b = eval_tree_bounded(parse_forest(_chain(490)), 1e-9)
        assert a == b
        assert b[1] <= 1e-9

    def test_large_subtrees_are_found(self, monkeypatch):
        import arborzeta.zeta as zeta_mod

        clear_table()
        first = eval_tree_bounded(parse_forest(_chain(40)), 1e-9)
        stored = lincomb._table_cost
        calls = []
        em_tail = zeta_mod._em_tail
        monkeypatch.setattr(zeta_mod, "_em_tail", lambda kept: calls.append(kept) or em_tail(kept))
        # a separately parsed tree of 40 vertices: every tail comes from the table
        assert eval_tree_bounded(parse_forest(_chain(40)), 1e-9) == first
        assert calls == [] and lincomb._table_cost == stored

    def test_cold_and_warm_are_bit_identical(self):
        from arborzeta.forests import enumerate_trees

        trees = [t for n in range(1, 7) for t in enumerate_trees(n, (YLetter(2), YLetter(3)))]
        assert len(trees) == 1202
        cases = [*trees, *map(parse_forest, ["y2;y3(y2)", "y2(y2,y2);y2(y2,y2)", "y3(y2(y3));y2(y3,y2,y2)"])]
        cases.append(parse_forest(_chain(7)))  # needs K = 250 at 1e-12
        for tol in (1e-9, 1e-12):
            cold = []
            for f in cases:
                clear_table()
                cold.append(eval_tree_bounded(f, tol))
            cutoffs = _cutoffs()  # those of the chain alone
            clear_table()
            warm = [eval_tree_bounded(f, tol) for f in cases]
            assert cold == warm, tol
        assert cutoffs == [125, 250]

    def test_stored_floats_stay_within_budget(self, monkeypatch):
        from arborzeta.forests import enumerate_trees

        budget = 20_000
        monkeypatch.setattr(lincomb, "_TABLE_BUDGET", budget)
        clear_table()
        cases = [t for n in (4, 5) for t in enumerate_trees(n, (YLetter(2), YLetter(3)))]
        cases.insert(len(cases) // 2, parse_forest(_chain(7)))
        counts = []
        for f in cases:
            tol = 1e-12 if isinstance(f, Forest) else 1e-9
            eval_tree_bounded(f, tol)
            assert table_cost() == lincomb._table_cost <= budget, f
            counts.append(lincomb._table_cost)
        # the loop stores more than the budget, so the table was cleared on the way
        assert any(b < a for a, b in zip(counts, counts[1:]))
        clear_table()


class TestPerCutoffTables:
    """The dict for K holds K^-a under "pow" and the weights of the pruned orders under "pruned"."""

    def test_tables_are_exact(self):
        import arborzeta.zeta as zeta_mod

        clear_table()
        eval_tree_bounded(parse_forest("y2(y2,y3(y2),y2(y2,y2,y2))"), 1e-9)
        eval_tree_bounded(parse_forest(_chain(7)), 1e-12)  # K = 125 and 250
        assert _cutoffs() == [125, 250]
        for K in _cutoffs():
            table = lincomb._TABLE["tails", K]
            pw, pruned = table["pow"], table["pruned"]
            assert len(pw) > 16 and pruned
            assert pw == [K ** -a for a in range(len(pw))]
            assert pruned == [zeta_mod._sum_tail(zeta_mod._A_MAX + 1 + i, 0, K) for i in range(len(pruned))]
        clear_table()

    def test_cold_and_warm_tables(self):
        from arborzeta.forests import enumerate_trees

        trees = [t for n in range(1, 6) for t in enumerate_trees(n, (YLetter(2), YLetter(3)))]
        cold = []
        for t in trees:
            clear_table()
            cold.append(eval_tree_bounded(t, 1e-9))
        clear_table()
        eval_tree_bounded(parse_tree("y2(y2,y2,y2,y2,y2,y2)"), 1e-9)  # longer tables than any tree below needs
        assert [eval_tree_bounded(t, 1e-9) for t in trees] == cold
        clear_table()

    def test_threshold_counts_the_tables(self, monkeypatch):
        tree = parse_tree("y2(y2,y3(y2,y2))")
        clear_table()
        eval_tree_bounded(tree, 1e-9)
        stored = lincomb._table_cost
        table = lincomb._TABLE["tails", 125]
        weights = len(table["pow"]) + len(table["pruned"])
        assert stored == table_cost() and weights > 0
        # a budget the tails and k^-n lists alone fit in is exceeded by the weights
        for budget, cleared in ((stored, False), (stored - weights, True)):
            monkeypatch.setattr(lincomb, "_TABLE_BUDGET", budget)
            clear_table()
            eval_tree_bounded(tree, 1e-9)
            assert (lincomb._table_cost == 0) == cleared
        clear_table()


class TestDeepTrees:
    def test_twin_deep_subtrees(self):
        # parse_forest builds the twins as one object, so sorting them compares one key
        for depth in (349, 600, 2000):
            c = _chain(depth)
            value, bound = eval_tree_bounded(parse_forest(f"y3({c},{c})"), 1e-9)
            assert bound <= 1e-9, depth
            assert 0.26 < value < 0.27, depth

    def test_deep_chain_cold_and_warm(self, monkeypatch):
        import arborzeta.zeta as zeta_mod

        clear_table()
        cold = eval_tree_bounded(parse_forest(_chain(3000)), 1e-9)
        # warm: every proper subtree is in the table, from a separately parsed
        # chain, under a budget that holds its 2,999 tails
        monkeypatch.setattr(lincomb, "_TABLE_BUDGET", 1 << 21)
        clear_table()
        eval_tree_bounded(parse_forest(_chain(2999)), 1e-9)
        calls = []
        em_tail = zeta_mod._em_tail
        monkeypatch.setattr(zeta_mod, "_em_tail", lambda kept: calls.append(kept) or em_tail(kept))
        assert eval_tree_bounded(parse_forest(_chain(3000)), 1e-9) == cold
        assert len(calls) == 1  # the root's tail alone is computed
        assert abs(cold[0] - 1.0) <= cold[1] <= 1e-9  # zeta(3001)
        clear_table()

    def test_huge_decoration_costs_no_memory(self):
        import tracemalloc

        t = parse_tree("y1000000")
        clear_table()
        tracemalloc.start()
        try:
            value, bound = eval_tree_bounded(t, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1.0 and bound <= 1e-9
        assert peak < 1 << 20, peak

    def test_deep_refusal_names_the_forest(self):
        # the refusal prints the 400-deep forest it could not certify
        with pytest.raises(ArithmeticError, match="cannot certify the forest y1"):
            eval_tree_bounded(parse_forest(_chain(400)), 1e-12)
