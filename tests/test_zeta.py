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
from hypothesis import assume, given, settings, strategies as st

from conftest import clear_table, table_cost

from arborzeta import lincomb
from arborzeta.hoffman import compositions
from arborzeta.lincomb import LinComb, ThetaPoly
from arborzeta.words import Word, is_convergent_x, s_inverse, s_map, x_word, y_word
from arborzeta.forests import Forest, bottom_up, make_tree, parse_forest, parse_tree, vertex
from arborzeta.arborify import arborify_x, arborify_y, ladder
from arborzeta.words import X0, X1, YLetter
from arborzeta.zeta import (
    NumericRegValue,
    brute_rounding_bound,
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


    def test_rounding_is_in_the_bound(self, monkeypatch):
        # every word value an exact float with bound 0: all that separates the float
        # sum from the exact sum of c * v is rounding, and the bound must cover it
        import arborzeta.zeta as zeta_mod

        monkeypatch.setattr(zeta_mod, "eval_mzv_bounded", lambda e, tol: (math.sqrt(sum(e)) / len(e), 0.0))
        combs = [
            LinComb({y_word(2): Fraction(1, 3), y_word(3, 1): Fraction(-2, 7), y_word(5): Fraction(5, 11)}),
            LinComb({y_word(2, 1, 1): Fraction(10**17 + 1, 3), y_word(4): -1}) * Fraction(1, 10**17),
            LinComb({y_word(n): Fraction(1, n) for n in range(2, 40)}),
            LinComb.unit(x_word(0, 1), Fraction(1, 3)),
        ]
        errors = []
        for comb in combs:
            value, bound = eval_comb_bounded(comb, 1e-9)
            exact = sum(c * Fraction(zeta_mod.eval_mzv_bounded(_index(w), 0)[0]) for w, c in comb.items())
            errors.append(abs(Fraction(value) - exact))
            assert errors[-1] <= Fraction(bound) and 0 < bound <= 1e-9, comb
        assert any(errors)  # the sums do round

    def test_rounding_past_tol_refused(self, monkeypatch):
        import arborzeta.zeta as zeta_mod

        monkeypatch.setattr(zeta_mod, "eval_mzv_bounded", lambda e, tol: (1e8 + sum(e), 0.0))
        comb = LinComb({y_word(2): Fraction(1, 3), y_word(3): Fraction(1, 7)})
        with pytest.raises(ArithmeticError, match=r"^cannot certify the sum of 2 words to 1e-09: its bound is \S+$"):
            eval_comb_bounded(comb, 1e-9)

    def test_refused_by_its_bound_not_by_its_mass(self):
        from arborzeta.words import shuffle

        # mass 10 asks each word for 1e-12 at tol 1e-11, and the sum's bound is what decides
        comb = shuffle(x_word(0, 1), x_word(0, 0, 1))
        value, bound = eval_comb_bounded(comb, 1e-11)
        assert bound <= 1e-11
        with mpmath.workdps(30):
            assert abs(value - float(mpmath.zeta(2) * mpmath.zeta(3))) <= bound
        with pytest.raises(ArithmeticError, match=r"^cannot certify the sum of 3 words to 1e-12: its bound is \S+$"):
            eval_comb_bounded(comb, 1e-12)


def _index(w):
    """The MZV index of a convergent word of either alphabet."""
    return tuple(l.index for l in (s_inverse(w) if is_convergent_x(w) else w).letters)


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
        sym = reg_qsh(y_word(1, 1))
        val = eval_reg(sym, 1e-10)
        assert abs(val.poly.coeff(2, 0.0) - 0.5) < 1e-15
        assert abs(val.poly.coeff(0, 0.0) + 0.5 * eval_mzv_bounded((2,), 1e-10)[0]) < 1e-9
        # each coefficient keeps the certified pair of its combination, not the tolerance
        for k, comb in sym.items():
            assert (val.poly.coeff(k, 0.0), val.bound.coeff(k, 0.0)) == eval_comb_bounded(comb, 1e-10)

    def test_plain_constant(self):
        val = eval_reg(ThetaPoly.constant(LinComb.unit(y_word(3))), 1e-9)
        assert abs(val.poly.coeff(0, 0.0) - 1.2020569031595942) < 1e-9


class TestRho:
    def test_fixes_constants_and_linear(self):
        one = NumericRegValue(ThetaPoly.constant(1.0), ThetaPoly())
        assert rho(one).poly == one.poly
        lin = NumericRegValue(ThetaPoly({1: 2.0, 0: -3.0}), ThetaPoly())
        assert rho(lin).poly == lin.poly

    def test_quadratic_example(self):
        z2 = eval_mzv_bounded((2,), 1e-10)[0]
        p = NumericRegValue(ThetaPoly({2: 0.5, 0: -0.5 * z2}), ThetaPoly())
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
            p = NumericRegValue(ThetaPoly(coeffs), ThetaPoly())
            diff = rho(p).poly - p.poly
            # exact: a_1 = 0, so only degrees <= d - 2 move
            assert all(k <= d - 2 for k, _ in diff.items())
            assert rho(p).poly.coeff(d, 0.0) == p.poly.coeff(d, 0.0)
            if d >= 1:
                assert rho(p).poly.coeff(d - 1, 0.0) == p.poly.coeff(d - 1, 0.0)


    def test_coefficients_are_theorem_oracles(self):
        # rho(theta^m) = sum_j a_j m!/(m-j)! theta^(m-j) with a_2 = zeta(2)/2, a_3 = -zeta(3)/3 and
        # a_4 = zeta(4)/4 + zeta(2)^2/8, each within the certified bound
        z2, z3, z4 = (float(mpmath.zeta(n)) for n in (2, 3, 4))
        a = {0: 1.0, 1: 0.0, 2: z2 / 2, 3: -z3 / 3, 4: z4 / 4 + z2 ** 2 / 8}
        for m in range(5):
            out = rho(NumericRegValue(ThetaPoly({m: 1.0}), ThetaPoly()))
            for j in range(m + 1):
                exact = a[j] * math.perm(m, j)
                assert abs(out.poly.coeff(m - j, 0.0) - exact) <= out.bound.coeff(m - j, 0.0) < 1e-11, (m, j)

    @pytest.mark.parametrize("moved", [0.0, 1e-6])
    def test_closed_form_is_gamma(self, moved, monkeypatch):
        # A(t) = e^(gamma t) Gamma(1 + t) (Ihara-Kaneko-Zagier): its Taylor coefficients are the a_j,
        # also when every zeta(n) is moved by the whole of a bound widened to take the move
        from arborzeta import zeta

        true = zeta.eval_mzv_bounded
        monkeypatch.setattr(zeta, "eval_mzv_bounded", lambda e, tol: tuple(x + moved for x in true(e, tol)))
        with mpmath.workdps(40):
            a = mpmath.taylor(lambda t: mpmath.exp(mpmath.euler * t) * mpmath.gamma(1 + t), 0, 10)
        out = rho(NumericRegValue(ThetaPoly({10: 1.0}), ThetaPoly()))
        for j in range(11):
            exact = a[j] * math.perm(10, j)
            assert abs(out.poly.coeff(10 - j, 0.0) - exact) <= out.bound.coeff(10 - j, 0.0), j

    def test_input_bounds_propagate_and_nothing_is_refused(self):
        # a degree-2 polynomial at any bound: rho refuses nothing of its own, and a bound whose
        # value is exactly 0.0 (theta^1 here) keeps its entry
        z2 = eval_mzv_bounded((2,), 1e-12)[0]
        exact = rho(NumericRegValue(ThetaPoly({2: 1.0}), ThetaPoly()))
        loose = rho(NumericRegValue(ThetaPoly({2: 1.0}), ThetaPoly({2: 1e-12, 1: 1e-12})))
        assert loose.poly == exact.poly == ThetaPoly({2: 1.0, 0: z2})
        assert loose.bound.coeff(1) >= 1e-12 and loose.poly.coeff(1) is None
        assert loose.bound.coeff(0) >= exact.bound.coeff(0) + z2 * 1e-12


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

    # floats of every binade, subnormals included, and both zeros
    floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0]))
    majorants = st.one_of(st.floats(0.0, allow_infinity=False), st.just(0.0))

    @pytest.mark.parametrize("n", [2, 13, 14, 40])
    @given(st.lists(floats, min_size=1, max_size=20), st.lists(majorants, min_size=1, max_size=20),
           st.sampled_from([125, 64000]))
    @settings(max_examples=60, deadline=None)
    def test_first_child_enters_shifted(self, n, E, err, K):
        from arborzeta.zeta import _A_MAX, _ps_mul, _ps_shift

        m = min(n, _A_MAX + 1)
        s = float(K) ** (m - n)  # 1.0 for n <= _A_MAX + 1
        for q in (E, [abs(c) for c in E], err):
            assert [c.hex() for c in _ps_shift(q, m, s)] == [c.hex() for c in _ps_mul([0.0] * m + [s], q)]

    @given(st.lists(st.tuples(floats, majorants), min_size=1, max_size=20), st.lists(floats, min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_joint_pass_is_both_products(self, gP, E):
        from arborzeta.zeta import _ps_mul, _ps_mul_pair

        g, P = [c if p else 0.0 for c, p in gP], [p for _, p in gP]  # g vanishes where P does
        bar = [abs(d) for d in E]
        got, want = _ps_mul_pair(g, P, E, bar), (_ps_mul(g, E), _ps_mul(P, bar))
        assert [[c.hex() for c in s] for s in got] == [[c.hex() for c in s] for s in want]

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

    def test_tolerance_is_the_sum_of_both_bounds(self):
        for parts in [(), (1,), (1, 2), (2, 1), (1, 1, 2), (1, 3), (2, 2)]:
            lhs, rhs, residual, tolerance = compare_bmz(y_word(*parts), 1e-9)
            pairs = [(abs(lhs.poly.coeff(k, 0.0) - rhs.poly.coeff(k, 0.0)),
                      lhs.bound.coeff(k, 0.0) + rhs.bound.coeff(k, 0.0))
                     for k in range(max(lhs.bound.degree(), rhs.bound.degree()) + 1)]
            assert (residual, tolerance) in pairs and all(r <= t for r, t in pairs), parts
            assert residual <= tolerance < 1e-11, parts

    def test_a_side_moved_past_its_bound_fails(self, monkeypatch):
        # rhs moved by twice the sum of both sides' bounds at theta^0: the row fails, and passes unmoved
        from arborzeta import zeta
        from arborzeta.verify import suite_bmz

        lhs, rhs, _, _ = compare_bmz(y_word(1, 2), 1e-9)
        shift = 2.0 * (lhs.bound.coeff(0) + rhs.bound.coeff(0))
        assert all(r.passed for r in suite_bmz(1e-9, 3))
        true_rho = zeta.rho

        def moved(val):
            out = true_rho(val)
            return out._replace(poly=out.poly + ThetaPoly.constant(shift))

        monkeypatch.setattr(zeta, "rho", moved)
        rows = {r.name: r for r in suite_bmz(1e-9, 3)}
        assert not rows["bmz:y1.y2"].passed
        assert rows["bmz:y1.y2"].residual > rows["bmz:y1.y2"].tolerance

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

    def test_rounding_bound_against_exact_sums(self):
        # the same suffix recursion in exact rationals
        from arborzeta.forests import bottom_up, enumerate_trees

        N = 60
        for n in range(1, 4):
            for t in enumerate_trees(n, (YLetter(2), YLetter(3))):
                suffix = {}
                for s in bottom_up((t,)):
                    g = [Fraction(0)] * (N + 2)
                    for m in range(N, 0, -1):
                        g[m] = g[m + 1] + math.prod((suffix[c][m + 1] for c in s.children),
                                                    start=Fraction(1, m ** s.decoration.index))
                    suffix[s] = g
                value = brute_tree_sum(t, N)
                assert abs(Fraction(value) - suffix[t][1]) <= brute_rounding_bound(t, N, value), t

    def test_oracle_equivalence_within_documented_bound(self):
        # the truncation, the evaluator's certificate and the rounding of the truncated sum
        for text in ["y2", "y3(y2)", "y2(y2,y2)", "y2(y3)"]:
            t = parse_tree(text)
            lhs = brute_tree_sum(t, 5000)
            rhs, bound = eval_tree_bounded(t, 1e-9)
            assert abs(lhs - rhs) <= tree_truncation_bound(t, 5000) + bound + brute_rounding_bound(t, 5000, lhs), text
        # a cutoff sweep: the gap closes inside the tail bound at every N
        tol = 1e-10
        for text in ["y2", "y3(y2)", "y2(y3)", "y2(y2,y2)", "y3(y2,y2)"]:
            t = parse_tree(text)
            value, bound = eval_tree_bounded(t, tol)
            assert bound <= tol, text
            for N in (100, 500, 2500, 12500):
                brute = brute_tree_sum(t, N)
                gap = abs(value - brute)
                assert gap <= tree_truncation_bound(t, N) + bound + brute_rounding_bound(t, N, brute), (text, N)

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


@st.composite
def convergent_x_forests(draw):
    """Forests of at most 6 vertices over {x0, x1} whose trees have two or more
    vertices, an x1 root and x0 leaves."""
    n = draw(st.integers(2, 6))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    roots = [i for i in range(n) if parents[i] is None or draw(st.integers(0, 4)) == 0]
    kids = {i: [j for j in range(n) if parents[j] == i and j not in roots] for i in range(n)}
    assume(all(kids[i] for i in roots))

    def build(i, root=False):
        letter = X1 if root else draw(st.sampled_from((X0, X1))) if kids[i] else X0
        return make_tree(letter, [build(j) for j in kids[i]])

    return Forest(tuple(build(i, True) for i in roots))


def _outcome(fn, *args):
    """fn(*args), or the type and message of the refusal it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


class TestTreeEvaluator:
    def test_y2_ladders_closed_form(self):
        # to 40 deep: single-child chains, each child entering its parent shifted
        for n in [*range(1, 8), 15, 20, 31, 40]:
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

    @pytest.mark.parametrize("text, word_tol", [
        ("x1(x1(x0,x0),x1(x0,x0),x1(x0,x0))", 1e-8),
        ("x1(x1(x1(x0,x0),x1(x0,x0)),x1(x1(x0,x0),x1(x0,x0)))", 1e-5),
    ], ids=["10-vertices", "15-vertices"])
    def test_large_x_trees_against_the_word_route(self, text, word_tol):
        # expansion masses 13,440 and 21,964,800: the word route's bound, mass times each
        # word's, certifies them only at a looser tolerance, and the kernel's at 1e-12
        f = parse_forest(text)
        v, bound = eval_tree_bounded(f, 1e-12)
        w, word_bound = eval_comb_bounded(arborify_x(f), word_tol)
        assert bound <= 1e-12 and abs(v - w) <= bound + word_bound

    def test_rounding_beyond_tolerance_refused(self):
        # the rounding term grows with the value and the cutoff, so a forest
        # of value zeta(2)^30 cannot be certified to 1e-12 at any cutoff
        with pytest.raises(ArithmeticError):
            eval_tree_bounded(Forest((vertex(YLetter(2)),) * 30), 1e-12)

    def test_divergent_and_wrong_alphabet_rejected(self):
        with pytest.raises(ValueError, match=r"^leaf decorated y1 makes the nested sum divergent \(needs index >= 2\)$"):
            eval_tree_bounded(parse_tree("y2(y1)"), 1e-9)
        # an x-forest goes through its expansion's ladders, and a divergent one is refused before it
        t = parse_tree("x1(x0)")
        (v, bound), (w, word_bound) = eval_tree_bounded(t, 1e-9), eval_comb_bounded(arborify_x(Forest((t,))), 1e-9)
        assert abs(v - w) <= bound + word_bound
        with pytest.raises(ValueError, match=r"^root decorated x0 makes the value divergent \(root must be x1\)$"):
            eval_tree_bounded(parse_tree("x0(x0)"), 1e-9)
        # the first tree names the alphabet, and a tree of the other one is refused
        with pytest.raises(ValueError, match="^expected y-decorations, found x0$"):
            eval_tree_bounded(Forest((parse_tree("y2"), t)), 1e-9)
        with pytest.raises(ValueError, match="^expected x-decorations, found y2$"):
            eval_tree_bounded(Forest((t, parse_tree("y2"))), 1e-9)

    @given(convergent_x_forests(), st.sampled_from([1e-9, 1e-12]))
    @settings(max_examples=40, deadline=None)
    def test_x_forests_through_their_expansion(self, f, tol):
        # the x-side twin of test_agrees_with_word_route: the expansion's words as y-ladders
        # of the tree kernel against the same words through the word route
        tree, word = _outcome(eval_tree_bounded, f, tol), _outcome(eval_comb_bounded, arborify_x(f), tol)
        if isinstance(word[0], type):  # a refusal of the word route certifies nothing to compare with
            return
        assert not isinstance(tree[0], type), tree  # on these forests the kernel certifies wherever the words do
        (v, bound), (w, word_bound) = tree, word
        assert bound <= tol and abs(v - w) <= bound + word_bound

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
    """The dict for K holds one list of K^-a under "pow", from which each pruned order's weight is read."""

    def test_tables_are_exact(self):
        import arborzeta.zeta as zeta_mod

        clear_table()
        eval_tree_bounded(parse_forest("y2(y2,y3(y2),y2(y2,y2,y2))"), 1e-9)
        eval_tree_bounded(parse_forest(_chain(7)), 1e-12)  # K = 125 and 250
        assert _cutoffs() == [125, 250]
        for K in _cutoffs():
            table = lincomb._TABLE["tails", K]
            pw = table["pow"]
            assert "pruned" not in table and len(pw) > 16
            assert pw == [K ** -a for a in range(len(pw))]
            # the weight _sum_tail(a, 0, K) of a pruned order a, bit for bit
            for a in range(zeta_mod._A_MAX + 1, len(pw)):
                assert (pw[a] + pw[a - 1] * (1.0 / (a - 1))).hex() == zeta_mod._sum_tail(a, 0, K).hex(), (K, a)
        # and so at every cutoff the kernel tries, for orders far past any list's length here
        for K in (125 * 2 ** j for j in range(10)):
            for a in range(zeta_mod._A_MAX + 1, 200):
                assert (K ** -a + K ** (1 - a) * (1.0 / (a - 1))).hex() == zeta_mod._sum_tail(a, 0, K).hex(), (K, a)
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
        weights = len(lincomb._TABLE["tails", 125]["pow"])
        assert stored == table_cost() and weights > 0
        # a budget the tails and k^-n lists alone fit in is exceeded by the K^-a list
        for budget, cleared in ((stored, False), (stored - weights, True)):
            monkeypatch.setattr(lincomb, "_TABLE_BUDGET", budget)
            clear_table()
            eval_tree_bounded(tree, 1e-9)
            assert (lincomb._table_cost == 0) == cleared
        clear_table()

    def test_kernel_needs_no_word_route_helper(self, monkeypatch):
        import arborzeta.zeta as zeta_mod

        # each input has summands past _A_MAX: eight expansions multiplied, decorations entering
        # as their majorants, and the ladders of an x-tree's words
        inputs = [("y2(" + ",".join(["y2"] * 8) + ")", 1e-9), ("x1(x0,x0,x0,x0,x0,x0)", 1e-9)]
        inputs += [(f"y{n}(y2,y{n}(y{n}))", tol) for n in range(13, 31) for tol in (1e-9, 1e-12)]

        def cold_hexes():
            out = []
            for text, tol in inputs:
                clear_table()
                out.append([x.hex() for x in eval_tree_bounded(parse_forest(text), tol)])
            return out

        def refuse(*args):
            raise RuntimeError("the tree kernel called a helper of the word route")

        expected = cold_hexes()
        for name in ("_sum_tail", "_max_term", "_int_tail"):
            monkeypatch.setattr(zeta_mod, name, refuse)
        assert cold_hexes() == expected
        clear_table()


def _four_pass_err_t(t, table, K):
    """err_t of t's tail at K, from its children's tails in table, as the kernel assembled it in
    four _ps_add passes over temporary lists and a fix-up for the pruned orders, weighed by
    _sum_tail; also that assembly with the fix-up after the last pass, and, to show what the
    tail covers, the pruned orders' total, D and the kept orders of g."""
    import arborzeta.zeta as z

    n, kids = t.decoration.index, [table[c] for c in t.children]
    m = min(n, z._A_MAX + 1)
    g = P = [0.0] * m + [s := float(K) ** (m - n)]
    D = []
    if kids:
        E, err, bar, *_ = kids[0]
        g, D, P = z._ps_shift(E, m, s), z._ps_shift(err, m, s), z._ps_shift(bar, m, s)
    for E, err, bar, bar_err, *_ in kids[1:]:
        D = z._ps_add(z._ps_mul(D, bar_err), z._ps_mul(P, err))
        g, P = z._ps_mul_pair(g, P, E, bar)
    kept = g[:z._A_MAX + 1]
    D = z._ps_add(D, P, z._gamma(sum(nE for *_, nE, _ in kids)))
    dropped = z._sum(abs(c) * z._sum_tail(a, 0, K) for a, c in enumerate(g[z._A_MAX + 1:], z._A_MAX + 1) if c)
    E_t, g5 = z._em_tail(kept)
    err_t = [0.0] + [abs(c) / (a - 1) for a, c in enumerate(D[2:], 2)]
    err_t = z._ps_add(err_t, [0.0] + [abs(c) / (a - 1) for a, c in enumerate(g5[2:], 2)], z._EM_REMAINDER)
    err_t = z._ps_add(err_t, [2.0 * abs(c) for c in kept[1:]], z._gamma(9))
    bar, scale = list(map(abs, E_t)), z._gamma(sum(map(bool, E_t)) + 3)
    swapped = z._ps_add(err_t, bar, scale)
    if dropped:
        err_t[z._A_MAX] += dropped * float(K) ** z._A_MAX
        swapped[z._A_MAX] += dropped * float(K) ** z._A_MAX
    return z._ps_add(err_t, bar, scale), swapped, dropped, D, kept


class TestErrTail:
    def test_one_pass_matches_four_passes(self):
        from arborzeta.zeta import _A_MAX, _vertex_tail

        binary = "y2"
        for _ in range(3):  # 15 vertices
            binary = f"y2({binary},{binary})"
        texts = ["y2(" + ",".join(["y2"] * 8) + ")", _chain(30), binary, "y3(y2,y3,y2(y2,y3))"]
        texts += [f"y{n}(y2,y{n}(y{n}))" for n in range(13, 31)]
        covered = {"pruned orders": 0, "zero coefficients": 0, "long D": 0, "order matters": 0}
        for K in (125, 250):
            clear_table()
            for text in texts:
                t = parse_tree(text)
                _vertex_tail(t, K)
                table = lincomb._TABLE["tails", K]
                for s in bottom_up((t,)):
                    ref, swapped, dropped, D, kept = _four_pass_err_t(s, table, K)
                    err_t = [x.hex() for x in table[s][1]]
                    assert err_t == [x.hex() for x in ref], (s, K)
                    covered["pruned orders"] += dropped > 0
                    covered["zero coefficients"] += 0.0 in kept[2:]
                    covered["long D"] += len(D) > 2 * _A_MAX
                    covered["order matters"] += err_t != [x.hex() for x in swapped]
        assert all(covered.values()), covered
        clear_table()


def _ascending_sums(exponents, K):
    """The word route's exact pass as one ascending loop over m, which updates
    the r Kahan-compensated sums in turn: the reference for _exact_sums."""
    r = len(exponents)
    F = [0.0] * (r + 2)
    F[r + 1] = 1.0
    comp = [0.0] * (r + 1)
    powers = [-n for n in exponents]
    for m in range(1, K):
        fm = float(m)
        for j in range(1, r + 1):
            term = F[j + 1] * fm ** powers[j - 1]
            y = term - comp[j - 1]
            t = F[j] + y
            comp[j - 1] = (t - F[j]) - y
            F[j] = t
    return F


class TestSharedPowerLists:
    """The word route sums one level at a time over the k^-n lists that the
    tree kernel keeps in the table's dict for K."""

    def test_word_and_tree_share_the_lists(self, monkeypatch):
        import arborzeta.zeta as zeta_mod

        clear_table()
        eval_mzv_bounded((2, 1), 1e-9)
        assert _cutoffs() == [1000]
        table = lincomb._TABLE["tails", 1000]
        lists = {n: table[n] for n in (1, 2)}
        assert sorted(k for k in table if isinstance(k, int)) == [1, 2]
        for n, got in lists.items():  # in summation order, descending k
            assert got == [float(k) ** -n for k in range(1000, 0, -1)]
        assert lincomb._table_cost == table_cost() == 2 * 1000 + lincomb.TERM_COST
        # the tree kernel at the same cutoff reads the same list objects
        monkeypatch.setattr(zeta_mod, "_TREE_K0", 1000)
        eval_tree_bounded(parse_tree("y1(y2)"), 1e-9)
        assert lincomb._TABLE["tails", 1000] is table
        assert all(table[n] is got for n, got in lists.items())
        assert lincomb._table_cost == table_cost()
        clear_table()

    def test_level_passes_are_bit_identical(self):
        from arborzeta.zeta import _exact_sums

        indices = [e for w in range(2, 8) for e in compositions(w) if e[0] >= 2]
        assert len(indices) == 63
        for K in (1000, 2000):
            for e in indices:
                assert [x.hex() for x in _exact_sums(e, K)] == [x.hex() for x in _ascending_sums(e, K)], (e, K)
        # k^-1000 underflows to 0 for k >= 3
        e = (2, 1000, 1)
        assert [x.hex() for x in _exact_sums(e, 1000)] == [x.hex() for x in _ascending_sums(e, 1000)]
        clear_table()


def _below_cutoff(t, K):
    """The kernel's pass below K as a plain loop over m = K..0: T(m - 1) = T(m) + m^-n prod T_c(m) and
    eps(m - 1) = eps(m) + m^-n (prod(T_c + eps_c) - prod T_c), a child at a time as the kernel takes
    them, seeded with the kernel's T(K) and eps(K) and read with its children's tails at m."""
    from arborzeta.zeta import _vertex_tail

    *_, T, eps, _, _, _ = _vertex_tail(t, K)
    kids = [_vertex_tail(c, K)[4:6] for c in t.children]
    T_ref, eps_ref = [T[0]], [eps[0]]
    for m in range(K, 0, -1):
        p, d = float(m) ** -t.decoration.index, None
        for Tc, ec in kids:
            tc, e = Tc[K - m], ec[K - m]
            d = p * e if d is None else d * (tc + e) + p * e
            p *= tc
        T_ref.append(T_ref[-1] + p)
        eps_ref.append(eps_ref[-1] if d is None else eps_ref[-1] + d)
    return [x.hex() for x in T_ref], [x.hex() for x in eps_ref], [x.hex() for x in T], [x.hex() for x in eps]


class TestSummationOrder:
    """A tail's T and eps are lists in summation order, entry j at m = K - j, and
    every float sum that becomes a value or a bound adds its terms in order."""

    def test_below_cutoff_pass_matches_a_plain_loop(self):
        binary = "y2"
        for _ in range(3):  # 15 vertices
            binary = f"y2({binary},{binary})"
        trees = [parse_tree(_chain(7)), parse_tree("y2(y3(y2(y3(y2))))"), parse_tree("y2(" + ",".join(["y2"] * 8) + ")"),
                 parse_tree("y3(y2,y3,y2(y2,y3))"), parse_tree(binary), parse_tree("y5")]
        for K in (125, 250):
            clear_table()
            for t in trees:
                for s in bottom_up((t,)):
                    T_ref, eps_ref, T, eps = _below_cutoff(s, K)
                    assert len(T) == len(eps) == K + 1, (s, K)
                    assert T == T_ref and eps == eps_ref, (s, K)
        clear_table()

    def test_float_sums_are_sequential(self):
        from arborzeta.zeta import _sum

        # a compensated sum (sum() from Python 3.12 on) gives 2.0 here
        assert _sum([1.0, 1e100, 1.0, -1e100]) == 0.0
        assert _sum(iter([0.1] * 10)) == 0.9999999999999999
        assert repr(_sum([])) == repr(sum([])) == "0" and repr(_sum([-0.0])) == "0.0"  # as sum() gives

    def test_refusal_names_the_best_bound(self, monkeypatch):
        import arborzeta.zeta as zeta_mod

        # zeta(2,{1}^13): tol 0 stops each search at its first cutoff, which gives that cutoff's pair
        trees = (ladder(y_word(2, *[1] * 13)),)
        pairs = []
        for K in (125, 250, 500, 1000):
            monkeypatch.setattr(zeta_mod, "_TREE_K0", K)
            pairs.append(zeta_mod._tree_sum(trees, 0.0))
        monkeypatch.undo()
        best = min(pairs, key=lambda vb: vb[1])
        assert best == pairs[1] != pairs[2]  # K = 250 reaches a smaller bound than K = 500
        with pytest.raises(ArithmeticError, match=f"best bound {best[1]:g}$"):
            eval_tree_bounded(trees[0], 1e-12)
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
