"""Multiple zeta values: certified numerics and regularized characters.

Numerical evaluation
--------------------

zeta(n1, ..., nr) is the nested sum over k1 > k2 > ... > kr >= 1 of
1/(k1^n1 ... kr^nr), convergent exactly when n1 >= 2.  Direct truncation
converges far too slowly near the weight-2 boundary, so the evaluator sums
the region k1 < K exactly and corrects the tail with Euler-Maclaurin,
recursing on depth:

* One ascending pass computes the exact partial sums F_j(K) of every suffix,
  where F_j(k) = sum over k > m_j > ... > m_r >= 1 of the suffix factors.
* Walking suffixes from the innermost outwards, each F_j is given an
  asymptotic expansion in the basis x^(-a) ln(x)^b.  If F_{j+1} has expansion
  E(x), then g(x) = x^(-n_j) E(x) and Euler-Maclaurin gives

      F_j(k) = C + Phi(k) + remainder,   Phi = integral(g) - g/2 + g'/12 - g'''/720,

  with the constant extracted exactly as C = F_j(K) - Phi(K).  All three
  correction terms stay inside the same log-power basis, so the recursion is
  closed.  The remainder after the B4 term is bounded rigorously by
  2*zeta(5)/(2*pi)^5 * integral from K of |g^(5)|, and the inner expansion
  defects propagate outwards through explicit log-power majorants.
* At the top level n1 >= 2 forces Phi to vanish at infinity, so the value is
  the extracted constant and the certified bound is the accumulated remainder
  plus a fixed double-precision allowance.

Certified values come at three levels, each a pair (value, bound) with
|value - exact| <= bound <= tol: ``eval_mzv_bounded`` for one index,
``eval_comb_bounded`` for a combination of convergent words of either
alphabet (an x-word through the inverse block substitution), which certifies
each word w to tol / ceil(sum |c|) and reports sum |c| * bound_w, and
``eval_tree_bounded`` for a y-decorated forest, below.

The naive double truncation survives in ``naive_mzv`` as the independent
cross-check oracle, with the documented tail bound::

    zeta(n) - naive_mzv(n, N) <= B * (h(N+1) + integral from N+1 of h),
    h(x) = x^(-n1) (1 + ln x)^c,

where c counts the inner exponents equal to 1 and B is the product of
1 + 1/(n_j - 1) over the inner exponents n_j >= 2 (each factor dominates the
corresponding one-variable sum).

Tree-level evaluation
---------------------

A convergent y-decorated tree is a nested sum over its vertices, with
indices strictly increasing away from the root.  For a vertex decorated y_n
with children c the tail is

    T_v(m) = sum over k > m of k^(-n) prod_c T_c(k),

a tree's value is T_root(0) and a forest's value the product over its trees.
``eval_tree_bounded`` sums this recursion directly, with no word expansion:

* Above the cutoff K each T_v has an expansion E_v in powers x^(-a): the
  summand g = x^(-n) prod E_c is pruned at order _A_MAX and its tail is
  sum_{k>x} g(k) = -Phi(x) - g(x) + remainder, with Phi as above.  In a
  convergent tree every summand decays at least like x^(-2), so no
  logarithms arise and E_v vanishes at infinity.  So every expansion and
  majorant is a dense list of floats, entry a the coefficient of x^(-a);
  products skip zero coefficients, one descending pass applies the monomial
  rules for -Phi - g and g^(5), and values at K sum the highest order first.
* Below K the exact backward pass T_v(m) = T_v(m+1) + (m+1)^(-n) prod
  T_c(m+1) runs from the seed T_v(K) = E_v(K), with one table of k^(-n) per n.
* The bound.  Above K a decaying majorant err_v >= |T_v - E_v| collects the
  Euler-Maclaurin remainder 2*zeta(5)/(2*pi)^5 * integral of |g^(5)|, the
  pruned orders, the coefficient rounding of the expansions and the child
  defects x^(-n) (prod(|E_c| + err_c) - prod |E_c|), each summed over k > x
  through its integral.  Below K a running majorant pass carries err_v(K)
  down with prod(T_c + eps_c) - prod T_c, valid because every term is
  positive.  Rounding adds gamma_2M times the value, gamma_M = M*u/(1 - M*u)
  with u = 2^-53 and M counting the roundings along any path through the
  passes (each count takes the nonzero coefficients a pass sums: of the E_c
  in g, of E_v at K, of E_c, err_c and err_v in M), and the majorant is
  inflated by the relative rounding of its own pass.  K starts at 125 and
  doubles up to 64000; once the rounding term alone exceeds tol the
  tolerance is refused.
* The cost.  A vertex tail (E_v, err_v, T_v, eps_v) depends only on the
  subtree and K, so the package's table (see ``lincomb``) keeps, per K, the
  tails of every subtree and the k^-n tables from one call to the next; a
  lookup compares trees without recursion, so a subtree of any size is
  stored.  A tree not in the table is walked from the leaves up, stopping
  at the subtrees the table holds, so no depth is too deep.  A call costs
  O(K) per subtree not yet in the table, and the values and bounds do not
  depend on what it holds.  A decoration y_n with n > _A_MAX + 1 enters the
  expansion as its majorant K^(_A_MAX + 1 - n) x^-(_A_MAX + 1), so every n
  costs the same.  Each K also keeps K^-a and the weights _sum_tail(a, 0, K)
  of the pruned orders a > _A_MAX, in lists that grow on demand.  Each float
  costs one unit of the table's budget, and a pass ends with its trim.

Regularization
--------------

Both products extend to characters on all words once zeta(y1) = zeta(x1) is
given the formal value theta.  The implementation eliminates divergent words
triangularly: if w has a > 0 leading y1 letters and v = w minus one leading
y1, the quasi-shuffle y1 * v contains w with coefficient a plus words with
fewer leading y1 letters, so

    reg(w) = (theta * reg(v) - reg(y1 * v - a*w)) / a

terminates by induction on (length, leading count).  The shuffle side is
identical with x1 in place of y1, and stores its convergent coefficients as
summation words through the inverse block substitution.  The two characters
are intertwined by the exponential differential operator ``rho`` built from
the depth-one values zeta(n), n >= 2.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

from .arborify import (
    arborify_x,
    arborify_y,
    divergence_reason_x,
    divergence_reason_y,
)
from .forests import Forest, Tree, bottom_up, size
from .lincomb import _TABLE, NEG_INF, TERM_COST, LinComb, ThetaPoly, table_put, trim
from .words import (
    Word,
    X1,
    XLetter,
    YLetter,
    is_convergent_x,
    is_convergent_y,
    quasi_shuffle,
    s_inverse,
    s_map,
    shuffle,
    y_word,
)

MzvIndex = Tuple[int, ...]

# ---------------------------------------------------------------------------
# log-power expansions of the word route: dict (a, b) -> sum c * x^-a * ln(x)^b

_LogPow = Dict[Tuple[int, int], float]

_EM_REMAINDER = 2.2e-4   # >= 2*zeta(5)/(2*pi)^5, remainder factor after the B4 term
_A_MAX = 12              # expansion order kept in x^-a
_ROUNDING_SLOP = 2.0e-13 # double-precision allowance folded into every word bound


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is a bool, not a finite number, not positive, or below 1e-12."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not math.isfinite(tol):
        raise ValueError(f"tolerance must be a finite number, got {tol!r}")
    if tol < 1e-12:
        raise ValueError("tolerance below supported precision (min 1e-12)" if tol > 0
                         else f"tolerance must be positive, got {tol:g}")


def _lp_put(dst: _LogPow, key: Tuple[int, int], v: float) -> None:
    """dst[key] += v, dropping the key when the sum is zero."""
    v = dst.get(key, 0.0) + v
    if v:
        dst[key] = v
    elif key in dst:
        del dst[key]


def _lp_add(dst: _LogPow, src: _LogPow, scale: float = 1.0) -> None:
    for key, c in src.items():
        _lp_put(dst, key, scale * c)


def _lp_shift(p: _LogPow, n: int) -> _LogPow:
    return {(a + n, b): c for (a, b), c in p.items()}


def _lp_deriv(p: _LogPow) -> _LogPow:
    out: _LogPow = {}
    for (a, b), c in p.items():
        if a:
            _lp_put(out, (a + 1, b), -a * c)
        if b:
            _lp_put(out, (a + 1, b - 1), b * c)
    return out


def _lp_antideriv(p: _LogPow) -> _LogPow:
    """Antiderivative without constant; every term needs a >= 1."""
    out: _LogPow = {}
    for (a, b), c in p.items():
        if a < 1:
            raise ValueError("antiderivative needs strictly decaying terms")
        if a == 1:
            _lp_put(out, (0, b + 1), c / (b + 1))
        else:
            coef = 1.0 / (1 - a)
            for j in range(b, -1, -1):
                _lp_put(out, (a - 1, j), c * coef)
                coef *= -j / (1 - a)
    return out


def _lp_eval(p: _LogPow, x: float) -> float:
    lx = math.log(x)
    return sum(c * x ** (-a) * lx ** b for (a, b), c in p.items())


def _int_tail(a: int, b: int, K: float) -> float:
    """integral from K to infinity of x^-a ln(x)^b dx, for a >= 2."""
    if a < 2:
        raise ValueError("tail integral needs a >= 2")
    lk = math.log(K)
    total = 0.0
    fact = 1.0
    for i in range(b + 1):
        if i:
            fact *= i
        total += math.comb(b, i) * lk ** (b - i) * fact / (a - 1) ** (i + 1)
    return K ** (1 - a) * total


def _max_term(a: int, b: int, K: float) -> float:
    """max over [K, inf) of x^-a ln(x)^b."""
    if b == 0:
        return K ** (-a)
    if math.log(K) >= b / a:
        return K ** (-a) * math.log(K) ** b
    return math.exp(-b) * (b / a) ** b


def _sum_tail(a: int, b: int, K: int) -> float:
    """Upper bound for sum over m >= K of m^-a ln(m)^b, a >= 2."""
    return _max_term(a, b, K) + _int_tail(a, b, K)


def _lp_prune(g: _LogPow, K: int) -> Tuple[_LogPow, float]:
    """Drop terms beyond the kept expansion order; returns a bound on the
    total partial-sum contribution of everything dropped."""
    kept: _LogPow = {}
    dropped = 0.0
    for (a, b), c in g.items():
        if a <= _A_MAX:
            kept[(a, b)] = c
        else:
            dropped += abs(c) * _sum_tail(a, b, K)
    return kept, dropped


def _build_phi(g: _LogPow) -> _LogPow:
    phi = _lp_antideriv(g)
    _lp_add(phi, g, -0.5)
    g1 = _lp_deriv(g)
    _lp_add(phi, g1, 1.0 / 12.0)
    g3 = _lp_deriv(_lp_deriv(g1))
    _lp_add(phi, g3, -1.0 / 720.0)
    return phi


def _em_remainder(g: _LogPow, K: int) -> float:
    g5 = g
    for _ in range(5):
        g5 = _lp_deriv(g5)
    return _EM_REMAINDER * sum(abs(c) * _int_tail(a, b, K) for (a, b), c in g5.items())


def _stray_terms(err: _LogPow, n: int, K: int) -> Tuple[_LogPow, Optional[float]]:
    """Majorant for k -> sum_{m=K}^{k-1} m^-n err(m), plus its limit when finite.

    err is a log-power majorant with nonnegative coefficients and terms
    (a, b); each term contributes with s = n + a either a constant (s >= 2)
    or a growing log power (s == 1), in which case the limit is infinite.
    """
    out: _LogPow = {}
    at_inf: Optional[float] = 0.0
    for (a, b), e in err.items():
        s = n + a
        if s >= 2:
            const = e * _sum_tail(s, b, K)
            _lp_add(out, {(0, 0): const})
            if at_inf is not None:
                at_inf += const
        else:
            _lp_add(out, {(0, b + 1): e / (b + 1), (0, 0): e * _max_term(1, b, K)})
            at_inf = None
    return out, at_inf


def _mzv_em(exponents: MzvIndex, K: int) -> Tuple[float, float]:
    """Accelerated value and certified mathematical tail bound at cutoff K."""
    r = len(exponents)
    # exact suffix partial sums F_j(K), one ascending Kahan-compensated pass
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

    expn: _LogPow = {(0, 0): 1.0}
    err: _LogPow = {}
    for j in range(r, 0, -1):
        n = exponents[j - 1]
        g, drop = _lp_prune(_lp_shift(expn, n), K)
        phi = _build_phi(g)
        Cj = F[j] - _lp_eval(phi, K)
        R = _em_remainder(g, K) + drop
        stray, at_inf = _stray_terms(err, n, K)
        if j > 1:
            expn = dict(phi)
            _lp_add(expn, {(0, 0): Cj})
            err = {(0, 0): R}
            _lp_add(err, stray)
        else:
            if any(a < 1 for (a, b) in phi):
                raise AssertionError("outer expansion must decay; got a growing term")
            if at_inf is None:
                raise AssertionError("outer stray bound must be finite for n1 >= 2")
            return Cj, R + at_inf
    return 1.0, 0.0  # r == 0: the empty product


def eval_mzv_bounded(exponents: MzvIndex, tol: float = 1e-9) -> Tuple[float, float]:
    """Value and certified absolute error bound; raises if tol is unreachable."""
    exponents = tuple(exponents)
    for n in exponents:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"exponents must be positive integers, got {exponents}")
    _check_tol(tol)
    if not exponents:
        return 1.0, 0.0
    if exponents[0] < 2:
        raise ValueError(f"zeta{exponents} diverges: leading exponent must be >= 2")
    key = ("eval_mzv_bounded", (exponents, float(tol)))
    got = _TABLE.get(key)
    if got is not None:
        return got
    K = 1000
    while True:
        value, tail = _mzv_em(exponents, K)
        bound = tail + _ROUNDING_SLOP
        if bound <= tol:
            break
        if K >= 64000:
            raise ArithmeticError(
                f"cannot certify zeta{exponents} to {tol:g}: best bound {bound:g}"
            )
        K *= 2
    table_put(key, (value, bound), TERM_COST)
    trim()
    return value, bound


def naive_mzv(exponents: MzvIndex, N: int) -> float:
    """Oracle: plain truncation of the nested sum with every index <= N."""
    exponents = tuple(exponents)
    r = len(exponents)
    inner = [1.0] * (N + 1)  # inner[k] = truncated suffix sum with indices <= k
    for j in range(r - 1, -1, -1):
        n = exponents[j]
        new = [0.0] * (N + 1)
        run = 0.0
        for k in range(1, N + 1):
            run += float(k) ** (-n) * inner[k - 1]
            new[k] = run
        inner = new
    return inner[N]


def mzv_truncation_bound(exponents: MzvIndex, N: int) -> float:
    """Upper bound for zeta(exponents) - naive_mzv(exponents, N).

    Documented derivation: the missing terms have k1 > N, and the inner
    partial sums are bounded by B * (1 + ln k1)^c with B and c as in the
    module docstring; summing k1^(-n1) (1 + ln k1)^c over k1 > N is bounded
    by the first term plus the integral, both in closed form.
    """
    exponents = tuple(exponents)
    if not exponents:
        return 0.0
    n1 = exponents[0]
    if n1 < 2:
        raise ValueError("tail bound needs a convergent index")
    if N < 50:
        raise ValueError("tail bound derivation assumes N >= 50")
    B = 1.0
    c = 0
    for n in exponents[1:]:
        if n >= 2:
            B *= 1.0 + 1.0 / (n - 1)
        else:
            c += 1
    A = float(N + 1)
    la = 1.0 + math.log(A)
    first = A ** (-n1) * la ** c
    integral = 0.0
    fact = 1.0
    for i in range(c + 1):
        if i:
            fact *= i
        integral += math.comb(c, i) * la ** (c - i) * fact / (n1 - 1) ** (i + 1)
    integral *= A ** (1 - n1)
    return B * (first + integral)


# ---------------------------------------------------------------------------
# combinations of words

def _split_tol(comb: LinComb, tol: float) -> float:
    mass = sum(abs(float(c)) for _, c in comb.items())
    per = tol / max(1.0, math.ceil(mass))
    if per < 1e-12 <= tol:
        raise ValueError(f"a combination of coefficient mass {mass:g} evaluates each word to "
                         f"tol/{math.ceil(mass)} = {per:g}, below the supported 1e-12")
    return per


def _mzv_index(w: Word) -> MzvIndex:
    """The index of a convergent word of either alphabet; an x-word goes
    through the inverse block substitution."""
    if w.letters and isinstance(w.letters[0], XLetter):
        if not is_convergent_x(w):
            raise ValueError(f"word {w} is divergent: it must start with x0 and end with x1")
        w = s_inverse(w)
    elif not is_convergent_y(w):
        raise ValueError(f"word {w} is divergent: it starts with y1")
    return tuple(l.index for l in w.letters)


def eval_comb_bounded(comb: LinComb, tol: float = 1e-9) -> Tuple[float, float]:
    """Value and certified bound of a combination of convergent words of
    either alphabet; the empty word evaluates to 1.

    Each word w is certified to tol / ceil(mass) by eval_mzv_bounded, so the
    bound sum |c| * bound_w is at most tol.  The value sums in stored order.
    """
    _check_tol(tol)  # before the split, so that a refusal names the caller's tol
    per = _split_tol(comb, tol)
    terms = [(float(c), eval_mzv_bounded(_mzv_index(w), per)) for w, c in comb.items()]
    return sum(c * v for c, (v, _) in terms), sum(abs(c) * b for c, (_, b) in terms)


# the value alone, under both names that callers (and the benchmark's tracer) use
def zeta_comb_y(comb: LinComb, tol: float = 1e-9) -> float:
    return eval_comb_bounded(comb, tol)[0]


def zeta_comb_x(comb: LinComb, tol: float = 1e-9) -> float:
    return eval_comb_bounded(comb, tol)[0]


# ---------------------------------------------------------------------------
# regularized characters

_Y1 = y_word(1)
_X1W = Word((X1,))


def _eliminate(w: Word, prod: LinComb, reg: Callable[[Word], ThetaPoly]) -> ThetaPoly:
    """reg(w) = (theta * reg(v) - reg(prod - a*w)) / a, where prod is the
    product of the divergent letter with v = w minus its first letter and a
    is the coefficient of w in prod."""
    a = prod.coeff(w)
    acc = reg(Word(w.letters[1:])).shift(1)
    for u, c in (prod - LinComb.unit(w, a)).items():
        acc = acc - reg(u).scale(c)
    return acc.scale(Fraction(1, int(a)))


@lru_cache(maxsize=1 << 10)  # all 256 words of weight <= 8 fill 256 entries
def reg_qsh(w: Word) -> ThetaPoly:
    """Quasi-shuffle regularization of a summation word.

    Returns a polynomial in theta whose coefficients are exact rational
    combinations of convergent words; on convergent words it is the word
    itself and reg_qsh(y1) = theta.
    """
    if is_convergent_y(w):
        return ThetaPoly.constant(LinComb.unit(w))
    return _eliminate(w, quasi_shuffle(_Y1, Word(w.letters[1:])), reg_qsh)


@lru_cache(maxsize=1 << 10)  # all 256 words of weight <= 8 fill 256 entries
def reg_sh(v: Word) -> ThetaPoly:
    """Shuffle regularization of an integration word ending in x1 (or empty).

    Coefficients are stored as convergent summation words through the inverse
    block substitution; reg_sh(x1) = theta.
    """
    if v.letters and v.letters[-1] != X1:
        raise ValueError(f"shuffle regularization needs a word ending in x1, got {v}")
    if is_convergent_x(v):
        return ThetaPoly.constant(LinComb.unit(s_inverse(v)))
    return _eliminate(v, shuffle(_X1W, Word(v.letters[1:])), reg_sh)


class NumericRegValue(NamedTuple):
    """Numerically evaluated theta-polynomial plus its evaluation tolerance."""

    poly: ThetaPoly
    tol: float

    def __str__(self) -> str:
        return self.poly.format(lambda c: f"{c:.12g}")


def eval_reg(sym: ThetaPoly, tol: float = 1e-9) -> NumericRegValue:
    """Replace every convergent-word coefficient by its numerical value."""
    return NumericRegValue(sym.map_coeffs(lambda comb: zeta_comb_y(comb, tol)), tol)


def rho(val: NumericRegValue) -> NumericRegValue:
    """The correction operator exp(sum_{n>=2} (-1)^n zeta(n)/n d^n/dtheta^n).

    Acts on numeric theta-polynomials; each application of the generator
    lowers the degree by at least 2, so the exponential series terminates and
    rho(p) - p has degree at most deg(p) - 2.  Depth-one values are evaluated
    at a tenth of the tolerance.
    """
    tol = val.tol / 10.0
    if tol < 1e-12 and val.poly.degree() >= 2:  # only then is any zeta(n) evaluated
        raise ValueError(f"rho evaluates zeta(n) to tol/10 = {tol:g}, below the supported 1e-12")

    def generator(q: ThetaPoly) -> ThetaPoly:
        d = q.degree()
        out = ThetaPoly()
        if d is NEG_INF:
            return out
        for n in range(2, int(d) + 1):
            sign = 1.0 if n % 2 == 0 else -1.0
            out = out + q.derive(n).scale(sign * eval_mzv_bounded((n,), tol)[0] / n)
        return out

    out = val.poly
    term = val.poly
    k = 1
    while True:
        term = generator(term).scale(1.0 / k)
        if not term:
            break
        out = out + term
        k += 1
    return NumericRegValue(out, val.tol)


def compare_bmz(w: Word, tol: float = 1e-9) -> Tuple[ThetaPoly, ThetaPoly, float]:
    """Both sides of the regularization comparison on one summation word.

    Evaluates the shuffle character on the substituted word and the corrected
    quasi-shuffle character on w, and returns both numeric polynomials and the
    largest absolute difference between their coefficients of matching theta
    powers.
    """
    lhs = eval_reg(reg_sh(s_map(w)), tol).poly
    rhs = rho(eval_reg(reg_qsh(w), tol)).poly
    degrees = {k for k, _ in lhs.items()} | {k for k, _ in rhs.items()}
    residual = max((abs(lhs.coeff(k, 0.0) - rhs.coeff(k, 0.0)) for k in degrees), default=0.0)
    return lhs, rhs, residual


def hoffman_reg_relation(w: Word) -> LinComb:
    """x1 shuffled into s(w), minus s applied to y1 quasi-shuffled into w.

    Defined for convergent summation words; the divergent boundary words
    cancel, so the result is an exact combination of convergent integration
    words whose value is zero.
    """
    if not is_convergent_y(w):
        raise ValueError(f"needs a convergent summation word, got {w}")
    left = shuffle(_X1W, s_map(w))
    right = quasi_shuffle(_Y1, w).map_basis(s_map)
    out = left - right
    bad = [word for word, _ in out.items() if not is_convergent_x(word)]
    if bad:
        raise AssertionError(f"divergent words failed to cancel: {sorted(bad, key=str)}")
    return out


# ---------------------------------------------------------------------------
# tree-level values; a dense power list's entry a is the coefficient of x^-a

_TREE_K0 = 125  # doubled up to 125 * 2**9 = 64000, the ceiling of eval_mzv_bounded


def _gamma(n: int) -> float:
    """gamma_n = n*u / (1 - n*u), u = 2^-53: the relative error of n chained roundings."""
    return n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)


def _ps_add(p: list, q: list, scale: float = 1.0) -> list:
    out = p + [0.0] * (len(q) - len(p))
    for a, c in enumerate(q):
        if c:
            out[a] += scale * c
    return out


def _ps_mul(p: list, q: list) -> list:
    out = [0.0] * (len(p) + len(q) - 1) if p and q else []
    terms = [(b, d) for b, d in enumerate(q) if d]
    for a, c in enumerate(p):
        if c:
            for b, d in terms:
                out[a + b] += c * d
    return out


def _em_tail(kept: list) -> Tuple[list, list]:
    """E = -Phi - g and g^(5) for a summand g of orders a >= 2.  Descending, the
    integral c x^(1-a)/(1-a), -g/2, g'/12 and -g'''/720 of each c x^-a reach
    every coefficient in that order, as in _build_phi; -g comes last."""
    E, g5 = [0.0] * (len(kept) + 3), [0.0] * (len(kept) + 5)
    for a in range(len(kept) - 1, 1, -1):
        if c := kept[a]:
            d1 = -a * c  # (x^-a)' = -a x^-(a+1)
            d3 = -(a + 2) * (-(a + 1) * d1)
            E[a - 1] += c * (1.0 / (a - 1))
            E[a] += 0.5 * c
            E[a + 1] -= (1.0 / 12.0) * d1
            E[a + 3] += (1.0 / 720.0) * d3
            g5[a + 5] = -(a + 4) * (-(a + 3) * d3)
    return _ps_add(E, kept, -1.0), g5


def _suffix_sums(terms: list, last: float) -> array:
    """[last + sum(terms[m:]) for m = 0..len(terms)], each summed from the end."""
    out = list(accumulate(reversed(terms), initial=last))
    out.reverse()
    return array("d", out)


def _vertex_tail(t: Tree, K: int) -> tuple:
    """(E, err, T, eps, M, nE, nerr) for the tail T_t(m) = sum_{k>m} k^-n prod_c T_c(k).

    |T_t(x) - E(x)| <= err(x) at every integer x >= K; T[m] is computed for
    m = 0..K with |T_t(m) - T[m]| <= eps[m] up to rounding, and each T[m] is
    within a relative gamma_M of its exact-arithmetic value; nE and nerr count
    the nonzero coefficients of E and err, for the parents.  A tail not yet in
    the table's dict for K is added there with those of its subtrees, bottom-up.
    """
    table = _TABLE.get(("tails", K)) or table_put(("tails", K), {}, 0)
    got = table.get(t)
    if got is None:
        for s in bottom_up((t,), table):
            if s not in table:  # a subtree met twice in the walk is added once
                _add_tail(s, table, K)
        got = table[t]
    return got


def _add_tail(t: Tree, table: dict, K: int) -> None:
    """Put the tail of t in the table for K, which holds those of its children,
    and charge the floats it adds there."""
    if not isinstance(t.decoration, YLetter):
        raise ValueError(f"expected y-decorations, found {t.decoration}")
    n = t.decoration.index
    kids = [table[c] for c in t.children]

    # above K: g = x^-n prod E_c; P = x^-n prod |E_c| majorizes |g|, and
    # D = x^-n (prod(|E_c| + err_c) - prod |E_c|) majorizes x^-n |prod T_c - prod E_c|.
    # Orders beyond _A_MAX only enter the bound, so x^-n is stored as its
    # majorant K^(m-n) x^-m, m = min(n, _A_MAX + 1): any n costs O(_A_MAX)
    m = min(n, _A_MAX + 1)
    g = P = [0.0] * m + [float(K) ** (m - n)]
    D: list = []
    for E, err, *_ in kids:
        bar = [abs(c) for c in E]
        D = _ps_add(_ps_mul(D, _ps_add(bar, err)), _ps_mul(P, err)) if D else _ps_mul(P, err)
        g, P = _ps_mul(g, E), _ps_mul(P, bar)
    kept = g[:_A_MAX + 1]
    # the float product has at most as many roundings per coefficient as the E_c have terms
    D = _ps_add(D, P, _gamma(sum(nE for *_, nE, _ in kids)))
    if any(kept[:2]) or any(D[:2]):
        raise AssertionError("a tree tail needs summands decaying like x^-2")
    pruned = table.setdefault("pruned", [])  # _sum_tail(a, 0, K) from a = _A_MAX + 1
    floats = max(0, len(g) - _A_MAX - 1 - len(pruned))
    pruned += [_sum_tail(a, 0, K) for a in range(_A_MAX + 1 + len(pruned), len(g))]
    dropped = sum(abs(c) * w for c, w in zip(g[_A_MAX + 1:], pruned) if c)
    # sum_{k>x} g(k) = -Phi(x) - g(x) + remainder, with Phi as in the word evaluator
    E_t, g5 = _em_tail(kept)
    # x -> integral from x to infinity of |h| bounds sum_{k>x} |h(k)| at every
    # integer x >= 1, since each k^-a is at most its integral over [k-1, k]
    err_t = [0.0] + [abs(c) / (a - 1) for a, c in enumerate(D[2:], 2)]
    err_t = _ps_add(err_t, [0.0] + [abs(c) / (a - 1) for a, c in enumerate(g5[2:], 2)], _EM_REMAINDER)
    # E_t has at most 9 roundings per contribution, and the contributions of
    # c x^-a total at most 2|c| x^(1-a) for x >= K >= 16
    err_t = _ps_add(err_t, [2.0 * abs(c) for c in kept[1:]], _gamma(9))
    if dropped:  # orders beyond _A_MAX (then err_t reaches _A_MAX + 4), whose tail decays like x^-_A_MAX
        err_t[_A_MAX] += dropped * float(K) ** _A_MAX
    # evaluating E_t at K: one power (2 roundings), one product, the sum
    nE = sum(map(bool, E_t))
    err_t = _ps_add(err_t, [abs(c) for c in E_t], _gamma(nE + 3))

    # below K: T(m) = T(m+1) + (m+1)^-n prod T_c(m+1) from T(K) = E_t(K), and
    # eps(m) = eps(m+1) + (m+1)^-n (prod(T_c + eps_c) - prod T_c) from err_t(K);
    # table[n] holds k^-n for k = 1..K, used by every vertex decorated y_n
    summand = table.setdefault(n, [])
    floats += K - len(summand)
    summand += [float(k) ** -n for k in range(len(summand) + 1, K + 1)]
    defect = None
    for _, _, T, eps, *_ in kids:
        defect = (list(map(mul, summand, eps[1:])) if defect is None  # first child: d = 0
                  else [d * (tc + ec) + p * ec for d, p, tc, ec in zip(defect, summand, T[1:], eps[1:])])
        summand = list(map(mul, summand, T[1:]))
    pw = table.setdefault("pow", [])  # K^-a from a = 0; err_t is at least as long as E_t
    floats += max(0, len(err_t) - len(pw))
    pw += [K ** -a for a in range(len(pw), len(err_t))]
    E_K, err_K = (sum(p[a] * pw[a] for a in range(len(p) - 1, -1, -1) if p[a]) for p in (E_t, err_t))
    T_t = _suffix_sums(summand, E_K)
    eps_t = array("d", [err_K]) * (K + 1) if defect is None else _suffix_sums(defect, err_K)
    # M bounds the roundings behind each T[m] (at most K + 2 + len(kids) plus the
    # children's) and, less K, those behind each coefficient of err_t
    M = K + 24 + (nerr := sum(map(bool, err_t))) + sum(m + nE_c + nerr_c + 6 for *_, m, nE_c, nerr_c in kids)
    table[t] = (E_t, err_t, T_t, eps_t, M, nE, nerr)
    table_put(("tails", K), table, floats + len(E_t) + len(err_t) + 2 * (K + 1))


def _convergent(f: Union[Forest, Tree], divergence_reason: Callable) -> Forest:
    """f as a forest; a divergent one is refused with the vertex to blame."""
    f = Forest((f,)) if isinstance(f, Tree) else f
    reason = divergence_reason(f)
    if reason is not None:
        raise ValueError(reason)
    return f


def eval_tree_bounded(f: Union[Forest, Tree], tol: float = 1e-9) -> Tuple[float, float]:
    """Value and certified bound of a convergent y-decorated forest, summed directly.

    No word expansion is formed: a call costs O(K) per subtree whose tail is
    not yet in the package's table, and a forest is the product of its trees.  Raises
    ValueError for divergent input or an unsupported tolerance,
    ArithmeticError when no cutoff certifies tol.
    """
    f = _convergent(f, divergence_reason_y)
    _check_tol(tol)
    K = _TREE_K0
    while True:
        value, eps, M, V = 1.0, 0.0, 0, 0
        try:
            for t in f.trees:
                _, _, T, e, m, *_ = _vertex_tail(t, K)
                eps = eps * (T[0] + e[0]) + value * e[0]
                value *= T[0]
                M += m + 4
                V += size(t)
        finally:
            trim()
        # value is within gamma_M of exact arithmetic.  The majorant pass has
        # its own roundings and uses the computed T in place of the exact ones,
        # which adds 2 M_c per level: (2V + 1) M roundings in all
        rounding = _gamma(2 * M) * value
        bound = eps * (1.0 + _gamma(2 * (2 * V + 1) * M)) + rounding
        if bound <= tol:
            return value, bound
        # the rounding term grows with K, so once it exceeds tol nothing helps
        if K >= 64000 or rounding > tol:
            raise ArithmeticError(f"cannot certify the forest {f} to {tol:g}: best bound {bound:g}")
        K *= 2


def zeta_tree_y(f: Union[Forest, Tree], tol: float = 1e-9) -> float:
    """Contracted arborified value of a convergent y-decorated forest."""
    return eval_tree_bounded(f, tol)[0]


def zeta_tree_x(f: Union[Forest, Tree], tol: float = 1e-9) -> float:
    """Simple arborified value of a convergent x-decorated forest."""
    return eval_comb_bounded(arborify_x(_convergent(f, divergence_reason_x)), tol)[0]


def brute_tree_sum(t: Tree, N: int) -> float:
    """Direct truncation of the tree sum with every vertex value <= N.

    Sums over all assignments of integers in [1, N] to vertices that strictly
    increase away from the root, using suffix arrays: for each subtree,
    g[m] = sum of the subtree contribution over assignments whose root value
    is at least m, and child subtrees are independent given the root value.
    Monotone nondecreasing in N; the defect against the exact value is
    bounded by ``tree_truncation_bound``.
    """
    if N < 1:
        raise ValueError("truncation bound N must be >= 1")
    suffix: dict = {}  # subtree -> its array g
    for s in bottom_up((t,)):
        d = s.decoration
        if not isinstance(d, YLetter):
            raise ValueError(f"expected y-decorations, found {d}")
        kids = [suffix[c] for c in s.children]
        g = [0.0] * (N + 2)
        for m in range(N, 0, -1):
            prod = float(m) ** (-d.index)
            for arr in kids:
                prod *= arr[m + 1]
            g[m] = g[m + 1] + prod
        suffix[s] = g
    return suffix[t][1]


def tree_truncation_bound(t: Union[Forest, Tree], N: int) -> float:
    """Bound for zeta_tree_y(t) - brute_tree_sum(t, N), through the expansion.

    The truncated tree sum equals the word expansion with every truncated
    word sum cut at the same N, so the defect is at most the sum of
    |coefficient| * mzv_truncation_bound(word) over the expansion.
    """
    if isinstance(t, Tree):
        t = Forest((t,))
    return sum(abs(float(c)) * mzv_truncation_bound(_mzv_index(w), N) for w, c in arborify_y(t).items())
