"""Acceptance gate: the nine headline criteria, one pass/fail line each.

Each test records a [PASS]/[FAIL] line (echoed in the terminal summary) and
asserts the criterion at its stated tolerance and runtime budget.
"""

import itertools
import random
import time
from fractions import Fraction

from arborzeta.arborify import arborify_y
from arborzeta.cli import main
from arborzeta.forests import (
    EMPTY_FOREST,
    Forest,
    bplus,
    coproduct,
    enumerate_trees,
    make_forest,
    vertex,
)
from arborzeta.hoffman import exp_word, log_word
from arborzeta.lincomb import LinComb, TensorPair, ThetaPoly
from arborzeta.verify import all_passed, suite_hopf, suite_oracle, suite_relations
from arborzeta.words import Word, YLetter, parse_word, x_word, y_word
from arborzeta.zeta import (
    NumericRegValue,
    compare_bmz,
    hoffman_reg_relation,
    rho,
    zeta_comb_x,
)

RESULTS = []


def record(number, description, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _expansions_of_weight(weight):
    if weight == 0:
        yield ()
        return
    for first in range(1, weight + 1):
        for rest in _expansions_of_weight(weight - first):
            yield (first,) + rest


def _y_words(max_weight, convergent_only=False):
    out = []
    for w in range(max_weight + 1):
        for parts in _expansions_of_weight(w):
            if convergent_only and parts and parts[0] == 1:
                continue
            out.append(y_word(*parts))
    return out


def test_c1_printed_expansions(capsys):
    t0 = time.perf_counter()
    expected = {
        ("expand", "y3(y1,y2)"): "1*y1.y2.y3 + 1*y2.y1.y3 + 1*y3.y3",
        ("expand", "x1(x0,x1(x0))"): "2*x0.x0.x1.x1 + 1*x0.x1.x0.x1",
        ("expand", "x1(x0,x0(x0))"): "3*x0.x0.x0.x1",
    }
    ok = True
    for argv, want in expected.items():
        code = main(list(argv))
        got = capsys.readouterr().out.strip()
        ok = ok and code == 0 and got == want
    elapsed = time.perf_counter() - t0
    record(1, f"three printed expansions exact ({elapsed:.2f}s < 1s)", ok and elapsed < 1.0)


def test_c2_relation_suite():
    t0 = time.perf_counter()
    rows = suite_relations(tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = len(rows) == 4 and all(r.residual <= 1e-8 for r in rows) and all_passed(rows)
    record(2, f"four product relations, residual <= 1e-8 ({elapsed:.2f}s < 30s)", ok and elapsed < 30.0)


def test_c3_coproduct_displays():
    dot = vertex(YLetter(1))
    f_dot = make_forest((dot,))
    ladder2 = make_forest((bplus(YLetter(1), f_dot),))
    cherry = make_forest((bplus(YLetter(1), make_forest((dot, dot))),))

    def pair(a, b, c=1):
        return LinComb.unit(TensorPair(a, b), Fraction(c))

    ladder_ok = coproduct(ladder2) == (
        pair(ladder2, EMPTY_FOREST) + pair(EMPTY_FOREST, ladder2) + pair(f_dot, f_dot)
    )
    cherry_ok = coproduct(cherry) == (
        pair(cherry, EMPTY_FOREST)
        + pair(EMPTY_FOREST, cherry)
        + pair(f_dot, ladder2, 2)
        + pair(make_forest((dot, dot)), f_dot)
    )
    record(3, "ladder and cherry coproducts exact, coefficient 2 included", ladder_ok and cherry_ok)


def test_c4_exp_log():
    half = Fraction(1, 2)

    def wc(*pairs):
        return LinComb((parse_word(t), Fraction(c)) for t, c in pairs)

    displays = [
        (exp_word(y_word(1)), wc(("y1", 1))),
        (log_word(y_word(1)), wc(("y1", 1))),
        (exp_word(y_word(1, 2)), wc(("y1.y2", 1), ("y3", half))),
        (log_word(y_word(1, 2)), wc(("y1.y2", 1), ("y3", -half))),
        (
            exp_word(y_word(1, 2, 3)),
            wc(("y1.y2.y3", 1), ("y1.y5", half), ("y3.y3", half), ("y6", Fraction(1, 6))),
        ),
        (
            log_word(y_word(1, 2, 3)),
            wc(("y1.y2.y3", 1), ("y1.y5", -half), ("y3.y3", -half), ("y6", Fraction(1, 3))),
        ),
    ]
    displays_ok = all(got == want for got, want in displays)

    identity_ok = True
    for length in range(6):
        for idx in itertools.product((1, 2, 3), repeat=length):
            w = y_word(*idx)
            image = LinComb()
            for u, c in log_word(w).items():
                image = image + exp_word(u) * c
            identity_ok = identity_ok and image == LinComb.unit(w)
    record(4, "six exp/log displays exact and exp o log = id through length 5", displays_ok and identity_ok)


def test_c5_bmz_and_degree_drop():
    t0 = time.perf_counter()
    words = _y_words(4)
    sweep_ok = len(words) == 16 and all(compare_bmz(w, 1e-9)[2] <= 1e-8 for w in words)

    rng = random.Random(20260822)
    degree_ok = True
    for _ in range(40):
        d = rng.randint(0, 8)
        coeffs = {k: rng.uniform(-5, 5) for k in range(d + 1)}
        coeffs[d] = coeffs[d] or 1.0
        p = NumericRegValue(ThetaPoly(coeffs), ThetaPoly())
        diff = rho(p).poly - p.poly
        degree_ok = degree_ok and all(k <= d - 2 for k, _ in diff.items())
    elapsed = time.perf_counter() - t0
    record(
        5,
        f"comparison-of-regularizations residual <= 1e-8 on all 16 words of weight <= 4, "
        f"degree drop exact to degree 8 ({elapsed:.1f}s < 120s)",
        sweep_ok and degree_ok and elapsed < 120.0,
    )


def test_c6_regularization_relation():
    words = _y_words(5, convergent_only=True)
    numeric_ok = all(abs(zeta_comb_x(hoffman_reg_relation(w), 1e-9)) <= 1e-8 for w in words)
    symbolic_ok = hoffman_reg_relation(y_word(2)) == LinComb(
        {x_word(0, 1, 1): Fraction(1), x_word(0, 0, 1): Fraction(-1)}
    )
    record(
        6,
        f"regularization relation <= 1e-8 on {len(words)} convergent words of weight <= 5, "
        "first instance symbolic",
        numeric_ok and symbolic_ok,
    )


def test_c7_hopf_suite():
    t0 = time.perf_counter()
    rows = suite_hopf()
    elapsed = time.perf_counter() - t0
    names = {r.name.split("[")[0] for r in rows}
    ok = (
        all_passed(rows)
        and {"coassociativity", "cocycle", "coalgebra-morphism", "ladder-section"} <= names
    )
    record(7, f"Hopf property suite exact on forests <= 4 vertices ({elapsed:.1f}s < 60s)", ok and elapsed < 60.0)


def test_c8_oracle_equivalence():
    t0 = time.perf_counter()
    rows = suite_oracle(tol=1e-9, N=5000)
    elapsed = time.perf_counter() - t0
    ok = all_passed(rows) and len(rows) >= 10
    record(
        8,
        f"truncated tree sums within the documented tail bound on {len(rows)} trees "
        f"({elapsed:.1f}s < 120s)",
        ok and elapsed < 120.0,
    )


def test_c9_tree_census():
    counts = [len(enumerate_trees(n, (YLetter(1),))) for n in range(1, 6)]
    record(9, f"undecorated tree census {counts}", counts == [1, 1, 2, 4, 9])
