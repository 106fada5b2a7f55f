"""Verification suites: identity checks emitted as uniform report rows.

Four suites are exposed through the command line:

* ``relations``: the classical product and regularization identities among
  low-weight zeta values: a product of zeta values is the forest of its factors,
  summed by the tree kernel, and a combination of words goes by the word route.
* ``bmz``: the regularization comparison residual on every summation word up
  to a weight cap (the empty word included), within both sides' certified bounds.
* ``hopf``: exact structural checks (coassociativity, the grafting cocycle,
  the coalgebra-morphism property of both arborification maps, and the
  ladder section) swept over all small decorated forests.
* ``oracle``: the direct truncated tree sum against the tree-native
  evaluator, within the truncation bound, the certificate and the rounding
  bound, and the tree-native evaluator against the word expansion on every
  tree of at most four vertices over {y2, y3}.

Every check becomes a ``CheckRow``; exact checks report instance counts
(lhs = instances checked, rhs = instances correct) with tolerance 0.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .arborify import arborify_x, arborify_y, ladder
from .forests import EMPTY_FOREST, Forest, bplus, coproduct, enumerate_forests, enumerate_trees, parse_forest, print_tree
from .hoffman import compositions
from .lincomb import LinComb, TensorPair, bilinear
from .words import (
    Letter,
    Word,
    X0,
    X1,
    YLetter,
    deconcat,
    quasi_shuffle,
    shuffle,
    x_word,
    y_word,
)
from .zeta import (
    _check_tol,
    brute_rounding_bound,
    brute_tree_sum,
    compare_bmz,
    eval_comb_bounded,
    eval_mzv_bounded,
    eval_tree_bounded,
    tree_truncation_bound,
)


class CheckRow(NamedTuple):
    """One verified identity: name, both sides, residual, tolerance, verdict."""

    name: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool


def _row(name: str, lhs: float, rhs: float, tolerance: float) -> CheckRow:
    residual = abs(lhs - rhs)
    return CheckRow(name, lhs, rhs, residual, tolerance, residual <= tolerance)


def _exact_row(name: str, pairs: Iterable[Tuple[object, object]]) -> CheckRow:
    """Count row over exact (lhs, rhs) pairs: lhs = checked, rhs = equal."""
    checked = failures = 0
    for lhs, rhs in pairs:
        checked += 1
        failures += lhs != rhs
    return CheckRow(name, float(checked), float(checked - failures), float(failures), 0.0, failures == 0)


# ---------------------------------------------------------------------------
# relations

def suite_relations(tol: float = 1e-9) -> List[CheckRow]:
    """Low-weight product identities, each side computed along its own route
    as a certified (value, bound) pair: a product of zeta values is the value
    of the forest of its factors, from the tree kernel, and the (quasi-)shuffle
    of their words is summed by the word route."""
    z2z3 = eval_tree_bounded(parse_forest("y2;y3"), tol)
    z2z2 = eval_tree_bounded(parse_forest("y2;y2"), tol)
    sides = [
        ("zeta(2,3)+zeta(3,2)+zeta(5)=zeta(2)zeta(3)",
         eval_comb_bounded(quasi_shuffle(y_word(2), y_word(3)), tol), z2z3),
        ("zeta(2,3)+3zeta(3,2)+6zeta(4,1)=zeta(2)zeta(3)",
         eval_comb_bounded(shuffle(x_word(0, 1), x_word(0, 0, 1)), tol), z2z3),
        ("zeta(2,1)=zeta(3)", eval_mzv_bounded((2, 1), tol), eval_mzv_bounded((3,), tol)),
        ("2zeta(2)^2=5zeta(4)", (2.0 * z2z2[0], 2.0 * z2z2[1]), eval_comb_bounded(LinComb.unit(y_word(4), 5), tol)),
    ]
    # the exact sides are equal, so the computed ones differ by at most the sum of their bounds
    return [_row(name, lhs, rhs, lhs_bound + rhs_bound) for name, (lhs, lhs_bound), (rhs, rhs_bound) in sides]


# ---------------------------------------------------------------------------
# regularization comparison sweep

def _y_words_up_to_weight(max_weight: int) -> List[Word]:
    # compositions(0) = [()] gives the empty word
    return [y_word(*parts) for weight in range(max_weight + 1) for parts in compositions(weight)]


def suite_bmz(tol: float = 1e-9, max_weight: Optional[int] = None) -> List[CheckRow]:
    """Residual of the regularization comparison on all words up to a weight.

    Reported lhs/rhs are the constant (theta-degree-0) coefficients of the
    two sides; residual and tolerance (the sum of both sides' certified bounds)
    are those of the theta power of least margin, so a row passes iff every power does.
    """
    if max_weight is not None and max_weight < 0:
        raise ValueError(f"max weight must be nonnegative, got {max_weight}")
    sides = ((w, *compare_bmz(w, tol)) for w in _y_words_up_to_weight(4 if max_weight is None else max_weight))
    return [CheckRow(f"bmz:{w}", lhs.poly.coeff(0, 0.0), rhs.poly.coeff(0, 0.0), residual, bound, residual <= bound)
            for w, lhs, rhs, residual, bound in sides]


# ---------------------------------------------------------------------------
# exact Hopf-structure checks

def _coassociativity_sides(f: Forest) -> Tuple[LinComb, LinComb]:
    """Both sides of (coproduct (x) id) coproduct(f) = (id (x) coproduct) coproduct(f)."""
    cop = coproduct(f)
    return (cop.map_basis(lambda p: coproduct(p.left).map_basis(lambda q: (q.left, q.right, p.right))),
            cop.map_basis(lambda p: coproduct(p.right).map_basis(lambda q: (p.left, q.left, q.right))))


def _tensor_arborify(f: Forest, arborify: Callable[[Forest], LinComb]) -> LinComb:
    return coproduct(f).map_basis(lambda p: bilinear(TensorPair, arborify(p.left), arborify(p.right)))


def _cocycle_sides(d: Letter, f: Forest) -> Tuple[LinComb, LinComb]:
    """Both sides of coproduct(B+_d(f)) = B+_d(f) (x) 1 + (id (x) B+_d) coproduct(f)."""
    tree = Forest((bplus(d, f),))
    grafted = coproduct(f).map_basis(lambda p: TensorPair(p.left, Forest((bplus(d, p.right),))))
    return coproduct(tree), LinComb.unit(TensorPair(tree, EMPTY_FOREST)) + grafted


def suite_hopf(tol: float = 1e-9) -> List[CheckRow]:
    """Exact structural identities on small forests; tolerance is zero."""
    rows = []
    decos = {"y": (YLetter(1), YLetter(2)), "x": (X0, X1)}
    arbs = {"y": arborify_y, "x": arborify_x}

    for tag, letters in decos.items():
        forests = [f for n in range(0, 5) for f in enumerate_forests(n, letters)]
        rows.append(_exact_row(
            f"coassociativity[{tag},forests<=4]",
            (_coassociativity_sides(f) for f in forests),
        ))

        rows.append(_exact_row(
            f"cocycle[{tag},trees<=4]",
            (_cocycle_sides(d, f) for n in range(0, 4) for f in enumerate_forests(n, letters) for d in letters),
        ))

        arb = arbs[tag]
        name = "contracting" if tag == "y" else "simple"
        rows.append(_exact_row(
            f"coalgebra-morphism[{name},forests<=4]",
            ((arb(f).map_basis(deconcat), _tensor_arborify(f, arb)) for f in forests),
        ))
        rows.append(_exact_row(
            f"ladder-section[{tag},words<=5]",
            ((arb(Forest((ladder(Word(ls)),))), LinComb.unit(Word(ls)))
             for n in range(1, 6) for ls in itertools.product(letters, repeat=n)),
        ))

    return rows


# ---------------------------------------------------------------------------
# brute-force oracle

ORACLE_N = 5000  # the largest vertex value of the oracle's truncated tree sums


def suite_oracle(tol: float = 1e-9) -> List[CheckRow]:
    """Three routes to a tree value: truncated sums, with every vertex value at most
    ORACLE_N, against the tree-native evaluator, and it against the word expansion."""
    rows = []
    decorations = (YLetter(2), YLetter(3))
    for n in range(1, 4):
        for t in enumerate_trees(n, decorations):
            lhs = brute_tree_sum(t, ORACLE_N)
            rhs, tree_bound = eval_tree_bounded(t, tol)
            bound = tree_truncation_bound(t, ORACLE_N) + tree_bound + brute_rounding_bound(t, ORACLE_N, lhs)
            rows.append(_row(f"oracle:{print_tree(t)}", lhs, rhs, bound))
    for n in range(1, 5):
        for t in enumerate_trees(n, decorations):
            lhs, tree_bound = eval_tree_bounded(t, tol)
            rhs, comb_bound = eval_comb_bounded(arborify_y(Forest((t,))), tol)
            # the two certificates, each at most tol
            rows.append(_row(f"routes:{print_tree(t)}", lhs, rhs, tree_bound + comb_bound))
    return rows


# ---------------------------------------------------------------------------
# driver and formatting

SUITES: Dict[str, Callable[..., List[CheckRow]]] = {
    "relations": suite_relations,
    "bmz": suite_bmz,
    "hopf": suite_hopf,
    "oracle": suite_oracle,
}

SUITE_NAMES: Tuple[str, ...] = (*SUITES, "all")


def run_suite(name: str, tol: float = 1e-9, max_weight: Optional[int] = None) -> List[CheckRow]:
    """Rows of one suite, or of every suite for "all"; only bmz reads max_weight."""
    if name == "all":
        return [row for key in SUITES for row in run_suite(key, tol, max_weight if key == "bmz" else None)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if name != "bmz" and max_weight is not None:
        raise ValueError(f"a max weight applies only to the bmz suite, not to {name}")
    _check_tol(tol)  # the exact hopf suite reads no tolerance, but refuses one as the others do
    return suite_bmz(tol, max_weight) if name == "bmz" else SUITES[name](tol)


def format_rows(rows: Sequence[CheckRow], fmt: str = "text") -> str:
    if fmt == "json":
        import json  # here only, so that importing the command line does not load it

        return json.dumps([r._asdict() for r in rows], indent=2)
    if fmt == "tsv":
        lines = ["name\tlhs\trhs\tresidual\ttolerance\tstatus"]
        for r in rows:
            status = "pass" if r.passed else "fail"
            lines.append(
                f"{r.name}\t{r.lhs:.12g}\t{r.rhs:.12g}\t{r.residual:.12g}\t{r.tolerance:.12g}\t{status}"
            )
        return "\n".join(lines)
    if fmt == "text":
        lines = []
        for r in rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{status} {r.name}  lhs={r.lhs:.12g} rhs={r.rhs:.12g} "
                f"residual={r.residual:.3g} tol={r.tolerance:.3g}"
            )
        npass = sum(1 for r in rows if r.passed)
        lines.append(f"{npass}/{len(rows)} checks passed")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}; choose text, tsv, or json")


def all_passed(rows: Sequence[CheckRow]) -> bool:
    return all(r.passed for r in rows)
