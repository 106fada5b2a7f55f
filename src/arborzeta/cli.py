"""Command-line surface.

Verbs: expand (arborification of a forest into words), zeta (exact expansion
of an arborified value into ordinary zeta values, printed from arborification's
letter map with no word objects, plus a certified numeric), verify (identity
suites as report tables), enumerate (canonical decorated trees of a given
size), and hoffman (the exp/log isomorphism on one word).

Exit codes: 0 success, 1 verification failure, 2 usage, parse, or
precondition error, including a tolerance that cannot be certified.

The argument parser is built once per process, on the first ``main`` call
(not at import), and reused by every later call; each call still parses
into a fresh namespace, so no parsed argument carries over from one call to
the next.  (The library's one table of pure results does persist, up to its
budget; it never changes a printed value.)
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from .arborify import arborify_x, arborify_y, divergence_reason_x, letter_map
from .forests import enumerate_trees, parse_forest, print_tree
from .hoffman import exp_word, log_word
from .lincomb import LinComb
from .words import Word, XLetter, YLetter, parse_word, s_inverse
from . import verify as verify_mod
from . import zeta as zeta_mod


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _alphabet(first_letter) -> str:
    # the parsers guarantee one alphabet per input, so its first letter decides
    return "x" if isinstance(first_letter, XLetter) else "y"


# ---------------------------------------------------------------------------
# expand

def _cmd_expand(args: argparse.Namespace) -> int:
    f = parse_forest(args.forest)
    print(arborify_y(f) if args.contracting else arborify_x(f))
    return 0


# ---------------------------------------------------------------------------
# zeta

def _zeta_line(coeffs: Mapping, alphabet: str) -> str:
    # coeffs: letters -> coefficient.  Rows in the order of the x-words: y_n is x0^(n-1) x1, so
    # x-words compare as the tuples of negated indices do, and s_map is a bijection, so no ties
    if alphabet == "x":
        coeffs = {s_inverse(Word(ls)).letters: c for ls, c in coeffs.items()}
    letters = set().union(*coeffs)
    neg = {l: -l.index for l in letters}.__getitem__
    name = {l: str(l.index) for l in letters}.__getitem__
    rows = sorted((tuple(map(neg, ls)), ls, c) for ls, c in coeffs.items() if c)
    return " + ".join(f"{c}*zeta({','.join(map(name, ls))})" for _, ls, c in rows)


def _cmd_zeta(args: argparse.Namespace) -> int:
    if (args.forest is None) == (args.word is None):
        return _fail("give exactly one of a forest argument or --word")
    if args.word is not None:
        w = parse_word(args.word)
        alphabet = _alphabet(w.letters[0] if w.letters else None)
        value, coeffs = zeta_mod.eval_comb_bounded(LinComb.unit(w), args.tol)[0], {w.letters: 1}
    else:
        f = parse_forest(args.forest)
        alphabet = _alphabet(f.trees[0].decoration if f.trees else None)
        if alphabet == "y":  # summed directly, so the expansion is only printed
            value, coeffs = zeta_mod.zeta_tree_y(f, args.tol), letter_map(f, "y")
        else:  # refused if divergent, else expanded once for the value and the line
            comb = arborify_x(zeta_mod._convergent(f, divergence_reason_x))
            value, coeffs = zeta_mod.zeta_comb_x(comb, args.tol), {w.letters: c for w, c in comb.items()}
    print(_zeta_line(coeffs, alphabet))
    print(f"value = {value:.12g} (tol = {args.tol:g})")
    return 0


# ---------------------------------------------------------------------------
# verify / enumerate / hoffman

def _cmd_verify(args: argparse.Namespace) -> int:
    rows = verify_mod.run_suite(args.suite, tol=args.tol, max_weight=args.max_weight)
    print(verify_mod.format_rows(rows, args.format))
    return 0 if verify_mod.all_passed(rows) else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.n < 1:
        return _fail("tree size must be >= 1")
    if args.n > args.cap:
        return _fail(f"size {args.n} exceeds the cap {args.cap}; raise it with --cap")
    if args.decorations < 1:
        return _fail("need at least one decoration")
    letters = tuple(YLetter(i) for i in range(1, args.decorations + 1))
    trees = enumerate_trees(args.n, letters)
    noun = "tree" if len(trees) == 1 else "trees"
    print(f"{len(trees)} {noun}")
    for t in trees:
        print(print_tree(t))
    return 0


def _cmd_hoffman(args: argparse.Namespace) -> int:
    print((exp_word if args.direction == "exp" else log_word)(parse_word(args.word)))
    return 0


# ---------------------------------------------------------------------------
# parser

@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arborzeta",
        description="Exact arborified zeta values: expand, evaluate, verify.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("expand", help="arborify a decorated forest into words")
    flavor = p.add_mutually_exclusive_group(required=True)
    flavor.add_argument("--contracting", action="store_true", help="quasi-shuffle flavor (y-decorations)")
    flavor.add_argument("--simple", action="store_true", help="shuffle flavor (x-decorations)")
    p.add_argument("forest", help="forest text, e.g. \"y3(y1,y2)\" or \"e\"")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("zeta", help="exact zeta expansion and certified value")
    p.add_argument("forest", nargs="?", help="forest text; alternatively use --word")
    p.add_argument("--word", help="a single word instead of a forest")
    p.add_argument("--tol", type=float, default=1e-9, help="certified absolute tolerance")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("verify", help="run an identity suite and report rows")
    p.add_argument("suite", choices=verify_mod.SUITE_NAMES)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="list canonical decorated trees of a size")
    p.add_argument("n", type=int)
    p.add_argument("--decorations", type=int, default=1, help="number of y-decorations (default 1)")
    p.add_argument("--cap", type=int, default=8, help="largest allowed size")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("hoffman", help="exp/log isomorphism on one summation word")
    p.add_argument("direction", choices=("exp", "log"))
    p.add_argument("word")
    p.set_defaults(func=_cmd_hoffman)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:  # a ParseError is a ValueError
        return _fail(str(exc))
    except RecursionError as exc:  # the (quasi-)shuffle of a long branch, or near-equal deep siblings
        return _fail(f"input nested too deeply ({exc})")


if __name__ == "__main__":
    sys.exit(main())
