"""Command-line surface.

Verbs: expand (arborification of a forest into words), zeta (exact expansion
of an arborified value into ordinary zeta values plus a certified numeric),
verify (identity suites as report tables), enumerate (canonical decorated
trees of a given size), and hoffman (the exp/log isomorphism on one word).

Exit codes: 0 success, 1 verification failure, 2 usage, parse, or
precondition error, including a tolerance that cannot be certified.

The argument parser is built once per process, on the first ``main`` call
(not at import), and reused by every later call; each call still parses
into a fresh namespace, so nothing carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Optional, Sequence

from .arborify import (
    arborify_x,
    arborify_y,
    divergence_reason_x,
    divergence_reason_y,
)
from .forests import Forest, ParseError, enumerate_trees, parse_forest, print_tree
from .hoffman import exp_word, log_word
from .lincomb import LinComb
from .words import (
    XLetter,
    YLetter,
    is_convergent_x,
    is_convergent_y,
    parse_word,
    s_inverse,
    s_map,
)
from . import verify as verify_mod
from . import zeta as zeta_mod


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _forest_alphabet(f: Forest) -> Optional[str]:
    # the parser guarantees a uniform alphabet, so the first root decides
    for t in f.trees:
        return "y" if isinstance(t.decoration, YLetter) else "x"
    return None


# ---------------------------------------------------------------------------
# expand

def _cmd_expand(args: argparse.Namespace) -> int:
    f = parse_forest(args.forest)
    alphabet = _forest_alphabet(f)
    if args.contracting:
        if alphabet == "x":
            return _fail("contracting arborification needs summation (y) decorations")
        print(str(arborify_y(f)))
    else:
        if alphabet == "y":
            return _fail("simple arborification needs integration (x) decorations")
        print(str(arborify_x(f)))
    return 0


# ---------------------------------------------------------------------------
# zeta

def _zeta_line(comb: LinComb, alphabet: str) -> str:
    rows = []  # sorted by x-word below; s_map is a bijection, so no ties
    for w, c in comb._terms.items():
        if alphabet == "y":
            xw, idx = s_map(w), tuple(l.index for l in w.letters)
        else:
            xw, idx = w, tuple(l.index for l in s_inverse(w).letters)
        rows.append((str(xw), idx, c))
    rows.sort(key=lambda r: r[0])
    return " + ".join(f"{c}*zeta({','.join(map(str, idx))})" for _, idx, c in rows)


def _cmd_zeta(args: argparse.Namespace) -> int:
    if (args.forest is None) == (args.word is None):
        return _fail("give exactly one of a forest argument or --word")
    if args.word is not None:
        w = parse_word(args.word)
        alphabet = "x" if any(isinstance(l, XLetter) for l in w.letters) else "y"
        if alphabet == "y" and not is_convergent_y(w):
            return _fail(f"word {w} is divergent: it starts with y1")
        if alphabet == "x" and not is_convergent_x(w):
            return _fail(f"word {w} is divergent: it must start with x0 and end with x1")
        comb = LinComb.unit(w)
        value = zeta_mod.zeta_comb_y(comb, args.tol) if alphabet == "y" else zeta_mod.zeta_comb_x(comb, args.tol)
    else:
        f = parse_forest(args.forest)
        alphabet = _forest_alphabet(f) or "y"
        reason = divergence_reason_y(f) if alphabet == "y" else divergence_reason_x(f)
        if reason is not None:
            return _fail(reason)
        if alphabet == "y":
            # summed over the forest directly; the expansion is only printed
            value = zeta_mod.zeta_tree_y(f, args.tol)
            comb = arborify_y(f)
        else:
            comb = arborify_x(f)
            value = zeta_mod.zeta_comb_x(comb, args.tol)
    print(_zeta_line(comb, alphabet))
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
    w = parse_word(args.word)
    if any(not isinstance(l, YLetter) for l in w.letters):
        return _fail("the exp/log isomorphism acts on summation (y) words")
    comb = exp_word(w) if args.direction == "exp" else log_word(w)
    print(str(comb))
    return 0


# ---------------------------------------------------------------------------
# parser

@cache
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
    except ParseError as exc:
        return _fail(str(exc))
    except (ValueError, ArithmeticError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
