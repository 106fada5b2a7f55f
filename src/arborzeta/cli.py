"""Command-line surface.

Verbs: expand (a forest's arborification into words), zeta (its exact expansion
into zeta values, printed from arborification's map of letter-code strings,
plus a certified numeric), verify (identity suites as report tables), enumerate
(canonical decorated trees of a size), and hoffman (exp/log on one word).  The
input decides what no option does: a forest's decorations choose the flavor, a
zeta text with a '.' is a word (as its ladder), and enumerate counts its trees.

Exit codes: 0 success, 1 verification failure, 2 usage, parse, or
precondition error, including a tolerance that cannot be certified.

Each verb has its own parser, built on the first call that names it and reused
by every later one, so a call makes one argparse pass into a fresh namespace;
the top-level parser of all five verbs is built only for --help, a missing or
unknown verb, or to report arguments a verb leaves over.  Each handler imports
the layers it alone runs (forests, arborify, zeta, verify, hoffman) as module
objects, and none imports ``fractions``: the exact layer loads it at its first
division, so only hoffman and verify bmz load it.  (The library's one table of
pure results persists, up to its budget; it never changes a printed value.)
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from .words import YLetter, decode, encode, parse_word, s_inverse

CENSUS_LIMIT = 1_000_000  # the most trees enumerate lists; below the 1,114,112 letter codes


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# expand

def _cmd_expand(args: argparse.Namespace) -> int:
    from . import arborify, forests
    f = forests.parse_forest(args.forest)
    print((arborify.arborify_x if arborify.alphabet_of(f) == "x" else arborify.arborify_y)(f))
    return 0


# ---------------------------------------------------------------------------
# zeta

def _zeta_line(coeffs: Mapping) -> str:
    # coeffs: y-word code string -> coefficient.  Rows in the order of the x-words: y_n is
    # x0^(n-1) x1, so x-words compare as the strings of letter ranks by descending index do
    # (a prefix first, as for tuples); the ranks are distinct, so each word keeps its own row
    codes = "".join(set("".join(coeffs)))
    letters = sorted(zip(decode(codes).letters, codes), key=lambda lc: -lc[0].index)
    rank = {ord(code): i for i, (_, code) in enumerate(letters)}
    name = [f"{l.index}," for l, _ in letters]  # by rank
    ranked = {ls.translate(rank): c for ls, c in coeffs.items() if c}
    return " + ".join(f"{ranked[r]}*zeta({r.translate(name)[:-1]})" for r in sorted(ranked))


def _cmd_zeta(args: argparse.Namespace) -> int:
    from . import arborify, forests, zeta
    word = "." in args.text  # a one-letter word and e read the same as a forest
    f = forests.Forest((arborify.ladder(parse_word(args.text)),)) if word else forests.parse_forest(args.text)
    if arborify.alphabet_of(f) == "y":  # summed directly, so the expansion is only printed
        value, coeffs = zeta.zeta_tree_y(f, args.tol), arborify.letter_map(f, "y")
    else:  # the value puts the expansion in the table, where the line reads it
        value = zeta.zeta_tree_x(f, args.tol)
        coeffs = {encode(s_inverse(w)): c for w, c in arborify.arborify_x(f).items()}
    print(_zeta_line(coeffs))
    print(f"value = {value:.12g} (tol = {args.tol:g})")
    return 0


# ---------------------------------------------------------------------------
# verify / enumerate / hoffman

def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
    rows = verify.run_suite(args.suite, tol=args.tol, max_weight=args.max_weight)
    print(verify.format_rows(rows, args.format))
    return 0 if verify.all_passed(rows) else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from . import forests
    if args.n < 1 or args.decorations < 1:
        return _fail("the tree size and the number of decorations must be >= 1")
    for m, count in enumerate(forests.census_sizes(args.n, args.decorations), 1):
        if count > CENSUS_LIMIT:  # the census grows with the size, so a(n) >= a(m)
            return _fail(f"the census has {'' if m == args.n else 'at least '}{count} trees, more than {CENSUS_LIMIT}")
    letters = tuple(YLetter(i) for i in range(1, args.decorations + 1))
    trees = forests.enumerate_trees(args.n, letters)
    noun = "tree" if len(trees) == 1 else "trees"
    print(f"{len(trees)} {noun}")
    print("\n".join(map(forests.print_tree, trees)))
    return 0


def _cmd_hoffman(args: argparse.Namespace) -> int:
    from . import hoffman
    print((hoffman.exp_word if args.direction == "exp" else hoffman.log_word)(parse_word(args.word)))
    return 0


# ---------------------------------------------------------------------------
# parsers

@lru_cache(maxsize=8)
def _parser(verb: Optional[str]) -> Optional[argparse.ArgumentParser]:
    """The top-level parser for None, else the subparser of that verb alone (None if no such verb)."""
    parser = argparse.ArgumentParser(
        prog="arborzeta",
        description="Exact arborified zeta values: expand, evaluate, verify.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    add = lambda name, help: sub.add_parser(name, help=help) if verb in (None, name) else None

    if p := add("expand", help="arborify a decorated forest into words"):
        p.add_argument("forest", help="forest text, e.g. \"y3(y1,y2)\" or \"e\"")
        p.set_defaults(func=_cmd_expand)

    if p := add("zeta", help="exact zeta expansion and certified value"):
        p.add_argument("text", help="forest \"y3(y1,y2)\" or word \"y2.y3\" (as its ladder)")
        p.add_argument("--tol", type=float, default=1e-9, help="certified absolute tolerance")
        p.set_defaults(func=_cmd_zeta)

    if p := add("verify", help="run an identity suite and report rows"):
        from . import verify
        p.add_argument("suite", choices=verify.SUITE_NAMES)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--max-weight", type=int, default=None)
        p.add_argument("--format", choices=("text", "tsv", "json"), default="text")
        p.set_defaults(func=_cmd_verify)

    if p := add("enumerate", help="list canonical decorated trees of a size"):
        p.add_argument("n", type=int, help=f"number of vertices (refused past {CENSUS_LIMIT} trees)")
        p.add_argument("--decorations", type=int, default=1, help="number of y-decorations (default 1)")
        p.set_defaults(func=_cmd_enumerate)

    if p := add("hoffman", help="exp/log isomorphism on one summation word"):
        p.add_argument("direction", choices=("exp", "log"))
        p.add_argument("word")
        p.set_defaults(func=_cmd_hoffman)

    return parser if verb is None else sub.choices.get(verb)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = _parser(argv[0]) if argv else None  # None for --help or a missing or unknown verb
    try:
        # the top-level parser reports what a verb leaves over, as it did for its subparser
        args, extra = verb.parse_known_args(argv[1:]) if verb else _parser(None).parse_known_args(argv)
        if extra:
            _parser(None).error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:  # a ParseError is a ValueError
        return _fail(str(exc))
    except RecursionError:  # the (quasi-)shuffle of a long branch, or near-equal deep siblings
        return _fail("input nested too deeply")


if __name__ == "__main__":
    sys.exit(main())
