"""Hoffman's exponential and logarithm between shuffle and quasi-shuffle.

Both maps act on summation words through compositions: a
composition (i1, ..., ir) of the word length k splits the word into
consecutive blocks of those sizes, and each block collapses under the
iterated internal product, index addition of summation letters.  With
I[u] denoting that block substitution,

    exp(u) = sum over compositions of 1/(i1! ... ir!) * I[u]
    log(u) = sum over compositions of (-1)^(k-r)/(i1 ... ir) * I[u]

extended linearly.  exp is an isomorphism from the quasi-shuffle algebra to
the shuffle algebra on the same alphabet, and log is its inverse.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from typing import Tuple

from .lincomb import LinComb, _coerce
from .words import Word, merge_y


def compositions(k: int) -> list:
    """All compositions of k >= 0 in lexicographic order of their part tuples.

    compositions(3) = [(1, 1, 1), (1, 2), (2, 1), (3,)]; the compositions of
    each m <= k are built once, from those of m - first for each first part.
    """
    if k < 0:
        raise ValueError("compositions are defined for k >= 0")
    table = [[()]]
    for m in range(1, k + 1):
        table.append([(first,) + rest for first in range(1, m + 1) for rest in table[m - first]])
    return table[k]


def apply_composition(parts: Tuple[int, ...], w: Word) -> Word:
    """Collapse consecutive blocks of sizes ``parts`` by adding their indices."""
    if sum(parts) != len(w.letters):
        raise ValueError(f"composition {parts} does not sum to the word length {len(w.letters)}")
    return Word(tuple(reduce(merge_y, w.letters[end - p:end]) for p, end in zip(parts, accumulate(parts))))


@lru_cache(maxsize=None)
def _coefficients(k: int) -> tuple:
    """The compositions of k, each with its exp and its log coefficient, built once per length."""
    return tuple(
        (parts, _coerce(Fraction(1, math.prod(map(math.factorial, parts)))),
         _coerce(Fraction((-1) ** (k - len(parts)), math.prod(parts))))
        for parts in compositions(k)
    )


def exp_word(w: Word) -> LinComb:
    """Hoffman exponential of a single word, as a combination of words."""
    return LinComb((apply_composition(parts, w), e) for parts, e, _ in _coefficients(len(w.letters)))


def log_word(w: Word) -> LinComb:
    """Hoffman logarithm of a single word, inverse to exp_word."""
    return LinComb((apply_composition(parts, w), g) for parts, _, g in _coefficients(len(w.letters)))


def exp_comb(a: LinComb) -> LinComb:
    return a.map_basis(exp_word)


def log_comb(a: LinComb) -> LinComb:
    return a.map_basis(log_word)
