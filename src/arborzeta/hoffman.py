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
from functools import reduce
from typing import Callable, Tuple

from .lincomb import LinComb
from .words import Word, merge_y


def compositions(k: int) -> list:
    """All compositions of k >= 0 in lexicographic order of their part tuples.

    compositions(3) = [(1, 1, 1), (1, 2), (2, 1), (3,)]; the order is fixed
    by recursing on the first part in increasing order.
    """
    if k < 0:
        raise ValueError("compositions are defined for k >= 0")
    if k == 0:
        return [()]
    out = []
    for first in range(1, k + 1):
        for rest in compositions(k - first):
            out.append((first,) + rest)
    return out


def apply_composition(parts: Tuple[int, ...], w: Word) -> Word:
    """Collapse consecutive blocks of sizes ``parts`` by adding their indices."""
    if sum(parts) != len(w.letters):
        raise ValueError(f"composition {parts} does not sum to the word length {len(w.letters)}")
    out = []
    pos = 0
    for p in parts:
        out.append(reduce(merge_y, w.letters[pos:pos + p]))
        pos += p
    return Word(tuple(out))


def _composition_sum(w: Word, coeff: Callable[[Tuple[int, ...]], Fraction]) -> LinComb:
    """Sum of coeff(parts) * I[w] over the compositions of the word length."""
    return LinComb((apply_composition(parts, w), coeff(parts)) for parts in compositions(len(w.letters)))


def exp_word(w: Word) -> LinComb:
    """Hoffman exponential of a single word, as a combination of words."""
    return _composition_sum(w, lambda parts: Fraction(1, math.prod(map(math.factorial, parts))))


def log_word(w: Word) -> LinComb:
    """Hoffman logarithm of a single word, inverse to exp_word."""
    return _composition_sum(w, lambda parts: Fraction((-1) ** (sum(parts) - len(parts)), math.prod(parts)))


def exp_comb(a: LinComb) -> LinComb:
    return a.map_basis(exp_word)


def log_comb(a: LinComb) -> LinComb:
    return a.map_basis(log_word)
