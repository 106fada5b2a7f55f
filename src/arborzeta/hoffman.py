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

Both sums run in integers over one common denominator, the lcm of k! times
the denominator of each input coefficient (k! times either coefficient is an
integer), with one division per output word; block indices come from prefix sums.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import accumulate
from typing import Tuple

from .lincomb import LinComb
from .words import Word, merge_y, y_letter


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


@lru_cache(maxsize=32)  # an entry holds 2^(k-1) compositions
def _coefficients(k: int) -> tuple:
    """The blocks (start, end) of the compositions of k; then, for exp and for log,
    each composition as the positions of its blocks and its coefficient times k!."""
    f, spans, exp_rows, log_rows = math.factorial(k), {}, [], []
    for parts in compositions(k):
        ends = tuple(accumulate(parts))
        ids = tuple(spans.setdefault(b, len(spans)) for b in zip((0,) + ends, ends))
        exp_rows.append((ids, f // math.prod(map(math.factorial, parts))))
        log_rows.append((ids, (-1) ** (k - len(parts)) * f // math.prod(parts)))
    return tuple(spans), tuple(exp_rows), tuple(log_rows)


def _composition_sum(terms, which: int) -> LinComb:
    # sum of c * coefficient * I[w] over the terms (w, c), read twice, and the
    # compositions of len(w), for which = 1 (exp) or 2 (log), over one denominator
    import fractions  # loaded at the first division, not with the package
    den = math.lcm(*(math.factorial(len(w.letters)) * c.denominator for w, c in terms))
    out: dict = {}
    for w, c in terms:
        try:
            sums = (0, *accumulate(l.index for l in w.letters))
        except AttributeError:
            raise ValueError(f"the exp/log isomorphism acts on summation (y) words, got {w}") from None
        table = _coefficients(len(w.letters))
        m = c.numerator * (den // (math.factorial(len(w.letters)) * c.denominator))
        merged = [y_letter(sums[e] - sums[s]) for s, e in table[0]]
        for ids, g in table[which]:
            ls = tuple([merged[i] for i in ids])
            out[ls] = out.get(ls, 0) + m * g
    return LinComb({Word(ls): fractions.Fraction(v, den) for ls, v in out.items() if v})


def exp_word(w: Word) -> LinComb:
    """Hoffman exponential of a single word, as a combination of words."""
    return _composition_sum(((w, 1),), 1)


def log_word(w: Word) -> LinComb:
    """Hoffman logarithm of a single word, inverse to exp_word."""
    return _composition_sum(((w, 1),), 2)


def exp_comb(a: LinComb) -> LinComb:
    return _composition_sum(a.items(), 1)


def log_comb(a: LinComb) -> LinComb:
    return _composition_sum(a.items(), 2)
