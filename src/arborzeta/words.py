"""Words over the two alphabets underlying multiple zeta values.

The integration alphabet has two letters x0, x1; the summation alphabet has
letters y1, y2, y3, ... indexed by positive integers.  A word is a finite
sequence of letters from one alphabet.  This module provides:

* the shuffle product (sum over all interleavings of two words),
* the quasi-shuffle product (interleavings plus contractions, where a letter
  of each factor may merge under an internal product; on the summation
  alphabet the internal product adds indices, [y_k y_l] = y_{k+l}),
* the deconcatenation coproduct, ``tabled`` (see ``lincomb``),
* the block substitution s sending y_n to x0^(n-1) x1, a bijection between
  summation words and integration words ending in x1, and its inverse,
* convergence predicates: a summation word is convergent when it does not
  start with y1; an integration word is convergent when it starts with x0 and
  ends with x1.

Letters are interned: ``YLetter(2)`` always returns the same object, so a
letter compares and hashes by identity and costs no Python call to hash.  A
letter value must be an int (not a bool) in the letter's range; ``y_letter``
calls the constructor only for an index not yet interned.  A ``Word``
stores the hash of its letter tuple and compares that hash before the letters.
Each new letter also gets a one-character code, ``chr`` of its place in the
append-only list ``_BY_CODE``, so one process holds at most 1,114,112 (0x110000)
distinct letters.  The (quasi-)shuffle works on words encoded as strings of codes
(``encode``, ``decode``), and the products decode once per output word.

Serialization: letters print as ``x0``, ``x1``, ``y1``, ``y2``, ...; a word
is the dot-joined sequence of its letters (``x0.x1.x1``) and the empty word
prints as ``e``.  Linear combinations print as ``c1*w1 + c2*w2`` with exact
rational coefficients, terms ordered lexicographically by word serialization.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache, total_ordering
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Tuple, Union

from .lincomb import Immutable, LinComb, TensorPair, slot_setters, tabled


@total_ordering
class _Letter(Immutable):
    """A letter, interned: one object per value, so equality is identity, the
    hash is ``object``'s, and a copy or a pickle comes back as the same object."""

    __slots__ = ("_str", "_code")

    def __new__(cls, n: int):
        letter = cls._interned.get(n) if type(n) is int else None
        if letter is None:
            if isinstance(n, bool) or not isinstance(n, int) or not cls._least <= n <= cls._most:
                raise ValueError(f"{cls._rule}, got {n}")
            if len(_BY_CODE) > 0x10FFFF:
                raise ValueError(f"no code left for {cls._prefix}{n}: a process holds at most 1,114,112 letters")
            letter = object.__new__(cls)
            object.__setattr__(letter, cls._field, int(n))
            object.__setattr__(letter, "_str", f"{cls._prefix}{int(n)}")
            object.__setattr__(letter, "_code", chr(len(_BY_CODE)))
            _BY_CODE.append(letter)
            cls._interned[int(n)] = letter
        return letter

    def __reduce__(self):
        return type(self), (getattr(self, self._field),)

    def __lt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return getattr(self, self._field) < getattr(other, other._field)

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._field}={getattr(self, self._field)})"


class XLetter(_Letter):
    """Letter of the integration alphabet; value is 0 or 1."""

    __slots__ = ("value",)
    _interned: dict = {}
    _field, _prefix, _least, _most = "value", "x", 0, 1
    _rule = "x-letter value must be 0 or 1"


class YLetter(_Letter):
    """Letter of the summation alphabet; index is a positive integer."""

    __slots__ = ("index",)
    _interned: dict = {}
    _field, _prefix, _least, _most = "index", "y", 1, math.inf
    _rule = "y-letter index must be a positive integer"


_BY_CODE: list = []  # the letter of each code c at _BY_CODE[ord(c)], in the order the letters were made
X0 = XLetter(0)
X1 = XLetter(1)
_Y_LETTERS = YLetter._interned


def y_letter(n: int) -> YLetter:
    """YLetter(n) for an int n, read from the intern table: the constructor,
    which checks n, runs only for an index not seen before."""
    return _Y_LETTERS.get(n) or YLetter(n)


Letter = Union[XLetter, YLetter]


def letter_rank(letter: Letter) -> int:
    """Total order on letters of one alphabet: x0 < x1, y_n by index."""
    return letter.value if isinstance(letter, XLetter) else letter.index


def letter_weight(letter: Letter) -> int:
    """Weight contribution: 1 for x-letters, the index for y-letters."""
    return 1 if isinstance(letter, XLetter) else letter.index


class Word(Immutable):
    """Immutable word; the empty word is the product unit of both algebras.

    The hash of the letter tuple is computed once, at construction.
    """

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Tuple[Letter, ...] = ()):
        _set_letters(self, letters)
        _set_word_hash(self, hash(letters))

    def __eq__(self, other: object) -> bool:
        if type(other) is not Word:
            return NotImplemented
        return self._hash == other._hash and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Word, (self.letters,)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return ".".join(map(str, self.letters)) or "e"

    def __repr__(self) -> str:
        return f"Word({self})"


_set_letters, _set_word_hash = slot_setters(Word)
EMPTY_WORD = Word()


def x_word(*values: int) -> Word:
    """Integration word from a sequence of 0/1 values."""
    return Word(tuple(XLetter(v) for v in values))


def y_word(*indices: int) -> Word:
    """Summation word from a sequence of positive indices."""
    return Word(tuple(YLetter(n) for n in indices))


def weight(w: Word) -> int:
    """Length for integration words, index sum for summation words."""
    return sum(letter_weight(l) for l in w.letters)


def concat(u: Word, v: Word) -> Word:
    return Word(u.letters + v.letters)


def merge_y(a: YLetter, b: YLetter) -> YLetter:
    """Internal product of the summation alphabet: indices add."""
    return y_letter(a.index + b.index)


def merge_code(a: str, b: str) -> str:
    """merge_y on letter codes."""
    return y_letter(_BY_CODE[ord(a)].index + _BY_CODE[ord(b)].index)._code


def encode(w: Word) -> str:
    """The string of w's letter codes."""
    return "".join([l._code for l in w.letters])


def decode(code: str) -> Word:
    """The word whose letter codes are the characters of code."""
    return Word(tuple(map(_BY_CODE.__getitem__, map(ord, code))))


@lru_cache(maxsize=1 << 12)  # a round of any bench/ workload fills under 900 entries
def _interleave(u: str, v: str, merge: Optional[Callable[[str, str], str]]) -> Mapping:
    # Recursive expansion into a read-only map code string -> count; merge=None gives the
    # plain shuffle, otherwise a third branch contracts the leading letters under merge.
    if not u or not v:
        return MappingProxyType({u + v: 1})
    branches = [(u[0], _interleave(u[1:], v, merge)), (v[0], _interleave(u, v[1:], merge))]
    if merge is not None:
        branches.append((merge(u[0], v[0]), _interleave(u[1:], v[1:], merge)))
    out: dict = {}
    for letter, counts in branches:
        for ls, c in counts.items():
            ls = letter + ls
            out[ls] = out.get(ls, 0) + c
    return MappingProxyType(out)


def interleave_sum(a: Mapping, b: Mapping, merge: Optional[Callable[[str, str], str]]) -> dict:
    """(Quasi-)shuffle of two maps code string -> coefficient; zero sums are kept."""
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            m = cu * cv
            for ls, d in _interleave(u, v, merge).items():
                out[ls] = out.get(ls, 0) + m * d
    return out


def as_comb(coeffs: Mapping) -> LinComb:
    """The LinComb of a map code string -> coefficient: each word decoded once, zeros dropped."""
    return LinComb({decode(ls): c for ls, c in coeffs.items() if c})


def shuffle(u: Word, v: Word) -> LinComb:
    """Shuffle product: sum over all interleavings of u and v."""
    return as_comb(_interleave(encode(u), encode(v), None))


def quasi_shuffle(u: Word, v: Word) -> LinComb:
    """Quasi-shuffle product on summation words: letters merge by adding indices."""
    return as_comb(_interleave(encode(u), encode(v), merge_code))


def product_comb(a: LinComb, b: LinComb, merge: Optional[Callable] = None) -> LinComb:
    """Bilinear extension of shuffle (merge=None) or quasi-shuffle (merge_y) to
    combinations; any other merge acts on letter codes."""
    by_code = [{encode(w): c for w, c in x.items()} for x in (a, b)]
    return as_comb(interleave_sum(*by_code, merge_code if merge is merge_y else merge))


@tabled
def deconcat(w: Word) -> LinComb:
    """Deconcatenation coproduct: sum of all two-part splits of w."""
    ls = w.letters
    return LinComb(
        (TensorPair(Word(ls[:r]), Word(ls[r:])), 1) for r in range(len(ls) + 1)
    )


def s_map(w: Word) -> Word:
    """Block substitution y_n -> x0^(n-1) x1, extended as a monoid morphism."""
    out = []
    for l in w.letters:
        if not isinstance(l, YLetter):
            raise ValueError(f"s_map expects a summation word, found letter {l}")
        out.extend([X0] * (l.index - 1))
        out.append(X1)
    return Word(tuple(out))


def s_inverse(v: Word) -> Word:
    """Inverse block substitution; v must be empty or end with x1."""
    if v.letters and v.letters[-1] != X1:
        raise ValueError(f"s_inverse needs a word ending in x1, got {v}")
    out = []
    run = 0
    for l in v.letters:
        if not isinstance(l, XLetter):
            raise ValueError(f"s_inverse expects an integration word, found letter {l}")
        if l == X0:
            run += 1
        else:
            out.append(y_letter(run + 1))
            run = 0
    return Word(tuple(out))


def is_convergent_y(w: Word) -> bool:
    """A summation word is convergent when it does not start with y1."""
    return not w.letters or w.letters[0] != YLetter(1)


def is_convergent_x(v: Word) -> bool:
    """An integration word is convergent when it starts with x0 and ends with x1."""
    return not v.letters or (v.letters[0] == X0 and v.letters[-1] == X1)


class ParseError(ValueError):
    """Syntax error in the word or tree grammar, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


LETTER_TOKEN = r"x[01]|y[1-9][0-9]*"
_LETTER_RE = re.compile(LETTER_TOKEN)
_WORD_TOKENS = re.compile(LETTER_TOKEN + r"|.", re.S).findall  # a letter, or any one character


@lru_cache(maxsize=1 << 10)  # a round of any bench/ workload reads under 10 distinct tokens
def letter_of(token: str) -> Optional[Letter]:
    """The letter a token names (``y2`` gives y2), or None for any other text."""
    if not _LETTER_RE.fullmatch(token):
        return None
    return XLetter(int(token[1])) if token[0] == "x" else y_letter(int(token[1:]))


def letter_error(text: str, pos: int) -> ParseError:
    """The refusal of text at pos, where a letter token should start."""
    found = repr(text[pos:pos + 8]) if pos < len(text) else "end of input"
    return ParseError(f"expected a letter token (x0, x1, or y<n>), found {found}", pos)


def parse_word(text: str) -> Word:
    """Parse ``letter ('.' letter)* | 'e'``; whitespace at the ends is ignored,
    and an error's position counts from the start of ``text``.  One scan splits
    the text into tokens, letters at the even places and dots between them."""
    body = text.rstrip()  # the letters lie in body[start:], at their places in text
    start = len(body) - len(body.lstrip())
    if body[start:] == "e":
        return EMPTY_WORD
    if start == len(body):
        raise ParseError("empty input, expected a word", 0)
    tokens = _WORD_TOKENS(body, start)
    letters = tuple(map(letter_of, tokens[::2]))
    if len(tokens) % 2 == 0 or None in letters or tokens[1::2].count(".") < len(tokens) // 2:
        pos = start
        for i, tok in enumerate(tokens + [""]):  # the first token out of place; "" ends the text
            if i % 2 == 0 and letter_of(tok) is None:
                raise letter_error(body, pos)
            if i % 2 and tok != ".":
                raise ParseError(f"expected '.' between letters, found {tok[0]!r}", pos)
            pos += len(tok)
    if "x" in body and "y" in body:  # in a valid text only the letters hold an x or a y
        raise ParseError("word mixes the x and y alphabets", start)
    return Word(letters)
