"""Exact coefficient substrate for the symbolic layer.

Four building blocks live here: exact rational scalars, formal linear
combinations over an arbitrary hashable basis, the elementary tensor
``TensorPair``, and polynomials in the regularization variable theta with
coefficients in any additive type.  ``Immutable`` is the base of the value
types, slotted classes written by hand (importing ``dataclasses`` costs more
than the package); ``slot_setters`` gives their constructors fast stores.

A stored coefficient is an ``int`` when it is integral and otherwise a stdlib
``Fraction`` in lowest terms with denominator greater than 1.  Arborification,
the (quasi-)shuffle, deconcatenation and the coproducts only ever produce
integers, so the exact layer runs on machine integers; a ``Fraction`` appears
only where a division happens (Hoffman's exp/log, the regularization
elimination), and every sum or product that comes out integral is stored as
an ``int`` again.  So ``fractions`` is imported at the first division, by the
code that divides, and never by a command that does not divide.  Floats
enter only when a value is explicitly evaluated numerically.  Terms are kept
in insertion order, which is deterministic, and ``items()`` returns them in
that order; only printing orders basis elements by the lexicographic order
of their string serialization.  This module alone reads or writes the stored
terms.  The zero combination (empty support) is distinct from the unit basis
element of any algebra built on top, such as the empty word or the empty
forest.

``_TABLE`` is the package's one cache, of pure results keyed by (name,
argument): the images of the ``tabled`` basis maps (the coproduct, both
arborifications, deconcatenation), the tree kernel's vertex tails and its
one list of K^-a, with the k^-n lists of both evaluators, in one dict per
cutoff K under ("tails", K), word values under ("eval_mzv_bounded", (index,
tol)), and the parsed subtrees under ("tree", (decoration, children)).  Only
this module enters or clears entries, under one budget of 2^18 cost units: a
float costs 1, and a ``LinComb`` term, a (value, bound) pair or a subtree 16.
Tracemalloc measures per unit about 32 bytes for the floats of a tail or a
k^-n list (plain lists of float objects), 17 to 22 for terms and pairs and 26
for subtrees (414 each).  A call done with the table calls ``trim``, which
clears it if it holds more: at most about 8.4 MB of tails, 5.7 MB of terms,
6.8 MB of subtrees or 8.5 MB of k^-n lists.  What it holds never changes a
result.
"""

from __future__ import annotations

import sys
from functools import wraps
from typing import TYPE_CHECKING, Callable, Iterable, Tuple, Union

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]

NEG_INF = float("-inf")


def _coerce(c: Scalar) -> Scalar:
    """The stored form of an exact scalar: an int, or a non-integral Fraction."""
    if type(c) is int:
        return c
    # no Fraction exists before fractions is loaded, so its class is looked up, not imported
    fractions = sys.modules.get("fractions")
    if isinstance(c, int) or (fractions and isinstance(c, fractions.Fraction)):  # bool, int subclasses
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")


class Immutable:
    """Base of the slotted value types: setting or deleting a slot raises, so
    each type fills its slots once, at construction, past this refusal."""

    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


def slot_setters(cls: type) -> tuple:
    """The C-level setters of cls's own slots, in order: ``setter(obj, value)``."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class TensorPair(Immutable):
    """Elementary tensor with a left and a right component; its hash is computed once."""

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: object, right: object):
        _set_left(self, left)
        _set_right(self, right)
        _set_pair_hash(self, hash((left, right)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not TensorPair:
            return NotImplemented
        return self._hash == other._hash and (self.left, self.right) == (other.left, other.right)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return TensorPair, (self.left, self.right)

    def __str__(self) -> str:
        return f"[{self.left} (x) {self.right}]"

    def __repr__(self) -> str:
        return f"TensorPair(left={self.left!r}, right={self.right!r})"


_set_left, _set_right, _set_pair_hash = slot_setters(TensorPair)


class LinComb:
    """Formal rational linear combination of hashable basis elements.

    Immutable after construction.  Zero coefficients are never stored, so the
    zero combination has empty support and is falsy.  Construction accepts a
    dict, whose keys are distinct, or an iterable of (element, coefficient)
    pairs, in which repeated elements accumulate.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[dict, Iterable[Tuple[object, Scalar]]] = ()):
        if isinstance(terms, dict):
            self._terms = data = dict(terms)  # the copy reuses the stored hashes
            for e, c in terms.items():
                if type(c) is not int or not c:  # rewrite only what to coerce or drop
                    data[e] = c = _coerce(c)
                    if not c:
                        del data[e]
            return
        data: dict = {}
        for elem, c in terms:
            if type(c) is not int:
                c = _coerce(c)
            if c:
                s = data.get(elem, 0) + c
                if type(s) is not int:
                    s = _coerce(s)
                if s:
                    data[elem] = s
                else:
                    del data[elem]
        self._terms = data

    @classmethod
    def unit(cls, elem: object, coeff: Scalar = 1) -> "LinComb":
        """coeff * elem, its dict built directly; a zero coeff gives the zero combination."""
        out, c = cls.__new__(cls), coeff if type(coeff) is int else _coerce(coeff)
        out._terms = {elem: c} if c else {}
        return out

    def items(self) -> list:
        """Terms as (element, coefficient) pairs, in stored order."""
        return list(self._terms.items())

    def coeff(self, elem: object) -> Scalar:
        return self._terms.get(elem, 0)

    def __contains__(self, elem: object) -> bool:
        return elem in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        data = dict(self._terms)
        for elem, c in other._terms.items():
            s = data.get(elem, 0) + c
            if type(s) is not int:
                s = _coerce(s)
            if s:
                data[elem] = s
            else:
                del data[elem]
        out = LinComb.__new__(LinComb)
        out._terms = data
        return out

    def __neg__(self) -> "LinComb":
        return self * -1

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __mul__(self, c: Scalar) -> "LinComb":
        c = _coerce(c)
        if c == 1:
            return self  # immutable, so 1 * comb may be comb itself
        if not c:
            return LinComb()
        return LinComb({elem: c * v for elem, v in self._terms.items()})

    __rmul__ = __mul__

    def map_basis(self, f: Callable[[object], "LinComb"]) -> "LinComb":
        """Linear extension of a basis map; f may return an element or a LinComb."""
        return LinComb(
            (w, c * d) for elem, c in self._terms.items() for w, d in _terms_of(f(elem))
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        terms = sorted(((str(elem), c) for elem, c in self._terms.items()), key=lambda t: t[0])
        return " + ".join(f"{c}*{elem}" for elem, c in terms)

    def __repr__(self) -> str:
        return f"LinComb({self})"


def _terms_of(image: object):
    """Terms of a basis map's image: a LinComb's own, or (element, 1)."""
    return image._terms.items() if isinstance(image, LinComb) else ((image, 1),)


def bilinear(f: Callable[[object, object], LinComb], a: LinComb, b: LinComb) -> LinComb:
    """Bilinear extension of a basis-pair map f to combinations a, b."""
    return LinComb(
        (w, cu * cv * d)
        for u, cu in a._terms.items()
        for v, cv in b._terms.items()
        for w, d in _terms_of(f(u, v))
    )


_TABLE: dict = {}          # (name, argument) -> a pure result; see the module docstring
_TABLE_BUDGET = 1 << 18    # cost units; trim clears a table that holds more
TERM_COST = 16             # a LinComb term or a (value, bound) pair; a tail float costs 1
_table_cost = 0            # the cost held in _TABLE


def table_put(key: tuple, value, cost: int):
    """Enter value in the table under key, adding cost to what it holds; returns value."""
    global _table_cost
    _TABLE[key] = value
    _table_cost += cost
    return value


def trim() -> None:
    """Clear the table if it holds more than the budget; called once a call is done with it."""
    global _table_cost
    if _table_cost > _TABLE_BUDGET:
        _TABLE.clear()
        _table_cost = 0


def tabled(fn: Callable[[object], LinComb]) -> Callable[[object], LinComb]:
    """The basis map fn, looked up in the table under (its name, the argument)
    and computed only on a miss; a call that raises enters nothing.  fn calls
    nothing that trims the table, which could clear entries that fn reads."""
    name = fn.__name__

    @wraps(fn)
    def lookup(arg):
        got = _TABLE.get((name, arg))
        if got is None:
            table_put((name, arg), got := fn(arg), TERM_COST * len(got))
            trim()
        return got

    return lookup


class ThetaPoly:
    """Polynomial in theta with coefficients in an additive type C.

    C needs addition, multiplication by the scalars used, and truthiness as
    the zero test.  In practice C is Fraction, float, or LinComb.  Falsy
    coefficients are dropped, so the zero polynomial has empty support and
    degree() returns -inf as the distinguished marker.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Union[dict, Iterable[Tuple[int, object]]] = ()):
        data: dict = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for k, c in items:
            if not isinstance(k, int) or k < 0:
                raise ValueError(f"theta exponent must be a nonnegative integer, got {k!r}")
            data[k] = data[k] + c if k in data else c
        self._c = {k: c for k, c in data.items() if c}

    @classmethod
    def constant(cls, c: object) -> "ThetaPoly":
        return cls(((0, c),))

    @classmethod
    def theta(cls, c: object = 1) -> "ThetaPoly":
        return cls(((1, c),))

    def items(self) -> list:
        return sorted(self._c.items())

    def coeff(self, k: int, zero: object = None) -> object:
        return self._c.get(k, zero)

    def degree(self):
        return max(self._c) if self._c else NEG_INF

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return self._c == other._c

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "ThetaPoly") -> "ThetaPoly":
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        data = dict(self._c)
        for k, c in other._c.items():
            data[k] = data[k] + c if k in data else c
        return ThetaPoly(data)

    def scale(self, c: object) -> "ThetaPoly":
        return ThetaPoly({k: c * v for k, v in self._c.items()})

    def __neg__(self) -> "ThetaPoly":
        return self.scale(-1)

    def __sub__(self, other: "ThetaPoly") -> "ThetaPoly":
        return self + other.scale(-1)

    def shift(self, n: int = 1) -> "ThetaPoly":
        """Multiplication by theta^n."""
        if n < 0:
            raise ValueError("shift must be nonnegative")
        return ThetaPoly({k + n: c for k, c in self._c.items()})

    def derive(self, n: int = 1) -> "ThetaPoly":
        """n-th formal derivative d^n/dtheta^n, n >= 1."""
        if not isinstance(n, int) or n < 1:
            raise ValueError("derivative order must be an integer >= 1")
        data = {}
        for k, c in self._c.items():
            if k >= n:
                m = 1
                for i in range(k, k - n, -1):  # falling factorial k!/(k-n)!
                    m *= i
                data[k - n] = m * c
        return ThetaPoly(data)

    def map_coeffs(self, f: Callable[[object], object]) -> "ThetaPoly":
        return ThetaPoly({k: f(c) for k, c in self._c.items()})

    def mul_with(self, other: "ThetaPoly", coeff_mul: Callable[[object, object], object]) -> "ThetaPoly":
        """Polynomial product with an explicit coefficient multiplication."""
        data: dict = {}
        for i, a in self._c.items():
            for j, b in other._c.items():
                p = coeff_mul(a, b)
                k = i + j
                data[k] = data[k] + p if k in data else p
        return ThetaPoly(data)

    def format(self, coeff_fmt: Callable[[object], str] = str) -> str:
        if not self._c:
            return "0"
        parts = []
        for k, c in sorted(self._c.items(), reverse=True):
            if k == 0:
                parts.append(f"({coeff_fmt(c)})")
            elif k == 1:
                parts.append(f"({coeff_fmt(c)})*theta")
            else:
                parts.append(f"({coeff_fmt(c)})*theta^{k}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"ThetaPoly({self})"
