"""Coefficient substrate: linear combinations and theta-polynomials."""

import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from arborzeta import lincomb
from arborzeta.lincomb import NEG_INF, LinComb, TensorPair, ThetaPoly, bilinear


def lc(**terms):
    return LinComb({k: Fraction(v) for k, v in terms.items()})


class TestLinComb:
    def test_construction_drops_zeros(self):
        a = LinComb({"x": Fraction(0), "y": Fraction(2)})
        assert a.items() == [("y", 2)]
        assert len(a) == 1

    def test_dict_construction_reuses_hashes(self):
        class Key:
            calls = 0

            def __hash__(self):
                Key.calls += 1
                return id(self) >> 4

        keys = [Key() for _ in range(4)]
        d = {k: i + 1 for i, k in enumerate(keys)}
        Key.calls = 0
        assert LinComb(d).items() == list(d.items())
        assert Key.calls == 0
        # entries to coerce or drop are rewritten in place: stored order holds
        mixed = LinComb({keys[0]: Fraction(4, 2), keys[1]: 0, keys[2]: Fraction(1, 2), keys[3]: 5})
        assert mixed.items() == [(keys[0], 2), (keys[2], Fraction(1, 2)), (keys[3], 5)]
        assert type(mixed.coeff(keys[0])) is int

    def test_pairs_accumulate(self):
        a = LinComb([("x", Fraction(1)), ("x", Fraction(2)), ("y", Fraction(1))])
        assert a.coeff("x") == 3
        assert a.coeff("y") == 1

    def test_integral_coefficients_stored_as_int(self):
        half = Fraction(1, 2)
        for comb in (
            LinComb({"x": 2}),
            LinComb({"x": True}),
            LinComb({"x": Fraction(4, 2)}),
            LinComb([("x", half), ("x", half)]),
            LinComb.unit("x", half) + LinComb.unit("x", half),
            2 * LinComb.unit("x", half),
        ):
            assert type(comb.coeff("x")) is int
        assert LinComb({"x": Fraction(4, 2)}).coeff("x") == 2
        assert type(LinComb.unit("x", half).coeff("x")) is Fraction
        assert str(LinComb({"x": True})) == "1*x"
        with pytest.raises(TypeError):
            LinComb.unit("x") * 0.5

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            LinComb({"x": 0.5})

    def test_unit(self):
        assert LinComb.unit("w").coeff("w") == 1
        assert LinComb.unit("w", 3).coeff("w") == 3
        assert not LinComb.unit("w", 0)
        assert LinComb.unit("w", 0) == LinComb()
        for given, stored in [(Fraction(4, 2), 2), (True, 1)]:
            c = LinComb.unit("w", given).coeff("w")
            assert type(c) is int and c == stored
        with pytest.raises(TypeError):
            LinComb.unit("w", 0.5)

    def test_missing_coeff_is_zero(self):
        assert LinComb().coeff("nope") == Fraction(0)

    def test_add_sub_neg(self):
        a = lc(x=1, y=2)
        b = lc(y=-2, z=5)
        assert a + b == lc(x=1, z=5)
        assert a - a == LinComb()
        assert -a == lc(x=-1, y=-2)

    def test_scalar_multiplication(self):
        a = lc(x=3, y=-6)
        assert Fraction(1, 3) * a == lc(x=1, y=-2)
        assert a * 0 == LinComb()
        assert 2 * a == a + a
        assert 1 * a is a and a * Fraction(2, 2) is a  # immutable, so the unit scalar shares it

    def test_items_in_stored_order_without_serializing(self):
        class Opaque:
            def __init__(self, name):
                self.name = name

            def __str__(self):
                raise AssertionError("serialized")

        b, a, c = Opaque("b"), Opaque("a"), Opaque("c")
        comb = LinComb({b: 1, a: Fraction(2), c: 3}) + LinComb.unit(a, 1)
        assert comb.items() == [(b, 1), (a, 3), (c, 3)]
        assert comb.map_basis(lambda e: e).items() == comb.items()
        assert (comb + comb).items() == [(b, 2), (a, 6), (c, 6)]
        with pytest.raises(AssertionError, match="serialized"):
            str(comb)

    def test_str_format(self):
        assert str(lc(b=-1, a=2)) == "2*a + -1*b"
        assert str(LinComb()) == "0"

    def test_map_basis_to_elements(self):
        a = lc(ab=2, cd=3)
        out = a.map_basis(lambda w: w.upper())
        assert out == LinComb({"AB": Fraction(2), "CD": Fraction(3)})

    def test_map_basis_to_combinations(self):
        a = lc(x=2)
        out = a.map_basis(lambda w: lc(u=1, v=-1))
        assert out == lc(u=2, v=-2)

    def test_bilinear(self):
        a = lc(x=2)
        b = lc(y=3, z=1)
        out = bilinear(lambda p, q: LinComb.unit(p + q), a, b)
        assert out == lc(xy=6, xz=2)

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(lc(x=1))


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
atoms = st.sampled_from(["a", "b", "c", "d"])
combs = st.dictionaries(atoms, fractions, max_size=4).map(LinComb)


PRIVATE_REACH = re.compile(r"\._terms\b|\b_coerce\b")


def test_private_reach_pattern():
    assert PRIVATE_REACH.search("out._terms = {}") and PRIVATE_REACH.search("import LinComb, _coerce")
    assert not PRIVATE_REACH.search("stray, at_inf = _stray_terms(err, n, K)")
    assert not PRIVATE_REACH.search("zeta._stray_terms")


def test_only_lincomb_touches_stored_terms():
    # every other module goes through the constructor, items() and the arithmetic
    package = Path(lincomb.__file__).parent
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(package.glob("*.py")) if path.name != "lincomb.py"
        for n, line in enumerate(path.read_text().splitlines(), 1) if PRIVATE_REACH.search(line)
    ]
    assert offenders == []


class TestLinCombProperties:
    @given(combs, combs)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(combs, combs, combs)
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(combs, fractions)
    def test_scalar_distributes(self, a, s):
        assert s * (a + a) == s * a + s * a

    @given(combs)
    def test_additive_inverse(self, a):
        assert a + (-a) == LinComb()
        assert not (a - a)


small = st.integers(min_value=-2, max_value=2).map(Fraction)
# an image is a bare element or a combination over {p, q}
images = st.one_of(
    st.sampled_from(["p", "q"]),
    st.dictionaries(st.sampled_from(["p", "q"]), small, max_size=2).map(LinComb),
)
image_maps = st.fixed_dictionaries({atom: images for atom in "abcd"})


def as_comb(image):
    return image if isinstance(image, LinComb) else LinComb.unit(image)


def reference(pairs):
    """Term-by-term sum of image * c, one addition per term."""
    total = LinComb()
    for image, c in pairs:
        total = total + as_comb(image) * c
    return total


def no_zero_stored(comb):
    return all(c != 0 for _, c in comb.items())


class TestOnePassSums:
    @given(combs, image_maps, st.sets(atoms))
    def test_map_basis_matches_termwise_sum(self, a, imgs, twins):
        # a twin atom (upper case) maps to the negated image, so its terms cancel
        def f(e):
            return imgs[e] if e.islower() else -as_comb(imgs[e.lower()])

        comb = a + LinComb((e.upper(), c) for e, c in a.items() if e in twins)
        out = comb.map_basis(f)
        assert out == reference((f(e), c) for e, c in comb.items())
        assert no_zero_stored(out)

    @given(combs, combs, image_maps)
    def test_bilinear_matches_termwise_sum(self, a, b, imgs):
        # antisymmetric off the diagonal, so f(u, v) and f(v, u) cancel in bilinear(f, a, a)
        def f(u, v):
            img = imgs[min(u, v)]
            return img if u <= v else -as_comb(img)

        for x, y in ((a, b), (a, a)):
            out = bilinear(f, x, y)
            assert out == reference((f(u, v), cu * cv) for u, cu in x.items() for v, cv in y.items())
            assert no_zero_stored(out)

    def test_cancelling_images_give_zero(self):
        assert not lc(a=1, b=1).map_basis({"a": lc(p=1, q=2), "b": lc(p=-1, q=-2)}.get)
        ab = lc(a=1, b=1)
        assert not bilinear(lambda u, v: LinComb.unit("p", (u < v) - (u > v)), ab, ab)


halves = st.integers(min_value=-6, max_value=6).map(lambda k: Fraction(k, 2))
half_combs = st.dictionaries(atoms, halves, max_size=4)
half_images = st.fixed_dictionaries({atom: st.dictionaries(st.sampled_from(["p", "q"]), halves, max_size=2)
                                     for atom in "abcd"})


def fraction_sum(pairs):
    """Plain-dict reference: the sum of c * image over (image dict, c) pairs."""
    total = {}
    for image, c in pairs:
        for e, d in image.items():
            total[e] = total.get(e, Fraction(0)) + Fraction(d) * c
    return {e: v for e, v in total.items() if v}


def stored_form(comb):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for _, c in comb.items())


class TestStoredForm:
    @given(half_combs, half_combs, halves, half_images)
    def test_results_are_int_or_proper_fraction(self, da, db, s, imgs):
        a, b = LinComb(da), LinComb(db)
        cases = [
            (a + b, fraction_sum([(da, 1), (db, 1)])),
            (a - b, fraction_sum([(da, 1), (db, -1)])),
            (-a, fraction_sum([(da, -1)])),
            (a * s, fraction_sum([(da, s)])),
            (a.map_basis(lambda e: LinComb(imgs[e])), fraction_sum((imgs[e], c) for e, c in da.items())),
            (
                bilinear(lambda u, v: LinComb(imgs[min(u, v)]), a, b),
                fraction_sum((imgs[min(u, v)], cu * cv) for u, cu in da.items() for v, cv in db.items()),
            ),
        ]
        for out, ref in cases:
            assert dict(out.items()) == ref
            assert stored_form(out)


COERCE_SCRIPT = """\
import sys; sys.path.insert(0, sys.argv[1])
from decimal import Decimal
from arborzeta.lincomb import _coerce
class Count(int): pass
def show(v): return f"{type(v).__name__} {v}"
def refusal(v):
    try: _coerce(v)
    except TypeError as exc: return str(exc)
print(show(_coerce(True)), show(_coerce(Count(7))), refusal(1.5), refusal(Decimal("1.5")), sep="\\n")
print("fractions" in sys.modules)
from fractions import Fraction
third = Fraction(1, 3)
print(show(_coerce(Fraction(4, 2))), _coerce(third) is third, sep="\\n")
"""


def test_coerce_contract_before_and_after_fractions_loads():
    # no Fraction exists before fractions is loaded, and _coerce must not load it
    src = str(Path(lincomb.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", COERCE_SCRIPT, src], capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "int 1",
        "int 7",
        "expected an exact rational coefficient, got float",
        "expected an exact rational coefficient, got Decimal",
        "False",
        "int 2",
        "True",
    ]


class TestTensorPair:
    def test_fields_and_equality(self):
        p = TensorPair("u", "v")
        assert p.left == "u" and p.right == "v"
        assert p == TensorPair("u", "v")
        assert p != TensorPair("v", "u")

    def test_str(self):
        assert str(TensorPair("u", "v")) == "[u (x) v]"

    def test_stored_hash(self):
        p, q = TensorPair("u", ("v", 1)), TensorPair("u", ("v", 1))
        assert p._hash == hash((p.left, p.right))
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert TensorPair("v", "u")._hash == hash(("v", "u"))
        with pytest.raises(AttributeError):
            p.left = "w"


class TestThetaPoly:
    def test_constant_and_theta(self):
        c = ThetaPoly.constant(Fraction(3))
        assert c.coeff(0) == 3 and c.degree() == 0
        t = ThetaPoly.theta(Fraction(2))
        assert t.coeff(1) == 2 and t.degree() == 1

    def test_zero_degree(self):
        assert ThetaPoly().degree() is NEG_INF
        assert not ThetaPoly()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ThetaPoly({-1: Fraction(1)})

    def test_add_and_scale(self):
        p = ThetaPoly({2: Fraction(1), 0: Fraction(-1)})
        q = ThetaPoly({2: Fraction(-1), 1: Fraction(4)})
        assert (p + q).coeff(2, Fraction(0)) == Fraction(0)
        assert (p + q).coeff(1) == 4
        assert p.scale(Fraction(1, 2)).coeff(2) == Fraction(1, 2)
        assert (p - p) == ThetaPoly()

    def test_shift_multiplies_by_theta(self):
        p = ThetaPoly({1: Fraction(2), 0: Fraction(5)})
        s = p.shift(2)
        assert s.coeff(3) == 2 and s.coeff(2) == 5
        assert s.degree() == 3

    def test_derive_falling_factorial(self):
        p = ThetaPoly({3: Fraction(1)})
        assert p.derive(1).coeff(2) == 3
        assert p.derive(2).coeff(1) == 6
        assert p.derive(3).coeff(0) == 6
        assert p.derive(4) == ThetaPoly()

    def test_derive_drops_low_degrees(self):
        p = ThetaPoly({1: Fraction(7), 0: Fraction(9)})
        d = p.derive(1)
        assert d.coeff(0) == 7
        assert d.degree() == 0

    def test_map_coeffs(self):
        p = ThetaPoly({2: Fraction(4), 0: Fraction(1)})
        q = p.map_coeffs(lambda c: c - 1)
        assert q.coeff(2) == 3
        assert q.coeff(0, None) is None  # 1 - 1 = 0 dropped

    def test_mul_with(self):
        p = ThetaPoly({1: Fraction(1), 0: Fraction(2)})
        q = ThetaPoly({1: Fraction(3)})
        out = p.mul_with(q, lambda a, b: a * b)
        assert out.coeff(2) == 3 and out.coeff(1) == 6

    def test_lincomb_coefficients(self):
        p = ThetaPoly({1: LinComb.unit("w")})
        q = p + ThetaPoly({1: LinComb.unit("w", -1)})
        assert q == ThetaPoly()

    def test_format(self):
        p = ThetaPoly({2: Fraction(1, 2), 0: Fraction(-1)})
        assert p.format(str) == "(1/2)*theta^2 + (-1)"
        assert ThetaPoly({1: Fraction(3)}).format(str) == "(3)*theta"
        assert ThetaPoly().format(str) == "0"
