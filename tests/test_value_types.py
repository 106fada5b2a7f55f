"""The contract of the slotted value types ``Word``, ``Tree``, ``Forest`` and
``TensorPair``: copies and pickles come back equal with an equal hash, no
attribute can be set or deleted, the repr strings stay as they were, and
equality with a foreign type is ``False``."""

import copy
import pickle

import pytest

from arborzeta.forests import EMPTY_FOREST, Forest, Tree, enumerate_trees, parse_forest, parse_tree
from arborzeta.lincomb import TensorPair
from arborzeta.words import EMPTY_WORD, Word, YLetter, parse_word

TREE = parse_tree("y3(y1,y2(y2))")
VALUES = [
    parse_word("y2.y3"),
    EMPTY_WORD,
    TREE,
    parse_forest("y2(y3);y2"),
    EMPTY_FOREST,
    TensorPair(parse_forest("x1(x0);x0"), EMPTY_FOREST),
    TensorPair(parse_word("x0.x1"), EMPTY_WORD),
    enumerate_trees(4, (YLetter(1), YLetter(2)))[-1],  # built by the census, not by Tree(...)
]


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_with_equal_hash(value, clone):
    other = clone(value)
    assert type(other) is type(value)
    assert other == value and hash(other) == hash(value)
    assert str(other) == str(value) and repr(other) == repr(value)


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_immutable(value):
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_repr_strings():
    assert repr(TREE) == (
        "Tree(decoration=YLetter(index=3), children=(Tree(decoration=YLetter(index=1), children=()), "
        "Tree(decoration=YLetter(index=2), children=(Tree(decoration=YLetter(index=2), children=()),))))"
    )
    assert [repr(v) for v in VALUES if not isinstance(v, Tree)] == [
        "Word(y2.y3)",
        "Word(e)",
        "Forest(y2;y2(y3))",
        "Forest(e)",
        "TensorPair(left=Forest(x0;x1(x0)), right=Forest(e))",
        "TensorPair(left=Word(x0.x1), right=Word(e))",
    ]


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_foreign_types_are_unequal(value):
    fields = tuple(getattr(value, name) for name in type(value).__slots__ if name != "_hash")
    for foreign in (None, 0, str(value), fields, fields[0], object()):
        assert value != foreign and not (value == foreign)
    assert value == value


def test_equal_hashes_still_compare_fields():
    # hash(-1) == hash(-2) in CPython, so these two pairs store equal hashes
    p, q = TensorPair(-1, "u"), TensorPair(-2, "u")
    assert hash(p) == hash(q) and p != q
    w = parse_word("y2.y3")
    assert Word(w.letters) == w and Word(w.letters) is not w
