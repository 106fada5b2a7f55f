"""The forest and word parsers against a copy of their earlier form, which read
text one vertex or letter at a time: on every forest of at most 5 vertices and
every word of at most 5 letters, printed with random whitespace, and on random
strings over the grammar's tokens, each text gives an equal value or the same
refusal, message and position alike.  Then what the forest parser shares
through the package's table."""

import random
import re

from arborzeta import lincomb
from arborzeta.forests import EMPTY_FOREST, enumerate_forests, make_forest, make_tree, parse_forest, parse_tree
from arborzeta.words import EMPTY_WORD, X0, X1, ParseError, Word, XLetter, YLetter, parse_word, y_letter
from conftest import clear_table, table_cost

# ---------------------------------------------------------------------------
# the oracle: the parsers as they were before the token scan

_LETTER_RE = re.compile(r"x[01]|y[1-9][0-9]*")


def _letter_at(text, pos):
    m = _LETTER_RE.match(text, pos)
    if not m:
        found = repr(text[pos:pos + 8]) if pos < len(text) else "end of input"
        raise ParseError(f"expected a letter token (x0, x1, or y<n>), found {found}", pos)
    tok = m.group(0)
    letter = XLetter(int(tok[1])) if tok[0] == "x" else y_letter(int(tok[1:]))
    return letter, m.end()


def _old_parse_forest(text):
    space = re.compile(r"\s*").match
    pos = space(text).end()
    if text.startswith("e", pos):
        pos = space(text, pos + 1).end()
        if pos < len(text):
            raise ParseError("unexpected input after the empty forest 'e'", pos)
        return EMPTY_FOREST
    if pos == len(text):
        raise ParseError("empty input, expected a forest", pos)
    stack = [(None, [])]
    built = {}
    alphabets = set()
    while True:
        letter, pos = _letter_at(text, space(text, pos).end())
        alphabets.add(type(letter))
        stack.append((letter, []))
        pos = space(text, pos).end()
        if text.startswith("(", pos):
            pos += 1
            continue
        while True:
            node = make_tree(*stack.pop())
            stack[-1][1].append(built.setdefault(node, node))
            found = text[pos:pos + 1]
            if found == (";" if len(stack) == 1 else ","):
                break
            if len(stack) == 1:
                if found:
                    raise ParseError(f"unexpected trailing input {text[pos:pos + 8]!r}", pos)
                if len(alphabets) > 1:
                    raise ParseError("forest mixes the x and y alphabets", 0)
                return make_forest(stack[0][1])
            if found != ")":
                raise ParseError(f"expected ')', found {repr(found) if found else 'end of input'}", pos)
            pos = space(text, pos + 1).end()
        pos += 1


def _old_parse_word(text):
    body = text.rstrip()
    start = pos = len(body) - len(body.lstrip())
    if body[start:] == "e":
        return EMPTY_WORD
    if start == len(body):
        raise ParseError("empty input, expected a word", 0)
    letters = []
    while True:
        letter, pos = _letter_at(body, pos)
        letters.append(letter)
        if pos == len(body):
            break
        if body[pos] != ".":
            raise ParseError(f"expected '.' between letters, found {body[pos]!r}", pos)
        pos += 1
    if len({type(l) for l in letters}) > 1:
        raise ParseError("word mixes the x and y alphabets", start)
    return Word(tuple(letters))


# ---------------------------------------------------------------------------
# the corpus

_TOKENS = ["y1", "y2", "y10", "y0", "x0", "x1", "x2", "y", "(", ")", ",", ";", ".", "e", " ", "\t"]
_SPACES = ["", "", "", " ", "\t", " \t ", "\n"]


def _spaced(rng, text):
    """text with random whitespace before each of its tokens and at its end."""
    pieces = re.findall(r"[xy][0-9]+|.", text)
    return "".join(rng.choice(_SPACES) + p for p in pieces) + rng.choice(_SPACES)


def _corpus():
    rng = random.Random(2501)
    valid = []
    for alphabet in ((YLetter(1), YLetter(2)), (X0, X1)):
        for n in range(6):
            valid += (_spaced(rng, str(f)) for f in enumerate_forests(n, alphabet))
            valid += (_spaced(rng, ".".join(str(alphabet[k >> i & 1]) for i in range(n)) or "e")
                      for k in range(2 ** n))
    yield from valid
    for _ in range(20000):
        yield "".join(rng.choice(_TOKENS) for _ in range(rng.randint(0, 12)))
    for _ in range(5000):  # a valid text with one token put in, dropped or replaced: errors deep inside
        text = rng.choice(valid)
        i, j = sorted(rng.randint(0, len(text)) for _ in range(2))
        yield text[:i] + rng.choice(_TOKENS) * (rng.random() < 0.7) + text[i + (i < j):]


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return "refused", str(exc), exc.position


def test_parsers_agree_with_the_old_ones():
    texts = list(_corpus())
    assert len(texts) > 26000
    parsed = 0
    for text in texts:
        for new, old in ((parse_forest, _old_parse_forest), (parse_word, _old_parse_word)):
            got = _outcome(new, text)
            assert got == _outcome(old, text), repr(text)
            parsed += not isinstance(got, tuple)
    assert parsed > 2000  # valid texts are well represented, not only refusals


# ---------------------------------------------------------------------------
# sharing through the table

def test_parses_share_subtrees_until_the_table_clears():
    clear_table()
    a = parse_forest("y3(y1, y2(y1)); y2")
    b = parse_tree("y4(y2(y1))")
    assert b.children[0] is a.trees[1].children[1]  # y2(y1), from two texts
    assert b.children[0].children[0] is a.trees[1].children[0]  # y1
    assert lincomb._table_cost == table_cost() == 5 * lincomb.TERM_COST  # y1, y2, y2(y1), y3(...), y4(...)
    clear_table()
    c = parse_forest("y3(y1,y2(y1));y2")
    assert c == a and c.trees[1] is not a.trees[1]
    assert parse_tree("y4(y2(y1))").children[0] is c.trees[1].children[1]
