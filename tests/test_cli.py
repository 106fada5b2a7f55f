"""End-to-end CLI behaviour through main(argv): exact output strings and exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import arborzeta
import arborzeta.arborify as arborify_mod
from arborzeta.arborify import arborify_x, arborify_y, ladder, letter_map
from arborzeta.cli import _zeta_line, main
from arborzeta.forests import enumerate_forests, parse_forest, parse_tree, print_tree
from arborzeta.lincomb import LinComb
from arborzeta.words import X0, X1, YLetter, encode, parse_word, quasi_shuffle, s_inverse, s_map, y_word
from arborzeta.zeta import compare_bmz, eval_comb_bounded, eval_mzv_bounded, eval_tree_bounded

from conftest import clear_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_contracting_cherry(self, capsys):
        code, out, _ = run(capsys, "expand", "y3(y1,y2)")
        assert code == 0
        assert out == "1*y1.y2.y3 + 1*y2.y1.y3 + 1*y3.y3\n"

    def test_simple_distinct_branches(self, capsys):
        code, out, _ = run(capsys, "expand", "x1(x0,x1(x0))")
        assert code == 0
        assert out == "2*x0.x0.x1.x1 + 1*x0.x1.x0.x1\n"

    def test_simple_equal_branches(self, capsys):
        code, out, _ = run(capsys, "expand", "x1(x0,x0(x0))")
        assert code == 0
        assert out == "3*x0.x0.x0.x1\n"

    def test_empty_forest(self, capsys):
        code, out, _ = run(capsys, "expand", "e")
        assert (code, out) == (0, "1*e\n")

    def test_decorations_choose_the_flavor(self, capsys):
        # every forest of at most 4 vertices over {y1, y2} or {x0, x1} prints its own alphabet's expansion
        for letters, arborify in (((YLetter(1), YLetter(2)), arborify_y), ((X0, X1), arborify_x)):
            for n in range(0, 5):
                for f in enumerate_forests(n, letters):
                    assert run(capsys, "expand", str(f)) == (0, f"{arborify(f)}\n", ""), str(f)

    def test_alphabet_mismatch(self, capsys):
        # no option can disagree with the letters, and a forest of both alphabets does not parse
        code, out, err = run(capsys, "expand", "y3(y1,x0)")
        assert (code, out) == (2, "")
        assert err == "error: forest mixes the x and y alphabets (at position 0)\n"

    def test_wrong_alphabet_names_the_root(self, capsys):
        # the first root names the alphabet: y2(y3) expands as a y-forest, not refused as an x-forest
        code, out, err = run(capsys, "expand", "y2(y3)")
        assert (code, out, err) == (0, "1*y3.y2\n", "")

    @pytest.mark.parametrize("top, leaf", [("y2", "y2"), ("x1", "x0")])
    def test_deep_chain(self, capsys, top, leaf):
        code, out, _ = run(capsys, "expand", f"{top}(" * 4999 + leaf + ")" * 4999)
        assert code == 0
        assert out == "1*" + ".".join([leaf] + [top] * 4999) + "\n"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "expand", "y3(y1")
        assert code == 2
        assert err.startswith("error:")

    def test_flavor_flags_are_gone(self, capsys):
        # the decorations choose the flavor, so the verb has no flavor option
        for flag in ("--contracting", "--simple"):
            code, out, err = run(capsys, "expand", flag, "y3(y1,y2)")
            assert (code, out) == (2, "")
            assert err.endswith(f"error: unrecognized arguments: {flag}\n")


def _value_line(out):
    lines = out.strip().splitlines()
    assert len(lines) == 2
    m = re.fullmatch(r"value = (-?[\d.e+-]+) \(tol = ([\d.e+-]+)\)", lines[1])
    assert m, lines[1]
    return lines[0], float(m.group(1)), float(m.group(2))


class TestZeta:
    def test_simple_tree(self, capsys):
        code, out, _ = run(capsys, "zeta", "x1(x0,x1(x0))")
        assert code == 0
        line, value, tol = _value_line(out)
        assert line == "2*zeta(3,1) + 1*zeta(2,2)"
        assert tol == 1e-9
        expected = 2.0 * eval_mzv_bounded((3, 1), 1e-10)[0] + eval_mzv_bounded((2, 2), 1e-10)[0]
        assert abs(value - expected) < 1e-8

    def test_contracted_tree(self, capsys):
        code, out, _ = run(capsys, "zeta", "y2(y2,y2)")
        assert code == 0
        line, value, _ = _value_line(out)
        assert line == "1*zeta(4,2) + 2*zeta(2,2,2)"
        expected = eval_mzv_bounded((4, 2), 1e-10)[0] + 2.0 * eval_mzv_bounded((2, 2, 2), 1e-10)[0]
        assert abs(value - expected) < 1e-8

    def test_deep_chain(self, capsys):
        # y1(...(y2)...) sums to zeta(2,1,...,1) = zeta(5001)
        code, out, _ = run(capsys, "zeta", "y1(" * 4999 + "y2" + ")" * 4999)
        assert code == 0
        line, value, _ = _value_line(out)
        assert line == f"1*zeta(2{',1' * 4999})" and value == 1.0

    @pytest.mark.parametrize("index", ["1000000", "100000000", "99999999999999999999"])
    def test_huge_decoration(self, capsys, index):
        code, out, _ = run(capsys, "zeta", f"y{index}")
        assert (code, out) == (0, f"1*zeta({index})\nvalue = 1 (tol = 1e-09)\n")

    def test_huge_decoration_in_a_product(self, capsys):
        # the merged letter's index is past every character code; rows in x-word order
        code, out, _ = run(capsys, "zeta", "y99999999999999999999;y2")
        assert code == 0
        line, value, _ = _value_line(out)
        assert line == ("1*zeta(100000000000000000001) + 1*zeta(99999999999999999999,2)"
                        " + 1*zeta(2,99999999999999999999)")
        assert abs(value - 1.6449340668482264) < 1e-8

    def test_plain_word(self, capsys):
        code, out, _ = run(capsys, "zeta", "y2.y3")
        assert code == 0
        line, value, _ = _value_line(out)
        assert line == "1*zeta(2,3)"
        assert abs(value - eval_mzv_bounded((2, 3), 1e-10)[0]) < 1e-8

    def test_x_word(self, capsys):
        code, out, _ = run(capsys, "zeta", "x0.x0.x1")
        assert code == 0
        line, value, _ = _value_line(out)
        assert line == "1*zeta(3)"
        assert abs(value - 1.2020569031595942) < 1e-8

    def test_custom_tolerance_echoed(self, capsys):
        code, out, _ = run(capsys, "zeta", "y2", "--tol", "1e-6")
        assert code == 0
        assert "(tol = 1e-06)" in out

    def test_non_finite_tolerance(self, capsys):
        code, _, err = run(capsys, "zeta", "y2", "--tol", "nan")
        assert code == 2
        assert err.startswith("error:")

    def test_refused_tolerance_prints_nothing(self, capsys):
        # no floor: the kernel's best bound for zeta(2) decides, and the line is not printed
        code, out, err = run(capsys, "zeta", "y2", "--tol", "1e-15")
        assert (code, out) == (2, "")
        assert err == "error: cannot certify the forest y2 to 1e-15: best bound 6.46521e-14\n"

    def test_forest_tolerance_gate(self, capsys):
        for tol, message in [
            ("nan", "tolerance must be a finite number, got nan"),
            ("inf", "tolerance must be a finite number, got inf"),
            ("-inf", "tolerance must be a finite number, got -inf"),
            ("0", "tolerance must be positive, got 0"),
            ("-1", "tolerance must be positive, got -1"),
            ("-1e-9", "tolerance must be positive, got -1e-09"),
        ]:
            code, out, err = run(capsys, "zeta", "y2(y2)", f"--tol={tol}")
            assert code == 2
            assert out == ""
            assert err == f"error: {message}\n"
        # past the gate the bound decides: 1e-13 is certified, 1e-15 refused by the best bound
        code, out, _ = run(capsys, "zeta", "y2(y2)", "--tol", "1e-13")
        assert (code, out) == (0, "1*zeta(2,2)\nvalue = 0.811742425283 (tol = 1e-13)\n")
        code, out, err = run(capsys, "zeta", "y2(y2)", "--tol", "1e-15")
        assert (code, out, err) == (2, "", "error: cannot certify the forest y2(y2) to 1e-15: best bound 7.13817e-14\n")
        # the x-forest's expansion has coefficient mass 3: the caller's tol is
        # named, not the tol/3 each word would get; so is a word's and a suite's
        for argv in (("zeta", "x1(x0,x1(x0))"), ("zeta", "y2"), ("verify", "all")):
            code, out, err = run(capsys, *argv, "--tol", "-1")
            assert (code, out, err) == (2, "", "error: tolerance must be positive, got -1\n")
        # a boolean or a non-number never reaches the evaluator: the option parser refuses it
        for tol in ("True", "abc"):
            code, out, _ = run(capsys, "zeta", "y2(y2)", "--tol", tol)
            assert (code, out) == (2, "")

    def test_sum_refused_by_its_bound(self, capsys):
        # each of the expansion's 5 ladders is certified to 1e-12, and the sum's bound misses it;
        # the refusal names the forest, as a y-forest's does
        code, out, err = run(capsys, "zeta", "x1(x0,x0,x0,x0,x1(x0))", "--tol", "1e-12")
        assert (code, out) == (2, "")
        assert err == "error: cannot certify the forest x1(x0,x0,x0,x0,x1(x0)) to 1e-12: best bound 2.99402e-12\n"
        code, out, err = run(capsys, "zeta", "x1(x0,x1(x0))", "--tol", "1e-13")
        assert (code, out, err) == (2, "", "error: cannot certify the forest x1(x0,x1(x0)) to 1e-13: best bound 1.13742e-13\n")

    def test_ladder_certified_below_1e_12(self, capsys):
        # no floor on tol: the depth-10 y2-ladder, pi^20/21!, as the CI step reads it
        code, out, _ = run(capsys, "zeta", ".".join(["y2"] * 10), "--tol", "1e-20")
        assert (code, out.splitlines()[1]) == (0, "value = 1.71653847498e-10 (tol = 1e-20)")

    @pytest.mark.parametrize("argv", [
        ("zeta", "y2"), ("zeta", "y2.y3"), ("zeta", "x1(x0,x1(x0))"), ("verify", "all"),
    ], ids=["y2", "y2.y3", "x-forest", "verify-all"])
    @pytest.mark.parametrize("tol", ["5e-324", "1e-300"])
    def test_tiny_tolerance_refused_not_run_long(self, argv, tol):
        # a tolerance no bound reaches ends at once with the best bound, in a fresh process
        src = str(Path(arborzeta.__file__).parent.parent)
        script = "import sys; sys.path.insert(0, sys.argv[1]); from arborzeta.cli import main; sys.exit(main(sys.argv[2:]))"
        proc = subprocess.run([sys.executable, "-S", "-c", script, src, *argv, "--tol", tol],
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert re.fullmatch(r"error: cannot certify the forest \S+ to \S+: best bound \S+\n", proc.stderr), proc.stderr

    def test_x_forest_certified_at_the_floor(self, capsys):
        # the expansion's mass 3 no longer splits 1e-12 below what a word may be asked for
        code, out, _ = run(capsys, "zeta", "x1(x0,x1(x0))", "--tol", "1e-12")
        assert code == 0
        assert out == "2*zeta(3,1) + 1*zeta(2,2)\nvalue = 1.35290404214 (tol = 1e-12)\n"

    @pytest.mark.parametrize("text, printed", [
        ("x1(x1(x0,x0),x1(x0,x0),x1(x0,x0))", "0.617178600647"),
        ("x1(x1(x1(x0,x0),x1(x0,x0)),x1(x1(x0,x0),x1(x0,x0)))", "0.0130232209467"),
    ], ids=["10-vertices", "15-vertices"])
    def test_large_x_trees_certified(self, capsys, text, printed):
        # expansion masses 13,440 and 21,964,800: each ladder is certified, then the sum
        code, out, _ = run(capsys, "zeta", text)
        assert code == 0
        assert out.splitlines()[1] == f"value = {printed} (tol = 1e-09)"

    @pytest.mark.parametrize("k", [95, 100])
    def test_deep_x_words_print_one(self, capsys, k):
        # zeta(2,{1}^(k-1)) = zeta(k+1) by duality, which is 1 to double precision
        word = ".".join(["x0"] + ["x1"] * k)
        clear_table()
        start = time.perf_counter()
        code, out, _ = run(capsys, "zeta", word)
        elapsed = time.perf_counter() - start
        assert (code, out.splitlines()[1]) == (0, "value = 1 (tol = 1e-09)")
        value, bound = eval_tree_bounded(ladder(parse_word(word)), 1e-9)
        assert abs(value - 1.0) <= bound <= 1e-9
        assert elapsed < 1.0

    def test_verb_reaches_only_the_tree_kernel(self, capsys, monkeypatch):
        import arborzeta.zeta as zeta_mod

        def refuse(*args):
            raise AssertionError("the word route was reached")

        monkeypatch.setattr(zeta_mod, "_mzv_em", refuse)
        clear_table()  # a word value kept in the table would hide a call
        for argv in (("y2(y3,y2)",), ("x1(x0,x1(x0))",), ("y2.y1.y3",), ("x0.x1.x0.x0.x1",)):
            code, out, _ = run(capsys, "zeta", *argv)
            assert code == 0 and _value_line(out)[1] > 0, argv

    def test_named_tree_certified(self, capsys):
        text = "y2(y2(y2,y2),y2(y2,y2),y2(y2,y2))"
        code, out, _ = run(capsys, "zeta", text, "--tol", "1e-7")
        assert code == 0
        line, value, tol = _value_line(out)
        assert line == _zeta_line(letter_map(parse_forest(text), "y"))
        terms = line.split(" + ")
        assert len(terms) == 212
        assert sum(int(term.split("*")[0]) for term in terms) == 184683
        assert tol == 1e-7
        assert 0.0 < value < 1.6449340668482264 ** 10

    def test_uncertifiable_tolerance(self, capsys):
        code, out, err = run(capsys, "zeta", ";".join(["y2"] * 30), "--tol", "1e-12")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot certify")

    def test_divergent_forest(self, capsys):
        code, _, err = run(capsys, "zeta", "y3(y1,y2)")
        assert code == 2
        assert "y1" in err and "divergent" in err

    def test_divergent_words(self, capsys):
        code, _, err = run(capsys, "zeta", "y1.y2")
        assert code == 2
        assert "divergent" in err
        assert run(capsys, "zeta", "x1.x0")[0] == 2

    def test_deep_words_are_ladders(self, capsys):
        # zeta(2,{1}^n) = zeta(n+2) by duality, which is 1 to double precision for these n
        code, out, _ = run(capsys, "zeta", ".".join(["y2"] + ["y1"] * 94), "--tol", "1e-9")
        assert code == 0 and abs(_value_line(out)[1] - 1.0) <= 1e-9
        assert run(capsys, "zeta", ".".join(["y2"] + ["y1"] * 149))[0] == 0

    def test_long_word_prints_one(self, capsys):
        # zeta(2,{1}^149) = zeta(151), which is 1 to double precision
        code, out, _ = run(capsys, "zeta", ".".join(["y2"] + ["y1"] * 149))
        assert (code, out.splitlines()[1]) == (0, "value = 1 (tol = 1e-09)")

    def test_near_equal_deep_siblings_refused(self, capsys):
        # sorting the two chains compares their nested keys down to the leaves
        chain = "y1(" * 500 + "{}" + ")" * 500
        code, out, err = run(capsys, "zeta", f"y3({chain.format('y2')},{chain.format('y3')})")
        assert (code, out) == (2, "")
        assert err == "error: input nested too deeply\n"

    def test_deep_word_refused_honestly(self, capsys):
        # zeta(2,{1}^13) = zeta(15): the tree bound misses 1e-12, and 1e-11 is certified
        word = ".".join(["y2"] + ["y1"] * 13)
        code, out, err = run(capsys, "zeta", word, "--tol", "1e-12")
        assert (code, out) == (2, "")
        assert err == f"error: cannot certify the forest {'y1(' * 13}y2{')' * 13} to 1e-12: best bound 1.07331e-12\n"
        code, out, _ = run(capsys, "zeta", word, "--tol", "1e-11")
        assert code == 0 and abs(_value_line(out)[1] - 1.000030588236307) <= 1e-11 + 1e-12

    def test_long_refusal_names_a_prefix(self, capsys):
        # a forest whose text is long is named by a prefix and its vertex count
        code, out, err = run(capsys, "zeta", "y2." + ".".join(["y1"] * 999), "--tol", "1e-12")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot certify the forest y1(") and len(err.encode()) < 300
        assert "... (1000 vertices) to 1e-12: best bound " in err

    @pytest.mark.parametrize("argv", [("x0." + ".".join(["x1"] * 14),), ("x1(" * 14 + "x0" + ")" * 14,)],
                             ids=["word", "forest"])
    def test_x_refusal_names_the_x_input(self, capsys, argv):
        # zeta(2,{1}^13) in x-letters is summed as a y-ladder, and refused naming its own x-ladder
        code, out, err = run(capsys, "zeta", *argv, "--tol", "1e-12")
        assert (code, out) == (2, "")
        assert err == f"error: cannot certify the forest {'x1(' * 14}x0{')' * 14} to 1e-12: best bound 1.07331e-12\n"
        assert "y1(" not in err

    def test_long_x_refusal_names_a_prefix(self, capsys):
        # a long x-word is named by a prefix of its x-ladder and its vertex count
        code, out, err = run(capsys, "zeta", "x0." + ".".join(["x1"] * 999), "--tol", "1e-12")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot certify the forest {'x1(' * 40}...") and "y1(" not in err
        assert "... (1000 vertices) to 1e-12: best bound " in err

    def test_argument_arity(self, capsys):
        assert run(capsys, "zeta")[0] == 2
        assert run(capsys, "zeta", "--word", "y2.y3")[0] == 2  # the text decides; no option does

    def test_x_forest_expanded_once(self, capsys, monkeypatch):
        # the expansion itself is counted: the value's arborify_x puts it in the
        # table, and the line's second call only looks it up
        calls, expand = [], arborify_mod.letter_map
        # the verb imports letter_map from arborify when it runs, so this is every binding it could reach
        monkeypatch.setattr(arborify_mod, "letter_map", lambda f, a: calls.append(f) or expand(f, a))
        clear_table()
        code, out, _ = run(capsys, "zeta", "x1(x0,x1(x0))")
        assert code == 0 and len(calls) == 1
        assert out.splitlines()[0] == "2*zeta(3,1) + 1*zeta(2,2)"
        # a divergent x-forest is refused before it is expanded
        code, _, err = run(capsys, "zeta", "x0(x0)")
        assert code == 2 and len(calls) == 1
        assert err == "error: root decorated x0 makes the value divergent (root must be x1)\n"


def _codes(comb):
    return {encode(w): c for w, c in comb.items()}


def _zeta_line_by_strings(comb, alphabet):
    """The expansion line sorted by the serialization of each term's x-word."""
    rows = sorted(comb.items(), key=lambda t: str(s_map(t[0]) if alphabet == "y" else t[0]))
    words = [w if alphabet == "y" else s_inverse(w) for w, _ in rows]
    return " + ".join(f"{c}*zeta({','.join(str(l.index) for l in w.letters)})" for w, (_, c) in zip(words, rows))


def _zeta_line_by_tuples(comb):
    """The expansion line of a y-combination sorted by the tuples of negated indices,
    the order of the x-words for indices too large to spell out an x-word."""
    rows = sorted(comb.items(), key=lambda t: tuple(-l.index for l in t[0].letters))
    return " + ".join(f"{c}*zeta({','.join(str(l.index) for l in w.letters)})" for w, c in rows)


def _y_combs(indices):
    return st.dictionaries(
        st.lists(indices, max_size=5).map(lambda ix: y_word(*ix)),
        st.integers(-50, 50).filter(bool) | st.fractions(-5, 5).filter(lambda c: c.denominator > 1),
        max_size=12,
    ).map(LinComb)


class TestZetaLineOrder:
    @given(_y_combs(st.integers(1, 12)))
    @settings(max_examples=150, deadline=None)
    def test_matches_x_word_string_order(self, comb):
        assert _zeta_line(_codes(comb)) == _zeta_line_by_strings(comb, "y")
        x_comb = comb.map_basis(s_map)
        assert _zeta_line({encode(s_inverse(w)): c for w, c in x_comb.items()}) == _zeta_line_by_strings(x_comb, "x")

    @given(_y_combs(st.integers(1, 12) | st.integers(0x10FFFE, 0x110002) | st.integers(1 << 64, 1 << 70)))
    @settings(max_examples=150, deadline=None)
    def test_huge_indices_match_negated_index_order(self, comb):
        # an index at or past 0x110000 is no character code, yet its letter has one
        assert _zeta_line(_codes(comb)) == _zeta_line_by_tuples(comb)


@st.composite
def forest_texts(draw, alphabet):
    """A convergent forest of at most 6 vertices: y1-y4 with leaves from y2,
    or x-trees of at least two vertices, rooted at x1 with x0 leaves."""
    n = draw(st.integers(2 if alphabet == "x" else 0, 6))
    parents = [draw(st.integers(-1, i - 1)) for i in range(n)]  # -1: a root
    kids = [[j for j in range(n) if parents[j] == i] for i in range(n)]
    if alphabet == "x":
        assume(all(kids[i] for i in range(n) if parents[i] < 0))

    def text(i):
        if alphabet == "y":
            label = f"y{draw(st.integers(1 if kids[i] else 2, 4))}"
        else:
            label = "x0" if not kids[i] else "x1" if parents[i] < 0 else draw(st.sampled_from(["x0", "x1"]))
        return label + (f"({','.join(map(text, kids[i]))})" if kids[i] else "")

    return ";".join(text(i) for i in range(n) if parents[i] < 0) or "e"


def _zeta_out(*argv):
    """(exit code, stdout, stderr) of the zeta verb; Hypothesis tests take no capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["zeta", *argv])
    return code, out.getvalue(), err.getvalue()


class TestZetaLineOfForests:
    """The verb prints the expansion of arborify_y/x, in the order of the x-words."""

    @given(forest_texts("y"))
    @settings(max_examples=60, deadline=None)
    def test_y_forests(self, text):
        code, out, _ = _zeta_out(text)
        assert code == 0
        assert out.splitlines()[0] == _zeta_line_by_strings(arborify_y(parse_forest(text)), "y")

    @given(forest_texts("x"))
    @settings(max_examples=25, deadline=None)
    def test_x_forests(self, text):
        code, out, _ = _zeta_out(text)
        assert code == 0
        assert out.splitlines()[0] == _zeta_line_by_strings(arborify_x(parse_forest(text)), "x")


word_texts = st.one_of(
    st.lists(st.sampled_from(["y1", "y2", "y3", "y4"]), max_size=8),
    st.lists(st.sampled_from(["x0", "x1"]), max_size=10),
).map(lambda letters: ".".join(letters) or "e")


class TestZetaWordIsItsLadder:
    @given(word_texts, st.sampled_from(["1e-9", "1e-12"]))
    @settings(max_examples=60, deadline=None)
    def test_same_output_as_the_ladder(self, text, tol):
        w = parse_word(text)
        forest = print_tree(ladder(w)) if w.letters else "e"
        assert _zeta_out(text, "--tol", tol) == _zeta_out(forest, "--tol", tol)

    @pytest.mark.parametrize("text, tol, code, out, err", [
        ("y2.y3", "1e-9", 0, "1*zeta(2,3)\nvalue = 0.711566197551 (tol = 1e-09)\n", ""),
        (".".join(["y2"] + ["y1"] * 94), "1e-9", 0, f"1*zeta(2{',1' * 94})\nvalue = 1 (tol = 1e-09)\n", ""),
        (".".join(["x0"] + ["x1"] * 95), "1e-9", 0, f"1*zeta(2{',1' * 94})\nvalue = 1 (tol = 1e-09)\n", ""),
        ("e", "1e-9", 0, "1*zeta()\nvalue = 1 (tol = 1e-09)\n", ""),
        ("y2", "1e-9", 0, "1*zeta(2)\nvalue = 1.64493406685 (tol = 1e-09)\n", ""),
        (".".join(["y2"] + ["y1"] * 13), "1e-12", 2, "",
         f"error: cannot certify the forest {'y1(' * 13}y2{')' * 13} to 1e-12: best bound 1.07331e-12\n"),
        (".".join(["x0"] + ["x1"] * 14), "1e-12", 2, "",
         f"error: cannot certify the forest {'x1(' * 14}x0{')' * 14} to 1e-12: best bound 1.07331e-12\n"),
    ], ids=["y2.y3", "y-zeta(2,1^94)", "x-zeta(2,1^94)", "e", "y2", "y-refused", "x-refused"])
    def test_prints_what_the_word_option_printed(self, text, tol, code, out, err):
        # each output was recorded from `zeta --word TEXT` before the text alone decided
        assert _zeta_out(text, "--tol", tol) == (code, out, err)


class TestVerify:
    def test_relations_text(self, capsys):
        code, out, _ = run(capsys, "verify", "relations")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "4/4 checks passed"
        assert all(l.startswith("PASS") for l in lines[:-1])

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "verify", "relations", "--format", "tsv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name\tlhs\trhs\tresidual\ttolerance\tstatus"
        assert len(lines) == 5
        assert all(l.split("\t")[-1] == "pass" for l in lines[1:])

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "relations", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        assert all(r["passed"] for r in rows)
        assert {"name", "lhs", "rhs", "residual", "tolerance", "passed"} <= set(rows[0])

    def test_relations_tolerances_are_derived(self, capsys):
        # each tolerance is the sum of the two sides' certified bounds, far below tol
        code, out, _ = run(capsys, "verify", "relations", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        # a product of zeta values is the tree kernel's value of the forest of its factors
        z3 = eval_mzv_bounded((3,), 1e-9)
        z2z3, z2z2 = (eval_tree_bounded(parse_forest(text), 1e-9) for text in ("y2;y3", "y2;y2"))
        assert rows[2]["tolerance"] == eval_mzv_bounded((2, 1), 1e-9)[1] + z3[1]
        assert rows[0]["tolerance"] == eval_comb_bounded(quasi_shuffle(y_word(2), y_word(3)), 1e-9)[1] + z2z3[1]
        assert (rows[0]["rhs"], rows[1]["rhs"]) == (z2z3[0], z2z3[0])
        # 2 zeta(2)^2 doubles the forest y2;y2 exactly, and 5 zeta(4) is a one-word combination
        assert rows[3]["lhs"] == 2.0 * z2z2[0]
        assert rows[3]["tolerance"] == 2.0 * z2z2[1] + eval_comb_bounded(LinComb.unit(y_word(4), 5), 1e-9)[1]
        for r in rows:
            assert r["passed"] and r["residual"] <= r["tolerance"] < 1e-11, r

    def test_bmz_bounded(self, capsys):
        code, out, _ = run(capsys, "verify", "bmz", "--max-weight", "3")
        assert code == 0
        assert "checks passed" in out

    def test_derived_tolerance_named(self, capsys):
        # a tolerance the gate accepts, refused with the derived tolerance or bound it led to
        for argv, message in [
            # no floor: the first evaluation whose bound misses tol names it
            (("all", "--tol", "1e-13"), "cannot certify the forest y2;y3 to 1e-13: best bound 1.47359e-13"),
            (("bmz", "--tol", "1e-13"), "cannot certify the sum of 1 words to 1e-13: its bound is 1.00183e-13"),
            # past weight 4 the word route decides: 6*y2.y1.y1.y1, a shuffle coefficient of y1.y1.y2.y1
            (("bmz", "--tol", "1e-12", "--max-weight", "7"),
             "cannot certify the sum of 1 words to 1e-12: its bound is 1.2014e-12"),
            # the sum's own bound decides: each of its 4 words is certified to 1e-12
            (("oracle", "--tol", "1e-12"), "cannot certify the sum of 4 words to 1e-12: its bound is 2.60016e-12"),
        ]:
            code, out, err = run(capsys, "verify", *argv)
            assert code == 2
            assert out == ""
            assert err == f"error: {message}\n"

    def test_bmz_certified_at_1e_12(self, capsys):
        # every row's tolerance is the sum of both sides' certified bounds, far below tol
        from arborzeta.verify import _y_words_up_to_weight

        code, out, _ = run(capsys, "verify", "bmz", "--tol", "1e-12")
        assert (code, out.splitlines()[-1]) == (0, "16/16 checks passed")
        code, out, _ = run(capsys, "verify", "bmz", "--tol", "1e-12", "--format", "json")
        rows = json.loads(out)
        for r, w in zip(rows, _y_words_up_to_weight(4)):
            _, _, residual, tolerance = compare_bmz(w, 1e-12)
            assert (r["name"], r["residual"], r["tolerance"]) == (f"bmz:{w}", residual, tolerance)
            assert r["passed"] and r["residual"] <= r["tolerance"] < 1e-12, r

    def test_all_certified_at_1e_11(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--tol", "1e-11")
        assert (code, out.splitlines()[-1]) == (0, "120/120 checks passed")

    def test_hopf_refuses_a_tolerance_as_every_suite_does(self, capsys):
        # the exact suite reads no tolerance, but a bad one is refused, not passed through
        for tol, message in [("-1", "tolerance must be positive, got -1"),
                             ("0", "tolerance must be positive, got 0"),
                             ("-1e-9", "tolerance must be positive, got -1e-09"),
                             ("nan", "tolerance must be a finite number, got nan"),
                             ("inf", "tolerance must be a finite number, got inf"),
                             ("-inf", "tolerance must be a finite number, got -inf")]:
            for suite in ("hopf", "all"):
                code, out, err = run(capsys, "verify", suite, f"--tol={tol}")
                assert (code, out, err) == (2, "", f"error: {message}\n"), (suite, tol)
        for tol in ("True", "abc"):  # the option parser refuses these
            code, out, _ = run(capsys, "verify", "all", "--tol", tol)
            assert (code, out) == (2, "")
        # a tiny positive tol passes the gate: hopf reads none, and all is refused by a bound
        code, out, _ = run(capsys, "verify", "hopf", "--tol", "1e-13")
        assert (code, out.splitlines()[-1]) == (0, "8/8 checks passed")
        code, out, err = run(capsys, "verify", "all", "--tol", "1e-13")
        assert (code, out, err) == (2, "", "error: cannot certify the forest y2;y3 to 1e-13: best bound 1.47359e-13\n")

    def test_negative_max_weight_refused(self, capsys):
        for suite in ("bmz", "all"):
            code, out, err = run(capsys, "verify", suite, "--max-weight", "-1")
            assert code == 2
            assert out == ""
            assert err == "error: max weight must be nonnegative, got -1\n"
        # a suite that reads no max weight refuses any
        for suite in ("relations", "hopf", "oracle"):
            for weight in ("-1", "3", "99"):
                code, out, err = run(capsys, "verify", suite, "--max-weight", weight)
                assert code == 2
                assert out == ""
                assert err == f"error: a max weight applies only to the bmz suite, not to {suite}\n"

    def test_routes_rows_use_both_certificates(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--format", "json")
        assert code == 0
        routes = [r for r in json.loads(out) if r["name"].startswith("routes:")]
        assert len(routes) == 72
        for r in routes:
            assert r["passed"] and r["residual"] <= r["tolerance"] <= 2e-9, r
            # the tolerance is the sum of the two routes' certificates
            f = parse_forest(r["name"].removeprefix("routes:"))
            assert r["tolerance"] == eval_tree_bounded(f, 1e-9)[1] + eval_comb_bounded(arborify_y(f), 1e-9)[1]

    def test_unknown_suite(self, capsys):
        assert run(capsys, "verify", "nope")[0] == 2


class TestImportCost:
    def test_cli_import_loads_no_heavy_modules(self):
        # dataclasses pulls in inspect, ast, dis and tokenize; json is needed only for --format json
        # fractions (with decimal and numbers) is loaded only where the exact layer divides
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import arborzeta.cli; "
                  "print(*(m for m in ('dataclasses', 'inspect', 'json', 'fractions', 'decimal', 'numbers') "
                  "if m in sys.modules))")
        src = str(Path(arborzeta.__file__).parent.parent)
        proc = subprocess.run([sys.executable, "-S", "-c", script, src], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")

    @pytest.mark.parametrize("argv, runs, skips", [
        (["zeta", "y2(y2,y2)"], {"zeta"}, {"verify", "hoffman"}),
        (["zeta", "x1(x0,x1(x0))"], {"zeta"}, {"verify", "hoffman"}),
        (["expand", "y3(y1,y2)"], {"arborify"}, {"zeta", "hoffman", "verify"}),
        (["enumerate", "4", "--decorations", "2"], {"forests"}, {"arborify", "zeta", "hoffman", "verify"}),
        (["hoffman", "log", "y1.y2.y3"], {"hoffman"}, {"arborify", "forests", "zeta", "verify"}),
    ], ids=["zeta-y", "zeta-x", "expand", "enumerate", "hoffman"])
    def test_verb_loads_only_its_layers(self, argv, runs, skips):
        # each handler imports the layers it runs, so no verb loads another's
        script = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); from arborzeta.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[2:])\n"
                  "print(code, *sorted(m[10:] for m in sys.modules if m.startswith('arborzeta.')))")
        src = str(Path(arborzeta.__file__).parent.parent)
        proc = subprocess.run([sys.executable, "-S", "-c", script, src, *argv], capture_output=True, text=True, timeout=60)
        code, *loaded = proc.stdout.split()
        assert (code, proc.stderr) == ("0", "")
        assert runs <= set(loaded) and skips.isdisjoint(loaded), loaded

    @pytest.mark.parametrize("argv, divides", [
        (["zeta", "y2(y2,y2)"], False),
        (["zeta", "x1(x0,x1(x0))"], False),
        (["expand", "y3(y1,y2)"], False),
        (["enumerate", "4", "--decorations", "2"], False),
        (["hoffman", "log", "y1.y2.y3"], True),
    ], ids=["zeta-y", "zeta-x", "expand", "enumerate", "hoffman"])
    def test_verb_loads_fractions_only_if_it_divides(self, argv, divides):
        # arborification, the products and the tree sums stay in ints; exp/log divide
        script = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); from arborzeta.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[2:])\n"
                  "print(code, *(m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules))")
        src = str(Path(arborzeta.__file__).parent.parent)
        proc = subprocess.run([sys.executable, "-S", "-c", script, src, *argv], capture_output=True, text=True, timeout=60)
        expected = "0 fractions decimal numbers" if divides else "0"
        assert (proc.stdout.strip(), proc.stderr) == (expected, "")


class TestEnumerate:
    def test_census_five(self, capsys):
        code, out, _ = run(capsys, "enumerate", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "9 trees"
        assert len(lines) == 10

    def test_singular(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1")
        assert code == 0
        assert out.splitlines()[0] == "1 tree"

    def test_two_decorations(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "--decorations", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "14 trees"
        assert len(lines) == 15

    def test_printed_trees_reparse(self, capsys):
        _, out, _ = run(capsys, "enumerate", "4", "--decorations", "2")
        for line in out.strip().splitlines()[1:]:
            assert print_tree(parse_tree(line)) == line

    def test_census_limit(self, capsys):
        # the count of trees, computed from the size and the decorations, decides; no size cap does
        code, out, _ = run(capsys, "enumerate", "12")
        lines = out.splitlines()
        assert (code, lines[0], len(lines)) == (0, "4766 trees", 4767)
        for argv, count in [(("8", "--decorations", "4"), "4027360"),
                            (("1000000000",), "at least 1721159"),  # A000081 at 18 vertices
                            (("1", "--decorations", "1000001"), "1000001")]:
            message = f"error: the census has {count} trees, more than 1000000\n"
            assert run(capsys, "enumerate", *argv) == (2, "", message)
        assert run(capsys, "enumerate", "--cap", "9", "9")[0] == 2  # no such option

    @pytest.mark.parametrize("argv, count", [
        (["1", "--decorations", "2000000"], "2000000"),
        (["8", "--decorations", "5"], "at least 2052450"),  # 23,176,650 trees of size 8; 2,052,450 of size 7
    ], ids=["letters", "trees"])
    def test_refused_before_any_letter_is_made(self, argv, count):
        # a fresh process, so the letter table holds only what importing the package made
        script = ("import contextlib, io, sys, time; sys.path.insert(0, sys.argv[1])\n"
                  "from arborzeta import cli, forests, words\n"
                  "before, start = len(words._BY_CODE), time.perf_counter()\n"
                  "with contextlib.redirect_stderr(io.StringIO()) as err: code = cli.main(['enumerate', *sys.argv[2:]])\n"
                  "print(code, time.perf_counter() - start, len(words._BY_CODE) - before, err.getvalue(), end='')")
        src = str(Path(arborzeta.__file__).parent.parent)
        proc = subprocess.run([sys.executable, "-S", "-c", script, src, *argv], capture_output=True, text=True, timeout=60)
        code, elapsed, made, message = proc.stdout.split(" ", 3)
        assert (code, made, proc.stderr) == ("2", "0", "")
        assert float(elapsed) < 1.0
        assert message == f"error: the census has {count} trees, more than 1000000\n"

    def test_bad_arguments(self, capsys):
        message = "error: the tree size and the number of decorations must be >= 1\n"
        assert run(capsys, "enumerate", "0") == (2, "", message)
        assert run(capsys, "enumerate", "3", "--decorations", "0") == (2, "", message)


class TestHoffman:
    def test_exp(self, capsys):
        code, out, _ = run(capsys, "hoffman", "exp", "y1.y2")
        assert code == 0
        assert out == "1*y1.y2 + 1/2*y3\n"

    def test_log(self, capsys):
        code, out, _ = run(capsys, "hoffman", "log", "y1.y2")
        assert code == 0
        assert out == "1*y1.y2 + -1/2*y3\n"

    def test_three_letters(self, capsys):
        code, out, _ = run(capsys, "hoffman", "exp", "y1.y2.y3")
        assert code == 0
        assert out == "1*y1.y2.y3 + 1/2*y1.y5 + 1/2*y3.y3 + 1/6*y6\n"

    def test_x_word_rejected(self, capsys):
        code, _, err = run(capsys, "hoffman", "exp", "x0.x1")
        assert code == 2
        assert err == "error: the exp/log isomorphism acts on summation (y) words, got x0.x1\n"

    def test_bad_direction(self, capsys):
        assert run(capsys, "hoffman", "sideways", "y1")[0] == 2


HELP = {
    (): """usage: arborzeta [-h] {expand,zeta,verify,enumerate,hoffman} ...

Exact arborified zeta values: expand, evaluate, verify.

positional arguments:
  {expand,zeta,verify,enumerate,hoffman}
    expand              arborify a decorated forest into words
    zeta                exact zeta expansion and certified value
    verify              run an identity suite and report rows
    enumerate           list canonical decorated trees of a size
    hoffman             exp/log isomorphism on one summation word

options:
  -h, --help            show this help message and exit
""",
    ("expand",): """usage: arborzeta expand [-h] forest

positional arguments:
  forest      forest text, e.g. "y3(y1,y2)" or "e"

options:
  -h, --help  show this help message and exit
""",
    ("zeta",): """usage: arborzeta zeta [-h] [--tol TOL] text

positional arguments:
  text        forest "y3(y1,y2)" or word "y2.y3" (as its ladder)

options:
  -h, --help  show this help message and exit
  --tol TOL   certified absolute tolerance
""",
    ("verify",): """usage: arborzeta verify [-h] [--tol TOL] [--max-weight MAX_WEIGHT]
                        [--format {text,tsv,json}]
                        {relations,bmz,hopf,oracle,all}

positional arguments:
  {relations,bmz,hopf,oracle,all}

options:
  -h, --help            show this help message and exit
  --tol TOL
  --max-weight MAX_WEIGHT
  --format {text,tsv,json}
""",
    ("enumerate",): """usage: arborzeta enumerate [-h] [--decorations DECORATIONS] n

positional arguments:
  n                     number of vertices (refused past 1000000 trees)

options:
  -h, --help            show this help message and exit
  --decorations DECORATIONS
                        number of y-decorations (default 1)
""",
    ("hoffman",): """usage: arborzeta hoffman [-h] {exp,log} word

positional arguments:
  {exp,log}
  word

options:
  -h, --help  show this help message and exit
""",
}
TOP_USAGE = "usage: arborzeta [-h] {expand,zeta,verify,enumerate,hoffman} ...\n"


class TestParserParity:
    """The top-level parser and the parsers of the verbs print what one
    parser with a subparser per verb printed, byte for byte."""

    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width

    @pytest.mark.parametrize("verb", list(HELP), ids=lambda v: " ".join(v) or "top")
    def test_help(self, capsys, verb):
        assert run(capsys, *verb, "--help") == (0, HELP[verb], "")

    def test_short_help(self, capsys):
        assert run(capsys, "-h") == (0, HELP[()], "")

    @pytest.mark.parametrize("argv, err", [
        ([], "arborzeta: error: the following arguments are required: verb\n"),
        (["frobnicate"], "arborzeta: error: argument verb: invalid choice: 'frobnicate' "
                         "(choose from 'expand', 'zeta', 'verify', 'enumerate', 'hoffman')\n"),
        (["zeta", "y2", "y3"], "arborzeta: error: unrecognized arguments: y3\n"),
        (["hoffman", "exp", "y1", "y2", "--bogus"], "arborzeta: error: unrecognized arguments: y2 --bogus\n"),
    ], ids=["no-verb", "unknown-verb", "extra-positional", "extra-arguments"])
    def test_top_level_usage_errors(self, capsys, argv, err):
        assert run(capsys, *argv) == (2, "", TOP_USAGE + err)

    @pytest.mark.parametrize("argv, err", [
        (["verify", "nosuch"], "arborzeta verify: error: argument suite: invalid choice: 'nosuch' "
                               "(choose from 'relations', 'bmz', 'hopf', 'oracle', 'all')\n"),
        (["zeta", "y2", "--tol", "abc"], "arborzeta zeta: error: argument --tol: invalid float value: 'abc'\n"),
        (["enumerate", "3", "--decorations", "x"],
         "arborzeta enumerate: error: argument --decorations: invalid int value: 'x'\n"),
    ], ids=["unknown-suite", "bad-tol", "bad-int"])
    def test_verb_usage_errors(self, capsys, argv, err):
        code, out, got = run(capsys, *argv)
        usage = HELP[(argv[0],)].split("\n\n")[0] + "\n"
        assert (code, out, got) == (2, "", usage + err)


class TestUsage:
    def test_no_verb(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_reused_parser_keeps_no_state(self, capsys, monkeypatch):
        # each parser is built once per process; every call must still print
        # what it prints as the first call of a fresh interpreter
        sequence = [
            ["zeta", "--tol", "abc"],
            ["zeta", "y2.y3"],
            ["zeta", "y2(y2)"],
            [],
            ["enumerate", "3"],
        ]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
        env = dict(os.environ, PYTHONPATH=str(Path(arborzeta.__file__).parent.parent))
        script = "import sys; from arborzeta.cli import main; sys.exit(main(sys.argv[1:]))"
        for argv in sequence:
            fresh = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                                   capture_output=True, text=True, timeout=60)
            assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert fresh.stdout.startswith("2 trees\n")

    @pytest.mark.parametrize(
        "argv",
        [["zeta", "y1(" * 599 + "y2" + ")" * 599], ["expand", "y2(" * 1199 + "y2" + ")" * 1199]],
        ids=["zeta-600-deep", "expand-1200-deep"],
    )
    def test_deep_nesting_gives_no_traceback(self, argv):
        # exit 1 means a failed verification, so deep input either works or is refused
        env = dict(os.environ, PYTHONPATH=str(Path(arborzeta.__file__).parent.parent))
        script = "import sys; from arborzeta.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0 or (
            proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("error: ")
        ), (proc.returncode, proc.stderr[-500:])
