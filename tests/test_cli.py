"""End-to-end CLI behaviour through main(argv): exact output strings and exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arborzeta
from arborzeta.arborify import arborify_y
from arborzeta.cli import _zeta_line, main
from arborzeta.forests import parse_forest, parse_tree, print_tree
from arborzeta.zeta import eval_mzv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_contracting_cherry(self, capsys):
        code, out, _ = run(capsys, "expand", "--contracting", "y3(y1,y2)")
        assert code == 0
        assert out == "1*y1.y2.y3 + 1*y2.y1.y3 + 1*y3.y3\n"

    def test_simple_distinct_branches(self, capsys):
        code, out, _ = run(capsys, "expand", "--simple", "x1(x0,x1(x0))")
        assert code == 0
        assert out == "2*x0.x0.x1.x1 + 1*x0.x1.x0.x1\n"

    def test_simple_equal_branches(self, capsys):
        code, out, _ = run(capsys, "expand", "--simple", "x1(x0,x0(x0))")
        assert code == 0
        assert out == "3*x0.x0.x0.x1\n"

    def test_empty_forest(self, capsys):
        for flavor in ("--simple", "--contracting"):
            code, out, _ = run(capsys, "expand", flavor, "e")
            assert code == 0
            assert out == "1*e\n"

    def test_alphabet_mismatch(self, capsys):
        code, _, err = run(capsys, "expand", "--simple", "y3(y1,y2)")
        assert code == 2
        assert err.startswith("error:")
        code, _, err = run(capsys, "expand", "--contracting", "x1(x0)")
        assert code == 2

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "expand", "--contracting", "y3(y1")
        assert code == 2
        assert err.startswith("error:")

    def test_flavor_required_and_exclusive(self, capsys):
        assert run(capsys, "expand", "y3(y1,y2)")[0] == 2
        assert run(capsys, "expand", "--simple", "--contracting", "e")[0] == 2


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
        expected = 2.0 * eval_mzv((3, 1), 1e-10) + eval_mzv((2, 2), 1e-10)
        assert abs(value - expected) < 1e-8

    def test_contracted_tree(self, capsys):
        code, out, _ = run(capsys, "zeta", "y2(y2,y2)")
        assert code == 0
        line, value, _ = _value_line(out)
        assert line == "1*zeta(4,2) + 2*zeta(2,2,2)"
        expected = eval_mzv((4, 2), 1e-10) + 2.0 * eval_mzv((2, 2, 2), 1e-10)
        assert abs(value - expected) < 1e-8

    def test_plain_word(self, capsys):
        code, out, _ = run(capsys, "zeta", "--word", "y2.y3")
        assert code == 0
        line, value, _ = _value_line(out)
        assert line == "1*zeta(2,3)"
        assert abs(value - eval_mzv((2, 3), 1e-10)) < 1e-8

    def test_x_word(self, capsys):
        code, out, _ = run(capsys, "zeta", "--word", "x0.x0.x1")
        assert code == 0
        line, value, _ = _value_line(out)
        assert line == "1*zeta(3)"
        assert abs(value - 1.2020569031595942) < 1e-8

    def test_custom_tolerance_echoed(self, capsys):
        code, out, _ = run(capsys, "zeta", "--word", "y2", "--tol", "1e-6")
        assert code == 0
        assert "(tol = 1e-06)" in out

    def test_non_finite_tolerance(self, capsys):
        code, _, err = run(capsys, "zeta", "--word", "y2", "--tol", "nan")
        assert code == 2
        assert err.startswith("error:")

    def test_refused_tolerance_prints_nothing(self, capsys):
        code, out, err = run(capsys, "zeta", "--word", "y2", "--tol", "1e-13")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_forest_tolerance_gate(self, capsys):
        for tol, message in [
            ("nan", "tolerance must be a finite number, got nan"),
            ("inf", "tolerance must be a finite number, got inf"),
            ("1e-13", "tolerance below supported precision (min 1e-12)"),
        ]:
            code, out, err = run(capsys, "zeta", "y2(y2)", "--tol", tol)
            assert code == 2
            assert out == ""
            assert err == f"error: {message}\n"
        # a boolean never reaches the evaluator: the option parser refuses it
        code, out, _ = run(capsys, "zeta", "y2(y2)", "--tol", "True")
        assert code == 2
        assert out == ""

    def test_named_tree_certified(self, capsys):
        text = "y2(y2(y2,y2),y2(y2,y2),y2(y2,y2))"
        code, out, _ = run(capsys, "zeta", text, "--tol", "1e-7")
        assert code == 0
        line, value, tol = _value_line(out)
        assert line == _zeta_line(arborify_y(parse_forest(text)), "y")
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
        code, _, err = run(capsys, "zeta", "--word", "y1.y2")
        assert code == 2
        assert "divergent" in err
        assert run(capsys, "zeta", "--word", "x1.x0")[0] == 2

    def test_argument_arity(self, capsys):
        assert run(capsys, "zeta")[0] == 2
        assert run(capsys, "zeta", "y2(y2)", "--word", "y2")[0] == 2


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

    def test_bmz_bounded(self, capsys):
        code, out, _ = run(capsys, "verify", "bmz", "--max-weight", "3")
        assert code == 0
        assert "checks passed" in out

    def test_unknown_suite(self, capsys):
        assert run(capsys, "verify", "nope")[0] == 2


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

    def test_cap(self, capsys):
        assert run(capsys, "enumerate", "9")[0] == 2
        assert run(capsys, "enumerate", "9", "--cap", "9")[0] == 0

    def test_bad_arguments(self, capsys):
        assert run(capsys, "enumerate", "0")[0] == 2
        assert run(capsys, "enumerate", "3", "--decorations", "0")[0] == 2


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
        assert err.startswith("error:")

    def test_bad_direction(self, capsys):
        assert run(capsys, "hoffman", "sideways", "y1")[0] == 2


class TestUsage:
    def test_no_verb(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_reused_parser_keeps_no_state(self, capsys, monkeypatch):
        # the parser is built once per process; every call must still print
        # what it prints as the first call of a fresh interpreter
        sequence = [
            ["zeta", "--tol", "abc"],
            ["zeta", "--word", "y2"],
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
