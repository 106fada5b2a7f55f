"""The README's command-line examples match what the command prints.

Every ``$ arborzeta ...`` line of a ``text`` block in README.md runs through
``cli.main``, and its stdout must equal the lines below it, up to the next
blank line, byte for byte.  An example whose output elides rows with a
``...`` line is checked on its last line only.
"""

import re
import shlex
from pathlib import Path

import pytest

from arborzeta.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(argv, expected output lines) for each command of the README's text blocks."""
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", README.read_text(), re.M | re.S):
        for chunk in block.strip("\n").split("\n\n"):
            command, *output = chunk.split("\n")
            assert command.startswith("$ arborzeta "), chunk
            examples.append((shlex.split(command)[2:], output))
    return examples


EXAMPLES = _examples()


def test_every_verb_is_shown():
    assert {argv[0] for argv, _ in EXAMPLES} == {"expand", "zeta", "verify", "enumerate", "hoffman"}


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_example_output(argv, expected, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "..." in expected:
        assert out.splitlines()[-1] == expected[-1]
    else:
        assert out == "".join(line + "\n" for line in expected)
