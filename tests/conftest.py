"""Shared test helpers: the acceptance summary, and the check of the maps
kept in the table of basis map images."""

import pytest

from arborzeta import lincomb


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for line in RESULTS:
        terminalreporter.write_line("  " + line)


def check_each_way(fn, name, args, expected, later):
    """fn agrees with ``expected`` on every argument in ``args``, asked for three
    ways: with the table of basis map images empty, again with it warm, and in
    reverse order once distinct arguments from ``later`` have cleared it."""
    lincomb._TABLE.clear()
    lincomb._table_terms = 0
    for a in args + args:
        assert fn(a) == expected[a], str(a)
    assert {arg for key, arg in lincomb._TABLE if key == name} == set(args)
    for a in later:
        before = lincomb._table_terms
        fn(a)
        if lincomb._table_terms < before:
            break
    else:
        raise AssertionError(f"no argument in later cleared the table for {name}")
    assert lincomb._table_terms == sum(len(c) for c in lincomb._TABLE.values()) <= lincomb._TABLE_TERMS
    for a in reversed(args):
        assert fn(a) == expected[a], str(a)


@pytest.fixture
def each_way():
    return check_each_way
