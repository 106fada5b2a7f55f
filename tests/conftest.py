"""Shared test helpers: the acceptance summary, the recount and clearing of
the package's table, and the check of the maps kept in it."""

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


def table_cost() -> int:
    """The cost of the package's table, recounted from its entries: a float of
    a per-cutoff tail dict (a k^-n list, a list of weights, or a tail's E, err,
    T and eps) costs 1, and a LinComb term or a (value, bound) pair TERM_COST."""
    cost = 0
    for (name, _), value in lincomb._TABLE.items():
        if name == "tails":
            cost += sum(len(v) if isinstance(v, list) else sum(map(len, v[:4])) for v in value.values())
        else:
            cost += lincomb.TERM_COST * (len(value) if isinstance(value, lincomb.LinComb) else 1)
    return cost


def clear_table() -> None:
    lincomb._TABLE.clear()
    lincomb._table_cost = 0


def check_each_way(fn, name, args, expected, later):
    """fn agrees with ``expected`` on every argument in ``args``, asked for three
    ways: with the table empty, again with it warm, and in reverse order once
    distinct arguments from ``later`` have cleared it."""
    clear_table()
    for a in args + args:
        assert fn(a) == expected[a], str(a)
    assert {arg for key, arg in lincomb._TABLE if key == name} == set(args)
    for a in later:
        before = lincomb._table_cost
        fn(a)
        if lincomb._table_cost < before:
            break
    else:
        raise AssertionError(f"no argument in later cleared the table for {name}")
    assert lincomb._table_cost == table_cost() <= lincomb._TABLE_BUDGET
    for a in reversed(args):
        assert fn(a) == expected[a], str(a)


@pytest.fixture
def each_way():
    return check_each_way
