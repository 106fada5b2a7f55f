"""The package's caches are bounded, so a long-lived process holds a fixed
amount of cached work however many distinct inputs it sees."""

import gc
import importlib
import pkgutil
import tracemalloc
from itertools import zip_longest

import arborzeta
from arborzeta import lincomb, words, zeta
from arborzeta.arborify import arborify_x, arborify_y
from arborzeta.cli import main
from arborzeta.forests import coproduct, enumerate_forests, enumerate_trees
from arborzeta.words import X0, X1, Word, YLetter, deconcat, quasi_shuffle, y_word
from conftest import clear_table, table_cost

# every module-level table that fills as the package works, and the name of its budget
BUDGETED = {"lincomb._TABLE": "_TABLE_BUDGET"}
# tables that never change after import; the letter intern table holds one
# entry per y-letter ever made, which interning needs, and is no cache
FIXED = {"arborify._FLAVORS", "verify.SUITES"}
INTERNED = {"words._Y_LETTERS"}


def _functools_caches():
    """(name, cached function) for every functools cache bound at the top
    level of an arborzeta module or of a class defined there."""
    found = []
    for info in pkgutil.iter_modules(arborzeta.__path__):
        mod = importlib.import_module(f"arborzeta.{info.name}")
        owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == mod.__name__]
        for owner in owners:
            for name, value in vars(owner).items():
                value = getattr(value, "__func__", value)  # classmethod and staticmethod
                if hasattr(value, "cache_parameters"):
                    found.append((f"{mod.__name__}.{name}", value))
    return found


def _module_tables() -> dict:
    """The dicts, lists and sets bound at the top level of arborzeta modules, as
    name -> object; an imported binding shares its object with the defining
    one, and the object goes by the name listed above."""
    bindings = {}  # id -> (object, every "module.name" bound to it)
    for info in pkgutil.iter_modules(arborzeta.__path__):
        for name, value in vars(importlib.import_module(f"arborzeta.{info.name}")).items():
            if isinstance(value, (dict, list, set)) and not name.startswith("__"):
                bindings.setdefault(id(value), (value, set()))[1].add(f"{info.name}.{name}")
    known = BUDGETED.keys() | FIXED | INTERNED
    return {min(names & known or names): value for value, names in bindings.values()}


def test_every_module_table_has_a_budget():
    assert list(BUDGETED) == ["lincomb._TABLE"]  # the one cache: no second budget comes back unnoticed
    tables = _module_tables()
    assert set(tables) == BUDGETED.keys() | FIXED | INTERNED
    for name, budget in BUDGETED.items():
        owner = importlib.import_module(f"arborzeta.{name.split('.')[0]}")
        assert type(getattr(owner, budget)) is int, name
    fixed = {name: repr(tables[name]) for name in FIXED}
    for argv in (["expand", "--contracting", "y2(y1,y3);y2"], ["zeta", "y3(y2,y2)"],
                 ["verify", "hopf"], ["verify", "bmz", "--max-weight", "4"], ["hoffman", "log", "y2.y1.y3"]):
        assert main(argv) == 0
    assert {name: repr(tables[name]) for name in FIXED} == fixed


def _over_budget_calls():
    # many distinct arguments for each map that keeps its images in the table
    for n in range(6):
        for f in enumerate_forests(n, (YLetter(1), YLetter(2))):
            yield coproduct, f
            yield arborify_y, f
        for f in enumerate_forests(n, (X0, X1)):
            yield arborify_x, f
    for n in range(12):
        yield deconcat, y_word(*range(1, n + 2))


def test_basis_table_stays_within_its_budget(monkeypatch):
    budget = 500 * lincomb.TERM_COST
    monkeypatch.setattr(lincomb, "_TABLE_BUDGET", budget)
    clear_table()
    cleared = 0
    for fn, arg in _over_budget_calls():
        before = lincomb._table_cost
        image = fn(arg)
        assert fn(arg) == image  # warm, or recomputed after the call cleared the table
        cleared += lincomb._table_cost < before
        assert lincomb._table_cost == table_cost() <= budget
    assert cleared > 10


def test_eval_cache_clears_past_its_bound(monkeypatch):
    words_in = [(a, b) for a in range(2, 6) for b in range(1, 4)]
    expected = {w: zeta.eval_mzv_bounded(w, 1e-8) for w in words_in}
    monkeypatch.setattr(lincomb, "_TABLE_BUDGET", 5 * lincomb.TERM_COST)
    clear_table()
    cleared = 0
    for w in words_in + words_in:
        assert zeta.eval_mzv_bounded(w, 1e-8) == expected[w]
        held = [arg for name, arg in lincomb._TABLE if name == "eval_mzv_bounded"]
        # the call's entry is held, unless the call cleared the table
        assert len(held) <= 5 and ((w, 1e-8) in held or not lincomb._TABLE)
        cleared += not lincomb._TABLE
    assert cleared > 1


def _one_budget_calls():
    """(kind, call, argument) for every kind of entry the table holds, each
    kind with more distinct arguments than the small budget below takes."""
    for f in (f for n in range(4) for f in enumerate_forests(n, (YLetter(1), YLetter(2)))):
        yield "maps", coproduct, f
        yield "maps", arborify_y, f
    for f in (f for n in range(4) for f in enumerate_forests(n, (X0, X1))):
        yield "maps", arborify_x, f
    for n in range(6):
        yield "maps", deconcat, y_word(*range(1, n + 2))
    for t in (t for n in range(1, 4) for t in enumerate_trees(n, (YLetter(2), YLetter(3)))):
        yield "tails", zeta.eval_tree_bounded, t
    for w in ((a, b) for a in range(2, 9) for b in range(1, 11)):
        yield "words", zeta.eval_mzv_bounded, w


def test_one_budget_for_every_kind_of_entry(monkeypatch):
    calls = list(_one_budget_calls())
    cold = []
    for _, fn, arg in calls:
        clear_table()
        cold.append(fn(arg))
    budget = 1000
    monkeypatch.setattr(lincomb, "_TABLE_BUDGET", budget)
    # interleaved: each kind's calls in turn, so a clear by one kind drops the others' entries
    by_kind = [[(i, fn, arg) for i, (k, fn, arg) in enumerate(calls) if k == kind]
               for kind in ("maps", "tails", "words")]
    mixed = [c for group in zip_longest(*by_kind) for c in group if c is not None]
    clear_table()
    for i, fn, arg in mixed + mixed:
        assert fn(arg) == cold[i], arg
        assert lincomb._table_cost == table_cost() <= budget, arg
    # each kind alone fills the table past the budget
    for group in by_kind:
        clear_table()
        cleared = 0
        for i, fn, arg in group:
            before = lincomb._table_cost
            assert fn(arg) == cold[i], arg
            assert lincomb._table_cost == table_cost() <= budget, arg
            cleared += lincomb._table_cost < before
        assert cleared >= 1, group[0][1].__name__


def test_every_functools_cache_is_bounded():
    caches = _functools_caches()
    assert "arborzeta.words._interleave" in dict(caches)
    unbounded = [name for name, fn in caches if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def test_quasi_shuffle_memory_levels_off():
    # more distinct pairs than the bound, then as many again: the second batch
    # replaces cache entries instead of adding them
    bound = words._interleave.cache_parameters()["maxsize"]
    side = 1
    while side * side < 2 * bound + bound // 2:
        side += 1
    pairs = [(Word((YLetter(a),)), Word((YLetter(b),))) for a in range(1, side + 1) for b in range(1, side + 1)]
    first, second = pairs[:bound + bound // 4], pairs[bound + bound // 4:]
    assert len(second) > bound
    words._interleave.cache_clear()
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        for u, v in first:
            quasi_shuffle(u, v)
        gc.collect()
        full = tracemalloc.get_traced_memory()[0]
        for u, v in second:
            quasi_shuffle(u, v)
        gc.collect()
        later = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert words._interleave.cache_info().currsize == bound
    assert later - full < (full - start) / 4, (start, full, later)
