"""The package's caches are bounded, so a long-lived process holds a fixed
amount of cached work however many distinct inputs it sees."""

import gc
import importlib
import pkgutil
import tracemalloc

import arborzeta
from arborzeta import words
from arborzeta.words import Word, YLetter, quasi_shuffle


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
