"""Every name the benchmark's tracer wraps still exists in the package.

``bench/tracing.py`` looks each function up as ``vars(owner)[attr]`` and each
counted class as a module attribute whose ``__hash__`` it replaces, so a
rename or a move in ``src/`` would break ``bench/run.py --trace 1``, as would
a cache moved off ``lru_cache`` whose ``cache_info()`` the tracer reads.
These tests read the tracer's tables and resolve them the same way.
"""

import importlib
import re
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing() -> dict:
    return runpy.run_path(str(TRACING))  # compiles from source, writes no bytecode


def test_spanned_names_resolve():
    tracing = _tracing()
    assert tracing["SPANNED"]
    for modname, qual, _ in tracing["SPANNED"]:
        owner = importlib.import_module(f"arborzeta.{modname}")
        *cls, attr = qual.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        assert callable(vars(owner).get(attr)), f"{modname}.{qual}"


def test_counted_hashes_resolve():
    tracing = _tracing()
    assert tracing["COUNTED_HASHES"]
    for modname, cls, _ in tracing["COUNTED_HASHES"]:
        klass = getattr(importlib.import_module(f"arborzeta.{modname}"), cls)
        assert "__hash__" in vars(klass), f"{modname}.{cls}"


def test_lru_names_keep_cache_info():
    # metrics() reads cache_info() from every self.lru["module.function"] entry
    names = set(re.findall(r'self\.lru\["([^"]+)"\]', TRACING.read_text()))
    assert names
    for name in names:
        modname, attr = name.split(".")
        orig = vars(importlib.import_module(f"arborzeta.{modname}")).get(attr)
        assert callable(getattr(orig, "cache_info", None)), name
