"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions of each arborzeta module by
wrappers that record a span (operation id, name, start, end, parent span)
and counters, everywhere the function is bound: the module that defines it,
every module that imported it by name, and class attributes for methods.
Functions that a module looks up by name at call time, such as
``zeta._mzv_em`` inside ``eval_mzv_bounded`` or the recursive ``reg_qsh``,
are therefore traced on every call.  ``lru_cache`` counters are read from
the cached originals.  Spans stay in memory; ``metrics`` turns them into
self times (a span's duration minus its children's) at the end of a round.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, qualified attribute, layer); methods are "Class.method"
SPANNED = (
    ("lincomb", "LinComb.__init__", "lincomb"),
    ("lincomb", "LinComb.__add__", "lincomb"),
    ("lincomb", "LinComb.__sub__", "lincomb"),
    ("lincomb", "LinComb.__mul__", "lincomb"),
    ("lincomb", "LinComb.__neg__", "lincomb"),
    ("lincomb", "LinComb.items", "lincomb"),
    ("lincomb", "LinComb.map_basis", "lincomb"),
    ("lincomb", "bilinear", "lincomb"),
    ("lincomb", "ThetaPoly.__add__", "lincomb"),
    ("lincomb", "ThetaPoly.__sub__", "lincomb"),
    ("lincomb", "ThetaPoly.scale", "lincomb"),
    ("lincomb", "ThetaPoly.shift", "lincomb"),
    ("lincomb", "ThetaPoly.derive", "lincomb"),
    ("lincomb", "ThetaPoly.map_coeffs", "lincomb"),
    ("words", "_interleave", "words"),
    ("words", "deconcat", "words"),
    ("words", "s_map", "words"),
    ("words", "s_inverse", "words"),
    ("forests", "coproduct", "forests"),
    ("forests", "_coproduct_tree", "forests"),
    ("forests", "enumerate_trees", "forests"),
    ("forests", "enumerate_forests", "forests"),
    ("arborify", "arborify_x", "arborify"),
    ("arborify", "arborify_y", "arborify"),
    ("hoffman", "compositions", "hoffman"),
    ("hoffman", "apply_composition", "hoffman"),
    ("hoffman", "exp_word", "hoffman"),
    ("hoffman", "log_word", "hoffman"),
    ("hoffman", "exp_comb", "hoffman"),
    ("hoffman", "log_comb", "hoffman"),
    ("zeta", "_mzv_em", "zeta"),
    ("zeta", "eval_mzv_bounded", "zeta"),
    ("zeta", "zeta_comb_y", "zeta"),
    ("zeta", "zeta_comb_x", "zeta"),
    ("zeta", "zeta_tree_y", "zeta"),
    ("zeta", "zeta_tree_x", "zeta"),
    ("zeta", "reg_qsh", "zeta"),
    ("zeta", "reg_sh", "zeta"),
    ("zeta", "eval_reg", "zeta"),
    ("zeta", "rho", "zeta"),
    ("cli", "main", "cli"),
)

# hash calls are counted without spans: there are millions of them
COUNTED_HASHES = (("forests", "Tree", "forests.tree_hash_calls"), ("words", "Word", "words.word_hash_calls"))

def _module(name: str):
    return sys.modules[f"arborzeta.{name}"]


def _rebind(orig, new) -> None:
    """Point every binding of ``orig`` in the package's modules and classes at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "arborzeta" and not modname.startswith("arborzeta."):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in list(vars(value).items()):
                    if member is orig:
                        setattr(value, attr, new)


class Tracer:
    def __init__(self):
        self.spans: list = []      # (op, name, start, end, parent span index or -1)
        self.stack: list = []      # open spans as (index, name)
        self.layer: dict = {}      # span name -> layer
        self.counts: Counter = Counter()
        self.lru: dict = {}        # "module.function" -> lru_cache-wrapped original
        self.em_args: list = []    # (exponents, K) of every _mzv_em call, in order
        self.arborified: list = [] # every LinComb that arborify_x/y returned
        self.op = -1
        self.on = False

    def install(self) -> None:
        """Wrap every SPANNED function and count hash calls; recording starts
        when ``on`` is set."""
        for modname, qual, layer in SPANNED:
            owner = _module(modname)
            *cls, attr = qual.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = vars(owner)[attr]
            if hasattr(orig, "cache_info"):
                self.lru[f"{modname}.{attr}"] = orig
            name = f"{modname}.{qual}"
            self.layer[name] = layer
            _rebind(orig, self._wrap(name, orig))
        for modname, cls, counter in COUNTED_HASHES:
            klass = getattr(_module(modname), cls)
            klass.__hash__ = self._count(counter, klass.__hash__)

    def _count(self, counter: str, fn):
        counts = self.counts

        def wrapper(self_):
            if self.on:
                counts[counter] += 1
            return fn(self_)

        return wrapper

    def _wrap(self, name: str, fn):
        spans, stack, counts, layers = self.spans, self.stack, self.counts, self.layer
        layer = layers[name]
        em_args = self.em_args if name == "zeta._mzv_em" else None
        arborified = self.arborified if layer == "arborify" else None

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append((idx, name))
            counts[name] += 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                # a refusal is an exception leaving the zeta layer
                if layer == "zeta" and (parent is None or layers[parent[1]] != "zeta"):
                    counts["zeta.refusals"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.op, name, start, end, -1 if parent is None else parent[0])
            if em_args is not None:
                em_args.append((args[0], args[1]))
            if arborified is not None:
                arborified.append(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict:
        """Every per-layer metric of BENCHMARK.json for the spans and counters
        recorded so far."""
        was_on, self.on = self.on, False
        try:
            return self._metrics()
        finally:
            self.on = was_on

    def _metrics(self) -> dict:
        children = defaultdict(float)
        for span in self.spans:
            if span[4] >= 0:
                children[span[4]] += span[3] - span[2]
        self_s = defaultdict(float)
        for idx, (_, name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - children[idx]

        def layer_self(layer: str) -> float:
            return sum((v for k, v in self_s.items() if self.layer[k] == layer), 0.0)

        c = self.counts
        em_calls = c["zeta._mzv_em"]
        em_distinct = len({tuple(e) for e, _ in self.em_args})
        retries = sum(
            1 for prev, cur in zip(self.em_args, self.em_args[1:])
            if cur[0] == prev[0] and cur[1] > prev[1]
        )
        inter = self.lru["words._interleave"].cache_info()
        qsh = self.lru["zeta.reg_qsh"].cache_info()
        sh = self.lru["zeta.reg_sh"].cache_info()
        eval_cache = getattr(_module("zeta"), "_EVAL_CACHE", {})
        mass = 0
        words_out = 0
        for comb in self.arborified:
            items = comb.items()
            words_out += len(items)
            mass += sum(abs(coef) for _, coef in items)
        return {
            "zeta.em_calls": em_calls,
            "zeta.em_distinct": em_distinct,
            "zeta.em_useful_ratio": em_distinct / em_calls if em_calls else 0.0,
            "zeta.em_self_s": self_s["zeta._mzv_em"],
            "zeta.em_retries": retries,
            "zeta.eval_calls": c["zeta.eval_mzv_bounded"],
            "zeta.cache_entries": len(eval_cache) + qsh.currsize + sh.currsize,
            "zeta.reg_self_s": self_s["zeta.reg_qsh"] + self_s["zeta.reg_sh"],
            "zeta.reg_misses": qsh.misses + sh.misses,
            "zeta.rho_self_s": self_s["zeta.rho"],
            "zeta.refusals": c["zeta.refusals"],
            "words.interleave_self_s": self_s["words._interleave"],
            "words.interleave_hits": inter.hits,
            "words.interleave_misses": inter.misses,
            "words.interleave_entries": inter.currsize,
            "words.word_hash_calls": c["words.word_hash_calls"],
            "lincomb.add_calls": c["lincomb.LinComb.__add__"],
            "lincomb.items_calls": c["lincomb.LinComb.items"],
            "lincomb.self_s": layer_self("lincomb"),
            "forests.tree_hash_calls": c["forests.tree_hash_calls"],
            "forests.coproduct_calls": c["forests.coproduct"],
            "forests.coproduct_self_s": self_s["forests.coproduct"] + self_s["forests._coproduct_tree"],
            "forests.enumerate_self_s": self_s["forests.enumerate_trees"] + self_s["forests.enumerate_forests"],
            "hoffman.self_s": layer_self("hoffman"),
            "arborify.calls": c["arborify.arborify_x"] + c["arborify.arborify_y"],
            "arborify.self_s": layer_self("arborify"),
            "arborify.words_out": words_out,
            "arborify.coeff_mass": float(mass),
            "cli.self_s": self_s["cli.main"],
        }

    def dump(self, path: str) -> None:
        """Write the spans as gzip-compressed JSON: one row per span."""
        names = sorted(self.layer)
        index = {n: i for i, n in enumerate(names)}
        rows = [[op, index[name], start, end, parent] for op, name, start, end, parent in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["op", "name", "start", "end", "parent"], "names": names, "spans": rows}, fh)
