"""One round of one workload, run in a fresh interpreter by ``run.py``.

Reads the round's inputs as JSON on stdin, imports arborzeta from the given
source directory, parses the inputs with the package (together: the set-up
time), runs every operation once under ``perf_counter`` and prints one JSON
object: set-up time, per-operation times and failures, peak resident memory,
the outputs the checks need and, with ``--trace``, the per-layer metrics.
Each output is reduced to plain values right after its operation, outside
the timed and traced region.  Every time is also given at a reference host
speed, from a calibration kernel timed between operations.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
from time import perf_counter


KERNEL_REF_S = 1e-3   # calibration kernel time that defines the reference host speed
CALIBRATE_EVERY_S = 0.1


def _kernel() -> int:
    """Fixed pure-Python work (dict, int and float operations, like the
    package's) whose time stands for the host's current speed.  Its only
    container is one dict per call, so it barely moves the points at which
    the garbage collector runs during the operations."""
    d = {}
    acc = 0.0
    for i in range(2500):
        key = (i * 7919) % 4099
        d[key] = d.get(key, 0.0) + 1.0 / (i + 1)
        acc += (i * 0.5) ** 0.5
    return len(d)


def _calibrate() -> tuple:
    """(time, kernel seconds): the median of three kernel runs, now."""
    runs = []
    for _ in range(3):
        start = perf_counter()
        _kernel()
        runs.append(perf_counter() - start)
    return perf_counter(), sorted(runs)[1]


def _import_package(src: str) -> None:
    sys.path.insert(0, src)
    import arborzeta
    from arborzeta import arborify, cli, forests, hoffman, lincomb, words, zeta  # noqa: F401

    here = os.path.realpath(arborzeta.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"arborzeta imported from {here}, not from {src}")


# ---------------------------------------------------------------------------
# exact-hopf: exact identities on small forests, words and the tree census

def _exact_hopf(spec: dict):
    from arborzeta.arborify import arborify_x, arborify_y, ladder
    from arborzeta.forests import EMPTY_FOREST, Forest, bplus, coproduct, enumerate_trees, parse_forest
    from arborzeta.hoffman import exp_comb, log_word
    from arborzeta.lincomb import LinComb, TensorPair
    from arborzeta.words import YLetter, deconcat, parse_word

    arbs = {"y": arborify_y, "x": arborify_x}

    def coassoc(f):
        left = right = LinComb()
        for p, c in coproduct(f).items():
            for q, d in coproduct(p.left).items():
                left = left + LinComb.unit((q.left, q.right, p.right), c * d)
            for q, d in coproduct(p.right).items():
                right = right + LinComb.unit((p.left, q.left, q.right), c * d)
        return left, right

    def morphism(f, arb):
        words_side = LinComb()
        for w, c in arb(f).items():
            words_side = words_side + c * deconcat(w)
        forest_side = LinComb()
        for p, c in coproduct(f).items():
            for wl, cl in arb(p.left).items():
                for wr, cr in arb(p.right).items():
                    forest_side = forest_side + LinComb.unit(TensorPair(wl, wr), c * cl * cr)
        return words_side, forest_side

    def cocycle(f, d):
        t = Forest((bplus(d, f),))
        grafted = coproduct(f).map_basis(lambda p: TensorPair(p.left, Forest((bplus(d, p.right),))))
        return coproduct(t), LinComb.unit(TensorPair(t, EMPTY_FOREST)) + grafted

    def section(w, arb):
        return arb(Forest((ladder(w),))), LinComb.unit(w)

    def explog(w):
        return exp_comb(log_word(w)), LinComb.unit(w)

    two = (YLetter(1), YLetter(2))
    ops = []
    for op in spec["ops"]:
        kind = op["kind"]
        if kind == "coassoc":
            f = parse_forest(op["forest"])
            ops.append(lambda f=f: coassoc(f))
        elif kind == "morphism":
            f, arb = parse_forest(op["forest"]), arbs[op["alpha"]]
            ops.append(lambda f=f, arb=arb: morphism(f, arb))
        elif kind == "cocycle":
            f, d = parse_forest(op["forest"]), parse_word(op["root"]).letters[0]
            ops.append(lambda f=f, d=d: cocycle(f, d))
        elif kind == "ladder":
            w, arb = parse_word(op["word"]), arbs[op["alpha"]]
            ops.append(lambda w=w, arb=arb: section(w, arb))
        elif kind == "hook":
            f = parse_forest(op["tree"])
            ops.append(lambda f=f: arborify_x(f))
        elif kind == "explog":
            w = parse_word(op["word"])
            ops.append(lambda w=w: explog(w))
        elif kind == "census":
            ops.append(lambda n=op["n"]: enumerate_trees(n, two))
        else:
            raise ValueError(f"unknown exact-hopf operation {kind!r}")

    def reduce(i: int, out) -> dict:
        kind = spec["ops"][i]["kind"]
        if kind == "hook":
            return {"sum": str(sum(c for _, c in out.items()))}
        if kind == "census":
            return {"count": len(out), "distinct": len(set(out))}
        return {"equal": out[0] == out[1]}

    return ops, reduce


# ---------------------------------------------------------------------------
# tree-values: the zeta verb on trees and forests, stdout captured

def _tree_values(spec: dict):
    from arborzeta import cli

    def zeta_verb(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    ops = [
        lambda argv=["zeta", op["text"], "--tol", repr(op["tol"])]: zeta_verb(argv)
        for op in spec["ops"]
    ]

    def reduce(i: int, out: str) -> dict:
        for line in out.splitlines():
            if line.startswith("value = "):
                return {"value": float(line.split()[2])}
        raise ValueError(f"no value line in {out!r}")

    return ops, reduce


# ---------------------------------------------------------------------------
# regularization: both regularized characters of every word, compared via rho

def _regularization(spec: dict):
    from arborzeta.words import parse_word, s_map
    from arborzeta.zeta import eval_reg, reg_qsh, reg_sh, rho

    tol = spec["tol"]

    def compare(w):
        lhs = eval_reg(reg_sh(s_map(w)), tol).poly
        rhs = rho(eval_reg(reg_qsh(w), tol)).poly
        return lhs, rhs

    ops = [lambda w=parse_word(op["text"]): compare(w) for op in spec["ops"]]

    def reduce(i: int, out) -> dict:
        return {side: {str(k): c for k, c in poly.items()} for side, poly in zip(("lhs", "rhs"), out)}

    return ops, reduce


BUILD = {"exact-hopf": _exact_hopf, "tree-values": _tree_values, "regularization": _regularization}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory that holds the arborzeta package")
    parser.add_argument("--warm", action="store_true", help="import the package and exit")
    parser.add_argument("--trace", action="store_true", help="record spans and per-layer metrics")
    parser.add_argument("--spans", help="write the recorded spans to this gzip JSON file")
    args = parser.parse_args()
    if args.warm:
        _import_package(args.src)
        return 0
    spec = json.load(sys.stdin)

    cal = [_calibrate()]
    t0 = perf_counter()
    _import_package(args.src)
    tracer = None
    if args.trace:
        # before the operations are built, so that they bind the wrappers
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ops, reduce = BUILD[spec["workload"]](spec)
    setup_s = perf_counter() - t0
    cal.append(_calibrate())
    setup_kernel_s = (cal[0][1] + cal[1][1]) / 2
    if tracer is not None:
        tracer.on = True

    times = [0.0] * len(ops)
    segment = [0] * len(ops)   # index of the calibration taken just before each operation
    outputs = [None] * len(ops)
    errors = {}
    for i in spec["order"]:
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            out = ops[i]()
        except Exception as exc:  # a failed operation is counted, not fatal
            out, errors[i] = None, f"{type(exc).__name__}: {exc}"
        times[i] = perf_counter() - start
        segment[i] = len(cal) - 1
        if i not in errors:
            # reduced at once and dropped, so that no operation pays for
            # keeping the results of earlier ones alive
            if tracer is not None:
                tracer.on = False
            outputs[i] = reduce(i, out)
            if tracer is not None:
                tracer.on = True
        del out
        if perf_counter() - cal[-1][0] >= CALIBRATE_EVERY_S:
            cal.append(_calibrate())
    cal.append(_calibrate())
    # each operation at the reference speed, from the calibrations around it
    ref_times = [
        t * KERNEL_REF_S / ((cal[k][1] + cal[k + 1][1]) / 2) for t, k in zip(times, segment)
    ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.on = False
        layers = tracer.metrics()
        if args.spans:
            tracer.dump(args.spans)

    json.dump({
        "setup_s": setup_s,
        "setup_ref_s": setup_s * KERNEL_REF_S / setup_kernel_s,
        "op_s": times,
        "op_ref_s": ref_times,
        "kernel_s": [k for _, k in cal],
        "errors": {str(i): msg for i, msg in errors.items()},
        "outputs": outputs,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
