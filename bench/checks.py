"""Independent checks of every workload's outputs.

References are theorems, OEIS counts, closed forms and mpmath sums; none of
them is a stored copy of the program's output.  Each function returns a list
of problems, empty when every output is correct.  ``refs`` memoizes the
mpmath references of one run, since every round has the same inputs.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import inputs

ROUNDING = 1e-12   # slack for the 12 significant digits the zeta verb prints


def failures(spec: dict, errors: dict) -> list:
    """A failed operation is a problem unless the inputs expect it to be
    refused, and it was refused with the expected message.  An expected
    refusal that does not happen is no problem: the value is then checked
    like any other."""
    problems = []
    for i, msg in errors.items():
        op = spec["ops"][int(i)]
        if "refusal" not in op or op["refusal"] not in msg:
            problems.append(f"operation {i} {op.get('text', op)}: unexpected failure {msg}")
    return problems


def exact_hopf(spec: dict, outputs: list, refs: dict) -> list:
    problems = []
    for i, (op, out) in enumerate(zip(spec["ops"], outputs)):
        if out is None:
            continue
        kind = op["kind"]
        if kind == "hook":
            ok = Fraction(out["sum"]) == op["expect"]
        elif kind == "census":
            ok = out["count"] == out["distinct"] == op["expect"]
        else:
            ok = out["equal"]
        if not ok:
            problems.append(f"{kind} #{i} {op}: {out}")
    return problems


def _mp():
    import mpmath

    mpmath.mp.dps = 25
    return mpmath


def _is_star(t) -> bool:
    return bool(t[1]) and all(not c[1] for c in t[1])


def _tree_refs(spec: dict) -> dict:
    mp = _mp()
    zeta_of = {}

    def zeta(n: int):
        if n not in zeta_of:
            zeta_of[n] = mp.zeta(n)
        return zeta_of[n]

    refs = {}
    for i, op in enumerate(spec["ops"]):
        if "trees" not in op:
            continue
        trees = op["trees"]
        indices = [int(l[1:]) for t in trees for l in inputs.labels(t)]
        # a y1 vertex (inside the (3,1)^n ladders) has zeta(1) = inf: no finite cap
        cap = mp.fprod(zeta(n) for n in indices) if min(indices) >= 2 else mp.inf
        ref = {"cap": float(cap)}
        if op["kind"] == "ladder2":
            n = op["n"]
            ref["exact"] = float(mp.pi ** (2 * n) / mp.factorial(2 * n + 1))
        elif op["kind"] == "ladder31":
            n = op["n"]
            ref["exact"] = float(2 * mp.pi ** (4 * n) / mp.factorial(4 * n + 2))
        elif op["kind"] == "tree" and _is_star(trees[0]):
            a = int(trees[0][0][1:])
            bs = [int(c[0][1:]) for c in trees[0][1]]
            ref["exact"] = float(mp.nsum(
                lambda k: k ** -a * mp.fprod(mp.zeta(b, k + 1) for b in bs), [1, mp.inf]
            ))
        refs[i] = ref
    return refs


def tree_values(spec: dict, outputs: list, refs: dict) -> list:
    if "trees" not in refs:
        refs["trees"] = _tree_refs(spec)
    ref = refs["trees"]
    problems = []
    for i, (op, out) in enumerate(zip(spec["ops"], outputs)):
        if out is None or i not in ref:
            continue
        v, tol = out["value"], op["tol"]
        slack = tol + ROUNDING * max(1.0, abs(v))
        if not 0.0 < v <= ref[i]["cap"] + slack:
            problems.append(f"{op['text']}: value {v!r} outside (0, {ref[i]['cap']!r}]")
        if "exact" in ref[i] and abs(v - ref[i]["exact"]) > slack:
            problems.append(f"{op['text']}: value {v!r} but reference {ref[i]['exact']!r}")
        if op["kind"] == "forest":
            parts = [outputs[j] for j in op["parts"]]
            if any(p is None for p in parts):
                continue
            a, b = parts[0]["value"], parts[1]["value"]
            # each factor is certified to tol, so the product to about tol*(a+b)
            bound = slack + tol * (a + b + tol) + ROUNDING * a * b
            if abs(v - a * b) > bound:
                problems.append(f"{op['text']}: value {v!r} but product of parts {a * b!r}")
    return problems


def regularization(spec: dict, outputs: list, refs: dict) -> list:
    tol = spec["tol"]
    problems = []
    theta0 = {}
    for op, out in zip(spec["ops"], outputs):
        if out is None:
            continue
        lhs, rhs = out["lhs"], out["rhs"]
        residual = max((abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) for k in set(lhs) | set(rhs)), default=0.0)
        if residual > 10 * tol:
            problems.append(f"{op['text']}: comparison residual {residual:.3g} > {10 * tol:g}")
        w = tuple(op["word"])
        if w and w[0] >= 2:
            theta0[w] = (lhs.get("0", 0.0), rhs.get("0", 0.0))

    if "zeta" not in refs:
        mp = _mp()
        refs["zeta"] = {k: float(mp.zeta(k)) for k in range(2, inputs.REG_MAX_WEIGHT + 1)}
    groups = defaultdict(list)
    for w in theta0:
        groups[(sum(w), len(w))].append(w)
    for (k, d), ws in sorted(groups.items()):
        for side in (0, 1):
            total = sum(theta0[w][side] for w in ws)
            if abs(total - refs["zeta"][k]) > (len(ws) + 1) * tol:
                problems.append(f"sum theorem weight {k} depth {d}: {total!r} != zeta({k})")
    for w, values in theta0.items():
        dual = inputs.dual(w)
        if dual in theta0:
            for side in (0, 1):
                if abs(values[side] - theta0[dual][side]) > 2 * tol:
                    problems.append(f"duality {w} ~ {dual}: {values[side]!r} != {theta0[dual][side]!r}")
    return problems


CHECKS = {"exact-hopf": exact_hopf, "tree-values": tree_values, "regularization": regularization}
