"""Seeded inputs, the library call, and the answer check for each workload.

A workload's ``setup`` turns a seed into a pool of items.  Kinds are laid
out round-robin, so every stretch of the pool has the same mix.  Each
item carries

- ``run``: the one library call that is timed.  Functions are looked up
  on their module at call time, so the traced run sees patched names;
- ``check``: returns None for a right answer, else what was wrong;
- ``key``: the exact part of the answer (minima, witnesses,
  determinants, verdicts, held counts) that goes into the digest.
  Float spectra and reduced bases stay out of it.

The library receives only the generated inputs.  The seeds and sample
counts below are part of the benchmark's definition.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import exact


class CliError(Exception):
    """`heis` exited with an error code instead of a verdict."""


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    key: Callable[[object], str]


def setup(name: str, mods, seed: int, workdir: str) -> list[Item]:
    return WORKLOADS[name](mods, random.Random(seed), workdir)


# --- sweep ------------------------------------------------------------

SWEEP_SAMPLES = 160
SWEEP_POOL = 210
# Seven slots, so the median item falls inside one kind's cluster of
# latencies (dimension-2 key-inequality sweeps) instead of in the gap
# between two kinds.
SWEEP_KINDS = (("key_inequality_sweep", 2), ("key_inequality_sweep", 4),
               ("key_inequality_sweep", 6), ("key_inequality_sweep", 4),
               ("bhatia_sweep", 2), ("bhatia_sweep", 4), ("bhatia_sweep", 6))


def sweep_items(mods, rng, workdir) -> list[Item]:
    items = []
    for i in range(SWEEP_POOL):
        fn, dim = SWEEP_KINDS[i % len(SWEEP_KINDS)]
        seed = rng.randrange(2**32)

        def run(fn=fn, dim=dim, seed=seed):
            return getattr(mods.compactness, fn)(dim, SWEEP_SAMPLES, seed)

        items.append(Item(f"{fn}-{dim}", run, _check_sweep,
                          lambda r: f"{r.held}/{r.total}"))
    return items


def _check_sweep(r) -> "str | None":
    if r.total != SWEEP_SAMPLES or r.held != r.total:
        return f"held {r.held} of {r.total}"
    if not r.worst_slack >= -1e-9:
        return f"worst slack {r.worst_slack!r}"
    return None


# --- certify ----------------------------------------------------------

CERTIFY_POOL = 728
# Seven slots, counterexample certificates twice, so the median item falls
# inside that kind's cluster of latencies instead of in the gap between
# the torus certificates and the larger families.
CERTIFY_KINDS = ("orbit-certify", "orbit-invariants", "heis-type-certify",
                 "counterexample-torus", "counterexample-certify",
                 "counterexample-invariants", "counterexample-certify")
SPECTRUM_REL = 1e-8


def random_similitude(rng, n, steps):
    """Product of integer generators scaling J by +-1: symmetric shears,
    diag(U, U^-T) for a transvection U, and diag(I, -I).  Each factor is
    applied as column operations."""
    s = exact.identity(2 * n)

    def add(dst, src, t):  # column dst += t * column src
        for row in s:
            row[dst] += t * row[src]

    for _ in range(steps):
        kind = rng.choice(("upper", "lower", "gl", "flip"))
        i, j, t = rng.randrange(n), rng.randrange(n), rng.choice((-1, 1))
        if kind == "upper":
            add(n + j, i, t)
            if i != j:
                add(n + i, j, t)
        elif kind == "lower":
            add(j, n + i, t)
            if i != j:
                add(i, n + j, t)
        elif kind == "gl" and i != j:
            add(j, i, t)
            add(n + i, n + j, -t)
        elif kind == "flip":
            for row in s:
                row[n:] = [-x for x in row[n:]]
    return s


def dominant_gram(rng, dim):
    """Integer Gram with first minimum exactly 4: diagonal entries 4..6,
    y[0][0] = 4, off-diagonal entries in {-1, 0, 1}, at most two per row.
    For a with two or more nonzero entries Y[a] >= sum a_i^2 (y_ii - 2)
    >= 4, and t e_i gives t^2 y_ii >= 4."""
    while True:
        y = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            y[i][i] = 4 if i == 0 else rng.choice((4, 5, 6))
            for j in range(i + 1, dim):
                y[i][j] = y[j][i] = rng.choice((-1, 0, 0, 0, 1))
        if all(sum(abs(x) for x in row) - row[k] <= 2 for k, row in enumerate(y)):
            return y


def orbit_member(rng, base, n, cap):
    """S^T Y S for a random similitude S with 2-5 factors.  The cap on the
    diagonal bounds the skew, and with it the cost of the member's first
    minimum, so that a rare skewed member cannot set the tail."""
    while True:
        s = random_similitude(rng, n, rng.randint(2, 5))
        y = exact.congruence(base, s)
        if max(y[i][i] for i in range(2 * n)) <= cap:
            return y


def _matrix_json(rows):
    return {"mode": "rational", "rows": len(rows), "cols": len(rows),
            "entries": [[str(Fraction(x)) for x in r] for r in rows]}


def _metric_json(rows, g):
    return {"h": _matrix_json(rows), "g": str(g), "r": [1] * (len(rows) // 2)}


def counterexample_gram(k):
    return [[1, k, 0, 0], [k, k * k + 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def counterexample_d2(k):
    """Top symplectic value of member k: d1 d2 = 1 and d1^2 + d2^2 = k^2 + 2."""
    return (math.sqrt(k * k + 4) + k) / 2


def certify_items(mods, rng, workdir) -> list[Item]:
    items = []
    for i in range(CERTIFY_POOL):
        kind = CERTIFY_KINDS[i % len(CERTIFY_KINDS)]
        rank = i // len(CERTIFY_KINDS)
        path = os.path.join(workdir, f"input-{i}.json")
        payload, argv, expect = _certify_case(rng, kind, rank % 2 == 0, 1 + rank % 3)
        with open(path, "w") as fh:
            fh.write(json.dumps(payload))

        def run(argv=argv + ["--input", path]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mods.cli.main(argv)
            if code not in (0, 1):  # invalid input or enumeration budget
                raise CliError(f"heis exited {code}: {err.getvalue().strip()}")
            return code, out.getvalue()

        items.append(Item(kind, run, lambda out, e=expect: _check_cli(e, out), _cli_key))
    return items


def _certify_case(rng, kind, certified, n):
    """(JSON payload, argv without --input, expected values); orbit
    families have size 2n."""
    if kind.startswith("orbit"):
        scale = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)))
        base = dominant_gram(rng, 2 * n)
        m, det = 4 * scale, exact.det(base) * scale ** (2 * n)
        d = [v / float(scale) for v in exact.symplectic_spectrum(base)]
        if kind == "orbit-invariants":
            g = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))
            rows = [[x * scale for x in r] for r in orbit_member(rng, base, n, 40)]
            return (_metric_json(rows, g), ["invariants"],
                    {"code": 0, "m_r": m, "det_h": det, "d_max": d[-1]})
        members, gs = [], []
        for _ in range(rng.randint(5, 8)):
            gs.append(rng.choice((Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))))
            rows = [[x * scale for x in r] for r in orbit_member(rng, base, n, 40)]
            members.append(_metric_json(rows, gs[-1]))
        argv = ["certify", "--C0", str(m if certified else m + 1), "--C1", str(det),
                "--C2", repr(d[-1] * (1 + 1e-6)),
                "--g-min", str(min(gs)), "--g-max", str(max(gs))]
        return ({"members": members}, argv,
                {"code": 0 if certified else 1, "c0": m, "c1": det, "c2": d[-1]})
    if kind == "heis-type-certify":
        roots = {Fraction(1, 4): Fraction(1, 2), Fraction(1): Fraction(1),
                 Fraction(4): Fraction(2)}
        members, gs = [], []
        for _ in range(rng.randint(5, 8)):
            g = rng.choice(list(roots))
            rows = [[roots[g] * x for x in r] for r in orbit_member(rng, exact.identity(4), 2, 12)]
            members.append(_metric_json(rows, g))
            gs.append(g)
        c0 = min(roots[g] for g in gs)
        argv = ["certify", "--heisenberg-type", "--C0", str(c0 if certified else c0 + 1),
                "--g-min", str(min(gs)), "--g-max", str(max(gs))]
        return ({"members": members}, argv,
                {"code": 0 if certified else 1, "c0": c0, "c1": max(gs) ** 2,
                 "c2": 1 / math.sqrt(min(gs))})
    ks = [rng.randint(1, 1000) for _ in range(rng.randint(5, 8))]
    if kind == "counterexample-invariants":
        return (_metric_json(counterexample_gram(ks[0]), 1), ["invariants"],
                {"code": 0, "m_r": 1, "det_h": 1, "d_max": counterexample_d2(ks[0])})
    if kind == "counterexample-torus":
        argv = ["certify-torus", "--C0", "1", "--C1", "1" if certified else "1/2"]
        return ([_matrix_json(counterexample_gram(k)) for k in ks], argv,
                {"code": 0 if certified else 1, "c0": 1, "c1": 1})
    d2 = counterexample_d2(max(ks))
    argv = ["certify", "--C0", "1", "--C1", "1",
            "--C2", repr(d2 * (1 + 1e-6)) if certified else "3/2"]
    return ([_metric_json(counterexample_gram(k), 1) for k in ks], argv,
            {"code": 0 if certified else 1, "c0": 1, "c1": 1, "c2": d2})


def _check_cli(expect, out) -> "str | None":
    code, text = out
    if code != expect["code"]:
        return f"exit code {code}, expected {expect['code']}"
    doc = json.loads(text)
    if "verdict" in doc:
        verdict = "certified" if code == 0 else "not-certified"
        if doc["verdict"] != verdict:
            return f"verdict {doc['verdict']}"
        for name in ("c0", "c1"):
            if Fraction(doc[name]) != expect[name]:
                return f"{name} = {doc[name]}, expected {expect[name]}"
        if "c2" in expect and not exact.close(doc["c2"], expect["c2"], SPECTRUM_REL):
            return f"c2 = {doc['c2']!r}, expected {expect['c2']!r}"
        return None
    if Fraction(doc["m_r"]) != expect["m_r"] or Fraction(doc["det_h"]) != expect["det_h"]:
        return f"m_r = {doc['m_r']}, det_h = {doc['det_h']}"
    d = doc["d"]
    if not exact.close(d[-1], expect["d_max"], SPECTRUM_REL):
        return f"d_n = {d[-1]!r}, expected {expect['d_max']!r}"
    # det Y = prod d_k^-2, so prod d_k * sqrt(det) = 1 (d1 d2 = 1 when det = 1)
    if not exact.close(math.prod(d) * math.sqrt(float(expect["det_h"])), 1.0, SPECTRUM_REL):
        return f"prod d_k = {math.prod(d)!r} does not match det"
    return None


def _cli_key(out) -> str:
    code, text = out
    doc = json.loads(text)
    if "verdict" in doc:
        return f"{code}:{doc['verdict']}:{doc['c0']}:{doc['c1']}"
    return f"{code}:{doc['m_r']}:{doc['det_h']}"


WORKLOADS = {"sweep": sweep_items, "certify": certify_items}
