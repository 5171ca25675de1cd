"""Golden output of seeded ``heis`` runs, replayed byte for byte.

``tests/data/golden_cli.json`` holds the argv, stdin, stdout and exit
code of each case, replayed through stdin and again through ``--input``
with the payload in a file: ``invariants``, ``shortest-vector``, ``reduce``,
``certify`` and ``certify-torus`` on rational and float Gram matrices
of size 2 to 8, half of them in skewed bases, plus rejected inputs;
then ``spectrum``, ``heis-type``, ``curvature-bound`` and
``certify --heisenberg-type`` cases, and then the usage errors of
``--C1`` and ``--C2`` with ``--heisenberg-type``, and then
``shortest-vector`` on Z^n in badly reduced bases and ``certify-torus``
on a family with a skewed float member, each group appended after the
others so that no earlier input changed.
A change that should not alter any output must leave this test
passing.  Regenerate the file (only when an output change is intended,
and say so in the change log) with the command below; it prints the
name of each case whose exit code or output changed.  When only floats
moved, it lists each of them with its old and new value and how many
floats apart they are; any other change is marked as such.

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import struct
import sys
from fractions import Fraction

import pytest

from conftest import skewed_unit_lattice
from heismoduli.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_cli.json")
SEED = 20261018


def run_case(argv, stdin):
    """(exit code, stdout) of one in-process ``heis`` run; stderr is dropped."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


# --- case generation (used only to regenerate the data file) ------------

LDL_COEFFS = tuple(Fraction(p, q) for p, q in
                   ((0, 1), (0, 1), (1, 2), (-1, 2), (1, 3), (-2, 3), (1, 1), (-1, 1)))
LDL_PIVOTS = tuple(Fraction(p, q) for p, q in ((1, 2), (2, 3), (1, 1), (3, 2), (2, 1), (5, 3)))


def _unimodular(rng, n, steps):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-1, 1))
        for row in u:  # column j += t * column i
            row[j] += t * row[i]
    return u


def _congruence(y, u):
    n = len(y)
    yu = [[sum(y[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * yu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _rational_gram(rng, n, skewed):
    """L D L^T with mixed denominators, optionally in a skewed basis."""
    L = [[Fraction(int(i == j)) if i <= j else rng.choice(LDL_COEFFS) for j in range(n)]
         for i in range(n)]
    D = [rng.choice(LDL_PIVOTS) for _ in range(n)]
    y = [[sum(L[i][k] * D[k] * L[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return _congruence(y, _unimodular(rng, n, 2 * n)) if skewed else y


def _float_gram(rng, n, skewed):
    """B^T B + I/2 from three-digit decimals, rounded once after an exact
    change of basis, so it is exactly symmetric."""
    B = [[Fraction(round(rng.uniform(-1, 1), 3)) for _ in range(n)] for _ in range(n)]
    y = [[sum(B[k][i] * B[k][j] for k in range(n)) + Fraction(int(i == j), 2)
          for j in range(n)] for i in range(n)]
    if skewed:
        y = _congruence(y, _unimodular(rng, n, 2 * n))
    return [[float(x) for x in r] for r in y]


def _matrix_json(rows):
    if isinstance(rows[0][0], float):
        return {"mode": "float", "rows": len(rows), "cols": len(rows), "entries": rows}
    return {"mode": "rational", "rows": len(rows), "cols": len(rows),
            "entries": [[str(x) for x in r] for r in rows]}


def _gram(rng, n, i):
    """Alternates rational/float and plain/skewed with the case index."""
    make = _rational_gram if i % 2 == 0 else _float_gram
    return make(rng, n, skewed=(i // 2) % 2 == 1)


R_TUPLES = {1: [[1], [2], [3]], 2: [[1, 1], [1, 2], [2, 4]], 3: [[1, 1, 1], [1, 1, 2]],
            4: [[1, 1, 1, 1], [1, 1, 1, 2]]}


def _metric_json(rng, h):
    n = len(h) // 2
    g = rng.choice(("1/2", "1", "3", 2, 0.75))
    return {"h": _matrix_json(h), "g": g, "r": rng.choice(R_TUPLES[n])}


def generate_cases():
    rng = random.Random(SEED)
    cases = []

    def add(name, argv, payload):
        stdin = payload if isinstance(payload, str) else json.dumps(payload)
        cases.append({"name": name, "argv": argv, "stdin": stdin})

    for i, n in enumerate(m for m in range(2, 9) for _ in range(4)):
        fmt = ["--format", "text"] if i % 3 == 2 else []
        add(f"shortest-vector-{n}-{i}", ["shortest-vector", *fmt], _matrix_json(_gram(rng, n, i)))
    for i, n in enumerate(m for m in range(2, 7) for _ in range(4)):
        add(f"reduce-{n}-{i}", ["reduce"], _matrix_json(_gram(rng, n, i)))
    add("reduce-8-text", ["reduce", "--format", "text"], _matrix_json(_gram(rng, 8, 0)))
    for i, n in enumerate(m for m in (1, 2, 3, 4) for _ in range(4)):
        fmt = ["--format", "text"] if i % 4 == 3 else []
        add(f"invariants-{2 * n}-{i}", ["invariants", *fmt],
            _metric_json(rng, _gram(rng, 2 * n, i)))
    for i, n in enumerate(m for m in (1, 2, 3, 4) for _ in range(3)):
        members = [_metric_json(rng, _gram(rng, 2 * n, i)) for _ in range(rng.randint(2, 4))]
        r = members[0]["r"]
        for m in members:
            m["r"] = r
        argv = ["certify", "--C0", rng.choice(("1/100", "1", "2")),
                "--C1", rng.choice(("1", "1000")), "--C2", rng.choice(("1.5", "100"))]
        if i % 2:
            argv += ["--g-min", "1/2", "--g-max", "3"]
        if i % 3 == 2:
            argv += ["--format", "text"]
        add(f"certify-{2 * n}-{i}", argv, {"members": members})
    heis_type = [{"h": _matrix_json(_congruence([[Fraction(int(a == b)) for b in range(4)]
                                                 for a in range(4)], s)), "g": 1, "r": [1, 1]}
                 for s in ([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
                           [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])]
    add("certify-heisenberg-type", ["certify", "--heisenberg-type", "--C0", "1"], heis_type)
    for i, n in enumerate(range(2, 9)):
        members = [_matrix_json(_gram(rng, n, i)) for _ in range(rng.randint(2, 4))]
        argv = ["certify-torus", "--C0", rng.choice(("1/100", "1")),
                "--C1", rng.choice(("1", "1000"))]
        if i % 3 == 1:
            argv += ["--format", "text"]
        add(f"certify-torus-{n}-{i}", argv, members)

    def rat(rows):
        return {"mode": "rational", "rows": len(rows), "cols": len(rows[0]), "entries": rows}

    def flt(rows):
        return {"mode": "float", "rows": len(rows), "cols": len(rows[0]), "entries": rows}

    errors = {
        "not-positive-definite": rat([["1", "2"], ["2", "1"]]),
        "not-positive-definite-3": rat([["2", "1", "0"], ["1", "2", "1"], ["0", "1", "1/2"]]),
        "singular": rat([["1", "1"], ["1", "1"]]),
        "asymmetric": rat([["1", "1"], ["0", "1"]]),
        "asymmetric-float": flt([[1.0, 0.5], [0.25, 1.0]]),
        "boolean-entry": rat([[True, "0"], ["0", "1"]]),
        "float-in-rational": rat([[1.5, "0"], ["0", "1"]]),
        "unknown-mode": {"mode": "complex", "rows": 1, "cols": 1, "entries": [["1"]]},
        "shape-mismatch": {"mode": "rational", "rows": 2, "cols": 2, "entries": [["1", "0"]]},
        "ragged": {"mode": "rational", "rows": 2, "cols": 2, "entries": [["1", "0"], ["1"]]},
        "not-square": {"mode": "rational", "rows": 1, "cols": 2, "entries": [["1", "0"]]},
        "bad-scalar": rat([["one", "0"], ["0", "1"]]),
        "float-overflow": flt([["1e400", 0.0], [0.0, 1.0]]),
        "missing-mode": {"rows": 1, "cols": 1, "entries": [["1"]]},
    }
    for name, payload in errors.items():
        add(f"error-{name}", ["shortest-vector"], payload)
    add("error-invalid-json", ["shortest-vector"], "{")
    add("error-nan-entry", ["reduce"], '{"mode": "float", "rows": 2, "cols": 2, '
                                       '"entries": [[NaN, 0.0], [0.0, 1.0]]}')
    identity4 = rat([["1", "0", "0", "0"], ["0", "1", "0", "0"],
                     ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    add("error-odd-h", ["invariants"],
        {"h": rat([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]), "g": 1, "r": [1]})
    add("error-r-mismatch", ["invariants"], {"h": identity4, "g": 1, "r": [1]})
    add("error-r-not-dividing", ["invariants"], {"h": identity4, "g": 1, "r": [2, 3]})
    add("error-g-negative", ["invariants"], {"h": identity4, "g": "-1", "r": [1, 1]})
    add("error-g-boolean", ["invariants"], {"h": identity4, "g": True, "r": [1, 1]})
    add("error-certify-g-min-only", ["certify", "--g-min", "1"],
        [{"h": identity4, "g": 1, "r": [1, 1]}])
    add("error-certify-mixed-sizes", ["certify"],
        [{"h": identity4, "g": 1, "r": [1, 1]}, {"h": rat([["1", "0"], ["0", "1"]]), "g": 1,
                                                 "r": [1]}])
    add("error-certify-not-a-family", ["certify"], {"h": identity4})
    add("error-torus-empty", ["certify-torus"], [])
    add("error-torus-mixed-sizes", ["certify-torus"], [identity4, rat([["1"]])])
    # appended later: spectra through every command that reads them
    for i, n in enumerate(m for m in (1, 2, 3, 4) for _ in range(2)):
        fmt = ["--format", "text"] if i % 3 == 2 else []
        add(f"spectrum-{2 * n}-{i}", ["spectrum", *fmt], _matrix_json(_gram(rng, 2 * n, i)))
    for i, n in enumerate(m for m in (1, 2, 3, 4) for _ in range(2)):
        metric = (_heis_type_metric(rng, n, i % 4 != 1, ("4", "1/4", 0.25, "1")[n - 1]) if i % 2
                  else _metric_json(rng, _gram(rng, 2 * n, i)))
        fmt = ["--format", "text"] if i % 3 == 1 else []
        add(f"heis-type-{2 * n}-{i}", ["heis-type", *fmt], metric)
    for i, n in enumerate((1, 2, 3, 4)):
        fmt = ["--format", "text"] if i == 3 else []
        add(f"curvature-bound-{2 * n}-{i}", ["curvature-bound", *fmt],
            _metric_json(rng, _gram(rng, 2 * n, i)))
    for i, n in enumerate((1, 2, 3, 4)):
        g = ("1", "4", 0.25, "1/4")[i]
        members = [_heis_type_metric(rng, n, i % 2 == 0, g) for _ in range(rng.randint(2, 5))]
        for m in members[1:]:
            m["r"] = members[0]["r"]
        if i == 1:  # a member of another spectrum: NotHeisenbergType, exit 2
            members.insert(1, _metric_json(rng, _gram(rng, 2 * n, 0)) | {"r": members[0]["r"]})
        argv = ["certify", "--heisenberg-type", "--C0", rng.choice(("1/100", "1", "2")),
                "--g-min", "1/8", "--g-max", "4"]
        if i == 2:
            argv += ["--format", "text"]
        add(f"certify-heisenberg-type-{2 * n}-{i}", argv, {"members": members})
    # appended later: a bound that --heisenberg-type derives is a usage error
    for flag in ("--C1", "--C2"):
        add(f"error-certify-heisenberg-type{flag[1:]}",
            ["certify", "--heisenberg-type", flag, "1/1000"], heis_type)
    # appended later: Z^n in badly reduced bases, and a torus family with
    # a badly reduced float member
    for n, b in ((6, 10), (4, 60)):
        gram = _matrix_json(skewed_unit_lattice(n, b, 1)[1])
        add(f"shortest-vector-skewed-{n}-{b}", ["shortest-vector"], gram)
        add(f"shortest-vector-skewed-{n}-{b}-text", ["shortest-vector", "--format", "text"], gram)
    add("certify-torus-skewed-float", ["certify-torus"],
        [rat([["1", "0"], ["0", "1"]]), flt([[3.0, 5.0], [5.0, 8.333333333333334]])])
    return cases


def _symplectic_shear(rng, n):
    """An integer symplectic matrix: a product of block shears [[I, B], [0, I]]
    and [[I, 0], [B, I]] with B symmetric, entries in {-1, 0, 1}."""
    s = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    for step in range(3):
        B = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                B[a][b] = B[b][a] = rng.choice((-1, 0, 0, 1))
        off = (0, n) if step % 2 == 0 else (n, 0)
        e = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
        for a in range(n):
            for b in range(n):
                e[off[0] + a][off[1] + b] = B[a][b]
        s = [[sum(s[i][k] * e[k][j] for k in range(2 * n)) for j in range(2 * n)]
             for i in range(2 * n)]
    return s


def _heis_type_metric(rng, n, rational, g="1"):
    """h = g^{1/2} S^T S with S integer symplectic: every d_k(h) is g^{-1/2}."""
    c = {"1": Fraction(1), "4": Fraction(2), "1/4": Fraction(1, 2), 0.25: Fraction(1, 2)}[g]
    h = _congruence([[c * int(i == j) for j in range(2 * n)] for i in range(2 * n)],
                    _symplectic_shear(rng, n))
    if not rational:
        h = [[float(x) for x in r] for r in h]
    return {"h": _matrix_json(h), "g": g, "r": rng.choice(R_TUPLES[n])}


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _ulps(a: float, b: float) -> int:
    """How many floats apart a and b are: their IEEE bits as integers that
    grow with the value, subtracted."""
    def key(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i + 2**63)
    return abs(key(a) - key(b))


def _moved_floats(old: str, new: str) -> list[tuple[str, str, int]] | None:
    """(old, new, ulps) of each float of `old` that moved in `new`, or None
    when anything but a float moved; a float is a number written with a
    point or an exponent, as ``repr`` writes one."""
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return None
    moved = []
    for x, y in zip(_NUMBER.findall(old), _NUMBER.findall(new)):
        if x != y:
            if not all(any(c in t for c in ".e") for t in (x, y)):
                return None
            moved.append((x, y, _ulps(float(x), float(y))))
    return moved


def regenerate(path=DATA):
    """Rewrite the data file, printing each case whose output it changes
    and, where only floats moved, each moved float."""
    old = {c["name"]: (c["exit"], c["stdout"]) for c in _load(path)} if os.path.exists(path) else {}
    cases = generate_cases()
    for case in cases:
        case["exit"], case["stdout"] = run_case(case["argv"], case["stdin"])
        was = old.get(case["name"])
        if was == (case["exit"], case["stdout"]):
            continue
        moved = None if was is None or was[0] != case["exit"] else (
            _moved_floats(was[1], case["stdout"]))
        if moved is None:
            print(f"changed: {case['name']} (exit code or more than floats)")
            continue
        print(f"changed: {case['name']}")
        for x, y, ulps in moved:
            print(f"    {x} -> {y}  ({ulps} ulp)")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"seed": SEED, "cases": cases}, fh, indent=1)
        fh.write("\n")
    return cases


def _load(path=DATA):
    with open(path) as fh:
        return json.load(fh)["cases"]


CASES = _load() if os.path.exists(DATA) else []


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case):
    assert run_case(case["argv"], case["stdin"]) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output_from_input_file(case, tmp_path):
    # the same payload as a UTF-8 file; stdin is empty, so reading it fails
    path = tmp_path / "payload.json"
    path.write_bytes(case["stdin"].encode())
    argv = [*case["argv"], "--input", str(path)]
    assert run_case(argv, "") == (case["exit"], case["stdout"])


def test_data_file_present():
    assert len(CASES) > 100


def test_data_matches_generator():
    # the replayed inputs are still the ones generate_cases() would write
    def inputs(cases):
        return [(c["name"], c["argv"], c["stdin"]) for c in cases]

    assert inputs(CASES) == inputs(generate_cases())


if __name__ == "__main__":
    cases = regenerate()
    print(f"wrote {len(cases)} cases to {DATA}")
