"""Exact lattice computations on Gram matrices.

First minima, scaled minima m_r, short-vector enumeration, membership
in Minkowski's fundamental domain and Minkowski reduction, all from one
enumerator that runs in integer arithmetic on a fraction-free LDL^T
factor, so first minima are certified values in both modes.  Searches
read factors, never matrices: the one each Gram matrix keeps from its
construction, delta_r Y delta_r's read off Y's (m_r), or that of a
reduction column's integer Gram matrix; the layer builds an
``SpdMatrix`` only to return it.  A first minimum whose factor has y_11
as its least pivot is (y_11, e_1) and needs no search.  The enumerator
visits each level's integers outward from its centre (Schnorr-Euchner
order).  One search, whose radius shrinks to each value found, gives
the least vectors with a primitive tail a_k,...,a_n: a first minimum
(k = 1), each column of a reduction, searched in one basis carried from
column to column, and each membership condition, whose witness is the
least violator in canonical order, so a badly reduced basis costs far
less than the ellipsoid below its diagonal.  The search runs as
straight-line code, one nested loop per coordinate, generated the first
time each number of coordinates (at most 20) is searched.  The budget
counts every integer tried, its cap fixed once where a public call
begins.  A float is the dyadic rational it holds, so every answer is
exact on the given entries in both modes.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import EnumerationBudgetExceeded
from .linalg import (
    RATIONAL,
    DenseMatrix,
    Scalar,
    SpdMatrix,
    _compiled,
    _int_determinant,
    _integer_ldl,
    _python_int,
    _python_scalar,
    _ratio,
    _scaled_ldl,
    _tuple,
    scalar_to_json,
)

DEFAULT_ENUMERATION_BUDGET = 10_000_000
BUDGET_ENV_VAR = "HEIS_ENUM_BUDGET"


def _enumeration_budget(budget: int | None) -> int:
    """The cap on integers tried: budget, or when it is None the
    ``HEIS_ENUM_BUDGET`` environment value, else the default.  Either must
    be a nonnegative integer, a numpy integer counting as its int; a bool,
    any other value or a negative one raises ``ValueError``.  Each public
    call runs this once, where it begins, whether or not a search follows;
    no other function reads the environment."""
    what = "enumeration budget"
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        if not env:
            return DEFAULT_ENUMERATION_BUDGET
        what = BUDGET_ENV_VAR
        try:
            budget = int(env)
        except ValueError:  # refused below, by its text
            budget = env
    cap = _python_int(budget)
    if cap is None or cap < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {budget!r}")
    return cap


def _integers(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints, each value's exact ``Fraction`` (so "4/2"
    is 2); a tuple of plain ints (no bool) is kept as given.  A bool or a
    value that is not an integer raises ``ValueError``."""
    if type(values) is tuple and all(type(x) is int for x in values):
        return values
    try:  # _python_scalar refuses a bool, numpy's too
        exact = [None if x in (math.inf, -math.inf) else Fraction(x)
                 for x in map(_python_scalar, values)]
    except (ValueError, TypeError, ZeroDivisionError):  # a bool, no number, or "p/0"
        exact = [None]
    if any(q is None or q.denominator != 1 for q in exact):
        raise ValueError(f"{what} must be integers, got {values!r}")
    return tuple(int(q) for q in exact)


@dataclass(frozen=True)
class DivisibilityTuple:
    """Positive integers r_1 | r_2 | ... | r_n."""

    r: tuple[int, ...]

    def __post_init__(self):
        r = _integers(self.r, "divisibility tuple entries")
        object.__setattr__(self, "r", r)
        if not r or any(x <= 0 for x in r):
            raise ValueError("divisibility tuple entries must be positive")
        if any(r[i + 1] % r[i] for i in range(len(r) - 1)):
            raise ValueError("each entry must divide the next")

    @property
    def n(self) -> int:
        return len(self.r)

    def scaling_diagonal(self) -> tuple[int, ...]:
        """Diagonal of the 2n x 2n scaling matrix: (r_1..r_n, 1..1)."""
        return self.r + (1,) * self.n

    @staticmethod
    def ones(n: int) -> "DivisibilityTuple":
        return DivisibilityTuple((1,) * n)


@dataclass(frozen=True)
class ShortVectorResult:
    """First minimum of a Gram matrix together with an attaining vector."""

    value: Scalar
    witness: tuple[int, ...]

    def to_json(self) -> dict:
        return {"value": scalar_to_json(self.value), "witness": list(self.witness)}


@dataclass(frozen=True)
class UnimodularMatrix:
    """Integer matrix with determinant +1 or -1."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(_integers(r, "unimodular matrix entries") for r in self.entries)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("unimodular matrix must be square and nonempty")
        if abs(_int_determinant(list(rows))) != 1:
            raise ValueError("determinant is not +-1")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def matrix(self) -> DenseMatrix:
        return DenseMatrix.from_rows(self.entries, RATIONAL)

    def determinant(self) -> int:
        return _int_determinant(list(self.entries))


@dataclass(frozen=True)
class MinkowskiViolation:
    k: int
    kind: str  # "sign" or "short_vector"
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class MinkowskiReport:
    member: bool
    violation: MinkowskiViolation | None

    @property
    def violated_condition(self):
        if self.violation is None:
            return None
        return (self.violation.k, self.violation.witness)


def _canonical_sign(a: tuple[int, ...]) -> tuple[int, ...]:
    for x in a:
        if x:
            return a if x > 0 else tuple(-y for y in a)
    return a


def _witness_key(a: tuple[int, ...]):
    # Prefer vectors supported on the earliest coordinates: compare the
    # absolute entries from the last coordinate backwards, then break
    # remaining ties on the signed entries.
    r = a[::-1]
    return tuple(map(abs, r)), r


def _short_vectors(factor, bound: Scalar | None, cap: int,
                   k: int = 0) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """(S, [(S Y[a], a), ...]) for the nonzero integer a with Y[a] <= bound, up to sign.

    Schnorr-Euchner enumeration (Schnorr and Euchner, *Math. Programming*
    66, 1994) on Y's fraction-free factor (den, Delta, lambda), as
    ``linalg._integer_ldl`` returns it: with x_i = Delta_{i+1} a_i +
    sum_{j>i} lambda_ji a_j, den Y[a] = sum_i x_i^2 / (Delta_i Delta_{i+1}),
    so with P the lcm of the Delta_i Delta_{i+1} and S = P den, S Y[a] =
    sum_i W_i x_i^2 for the integer weights W_i = P / (Delta_i Delta_{i+1}).
    Each level tries its integers in order of distance from the centre
    -sum_{j>i} lambda_ji a_j / Delta_{i+1}, so the first one past the
    radius ends the level.  A bound, taken exactly through its
    ``as_integer_ratio()``, gives every such vector.  With ``bound`` None it
    lists only the a whose tail a[k:] is primitive, its radius starting at
    S Y[e_{k+1}] = W_k Delta_{k+1}^2 + sum_{i<k} W_i lambda_ki^2 and
    shrinking, inclusive, to each value listed, so the values never
    increase and the list ends with every such vector of least value.
    Values are the exact integers S Y[a] in both modes.  The int cap counts
    every integer tried.  Vectors have their first nonzero entry positive.
    The search runs in ``_search_kernel(n)``, straight-line code with one
    loop per level, generated for each number n of coordinates the first
    time it is searched, so a node makes no call and its state is held in
    locals.  More than ``_SEARCH_LIMIT`` (20) coordinates raise
    ``ValueError``.
    """
    return _search_kernel(len(factor[2]))(factor, bound, cap, k)


_SEARCH_LIMIT = 20  # Python compiles at most 20 statically nested loops


@functools.cache
def _search_kernel(n: int):
    """``_short_vectors`` on n coordinates as straight-line code: one
    ``while`` loop per level, nested n deep with level n - 1 outermost.
    Every piece of state is a local: at level i the integer t{i}, its next
    step s{i}, the flag z{i} that a[i+1:] is zero, the centre's numerator
    c{i}, a straight-line sum over the fixed tail, and the partial value
    v{i}.  Up to sign, t{i} >= 0 while the tail is zero, so the outermost
    level counts up from 0; below it, a nonzero tail starts each level
    at round(-c{i} / Delta_{i+1}) and alternates outward."""
    if n > _SEARCH_LIMIT:
        raise ValueError(f"a lattice search takes at most {_SEARCH_LIMIT} coordinates, got {n}")
    top_level = n - 1
    lines = ["def kernel(factor, bound, cap, k):",
             "    den, minors, columns = factor",
             f"    {', '.join(f'm{i}' for i in range(n + 1))}, = minors"]
    lines += [f"    {', '.join(f'l{i}_{j}' for j in range(i + 1, n))}, = columns[{i}]"
              for i in range(top_level)]
    lines += [f"    p{i} = m{i} * m{i + 1}" for i in range(n)]
    lines.append(f"    P = lcm({', '.join(f'p{i}' for i in range(n))})")
    lines += [f"    w{i} = P // p{i}" for i in range(n)]
    lines += ["    S = P * den", "    shrink = bound is None", "    if shrink:"]
    for j in range(n):  # S Y[e_{j+1}]: x_j = Delta_{j+1}, x_i = lambda_ji for i < j
        start = " + ".join([f"w{j} * m{j + 1} * m{j + 1}"]
                           + [f"w{i} * l{i}_{j} * l{i}_{j}" for i in range(j)])
        lines += [f"        {'el' if j else ''}if k == {j}:", f"            top = {start}"]
    lines += ["    else:", "        p, q = bound.as_integer_ratio()",
              "        top = S * p // q  # floor(S bound); S Y[a] is an integer",
              "    found = []", "    tried = 0", "    if top < 0:", "        return S, found"]

    def level(i: int, ind: str):
        # the integers t{i} with v{i+1} + w{i} (Delta_{i+1} t{i} + c{i})^2 <= top,
        # nearest the centre -c{i} / Delta_{i+1} first
        outer = i == top_level  # a zero tail: t{i} = 0, 1, 2, ..., up to sign
        if outer:
            lines.append(f"{ind}t{i} = 0")
            x, used, nonzero = f"m{i + 1} * t{i}", "", f"t{i}"
        else:
            zero_tail = f"z{i + 1} and not t{i + 1}" if i + 1 < top_level else f"not t{i + 1}"
            centre = " + ".join(f"l{i}_{j} * t{j}" for j in range(i + 1, n))
            lines.extend(f"{ind}{line}" for line in (
                f"z{i} = {zero_tail}", f"if z{i}:", f"    t{i}, s{i}, c{i} = 0, 1, 0", "else:",
                f"    c{i} = {centre}",
                f"    t{i} = (m{i + 1} - 2 * c{i}) // (2 * m{i + 1})  # round(-c{i} / m{i + 1})",
                # the next nearest is across the centre
                f"    s{i} = 1 if m{i + 1} * t{i} + c{i} <= 0 else -1"))
            x, used, nonzero = f"m{i + 1} * t{i} + c{i}", f"v{i + 1} + ", f"t{i} or not z{i}"
        lines.extend(f"{ind}{line}" for line in (
            "while True:", "    tried += 1", "    if tried > cap:",
            "        raise EnumerationBudgetExceeded(cap)",
            f"    x = {x}", f"    v{i} = {used}w{i} * x * x", f"    if v{i} > top:", "        break"))
        if i:
            lines.append(f"{ind}    if {i} > k or {nonzero}:  # else a[k:] is zero")
            level(i - 1, ind + "        ")
        else:  # k = 0 lists all; a shrinking radius finds m b only after b, below it: never
            lines.extend(f"{ind}    {line}" for line in (
                f"if {nonzero}:", f"    a = {_tuple(f't{j}' for j in range(n))}",
                "    if not k or gcd(*a[k:]) == 1:",
                "        found.append((v0, _canonical_sign(a)))",
                "        if shrink:", "            top = v0"))
        if outer:
            lines.append(f"{ind}    t{i} += 1")
        else:  # t0, t0 + 1, t0 - 1, t0 + 2, ... (or mirrored)
            lines.extend(f"{ind}    {line}" for line in (
                f"t{i} += s{i}", f"if not z{i}:", f"    s{i} = -s{i} - 1 if s{i} > 0 else 1 - s{i}"))

    level(top_level, "    ")
    lines.append("    return S, found")
    return _compiled("\n".join(lines), f"<search {n}>", lcm=math.lcm, gcd=math.gcd,
                     EnumerationBudgetExceeded=EnumerationBudgetExceeded,
                     _canonical_sign=_canonical_sign)


def _least_tail_primitive(factor, k: int, cap: int) -> tuple[int, int, list[tuple[int, ...]]]:
    """(S, S m, [a, ...]): m the least Y[a] over integer a with primitive
    tail a[k:], Y given by its factor, and every a attaining it, up to
    sign, in canonical order."""
    S, found = _short_vectors(factor, None, cap, k)
    least = found[-1][0]
    vectors = [a for v, a in found if v == least]
    if len(vectors) > 1:
        vectors.sort(key=_witness_key)
    return S, least, vectors


def enumerate_below(Y: SpdMatrix, bound: Scalar, budget: int | None = None
                    ) -> list[tuple[int, ...]]:
    """All nonzero integer vectors a with Y[a] <= bound, up to sign.

    One representative of each pair +-a is returned (first nonzero entry
    positive), sorted canonically.  Exhaustive: the Schnorr-Euchner
    enumeration runs below the fixed bound in exact integer arithmetic
    on the kept factor in both modes.  A NaN, infinite or bool bound
    raises ``ValueError``.  Raises ``EnumerationBudgetExceeded`` when the
    count of integers tried passes the cap (a sign of an adversarial
    input, not of a wrong answer).
    """
    bound = _python_scalar(bound)
    if not -math.inf < bound < math.inf:  # NaN fails both comparisons
        raise ValueError(f"bound must be finite, got {bound!r}")
    found = [a for _, a in _short_vectors(Y.integer_ldl, bound, _enumeration_budget(budget))[1]]
    found.sort(key=_witness_key)
    return found


def _first_minimum(factor, mode: str, cap: int) -> ShortVectorResult:
    """``first_minimum`` of the factor's Gram matrix under the int cap, its
    value the exact minimum divided out once in mode (``linalg._ratio``)."""
    den, minors, _ = factor
    n = len(minors) - 1
    m1 = minors[1]
    div = _ratio(mode, "first minimum")
    if all(m1 * minors[m] <= minors[m + 1] for m in range(1, n)):
        return ShortVectorResult(div(m1, den), (1,) + (0,) * (n - 1))
    S, value, vectors = _least_tail_primitive(factor, 0, cap)
    return ShortVectorResult(div(value, S), vectors[0])


def first_minimum(Y: SpdMatrix, budget: int | None = None) -> ShortVectorResult:
    """Minimum of Y[a] over nonzero integer vectors, with a witness.

    When y_11 = d_1 is the least pivot of the kept LDL^T factor, the
    answer is (y_11, e_1) and no integer is tried: with a_m the last
    nonzero entry of a, Y[a] >= d_m a_m^2 >= min d = y_11, and e_1 comes
    first in the canonical order.  On the integer minors that test reads
    minors[1] minors[m] <= minors[m+1] for every m.  Otherwise a
    Schnorr-Euchner enumeration runs, its radius starting at y_11 and
    shrinking to each value found, inclusive, so every minimal vector is
    seen.  Ties are broken by the canonical witness order
    (earliest-coordinate support, first nonzero entry positive), so
    results are reproducible.  Exact for rational Y; a float Y gets the
    exact minimum of its entries, rounded once.  The budget counts every
    integer tried by an enumeration.
    """
    return _first_minimum(Y.integer_ldl, Y.mode, _enumeration_budget(budget))


def _scaling_diagonal(Y: SpdMatrix, r: DivisibilityTuple) -> tuple[int, ...] | None:
    """``r.scaling_diagonal()``, or None when r = (1,...,1); ``ValueError``
    unless Y is 2n x 2n for the length n of r."""
    if Y.n != 2 * r.n:
        raise ValueError("Gram matrix must have size 2n for a length-n tuple")
    return None if r.r == (1,) * r.n else r.scaling_diagonal()


def first_minimum_r(Y: SpdMatrix, r: DivisibilityTuple,
                    budget: int | None = None) -> ShortVectorResult:
    """Minimum of Y[delta_r a] over nonzero integer a: the first minimum of
    delta_r Y delta_r, with a witness, as ``first_minimum`` gives it.

    The search reads delta_r Y delta_r's fraction-free factor off the one
    Y keeps (``linalg._scaled_ldl``), so no matrix is built and nothing is
    factored.  Exact for rational Y; a float Y gets the exact minimum of
    its entries, rounded once.
    """
    d = _scaling_diagonal(Y, r)
    factor = Y.integer_ldl if d is None else _scaled_ldl(Y.integer_ldl, d)
    return _first_minimum(factor, Y.mode, _enumeration_budget(budget))


def psi_r(Y: SpdMatrix, r: DivisibilityTuple) -> SpdMatrix:
    """delta_r^{-1} Y delta_r^{-1}, each entry y_ij / (d_i d_j) exact and a
    float entry rounded once; Y itself when r = (1,...,1).  Its m_r is
    the first minimum of Y."""
    d = _scaling_diagonal(Y, r)
    if d is None:
        return Y
    return SpdMatrix.from_rows([[Fraction(x) / (d[i] * d[j]) for j, x in enumerate(row)]
                                for i, row in enumerate(Y.entries)], Y.mode)


def minkowski_membership(Y: SpdMatrix, budget: int | None = None) -> MinkowskiReport:
    """Decide membership in Minkowski's fundamental domain.

    Conditions: y_{k,k+1} >= 0 for all k, and no integer vector a with
    gcd(a_k,...,a_n) = 1 has Y[a] < y_{k,k}.  Each k runs one
    shrinking-radius search for the least such Y[a], as each column of
    ``minkowski_reduce`` does; the witness is a least-valued violator,
    canonical order breaking ties.  Exact on the given entries in both
    modes.  A bad budget is refused even where a sign condition fails.
    """
    cap = _enumeration_budget(budget)
    for k in range(Y.n - 1):
        if Y.entries[k][k + 1] < 0:
            return MinkowskiReport(False, MinkowskiViolation(k + 1, "sign", None))
    for k, ykk in enumerate(Y.diagonal()):
        S, least, (a, *_) = _least_tail_primitive(Y.integer_ldl, k, cap)
        if Fraction(least, S) < ykk:  # exact, a float ykk too
            return MinkowskiReport(False, MinkowskiViolation(k + 1, "short_vector", a))
    return MinkowskiReport(True, None)


# --- basis completion ---------------------------------------------------

def _unimodular_with_first_column(v: tuple[int, ...]) -> list[list[int]]:
    """Rows of a unimodular V whose first column is the primitive v.

    Folds v from its last entry to (+-1, 0, ..., 0): at entries i, i+1
    the extended-Euclid step (x, y) -> (d, 0), s x + t y = d, whose
    inverse [[x/d, -t], [y/d, s]] is applied to columns i, i+1 of V,
    starting at the identity, so V w = v for the folded w throughout.
    A fold onto -1 negates the first column.
    """
    m = len(v)
    V = [[int(i == j) for j in range(m)] for i in range(m)]
    d = v[-1]
    for i in range(m - 2, -1, -1):
        x, y = v[i], d
        if not y:  # (x, 0) is folded already
            d = x
            continue
        s, t, r, u, d, e = 1, 0, 0, 1, x, y  # s x + t y = d, r x + u y = e
        while e:
            q = d // e
            s, t, r, u, d, e = r, u, s - q * r, t - q * u, e, d - q * e
        for row in V:
            row[i], row[i + 1] = (row[i] * x + row[i + 1] * y) // d, row[i + 1] * s - row[i] * t
    if d < 0:
        for row in V:
            row[0] = -row[0]
    return V


def _pullback(A: list[list[int]], B: list[tuple[int, ...]]) -> list[list[int]]:
    """B^T A B for an integer matrix A and the integer columns B."""
    AB = [[sum(map(mul, r, c)) for c in B] for r in A]
    return [[sum(map(mul, c, d)) for d in zip(*AB)] for c in B]


def minkowski_reduce(Y: SpdMatrix, budget: int | None = None
                     ) -> tuple[SpdMatrix, UnimodularMatrix]:
    """Reduce Y into Minkowski's fundamental domain.

    Greedy successive minima: the k-th column is the shortest vector
    (canonical tie-break) that keeps the prefix extendable to a basis.
    With B a basis whose first columns are the prefix, those are the
    a = B b with gcd(b_k,...,b_n) = 1, so the least of them come from
    one shrinking-radius search with tail index k on the factor of the
    integer matrix den Y[B].
    That set is the same for every such B, so one B is carried from the
    identity: after each column, B <- B [[I_k, b[:k], 0], [0, V]] with V
    unimodular of first column b[k:] (``_unimodular_with_first_column``).
    This yields the domain's minimality conditions directly; a final
    diagonal +-1 transform fixes the superdiagonal signs.  Returns
    (Y[U], U) with U unimodular; Y[U] is the integer den Y[U] divided by
    den once per entry, so a float entry is rounded once.
    """
    n = Y.n
    if n > 8:
        raise ValueError("reduction is only supported up to dimension 8")
    cap = _enumeration_budget(budget)
    den = Y.integer_ldl[0]  # den Y[B] = B^T A B: a search compares only its own values
    A = [[int(Fraction(x) * den) for x in r] for r in Y.entries]
    B = [tuple(int(i == j) for i in range(n)) for j in range(n)]  # columns, carried
    for k in range(n):
        found = []
        for b in _least_tail_primitive(_integer_ldl(_pullback(A, B)), k, cap)[2]:
            a = tuple(sum(map(mul, row, b)) for row in zip(*B))
            if next(x for x in a if x) < 0:  # a made canonical, b negated with it
                a, b = tuple(-x for x in a), tuple(-x for x in b)
            found.append((_witness_key(a), a, b))
        _, a, b = min(found)
        # B <- B T, T = [[I_k, b[:k], 0], [0, V]]: column k becomes a = B b
        tail = list(zip(*B[k:]))
        B[k:] = [a] + [tuple(sum(map(mul, row, v)) for row in tail)
                       for v in list(zip(*_unimodular_with_first_column(b[k:])))[1:]]
    # superdiagonal sign normalization by a diagonal +-1 unimodular S:
    # entry (i, j) of den Y[B S] is signs[i] * signs[j] times that of den Y[B],
    # so each sign is chosen from its predecessor and the raw entry
    M = _pullback(A, B)
    signs = [1] * n
    for k in range(1, n):
        signs[k] = signs[k - 1] if M[k - 1][k] >= 0 else -signs[k - 1]
    # rounded once in float mode; an integer 0 gives 0.0, never -0.0
    div = _ratio(Y.mode, "reduced entry")
    R = [[div(signs[i] * signs[j] * x, den) for j, x in enumerate(r)] for i, r in enumerate(M)]
    U = tuple(tuple(c[i] * s for c, s in zip(B, signs)) for i in range(n))
    return SpdMatrix.from_rows(R, Y.mode), UnimodularMatrix(U)
