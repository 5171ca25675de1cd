"""Exact lattice computations on Gram matrices.

First minima, short-vector enumeration, membership in Minkowski's
fundamental domain and Minkowski reduction, all from one enumerator
that runs in integer arithmetic on the fraction-free LDL^T factor each
Gram matrix keeps from its construction, so first minima are
certified values in both modes.  The enumerator visits each level's
integers outward from its centre (Schnorr-Euchner order).  One search,
whose radius shrinks to each value found, gives the least vectors with
a primitive tail a_k,...,a_n: a first minimum (k = 1), each column of a
reduction and each membership condition, whose witness is the least
violator in canonical order, so a badly reduced basis costs far less
than the ellipsoid below its diagonal.  The budget counts every integer
tried.  Float mode adds a small relative slack to bounds and flags
membership reports as approximate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, truediv

from .errors import EnumerationBudgetExceeded
from .linalg import (
    FLOAT,
    RATIONAL,
    DenseMatrix,
    Scalar,
    SpdMatrix,
    _int_determinant,
    congruence,
    scalar_to_json,
)

DEFAULT_ENUMERATION_BUDGET = 10_000_000
BUDGET_ENV_VAR = "HEIS_ENUM_BUDGET"

# relative slack used for float-mode comparisons that are exact in
# rational mode
FLOAT_SLACK = 1e-9


def _enumeration_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    return int(env) if env else DEFAULT_ENUMERATION_BUDGET


@dataclass(frozen=True)
class DivisibilityTuple:
    """Positive integers r_1 | r_2 | ... | r_n."""

    r: tuple[int, ...]

    def __post_init__(self):
        r = self.r
        # a tuple of plain ints (no bool) is kept as given, with no Fraction
        if type(r) is not tuple or any(type(x) is not int for x in r):
            try:
                integral = not any(isinstance(x, bool) or x in (math.inf, -math.inf)
                                   or Fraction(x).denominator != 1 for x in r)
            except ZeroDivisionError:  # a "p/0" string
                integral = False
            if not integral:
                raise ValueError(f"divisibility tuple entries must be integers, got {r!r}")
            r = tuple(int(x) for x in r)
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
        rows = tuple(tuple(int(x) for x in r) for r in self.entries)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("unimodular matrix must be square")
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
    approximate: bool = False

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
    return (tuple(abs(x) for x in reversed(a)), tuple(reversed(a)))


def _short_vectors(Y: SpdMatrix, bound: Scalar | None, budget: int | None = None,
                   k: int = 0) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """(S, [(S Y[a], a), ...]) for the nonzero integer a with Y[a] <= bound, up to sign.

    Schnorr-Euchner enumeration (Schnorr and Euchner, *Math. Programming*
    66, 1994) on the fraction-free factor (den, Delta, lambda) that
    ``Y.integer_ldl`` keeps: with x_i = Delta_{i+1} a_i + sum_{j>i}
    lambda_ji a_j, den Y[a] = sum_i x_i^2 / (Delta_i Delta_{i+1}), so with
    P the lcm of the Delta_i Delta_{i+1} and S = P den, S Y[a] =
    sum_i W_i x_i^2 for the integer weights W_i = P / (Delta_i Delta_{i+1}).
    Each level tries its integers in order of distance from the centre
    -sum_{j>i} lambda_ji a_j / Delta_{i+1}, so the first one past the
    radius ends the level.  A bound gives every such vector; a float
    bound is inflated by FLOAT_SLACK.  With ``bound`` None it lists only
    the a whose tail a[k:] is primitive, its radius starting at Y[e_{k+1}]
    and shrinking, inclusive, to each value listed, so the values never
    increase and the list ends with every such vector of least value.
    Values are the exact integers S Y[a] in both modes.  The budget counts
    every integer tried.  Vectors have their first nonzero entry positive.
    """
    cap = _enumeration_budget(budget)
    den, minors, Lcol = Y.integer_ldl
    n = Y.n
    pairs = [minors[i] * minors[i + 1] for i in range(n)]
    P = math.lcm(*pairs)
    S = P * den
    W = [P // x for x in pairs]
    N = minors[1:]
    shrink = bound is None
    if shrink:
        bound = Y.entries[k][k]  # Y[e_{k+1}], exact in both modes
    elif Y.mode == FLOAT:
        bound = float(bound) * (1.0 + FLOAT_SLACK)
    p, q = bound.as_integer_ratio()
    top = S * p // q  # floor(S * bound); S Y[a] is an integer
    a = [0] * n
    found: list[tuple[int, tuple[int, ...]]] = []
    tried = 0

    def descend(i: int, used: int, zero_tail: bool):
        # the integers t with used + W_i (Delta_{i+1} t + C)^2 <= top, nearest
        # the centre -C / Delta_{i+1} first; up to sign, t >= 0 while the
        # tail is zero
        nonlocal top, tried
        C = sum(map(mul, Lcol[i], a[i + 1:]))
        Ni, Wi = N[i], W[i]
        if zero_tail:
            t, step = 0, 1
        else:
            t = (Ni - 2 * C) // (2 * Ni)  # round(-C / Ni)
            step = 1 if Ni * t + C <= 0 else -1  # the next nearest is across the centre
        while True:
            tried += 1
            if tried > cap:
                raise EnumerationBudgetExceeded(cap)
            x = Ni * t + C
            value = used + Wi * x * x
            if value > top:
                break
            a[i] = t
            if i and (i > k or t or not zero_tail):  # else a[k:] is zero
                descend(i - 1, value, zero_tail and t == 0)
            # k = 0 lists all; a shrinking radius finds m b only after b, below it: never
            elif (t or not zero_tail) and (not k or math.gcd(*a[k:]) == 1):
                found.append((value, _canonical_sign(tuple(a))))
                if shrink:
                    top = value
            t += step
            if not zero_tail:  # t0, t0 + 1, t0 - 1, t0 + 2, ... (or mirrored)
                step = -step - 1 if step > 0 else 1 - step
        a[i] = 0

    if top >= 0:
        descend(n - 1, 0, True)
    return S, found


def _least_tail_primitive(Y: SpdMatrix, k: int, budget: int | None
                          ) -> tuple[int, int, list[tuple[int, ...]]]:
    """(S, S m, [a, ...]): m the least Y[a] over integer a with primitive
    tail a[k:], and every a attaining it, up to sign, in canonical order."""
    S, found = _short_vectors(Y, None, budget, k)
    least = found[-1][0]
    return S, least, sorted((a for v, a in found if v == least), key=_witness_key)


def enumerate_below(Y: SpdMatrix, bound: Scalar, budget: int | None = None
                    ) -> list[tuple[int, ...]]:
    """All nonzero integer vectors a with Y[a] <= bound, up to sign.

    One representative of each pair +-a is returned (first nonzero entry
    positive), sorted canonically.  Exhaustive: the Schnorr-Euchner
    enumeration runs below the fixed bound in exact integer arithmetic
    on the kept factor in both modes, a float Y's bound inflated by a
    1e-9 relative slack.  Raises ``EnumerationBudgetExceeded`` when the
    count of integers tried passes the cap (a sign of an adversarial
    input, not of a wrong answer).
    """
    found = [a for _, a in _short_vectors(Y, bound, budget)[1]]
    found.sort(key=_witness_key)
    return found


def first_minimum(Y: SpdMatrix, budget: int | None = None) -> ShortVectorResult:
    """Minimum of Y[a] over nonzero integer vectors, with a witness.

    Schnorr-Euchner enumeration whose radius starts at y_11 and shrinks
    to each value found, inclusive, so every minimal vector is seen.
    Ties are broken by the canonical witness order (earliest-coordinate
    support, first nonzero entry positive), so results are reproducible.
    Exact for rational Y; a float Y gets the exact minimum of its
    entries, rounded once.  The budget counts every integer tried.
    """
    S, value, vectors = _least_tail_primitive(Y, 0, budget)
    return ShortVectorResult(value / S if Y.mode == FLOAT else Fraction(value, S), vectors[0])


def scale_by_divisibility(Y: SpdMatrix, r: DivisibilityTuple) -> SpdMatrix:
    """Y[delta_r] = delta_r Y delta_r, a float entry rounded once; Y itself
    (factor kept) when r = (1,...,1)."""
    return _scaled(Y, r, mul, Y.mode)


def _scaled(Y: SpdMatrix, r: DivisibilityTuple, op, mode: str) -> SpdMatrix:
    """op(y_ij, d_i d_j) of the exact entries, d = r.scaling_diagonal(), in mode;
    Y itself when r = (1,...,1)."""
    if Y.n != 2 * r.n:
        raise ValueError("Gram matrix must have size 2n for a length-n tuple")
    if r.r == (1,) * r.n:
        return Y
    d = r.scaling_diagonal()
    return SpdMatrix.from_rows([[op(Fraction(x), d[i] * d[j]) for j, x in enumerate(row)]
                                for i, row in enumerate(Y.entries)], mode)


def first_minimum_r(Y: SpdMatrix, r: DivisibilityTuple,
                    budget: int | None = None) -> ShortVectorResult:
    """Minimum of Y[delta_r a] over nonzero integer a.

    Exact for rational Y; a float Y gets the exact minimum of its entries,
    rounded once, as in ``first_minimum``: its scaled form is built
    exactly, in rational mode.
    """
    res = first_minimum(_scaled(Y, r, mul, RATIONAL), budget)
    return ShortVectorResult(float(res.value), res.witness) if Y.mode == FLOAT else res


def psi_r(Y: SpdMatrix, r: DivisibilityTuple) -> SpdMatrix:
    """delta_r^{-1} Y delta_r^{-1}, a float entry rounded once; the inverse
    of ``scale_by_divisibility``."""
    return _scaled(Y, r, truediv, Y.mode)


def minkowski_membership(Y: SpdMatrix, budget: int | None = None) -> MinkowskiReport:
    """Decide membership in Minkowski's fundamental domain.

    Conditions: y_{k,k+1} >= 0 for all k, and no integer vector a with
    gcd(a_k,...,a_n) = 1 has Y[a] < y_{k,k}.  Each k runs one
    shrinking-radius search for the least such Y[a], as each column of
    ``minkowski_reduce`` does; the witness is a least-valued violator,
    canonical order breaking ties.  Values are exact in both modes; float
    mode compares with a 1e-9 relative slack and sets ``approximate``.
    """
    approx = Y.mode == FLOAT
    for k in range(Y.n - 1):
        if Y.entries[k][k + 1] < 0:
            return MinkowskiReport(False, MinkowskiViolation(k + 1, "sign", None), approx)
    for k, ykk in enumerate(Y.diagonal()):
        S, least, (a, *_) = _least_tail_primitive(Y, k, budget)
        if Fraction(least, S) < (ykk if not approx else ykk * (1.0 - FLOAT_SLACK)):  # exact
            return MinkowskiReport(False, MinkowskiViolation(k + 1, "short_vector", a), approx)
    return MinkowskiReport(True, None, approx)


# --- extendability and basis completion -------------------------------

def _complete_basis(cols: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Columns completing an extendable prefix to a unimodular matrix.

    Diagonalizes the prefix by unimodular row and column operations
    while tracking the inverse of the row transform; the completion is
    read off its trailing columns (Hermite/Smith style completion).
    The diagonal it reaches has product +-(gcd of the k x k minors), so
    this also decides extendability: columns that are dependent, or
    whose minors share a factor, raise ``ValueError``.
    ``minkowski_reduce`` searches each next column in the basis it completes.
    """
    k = len(cols)
    if k == 0:
        return [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    M = [[cols[j][i] for j in range(k)] for i in range(n)]
    Pinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(p, q):
        M[p], M[q] = M[q], M[p]
        for row in Pinv:
            row[p], row[q] = row[q], row[p]

    def add_row(i, p, t):
        # row_i += t * row_p  on M;  col_p -= t * col_i  on Pinv
        M[i] = [x + t * y for x, y in zip(M[i], M[p])]
        for row in Pinv:
            row[p] -= t * row[i]

    for p in range(k):
        while True:
            best = None
            for i in range(p, n):
                for j in range(p, k):
                    v = abs(M[i][j])
                    if v and (best is None or v < abs(M[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                raise ValueError("columns are linearly dependent")
            bi, bj = best
            if bi != p:
                swap_rows(p, bi)
            if bj != p:
                for row in M:
                    row[p], row[bj] = row[bj], row[p]
            clean = True
            for i in range(p + 1, n):
                q = M[i][p] // M[p][p]
                if q:
                    add_row(i, p, -q)
                if M[i][p]:
                    clean = False
            for j in range(p + 1, k):
                q = M[p][j] // M[p][p]
                if q:
                    for row in M:
                        row[j] -= q * row[p]
                if M[p][j]:
                    clean = False
            if clean:
                break
    if any(abs(M[p][p]) != 1 for p in range(k)):
        raise ValueError("columns do not extend to a unimodular matrix")
    return [tuple(Pinv[i][j] for i in range(n)) for j in range(k, n)]


def minkowski_reduce(Y: SpdMatrix, budget: int | None = None
                     ) -> tuple[SpdMatrix, UnimodularMatrix]:
    """Reduce Y into Minkowski's fundamental domain.

    Greedy successive minima: the k-th column is the shortest vector
    (canonical tie-break) that keeps the prefix extendable to a basis.
    With B the prefix and its completion (``_complete_basis``), those are
    the a = B b with gcd(b_k,...,b_n) = 1, so the least of them come from
    one shrinking-radius search of the exact Y[B] with tail index k.
    This yields the domain's minimality conditions directly; a final
    diagonal +-1 transform fixes the superdiagonal signs.  Returns
    (Y[U], U) with U unimodular.
    """
    n = Y.n
    if n > 8:
        raise ValueError("reduction is only supported up to dimension 8")
    den = Y.integer_ldl[0]  # den Y[B] = B^T A B: a search compares only its own values
    A = [[int(Fraction(x) * den) for x in r] for r in Y.entries]
    cols: list[tuple[int, ...]] = []
    for k in range(n):
        B = cols + _complete_basis(cols, n)
        AB = [[sum(map(mul, r, c)) for c in B] for r in A]
        YB = SpdMatrix.from_rows([[sum(map(mul, c, d)) for d in zip(*AB)] for c in B])
        cols.append(min((_canonical_sign(tuple(sum(map(mul, row, b)) for row in zip(*B)))
                         for b in _least_tail_primitive(YB, k, budget)[2]), key=_witness_key))
    # superdiagonal sign normalization by a diagonal +-1 unimodular S:
    # entry (i, j) of Y[U0 S] is signs[i] * signs[j] times that of Y[U0],
    # so each sign is chosen from its predecessor and the raw entry
    U0 = [[cols[j][i] for j in range(n)] for i in range(n)]
    reduced = congruence(Y, DenseMatrix.from_rows(U0)).entries
    signs = [1] * n
    for k in range(1, n):
        y = reduced[k - 1][k]
        signs[k] = signs[k - 1] if y >= 0 else -signs[k - 1]
    U = [[U0[i][j] * signs[j] for j in range(n)] for i in range(n)]
    # Y[U0 S] from Y[U0]: negating every term of a sum negates its rounded
    # value, and 0 - x, like a sum, is never -0.0
    flipped = tuple(tuple(x if signs[i] == signs[j] else 0 - x for j, x in enumerate(r))
                    for i, r in enumerate(reduced))
    return SpdMatrix(DenseMatrix(flipped, Y.mode)), UnimodularMatrix(tuple(tuple(r) for r in U))
