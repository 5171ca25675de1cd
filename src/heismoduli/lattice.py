"""Exact lattice computations on Gram matrices.

First minima, short-vector enumeration, membership in Minkowski's
fundamental domain and Minkowski reduction, all from one enumerator
that runs in integer arithmetic on the fraction-free LDL^T factor each
Gram matrix keeps from its construction, so first minima are
certified values in both modes.  Float mode adds a small relative
slack to bounds and flags membership reports as approximate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import EnumerationBudgetExceeded
from .linalg import (
    FLOAT,
    RATIONAL,
    DenseMatrix,
    Scalar,
    SpdMatrix,
    _int_determinant,
    congruence,
    quadratic_form,
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
        try:
            integral = not any(isinstance(x, bool) or x in (math.inf, -math.inf)
                               or Fraction(x).denominator != 1 for x in self.r)
        except ZeroDivisionError:  # a "p/0" string
            integral = False
        if not integral:
            raise ValueError(f"divisibility tuple entries must be integers, got {self.r!r}")
        r = tuple(int(x) for x in self.r)
        if not r or any(x <= 0 for x in r):
            raise ValueError("divisibility tuple entries must be positive")
        if any(r[i + 1] % r[i] for i in range(len(r) - 1)):
            raise ValueError("each entry must divide the next")
        object.__setattr__(self, "r", r)

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


def _short_vectors(Y: SpdMatrix, bound: Scalar, budget: int | None = None
                   ) -> list[tuple[Fraction, tuple[int, ...]]]:
    """(Y[a], a) for every nonzero integer a with Y[a] <= bound, up to sign.

    Fincke-Pohst enumeration on the fraction-free factor (den, Delta,
    lambda) that ``Y.integer_ldl`` keeps: with x_i = Delta_{i+1} a_i + sum_{j>i}
    lambda_ji a_j, den Y[a] = sum_i x_i^2 / (Delta_i Delta_{i+1}), so with
    P the lcm of the Delta_i Delta_{i+1} and S = P den, S Y[a] =
    sum_i W_i x_i^2 for the integer weights W_i = P / (Delta_i Delta_{i+1}).
    Y[a] is exact in both modes; a float bound is inflated by FLOAT_SLACK.
    Vectors have their first nonzero entry positive and come in no fixed
    order.
    """
    cap = _enumeration_budget(budget)
    if Y.mode == FLOAT:
        bound = float(bound) * (1.0 + FLOAT_SLACK)
    den, minors, Lcol = Y.integer_ldl
    n = Y.n
    pairs = [minors[i] * minors[i + 1] for i in range(n)]
    P = math.lcm(*pairs)
    S = P * den
    W = [P // x for x in pairs]
    N = minors[1:]
    p, q = bound.as_integer_ratio()
    top = S * p // q  # floor(S * bound); S Y[a] is an integer
    a = [0] * n
    found: list[tuple[Fraction, tuple[int, ...]]] = []
    visited = 0

    def descend(i: int, R: int, zero_tail: bool):
        # the integers t with W_i (Delta_{i+1} t + C)^2 <= R
        nonlocal visited
        C = sum(x * y for x, y in zip(Lcol[i], a[i + 1:]))
        r, Ni = math.isqrt(R // W[i]), N[i]
        lo = 0 if zero_tail else -((r + C) // Ni)
        hi = (r - C) // Ni
        visited += hi - lo + 1  # never negative: hi - lo >= floor(2r / Ni) - 1
        if visited > cap:
            raise EnumerationBudgetExceeded(cap)
        for t in range(lo, hi + 1):
            a[i] = t
            x = Ni * t + C
            if i:
                descend(i - 1, R - W[i] * x * x, zero_tail and t == 0)
            elif t or not zero_tail:
                found.append((Fraction(top - R + W[0] * x * x, S), _canonical_sign(tuple(a))))
        a[i] = 0

    if top >= 0:
        descend(n - 1, top, True)
    return found


def enumerate_below(Y: SpdMatrix, bound: Scalar, budget: int | None = None
                    ) -> list[tuple[int, ...]]:
    """All nonzero integer vectors a with Y[a] <= bound, up to sign.

    One representative of each pair +-a is returned (first nonzero entry
    positive), sorted canonically.  Exhaustive: the enumeration runs in
    exact integer arithmetic on the kept factor in both modes, a float
    Y's bound inflated by a 1e-9 relative slack.  Raises
    ``EnumerationBudgetExceeded`` when the candidate count passes the
    cap (a sign of an adversarial input, not of a wrong answer).
    """
    found = [a for _, a in _short_vectors(Y, bound, budget)]
    found.sort(key=_witness_key)
    return found


def first_minimum(Y: SpdMatrix, budget: int | None = None) -> ShortVectorResult:
    """Minimum of Y[a] over nonzero integer vectors, with a witness.

    Ties are broken by the canonical witness order (earliest-coordinate
    support, first nonzero entry positive), so results are reproducible.
    Exact for rational Y; a float Y gets the correctly rounded minimum.
    """
    value, witness = min(_short_vectors(Y, min(Y.diagonal()), budget),
                         key=lambda va: (va[0], _witness_key(va[1])))
    return ShortVectorResult(float(value) if Y.mode == FLOAT else value, witness)


def scale_by_divisibility(Y: SpdMatrix, r: DivisibilityTuple) -> SpdMatrix:
    """Y[delta_r] = delta_r Y delta_r; Y itself (factor kept) when r = (1,...,1)."""
    diag = r.scaling_diagonal()
    if Y.n != 2 * r.n:
        raise ValueError("Gram matrix must have size 2n for a length-n tuple")
    if r.r == (1,) * r.n:
        return Y
    rows = [
        [Y.entries[i][j] * diag[i] * diag[j] for j in range(Y.n)]
        for i in range(Y.n)
    ]
    return SpdMatrix.from_rows(rows, Y.mode)


def first_minimum_r(Y: SpdMatrix, r: DivisibilityTuple,
                    budget: int | None = None) -> ShortVectorResult:
    """Minimum of Y[delta_r a] over nonzero integer a."""
    return first_minimum(scale_by_divisibility(Y, r), budget)


def psi_r(Y: SpdMatrix, r: DivisibilityTuple) -> SpdMatrix:
    """delta_r^{-1} Y delta_r^{-1}; inverse scaling of the form."""
    diag = r.scaling_diagonal()
    if Y.n != 2 * r.n:
        raise ValueError("Gram matrix must have size 2n for a length-n tuple")
    # Fraction / int is exact, so one expression serves both modes
    rows = [
        [Y.entries[i][j] / (diag[i] * diag[j]) for j in range(Y.n)]
        for i in range(Y.n)
    ]
    return SpdMatrix.from_rows(rows, Y.mode)


def minkowski_membership(Y: SpdMatrix, budget: int | None = None) -> MinkowskiReport:
    """Decide membership in Minkowski's fundamental domain.

    Conditions: y_{k,k+1} >= 0 for all k, and no integer vector a with
    gcd(a_k,...,a_n) = 1 has Y[a] < y_{k,k}.  Each k scans the vectors
    below y_{k,k} in canonical order, enumerating anew only when y_{k,k}
    exceeds every earlier one.  Values are exact in both modes; float mode
    compares with a 1e-9 relative slack and sets ``approximate``.
    """
    approx = Y.mode == FLOAT
    for k in range(Y.n - 1):
        if Y.entries[k][k + 1] < 0:
            return MinkowskiReport(False, MinkowskiViolation(k + 1, "sign", None), approx)
    bound = 0
    for k, ykk in enumerate(Y.diagonal()):
        if ykk > bound:
            bound = ykk
            candidates = sorted(_short_vectors(Y, bound, budget), key=lambda va: _witness_key(va[1]))
        threshold = ykk if not approx else ykk * (1.0 - FLOAT_SLACK)
        for value, a in candidates:
            if value < threshold and math.gcd(*a[k:]) == 1:
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
    (canonical tie-break) that keeps the prefix extendable to a basis,
    as ``_complete_basis`` decides; the completion it returns bounds the
    next column's search.  This yields the domain's minimality conditions
    directly; a final diagonal +-1 transform fixes the superdiagonal
    signs.  Returns (Y[U], U) with U unimodular.
    """
    n = Y.n
    if n > 8:
        raise ValueError("reduction is only supported up to dimension 8")
    cols: list[tuple[int, ...]] = []
    completion = _complete_basis(cols, n)
    for _ in range(n):
        cap = min(quadratic_form(Y, c) for c in completion)
        candidates = sorted(_short_vectors(Y, cap, budget),
                            key=lambda va: (va[0], _witness_key(va[1])))
        for _, a in candidates:
            try:
                completion = _complete_basis(cols + [a], n)
            except ValueError:  # a does not extend the prefix
                continue
            cols.append(a)
            break
        else:  # pragma: no cover - a completion column is always a candidate
            raise AssertionError("no extendable candidate found")
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
