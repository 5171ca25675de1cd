"""Exact lattice computations on Gram matrices.

First minima, short-vector enumeration, membership in Minkowski's
fundamental domain and Minkowski reduction.  In rational mode the
enumeration interval bounds are derived exactly from the LDL^T pivots,
so first minima are certified values; float mode applies a small
relative slack and flags membership reports as approximate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import EnumerationBudgetExceeded
from .linalg import (
    FLOAT,
    RATIONAL,
    DenseMatrix,
    Scalar,
    SpdMatrix,
    _int_determinant,
    congruence,
    ldl_decompose,
    quadratic_form,
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
        from .linalg import scalar_to_json

        return {"value": scalar_to_json(self.value), "witness": list(self.witness)}


@dataclass(frozen=True)
class UnimodularMatrix:
    """Integer matrix with determinant +1 or -1."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.entries)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("unimodular matrix must be square")
        if abs(_int_determinant(rows)) != 1:
            raise ValueError("determinant is not +-1")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def matrix(self) -> DenseMatrix:
        return DenseMatrix.from_rows(self.entries, RATIONAL)

    def determinant(self) -> int:
        return _int_determinant(self.entries)


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


def _int_interval(c: Scalar, Q: Scalar) -> tuple[int, int]:
    """Integers t with (t + c)^2 <= Q, as an inclusive (lo, hi) range.

    The float square root only seeds the endpoints; both are then fixed
    up with exact comparisons, so the range is correct in rational mode.
    """
    if Q < 0:
        return (0, -1)
    root = math.sqrt(float(Q))
    cf = float(c)
    lo = math.ceil(-root - cf) - 2
    hi = math.floor(root - cf) + 2
    while lo <= hi and (lo + c) * (lo + c) > Q:
        lo += 1
    while hi >= lo and (hi + c) * (hi + c) > Q:
        hi -= 1
    return (lo, hi)


def enumerate_below(Y: SpdMatrix, bound: Scalar, budget: int | None = None
                    ) -> list[tuple[int, ...]]:
    """All nonzero integer vectors a with Y[a] <= bound, up to sign.

    One representative of each pair +-a is returned (first nonzero entry
    positive), sorted canonically.  Exhaustive in rational mode; float
    mode inflates the bound by a 1e-9 relative slack.  Raises
    ``EnumerationBudgetExceeded`` when the candidate count passes the
    cap (a sign of an adversarial input, not of a wrong answer).
    """
    cap = _enumeration_budget(budget)
    L, d = ldl_decompose(Y)
    n = Y.n
    if Y.mode == FLOAT:
        bound = float(bound) * (1.0 + FLOAT_SLACK)
    else:
        bound = Fraction(bound)
    # Y[a] = sum_i d_i (a_i + c_i)^2 with c_i = sum_{j>i} L[j][i] a_j,
    # so coordinates are chosen from the last to the first.
    Lcol = [[L.entries[j][i] for j in range(n)] for i in range(n)]
    a = [0] * n
    found: list[tuple[int, ...]] = []
    visited = 0

    def descend(i: int, remaining: Scalar, zero_tail: bool):
        nonlocal visited
        c = sum(Lcol[i][j] * a[j] for j in range(i + 1, n))
        lo, hi = _int_interval(c, remaining / d[i])
        if zero_tail:
            lo = max(lo, 0)
        for t in range(lo, hi + 1):
            visited += 1
            if visited > cap:
                raise EnumerationBudgetExceeded(cap)
            a[i] = t
            zt = zero_tail and t == 0
            if i == 0:
                if not zt:
                    found.append(_canonical_sign(tuple(a)))
            else:
                step = c + t
                descend(i - 1, remaining - d[i] * step * step, zt)
        a[i] = 0

    descend(n - 1, bound, True)
    found.sort(key=_witness_key)
    return found


def first_minimum(Y: SpdMatrix, budget: int | None = None) -> ShortVectorResult:
    """Minimum of Y[a] over nonzero integer vectors, with a witness.

    Ties are broken by the canonical witness order (earliest-coordinate
    support, first nonzero entry positive), so results are reproducible.
    """
    start = min(Y.diagonal())
    best_value = None
    best_witness = None
    for a in enumerate_below(Y, start, budget):
        v = quadratic_form(Y, a)
        if best_value is None or v < best_value:
            best_value, best_witness = v, a
    return ShortVectorResult(best_value, best_witness)


def scale_by_divisibility(Y: SpdMatrix, r: DivisibilityTuple) -> SpdMatrix:
    """Y[delta_r] = delta_r Y delta_r for the diagonal scaling delta_r."""
    diag = r.scaling_diagonal()
    if Y.n != 2 * r.n:
        raise ValueError("Gram matrix must have size 2n for a length-n tuple")
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
    gcd(a_k,...,a_n) = 1 has Y[a] < y_{k,k}.  The universally quantified
    condition is decided by enumerating below the diagonal entry; exact
    in rational mode, with a 1e-9 relative slack (and an ``approximate``
    flag) in float mode.
    """
    n = Y.n
    approx = Y.mode == FLOAT
    for k in range(n - 1):
        if Y.entries[k][k + 1] < 0:
            return MinkowskiReport(False, MinkowskiViolation(k + 1, "sign", None), approx)
    for k in range(n):
        ykk = Y.entries[k][k]
        threshold = ykk if not approx else ykk * (1.0 - FLOAT_SLACK)
        for a in enumerate_below(Y, ykk, budget):
            if quadratic_form(Y, a) < threshold and math.gcd(*(abs(x) for x in a[k:])) == 1:
                return MinkowskiReport(False, MinkowskiViolation(k + 1, "short_vector", a), approx)
    return MinkowskiReport(True, None, approx)


# --- extendability and basis completion -------------------------------

def _extendable(cols: list[tuple[int, ...]]) -> bool:
    """True if the given columns extend to a basis of Z^n.

    Equivalent to the gcd of all maximal minors of the n x k column
    matrix being 1.
    """
    k = len(cols)
    n = len(cols[0])
    g = 0
    for rows in combinations(range(n), k):
        sub = [[cols[j][i] for j in range(k)] for i in rows]
        g = math.gcd(g, _int_determinant(sub))
        if g == 1:
            return True
    return False


def _complete_basis(cols: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Columns completing an extendable prefix to a unimodular matrix.

    Diagonalizes the prefix by unimodular row and column operations
    while tracking the inverse of the row transform; the completion is
    read off its trailing columns (Hermite/Smith style completion).
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
    which yields the domain's minimality conditions directly; a final
    diagonal +-1 transform fixes the superdiagonal signs.  Returns
    (Y[U], U) with U unimodular.
    """
    n = Y.n
    if n > 8:
        raise ValueError("reduction is only supported up to dimension 8")
    cols: list[tuple[int, ...]] = []
    for _ in range(n):
        completion = _complete_basis(cols, n)
        cap = min(quadratic_form(Y, c) for c in completion)
        candidates = enumerate_below(Y, cap, budget)
        candidates.sort(key=lambda a: (quadratic_form(Y, a), _witness_key(a)))
        for a in candidates:
            if _extendable(cols + [a]):
                cols.append(a)
                break
        else:  # pragma: no cover - a completion column is always a candidate
            raise AssertionError("no extendable candidate found")
    # superdiagonal sign normalization by a diagonal +-1 unimodular:
    # the final (k-1, k) entry is signs[k-1] * signs[k] * y, so each sign
    # is chosen from its predecessor and the raw entry
    U0 = [[cols[j][i] for j in range(n)] for i in range(n)]
    reduced = congruence(Y, DenseMatrix.from_rows(U0))
    signs = [1] * n
    for k in range(1, n):
        y = reduced.entries[k - 1][k]
        signs[k] = signs[k - 1] if y >= 0 else -signs[k - 1]
    U = [[U0[i][j] * signs[j] for j in range(n)] for i in range(n)]
    Um = UnimodularMatrix(tuple(tuple(r) for r in U))
    reduced_spd = SpdMatrix(congruence(Y, Um.matrix()))
    return reduced_spd, Um
