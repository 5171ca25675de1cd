"""Precompactness certificates and verifiers for the matrix inequalities.

A certificate evaluates decidable bounds over a finite family of
representatives: the smallest first minimum, the largest determinant,
the largest top symplectic-spectrum value and the range of the central
scalar.  The verdict states whether every user-supplied threshold is
met; the compactness conclusion itself is the mathematical content the
certificate asserts and is never re-verified topologically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NotHeisenbergType,
    NotInGr,
    OddDimension,
    SameCoset,
    Singular,
)
from .heisenberg import (
    NormalizedMetric,
    _symplectic_spectra,
    _upper_cholesky,
    d_spectrum,
    is_heisenberg_type,
    symplectic_j,
)
from .lattice import DivisibilityTuple, first_minimum, first_minimum_r
from .linalg import (
    RATIONAL,
    DenseMatrix,
    Scalar,
    SpdMatrix,
    _int_determinant,
    congruence,
    determinant,
    identity,
    matrix_inverse,
    scalar_to_json,
)

INEQUALITY_SLACK = 1e-9


@dataclass(frozen=True)
class MetricFamily:
    """Finite family of normalized metrics sharing one divisibility tuple."""

    members: tuple[NormalizedMetric, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("family must be non-empty")
        r = members[0].r
        if any(m.r != r for m in members[1:]):
            raise ValueError("family members must share the divisibility tuple")
        object.__setattr__(self, "members", members)

    @property
    def r(self) -> DivisibilityTuple:
        return self.members[0].r


@dataclass(frozen=True)
class PrecompactnessCertificate:
    """Computed bounds, the thresholds they were checked against, verdict."""

    c0: Scalar | None
    c1: Scalar | None
    c2: float | None
    g_interval: tuple[Scalar, Scalar] | None
    thresholds: dict
    verdict: str
    witnesses: dict

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_json(self) -> dict:
        def opt(x):
            return None if x is None else scalar_to_json(x)

        return {
            "c0": opt(self.c0),
            "c1": opt(self.c1),
            "c2": opt(self.c2),
            "g_interval": None if self.g_interval is None
            else [scalar_to_json(v) for v in self.g_interval],
            "thresholds": {
                k: ([scalar_to_json(v) for v in t] if isinstance(t, tuple) else opt(t))
                for k, t in self.thresholds.items()
            },
            "verdict": self.verdict,
            "witnesses": dict(self.witnesses),
        }


@dataclass(frozen=True)
class InequalityReport:
    """Two sides of an inequality and whether lhs <= rhs holds (with slack)."""

    lhs: Scalar
    rhs: Scalar

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + INEQUALITY_SLACK * max(1, abs(self.rhs))

    @property
    def slack(self) -> Scalar:
        return self.rhs - self.lhs

    def to_json(self) -> dict:
        return {
            "lhs": scalar_to_json(self.lhs),
            "rhs": scalar_to_json(self.rhs),
            "holds": self.holds,
            "slack": scalar_to_json(self.slack),
        }


def _argmin(values):
    best = min(range(len(values)), key=lambda i: values[i])
    return values[best], best


def _argmax(values):
    best = max(range(len(values)), key=lambda i: values[i])
    return values[best], best


def mahler_certificate(family: Sequence[SpdMatrix], C0: Scalar | None = None,
                       C1: Scalar | None = None, budget: int | None = None
                       ) -> PrecompactnessCertificate:
    """Flat-torus certificate: first minima bounded below, determinants above."""
    family = list(family)
    if not family:
        raise ValueError("family must be non-empty")
    n = family[0].n
    if any(m.n != n for m in family):
        raise DimensionMismatch("family members of different size")
    minima = [first_minimum(Y, budget).value for Y in family]
    dets = [determinant(Y) for Y in family]
    c0, w0 = _argmin(minima)
    c1, w1 = _argmax(dets)
    ok = True
    if C0 is not None:
        ok = ok and c0 >= C0
    if C1 is not None:
        ok = ok and c1 <= C1
    return PrecompactnessCertificate(
        c0=c0,
        c1=c1,
        c2=None,
        g_interval=None,
        thresholds={"C0": C0, "C1": C1},
        verdict="certified" if ok else "not-certified",
        witnesses={"c0": w0, "c1": w1},
    )


def heisenberg_certificate(family: MetricFamily, C0: Scalar | None = None,
                           C1: Scalar | None = None, C2: Scalar | None = None,
                           I: tuple[Scalar, Scalar] | None = None,
                           budget: int | None = None) -> PrecompactnessCertificate:
    """Certificate for normalized metrics: adds the d_n bound and the g range."""
    members = family.members
    r = family.r
    minima = [first_minimum_r(m.h, r, budget).value for m in members]
    dets = [determinant(m.h) for m in members]
    dns = [d_spectrum(m.h).d_max for m in members]
    gs = [m.g for m in members]
    c0, w0 = _argmin(minima)
    c1, w1 = _argmax(dets)
    c2, w2 = _argmax(dns)
    g_lo, wg_lo = _argmin(gs)
    g_hi, wg_hi = _argmax(gs)
    ok = True
    if C0 is not None:
        ok = ok and c0 >= C0
    if C1 is not None:
        ok = ok and c1 <= C1
    if C2 is not None:
        ok = ok and c2 <= C2
    if I is not None:
        ok = ok and I[0] <= g_lo and g_hi <= I[1]
    return PrecompactnessCertificate(
        c0=c0,
        c1=c1,
        c2=c2,
        g_interval=(g_lo, g_hi),
        thresholds={"C0": C0, "C1": C1, "C2": C2, "I": I},
        verdict="certified" if ok else "not-certified",
        witnesses={"c0": w0, "c1": w1, "c2": w2, "g_interval": [wg_lo, wg_hi]},
    )


def heisenberg_type_certificate(family: MetricFamily, C0: Scalar | None = None,
                                I: tuple[Scalar, Scalar] | None = None,
                                budget: int | None = None,
                                tol: float = 1e-8) -> PrecompactnessCertificate:
    """Certificate for constant-spectrum metrics; C1 and C2 are derived.

    Each member must have all d_k(h) = g^{-1/2}; then det(h) = g^n and
    d_n(h) = g^{-1/2} identically, so only the first-minimum bound and
    the g range need checking.
    """
    members = family.members
    for idx, m in enumerate(members):
        if not is_heisenberg_type(m, tol):
            raise NotHeisenbergType(idx)
    r = family.r
    n = r.n
    minima = [first_minimum_r(m.h, r, budget).value for m in members]
    gs = [m.g for m in members]
    c0, w0 = _argmin(minima)
    g_lo, wg_lo = _argmin(gs)
    g_hi, wg_hi = _argmax(gs)
    c1 = g_hi ** n
    c2 = 1.0 / math.sqrt(float(g_lo))
    ok = True
    if C0 is not None:
        ok = ok and c0 >= C0
    if I is not None:
        ok = ok and I[0] <= g_lo and g_hi <= I[1]
    return PrecompactnessCertificate(
        c0=c0,
        c1=c1,
        c2=c2,
        g_interval=(g_lo, g_hi),
        thresholds={"C0": C0, "I": I},
        verdict="certified" if ok else "not-certified",
        witnesses={"c0": w0, "c1": wg_hi, "c2": wg_lo, "g_interval": [wg_lo, wg_hi]},
    )


def counterexample_family(k: int) -> SpdMatrix:
    """The 4x4 family with unit determinant and first minimum but growing d_2.

    Member k is the Gram matrix of the unimodular shear [[1,k],[0,1]] on
    the first two coordinates; its top spectrum value grows like k, so
    no finite d_n threshold certifies the whole family.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return SpdMatrix.from_rows(
        [
            [1, k, 0, 0],
            [k, k * k + 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ],
        RATIONAL,
    )


def counterexample_spectrum(k: int) -> tuple[float, float]:
    """Closed-form (d_1, d_2) of the k-th family member.

    d_2^2 = (k^2 + 2 + k sqrt(k^2 + 4)) / 2, and det = 1 gives d_1 = 1/d_2
    (the closed form for d_1^2 cancels catastrophically at large k).
    """
    d2 = math.sqrt((k * k + 2.0 + k * math.sqrt(k * k + 4.0)) / 2.0)
    return 1.0 / d2, d2


def _key_inequality_sides(Y: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the key inequality for stacks of Gram matrices Y and factors G.

    With Y = R^T R, the pullback G^T Y G has the factor R G, so neither
    Gram matrix of G is ever formed.
    """
    R = _upper_cholesky(Y)
    lam_max = np.linalg.eigvalsh(Y)[..., -1]
    lhs = _symplectic_spectra(G)[..., -1] / lam_max
    rhs = _symplectic_spectra(R @ G)[..., -1]
    return lhs, rhs


def verify_key_inequality(Y: SpdMatrix, G: DenseMatrix) -> InequalityReport:
    """Check d_n(G^T G) / lambda_max(Y) <= d_n(G^T Y G).

    Holds for every positive definite Y and invertible G; a failing
    report indicates an implementation bug or a tolerance breach.
    """
    if G.rows != Y.n or not G.is_square:
        raise DimensionMismatch("G must be square of the same size as Y")
    if determinant(G) == 0:
        raise Singular("G must be invertible")
    if Y.n % 2:
        raise OddDimension("symplectic spectrum requires even size")
    lhs, rhs = _key_inequality_sides(Y.to_numpy()[np.newaxis], G.to_numpy()[np.newaxis])
    return InequalityReport(float(lhs[0]), float(rhs[0]))


def _bhatia_sides(A: np.ndarray, B: np.ndarray, i1: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """s_{i1}(A) s_{N - i1 + 1}(B) and s_1(A B) for stacks of N x N factors."""
    N = A.shape[-1]
    sa = np.linalg.svd(A, compute_uv=False)
    sb = np.linalg.svd(B, compute_uv=False)
    rows = np.arange(len(i1))
    lhs = sa[rows, i1 - 1] * sb[rows, N - i1]
    rhs = np.linalg.svd(A @ B, compute_uv=False)[:, 0]
    return lhs, rhs


def verify_bhatia_k1(A: DenseMatrix, B: DenseMatrix, i1: int) -> InequalityReport:
    """Check the k = 1 singular-value product inequality.

    s_{i1}(A) * s_{N - i1 + 1}(B) <= s_1(A B) for square N x N factors.
    """
    if A.rows != B.rows or A.cols != B.cols or not A.is_square:
        raise DimensionMismatch("A and B must be square of equal size")
    if not 1 <= i1 <= A.rows:
        raise ValueError("index out of range")
    lhs, rhs = _bhatia_sides(A.to_numpy()[np.newaxis], B.to_numpy()[np.newaxis],
                             np.array([i1]))
    return InequalityReport(float(lhs[0]), float(rhs[0]))


def _in_gr(G: DenseMatrix, r: DivisibilityTuple) -> bool:
    """G in delta_r GL(2n;Z) delta_r^{-1}: conjugating back gives an integer
    matrix of determinant +-1."""
    diag = r.scaling_diagonal()
    n2 = 2 * r.n
    if G.rows != n2 or not G.is_square:
        return False
    Gq = G.to_rational()
    back = [
        [Gq.entries[i][j] * diag[j] / diag[i] for j in range(n2)]
        for i in range(n2)
    ]
    if any(x.denominator != 1 for row in back for x in row):
        return False
    return abs(_int_determinant([[int(x) for x in row] for row in back])) == 1


def representative_separation_check(G: DenseMatrix, H: DenseMatrix,
                                    r: DivisibilityTuple) -> InequalityReport:
    """Separation of coset invariants: max-norm distance of the pulled-back
    symplectic forms of two representatives is at least r_n^{-2}.

    The invariant G^{-T} J G^{-1} has entries in (1/r_n^2) Z for G in the
    scaled unimodular group, and representatives of distinct cosets have
    distinct invariants up to sign, so their distance is at least one
    grid step.
    """
    if not _in_gr(G, r):
        raise NotInGr("G is not a scaled-conjugate unimodular matrix")
    if not _in_gr(H, r):
        raise NotInGr("H is not a scaled-conjugate unimodular matrix")
    # G^{-1} H is a similitude of sign eps exactly when the two pulled-back
    # forms satisfy form(G) = eps * form(H)
    pairs = [
        (a, b)
        for ra, rb in zip(pulled_back_form(G).entries, pulled_back_form(H).entries)
        for a, b in zip(ra, rb)
    ]
    if all(a == b for a, b in pairs) or all(a == -b for a, b in pairs):
        raise SameCoset("G and H differ by a symplectic similitude")
    lhs = Fraction(1, r.r[-1] ** 2)
    return InequalityReport(lhs, max(abs(a - b) for a, b in pairs))


def pulled_back_form(G: DenseMatrix) -> DenseMatrix:
    """G^{-T} J G^{-1}, the coset invariant used by the separation check."""
    inv = matrix_inverse(G.to_rational())
    return congruence(symplectic_j(G.rows // 2, RATIONAL), inv)


# --- deterministic random generation ----------------------------------

def _elementary_symplectic_generators(n: int, rng: random.Random) -> DenseMatrix:
    """Draw one integer generator with beta^T J beta = +-J.

    The generator list is fixed: unit upper/lower symmetric shears, a
    GL(n;Z) block diag(U, U^{-T}) with U a unit transvection or a
    transposition, the form matrix J itself, and the sign-flip
    diag(Id, -Id).
    """
    kind = rng.choice(("upper", "lower", "gl", "perm", "J", "flip"))
    two_n = 2 * n
    rows = [[Fraction(1) if i == j else Fraction(0) for j in range(two_n)]
            for i in range(two_n)]
    if kind in ("upper", "lower"):
        i = rng.randrange(n)
        j = rng.randrange(n)
        t = rng.choice((-1, 1))
        if kind == "upper":  # [[I, B], [0, I]] with B symmetric
            rows[i][n + j] += t
            rows[j][n + i] += t if i != j else 0
        else:  # [[I, 0], [C, I]] with C symmetric
            rows[n + i][j] += t
            rows[n + j][i] += t if i != j else 0
    elif kind == "gl" and n > 1:
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-1, 1))
        rows[i][j] += t          # U = I + t E_ij
        rows[n + j][n + i] -= t  # U^{-T} = I - t E_ji
    elif kind == "perm" and n > 1:
        i, j = rng.sample(range(n), 2)
        for a, b in ((i, j), (n + i, n + j)):
            rows[a][a] = rows[b][b] = Fraction(0)
            rows[a][b] = rows[b][a] = Fraction(1)
    elif kind == "J":
        for i in range(two_n):
            rows[i] = [Fraction(0)] * two_n
            if i < n:
                rows[i][n + i] = Fraction(1)
            else:
                rows[i][i - n] = Fraction(-1)
    elif kind == "flip":
        for i in range(n, two_n):
            rows[i][i] = Fraction(-1)
    # "gl"/"perm" with n == 1 fall through to the identity, a valid draw
    return DenseMatrix.from_rows(rows, RATIONAL)


def random_symplectic_integer(n: int, seed: int, steps: int) -> DenseMatrix:
    """Deterministic product of `steps` integer symplectic-similitude generators.

    The output always passes ``symplectic_similitude_check``; every draw
    is replayable from the seed.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rng = random.Random(seed)
    result = identity(2 * n, RATIONAL)
    for _ in range(steps):
        result = result @ _elementary_symplectic_generators(n, rng)
    return result


def _draw_invertible(out: np.ndarray, rng: random.Random, bound: float = 10.0) -> None:
    """Fill the square array `out` with entries in [-bound, bound], redrawing
    the whole matrix until |det| > 1e-3 so it stays away from singular."""
    dim = out.shape[0]
    while True:
        out[:] = [[rng.uniform(-bound, bound) for _ in range(dim)] for _ in range(dim)]
        if abs(np.linalg.det(out)) > 1e-3:
            return


@dataclass(frozen=True)
class SweepResult:
    total: int
    held: int
    worst_slack: float

    @property
    def all_hold(self) -> bool:
        return self.held == self.total


def _sweep_result(lhs: np.ndarray, rhs: np.ndarray) -> SweepResult:
    """Tally the rule of ``InequalityReport`` over stacks of both sides."""
    holds = lhs <= rhs + INEQUALITY_SLACK * np.maximum(1.0, np.abs(rhs))
    slack = rhs - lhs
    return SweepResult(len(lhs), int(holds.sum()), float(slack.min(initial=math.inf)))


def _check_sweep_size(dim: int, samples: int) -> None:
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if dim < 1:
        raise ValueError("dimension must be at least 1")


def key_inequality_sweep(dim: int, samples: int, seed: int) -> SweepResult:
    """Seeded random sweep of the key inequality in one even dimension.

    Every sample is drawn first, in a fixed order (the factor B of the
    Gram matrix Y = B^T B, then G), and all of them are checked as one
    stack.
    """
    _check_sweep_size(dim, samples)
    if dim % 2:
        raise ValueError("dimension must be even")
    rng = random.Random(seed)
    B = np.empty((samples, dim, dim))
    G = np.empty((samples, dim, dim))
    for i in range(samples):
        _draw_invertible(B[i], rng, math.sqrt(10.0 / dim))
        _draw_invertible(G[i], rng)
    return _sweep_result(*_key_inequality_sides(np.swapaxes(B, -1, -2) @ B, G))


def bhatia_sweep(dim: int, samples: int, seed: int) -> SweepResult:
    """Seeded random sweep of the k = 1 singular-value inequality.

    Every sample (A, then B, then the index i1) is drawn first, and all
    of them are checked as one stack.
    """
    _check_sweep_size(dim, samples)
    rng = random.Random(seed)
    A = np.empty((samples, dim, dim))
    B = np.empty((samples, dim, dim))
    i1 = np.empty(samples, dtype=int)
    for i in range(samples):
        _draw_invertible(A[i], rng)
        _draw_invertible(B[i], rng)
        i1[i] = rng.randrange(1, dim + 1)
    return _sweep_result(*_bhatia_sides(A, B, i1))
