"""Precompactness certificates and verifiers for the matrix inequalities.

A certificate evaluates decidable bounds over a finite family of
representatives: the smallest first minimum, the largest determinant,
the largest top symplectic-spectrum value and the range of the central
scalar.  One table of checks drives the torus, Heisenberg and
Heisenberg-type certificates alike: a row per bound, each with its
per-member values, the side (min or max) that picks the extreme and its
witness, and the threshold.  The verdict states whether every
user-supplied threshold is met; the compactness conclusion itself is
the mathematical content the certificate asserts and is never
re-verified topologically.  A ``budget`` caps each member's search
and is resolved once per family (``lattice._enumeration_budget``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    _d_spectra,
    _float_g,
    _is_heisenberg_spectrum,
    _tolerance,
    symplectic_j,
)
from .lattice import DivisibilityTuple, _enumeration_budget, first_minimum, first_minimum_r
from .linalg import (
    RATIONAL,
    DenseMatrix,
    Scalar,
    SpdMatrix,
    _int_determinant,
    _python_int,
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


def _certificate(thresholds: dict, rows) -> PrecompactnessCertificate:
    """Reduce a family to a verdict: one row of the table per bound.

    A row is (field, per-member values, side, threshold).  The side, min
    or max, picks the extreme value and its witness, the first member on
    ties (a Fraction and a float compare exactly, so a mixed row is
    decided as by its exact values); the extreme certifies when it is at
    least (min) or at most (max) the threshold, and a threshold of None
    checks nothing.  The fields are c0, c1, c2, and g_lo and g_hi, which
    form the g interval.
    """
    found, witnesses, ok = {}, {}, True
    for field, values, side, threshold in rows:
        w = side(range(len(values)), key=values.__getitem__)
        found[field], witnesses[field] = values[w], w
        if threshold is not None:
            ok = ok and (values[w] >= threshold if side is min else values[w] <= threshold)
    g_interval = None
    if "g_lo" in found:
        g_interval = (found["g_lo"], found["g_hi"])
        witnesses["g_interval"] = [witnesses.pop("g_lo"), witnesses.pop("g_hi")]
    return PrecompactnessCertificate(
        c0=found["c0"],
        c1=found["c1"],
        c2=found.get("c2"),
        g_interval=g_interval,
        thresholds=thresholds,
        verdict="certified" if ok else "not-certified",
        witnesses=witnesses,
    )


def _g_rows(members, I):
    """The rows of the central scalar's range, checked against I."""
    gs = [m.g for m in members]
    lo, hi = (None, None) if I is None else I
    return [("g_lo", gs, min, lo), ("g_hi", gs, max, hi)]


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
    cap = _enumeration_budget(budget)
    minima = [first_minimum(Y, cap).value for Y in family]
    dets = [determinant(Y) for Y in family]
    return _certificate({"C0": C0, "C1": C1},
                        [("c0", minima, min, C0), ("c1", dets, max, C1)])


def heisenberg_certificate(family: MetricFamily, C0: Scalar | None = None,
                           C1: Scalar | None = None, C2: Scalar | None = None,
                           I: tuple[Scalar, Scalar] | None = None,
                           budget: int | None = None) -> PrecompactnessCertificate:
    """Certificate for normalized metrics: adds the d_n bound and the g range."""
    members = family.members
    cap = _enumeration_budget(budget)
    minima = [first_minimum_r(m.h, family.r, cap).value for m in members]
    dets = [determinant(m.h) for m in members]
    dns = [s.d_max for s in _d_spectra([m.h for m in members])]
    return _certificate({"C0": C0, "C1": C1, "C2": C2, "I": I}, [
        ("c0", minima, min, C0), ("c1", dets, max, C1), ("c2", dns, max, C2),
        *_g_rows(members, I),
    ])


def heisenberg_type_certificate(family: MetricFamily, C0: Scalar | None = None,
                                I: tuple[Scalar, Scalar] | None = None,
                                budget: int | None = None,
                                tol: float = 1e-8) -> PrecompactnessCertificate:
    """Certificate for constant-spectrum metrics; C1 and C2 are derived.

    Each member must have all d_k(h) = g^{-1/2}; then det(h) = g^n and
    d_n(h) = g^{-1/2} identically, so only the first-minimum bound and
    the g range need checking.  The c1 and c2 rows hold these values of
    det(h) and d_n(h), so c1 = (max g)^n is witnessed by a member of
    largest g, and c2 = (min g)^{-1/2} by a member of least g.  tol is
    the relative tolerance of the spectrum check, finite and nonnegative.
    """
    _tolerance(tol)
    members = family.members
    spectra = _d_spectra([m.h for m in members])
    for idx, (m, spectrum) in enumerate(zip(members, spectra)):
        if not _is_heisenberg_spectrum(spectrum, m.g, tol):
            raise NotHeisenbergType(idx)
    cap = _enumeration_budget(budget)
    minima = [first_minimum_r(m.h, family.r, cap).value for m in members]
    dets = [m.g ** family.r.n for m in members]
    dns = [1.0 / math.sqrt(_float_g(m.g)) for m in members]
    return _certificate({"C0": C0, "I": I}, [
        ("c0", minima, min, C0), ("c1", dets, max, None), ("c2", dns, max, None),
        *_g_rows(members, I),
    ])


def counterexample_family(k: int) -> SpdMatrix:
    """The 4x4 family with unit determinant and first minimum but growing d_2.

    Member k is the Gram matrix of the unimodular shear [[1,k],[0,1]] on
    the first two coordinates; its top spectrum value grows like k, so
    no finite d_n threshold certifies the whole family.  k is an integer
    (``_sweep_sizes``), at least 0.
    """
    (k,) = _sweep_sizes(k=(k, None))
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


def verify_key_inequality(Y: SpdMatrix, G: DenseMatrix) -> InequalityReport:
    """Check d_n(G^T G) / lambda_max(Y) <= d_n(G^T Y G).

    Holds for every positive definite Y and invertible G; a failing
    report indicates an implementation bug or a tolerance breach.  Y is
    factored as in ``d_spectrum``, so every ``SpdMatrix`` is accepted.
    Both sides come from ``_arrays._key_inequality_sides`` on stacks of
    one, as in ``key_inequality_sweep``: each d_n from the top
    eigenvalue of a scaled Gram matrix, within a relative 8 * 2n * eps
    of the SVD's top singular value, and no SVD.  A broken eigenvalue
    pair raises ``PairingFailure``, and a d_n past the float range
    (G^T G near 10^-308) ``OverflowError``.
    """
    if G.rows != Y.n or not G.is_square:
        raise DimensionMismatch("G must be square of the same size as Y")
    if determinant(G) == 0:
        raise Singular("G must be invertible")
    if Y.n % 2:
        raise OddDimension("symplectic spectrum requires even size")
    from . import _arrays
    return InequalityReport(*_arrays._key_inequality(Y, G))


def verify_bhatia_k1(A: DenseMatrix, B: DenseMatrix, i1: int) -> InequalityReport:
    """Check the k = 1 singular-value product inequality.

    s_{i1}(A) * s_{N - i1 + 1}(B) <= s_1(A B) for square N x N factors.
    Both sides come from ``_arrays._bhatia_sides`` on stacks of one: the
    lhs from the singular values of A and B (one ``svd``), the rhs from
    the top eigenvalue of the Gram matrix of A B scaled by its largest
    |entry| (one ``eigvalsh``), within a relative N^2 eps of A B's top
    singular value and finite wherever that is.  i1 is an integer
    (``_sweep_sizes``); a side past the float range raises ``OverflowError``.
    """
    if A.rows != B.rows or A.cols != B.cols or not A.is_square:
        raise DimensionMismatch("A and B must be square of equal size")
    (i1,) = _sweep_sizes(index=(i1, None))
    if not 1 <= i1 <= A.rows:
        raise ValueError("index out of range")
    from . import _arrays
    return InequalityReport(*_arrays._bhatia_k1(A, B, i1))


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
    rows = [[int(i == j) for j in range(two_n)] for i in range(two_n)]
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
            rows[a][a] = rows[b][b] = 0
            rows[a][b] = rows[b][a] = 1
    elif kind == "J":
        return symplectic_j(n)
    elif kind == "flip":
        for i in range(n, two_n):
            rows[i][i] = -1
    # "gl"/"perm" with n == 1 fall through to the identity, a valid draw
    return DenseMatrix.from_rows(rows, RATIONAL)


def random_symplectic_integer(n: int, seed: int, steps: int) -> DenseMatrix:
    """Deterministic product of `steps` integer symplectic-similitude generators.

    The output always passes ``symplectic_similitude_check``; every draw
    is replayable from the seed.  n, seed and steps are integers
    (``_sweep_sizes``), steps at least 0.
    """
    n, seed, steps = _sweep_sizes(n=(n, None), seed=(seed, None), steps=(steps, 0))
    rng = random.Random(seed)
    result = identity(2 * n, RATIONAL)
    for _ in range(steps):
        result = result @ _elementary_symplectic_generators(n, rng)
    return result


@dataclass(frozen=True)
class SweepResult:
    total: int
    held: int
    worst_slack: float

    @property
    def all_hold(self) -> bool:
        return self.held == self.total


def _sweep_result(lhs, rhs) -> SweepResult:
    """Tally the rule of ``InequalityReport`` over stacks of both sides
    (``_arrays._tally``)."""
    from . import _arrays
    return SweepResult(*_arrays._tally(lhs, rhs, INEQUALITY_SLACK))


def _sweep_sizes(**values: tuple) -> tuple[int, ...]:
    """The sizes and seeds of a seeded draw as Python ints, in order.

    Each keyword names a pair (value, least), least the smallest value
    allowed, or None for any integer.  A numpy integer counts as the int
    it holds (``linalg._python_int``); a bool (numpy's too), any value that
    is not an integer, or one below its least raises ``ValueError``.
    """
    out = []
    for what, (value, least) in values.items():
        number = _python_int(value)
        if number is None:
            raise ValueError(f"{what} must be an integer, got {value!r}")
        if least is not None and number < least:
            raise ValueError(f"{what} must be at least {least}")
        out.append(number)
    return tuple(out)


def key_inequality_sweep(dim: int, samples: int, seed: int) -> SweepResult:
    """Seeded random sweep of the key inequality in one even dimension.

    Every sample is drawn first and all of them are checked as one stack.
    The samples are exactly those of ``random.Random(seed)`` called in
    order: per sample the factor B of the Gram matrix Y = B^T B, entries
    ``uniform(-b, b)`` row by row with b = sqrt(10 / dim), then G with
    entries ``uniform(-10, 10)``, each matrix redrawn while |det| <= 1e-3.
    The generator's words are read in bulk, not one call per entry, and
    B serves as Y's factor, so Y is never factored (``_arrays._key_sweep``).
    The stack is checked by ``_arrays._key_inequality_sides``, as in
    ``verify_key_inequality``: one ``eigvalsh`` of every Y gives
    lambda_max(Y), and one ``eigvalsh`` of the scaled Gram matrices of
    the skew matrices of every G and every B G gives each d_n.  An odd
    dimension raises ``OddDimension``.
    """
    samples, dim, seed = _sweep_sizes(samples=(samples, 1), dimension=(dim, 1),
                                      seed=(seed, None))
    if dim % 2:
        raise OddDimension("symplectic spectrum requires even size")
    from . import _arrays
    return _sweep_result(*_arrays._key_sweep(dim, samples, seed))


def bhatia_sweep(dim: int, samples: int, seed: int) -> SweepResult:
    """Seeded random sweep of the k = 1 singular-value inequality.

    Every sample is drawn first and all of them are checked as one stack.
    The samples are exactly those of ``random.Random(seed)`` called in
    order: per sample A, then B, entries ``uniform(-10, 10)`` row by row,
    each matrix redrawn while |det| <= 1e-3, then the index
    i1 = ``randrange(1, dim + 1)``.  The generator's words are read in
    bulk, not one call per entry.  The stack is checked by
    ``_arrays._bhatia_sides``: one ``svd`` of every A and B gives each
    lhs, and one ``eigvalsh`` of the scaled Gram matrices of the products
    A B each rhs, as in ``verify_bhatia_k1``.
    """
    samples, dim, seed = _sweep_sizes(samples=(samples, 1), dimension=(dim, 1),
                                      seed=(seed, None))
    from . import _arrays
    return _sweep_result(*_arrays._bhatia_sweep(dim, samples, seed))
