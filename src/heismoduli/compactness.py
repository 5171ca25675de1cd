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
re-verified topologically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    _is_heisenberg_spectrum,
    _symplectic_spectra,
    _tolerance,
    _upper_factors,
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
    minima = [first_minimum(Y, budget).value for Y in family]
    dets = [determinant(Y) for Y in family]
    return _certificate({"C0": C0, "C1": C1},
                        [("c0", minima, min, C0), ("c1", dets, max, C1)])


def heisenberg_certificate(family: MetricFamily, C0: Scalar | None = None,
                           C1: Scalar | None = None, C2: Scalar | None = None,
                           I: tuple[Scalar, Scalar] | None = None,
                           budget: int | None = None) -> PrecompactnessCertificate:
    """Certificate for normalized metrics: adds the d_n bound and the g range."""
    members = family.members
    r = family.r
    minima = [first_minimum_r(m.h, r, budget).value for m in members]
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
    r = family.r
    n = r.n
    minima = [first_minimum_r(m.h, r, budget).value for m in members]
    dets = [m.g ** n for m in members]
    dns = [1.0 / math.sqrt(float(m.g)) for m in members]
    return _certificate({"C0": C0, "I": I}, [
        ("c0", minima, min, C0), ("c1", dets, max, None), ("c2", dns, max, None),
        *_g_rows(members, I),
    ])


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


def _key_inequality_sides(Y: np.ndarray, F: np.ndarray, G: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the key inequality for stacks of Y = F^T F and factors G.

    F is any invertible factor of Y.  The pullback G^T Y G has the factor
    F G, so neither Gram matrix of G is ever formed.
    """
    lam_max = np.linalg.eigvalsh(Y)[..., -1]
    lhs = _symplectic_spectra(G)[..., -1] / lam_max
    rhs = _symplectic_spectra(F @ G)[..., -1]
    return lhs, rhs


def verify_key_inequality(Y: SpdMatrix, G: DenseMatrix) -> InequalityReport:
    """Check d_n(G^T G) / lambda_max(Y) <= d_n(G^T Y G).

    Holds for every positive definite Y and invertible G; a failing
    report indicates an implementation bug or a tolerance breach.  Y is
    factored as in ``d_spectrum``, so every ``SpdMatrix`` is accepted.
    """
    if G.rows != Y.n or not G.is_square:
        raise DimensionMismatch("G must be square of the same size as Y")
    if determinant(G) == 0:
        raise Singular("G must be invertible")
    if Y.n % 2:
        raise OddDimension("symplectic spectrum requires even size")
    lhs, rhs = _key_inequality_sides(Y.to_numpy(), _upper_factors([Y])[0], G.to_numpy())
    return InequalityReport(float(lhs), float(rhs))


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
    is replayable from the seed.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rng = random.Random(seed)
    result = identity(2 * n, RATIONAL)
    for _ in range(steps):
        result = result @ _elementary_symplectic_generators(n, rng)
    return result


# samples laid out per pass of _draw_samples: a redraw repeats at most this
# many samples' conversion, and the pass's temporary arrays stay small
_DRAW_WINDOW = 256


def _words(rng: random.Random, n: int) -> np.ndarray:
    """The generator's next n 32-bit outputs, in order.

    Word i of ``getrandbits(32 n)``, counted from the least significant
    end, is the i-th output on either byte order, so these are the words
    that ``random()`` and ``getrandbits(k <= 32)`` would read one by one.
    """
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4")


def _draw_samples(rng: random.Random, dim: int, samples: int,
                  bounds: Sequence[float], index: bool = False
                  ) -> tuple[list[np.ndarray], np.ndarray]:
    """The sweeps' samples, exactly as ``rng`` draws them one value at a time.

    A sample is one dim x dim matrix per bound b, with entries
    ``rng.uniform(-b, b)`` row by row, each matrix redrawn while
    |det| <= 1e-3; then, when `index` is set, ``rng.randrange(1, dim + 1)``.
    The words are fetched in bulk and turned into values by CPython's own
    operations: ``random()`` is ((w0 >> 5) * 2^26 + (w1 >> 6)) / 2^53,
    ``uniform(a, b)`` is a + (b - a) * random(), and each ``randrange``
    try keeps the top bits of one word, rejected while they reach dim.

    Up to ``_DRAW_WINDOW`` of the remaining samples are laid out as if
    nothing is redrawn and their determinants taken as one stack.  The
    matrices before the first small determinant are kept, and the layout
    resumes from the word just after the rejected matrix.  Returns one
    (samples, dim, dim) stack per bound and the (samples,) array of
    indices, left unset without `index`.
    """
    fields = len(bounds)
    per = 2 * dim * dim  # words per matrix, two per uniform()
    stride = fields * per  # matrix words per sample
    shift = 32 - dim.bit_length()
    b = np.array(bounds)[:, None]
    span = b - -b  # uniform(-b, b) is -b + (b - -b) * random()
    out = np.empty((samples * fields, dim, dim))
    picks = np.empty(samples, dtype=int)
    # a randrange takes at most two tries per sample on average; one
    # spare sample's words cover a redraw or two
    words = _words(rng, samples * (stride + 3 * index) + stride)
    i, f, s = 0, 0, 0  # first sample not done, its first field not done, its start word
    while i < samples:
        m = min(samples - i, _DRAW_WINDOW)
        if index:
            starts, drawn = np.empty(m, dtype=np.intp), np.empty(m, dtype=int)
            for k in range(m):
                t = s + stride
                while t >= len(words) or words.item(t) >> shift >= dim:
                    if t < len(words):
                        t += 1
                    else:
                        words = np.concatenate((words, _words(rng, (m - k) * (stride + 3))))
                starts[k], drawn[k], s = s, 1 + (words.item(t) >> shift), t + 1
            # row p of this view is words[p:p + stride]; every start is below
            # a kept try, so its row lies inside the buffer
            w = as_strided(words, (len(words) - stride + 1, stride), words.strides * 2,
                           writeable=False)[starts]
        else:
            starts = s + stride * np.arange(m)
            if s + m * stride > len(words):
                words = np.concatenate((words, _words(rng, s + m * stride - len(words))))
            w = words[s:s + m * stride]
            s += m * stride
        w = w.reshape(m, fields, per)
        u = (w[..., 0::2] >> 5) * 67108864.0
        u += w[..., 1::2] >> 6
        u *= 1.0 / 9007199254740992.0
        u *= span
        u -= b  # the same IEEE sum as -b + u
        mats = u.reshape(m * fields, dim, dim)
        bad = np.abs(np.linalg.det(mats)) <= 1e-3
        bad[:f] = False  # fields of sample i kept by an earlier pass
        hits = np.flatnonzero(bad)
        first = int(hits[0]) if len(hits) else m * fields
        out[i * fields + f:i * fields + first] = mats[f:first]
        if index:
            picks[i:i + first // fields] = drawn[:first // fields]
        if first == m * fields:
            i, f = i + m, 0
        else:
            # the rejected matrix's field now starts one matrix later
            k, f = divmod(first, fields)
            i, s = i + k, int(starts[k]) + per
    return list(out.reshape(samples, fields, dim, dim).swapaxes(0, 1)), picks


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

    Every sample is drawn first and all of them are checked as one stack.
    The samples are exactly those of ``random.Random(seed)`` called in
    order: per sample the factor B of the Gram matrix Y = B^T B, entries
    ``uniform(-b, b)`` row by row with b = sqrt(10 / dim), then G with
    entries ``uniform(-10, 10)``, each matrix redrawn while |det| <= 1e-3.
    The generator's words are read in bulk, not one call per entry, and
    B serves as Y's factor, so Y is never factored.
    """
    _check_sweep_size(dim, samples)
    if dim % 2:
        raise ValueError("dimension must be even")
    (B, G), _ = _draw_samples(random.Random(seed), dim, samples,
                              (math.sqrt(10.0 / dim), 10.0))
    return _sweep_result(*_key_inequality_sides(np.swapaxes(B, -1, -2) @ B, B, G))


def bhatia_sweep(dim: int, samples: int, seed: int) -> SweepResult:
    """Seeded random sweep of the k = 1 singular-value inequality.

    Every sample is drawn first and all of them are checked as one stack.
    The samples are exactly those of ``random.Random(seed)`` called in
    order: per sample A, then B, entries ``uniform(-10, 10)`` row by row,
    each matrix redrawn while |det| <= 1e-3, then the index
    i1 = ``randrange(1, dim + 1)``.  The generator's words are read in
    bulk, not one call per entry.
    """
    _check_sweep_size(dim, samples)
    (A, B), i1 = _draw_samples(random.Random(seed), dim, samples, (10.0, 10.0),
                               index=True)
    return _sweep_result(*_bhatia_sides(A, B, i1))
