"""The Heisenberg group, its Lie algebra, and metric invariants.

Group elements are written g(x, y, s) with x, y in R^n and s in R; the
algebra carries the standard basis (X_1..X_n, Y_1..Y_n, Z) and splits
as R^{2n} + center.  A normalized metric is a pair (h, g): a Gram
matrix h on the horizontal R^{2n} and a scalar g > 0 on the center.
The symplectic spectrum d_1 <= ... <= d_n of a Gram matrix Y collects
the positive numbers with +-i d_k the eigenvalues of Y^{-1} J; it is
invariant under congruence by symplectic similitudes and drives the
curvature bound and the Heisenberg-type test.  The spectra are float by
nature: they are computed in ``_arrays``, loaded when the first one is
asked for.  Everything else here, the Kaplan matrix and curvatures
included, is exact and rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    NotOrthonormal,
    NotSimilitude,
    OddDimension,
    Singular,
    UnsupportedPlane,
)
from .lattice import DivisibilityTuple
from .linalg import (
    FLOAT,
    RATIONAL,
    DenseMatrix,
    Scalar,
    SpdMatrix,
    _coerce_rows,
    _json_list,
    _python_scalar,
    _scalar_parser,
    congruence,
    determinant,
    matrix_from_json,
    matrix_inverse,
    matrix_to_json,
    max_norm,
    scalar_to_json,
)

SIMILITUDE_TOL = 1e-9
ORTHONORMAL_TOL = 1e-9


def _scalar_from_json(v, scalars: dict | None = None) -> Scalar:
    """A JSON scalar: strings and integers are exact, anything else float;
    a string is parsed through the payload's table ``scalars``."""
    return _scalar_parser(scalars, RATIONAL if isinstance(v, (str, int)) else FLOAT)(v)


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))  # an empty sum stays exact


@dataclass(frozen=True)
class _Coordinates:
    """Coordinates (x, y, s) in one scalar mode: all floats if any of them
    is a float, else all Fractions (``linalg._coerce_rows``)."""

    x: tuple[Scalar, ...]
    y: tuple[Scalar, ...]
    s: Scalar

    def __post_init__(self):
        (x, y, (s,)), _ = _coerce_rows((self.x, self.y, (self.s,)), None)
        if len(x) != len(y):
            raise DimensionMismatch("x and y must have equal length")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class HeisenbergElement(_Coordinates):
    """Group element g(x, y, s)."""

    @staticmethod
    def identity(n: int) -> "HeisenbergElement":
        return HeisenbergElement((0,) * n, (0,) * n, 0)

    def to_json(self) -> dict:
        return {
            "x": [scalar_to_json(v) for v in self.x],
            "y": [scalar_to_json(v) for v in self.y],
            "s": scalar_to_json(self.s),
        }

    @staticmethod
    def from_json(obj: dict) -> "HeisenbergElement":
        return HeisenbergElement(
            tuple(_scalar_from_json(v) for v in _json_list(obj["x"], "x")),
            tuple(_scalar_from_json(v) for v in _json_list(obj["y"], "y")),
            _scalar_from_json(obj["s"]),
        )


@dataclass(frozen=True)
class LieAlgebraVector(_Coordinates):
    """Algebra element X(x, y, s) in the standard basis."""

    def horizontal(self) -> tuple[Scalar, ...]:
        return self.x + self.y


def group_mul(p: HeisenbergElement, q: HeisenbergElement) -> HeisenbergElement:
    """g(x,y,s) * g(x',y',s') = g(x+x', y+y', s+s'+<x,y'>)."""
    if p.n != q.n:
        raise DimensionMismatch("group elements of different dimension")
    x = tuple(a + b for a, b in zip(p.x, q.x))
    y = tuple(a + b for a, b in zip(p.y, q.y))
    return HeisenbergElement(x, y, p.s + q.s + _dot(p.x, q.y))


def group_inv(p: HeisenbergElement) -> HeisenbergElement:
    """g(x,y,s)^{-1} = g(-x, -y, -s + <x,y>)."""
    return HeisenbergElement(
        tuple(-a for a in p.x), tuple(-a for a in p.y), -p.s + _dot(p.x, p.y)
    )


def exp_map(v: LieAlgebraVector) -> HeisenbergElement:
    """exp X(x,y,s) = g(x, y, s + <x,y>/2)."""
    return HeisenbergElement(v.x, v.y, v.s + _dot(v.x, v.y) / 2)


def log_map(p: HeisenbergElement) -> LieAlgebraVector:
    """log g(x,y,s) = X(x, y, s - <x,y>/2)."""
    return LieAlgebraVector(p.x, p.y, p.s - _dot(p.x, p.y) / 2)


def bracket(v: LieAlgebraVector, w: LieAlgebraVector) -> LieAlgebraVector:
    """[v, w] = X(0, 0, A(v, w)) with A the standard symplectic form."""
    if v.n != w.n:
        raise DimensionMismatch("algebra vectors of different dimension")
    zero = (0,) * v.n
    return LieAlgebraVector(zero, zero, _dot(v.x, w.y) - _dot(v.y, w.x))


def symplectic_j(n: int, mode: str = RATIONAL) -> DenseMatrix:
    return DenseMatrix.from_rows([[(j == i + n) - (i == j + n) for j in range(2 * n)]
                                  for i in range(2 * n)], mode)


def symplectic_similitude_check(beta: DenseMatrix) -> int | None:
    """Return +1 if beta^T J beta = J, -1 if it equals -J, None otherwise.

    Entrywise exact in rational mode; 1e-9 relative in float mode.
    """
    if not beta.is_square:
        raise OddDimension("matrix must be square of even size")
    if beta.rows % 2:
        raise OddDimension("matrix size must be even")
    J = symplectic_j(beta.rows // 2, beta.mode)
    product = congruence(J, beta)
    tol = 0 if beta.mode == RATIONAL else SIMILITUDE_TOL * max(1.0, max_norm(product))
    pairs = [(p, j) for rp, rj in zip(product.entries, J.entries) for p, j in zip(rp, rj)]
    for eps in (1, -1):
        if all(abs(p - eps * j) <= tol for p, j in pairs):
            return eps
    return None


@dataclass(frozen=True)
class AutomorphismDescriptor:
    """Automorphism data: scaling a, shear w, similitude beta of sign epsilon."""

    a: Scalar
    w: tuple[Scalar, ...]
    beta: DenseMatrix
    epsilon: int

    def __post_init__(self):
        ((a, *w),), _ = _coerce_rows(((self.a, *self.w),), None)
        if a == 0:
            raise ValueError("scaling factor a must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w", tuple(w))
        if len(w) != self.beta.rows:
            raise DimensionMismatch("w must have length 2n")
        eps = symplectic_similitude_check(self.beta)
        if eps is None or eps != self.epsilon:
            raise NotSimilitude("beta does not scale J by the declared sign")

    @staticmethod
    def from_parts(a: Scalar, w, beta: DenseMatrix) -> "AutomorphismDescriptor":
        eps = symplectic_similitude_check(beta)
        if eps is None:
            raise NotSimilitude("beta does not scale J by +-1")
        return AutomorphismDescriptor(a, tuple(w), beta, eps)


def automorphism_matrix(d: AutomorphismDescriptor) -> DenseMatrix:
    """Matrix of the automorphism on the algebra basis: alpha(a,w) . diag(beta, eps).

    Float mode if any of a, w and beta is float, else rational."""
    beta = d.beta.entries
    rows = [[d.a * x for x in r] + [0] for r in beta]
    rows.append([sum(wi * r[j] for wi, r in zip(d.w, beta)) for j in range(d.beta.cols)]
                + [d.a * d.a * d.epsilon])
    return DenseMatrix.from_rows(rows)


def pullback_metric(m: SpdMatrix, phi: DenseMatrix) -> SpdMatrix:
    """phi^T m phi, the pullback of the metric along phi."""
    if phi.rows != m.n or not phi.is_square:
        raise DimensionMismatch("pullback requires a square matrix of matching size")
    det = determinant(phi)
    if det == 0:
        raise Singular("pullback along a singular matrix")
    return SpdMatrix(congruence(m, phi))


def delta_matrix(r: DivisibilityTuple) -> DenseMatrix:
    """diag(r_1, ..., r_n, 1, ..., 1) of size 2n."""
    diag = r.scaling_diagonal()
    n2 = 2 * r.n
    return DenseMatrix.from_rows(
        [[diag[i] if i == j else 0 for j in range(n2)] for i in range(n2)], RATIONAL
    )


def gamma_r_membership(p: HeisenbergElement, r: DivisibilityTuple) -> bool:
    """(x, y) in delta_r Z^{2n} and s in Z."""
    if p.n != r.n:
        raise DimensionMismatch("element dimension does not match tuple length")
    for xi, ri in zip(p.x, r.r):
        q = Fraction(xi) / ri
        if q.denominator != 1:
            return False
    for yi in p.y:
        if Fraction(yi).denominator != 1:
            return False
    return Fraction(p.s).denominator == 1


@dataclass(frozen=True)
class NormalizedMetric:
    """Block-diagonal metric (h, g) on a quotient fixed by the tuple r."""

    h: SpdMatrix
    g: Scalar
    r: DivisibilityTuple

    def __post_init__(self):
        if self.h.n % 2:
            raise OddDimension("horizontal Gram matrix must have even size")
        if self.h.n != 2 * self.r.n:
            raise DimensionMismatch("h must be 2n x 2n for a length-n tuple")
        g = self.g
        if type(g) is not Fraction:  # a Fraction is finite and kept as it is
            g = _python_scalar(g)
            object.__setattr__(self, "g", g)
        if not (g > 0 if type(g) is Fraction else 0 < g < math.inf):  # NaN fails both
            raise ValueError(f"central scalar g must be positive and finite, got {g!r}")

    @property
    def n(self) -> int:
        return self.r.n

    def to_json(self) -> dict:
        return {
            "h": matrix_to_json(self.h),
            "g": scalar_to_json(self.g),
            "r": list(self.r.r),
        }

    @staticmethod
    def from_json(obj: dict, scalars: dict | None = None) -> "NormalizedMetric":
        """The metric of a JSON object; h and g parse their strings through
        the payload's table ``scalars`` (see ``matrix_from_json``)."""
        h = SpdMatrix(matrix_from_json(obj["h"], scalars))
        g = _scalar_from_json(obj["g"], scalars)
        return NormalizedMetric(h, g, DivisibilityTuple(tuple(_json_list(obj["r"], "r"))))


@dataclass(frozen=True)
class KaplanSpectrum:
    """Values d_1 <= ... <= d_n with +-i d_k the eigenvalues of Y^{-1} J."""

    d: tuple[float, ...]

    def __post_init__(self):
        if not all(map(math.isfinite, self.d)):
            raise ValueError(f"spectrum values must be finite, got {self.d!r}")
        if list(self.d) != sorted(self.d):
            raise ValueError("spectrum must be sorted ascending")
        if self.d and self.d[0] <= 0:  # sorted: d_1 is the least
            raise ValueError("spectrum values must be positive")

    @property
    def d_max(self) -> float:
        return self.d[-1]


def _inverse(h: SpdMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """The exact h^{-1}, as rows of Fractions, in both modes."""
    return matrix_inverse(h.matrix.to_rational()).entries


def kaplan_matrix(m: NormalizedMetric) -> DenseMatrix:
    """Matrix of the skew map at the unit center vector: -g^{1/2} h^{-1} J.

    Always float: each entry of the exact h^{-1} J is rounded once, then
    scaled by -g^{1/2}.  Column j of h^{-1} J is minus column j + n of
    h^{-1} for j < n, and column j - n for j >= n.  The result M satisfies
    h M = -(h M)^T up to roundoff (skew-symmetry with respect to h).
    """
    n, s = m.n, -math.sqrt(float(m.g))
    return DenseMatrix.from_rows([[s * float(x) for x in (*(-y for y in r[n:]), *r[:n])]
                                  for r in _inverse(m.h)], FLOAT)


def _d_spectra(Ys: Sequence[SpdMatrix]) -> list[KaplanSpectrum]:
    """Symplectic spectra of equal-size Gram matrices, as one stack.

    One ``_arrays._upper_factors`` (each read off its member's exact
    LDL^T) and one ``_arrays._symplectic_spectra`` for all of Ys; each
    spectrum is the one Y would have alone.  The first member whose pairs
    fail to match raises ``PairingFailure``, and a spectrum past the float
    range (a Gram matrix near 10^-308) ``OverflowError``.
    """
    if Ys[0].n % 2:
        raise OddDimension("symplectic spectrum requires even size")
    from . import _arrays
    return [KaplanSpectrum(d) for d in _arrays._spectra(Ys)]


def d_spectrum(Y: SpdMatrix) -> KaplanSpectrum:
    """Symplectic spectrum of a Gram matrix of even size.

    Reads Y = R^T R off Y's exact LDL^T (``_arrays._upper_factors``) and
    takes the singular values of the skew matrix R^{-T} J R^{-1}, which come
    in equal pairs d_k, d_k.  This never squares the condition number of Y.
    A pair that fails to match within ``_arrays.PAIRING_TOL`` times the
    largest value raises ``PairingFailure`` (numerical breakdown), and a
    value past the float range ``OverflowError``.
    """
    return _d_spectra([Y])[0]


def _tolerance(tol: float) -> float:
    """tol itself when it is finite and nonnegative, else ``ValueError``;
    a bool, numpy's too, is no tolerance."""
    try:  # _python_scalar refuses a bool
        ok = 0 <= _python_scalar(tol) < math.inf  # NaN fails both comparisons
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol


def _float_g(g: Scalar) -> float:
    """float(g) of a central scalar g > 0, nonzero: a rational g that rounds
    to 0.0 raises ``OverflowError``, since g^{-1} is past the float range."""
    x = float(g)
    if not x:
        raise OverflowError("central scalar g^-1 is past the float range")
    return x


def _is_heisenberg_spectrum(spectrum: KaplanSpectrum, g: Scalar, tol: float) -> bool:
    """True when every d_k equals g^{-1/2} within the relative tolerance."""
    target = 1.0 / math.sqrt(_float_g(g))
    return all(abs(dk - target) <= tol * target for dk in spectrum.d)


def is_heisenberg_type(m: NormalizedMetric, tol: float = 1e-8) -> bool:
    """True when all d_k(h) equal g^{-1/2} within the relative tolerance,
    a finite nonnegative tol."""
    _tolerance(tol)
    return _is_heisenberg_spectrum(d_spectrum(m.h), m.g, tol)


def same_symplectic_orbit(X: SpdMatrix, Y: SpdMatrix, tol: float = 1e-8) -> bool:
    """True when X and Y have the same symplectic spectrum within tol,
    a finite nonnegative relative tolerance.

    Equality of all d_k characterizes congruence by a symplectic
    similitude, so this decides orbit membership.
    """
    _tolerance(tol)
    if X.n != Y.n:
        raise DimensionMismatch("matrices of different size")
    sx, sy = _d_spectra([X, Y])
    return all(abs(a - b) <= tol * max(abs(a), abs(b)) for a, b in zip(sx.d, sy.d))


def _metric_inner(m: NormalizedMetric, u: LieAlgebraVector, v: LieAlgebraVector) -> float:
    hu = m.h.matrix.mat_vec([float(c) for c in v.horizontal()])
    horiz = sum(float(a) * b for a, b in zip(u.horizontal(), hu))
    return horiz + float(m.g) * float(u.s) * float(v.s)


def sectional_curvature(m: NormalizedMetric, u: LieAlgebraVector,
                        v: LieAlgebraVector) -> float:
    """Sectional curvature of the plane spanned by an orthonormal pair.

    Supported planes: both vectors horizontal (s = 0), or one horizontal
    and one along the center.  Mixed vectors are rejected: the closed
    curvature formulas only cover these two kinds of plane.  The plane of
    a horizontal u and the central Z has curvature |j(Z) u|^2 / 4, with
    j(Z) = -g^{1/2} h^{-1} J (``kaplan_matrix``): g/4 (J u)^T h^{-1} (J u),
    computed exactly and rounded once.
    """
    if u.n != v.n or u.n != m.n:
        raise DimensionMismatch("vector dimensions do not match the metric")
    for a, b, expected in ((u, u, 1.0), (v, v, 1.0), (u, v, 0.0)):
        if abs(_metric_inner(m, a, b) - expected) > ORTHONORMAL_TOL:
            raise NotOrthonormal("vectors are not orthonormal for the metric")

    def kind(w: LieAlgebraVector) -> str:
        horizontal = any(c != 0 for c in w.horizontal())
        central = w.s != 0
        if horizontal and central:
            raise UnsupportedPlane("mixed vector with horizontal and central parts")
        return "central" if central else "horizontal"

    ku, kv = kind(u), kind(v)
    g = float(m.g)
    if ku == "horizontal" and kv == "horizontal":
        a = bracket(u, v).s
        return -0.75 * g * float(a) * float(a)
    if ku == "central":
        u, v = v, u  # put the horizontal vector first
    n = m.n
    ubar = [Fraction(c) for c in u.horizontal()]
    ju = ubar[n:] + [-c for c in ubar[:n]]
    return float(Fraction(m.g) / 4 * _dot(ju, [_dot(r, ju) for r in _inverse(m.h)]))


def _curvature_bound(spectrum: KaplanSpectrum, g: Scalar) -> float:
    """g^{-1} d_n^2 for the spectrum d of h; ``OverflowError`` when it is
    past the float range (a small g), rather than an infinite float."""
    bound = spectrum.d_max ** 2 / _float_g(g)
    if not bound < math.inf:  # NaN fails too
        raise OverflowError("curvature bound g^-1 d_n^2 is past the float range")
    return bound


def curvature_upper_bound(m: NormalizedMetric) -> float:
    """g^{-1} d_n(h)^2.  It bounds ``sectional_curvature`` only for g <= 2: a
    mixed plane reaches up to g d_n(h)^2 / 4 (``kaplan_matrix``), which is sharp."""
    return _curvature_bound(d_spectrum(m.h), m.g)
