"""Dense small-matrix numerics with two scalar modes.

All matrices here are tiny (n <= ~10) and immutable.  In ``rational``
mode every entry is a :class:`fractions.Fraction`; in ``float`` mode a
finite double, which is a dyadic rational.  So factorizations, determinants
and inverses are exact in both modes, and a float-mode result is the
correctly rounded float of the exact value.  Only the spectral routines
(eigenvalues, singular values) are inexact by nature and go through
LAPACK via numpy.  There are two eliminations: the symmetric
``_integer_ldl``, which alone decides positive definiteness, and the
general ``_int_determinant``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import NotPositiveDefinite, NotSymmetric, Singular

Scalar = Union[Fraction, float]

RATIONAL = "rational"
FLOAT = "float"

# relative asymmetry below which an input is silently symmetrized;
# anything larger raises NotSymmetric instead of being "fixed"
SYMMETRY_SLACK = 1e-12


def _is_floatlike(x) -> bool:
    return isinstance(x, (float, np.floating))


def _finite_float(v) -> float:
    """v as a finite float, a string parsed by ``_fraction_from_str``; else ``ValueError``."""
    try:
        x = float(_fraction_from_str(v)) if isinstance(v, str) else float(v)
        if math.isfinite(x):
            return x
    except OverflowError:  # an int, Fraction or "p/q" past the float range
        pass
    raise ValueError(f"float scalar {v!r} is not finite")


def _coerce_rows(rows, mode: str | None):
    """Normalize nested scalars to a uniform mode, inferred if None; a float must be finite."""
    rows = [[_finite_float(x) if _is_floatlike(x) else x for x in r] for r in rows]
    if mode is None:
        has_float = any(_is_floatlike(x) for r in rows for x in r)
        mode = FLOAT if has_float else RATIONAL
    if mode == RATIONAL:
        entries = tuple(tuple(Fraction(x) for x in r) for r in rows)
    elif mode == FLOAT:
        entries = tuple(tuple(_finite_float(x) for x in r) for r in rows)
    else:
        raise ValueError(f"unknown scalar mode {mode!r}")
    return entries, mode


@dataclass(frozen=True)
class DenseMatrix:
    """Immutable matrix whose entries are all Fractions or all floats."""

    entries: tuple[tuple[Scalar, ...], ...]
    mode: str

    @staticmethod
    def from_rows(rows, mode: str | None = None) -> "DenseMatrix":
        return _shaped(*_coerce_rows(rows, mode))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(tuple(zip(*self.entries)), self.mode)

    def to_rational(self) -> "DenseMatrix":
        if self.mode == RATIONAL:
            return self
        return DenseMatrix(tuple(tuple(Fraction(x) for x in r) for r in self.entries), RATIONAL)

    def to_numpy(self) -> np.ndarray:
        if self.mode == RATIONAL:  # int / int rounds correctly, as float(Fraction) does
            return np.array([[x.numerator / x.denominator for x in r] for r in self.entries])
        return np.array(self.entries, dtype=float)

    def mat_vec(self, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(r[j] * v[j] for j in range(self.cols)) for r in self.entries)

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        """Matrix product, exact in rational mode; a float factor makes it
        float, rounded at every term (``congruence`` rounds each entry once).
        Python evaluates a Fraction times a float as float(Fraction) times
        the float, so a mixed product equals converting first."""
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        bt = other.transpose().entries
        rows = tuple(
            tuple(sum(ra[k] * cb[k] for k in range(len(ra))) for cb in bt)
            for ra in self.entries
        )
        return DenseMatrix(rows, RATIONAL if self.mode == other.mode == RATIONAL else FLOAT)


_EMPTY = "matrix must have at least one row and column"


def _shaped(entries, mode: str) -> DenseMatrix:
    """A DenseMatrix of already coerced entries, after the shape checks."""
    if not entries or not entries[0]:
        raise ValueError(_EMPTY)
    ncols = len(entries[0])
    if any(len(r) != ncols for r in entries):
        raise ValueError("ragged rows")
    return DenseMatrix(entries, mode)


def identity(n: int, mode: str = RATIONAL) -> DenseMatrix:
    return DenseMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], mode)


def max_norm(G: DenseMatrix | "SpdMatrix") -> Scalar:
    """Largest absolute entry."""
    m = _dense(G)
    return max(abs(x) for r in m.entries for x in r)


def _asymmetry(m: DenseMatrix) -> Scalar:
    return max(
        abs(m.entries[i][j] - m.entries[j][i])
        for i in range(m.rows)
        for j in range(i + 1, m.cols)
    ) if m.rows > 1 else (Fraction(0) if m.mode == RATIONAL else 0.0)


def symmetrized(m: DenseMatrix) -> DenseMatrix:
    """Return (M + M^T)/2 if M is within the symmetry slack, else raise.

    Tiny asymmetry (below ``SYMMETRY_SLACK`` times the max norm) is
    repaired by averaging; anything larger is an input error, never
    silently fixed.
    """
    if not m.is_square:
        raise NotSymmetric("matrix is not square")
    if m.entries == tuple(zip(*m.entries)):  # exactly symmetric: no differences to take
        return m
    asym = _asymmetry(m)
    if asym == 0:
        return m
    scale = max_norm(m)
    if asym > SYMMETRY_SLACK * (scale if scale else 1):
        raise NotSymmetric(f"asymmetry {float(asym):.3e} exceeds slack")
    half = Fraction(1, 2) if m.mode == RATIONAL else 0.5
    rows = tuple(
        tuple((m.entries[i][j] + m.entries[j][i]) * half for j in range(m.cols))
        for i in range(m.rows)
    )
    return DenseMatrix(rows, m.mode)


def _integer_ldl(entries):
    """Fraction-free LDL^T of a symmetric matrix Y, exact also for floats.

    Clears all denominators with their lcm ``den`` (a float is a dyadic
    rational) and runs the symmetric Bareiss elimination (Bareiss 1968;
    Cohen, *A Course in Computational Algebraic Number Theory*, 2.6) on
    the lower triangle of A = den Y, every division exact.  Returns (den,
    minors, columns): minors[k] is the k-th leading principal minor of A
    (minors[0] = 1), and columns[k] holds the integers lambda_ik, i > k,
    with L_ik = lambda_ik / minors[k+1] and d_k = minors[k+1] / (minors[k] den).
    A minor that is not positive raises ``NotPositiveDefinite`` with its
    1-based index, the index of the first nonpositive pivot d_k; so does
    the first row whose lower triangle holds a NaN or infinite float.
    """
    n = len(entries)
    ratios = []
    for i, r in enumerate(entries):
        try:
            ratios.append([x.as_integer_ratio() for x in r[:i + 1]])
        except (ValueError, OverflowError):  # NaN or inf: a raw DenseMatrix, or @ overflowed
            raise NotPositiveDefinite(i + 1) from None
    den = math.lcm(*(q for r in ratios for _, q in r))
    a = [[p * (den // q) for p, q in r] for r in ratios]
    minors, columns = [1], []
    for k in range(n):
        p, prev = a[k][k], minors[-1]
        if p <= 0:
            raise NotPositiveDefinite(k + 1)
        minors.append(p)
        col = [a[i][k] for i in range(k + 1, n)]
        columns.append(tuple(col))
        for i in range(k + 1, n):
            row, lik = a[i], col[i - k - 1]
            for j in range(k + 1, i + 1):
                row[j] = (p * row[j] - lik * col[j - k - 1]) // prev
    return den, tuple(minors), tuple(columns)


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive definite matrix (a Gram matrix).

    Construction symmetrizes inputs within the slack policy and verifies
    positivity, in both modes, through the factor it keeps: ``integer_ldl``,
    the fraction-free LDL^T (den, minors, columns) of ``_integer_ldl`` on
    the exact entries, so a float matrix is accepted exactly when the same
    entries as Fractions are.  ``ldl_decompose``, ``determinant``, the
    lattice enumerator and the spectra read the kept factor alone.
    """

    matrix: DenseMatrix
    integer_ldl: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = symmetrized(self.matrix)
        object.__setattr__(self, "matrix", m)
        # raises NotPositiveDefinite if m is not in P_n
        object.__setattr__(self, "integer_ldl", _integer_ldl(m.entries))

    @staticmethod
    def from_rows(rows, mode: str | None = None) -> "SpdMatrix":
        return SpdMatrix(DenseMatrix.from_rows(rows, mode))

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def entries(self):
        return self.matrix.entries

    @property
    def mode(self) -> str:
        return self.matrix.mode

    def to_numpy(self) -> np.ndarray:
        return self.matrix.to_numpy()

    def diagonal(self) -> tuple[Scalar, ...]:
        return tuple(self.entries[i][i] for i in range(self.n))


def _dense(m: DenseMatrix | SpdMatrix) -> DenseMatrix:
    return m.matrix if isinstance(m, SpdMatrix) else m


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending."""

    values: tuple[float, ...]

    def __post_init__(self):
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("spectrum must be sorted ascending")


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values sorted descending."""

    values: tuple[float, ...]

    def __post_init__(self):
        if any(a < b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("singular values must be sorted descending")
        if any(v < 0 for v in self.values):
            raise ValueError("singular values are non-negative")


def ldl_decompose(Y: SpdMatrix | DenseMatrix) -> tuple[DenseMatrix, tuple[Scalar, ...]]:
    """Factor Y = L D L^T with unit lower-triangular L and positive D.

    Reads the factor an ``SpdMatrix`` computed when it was built; a
    ``DenseMatrix`` is validated as ``SpdMatrix(Y)`` first.  L and d are
    built from it on each call: exact Fractions, or in float mode their
    correctly rounded floats.  Raises ``NotPositiveDefinite`` with the
    1-based index of the first bad pivot.
    """
    Y = Y if isinstance(Y, SpdMatrix) else SpdMatrix(Y)
    den, minors, columns = Y.integer_ldl
    div = _ratio(Y.mode)
    one, zero = div(1, 1), div(0, 1)
    L = tuple(tuple(div(columns[j][i - j - 1], minors[j + 1]) if i > j
                    else one if i == j else zero for j in range(Y.n))
              for i in range(Y.n))
    d = tuple(div(minors[k + 1], minors[k] * den) for k in range(Y.n))
    return DenseMatrix(L, Y.mode), d


def eigenvalues_symmetric(Y: SpdMatrix | DenseMatrix) -> Spectrum:
    """Eigenvalues of a symmetric matrix, ascending (always float)."""
    m = symmetrized(_dense(Y))
    vals = np.linalg.eigvalsh(m.to_numpy())
    return Spectrum(tuple(float(v) for v in vals))


def singular_values(G: DenseMatrix | SpdMatrix) -> SingularSpectrum:
    """Singular values of a square matrix, descending (always float)."""
    m = _dense(G)
    if not m.is_square:
        raise ValueError("singular_values expects a square matrix")
    vals = np.linalg.svd(m.to_numpy(), compute_uv=False)
    return SingularSpectrum(tuple(float(v) for v in vals))


def _int_determinant(a: list) -> int:
    """Fraction-free Gauss-Jordan (Bareiss 1968) on a list of n integer
    rows [A | B], overwritten in place (rows are replaced, never mutated).

    Step k pivots on row k, swapped with the first lower row whose
    column-k entry is nonzero; every other row a_i becomes
    (p a_i - a_ik a_k) / prev, each division exact.  Returns det A; if it
    is nonzero, A ends as p I and B as p A^{-1} B, with p = a[0][0].
    """
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        p, pivot_row = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return sign * prev


def _ratio(mode: str):
    """Integers p, q to p / q: a Fraction, or in float mode int / int, rounded once."""
    return Fraction if mode == RATIONAL else operator.truediv


def _integer_rows(m: DenseMatrix) -> tuple[list[list[int]], list[int]]:
    """Each row of m times the lcm of its denominators, and those lcms; a
    finite float is a dyadic rational, so ``as_integer_ratio()`` is exact
    (on a NaN or infinity it raises ValueError or OverflowError)."""
    ratios = [[x.as_integer_ratio() for x in r] for r in m.entries]
    scales = [math.lcm(*(q for _, q in r)) for r in ratios]
    return [[p * (s // q) for p, q in r] for r, s in zip(ratios, scales)], scales


def determinant(Y: DenseMatrix | SpdMatrix) -> Scalar:
    """Determinant, exact in both modes and rounded once in float mode.

    An ``SpdMatrix`` reads it off its kept factor as minors[n] / den^n.
    Any other matrix is cleared of denominators row by row and goes
    through the integer Bareiss elimination; dividing by the product of
    the row scales is exact.  An exactly singular matrix gives 0.
    """
    m = _dense(Y)
    if not m.is_square:
        raise ValueError("determinant expects a square matrix")
    div = _ratio(m.mode)
    if isinstance(Y, SpdMatrix):
        den, minors, _ = Y.integer_ldl
        return div(minors[-1], den ** Y.n)
    rows, scales = _integer_rows(m)
    return div(_int_determinant(rows), math.prod(scales))


def matrix_inverse(G: DenseMatrix | SpdMatrix) -> DenseMatrix:
    """Inverse, exact in both modes and rounded once per entry in float mode.

    With A = S^{-1} B, B the integer rows and S the diagonal of their
    scales, one Bareiss elimination of [B | S] leaves p B^{-1} S =
    p A^{-1}.  An exactly singular matrix raises ``Singular``.
    """
    m = _dense(G)
    if not m.is_square:
        raise ValueError("matrix_inverse expects a square matrix")
    rows, scales = _integer_rows(m)
    n = m.rows
    a = [r + [s if i == j else 0 for j in range(n)]
         for i, (r, s) in enumerate(zip(rows, scales))]
    if _int_determinant(a) == 0:
        raise Singular(f"{m.mode} matrix is singular")
    div, p = _ratio(m.mode), a[0][0]
    return DenseMatrix(tuple(tuple(div(x, p) for x in r[n:]) for r in a), m.mode)


def congruence(Y: DenseMatrix | SpdMatrix, A: DenseMatrix) -> DenseMatrix:
    """A^T Y A, the pullback of the form Y along A.

    Exact in both modes: a float result is the exact product rounded once
    per entry, so a symmetric Y gives a symmetric result.
    """
    m = _dense(Y)
    exact = A.to_rational().transpose() @ m.to_rational() @ A.to_rational()
    if m.mode == A.mode == RATIONAL:
        return exact
    return DenseMatrix(tuple(tuple(float(x) for x in r) for r in exact.entries), FLOAT)


def quadratic_form(Y: DenseMatrix | SpdMatrix, a: Sequence[Scalar]) -> Scalar:
    """Y[a] = a^T Y a."""
    m = _dense(Y)
    v = m.mat_vec(a)
    return sum(a[i] * v[i] for i in range(len(a)))


# --- JSON wire format -------------------------------------------------
#
# {"mode": "rational"|"float", "rows": n, "cols": m, "entries": [[...]]}
# with rational scalars carried as strings "p/q" (or "p").

def scalar_to_json(x: Scalar):
    if isinstance(x, Fraction):
        return str(x)
    return float(x)


def _fraction_from_str(s: str) -> Fraction:
    """Fraction(s), with plain ASCII "p", "-p" and "p/q" parsed by int().

    Raises ``ValueError`` wherever ``Fraction(s)`` raises, a zero
    denominator included.
    """
    num, slash, den = s.partition("/")
    try:
        if s.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"scalar {s!r} has a zero denominator") from None


def scalar_from_json(v, mode: str) -> Scalar:
    if isinstance(v, bool):
        raise ValueError(f"boolean {v!r} is not a scalar")
    if mode == RATIONAL:
        if _is_floatlike(v):
            raise ValueError("float scalar in a rational-mode payload")
        return _fraction_from_str(v) if isinstance(v, str) else Fraction(v)
    return _finite_float(v)


def matrix_to_json(m: DenseMatrix | SpdMatrix) -> dict:
    d = _dense(m)
    return {
        "mode": d.mode,
        "rows": d.rows,
        "cols": d.cols,
        "entries": [[scalar_to_json(x) for x in r] for r in d.entries],
    }


def _json_list(v, what: str) -> list:
    """v itself if it is a JSON list; a string would iterate as its characters."""
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a JSON list, got {type(v).__name__}")
    return v


def _scalar_parser(scalars: dict | None, mode: str):
    """scalar_from_json in mode, each distinct string parsed once per table.

    ``scalars`` maps a mode to {string: scalar}; one table serves every
    scalar of a payload, and None gives a fresh one.  Equal strings of
    one mode then share one scalar object.
    """
    parsed = {} if scalars is None else scalars.setdefault(mode, {})

    def scalar(x):
        if type(x) is not str:
            return scalar_from_json(x, mode)
        s = parsed.get(x)
        if s is None:
            s = parsed[x] = scalar_from_json(x, mode)
        return s

    return scalar


def matrix_from_json(obj: dict, scalars: dict | None = None) -> DenseMatrix:
    """The matrix of a JSON object, its strings parsed through ``scalars``.

    Each distinct string is parsed once per payload, per mode: ``scalars``
    is the table shared by every matrix of one payload (a fresh table
    when None), so equal entries share one scalar and the symmetry check
    matches them by identity.
    """
    mode = obj["mode"]
    if mode not in (RATIONAL, FLOAT):
        raise ValueError(f"unknown matrix mode {mode!r}")
    entries = [_json_list(r, "a matrix row") for r in _json_list(obj["entries"], "matrix entries")]
    if len(entries) != obj["rows"] or any(len(r) != obj["cols"] for r in entries):
        raise ValueError("matrix entries do not match declared shape")
    if not entries or not entries[0]:  # else every row is nonempty and of one length
        raise ValueError(_EMPTY)
    scalar = _scalar_parser(scalars, mode)
    return DenseMatrix(tuple([tuple([scalar(x) for x in r]) for r in entries]), mode)
