"""Dense small-matrix numerics with two scalar modes.

All matrices here are tiny (n <= ~10) and immutable.  In ``rational``
mode every entry is a :class:`fractions.Fraction`, so factorizations,
determinants and the lattice routines built on top of them are exact.
``float`` mode uses double precision and backs the spectral routines
(eigenvalues, singular values), which are approximate by nature and go
through LAPACK via numpy.  Everything exact is implemented directly.
"""

from __future__ import annotations

import math
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


def _coerce_rows(rows, mode: str | None):
    """Normalize nested scalars to a uniform mode, inferring it if needed."""
    rows = [list(r) for r in rows]
    if mode is None:
        has_float = any(_is_floatlike(x) for r in rows for x in r)
        mode = FLOAT if has_float else RATIONAL
    if mode == RATIONAL:
        entries = tuple(tuple(Fraction(x) for x in r) for r in rows)
    elif mode == FLOAT:
        entries = tuple(tuple(float(x) for x in r) for r in rows)
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
        entries, mode = _coerce_rows(rows, mode)
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and column")
        ncols = len(entries[0])
        if any(len(r) != ncols for r in entries):
            raise ValueError("ragged rows")
        return DenseMatrix(entries, mode)

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

    def to_float(self) -> "DenseMatrix":
        if self.mode == FLOAT:
            return self
        return DenseMatrix(tuple(tuple(float(x) for x in r) for r in self.entries), FLOAT)

    def to_rational(self) -> "DenseMatrix":
        if self.mode == RATIONAL:
            return self
        return DenseMatrix(tuple(tuple(Fraction(x) for x in r) for r in self.entries), RATIONAL)

    def to_numpy(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    def mat_vec(self, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(r[j] * v[j] for j in range(self.cols)) for r in self.entries)

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        a, b = _promote(self, other)
        bt = b.transpose().entries
        rows = tuple(
            tuple(sum(ra[k] * cb[k] for k in range(len(ra))) for cb in bt)
            for ra in a.entries
        )
        return DenseMatrix(rows, a.mode)


def _promote(a: DenseMatrix, b: DenseMatrix) -> tuple[DenseMatrix, DenseMatrix]:
    if a.mode == b.mode:
        return a, b
    return a.to_float(), b.to_float()


def identity(n: int, mode: str = RATIONAL) -> DenseMatrix:
    one = Fraction(1) if mode == RATIONAL else 1.0
    zero = Fraction(0) if mode == RATIONAL else 0.0
    return DenseMatrix(
        tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), mode
    )


def diagonal(values: Sequence[Scalar], mode: str | None = None) -> DenseMatrix:
    n = len(values)
    return DenseMatrix.from_rows(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)], mode
    )


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


def _ldl_entries(entries, mode: str):
    """LDL^T pivoting-free factorization; raises on a nonpositive pivot."""
    n = len(entries)
    zero = Fraction(0) if mode == RATIONAL else 0.0
    one = Fraction(1) if mode == RATIONAL else 1.0
    L = [[one if i == j else zero for j in range(n)] for i in range(n)]
    d = [zero] * n
    for j in range(n):
        pivot = entries[j][j] - sum(L[j][k] * L[j][k] * d[k] for k in range(j))
        if pivot <= 0:
            raise NotPositiveDefinite(j + 1)
        d[j] = pivot
        for i in range(j + 1, n):
            s = entries[i][j] - sum(L[i][k] * L[j][k] * d[k] for k in range(j))
            L[i][j] = s / pivot
    return L, d


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive definite matrix (a Gram matrix).

    Construction symmetrizes inputs within the slack policy and verifies
    positivity through the exact (or float) LDL^T pivots; the factor is
    kept, so ``ldl_decompose`` never factors the same matrix again.
    """

    matrix: DenseMatrix
    _ldl: tuple[DenseMatrix, tuple[Scalar, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = symmetrized(self.matrix)
        L, d = _ldl_entries(m.entries, m.mode)  # raises NotPositiveDefinite if not in P_n
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_ldl", (DenseMatrix(tuple(map(tuple, L)), m.mode), tuple(d)))

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

    def to_float(self) -> "SpdMatrix":
        return SpdMatrix(self.matrix.to_float()) if self.mode == RATIONAL else self

    def to_rational(self) -> "SpdMatrix":
        return SpdMatrix(self.matrix.to_rational()) if self.mode == FLOAT else self

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

    Returns the factor an ``SpdMatrix`` computed when it was built; a
    ``DenseMatrix`` is validated as ``SpdMatrix(Y)`` first.  Exact in
    rational mode; raises ``NotPositiveDefinite`` with the 1-based index
    of the first bad pivot otherwise.
    """
    return (Y if isinstance(Y, SpdMatrix) else SpdMatrix(Y))._ldl


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


def _int_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Bareiss determinant over the integers (exact divisions)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinant(Y: DenseMatrix | SpdMatrix) -> Scalar:
    """Determinant; exact Fraction in rational mode, LU-based float otherwise.

    A rational matrix is cleared of denominators row by row (each row
    times the lcm of its denominators) and goes through the integer
    Bareiss elimination; dividing by the product of the row scales is
    exact.
    """
    m = _dense(Y)
    if not m.is_square:
        raise ValueError("determinant expects a square matrix")
    if m.mode == RATIONAL:
        scales = [math.lcm(*(x.denominator for x in r)) for r in m.entries]
        rows = [[x.numerator * (s // x.denominator) for x in r]
                for r, s in zip(m.entries, scales)]
        return Fraction(_int_determinant(rows), math.prod(scales))
    return float(np.linalg.det(m.to_numpy()))


def matrix_inverse(G: DenseMatrix | SpdMatrix) -> DenseMatrix:
    """Inverse; exact Gauss-Jordan in rational mode."""
    m = _dense(G)
    if not m.is_square:
        raise ValueError("matrix_inverse expects a square matrix")
    if m.mode == FLOAT:
        d = float(np.linalg.det(m.to_numpy()))
        if d == 0 or not np.isfinite(d):
            raise Singular("float matrix is singular")
        return DenseMatrix.from_rows(np.linalg.inv(m.to_numpy()).tolist(), FLOAT)
    n = m.rows
    a = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, r in enumerate(m.entries)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot_row is None:
            raise Singular("rational matrix is singular")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return DenseMatrix(tuple(tuple(r[n:]) for r in a), RATIONAL)


def congruence(Y: DenseMatrix | SpdMatrix, A: DenseMatrix) -> DenseMatrix:
    """A^T Y A, the pullback of the form Y along A."""
    m = _dense(Y)
    return A.transpose() @ m @ A


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


def scalar_from_json(v, mode: str) -> Scalar:
    if mode == RATIONAL:
        if _is_floatlike(v):
            raise ValueError("float scalar in a rational-mode payload")
        return Fraction(str(v)) if isinstance(v, str) else Fraction(v)
    return float(Fraction(v)) if isinstance(v, str) else float(v)


def matrix_to_json(m: DenseMatrix | SpdMatrix) -> dict:
    d = _dense(m)
    return {
        "mode": d.mode,
        "rows": d.rows,
        "cols": d.cols,
        "entries": [[scalar_to_json(x) for x in r] for r in d.entries],
    }


def matrix_from_json(obj: dict) -> DenseMatrix:
    mode = obj["mode"]
    if mode not in (RATIONAL, FLOAT):
        raise ValueError(f"unknown matrix mode {mode!r}")
    entries = obj["entries"]
    if len(entries) != obj["rows"] or any(len(r) != obj["cols"] for r in entries):
        raise ValueError("matrix entries do not match declared shape")
    rows = [[scalar_from_json(x, mode) for x in r] for r in entries]
    return DenseMatrix.from_rows(rows, mode)


def spd_from_json(obj: dict) -> SpdMatrix:
    return SpdMatrix(matrix_from_json(obj))
