"""Dense small-matrix numerics with two scalar modes.

All matrices here are tiny (n <= ~10) and immutable.  In ``rational``
mode every entry is a :class:`fractions.Fraction`; in ``float`` mode a
finite double, which is a dyadic rational.  So factorizations, determinants
and inverses are exact in both modes, and a float-mode result is the
correctly rounded float of the exact value.  Only the spectral routines
(eigenvalues, singular values) are inexact by nature; they, and
``to_numpy``, go through numpy in ``_arrays``, which each of them imports
when it is called, so this module never loads numpy.  There are two
eliminations: the symmetric ``_integer_ldl``, which alone decides
positive definiteness, and the general ``_int_determinant``.  The
symmetric one, and the float R with Y = R^T R that the spectra read off
its factor, run as straight-line code generated for each matrix size the
first time that size is used (``_ldl_kernel``, ``_upper_kernel``);
``_compiled`` is the one place such code is compiled, the lattice
searches' (``lattice._search_kernel``) included.  The symplectic spectra
at sizes 2 and 4 need no numpy: they are read off exact integers, the
kept factor's det(den Y) and ``_pencil_coefficient`` of den Y's
``_integer_triangle``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .errors import NotPositiveDefinite, NotSymmetric, Singular

Scalar = Union[Fraction, float]

RATIONAL = "rational"
FLOAT = "float"

# relative asymmetry below which an input is silently symmetrized;
# anything larger raises NotSymmetric instead of being "fixed"
SYMMETRY_SLACK = 1e-12


def _is_floatlike(x) -> bool:
    """Whether x, a value from ``_python_scalar``, is a float."""
    return isinstance(x, float)


def _finite_float(v) -> float:
    """v as a finite float, a string parsed by ``_fraction_from_str``; else ``ValueError``."""
    try:
        x = float(_fraction_from_str(v)) if isinstance(v, str) else float(v)
        if math.isfinite(x):
            return x
    except OverflowError:  # an int, Fraction or "p/q" past the float range
        pass
    raise ValueError(f"float scalar {v!r} is not finite")


_PLAIN = frozenset((int, float, Fraction, str))


def _python_scalar(v):
    """The Python value of a scalar: a numpy integer becomes the int it
    holds, a numpy float the float, and anything else is v itself.  A
    bool, numpy's ``bool_`` too, is not a scalar (``ValueError``).  A
    numpy scalar exists only once numpy is loaded, so its types are
    looked up in ``sys.modules``, never imported."""
    if type(v) in _PLAIN:
        return v
    np = sys.modules.get("numpy")
    if isinstance(v, bool) or np is not None and isinstance(v, np.bool_):
        raise ValueError(f"boolean {bool(v)} is not a scalar")
    if np is not None:
        if isinstance(v, np.integer):
            return int(v)
        if isinstance(v, np.floating):
            return float(v)
    return v


def _python_int(v) -> int | None:
    """The Python int v holds when v is an int or a numpy integer, else
    None: a bool (numpy's too), a float or any other value."""
    try:
        v = _python_scalar(v)
    except ValueError:  # a bool
        return None
    return v if type(v) is int else None


def _coerce_rows(rows, mode: str | None):
    """Normalize nested scalars to a uniform mode, inferred if None; numpy
    scalars count as the Python ones they hold (``_python_scalar``), a
    float must be finite, and a bool is refused."""
    rows = [[_finite_float(x) if _is_floatlike(x) else x for x in map(_python_scalar, r)]
            for r in rows]
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

    def to_numpy(self):
        """The entries as a float numpy array, each rounded once."""
        from . import _arrays
        return _arrays._to_numpy(self)

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
    scale = max_norm(m)
    if asym > SYMMETRY_SLACK * (scale if scale else 1):
        raise NotSymmetric(f"asymmetry {float(asym):.3e} exceeds slack")
    half = Fraction(1, 2) if m.mode == RATIONAL else 0.5
    rows = tuple(
        tuple((m.entries[i][j] + m.entries[j][i]) * half for j in range(m.cols))
        for i in range(m.rows)
    )
    return DenseMatrix(rows, m.mode)


def _compiled(source: str, filename: str, **names):
    """The function ``kernel`` that the generated ``source`` defines, its
    globals the given names.

    The one place the package compiles code.  Every source is built from
    a size alone (``_ldl_kernel``, ``_upper_kernel``,
    ``lattice._search_kernel``), never from input text, and each is
    compiled once per size, when that size is first used.  The filename,
    such as ``<ldl 4>`` or ``<search 6>``, names the kernel in profiles
    and tracebacks.
    """
    exec(compile(source, filename, "exec"), names)
    return names["kernel"]


def _tuple(items) -> str:
    """Source of the tuple of the names in items."""
    return "(" + "".join(f"{x}, " for x in items) + ")"


@functools.cache
def _ldl_kernel(n: int):
    """``_integer_ldl`` for n x n entries, as straight-line code: no loop,
    and each lower-triangle entry of A held in its own local a{i}_{j}."""
    a = [[f"a{i}_{j}" for j in range(i + 1)] for i in range(n)]
    lines = ["def kernel(entries):", f"    {', '.join(f'r{i}' for i in range(n))}, = entries"]
    for i in range(n):
        lines.append("    try:")
        lines += [f"        p{i}_{j}, q{i}_{j} = r{i}[{j}].as_integer_ratio()" for j in range(i + 1)]
        lines += ["    except (ValueError, OverflowError):  # NaN or inf: a raw DenseMatrix, "
                  "or @ overflowed", f"        raise NotPositiveDefinite({i + 1}) from None"]
    pairs = [(i, j) for i in range(n) for j in range(i + 1)]
    lines.append(f"    den = lcm({', '.join(f'q{i}_{j}' for i, j in pairs)})")
    lines += [f"    a{i}_{j} = p{i}_{j} * (den // q{i}_{j})" for i, j in pairs]
    for k in range(n):
        lines.append(f"    if a{k}_{k} <= 0: raise NotPositiveDefinite({k + 1})")
        prev = f" // a{k - 1}_{k - 1}" if k else ""  # minors[0] = 1
        lines += [f"    a{i}_{j} = (a{k}_{k} * a{i}_{j} - a{i}_{k} * a{j}_{k}){prev}"
                  for i in range(k + 1, n) for j in range(k + 1, i + 1)]
    minors = _tuple(["1"] + [a[k][k] for k in range(n)])
    columns = _tuple(_tuple(a[i][k] for i in range(k + 1, n)) for k in range(n))
    lines.append(f"    return den, {minors}, {columns}")
    return _compiled("\n".join(lines), f"<ldl {n}>", lcm=math.lcm,
                     NotPositiveDefinite=NotPositiveDefinite)


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
    The work is done by ``_ldl_kernel(n)``, generated for each size n
    the first time it is factored.
    """
    return _ldl_kernel(len(entries))(entries)


@functools.cache
def _upper_kernel(n: int):
    """The float R with Y = R^T R read off one n x n factor of
    ``_integer_ldl``, as straight-line code: the rows of R, as lists
    (``_arrays._upper_factors`` stacks them)."""
    lines = ["def kernel(den, minors, columns):",
             f"    {', '.join(f'm{k}' for k in range(n + 1))}, = minors"]
    for k in range(n):
        lines.append(f"    s{k} = m{k} * m{k + 1} * den")
        if k < n - 1:
            lines.append(f"    {', '.join(f'v{i}_{k}' for i in range(k + 1, n))}, = columns[{k}]")

    def entry(v, k):  # -x is (-1.0) x for any float x from sqrt
        return f"-sqrt({v} * {v} / s{k}) if {v} < 0 else sqrt({v} * {v} / s{k})"

    rows = [["0.0"] * k + [f"sqrt(m{k + 1} * m{k + 1} / s{k})"]
            + [f"({entry(f'v{i}_{k}', k)})" for i in range(k + 1, n)] for k in range(n)]
    lines.append(f"    return [{', '.join('[' + ', '.join(r) + ']' for r in rows)}]")
    return _compiled("\n".join(lines), f"<upper {n}>", sqrt=math.sqrt)


def _scaled_ldl(factor, d):
    """The ``_integer_ldl`` factor of D Y D, D = diag(d) for nonzero integers
    d, read off Y's factor (den, minors, columns) with no elimination.

    The identity: with A = den Y, D A D = den (D Y D), so den is kept.  A
    leading k x k minor of D A D is P_k times A's, P_k = prod_{l<k} d_l^2,
    and lambda_ik, the minor of A on rows 0..k-1, i and columns 0..k, gains
    P_k d_k d_i.  So minors'[k] = P_k minors[k] and column k's entry for row
    i > k is P_k d_k d_i lambda_ik.  When D clears denominators of Y, this
    den is a multiple of the one ``_integer_ldl`` would take for D Y D; L,
    the pivots and every Y[a] the factor gives are the same.
    """
    den, minors, columns = factor
    P, scaled_minors, scaled_columns = 1, [1], []
    for k, column in enumerate(columns):
        Pd = P * d[k]
        scaled_columns.append(tuple(Pd * d[i] * x for i, x in enumerate(column, k + 1)))
        P *= d[k] * d[k]
        scaled_minors.append(P * minors[k + 1])
    return den, tuple(scaled_minors), tuple(scaled_columns)


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

    def to_numpy(self):
        """The entries as a float numpy array, each rounded once."""
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
    div = _ratio(Y.mode, "LDL^T entry")
    one, zero = div(1, 1), div(0, 1)
    L = tuple(tuple(div(columns[j][i - j - 1], minors[j + 1]) if i > j
                    else one if i == j else zero for j in range(Y.n))
              for i in range(Y.n))
    d = tuple(div(minors[k + 1], minors[k] * den) for k in range(Y.n))
    return DenseMatrix(L, Y.mode), d


def eigenvalues_symmetric(Y: SpdMatrix | DenseMatrix) -> Spectrum:
    """Eigenvalues of a symmetric matrix, ascending (always float)."""
    from . import _arrays
    return Spectrum(_arrays._eigenvalues(symmetrized(_dense(Y))))


def singular_values(G: DenseMatrix | SpdMatrix) -> SingularSpectrum:
    """Singular values of a square matrix, descending (always float)."""
    m = _dense(G)
    if not m.is_square:
        raise ValueError("singular_values expects a square matrix")
    from . import _arrays
    return SingularSpectrum(_arrays._singular_values(m))


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


def _integer_triangle(Y: SpdMatrix) -> list[int]:
    """The lower triangle of the integer A = den Y, row by row (a_00, a_10,
    a_11, a_20, ...), with den the lcm that Y's kept factor cleared."""
    den = Y.integer_ldl[0]
    return [p * (den // q) for p, q in
            [x.as_integer_ratio() for i, r in enumerate(Y.entries) for x in r[:i + 1]]]


def _pencil_coefficient(a: Sequence[int]) -> int:
    """q with det(J - t A) = det(A) t^4 + q t^2 + 1, for a 4 x 4 symmetric
    integer A given by its lower triangle a (``_integer_triangle``) and J
    the standard symplectic form; so det(den J - A) = det A + den^2 q + den^4
    for every den.  Straight-line: six products, no elimination.
    q = det(A) (d_1^2 + d_2^2) for A's symplectic spectrum, so q > 0.
    """
    a00, a10, a11, a20, a21, a22, a30, a31, a32, a33 = a
    return a00 * a22 - a20 * a20 + a11 * a33 - a31 * a31 + 2 * (a10 * a32 - a30 * a21)


def _ratio(mode: str, what: str):
    """Integers p, q to p / q: a Fraction, or in float mode int / int, rounded
    once; a float quotient past the float range raises ``OverflowError``
    naming `what`, and one below it rounds to 0.0."""
    if mode == RATIONAL:
        return Fraction

    def div(p: int, q: int) -> float:
        try:
            return p / q
        except OverflowError:
            raise OverflowError(f"{what} is past the float range") from None
    return div


def _integer_rows(m: DenseMatrix) -> tuple[list[list[int]], list[int]]:
    """Each row of m times the lcm of its denominators, and those lcms; a
    finite float is a dyadic rational, so ``as_integer_ratio()`` is exact
    (on a NaN or infinity it raises ValueError or OverflowError)."""
    ratios = [[x.as_integer_ratio() for x in r] for r in m.entries]
    scales = [math.lcm(*(q for _, q in r)) for r in ratios]
    return [[p * (s // q) for p, q in r] for r, s in zip(ratios, scales)], scales


def _is_singular(G: DenseMatrix | SpdMatrix) -> bool:
    """Whether the square G is singular, decided on its exact integer rows
    (``_integer_rows``) by ``_int_determinant``: the float ``determinant``
    can underflow to 0.0 on an invertible G, or overflow, and neither is
    an answer to this question."""
    return _int_determinant(_integer_rows(_dense(G))[0]) == 0


def determinant(Y: DenseMatrix | SpdMatrix) -> Scalar:
    """Determinant, exact in both modes and rounded once in float mode.

    An ``SpdMatrix`` reads it off its kept factor as minors[n] / den^n.
    Any other matrix is cleared of denominators row by row and goes
    through the integer Bareiss elimination; dividing by the product of
    the row scales is exact.  An exactly singular matrix gives 0.  In
    float mode a determinant past the float range raises ``OverflowError``,
    and one below it rounds to 0.0, so an ``SpdMatrix`` near 10^-90 I_4
    can read 0.0 (``_is_singular`` decides invertibility exactly).
    """
    m = _dense(Y)
    if not m.is_square:
        raise ValueError("determinant expects a square matrix")
    div = _ratio(m.mode, "determinant")
    if isinstance(Y, SpdMatrix):
        den, minors, _ = Y.integer_ldl
        return div(minors[-1], den ** Y.n)
    rows, scales = _integer_rows(m)
    return div(_int_determinant(rows), math.prod(scales))


def matrix_inverse(G: DenseMatrix | SpdMatrix) -> DenseMatrix:
    """Inverse, exact in both modes and rounded once per entry in float mode.

    With A = S^{-1} B, B the integer rows and S the diagonal of their
    scales, one Bareiss elimination of [B | S] leaves p B^{-1} S =
    p A^{-1}.  An exactly singular matrix raises ``Singular``, and in
    float mode an entry past the float range ``OverflowError``.
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
    div, p = _ratio(m.mode, "inverse entry"), a[0][0]
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
    v = _python_scalar(v)
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
