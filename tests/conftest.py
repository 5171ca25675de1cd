"""Shared deterministic generators and independent oracles for the tests."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import heismoduli as hm

# a float Gram that SpdMatrix accepts exactly (det = 2^-49) but the float
# Cholesky rejects; it is also badly reduced: its minimum, along (5, -3),
# lies far below its smallest diagonal entry 3
PAST_CHOLESKY = [[3.0, 5.0], [5.0, 8.333333333333334]]


@pytest.fixture
def no_lapack(monkeypatch):
    """numpy's ``svd`` and ``inv`` replaced by stubs that fail when called:
    a spectrum at n <= 2 makes no LAPACK call."""
    def refused(*args, **kwargs):
        raise AssertionError("LAPACK called for a spectrum at n <= 2")

    monkeypatch.setattr(np.linalg, "svd", refused)
    monkeypatch.setattr(np.linalg, "inv", refused)


def random_rational_spd(rng: random.Random, n: int, box_cap: int = 400_000) -> hm.SpdMatrix:
    """Random exact Gram matrix built as L D L^T with small rational entries.

    Resamples until the provable enumeration box (see ``fincke_pohst_box``)
    stays below ``box_cap`` points, so brute-force oracles stay cheap.
    """
    pivots = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
    coeffs = (
        Fraction(0), Fraction(0),
        Fraction(1, 2), Fraction(-1, 2),
        Fraction(1), Fraction(-1),
        Fraction(3, 2), Fraction(-3, 2),
        Fraction(2), Fraction(-2),
    )
    while True:
        L = [
            [Fraction(1) if i == j else (rng.choice(coeffs) if i > j else Fraction(0))
             for j in range(n)]
            for i in range(n)
        ]
        D = [rng.choice(pivots) for _ in range(n)]
        Lm = hm.DenseMatrix.from_rows(L)
        Dm = hm.DenseMatrix.from_rows(
            [[D[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )
        Y = hm.SpdMatrix(Lm @ Dm @ Lm.transpose())
        vol = 1
        for b in fincke_pohst_box(Y):
            vol *= 2 * b + 1
        if vol <= box_cap:
            return Y


def fincke_pohst_box(Y: hm.SpdMatrix) -> list[int]:
    """Provable per-coordinate bound for vectors with Y[a] <= min diagonal.

    |a_i|^2 <= t (Y^{-1})_{ii} by Cauchy-Schwarz in the Y-inner product;
    derived from the inverse diagonal, independently of the recursive
    interval bounds used by the enumerator.
    """
    inv = hm.matrix_inverse(Y.matrix)
    t = min(Y.diagonal())
    bounds = []
    for i in range(Y.n):
        q = t * inv.entries[i][i]
        bounds.append(math.isqrt(q.numerator * q.denominator) // q.denominator)
    return bounds


def brute_force_minimum(Y: hm.SpdMatrix) -> Fraction:
    """Exact first minimum by integer enumeration over the coordinate box."""
    n = Y.n
    lcm = 1
    for row in Y.entries:
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    Yi = np.array([[int(x * lcm) for x in row] for row in Y.entries], dtype=np.int64)
    ranges = [np.arange(-b, b + 1, dtype=np.int64) for b in fincke_pohst_box(Y)]
    grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, n)
    grid = grid[np.any(grid != 0, axis=1)]
    vals = np.einsum("ij,jk,ik->i", grid, Yi, grid)
    return Fraction(int(vals.min()), lcm)


def random_unimodular(rng: random.Random, n: int, steps: int = 20) -> hm.DenseMatrix:
    """Product of at most `steps` elementary integer row operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.choice(("add", "swap", "negate"))
        if op == "add" and n > 1:
            i, j = rng.sample(range(n), 2)
            t = rng.choice((-1, 1))
            m[i] = [a + t * b for a, b in zip(m[i], m[j])]
        elif op == "swap" and n > 1:
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i = rng.randrange(n)
            m[i] = [-a for a in m[i]]
    return hm.DenseMatrix.from_rows(m)


def skewed_unit_lattice(n: int, b: int, seed: int) -> tuple[list[list[int]], list[list[int]]]:
    """(U, U^T U): Z^n in the badly reduced basis U = A B.

    A is unit lower-triangular and B unit upper-triangular; their
    off-diagonal entries are ``randint(-b, b)`` from ``random.Random(seed)``,
    drawn for A row by row and then for B.  The Gram matrix has first
    minimum 1, attained exactly by the columns of U^{-1} and their
    negatives, while its smallest diagonal entry can be far larger.
    """
    rng = random.Random(seed)
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    B = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            A[i][j] = rng.randint(-b, b)
    for i in range(n):
        for j in range(i + 1, n):
            B[i][j] = rng.randint(-b, b)
    U = [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    gram = [[sum(U[k][i] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return U, gram


def random_integer_gram(rng: random.Random, dim: int, entry_bound: int = 2,
                        min_det: int = 2) -> hm.SpdMatrix:
    """Exact Gram matrix B^T B with B integer and decently conditioned."""
    while True:
        B = [[rng.randint(-entry_bound, entry_bound) for _ in range(dim)]
             for _ in range(dim)]
        Bm = hm.DenseMatrix.from_rows(B)
        if abs(hm.determinant(Bm)) >= min_det:
            return hm.SpdMatrix(hm.congruence(hm.identity(dim), Bm))


def givens_orthogonal(rng: random.Random, n: int, rotations: int = 10) -> hm.DenseMatrix:
    """Random float orthogonal matrix as a product of Givens rotations."""
    q = np.eye(n)
    for _ in range(rotations):
        i, j = rng.sample(range(n), 2)
        theta = rng.uniform(0, 2 * math.pi)
        g = np.eye(n)
        g[i, i] = g[j, j] = math.cos(theta)
        g[i, j] = math.sin(theta)
        g[j, i] = -math.sin(theta)
        q = q @ g
    return hm.DenseMatrix.from_rows(q.tolist(), hm.FLOAT)


def rational_metric(h: hm.SpdMatrix, g, r=None) -> hm.NormalizedMetric:
    if r is None:
        r = hm.DivisibilityTuple.ones(h.n // 2)
    return hm.NormalizedMetric(h, g, r)


def witness_order(a: tuple[int, ...]):
    """The documented canonical order: compare absolute entries from the
    last coordinate backwards, then the signed entries the same way."""
    return (tuple(abs(x) for x in reversed(a)), tuple(reversed(a)))


def box_short_vectors(Y: hm.SpdMatrix, bound) -> dict[tuple[int, ...], Fraction]:
    """{a: Y[a]} for every nonzero a with Y[a] <= bound, first nonzero entry
    positive, by exhaustive search of the box |a_i|^2 <= bound (Y^{-1})_{ii}.

    Evaluates Y[a] on the integer matrix lcm(denominators) * Y, with no
    use of the LDL^T factor.
    """
    import itertools

    n = Y.n
    bound = Fraction(bound)
    if bound < 0:
        return {}
    lcm = math.lcm(*(x.denominator for row in Y.entries for x in row))
    Yi = [[int(x * lcm) for x in row] for row in Y.entries]
    inv = hm.matrix_inverse(Y.matrix)
    ranges = []
    for i in range(n):
        q = bound * inv.entries[i][i]
        b = math.isqrt(q.numerator * q.denominator) // q.denominator
        ranges.append(range(-b, b + 1))
    found = {}
    for a in itertools.product(*ranges):
        first = next((x for x in a if x), 0)
        if first <= 0:  # the zero vector, or the other sign of a vector kept
            continue
        value = Fraction(sum(a[i] * Yi[i][j] * a[j] for i in range(n) for j in range(n)), lcm)
        if value <= bound:
            found[a] = value
    return found


def brute_force_membership(Y: hm.SpdMatrix):
    """(k, kind, witness) of the first violated Minkowski condition, or None.

    Sign conditions first, then for k = 1..n, among the a with
    gcd(a_k..a_n) = 1 and Y[a] < y_kk from an exhaustive box search, the
    canonically first of least Y[a].
    """
    n = Y.n
    for k in range(n - 1):
        if Y.entries[k][k + 1] < 0:
            return (k + 1, "sign", None)
    short = box_short_vectors(Y, max(Y.diagonal()))
    for k in range(n):
        hits = [a for a, v in short.items()
                if v < Y.entries[k][k] and math.gcd(*a[k:]) == 1]
        if hits:
            least = min(short[a] for a in hits)
            return (k + 1, "short_vector",
                    min((a for a in hits if short[a] == least), key=witness_order))
    return None


def fraction_ldl(entries):
    """Reference LDL^T over the rationals, pivot by pivot in Fractions.

    Returns (L, d) as lists, or raises ``NotPositiveDefinite`` with the
    1-based index of the first pivot that is not positive.
    """
    n = len(entries)
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        pivot = entries[j][j] - sum(L[j][k] * L[j][k] * d[k] for k in range(j))
        if not pivot > 0:
            raise hm.NotPositiveDefinite(j + 1)
        d[j] = pivot
        for i in range(j + 1, n):
            s = entries[i][j] - sum(L[i][k] * L[j][k] * d[k] for k in range(j))
            L[i][j] = s / pivot
    return L, d
