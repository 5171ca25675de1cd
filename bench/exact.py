"""Exact reference arithmetic the benchmark checks answers with.

Written independently of ``heismoduli`` so that a wrong library answer
cannot also be a wrong reference.  Matrices are lists of rows of ints or
Fractions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def congruence(y, u):
    """U^T Y U."""
    return matmul(matmul(transpose(u), y), u)


def det(a) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    result = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            result = -result
        result *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return result


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def symplectic_spectrum(y) -> list[float]:
    """d_1 <= ... <= d_n with +-i d_k the eigenvalues of Y^{-1} J (numpy)."""
    two_n = len(y)
    n = two_n // 2
    J = np.zeros((two_n, two_n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    mu = np.linalg.eigvals(np.linalg.solve(np.array(y, dtype=float), J))
    imag = sorted(abs(v.imag) for v in mu)
    return [float(v) for v in imag[1::2]]


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))
