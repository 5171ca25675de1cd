import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heismoduli as hm
from conftest import givens_orthogonal, random_rational_spd


def frac(p, q=1):
    return Fraction(p, q)


class TestLdl:
    def test_identity(self):
        L, D = hm.ldl_decompose(hm.SpdMatrix(hm.identity(2)))
        assert L.entries == hm.identity(2).entries
        assert D == (1, 1)

    def test_worked_example(self):
        Y = hm.SpdMatrix.from_rows([[4, 2], [2, 2]])
        L, D = hm.ldl_decompose(Y)
        assert L.entries[1][0] == frac(1, 2)
        assert D == (4, 1)
        Dm = hm.DenseMatrix.from_rows([[D[0], 0], [0, D[1]]])
        assert (L @ Dm @ L.transpose()).entries == Y.entries

    def test_not_positive_definite_reports_pivot(self):
        with pytest.raises(hm.NotPositiveDefinite) as exc:
            hm.SpdMatrix.from_rows([[1, 2], [2, 1]])
        assert exc.value.pivot_index == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.randoms(use_true_random=False))
    def test_reconstruction_exact(self, n, rnd):
        rng = random.Random(rnd.randrange(2**32))
        Y = random_rational_spd(rng, n)
        L, D = hm.ldl_decompose(Y)
        Dm = hm.DenseMatrix.from_rows(
            [[D[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )
        assert (L @ Dm @ L.transpose()).entries == Y.entries

    def test_factor_kept_from_construction(self):
        Y = hm.SpdMatrix.from_rows([[4, 2], [2, 2]])
        assert hm.ldl_decompose(Y) is hm.ldl_decompose(Y)

    def test_dense_input_validated_as_spd(self):
        L, D = hm.ldl_decompose(hm.DenseMatrix.from_rows([[4, 2], [2, 2]]))
        assert D == (4, 1)
        with pytest.raises(hm.NotPositiveDefinite):
            hm.ldl_decompose(hm.DenseMatrix.from_rows([[1, 2], [2, 1]]))
        with pytest.raises(hm.NotSymmetric):
            hm.ldl_decompose(hm.DenseMatrix.from_rows([[1, 1], [0, 1]]))

    def test_factor_does_not_affect_equality(self):
        a = hm.SpdMatrix.from_rows([[2, 1], [1, 2]])
        b = hm.SpdMatrix.from_rows([[2, 1], [1, 2]])
        assert a == b and hash(a) == hash(b)
        assert "_ldl" not in repr(a)


class TestSymmetryPolicy:
    def test_small_asymmetry_repaired(self):
        Y = hm.SpdMatrix.from_rows([[1.0, 1e-14], [0.0, 1.0]])
        assert Y.entries[0][1] == Y.entries[1][0]

    def test_large_asymmetry_rejected(self):
        with pytest.raises(hm.NotSymmetric):
            hm.SpdMatrix.from_rows([[1.0, 0.1], [0.0, 1.0]])


class TestEigenvalues:
    def test_identity(self):
        assert hm.eigenvalues_symmetric(hm.identity(3)).values == (1, 1, 1)

    def test_diagonal_sorted(self):
        Y = hm.DenseMatrix.from_rows([[3, 0, 0], [0, 1, 0], [0, 0, 2]])
        assert hm.eigenvalues_symmetric(Y).values == (1, 2, 3)

    def test_two_by_two_characteristic_roots(self):
        # char poly of [[2,1],[1,2]] is (x-1)(x-3)
        vals = hm.eigenvalues_symmetric(hm.SpdMatrix.from_rows([[2, 1], [1, 2]])).values
        assert vals == pytest.approx((1.0, 3.0), rel=1e-12)

    def test_product_is_determinant_and_sum_is_trace(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.choice((2, 3, 4, 5))
            Y = random_rational_spd(rng, n)
            vals = hm.eigenvalues_symmetric(Y).values
            prod = math.prod(vals)
            det = float(hm.determinant(Y.matrix))
            assert abs(prod - det) <= 1e-9 * abs(det)
            tr = float(sum(Y.entries[i][i] for i in range(n)))
            assert abs(sum(vals) - tr) <= 1e-9 * abs(tr)

    def test_rejects_asymmetric(self):
        with pytest.raises(hm.NotSymmetric):
            hm.eigenvalues_symmetric(hm.DenseMatrix.from_rows([[1, 2], [0, 1]]))


class TestSingularValues:
    def test_identity(self):
        assert hm.singular_values(hm.identity(3)).values == (1, 1, 1)

    def test_diagonal(self):
        assert hm.singular_values(hm.DenseMatrix.from_rows([[2, 0], [0, 1]])).values == (2, 1)

    def test_rotation_has_unit_spectrum(self):
        # J^T J = Id, so both singular values are 1
        J = hm.DenseMatrix.from_rows([[0, 1], [-1, 0]])
        assert hm.singular_values(J).values == pytest.approx((1.0, 1.0))

    def test_squares_match_gram_eigenvalues(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.choice((2, 3, 4))
            G = hm.DenseMatrix.from_rows(
                [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)], hm.FLOAT
            )
            sv = hm.singular_values(G).values
            ev = hm.eigenvalues_symmetric(hm.congruence(hm.identity(n, hm.FLOAT), G)).values
            for s, e in zip(sorted(v * v for v in sv), sorted(ev)):
                assert abs(s - e) <= 1e-9 * max(1.0, abs(e))

    def test_orthogonal_invariance(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.choice((2, 3, 4))
            G = hm.DenseMatrix.from_rows(
                [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)], hm.FLOAT
            )
            Q = givens_orthogonal(rng, n)
            a = hm.singular_values(Q @ G).values
            b = hm.singular_values(G).values
            for x, y in zip(a, b):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(y))


def _leibniz_determinant(rows):
    """Sum over permutations of sign * product; the textbook definition."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def _square_rationals(draw):
    n = draw(st.integers(1, 5))
    rows = [[draw(_fractions) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("plain", "zero_pivot", "singular")))
    if shape == "zero_pivot":
        rows[0][0] = Fraction(0)
    elif shape == "singular" and n > 1:
        k = draw(_fractions)
        rows[-1] = [k * x for x in rows[0]]
    return rows


class TestDeterminant:
    @settings(max_examples=150, deadline=None)
    @given(_square_rationals())
    @example([[Fraction(0), Fraction(1, 2), Fraction(3)],
              [Fraction(-2, 3), Fraction(5), Fraction(1, 7)],
              [Fraction(4), Fraction(-1, 5), Fraction(2)]])  # zero leading pivot
    @example([[Fraction(1, 2), Fraction(-3, 4)],
              [Fraction(-1, 3), Fraction(1, 2)]])  # singular
    def test_matches_leibniz(self, rows):
        got = hm.determinant(hm.DenseMatrix.from_rows(rows, hm.RATIONAL))
        assert isinstance(got, Fraction)
        assert got == _leibniz_determinant(rows)

    def test_identity(self):
        assert hm.determinant(hm.identity(4)) == 1

    def test_diagonal(self):
        assert hm.determinant(hm.DenseMatrix.from_rows([[4, 0], [0, 1]])) == 4

    def test_exact_fractions(self):
        m = hm.DenseMatrix.from_rows([[frac(1, 3), frac(1, 2)], [frac(1, 5), frac(2, 7)]])
        assert hm.determinant(m) == frac(1, 3) * frac(2, 7) - frac(1, 2) * frac(1, 5)

    def test_float_mode(self):
        m = hm.DenseMatrix.from_rows([[2.0, 1.0], [1.0, 2.0]])
        assert hm.determinant(m) == pytest.approx(3.0)

    def test_singular_exact(self):
        assert hm.determinant(hm.DenseMatrix.from_rows([[1, 2], [2, 4]])) == 0


class TestMaxNorm:
    def test_cases(self):
        assert hm.max_norm(hm.identity(2)) == 1
        assert hm.max_norm(hm.DenseMatrix.from_rows([[0, 3], [-5, 0]])) == 5
        assert hm.max_norm(hm.symplectic_j(2)) == 1


class TestInverse:
    def test_exact_roundtrip(self):
        rng = random.Random(3)
        for _ in range(10):
            Y = random_rational_spd(rng, 4)
            inv = hm.matrix_inverse(Y.matrix)
            assert (inv @ Y.matrix).entries == hm.identity(4).entries

    def test_singular_raises(self):
        with pytest.raises(hm.Singular):
            hm.matrix_inverse(hm.DenseMatrix.from_rows([[1, 2], [2, 4]]))


class TestJson:
    def test_rational_roundtrip(self):
        Y = hm.DenseMatrix.from_rows([[frac(1, 2), 3], [3, frac(7, 5)]])
        obj = hm.matrix_to_json(Y)
        assert obj["mode"] == "rational"
        assert obj["entries"][0][0] == "1/2"
        assert hm.matrix_from_json(obj).entries == Y.entries

    def test_float_roundtrip(self):
        Y = hm.DenseMatrix.from_rows([[1.5, 0.25], [0.25, 2.0]])
        obj = hm.matrix_to_json(Y)
        assert obj["mode"] == "float"
        assert hm.matrix_from_json(obj).entries == Y.entries

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            hm.matrix_from_json({"mode": "rational", "rows": 2, "cols": 2,
                                 "entries": [["1", "0"]]})
