import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import heismoduli as hm
from heismoduli import linalg
from conftest import fraction_ldl, givens_orthogonal, random_rational_spd


# numpy scalars and the Python scalars they hold
NUMPY_SCALARS = [(np.int64(3), 3), (np.float32(0.75), 0.75), (np.float64(-2.5), -2.5)]


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

    @pytest.mark.parametrize("rows, pivot", [([[math.nan, 0.0], [0.0, 1.0]], 1),
                                             ([[1.0, 0.0], [0.0, math.nan]], 2),
                                             ([[math.inf, 0.0], [0.0, 1.0]], 1),
                                             ([[1.0, 0.0], [0.0, math.inf]], 2),
                                             ([[1.0, math.inf], [math.inf, 1.0]], 2)])
    def test_nan_pivot_rejected(self, rows, pivot):
        # the coercion refuses a non-finite entry; the raw constructor
        # skips it, and the factor rejects the row at its pivot
        with pytest.raises(ValueError, match="float scalar .* is not finite"):
            hm.SpdMatrix.from_rows(rows, hm.FLOAT)
        with pytest.raises(hm.NotPositiveDefinite) as exc:
            hm.SpdMatrix(hm.DenseMatrix(tuple(map(tuple, rows)), hm.FLOAT))
        assert exc.value.pivot_index == pivot

    def test_overflowed_product_rejected_at_pivot(self):
        A = hm.DenseMatrix.from_rows([[1e200]])
        assert (A @ A).entries == ((math.inf,),)
        with pytest.raises(hm.NotPositiveDefinite) as exc:
            hm.SpdMatrix(A @ A)
        assert exc.value.pivot_index == 1

    def test_entry_past_the_float_range_refused(self):
        # a valid float Y whose L_21 = y_21 / y_11 is 1e314
        Y = hm.SpdMatrix.from_rows([[1e-320, 1e-6], [1e-6, 1.7e308]])
        with pytest.raises(OverflowError, match="^LDL\\^T entry is past the float range$"):
            hm.ldl_decompose(Y)

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
        assert hm.ldl_decompose(Y) == hm.ldl_decompose(Y)

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


class TestEmptyMatrices:
    @pytest.mark.parametrize("n", [0, -2])
    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    def test_identity_rejected(self, n, mode):
        with pytest.raises(ValueError, match="at least one row and column"):
            hm.identity(n, mode)

    @pytest.mark.parametrize("rows", [[], [[]]])
    def test_from_rows_rejected(self, rows):
        with pytest.raises(ValueError, match="at least one row and column"):
            hm.DenseMatrix.from_rows(rows)


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

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_has_no_exact_value(self, x):
        # from_rows refuses the entry; a raw-constructed matrix reaches the elimination
        with pytest.raises(ValueError, match="is not finite"):
            hm.DenseMatrix.from_rows([[1.0, x], [0.0, 1.0]])
        m = hm.DenseMatrix(((1.0, x), (0.0, 1.0)), hm.FLOAT)
        for f in (hm.determinant, hm.matrix_inverse):
            with pytest.raises((ValueError, OverflowError)):
                f(m)

    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    def test_singular_float_as_rational(self, mode):
        # integer entries, exactly singular; LAPACK gives det -2.6e-10
        G = hm.DenseMatrix.from_rows(
            [[-62, 1, 38, 31, -2, -45], [-2, -4, 8, 9, -4, -7], [8, -1, -8, -7, -7, -9],
             [-8, 6, 2, 9, 8, -3], [-9, 8, 8, 1, 5, -9], [7, 4, 6, 2, 4, 2]], mode)
        det = hm.determinant(G)
        assert det == 0 and type(det) is (Fraction if mode == hm.RATIONAL else float)
        Y = hm.SpdMatrix(hm.identity(6, mode))
        with pytest.raises(hm.Singular):
            hm.matrix_inverse(G)
        with pytest.raises(hm.Singular):
            hm.verify_key_inequality(Y, G)
        with pytest.raises(hm.Singular):
            hm.pullback_metric(Y, G)

    # singularity is decided on the exact integer rows: the float
    # determinant of c I underflows to 0.0 at 1e-90 and overflows at 1e80
    @pytest.mark.parametrize("rows, singular", [
        ([[1e-90 * (i == j) for j in range(4)] for i in range(4)], False),
        ([[1e80 * (i == j) for j in range(4)] for i in range(4)], False),
        ([[1.0, 1.0], [1.0, 1.0]], True),
        ([[frac(1, 3), frac(1, 2)], [frac(2, 3), frac(1)]], True),
        ([[1, 1], [1, 1 + frac(1, 10**20)]], False),
    ])
    def test_singularity_decided_exactly(self, rows, singular):
        assert hm.linalg._is_singular(hm.DenseMatrix.from_rows(rows)) is singular

    # a float determinant past the float range is named in the error, as an
    # SpdMatrix and as a DenseMatrix
    @pytest.mark.parametrize("spd", [False, True])
    def test_past_the_float_range_refused(self, spd):
        Y = hm.DenseMatrix.from_rows([[1e80 * (i == j) for j in range(4)] for i in range(4)])
        with pytest.raises(OverflowError, match="^determinant is past the float range$"):
            hm.determinant(hm.SpdMatrix(Y) if spd else Y)

    def test_below_the_float_range_rounds_to_zero(self):
        Y = hm.DenseMatrix.from_rows([[1e-90 * (i == j) for j in range(4)] for i in range(4)])
        assert hm.determinant(hm.SpdMatrix(Y)) == hm.determinant(Y) == 0.0


@st.composite
def _symmetric_rationals(draw):
    """Symmetric rational matrices of size 1-8 with mixed denominators:
    Gram matrices B^T B + I/7, the same with one diagonal entry lowered
    (positive definite or not, failing at any pivot), and raw symmetric
    matrices."""
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(("gram", "lowered", "raw")))
    if shape == "raw":
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = draw(_fractions)
        return rows
    B = [[draw(_fractions) for _ in range(n)] for _ in range(n)]
    rows = [[sum(B[k][i] * B[k][j] for k in range(n)) + Fraction(int(i == j), 7)
             for j in range(n)] for i in range(n)]
    if shape == "lowered":
        k = draw(st.integers(0, n - 1))
        rows[k][k] -= draw(st.fractions(0, math.ceil(rows[k][k]) + 1, max_denominator=12))
    return rows


class TestPencilCoefficient:
    # det(den J - A) = det A + den^2 q + den^4, checked against the general
    # integer elimination on the rows of den J - A
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(-50, 50, max_denominator=12), min_size=16, max_size=16)
           | st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16))
    def test_matches_the_determinant(self, entries):
        B = [entries[4 * i:4 * i + 4] for i in range(4)]
        try:
            Y = hm.SpdMatrix.from_rows([[sum(B[k][i] * B[k][j] for k in range(4))
                                         + (i == j) for j in range(4)] for i in range(4)])
        except hm.NotPositiveDefinite:  # rounded in floats
            assume(False)
        den, minors, _ = Y.integer_ldl
        a = linalg._integer_triangle(Y)
        A = [[a[max(i, j) * (max(i, j) + 1) // 2 + min(i, j)] for j in range(4)]
             for i in range(4)]
        assert [[Fraction(x) for x in r] for r in A] == [
            [den * Fraction(x) for x in r] for r in Y.entries]
        J = hm.symplectic_j(2).entries
        rows = [[den * int(J[i][j]) - A[i][j] for j in range(4)] for i in range(4)]
        q = linalg._pencil_coefficient(a)
        assert linalg._int_determinant(rows) == minors[-1] + den**2 * q + den**4
        assert q > 0


class TestIntegerLdl:
    """The fraction-free factor against the Fraction LDL^T it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(_symmetric_rationals())
    def test_matches_fraction_ldl(self, rows):
        try:
            L_ref, d_ref = fraction_ldl(rows)
        except hm.NotPositiveDefinite as exc:
            with pytest.raises(hm.NotPositiveDefinite) as got:
                hm.SpdMatrix.from_rows(rows)
            assert got.value.pivot_index == exc.pivot_index
            return
        Y = hm.SpdMatrix.from_rows(rows)
        L, d = hm.ldl_decompose(Y)
        assert L.entries == tuple(map(tuple, L_ref))
        assert d == tuple(d_ref)
        assert all(type(x) is Fraction for r in L.entries for x in r)
        assert all(type(x) is Fraction for x in d)
        assert hm.ldl_decompose(Y) == hm.ldl_decompose(Y)

    @settings(max_examples=100, deadline=None)
    @given(_symmetric_rationals())
    def test_determinant_from_minors(self, rows):
        try:
            Y = hm.SpdMatrix.from_rows(rows)
        except hm.NotPositiveDefinite:
            return
        den, minors, _ = Y.integer_ldl
        assert hm.determinant(Y) == Fraction(minors[-1], den ** Y.n)
        assert hm.determinant(Y) == hm.determinant(Y.matrix)  # Bareiss on the dense matrix

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_fraction_ldl_each_size(self, n):
        rng = random.Random(n)
        for _ in range(4):
            B = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
                 for _ in range(n)]
            rows = [[sum(B[k][i] * B[k][j] for k in range(n)) + Fraction(int(i == j), 7)
                     for j in range(n)] for i in range(n)]
            L, d = hm.ldl_decompose(hm.SpdMatrix.from_rows(rows))
            L_ref, d_ref = fraction_ldl(rows)
            assert L.entries == tuple(map(tuple, L_ref)) and d == tuple(d_ref)

    @settings(max_examples=100, deadline=None)
    @given(_symmetric_rationals(), st.lists(st.integers(1, 12), min_size=8, max_size=8))
    def test_scaled_factor_is_the_factor_of_the_scaled_matrix(self, rows, d):
        # _scaled_ldl keeps den; on the integer matrix den D Y D, whose den
        # is 1, the elimination gives the same minors and columns
        try:
            Y = hm.SpdMatrix.from_rows(rows)
        except hm.NotPositiveDefinite:
            return
        den = Y.integer_ldl[0]
        scaled = [[den * d[i] * d[j] * x for j, x in enumerate(r)] for i, r in enumerate(Y.entries)]
        assert hm.linalg._scaled_ldl(Y.integer_ldl, d) == (den, *hm.linalg._integer_ldl(scaled)[1:])

    def test_determinant_runs_no_elimination(self, monkeypatch):
        Y = hm.SpdMatrix.from_rows([[frac(1, 2), frac(1, 3)], [frac(1, 3), 2]])

        def eliminate(*args):
            raise AssertionError("determinant ran an elimination")

        monkeypatch.setattr(hm.linalg, "_integer_ldl", eliminate)
        monkeypatch.setattr(hm.linalg, "_int_determinant", eliminate)
        assert hm.determinant(Y) == frac(1) - frac(1, 9)


@st.composite
def _float_grams(draw):
    """B^T B in floats for a k x n matrix B, k <= n <= 8.  With k < n the
    exact product is singular, so rounding puts it on either side of P_n."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    b = draw(st.lists(st.floats(-4, 4), min_size=k * n, max_size=k * n))
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = sum(b[t * n + i] * b[t * n + j] for t in range(k))
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] += draw(st.sampled_from((0.0, 2.0 ** -52, 1e-9, 0.5)))
    return rows


class TestFloatGram:
    """A float SpdMatrix is decided and factored as its exact entries."""

    @settings(max_examples=200, deadline=None)
    @given(_float_grams())
    @example([[3.0, 19.0], [19.0, 120.33333333333333]])
    @example([[3.0, 5.0], [5.0, 8.333333333333334]])
    def test_decided_as_exact_entries(self, rows):
        exact = [[Fraction(x) for x in r] for r in rows]
        try:
            L_ref, d_ref = fraction_ldl(exact)
        except hm.NotPositiveDefinite as exc:
            for mode in (hm.FLOAT, hm.RATIONAL):
                with pytest.raises(hm.NotPositiveDefinite) as got:
                    hm.SpdMatrix.from_rows(rows, mode)
                assert got.value.pivot_index == exc.pivot_index
            return
        Y = hm.SpdMatrix.from_rows(rows, hm.FLOAT)
        assert Y.integer_ldl == hm.SpdMatrix(Y.matrix.to_rational()).integer_ldl
        L, d = hm.ldl_decompose(Y)
        assert L.mode == hm.FLOAT
        assert L.entries == tuple(tuple(float(x) for x in r) for r in L_ref)
        assert d == tuple(float(x) for x in d_ref)

    def test_not_positive_definite_rejected_at_construction(self):
        # 3 c - 19^2 < 0 for the double c nearest 361/3
        with pytest.raises(hm.NotPositiveDefinite) as exc:
            hm.SpdMatrix.from_rows([[3.0, 19.0], [19.0, 120.33333333333333]])
        assert exc.value.pivot_index == 2

    def test_positive_definite_accepted(self):
        # 3 c - 5^2 > 0 for the double c nearest 25/3; valid but skewed, so
        # no lattice routine is called on it here
        Y = hm.SpdMatrix.from_rows([[3.0, 5.0], [5.0, 8.333333333333334]])
        _, minors, _ = Y.integer_ldl
        assert all(m > 0 for m in minors)


_signs = st.sampled_from(("", "", "-", "-", "+", "--", "-+"))
_numerals = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=6),
    st.sampled_from(("0", "00", "", "1_000", "1__0", "_1", "1_", "\uff11", "\u0663",
                     ".5", "1.", "1.5", "1e3", "1E-2", "2.5e+1", "inf", "nan")),
)


@st.composite
def _scalar_strings(draw):
    space = st.sampled_from(("", " ", "\t", " \n"))
    denominator = st.tuples(_signs, _numerals).map(lambda t: "/" + "".join(t))
    tail = draw(st.one_of(st.just(""), denominator))
    return draw(space) + draw(_signs) + draw(_numerals) + tail + draw(space)


class TestScalarParsing:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(_scalar_strings(), st.text(alphabet="0123456789-+/._ eE\uff11", max_size=8)))
    @example("1/0")
    @example("-1/00")
    @example(" 1/0 ")
    @example("3/-4")
    @example("\uff11")
    @example("1_000")
    @example("-0/5")
    def test_matches_fraction(self, s):
        try:
            expected = Fraction(s)
        except (ValueError, ZeroDivisionError):
            for mode in (hm.RATIONAL, hm.FLOAT):
                with pytest.raises(ValueError):
                    hm.linalg.scalar_from_json(s, mode)
            return
        got = hm.linalg.scalar_from_json(s, hm.RATIONAL)
        assert type(got) is Fraction and got == expected
        try:
            x = float(expected)
        except OverflowError:  # past the float range: not a finite float scalar
            with pytest.raises(ValueError):
                hm.linalg.scalar_from_json(s, hm.FLOAT)
        else:
            assert hm.linalg.scalar_from_json(s, hm.FLOAT) == x

    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT, None])
    @pytest.mark.parametrize("rows", [[[True]], [[False, 1], [1, 2]], [[1.5, True]],
                                      [[True, False], [False, True]]])
    def test_bool_entry_rejected(self, rows, mode):
        # a bool is not a scalar here either, as in scalar_from_json
        flag = next(x for r in rows for x in r if isinstance(x, bool))
        message = f"boolean {flag} is not a scalar"
        with pytest.raises(ValueError, match=message):
            hm.DenseMatrix.from_rows(rows, mode)
        if len(rows) == len(rows[0]):
            with pytest.raises(ValueError, match=message):
                hm.SpdMatrix.from_rows(rows, mode)
        with pytest.raises(ValueError, match=message):
            hm.linalg.scalar_from_json(flag, mode or hm.RATIONAL)

    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT, None])
    @pytest.mark.parametrize("flag", [np.True_, np.False_])
    def test_numpy_bool_entry_rejected(self, flag, mode):
        # numpy's bool is a bool too, not the 1 or 0 Fraction() or float() make of it
        message = f"boolean {bool(flag)} is not a scalar"
        for rows in ([[flag]], [[1.5, flag]], [[1, flag], [flag, 2]]):
            with pytest.raises(ValueError, match=message):
                hm.DenseMatrix.from_rows(rows, mode)
        with pytest.raises(ValueError, match=message):
            hm.SpdMatrix.from_rows([[2, flag], [flag, 2]], mode)
        with pytest.raises(ValueError, match=message):
            hm.linalg.scalar_from_json(flag, mode or hm.FLOAT)

    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT, None])
    @pytest.mark.parametrize("value, plain", NUMPY_SCALARS)
    def test_numpy_entry_is_its_python_scalar(self, value, plain, mode):
        def typed(m):
            return m.mode, [[(type(x), x) for x in r] for r in m.entries]

        for build in (hm.DenseMatrix.from_rows, hm.SpdMatrix.from_rows):
            got = build([[4, value], [value, 9]], mode)
            assert typed(got) == typed(build([[4, plain], [plain, 9]], mode))
        for m in (hm.RATIONAL, hm.FLOAT):
            try:
                want = hm.linalg.scalar_from_json(plain, m)
            except ValueError:  # a float in a rational payload
                with pytest.raises(ValueError):
                    hm.linalg.scalar_from_json(value, m)
            else:
                got = hm.linalg.scalar_from_json(value, m)
                assert (type(got), got) == (type(want), want)

    @pytest.mark.parametrize("value", [np.float64(np.inf), np.float32(-np.inf),
                                       np.float64(np.nan)])
    def test_numpy_non_finite_entry_rejected(self, value):
        with pytest.raises(ValueError, match="not finite"):
            hm.DenseMatrix.from_rows([[value]])

    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    def test_zero_denominator_is_value_error(self, mode):
        with pytest.raises(ValueError):
            hm.linalg.scalar_from_json("1/0", mode)
        with pytest.raises(ValueError):
            hm.matrix_from_json({"mode": mode, "rows": 1, "cols": 1, "entries": [["1/0"]]})


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

    def test_entry_past_the_float_range_refused(self):
        G = hm.DenseMatrix.from_rows([[1e-310, 0.0], [0.0, 1.0]])
        with pytest.raises(OverflowError, match="^inverse entry is past the float range$"):
            hm.matrix_inverse(G)
        assert hm.matrix_inverse(G.to_rational()).entries[0][0] == 1 / Fraction(1e-310)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_float_results_correctly_rounded(self, n):
        # float Grams B^T B + I/2 and dense float matrices: each float result
        # is float() of the same computation on the entries as Fractions
        rng = random.Random(1100 + n)
        half = hm.DenseMatrix.from_rows([[0.5 * (i == j) for j in range(n)] for i in range(n)])
        for _ in range(8):
            B, D = ([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)] for _ in range(2))
            Bm = hm.DenseMatrix.from_rows(B)
            gram = hm.DenseMatrix.from_rows(
                [[x + h for x, h in zip(r, rh)]
                 for r, rh in zip((Bm.transpose() @ Bm).entries, half.entries)])
            Y = hm.SpdMatrix(gram)
            assert hm.determinant(Y) == float(hm.determinant(hm.SpdMatrix(gram.to_rational())))
            for M in (gram, hm.DenseMatrix.from_rows(D)):
                exact = M.to_rational()
                det = hm.determinant(M)
                assert type(det) is float and det == float(hm.determinant(exact))
                inv, exact_inv = hm.matrix_inverse(M), hm.matrix_inverse(exact)
                assert (exact_inv @ exact).entries == hm.identity(n).entries
                assert inv.mode == hm.FLOAT
                assert inv.entries == tuple(tuple(float(x) for x in r) for r in exact_inv.entries)


class TestCongruence:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_float_result_is_the_exact_one_rounded_once(self, n):
        # so a symmetric float Y gives an exactly symmetric A^T Y A
        rng = random.Random(1200 + n)
        for _ in range(8):
            B, A = (hm.DenseMatrix.from_rows([[rng.gauss(0, 3) for _ in range(n)]
                                              for _ in range(n)]) for _ in range(2))
            Y = B.transpose() @ B
            for left, right in ((Y, A), (Y.to_rational(), A), (Y, A.to_rational())):
                got = hm.congruence(left, right)
                exact = hm.congruence(left.to_rational(), right.to_rational())
                assert got.mode == hm.FLOAT
                assert got.entries == tuple(tuple(float(x) for x in r) for r in exact.entries)
                assert got.entries == got.transpose().entries


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

    @pytest.mark.parametrize("n, entries", [(2, ["21", "12"]), (2, [["2", "1"], "12"]),
                                            (1, "5"), (2, [("2", "1"), ("1", "2")])])
    def test_entries_and_rows_must_be_lists(self, n, entries):
        with pytest.raises(ValueError):
            hm.matrix_from_json({"mode": "rational", "rows": n, "cols": n, "entries": entries})

    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_scalar_rejected(self, mode, value):
        with pytest.raises(ValueError):
            hm.linalg.scalar_from_json(value, mode)
        with pytest.raises(ValueError):
            hm.matrix_from_json({"mode": mode, "rows": 2, "cols": 2,
                                 "entries": [[value, 0], [0, 1]]})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), "1e400"])
    def test_non_finite_float_scalar_rejected(self, value):
        with pytest.raises(ValueError):
            hm.linalg.scalar_from_json(value, hm.FLOAT)


class TestJsonSharedScalars:
    def test_equal_strings_share_one_scalar(self):
        m = hm.matrix_from_json({"mode": "rational", "rows": 3, "cols": 3, "entries": [
            ["1/2", "-3", "7/4"], ["-3", "1/2", "0"], ["7/4", "0", "1/2"]]})
        e = m.entries
        assert e[0][1] is e[1][0] and e[0][2] is e[2][0] and e[1][2] is e[2][1]
        assert e[0][0] is e[1][1] is e[2][2]
        assert e == ((frac(1, 2), frac(-3), frac(7, 4)), (frac(-3), frac(1, 2), frac(0)),
                     (frac(7, 4), frac(0), frac(1, 2)))

    def test_one_table_per_payload_per_mode(self):
        scalars = {}
        rat, flt, rat2 = (hm.matrix_from_json({"mode": mode, "rows": 2, "cols": 2,
                                               "entries": [["1", "1/3"], ["1/3", "1"]]}, scalars)
                          for mode in (hm.RATIONAL, hm.FLOAT, hm.RATIONAL))
        assert rat.entries[0][1] == frac(1, 3) and type(rat.entries[0][1]) is Fraction
        assert flt.entries[0][1] == 0.3333333333333333 and type(flt.entries[0][1]) is float
        assert rat.entries[0][1] is rat2.entries[1][0] and rat.entries[0][0] is rat2.entries[1][1]
        assert scalars == {hm.RATIONAL: {"1": 1, "1/3": frac(1, 3)},
                           hm.FLOAT: {"1": 1.0, "1/3": 0.3333333333333333}}

    def test_no_table_shared_between_calls(self):
        obj = {"mode": hm.RATIONAL, "rows": 1, "cols": 1, "entries": [["7/3"]]}
        assert hm.matrix_from_json(obj).entries[0][0] is not hm.matrix_from_json(obj).entries[0][0]

    @pytest.mark.parametrize("mode, entries", [
        (hm.RATIONAL, [["2", "1/3"], ["1/3", "5"]]),
        (hm.FLOAT, [["2", "0.25"], ["0.25", "5"]]),
        (hm.FLOAT, [[2.0, 0.1], [0.1, 5.0]]),
    ])
    def test_exactly_symmetric_payload_kept_as_is(self, mode, entries):
        m = hm.matrix_from_json({"mode": mode, "rows": 2, "cols": 2, "entries": entries})
        assert hm.linalg.symmetrized(m) is m
        assert hm.SpdMatrix(m).matrix is m

    @pytest.mark.parametrize("mode, entries", [
        (hm.RATIONAL, [["1/0", "1/0"], ["1/0", "1"]]),
        (hm.FLOAT, [["1", "1/0"], ["1/0", "1"]]),
        (hm.RATIONAL, [[1, True], [True, 1]]),  # True == 1 and hashes alike
        (hm.RATIONAL, [["1", True], [True, "1"]]),
        (hm.FLOAT, [[1.0, False], [False, 1.0]]),
        (hm.RATIONAL, [[1, 1.0], [1.0, 1]]),  # 1.0 == 1 and hashes alike
        (hm.RATIONAL, [["3/2", 1.5], [1.5, "3/2"]]),
    ])
    def test_rejections_unchanged(self, mode, entries):
        with pytest.raises(ValueError):
            hm.matrix_from_json({"mode": mode, "rows": 2, "cols": 2, "entries": entries})

    def test_to_numpy_rounds_as_float_does(self):
        rng = random.Random(5)
        xs = [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**25)) for _ in range(200)]
        xs += [Fraction(1, 3), Fraction(-2, 7), Fraction(10**400, 10**399 + 1)]
        m = hm.DenseMatrix.from_rows([xs])
        assert m.to_numpy().tolist() == [[float(x) for x in xs]]
