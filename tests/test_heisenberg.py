import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import heismoduli as hm
from heismoduli import _arrays, heisenberg
from conftest import PAST_CHOLESKY, random_integer_gram, rational_metric

# numpy scalars and the Python scalars they hold
NUMPY_SCALARS = [(np.int64(3), 3), (np.float32(0.75), 0.75), (np.float64(-2.5), -2.5)]

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def element(n):
    return st.builds(
        hm.HeisenbergElement,
        st.tuples(*[fractions_st] * n),
        st.tuples(*[fractions_st] * n),
        fractions_st,
    )


def algebra_vector(n):
    return st.builds(
        hm.LieAlgebraVector,
        st.tuples(*[fractions_st] * n),
        st.tuples(*[fractions_st] * n),
        fractions_st,
    )


def e(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def zero(n):
    return (Fraction(0),) * n


class TestScalarMode:
    """An element, algebra vector or automorphism holds one scalar mode:
    floats if any of its scalars is a float, else Fractions."""

    @pytest.mark.parametrize("kind", [hm.HeisenbergElement, hm.LieAlgebraVector])
    def test_one_float_makes_every_coordinate_float(self, kind):
        p = kind((0.5,), (1,), Fraction(1, 3))
        assert (p.x, p.y, p.s) == ((0.5,), (1.0,), 1 / 3)
        assert all(type(v) is float for v in (*p.x, *p.y, p.s))

    @pytest.mark.parametrize("kind", [hm.HeisenbergElement, hm.LieAlgebraVector])
    def test_exact_inputs_become_fractions(self, kind):
        p = kind((1,), (Fraction(1, 2),), 3)
        assert all(type(v) is Fraction for v in (*p.x, *p.y, p.s))

    @pytest.mark.parametrize("kind", [hm.HeisenbergElement, hm.LieAlgebraVector])
    @pytest.mark.parametrize("coords", [((True,), (0,), 0), ((0,), (False,), 0),
                                        ((0.5,), (0,), True)])
    def test_bool_coordinate_rejected(self, kind, coords):
        with pytest.raises(ValueError, match="boolean (True|False) is not a scalar"):
            kind(*coords)

    @pytest.mark.parametrize("kind", [hm.HeisenbergElement, hm.LieAlgebraVector])
    @pytest.mark.parametrize("coords", [((np.True_,), (0,), 0), ((0,), (np.False_,), 0),
                                        ((0.5,), (0,), np.True_)])
    def test_numpy_bool_coordinate_rejected(self, kind, coords):
        with pytest.raises(ValueError, match="boolean (True|False) is not a scalar"):
            kind(*coords)

    @pytest.mark.parametrize("kind", [hm.HeisenbergElement, hm.LieAlgebraVector])
    @pytest.mark.parametrize("value, plain", NUMPY_SCALARS)
    def test_numpy_coordinate_is_its_python_scalar(self, kind, value, plain):
        for coords, plain_coords in ((((value,), (1,), 0), ((plain,), (1,), 0)),
                                     (((1,), (value,), 0), ((1,), (plain,), 0)),
                                     (((1,), (0,), value), ((1,), (0,), plain))):
            got, want = kind(*coords), kind(*plain_coords)
            assert got == want
            assert [type(v) for v in (*got.x, *got.y, got.s)] == \
                [type(v) for v in (*want.x, *want.y, want.s)]

    def test_automorphism_scalars_share_a_mode(self):
        d = hm.AutomorphismDescriptor.from_parts(2, (Fraction(1, 2), 0), hm.identity(2))
        assert type(d.a) is Fraction and all(type(v) is Fraction for v in d.w)
        d = hm.AutomorphismDescriptor.from_parts(2, (0.5, 0), hm.identity(2))
        assert type(d.a) is float and all(type(v) is float for v in d.w)


class TestGroupLaw:
    def test_multiplication_picks_up_area_term(self):
        p = hm.HeisenbergElement(e(1, 0), zero(1), Fraction(0))
        q = hm.HeisenbergElement(zero(1), e(1, 0), Fraction(0))
        assert hm.group_mul(p, q) == hm.HeisenbergElement(e(1, 0), e(1, 0), Fraction(1))
        assert hm.group_mul(q, p) == hm.HeisenbergElement(e(1, 0), e(1, 0), Fraction(0))

    def test_identity_neutral(self):
        p = hm.HeisenbergElement((Fraction(2),), (Fraction(1, 2),), Fraction(-3))
        assert hm.group_mul(p, hm.HeisenbergElement.identity(1)) == p
        assert hm.group_mul(hm.HeisenbergElement.identity(1), p) == p

    def test_inverse_formula(self):
        p = hm.HeisenbergElement(e(1, 0), e(1, 0), Fraction(0))
        assert hm.group_inv(p) == hm.HeisenbergElement(
            (Fraction(-1),), (Fraction(-1),), Fraction(1)
        )
        q = hm.HeisenbergElement((Fraction(3),), zero(1), Fraction(5))
        assert hm.group_inv(q) == hm.HeisenbergElement((Fraction(-3),), zero(1), Fraction(-5))

    def test_dimension_mismatch(self):
        with pytest.raises(hm.DimensionMismatch):
            hm.group_mul(hm.HeisenbergElement.identity(1), hm.HeisenbergElement.identity(2))

    @settings(max_examples=60, deadline=None)
    @given(element(2), element(2), element(2))
    def test_associativity(self, p, q, r):
        assert hm.group_mul(hm.group_mul(p, q), r) == hm.group_mul(p, hm.group_mul(q, r))

    @settings(max_examples=60, deadline=None)
    @given(element(2))
    def test_two_sided_inverse(self, p):
        ident = hm.HeisenbergElement.identity(2)
        assert hm.group_mul(p, hm.group_inv(p)) == ident
        assert hm.group_mul(hm.group_inv(p), p) == ident


class TestExpLog:
    def test_center(self):
        v = hm.LieAlgebraVector(zero(1), zero(1), Fraction(1))
        assert hm.exp_map(v) == hm.HeisenbergElement(zero(1), zero(1), Fraction(1))
        assert hm.log_map(hm.HeisenbergElement(zero(1), zero(1), Fraction(1))) == v

    def test_half_area_shift(self):
        v = hm.LieAlgebraVector(e(1, 0), e(1, 0), Fraction(0))
        assert hm.exp_map(v) == hm.HeisenbergElement(e(1, 0), e(1, 0), Fraction(1, 2))
        p = hm.HeisenbergElement(e(1, 0), e(1, 0), Fraction(1))
        assert hm.log_map(p) == hm.LieAlgebraVector(e(1, 0), e(1, 0), Fraction(1, 2))

    @settings(max_examples=60, deadline=None)
    @given(algebra_vector(2))
    def test_log_inverts_exp(self, v):
        assert hm.log_map(hm.exp_map(v)) == v

    @settings(max_examples=60, deadline=None)
    @given(element(2))
    def test_exp_inverts_log(self, p):
        assert hm.exp_map(hm.log_map(p)) == p

    @settings(max_examples=60, deadline=None)
    @given(algebra_vector(2), algebra_vector(2))
    def test_step_two_bch(self, v, w):
        # exp(v) exp(w) = exp(v + w + [v,w]/2) in a 2-step nilpotent group
        lhs = hm.group_mul(hm.exp_map(v), hm.exp_map(w))
        br = hm.bracket(v, w)
        combined = hm.LieAlgebraVector(
            tuple(a + b for a, b in zip(v.x, w.x)),
            tuple(a + b for a, b in zip(v.y, w.y)),
            v.s + w.s + Fraction(1, 2) * br.s,
        )
        assert lhs == hm.exp_map(combined)


class TestBracket:
    def test_canonical_pair(self):
        X1 = hm.LieAlgebraVector(e(2, 0), zero(2), Fraction(0))
        Y1 = hm.LieAlgebraVector(zero(2), e(2, 0), Fraction(0))
        assert hm.bracket(X1, Y1) == hm.LieAlgebraVector(zero(2), zero(2), Fraction(1))

    def test_same_block_commutes(self):
        X1 = hm.LieAlgebraVector(e(2, 0), zero(2), Fraction(0))
        X2 = hm.LieAlgebraVector(e(2, 1), zero(2), Fraction(0))
        assert hm.bracket(X1, X2).s == 0

    def test_antisymmetry_on_diagonal(self):
        v = hm.LieAlgebraVector((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3)), Fraction(0))
        assert hm.bracket(v, v).s == 0


class TestSimilitudeCheck:
    def test_form_matrix_itself(self):
        assert hm.symplectic_similitude_check(hm.symplectic_j(2)) == 1

    def test_sign_flip(self):
        beta = hm.DenseMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        )
        assert hm.symplectic_similitude_check(beta) == -1

    def test_scaling_rejected(self):
        beta = hm.DenseMatrix.from_rows([[2, 0], [0, 1]])
        assert hm.symplectic_similitude_check(beta) is None

    def test_odd_dimension(self):
        with pytest.raises(hm.OddDimension):
            hm.symplectic_similitude_check(hm.identity(3))

    def test_float_tolerance(self):
        J = hm.symplectic_j(1, hm.FLOAT)
        assert hm.symplectic_similitude_check(J) == 1

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_form_rejected(self, n):
        with pytest.raises(ValueError, match="at least one row and column"):
            hm.symplectic_j(n)


class TestAutomorphisms:
    def test_trivial_descriptor(self):
        d = hm.AutomorphismDescriptor.from_parts(Fraction(1), zero(2), hm.identity(2))
        assert hm.automorphism_matrix(d).entries == hm.identity(3).entries

    def test_dilation(self):
        d = hm.AutomorphismDescriptor.from_parts(Fraction(2), zero(2), hm.identity(2))
        assert hm.automorphism_matrix(d).entries == (
            (2, 0, 0), (0, 2, 0), (0, 0, 4)
        )

    def test_embedded_similitude(self):
        d = hm.AutomorphismDescriptor.from_parts(Fraction(1), zero(2), hm.symplectic_j(1))
        m = hm.automorphism_matrix(d)
        assert m.entries == ((0, 1, 0), (-1, 0, 0), (0, 0, 1))

    def test_float_shear_makes_a_float_matrix(self):
        d = hm.AutomorphismDescriptor.from_parts(2, (0.5, 0), hm.identity(2))
        m = hm.automorphism_matrix(d)
        assert m.mode == hm.FLOAT
        assert m.entries == ((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.5, 0.0, 4.0))
        assert all(type(x) is float for r in m.entries for x in r)
        assert hm.matrix_from_json(hm.matrix_to_json(m)) == m

    def test_exact_dilation_rounded_once_in_float_mode(self):
        # a^2 eps is the exact 1/100 rounded once, not 0.1 * 0.1
        d = hm.AutomorphismDescriptor.from_parts(
            Fraction(1, 10), zero(2), hm.identity(2, hm.FLOAT))
        m = hm.automorphism_matrix(d)
        assert m.mode == hm.FLOAT and m.entries[2][2] == 0.01

    def test_rejects_non_similitude(self):
        with pytest.raises(hm.NotSimilitude):
            hm.AutomorphismDescriptor.from_parts(
                Fraction(1), zero(2), hm.DenseMatrix.from_rows([[2, 0], [0, 1]])
            )

    def test_shear_breaks_normalization(self):
        # nonzero w produces a non-block-diagonal pullback of (h, g)
        d = hm.AutomorphismDescriptor.from_parts(
            Fraction(1), (Fraction(1), Fraction(0)), hm.identity(2)
        )
        phi = hm.automorphism_matrix(d)
        block = hm.SpdMatrix(hm.identity(3))
        pulled = hm.pullback_metric(block, phi)
        off_block = [pulled.entries[i][2] for i in range(2)]
        assert any(x != 0 for x in off_block)


class TestPullback:
    def test_identity(self):
        m = hm.SpdMatrix.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 4]])
        assert hm.pullback_metric(m, hm.identity(3)).entries == m.entries

    def test_diagonal(self):
        got = hm.pullback_metric(
            hm.SpdMatrix(hm.identity(3)),
            hm.DenseMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 4]]),
        )
        assert got.entries == ((4, 0, 0), (0, 4, 0), (0, 0, 16))

    def test_singular_rejected(self):
        with pytest.raises(hm.Singular):
            hm.pullback_metric(
                hm.SpdMatrix(hm.identity(2)), hm.DenseMatrix.from_rows([[1, 1], [1, 1]])
            )

    # phi = c I is invertible at every float c, though its float determinant
    # c^4 underflows to 0 at 1e-90 and overflows a float at 1e80
    @pytest.mark.parametrize("c", [1e-90, 1e80])
    def test_invertible_past_the_float_determinant(self, c):
        phi = hm.DenseMatrix.from_rows([[c * (i == j) for j in range(4)] for i in range(4)])
        got = hm.pullback_metric(hm.SpdMatrix(hm.identity(4)), phi)
        assert got.entries == hm.congruence(hm.identity(4), phi).entries
        assert got.entries[0][0] == float(Fraction(c) ** 2)


class TestLatticeSubgroup:
    def test_center_always_member(self):
        p = hm.HeisenbergElement(zero(1), zero(1), Fraction(1))
        assert hm.gamma_r_membership(p, hm.DivisibilityTuple((2,)))

    def test_unscaled_x_rejected(self):
        p = hm.HeisenbergElement(e(1, 0), zero(1), Fraction(0))
        assert not hm.gamma_r_membership(p, hm.DivisibilityTuple((2,)))

    def test_scaled_member(self):
        p = hm.HeisenbergElement((Fraction(2),), (Fraction(1),), Fraction(5))
        assert hm.gamma_r_membership(p, hm.DivisibilityTuple((2,)))

    def test_fractional_center_rejected(self):
        p = hm.HeisenbergElement(zero(1), zero(1), Fraction(1, 2))
        assert not hm.gamma_r_membership(p, hm.DivisibilityTuple((1,)))


class TestDeltaMatrix:
    def test_trivial(self):
        assert hm.delta_matrix(hm.DivisibilityTuple((1, 1))).entries == hm.identity(4).entries

    def test_single(self):
        assert hm.delta_matrix(hm.DivisibilityTuple((2,))).entries == ((2, 0), (0, 1))

    def test_pair(self):
        got = hm.delta_matrix(hm.DivisibilityTuple((1, 2)))
        assert got.entries == ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def assert_scaled_j(got, n, scale):
    J = hm.symplectic_j(n, hm.FLOAT)
    for rg, rj in zip(got.entries, J.entries):
        for a, b in zip(rg, rj):
            assert a == pytest.approx(scale * b, abs=1e-12)


class TestKaplanMatrix:
    def test_flat_case(self):
        m = rational_metric(hm.SpdMatrix(hm.identity(2)), Fraction(1))
        assert_scaled_j(hm.kaplan_matrix(m), 1, -1.0)

    def test_center_scaling(self):
        m = rational_metric(hm.SpdMatrix(hm.identity(4)), Fraction(4))
        assert_scaled_j(hm.kaplan_matrix(m), 2, -2.0)

    def test_horizontal_scaling(self):
        h = hm.SpdMatrix.from_rows([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
        got = hm.kaplan_matrix(rational_metric(h, Fraction(1)))
        assert_scaled_j(got, 2, -0.5)

    def test_skew_with_respect_to_metric(self):
        rng = random.Random(42)
        for _ in range(10):
            h = random_integer_gram(rng, 4)
            m = rational_metric(h, Fraction(2))
            M = hm.kaplan_matrix(m).to_numpy()
            hn = h.to_numpy()
            prod = hn @ M
            assert np.max(np.abs(prod + prod.T)) <= 1e-9 * max(1.0, np.max(np.abs(prod)))

    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    def test_exact_inverse_rounded_once(self, mode):
        # -g^{1/2} times the exact h^{-1} J, each entry rounded before the factor
        rng = random.Random(43)
        for _ in range(10):
            h = hm.SpdMatrix.from_rows(random_integer_gram(rng, 4).entries, mode)
            g = Fraction(rng.randint(1, 20), rng.randint(1, 5))
            exact = hm.matrix_inverse(h.matrix.to_rational()) @ hm.symplectic_j(2)
            want = [[-math.sqrt(float(g)) * float(x) for x in r] for r in exact.entries]
            got = hm.kaplan_matrix(hm.NormalizedMetric(h, g, hm.DivisibilityTuple((1, 1))))
            assert got.mode == hm.FLOAT and [list(r) for r in got.entries] == want

    # an entry of h^{-1} past the float range, and a finite one that -g^{1/2}
    # carries past it
    @pytest.mark.parametrize("c, g", [(1e-310, 1.0), (1e-300, 1e100)])
    def test_entry_past_the_float_range_refused(self, c, g):
        h = hm.SpdMatrix.from_rows([[c, 0.0], [0.0, 1.0]])
        with pytest.raises(OverflowError, match="^Kaplan matrix entry is past the float range$"):
            hm.kaplan_matrix(hm.NormalizedMetric(h, g, hm.DivisibilityTuple((1,))))


class TestDSpectrum:
    def test_flat(self):
        assert hm.d_spectrum(hm.SpdMatrix(hm.identity(4))).d == pytest.approx((1.0, 1.0))

    def test_counterexample_closed_form(self):
        for k in (*range(6), 10**6, 10**15):
            d = hm.d_spectrum(hm.counterexample_family(k)).d
            expected = hm.counterexample_spectrum(k)
            assert all(abs(a - b) <= 4 * math.ulp(b) for a, b in zip(d, expected))

    def test_two_block_diagonal(self):
        # diag(a..a, b..b) squares to -(ab)^{-1} Id under Y^{-1} J
        a, b = 3.0, 5.0
        Y = hm.SpdMatrix.from_rows(
            [[a, 0, 0, 0], [0, a, 0, 0], [0, 0, b, 0], [0, 0, 0, b]], hm.FLOAT
        )
        assert hm.d_spectrum(Y).d == pytest.approx((1 / math.sqrt(a * b),) * 2)

    def test_odd_dimension_rejected(self):
        with pytest.raises(hm.OddDimension):
            hm.d_spectrum(hm.SpdMatrix(hm.identity(3)))

    def test_similitude_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.choice((1, 2, 3))
            Y = random_integer_gram(rng, 2 * n)
            S = hm.random_symplectic_integer(n, rng.randrange(2**32), rng.randint(0, 12))
            Ys = hm.SpdMatrix(hm.congruence(Y.matrix, S))
            d0 = hm.d_spectrum(Y).d
            d1 = hm.d_spectrum(Ys).d
            assert all(abs(a - b) <= 1e-8 * a for a, b in zip(d0, d1))

    def test_product_matches_determinant(self):
        rng = random.Random(13)
        for _ in range(30):
            Y = random_integer_gram(rng, rng.choice((2, 4, 6)))
            d = hm.d_spectrum(Y).d
            det = float(hm.determinant(Y.matrix))
            target = det ** -0.5
            assert abs(math.prod(d) - target) <= 1e-8 * target

    def test_consistency_with_singular_values(self):
        # d_j of G^T G equals the matching singular values of G^{-T} J G^{-1}
        rng = random.Random(29)
        for _ in range(20):
            n = rng.choice((1, 2, 3))
            dim = 2 * n
            while True:
                G = hm.DenseMatrix.from_rows(
                    [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
                )
                if abs(hm.determinant(G)) >= 2:
                    break
            gram = hm.SpdMatrix(hm.congruence(hm.identity(dim), G))
            d = hm.d_spectrum(gram).d
            pulled = hm.congruence(hm.symplectic_j(n), hm.matrix_inverse(G))
            s = hm.singular_values(pulled).values
            for j in range(1, n + 1):
                for k in (2 * n - 2 * j + 2, 2 * n - 2 * j + 1):
                    assert abs(d[j - 1] - s[k - 1]) <= 1e-8 * d[j - 1]

    def test_float_gram_past_float_cholesky(self):
        # SpdMatrix accepts this float Gram exactly (det = 2^-49), but the
        # float Cholesky fails at pivot 2; the exact factor takes over
        Y = hm.SpdMatrix.from_rows([[3.0, 5.0], [5.0, 8.333333333333334]], hm.FLOAT)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(Y.to_numpy())
        assert hm.d_spectrum(Y).d == pytest.approx((2**24.5,), rel=1e-14)

    # valid Gram matrices whose spectrum is past the float range: the skew
    # matrix overflows at 1e-310 and 1/10^309, the mean of its top pair at
    # 1/10^308; each was a NaN or an infinity in the spectrum before
    @pytest.mark.parametrize("rows, mode", [
        ([[1e-310, 0.0], [0.0, 1e-310]], hm.FLOAT),
        ([[Fraction(1, 10**308), 0], [0, Fraction(1, 10**308)]], hm.RATIONAL),
        ([[Fraction(1, 10**309), 0], [0, Fraction(1, 10**309)]], hm.RATIONAL),
    ])
    def test_spectrum_past_the_float_range_refused(self, rows, mode):
        Y = hm.SpdMatrix.from_rows(rows, mode)
        with pytest.raises(OverflowError, match="past the float range"):
            hm.d_spectrum(Y)
        with pytest.raises(OverflowError, match="past the float range"):
            hm.curvature_upper_bound(hm.NormalizedMetric(Y, 1, hm.DivisibilityTuple((1,))))

    def test_pairing_guard(self, monkeypatch):
        # inject a broken singular-value pair; the guard must refuse to average it
        real = np.linalg.svd

        def perturbed(m, *args, **kwargs):
            vals = real(m, *args, **kwargs).copy()
            vals[..., 0] *= 0.9
            return vals

        monkeypatch.setattr(np.linalg, "svd", perturbed)
        with pytest.raises(hm.PairingFailure):
            hm.d_spectrum(hm.SpdMatrix(hm.identity(6, hm.FLOAT)))

    def test_no_lapack_at_n_le_2(self, no_lapack):
        # sizes 2 and 4 pair no singular values: they call no svd or inv
        assert hm.d_spectrum(hm.SpdMatrix(hm.identity(2, hm.FLOAT))).d == (1.0,)
        assert hm.d_spectrum(hm.SpdMatrix(hm.identity(4, hm.FLOAT))).d == (1.0, 1.0)


# a valid float Gram near the boundary of P_2: det is about 2^-49 1e600, and
# d = 1 / sqrt(det) = 2.36728978215723...e-293 exactly for the rounded entries
NEAR_SINGULAR = [[1e300, 1e300 * (1 - 2**-50)], [1e300 * (1 - 2**-50), 1e300]]


def _inverse_sqrt(x):
    """1 / sqrt(x) for a positive Fraction: an integer square root carried
    to at least 65 bits, then rounded once."""
    p, q = x.numerator, x.denominator
    s = max(0, (131 - q.bit_length() + p.bit_length()) // 2)
    return float(Fraction(math.isqrt((q << 2 * s) // p), 1 << s))


def _random_block(rng, mode):
    """A positive definite 2 x 2 block, rational or float."""
    while True:
        if mode == hm.RATIONAL:
            a, b, c = (Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))
                       for _ in range(3))
        else:
            a, b, c = (rng.uniform(-3, 3) for _ in range(3))
        if a > 0 and a * c - b * b > 0:
            return [[a, b], [b, c]]


def _pair_gram(blocks, mode):
    """The Gram matrix with block k on the symplectic pair (x_k, y_k)."""
    n = len(blocks)
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for k, ((a, b), (_, c)) in enumerate(blocks):
        rows[k][k], rows[k][n + k], rows[n + k][k], rows[n + k][n + k] = a, b, b, c
    return hm.SpdMatrix.from_rows(rows, mode)


def _unit_pair(Y):
    """The 6 x 6 Gram matrix of a 4 x 4 Y and a third symplectic pair
    (x_3, y_3) of unit vectors orthogonal to it: Y's spectrum and 1."""
    at = (0, 1, 3, 4)
    rows = [[int(i == j) for j in range(6)] for i in range(6)]
    for i, a in enumerate(at):
        for j, b in enumerate(at):
            rows[a][b] = Y.entries[i][j]
    return hm.SpdMatrix.from_rows(rows, Y.mode)


def _roots_below(Y, x, strict):
    """How many d_k^2 of a 2 x 2 or 4 x 4 Y lie below the Fraction x (or
    at x, unless strict), in exact rational arithmetic: decided by the
    sign of p(x) = det(J - t Y) at t^2 = -x, whose coefficients are read
    off two rational determinants, and at n = 2 by x's side of p's vertex.
    """
    Y = Y.matrix.to_rational()
    det = hm.determinant(Y)
    if Y.rows == 2:  # det(J - t Y) = det t^2 + 1
        p = 1 - det * x
        return int(p < 0 or p == 0 and not strict)
    # det(J - t Y) = det t^4 + c t^2 + 1, so p(x) = det (d_1^2 - x)(d_2^2 - x)
    c = hm.determinant(hm.DenseMatrix.from_rows(
        [[j - y for j, y in zip(rj, ry)] for rj, ry in zip(hm.symplectic_j(2).entries,
                                                           Y.entries)])) - det - 1
    p, vertex = det * x * x - c * x + 1, c / (2 * det)
    if p != 0:
        return 1 if p < 0 else 0 if x < vertex else 2
    if c * c == 4 * det:  # x is the double root
        return 0 if strict else 2
    return (x > vertex) + (not strict)


def _within_one_ulp(Y, d):
    """Whether each d_k lies within 1 ulp of the exact k-th value: the k-th
    root d_k^2 lies in [(d_k - ulp)^2, (d_k + ulp)^2] (``_roots_below``)."""
    for k, dk in enumerate(d, 1):
        u = Fraction(math.ulp(dk))
        lo, hi = (Fraction(dk) - u) ** 2, (Fraction(dk) + u) ** 2
        if not _roots_below(Y, lo, True) < k <= _roots_below(Y, hi, False):
            return False
    return True


@st.composite
def _small_grams(draw):
    """(rows, mode) of a 2 x 2 or 4 x 4 Gram matrix, rational or float:
    B^T B plus 1/2 or 2^-40 times I, or c S^T S for an integer symplectic
    word S (equal d_k); scaled by 1, 2^600 or 2^-600."""
    dim = draw(st.sampled_from([2, 4]))
    mode = draw(st.sampled_from([hm.RATIONAL, hm.FLOAT]))
    one = Fraction(1) if mode == hm.RATIONAL else 1.0
    if draw(st.booleans()):
        entry = (st.fractions(-8, 8, max_denominator=4) if mode == hm.RATIONAL
                 else st.floats(-8, 8))
        B = [[draw(entry) for _ in range(dim)] for _ in range(dim)]
        ridge = one / draw(st.sampled_from([2, 2**40]))
        rows = [[sum(B[k][i] * B[k][j] for k in range(dim)) + ridge * (i == j)
                 for j in range(dim)] for i in range(dim)]
    else:
        S = hm.random_symplectic_integer(dim // 2, draw(st.integers(0, 2**32)),
                                         draw(st.integers(0, 20)))
        c = one * draw(st.sampled_from([1, 3, Fraction(1, 7)]))
        rows = [[c * x for x in r] for r in hm.congruence(hm.identity(dim), S).entries]
    scale = one * 2 ** draw(st.sampled_from([0, 600, -600]))
    return [[x * scale for x in r] for r in rows], mode


# NEAR_SINGULAR and PAST_CHOLESKY on the two symplectic pairs of a 4 x 4 Gram
NEAR_AND_PAST = [[1e300, 0.0, 1e300 * (1 - 2**-50), 0.0], [0.0, 3.0, 0.0, 5.0],
                 [1e300 * (1 - 2**-50), 0.0, 1e300, 0.0], [0.0, 5.0, 0.0, 8.333333333333334]]


class TestSpectrumOracle:
    # pair k of a block-diagonal Gram alone has d = 1 / sqrt(det(block k)),
    # read off the block's exact determinant; the SVD's own bound on each
    # d_k is 8 eps d_n, and for n = 1 the factor and kernel add 4 ulp at most
    @pytest.mark.parametrize("case", ["near-singular", "up", "down"])
    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_block_diagonal_pairs(self, n, mode, case):
        rng = random.Random(f"{n}-{mode}-{case}")
        blocks = [_random_block(rng, mode) for _ in range(n)]
        if case == "near-singular":
            blocks[rng.randrange(n)] = NEAR_SINGULAR
        else:  # scaled by 2^600 or 2^-600, exactly in both modes
            scale = (Fraction(2) if mode == hm.RATIONAL else 2.0) ** (600 if case == "up"
                                                                       else -600)
            blocks = [[[x * scale for x in r] for r in block] for block in blocks]
        exact = sorted(_inverse_sqrt(hm.determinant(hm.SpdMatrix.from_rows(block, hm.RATIONAL)))
                       for block in blocks)
        d = hm.d_spectrum(_pair_gram(blocks, mode)).d
        eps = np.finfo(float).eps
        assert all(abs(got - want) <= 8 * eps * exact[-1] for got, want in zip(d, exact))
        if n == 1:
            assert abs(d[0] - exact[0]) <= 4 * math.ulp(exact[0])

    def test_near_singular_value(self):
        exact = _inverse_sqrt(hm.determinant(hm.SpdMatrix.from_rows(NEAR_SINGULAR, hm.RATIONAL)))
        assert f"{exact:.15e}".startswith("2.36728978215723")
        d = hm.d_spectrum(hm.SpdMatrix.from_rows(NEAR_SINGULAR, hm.FLOAT)).d
        assert abs(d[0] - exact) <= 4 * math.ulp(exact)

    # sizes 2 and 4 read each d_k off the exact polynomial, rounded once
    @settings(max_examples=300, deadline=None)
    @given(_small_grams())
    @example((NEAR_SINGULAR, hm.FLOAT))
    @example((PAST_CHOLESKY, hm.FLOAT))
    @example((NEAR_AND_PAST, hm.FLOAT))
    @example(([[x * 2.0**-600 for x in r] for r in NEAR_AND_PAST], hm.FLOAT))
    @example(([[Fraction(3, 2**600), Fraction(1, 2**600)], [Fraction(1, 2**600),
                                                            Fraction(5, 2**600)]], hm.RATIONAL))
    @example(([[3 * 2.0**600, 2.0**600], [2.0**600, 5 * 2.0**600]], hm.FLOAT))
    def test_exact_within_one_ulp(self, gram):
        rows, mode = gram
        try:
            Y = hm.SpdMatrix.from_rows(rows, mode)
        except hm.NotPositiveDefinite:  # B^T B + 2^-40 I rounded in floats
            assume(False)
        d = hm.d_spectrum(Y).d
        assert _within_one_ulp(Y, d)
        assert list(d) == sorted(d)

    @pytest.mark.parametrize("k", [10**3, 10**6, 10**9, 10**12])
    def test_counterexample_within_one_ulp(self, k):
        Y = hm.counterexample_family(k)
        assert _within_one_ulp(Y, hm.d_spectrum(Y).d)

    def test_oracle_refuses_a_neighbour(self):
        # the 1-ulp check is not vacuous: the next float up or down fails it
        Y = hm.counterexample_family(10**6)
        d1, d2 = hm.d_spectrum(Y).d
        for e in (-2, 2):
            assert not _within_one_ulp(Y, (d1 + e * math.ulp(d1), d2))
            assert not _within_one_ulp(Y, (d1, d2 + e * math.ulp(d2)))


def _random_gram(rng, dim, mode):
    """B^T B + I/2, with B rational (denominators up to 4) or float."""
    if mode == hm.RATIONAL:
        B = [[Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(dim)]
             for _ in range(dim)]
        half = Fraction(1, 2)
    else:
        B = [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(dim)]
        half = 0.5
    return hm.SpdMatrix.from_rows(
        [[sum(B[k][i] * B[k][j] for k in range(dim)) + half * (i == j) for j in range(dim)]
         for i in range(dim)], mode)


class TestStackedSpectra:
    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    def test_stack_equals_members_exactly(self, mode):
        rng = random.Random(41 if mode == hm.RATIONAL else 43)
        for _ in range(80):
            dim = rng.choice((2, 4, 6, 8))
            family = [_random_gram(rng, dim, mode) for _ in range(rng.randint(1, 8))]
            stacked = [s.d for s in heisenberg._d_spectra(family)]
            assert stacked == [hm.d_spectrum(Y).d for Y in family]
            if dim >= 6:  # each member alone through the 2-D kernel on its own factor
                assert stacked == [tuple(_arrays._symplectic_spectra(
                    _arrays._upper_factors([Y])[0]).tolist()) for Y in family]
            else:  # each member read off its exact polynomial
                assert all(_within_one_ulp(Y, d) for Y, d in zip(family, stacked))

    def test_member_past_float_cholesky(self):
        # a member whose float Cholesky fails takes the same factor path as
        # every other: the one read off its exact LDL^T
        rng = random.Random(47)
        Y = hm.SpdMatrix.from_rows(PAST_CHOLESKY, hm.FLOAT)
        family = [_random_gram(rng, 2, mode) for mode in (hm.RATIONAL, hm.FLOAT) * 4]
        family.insert(3, Y)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.array([X.to_numpy() for X in family]))
        stacked = [s.d for s in heisenberg._d_spectra(family)]
        assert stacked == [hm.d_spectrum(X).d for X in family]
        assert all(_within_one_ulp(X, d) for X, d in zip(family, stacked))

    def test_certificate_past_float_cholesky_in_a_skewed_basis(self):
        # PAST_CHOLESKY is also badly reduced: its minimum, along (5, -3),
        # lies far below its smallest diagonal entry 3
        Y = hm.SpdMatrix.from_rows(PAST_CHOLESKY, hm.FLOAT)
        r = hm.DivisibilityTuple((1,))
        family = hm.MetricFamily((hm.NormalizedMetric(hm.SpdMatrix(hm.identity(2)), 1, r),
                                  hm.NormalizedMetric(Y, 1, r)))
        cert = hm.heisenberg_certificate(family)
        # the exact Y[(5, -3)] of the dyadic entries, rounded once
        exact = hm.quadratic_form(Y.matrix.to_rational(), (5, -3))
        assert cert.c0 == float(exact) == 5.329070518200751e-15
        assert cert.witnesses["c0"] == 1
        assert hm.first_minimum(Y) == hm.ShortVectorResult(cert.c0, (5, -3))
        assert cert.c2 == hm.d_spectrum(Y).d_max

    def test_certificate_c2_past_float_cholesky(self):
        # another such Gram, whose shortest vector is its first basis vector
        Y = hm.SpdMatrix.from_rows([[3 * 2.0**-20, 3.0], [3.0, 3 * 2.0**20 + 2.0**-31]],
                                   hm.FLOAT)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(Y.to_numpy())
        r = hm.DivisibilityTuple((1,))
        family = hm.MetricFamily((hm.NormalizedMetric(hm.SpdMatrix(hm.identity(2)), 1, r),
                                  hm.NormalizedMetric(Y, 1, r)))
        cert = hm.heisenberg_certificate(family)
        assert cert.c2 == hm.d_spectrum(Y).d_max == 27397079.00297188
        assert cert.witnesses["c2"] == 1

    def test_type_certificate_past_float_cholesky(self):
        # the spectra are decided before any first minimum is enumerated
        r = hm.DivisibilityTuple((1,))
        family = hm.MetricFamily((
            hm.NormalizedMetric(hm.SpdMatrix(hm.identity(2)), 1, r),
            hm.NormalizedMetric(hm.SpdMatrix.from_rows(PAST_CHOLESKY, hm.FLOAT), 1, r)))
        with pytest.raises(hm.NotHeisenbergType) as exc:
            hm.heisenberg_type_certificate(family)
        assert exc.value.index == 1

    def test_odd_dimension_rejected(self):
        with pytest.raises(hm.OddDimension):
            heisenberg._d_spectra([hm.SpdMatrix(hm.identity(3))] * 2)

    def test_first_failing_member_raises(self, monkeypatch):
        # a broken pair in the last member only: the stack raises for it
        real = np.linalg.svd

        def perturbed(m, *args, **kwargs):
            vals = real(m, *args, **kwargs).copy()
            vals[-1, 0] *= 0.9
            return vals

        monkeypatch.setattr(np.linalg, "svd", perturbed)
        with pytest.raises(hm.PairingFailure):
            heisenberg._d_spectra([hm.SpdMatrix(hm.identity(6))] * 3)

    def test_exact_stack_runs_no_lapack(self, no_lapack):
        family = [hm.SpdMatrix(hm.identity(4)), hm.counterexample_family(3)] * 2
        stacked = [s.d for s in heisenberg._d_spectra(family)]
        assert stacked == [hm.d_spectrum(Y).d for Y in family]
        assert stacked[0] == (1.0, 1.0) and _within_one_ulp(family[1], stacked[1])


class TestHeisenbergType:
    def test_flat_is_type(self):
        assert hm.is_heisenberg_type(rational_metric(hm.SpdMatrix(hm.identity(4)), Fraction(1)))

    def test_symplectic_pullback_of_scaled_flat(self):
        rng = random.Random(31)
        for g, scale in ((Fraction(4), Fraction(2)), (Fraction(1, 4), Fraction(1, 2))):
            S = hm.random_symplectic_integer(2, rng.randrange(2**32), 8)
            base = hm.congruence(hm.identity(4), S)
            h = hm.SpdMatrix.from_rows([[scale * x for x in row] for row in base.entries])
            assert hm.is_heisenberg_type(rational_metric(h, g))

    @pytest.mark.parametrize("seed", range(20))
    def test_long_symplectic_word_is_type(self, seed):
        # S^T S for a 300-step integer symplectic word has every d_k exactly 1
        S = hm.random_symplectic_integer(2, seed, 300)
        h = hm.SpdMatrix(hm.congruence(hm.identity(4), S))
        assert hm.d_spectrum(h).d == (1.0, 1.0)
        assert hm.is_heisenberg_type(rational_metric(h, Fraction(1)))

    def test_counterexample_not_type(self):
        m = rational_metric(hm.counterexample_family(1), Fraction(1))
        assert not hm.is_heisenberg_type(m)

    @pytest.mark.parametrize("eps, tol, verdict", [
        (Fraction(1, 10**6), 1e-8, False), (Fraction(1, 10**6), 1e-6, True),
        (Fraction(1, 10**10), 1e-8, True), (Fraction(1, 10**10), 1e-12, False)])
    def test_tolerance_decides_a_near_miss(self, eps, tol, verdict):
        # d = (1, sqrt(1 + eps)): relative deviation eps / 2 from g^{-1/2} = 1
        h = hm.SpdMatrix.from_rows([[1 + eps * (i == j == 3) if i == j else 0
                                     for j in range(4)] for i in range(4)])
        assert hm.is_heisenberg_type(rational_metric(h, Fraction(1)), tol=tol) is verdict


    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf,
                                     True, np.True_])
    def test_negative_or_non_finite_tolerance_rejected(self, tol):
        m = rational_metric(hm.SpdMatrix(hm.identity(4)), Fraction(1))
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            hm.is_heisenberg_type(m, tol=tol)

    def test_zero_tolerance_is_valid(self):
        assert hm.is_heisenberg_type(rational_metric(hm.SpdMatrix(hm.identity(4)), Fraction(1)),
                                     tol=0)


class TestSameOrbit:
    def test_reflexive(self):
        Y = hm.counterexample_family(2)
        assert hm.same_symplectic_orbit(Y, Y)

    def test_distinct_spectra(self):
        assert not hm.same_symplectic_orbit(
            hm.SpdMatrix(hm.identity(4)), hm.counterexample_family(1)
        )

    def test_orbit_member(self):
        rng = random.Random(11)
        Y = random_integer_gram(rng, 4)
        S = hm.random_symplectic_integer(2, 17, 9)
        Ys = hm.SpdMatrix(hm.congruence(Y.matrix, S))
        assert hm.same_symplectic_orbit(Y, Ys)

    @pytest.mark.parametrize("eps, tol, verdict", [
        (Fraction(1, 10**6), 1e-8, False), (Fraction(1, 10**6), 1e-6, True),
        (Fraction(1, 10**10), 1e-8, True), (Fraction(1, 10**10), 1e-12, False)])
    def test_tolerance_decides_a_near_miss(self, eps, tol, verdict):
        # d = (1, sqrt(1 + eps)) against d = (1, 1)
        Y = hm.SpdMatrix.from_rows([[1 + eps * (i == j == 3) if i == j else 0
                                     for j in range(4)] for i in range(4)])
        assert hm.same_symplectic_orbit(hm.SpdMatrix(hm.identity(4)), Y, tol=tol) is verdict

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf,
                                     True, np.True_])
    def test_negative_or_non_finite_tolerance_rejected(self, tol):
        Y = hm.SpdMatrix(hm.identity(4))
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            hm.same_symplectic_orbit(Y, Y, tol=tol)

    def test_zero_tolerance_is_valid(self):
        Y = hm.counterexample_family(2)
        assert hm.same_symplectic_orbit(Y, Y, tol=0)

    def test_one_stack(self, monkeypatch):
        real, shapes = np.linalg.svd, []

        def counted(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert not hm.same_symplectic_orbit(hm.SpdMatrix(hm.identity(6)),
                                            _unit_pair(hm.counterexample_family(1)))
        assert shapes == [(2, 6, 6)]

    def test_no_lapack_at_n_le_2(self, no_lapack):
        assert not hm.same_symplectic_orbit(hm.SpdMatrix(hm.identity(4)),
                                            hm.counterexample_family(1))
        Y = hm.counterexample_family(1)
        assert hm.same_symplectic_orbit(Y, hm.SpdMatrix(hm.congruence(
            Y.matrix, hm.random_symplectic_integer(2, 5, 40))), tol=0)


class TestSectionalCurvature:
    def setup_method(self):
        self.flat = rational_metric(hm.SpdMatrix(hm.identity(2)), Fraction(1))

    def test_horizontal_pair(self):
        u = hm.LieAlgebraVector((1.0,), (0.0,), 0.0)
        v = hm.LieAlgebraVector((0.0,), (1.0,), 0.0)
        assert hm.sectional_curvature(self.flat, u, v) == pytest.approx(-0.75)

    def test_horizontal_central_pair(self):
        u = hm.LieAlgebraVector((1.0,), (0.0,), 0.0)
        w = hm.LieAlgebraVector((0.0,), (0.0,), 1.0)
        assert hm.sectional_curvature(self.flat, u, w) == pytest.approx(0.25)

    def test_mixed_plane_exact_and_rounded_once(self):
        # g/4 (J u)^T h^{-1} (J u), the 0.25 w^T h w of w = kaplan_matrix(m) u
        rng = random.Random(44)
        for _ in range(20):
            h = random_integer_gram(rng, 4)
            g = Fraction(rng.randint(1, 32), 4)
            m = hm.NormalizedMetric(h, g, hm.DivisibilityTuple((1, 1)))
            u = np.array([rng.gauss(0, 1) for _ in range(4)])
            u /= math.sqrt(u @ h.to_numpy() @ u)
            uvec = hm.LieAlgebraVector(tuple(u[:2]), tuple(u[2:]), 0.0)
            zvec = hm.LieAlgebraVector((0.0, 0.0), (0.0, 0.0), 1.0 / math.sqrt(float(g)))
            ju = [Fraction(x) for x in (u[2], u[3], -u[0], -u[1])]
            exact = g / 4 * hm.quadratic_form(hm.matrix_inverse(h.matrix), ju)
            got = hm.sectional_curvature(m, uvec, zvec)
            assert got == hm.sectional_curvature(m, zvec, uvec) == float(exact)
            w = hm.kaplan_matrix(m).to_numpy() @ u
            assert got == pytest.approx(0.25 * float(w @ h.to_numpy() @ w), rel=1e-12)

    def test_commuting_horizontal_pair_is_flat(self):
        m = rational_metric(hm.SpdMatrix(hm.identity(4)), Fraction(1))
        u = hm.LieAlgebraVector((1.0, 0.0), (0.0, 0.0), 0.0)
        v = hm.LieAlgebraVector((0.0, 1.0), (0.0, 0.0), 0.0)
        assert hm.sectional_curvature(m, u, v) == 0.0

    def test_not_orthonormal(self):
        u = hm.LieAlgebraVector((2.0,), (0.0,), 0.0)
        v = hm.LieAlgebraVector((0.0,), (1.0,), 0.0)
        with pytest.raises(hm.NotOrthonormal):
            hm.sectional_curvature(self.flat, u, v)

    def test_mixed_vector_rejected(self):
        half = math.sqrt(0.5)
        u = hm.LieAlgebraVector((half,), (0.0,), half)
        v = hm.LieAlgebraVector((0.0,), (1.0,), 0.0)
        with pytest.raises(hm.UnsupportedPlane):
            hm.sectional_curvature(self.flat, u, v)


class TestCurvatureBound:
    def test_flat(self):
        assert hm.curvature_upper_bound(
            rational_metric(hm.SpdMatrix(hm.identity(2)), Fraction(1))
        ) == pytest.approx(1.0)

    def test_counterexample(self):
        m = rational_metric(hm.counterexample_family(1), Fraction(1))
        expected = hm.counterexample_spectrum(1)[1] ** 2
        assert hm.curvature_upper_bound(m) == pytest.approx(expected)
        assert expected == pytest.approx(2.6180339887, abs=1e-9)

    def test_center_scaling(self):
        m = rational_metric(hm.SpdMatrix(hm.identity(4)), Fraction(4))
        assert hm.curvature_upper_bound(m) == pytest.approx(0.25)

    def test_bounds_sampled_curvatures(self):
        rng = random.Random(6)
        for _ in range(10):
            h = random_integer_gram(rng, 4)
            g = Fraction(rng.randint(2, 8), 4)  # keep g <= 2, where the bound is sharp
            m = rational_metric(h, g)
            bound = hm.curvature_upper_bound(m)
            hn = h.to_numpy()
            for _ in range(40):
                k = _random_plane_curvature(rng, m, hn)
                assert k <= bound + 1e-9

    def test_sampled_curvatures_below_sharp_bound_for_any_g(self):
        # K(u, Z) = |j(Z)u|^2 / 4 with j(Z) = -g^{1/2} h^{-1} J, so g d_n^2 / 4
        # bounds every supported plane, for g > 2 too, where g^{-1} d_n^2 does not
        # (85 of these 400 samples exceed curvature_upper_bound)
        rng = random.Random(21)
        for _ in range(10):
            h = random_integer_gram(rng, 4)
            g = Fraction(rng.randint(2, 32), 4)  # [1/2, 8]
            m = rational_metric(h, g)
            sharp = float(g) * hm.d_spectrum(h).d_max ** 2 / 4
            hn = h.to_numpy()
            for _ in range(40):
                assert _random_plane_curvature(rng, m, hn) <= sharp * (1 + 1e-9)


def _random_plane_curvature(rng, m, hn):
    """Curvature of a random admissible orthonormal plane."""
    dim = hn.shape[0]

    def h_normalize(vec):
        norm = math.sqrt(vec @ hn @ vec)
        return vec / norm

    u = h_normalize(np.array([rng.gauss(0, 1) for _ in range(dim)]))
    if rng.random() < 0.5:
        v = np.array([rng.gauss(0, 1) for _ in range(dim)])
        v = v - (v @ hn @ u) * u
        v = h_normalize(v)
        uvec = hm.LieAlgebraVector(tuple(u[: dim // 2]), tuple(u[dim // 2:]), 0.0)
        vvec = hm.LieAlgebraVector(tuple(v[: dim // 2]), tuple(v[dim // 2:]), 0.0)
    else:
        uvec = hm.LieAlgebraVector(tuple(u[: dim // 2]), tuple(u[dim // 2:]), 0.0)
        vvec = hm.LieAlgebraVector(
            (0.0,) * (dim // 2), (0.0,) * (dim // 2), 1.0 / math.sqrt(float(m.g))
        )
    return hm.sectional_curvature(m, uvec, vvec)


class TestMetricJson:
    def test_roundtrip(self):
        m = rational_metric(hm.counterexample_family(2), Fraction(3, 2))
        obj = m.to_json()
        back = hm.NormalizedMetric.from_json(obj)
        assert back.h.entries == m.h.entries
        assert back.g == m.g and back.r == m.r

    def test_h_and_g_share_the_payload_table(self):
        scalars = {}
        obj = {"h": {"mode": "rational", "rows": 2, "cols": 2,
                     "entries": [["3/2", "1/2"], ["1/2", "3/2"]]}, "g": "3/2", "r": [1]}
        a = hm.NormalizedMetric.from_json(obj, scalars)
        b = hm.NormalizedMetric.from_json(obj, scalars)
        assert a.g == Fraction(3, 2)
        assert a.g is a.h.entries[0][0] is b.h.entries[1][1] is b.g
        assert scalars == {hm.RATIONAL: {"3/2": Fraction(3, 2), "1/2": Fraction(1, 2)}}

    def test_element_roundtrip(self):
        p = hm.HeisenbergElement((Fraction(1, 2),), (Fraction(3),), Fraction(-2))
        assert hm.HeisenbergElement.from_json(p.to_json()) == p

    @pytest.mark.parametrize("obj", [
        {"x": "12", "y": ["3", "4"], "s": "0"},
        {"x": ["1", "2"], "y": "34", "s": "0"},
    ])
    def test_element_coordinates_must_be_lists(self, obj):
        with pytest.raises(ValueError):
            hm.HeisenbergElement.from_json(obj)

    def test_r_must_be_a_list(self):
        obj = {"h": hm.matrix_to_json(hm.identity(4)), "g": 1, "r": "12"}
        with pytest.raises(ValueError):
            hm.NormalizedMetric.from_json(obj)

    def test_element_float_coordinates(self):
        p = hm.HeisenbergElement.from_json({"x": [0.5], "y": ["3"], "s": 2})
        assert p == hm.HeisenbergElement((0.5,), (3.0,), 2.0)
        assert all(type(v) is float for v in (*p.x, *p.y, p.s))

    def test_element_int_center_stays_exact(self):
        p = hm.HeisenbergElement((Fraction(1),), (Fraction(2),), 3)
        assert p.to_json() == {"x": ["1"], "y": ["2"], "s": "3"}
        assert hm.HeisenbergElement.from_json(p.to_json()) == p

    @pytest.mark.parametrize("obj", [
        {"x": [True], "y": ["0"], "s": "0"},
        {"x": ["0"], "y": ["0"], "s": False},
        {"x": [float("nan")], "y": [0.0], "s": 0.0},
        {"x": [0.0], "y": [0.0], "s": float("inf")},
        {"x": ["1/0"], "y": ["0"], "s": "0"},
    ])
    def test_element_rejects_what_every_scalar_parser_rejects(self, obj):
        with pytest.raises(ValueError):
            hm.HeisenbergElement.from_json(obj)


class TestConstructorChecks:
    @pytest.mark.parametrize("d", [(2.0, 1.0), (1.0, 3.0, 2.0), (3.0, 1.0, 2.0), (1.0, 1.0, 0.5)])
    def test_unsorted_spectrum_rejected(self, d):
        with pytest.raises(ValueError, match="sorted ascending"):
            hm.KaplanSpectrum(d)

    @pytest.mark.parametrize("d", [(0.0,), (-1.0,), (0.0, 1.0), (-1.0, 1.0), (-2.0, -1.0),
                                   (-1.0, 0.0, 1.0), (-0.0, 0.0, 2.0), (0.0, -0.0)])
    def test_nonpositive_spectrum_rejected(self, d):
        with pytest.raises(ValueError, match="positive"):
            hm.KaplanSpectrum(d)

    @pytest.mark.parametrize("d", [(math.nan,), (math.inf,), (1.0, math.nan, 2.0),
                                   (1.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)])
    def test_non_finite_spectrum_rejected(self, d):
        with pytest.raises(ValueError, match="finite"):
            hm.KaplanSpectrum(d)

    @pytest.mark.parametrize("d", [(), (0.5,), (0.5, 0.5), (1e-300, 1.0, 2.0)])
    def test_sorted_positive_spectrum_accepted(self, d):
        assert hm.KaplanSpectrum(d).d == d

    H = hm.SpdMatrix(hm.identity(2))
    R = hm.DivisibilityTuple((1,))

    @pytest.mark.parametrize("g", [Fraction(0), Fraction(-1), 0, 0.0, -1.0, math.nan, math.inf,
                                   -math.inf])
    def test_g_not_positive_and_finite_rejected(self, g):
        with pytest.raises(ValueError, match="positive and finite"):
            hm.NormalizedMetric(self.H, g, self.R)

    @pytest.mark.parametrize("g", [True, False])
    def test_bool_g_rejected(self, g):
        # True would pass 0 < g < inf and be written as "g": 1.0
        with pytest.raises(ValueError, match=f"boolean {g} is not a scalar"):
            hm.NormalizedMetric(self.H, g, self.R)

    @pytest.mark.parametrize("g", [np.True_, np.False_])
    def test_numpy_bool_g_rejected(self, g):
        # np.True_ is no bool subclass; it passed 0 < g < inf and was written "g": 1.0
        with pytest.raises(ValueError, match=f"boolean {bool(g)} is not a scalar"):
            hm.NormalizedMetric(self.H, g, self.R)

    @pytest.mark.parametrize("g, plain", [*NUMPY_SCALARS[:2], (np.float64(2.5), 2.5)])
    def test_numpy_g_is_its_python_scalar(self, g, plain):
        m = hm.NormalizedMetric(self.H, g, self.R)
        assert type(m.g) is type(plain) and m.g == plain
        assert m.to_json() == hm.NormalizedMetric(self.H, plain, self.R).to_json()

    @pytest.mark.parametrize("g", [np.float64(0.0), np.int64(-1), np.float64(np.nan),
                                   np.float32(np.inf)])
    def test_numpy_g_not_positive_and_finite_rejected(self, g):
        with pytest.raises(ValueError, match="positive and finite"):
            hm.NormalizedMetric(self.H, g, self.R)

    @pytest.mark.parametrize("g", [1, Fraction(1, 2), Fraction(10**400), Fraction(1, 10**400),
                                   0.75, 5e-324])
    def test_positive_g_accepted(self, g):
        assert hm.NormalizedMetric(self.H, g, self.R).g is g
