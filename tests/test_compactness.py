import math
import random
from fractions import Fraction

import numpy as np
import pytest

import heismoduli as hm
from conftest import random_unimodular


def metric_family(grams, g=Fraction(1), r=(1, 1)):
    rt = hm.DivisibilityTuple(r)
    return hm.MetricFamily(tuple(hm.NormalizedMetric(Y, g, rt) for Y in grams))


class TestCounterexampleFamily:
    def test_k_zero_is_identity(self):
        assert hm.counterexample_family(0).entries == hm.identity(4).entries

    def test_k_one(self):
        assert hm.counterexample_family(1).entries == (
            (1, 1, 0, 0), (1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
        )

    def test_unit_invariants(self):
        for k in (0, 2, 7, 11):
            Y = hm.counterexample_family(k)
            assert hm.determinant(Y.matrix) == 1
            assert hm.first_minimum(Y).value == 1

    def test_spectrum_closed_form(self):
        d = hm.d_spectrum(hm.counterexample_family(2)).d
        assert d == pytest.approx((0.4142135624, 2.4142135624), abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hm.counterexample_family(-1)

    @pytest.mark.parametrize("k", [10**3, 10**4, 3 * 10**4])
    def test_spectrum_closed_form_at_large_k(self, k):
        d1, d2 = hm.counterexample_spectrum(k)
        assert d1 * d2 == pytest.approx(1.0, rel=1e-14)  # det = 1
        assert d2 == pytest.approx((math.sqrt(k * k + 4) + k) / 2, rel=1e-14)
        # d_1^2 and d_2^2 are the roots of s^2 - (k^2 + 2) s + 1
        assert d1 * d1 + d2 * d2 == pytest.approx(k * k + 2, rel=1e-14)
        got = hm.d_spectrum(hm.counterexample_family(k)).d
        assert got == pytest.approx((d1, d2), rel=1e-9)


class TestMahlerCertificate:
    def test_single_identity(self):
        cert = hm.mahler_certificate([hm.SpdMatrix(hm.identity(2))], C0=1, C1=1)
        assert cert.certified and cert.c0 == 1 and cert.c1 == 1

    def test_counterexamples_satisfy_torus_bounds(self):
        fam = [hm.counterexample_family(k) for k in range(11)]
        cert = hm.mahler_certificate(fam, C0=1, C1=1)
        assert cert.certified
        assert cert.c0 == 1 and cert.c1 == 1

    def test_collapsing_tori_rejected(self):
        fam = []
        for t in range(1, 6):
            basis = hm.DenseMatrix.from_rows([[t, 0], [0, Fraction(1, t)]])
            fam.append(hm.SpdMatrix(hm.congruence(hm.identity(2), basis)))
        cert = hm.mahler_certificate(fam, C0=1, C1=1)
        assert not cert.certified
        assert cert.c0 == Fraction(1, 25)
        assert cert.witnesses["c0"] == 4

    def test_no_thresholds_reports_bounds_only(self):
        cert = hm.mahler_certificate([hm.SpdMatrix(hm.identity(2))])
        assert cert.certified  # vacuous: nothing to check
        assert cert.thresholds == {"C0": None, "C1": None}

    def test_json_shape(self):
        cert = hm.mahler_certificate([hm.SpdMatrix(hm.identity(2))], C0=1)
        obj = cert.to_json()
        assert obj["verdict"] == "certified"
        assert obj["c2"] is None and obj["g_interval"] is None


class TestHeisenbergCertificate:
    def test_flat_point(self):
        fam = metric_family([hm.SpdMatrix(hm.identity(4))])
        cert = hm.heisenberg_certificate(fam, C0=1, C1=1, C2=1, I=(1, 1))
        assert cert.certified
        assert cert.g_interval == (1, 1)

    def test_counterexamples_escape_spectrum_bound(self):
        fam = metric_family([hm.counterexample_family(k) for k in range(11)])
        cert = hm.heisenberg_certificate(fam, C2=2)
        assert not cert.certified
        assert cert.c2 == pytest.approx(10.0990195, abs=1e-6)
        assert cert.witnesses["c2"] == 10

    def test_larger_spectrum_bound_passes(self):
        fam = metric_family([hm.counterexample_family(k) for k in range(11)])
        assert hm.heisenberg_certificate(fam, C2=11).certified

    def test_spectrum_growth_is_monotone(self):
        tops = [hm.d_spectrum(hm.counterexample_family(k)).d_max for k in range(11)]
        assert all(a < b for a, b in zip(tops, tops[1:]))

    def test_interval_violation(self):
        fam = hm.MetricFamily((
            hm.NormalizedMetric(hm.SpdMatrix(hm.identity(4)), Fraction(1), hm.DivisibilityTuple((1, 1))),
            hm.NormalizedMetric(hm.SpdMatrix(hm.identity(4)), Fraction(5), hm.DivisibilityTuple((1, 1))),
        ))
        cert = hm.heisenberg_certificate(fam, I=(1, 4))
        assert not cert.certified
        assert cert.g_interval == (1, 5)

    def test_mixed_tuples_rejected(self):
        with pytest.raises(ValueError):
            hm.MetricFamily((
                hm.NormalizedMetric(hm.SpdMatrix(hm.identity(4)), 1, hm.DivisibilityTuple((1, 1))),
                hm.NormalizedMetric(hm.SpdMatrix(hm.identity(4)), 1, hm.DivisibilityTuple((1, 2))),
            ))


class TestHeisenbergTypeCertificate:
    def test_flat_point(self):
        fam = metric_family([hm.SpdMatrix(hm.identity(4))])
        cert = hm.heisenberg_type_certificate(fam, C0=1, I=(1, 1))
        assert cert.certified

    def test_derived_bounds_from_scaled_orbit(self):
        rng = random.Random(20)
        members = []
        g = Fraction(4)
        for _ in range(5):
            S = hm.random_symplectic_integer(2, rng.randrange(2**32), 8)
            base = hm.congruence(hm.identity(4), S)
            h = hm.SpdMatrix.from_rows([[2 * x for x in row] for row in base.entries])
            members.append(hm.NormalizedMetric(h, g, hm.DivisibilityTuple((1, 1))))
        fam = hm.MetricFamily(tuple(members))
        cert = hm.heisenberg_type_certificate(fam, C0=Fraction(1, 1000), I=(4, 4))
        assert cert.certified
        assert cert.c1 == 16  # (max g)^n
        assert cert.c2 == pytest.approx(0.5)  # (min g)^{-1/2}
        for m in members:
            assert hm.determinant(m.h.matrix) == 16

    def test_non_type_member_rejected(self):
        fam = metric_family([hm.counterexample_family(1)])
        with pytest.raises(hm.NotHeisenbergType) as exc:
            hm.heisenberg_type_certificate(fam, C0=1, I=(1, 1))
        assert exc.value.index == 0


def _replay_invertible(rng, dim, bound=10.0):
    """The sweeps' draw, one matrix at a time: entries row by row from
    rng.uniform, the whole matrix redrawn while |det| <= 1e-3."""
    while True:
        m = np.array([[rng.uniform(-bound, bound) for _ in range(dim)] for _ in range(dim)])
        if abs(np.linalg.det(m)) > 1e-3:
            return m


def _assert_sweep_matches(result, reports):
    assert result.total == len(reports)
    assert result.held == sum(r.holds for r in reports)
    assert result.worst_slack == pytest.approx(min(r.slack for r in reports), rel=1e-12)


class TestKeyInequality:
    def test_identity_equality_case(self):
        rep = hm.verify_key_inequality(hm.SpdMatrix(hm.identity(2)), hm.identity(2))
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0)
        assert rep.holds
        assert abs(rep.slack) < 1e-12

    def test_scaled_identity(self):
        rep = hm.verify_key_inequality(
            hm.SpdMatrix.from_rows([[2, 0], [0, 2]]), hm.identity(2)
        )
        assert rep.lhs == pytest.approx(0.5)
        assert rep.rhs == pytest.approx(0.5)
        assert rep.holds

    def test_diagonal_pullback(self):
        rep = hm.verify_key_inequality(
            hm.SpdMatrix(hm.identity(2)), hm.DenseMatrix.from_rows([[2, 0], [0, 1]])
        )
        assert rep.lhs == pytest.approx(0.5)
        assert rep.rhs == pytest.approx(0.5)
        assert rep.holds

    def test_singular_rejected(self):
        with pytest.raises(hm.Singular):
            hm.verify_key_inequality(
                hm.SpdMatrix(hm.identity(2)), hm.DenseMatrix.from_rows([[1, 1], [1, 1]])
            )

    def test_singular_in_floats_rejected(self):
        # invertible as a rational matrix, singular once rounded to floats
        G = hm.DenseMatrix.from_rows([[1, 1], [1, 1 + Fraction(1, 10**20)]])
        with pytest.raises(hm.Singular):
            hm.verify_key_inequality(hm.SpdMatrix(hm.identity(2)), G)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_seeded_sweep(self, dim):
        result = hm.key_inequality_sweep(dim, 300, seed=1000 + dim)
        assert result.all_hold
        assert result.worst_slack >= -1e-9

    @pytest.mark.parametrize("seed", [612177327, 3993805642])
    def test_ill_conditioned_samples_are_solved(self, seed):
        # each seed draws one valid but badly conditioned sample, which
        # must be solved rather than rejected
        result = hm.key_inequality_sweep(6, 160, seed)
        assert result.held == result.total == 160

    @pytest.mark.parametrize("dim", [2, 4, 6])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_sweep_matches_sample_by_sample_replay(self, dim, seed):
        rng = random.Random(seed)
        reports = []
        for _ in range(100):
            B = _replay_invertible(rng, dim, math.sqrt(10.0 / dim))
            G = _replay_invertible(rng, dim)
            Y = hm.SpdMatrix.from_rows((B.T @ B).tolist(), hm.FLOAT)
            reports.append(hm.verify_key_inequality(Y, hm.DenseMatrix.from_rows(G.tolist())))
        _assert_sweep_matches(hm.key_inequality_sweep(dim, 100, seed), reports)


class TestBhatiaInequality:
    def test_identity(self):
        rep = hm.verify_bhatia_k1(hm.identity(2), hm.identity(2), 1)
        assert rep.lhs == pytest.approx(1.0) and rep.rhs == pytest.approx(1.0)
        assert rep.holds

    def test_diagonal(self):
        rep = hm.verify_bhatia_k1(
            hm.DenseMatrix.from_rows([[2, 0], [0, 1]]),
            hm.DenseMatrix.from_rows([[3, 0], [0, 1]]),
            1,
        )
        assert rep.lhs == pytest.approx(2.0)
        assert rep.rhs == pytest.approx(6.0)
        assert rep.holds

    def test_index_validation(self):
        with pytest.raises(ValueError):
            hm.verify_bhatia_k1(hm.identity(2), hm.identity(2), 3)

    def test_dimension_mismatch(self):
        with pytest.raises(hm.DimensionMismatch):
            hm.verify_bhatia_k1(hm.identity(2), hm.identity(4), 1)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_seeded_sweep(self, dim):
        result = hm.bhatia_sweep(dim, 10_000, seed=77 + dim)
        assert result.all_hold

    @pytest.mark.parametrize("dim", [2, 4, 6])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_sweep_matches_sample_by_sample_replay(self, dim, seed):
        rng = random.Random(seed)
        reports = []
        for _ in range(100):
            A = hm.DenseMatrix.from_rows(_replay_invertible(rng, dim).tolist())
            B = hm.DenseMatrix.from_rows(_replay_invertible(rng, dim).tolist())
            reports.append(hm.verify_bhatia_k1(A, B, rng.randrange(1, dim + 1)))
        _assert_sweep_matches(hm.bhatia_sweep(dim, 100, seed), reports)


class TestSeparation:
    def test_integer_shear_separated_by_one(self):
        shear = hm.DenseMatrix.from_rows(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        rep = hm.representative_separation_check(
            shear, hm.identity(4), hm.DivisibilityTuple((1, 1))
        )
        assert rep.lhs == 1 and rep.rhs >= 1
        assert rep.holds

    def test_same_coset_rejected(self):
        with pytest.raises(hm.SameCoset):
            hm.representative_separation_check(
                hm.symplectic_j(2), hm.identity(4), hm.DivisibilityTuple((1, 1))
            )

    def test_antisymplectic_quotient_rejected(self):
        # G^{-1} H = diag(I, -I) pulls J back to -J, a similitude of sign -1
        G = hm.DenseMatrix.from_rows(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        H = G @ hm.DenseMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        )
        with pytest.raises(hm.SameCoset):
            hm.representative_separation_check(G, H, hm.DivisibilityTuple((1, 1)))

    def test_not_in_group_rejected(self):
        bad = hm.DenseMatrix.from_rows([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(hm.NotInGr):
            hm.representative_separation_check(
                bad, hm.identity(4), hm.DivisibilityTuple((1, 1))
            )

    def test_invariant_entries_live_on_coarse_grid(self):
        # entries of G^{-T} J G^{-1} times r_n^2 are integers for G in the group
        rng = random.Random(15)
        r = hm.DivisibilityTuple((1, 2))
        delta = hm.delta_matrix(r)
        delta_inv = hm.matrix_inverse(delta)
        for _ in range(20):
            U = random_unimodular(rng, 4, steps=12)
            G = delta @ U @ delta_inv
            form = hm.compactness.pulled_back_form(G)
            for row in form.entries:
                for x in row:
                    assert (x * r.r[-1] ** 2).denominator == 1

    @pytest.mark.parametrize("rt", [(1, 1), (1, 2), (2, 2)])
    def test_separation_on_random_valid_pairs(self, rt):
        rng = random.Random(sum(rt))
        r = hm.DivisibilityTuple(rt)
        delta = hm.delta_matrix(r)
        delta_inv = hm.matrix_inverse(delta)
        valid = 0
        attempts = 0
        while valid < 10 and attempts < 200:
            attempts += 1
            G = delta @ random_unimodular(rng, 4, steps=10) @ delta_inv
            H = delta @ random_unimodular(rng, 4, steps=10) @ delta_inv
            try:
                rep = hm.representative_separation_check(G, H, r)
            except hm.SameCoset:
                continue
            assert rep.holds
            valid += 1
        assert valid == 10


class TestRandomSymplectic:
    def test_zero_steps_is_identity(self):
        assert hm.random_symplectic_integer(2, 5, 0).entries == hm.identity(4).entries

    def test_always_similitude(self):
        for seed in range(25):
            beta = hm.random_symplectic_integer(2, seed, 12)
            assert hm.symplectic_similitude_check(beta) in (1, -1)

    def test_deterministic(self):
        a = hm.random_symplectic_integer(3, 123, 10)
        b = hm.random_symplectic_integer(3, 123, 10)
        assert a.entries == b.entries

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            hm.random_symplectic_integer(2, 1, -1)

    def test_integer_entries(self):
        beta = hm.random_symplectic_integer(2, 9, 12)
        for row in beta.entries:
            for x in row:
                assert x.denominator == 1
