import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heismoduli as hm
from conftest import givens_orthogonal, random_unimodular
from heismoduli import _arrays, compactness, heisenberg, linalg


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

    @pytest.mark.parametrize("k", [True, np.True_, 2.5, 2.0, np.float64(2.0), Fraction(5, 2)])
    def test_non_integer_k_rejected(self, k):
        # 2.5 once gave the Gram matrix of the non-integral shear [[1, 5/2], [0, 1]]
        with pytest.raises(ValueError, match="k must be an integer"):
            hm.counterexample_family(k)

    @pytest.mark.parametrize("k", [np.int64(3), np.uint8(3)])
    def test_numpy_integer_k_is_its_int(self, k):
        Y = hm.counterexample_family(k)
        assert Y.entries == hm.counterexample_family(3).entries
        assert all(type(x) is Fraction for row in Y.entries for x in row)

    @pytest.mark.parametrize("k", [-1, True, np.True_, 2.5, np.float64(2.0), Fraction(3)])
    def test_spectrum_of_a_non_member_rejected(self, k):
        # k is an integer of at least 0; at -1 the closed form is a descending pair
        with pytest.raises(ValueError, match="^k must be"):
            hm.counterexample_spectrum(k)

    # nothing squares k, so d_2 is finite wherever k rounds to a finite float
    @pytest.mark.parametrize("k", [10**154, 10**155, 10**300, 2**1024 - 2**970 - 1],
                             ids=["1e154", "1e155", "1e300", "largest"])
    def test_spectrum_finite_at_huge_k(self, k):
        d1, d2 = hm.counterexample_spectrum(k)
        assert d2 == float(k) and d1 == 1.0 / d2 and d1 > 0.0

    # the largest k that rounds to a finite float, above, and the least that does not
    @pytest.mark.parametrize("k", [2**1024 - 2**970, 10**309], ids=["least", "1e309"])
    def test_spectrum_past_the_float_range_refused(self, k):
        with pytest.raises(OverflowError, match="^d_2 is past the float range$"):
            hm.counterexample_spectrum(k)

    # d_1 = 2 / (k + sqrt(k^2 + 4)) rounded once; 1 / d_2, rounded twice, is 1 ulp low here
    @pytest.mark.parametrize("k, d1", [(1, 0.6180339887498949), (3, 0.3027756377319947)])
    def test_spectrum_d1_correctly_rounded(self, k, d1):
        assert hm.counterexample_spectrum(k)[0] == d1

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
        assert hm.heisenberg_type_certificate(fam, C0=1, I=(1, 1), tol=0).certified

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf,
                                     True, np.True_])
    def test_negative_or_non_finite_tolerance_rejected(self, tol):
        fam = metric_family([hm.SpdMatrix(hm.identity(4))])
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            hm.heisenberg_type_certificate(fam, C0=1, tol=tol)

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

    def test_c1_past_the_float_range_refused(self):
        # a valid member whose float c1 = g^n = 1e400 is past the float range;
        # a Fraction g of that size is exact
        h = hm.SpdMatrix.from_rows([[1e100 * (i == j) for j in range(4)] for i in range(4)])
        with pytest.raises(OverflowError, match="^c1 = g\\^n is past the float range$"):
            hm.heisenberg_type_certificate(metric_family([h], g=1e200))
        h = scaled_identity(4, 10**100)
        assert hm.heisenberg_type_certificate(metric_family([h], g=Fraction(10**200))).c1 \
            == 10**400

    def test_non_type_member_rejected(self):
        fam = metric_family([hm.counterexample_family(1)])
        with pytest.raises(hm.NotHeisenbergType) as exc:
            hm.heisenberg_type_certificate(fam, C0=1, I=(1, 1))
        assert exc.value.index == 0

    def test_first_non_type_member_named(self):
        fam = metric_family([hm.SpdMatrix(hm.identity(4)), hm.counterexample_family(1),
                             hm.counterexample_family(2)])
        with pytest.raises(hm.NotHeisenbergType) as exc:
            hm.heisenberg_type_certificate(fam)
        assert exc.value.index == 1

    def test_pairing_failure_of_a_later_member_comes_first(self, monkeypatch):
        # the family's spectra come as one stack, before any member is tested:
        # member 1 breaks its pairs, member 0 is not of Heisenberg type
        real = np.linalg.svd

        def perturbed(m, *args, **kwargs):
            vals = real(m, *args, **kwargs).copy()
            vals[1, 0] *= 0.9
            return vals

        monkeypatch.setattr(np.linalg, "svd", perturbed)
        not_type = hm.SpdMatrix.from_rows([[(1 + (i == 2)) * (i == j) for j in range(6)]
                                           for i in range(6)])
        fam = metric_family([not_type, hm.SpdMatrix(hm.identity(6))], r=(1, 1, 1))
        with pytest.raises(hm.PairingFailure):
            hm.heisenberg_type_certificate(fam)

    def test_no_lapack_at_n_le_2(self, no_lapack):
        # at n <= 2 nothing is paired: member 0 is named, and no svd or inv runs
        fam = metric_family([hm.counterexample_family(1), hm.SpdMatrix(hm.identity(4))])
        with pytest.raises(hm.NotHeisenbergType) as exc:
            hm.heisenberg_type_certificate(fam)
        assert exc.value.index == 0


def scaled_identity(n, c):
    return hm.SpdMatrix.from_rows([[c * (i == j) for j in range(n)] for i in range(n)], hm.RATIONAL)


class TestCertificateTable:
    """What reducing a family to a verdict keeps across all three certificates."""

    # c I_4 is of Heisenberg type with g = c^2: its d_n is 1/c, its first
    # minimum c; members 0 and 2 tie, and so do 1 and 3
    SCALES = [Fraction(2), Fraction(1), Fraction(2), Fraction(1)]

    def heisenberg_family(self):
        return hm.MetricFamily(tuple(
            hm.NormalizedMetric(scaled_identity(4, c), c**2, hm.DivisibilityTuple((1, 1)))
            for c in self.SCALES))

    def test_ties_go_to_the_first_member(self):
        low, high = 1, 0  # the first least and the first largest scale
        torus = hm.mahler_certificate([scaled_identity(2, c) for c in self.SCALES])
        assert torus.witnesses == {"c0": low, "c1": high}
        fam = self.heisenberg_family()
        plain = hm.heisenberg_certificate(fam)
        assert plain.witnesses == {"c0": low, "c1": high, "c2": low, "g_interval": [low, high]}
        # c1 = (max g)^n comes with the largest g, c2 = (min g)^{-1/2} with the least
        typed = hm.heisenberg_type_certificate(fam)
        assert typed.witnesses == plain.witnesses

    def test_every_bound_certifies_at_its_threshold_and_fails_past_it(self):
        fam = self.heisenberg_family()
        tiny = Fraction(1, 10**6)
        torus = [scaled_identity(2, c) for c in self.SCALES]
        cert = hm.mahler_certificate(torus)
        assert hm.mahler_certificate(torus, C0=cert.c0, C1=cert.c1).certified
        assert not hm.mahler_certificate(torus, C0=cert.c0 + tiny).certified
        assert not hm.mahler_certificate(torus, C1=cert.c1 - tiny).certified
        cert = hm.heisenberg_certificate(fam)
        lo, hi = cert.g_interval
        assert hm.heisenberg_certificate(fam, C0=cert.c0, C1=cert.c1, C2=cert.c2,
                                         I=(lo, hi)).certified
        for past in ({"C0": cert.c0 + tiny}, {"C1": cert.c1 - tiny},
                     {"C2": Fraction(cert.c2) - tiny},
                     {"I": (lo + tiny, hi)}, {"I": (lo, hi - tiny)}):
            assert not hm.heisenberg_certificate(fam, **past).certified, past
        cert = hm.heisenberg_type_certificate(fam)
        assert hm.heisenberg_type_certificate(fam, C0=cert.c0, I=(lo, hi)).certified
        for past in ({"C0": cert.c0 + tiny}, {"I": (lo + tiny, hi)}, {"I": (lo, hi - tiny)}):
            assert not hm.heisenberg_type_certificate(fam, **past).certified, past

    @staticmethod
    def exact_extreme(values, side):
        """(value, index) of the first exact extreme, by Fractions."""
        exact = [Fraction(v) for v in values]
        w = exact.index(side(exact))
        return values[w], w

    def assert_exact_extremes(self, cert, rows):
        found = {"c0": cert.c0, "c1": cert.c1, "c2": cert.c2}
        if cert.g_interval is not None:
            found["g_lo"], found["g_hi"] = cert.g_interval
        witnesses = dict(cert.witnesses)
        if "g_interval" in witnesses:
            witnesses["g_lo"], witnesses["g_hi"] = witnesses.pop("g_interval")
        for field, values, side in rows:
            value, w = self.exact_extreme(values, side)
            assert witnesses[field] == w, field
            assert found[field] == value and type(found[field]) is type(value), field

    def test_mixed_rational_and_float_members(self):
        # (h, g): rational (5/4) I_4, float 1.5 I_4 and rational I_4, so the
        # c1 and g rows mix Fractions and floats
        r = hm.DivisibilityTuple((1, 1))
        fam = hm.MetricFamily((
            hm.NormalizedMetric(scaled_identity(4, Fraction(5, 4)), Fraction(5, 4), r),
            hm.NormalizedMetric(hm.SpdMatrix.from_rows([[1.5 * (i == j) for j in range(4)]
                                                        for i in range(4)]), 0.75, r),
            hm.NormalizedMetric(scaled_identity(4, 1), Fraction(1), r)))
        cert = hm.heisenberg_certificate(fam, C0=1, C1=5.0625, I=(0.75, Fraction(5, 4)))
        assert (cert.c0, cert.c1, cert.g_interval) == (1, 5.0625, (0.75, Fraction(5, 4)))
        assert type(cert.c1) is float and type(cert.g_interval[0]) is float
        assert cert.witnesses == {"c0": 2, "c1": 1, "c2": 2, "g_interval": [1, 0]}
        assert cert.certified
        self.assert_exact_extremes(cert, [
            ("c0", [Fraction(5, 4), 1.5, Fraction(1)], min),
            ("c1", [Fraction(625, 256), 5.0625, Fraction(1)], max),
            ("g_lo", [Fraction(5, 4), 0.75, Fraction(1)], min),
            ("g_hi", [Fraction(5, 4), 0.75, Fraction(1)], max)])
        assert not hm.heisenberg_certificate(fam, C1=5.0625 - 2**-40).certified
        assert not hm.heisenberg_certificate(fam, I=(0.75 + 2**-40, 2)).certified

    def test_mixed_ties_go_to_the_first_member(self):
        # 1/2 and 0.5 tie, and so do 3 and 3.0: the first of each wins
        for values in ([0.5, Fraction(1, 2), 3, 3.0, Fraction(1, 2)],
                       [Fraction(1, 2), 0.5, 3.0, 3, 0.5]):
            cert = compactness._certificate({}, [("c0", values, min, None),
                                                 ("c1", values, max, None)])
            assert cert.witnesses == {"c0": 0, "c1": 2}
            assert type(cert.c0) is type(values[0]) and type(cert.c1) is type(values[2])
            self.assert_exact_extremes(cert, [("c0", values, min), ("c1", values, max)])

    def test_values_apart_only_past_float_precision(self):
        # 0.3333333333333333 < 1/3 and 1e20 < 10**20 + 1, exactly
        thirds = [Fraction(1, 3), 0.3333333333333333]
        bigs = [1e20, 10**20 + 1]
        cert = compactness._certificate({"C0": None, "C1": 10**20 + 1}, [
            ("c0", thirds, min, None), ("c1", bigs, max, 10**20 + 1)])
        assert (cert.c0, cert.c1, cert.witnesses) == (
            0.3333333333333333, 10**20 + 1, {"c0": 1, "c1": 1})
        assert cert.certified
        cert = compactness._certificate({}, [("c0", bigs, min, 1e20), ("c1", thirds, max, None)])
        assert (cert.c0, cert.c1, cert.witnesses) == (1e20, Fraction(1, 3), {"c0": 0, "c1": 0})
        assert cert.certified
        assert not compactness._certificate({}, [("c0", bigs, min, 10**20 + 1),
                                                 ("c1", thirds, max, 0.3333333333333333)]).certified
        fam = hm.MetricFamily(tuple(hm.NormalizedMetric(scaled_identity(4, 1), g,
                                                        hm.DivisibilityTuple((1, 1)))
                                    for g in thirds))
        cert = hm.heisenberg_certificate(fam, I=(0.3333333333333333, Fraction(1, 3)))
        assert cert.g_interval == (0.3333333333333333, Fraction(1, 3))
        assert cert.witnesses["g_interval"] == [1, 0] and cert.certified
        assert not hm.heisenberg_certificate(fam, I=(Fraction(1, 3), Fraction(1, 3))).certified

    def test_spectra_come_before_minima_only_for_heisenberg_type(self):
        # member 0, S^T S for the symplectic S = I + E_31 (pivots 2, 1, 1/2, 1),
        # exhausts a budget of one candidate; member 1 is not of type
        member0 = hm.SpdMatrix.from_rows([[2, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
        fam = metric_family([member0, hm.counterexample_family(1)])
        with pytest.raises(hm.NotHeisenbergType) as exc:
            hm.heisenberg_type_certificate(fam, budget=1)
        assert exc.value.index == 1
        with pytest.raises(hm.EnumerationBudgetExceeded):
            hm.heisenberg_certificate(fam, budget=1)

    def test_torus_sizes_are_checked_before_minima(self):
        with pytest.raises(hm.DimensionMismatch):
            hm.mahler_certificate([hm.SpdMatrix(hm.identity(4)), hm.SpdMatrix(hm.identity(2))],
                                  budget=1)


def _replay_invertible(rng, dim, bound=10.0):
    """The sweeps' draw, one matrix at a time: entries row by row from
    rng.uniform, the whole matrix redrawn while |_det| <= 1e-3."""
    while True:
        m = np.array([[rng.uniform(-bound, bound) for _ in range(dim)] for _ in range(dim)])
        if abs(_arrays._det(m)) > 1e-3:
            return m


def _replay_key_samples(dim, samples, seed):
    """key_inequality_sweep's stacks B and G, drawn one value at a time."""
    rng = random.Random(seed)
    B, G = [], []
    for _ in range(samples):
        B.append(_replay_invertible(rng, dim, math.sqrt(10.0 / dim)))
        G.append(_replay_invertible(rng, dim))
    return np.array(B), np.array(G)


def _replay_bhatia_samples(dim, samples, seed):
    """bhatia_sweep's stacks A and B and indices i1, drawn one value at a time."""
    rng = random.Random(seed)
    A, B, i1 = [], [], []
    for _ in range(samples):
        A.append(_replay_invertible(rng, dim))
        B.append(_replay_invertible(rng, dim))
        i1.append(rng.randrange(1, dim + 1))
    return np.array(A), np.array(B), np.array(i1)


def _drawn(seed, dim, samples, bounds, index=False):
    """Every window of ``_arrays._windows`` joined: one stack per bound,
    one stack of the ``_det`` values the draw read per bound, and the
    indices, as the sweep draws them."""
    windows = list(_arrays._windows(seed, dim, samples, bounds, index))
    stacks, dets = ([np.concatenate([w[part][j] for w in windows]) for j in range(len(bounds))]
                    for part in (0, 1))
    return stacks, dets, np.concatenate([w[2] for w in windows])


def _sweep_det(det_B, det_G):
    """The determinants of the (G, B G) stack as ``_arrays._key_sweep``
    hands them over: the draw's det G and det B det G, with k = 0."""
    return np.stack((det_G, det_B * det_G)), 0


def _own_det(F):
    """The determinants of a stack F as ``verify_key_inequality`` takes
    them: each F's own ``_det``, scaled by ``_pow2_scaled``'s exponent k."""
    k, scaled = _arrays._pow2_scaled(F)
    return _arrays._det(scaled), k


def _rejected(dim, samples, seed, bounds, index=False):
    """How many matrices a sweep's draw rejects for |_det| <= 1e-3, drawn
    as ``_replay_invertible`` draws them, per sample one matrix per bound
    and, with `index`, one index."""
    rng, count = random.Random(seed), 0
    for _ in range(samples):
        for bound in bounds:
            while abs(_arrays._det(np.array([[rng.uniform(-bound, bound) for _ in range(dim)]
                                             for _ in range(dim)]))) <= 1e-3:
                count += 1
        if index:
            rng.randrange(1, dim + 1)
    return count


def _counted_lapack(monkeypatch):
    """A Counter of the ``eigvalsh``, ``svd``, ``inv`` and ``det`` calls
    made from here on, by name, and of the package's own ``_det`` calls,
    as ``_det``."""
    calls = Counter()
    targets = [(np.linalg, name) for name in ("eigvalsh", "svd", "inv", "det")]
    for module, name in targets + [(_arrays, "_det")]:
        def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _exact_top(F):
    """d_n of the Gram matrix F^T F of each 2 x 2 or 4 x 4 float factor F,
    formed exactly from Fractions of its entries, by
    ``heisenberg._exact_spectrum`` (within 1 ulp)."""
    out = []
    for f in F.reshape(-1, *F.shape[-2:]).tolist():
        rows = [[Fraction(x) for x in row] for row in f]
        Y = [[sum(r[i] * r[j] for r in rows) for j in range(len(f))] for i in range(len(f))]
        out.append(heisenberg._exact_spectrum(hm.SpdMatrix.from_rows(Y))[-1])
    return np.array(out).reshape(F.shape[:-2])


SWEEP_SEEDS = st.integers(-(2**80), 2**80)


def _assert_sweep_matches(result, reports):
    assert result.total == len(reports)
    assert result.held == sum(r.holds for r in reports)
    assert result.worst_slack == pytest.approx(min(r.slack for r in reports), rel=1e-12)


def _pythagorean_rotation(turns):
    """The exact 4 x 4 rotation that is the product of Givens rotations
    (i, j, a, b, c), each with cosine a / c and sine b / c, a^2 + b^2 = c^2."""
    q = hm.identity(4)
    for i, j, a, b, c in turns:
        g = [[Fraction(int(r == k)) for k in range(4)] for r in range(4)]
        g[i][i] = g[j][j] = Fraction(a, c)
        g[i][j], g[j][i] = Fraction(b, c), Fraction(-b, c)
        q = q @ hm.DenseMatrix.from_rows(g)
    return q


def _permanent(rows):
    """The permanent of a square list of rows, summed over every permutation."""
    return sum(math.prod(r[k] for r, k in zip(rows, p))
               for p in itertools.permutations(range(len(rows))))


class TestDet:
    # against the exact determinant of the same floats, within
    # (N + 1) eps perm(|F|): at N = 1 and 2 the permanent of |F| bounds the
    # sum of the |terms| the product adds up; at N = 4 the elimination's
    # multipliers are at most 1, and on these entries it stays inside the
    # same bound (test_near_singular_factor checks it where perm(|F|) /
    # |det F| is far above kappa_2(F)).  Entries are uniform(-10, 10), as
    # the draws' are, raw or scaled into [1/2, 1) as _top_symplectic
    # scales each factor.  A matrix's determinant is the same bits alone
    # as in a stack
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 4]), st.integers(1, 5), st.integers(0, 2**32), st.booleans())
    def test_within_the_permanent_bound(self, N, samples, seed, scaled):
        rng = random.Random(seed)
        F = np.array([[[rng.uniform(-10.0, 10.0) for _ in range(N)] for _ in range(N)]
                      for _ in range(samples)])
        if scaled:
            F = np.ldexp(F, -np.frexp(np.abs(F).max(axis=(-2, -1)))[1][:, None, None])
        got = _arrays._det(F)
        assert got.shape == (samples,)
        eps = Fraction(np.finfo(float).eps)
        for f, d in zip(F, got):
            rows, scales = linalg._integer_rows(hm.DenseMatrix.from_rows(f.tolist()))
            exact = Fraction(linalg._int_determinant(rows), math.prod(scales))
            bound = (N + 1) * eps * _permanent([[abs(Fraction(x)) for x in r] for r in f.tolist()])
            assert abs(Fraction(float(d)) - exact) <= bound
            assert _arrays._det(f).tobytes() == d.tobytes()

    # LAPACK's det, sign exp(sum log |u_ii|), reads 3002.9999999999977 and
    # 3.0000000000000004 here (numpy 2.4.6, x86-64)
    def test_exact_where_lapack_is_not(self):
        assert _arrays._det(np.diag([3.0, 7.0, 11.0, 13.0])) == 3003.0
        assert _arrays._det(np.array([[3.0]])) == 3.0

    # a column that is zero from the pivot down leaves a zero pivot: det 0,
    # not the NaN of 0 / 0, so a factor singular in floats is refused
    def test_zero_pivot(self):
        assert _arrays._det(np.zeros((4, 4))) == 0.0
        G = hm.DenseMatrix.from_rows([[1, 1, 0, 0], [1, 1 + Fraction(1, 10**20), 0, 0],
                                      [0, 0, 1, 0], [0, 0, 0, 1]])
        assert _arrays._det(_arrays._to_numpy(G)) == 0.0
        with pytest.raises(hm.Singular):
            hm.verify_key_inequality(hm.SpdMatrix(hm.identity(4)), G)

    # the key sweep hands _top_symplectic the draw's raw determinants, and
    # d_n of a drawn G reads the bits _det of the G scaled by 2^-e would
    # give only if that scaling scales _det(G) by exactly 2^(-N e).
    # Entries are uniform(-10, 10), the draws' range, and e is the exponent
    # _top_symplectic scales by
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 4]), st.integers(1, 5), st.integers(0, 2**32))
    def test_scaling_by_a_power_of_two_is_exact(self, N, samples, seed):
        rng = random.Random(seed)
        F = np.array([[[rng.uniform(-10.0, 10.0) for _ in range(N)] for _ in range(N)]
                      for _ in range(samples)])
        e, scaled = _arrays._pow2_scaled(F)
        assert _arrays._det(scaled).tobytes() == np.ldexp(_arrays._det(F), -N * e).tobytes()


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

    def test_float_gram_past_float_cholesky(self):
        # SpdMatrix accepts this float Gram exactly (det = 2^-49) though the
        # float Cholesky fails; the key inequality factors it as d_spectrum does
        Y = hm.SpdMatrix.from_rows([[3.0, 5.0], [5.0, 8.333333333333334]], hm.FLOAT)
        rep = hm.verify_key_inequality(Y, hm.identity(2))
        assert rep.rhs == hm.d_spectrum(Y).d_max
        assert rep.holds

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

    # 13, 38 and 4 redraw B at dims 2, 4 and 6 (4 twice), 174 redraws G at
    # dim 2; -5 and 2**70 + 3 take the multi-word seed path
    @pytest.mark.parametrize("dim", [2, 4, 6])
    @pytest.mark.parametrize("seed", [11, 12, 13, 38, 4, 174, -5, 2**70 + 3])
    def test_sweep_matches_sample_by_sample_replay(self, dim, seed):
        rng = random.Random(seed)
        reports = []
        for _ in range(100):
            B = _replay_invertible(rng, dim, math.sqrt(10.0 / dim))
            G = _replay_invertible(rng, dim)
            Y = hm.SpdMatrix.from_rows((B.T @ B).tolist(), hm.FLOAT)
            reports.append(hm.verify_key_inequality(Y, hm.DenseMatrix.from_rows(G.tolist())))
        _assert_sweep_matches(hm.key_inequality_sweep(dim, 100, seed), reports)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 4, 6]), st.integers(1, 40), SWEEP_SEEDS)
    @example(2, 100, 13)
    @example(4, 100, 38)
    @example(6, 100, 4)
    @example(2, 100, 174)
    def test_sweep_equals_replay_exactly(self, dim, samples, seed):
        B, G = _replay_key_samples(dim, samples, seed)
        # the drawn B is Y's factor, and the determinants are the ones the
        # draw's redraw rule reads, each matrix's own _det
        det = _sweep_det(*(np.array([_arrays._det(m) for m in X]) for X in (B, G)))
        expected = compactness.SweepResult(*_arrays._tally(
            [_arrays._key_inequality_sides(B, G, det)], compactness.INEQUALITY_SLACK))
        assert hm.key_inequality_sweep(dim, samples, seed) == expected

    # a wrong sample that is not the worst leaves the SweepResult unchanged,
    # so the redraw cases also compare the drawn stacks themselves.  From
    # 600 samples on a sweep spans windows, and the words one window leaves
    # unread are the next one's; at 1000 samples seed 13 redraws often
    # enough to fetch more words inside three of its four windows
    @pytest.mark.parametrize("dim, seed, samples", [
        (2, 13, 100), (4, 38, 100), (6, 4, 100), (2, 174, 100), (6, -5, 100),
        (4, 2**70 + 3, 100), (2, 13, 1000), (4, 38, 600), (6, 4, 600)])
    def test_draw_equals_replay_sample_for_sample(self, dim, seed, samples):
        (B, G), dets, _ = _drawn(seed, dim, samples, (math.sqrt(10.0 / dim), 10.0))
        expected = _replay_key_samples(dim, samples, seed)
        assert np.array_equal(B, expected[0]) and np.array_equal(G, expected[1])
        # each kept matrix's determinant is the one the redraw rule read
        assert all(d.tobytes() == _arrays._det(X).tobytes() for X, d in zip((B, G), dets))

    # recorded with each d_n read by _top_symplectic (numpy 2.4.6, x86-64):
    # 1 / |det F| at dim 2 and s_1(F J F^T) / |det F| from the self-dual
    # split at dim 4, each det F the draw's _det, det(B G) as det B det G,
    # and c sqrt(lambda_max) of the scaled Gram matrix of its skew matrix at
    # dim 6; lambda_max(Y) is s_1(B)^2 at dim 2.  Each value is computed
    # matrix by matrix, so a stack, or a window of one, gives the same
    # bits; test_top_value_matches_exact bounds the error of every sample.
    # With _det of each scaled B G the dims 2 and 4 slacks read +8, -2, +4
    # and +16 ulp from these.  (2, 1000, 13) spans four windows
    @pytest.mark.parametrize("args, held, worst_slack", [
        ((2, 50, 3), 50, 0.00016631155065840748),
        ((4, 50, 7), 50, 0.007232850957914967),
        ((6, 50, 11), 50, 0.012414876212731477),
        ((6, 160, 612177327), 160, 0.009846757589123279),
        ((4, 160, 2**70 + 3), 160, 0.004284087011410309),
        ((2, 1000, 13), 1000, 0.0001381997518094774),
    ])
    def test_sweep_results_pinned(self, args, held, worst_slack):
        assert hm.key_inequality_sweep(*args) == compactness.SweepResult(args[1], held,
                                                                          worst_slack)

    def test_unstacked_sides_match_stacked(self):
        # verify_key_inequality passes single matrices; each side must be
        # the one a stack of samples gives for the same matrices
        (B, G), (det_B, det_G), _ = _drawn(5, 4, 3, (math.sqrt(2.5), 10.0))
        lhs, rhs = _arrays._key_inequality_sides(B, G, _sweep_det(det_B, det_G))
        for j in range(3):
            one = _arrays._key_inequality_sides(B[j], G[j], _sweep_det(det_B[j], det_G[j]))
            assert one[0].shape == one[1].shape == ()
            assert (one[0], one[1]) == (lhs[j], rhs[j])

    # at dim 6 each d_n is c sqrt(lambda_max) of a scaled Gram matrix,
    # against the SVD's top singular value of the same skew matrix; seeds
    # 612177327 and 3993805642 each draw an ill-conditioned sample
    @settings(max_examples=60, deadline=None)
    @given(st.just(6), st.integers(1, 40), SWEEP_SEEDS)
    @example(6, 160, 612177327)
    @example(6, 160, 3993805642)
    def test_top_value_matches_svd(self, dim, samples, seed):
        (B, G), dets, _ = _drawn(seed, dim, samples, (math.sqrt(10.0 / dim), 10.0))
        F = np.stack((G, B @ G))
        top = _arrays._top_symplectic(F, _sweep_det(*dets))
        oracle = _arrays._symplectic_spectra(F)[..., -1]
        assert top.shape == oracle.shape == (2, samples)
        assert np.all(np.abs(top - oracle) <= 8 * dim * np.finfo(float).eps * oracle)

    # at dims 2 and 4 each d_n, read off the draw's determinants as the
    # sweep reads it (det(B G) as det B det G), against the exact value.  An
    # SVD of the skew matrix is no oracle here: it carries inv's error of
    # order kappa_2(F) eps, and d_n carries one of the same order, so the
    # bound scales with kappa_2(F)
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 4]), st.integers(1, 40), SWEEP_SEEDS)
    @example(2, 100, 13)
    @example(4, 100, 38)
    def test_top_value_matches_exact(self, dim, samples, seed):
        (B, G), dets, _ = _drawn(seed, dim, samples, (math.sqrt(10.0 / dim), 10.0))
        F = np.stack((G, B @ G))
        top = _arrays._top_symplectic(F, _sweep_det(*dets))
        exact = _exact_top(F)
        assert top.shape == exact.shape == (2, samples)
        bound = 8 * dim * np.finfo(float).eps * np.linalg.cond(F)
        assert np.all(np.abs(top - exact) <= bound * exact)

    # G = Q_1 diag(1, 1, d, d) Q_2 for exact rotations Q_1, Q_2, so
    # kappa_2(G) = 1 / d, and Y = 3 I, an equality case of the key
    # inequality.  det G = d^2 while perm(|G|) is of order 1, so a
    # determinant without pivoting, off by up to eps perm(|G|), can refuse
    # G as singular near d = 1e-8 and parts the two sides near 1e-5.
    # Each d_n must stay within test_top_value_matches_exact's bound, so
    # both sides within twice that of each other: inside INEQUALITY_SLACK
    # at d = 1e-5, not at 1e-8, as with LAPACK's det
    @pytest.mark.parametrize("d", [Fraction(1, 10**5), Fraction(1, 10**8)])
    def test_near_singular_factor(self, d):
        Y = hm.SpdMatrix(hm.DenseMatrix.from_rows([[3 * int(i == j) for j in range(4)]
                                                    for i in range(4)]))
        D = hm.DenseMatrix.from_rows([[[1, 1, d, d][i] * int(i == j) for j in range(4)]
                                      for i in range(4)])
        G = (_pythagorean_rotation([(0, 1, 3, 4, 5), (1, 2, 5, 12, 13), (2, 3, 8, 15, 17),
                                    (0, 3, 7, 24, 25), (1, 3, 20, 21, 29)]) @ D
             @ _pythagorean_rotation([(0, 2, 12, 35, 37), (1, 3, 3, 4, 5), (0, 1, 9, 40, 41),
                                      (2, 3, 28, 45, 53), (1, 2, 5, 12, 13)]))
        Gf = _arrays._to_numpy(G)
        F = np.stack((Gf, _arrays._upper_factors([Y])[0] @ Gf))
        top, exact = _arrays._top_symplectic(F, _own_det(F)), _exact_top(F)
        bound = 8 * 4 * np.finfo(float).eps * np.linalg.cond(F)
        assert np.all(np.abs(top - exact) <= bound * exact)
        rep = hm.verify_key_inequality(Y, G)
        assert abs(rep.rhs - rep.lhs) <= 2 * bound.max() * rep.rhs
        assert rep.holds or d < Fraction(1, 10**5)

    # K = Q blocks(d_1 J, d_2 J) Q^T, the skew matrix of F = Q D^(-1/2):
    # d_1 = d_2 exactly, d_1 / d_2 down to 2^-60, and scales 2^+-500.  Each
    # F's own det is taken, as in verify_key_inequality.  The oracle is the
    # exact value, not the SVD of K, and the bound scales with kappa_2(F),
    # as in test_top_value_matches_exact
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2]), st.integers(1, 4), st.integers(0, 2**32),
           st.integers(-500, 500), st.integers(-60, 0), st.floats(0.5, 1.0))
    @example(2, 3, 7, 0, 0, 1.0)
    @example(2, 1, 11, 500, 0, 1.0)
    @example(2, 2, 12, -500, -60, 0.75)
    @example(1, 2, 5, -500, 0, 1.0)
    def test_closed_form_matches_svd(self, n, samples, seed, scale, ratio, mantissa):
        rng = random.Random(seed)
        d = np.ldexp(np.array([math.ldexp(mantissa, ratio), 1.0][:n]), scale)
        F = np.array([givens_orthogonal(rng, 2 * n).to_numpy() * np.tile(d ** -0.5, 2)
                      for _ in range(samples)])
        top = _arrays._top_symplectic(F, _own_det(F))
        exact = _exact_top(F)
        assert np.all(np.isfinite(top))
        bound = 8 * 2 * n * np.finfo(float).eps * np.linalg.cond(F)
        assert np.all(np.abs(top - exact) <= bound * exact)

    @pytest.mark.parametrize("sample", [0, 3])
    def test_pairing_guard(self, monkeypatch, sample):
        # break the top pair of one sample's eigenvalues in every eigvalsh
        # call; lambda_max(Y) may move, the skew matrices' pairs must not.
        # Dim 6 is the smallest size whose d_n comes from eigvalsh and is
        # paired; dims 2 and 4 read it in closed form
        real = np.linalg.eigvalsh

        def perturbed(m, *args, **kwargs):
            vals = real(m, *args, **kwargs).copy()
            flat = vals.reshape(-1, vals.shape[-1])
            flat[min(sample, len(flat) - 1), -1] *= 1.01
            return vals

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        G = [[int(i == j) + int((i, j) == (0, 1)) for j in range(6)] for i in range(6)]
        with pytest.raises(hm.PairingFailure, match=r"^singular value pair 3 mismatch: "):
            hm.key_inequality_sweep(6, 5, 17)
        with pytest.raises(hm.PairingFailure, match=r"^singular value pair 3 mismatch: "):
            hm.verify_key_inequality(hm.SpdMatrix(hm.identity(6)),
                                     hm.DenseMatrix.from_rows(G))

    # per window, lambda_max(Y) is one eigvalsh from dim 4 (s_1(B)^2 at
    # dim 2), and each d_n one inv and one more eigvalsh at dim 6 only: at
    # dims 2 and 4 it is read off the draw's determinants.  _det runs once
    # per layout of the draw, one per window and one more per rejected
    # matrix, and nowhere else on the sweep path; it calls det from dim 6
    # only.  The verifier takes one _det at dims 2 and 4, of its own
    # (G, R G) stack, and none at dim 6.  No size runs an svd.  A LAPACK
    # call or a determinant put back on the key path changes these counts
    @pytest.mark.parametrize("dim, eigvalsh, inv, det",
                             [(2, 0, 0, 0), (4, 1, 0, 0), (6, 2, 1, 1)])
    def test_lapack_calls_per_window(self, monkeypatch, dim, eigvalsh, inv, det):
        samples = 2 * _arrays._DRAW_WINDOW + 1
        layouts = 3 + _rejected(dim, samples, 3, (math.sqrt(10.0 / dim), 10.0))
        calls = _counted_lapack(monkeypatch)
        assert hm.key_inequality_sweep(dim, samples, 3).all_hold
        assert calls == Counter(eigvalsh=3 * eigvalsh, inv=3 * inv, det=det * layouts,
                                _det=layouts)
        calls.clear()
        assert hm.verify_key_inequality(hm.SpdMatrix(hm.identity(dim)),
                                        hm.identity(dim)).holds
        assert calls == Counter(eigvalsh=eigvalsh, inv=inv, _det=int(dim <= 4))

    def test_no_inv_at_n_le_2(self, no_lapack):
        assert hm.key_inequality_sweep(2, 40, 3).all_hold
        assert hm.key_inequality_sweep(4, 40, 3).all_hold
        assert hm.verify_key_inequality(hm.SpdMatrix.from_rows([[2, 1], [1, 3]]),
                                        hm.DenseMatrix.from_rows([[1, 2], [0, 1]])).holds
        assert hm.verify_key_inequality(hm.SpdMatrix(hm.identity(4)),
                                        hm.counterexample_family(2).matrix).holds

    def test_no_svd_on_the_key_path(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("svd called")

        monkeypatch.setattr(np.linalg, "svd", refused)
        assert hm.key_inequality_sweep(6, 40, 3).all_hold
        assert hm.verify_key_inequality(hm.SpdMatrix(hm.identity(4)),
                                        hm.counterexample_family(2).matrix).holds

    # Y = y I and G = g I whose float determinants (up to 10^+-600) leave
    # the float range while both sides are inside it.  Recorded when
    # _top_symplectic took _det of each scaled factor itself (numpy 2.4.6,
    # x86-64); the verifier still passes those determinants, bit for bit.
    # A product of the raw float determinants refused the second, fourth and
    # fifth as Singular and read a side of 0.0 for the first and third; a
    # product of the scaled det R and det G read the fifth rhs 1 ulp high
    @pytest.mark.parametrize("n, y, g, lhs, rhs", [
        (4, 1e300, 1.0, 1.0000000000000002e-300, 1.0000000000000002e-300),
        (4, 1e-300, 1.0, 1.0000000000000002e+300, 1e+300),
        (4, 1.0, 1e150, 1.0000000000000002e-300, 1.0000000000000002e-300),
        (4, 1.0, 1e-150, 1e+300, 1e+300),
        (4, 1e200, 1e-100, 1.0, 1.0),
        (2, 1e300, 1.0, 1e-300, 1e-300),
    ])
    def test_verifier_range_pinned(self, n, y, g, lhs, rhs):
        def scalar(c):
            return hm.DenseMatrix.from_rows([[c * (i == j) for j in range(n)] for i in range(n)])

        rep = hm.verify_key_inequality(hm.SpdMatrix(scalar(y)), scalar(g))
        assert (rep.lhs, rep.rhs, rep.holds) == (lhs, rhs, True)

    def test_pullback_past_the_float_range_refused(self):
        # G^T G = 1e-310 I: the skew matrix of G overflows, which gave
        # lhs = rhs = nan before; at dim 4 the float det(G), 1e-620, is 0
        for dim in (2, 4):
            G = hm.DenseMatrix.from_rows([[1e-155 * (i == j) for j in range(dim)]
                                          for i in range(dim)])
            with pytest.raises(OverflowError, match="past the float range"):
                hm.verify_key_inequality(hm.SpdMatrix(hm.identity(dim, hm.FLOAT)), G)

    # G = c I is invertible at every float c, though its float determinant
    # c^4 underflows to 0 at 1e-90 and overflows a float at 1e80
    @pytest.mark.parametrize("c", [1e-90, 1e80])
    def test_invertible_past_the_float_determinant(self, c):
        G = hm.DenseMatrix.from_rows([[c * (i == j) for j in range(4)] for i in range(4)])
        rep = hm.verify_key_inequality(hm.SpdMatrix(hm.identity(4)), G)
        assert rep.lhs == pytest.approx(c ** -2, rel=1e-14, abs=0)
        assert rep.rhs == pytest.approx(c ** -2, rel=1e-14, abs=0)
        assert rep.holds

    def test_odd_dimension_sweep_refused(self):
        with pytest.raises(hm.OddDimension):
            hm.key_inequality_sweep(3, 4, 1)


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

    @pytest.mark.parametrize("i1", [True, np.True_, 1.0, 2.0, np.float64(1.0), Fraction(1)])
    def test_non_integer_index_rejected(self, i1):
        # True once ran as i1 = 1, and a float index raised numpy's IndexError
        with pytest.raises(ValueError, match="index must be an integer"):
            hm.verify_bhatia_k1(hm.identity(2), hm.identity(2), i1)

    @pytest.mark.parametrize("i1", [np.int64(2), np.uint8(2)])
    def test_numpy_integer_index_is_its_int(self, i1):
        A = hm.DenseMatrix.from_rows([[2, 1], [0, 3]])
        assert hm.verify_bhatia_k1(A, A, i1) == hm.verify_bhatia_k1(A, A, 2)

    @pytest.mark.parametrize("A, B", [
        # A B = 1e400 I: the scale of the Gram matrix is infinite
        ([[1e200, 0.0], [0.0, 1e200]], [[1e200, 0.0], [0.0, 1e200]]),
        # A B holds inf - inf, a NaN
        ([[1e200, 1e200], [0.0, 1.0]], [[1e200, 0.0], [-1e200, 1.0]]),
        # A B is finite, but A's singular values, 2.1e308, are not
        ([[1.5e308, 1.5e308], [1.5e308, -1.5e308]], [[1e-300, 0.0], [0.0, 1e-300]]),
    ])
    @pytest.mark.parametrize("i1", [1, 2])
    def test_past_the_float_range_refused(self, A, B, i1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="singular values are past the float range"):
                hm.verify_bhatia_k1(hm.DenseMatrix.from_rows(A), hm.DenseMatrix.from_rows(B),
                                    i1)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_seeded_sweep(self, dim):
        result = hm.bhatia_sweep(dim, 10_000, seed=77 + dim)
        assert result.all_hold

    # 174 redraws A and 372 redraws B at dim 2; -5 and 2**70 + 3 take the
    # multi-word seed path
    @pytest.mark.parametrize("dim", [2, 4, 6])
    @pytest.mark.parametrize("seed", [11, 12, 174, 372, -5, 2**70 + 3])
    def test_sweep_matches_sample_by_sample_replay(self, dim, seed):
        rng = random.Random(seed)
        reports = []
        for _ in range(100):
            A = hm.DenseMatrix.from_rows(_replay_invertible(rng, dim).tolist())
            B = hm.DenseMatrix.from_rows(_replay_invertible(rng, dim).tolist())
            reports.append(hm.verify_bhatia_k1(A, B, rng.randrange(1, dim + 1)))
        _assert_sweep_matches(hm.bhatia_sweep(dim, 100, seed), reports)

    # odd dims change the randrange rejection rate; dim 1 rejects half the tries
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 40), SWEEP_SEEDS)
    @example(2, 100, 174)
    @example(2, 100, 372)
    def test_sweep_equals_replay_exactly(self, dim, samples, seed):
        A, B, i1 = _replay_bhatia_samples(dim, samples, seed)
        expected = compactness.SweepResult(*_arrays._tally(
            [_arrays._bhatia_sides(A, B, i1)], compactness.INEQUALITY_SLACK))
        assert hm.bhatia_sweep(dim, samples, seed) == expected

    # a single sample at dim 1, seed 5 rejects index tries past the first
    # fetch.  600 samples span three windows: at dim 2, seeds 174 and 372
    # run short of index tries at the last sample of the first and of the
    # second window, and at dim 1 seed 0 runs short near the end of the first
    @pytest.mark.parametrize("dim, seed, samples", [
        (2, 174, 100), (2, 372, 100), (1, 5, 100), (3, -5, 100),
        (5, 2**70 + 3, 100), (1, 5, 1), (1, 0, 600), (2, 174, 600), (2, 372, 600),
        (6, 2**70 + 3, 600)])
    def test_draw_equals_replay_sample_for_sample(self, dim, seed, samples):
        (A, B), _, i1 = _drawn(seed, dim, samples, (10.0, 10.0), index=True)
        expected = _replay_bhatia_samples(dim, samples, seed)
        assert all(np.array_equal(x, y) for x, y in zip((A, B, i1), expected))

    # per window one svd of the stack of every A and B and one eigvalsh of
    # the products; the draw's redraw rule reads _det once per layout,
    # which calls no det at dims 2 and 4
    @pytest.mark.parametrize("dim", [2, 4])
    def test_lapack_calls_per_window(self, monkeypatch, dim):
        samples = 2 * _arrays._DRAW_WINDOW + 1
        layouts = 3 + _rejected(dim, samples, 3, (10.0, 10.0), index=True)
        calls = _counted_lapack(monkeypatch)
        assert hm.bhatia_sweep(dim, samples, 3).all_hold
        assert calls == Counter(svd=3, eigvalsh=3, _det=layouts)

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("seed", [0, 7, 174, -5])
    def test_lhs_is_the_per_matrix_svd_product(self, dim, seed):
        (A, B), _, i1 = _drawn(seed, dim, 60, (10.0, 10.0), index=True)
        lhs, _ = _arrays._bhatia_sides(A, B, i1)
        for a, b, i, got in zip(A, B, i1, lhs):
            sa = np.linalg.svd(a, compute_uv=False)
            sb = np.linalg.svd(b, compute_uv=False)
            assert got.tobytes() == (sa[i - 1] * sb[dim - i]).tobytes()

    # A = P diag(2^e) Q has singular values spread over up to 2^60, and A, B
    # are scaled by 2^ka, 2^kb, so that A B can reach 2^+-1000
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rhs_matches_svd_of_the_product(self, data):
        N = data.draw(st.integers(1, 8))
        samples = data.draw(st.integers(1, 4))
        entries = st.floats(-1.0, 1.0, allow_nan=False, width=64)

        def factor():
            P, Q = (np.array(data.draw(st.lists(entries, min_size=N * N, max_size=N * N)))
                    .reshape(N, N) for _ in range(2))
            e = data.draw(st.lists(st.integers(-60, 0), min_size=N, max_size=N))
            return np.ldexp(P * np.ldexp(1.0, np.array(e)) @ Q,
                            data.draw(st.integers(-500, 500)))

        A = np.array([factor() for _ in range(samples)])
        B = np.array([factor() for _ in range(samples)])
        i1 = np.array(data.draw(st.lists(st.integers(1, N), min_size=samples,
                                         max_size=samples)))
        lhs, rhs = _arrays._bhatia_sides(A, B, i1)
        oracle = np.linalg.svd(A @ B, compute_uv=False)[:, 0]
        assert np.all(np.isfinite(rhs))
        np.testing.assert_allclose(rhs, oracle, rtol=1e-14, atol=0)
        for j in range(samples):
            sa = np.linalg.svd(A[j], compute_uv=False)
            sb = np.linalg.svd(B[j], compute_uv=False)
            assert lhs[j] == sa[i1[j] - 1] * sb[N - i1[j]]

    @pytest.mark.parametrize("sa, sb", [
        (1e160, 1.0), (1e-160, 1.0), (1e300, 1.0), (1e-300, 1.0), (1e160, 1e-160),
        (1e-160, 1e-160), (1e160, 1e140), (1e300, 1e7), (1e-300, 1e-10)])
    @pytest.mark.parametrize("i1", [1, 2])
    def test_extreme_scales_match_svd(self, sa, sb, i1):
        # an unscaled Gram matrix of A B overflows from about 1e154 and
        # underflows below about 1e-154; the rhs must not
        A = hm.DenseMatrix.from_rows([[2.0 * sa, 1.0 * sa], [0.5 * sa, -3.0 * sa]])
        B = hm.DenseMatrix.from_rows([[1.0 * sb, -2.0 * sb], [4.0 * sb, 0.25 * sb]])
        rep = hm.verify_bhatia_k1(A, B, i1)
        oracle = np.linalg.svd(A.to_numpy() @ B.to_numpy(), compute_uv=False)[0]
        assert math.isfinite(rep.rhs) and math.isfinite(oracle)
        assert rep.rhs == pytest.approx(float(oracle), rel=1e-14, abs=0)
        assert rep.holds

    def test_diagonal_at_1e160(self):
        rep = hm.verify_bhatia_k1(hm.DenseMatrix.from_rows([[2e160, 0.0], [0.0, 1e160]]),
                                  hm.DenseMatrix.from_rows([[1, 0], [0, 3]]), 1)
        assert (rep.lhs, rep.rhs) == (2e160, 3e160) and rep.holds

    @pytest.mark.parametrize("i1", [1, 2, 3])
    def test_zero_factor(self, i1):
        # A B = 0: the Gram scale c is 1, not 0
        B = hm.DenseMatrix.from_rows([[1, 2, 0], [0, 1, 5], [7, 0, 1]])
        for A, F in ((hm.DenseMatrix.from_rows([[0] * 3] * 3), B),
                     (B, hm.DenseMatrix.from_rows([[0.0] * 3] * 3))):
            rep = hm.verify_bhatia_k1(A, F, i1)
            assert (rep.lhs, rep.rhs) == (0.0, 0.0) and rep.holds


class TestSweepSizes:
    """Sizes are Python or numpy integers of at least 1; anything else is a
    ValueError, never an error from numpy or the draw."""

    SWEEPS = [hm.key_inequality_sweep, hm.bhatia_sweep]

    @pytest.mark.parametrize("sweep", SWEEPS)
    @pytest.mark.parametrize("args", [
        (2.0, 4, 1), (2, 4.0, 1), (True, 4, 1), (2, True, 1), (False, 4, 1), (2, False, 1),
        (np.True_, 4, 1), (2, np.True_, 1), (np.float64(2.0), 4, 1), (2, np.float32(4.0), 1),
        ("2", 4, 1), (2, Fraction(4), 1), (None, 4, 1)])
    def test_non_integer_size_rejected(self, sweep, args):
        with pytest.raises(ValueError):
            sweep(*args)

    @pytest.mark.parametrize("sweep", SWEEPS)
    @pytest.mark.parametrize("args", [(np.int64(0), 4, 1), (2, np.int64(0), 1), (-2, 4, 1)])
    def test_size_below_one_rejected(self, sweep, args):
        with pytest.raises(ValueError, match="must be at least 1"):
            sweep(*args)

    @pytest.mark.parametrize("sweep", SWEEPS)
    @pytest.mark.parametrize("args", [(np.int64(2), 4, 1), (2, np.int64(4), 1),
                                      (np.int32(2), np.uint8(4), 1)])
    def test_numpy_integer_size_is_its_int(self, sweep, args):
        assert sweep(*args) == sweep(2, 4, 1)

    @pytest.mark.parametrize("sweep", SWEEPS)
    @pytest.mark.parametrize("seed", [True, False, np.True_, 5.0, np.float64(5.0), "5",
                                      Fraction(5), None, b"5"])
    def test_non_integer_seed_rejected(self, sweep, seed):
        # a bool once ran as seed 1 or 0, and random.Random takes str and bytes
        with pytest.raises(ValueError, match="seed must be an integer"):
            sweep(2, 4, seed)

    @pytest.mark.parametrize("sweep", SWEEPS)
    @pytest.mark.parametrize("seed", [np.int64(5), np.uint16(5), np.int8(5)])
    def test_numpy_integer_seed_is_its_int(self, sweep, seed):
        assert sweep(2, 4, seed) == sweep(2, 4, 5)


@pytest.mark.parametrize("sweep", [hm.key_inequality_sweep, hm.bhatia_sweep])
def test_sweep_holds_one_window(sweep):
    # eight windows of samples must peak where two do, not four times higher
    peaks = []
    for windows in (2, 8):
        tracemalloc.start()
        try:
            sweep(6, windows * _arrays._DRAW_WINDOW, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


def test_sweeps_do_not_import_numpy_random():
    # the draws read random.Random in bulk; numpy.random would add its
    # import cost to every process that runs a sweep
    code = ("import sys, heismoduli as hm; hm.key_inequality_sweep(2, 4, 1); "
            "hm.bhatia_sweep(3, 4, 1); print('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hm.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert run.stdout.strip() == "False"


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

    @pytest.mark.parametrize("args", [
        (1, True, 2), (1, np.True_, 2), (1, 1.0, 2), (1, "1", 2), (1, None, 2),
        (True, 1, 2), (np.True_, 1, 2), (1.0, 1, 2), (1, 1, True), (1, 1, 2.0),
        (1, 1, np.float64(2.0))])
    def test_non_integer_size_or_seed_rejected(self, args):
        with pytest.raises(ValueError, match="must be an integer"):
            hm.random_symplectic_integer(*args)

    def test_numpy_integers_are_their_ints(self):
        got = hm.random_symplectic_integer(np.int64(2), np.int64(5), np.int32(7))
        assert got == hm.random_symplectic_integer(2, 5, 7)

    @pytest.mark.parametrize("n, steps", [(0, 0), (0, 5), (-1, 0)])
    def test_empty_rejected(self, n, steps):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            hm.random_symplectic_integer(n, 1, steps)

    def test_integer_entries(self):
        beta = hm.random_symplectic_integer(2, 9, 12)
        for row in beta.entries:
            for x in row:
                assert x.denominator == 1
