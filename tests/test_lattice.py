import gc
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import heismoduli as hm
from conftest import (
    PAST_CHOLESKY,
    box_short_vectors,
    brute_force_membership,
    brute_force_minimum,
    random_rational_spd,
    random_unimodular,
    skewed_unit_lattice,
    witness_order,
)


def spd(rows):
    return hm.SpdMatrix.from_rows(rows)


class TestEnumerateBelow:
    def test_identity_unit_ball(self):
        assert hm.enumerate_below(spd([[1, 0], [0, 1]]), 1) == [(1, 0), (0, 1)]

    def test_hexagonal_form(self):
        # brute force over |a_i| <= 3: exactly three classes at value <= 2
        got = hm.enumerate_below(spd([[2, 1], [1, 2]]), 2)
        assert set(got) == {(1, 0), (0, 1), (1, -1)}

    def test_stretched_diagonal(self):
        assert hm.enumerate_below(spd([[4, 0], [0, 1]]), 1) == [(0, 1)]

    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_non_finite_bound_rejected(self, mode, bound):
        with pytest.raises(ValueError, match="bound must be finite"):
            hm.enumerate_below(hm.SpdMatrix(hm.identity(2, mode)), bound)

    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    @pytest.mark.parametrize("bound", [True, False])
    def test_bool_bound_rejected(self, mode, bound):
        with pytest.raises(ValueError, match=f"boolean {bound} is not a scalar"):
            hm.enumerate_below(hm.SpdMatrix(hm.identity(2, mode)), bound)

    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    @pytest.mark.parametrize("bound", [np.True_, np.False_])
    def test_numpy_bool_bound_rejected(self, mode, bound):
        with pytest.raises(ValueError, match=f"boolean {bool(bound)} is not a scalar"):
            hm.enumerate_below(hm.SpdMatrix(hm.identity(2, mode)), bound)

    # Y[(1, -1)] = 2 * 10**18 - 2 lies above the int bound 2 * 10**18 - 3 but
    # below the float it rounds to, so that bound must be taken as an int
    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    @pytest.mark.parametrize("bound, plain, Y", [
        (np.int64(2), 2, [[2, 1], [1, 3]]), (np.float32(2.5), 2.5, [[2, 1], [1, 3]]),
        (np.float64(3.0), 3.0, [[2, 1], [1, 3]]),
        (np.int64(2 * 10**18 - 3), 2 * 10**18 - 3, [[10**18, 1], [1, 10**18]])])
    def test_numpy_bound_is_its_python_scalar(self, mode, bound, plain, Y):
        Y = hm.SpdMatrix.from_rows(Y, mode)
        assert hm.enumerate_below(Y, bound) == hm.enumerate_below(Y, plain)

    @pytest.mark.parametrize("bound", [np.float64(np.inf), np.float32(-np.inf),
                                       np.float64(np.nan)])
    def test_numpy_non_finite_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="bound must be finite"):
            hm.enumerate_below(hm.SpdMatrix(hm.identity(2)), bound)

    def test_exhaustive_against_box(self):
        import itertools
        import math as _math

        rng = random.Random(17)
        for _ in range(20):
            n = rng.choice((2, 3))
            Y = random_rational_spd(rng, n)
            bound = min(Y.diagonal()) * 2
            got = set(hm.enumerate_below(Y, bound))
            # provable per-coordinate box: |a_i|^2 <= bound * (Y^{-1})_{ii}
            inv = hm.matrix_inverse(Y.matrix)
            ranges = []
            for i in range(n):
                q = bound * inv.entries[i][i]
                b = _math.isqrt(q.numerator * q.denominator) // q.denominator
                ranges.append(range(-b, b + 1))
            expected = set()
            for a in itertools.product(*ranges):
                if any(a) and hm.quadratic_form(Y, a) <= bound:
                    canonical = a
                    for x in a:
                        if x:
                            if x < 0:
                                canonical = tuple(-y for y in a)
                            break
                    expected.add(canonical)
            assert got == expected

    def test_budget_exceeded(self):
        with pytest.raises(hm.EnumerationBudgetExceeded):
            hm.enumerate_below(spd([[1, 0], [0, 1]]), 10_000, budget=50)

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("HEIS_ENUM_BUDGET", "5")
        with pytest.raises(hm.EnumerationBudgetExceeded):
            hm.enumerate_below(spd([[1, 0], [0, 1]]), 100)


# a Gram whose first minimum needs a search (y_11 is not its least pivot),
# and the identity, whose first minimum needs none
SEARCHED = [[Fraction(7, 2), Fraction(1, 3), Fraction(-5, 4)],
            [Fraction(1, 3), Fraction(11, 6), Fraction(2, 5)],
            [Fraction(-5, 4), Fraction(2, 5), Fraction(29, 12)]]
BUDGET_CALLS = [
    lambda Y, b: hm.first_minimum(Y, b),
    lambda Y, b: hm.first_minimum_r(spd([[1, 0], [0, 1]]), hm.DivisibilityTuple((2,)), b),
    lambda Y, b: hm.enumerate_below(Y, 3, b),
    lambda Y, b: hm.minkowski_membership(Y, b),
    lambda Y, b: hm.minkowski_reduce(Y, b),
    lambda Y, b: hm.mahler_certificate([Y], budget=b),
]


class TestBudgetValidation:
    """A budget is a nonnegative integer, a numpy one counting as its int;
    anything else is a ValueError, a given one also where no search runs."""

    @pytest.mark.parametrize("call", BUDGET_CALLS)
    @pytest.mark.parametrize("rows", [SEARCHED, [[1, 0], [0, 1]]])
    @pytest.mark.parametrize("budget", [True, False, np.True_, 2.5, 12.0, -1, np.int64(-1),
                                        "12", Fraction(12), np.float64(12.0)])
    def test_invalid_budget_rejected(self, call, rows, budget):
        with pytest.raises(ValueError, match="budget must be a nonnegative integer"):
            call(spd(rows), budget)

    @pytest.mark.parametrize("call", BUDGET_CALLS)
    @pytest.mark.parametrize("budget", [np.int64(10**6), np.uint32(10**6), np.int16(10**4)])
    def test_numpy_integer_budget_is_its_int(self, call, budget):
        Y = spd(SEARCHED)
        assert call(Y, budget) == call(Y, int(budget))

    def test_numpy_budget_boundary_unchanged(self):
        Y = spd(SEARCHED)
        assert hm.first_minimum(Y, np.int64(12)) == hm.first_minimum(Y, 12)
        with pytest.raises(hm.EnumerationBudgetExceeded, match="11"):
            hm.first_minimum(Y, np.int64(11))

    @pytest.mark.parametrize("env", ["-5", "2.5", "ten", "True", "1e6"])
    @pytest.mark.parametrize("call", BUDGET_CALLS)
    def test_invalid_env_budget_rejected(self, monkeypatch, env, call):
        # the environment is read when a search runs, so on a Gram that needs one
        monkeypatch.setenv("HEIS_ENUM_BUDGET", env)
        with pytest.raises(ValueError, match="HEIS_ENUM_BUDGET must be a nonnegative integer"):
            call(spd(SEARCHED), None)

    def test_env_budget_boundary(self, monkeypatch):
        Y = spd(SEARCHED)
        monkeypatch.setenv("HEIS_ENUM_BUDGET", "12")
        assert hm.first_minimum(Y) == hm.ShortVectorResult(Fraction(11, 6), (0, 1, 0))
        monkeypatch.setenv("HEIS_ENUM_BUDGET", "11")
        with pytest.raises(hm.EnumerationBudgetExceeded):
            hm.first_minimum(Y)


@st.composite
def _ldl_grams(draw):
    """(Y, bound): Y = L D L^T with entries p/q, q <= 12, and a bound that is
    an attained value Y[a] (boundary case) or Y[a] +- 1/1009 (so that the
    integer-scaled bound is not an integer)."""
    n = draw(st.integers(1, 4))

    def frac(lo, hi):
        q = draw(st.integers(1, 12))
        return Fraction(draw(st.integers(lo * q, hi * q)), q)

    L = [[Fraction(int(i == j)) if i <= j else frac(-1, 1) for j in range(n)]
         for i in range(n)]
    q = [draw(st.integers(1, 12)) for _ in range(n)]
    D = [Fraction(draw(st.integers(max(1, qi // 2), 3 * qi)), qi) for qi in q]
    Y = hm.SpdMatrix.from_rows(
        [[sum(L[i][k] * D[k] * L[j][k] for k in range(n)) for j in range(n)]
         for i in range(n)])
    a = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n).filter(any))
    value = hm.quadratic_form(Y, a)
    delta = draw(st.sampled_from((0, Fraction(1, 1009), Fraction(-1, 1009))))
    return Y, max(value + delta, Fraction(0))


class TestIntegerCore:
    @settings(max_examples=150, deadline=None)
    @given(_ldl_grams())
    @example((hm.SpdMatrix.from_rows([[Fraction(1, 12)]]), Fraction(1, 3)))
    @example((hm.SpdMatrix.from_rows([[2, 1], [1, 2]]), Fraction(2)))
    def test_matches_box_oracle(self, case):
        Y, bound = case
        below_diag = box_short_vectors(Y, min(Y.diagonal()))
        assume(len(below_diag) < 500)
        expected = box_short_vectors(Y, bound)
        assert hm.enumerate_below(Y, bound) == sorted(expected, key=witness_order)
        S, found = hm.lattice._short_vectors(Y.integer_ldl, bound)
        assert dict((a, Fraction(v, S)) for v, a in found) == expected
        res = hm.first_minimum(Y)
        assert res.value == min(below_diag.values())
        assert res.witness == min((a for a, v in below_diag.items() if v == res.value),
                                  key=witness_order)

    def test_budget_boundary(self):
        # the smallest budgets that succeed: the budget counts every integer
        # tried, the one that ends each level included, and first_minimum
        # shrinks its radius to the least value found
        Y = spd([[Fraction(7, 2), Fraction(1, 3), Fraction(-5, 4)],
                 [Fraction(1, 3), Fraction(11, 6), Fraction(2, 5)],
                 [Fraction(-5, 4), Fraction(2, 5), Fraction(29, 12)]])
        bound = Fraction(61, 3)
        assert len(hm.enumerate_below(Y, bound, budget=103)) == 55
        with pytest.raises(hm.EnumerationBudgetExceeded):
            hm.enumerate_below(Y, bound, budget=102)
        assert hm.first_minimum(Y, budget=12) == hm.ShortVectorResult(Fraction(11, 6), (0, 1, 0))
        with pytest.raises(hm.EnumerationBudgetExceeded):
            hm.first_minimum(Y, budget=11)

    def test_negative_bound_is_empty(self):
        assert hm.enumerate_below(spd([[1, 0], [0, 1]]), -1) == []

    def test_float_mode_value_is_correctly_rounded(self):
        # weakly diagonally dominant float Grams: float evaluation of Y[a]
        # has no cancellation, so it lands within a few ulp of the exact value
        rng = random.Random(5)
        for _ in range(200):
            n = rng.choice((2, 3, 4))
            rows = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.uniform(-1, 1)
            for i in range(n):
                rows[i][i] = sum(abs(x) for x in rows[i]) + rng.uniform(0.01, 0.5)
            Y = hm.SpdMatrix.from_rows(rows, hm.FLOAT)
            res = hm.first_minimum(Y)
            assert isinstance(res.value, float)
            assert res.value == float(hm.quadratic_form(Y.matrix.to_rational(), res.witness))
            q = hm.quadratic_form(Y, res.witness)
            assert abs(res.value - q) <= 4 * math.ulp(q)


class TestFirstMinimum:
    def test_identity(self):
        res = hm.first_minimum(hm.SpdMatrix(hm.identity(4)))
        assert res.value == 1
        assert res.witness == (1, 0, 0, 0)

    def test_hexagonal_witness(self):
        res = hm.first_minimum(spd([[2, 1], [1, 2]]))
        assert res.value == 2
        assert res.witness == (1, 0)

    def test_counterexample_member(self):
        res = hm.first_minimum(hm.counterexample_family(3))
        assert res.value == 1

    def test_witness_attains_value(self):
        rng = random.Random(4)
        for _ in range(30):
            Y = random_rational_spd(rng, rng.choice((2, 3, 4)))
            res = hm.first_minimum(Y)
            assert hm.quadratic_form(Y, res.witness) == res.value

    def test_oracle_equivalence(self):
        rng = random.Random(99)
        for _ in range(60):
            Y = random_rational_spd(rng, rng.choice((2, 3, 4)))
            assert hm.first_minimum(Y).value == brute_force_minimum(Y)

    def test_unimodular_invariance(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.choice((2, 3, 4))
            Y = random_rational_spd(rng, n)
            U = random_unimodular(rng, n, steps=20)
            Yu = hm.SpdMatrix(hm.congruence(Y.matrix, U))
            assert hm.first_minimum(Yu).value == hm.first_minimum(Y).value

    def test_json(self):
        res = hm.first_minimum(spd([[2, 1], [1, 2]]))
        assert res.to_json() == {"value": "2", "witness": [1, 0]}

    def test_reuses_factor_from_construction(self, monkeypatch):
        # the LDL^T factor is computed once, when the SpdMatrix is built;
        # enumeration must not factor the matrix again
        Y = spd([[2, 1, 0], [1, 2, 1], [0, 1, 3]])

        def refactor(entries):
            raise AssertionError("Gram matrix factored a second time")

        monkeypatch.setattr(hm.linalg, "_integer_ldl", refactor)
        assert hm.first_minimum(Y).value == 2
        assert hm.minkowski_membership(Y).member


    def test_float_gram_reuses_factor_from_construction(self, monkeypatch):
        Y = hm.SpdMatrix.from_rows([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 3.0]])

        def refactor(entries):
            raise AssertionError("Gram matrix factored a second time")

        monkeypatch.setattr(hm.linalg, "_integer_ldl", refactor)
        assert hm.first_minimum(Y) == hm.ShortVectorResult(2.0, (1, 0, 0))
        assert hm.minkowski_membership(Y).member


def _rebuilt_scaled(Y, r):
    """delta_r Y delta_r as a new rational SpdMatrix of the exact entries."""
    d = r.scaling_diagonal()
    return hm.SpdMatrix.from_rows([[Fraction(x) * d[i] * d[j] for j, x in enumerate(row)]
                                   for i, row in enumerate(Y.entries)], hm.RATIONAL)


@st.composite
def _scaled_cases(draw):
    """(Y, r): a divisibility tuple r of length 1-3 and a 2n x 2n Gram matrix
    Y = L D L^T whose entries have mixed denominators, some of which the
    scaling clears (a pivot p/4 with r_1 = 2, say)."""
    n = draw(st.integers(1, 3))
    r = [draw(st.sampled_from((1, 2, 3, 4)))]
    for _ in range(n - 1):
        r.append(r[-1] * draw(st.sampled_from((1, 1, 2, 3))))
    size = 2 * n

    def frac(lo, hi, denominators):
        q = draw(st.sampled_from(denominators))
        return Fraction(draw(st.integers(lo * q, hi * q)), q)

    L = [[Fraction(int(i == j)) if i <= j else frac(-1, 1, (1, 2, 3, 4)) for j in range(size)]
         for i in range(size)]
    D = [frac(1, 3, (1, 2, 4, 8, 9, 12)) for _ in range(size)]
    Y = hm.SpdMatrix.from_rows(
        [[sum(L[i][k] * D[k] * L[j][k] for k in range(size)) for j in range(size)]
         for i in range(size)])
    return Y, tuple(r)


class TestFactorBound:
    """When y_11 is the least pivot of the kept factor, first_minimum
    returns (y_11, e_1) without a search; the answer is the search's."""

    @staticmethod
    def searched(Y):
        S, value, vectors = hm.lattice._least_tail_primitive(Y.integer_ldl, 0, None)
        return hm.ShortVectorResult(value / S if Y.mode == hm.FLOAT else Fraction(value, S),
                                    vectors[0])

    @settings(max_examples=150, deadline=None)
    @given(_ldl_grams(), st.sampled_from((hm.RATIONAL, hm.FLOAT)))
    @example((spd([[1, 0], [0, 2]]), 0), hm.RATIONAL)
    @example((spd([[2, 1], [1, 1]]), 0), hm.FLOAT)
    def test_matches_search_and_box_oracle(self, case, mode):
        Y = case[0]
        if mode == hm.FLOAT:
            try:
                Y = hm.SpdMatrix.from_rows([[float(x) for x in r] for r in Y.entries], mode)
            except hm.NotPositiveDefinite:
                assume(False)
        exact = hm.SpdMatrix(Y.matrix.to_rational())
        below_diag = box_short_vectors(exact, min(exact.diagonal()))
        assume(len(below_diag) < 500)
        least = min(below_diag.values())
        witness = min((a for a, v in below_diag.items() if v == least), key=witness_order)
        res = hm.first_minimum(Y)
        assert res == self.searched(Y)
        assert res == hm.ShortVectorResult(float(least) if mode == hm.FLOAT else least, witness)
        assert type(res.value) is type(Y.entries[0][0])

    def test_counterexample_family_takes_the_bound(self, monkeypatch):
        members = [hm.counterexample_family(k) for k in range(51)]
        searched = [self.searched(Y) for Y in members]

        def no_search(*args, **kwargs):
            raise AssertionError("enumerated")

        monkeypatch.setattr(hm.lattice, "_short_vectors", no_search)
        for Y, expected in zip(members, searched):
            assert hm.first_minimum(Y) == expected == hm.ShortVectorResult(Fraction(1),
                                                                          (1, 0, 0, 0))

    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    @pytest.mark.parametrize("r", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 6)])
    def test_scaled_minimum_matches_search(self, mode, r):
        # the counterexample members, against the rebuilt delta_r Y delta_r
        r = hm.DivisibilityTuple(r)
        for k in range(11):
            Y = hm.SpdMatrix(hm.DenseMatrix.from_rows(hm.counterexample_family(k).entries, mode))
            expected = self.searched(_rebuilt_scaled(Y, r))
            if mode == hm.FLOAT:
                expected = hm.ShortVectorResult(float(expected.value), expected.witness)
            assert hm.first_minimum_r(Y, r) == expected

    @settings(max_examples=200, deadline=None)
    @given(_scaled_cases(), st.sampled_from((hm.RATIONAL, hm.FLOAT)))
    @example((spd([[Fraction(1, 4), Fraction(1, 8)], [Fraction(1, 8), Fraction(1, 2)]]), (2,)),
             hm.RATIONAL)
    @example((spd([[Fraction(1, 4), Fraction(1, 8)], [Fraction(1, 8), Fraction(1, 2)]]), (2,)),
             hm.FLOAT)
    def test_scaled_minimum_matches_rebuilt_oracle(self, case, mode):
        # first_minimum_r reads delta_r Y delta_r's factor off Y's; the oracle
        # rebuilds delta_r Y delta_r from the exact entries and factors it anew
        Y, r = case
        r = hm.DivisibilityTuple(r)
        if mode == hm.FLOAT:
            try:
                Y = hm.SpdMatrix.from_rows([[float(x) for x in row] for row in Y.entries], mode)
            except hm.NotPositiveDefinite:
                assume(False)
        expected = hm.first_minimum(_rebuilt_scaled(Y, r))
        if mode == hm.FLOAT:
            expected = hm.ShortVectorResult(float(expected.value), expected.witness)
        got = hm.first_minimum_r(Y, r)
        assert got == expected
        assert type(got.value) is type(expected.value) is type(Y.entries[0][0])

    @pytest.mark.parametrize("mode", [hm.RATIONAL, hm.FLOAT])
    @pytest.mark.parametrize("rows, r, smallest", [
        ([[2, 1], [1, 1]], (2,), 8),
        # the scaling clears denominators: the rebuilt den is 4, the derived one 8
        ([[Fraction(1, 4), Fraction(1, 8)], [Fraction(1, 8), Fraction(1, 2)]], (2,), 8),
        ([[Fraction(9, 4), Fraction(3, 4), 0, Fraction(1, 3)],
          [Fraction(3, 4), Fraction(5, 2), Fraction(1, 2), 0],
          [0, Fraction(1, 2), Fraction(1, 4), Fraction(1, 6)],
          [Fraction(1, 3), 0, Fraction(1, 6), Fraction(7, 9)]], (1, 2), 14),
        ([[Fraction(1, 4), Fraction(1, 8), 0, 0], [Fraction(1, 8), Fraction(1, 2), 0, 0],
          [0, 0, 1, Fraction(1, 2)], [0, 0, Fraction(1, 2), 1]], (2, 2), 26),
        # y'_11 = 1 is the least pivot of the scaled factor: no integer is tried
        ([[1, 0], [0, 4]], (1,), 0),
    ])
    def test_scaled_budget_boundary(self, rows, r, smallest, mode):
        # the smallest budget that succeeds is the rebuilt search's
        Y = hm.SpdMatrix.from_rows(rows, mode)
        r = hm.DivisibilityTuple(r)
        rebuilt = _rebuilt_scaled(Y, r)

        def least_budget(call):
            budget = 0
            while True:
                try:
                    call(budget)
                    return budget
                except hm.EnumerationBudgetExceeded:
                    budget += 1

        assert least_budget(lambda b: hm.first_minimum(rebuilt, b)) == smallest
        assert least_budget(lambda b: hm.first_minimum_r(Y, r, b)) == smallest

    def test_smaller_later_pivot_searches(self, monkeypatch):
        # pivots 2, 1/2: y_11 is not the least, and e_2 is shorter
        real, calls = hm.lattice._short_vectors, []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(hm.lattice, "_short_vectors", counted)
        Y = spd([[2, 1], [1, 1]])
        assert hm.first_minimum(Y) == hm.ShortVectorResult(Fraction(1), (0, 1))
        assert calls == [Y.integer_ldl]


# (n, b) of the skewed_unit_lattice inputs, each with seeds 0, 1 and 2
_SKEWED_SHAPES = [(3, 20), (3, 200), (4, 60), (6, 10), (8, 5)]


class TestSkewedBases:
    # Z^n in a badly reduced basis: the ellipsoid below the smallest
    # diagonal entry holds far more lattice points than the budget, so
    # only zig-zag order and a shrinking radius keep these within it
    def test_generator_smallest_diagonals(self):
        smallest = {(n, b): [min(g[i][i] for i in range(n))
                             for g in (skewed_unit_lattice(n, b, seed)[1] for seed in range(3))]
                    for n, b in ((3, 200), (4, 60))}
        assert smallest == {(3, 200): [35354, 25706, 53301], (4, 60): [5235, 3758, 7206]}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, b", _SKEWED_SHAPES)
    def test_first_minimum_within_budget(self, n, b, seed):
        U, gram = skewed_unit_lattice(n, b, seed)
        # Y[a] = |U a|^2 is 1 exactly when U a = +-e_j: the minimal vectors
        # are the columns of U^{-1}, up to sign
        inv = hm.matrix_inverse(hm.DenseMatrix.from_rows(U)).entries
        columns = [tuple(int(inv[i][j]) for i in range(n)) for j in range(n)]
        canonical = [c if next(x for x in c if x) > 0 else tuple(-x for x in c)
                     for c in columns]
        res = hm.first_minimum(spd(gram), budget=10**6)
        assert res == hm.ShortVectorResult(1, min(canonical, key=witness_order))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, b", _SKEWED_SHAPES)
    def test_membership_rejects_within_budget(self, n, b, seed):
        # the diagonal +-1 change of basis that makes every superdiagonal
        # entry >= 0 leaves only the short-vector conditions to fail
        gram = skewed_unit_lattice(n, b, seed)[1]
        signs = [1]
        for k in range(1, n):
            signs.append(signs[-1] if gram[k - 1][k] >= 0 else -signs[-1])
        Y = spd([[signs[i] * signs[j] * x for j, x in enumerate(row)]
                 for i, row in enumerate(gram)])
        rep = hm.minkowski_membership(Y, budget=10**6)
        first = hm.first_minimum(Y)
        assert first.value == 1
        assert rep.violation == hm.MinkowskiViolation(1, "short_vector", first.witness)


class TestFirstMinimumScaled:
    def test_scaled_identity(self):
        res = hm.first_minimum_r(hm.SpdMatrix(hm.identity(2)), hm.DivisibilityTuple((2,)))
        assert res.value == 1
        assert res.witness == (0, 1)

    def test_trivial_tuple(self):
        res = hm.first_minimum_r(hm.SpdMatrix(hm.identity(4)), hm.DivisibilityTuple((1, 1)))
        assert res.value == 1

    def test_trivial_tuple_reuses_factor(self, monkeypatch):
        # no tuple refactors, the trivial one or any other: a scaled search
        # reads delta_r Y delta_r's factor off the one Y keeps, and every
        # factorization runs _ldl_kernel
        Y = random_rational_spd(random.Random(2), 4)
        cases = []
        for mode in (hm.RATIONAL, hm.FLOAT):
            Ym = hm.SpdMatrix.from_rows(Y.entries, mode)
            for r in map(hm.DivisibilityTuple, ((1, 1), (1, 2), (2, 2), (3, 6))):
                expected = hm.first_minimum(_rebuilt_scaled(Ym, r))
                if mode == hm.FLOAT:
                    expected = hm.ShortVectorResult(float(expected.value), expected.witness)
                cases.append((Ym, r, expected))

        def refactor(n):
            raise AssertionError("Gram matrix factored a second time")

        monkeypatch.setattr(hm.linalg, "_ldl_kernel", refactor)
        for Ym, r, expected in cases:
            assert hm.first_minimum_r(Ym, r) == expected

    def test_float_value_is_the_exact_minimum_rounded_once(self):
        # decimal entries: a float product y r_i r_j is rarely exact
        rng = random.Random(57)
        tuples = [(2,), (3,), (1, 2), (2, 2), (1, 3), (3, 3)]
        for _ in range(60):
            r = hm.DivisibilityTuple(rng.choice(tuples))
            n = 2 * r.n
            B = hm.DenseMatrix.from_rows([[rng.randint(-30, 30) / 10 for _ in range(n)]
                                          for _ in range(n)])
            BtB = hm.congruence(hm.identity(n, hm.FLOAT), B).entries
            F = hm.SpdMatrix.from_rows([[x + (i == j) / 10 for j, x in enumerate(row)]
                                        for i, row in enumerate(BtB)])
            exact = hm.first_minimum_r(hm.SpdMatrix.from_rows(F.entries, hm.RATIONAL), r)
            got = hm.first_minimum_r(F, r)
            assert type(got.value) is float
            assert got == hm.ShortVectorResult(float(exact.value), exact.witness)

    def test_reduces_to_plain_minimum(self):
        rng = random.Random(31)
        for _ in range(10):
            Y = random_rational_spd(rng, 4)
            r = hm.DivisibilityTuple((1, 1))
            assert hm.first_minimum_r(Y, r).value == hm.first_minimum(Y).value


class TestPsiR:
    def test_inverse_scaling_of_identity(self):
        Y = hm.psi_r(hm.SpdMatrix(hm.identity(2)), hm.DivisibilityTuple((2,)))
        assert Y.entries == ((Fraction(1, 4), 0), (0, 1))

    def test_undoes_diagonal(self):
        Y = hm.psi_r(spd([[4, 0], [0, 1]]), hm.DivisibilityTuple((2,)))
        assert Y.entries == hm.identity(2).entries

    def test_trivial_tuple_is_identity_map(self):
        rng = random.Random(8)
        Y = random_rational_spd(rng, 4)
        assert hm.psi_r(Y, hm.DivisibilityTuple((1, 1))).entries == Y.entries

    def test_scaled_minimum_recovered_exactly(self):
        # m_r of the rescaled form equals the plain first minimum
        rng = random.Random(14)
        tuples = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (1, 3), (3, 3)]
        for _ in range(24):
            rt = hm.DivisibilityTuple(rng.choice(tuples))
            Y = random_rational_spd(rng, 2 * rt.n)
            lhs = hm.first_minimum_r(hm.psi_r(Y, rt), rt).value
            assert lhs == hm.first_minimum(Y).value


class TestMinkowskiMembership:
    def test_identity_is_member(self):
        assert hm.minkowski_membership(hm.SpdMatrix(hm.identity(3))).member

    def test_hexagonal_is_member(self):
        assert hm.minkowski_membership(spd([[2, 1], [1, 2]])).member

    def test_negative_superdiagonal(self):
        rep = hm.minkowski_membership(spd([[2, -1], [-1, 2]]))
        assert not rep.member
        assert rep.violation.k == 1
        assert rep.violation.kind == "sign"

    def test_badly_reduced_float_gram_within_budget(self):
        # about 1.1e8 vectors lie below y_11 = 3; the shrinking search
        # reaches the minimum 5.3e-15, along (5, -3), after 13 integers
        Y = hm.SpdMatrix.from_rows(PAST_CHOLESKY, hm.FLOAT)
        rep = hm.minkowski_membership(Y, budget=10**5)
        assert not rep.member
        assert rep.violation.kind == "short_vector" and rep.violation.k == 1
        assert hm.quadratic_form(Y, rep.violation.witness) < 3

    def test_short_vector_violation(self):
        # diag(4,1) has Y[e_2] = 1 < 4 = y_11 with primitive e_2
        rep = hm.minkowski_membership(spd([[4, 0], [0, 1]]))
        assert not rep.member
        assert rep.violation.kind == "short_vector"
        assert rep.violation.k == 1
        assert rep.violation.witness == (0, 1)

    def test_float_on_the_boundary_is_member(self):
        # Y[e_2] = y_11 and Y[e_1 - e_2] = y_22: every condition holds with equality
        rep = hm.minkowski_membership(hm.SpdMatrix.from_rows([[1.0, 0.5], [0.5, 1.0]]))
        assert rep == hm.MinkowskiReport(True, None)

    def test_float_just_inside_the_boundary_is_not_member(self):
        # Y[e_2] = 1 - 1e-10 < y_11 exactly, as for the same entries as Fractions
        rows = [[1.0, 0.5], [0.5, 1 - 1e-10]]
        rep = hm.minkowski_membership(hm.SpdMatrix.from_rows(rows))
        assert rep.violated_condition == (1, (0, 1))
        assert rep.violation.kind == "short_vector" and not rep.member
        exact = [[Fraction(x) for x in r] for r in rows]
        assert hm.minkowski_membership(hm.SpdMatrix.from_rows(exact)) == rep

    def test_early_violation_ignores_larger_later_diagonal(self):
        # k = 1 fails with (0, 1, 0) below y_11 = 5; an enumeration below
        # y_33 = 10^7 would take about 1.6e7 nodes, past the default budget
        Y = spd([[5, 2, 0], [2, 1, 0], [0, 0, 10**7]])
        assert hm.minkowski_membership(Y).violated_condition == (1, (0, 1, 0))

    @pytest.mark.parametrize("rows, smallest", [
        ([[5, 2, 0], [2, 1, 0], [0, 0, 10**7]], 13),
        ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], 8),
        ([[9, 1, Fraction(1, 2)], [1, 4, Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 3), 3]], 15),
    ])
    def test_budget_boundary(self, rows, smallest):
        # smallest budgets that succeed, with one shrinking search per k
        # and every integer tried counted
        Y = spd(rows)
        hm.minkowski_membership(Y, budget=smallest)
        with pytest.raises(hm.EnumerationBudgetExceeded):
            hm.minkowski_membership(Y, budget=smallest - 1)

    @pytest.mark.parametrize("rows, smallest", [(SEARCHED, 7), (skewed_unit_lattice(4, 5, 0)[1], 24)])
    def test_member_budget_boundary(self, rows, smallest):
        # a member runs the search of every k, so these pin the
        # tail-primitive searches (k > 0) too
        R = hm.minkowski_reduce(spd(rows))[0]
        assert hm.minkowski_membership(R, budget=smallest).member
        with pytest.raises(hm.EnumerationBudgetExceeded):
            hm.minkowski_membership(R, budget=smallest - 1)

    def test_one_search_per_k(self, monkeypatch):
        # a member runs one shrinking search (bound None) for each k
        members = [hm.minkowski_reduce(random_rational_spd(random.Random(n), n))[0]
                   for n in (2, 3, 4, 5)]
        calls = []
        core = hm.lattice._short_vectors
        monkeypatch.setattr(hm.lattice, "_short_vectors",
                            lambda *args: calls.append((args[1], args[3])) or core(*args))
        for R in members:
            calls.clear()
            assert hm.minkowski_membership(R).member
            assert calls == [(None, k) for k in range(R.n)]

    def test_brute_force_oracle(self):
        rng = random.Random(41)
        seen = set()
        for _ in range(60):
            n = rng.choice((2, 3))
            Y = random_rational_spd(rng, n, box_cap=3000)
            if rng.random() < 0.7:
                Y = hm.SpdMatrix(hm.congruence(Y.matrix, random_unimodular(rng, n, steps=4)))
            rep = hm.minkowski_membership(Y)
            expected = brute_force_membership(Y)
            got = None if rep.member else (rep.violation.k, rep.violation.kind,
                                           rep.violation.witness)
            assert got == expected
            seen.add(got[1] if got else "member")
        assert seen == {"member", "sign", "short_vector"}

    def test_member_minimum_is_first_diagonal(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(40):
            Y = random_rational_spd(rng, rng.choice((2, 3)))
            if hm.minkowski_membership(Y).member:
                assert hm.first_minimum(Y).value == Y.entries[0][0]
                checked += 1
        assert checked  # the sample must exercise the property


class TestMinkowskiReduce:
    def test_badly_reduced_float_gram_within_budget(self):
        Y = hm.SpdMatrix.from_rows(PAST_CHOLESKY, hm.FLOAT)
        R, _ = hm.minkowski_reduce(Y, budget=10**5)
        assert R.entries[0][0] == hm.first_minimum(Y).value == 5.329070518200751e-15
        assert hm.minkowski_membership(R).member

    @pytest.mark.parametrize("n, b, seed", [(n, b, seed) for n, b in _SKEWED_SHAPES
                                            for seed in range(3)])
    def test_skewed_unit_lattice_reduces_to_identity(self, n, b, seed):
        R, _ = hm.minkowski_reduce(spd(skewed_unit_lattice(n, b, seed)[1]), budget=10**6)
        assert R.entries == hm.identity(n).entries
        assert hm.minkowski_membership(R, budget=10**6).member

    def test_budget_boundary(self):
        # the smallest budget that succeeds; the columns try 100307, 5645,
        # 119 and 9 integers, so the first, a plain first minimum, decides
        Y = spd(skewed_unit_lattice(4, 60, 2)[1])
        R, _ = hm.minkowski_reduce(Y, budget=100307)
        assert R.entries == hm.identity(4).entries
        with pytest.raises(hm.EnumerationBudgetExceeded):
            hm.minkowski_reduce(Y, budget=100306)

    def test_budget_boundary_of_later_columns(self):
        # the smallest budget that succeeds where the columns k > 0, each a
        # tail-primitive search, try integers too
        Y = spd(skewed_unit_lattice(4, 5, 0)[1])
        R, _ = hm.minkowski_reduce(Y, budget=97)
        assert R.entries == hm.identity(4).entries
        with pytest.raises(hm.EnumerationBudgetExceeded):
            hm.minkowski_reduce(Y, budget=96)

    def test_one_basis_completion_per_column(self, monkeypatch):
        # the carried basis is completed once per column, from the tail
        # b[k:] of that column alone, never rebuilt from the prefix
        calls = []
        complete = hm.lattice._unimodular_with_first_column
        monkeypatch.setattr(hm.lattice, "_unimodular_with_first_column",
                            lambda v: calls.append(v) or complete(v))
        for n in (2, 3, 4, 5):
            calls.clear()
            hm.minkowski_reduce(random_rational_spd(random.Random(n), n))
            assert [len(v) for v in calls] == list(range(n, 0, -1))
            assert all(math.gcd(*v) == 1 for v in calls)

    def test_symmetrizes_only_its_result(self, monkeypatch):
        # each column searches the factor of its integer Gram matrix; only
        # the reduced SpdMatrix returned is built, and so symmetrized
        Ys = [random_rational_spd(random.Random(n), n) for n in (2, 3, 4, 5)]
        calls = []
        symmetrized = hm.linalg.symmetrized
        monkeypatch.setattr(hm.linalg, "symmetrized", lambda m: calls.append(m) or symmetrized(m))
        for Y in Ys:
            calls.clear()
            R, _ = hm.minkowski_reduce(Y)
            assert calls == [R.matrix]

    def test_identity_fixed(self):
        R, U = hm.minkowski_reduce(hm.SpdMatrix(hm.identity(2)))
        assert R.entries == hm.identity(2).entries
        assert U.entries == ((1, 0), (0, 1))

    def test_unit_form_reduces_to_identity(self):
        # det 1 and minimum 1 force equivalence with the identity form
        Y = spd([[5, 3], [3, 2]])
        R, U = hm.minkowski_reduce(Y)
        assert R.entries == hm.identity(2).entries
        assert hm.congruence(Y.matrix, U.matrix()).entries == R.entries
        assert U.determinant() in (1, -1)

    def test_counterexample_reduces_to_identity(self):
        for k in (0, 1, 4, 9):
            R, _ = hm.minkowski_reduce(hm.counterexample_family(k))
            assert R.entries == hm.identity(4).entries

    def test_output_is_member_with_preserved_determinant(self):
        rng = random.Random(77)
        for _ in range(40):
            Y = random_rational_spd(rng, rng.choice((2, 3, 4)))
            R, U = hm.minkowski_reduce(Y)
            assert hm.minkowski_membership(R).member
            assert hm.determinant(R.matrix) == hm.determinant(Y.matrix)
            assert hm.congruence(Y.matrix, U.matrix()).entries == R.entries

    def test_float_output_is_the_congruence_bit_for_bit(self):
        # repr tells -0.0 from 0.0: the sign flip of the last column must
        # leave the zero entries (0, 2) and (2, 0) as 0.0
        Ys = [hm.SpdMatrix.from_rows([[1.25, 0.0, 0.0], [0.0, 2.0, -0.5], [0.0, -0.5, 3.0]])]
        rng = random.Random(78)
        for _ in range(30):
            n = rng.choice((2, 3, 4, 5))
            B = hm.DenseMatrix.from_rows([[rng.randint(-3, 3) + rng.random() for _ in range(n)]
                                          for _ in range(n)])
            BtB = (B.transpose() @ B).entries
            Ys.append(hm.SpdMatrix.from_rows([[x + (i == j) for j, x in enumerate(r)]
                                              for i, r in enumerate(BtB)]))
        for Y in Ys:
            R, U = hm.minkowski_reduce(Y)
            assert R.mode == hm.FLOAT
            assert repr(R.entries) == repr(hm.SpdMatrix(hm.congruence(Y.matrix, U.matrix())).entries)
        assert repr(hm.minkowski_reduce(Ys[0])[0].entries[0][2]) == "0.0"

    def test_float_gram_of_a_float_product_reduces(self):
        # Y[U] formed with a rounding at every term left draw 27 asymmetric
        # past the symmetry slack, and SpdMatrix raised NotSymmetric
        rng = random.Random(78)
        for _ in range(40):
            n = rng.choice((2, 3, 4, 5))
            B = hm.DenseMatrix.from_rows([[rng.randint(-3, 3) + rng.random() for _ in range(n)]
                                          for _ in range(n)])
            Y = hm.SpdMatrix(hm.congruence(hm.identity(n, hm.FLOAT), B))
            R, U = hm.minkowski_reduce(Y)
            assert R.entries == hm.congruence(Y.matrix, U.matrix()).entries
            assert R.entries == R.matrix.transpose().entries

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            hm.minkowski_reduce(hm.SpdMatrix(hm.identity(9)))


# integers of every size the completion folds: zeros, +-1, small, near 10^6
_fold_entries = st.one_of(st.sampled_from((0, 0, 1, -1)), st.integers(-30, 30),
                          st.integers(10**6 - 50, 10**6 + 50).map(lambda x: x * (-1) ** x))


class TestUnimodularWithFirstColumn:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_fold_entries, min_size=1, max_size=8))
    @example([1])
    @example([-1])
    @example([0, 0, -1, 0])
    @example([0, 0, 0, 0, 0, 0, 0, 1])
    @example([-1, 0, 0])
    @example([10**6, -(10**6 + 1), 0, 3])
    def test_first_column_and_unit_determinant(self, v):
        assume(math.gcd(*v) == 1)
        V = hm.lattice._unimodular_with_first_column(tuple(v))
        assert [row[0] for row in V] == v
        assert abs(hm.linalg._int_determinant(V)) == 1


class TestDivisibilityTuple:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            hm.DivisibilityTuple((2, 3))

    def test_positivity(self):
        with pytest.raises(ValueError):
            hm.DivisibilityTuple((0, 1))

    @pytest.mark.parametrize("entries", [(1.5, 3.7), (1.9,), (True,), (1, Fraction(3, 2)),
                                         (float("inf"),), (1, float("-inf")), (float("nan"),),
                                         (None,), ([1],), ({},), (1 + 2j,)])
    def test_non_integral_entries_rejected(self, entries):
        with pytest.raises(ValueError):
            hm.DivisibilityTuple(entries)

    def test_negative_entry_that_divides_is_rejected(self):
        # (1, -2) passes the divisibility check alone
        with pytest.raises(ValueError, match="positive"):
            hm.DivisibilityTuple((1, -2))

    @pytest.mark.parametrize("entries", [(np.True_,), (1, np.True_), (np.False_, 1)])
    def test_numpy_bool_rejected(self, entries):
        with pytest.raises(ValueError, match="must be integers"):
            hm.DivisibilityTuple(entries)

    def test_numpy_integers_are_their_ints(self):
        r = hm.DivisibilityTuple((np.int64(1), np.uint8(2), np.float64(6.0))).r
        assert r == (1, 2, 6) and all(type(x) is int for x in r)

    def test_plain_int_tuple_kept(self):
        r = (1, 2, 6)
        assert hm.DivisibilityTuple(r).r is r

    def test_integral_values_accepted(self):
        assert hm.DivisibilityTuple((2.0, Fraction(4), "8", "16/1")).r == (2, 4, 8, 16)

    def test_scaling_diagonal(self):
        assert hm.DivisibilityTuple((1, 2)).scaling_diagonal() == (1, 2, 1, 1)


class TestUnimodularMatrix:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            hm.UnimodularMatrix(((2, 0), (0, 1)))

    def test_determinant_sign(self):
        U = hm.UnimodularMatrix(((0, 1), (1, 0)))
        assert U.determinant() == -1

    @pytest.mark.parametrize("entries", [((1.5, 0), (0, 1)), ((Fraction(3, 2), 0), (0, 1)),
                                         ((True, 0), (0, 1)), ((1, 0), (0, float("inf"))),
                                         (), ((None, 0), (0, 1))])
    def test_non_integer_or_empty_rejected(self, entries):
        # a truncating int() would turn 1.5 and 3/2 into the identity
        with pytest.raises(ValueError):
            hm.UnimodularMatrix(entries)

    @pytest.mark.parametrize("entries", [((np.True_, 0), (0, 1)), ((1, 0), (0, np.True_)),
                                         np.array([[True, False], [False, True]])])
    def test_numpy_bool_rejected(self, entries):
        with pytest.raises(ValueError, match="must be integers"):
            hm.UnimodularMatrix(entries)

    @pytest.mark.parametrize("entries", [[[2, 1], [1, 1]], ((2.0, Fraction(1)), (1, "1")),
                                         np.array([[2, 1], [1, 1]])])
    def test_integral_entries_accepted(self, entries):
        U = hm.UnimodularMatrix(entries)
        assert U.entries == ((2, 1), (1, 1))
        assert all(type(x) is int for r in U.entries for x in r)


class TestNoCyclicGarbage:
    """An enumeration leaves no reference cycle, so what it allocates is
    freed on return, not by the cyclic collector: with the collector off,
    a collection after each call finds nothing."""

    # a skewed basis, and two members of the domain, on which membership
    # runs every search; none has y_11 as its least pivot, so first_minimum
    # enumerates too
    GRAMS = [skewed_unit_lattice(3, 20, 0)[1], [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
             [[2.5, 1.25, 0.25], [1.25, 2.5, 1.0], [0.25, 1.0, 3.0]]]
    IDS = ["skewed", "rational", "float"]

    @staticmethod
    def garbage_after(call):
        gc.collect()
        gc.disable()
        try:
            call()
            return gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize("rows", GRAMS, ids=IDS)
    @pytest.mark.parametrize("name", ["first_minimum", "enumerate_below",
                                      "minkowski_membership", "minkowski_reduce"])
    def test_no_cycle_on_return(self, rows, name):
        Y = spd(rows)
        args = (5,) if name == "enumerate_below" else ()
        assert self.garbage_after(lambda: getattr(hm, name)(Y, *args)) == 0

    @pytest.mark.parametrize("rows", GRAMS, ids=IDS)
    def test_no_cycle_when_the_budget_is_exceeded(self, rows):
        Y = spd(rows)

        def exceed():
            try:
                hm.first_minimum(Y, budget=3)
            except hm.EnumerationBudgetExceeded:
                return
            raise AssertionError("budget not exceeded")

        assert self.garbage_after(exceed) == 0
