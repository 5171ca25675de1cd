import math
import random
from fractions import Fraction
from itertools import combinations

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
        S, found = hm.lattice._short_vectors(Y, bound)
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
    @pytest.mark.parametrize("n, b", [(3, 20), (3, 200), (4, 60), (6, 10), (8, 5)])
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


class TestFirstMinimumScaled:
    def test_scaled_identity(self):
        res = hm.first_minimum_r(hm.SpdMatrix(hm.identity(2)), hm.DivisibilityTuple((2,)))
        assert res.value == 1
        assert res.witness == (0, 1)

    def test_trivial_tuple(self):
        res = hm.first_minimum_r(hm.SpdMatrix(hm.identity(4)), hm.DivisibilityTuple((1, 1)))
        assert res.value == 1

    def test_trivial_tuple_reuses_factor(self, monkeypatch):
        Y = random_rational_spd(random.Random(2), 4)
        r = hm.DivisibilityTuple.ones(2)
        assert hm.lattice.scale_by_divisibility(Y, r) is Y

        def refactor(entries):
            raise AssertionError("Gram matrix factored a second time")

        monkeypatch.setattr(hm.linalg, "_integer_ldl", refactor)
        assert hm.first_minimum_r(Y, r) == hm.first_minimum(Y)

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

    @pytest.mark.xfail(strict=True, raises=hm.EnumerationBudgetExceeded,
                       reason="enumerates below y_11 = 3 in a badly reduced basis; "
                              "needs the LLL of ROADMAP item 1")
    def test_badly_reduced_float_gram_within_budget(self):
        Y = hm.SpdMatrix.from_rows(PAST_CHOLESKY, hm.FLOAT)
        rep = hm.minkowski_membership(Y, budget=10**5)
        # the minimum 5.3e-15, along (5, -3), lies far below y_11 = 3
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

    def test_float_mode_flagged_approximate(self):
        rep = hm.minkowski_membership(hm.SpdMatrix(hm.identity(2, hm.FLOAT)))
        assert rep.member and rep.approximate

    def test_early_violation_ignores_larger_later_diagonal(self):
        # k = 1 fails with (0, 1, 0) below y_11 = 5; an enumeration below
        # y_33 = 10^7 would take about 1.6e7 nodes, past the default budget
        Y = spd([[5, 2, 0], [2, 1, 0], [0, 0, 10**7]])
        assert hm.minkowski_membership(Y).violated_condition == (1, (0, 1, 0))

    @pytest.mark.parametrize("rows, smallest", [
        ([[5, 2, 0], [2, 1, 0], [0, 0, 10**7]], 26),
        ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], 8),
        ([[9, 1, Fraction(1, 2)], [1, 4, Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 3), 3]], 21),
    ])
    def test_budget_boundary(self, rows, smallest):
        # smallest budgets that succeed, with one enumeration below each
        # larger y_kk and every integer tried counted
        Y = spd(rows)
        hm.minkowski_membership(Y, budget=smallest)
        with pytest.raises(hm.EnumerationBudgetExceeded):
            hm.minkowski_membership(Y, budget=smallest - 1)

    def test_equal_diagonal_entries_share_one_enumeration(self, monkeypatch):
        calls = []
        core = hm.lattice._short_vectors
        monkeypatch.setattr(hm.lattice, "_short_vectors",
                            lambda *args: calls.append(args[1]) or core(*args))
        assert hm.minkowski_membership(hm.SpdMatrix(hm.identity(3))).member
        assert calls == [1]

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


# the skewed inputs whose reduction still exhausts a 10^6 budget
_SKEWED_PAST_BUDGET = {(4, 60, 1), (4, 60, 2), (6, 10, 0)}


class TestMinkowskiReduce:
    def test_badly_reduced_float_gram_within_budget(self):
        Y = hm.SpdMatrix.from_rows(PAST_CHOLESKY, hm.FLOAT)
        R, _ = hm.minkowski_reduce(Y, budget=10**5)
        assert R.entries[0][0] == hm.first_minimum(Y).value == 5.329070518200751e-15
        assert hm.minkowski_membership(R).member

    @pytest.mark.parametrize("n, b, seed", [
        pytest.param(n, b, seed, marks=pytest.mark.xfail(
            strict=True, raises=hm.EnumerationBudgetExceeded,
            reason="one column's search tries more than 10^6 integers; "
                   "needs the LLL of ROADMAP item 1"))
        if (n, b, seed) in _SKEWED_PAST_BUDGET else (n, b, seed)
        for n, b in [(3, 20), (3, 200), (4, 60), (6, 10), (8, 5)] for seed in range(3)])
    def test_skewed_unit_lattice_reduces_to_identity(self, n, b, seed):
        R, _ = hm.minkowski_reduce(spd(skewed_unit_lattice(n, b, seed)[1]), budget=10**6)
        assert R.entries == hm.identity(n).entries
        assert hm.minkowski_membership(R, budget=10**6).member

    def test_one_basis_completion_per_column(self, monkeypatch):
        calls = []
        complete = hm.lattice._complete_basis
        monkeypatch.setattr(hm.lattice, "_complete_basis",
                            lambda cols, n: calls.append(len(cols)) or complete(cols, n))
        for n in (2, 3, 4, 5):
            calls.clear()
            hm.minkowski_reduce(random_rational_spd(random.Random(n), n))
            assert calls == list(range(n))

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


def _minor_gcd(cols):
    """gcd of the k x k minors of the n x k matrix with these columns."""
    n, k = len(cols[0]), len(cols)
    return math.gcd(*(hm.linalg._int_determinant([[c[i] for c in cols] for i in rows])
                      for rows in combinations(range(n), k)))


def _column_sets(kind, count=300, seed=71):
    """Integer column sets, n <= 5, k <= n, entries in [-3, 3].

    "random" draws every entry; "dependent" makes the last column the
    difference of the first two, the negative of the first, or zero,
    so every minor is 0; "even" doubles the first column of entries in
    [-1, 1], so every minor is even.
    """
    rng = random.Random(f"{kind}-{seed}")
    for _ in range(count):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        top = 3 if kind == "random" else 1
        cols = [tuple(rng.randint(-top, top) for _ in range(n)) for _ in range(k)]
        if kind == "dependent":
            cols[-1] = (tuple(a - b for a, b in zip(*cols[:2])) if k > 2
                        else tuple(-x for x in cols[0]) if k == 2 else (0,) * n)
        elif kind == "even":
            cols[0] = tuple(2 * x for x in cols[0])
        yield cols


class TestCompleteBasis:
    # columns extend to a basis of Z^n exactly when the gcd of their k x k
    # minors is 1; the scan over every minor is the oracle
    @pytest.mark.parametrize("kind", ["random", "dependent", "even"])
    def test_succeeds_exactly_when_minor_gcd_is_one(self, kind):
        outcomes = set()
        for cols in _column_sets(kind):
            n, g = len(cols[0]), _minor_gcd(cols)
            outcomes.add(g)
            try:
                completion = hm.lattice._complete_basis(cols, n)
            except ValueError:
                assert g != 1, cols
                continue
            assert g == 1, cols
            basis = cols + completion
            assert len(basis) == n
            assert abs(hm.linalg._int_determinant(
                [[c[i] for c in basis] for i in range(n)])) == 1
        # every kind reaches the outcomes it was built for, and only those
        if kind == "random":
            assert {0, 1, 2} <= outcomes
        elif kind == "dependent":
            assert outcomes == {0}
        else:
            assert {0, 2} <= outcomes and all(g % 2 == 0 for g in outcomes)


class TestDivisibilityTuple:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            hm.DivisibilityTuple((2, 3))

    def test_positivity(self):
        with pytest.raises(ValueError):
            hm.DivisibilityTuple((0, 1))

    @pytest.mark.parametrize("entries", [(1.5, 3.7), (1.9,), (True,), (1, Fraction(3, 2)),
                                         (float("inf"),), (1, float("-inf")), (float("nan"),)])
    def test_non_integral_entries_rejected(self, entries):
        with pytest.raises(ValueError):
            hm.DivisibilityTuple(entries)

    def test_negative_entry_that_divides_is_rejected(self):
        # (1, -2) passes the divisibility check alone
        with pytest.raises(ValueError, match="positive"):
            hm.DivisibilityTuple((1, -2))

    def test_plain_int_tuple_kept(self):
        r = (1, 2, 6)
        assert hm.DivisibilityTuple(r).r is r

    def test_integral_values_accepted(self):
        assert hm.DivisibilityTuple((2.0, Fraction(4), "8")).r == (2, 4, 8)

    def test_scaling_diagonal(self):
        assert hm.DivisibilityTuple((1, 2)).scaling_diagonal() == (1, 2, 1, 1)


class TestUnimodularMatrix:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            hm.UnimodularMatrix(((2, 0), (0, 1)))

    def test_determinant_sign(self):
        U = hm.UnimodularMatrix(((0, 1), (1, 0)))
        assert U.determinant() == -1
