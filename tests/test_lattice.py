import random
from fractions import Fraction

import pytest

import heismoduli as hm
from conftest import brute_force_minimum, random_rational_spd, random_unimodular


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

        def refactor(entries, mode):
            raise AssertionError("Gram matrix factored a second time")

        monkeypatch.setattr(hm.linalg, "_ldl_entries", refactor)
        assert hm.first_minimum(Y).value == 2
        assert hm.minkowski_membership(Y).member


class TestFirstMinimumScaled:
    def test_scaled_identity(self):
        res = hm.first_minimum_r(hm.SpdMatrix(hm.identity(2)), hm.DivisibilityTuple((2,)))
        assert res.value == 1
        assert res.witness == (0, 1)

    def test_trivial_tuple(self):
        res = hm.first_minimum_r(hm.SpdMatrix(hm.identity(4)), hm.DivisibilityTuple((1, 1)))
        assert res.value == 1

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

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            hm.minkowski_reduce(hm.SpdMatrix(hm.identity(9)))


class TestDivisibilityTuple:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            hm.DivisibilityTuple((2, 3))

    def test_positivity(self):
        with pytest.raises(ValueError):
            hm.DivisibilityTuple((0, 1))

    def test_scaling_diagonal(self):
        assert hm.DivisibilityTuple((1, 2)).scaling_diagonal() == (1, 2, 1, 1)


class TestUnimodularMatrix:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            hm.UnimodularMatrix(((2, 0), (0, 1)))

    def test_determinant_sign(self):
        U = hm.UnimodularMatrix(((0, 1), (1, 0)))
        assert U.determinant() == -1
