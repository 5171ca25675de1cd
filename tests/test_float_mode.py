"""Float mode is the finite dyadic rationals it holds.

A float Gram matrix gets the same lattice answers as the same entries
as Fractions, also on a boundary and one ulp either side of it; every
float object the library builds comes back equal from its JSON form;
and a NaN or an infinity is refused where it enters.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import heismoduli as hm

# ways to move a bound off an attained value: none, one ulp, and the
# 1e-10 relative step that a 1e-9 float slack would hide
_STEPS = {
    "at": lambda b: b,
    "ulp below": lambda b: math.nextafter(b, -math.inf),
    "ulp above": lambda b: math.nextafter(b, math.inf),
    "1e-10 below": lambda b: b * (1 - 1e-10),
}

# a nonsingular B keeps every search small; the cap only guards that
BUDGET = 10**5

_NUDGES = {
    "none": lambda y: y,
    "ulp below": lambda y: math.nextafter(y, -math.inf),
    "ulp above": lambda y: math.nextafter(y, math.inf),
}


@st.composite
def _dyadic_grams(draw):
    """Rows of B^T B / 2^k for a small nonsingular integer B (entries p / 2^k,
    many of them on a boundary of Minkowski's domain), one diagonal entry
    optionally nudged by an ulp; each float is the dyadic rational it holds."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(0, 2))
    b = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    assume(hm.linalg._int_determinant([b[i * n:(i + 1) * n] for i in range(n)]))
    rows = [[sum(b[t * n + i] * b[t * n + j] for t in range(n)) / 2**k for j in range(n)]
            for i in range(n)]
    i = draw(st.integers(0, n - 1))
    rows[i][i] = _NUDGES[draw(st.sampled_from(sorted(_NUDGES)))](rows[i][i])
    return rows


def _both_modes(rows):
    """The float and the Fraction SpdMatrix of rows, which are accepted together."""
    try:
        exact = hm.SpdMatrix.from_rows([[Fraction(x) for x in r] for r in rows])
    except hm.NotPositiveDefinite:
        with pytest.raises(hm.NotPositiveDefinite):
            hm.SpdMatrix.from_rows(rows, hm.FLOAT)
        assume(False)
    return hm.SpdMatrix.from_rows(rows, hm.FLOAT), exact


class TestModesAgree:
    @settings(max_examples=300, deadline=None)
    @given(_dyadic_grams())
    @example([[1.0, 0.5], [0.5, 1 - 1e-10]])
    @example([[1.0, 0.5], [0.5, math.nextafter(1.0, 0.0)]])
    @example([[1.0, 0.5], [0.5, 1.0]])
    def test_minkowski_membership(self, rows):
        Yf, Yq = _both_modes(rows)
        got, expected = (hm.minkowski_membership(Y, BUDGET) for Y in (Yf, Yq))
        assert (got.member, got.violation) == (expected.member, expected.violation)

    @settings(max_examples=300, deadline=None)
    @given(_dyadic_grams(), st.lists(st.integers(-1, 1), min_size=3, max_size=3),
           st.sampled_from(sorted(_STEPS)))
    @example([[1.0, 0.0], [0.0, 1.0]], [1, 0, 0], "1e-10 below")
    @example([[1.0, 0.0], [0.0, 1.0]], [0, 1, 0], "ulp below")
    @example([[1.0, 0.5], [0.5, 1 - 1e-10]], [0, 1, 0], "at")
    def test_enumerate_below(self, rows, a, step):
        Yf, Yq = _both_modes(rows)
        a = a[:len(rows)]
        assume(any(a))
        bound = _STEPS[step](float(hm.quadratic_form(Yq, a)))
        assert hm.enumerate_below(Yf, bound, BUDGET) == hm.enumerate_below(Yq, bound, BUDGET)


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def _wire(obj):
    """obj through strict JSON text, which has no NaN or infinity."""
    return json.loads(json.dumps(obj, allow_nan=False))


class TestJsonRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_finite, min_size=4, max_size=4), _finite.filter(lambda g: g > 0))
    def test_float_objects_come_back_equal(self, v, g):
        M = hm.DenseMatrix.from_rows([v[:2], v[2:]], hm.FLOAT)
        assert hm.matrix_from_json(_wire(hm.matrix_to_json(M))) == M
        # diagonally dominant, so positive definite
        d = 1 + abs(v[1]) + abs(v[2])
        Y = hm.SpdMatrix.from_rows([[d, v[1]], [v[1], d + abs(v[3])]], hm.FLOAT)
        assert hm.SpdMatrix(hm.matrix_from_json(_wire(hm.matrix_to_json(Y)))) == Y
        m = hm.NormalizedMetric(Y, g, hm.DivisibilityTuple((1,)))
        assert hm.NormalizedMetric.from_json(_wire(m.to_json())) == m
        p = hm.HeisenbergElement((v[0], v[1]), (v[2], 0), v[3])
        assert hm.HeisenbergElement.from_json(_wire(p.to_json())) == p

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_value_error(self, bad):
        rows = [[bad, 0.0], [0.0, 1.0]]
        for mode in (hm.FLOAT, hm.RATIONAL, None):
            with pytest.raises(ValueError, match="is not finite"):
                hm.DenseMatrix.from_rows(rows, mode)
            with pytest.raises(ValueError, match="is not finite"):
                hm.SpdMatrix.from_rows(rows, mode)
        h = hm.SpdMatrix(hm.identity(2, hm.FLOAT))
        with pytest.raises(ValueError, match="positive and finite"):
            hm.NormalizedMetric(h, bad, hm.DivisibilityTuple((1,)))
        for coordinates in (((bad,), (0,), 0), ((0,), (bad,), 0), ((0,), (0,), bad)):
            for kind in (hm.HeisenbergElement, hm.LieAlgebraVector):
                with pytest.raises(ValueError, match="is not finite"):
                    kind(*coordinates)
        with pytest.raises(ValueError, match="is not finite"):
            hm.AutomorphismDescriptor.from_parts(bad, (0, 0), hm.identity(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_json_is_value_error(self, bad):
        with pytest.raises(ValueError, match="is not finite"):
            hm.matrix_from_json({"mode": "float", "rows": 1, "cols": 1, "entries": [[bad]]})

    @pytest.mark.parametrize("value", [10**400, Fraction(10**400, 3), "1e400"],
                             ids=["int", "Fraction", "string"])
    def test_past_the_float_range_is_value_error(self, value):
        with pytest.raises(ValueError, match="is not finite"):
            hm.DenseMatrix.from_rows([[value]], hm.FLOAT)
