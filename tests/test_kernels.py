"""The size-specialized kernels against the loops they replaced.

``linalg._integer_ldl``, ``_arrays._upper_factors`` and
``lattice._short_vectors`` run straight-line code generated once per
size.  The loops below are the earlier implementations, kept as oracles:
the kernels must return the same (den, minors, columns), raise
``NotPositiveDefinite`` at the same index, give the same R stack bit for
bit, and find the same (S, found) after trying as many integers.
"""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import heismoduli as hm
from heismoduli import _arrays, lattice, linalg
from heismoduli.lattice import _canonical_sign
from conftest import skewed_unit_lattice

SIZES = (*range(1, 9), 12)


def loop_integer_ldl(entries):
    """The symmetric Bareiss elimination of ``linalg._integer_ldl``, as loops."""
    n = len(entries)
    ratios = []
    for i, r in enumerate(entries):
        try:
            ratios.append([x.as_integer_ratio() for x in r[:i + 1]])
        except (ValueError, OverflowError):
            raise hm.NotPositiveDefinite(i + 1) from None
    den = math.lcm(*(q for r in ratios for _, q in r))
    a = [[p * (den // q) for p, q in r] for r in ratios]
    minors, columns = [1], []
    for k in range(n):
        p, prev = a[k][k], minors[-1]
        if p <= 0:
            raise hm.NotPositiveDefinite(k + 1)
        minors.append(p)
        col = [a[i][k] for i in range(k + 1, n)]
        columns.append(tuple(col))
        for i in range(k + 1, n):
            row, lik = a[i], col[i - k - 1]
            for j in range(k + 1, i + 1):
                row[j] = (p * row[j] - lik * col[j - k - 1]) // prev
    return den, tuple(minors), tuple(columns)


def loop_upper(den, minors, columns):
    """The rows of R that ``_arrays._upper_factors`` reads off one factor, as loops."""
    rows = []
    for k, col in enumerate(columns):
        scale = minors[k] * minors[k + 1] * den
        rows.append([0.0] * k + [(-1.0 if v < 0 else 1.0) * math.sqrt(v * v / scale)
                                 for v in (minors[k + 1], *col)])
    return rows


def recursive_short_vectors(factor, bound, cap, k=0):
    """(S, found, tried): the recursive Schnorr-Euchner search of
    ``lattice._short_vectors``, with the count of integers it tried, so
    that cap = tried is the smallest budget that passes."""
    den, minors, Lcol = factor
    n = len(Lcol)
    pairs = [minors[i] * minors[i + 1] for i in range(n)]
    P = math.lcm(*pairs)
    S = P * den
    W = [P // x for x in pairs]
    N = minors[1:]
    shrink = bound is None
    if shrink:  # S Y[e_{k+1}]: x_k = Delta_{k+1}, x_i = lambda_ki for i < k
        top = W[k] * N[k] * N[k] + sum(W[i] * Lcol[i][k - i - 1] ** 2 for i in range(k))
    else:
        p, q = bound.as_integer_ratio()
        top = S * p // q  # floor(S * bound); S Y[a] is an integer
    a = [0] * n
    found = []
    tried = 0

    def descend(i, used, zero_tail):
        nonlocal top, tried
        C = sum(map(operator.mul, Lcol[i], a[i + 1:]))
        Ni, Wi = N[i], W[i]
        if zero_tail:
            t, step = 0, 1
        else:
            t = (Ni - 2 * C) // (2 * Ni)  # round(-C / Ni)
            step = 1 if Ni * t + C <= 0 else -1
        while True:
            tried += 1
            if tried > cap:
                raise hm.EnumerationBudgetExceeded(cap)
            x = Ni * t + C
            value = used + Wi * x * x
            if value > top:
                break
            a[i] = t
            if i and (i > k or t or not zero_tail):
                descend(i - 1, value, zero_tail and t == 0)
            elif (t or not zero_tail) and (not k or math.gcd(*a[k:]) == 1):
                found.append((value, _canonical_sign(tuple(a))))
                if shrink:
                    top = value
            t += step
            if not zero_tail:
                step = -step - 1 if step > 0 else 1 - step
        a[i] = 0

    if top >= 0:
        descend(n - 1, 0, True)
    return S, found, tried


def _outcome(ldl, entries):
    """ldl(entries), or the index of the ``NotPositiveDefinite`` it raises."""
    try:
        return ldl(entries)
    except hm.NotPositiveDefinite as exc:
        return exc.pivot_index


_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
# finite floats of every exponent, and small dyadic ones like a Gram's
_floats = st.one_of(st.floats(-1e150, 1e150),  # so that no Gram's sum overflows
                    st.builds(lambda p, e: math.ldexp(p, e), st.integers(-64, 64),
                              st.integers(-8, 4)))


@st.composite
def _symmetric(draw, sizes=SIZES, shapes=("gram", "lowered", "raw")):
    """A symmetric matrix of a size in sizes, all Fractions with mixed
    denominators or all floats: a Gram B^T B + I/8, the same with one
    diagonal entry lowered (failing at any pivot, or not), or raw."""
    n = draw(st.sampled_from(sizes))
    scalars = draw(st.sampled_from((_fractions, _floats)))
    shape = draw(st.sampled_from(shapes))
    if shape == "raw":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = draw(scalars)
    else:
        B = [[draw(scalars) for _ in range(n)] for _ in range(n)]
        rows = [[sum(B[k][i] * B[k][j] for k in range(n)) + Fraction(i == j, 8)
                 for j in range(n)] for i in range(n)]
        if shape == "lowered":
            k = draw(st.integers(0, n - 1))
            rows[k][k] -= draw(st.fractions(0, math.ceil(rows[k][k]) + 1, max_denominator=12))
    return linalg._coerce_rows(rows, None)[0]


class TestIntegerLdl:
    @settings(max_examples=400, deadline=None)
    @given(_symmetric())
    def test_matches_loop(self, entries):
        assert _outcome(linalg._integer_ldl, entries) == _outcome(loop_integer_ldl, entries)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("drop", [0, 1, 5])
    def test_nonpositive_pivot_at_each_index(self, n, drop):
        # lowering y_kk by its pivot d_k (plus drop) leaves the earlier pivots
        # and makes d_k zero (drop 0) or negative
        base = [[Fraction(i == j) + Fraction(1, 3 + i + j) for j in range(n)] for i in range(n)]
        d = hm.ldl_decompose(hm.SpdMatrix.from_rows(base))[1]
        for k in range(n):
            rows = [r[:] for r in base]
            rows[k][k] -= d[k] + drop
            entries = linalg._coerce_rows(rows, None)[0]
            assert _outcome(linalg._integer_ldl, entries) == k + 1
            assert _outcome(loop_integer_ldl, entries) == k + 1

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_row_wins(self, n, bad):
        # a raw DenseMatrix may hold a non-finite float; its row is reported,
        # also ahead of a nonpositive pivot 1 and of a non-finite later row
        for i in range(n):
            for j in range(i + 1):
                rows = [[float(r == c) for c in range(n)] for r in range(n)]
                rows[0][0] = -1.0
                rows[i][j] = rows[j][i] = bad
                if i + 1 < n:
                    rows[n - 1][n - 1] = bad
                entries = tuple(map(tuple, rows))
                assert _outcome(linalg._integer_ldl, entries) == i + 1
                assert _outcome(loop_integer_ldl, entries) == i + 1

    def test_upper_triangle_is_not_read(self):
        entries = ((1.0, math.nan), (0.0, 1.0))
        assert linalg._integer_ldl(entries) == loop_integer_ldl(entries) == (1, (1, 1, 1), ((0,), ()))


class TestUpperFactors:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SIZES).flatmap(
        lambda n: st.lists(_symmetric((n,)), min_size=1, max_size=4)))
    def test_r_stack_matches_loop(self, members):
        Ys = []
        for entries in members:
            try:
                Ys.append(hm.SpdMatrix.from_rows(entries))
            except hm.NotPositiveDefinite:
                pass
        if not Ys:
            return
        try:
            want = np.array([loop_upper(*Y.integer_ldl) for Y in Ys])
        except OverflowError:
            with pytest.raises(OverflowError):
                _arrays._upper_factors(Ys)
            return
        got = _arrays._upper_factors(Ys)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # the sign of every zero too

    @pytest.mark.parametrize("n", SIZES)
    def test_negative_entries_keep_their_sign(self, n):
        rows = [[Fraction(2 * (i == j)) - Fraction(1, 1 + i + j) for j in range(n)]
                for i in range(n)]
        Y = hm.SpdMatrix.from_rows(rows)
        got = _arrays._upper_factors([Y])
        assert got.tobytes() == np.array([loop_upper(*Y.integer_ldl)]).tobytes()
        assert (got[0][np.triu_indices(n, 1)] < 0).all()


# a cap that keeps every oracle search short; a search past it must pass
# it in the kernel too
SEARCH_CAP = 5_000


@st.composite
def _searches(draw):
    """(factor, bound, k): the factor of a Gram of a size in SIZES,
    rational or float, and a search on it with any k, below a bound that
    is a diagonal entry times 1/2, 1 or 3/2, or shrinking (bound None)."""
    entries = draw(_symmetric(shapes=("gram",)))
    factor = _outcome(linalg._integer_ldl, entries)
    assume(type(factor) is tuple)  # a float Gram may round to a singular one
    n = len(entries)
    k = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        return factor, entries[j][j] * draw(st.sampled_from((Fraction(1, 2), 1, Fraction(3, 2)))), k
    return factor, None, k


class TestShortVectors:
    @settings(max_examples=300, deadline=None)
    @given(_searches())
    def test_matches_recursive_search(self, search):
        factor, bound, k = search
        try:
            S, found, tried = recursive_short_vectors(factor, bound, SEARCH_CAP, k)
        except hm.EnumerationBudgetExceeded:
            with pytest.raises(hm.EnumerationBudgetExceeded):
                lattice._short_vectors(factor, bound, SEARCH_CAP, k)
            return
        # the same answer, and the same smallest budget that passes
        assert lattice._short_vectors(factor, bound, tried, k) == (S, found)
        with pytest.raises(hm.EnumerationBudgetExceeded):
            lattice._short_vectors(factor, bound, tried - 1, k)

    @pytest.mark.parametrize("n", SIZES)
    def test_every_k_on_a_skewed_basis(self, n):
        # Z^n in a badly reduced basis: each k tries up to a few thousand integers
        factor = hm.SpdMatrix.from_rows(skewed_unit_lattice(n, 3 if n <= 8 else 1, n)[1]).integer_ldl
        for k in range(n):
            S, found, tried = recursive_short_vectors(factor, None, 10**6, k)
            assert lattice._short_vectors(factor, None, tried, k) == (S, found)
            with pytest.raises(hm.EnumerationBudgetExceeded):
                lattice._short_vectors(factor, None, tried - 1, k)

    def test_twenty_coordinates_search(self):
        Y = hm.SpdMatrix(hm.identity(20))
        assert hm.enumerate_below(Y, 1) == [tuple(int(i == j) for i in range(20))
                                            for j in range(20)]

    def test_more_than_twenty_coordinates_refused(self):
        Y = hm.SpdMatrix(hm.identity(21))
        with pytest.raises(ValueError, match="at most 20 coordinates, got 21"):
            hm.enumerate_below(Y, 1)
