"""Every array computation of the package, and the one module that imports numpy.

The exact core (factors, determinants, inverses, lattice searches, JSON,
certificate tables) runs on Python integers and Fractions.  What is
float by nature goes through LAPACK here: the stacked symplectic
spectra, the sweeps' draws and both sides of their inequalities, the
spectral wrappers' eigenvalues and singular values, and ``to_numpy``.
A full symplectic spectrum comes from an ``svd`` of each skew matrix,
whose absolute accuracy the small d_k need.  Where only a top singular
value is read, d_n in the key inequality and s_1(A B) in Bhatia's, it
comes from one ``eigvalsh`` of scaled Gram matrices instead
(``_scaled_gram_eigenvalues``).  A spectrum past the float range
raises ``OverflowError``, never a NaN or an infinity.
No module imports this one when it loads; each public function that
needs arrays runs ``from . import _arrays`` when it is called, so a
command that computes no spectrum never loads numpy.  It imports only
numpy, ``errors`` and ``linalg``.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import PairingFailure, Singular
from .linalg import RATIONAL, DenseMatrix, SpdMatrix, _upper_kernel

PAIRING_TOL = 1e-6


def _to_numpy(m: DenseMatrix) -> np.ndarray:
    """m's entries as a float array, each rounded once."""
    if m.mode == RATIONAL:  # int / int rounds correctly, as float(Fraction) does
        return np.array([[x.numerator / x.denominator for x in r] for r in m.entries])
    return np.array(m.entries, dtype=float)


def _eigenvalues(m: DenseMatrix) -> tuple[float, ...]:
    """Eigenvalues of a symmetric m, ascending."""
    return tuple(float(v) for v in np.linalg.eigvalsh(_to_numpy(m)))


def _singular_values(m: DenseMatrix) -> tuple[float, ...]:
    """Singular values of a square m, descending."""
    return tuple(float(v) for v in np.linalg.svd(_to_numpy(m), compute_uv=False))


# --- symplectic spectra ------------------------------------------------

def _skew(F: np.ndarray) -> np.ndarray:
    """The skew matrices K = F^{-T} J F^{-1} of a stack of invertible factors F.

    Y^{-1} J, Y = F^T F, is similar to K, whose singular values are
    d_n, d_n, ..., d_1, d_1.  A factor singular in floating point raises
    ``Singular``; an entry of K past the float range (Y near 10^-308)
    raises ``OverflowError``.  The callers run it with numpy's overflow
    and invalid-value warnings off, since that case is refused here.
    """
    n = F.shape[-1] // 2
    try:
        inv = np.linalg.inv(F)
    except np.linalg.LinAlgError:
        raise Singular("factor is singular in floating point") from None
    # with F^{-1} = [P; Q] in n-row blocks, K = P^T Q - Q^T P exactly skew
    X = np.swapaxes(inv[..., :n, :], -1, -2) @ inv[..., n:, :]
    K = X - np.swapaxes(X, -1, -2)
    if not np.isfinite(K).all():
        raise OverflowError("symplectic spectrum is past the float range")
    return K


def _paired(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) = (s_1, s_3, ...), (s_2, s_4, ...) of a stack of descending
    singular values s of skew matrices, which come in equal pairs.

    A pair whose two values differ by more than ``PAIRING_TOL`` times the
    largest value of its matrix raises ``PairingFailure`` (numerical
    breakdown).  The tolerance is measured against the spectral scale:
    singular values carry absolute (not relative) roundoff of order
    eps * s_max.
    """
    hi, lo = s[..., 0::2], s[..., 1::2]
    mismatch = np.abs(hi - lo) > PAIRING_TOL * s[..., :1]
    if mismatch.any():
        idx = tuple(np.argwhere(mismatch)[0])
        raise PairingFailure(
            f"singular value pair {hi.shape[-1] - idx[-1]} mismatch: "
            f"{float(lo[idx])!r} vs {float(hi[idx])!r}"
        )
    return hi, lo


def _finite(d: np.ndarray) -> np.ndarray:
    """d itself when every value is finite, else ``OverflowError``."""
    if not np.isfinite(d).all():
        raise OverflowError("symplectic spectrum is past the float range")
    return d


def _symplectic_spectra(F: np.ndarray) -> np.ndarray:
    """Symplectic spectra of Y = F^T F for a stack of invertible factors F.

    Takes every singular value of the skew matrix K (``_skew``) from one
    ``svd``, which carries an absolute error of order eps * d_n, so the
    small d_k are as accurate as the large.  Returns an array of shape
    (..., n) with each row ascending, each d_k the mean of its pair
    (``_paired``).  A mean past the float range raises ``OverflowError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        hi, lo = _paired(np.linalg.svd(_skew(F), compute_uv=False))
        return _finite(((hi + lo) / 2.0)[..., ::-1])


def _top_symplectic(F: np.ndarray) -> np.ndarray:
    """d_n of Y = F^T F for a stack of invertible factors F.

    d_n = s_1(K) for the skew matrix K (``_skew``), taken as
    c sqrt(lambda_max) from one ``_scaled_gram_eigenvalues`` of the K
    stack: within a relative error of order 2n eps of the SVD's s_1(K),
    with no SVD.  Every eigenvalue comes in a pair d_k^2, d_k^2, and
    their square roots are checked by ``_paired``; the absolute error of
    sqrt(lambda) is about sqrt(eps) d_n, 1.5e-8 d_n, well inside
    ``PAIRING_TOL``.  A d_n past the float range raises ``OverflowError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c, lam = _scaled_gram_eigenvalues(_skew(F))
        # eigvalsh may return a pair near 0 slightly negative
        s = c[..., np.newaxis] * np.sqrt(np.maximum(lam, 0.0))[..., ::-1]
        return _finite(_paired(s)[0][..., 0])


def _upper_factors(Ys: Sequence[SpdMatrix]) -> np.ndarray:
    """Stack of upper-triangular R with Y = R^T R, in floats, one per Y.

    Read off the exact factor (den, minors, columns) each Y keeps: row k
    holds sign(v) sqrt(v^2 / (minors[k] minors[k+1] den)), with v =
    minors[k+1] on the diagonal and v = columns[k][i - k - 1] at i > k.
    Each entry is one correctly rounded integer quotient, at most y_ii,
    and one square root.  A y_ii past the float range raises
    ``OverflowError``; there is no other failure branch.  The Ys are of
    equal size n, and one ``linalg._upper_kernel(n)``, generated the first
    time n is used, reads every member.
    """
    upper = _upper_kernel(Ys[0].n)
    return np.array([upper(*Y.integer_ldl) for Y in Ys])


def _spectra(Ys: Sequence[SpdMatrix]) -> list[tuple[float, ...]]:
    """Each Y's symplectic spectrum, ascending, from one ``_upper_factors``
    and one ``_symplectic_spectra`` of the stack of all of Ys."""
    return [tuple(row) for row in _symplectic_spectra(_upper_factors(Ys)).tolist()]


# --- the inequalities ----------------------------------------------------

def _scaled_gram_eigenvalues(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, lambda) for a stack of square M: c is each M's largest |entry|
    (1 when M = 0), and lambda the ascending eigenvalues of K^T K, K = M / c,
    from one ``eigvalsh`` of the stack, so s_1(M) = c sqrt(lambda_max).

    The top eigenvalue of a Gram matrix is as accurate as the top
    singular value, a relative error of order N^2 eps for N x N M (Golub
    and Van Loan, Matrix Computations, 8.6).  The scaling keeps K's
    entries in [-1, 1] with one of them +-1, so lambda_max lies in
    [1, N^2]: the Gram matrix neither overflows nor underflows, and
    c sqrt(lambda_max) is finite wherever s_1(M) is.
    """
    c = np.abs(M).max(axis=(-2, -1), keepdims=True)
    c[c == 0.0] = 1.0
    K = M / c
    return c[..., 0, 0], np.linalg.eigvalsh(np.swapaxes(K, -1, -2) @ K)


def _key_inequality_sides(Y: np.ndarray, F: np.ndarray, G: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the key inequality for stacks of Y = F^T F and factors G.

    F is any invertible factor of Y.  The pullback G^T Y G has the factor
    F G, so neither Gram matrix of G is ever formed.  lambda_max(Y) comes
    from one ``eigvalsh`` of the Y stack, and d_n(G^T G) and d_n(G^T Y G)
    from one ``_top_symplectic`` of the stack (G, F G): one stacked
    ``eigvalsh`` and no SVD, each d_n within a relative error of order
    2n eps of the SVD's.  LAPACK treats each matrix on its own, so both
    sides are the bits that separate calls give.  A d_n past the float
    range raises ``OverflowError``; the lhs is at most the rhs.
    """
    lam_max = np.linalg.eigvalsh(Y)[..., -1]
    d_max = _top_symplectic(np.stack((G, F @ G)))
    return d_max[0] / lam_max, d_max[1]


def _key_inequality(Y: SpdMatrix, G: DenseMatrix) -> tuple[float, float]:
    """``_key_inequality_sides`` of one Y, factored as in ``_upper_factors``, and G."""
    lhs, rhs = _key_inequality_sides(_to_numpy(Y.matrix), _upper_factors([Y])[0], _to_numpy(G))
    return float(lhs), float(rhs)


def _bhatia_sides(A: np.ndarray, B: np.ndarray, i1: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """s_{i1}(A) s_{N - i1 + 1}(B) and s_1(A B) for stacks of N x N factors.

    The lhs reads one ``svd`` of the stack of every A and then every B;
    LAPACK treats each matrix on its own, so it is the product of the
    per-matrix singular values, bit for bit.  The rhs is s_1(A B) as
    c sqrt(lambda_max) from one ``_scaled_gram_eigenvalues`` of the stack
    of products, finite wherever s_1(A B) is.  A side past the float range
    (A B or a singular value beyond 10^308) raises ``OverflowError``.
    """
    N = A.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.linalg.svd(np.concatenate((A, B)), compute_uv=False)
        rows = np.arange(len(i1))
        lhs = s[rows, i1 - 1] * s[len(A) + rows, N - i1]
        c, lam = _scaled_gram_eigenvalues(A @ B)
        rhs = c * np.sqrt(lam[:, -1])
        # both sides are nonnegative, so their difference is finite exactly when both are
        if not np.isfinite(lhs - rhs).all():
            raise OverflowError("singular values are past the float range")
    return lhs, rhs


def _bhatia_k1(A: DenseMatrix, B: DenseMatrix, i1: int) -> tuple[float, float]:
    """``_bhatia_sides`` on stacks of one."""
    lhs, rhs = _bhatia_sides(_to_numpy(A)[np.newaxis], _to_numpy(B)[np.newaxis],
                             np.array([i1]))
    return float(lhs[0]), float(rhs[0])


# --- the sweeps ----------------------------------------------------------

# samples laid out per pass of _draw_samples: a redraw repeats at most this
# many samples' conversion, and the pass's temporary arrays stay small
_DRAW_WINDOW = 256


def _words(rng: random.Random, n: int) -> np.ndarray:
    """The generator's next n 32-bit outputs, in order.

    Word i of ``getrandbits(32 n)``, counted from the least significant
    end, is the i-th output on either byte order, so these are the words
    that ``random()`` and ``getrandbits(k <= 32)`` would read one by one.
    """
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4")


def _draw_samples(rng: random.Random, dim: int, samples: int,
                  bounds: Sequence[float], index: bool = False
                  ) -> tuple[list[np.ndarray], np.ndarray]:
    """The sweeps' samples, exactly as ``rng`` draws them one value at a time.

    A sample is one dim x dim matrix per bound b, with entries
    ``rng.uniform(-b, b)`` row by row, each matrix redrawn while
    |det| <= 1e-3; then, when `index` is set, ``rng.randrange(1, dim + 1)``.
    The words are fetched in bulk and turned into values by CPython's own
    operations: ``random()`` is ((w0 >> 5) * 2^26 + (w1 >> 6)) / 2^53,
    ``uniform(a, b)`` is a + (b - a) * random(), and each ``randrange``
    try keeps the top bits of one word, rejected while they reach dim.

    Up to ``_DRAW_WINDOW`` of the remaining samples are laid out as if
    nothing is redrawn and their determinants taken as one stack.  The
    matrices before the first small determinant are kept, and the layout
    resumes from the word just after the rejected matrix.  Returns one
    (samples, dim, dim) stack per bound and the (samples,) array of
    indices, left unset without `index`.
    """
    fields = len(bounds)
    per = 2 * dim * dim  # words per matrix, two per uniform()
    stride = fields * per  # matrix words per sample
    shift = 32 - dim.bit_length()
    b = np.array(bounds)[:, None]
    span = b - -b  # uniform(-b, b) is -b + (b - -b) * random()
    out = np.empty((samples * fields, dim, dim))
    picks = np.empty(samples, dtype=int)
    # a randrange takes at most two tries per sample on average; one
    # spare sample's words cover a redraw or two
    words = _words(rng, samples * (stride + 3 * index) + stride)
    i, f, s = 0, 0, 0  # first sample not done, its first field not done, its start word
    while i < samples:
        m = min(samples - i, _DRAW_WINDOW)
        if index:
            # each try is a Python int read through a memoryview: a numpy
            # scalar and a numpy setitem per sample cost more than the try
            starts, drawn, view = [], [], memoryview(words)
            end = len(view)
            for k in range(m):
                t = s + stride
                while t >= end or view[t] >> shift >= dim:
                    if t < end:
                        t += 1
                    else:
                        words = np.concatenate((words, _words(rng, (m - k) * (stride + 3))))
                        view = memoryview(words)
                        end = len(view)
                starts.append(s)
                drawn.append(1 + (view[t] >> shift))
                s = t + 1
            starts, drawn = np.array(starts, dtype=np.intp), np.array(drawn)
            # row p of this view is words[p:p + stride]; every start is below
            # a kept try, so its row lies inside the buffer
            w = as_strided(words, (len(words) - stride + 1, stride), words.strides * 2,
                           writeable=False)[starts]
        else:
            starts = s + stride * np.arange(m)
            if s + m * stride > len(words):
                words = np.concatenate((words, _words(rng, s + m * stride - len(words))))
            w = words[s:s + m * stride]
            s += m * stride
        w = w.reshape(m, fields, per)
        u = (w[..., 0::2] >> 5) * 67108864.0
        u += w[..., 1::2] >> 6
        u *= 1.0 / 9007199254740992.0
        u *= span
        u -= b  # the same IEEE sum as -b + u
        mats = u.reshape(m * fields, dim, dim)
        bad = np.abs(np.linalg.det(mats)) <= 1e-3
        bad[:f] = False  # fields of sample i kept by an earlier pass
        hits = np.flatnonzero(bad)
        first = int(hits[0]) if len(hits) else m * fields
        out[i * fields + f:i * fields + first] = mats[f:first]
        if index:
            picks[i:i + first // fields] = drawn[:first // fields]
        if first == m * fields:
            i, f = i + m, 0
        else:
            # the rejected matrix's field now starts one matrix later
            k, f = divmod(first, fields)
            i, s = i + k, int(starts[k]) + per
    return list(out.reshape(samples, fields, dim, dim).swapaxes(0, 1)), picks


def _key_sweep(dim: int, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the key inequality on ``key_inequality_sweep``'s samples;
    the drawn B is Y's factor, so Y is never factored."""
    (B, G), _ = _draw_samples(random.Random(seed), dim, samples,
                              (math.sqrt(10.0 / dim), 10.0))
    return _key_inequality_sides(np.swapaxes(B, -1, -2) @ B, B, G)


def _bhatia_sweep(dim: int, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the k = 1 inequality on ``bhatia_sweep``'s samples."""
    (A, B), i1 = _draw_samples(random.Random(seed), dim, samples, (10.0, 10.0),
                               index=True)
    return _bhatia_sides(A, B, i1)


def _tally(lhs: np.ndarray, rhs: np.ndarray, slack: float) -> tuple[int, int, float]:
    """(total, held, worst slack) of lhs <= rhs + slack max(1, |rhs|) over
    stacks of both sides, the rule of ``InequalityReport``."""
    holds = lhs <= rhs + slack * np.maximum(1.0, np.abs(rhs))
    return len(lhs), int(holds.sum()), float((rhs - lhs).min(initial=math.inf))
