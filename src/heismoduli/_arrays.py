"""Every array computation of the package, and the one module that imports numpy.

The exact core (factors, determinants, inverses, lattice searches, JSON,
certificate tables) runs on Python integers and Fractions, and so do
the full symplectic spectra at n <= 2 (``heisenberg._exact_spectrum``).
What is float by nature goes through LAPACK here: the stacked symplectic
spectra from n = 3, the sweeps' draws and both sides of their
inequalities, the spectral wrappers' eigenvalues and singular values,
and ``to_numpy``.  A full spectrum from n = 3 comes from an ``svd`` of
each skew matrix, whose absolute accuracy the small d_k need, and its
pairs are checked by ``_paired``.  Where only a top singular
value is read, it runs no SVD: d_n in the key inequality is read off
F J F^T and the caller's det F at n <= 2, with no ``inv``; from n = 3 it
inverts F and takes one ``eigvalsh`` of scaled Gram matrices of the skew
matrices F^{-T} J F^{-1} (``_top_symplectic``).  s_1(A B) in Bhatia's comes
from one ``eigvalsh`` (``_scaled_gram_eigenvalues``).  A spectrum past
the float range raises ``OverflowError``, never a NaN or an infinity.
Each sweep draws from a generator of its own, one window of
``_DRAW_WINDOW`` at a time (``_windows``).  One determinant, ``_det``,
is taken once per drawn matrix: the draw's redraw rule reads it, and the
key sweep's d_n at n <= 2 reuse it, det(B G) as det B det G; the
verifier takes its own of G and R G.
No module imports this one when it loads; each public function that
needs arrays runs ``from . import _arrays`` when it is called, so a
command that computes no spectrum never loads numpy.  It imports only
numpy, ``errors`` and ``linalg``.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, Sequence

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


def _det(F: np.ndarray) -> np.ndarray:
    """Determinants of a stack of N x N matrices F: F itself at N = 1,
    ad - bc at N = 2, and at N = 4 two steps of Gaussian elimination with
    partial pivoting, then ad - bc of the 2 x 2 block left, backward stable
    as LAPACK's LU is.  Other sizes (6 in both draws, 3 and 5 only in the
    Bhatia draw) call ``det``, whose exp(sum log |u_ii|) is inexact even on
    integer diagonals.  Below size 6 a matrix scaled by 2^-e has its
    determinant scaled by exactly 2^(-N e), short of leaving the normal
    floats."""
    N = F.shape[-1]
    if N == 1:
        return F[..., 0, 0]
    if N == 2:
        return F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
    if N != 4:
        return np.linalg.det(F)
    # row k swaps with the row p of the largest |entry| in column k, which
    # takes row k negated so det keeps its sign; a zero pivot divides by 1
    U = np.moveaxis(F.reshape(-1, 4, 4), 0, -1).copy()  # U[i, j]: every entry (i, j)
    cols = np.arange(U.shape[-1])
    for k in range(2):
        p = k + np.abs(U[k:, k]).argmax(axis=0)
        U[p, :, cols], U[k] = -U[k].T, U[p, :, cols].T
        pivot = U[k, k]
        m = U[k + 1:, k] / np.where(pivot == 0.0, 1.0, pivot)
        U[k + 1:, k + 1:] -= m[:, np.newaxis] * U[k, k + 1:]
    return (U[0, 0] * U[1, 1] * (U[2, 2] * U[3, 3] - U[2, 3] * U[3, 2])).reshape(F.shape[:-2])


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


def _pow2_scaled(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, F / 2^e) for a stack of matrices F: e, of shape (...), is the
    integer exponent that puts each F's largest |entry| into [1/2, 1)."""
    e = np.frexp(np.abs(F).max(axis=(-2, -1)))[1]
    return e, np.ldexp(F, -e[..., np.newaxis, np.newaxis])


def _top_symplectic(F: np.ndarray, det: tuple[np.ndarray, np.ndarray] | None
                    ) -> np.ndarray:
    """d_n of Y = F^T F for a stack of 2n x 2n invertible factors F.

    At n <= 2 it reads d_n off F J F^T and det F, with no ``inv``: K =
    -(F J F^T)^{-1} (``_skew``) and Pf(F J F^T) = det F, so the singular
    values of S = F J F^T are s_1, s_1, s_2, s_2 with s_1 s_2 = |det F|.
    det = (m, k) is the caller's: m the determinant of F / 2^k, for
    integers k that broadcast against m and keep m inside the float range
    (0 for the sweeps' draws).  No determinant is taken here, and a zero
    m raises ``Singular``.  It is not read at n >= 3, where it may be None.

    - n = 1: d_1 = 1 / |det F| = 2^{-2k} / |m|.
    - n = 2: with F = [P | Q] in n-column blocks, S = P Q^T - Q P^T is
      exactly skew, and d_2 = s_1(S) / |det F|.  Each F is first scaled
      by 2^{-e}, its largest |entry| into [1/2, 1) (``_pow2_scaled``), so
      S does not leave the float range where d_2 is inside it, and d_2 is
      s_1(S) / |m| times 2^{2e - 4k}, one ``ldexp`` at the end: the bits
      ``_det`` of the scaled F would give, since a scaling by 2^{-e}
      scales that determinant exactly.  so(4) = su(2) + su(2) splits
      S / c (``_scaled``) into a self-dual and an anti-self-dual part,
      with norms a and b (``_norm3``), and s_1(S / c) = (a + b) / 2,
      within a few ulp of s_1 also when d_1 = d_2.
    - n >= 3: c sqrt(lambda_max) of the skew matrix
      K (``_skew``) from one ``_scaled_gram_eigenvalues`` of the K stack,
      within a relative error of order 2n eps of the SVD's s_1(K).  Every
      eigenvalue comes in a pair d_k^2, d_k^2, and their square roots are
      checked by ``_paired``, which raises ``PairingFailure``; the
      absolute error of sqrt(lambda) is about sqrt(eps) d_n, 1.5e-8 d_n,
      well inside ``PAIRING_TOL``.

    No size runs an SVD.  A factor singular in floating point raises
    ``Singular``, and a d_n past the float range ``OverflowError``.
    """
    n = F.shape[-1] // 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if n >= 3:
            c, lam = _scaled_gram_eigenvalues(_skew(F))
            # eigvalsh may return a pair near 0 slightly negative
            s = c[..., np.newaxis] * np.sqrt(np.maximum(lam, 0.0))[..., ::-1]
            return _finite(_paired(s)[0][..., 0])
        m, k = det
        if not m.all():
            raise Singular("factor is singular in floating point")
        if n == 1:
            return _finite(np.ldexp(1.0 / np.abs(m), -2 * k))
        e, F = _pow2_scaled(F)
        X = F[..., :, :2] @ np.swapaxes(F[..., :, 2:], -1, -2)
        c, w = _scaled(X - np.swapaxes(X, -1, -2))
        # w is exactly skew, so w_31 = -w_13: u + v and u - v are
        # (w01 + w23, w02 - w13, w03 + w12) and (w01 - w23, w02 + w13, w03 - w12)
        u, v = w[..., (0, 0, 0), (1, 2, 3)], w[..., (2, 3, 1), (3, 1, 2)]
        d = c[..., 0, 0] * ((_norm3(u + v) + _norm3(u - v)) * 0.5) / np.abs(m)
        # S of F / 2^e is 2^{-2e} times F's, and det F is m 2^{4k}
        return _finite(np.ldexp(d, 2 * e - 4 * k))


def _top_singular_2x2(M: np.ndarray) -> np.ndarray:
    """s_1 of a stack of 2 x 2 matrices M, in closed form:
    (hypot(m00 + m11, m10 - m01) + hypot(m00 - m11, m01 + m10)) / 2."""
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    return (np.hypot(a + d, c - b) + np.hypot(a - d, b + c)) * 0.5


def _norm3(w: np.ndarray) -> np.ndarray:
    """Euclidean norms of a stack of 3-vectors, each summed in one fixed
    order, so a vector's norm does not depend on the stack it is in."""
    x, y, z = w[..., 0], w[..., 1], w[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def _upper_factors(Ys: Sequence[SpdMatrix]) -> np.ndarray:
    """Stack of upper-triangular R with Y = R^T R, in floats, one per Y.

    Read off the exact factor (den, minors, columns) each Y keeps: row k
    holds sign(v) sqrt(v^2 / (minors[k] minors[k+1] den)), with v =
    minors[k+1] on the diagonal and v = columns[k][i - k - 1] at i > k.
    Each entry is one correctly rounded integer quotient, at most y_ii,
    and one square root.  A y_ii past the float range raises
    ``OverflowError`` with the message ``heisenberg._exact_spectrum``
    gives at sizes 2 and 4; there is no other failure branch.  The Ys are
    of equal size n, and one ``linalg._upper_kernel(n)``, generated the
    first time n is used, reads every member.
    """
    upper = _upper_kernel(Ys[0].n)
    try:
        return np.array([upper(*Y.integer_ldl) for Y in Ys])
    except OverflowError:  # an integer quotient too large for a float
        raise OverflowError("Gram matrix entry is past the float range") from None


def _spectra(Ys: Sequence[SpdMatrix]) -> list[tuple[float, ...]]:
    """Each Y's symplectic spectrum, ascending, from one ``_upper_factors``
    and one ``_symplectic_spectra`` of the stack of all of Ys, for
    ``heisenberg._d_spectra`` at size 6 and up."""
    return [tuple(row) for row in _symplectic_spectra(_upper_factors(Ys)).tolist()]


# --- the inequalities ----------------------------------------------------

def _scaled(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, M / c) for a stack of matrices M: c, of shape (..., 1, 1), is
    each M's largest |entry|, or 1 when M = 0, so M / c has its entries
    in [-1, 1]."""
    c = np.abs(M).max(axis=(-2, -1), keepdims=True)
    c[c == 0.0] = 1.0
    return c, M / c


def _scaled_gram_eigenvalues(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, lambda) for a stack of square M: c is each M's largest |entry|
    (1 when M = 0), and lambda the ascending eigenvalues of K^T K, K = M / c
    (``_scaled``), from one ``eigvalsh`` of the stack, so
    s_1(M) = c sqrt(lambda_max).

    The top eigenvalue of a Gram matrix is as accurate as the top
    singular value, a relative error of order N^2 eps for N x N M (Golub
    and Van Loan, Matrix Computations, 8.6).  The scaling keeps K's
    entries in [-1, 1] with one of them +-1, so lambda_max lies in
    [1, N^2]: the Gram matrix neither overflows nor underflows, and
    c sqrt(lambda_max) is finite wherever s_1(M) is.
    """
    c, K = _scaled(M)
    return c[..., 0, 0], np.linalg.eigvalsh(np.swapaxes(K, -1, -2) @ K)


def _key_inequality_sides(F: np.ndarray, G: np.ndarray,
                          det: tuple[np.ndarray, np.ndarray] | None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the key inequality for stacks of factors F of Y and G.

    F is any invertible factor of Y = F^T F.  The pullback G^T Y G has
    the factor F G, so neither Gram matrix of G is ever formed: d_n(G^T G)
    and d_n(G^T Y G) come from one ``_top_symplectic`` of the stack
    (G, F G), which reads the caller's determinants of that stack, det =
    (m, k) as ``_top_symplectic`` takes it, and no determinant is taken
    here.  lambda_max(Y) is s_1(F)^2 in closed form at dim 2, and from
    one ``eigvalsh`` of the F^T F stack from dim 4.  No SVD runs, and no
    ``inv`` or LAPACK ``det`` at n <= 2.  Every value is computed matrix
    by matrix, so both sides are the bits that separate calls give.  A
    d_n past the float range raises ``OverflowError``, a broken eigenvalue
    pair at n >= 3 ``PairingFailure``; the lhs is at most the rhs.
    """
    d_max = _top_symplectic(np.stack((G, F @ G)), det)
    if F.shape[-1] == 2:
        s = _top_singular_2x2(F)
        lam_max = s * s
    else:
        lam_max = np.linalg.eigvalsh(np.swapaxes(F, -1, -2) @ F)[..., -1]
    return d_max[0] / lam_max, d_max[1]


def _key_inequality(Y: SpdMatrix, G: DenseMatrix) -> tuple[float, float]:
    """``_key_inequality_sides`` of one Y, factored as in ``_upper_factors``
    into R, and G: lambda_max(Y) is read off R^T R, as the sweeps read it
    off B^T B.  At n <= 2 its determinants are the ``_det`` of G and R G,
    each scaled as ``_top_symplectic`` scales it (``_pow2_scaled``), so
    neither leaves the float range where d_n is inside it, and neither is
    a product of two rounded determinants: the bits ``_top_symplectic``
    read when it took them itself.  From n = 3, where d_n reads no
    determinant, none is taken."""
    R, Gf = _upper_factors([Y])[0], _to_numpy(G)
    det = None
    if Y.n <= 4:
        e, scaled = _pow2_scaled(np.stack((Gf, R @ Gf)))
        det = _det(scaled), e
    lhs, rhs = _key_inequality_sides(R, Gf, det)
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

# samples drawn and checked per window of a sweep: every array a sweep
# holds, and the conversion a redraw repeats, is at most this many
# samples long, whatever the number of samples
_DRAW_WINDOW = 256


def _words(rng: random.Random, n: int) -> np.ndarray:
    """The generator's next n 32-bit outputs, in order.

    Word i of ``getrandbits(32 n)``, counted from the least significant
    end, is the i-th output on either byte order, so these are the words
    that ``random()`` and ``getrandbits(k <= 32)`` would read one by one.
    """
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4")


def _windows(seed: int, dim: int, samples: int, bounds: Sequence[float], index: bool = False
             ) -> Iterator[tuple[list[np.ndarray], list[np.ndarray], np.ndarray]]:
    """The sweeps' samples, exactly as ``random.Random(seed)`` draws them
    one value at a time, in windows of ``_DRAW_WINDOW`` samples.

    A sample is one dim x dim matrix per bound b, with entries
    ``uniform(-b, b)`` row by row, each matrix redrawn while |``_det``|
    <= 1e-3; then, when `index` is set, ``randrange(1, dim + 1)``.
    The words are fetched in bulk and turned into values by CPython's own
    operations: ``random()`` is ((w0 >> 5) * 2^26 + (w1 >> 6)) / 2^53,
    ``uniform(a, b)`` is a + (b - a) * random(), and each ``randrange``
    try keeps the top bits of one word, rejected while they reach dim.

    A window's remaining samples are laid out as if nothing is redrawn,
    with their determinants as one stack; the matrices before the first
    small one are kept, and the layout resumes from the word just after
    the rejected matrix.  Each layout first tops the words up to the least
    it reads, counting two ``randrange`` tries per sample; a try walk that
    runs past them fetches the rest, and a window's unread words are the
    next one's.  A window is one (samples, dim, dim) stack per bound, the
    (samples,) ``_det`` values the redraw rule read of each stack's
    matrices, and the (samples,) indices, unset without `index`.
    """
    rng = random.Random(seed)
    fields = len(bounds)
    per = 2 * dim * dim  # words per matrix, two per uniform()
    stride = fields * per  # matrix words per sample
    reads = stride + 2 * index  # the least words per sample the top-up counts
    shift = 32 - dim.bit_length()
    b = np.array(bounds)[:, None]
    span = b - -b  # uniform(-b, b) is -b + (b - -b) * random()
    words, s = _words(rng, min(samples, _DRAW_WINDOW) * reads), 0  # s: next sample's start
    for done in range(0, samples, _DRAW_WINDOW):
        n = min(samples - done, _DRAW_WINDOW)
        out = np.empty((n * fields, dim, dim))
        out_det = np.empty(n * fields)
        picks = np.empty(n, dtype=int)
        i, f = 0, 0  # first sample not done, its first field not done
        while True:
            m = n - i
            if s + m * reads > len(words):  # fetch the shortfall
                words = np.concatenate((words, _words(rng, s + m * reads - len(words))))
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
                        else:  # the top-up's count for this sample and each later one
                            words = np.concatenate((words, _words(rng, (m - k) * reads)))
                            view = memoryview(words)
                            end = len(view)
                    starts.append(s)
                    drawn.append(1 + (view[t] >> shift))
                    s = t + 1
                # row p of this view is words[p:p + stride]; every start is below
                # a kept try, so its row lies inside the buffer
                w = as_strided(words, (len(words) - stride + 1, stride), words.strides * 2,
                               writeable=False)[starts]
            else:
                starts = s + stride * np.arange(m)
                w = words[s:s + m * stride]
                s += m * stride
            w = w.reshape(m, fields, per)
            u = (w[..., 0::2] >> 5) * 67108864.0
            u += w[..., 1::2] >> 6
            u *= 1.0 / 9007199254740992.0
            u *= span
            u -= b  # the same IEEE sum as -b + u
            mats = u.reshape(m * fields, dim, dim)
            dets = _det(mats)
            bad = np.abs(dets) <= 1e-3
            bad[:f] = False  # fields of sample i kept by an earlier pass
            hits = np.flatnonzero(bad)
            first = int(hits[0]) if len(hits) else m * fields
            out[i * fields + f:i * fields + first] = mats[f:first]
            out_det[i * fields + f:i * fields + first] = dets[f:first]
            if index:
                picks[i:i + first // fields] = drawn[:first // fields]
            if first == m * fields:
                break
            # the rejected matrix's field now starts one matrix later
            k, f = divmod(first, fields)
            i, s = i + k, int(starts[k]) + per
        # keep only the unread words, and let the layout's arrays go before the
        # caller checks the window: held through the yield, they slowed the checks
        words, s = words[s:].copy(), 0
        del w, u, mats, dets
        yield (list(out.reshape(n, fields, dim, dim).swapaxes(0, 1)),
               list(out_det.reshape(n, fields).T), picks)


def _key_sweep(dim: int, samples: int, seed: int
               ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Both sides of the key inequality on ``key_inequality_sweep``'s
    samples, one window of ``_windows`` at a time, for ``_tally``.  The
    drawn B is Y's factor, so Y is never factored, and the draw's own
    determinants serve d_n at n <= 2: det G, and det(B G) as det B det G,
    each with k = 0, since a drawn entry is at most 10 in size."""
    for (B, G), (det_B, det_G), _ in _windows(seed, dim, samples,
                                              (math.sqrt(10.0 / dim), 10.0)):
        yield _key_inequality_sides(B, G, (np.stack((det_G, det_B * det_G)), 0))


def _bhatia_sweep(dim: int, samples: int, seed: int
                  ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Both sides of the k = 1 inequality on ``bhatia_sweep``'s samples, one
    window of ``_windows`` at a time, for ``_tally``."""
    for (A, B), _, i1 in _windows(seed, dim, samples, (10.0, 10.0), index=True):
        yield _bhatia_sides(A, B, i1)


def _tally(windows: Iterable[tuple[np.ndarray, np.ndarray]], slack: float
           ) -> tuple[int, int, float]:
    """(total, held, worst slack) of lhs <= rhs + slack max(1, |rhs|), the
    rule of ``InequalityReport``, over each window's stacks of both sides.

    Totals and helds add up and the worst slack is the least of the
    windows', the same numbers one stack of every sample gives; a window
    is let go once it is counted, so a sweep holds one at a time.
    """
    total, held, worst = 0, 0, math.inf
    for lhs, rhs in windows:
        total += len(lhs)
        held += int((lhs <= rhs + slack * np.maximum(1.0, np.abs(rhs))).sum())
        worst = min(worst, float((rhs - lhs).min(initial=math.inf)))
    return total, held, worst
