"""Generalized eigenpair extraction by block shift-invert Lanczos on the
spectral transformation K^-1 M, K = S - sigma M (Ericsson & Ruhe 1980), which
is self-adjoint in the M inner product and maps the lowest eigenvalues
lambda to its largest, theta = 1 / (lambda - sigma). K is positive definite
for a shift below the spectrum and is factored once as a banded Cholesky
(``core.banded_cholesky``). Every sum over the unknowns is an ``np.einsum``,
which calls no BLAS, and the projected problem goes to LAPACK's banded
bisection, which threads nothing, so the results are the same bytes at any
BLAS thread count. ``scipy.linalg`` is imported where it is called.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import NoConvergence, ShiftInsideSpectrum
from .core import EigenResult, OperatorPair, banded_cholesky

__all__ = ["lowest_eigenpairs"]

_TOL = 1e-8
# Lanczos vectors a solve may hold; the shipped runs use up to 61 (criterion 6)
_MAX_BASIS = 200
# a new vector with less than this fraction left after its orthogonalisation
# adds nothing: the Krylov space is invariant
_INVARIANT = 1e-12


def _extend(V, MV, m, W, M, lo):
    """Appends the rows of W, M-orthonormalized by two classical Gram-Schmidt
    passes, to the basis V[:m] with M-images MV[:m] while they are
    independent and there is room; returns their coefficients C on the new
    basis V[:m_new] (W = C^T V[:m_new] for the rows kept) and m_new. The
    first pass against V[:m] runs over the rows from ``lo`` on, which hold
    all of W's projection in exact arithmetic (the Lanczos recurrence)."""
    top = m
    C = np.zeros((min(m + len(W), len(V)), len(W)))
    for a in (lo, 0):
        D = np.einsum("ij,lj->il", MV[a:top], W)
        W -= np.einsum("il,ij->lj", D, V[a:top])
        C[a:top] += D
    for l, w in enumerate(W):
        for _ in range(2 if m > top else 0):  # against the rows of W appended
            d = np.einsum("ij,j->i", MV[top:m], w)
            w -= np.einsum("ij,i->j", V[top:m], d)
            C[top:m, l] += d
        Mw = M @ w
        beta = math.sqrt(np.einsum("i,i->", w, Mw))
        if m < len(V) and beta > _INVARIANT * math.hypot(beta, *C[:m, l]):
            np.divide(w, beta, out=V[m])
            np.divide(Mw, beta, out=MV[m])
            C[m, l] = beta
            m += 1
    return C[:m], m


def lowest_eigenpairs(
    pair: OperatorPair, k: int, sigma: float = -1.0, start: np.ndarray | None = None
) -> EigenResult:
    """k smallest eigenpairs of S v = lambda M v, mass-normalized, with the
    first entry of each vector above 1e-12 of its largest made positive.

    The start block (Golub & Underwood 1977), which finds a level of
    multiplicity up to k as often as it occurs, is k draws of the 0x5EED
    stream, the first replaced by ``start`` (a nonzero finite vector over the
    pair's unknowns) when given: a start near the ground state, such as the
    previous frame's eigenvector, saves most of the solves, which
    ``iterations`` counts. The projected matrix is read off the
    orthogonalisation coefficients. A Ritz vector V^T y purified by its
    Krylov remainder r = K^-1 M V^T y - theta V^T y, x = V^T y + r / theta,
    has S x - lambda M x = -M r / theta^2. The iteration stops when every
    such residual relative to |M x| is at most 1e-8 max(|lambda|, 1), when
    the Krylov space is invariant or when the basis holds ``_MAX_BASIS``
    vectors. The eigenvalues sigma + 1 / theta keep the e^s cancellation in
    a late frame's S out. ``NoConvergence`` names the largest true residual
    above 100 times that tolerance; an asymmetric pair raises
    ``LinearSolveFailure``, one off its grid's structure ``GridMisaligned``,
    and a shift inside the spectrum ``ShiftInsideSpectrum``.
    """
    from scipy.linalg import LinAlgError, cho_solve_banded, eig_banded

    S, M = pair.S, pair.M
    n = S.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, n], with n = {n} unknowns in the pair, not k = {k}")
    if start is not None:
        start = np.asarray(start, float)
        if start.shape != (n,):
            raise ValueError(f"start must have the pair's {n} entries, not shape {start.shape}")
        if not np.all(np.isfinite(start)) or not np.any(start):
            raise ValueError("start must be finite and nonzero")
    try:
        factor = banded_cholesky(pair.shifted(sigma), pair.grid)
    except LinAlgError as exc:
        raise ShiftInsideSpectrum(
            f"(S - sigma M) is not positive definite for sigma = {sigma}: {exc}"
        ) from exc

    # |M x| <= mass |x|_M, by Gershgorin's bound on the largest eigenvalue of M
    mass = math.sqrt(np.add.reduceat(abs(M.data), M.indptr[:-1]).max())
    # room for 16 blocks first, the size a warm solve needs: freeing arrays of
    # size rows raises glibc's mmap threshold, which keeps the memory of later
    # temporaries in the heap, and a fresh mapping's pages fault when written
    size = min(n, max(_MAX_BASIS, k))
    rows = min(size, 16 * k)
    V, MV, H = np.empty((rows, n)), np.empty((rows, n)), np.zeros((rows, rows))
    block = np.random.default_rng(0x5EED).standard_normal((k, n))
    if start is not None:
        block[0] = start
    m = _extend(V, MV, 0, block, M, 0)[1]
    last = q = solves = 0  # V[last:q] is the last block multiplied by K^-1 M
    while True:
        if len(V) < min(size, 2 * m - q):  # no room for the images of V[q:m]
            grown = np.empty((size, n)), np.empty((size, n)), np.zeros((size, size))
            for new, old in zip(grown, (V, MV, H)):
                new[:len(old), :old.shape[1]] = old
            V, MV, H = grown
        W = cho_solve_banded((factor, False), MV[q:m].T, check_finite=False).T
        solves += m - q
        C, top = _extend(V, MV, m, W, M, last)
        H[:top, q:m] = C  # H[i, j] = (v_i, K^-1 M v_j)_M
        last, q, m = q, m, top
        # banded k wide, but for the second pass's round-off, left out
        band = np.zeros((min(k, q - 1) + 1, q))
        for d in range(len(band)):
            band[-1 - d, d:] = (np.diagonal(H[:q, :q], d) + np.diagonal(H[:q, :q], -d)) / 2
        theta, Y = eig_banded(band, select="i", select_range=(q - k, q - 1))
        theta, Y = theta[::-1], Y[:, ::-1]
        lam = sigma + 1.0 / theta
        tol = _TOL * np.maximum(abs(lam), 1.0)
        ry = np.einsum("ij,jl->il", H[q:m, :q], Y)  # r = V[q:m]^T ry
        Mr = np.einsum("il,ij->jl", ry, MV[q:m])
        err = np.sqrt(np.einsum("il,il->l", Mr, Mr)) / theta**2
        xm = np.sqrt(1.0 + np.einsum("il,il->l", ry, ry) / theta**2)  # |x|_M
        if np.all(err <= tol * mass * xm):
            Mx = np.einsum("il,ij->jl", Y, MV[:q]) + Mr / theta
            if np.all(err <= tol * np.sqrt(np.einsum("il,il->l", Mx, Mx))):
                break

    x = (np.einsum("ij,il->jl", V[:q], Y) + np.einsum("il,ij->jl", ry, V[q:m]) / theta) / xm
    big = np.abs(x) > 1e-12 * np.abs(x).max(axis=0)
    x *= np.where(x[big.argmax(axis=0), range(k)] < 0.0, -1.0, 1.0)
    Mx = M @ x
    R = S @ x - lam * Mx
    residuals = np.sqrt(np.einsum("il,il->l", R, R) / np.einsum("il,il->l", Mx, Mx))
    gate = _TOL * max(abs(lam).max(), 1.0) * 100
    if np.any(residuals > gate):
        raise NoConvergence(
            f"eigensolver did not converge with {q} Lanczos vectors (largest residual "
            f"{residuals.max():.3e}, tolerance {gate:.3e})"
        )
    return EigenResult(eigenvalues=lam, eigenvectors=x, residuals=residuals, iterations=solves)
