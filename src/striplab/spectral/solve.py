"""Generalized eigenpair extraction by shift-invert iteration.

The shifted matrix S - sigma M is symmetric positive definite when the shift
lies strictly below the spectrum, so it is factored once as a banded
Cholesky. Its CSR data is formed on the pair's own stencil structure,
S.data - M.data sigma, and written into LAPACK's band storage through the
band layout cached with that structure (``core.banded_cholesky``): nodes are
numbered x1-major, so the band is one transverse column of kept nodes plus
one. A shift inside the spectrum shows up as a failed factorization.

``scipy.linalg`` and ``scipy.sparse.linalg`` are imported by
``lowest_eigenpairs`` when it is called, not with this module, so that the
runs that solve no eigenproblem do not load them.
"""
from __future__ import annotations

import numpy as np

from ..errors import NoConvergence, ShiftInsideSpectrum
from .core import EigenResult, OperatorPair, banded_cholesky

__all__ = ["lowest_eigenpairs"]

_DENSE_CUTOFF = 400
_TOL = 1e-8
_MAXITER = 4000
# Smallest Krylov dimension of a solve given a start vector: it takes
# max(2k + 1, _WARM_NCV), capped below n. A start close to the wanted
# eigenvectors needs few Lanczos vectors; a cold solve keeps ARPACK's default
# of max(2k + 1, 20).
_WARM_NCV = 8


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """First component of magnitude above threshold made positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        v = out[:, j]
        big = np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())
        if big.size and v[big[0]] < 0:
            out[:, j] = -v
    return out


def lowest_eigenpairs(
    pair: OperatorPair, k: int, sigma: float = -1.0, start: np.ndarray | None = None
) -> EigenResult:
    """k smallest eigenpairs of S v = lambda M v.

    Shift-invert Lanczos with the shift strictly below the spectrum,
    seeded by a fixed starting vector so results are deterministic: a random
    one with ARPACK's default Krylov dimension, or ``start``, a nonzero
    finite vector over the pair's unknowns, with a smaller Krylov dimension.
    A start close to the ground state, such as the previous frame's
    eigenvector in a sweep, saves most of the solves. S - sigma
    M is factored once as a banded Cholesky (``core.banded_cholesky``, on the
    CSR data and band layout of the pair's structure) and
    every iteration solves with that factor; ``iterations`` counts the
    solves. A pair that is not symmetric raises ``LinearSolveFailure``, and
    one off its grid's structure ``GridMisaligned``; a
    shifted matrix that is not positive definite, or a computed eigenvalue
    below the shift, raises ``ShiftInsideSpectrum``. Small problems fall back
    to a dense solve with the same contract, which ignores ``start``. ARPACK
    runs to the relative accuracy 1e-8, which also scales the residual gate.
    """
    import scipy.linalg
    import scipy.sparse.linalg as spla

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
    solves = 0

    if n <= _DENSE_CUTOFF or k >= n - 1:
        vals, vecs = scipy.linalg.eigh(S.toarray(), M.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
        solves = 1
    else:
        if start is None:
            v0, ncv = np.random.default_rng(0x5EED).standard_normal(n), None
        else:
            v0, ncv = start, min(max(2 * k + 1, _WARM_NCV), n - 1)
        try:
            factor = banded_cholesky(pair.shifted(sigma), pair.grid)
        except scipy.linalg.LinAlgError as exc:
            raise ShiftInsideSpectrum(
                f"(S - sigma M) is not positive definite for sigma = {sigma}: {exc}"
            ) from exc

        def op(x):
            nonlocal solves
            solves += 1
            return scipy.linalg.cho_solve_banded((factor, False), x, check_finite=False)

        op_inv = spla.LinearOperator((n, n), matvec=op, dtype=float)
        try:
            vals, vecs = spla.eigsh(
                S,
                k=k,
                M=M,
                sigma=sigma,
                which="LM",
                v0=v0,
                ncv=ncv,
                maxiter=_MAXITER,
                tol=_TOL,
                OPinv=op_inv,
            )
        except spla.ArpackNoConvergence as exc:
            best = "none, no eigenvalue converged"
            if len(exc.eigenvalues):
                v, lam = exc.eigenvectors[:, 0], exc.eigenvalues[0]
                best = f"{np.linalg.norm(S @ v - lam * (M @ v)) / np.linalg.norm(M @ v):.3e}"
            raise NoConvergence(
                f"eigensolver did not converge within {_MAXITER} iterations "
                f"(best residual: {best})"
            )

    order = np.argsort(vals)
    vals = np.asarray(vals[order], float)
    vecs = np.asarray(vecs[:, order], float)
    if vals[0] < sigma and n > _DENSE_CUTOFF:
        raise ShiftInsideSpectrum(
            f"shift {sigma} is not below the spectrum (found {vals[0]:.6g})"
        )

    # mass-normalize, fix signs, validate residuals
    residuals = np.empty(k)
    for j in range(k):
        v = vecs[:, j]
        nm = float(np.sqrt(v @ (M @ v)))
        vecs[:, j] = v / nm
    vecs = _fix_signs(vecs)
    for j in range(k):
        v = vecs[:, j]
        residuals[j] = float(
            np.linalg.norm(S @ v - vals[j] * (M @ v)) / np.linalg.norm(M @ v)
        )
    scale = max(abs(vals).max(), 1.0)
    if np.any(residuals > _TOL * scale * 100):
        raise NoConvergence(
            f"converged pair exceeds the residual tolerance (largest residual "
            f"{residuals.max():.3e}, tolerance {_TOL * scale * 100:.3e})"
        )
    return EigenResult(
        eigenvalues=vals, eigenvectors=vecs, residuals=residuals, iterations=solves
    )
