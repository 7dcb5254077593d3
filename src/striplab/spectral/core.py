"""Element assembly engine for weighted quadratic forms on tensor grids.

Everything is built from piecewise-(bi)linear elements with 3-point Gauss
quadrature per direction, so stiffness and mass matrices are symmetric (to
round-off: on some cell sizes the 1-D value-value factor rounds its two
off-diagonal entries differently) and flat-metric assemblies factorize
into tensor products.

The element matrices are summed into the three diagonals of a 1-D matrix or
the 9-point stencil of a 2-D one, which is written straight onto the kept
nodes through the CSR structure of the tensor grid and its mask (a 1-D grid
is an n x 1 one), computed once per grid and mask. Pairs are factored on
that structure too: ``banded_cholesky`` checks a matrix's CSR data for
symmetry through the structure's transpose permutation and writes it into
LAPACK's band storage through the band layout cached with the structure,
so no sparse matrix is converted or transposed to factor it.

Only this module reads those diagonals and that layout, so the 1-D pencils
live here too: the closed-form sine eigendata of the flat Toeplitz pencil,
and the dense pencils of the transverse gaps and the Hardy slices, formed
and solved a batch of bounded size at a time (``_lowest_eigenvalues``), so
their memory does not grow with the number of pencils.

scipy is imported where it is called, not with this module: ``scipy.sparse``
by ``_csr``, which writes every assembled matrix, and ``scipy.linalg`` by
``banded_cholesky``. A flat decay run, which works from the 1-D stencils in
the sine basis with numpy alone, never loads it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import GridMisaligned, LinearSolveFailure, SingularMass

__all__ = [
    "WeightedGrid",
    "OperatorPair",
    "EigenResult",
    "gauss_points_1d",
    "assemble_1d",
    "assemble_2d",
    "make_grid",
]

# 3-point Gauss rule on the reference cell [0, 1]
_GP = 0.5 + np.array([-0.5, 0.0, 0.5]) * np.sqrt(3.0 / 5.0)
_GW = np.array([5.0, 8.0, 5.0]) / 18.0


def gauss_points_1d(nodes: np.ndarray) -> np.ndarray:
    """Physical Gauss coordinates for every cell, shape (n_cells, 3)."""
    nodes = np.asarray(nodes, float)
    h = np.diff(nodes)
    return nodes[:-1, None] + h[:, None] * _GP[None, :]


def _direction_tensors(h: float):
    """Per-direction factor matrices (3, 2, 2) for each term kind.

    The quadrature weight and the cell length are folded into the value
    factors so a 2D term is just the product of its two direction factors.
    """
    nval = np.stack([1.0 - _GP, _GP], axis=1)          # (3, 2)
    nder = np.stack([-np.ones(3), np.ones(3)], axis=1) / h
    ww = _GW * h
    val_val = np.einsum("g,gi,gj->gij", ww, nval, nval)
    der_der = np.einsum("g,gi,gj->gij", ww, nder, nder)
    val_der = np.einsum("g,gi,gj->gij", ww, nval, nder)
    sym = 0.5 * (val_der + val_der.transpose(0, 2, 1))
    return {"v": val_val, "d": der_der, "s": sym}


_KIND_FACTORS = {
    # (x1-direction factor, x2-direction factor)
    "mass": ("v", "v"),
    "d1d1": ("d", "v"),
    "d2d2": ("v", "d"),
    "d1sym": ("s", "v"),
}

_KIND_FACTORS_1D = {"mass": "v", "dd": "d"}

# matrix entries in each dense array of a batch of 1-D pencils
# (``_lowest_eigenvalues``): 256 KB of floats
_PENCIL_BATCH_ENTRIES = 1 << 15


def _uniform_spacing(nodes: np.ndarray) -> float:
    h = np.diff(nodes)
    if not np.allclose(h, h[0], rtol=1e-12, atol=0.0):
        raise ValueError("assembly requires uniform grids")
    return float(h[0])


def element_matrices_1d(nodes: np.ndarray, terms) -> np.ndarray:
    """Per-cell 2x2 element matrices (..., n_cells, 2, 2) of a sum of 1D
    terms; each term is (kind, coeff) with coeff shaped (..., n_cells, 3)
    holding the coefficient at the Gauss points, leading axes a batch."""
    fac = _direction_tensors(_uniform_spacing(np.asarray(nodes, float)))
    local = (np.einsum("...ea,aij->...eij", c, fac[_KIND_FACTORS_1D[k]]) for k, c in terms)
    return sum(local, np.zeros((len(nodes) - 1, 2, 2)))


def _diagonals(local: np.ndarray):
    """Lower, main and upper diagonals (..., n - 1), (..., n), (..., n - 1) of
    the 1-D matrices on n nodes with element matrices shaped (..., n - 1, 2, 2).
    The main diagonal sums from -0.0, so that an end node's entry is its one
    cell's, signed zeros included."""
    diag = np.full(local.shape[:-3] + (local.shape[-3] + 1,), -0.0)
    diag[..., :-1] += local[..., 0, 0]
    diag[..., 1:] += local[..., 1, 1]
    return local[..., 1, 0], diag, local[..., 0, 1]


def assemble_1d(nodes: np.ndarray, terms, keep):
    """Assemble sum of 1D terms on the nodes where the boolean mask ``keep``
    is set; each term is (kind, coeff) with coeff of shape (n_cells, 3)
    holding the coefficient at the Gauss points.
    Offsets 1, 4 and 7 of the n x 1 grid's structure are the three diagonals.
    """
    nodes = np.asarray(nodes, float)
    lower, diag, upper = _diagonals(element_matrices_1d(nodes, terms))
    stencil = np.stack([np.r_[0.0, lower], diag, np.r_[upper, 0.0]], -1)
    indptr, indices, coupled, _ = _csr_structure(nodes.size, 1, keep)
    return _csr(stencil[coupled[:, 1::3]], indices, indptr)


def assemble_2d(x1: np.ndarray, x2: np.ndarray, terms, keep):
    """Assemble sum of bilinear-element terms on the tensor grid x1 (x) x2,
    on the nodes where the boolean mask ``keep`` (over all nodes, x1-major)
    is set.

    Each term is (kind, coeff) with coeff shaped (n1_cells, n2_cells, 3, 3)
    holding the coefficient at the tensor Gauss points of every cell.
    ``terms`` is iterated once, so a generator hands the coefficients over
    one at a time and none outlives its own term.

    The element matrices of the terms (``_element_sum``) are summed into the
    9-point stencil of every node (``_stencil_sum``), whose entries on kept
    nodes are the CSR data; each stage's arrays are freed before the next
    one's are formed.
    """
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    indptr, indices, coupled, _ = _csr_structure(x1.size, x2.size, keep)
    stencil = _stencil_sum(_element_sum(x1, x2, terms))
    data = stencil.reshape(9, -1).T[coupled]  # row by row, in column order
    return _csr(data, indices, indptr)


def _element_sum(x1: np.ndarray, x2: np.ndarray, terms) -> np.ndarray:
    """Element matrices of the sum of ``terms`` on the tensor grid x1 (x) x2,
    plane-major: block[r1, r2, c1, c2] is the (n1_cells, n2_cells) plane of
    the entries coupling local node 2 r1 + r2 of each cell to its local node
    2 c1 + c2.

    A term's element matrices are linear in its 9 Gauss-point values, so they
    are one matrix product: the transposed (9, 16) kernel of the two direction
    factors times the (9, cells) coefficients. The first product is the sum,
    which starts from +0.0; every later one is written into one reused
    buffer and added to it, so no fresh array is touched per term.
    """
    n1, n2 = x1.size - 1, x2.size - 1
    f1 = _direction_tensors(_uniform_spacing(x1))
    f2 = _direction_tensors(_uniform_spacing(x2))
    local = product = None
    for kind, coeff in terms:
        k1, k2 = _KIND_FACTORS[kind]
        kernel = np.einsum("aij,bkl->abikjl", f1[k1], f2[k2]).reshape(9, 16)
        product = np.matmul(kernel.T, coeff.reshape(n1 * n2, 9).T, out=product)
        del coeff  # before the next term's coefficients are formed
        if local is None:
            local, product = product, None
            local += 0.0  # -0.0 entries become +0.0, as in a sum from +0.0
        else:
            local += product
    return local.reshape(2, 2, 2, 2, n1, n2)


def _stencil_sum(block: np.ndarray) -> np.ndarray:
    """The (3, 3, n1 + 1, n2 + 1) stencil of the element matrices ``block``
    of ``_element_sum``: stencil[1 + di, 1 + dj, p1, p2] couples node
    (p1, p2) to its neighbour (p1 + di, p2 + dj).

    A node is local node 3, 2, 1, 0 of its cells in increasing cell order,
    so adding the contiguous planes in that order sums every entry over its
    cells in increasing cell order. The sums start from -0.0 so that each
    equals the sum of its terms alone, signed zeros included."""
    n1, n2 = block.shape[-2:]
    stencil = np.full((3, 3, n1 + 1, n2 + 1), -0.0)
    for r1, r2 in ((1, 1), (1, 0), (0, 1), (0, 0)):
        stencil[1 - r1:3 - r1, 1 - r2:3 - r2, r1:r1 + n1, r2:r2 + n2] += block[r1, r2]
    return stencil


def _csr_structure(n1: int, n2: int, keep):
    """``_stencil_structure`` of the n1 x n2 node grid and its mask."""
    return _stencil_structure(n1, n2, np.asarray(keep, bool).ravel().tobytes())


def _csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """The n x n ``scipy.sparse.csr_matrix`` of this CSR data and structure,
    with n = ``indptr.size - 1`` rows."""
    import scipy.sparse

    n = indptr.size - 1
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))


@functools.lru_cache(maxsize=4)
def _stencil_structure(n1: int, n2: int, keep_bytes: bytes):
    """The 9-point couplings among the kept nodes of the n1 x n2 mask given
    by its bytes: read-only CSR ``indptr`` and ``indices`` (int32), the
    (nodes, 9) mask ``coupled`` of the node and neighbour offset of each
    entry, and the permutation ``transpose`` of the entries that takes the
    data of a matrix of this structure to the data of its transpose, which
    has the same structure. Offset d = 3 (di + 1) + (dj + 1) is neighbour
    (p1 + di, p2 + dj) of node (p1, p2), so along a row d and the column
    increase together. Computed once for the last four grids and masks
    asked for."""
    keep = np.frombuffer(keep_bytes, bool).reshape(n1, n2)
    position = np.full((n1 + 2, n2 + 2), -1, dtype=np.int32)  # -1: not kept
    position[1:-1, 1:-1][keep] = np.arange(np.count_nonzero(keep), dtype=np.int32)
    column = np.stack([position[d // 3:d // 3 + n1, d % 3:d % 3 + n2] for d in range(9)], -1)
    coupled = (column >= 0) & keep[:, :, None]
    ends = np.cumsum(coupled.sum(-1, dtype=np.int32)[keep], dtype=np.int32)
    indptr = np.concatenate([np.zeros(1, np.int32), ends])
    indices = column[coupled]
    # the transpose of entry (p, d) is entry (p + (di, dj), 8 - d)
    entry = np.full((n1 + 2, n2 + 2, 9), -1, dtype=np.int32)
    entry[1:-1, 1:-1][coupled] = np.arange(indices.size, dtype=np.int32)
    mirror = np.stack([entry[d // 3:d // 3 + n1, d % 3:d % 3 + n2, 8 - d] for d in range(9)], -1)
    transpose = mirror[coupled]
    coupled = coupled.reshape(-1, 9)
    for a in (indptr, indices, coupled, transpose):
        a.flags.writeable = False
    return indptr, indices, coupled, transpose


@functools.lru_cache(maxsize=4)
def _band_layout(n1: int, n2: int, keep_bytes: bytes):
    """LAPACK's upper band storage for ``_stencil_structure``'s structure
    (same arguments): the bandwidth ``bw``, the largest col - row (one
    transverse column of kept nodes plus one, as they are numbered x1-major),
    and ``position``, where each entry goes in a buffer of (bw + 1) n + 1
    floats: entry (row, col) of the upper triangle to row bw + row - col,
    column col of the band, its first (bw + 1) n floats in Fortran order, and
    every entry below the diagonal to the last float, left out of the band.
    Computed once for the last four grids and masks asked for."""
    indptr, indices, _, _ = _stencil_structure(n1, n2, keep_bytes)
    n = indptr.size - 1
    # col (bw + 1) + bw + row - col, formed in place from row - col
    position = np.repeat(np.arange(n), np.diff(indptr))
    position -= indices
    below = position > 0
    bw = int(-position.min())
    position += indices * (bw + 1)
    position += bw
    position[below] = (bw + 1) * n
    position.flags.writeable = False
    return position, bw


def _interior_stencils(x: np.ndarray):
    """Stencils (a_1, a0, a1) of the interior stiffness and mass matrices of
    unit weight on the nodes x: the first entries of their sub-, main and
    super-diagonals, 0 where a diagonal is empty. Every cell has the same
    element matrix, so each matrix is tridiagonal Toeplitz."""
    ones = np.ones((x.size - 1, 3))
    return [np.array([d[1:-1][:1].sum() for d in _diagonals(element_matrices_1d(x, [(k, ones)]))])
            for k in ("dd", "mass")]


def _sine_eigenpairs(k: np.ndarray, m: np.ndarray, n: int):
    """Eigenvalues l, mass eigenvalues m and M-normalising weights d of the sine
    vectors S[i, j] = sin(i j pi / (n + 1)) for the n x n tridiagonal Toeplitz
    pair (K, M) of stencils (a_1, a0, a1) ``k`` and ``m``: a0 on the diagonal,
    a1 above it and, equal to a1 up to the assembly's round-off, a_1 below it."""
    # a0 + 2 a1 cos(2x) as a0 + 2 a1 - 4 a1 sin(x)^2: no cancellation at small x
    s2 = np.sin(np.arange(1, n + 1) * (0.5 * math.pi / (n + 1))) ** 2
    k, m = (a0 + 2.0 * a1 - 4.0 * a1 * s2 for _, a0, a1 in (k, m))
    return k / m, m, (0.5 * (n + 1) * m) ** -0.5


def _largest_difference(a: np.ndarray, scratch: np.ndarray) -> float:
    """max |a - scratch|, computed in ``scratch``: every fresh array the size
    of a 2-D pair's data costs its first-touch page faults."""
    return float(np.abs(np.subtract(a, scratch, out=scratch), out=scratch).max())


def _sine_factors(x1: np.ndarray, x2: np.ndarray):
    """The interior 1-D stencils [(k1, m1), (k2, m2)] of unit weight on the
    nodes x1 and x2 (``_interior_stencils``) and their sine-basis eigendata
    (``_sine_eigenpairs``), if the cross-section is symmetric about the axis,
    x2[0] = -x2[-1], else None. On the interior nodes of x1 (x) x2
    (``make_grid``'s) a flat pair is the Kronecker sum of these 1-D pairs, and
    only on the symmetric cross-section is the sampled first transverse mode
    the first sine vector, which the separable propagator's mode-1 remainder
    relies on."""
    if x2[0] != -x2[-1]:
        return None
    stencils = [_interior_stencils(x) for x in (x1, x2)]
    return stencils, tuple(_sine_eigenpairs(*st, x.size - 2) for st, x in zip(stencils, (x1, x2)))


def _lumped_rows(stencil: np.ndarray, n: int) -> np.ndarray:
    """Row sums of the n x n tridiagonal Toeplitz matrix of ``stencil``
    (a_1, a0, a1) with its upper off-diagonal a1 on both sides: the lumped
    mass of an interior 1-D mass matrix (``_interior_stencils``), whose
    a_1 equals a1 up to the assembly's round-off."""
    _, a0, a1 = stencil
    i = np.arange(n)
    return a0 + a1 * (i > 0) + a1 * (i < n - 1)


def _tridiagonal(local: np.ndarray, wall: bool) -> np.ndarray:
    """Dense tridiagonal matrices from per-cell 2x2 element matrices shaped
    (columns, n - 1, 2, 2) on n nodes: (columns, n, n) with free ends, or
    with a Dirichlet ``wall`` at the last node the (columns, n - 1, n - 1)
    block of the others. The upper diagonal is mirrored below, so each
    matrix is exactly symmetric."""
    _, diag, off = _diagonals(local)
    if wall:
        diag, off = diag[:, :-1], off[:, :-1]
    n = diag.shape[1]
    out = np.zeros((diag.shape[0], n, n))
    i = np.arange(n)
    out[:, i, i] = diag
    out[:, i[:-1], i[1:]] = off
    out[:, i[1:], i[:-1]] = off
    return out


def _lowest_eigenvalues(S: np.ndarray, M: np.ndarray, wall: bool) -> np.ndarray:
    """Lowest eigenvalue of each 1-D pencil (S, M) of the stacked element
    matrices ``S`` and ``M``, shaped (pencils, n - 1, 2, 2) on n nodes, with
    free ends or a Dirichlet ``wall`` at the last node (``_tridiagonal``):
    with the Cholesky factor M = L L^T it is that of the symmetric
    L^-1 S L^-T. The dense matrices are formed and solved a batch of pencils
    at a time, each dense array holding at most ``_PENCIL_BATCH_ENTRIES``
    entries (one pencil, if a single one holds more). numpy solves each
    pencil of a stack on its own, so the batch size moves no bit."""
    n = S.shape[-3] + (not wall)
    batch = max(1, _PENCIL_BATCH_ENTRIES // n**2)
    out = np.empty(S.shape[0])
    for lo in range(0, out.size, batch):
        Sb, Mb = (_tridiagonal(A[lo:lo + batch], wall) for A in (S, M))
        Linv = np.linalg.inv(np.linalg.cholesky(Mb))
        out[lo:lo + batch] = np.linalg.eigvalsh(Linv @ Sb @ Linv.transpose(0, 2, 1))[:, 0]
    return out


@dataclass(eq=False)
class WeightedGrid:
    """Tensor grid with the mask of its kept (non-Dirichlet) nodes, the
    unknowns of its pairs in x1-major order; ``restrict`` and ``extend`` are
    the one map between nodal arrays of its ``shape`` and kept-node vectors."""

    x1: np.ndarray
    x2: np.ndarray
    keep: np.ndarray  # bool over all nodes (flattened, x1-major)

    @property
    def shape(self):
        return (self.x1.size, self.x2.size)

    def restrict(self, values) -> np.ndarray:
        """The kept-node vector of a nodal array of the grid's shape, or of
        one that broadcasts to it, such as ``x1[:, None]``."""
        return np.broadcast_to(values, self.shape)[self.keep.reshape(self.shape)]

    def extend(self, u) -> np.ndarray:
        """The nodal array of the kept-node vector ``u``, zero on masked nodes."""
        full = np.zeros(self.shape)
        full[self.keep.reshape(self.shape)] = u
        return full


def make_grid(x1, x2) -> WeightedGrid:
    """Grid with Dirichlet mask on the transverse walls and the longitudinal
    truncation ends: its kept nodes are the interior ones."""
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    keep = np.zeros((x1.size, x2.size), dtype=bool)
    keep[1:-1, 1:-1] = True
    return WeightedGrid(x1=x1, x2=x2, keep=keep.ravel())


@dataclass(eq=False)
class OperatorPair:
    """Symmetric stiffness/mass pair restricted to unmasked nodes.

    A pair carries its matrices, both ``scipy.sparse.csr_matrix`` on the
    stencil structure of its grid's kept nodes (``structure``), and its grid
    (n x 1 for a 1-D pair), whose ``keep`` mask picks its unknowns out of the
    grid's nodes; nothing else: the metric it was assembled from is the
    caller's, the discrete transverse reference energy is
    ``flat_transverse_ground(x2)``, the closed-form eigenvalue of the flat
    Toeplitz pencil (``_sine_eigenpairs``), and the exact one
    ``oracle.transverse_energy(1, a)``.
    """

    S: object
    M: object
    grid: WeightedGrid

    @property
    def n(self) -> int:
        return self.S.shape[0]

    def structure(self):
        """The CSR structure (``_csr_structure``) of the grid's kept nodes, on
        which S and M sit; ``GridMisaligned`` for a pair off it, whose data
        has no band layout to be factored on."""
        structure = _csr_structure(*self.grid.shape, self.grid.keep)
        indptr, indices, _, _ = structure
        for A in (self.S, self.M):
            if not (np.array_equal(A.indptr, indptr) and np.array_equal(A.indices, indices)):
                raise GridMisaligned("the pair does not have its grid's stencil structure")
        return structure

    def shifted(self, sigma: float) -> np.ndarray:
        """CSR data of S - sigma M on the pair's structure (``structure``,
        checked first), bit for bit as ``scipy.sparse`` forms it."""
        self.structure()
        out = self.M.data * sigma
        return np.subtract(self.S.data, out, out=out)

    def on_structure(self, data: np.ndarray):
        """The ``scipy.sparse.csr_matrix`` of the CSR ``data``, such as a
        combination of S.data and M.data, on the pair's ``structure``."""
        indptr, indices, _, _ = self.structure()
        return _csr(data, indices, indptr)

    def check(self) -> None:
        """``SingularMass`` for a lumped mass not positive and finite,
        ``ValueError`` for a pair not symmetric to round-off or holding
        non-finite entries: each entry is compared with its mirror through
        the transpose permutation of the grid's structure (``structure``,
        which raises ``GridMisaligned`` for a pair off it)."""
        indptr, _, _, transpose = self.structure()
        lumped = np.add.reduceat(self.M.data, indptr[:-1])  # row sums
        bad = np.count_nonzero(~((lumped > 0.0) & (lumped < math.inf)))  # NaN included
        if bad:
            raise SingularMass(
                f"{bad} retained nodes have non-positive or non-finite lumped mass"
            )
        asym_s, asym_m = (_largest_difference(A.data, A.data[transpose]) for A in (self.S, self.M))
        scale = max(self.S.data.max(), -self.S.data.min(), 1.0)
        # the chained bound also fails for a NaN or an inf anywhere in S or M
        if not (asym_s <= 1e-12 * scale < math.inf and asym_m <= 1e-12):
            raise ValueError("assembled pair lost symmetry or holds non-finite entries")


def banded_cholesky(data: np.ndarray, grid: WeightedGrid) -> np.ndarray:
    """Upper banded Cholesky factor, in LAPACK's upper band storage (for
    ``cho_solve_banded``), of the symmetric positive definite matrix of CSR
    data ``data`` on the stencil structure of ``grid``'s kept nodes, where
    every pair's matrices sit; one indexed store through ``_band_layout``
    writes the band. Only the upper triangle is factored, so
    ``LinearSolveFailure`` is raised unless each entry equals its mirror
    (the structure's transpose permutation) to round-off, as in
    ``OperatorPair.check``, which NaN and inf entries fail. When the matrix
    is not positive definite, scipy's ``LinAlgError`` propagates for the
    caller to classify.
    """
    keep_bytes = np.asarray(grid.keep, bool).tobytes()
    *_, transpose = _stencil_structure(*grid.shape, keep_bytes)
    position, bw = _band_layout(*grid.shape, keep_bytes)
    if data.shape != transpose.shape:
        raise GridMisaligned(
            f"{data.size} entries do not sit on the grid's stencil structure of {transpose.size}"
        )
    asym = _largest_difference(data, data[transpose])
    scale = max(data.max(), -data.min())
    if not asym <= 1e-12 * scale:  # also taken when the matrix holds NaN or inf
        raise LinearSolveFailure(
            f"matrix is not symmetric: |A - A^T| = {asym:.3e}, |A| = {scale:.3e}"
        )
    from scipy.linalg import cholesky_banded

    n = np.count_nonzero(grid.keep)
    band = np.zeros((bw + 1) * n + 1)
    band[position] = data
    # Fortran order, so LAPACK factors the band in place; the symmetry check
    # has refused every non-finite entry
    ab = band[:-1].reshape(n, bw + 1).T
    return cholesky_banded(ab, overwrite_ab=True, check_finite=False)


@dataclass(eq=False)
class EigenResult:
    """Lowest generalized eigenpairs, mass-normalized and sign-fixed."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray     # (n, k), columns mass-normalized
    residuals: np.ndarray
    iterations: int
