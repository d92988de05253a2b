"""Dense symplectic linear algebra over covariance matrices.

Conventions, used everywhere in this package:

* mode ordering is interleaved, x1, p1, x2, p2, ..., xn, pn, so the
  symplectic form is Omega = omega^(+)n with omega = [[0, 1], [-1, 0]];
* covariance matrices are vacuum-normalized, the vacuum CM is the
  identity, and a bona fide CM has every symplectic eigenvalue >= 1;
* a pure state has all symplectic eigenvalues equal to 1 and unit
  determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, UsageError

# Absolute tolerance for symmetry defects of incoming matrices.
SYMMETRY_ATOL = 1e-9
# Accept nu_k >= 1 - VALIDITY_TOL to absorb roundoff in sampled pure states.
VALIDITY_TOL = 1e-8
# max_k |nu_k - 1| below this counts as pure.
PURITY_ATOL = 1e-8


@lru_cache(maxsize=8)
def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for n modes in interleaved ordering.

    Built once per mode count and shared, so the returned array is
    read-only; copy it before modifying.
    """
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.kron(np.eye(n_modes), w)
    out.flags.writeable = False
    return out


def quadrature_indices(modes) -> list:
    """Row/column indices (x_m, p_m) of the given modes, ascending."""
    return sorted(i for m in modes for i in (2 * m, 2 * m + 1))


def _numeric_matrix(matrix) -> np.ndarray:
    """``matrix`` as a float array, or :class:`UsageError` for input that
    is not a rectangular array of finite numbers."""
    try:
        m = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError):
        raise UsageError("covariance matrix must be an array of numbers with rows of equal length")
    if not np.all(np.isfinite(m)):
        raise UsageError("covariance matrix entries must be finite numbers")
    return m


def _as_matrix(sigma) -> np.ndarray:
    if isinstance(sigma, CovarianceMatrix):
        return sigma.matrix
    return np.asarray(sigma, dtype=float)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Vacuum-normalized covariance matrix of an n-mode Gaussian state.

    The wrapped matrix is validated on construction: it must be square
    of size 2n x 2n, symmetric within ``SYMMETRY_ATOL``, positive
    definite, and satisfy the bona fide condition nu_k >= 1 (within
    ``VALIDITY_TOL``).  The stored array is symmetrized and read-only.
    """

    n_modes: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = _numeric_matrix(self.matrix)
        n = self.n_modes
        if n < 1:
            raise UsageError("n_modes must be a positive integer")
        if m.shape != (2 * n, 2 * n):
            raise UsageError(
                f"expected a {2 * n}x{2 * n} matrix for {n} modes, got {m.shape}"
            )
        require_bona_fide(m[None])
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _from_valid(cls, n_modes: int, matrix: np.ndarray) -> "CovarianceMatrix":
        """Wrap a matrix that is valid by construction, skipping checks.

        Only for operations that provably preserve validity (principal
        submatrices, symplectic conjugation); public constructors go
        through full validation.
        """
        obj = object.__new__(cls)
        m = 0.5 * (matrix + matrix.T)
        m.flags.writeable = False
        object.__setattr__(obj, "n_modes", n_modes)
        object.__setattr__(obj, "matrix", m)
        return obj

    @classmethod
    def from_matrix(cls, matrix) -> "CovarianceMatrix":
        m = _numeric_matrix(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise UsageError(f"covariance matrix must be square of even size, got {m.shape}")
        return cls(n_modes=m.shape[0] // 2, matrix=m)

    def to_dict(self) -> dict:
        return {"n_modes": self.n_modes, "matrix": self.matrix.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "CovarianceMatrix":
        try:
            raw, m = data["n_modes"], data["matrix"]
            # int() would truncate 1.9 and read true as 1
            if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
                raise ValueError(f"n_modes must be an integer, got {raw!r}")
            n = int(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"covariance-matrix dict needs 'n_modes' and 'matrix': {exc}")
        return cls(n_modes=n, matrix=m)


@dataclass(frozen=True)
class ValidityReport:
    """Diagnostics from :func:`is_valid_cm`."""

    symmetry_defect: float
    min_eigenvalue: float
    min_symplectic_eigenvalue: float
    ok: bool

    def __str__(self):
        return (
            f"symmetry defect {self.symmetry_defect:.3e}, "
            f"min eigenvalue {self.min_eigenvalue:.3e}, "
            f"min symplectic eigenvalue {self.min_symplectic_eigenvalue:.9f}"
        )


def _swap(stack: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return np.swapaxes(stack, -1, -2)


def _validity(stack: np.ndarray):
    """Bona fide diagnostics of a (N, 2n, 2n) stack, one entry per matrix.

    Returns the symmetry defects, the least eigenvalues, the least
    symplectic eigenvalues and the verdicts.  A row that fails a check
    gets NaN for the later ones, and a non-finite row fails the first.
    """
    defect = np.max(np.abs(stack - _swap(stack)), axis=(-2, -1))
    min_eig = np.full(len(stack), np.nan)
    min_nu = np.full(len(stack), np.nan)
    sym = 0.5 * (stack + _swap(stack))
    rows = np.flatnonzero(defect <= SYMMETRY_ATOL)
    if rows.size:
        min_eig[rows] = np.linalg.eigvalsh(sym[rows]).min(axis=-1)
        rows = rows[min_eig[rows] > 0.0]
    if rows.size:
        min_nu[rows] = symplectic_spectra(sym[rows]).min(axis=-1)
    return defect, min_eig, min_nu, min_nu >= 1.0 - VALIDITY_TOL


def is_valid_cm(matrix) -> ValidityReport:
    """Check the bona fide CM conditions, reporting the worst defects.

    A valid CM is symmetric, positive definite, and has all symplectic
    eigenvalues >= 1 (the uncertainty principle sigma + i Omega >= 0).
    """
    defect, min_eig, min_nu, ok = _validity(_as_matrix(matrix)[None])
    return ValidityReport(float(defect[0]), float(min_eig[0]), float(min_nu[0]), bool(ok[0]))


def require_bona_fide(stack: np.ndarray) -> None:
    """Raise :class:`DomainError` with the report of the first matrix of
    the stack that is not a bona fide CM."""
    defect, min_eig, min_nu, ok = _validity(stack)
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = bad[0]
        report = ValidityReport(float(defect[i]), float(min_eig[i]), float(min_nu[i]), False)
        raise DomainError(f"not a bona fide covariance matrix: {report}")


def symplectic_spectra(stack) -> np.ndarray:
    """Symplectic eigenvalues of a stack of symmetric positive-definite
    matrices, shape (..., 2n, 2n) to (..., n), each row ascending.

    One mode has nu = sqrt(det M), since det(Omega M) = det M and the
    eigenvalues of Omega M are +-i nu.  More modes use the Cholesky
    factor M = L L^T: i Omega M is similar to the Hermitian i L^T Omega L,
    whose eigenvalues are the pairs +-nu_k, so the n largest are the
    spectrum (Serafini, Quantum Continuous Variables, 2017, ch. 3).  The
    factorization is also the positive-definiteness check.  Applies to
    covariance matrices and to Schur complements alike.
    """
    m = np.asarray(stack, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2:
        raise DomainError(f"expected square matrices of even size, got {m.shape}")
    if np.any(np.max(np.abs(m - _swap(m)), axis=(-2, -1)) > SYMMETRY_ATOL):
        raise DomainError("matrix is not symmetric")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise DomainError("matrix is not positive definite")
    n = m.shape[-1] // 2
    if n == 1:
        return np.sqrt(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])[..., None]
    return np.linalg.eigvalsh(1j * (_swap(chol) @ omega(n) @ chol))[..., n:]


def symplectic_eigenvalues(matrix) -> np.ndarray:
    """Symplectic eigenvalues of one symmetric positive-definite matrix:
    :func:`symplectic_spectra` of a batch of one.

    Parameters
    ----------
    matrix : (2n, 2n) array_like
        Symmetric positive-definite matrix.

    Returns
    -------
    ndarray
        The n values nu_k, ascending.
    """
    m = _as_matrix(matrix)
    if m.ndim != 2:
        raise DomainError(f"expected a square matrix of even size, got {m.shape}")
    return symplectic_spectra(m[None])[0]


def schur_complements(stack: np.ndarray, removed, kept) -> np.ndarray:
    """Schur complements of the ``removed`` modes' block in a stack.

    ``removed`` and ``kept`` are disjoint ascending mode lists; every
    matrix gives sigma_kept - C^T (sigma_removed)^{-1} C, C the cross
    block, by one batched solve, symmetrized.
    """
    ir = quadrature_indices(removed)
    ik = quadrature_indices(kept)
    rows = stack[..., ir, :]
    c = rows[..., ik]
    out = stack[..., ik, :][..., ik] - _swap(c) @ np.linalg.solve(rows[..., ir], c)
    return 0.5 * (out + _swap(out))


def schur_complement(sigma: CovarianceMatrix, removed) -> np.ndarray:
    """Schur complement of the ``removed`` modes' block in sigma.

    Returns sigma_kept - C^T (sigma_removed)^{-1} C where C is the
    cross block.  This is the conditional covariance of the kept modes
    after a measurement on the removed ones; it is symmetric positive
    definite for any valid CM but generally not a bona fide CM itself,
    so a plain array is returned.
    """
    removed = sorted(set(int(m) for m in removed))
    n = sigma.n_modes
    if not removed:
        raise UsageError("removed mode set must be non-empty")
    if any(m < 0 or m >= n for m in removed):
        raise UsageError(f"removed modes {removed} out of range for {n} modes")
    if len(removed) == n:
        raise UsageError("cannot remove every mode; a proper subset is required")
    kept = [m for m in range(n) if m not in removed]
    return schur_complements(sigma.matrix[None], removed, kept)[0]


def partial_trace(sigma: CovarianceMatrix, kept) -> CovarianceMatrix:
    """Reduced state over the ``kept`` modes (principal submatrix)."""
    kept = sorted(set(int(m) for m in kept))
    if not kept:
        raise UsageError("kept mode set must be non-empty")
    if any(m < 0 or m >= sigma.n_modes for m in kept):
        raise UsageError(f"kept modes {kept} out of range for {sigma.n_modes} modes")
    idx = quadrature_indices(kept)
    # a principal submatrix of a bona fide CM is itself bona fide
    return CovarianceMatrix._from_valid(len(kept), sigma.matrix[np.ix_(idx, idx)])


def apply_symplectic(sigma: CovarianceMatrix, s_matrix) -> CovarianceMatrix:
    """Conjugate a CM by a symplectic matrix, sigma -> S sigma S^T."""
    s = np.asarray(s_matrix, dtype=float)
    n = sigma.n_modes
    if s.shape != (2 * n, 2 * n):
        raise UsageError(f"symplectic matrix must be {2 * n}x{2 * n}, got {s.shape}")
    om = omega(n)
    defect = float(np.max(np.abs(s @ om @ s.T - om)))
    if defect > 1e-9:
        raise DomainError(f"matrix is not symplectic: ||S Omega S^T - Omega|| = {defect:.3e}")
    # symplectic conjugation preserves the symplectic spectrum
    return CovarianceMatrix._from_valid(n, s @ sigma.matrix @ s.T)


def log_det(sigma) -> float:
    """ln det of a symmetric positive-definite matrix, via Cholesky.

    Never computed as a product of eigenvalues; the triangular
    factorization stays accurate for the large local invariants that
    appear in the boundary-family checks.
    """
    m = _as_matrix(sigma)
    try:
        chol = np.linalg.cholesky(0.5 * (m + m.T))
    except np.linalg.LinAlgError:
        raise DomainError("log_det requires a positive definite matrix")
    return float(2.0 * np.sum(np.log(np.diagonal(chol))))


def conditional_log_det(sigma: CovarianceMatrix, conditioned, conditioning) -> float:
    """Conditional log-determinant I_{B|A} = M(sigma_AB) - M(sigma_A).

    ``conditioned`` plays the role of B, ``conditioning`` of A.  The two
    mode sets must be disjoint and non-empty.
    """
    conditioned = sorted(set(int(m) for m in conditioned))
    conditioning = sorted(set(int(m) for m in conditioning))
    if not conditioned or not conditioning:
        raise UsageError("conditioned and conditioning mode sets must be non-empty")
    if set(conditioned) & set(conditioning):
        raise UsageError("conditioned and conditioning mode sets overlap")
    joint = partial_trace(sigma, conditioned + conditioning)
    # re-index: positions of the conditioning modes inside the joint marginal
    order = sorted(conditioned + conditioning)
    pos = [order.index(m) for m in conditioning]
    cond = partial_trace(joint, pos)
    return log_det(joint) - log_det(cond)


def is_pure(sigma: CovarianceMatrix, tol: float = PURITY_ATOL) -> bool:
    """True iff every symplectic eigenvalue is within ``tol`` of 1."""
    nu = symplectic_eigenvalues(sigma.matrix)
    return bool(np.max(np.abs(nu - 1.0)) <= tol)
