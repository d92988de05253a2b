"""Gaussian steering measure G^{A->B} and its structural properties.

G^{A->B} is computed from the symplectic eigenvalues nu_j of the Schur
complement of the steering party's block: G = -sum_{nu_j < 1} ln nu_j,
zero when no nu_j drops below 1.  One kernel, :func:`steering_values`,
evaluates it on a stack of covariance matrices; the single-state
functions pass it a batch of one.  The log-determinant shortcut for a
single-mode steered party, the pure-state coincidence with Renyi-2
entanglement, and the exclusivity / log-det bound predicates live here
as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .symplectic import (
    CovarianceMatrix,
    is_pure,
    log_det,
    partial_trace,
    quadrature_indices,
    schur_complements,
    symplectic_spectra,
)

# Schur-complement eigenvalues within this distance of 1 are treated as
# >= 1 (no contribution), keeping G continuous at the steerability
# threshold under roundoff.
NU_ATOL = 1e-9


@dataclass(frozen=True)
class SteeringValue:
    """Directional steering value with its Schur spectrum.

    ``value`` equals -sum of ln(nu) over the recorded spectrum entries
    below 1; the spectrum is kept for diagnostics and audits.
    """

    value: float
    steering: tuple
    steered: tuple
    schur_spectrum: tuple

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "steering": list(self.steering),
            "steered": list(self.steered),
            "schur_spectrum": list(self.schur_spectrum),
        }


def _normalize_parties(sigma: CovarianceMatrix, steering, steered):
    steering = tuple(sorted(set(int(m) for m in steering)))
    steered = tuple(sorted(set(int(m) for m in steered)))
    if not steering or not steered:
        raise UsageError("steering and steered mode sets must be non-empty")
    if set(steering) & set(steered):
        raise UsageError("steering and steered mode sets overlap")
    both = set(steering) | set(steered)
    if any(m < 0 or m >= sigma.n_modes for m in both):
        raise UsageError(f"mode indices out of range for {sigma.n_modes} modes")
    if both != set(range(sigma.n_modes)):
        raise UsageError(
            "steering and steered sets must cover every mode; "
            "trace out unused modes first"
        )
    return steering, steered


def gaussian_steering(sigma: CovarianceMatrix, steering, steered) -> SteeringValue:
    """Steering of the ``steered`` party by the ``steering`` party.

    The two mode sets must partition the modes of ``sigma``; callers
    wanting G on a marginal trace out the other modes first.

    Returns
    -------
    SteeringValue
        Non-negative value in natural-log units plus the symplectic
        spectrum of the conditional (Schur-complement) matrix.
    """
    steering, steered = _normalize_parties(sigma, steering, steered)
    values, nu = steering_values(sigma.matrix[None], steering, steered)
    return SteeringValue(float(values[0]), steering, steered, tuple(nu[0].tolist()))


def steering_values(stack: np.ndarray, steering, steered):
    """G^{steering -> steered} of every CM in a (N, 2n, 2n) stack.

    ``steering`` and ``steered`` are ascending mode tuples that
    partition the n modes, the same for every row.  Returns the (N,)
    values and the (N, k) Schur spectra, k the steered party's modes.
    A state with no nu below 1 - ``NU_ATOL`` gets exactly +0.0.
    """
    nu = symplectic_spectra(schur_complements(stack, steering, steered))
    # summing zeros over the masked entries, rather than negating a sum
    # over the selection, keeps an empty selection at +0.0, not -0.0
    values = np.where(nu < 1.0 - NU_ATOL, -np.log(nu), 0.0).sum(axis=-1)
    return values, nu


def steering_one_mode_steered(sigma: CovarianceMatrix, steering, steered) -> float:
    """Determinant shortcut for a single-mode steered party.

    Equals max{0, (1/2) ln(det sigma_steering / det sigma_full)}, which
    agrees with :func:`gaussian_steering` because the single Schur
    eigenvalue is sqrt(det) of the complement.
    """
    steering, steered = _normalize_parties(sigma, steering, steered)
    if len(steered) != 1:
        raise UsageError(f"steered party must be one mode, got {steered}")
    m_steering = log_det(partial_trace(sigma, steering))
    m_full = log_det(sigma)
    return max(0.0, 0.5 * (m_steering - m_full))


def renyi2_pure_bipartite_entanglement(sigma: CovarianceMatrix, part) -> float:
    """Renyi-2 entanglement of a pure state across a bipartition.

    For pure Gaussian states this is (1/2) ln det of the marginal on
    ``part`` and coincides with the steering in both directions across
    the same split.
    """
    part = tuple(sorted(set(int(m) for m in part)))
    if not part or len(part) >= sigma.n_modes:
        raise UsageError("part must be a non-empty proper subset of the modes")
    if not is_pure(sigma):
        raise DomainError("Renyi-2 pure-state entanglement requires a pure input state")
    return 0.5 * log_det(partial_trace(sigma, part))


def exclusivity_values(stack: np.ndarray, party_a, party_b, steered_mode: int) -> np.ndarray:
    """min(G^{A->C}, G^{B->C}) of every CM in a (N, 2n, 2n) stack.

    Each value is taken on the respective two-party marginal.  A and B
    may hold any number of modes; C is one mode.
    """
    n = stack.shape[-1] // 2
    c = int(steered_mode)
    values = []
    for party in (party_a, party_b):
        party = tuple(sorted(set(int(m) for m in party)))
        if not party:
            raise UsageError("steering parties must be non-empty")
        if c in party:
            raise UsageError("steered mode cannot belong to a steering party")
        order = sorted(party + (c,))
        if order[0] < 0 or order[-1] >= n:
            raise UsageError(f"mode indices out of range for {n} modes")
        idx = quadrature_indices(order)
        marginal = stack[..., idx, :][..., idx]
        steering = tuple(order.index(m) for m in party)
        values.append(steering_values(marginal, steering, (order.index(c),))[0])
    return np.minimum(*values)


def exclusivity_check(sigma: CovarianceMatrix, party_a, party_b, steered_mode: int,
                      tol: float = 1e-9) -> bool:
    """Two parties cannot both steer the same single-mode party.

    Computes G^{A->C} and G^{B->C} on the respective two-party marginals
    and checks min of the two <= tol (:func:`exclusivity_values` of a
    batch of one).
    """
    return bool(exclusivity_values(sigma.matrix[None], party_a, party_b, steered_mode)[0] <= tol)


@dataclass(frozen=True)
class LogDetBoundReport:
    """Slack of the bound 2 G^{A->B} >= M(sigma_A) - M(sigma_AB).

    ``applicable`` is False when G = 0, where the bound is not claimed
    (it still holds trivially).  For a single-mode steered party with
    G > 0 the bound is tight and the slack vanishes.
    """

    slack: float
    steering_value: float
    applicable: bool


def logdet_steering_bound_check(sigma: CovarianceMatrix, steering, steered) -> LogDetBoundReport:
    """Evaluate 2 G - (M(sigma_steering) - M(sigma_full))."""
    g = gaussian_steering(sigma, steering, steered).value
    m_steering = log_det(partial_trace(sigma, steering))
    slack = 2.0 * g - (m_steering - log_det(sigma))
    return LogDetBoundReport(slack=float(slack), steering_value=g, applicable=g > 0.0)
