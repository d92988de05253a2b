"""Monogamy residuals of the steering measure and the residual Gaussian
steering (RGS) of pure three-mode states.

Two families of residuals are supported for any number of single-mode
parties: collective-steered minus pairwise-steered (focus party steered
by the rest) and the reverse direction (focus party steering the rest).
For pure three-mode states the minimum residual over permutations is the
same in both directions and has the closed form ln min{bc/a, ca/b,
ab/c}; that quantity, the RGS, is a quantifier of genuine tripartite
steering.

One kernel, :func:`residual_kernel`, evaluates every residual of a stack
of states; :func:`monogamy_residual` and :func:`rgs` pass it a batch of
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalError, UsageError
from .states import PureThreeModeParams, ghz_network, local_invariants, OpticalNetworkParams
from .steering import steering_values
from .symplectic import CovarianceMatrix, is_pure
from .tables import SweepTable, ordered_map

# Direction tags: the focus party is steered by the rest, or steers it.
STEERED_BY_REST = "steered-by-rest"
STEERS_REST = "steers-rest"
# Order of the direction axis of the kernel's arrays.
DIRECTIONS = (STEERED_BY_REST, STEERS_REST)


@dataclass(frozen=True)
class MonogamyReport:
    """One monogamy residual: collective term minus pairwise terms."""

    focus: int
    direction: str
    collective: float
    pairwise: tuple
    residual: float

    def to_dict(self) -> dict:
        return {
            "focus": self.focus,
            "direction": self.direction,
            "collective": self.collective,
            "pairwise": list(self.pairwise),
            "residual": self.residual,
        }


def _single_mode_parties(sigma: CovarianceMatrix, parties):
    out = []
    for p in parties:
        if isinstance(p, (int, np.integer)):
            p = (int(p),)
        p = tuple(sorted(set(int(m) for m in p)))
        if len(p) != 1:
            raise UsageError(
                f"monogamy residuals are defined for single-mode parties, got {p}"
            )
        out.append(p[0])
    if len(out) < 2:
        raise UsageError("need at least two parties")
    if len(set(out)) != len(out):
        raise UsageError("parties must be disjoint")
    if set(out) != set(range(sigma.n_modes)):
        raise UsageError(
            "parties must cover every mode of the state; trace out unused modes first"
        )
    return out


def _gathered(stack: np.ndarray, orders) -> np.ndarray:
    """The marginal (or reordering) on each mode list of ``orders``,
    for every state, stacked state-major: (N * len(orders), 2k, 2k)."""
    idx = np.array([[q for m in order for q in (2 * m, 2 * m + 1)] for order in orders])
    out = stack[:, idx[:, :, None], idx[:, None, :]]
    return out.reshape(-1, idx.shape[1], idx.shape[1])


def residual_kernel(stack: np.ndarray):
    """Every monogamy residual of a stack of states of single-mode parties.

    ``stack`` is (N, 2n, 2n), one party per mode.  Returns

    * ``collective`` (N, 2, n): G^{rest -> k} and G^{k -> rest},
    * ``pairwise`` (N, n, n): G^{i -> j} on the {i, j} marginal, zero
      diagonal,
    * ``residual`` (N, 2, n): collective minus the pairwise terms into
      (``steered-by-rest``) or out of (``steers-rest``) focus k, summed
      over the other parties in ascending order.

    Each distinct G is evaluated once, in four kernel calls: the n focus
    reorderings (rest first, ascending) in both directions, and the
    n(n-1)/2 pair marginals in both directions.
    """
    count, n = len(stack), stack.shape[-1] // 2
    rest = [[j for j in range(n) if j != k] for k in range(n)]
    into = _gathered(stack, [r + [k] for k, r in enumerate(rest)])
    out_of = _gathered(stack, [[k] + r for k, r in enumerate(rest)])
    collective = np.stack((
        steering_values(into, tuple(range(n - 1)), (n - 1,))[0].reshape(count, n),
        steering_values(out_of, (0,), tuple(range(1, n)))[0].reshape(count, n),
    ), axis=1)
    first, second = np.triu_indices(n, 1)
    marginals = _gathered(stack, list(zip(first, second)))
    pairwise = np.zeros((count, n, n))
    pairwise[:, first, second] = steering_values(marginals, (0,), (1,))[0].reshape(count, -1)
    pairwise[:, second, first] = steering_values(marginals, (1,), (0,))[0].reshape(count, -1)
    # summed term by term, so that the order is the one monogamy_residual uses
    residual = np.empty_like(collective)
    for k in range(n):
        steered_sum = steering_sum = 0.0
        for j in rest[k]:
            steered_sum = steered_sum + pairwise[:, j, k]
            steering_sum = steering_sum + pairwise[:, k, j]
        residual[:, 0, k] = collective[:, 0, k] - steered_sum
        residual[:, 1, k] = collective[:, 1, k] - steering_sum
    return collective, pairwise, residual


def monogamy_residual(sigma: CovarianceMatrix, parties, k: int, direction: str) -> MonogamyReport:
    """Monogamy residual for focus party ``k``.

    With modes m_k and rest = all other parties, the residual is

    * ``steered-by-rest``: G^{rest -> m_k} - sum_j G^{m_j -> m_k},
    * ``steers-rest``:     G^{m_k -> rest} - sum_j G^{m_k -> m_j},

    where each pairwise term is evaluated on the corresponding two-party
    marginal.  Both residuals are non-negative for every valid state.
    The terms come from :func:`residual_kernel` on a batch of one; the
    pairwise terms are listed, and summed, in the order of ``parties``.
    """
    modes = _single_mode_parties(sigma, parties)
    if not 0 <= k < len(modes):
        raise UsageError(f"focus index {k} out of range for {len(modes)} parties")
    if direction not in DIRECTIONS:
        raise UsageError(f"unknown direction {direction!r}")
    focus = modes[k]
    rest = [m for m in modes if m != focus]
    collective, pairwise, _ = residual_kernel(sigma.matrix[None])
    collective = float(collective[0, DIRECTIONS.index(direction), focus])
    if direction == STEERED_BY_REST:
        terms = tuple(float(pairwise[0, j, focus]) for j in rest)
    else:
        terms = tuple(float(pairwise[0, focus, j]) for j in rest)
    return MonogamyReport(
        focus=k,
        direction=direction,
        collective=collective,
        pairwise=terms,
        residual=collective - sum(terms),
    )


@dataclass(frozen=True)
class RgsValue:
    """Residual Gaussian steering with its per-permutation residuals.

    ``residuals`` maps (focus index, direction) to the residual value;
    all six are recorded, the value is their minimum, and the minima of
    the two directions agree for pure three-mode states.
    """

    value: float
    focus: int
    direction: str
    residuals: dict

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "focus": self.focus,
            "direction": self.direction,
            "residuals": {f"{k}:{d}": v for (k, d), v in self.residuals.items()},
        }


def rgs(sigma: CovarianceMatrix) -> RgsValue:
    """Residual Gaussian steering of a pure three-mode state.

    Evaluates the monogamy residual for every focus party in both
    directions (six residuals) and returns the minimum.  The two
    directional minima must agree to 1e-9, which is asserted.
    """
    if sigma.n_modes != 3:
        raise UsageError(f"rgs needs a 3-mode state, got {sigma.n_modes} modes")
    if not is_pure(sigma):
        raise DomainError("rgs is defined for pure three-mode states")
    _, _, residual = residual_kernel(sigma.matrix[None])
    residuals = {
        (k, direction): float(residual[0, d, k])
        for d, direction in enumerate(DIRECTIONS)
        for k in range(3)
    }
    min_steered = min(residuals[(k, STEERED_BY_REST)] for k in range(3))
    min_steering = min(residuals[(k, STEERS_REST)] for k in range(3))
    if abs(min_steered - min_steering) > 1e-9:
        raise InternalError(
            f"directional minima disagree: {min_steered} vs {min_steering}"
        )
    (focus, direction), value = min(residuals.items(), key=lambda kv: kv[1])
    return RgsValue(value=float(value), focus=focus, direction=direction, residuals=residuals)


def rgs_closed_form(params) -> float:
    """ln min{bc/a, ca/b, ab/c} for local invariants (a, b, c).

    Non-negative on the whole triangle region, since each ratio is >= 1
    there.
    """
    if not isinstance(params, PureThreeModeParams):
        params = PureThreeModeParams(*params)
    a, b, c = params.as_tuple()
    return math.log(min(b * c / a, c * a / b, a * b / c))


def fig1a_sweep(a: float, grid: int = 200, b_max: float = 5.0, threads: int = 1) -> SweepTable:
    """RGS over a (b, c) grid at fixed a, restricted to the triangle.

    Columns b, c, rgs; rows ordered by b then c.  The maximum over the
    grid is ln a, attained on the b = c diagonal with b >= a.
    """
    if grid < 2:
        raise UsageError("grid must have at least 2 points per axis")
    if b_max <= 1.0:
        raise UsageError("b_max must exceed 1")
    axis = np.linspace(1.0, b_max, grid)

    def row_block(b):
        rows = []
        for c in axis:
            if a <= b + c - 1.0 and b <= c + a - 1.0 and c <= a + b - 1.0:
                rows.append((float(b), float(c), rgs_closed_form((a, b, c))))
        return rows

    blocks = ordered_map(row_block, axis, threads)
    return SweepTable(("b", "c", "rgs"), [r for block in blocks for r in block])


def fig1b_sweep(r: float, grid: int = 1000, threads: int = 1) -> SweepTable:
    """RGS of the generation network versus reflectivity R at R' = 1/2.

    Columns R, a, b, c, rgs; R runs over [0, 1] inclusive.  With r > 0
    the maximum sits at R = 1/3, the permutationally invariant state.
    """
    if grid < 2:
        raise UsageError("grid must have at least 2 points")
    axis = np.linspace(0.0, 1.0, grid + 1)

    def one(R):
        sigma = ghz_network(OpticalNetworkParams(r=r, R=float(R), R_prime=0.5))
        a, b, c = local_invariants(sigma)
        return (float(R), a, b, c, rgs_closed_form((a, b, c)))

    return SweepTable(("R", "a", "b", "c", "rgs"), ordered_map(one, axis, threads))
