"""Secret-sharing key rates of pure three-mode states in standard form.

A dealer extracts a key from homodyne outcomes; the two players infer
it through an optimally weighted joint variable.  The eavesdropping
rate K_E uses joint inference on both quadratures; the unconditional
rate K_full replaces the check-quadrature variance with the worst
single-player inference, guarding against a dishonest player.  Both are
reported in nats and may be negative (no guaranteed key).

One array kernel, :func:`key_rates`, computes every rate.  It takes the
x- and p-block stacks X, P of shape (N, 3, 3) of standard-form states,
whose CM is X (+) P, and returns the joint and single-player
conditional variances, the joint gains and the rates of all N states
at once.  ``fig2_campaign`` builds and checks its rows in one batch
(:func:`steerlab.states.standard_form_blocks`) and rates them in one
call; the single-state functions check the standard form once per call
and pass the CM's two blocks to the same kernel as a batch of one.
:func:`conditional_variance` stays as the general-CM operation.

All physical variances are covariance-matrix entries divided by two,
so the vacuum variance is 1/2.  That normalization is what makes
4 V_{P|Pbar} V_{X|Xbar} = 1/a^2 hold on pure standard-form states, and
it is pinned by a unit test rather than a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalError, UsageError
from .monogamy import rgs_closed_form
from .states import (
    OpticalNetworkParams,
    PureThreeModeParams,
    SamplerConfig,
    _params_sample,
    db_from_r,
    ghz_network,
    local_invariants,
    standard_form_blocks,
    standard_form_pure,
)
from .symplectic import CovarianceMatrix, is_pure
from .tables import SweepTable, ordered_map

LN_E_HALF = 1.0 - math.log(2.0)  # ln(e/2)

# The mode-invariant key rate is guaranteed positive once the residual
# steering exceeds twice ln(e/2); below that only the upper bound is.
RGS_POSITIVITY_THRESHOLD = 2.0 * LN_E_HALF

_DEALER_LABELS = ("A", "B", "C")
_QUADS = ("x", "p")  # order of the quadrature axes of KeyRates
_X, _P = 0, 1


@dataclass(frozen=True)
class JointGains:
    """Coefficients of the players' joint variable g X_B + h X_C."""

    g: float
    h: float

    def to_dict(self) -> dict:
        return {"g": self.g, "h": self.h}


def _quad_index(mode: int, quadrature: str) -> int:
    if quadrature not in _QUADS:
        raise UsageError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    return 2 * int(mode) + (1 if quadrature == "p" else 0)


def conditional_variance(sigma: CovarianceMatrix, target, conditioners):
    """Minimum inference variance of one quadrature given others.

    ``target`` is a (mode, quadrature) pair and ``conditioners`` a list
    of such pairs.  Returns (variance, gains): one half of the scalar
    Schur complement of the conditioners' block (the half converts CM
    entries to physical variances, vacuum = 1/2), and the minimizing
    linear coefficients, as a bare float for one conditioner, a
    :class:`JointGains` for two, or an array otherwise.
    """
    t = _quad_index(*target)
    idx = [_quad_index(*c) for c in conditioners]
    if not idx:
        raise UsageError("at least one conditioner is required")
    if len(set(idx)) != len(idx):
        raise UsageError("conditioners must be distinct")
    if t in idx:
        raise UsageError("target quadrature cannot be one of the conditioners")
    if max(idx + [t]) >= 2 * sigma.n_modes:
        raise UsageError(f"quadrature index out of range for {sigma.n_modes} modes")
    m = sigma.matrix
    block = m[np.ix_(idx, idx)]
    cross = m[t, idx]
    try:
        gains = np.linalg.solve(block, cross)
    except np.linalg.LinAlgError:
        raise DomainError("conditioner block is singular")
    variance = 0.5 * float(m[t, t] - cross @ gains)
    if len(idx) == 1:
        return variance, float(gains[0])
    if len(idx) == 2:
        return variance, JointGains(float(gains[0]), float(gains[1]))
    return variance, gains


def _dealer_index(dealer) -> int:
    if isinstance(dealer, str):
        label = dealer.upper()
        if label not in _DEALER_LABELS:
            raise UsageError(f"dealer must be one of {_DEALER_LABELS}, got {dealer!r}")
        return _DEALER_LABELS.index(label)
    d = int(dealer)
    if not 0 <= d < 3:
        raise UsageError(f"dealer index {d} out of range")
    return d


def require_standard_form(sigma: CovarianceMatrix, tol: float = 1e-8) -> None:
    """Reject inputs that are not pure three-mode CMs in standard form.

    Homodyne x/p key rates are not invariant under local symplectic
    rotations, so the key-rate operations insist on the standard form:
    scalar local blocks and diagonal inter-modal blocks.
    """
    if sigma.n_modes != 3:
        raise DomainError(f"key rates need a 3-mode state, got {sigma.n_modes} modes")
    if not is_pure(sigma):
        raise DomainError("key rates are defined for pure states")
    m = sigma.matrix
    for i in range(3):
        if abs(m[2 * i, 2 * i] - m[2 * i + 1, 2 * i + 1]) > tol or abs(m[2 * i, 2 * i + 1]) > tol:
            raise DomainError("local blocks are not scalar; state is not in standard form")
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(m[2 * i, 2 * j + 1]) > tol or abs(m[2 * i + 1, 2 * j]) > tol:
                raise DomainError("inter-modal blocks are not diagonal; state is not in standard form")


def _players(dealer: int):
    return tuple(m for m in range(3) if m != dealer)


# Dealer d and its players j < k, as index arrays over d = A, B, C.
_D = np.arange(3)
_J = np.array([1, 0, 0])
_K = np.array([2, 2, 1])


@dataclass(frozen=True)
class KeyRates:
    """Key-rate ingredients of N standard-form states, as arrays.

    Quadrature axes run (x, p), dealer axes (A, B, C), and player axes
    over the dealer's two players in ascending order.  Variances are
    physical (vacuum 1/2); rates are raw, in nats.
    """

    joint: np.ndarray  # (N, 2, 3): dealer's quadrature given both players'
    gains: np.ndarray  # (N, 2, 3, 2): the players' weights (g, h) in it
    single: np.ndarray  # (N, 2, 3, 2): dealer's quadrature given one player's
    k_e: np.ndarray  # (N, 3): against an external eavesdropper
    k_full: np.ndarray  # (N, 2, 3): full rate with key quadrature x or p


def key_rates(x: np.ndarray, p: np.ndarray) -> KeyRates:
    """Conditional variances, gains and key rates of standard-form states.

    ``x`` and ``p`` are the (N, 3, 3) x- and p-block stacks of pure
    three-mode states in standard form.  Each variance is one half of a
    Schur complement in its quadrature's block: of the player's entry,
    X_dd - X_dj (X_dj / X_jj), for one player, and of the players' 2x2
    block, X_dd - (X_dj g + X_dk h) with gains (g, h) solving that
    block's system, for both; on the ill-conditioned b = c = 10^3
    family this order of operations errs no more than an LU solve.  The
    general form is kept rather than the purity shortcut 1 / (X^-1)_dd,
    so that 4 V_P V_X = 1/a^2 remains a test of the state.  Every
    operation acts elementwise along the batch, so a row's result does
    not depend on the other rows.
    """
    q = np.stack((x, p), axis=1)
    qdd, qjj, qkk = q[..., _D, _D], q[..., _J, _J], q[..., _K, _K]
    qdj, qdk, qjk = q[..., _D, _J], q[..., _D, _K], q[..., _J, _K]
    single = 0.5 * np.stack((qdd - qdj * (qdj / qjj), qdd - qdk * (qdk / qkk)), axis=-1)
    # gains (g, h) solve the players' 2x2 system, eliminating j: h is the
    # dealer-k covariance over k's variance, both given j
    t = qjk / qjj
    h = (qdk - qdj * t) / (qkk - qjk * t)
    g = (qdj - qjk * h) / qjj
    joint = 0.5 * (qdd - (qdj * g + qdk * h))
    ln_joint = np.log(joint)
    # the key quadrature is inferred jointly, the other one (the check)
    # by the worse single player
    ln_check = np.log(single.max(axis=-1))[:, ::-1]
    return KeyRates(
        joint=joint,
        gains=np.stack((g, h), axis=-1),
        single=single,
        k_e=-1.0 - 0.5 * (ln_joint[:, _P] + ln_joint[:, _X]),
        k_full=-1.0 - 0.5 * (ln_joint + ln_check),
    )


def mode_invariant_rates(triples) -> np.ndarray:
    """Raw mode-invariant K_full, with the default key quadrature p, of
    the standard-form states of N (a, b, c) triples, built, checked and
    rated in one batch."""
    return key_rates(*standard_form_blocks(triples)).k_full[:, _P].min(axis=-1)


def _state_rates(sigma: CovarianceMatrix) -> KeyRates:
    """:func:`key_rates` of one state, checked to be in standard form."""
    require_standard_form(sigma)
    m = sigma.matrix
    return key_rates(m[0::2, 0::2][None], m[1::2, 1::2][None])


def _full_rates(sigma: CovarianceMatrix, key_quadrature: str) -> np.ndarray:
    """Raw K_full of one state per dealer, for the key quadrature 'x',
    'p', or 'best' (the larger of the two)."""
    if key_quadrature != "best" and key_quadrature not in _QUADS:
        raise UsageError(f"key_quadrature must be 'p', 'x' or 'best', got {key_quadrature!r}")
    k_full = _state_rates(sigma).k_full[0]
    return k_full.max(axis=0) if key_quadrature == "best" else k_full[_QUADS.index(key_quadrature)]


def key_rate_eve(sigma: CovarianceMatrix, dealer) -> float:
    """Key rate against an external eavesdropper, raw (may be negative).

    K_E = -ln(e sqrt(V_{P|Pbar} V_{X|Xbar})) with both variances using
    the players' optimal joint variables.  On pure standard-form states
    this equals G^{(players)->dealer} - ln(e/2) whenever positive.
    """
    return float(_state_rates(sigma).k_e[0, _dealer_index(dealer)])


def key_rate_full(sigma: CovarianceMatrix, dealer, key_quadrature: str = "p") -> float:
    """Key rate secure against eavesdropping and dishonest players, raw.

    The key quadrature is inferred jointly, the check quadrature by each
    player alone, and the worse single-player check enters:
    K_full = -ln(e sqrt(V_{key|joint} max_j V_{check|player j})).
    ``key_quadrature`` is 'p' (default), 'x', or 'best' for the larger
    of the two assignments.
    """
    return float(_full_rates(sigma, key_quadrature)[_dealer_index(dealer)])


def key_rate_mode_invariant(sigma: CovarianceMatrix, key_quadrature: str = "p") -> float:
    """Minimum of the raw K_full over the three dealer assignments."""
    return float(_full_rates(sigma, key_quadrature).min())


@dataclass(frozen=True)
class DealerRecord:
    """Key-rate ingredients for one dealer assignment."""

    dealer: str
    v_p_joint: float
    v_x_joint: float
    gains_p: JointGains
    gains_x: JointGains
    v_check_single: dict
    k_e_raw: float
    k_full_raw: float

    @property
    def k_e(self) -> float:
        return max(0.0, self.k_e_raw)

    @property
    def k_full(self) -> float:
        return max(0.0, self.k_full_raw)

    def to_dict(self) -> dict:
        return {
            "dealer": self.dealer,
            "v_p_joint": self.v_p_joint,
            "v_x_joint": self.v_x_joint,
            "gains_p": self.gains_p.to_dict(),
            "gains_x": self.gains_x.to_dict(),
            "v_check_single": {_DEALER_LABELS[k]: v for k, v in self.v_check_single.items()},
            "k_e_raw": self.k_e_raw,
            "k_full_raw": self.k_full_raw,
            "k_e": self.k_e,
            "k_full": self.k_full,
        }


@dataclass(frozen=True)
class KeyRateReport:
    """Per-dealer rates, the mode-invariant rate, and the RGS bounds."""

    key_quadrature: str
    dealers: tuple
    mode_invariant_raw: float
    rgs: float
    slack_lower: float
    slack_upper: float

    @property
    def mode_invariant(self) -> float:
        return max(0.0, self.mode_invariant_raw)

    def to_dict(self) -> dict:
        return {
            "key_quadrature": self.key_quadrature,
            "dealers": [d.to_dict() for d in self.dealers],
            "mode_invariant_raw": self.mode_invariant_raw,
            "mode_invariant": self.mode_invariant,
            "rgs": self.rgs,
            "lower_bound": self.rgs / 2.0 - LN_E_HALF,
            "upper_bound": self.rgs - LN_E_HALF,
            "slack_lower": self.slack_lower,
            "slack_upper": self.slack_upper,
        }


def key_rate_report(sigma: CovarianceMatrix, key_quadrature: str = "p") -> KeyRateReport:
    """Full evaluation for every dealer, with the RGS bound slacks."""
    if key_quadrature not in _QUADS:
        raise UsageError(f"report key_quadrature must be 'p' or 'x', got {key_quadrature!r}")
    rates = _state_rates(sigma)
    key = _QUADS.index(key_quadrature)
    check = _P if key == _X else _X
    joint, gains, single = rates.joint[0].tolist(), rates.gains[0].tolist(), rates.single[0].tolist()
    k_e, k_full = rates.k_e[0].tolist(), rates.k_full[0, key].tolist()
    records = tuple(
        DealerRecord(
            dealer=_DEALER_LABELS[d],
            v_p_joint=joint[_P][d],
            v_x_joint=joint[_X][d],
            gains_p=JointGains(*gains[_P][d]),
            gains_x=JointGains(*gains[_X][d]),
            v_check_single=dict(zip(_players(d), single[check][d])),
            k_e_raw=k_e[d],
            k_full_raw=k_full[d],
        )
        for d in range(3)
    )
    k = min(k_full)
    g = rgs_closed_form(local_invariants(sigma))
    return KeyRateReport(
        key_quadrature=key_quadrature,
        dealers=records,
        mode_invariant_raw=k,
        rgs=g,
        slack_lower=k - (g / 2.0 - LN_E_HALF),
        slack_upper=(g - LN_E_HALF) - k,
    )


@dataclass(frozen=True)
class GhzThreshold:
    """Squeezing at which the GHZ-like network key rate turns positive."""

    r_star: float
    squeezing_db: float


def _ghz_key_rate(r: float) -> float:
    sigma = ghz_network(OpticalNetworkParams(r=r, R=1.0 / 3.0, R_prime=0.5))
    return key_rate_mode_invariant(standard_form_pure(local_invariants(sigma)))


def threshold_squeezing_ghz(r_lo: float = 1e-4, r_hi: float = 2.0) -> GhzThreshold:
    """Root of the mode-invariant key rate along the GHZ-like family.

    Bracketed root find in the squeezing parameter r at R = 1/3,
    R' = 1/2, resolved to 1e-10.
    """
    # imported here: scipy.optimize takes most of a cold start of the CLI
    from scipy.optimize import brentq

    f_lo, f_hi = _ghz_key_rate(r_lo), _ghz_key_rate(r_hi)
    if not (f_lo < 0.0 < f_hi):
        raise InternalError(
            f"key rate does not change sign on [{r_lo}, {r_hi}]: {f_lo} .. {f_hi}"
        )
    r_star = float(brentq(_ghz_key_rate, r_lo, r_hi, xtol=1e-10))
    return GhzThreshold(r_star=r_star, squeezing_db=db_from_r(r_star))


# Overlay series resolution in fig2_campaign tables.
_SERIES_POINTS = 201
_UPPER_FAMILY_BC = 1e3


def fig2_campaign(cfg: SamplerConfig, threads: int = 1) -> SweepTable:
    """Monte Carlo key rate versus RGS, with boundary and GHZ overlays.

    Emits one row per sampled (a, b, c) triple (series ``sample``),
    followed by the lower-boundary family b = c = (a+1)/2, the
    upper-boundary family b = c = 10^3, and the a = b = c family
    (series ``lower_boundary``, ``upper_boundary``, ``ghz``), each on a
    fixed grid of a in [1, a_max].  Sample i draws its triple from its
    own generator; then every row is built, checked and rated in one
    batch, so rows are ordered by sample index regardless of thread
    count.
    """
    params = ordered_map(
        lambda i: _params_sample(cfg.rng_for(i), cfg.a_max, cfg.distribution),
        range(cfg.count),
        threads,
    )
    series = ["sample"] * cfg.count
    a_grid = np.linspace(1.0, cfg.a_max, _SERIES_POINTS).tolist()
    for name, family in (
        ("lower_boundary", lambda a: (a, (a + 1.0) / 2.0, (a + 1.0) / 2.0)),
        ("upper_boundary", lambda a: (a, _UPPER_FAMILY_BC, _UPPER_FAMILY_BC)),
        ("ghz", lambda a: (a, a, a)),
    ):
        params += [PureThreeModeParams(*family(a)) for a in a_grid]
        series += [name] * len(a_grid)
    k_raw = mode_invariant_rates(params)
    rows = []
    for index, (par, name, k) in enumerate(zip(params, series, k_raw.tolist())):
        g = rgs_closed_form(par)
        lower = g / 2.0 - LN_E_HALF
        upper = g - LN_E_HALF
        rows.append(
            (index, *par.as_tuple(), g, k, max(0.0, k), lower, upper, k - lower, upper - k, name)
        )
    return SweepTable(
        (
            "sample_index", "a", "b", "c", "rgs", "k_raw", "k_clamped",
            "lower_bound", "upper_bound", "slack_lower", "slack_upper", "series",
        ),
        rows,
    )
