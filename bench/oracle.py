"""Reference computations that the benchmark checks steerlab against.

Written with numpy alone and sharing no code with steerlab, so that a
defect in the program cannot also sit in its check.  The conventions
are steerlab's: quadratures interleaved as x1, p1, x2, p2, ..., and
covariance matrices (CMs) normalized so that the vacuum is the identity.

Each quantity is reached by another route than the program's:

* conditional covariance: the inverse of the kept block of sigma^-1
  (the program forms sigma_B - C^T sigma_A^-1 C);
* symplectic spectrum: the positive half of eigvalsh(i L^T Omega L)
  with L the Cholesky factor (the program takes |eig(Omega M)|);
* closed forms where the physics gives them: G of a one-mode steered
  party, G of a two-mode squeezed vacuum, the RGS, the key-rate
  envelope and 4 V_P V_X = 1 / a^2.
"""

from __future__ import annotations

import math

import numpy as np

LN_E_HALF = 1.0 - math.log(2.0)  # ln(e/2)

STEERED_BY_REST = "steered-by-rest"
STEERS_REST = "steers-rest"


def omega(n_modes: int) -> np.ndarray:
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def quadratures(modes) -> list:
    return [q for m in sorted(modes) for q in (2 * m, 2 * m + 1)]


def marginal(sigma: np.ndarray, modes) -> np.ndarray:
    idx = quadratures(modes)
    return sigma[np.ix_(idx, idx)]


def conditional_covariance(sigma: np.ndarray, kept_positions) -> np.ndarray:
    """CM of the kept modes after homodyning every other mode of sigma:
    the inverse of the kept block of sigma^-1."""
    idx = quadratures(kept_positions)
    return np.linalg.inv(np.linalg.inv(sigma)[np.ix_(idx, idx)])


def symplectic_spectrum(m: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a positive-definite matrix, ascending.

    With m = L L^T, the Hermitian matrix i L^T Omega L has eigenvalues
    +-nu_k; the positive half are the nu_k.
    """
    chol = np.linalg.cholesky(0.5 * (m + m.T))
    n = m.shape[0] // 2
    return np.linalg.eigvalsh(1j * (chol.T @ omega(n) @ chol))[n:]


def steering(sigma: np.ndarray, steering_modes, steered_modes) -> float:
    """G^{steering -> steered} on the marginal of the two parties."""
    modes = sorted(set(steering_modes) | set(steered_modes))
    sub = marginal(sigma, modes)
    kept = [modes.index(m) for m in steered_modes]
    nu = symplectic_spectrum(conditional_covariance(sub, kept))
    return float(sum(-math.log(v) for v in nu if v < 1.0))


def steering_one_mode_steered(sigma: np.ndarray, steering_modes, steered_mode: int) -> float:
    """Closed form max(0, 1/2 ln(det sigma_steering / det sigma_both))."""
    both = sorted(set(steering_modes) | {steered_mode})
    ratio = np.linalg.det(marginal(sigma, steering_modes)) / np.linalg.det(marginal(sigma, both))
    return max(0.0, 0.5 * math.log(ratio))


def tmsv_steering(r: float) -> float:
    """G of a two-mode squeezed vacuum, either direction: ln cosh 2r."""
    return math.log(math.cosh(2.0 * r))


def monogamy_residual(sigma: np.ndarray, focus: int, direction: str):
    """(residual, collective) for single-mode parties covering sigma."""
    n = sigma.shape[0] // 2
    rest = [m for m in range(n) if m != focus]
    if direction == STEERED_BY_REST:
        collective = steering(sigma, rest, [focus])
        pairwise = sum(steering(sigma, [j], [focus]) for j in rest)
    else:
        collective = steering(sigma, [focus], rest)
        pairwise = sum(steering(sigma, [focus], [j]) for j in rest)
    return collective - pairwise, collective


def rgs_closed_form(a: float, b: float, c: float) -> float:
    return math.log(min(b * c / a, c * a / b, a * b / c))


def key_rate_envelope(rgs: float):
    """(lower, upper): RGS/2 - ln(e/2) <= K <= RGS - ln(e/2)."""
    return rgs / 2.0 - LN_E_HALF, rgs - LN_E_HALF


def local_invariants(sigma: np.ndarray):
    return tuple(math.sqrt(np.linalg.det(marginal(sigma, [m]))) for m in range(3))


def _variance_given(sigma: np.ndarray, target: int, conditioners) -> float:
    """Physical variance (CM entry / 2) of quadrature ``target`` after the
    best linear inference from ``conditioners``: 1 / (2 [S^-1]_00), S the
    CM restricted to the target and its conditioners."""
    idx = [target, *conditioners]
    return 0.5 / np.linalg.inv(sigma[np.ix_(idx, idx)])[0, 0]


def joint_variances(sigma: np.ndarray, dealer: int):
    """(V_P, V_X) of the dealer given both players' same quadrature."""
    b, c = (m for m in range(3) if m != dealer)
    v_p = _variance_given(sigma, 2 * dealer + 1, [2 * b + 1, 2 * c + 1])
    v_x = _variance_given(sigma, 2 * dealer, [2 * b, 2 * c])
    return v_p, v_x


def key_rate_full(sigma: np.ndarray, dealer: int) -> float:
    """Raw K_full with key quadrature p: joint inference of p, and the
    worse single-player inference of the x check."""
    v_p, _ = joint_variances(sigma, dealer)
    v_check = max(
        _variance_given(sigma, 2 * dealer, [2 * m]) for m in range(3) if m != dealer
    )
    return -1.0 - 0.5 * (math.log(v_p) + math.log(v_check))


def key_rate_mode_invariant(sigma: np.ndarray) -> float:
    return min(key_rate_full(sigma, d) for d in range(3))


def invariant_scale(a: float, b: float, c: float) -> float:
    """1 + ln(abc): how the rounding error of rates and residuals grows
    with the invariants (the largest entries of sigma are ~a, b, c and
    its conditioning ~(abc)^2)."""
    return 1.0 + math.log(a * b * c)


def standard_form_defects(sigma: np.ndarray, invariants) -> dict:
    """Worst deviations of a three-mode CM from a pure standard form with
    the given local invariants, each relative to the matrix scale."""
    scale = float(np.max(np.abs(sigma)))
    nu = symplectic_spectrum(sigma)
    got = local_invariants(sigma)
    off = []
    for i in range(3):
        off.append(sigma[2 * i, 2 * i] - sigma[2 * i + 1, 2 * i + 1])
        off.append(sigma[2 * i, 2 * i + 1])
        for j in range(i + 1, 3):
            off.append(sigma[2 * i, 2 * j + 1])
            off.append(sigma[2 * i + 1, 2 * j])
    return {
        "purity": float(np.max(np.abs(nu - 1.0))) / scale,
        "invariants": max(abs(g - w) / max(1.0, w) for g, w in zip(got, invariants)),
        "structure": max(abs(v) for v in off) / scale,
    }


# --- samplers, used to write the benchmark's own state files and in the
# oracle's tests; built from elementary optical elements rather than a
# Haar unitary, unlike steerlab's sampler.

def _rotation(n: int, mode: int, theta: float) -> np.ndarray:
    s = np.eye(2 * n)
    c, t = math.cos(theta), math.sin(theta)
    i = 2 * mode
    s[i : i + 2, i : i + 2] = [[c, t], [-t, c]]
    return s


def _squeezer(n: int, mode: int, r: float) -> np.ndarray:
    s = np.eye(2 * n)
    s[2 * mode, 2 * mode] = math.exp(-r)
    s[2 * mode + 1, 2 * mode + 1] = math.exp(r)
    return s


def _beamsplitter(n: int, i: int, j: int, transmissivity: float) -> np.ndarray:
    s = np.eye(2 * n)
    t, u = math.sqrt(transmissivity), math.sqrt(1.0 - transmissivity)
    for q in (0, 1):
        a, b = 2 * i + q, 2 * j + q
        s[a, a] = s[b, b] = t
        s[a, b] = u
        s[b, a] = -u
    return s


def random_symplectic(n: int, rng: np.random.Generator, r_max: float = 1.0) -> np.ndarray:
    """Two layers of phase rotations, squeezers and beamsplitters on
    every mode pair."""
    s = np.eye(2 * n)
    for _ in range(2):
        for m in range(n):
            s = _rotation(n, m, rng.uniform(0.0, 2.0 * math.pi)) @ s
            s = _squeezer(n, m, rng.uniform(-r_max, r_max)) @ s
        for i in range(n):
            for j in range(i + 1, n):
                s = _beamsplitter(n, i, j, rng.uniform(0.0, 1.0)) @ s
    return s


def random_mixed_cm(n: int, rng: np.random.Generator) -> np.ndarray:
    """S (+)_k nu_k I_2 S^T with thermal symplectic eigenvalues nu_k in [1, 2]."""
    s = random_symplectic(n, rng)
    nu = np.repeat(rng.uniform(1.0, 2.0, n), 2)
    m = (s * nu) @ s.T
    return 0.5 * (m + m.T)


def two_mode_squeezed_vacuum(r: float) -> np.ndarray:
    """TMSV as a 50:50 beamsplitter on an x- and a p-squeezed vacuum."""
    s = _beamsplitter(2, 0, 1, 0.5) @ _squeezer(2, 0, r) @ _squeezer(2, 1, -r)
    return s @ s.T


def random_standard_form(rng: np.random.Generator, r_max: float = 1.0) -> np.ndarray:
    """Random pure three-mode CM in standard form.

    Squeezed vacua through real beamsplitters keep x and p uncorrelated,
    so the inter-modal blocks are diagonal; a local squeezer per mode
    then makes each local block scalar.  The key rate with key
    quadrature p is steerlab's for the orientation with the larger
    correlations on x, so a quarter turn of every mode puts them there.
    """
    s = np.eye(6)
    for m in range(3):
        s = _squeezer(3, m, rng.uniform(-r_max, r_max)) @ s
    for i, j in ((0, 1), (1, 2), (0, 2)):
        s = _beamsplitter(3, i, j, rng.uniform(0.0, 1.0)) @ s
    sigma = s @ s.T
    for m in range(3):
        k = math.log(sigma[2 * m + 1, 2 * m + 1] / sigma[2 * m, 2 * m]) / 4.0
        z = _squeezer(3, m, -k)
        sigma = z @ sigma @ z.T
    x_corr = abs(sigma[0, 2]) + abs(sigma[0, 4]) + abs(sigma[2, 4])
    p_corr = abs(sigma[1, 3]) + abs(sigma[1, 5]) + abs(sigma[3, 5])
    if x_corr < p_corr:
        turn = _rotation(3, 0, math.pi / 2) @ _rotation(3, 1, math.pi / 2) @ _rotation(3, 2, math.pi / 2)
        sigma = turn @ sigma @ turn.T
    return 0.5 * (sigma + sigma.T)
