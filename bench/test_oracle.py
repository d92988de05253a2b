"""Tests of the benchmark's oracle on states it builds itself.

Run with ``python3 -m pytest bench/test_oracle.py``.  Nothing here
imports steerlab: the oracle is checked against textbook identities, so
that it can in turn check the program.
"""

import math

import numpy as np
import pytest

import oracle

SEEDS = range(12)


def direct_schur(sigma, removed_positions):
    n = sigma.shape[0] // 2
    kept = [m for m in range(n) if m not in removed_positions]
    ir, ik = oracle.quadratures(removed_positions), oracle.quadratures(kept)
    a = sigma[np.ix_(ir, ir)]
    c = sigma[np.ix_(ir, ik)]
    return sigma[np.ix_(ik, ik)] - c.T @ np.linalg.solve(a, c)


@pytest.mark.parametrize("seed", SEEDS)
def test_conditional_covariance_is_the_schur_complement(seed):
    rng = np.random.default_rng(seed)
    sigma = oracle.random_mixed_cm(4, rng)
    for removed in ([0], [1, 3], [0, 1, 2]):
        kept = [m for m in range(4) if m not in removed]
        np.testing.assert_allclose(
            oracle.conditional_covariance(sigma, kept),
            direct_schur(sigma, removed),
            rtol=1e-10, atol=1e-12,
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_spectrum_recovers_williamson_form(seed):
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    nu = np.sort(rng.uniform(1.0, 3.0, n))
    s = oracle.random_symplectic(n, rng)
    np.testing.assert_allclose(s @ oracle.omega(n) @ s.T, oracle.omega(n), atol=1e-12)
    sigma = (s * np.repeat(nu, 2)) @ s.T
    np.testing.assert_allclose(oracle.symplectic_spectrum(sigma), nu, rtol=1e-10)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_mode_steered_closed_form(seed):
    rng = np.random.default_rng(seed)
    sigma = oracle.two_mode_squeezed_vacuum(0.4) if seed == 0 else oracle.random_mixed_cm(3, rng)
    n = sigma.shape[0] // 2
    for steered in range(n):
        for steering in ([m for m in range(n) if m != steered], [(steered + 1) % n]):
            assert oracle.steering(sigma, steering, [steered]) == pytest.approx(
                oracle.steering_one_mode_steered(sigma, steering, steered), abs=1e-10
            )


@pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 1.3])
def test_tmsv_steering_is_ln_cosh_2r(r):
    sigma = oracle.two_mode_squeezed_vacuum(r)
    assert math.sqrt(np.linalg.det(oracle.marginal(sigma, [0]))) == pytest.approx(math.cosh(2 * r))
    for steering, steered in (([0], [1]), ([1], [0])):
        assert oracle.steering(sigma, steering, steered) == pytest.approx(
            oracle.tmsv_steering(r), abs=1e-12
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_monogamy_residuals_nonnegative(seed):
    rng = np.random.default_rng(seed)
    sigma = oracle.random_mixed_cm(3 + seed % 2, rng)
    for focus in range(sigma.shape[0] // 2):
        for direction in (oracle.STEERED_BY_REST, oracle.STEERS_REST):
            residual, _ = oracle.monogamy_residual(sigma, focus, direction)
            assert residual >= -1e-10


@pytest.mark.parametrize("seed", SEEDS)
def test_standard_form_sampler(seed):
    sigma = oracle.random_standard_form(np.random.default_rng(seed))
    defects = oracle.standard_form_defects(sigma, oracle.local_invariants(sigma))
    assert max(defects.values()) < 1e-12


def test_standard_form_defects_flag_a_rotated_state():
    sigma = oracle.random_standard_form(np.random.default_rng(1), r_max=0.8)
    rot = oracle._rotation(3, 0, 0.3)
    defects = oracle.standard_form_defects(rot @ sigma @ rot.T, oracle.local_invariants(sigma))
    assert defects["purity"] < 1e-12
    assert defects["structure"] > 1e-3


@pytest.mark.parametrize("seed", SEEDS)
def test_rgs_is_the_minimum_residual(seed):
    sigma = oracle.random_standard_form(np.random.default_rng(seed))
    closed = oracle.rgs_closed_form(*oracle.local_invariants(sigma))
    assert closed >= 0.0
    for direction in (oracle.STEERED_BY_REST, oracle.STEERS_REST):
        least = min(oracle.monogamy_residual(sigma, k, direction)[0] for k in range(3))
        assert least == pytest.approx(closed, abs=1e-9)


@pytest.mark.parametrize("seed", SEEDS)
def test_key_rate_identities(seed):
    sigma = oracle.random_standard_form(np.random.default_rng(seed))
    invariants = oracle.local_invariants(sigma)
    for dealer, a in enumerate(invariants):
        v_p, v_x = oracle.joint_variances(sigma, dealer)
        assert 4.0 * v_p * v_x * a * a == pytest.approx(1.0, rel=1e-10)
    lower, upper = oracle.key_rate_envelope(oracle.rgs_closed_form(*invariants))
    k = oracle.key_rate_mode_invariant(sigma)
    assert lower - 1e-10 <= k <= upper + 1e-10


def test_key_rate_envelope_closes_on_a_vacuum_dealer():
    # a = 1: the dealer is uncorrelated, so RGS = 0 and both bounds meet
    sigma = np.eye(6)
    tmsv = oracle.two_mode_squeezed_vacuum(0.7)
    sigma[2:, 2:] = tmsv
    invariants = oracle.local_invariants(sigma)
    assert oracle.rgs_closed_form(*invariants) == pytest.approx(0.0, abs=1e-12)
    lower, upper = oracle.key_rate_envelope(0.0)
    assert lower == upper == -oracle.LN_E_HALF
    assert oracle.key_rate_full(sigma, 0) == pytest.approx(-oracle.LN_E_HALF, abs=1e-12)
