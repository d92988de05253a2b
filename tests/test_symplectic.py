"""Covariance-matrix container, symplectic spectra, Schur complements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerlab import (
    CovarianceMatrix,
    DomainError,
    UsageError,
    apply_symplectic,
    beamsplitter,
    conditional_log_det,
    is_pure,
    is_valid_cm,
    log_det,
    omega,
    partial_trace,
    schur_complement,
    squeezed_vacuum,
    symplectic_eigenvalues,
    two_mode_squeezed,
    vacuum,
)
from steerlab.symplectic import (
    _validity,
    quadrature_indices,
    require_bona_fide,
    schur_complements,
    symplectic_spectra,
)

from conftest import random_spd


def test_omega_squares_to_minus_identity():
    for n in (1, 2, 3):
        w = omega(n)
        np.testing.assert_allclose(w @ w, -np.eye(2 * n), atol=0)
        np.testing.assert_allclose(w.T, -w, atol=0)


def test_omega_interleaved_blocks():
    w = omega(2)
    assert w[0, 1] == 1 and w[1, 0] == -1
    assert w[2, 3] == 1 and w[3, 2] == -1
    assert np.count_nonzero(w) == 4
    # one cached array serves every caller, so none may modify it
    assert omega(2) is w and not w.flags.writeable


def test_quadrature_indices_interleaved():
    assert quadrature_indices([0, 2]) == [0, 1, 4, 5]


def test_vacuum_is_valid_and_pure():
    sigma = vacuum(2)
    np.testing.assert_allclose(sigma.matrix, np.eye(4), atol=0)
    assert is_pure(sigma)


def test_validity_report_fields():
    rep = is_valid_cm(3.0 * np.eye(2))
    assert rep.ok
    assert rep.symmetry_defect == 0.0
    np.testing.assert_allclose(rep.min_eigenvalue, 3.0)
    np.testing.assert_allclose(rep.min_symplectic_eigenvalue, 3.0)


def test_invalid_below_uncertainty():
    # diag(1/2, 1/2) violates the uncertainty bound nu >= 1
    rep = is_valid_cm(0.5 * np.eye(2))
    assert not rep.ok
    with pytest.raises(DomainError):
        CovarianceMatrix.from_matrix(0.5 * np.eye(2))


def test_asymmetric_matrix_rejected():
    m = np.eye(2)
    m[0, 1] = 1e-3
    with pytest.raises(DomainError):
        CovarianceMatrix.from_matrix(m)


def test_tiny_asymmetry_symmetrized():
    m = 2.0 * np.eye(2)
    m[0, 1] = 1e-12
    sigma = CovarianceMatrix.from_matrix(m)
    np.testing.assert_allclose(sigma.matrix, sigma.matrix.T, atol=0)


def test_matrix_is_read_only():
    sigma = vacuum(1)
    with pytest.raises(ValueError):
        sigma.matrix[0, 0] = 5.0


def test_dict_round_trip():
    sigma = two_mode_squeezed(0.3)
    again = CovarianceMatrix.from_dict(sigma.to_dict())
    assert again.n_modes == 2
    np.testing.assert_allclose(again.matrix, sigma.matrix, atol=0)


def test_odd_dimension_rejected():
    with pytest.raises(UsageError):
        CovarianceMatrix.from_matrix(np.eye(3))


def test_symplectic_eigenvalue_squeezed_vacuum():
    # diag(4, 1/4) has nu = sqrt(det) = 1
    nu = symplectic_eigenvalues(np.diag([4.0, 0.25]))
    np.testing.assert_allclose(nu, [1.0], rtol=1e-12)


def test_symplectic_eigenvalue_thermal():
    nu = symplectic_eigenvalues(3.0 * np.eye(2))
    np.testing.assert_allclose(nu, [3.0], rtol=1e-12)


def test_symplectic_eigenvalues_direct_sum():
    m = np.zeros((4, 4))
    m[:2, :2] = np.diag([np.exp(1.0), np.exp(-1.0)])
    m[2:, 2:] = 5.0 * np.eye(2)
    nu = symplectic_eigenvalues(m)
    np.testing.assert_allclose(np.sort(nu), [1.0, 5.0], rtol=1e-12)


def test_symplectic_eigenvalues_tmsv_pure(tmsv_half):
    nu = symplectic_eigenvalues(tmsv_half.matrix)
    np.testing.assert_allclose(nu, [1.0, 1.0], rtol=1e-10)


def test_schur_complement_tmsv(tmsv_half):
    # conditioning a TMSV on the other arm leaves (1/cosh 2r) * I
    reduced = schur_complement(tmsv_half, removed=[1])
    np.testing.assert_allclose(reduced, np.eye(2) / np.cosh(1.0), atol=1e-14)


def test_schur_complement_vacuum_is_identity(vac3):
    np.testing.assert_allclose(schur_complement(vac3, [2]), np.eye(4), atol=0)


def test_schur_complement_rejects_empty_and_full(tmsv_half):
    with pytest.raises(UsageError):
        schur_complement(tmsv_half, [])
    with pytest.raises(UsageError):
        schur_complement(tmsv_half, [0, 1])


def test_partial_trace_tmsv(tmsv_half):
    arm = partial_trace(tmsv_half, kept=[0])
    np.testing.assert_allclose(arm.matrix, np.cosh(1.0) * np.eye(2), atol=1e-14)
    assert not is_pure(arm)


def test_partial_trace_keeps_order():
    sigma = two_mode_squeezed(0.4)
    swapped = partial_trace(sigma, kept=[1, 0])
    np.testing.assert_allclose(swapped.matrix[:2, 2:], sigma.matrix[2:, :2], atol=0)


def test_apply_symplectic_beamsplitter_preserves_vacuum():
    s = beamsplitter(0.3, (0, 1), 2)
    out = apply_symplectic(vacuum(2), s)
    np.testing.assert_allclose(out.matrix, np.eye(4), atol=1e-15)


def test_apply_symplectic_rejects_non_symplectic(tmsv_half):
    with pytest.raises(DomainError):
        apply_symplectic(tmsv_half, 2.0 * np.eye(4))


def test_log_det_matches_slogdet():
    rng = np.random.default_rng(11)
    for n in (2, 4, 6):
        m = random_spd(rng, n)
        sign, ref = np.linalg.slogdet(m)
        assert sign == 1.0
        np.testing.assert_allclose(log_det(m), ref, rtol=1e-12)


def test_log_det_rejects_indefinite():
    with pytest.raises(DomainError):
        log_det(np.diag([1.0, -1.0]))


def test_conditional_log_det_chain_rule(tmsv_half):
    # ln det sigma_AB - ln det sigma_B, with sigma_AB pure here
    direct = log_det(tmsv_half.matrix) - log_det(partial_trace(tmsv_half, [1]).matrix)
    np.testing.assert_allclose(
        conditional_log_det(tmsv_half, conditioned=[0], conditioning=[1]),
        direct,
        atol=1e-12,
    )


def test_is_pure_examples():
    assert is_pure(squeezed_vacuum(0.7))
    assert is_pure(two_mode_squeezed(1.0))
    assert not is_pure(CovarianceMatrix.from_matrix(1.5 * np.eye(2)))


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=-1.2, max_value=1.2),
    theta=st.floats(min_value=0.0, max_value=1.0),
)
def test_squeezer_rotation_orbit_stays_pure(r, theta):
    # any S = R(theta) Z(r) is symplectic, so S S^T is a pure CM
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    sq = np.diag([np.exp(r), np.exp(-r)])
    out = apply_symplectic(vacuum(1), rot @ sq)
    assert is_pure(out)
    np.testing.assert_allclose(symplectic_eigenvalues(out.matrix), [1.0], rtol=1e-9)


def _cm_stack(seed, n_modes, count):
    from steerlab.states import SamplerConfig, mixed_samples

    cfg = SamplerConfig(seed=seed, count=1)
    return mixed_samples(n_modes, [cfg.rng_for(i) for i in range(count)], 1.0)


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_symplectic_spectra_rows_match_batch_of_one(n_modes):
    stack = _cm_stack(3, n_modes, 25) if n_modes > 1 else np.array(
        [[[2.0 + i, 0.1], [0.1, 1.0 + i]] for i in range(25)]
    )
    nu = symplectic_spectra(stack)
    assert nu.shape == (25, n_modes)
    assert np.all(np.diff(nu, axis=-1) >= 0.0)
    for row, values in zip(stack, nu):
        assert np.array_equal(symplectic_eigenvalues(row), values)


def test_symplectic_spectra_williamson_form():
    # S diag(nu1, nu1, nu2, nu2) S^T has spectrum (nu1, nu2) for symplectic S
    s = beamsplitter(0.3, (0, 1), 2) @ np.diag([2.0, 0.5, 1.0, 1.0])
    m = s @ np.diag([1.5, 1.5, 4.0, 4.0]) @ s.T
    np.testing.assert_allclose(symplectic_spectra(m[None])[0], [1.5, 4.0], rtol=1e-13)


def test_symplectic_spectra_rejects_bad_stacks():
    with pytest.raises(DomainError):
        symplectic_spectra(np.eye(3)[None])
    with pytest.raises(DomainError):
        symplectic_spectra(np.array([np.eye(2), np.diag([1.0, -1.0])]))
    lopsided = np.eye(2)
    lopsided[0, 1] = 1e-3
    with pytest.raises(DomainError):
        symplectic_spectra(lopsided[None])


def test_require_bona_fide_reports_first_bad_row():
    stack = np.array([np.eye(2), 0.5 * np.eye(2), 0.25 * np.eye(2)])
    with pytest.raises(DomainError, match="min symplectic eigenvalue 0.500000000"):
        require_bona_fide(stack)
    require_bona_fide(stack[:1])


def test_validity_of_a_stack_matches_is_valid_cm():
    asym = 2.0 * np.eye(2)
    asym[0, 1] = 1e-3
    stack = np.array([3.0 * np.eye(2), 0.5 * np.eye(2), np.diag([1.0, -1.0]), asym])
    defect, min_eig, min_nu, ok = _validity(stack)
    for i, m in enumerate(stack):
        rep = is_valid_cm(m)
        assert rep.ok == ok[i]
        np.testing.assert_array_equal(
            [rep.symmetry_defect, rep.min_eigenvalue, rep.min_symplectic_eigenvalue],
            [defect[i], min_eig[i], min_nu[i]],
        )
    assert list(ok) == [True, False, False, False]


def test_schur_complements_rows_match_single_state():
    stack = _cm_stack(8, 3, 10)
    out = schur_complements(stack, [0, 2], [1])
    for row, m in zip(out, stack):
        assert np.array_equal(row, schur_complement(CovarianceMatrix.from_matrix(m), [0, 2]))


@pytest.mark.parametrize("n_modes", [1, 2.0])
def test_from_dict_accepts_integral_mode_counts(n_modes):
    sigma = CovarianceMatrix.from_dict({"n_modes": n_modes, "matrix": np.eye(2 * int(n_modes)).tolist()})
    assert sigma.n_modes == int(n_modes) and type(sigma.n_modes) is int


@pytest.mark.parametrize("n_modes", [1.9, True, float("inf")])
def test_from_dict_rejects_non_integral_mode_counts(n_modes):
    with pytest.raises(UsageError):
        CovarianceMatrix.from_dict({"n_modes": n_modes, "matrix": [[1.0, 0.0], [0.0, 1.0]]})
