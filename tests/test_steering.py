"""Steering quantifier, exclusivity, and the log-det bound."""

import math

import numpy as np
import pytest

from steerlab import (
    CovarianceMatrix,
    DomainError,
    SamplerConfig,
    UsageError,
    exclusivity_check,
    gaussian_steering,
    logdet_steering_bound_check,
    random_mixed,
    random_pure,
    partial_trace,
    renyi2_pure_bipartite_entanglement,
    standard_form_pure,
    steering_one_mode_steered,
    two_mode_squeezed,
    vacuum,
)
from steerlab.states import mixed_samples
from steerlab.steering import exclusivity_values, steering_values

from test_states import EDGE_TRIPLES

LN_COSH_1 = 0.4337808304830271  # ln cosh 1, TMSV at r = 0.5


def test_tmsv_steering_both_directions(tmsv_half):
    fwd = gaussian_steering(tmsv_half, steering=[0], steered=[1])
    bwd = gaussian_steering(tmsv_half, steering=[1], steered=[0])
    np.testing.assert_allclose(fwd.value, LN_COSH_1, atol=1e-12)
    np.testing.assert_allclose(bwd.value, LN_COSH_1, atol=1e-12)
    assert fwd.steering == (0,) and fwd.steered == (1,)


def test_tmsv_steering_grows_with_squeezing():
    values = [
        gaussian_steering(two_mode_squeezed(r), [0], [1]).value for r in (0.1, 0.4, 0.9)
    ]
    for r, v in zip((0.1, 0.4, 0.9), values):
        np.testing.assert_allclose(v, math.log(math.cosh(2 * r)), atol=1e-12)
    assert values[0] < values[1] < values[2]


def test_vacuum_not_steerable():
    sigma = vacuum(2)
    assert gaussian_steering(sigma, [0], [1]).value == 0.0


def test_thermal_erodes_steering():
    # symmetric added noise kills TMSV steering once nu-bar crosses 1
    base = two_mode_squeezed(0.3).matrix
    noisy = CovarianceMatrix.from_matrix(base + 0.6 * np.eye(4))
    assert gaussian_steering(noisy, [0], [1]).value == 0.0


def test_one_mode_shortcut_agrees_with_spectrum(tmsv_half, ghz_222):
    np.testing.assert_allclose(
        steering_one_mode_steered(tmsv_half, [0], [1]),
        gaussian_steering(tmsv_half, [0], [1]).value,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        steering_one_mode_steered(ghz_222, [1, 2], [0]),
        gaussian_steering(ghz_222, [1, 2], [0]).value,
        atol=1e-12,
    )


def test_ghz_collective_steering_value(ghz_222):
    # pure state, single-mode marginal with a = 2: G = (1/2) ln a^2 = ln 2
    got = gaussian_steering(ghz_222, steering=[1, 2], steered=[0])
    np.testing.assert_allclose(got.value, math.log(2.0), atol=1e-12)


def test_pure_state_steering_is_symmetric(ghz_222):
    fwd = gaussian_steering(ghz_222, [0], [1, 2]).value
    bwd = gaussian_steering(ghz_222, [1, 2], [0]).value
    np.testing.assert_allclose(fwd, bwd, atol=1e-9)


def test_schur_spectrum_reported(tmsv_half):
    got = gaussian_steering(tmsv_half, [0], [1])
    np.testing.assert_allclose(got.schur_spectrum, [1.0 / math.cosh(1.0)], rtol=1e-12)


def test_steering_value_to_dict(tmsv_half):
    d = gaussian_steering(tmsv_half, [0], [1]).to_dict()
    assert d["steering"] == [0] and d["steered"] == [1]
    np.testing.assert_allclose(d["value"], LN_COSH_1, atol=1e-12)


def test_parties_must_cover_all_modes(ghz_222):
    with pytest.raises(UsageError):
        gaussian_steering(ghz_222, [0], [1])
    with pytest.raises(UsageError):
        gaussian_steering(ghz_222, [0, 1], [1, 2])
    with pytest.raises(UsageError):
        gaussian_steering(ghz_222, [], [0, 1, 2])


def test_renyi2_entanglement_tmsv(tmsv_half):
    e = renyi2_pure_bipartite_entanglement(tmsv_half, [0])
    np.testing.assert_allclose(e, LN_COSH_1, atol=1e-12)
    # matches steering in both directions on the pure split
    np.testing.assert_allclose(
        e, gaussian_steering(tmsv_half, [0], [1]).value, atol=1e-12
    )


def test_renyi2_entanglement_rejects_mixed():
    mixed = CovarianceMatrix.from_matrix(2.0 * np.eye(4))
    with pytest.raises(DomainError):
        renyi2_pure_bipartite_entanglement(mixed, [0])


def test_exclusivity_on_random_states(quick_cfg):
    for sigma in random_pure(3, quick_cfg):
        assert exclusivity_check(sigma, party_a=[0], party_b=[1], steered_mode=2)
    for sigma in random_mixed(3, quick_cfg):
        assert exclusivity_check(sigma, party_a=[0], party_b=[1], steered_mode=2)


def test_exclusivity_mode_order_irrelevant(quick_cfg):
    # steered mode below the steering parties exercises index remapping
    for sigma in random_pure(4, SamplerConfig(seed=3, count=10)):
        assert exclusivity_check(sigma, party_a=[1, 2], party_b=[3], steered_mode=0)


def test_exclusivity_rejects_overlap(ghz_222):
    with pytest.raises(UsageError):
        exclusivity_check(ghz_222, party_a=[0, 1], party_b=[2], steered_mode=1)


def test_logdet_bound_tight_single_mode(tmsv_half):
    rep = logdet_steering_bound_check(tmsv_half, steering=[0], steered=[1])
    assert rep.applicable
    np.testing.assert_allclose(rep.steering_value, LN_COSH_1, atol=1e-12)
    np.testing.assert_allclose(rep.slack, 0.0, atol=1e-9)


def test_logdet_bound_nonnegative_two_mode_steered(quick_cfg):
    hit = 0
    for sigma in random_pure(3, quick_cfg):
        rep = logdet_steering_bound_check(sigma, steering=[0], steered=[1, 2])
        if rep.applicable:
            hit += 1
            assert rep.slack >= -1e-9
    assert hit > 0


def test_logdet_bound_not_applicable_when_unsteerable():
    rep = logdet_steering_bound_check(vacuum(2), steering=[0], steered=[1])
    assert not rep.applicable
    assert rep.steering_value == 0.0


# G^{k -> rest} and G^{rest -> k} for k = 0, 1, 2, recorded from the
# per-state implementation that the batched kernel replaced.
PINNED_SPLITS = {
    (2.0, 2.0, 2.0): [0.6931471805599458, 0.6931471805599455] * 3,
    (1.0, 1.5822910227722475, 1.5822910227722475): [0.0, 0.0] + [0.45887381119592624] * 4,
    (1.5822910227722475, 1.5822910227722475, 1.0): [0.45887381119592624] * 4 + [0.0, 0.0],
    (1.5822910227722475, 1.0, 1.5822910227722475): (
        [0.45887381119592624] * 2 + [0.0, 0.0] + [0.45887381119592624] * 2
    ),
    (1.0, 1.166703599425454, 1.166703599425454): [0.0, 0.0] + [0.15418233597658615, 0.1541823359765863] * 2,
    (1.166703599425454, 1.166703599425454, 1.0): [0.15418233597658615, 0.1541823359765863] * 2 + [0.0, 0.0],
    (1.166703599425454, 1.0, 1.166703599425454): (
        [0.15418233597658615, 0.1541823359765863, 0.0, 0.0] + [0.15418233597658615, 0.1541823359765863]
    ),
    (1.72, 5.74, 1.72 + 5.74 - 1.0): [
        0.54232429082536, 0.5423242908253624, 1.7474592103314728,
        1.747459210331473, 1.865629317794515, 1.8656293177945105,
    ],
    (1.0, 1.16, 1.0 + 1.16 - 1.0): [0.0, 0.0] + [0.14842000511827322] * 4,
}


def test_pinned_tmsv_steering_unchanged(tmsv_half):
    for steering, steered in (([0], [1]), ([1], [0])):
        got = gaussian_steering(tmsv_half, steering, steered).value
        assert abs(got - 0.4337808304830273) <= 1e-12


@pytest.mark.parametrize("abc", [(2.0, 2.0, 2.0)] + EDGE_TRIPLES, ids=repr)
def test_pinned_three_mode_splits_unchanged(abc):
    sigma = standard_form_pure(abc)
    got = []
    for k in range(3):
        rest = [j for j in range(3) if j != k]
        got += [gaussian_steering(sigma, [k], rest).value, gaussian_steering(sigma, rest, [k]).value]
    np.testing.assert_allclose(got, PINNED_SPLITS[abc], rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "sigma",
    [vacuum(2), CovarianceMatrix.from_matrix(two_mode_squeezed(0.3).matrix + 0.6 * np.eye(4))],
    ids=["vacuum", "noisy-tmsv"],
)
def test_unsteerable_value_is_positive_zero(sigma):
    for steering, steered in (([0], [1]), ([1], [0])):
        value = gaussian_steering(sigma, steering, steered).value
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    (stack_value,), _ = steering_values(sigma.matrix[None], (0,), (1,))
    assert math.copysign(1.0, stack_value) == 1.0


def test_steering_values_rows_match_batch_of_one():
    stack = mixed_samples(4, [SamplerConfig(seed=5).rng_for(i) for i in range(40)], 1.0)
    for steering, steered in (((0,), (1, 2, 3)), ((1, 3), (0, 2)), ((0, 1, 2), (3,))):
        values, nu = steering_values(stack, steering, steered)
        for i in range(len(stack)):
            one = gaussian_steering(CovarianceMatrix.from_matrix(stack[i]), steering, steered)
            assert one.value == values[i]
            assert one.schur_spectrum == tuple(nu[i].tolist())


def test_exclusivity_values_match_marginal_steering(quick_cfg):
    stack = np.array([s.matrix for s in random_mixed(3, quick_cfg)])
    values = exclusivity_values(stack, (0,), (1,), 2)
    for sigma, value in zip(random_mixed(3, quick_cfg), values):
        pair = [
            gaussian_steering(partial_trace(sigma, [m, 2]), [0], [1]).value for m in (0, 1)
        ]
        assert value == min(pair)
