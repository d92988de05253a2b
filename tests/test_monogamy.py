"""Monogamy residuals, residual tripartite steering, figure sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerlab import (
    CovarianceMatrix,
    DomainError,
    PureThreeModeParams,
    SamplerConfig,
    UsageError,
    fig1a_sweep,
    fig1b_sweep,
    gaussian_steering,
    monogamy_residual,
    partial_trace,
    random_mixed,
    rgs,
    rgs_closed_form,
    standard_form_pure,
    two_mode_squeezed,
    vacuum,
)
from steerlab import monogamy
from steerlab.monogamy import DIRECTIONS, STEERED_BY_REST, STEERS_REST, residual_kernel
from steerlab.states import mixed_samples
from steerlab.steering import steering_values

from test_states import EDGE_TRIPLES

LN_2 = math.log(2.0)


def test_residual_nonnegative_every_focus(ghz_222):
    for k in range(3):
        for direction in (STEERED_BY_REST, STEERS_REST):
            rep = monogamy_residual(ghz_222, [0, 1, 2], k, direction)
            assert rep.residual >= -1e-9
            assert rep.focus == k and rep.direction == direction
            assert len(rep.pairwise) == 2
            np.testing.assert_allclose(
                rep.residual, rep.collective - sum(rep.pairwise), atol=1e-15
            )


def test_residual_vanishes_on_product_state():
    # TMSV (x) vacuum: the collective term is exhausted by one pair
    pair = two_mode_squeezed(0.7).matrix
    m = np.eye(6)
    m[:4, :4] = pair
    sigma = CovarianceMatrix.from_matrix(m)
    for direction in (STEERED_BY_REST, STEERS_REST):
        rep = monogamy_residual(sigma, [0, 1, 2], 0, direction)
        np.testing.assert_allclose(rep.residual, 0.0, atol=1e-10)


def test_residual_validation(ghz_222):
    with pytest.raises(UsageError):
        monogamy_residual(ghz_222, [0, 1, 2], 3, STEERED_BY_REST)
    with pytest.raises(UsageError):
        monogamy_residual(ghz_222, [0, 1, 2], 0, "sideways")
    with pytest.raises(UsageError):
        monogamy_residual(ghz_222, [0, 1], 0, STEERED_BY_REST)


def test_rgs_symmetric_state(ghz_222):
    value = rgs(ghz_222)
    np.testing.assert_allclose(value.value, LN_2, atol=1e-10)
    assert len(value.residuals) == 6


def test_rgs_matches_closed_form_examples():
    for abc in [(2.0, 2.0, 2.0), (2.0, 1.5, 1.5), (3.0, 2.5, 1.8), (4.0, 4.0, 1.0)] + EDGE_TRIPLES:
        sigma = standard_form_pure(PureThreeModeParams(*abc))
        np.testing.assert_allclose(
            rgs(sigma).value, rgs_closed_form(abc), atol=1e-10
        )


def test_rgs_closed_form_values():
    np.testing.assert_allclose(rgs_closed_form((2.0, 2.0, 2.0)), LN_2, rtol=1e-15)
    np.testing.assert_allclose(rgs_closed_form((2.0, 1.5, 1.5)), math.log(1.125), rtol=1e-15)
    assert rgs_closed_form((1.0, 1.0, 1.0)) == 0.0


def test_rgs_directional_minima_agree(sf_2_15_15):
    value = rgs(sf_2_15_15)
    steered = min(value.residuals[(k, STEERED_BY_REST)] for k in range(3))
    steering = min(value.residuals[(k, STEERS_REST)] for k in range(3))
    assert abs(steered - steering) <= 1e-9
    np.testing.assert_allclose(value.value, min(steered, steering), atol=1e-15)


def test_rgs_to_dict_keys(ghz_222):
    d = rgs(ghz_222).to_dict()
    assert set(d) >= {"value", "focus", "direction", "residuals"}
    assert f"{d['focus']}:{d['direction']}" in d["residuals"]
    assert len(d["residuals"]) == 6


def test_rgs_rejects_wrong_inputs():
    with pytest.raises(UsageError):
        rgs(vacuum(2))
    with pytest.raises(DomainError):
        rgs(CovarianceMatrix.from_matrix(1.5 * np.eye(6)))


def test_rgs_zero_on_vacuum():
    assert rgs(vacuum(3)).value == 0.0


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_rgs_closed_form_consistency_random(data):
    a = data.draw(st.floats(min_value=1.0, max_value=4.0), label="a")
    b = data.draw(st.floats(min_value=1.0, max_value=4.0), label="b")
    lo, hi = abs(a - b) + 1.0, a + b - 1.0
    c = data.draw(st.floats(min_value=lo, max_value=max(lo, hi)), label="c")
    sigma = standard_form_pure(PureThreeModeParams(a, b, c))
    value = rgs(sigma)
    assert value.value >= -1e-9
    np.testing.assert_allclose(value.value, rgs_closed_form((a, b, c)), atol=1e-9)


def test_fig1a_sweep_shape_and_max():
    table = fig1a_sweep(2.0, grid=41, b_max=5.0)
    assert table.columns == ("b", "c", "rgs")
    rows = np.array(table.rows)
    best = rows[np.argmax(rows[:, 2])]
    np.testing.assert_allclose(best[2], LN_2, atol=1e-12)
    np.testing.assert_allclose(best[0], best[1], atol=1e-12)
    assert best[0] >= 2.0
    # every grid point respects the triangle restriction
    b, c = rows[:, 0], rows[:, 1]
    assert np.all(c <= 2.0 + b - 1.0 + 1e-12)
    assert np.all(2.0 <= b + c - 1.0 + 1e-12)


def test_fig1b_sweep_grid_and_argmax():
    table = fig1b_sweep(0.345, grid=100)
    assert table.columns == ("R", "a", "b", "c", "rgs")
    rows = np.array(table.rows)
    assert rows.shape[0] == 101
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 1.0
    np.testing.assert_allclose(rows[0, 4], 0.0, atol=1e-12)
    np.testing.assert_allclose(rows[-1, 4], 0.0, atol=1e-9)
    best = rows[np.argmax(rows[:, 4])]
    np.testing.assert_allclose(best[0], 1 / 3, atol=0.01)


def test_sweeps_thread_invariant():
    one = fig1a_sweep(2.0, grid=21, threads=1).to_csv_text()
    four = fig1a_sweep(2.0, grid=21, threads=4).to_csv_text()
    assert one == four
    one_b = fig1b_sweep(0.5, grid=50, threads=1).to_csv_text()
    two_b = fig1b_sweep(0.5, grid=50, threads=2).to_csv_text()
    assert one_b == two_b


def test_sweep_validation():
    with pytest.raises(UsageError):
        fig1a_sweep(2.0, grid=1)
    with pytest.raises(UsageError):
        fig1a_sweep(2.0, grid=10, b_max=0.5)
    with pytest.raises(UsageError):
        fig1b_sweep(0.3, grid=1)


# RGS recorded from the per-state implementation that the batched
# kernel replaced.
PINNED_RGS = {
    (2.0, 2.0, 2.0): 0.6931471805599455,
    (1.0, 1.5822910227722475, 1.5822910227722475): 0.0,
    (1.5822910227722475, 1.5822910227722475, 1.0): 0.0,
    (1.5822910227722475, 1.0, 1.5822910227722475): 0.0,
    (1.0, 1.166703599425454, 1.166703599425454): -1.3877787807814457e-16,
    (1.166703599425454, 1.166703599425454, 1.0): -1.3877787807814457e-16,
    (1.166703599425454, 1.0, 1.166703599425454): -1.3877787807814457e-16,
    (1.72, 5.74, 1.72 + 5.74 - 1.0): 0.42415418336232236,
    (1.0, 1.16, 1.0 + 1.16 - 1.0): 0.0,
}


def test_pinned_rgs_unchanged():
    assert set(PINNED_RGS) == {(2.0, 2.0, 2.0), *EDGE_TRIPLES}
    for abc, want in PINNED_RGS.items():
        assert abs(rgs(standard_form_pure(abc)).value - want) <= 1e-12, abc


@pytest.mark.parametrize("n_parties", [3, 4])
def test_residual_kernel_rows_match_batch_of_one(n_parties):
    cfg = SamplerConfig(seed=9, count=1)
    stack = mixed_samples(n_parties, [cfg.rng_for(i) for i in range(60)], 1.0)
    collective, pairwise, residual = residual_kernel(stack)
    assert residual.shape == (60, 2, n_parties)
    for i in range(len(stack)):
        one = residual_kernel(stack[i : i + 1])
        for batched, single in zip((collective, pairwise, residual), one):
            assert np.array_equal(batched[i], single[0])
        sigma = CovarianceMatrix.from_matrix(stack[i])
        for d, direction in enumerate(DIRECTIONS):
            for k in range(n_parties):
                rep = monogamy_residual(sigma, list(range(n_parties)), k, direction)
                assert rep.residual == residual[i, d, k]


def test_residual_kernel_evaluates_each_distinct_term_once(monkeypatch):
    rows = []

    def counting(stack, steering, steered):
        rows.append(len(stack))
        return steering_values(stack, steering, steered)

    monkeypatch.setattr(monogamy, "steering_values", counting)
    for n in (3, 4):
        rows.clear()
        stack = mixed_samples(n, [SamplerConfig(seed=2).rng_for(i) for i in range(5)], 1.0)
        residual_kernel(stack)
        # 2n collective terms and n(n - 1) ordered pairwise terms per state
        assert len(rows) == 4
        assert sum(rows) == 5 * (2 * n + n * (n - 1))


def test_residual_kernel_matches_marginal_steering(quick_cfg):
    sigma = next(iter(random_mixed(3, quick_cfg)))
    collective, pairwise, _ = residual_kernel(sigma.matrix[None])
    for i in range(3):
        rest = [j for j in range(3) if j != i]
        assert collective[0, 0, i] == gaussian_steering(sigma, rest, [i]).value
        np.testing.assert_allclose(
            collective[0, 1, i], gaussian_steering(sigma, [i], rest).value, rtol=0, atol=1e-14
        )
        assert pairwise[0, i, i] == 0.0
        for j in rest:
            pair = sorted((i, j))
            marginal = partial_trace(sigma, pair)
            assert pairwise[0, i, j] == gaussian_steering(
                marginal, [pair.index(i)], [pair.index(j)]
            ).value
