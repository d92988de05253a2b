"""State constructors, the three-mode standard form, seeded samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerlab import (
    DomainError,
    InternalError,
    OpticalNetworkParams,
    PureThreeModeParams,
    SamplerConfig,
    UsageError,
    beamsplitter,
    db_from_r,
    ghz_network,
    is_pure,
    local_invariants,
    omega,
    r_from_db,
    random_mixed,
    random_params,
    random_pure,
    squeezed_vacuum,
    standard_form_pure,
    symplectic_eigenvalues,
    two_mode_squeezed,
)
from steerlab import states
from steerlab.states import standard_form_blocks


# Triples on the edges of the (a, b, c) triangle, where one linear
# factor of the standard-form radicands vanishes: the a = 1 edge in all
# three cyclic positions, the c = a + b - 1 edge, and the a = 1 corner
# of that edge, where fl(1 + b - 1) lands one ulp past c = b.  The
# a = 1 triples are counterexamples hypothesis found, in all three
# cyclic positions.
EDGE_TRIPLES = [
    (1.0, 1.5822910227722475, 1.5822910227722475),
    (1.5822910227722475, 1.5822910227722475, 1.0),
    (1.5822910227722475, 1.0, 1.5822910227722475),
    (1.0, 1.166703599425454, 1.166703599425454),
    (1.166703599425454, 1.166703599425454, 1.0),
    (1.166703599425454, 1.0, 1.166703599425454),
    (1.72, 5.74, 1.72 + 5.74 - 1.0),
    (1.0, 1.16, 1.0 + 1.16 - 1.0),
]


def ghz_analytic_invariants(r, R):
    """Local invariants of the two-beamsplitter network at R' = 1/2."""
    a = math.sqrt(1.0 + 2.0 * R * (1.0 - R) * (math.cosh(4 * r) - 1.0))
    b = math.sqrt((1.0 + R**2 - (R**2 - 1.0) * math.cosh(4 * r)) / 2.0)
    return a, b, b


def test_db_round_trip():
    # 3 dB of squeezing is r = (3/20) ln 10
    r = r_from_db(3.0)
    np.testing.assert_allclose(r, 0.15 * math.log(10.0), rtol=1e-15)
    np.testing.assert_allclose(db_from_r(r), 3.0, rtol=1e-15)


def test_squeezed_vacuum_quadratures():
    sx = squeezed_vacuum(0.6, "x")
    np.testing.assert_allclose(sx.matrix, np.diag([np.exp(-1.2), np.exp(1.2)]), rtol=1e-15)
    sp = squeezed_vacuum(0.6, "p")
    np.testing.assert_allclose(sp.matrix, np.diag([np.exp(1.2), np.exp(-1.2)]), rtol=1e-15)
    with pytest.raises(UsageError):
        squeezed_vacuum(0.6, "y")


def test_two_mode_squeezed_structure():
    sigma = two_mode_squeezed(0.5)
    c, s = np.cosh(1.0), np.sinh(1.0)
    expect = np.array(
        [
            [c, 0, s, 0],
            [0, c, 0, -s],
            [s, 0, c, 0],
            [0, -s, 0, c],
        ]
    )
    np.testing.assert_allclose(sigma.matrix, expect, atol=1e-15)
    assert is_pure(sigma)


def test_beamsplitter_is_symplectic_orthogonal():
    for R in (0.0, 0.3, 1.0):
        s = beamsplitter(R, (0, 2), 3)
        w = omega(3)
        np.testing.assert_allclose(s @ w @ s.T, w, atol=1e-15)
        np.testing.assert_allclose(s @ s.T, np.eye(6), atol=1e-15)


def test_beamsplitter_transmission_limits():
    # R = 0 leaves modes alone, R = 1 swaps them up to sign
    np.testing.assert_allclose(beamsplitter(0.0, (0, 1), 2), np.eye(4), atol=1e-15)
    s = beamsplitter(1.0, (0, 1), 2)
    assert abs(s[0, 2]) == 1.0 and s[0, 0] == 0.0


def test_params_triangle_validation():
    with pytest.raises(DomainError):
        PureThreeModeParams(3.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        PureThreeModeParams(0.9, 1.0, 1.0)
    p = PureThreeModeParams(2.0, 1.5, 1.5)
    assert p.as_tuple() == (2.0, 1.5, 1.5)


def test_network_params_validation():
    with pytest.raises(UsageError):
        OpticalNetworkParams(r=0.3, R=1.2, R_prime=0.5)
    with pytest.raises(UsageError):
        OpticalNetworkParams(r=-0.1, R=0.5, R_prime=0.5)
    p = OpticalNetworkParams(r=0.345, R=1 / 3, R_prime=0.5)
    np.testing.assert_allclose(p.squeezing_db, db_from_r(0.345), rtol=1e-15)


def test_ghz_network_matches_analytic_curve():
    r = 0.345
    for R in (0.0, 0.2, 1 / 3, 0.8, 1.0):
        sigma = ghz_network(OpticalNetworkParams(r, R, 0.5))
        assert is_pure(sigma)
        got = local_invariants(sigma)
        np.testing.assert_allclose(got, ghz_analytic_invariants(r, R), atol=1e-12)


def test_ghz_network_symmetric_point():
    # R = 1/3, R' = 1/2 equalizes all three invariants
    sigma = ghz_network(OpticalNetworkParams(0.5, 1 / 3, 0.5))
    a, b, c = local_invariants(sigma)
    np.testing.assert_allclose([b, c], [a, a], rtol=1e-12)


def test_ghz_network_zero_squeezing_is_vacuum():
    sigma = ghz_network(OpticalNetworkParams(0.0, 1 / 3, 0.5))
    np.testing.assert_allclose(sigma.matrix, np.eye(6), atol=1e-14)


def test_standard_form_round_trips_invariants():
    for abc in [(2.0, 1.5, 1.5), (1.0, 1.0, 1.0), (3.0, 2.5, 1.8), (5.0, 3.0, 3.0)] + EDGE_TRIPLES:
        sigma = standard_form_pure(PureThreeModeParams(*abc))
        assert is_pure(sigma)
        np.testing.assert_allclose(local_invariants(sigma), abc, atol=1e-10)


def test_standard_form_block_structure():
    sigma = standard_form_pure(PureThreeModeParams(2.0, 1.7, 1.4))
    m = sigma.matrix
    for k, val in enumerate((2.0, 1.7, 1.4)):
        np.testing.assert_allclose(m[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], val * np.eye(2), atol=1e-14)
    # inter-modal blocks are diagonal, x correlation positive
    for i in range(3):
        for j in range(i + 1, 3):
            block = m[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            assert block[0, 1] == 0.0 and block[1, 0] == 0.0
            assert block[0, 0] >= 0.0


def test_standard_form_symmetric_closed_form():
    # for a = b = c the cross blocks are diag(e+, e-) with
    # e(+/-) = [(a^2 - 1) +/- sqrt((9a^2 - 1)(a^2 - 1))] / (4a)
    a = 2.0
    sigma = standard_form_pure(PureThreeModeParams(a, a, a))
    root = math.sqrt((9 * a * a - 1.0) * (a * a - 1.0))
    e_plus = (a * a - 1.0 + root) / (4 * a)
    e_minus = (a * a - 1.0 - root) / (4 * a)
    block = sigma.matrix[0:2, 2:4]
    np.testing.assert_allclose(np.diag(block), [e_plus, e_minus], rtol=1e-12)


def test_standard_form_extreme_parameters_stay_pure():
    # the naive e- formula loses all precision here; the rewritten one must not
    sigma = standard_form_pure(PureThreeModeParams(1.0, 1000.0, 1000.0))
    nu = symplectic_eigenvalues(sigma.matrix)
    np.testing.assert_allclose(nu, np.ones(3), atol=1e-8)


def test_standard_form_includes_product_states():
    # c = 1 decouples the third mode: a-b pair is two-mode squeezed
    sigma = standard_form_pure(PureThreeModeParams(2.0, 2.0, 1.0))
    np.testing.assert_allclose(sigma.matrix[0:4, 4:6], 0.0, atol=1e-12)
    np.testing.assert_allclose(sigma.matrix[4:6, 4:6], np.eye(2), atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_standard_form_random_triples(data):
    a = data.draw(st.floats(min_value=1.0, max_value=6.0), label="a")
    b = data.draw(st.floats(min_value=1.0, max_value=6.0), label="b")
    lo, hi = abs(a - b) + 1.0, a + b - 1.0
    c = data.draw(st.floats(min_value=lo, max_value=max(lo, hi)), label="c")
    sigma = standard_form_pure(PureThreeModeParams(a, b, c))
    assert is_pure(sigma, tol=1e-7)
    np.testing.assert_allclose(local_invariants(sigma), (a, b, c), atol=1e-8)


def _block_triples():
    """Random triples, the edge triples and the b = c = 10^3 family."""
    sampled = [p.as_tuple() for p in random_params(SamplerConfig(seed=11, count=60))]
    return sampled + EDGE_TRIPLES + [(a, 1e3, 1e3) for a in (1.0, 2.14, 5.0)]


def test_standard_form_blocks_bit_identical_to_batch_of_one():
    triples = _block_triples()
    x, p = standard_form_blocks(triples)
    assert x.shape == p.shape == (len(triples), 3, 3)
    for row, abc in enumerate(triples):
        x1, p1 = standard_form_blocks([abc])
        assert np.array_equal(x1[0], x[row]) and np.array_equal(p1[0], p[row])
        m = standard_form_pure(abc).matrix
        assert np.array_equal(m[0::2, 0::2], x[row]) and np.array_equal(m[1::2, 1::2], p[row])
        # the CM is X (+) P: nothing couples an x to a p quadrature
        assert not np.any(m[0::2, 1::2])


def _patched_interblock(monkeypatch, bad, change):
    """Make ``states._interblock`` return ``change(e_plus, e_minus)`` for
    the A-B pair of the triple ``bad``, and the true entries elsewhere."""
    original = states._interblock

    def interblock(ai, aj, ak):
        entries = original(ai, aj, ak)
        return change(*entries) if (ai, aj, ak) == bad else entries

    monkeypatch.setattr(states, "_interblock", interblock)


def test_standard_form_self_check_names_impure_row(monkeypatch):
    good, bad = (2.0, 1.5, 1.5), (3.0, 2.5, 1.8)
    _patched_interblock(monkeypatch, bad, lambda ep, em: (ep * (1.0 + 1e-6), em))
    with pytest.raises(InternalError, match=r"standard form for \(3\.0, 2\.5, 1\.8\) is not pure"):
        standard_form_blocks([good, bad, good])
    standard_form_blocks([good, good])  # the other rows still pass


def test_standard_form_self_check_names_indefinite_row(monkeypatch):
    good, bad = (2.0, 1.5, 1.5), (3.0, 2.5, 1.8)
    _patched_interblock(monkeypatch, bad, lambda ep, em: (10.0 * ep, em))
    with pytest.raises(InternalError, match=r"\(3\.0, 2\.5, 1\.8\) is not positive definite"):
        standard_form_blocks([good, bad])
    _patched_interblock(monkeypatch, good, lambda ep, em: (ep, float("nan")))
    with pytest.raises(InternalError, match=r"\(2\.0, 1\.5, 1\.5\) has a non-finite entry"):
        standard_form_pure(good)


def test_random_pure_deterministic_and_pure(quick_cfg):
    first = list(random_pure(3, quick_cfg))
    second = list(random_pure(3, quick_cfg))
    assert len(first) == quick_cfg.count
    for s1, s2 in zip(first, second):
        np.testing.assert_allclose(s1.matrix, s2.matrix, atol=0)
        assert is_pure(s1)


def test_random_pure_distinct_across_indices(quick_cfg):
    states = list(random_pure(2, quick_cfg))
    assert not np.allclose(states[0].matrix, states[1].matrix)


def test_random_mixed_valid_and_mostly_mixed(quick_cfg):
    impure = 0
    for sigma in random_mixed(3, quick_cfg):
        assert sigma.n_modes == 3
        nu = symplectic_eigenvalues(sigma.matrix)
        assert nu.min() >= 1.0 - 1e-8
        impure += 0 if is_pure(sigma) else 1
    assert impure >= quick_cfg.count - 2


def test_random_params_respect_triangle(quick_cfg):
    for p in random_params(quick_cfg):
        a, b, c = p.as_tuple()
        assert a >= 1.0 and b >= 1.0 and c >= 1.0
        assert c <= a + b - 1.0 + 1e-12
        assert a <= b + c - 1.0 + 1e-12
        assert b <= c + a - 1.0 + 1e-12


def test_sampler_config_validation():
    with pytest.raises(UsageError):
        SamplerConfig(seed=1, count=0)
    with pytest.raises(UsageError):
        SamplerConfig(seed=1, count=1, distribution="gaussian")


def test_sampler_streams_are_index_keyed():
    cfg = SamplerConfig(seed=123, count=1)
    a = cfg.rng_for(5).uniform()
    b = cfg.rng_for(5).uniform()
    c = cfg.rng_for(6).uniform()
    assert a == b and a != c


@pytest.mark.parametrize("n_parties", [2, 3, 4])
def test_mixed_samples_bit_identical_to_mixed_sample(n_parties):
    cfg = SamplerConfig(seed=11, count=1)
    indices = range(100, 180)
    stack = states.mixed_samples(n_parties, [cfg.rng_for(i) for i in indices], 1.0)
    assert stack.shape == (len(indices), 2 * n_parties, 2 * n_parties)
    for row, i in zip(stack, indices):
        one = states._mixed_sample(n_parties, cfg.rng_for(i), r_max=1.0)
        assert one.n_modes == n_parties
        assert np.array_equal(one.matrix, row)


@pytest.mark.parametrize("n_modes", [1, 3])
def test_pure_samples_bit_identical_and_pure(n_modes):
    cfg = SamplerConfig(seed=4, count=1)
    stack = states.pure_samples(n_modes, [cfg.rng_for(i) for i in range(30)], 1.0)
    for i, row in enumerate(stack):
        one = states._pure_sample(n_modes, cfg.rng_for(i), 1.0)
        assert np.array_equal(one.matrix, row)
        np.testing.assert_allclose(symplectic_eigenvalues(row), 1.0, rtol=0, atol=1e-12)


def test_random_mixed_draws_from_the_batched_sampler(quick_cfg):
    stack = states.mixed_samples(3, [quick_cfg.rng_for(i) for i in range(quick_cfg.count)], quick_cfg.r_max)
    for row, sigma in zip(stack, random_mixed(3, quick_cfg)):
        assert np.array_equal(row, sigma.matrix)
