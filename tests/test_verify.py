"""Property-campaign suites over seeded random states."""

import numpy as np
import pytest

from steerlab import (
    LN_E_HALF,
    SUITES,
    SamplerConfig,
    UsageError,
    gaussian_steering,
    key_rate_mode_invariant,
    monogamy_residual,
    partial_trace,
    rgs,
    rgs_closed_form,
    run_suite,
    standard_form_pure,
)
from steerlab.monogamy import DIRECTIONS, STEERED_BY_REST, STEERS_REST
from steerlab.states import _mixed_sample, _params_sample, _pure_sample
from steerlab.verify import SLACK_TOL


def test_suite_names():
    assert SUITES == (
        "monogamy", "exclusivity", "logdet", "ssa", "rgs-consistency", "qss-bounds",
    )


@pytest.mark.parametrize("name", SUITES)
def test_each_suite_passes_smoke(name):
    (result,) = run_suite(name, samples=30, seed=42)
    assert result.name == name
    assert result.violations == 0
    assert result.passed
    assert "violations=0" in result.summary_line()
    assert result.worst_case  # reproduction payload always present


def test_monogamy_suite_adds_four_party_block():
    (result,) = run_suite("monogamy", samples=30, seed=42)
    assert result.samples == 33  # 30 three-party plus 30//10 four-party


def test_all_runs_every_suite():
    results = run_suite("all", samples=8, seed=1)
    assert [r.name for r in results] == list(SUITES)


def test_suite_deterministic_across_threads():
    (one,) = run_suite("qss-bounds", samples=25, seed=7, threads=1)
    (four,) = run_suite("qss-bounds", samples=25, seed=7, threads=4)
    assert one.summary_line() == four.summary_line()
    assert one.worst_case == four.worst_case


def test_suite_seed_sensitivity():
    (a,) = run_suite("ssa", samples=20, seed=1)
    (b,) = run_suite("ssa", samples=20, seed=2)
    assert a.worst != b.worst


def test_unknown_suite_rejected():
    with pytest.raises(UsageError):
        run_suite("nope", samples=5, seed=1)
    with pytest.raises(UsageError):
        run_suite("monogamy", samples=0, seed=1)


# `steerlab verify --suite all --samples 200 --seed 42`, as printed by
# the per-state implementation that the batched kernels replaced.
GOLDEN_VERIFY_ALL = """\
suite=monogamy samples=220 violations=0 worst_residual=0.0
suite=exclusivity samples=200 violations=0 worst_min_steering=0.0
suite=logdet samples=200 violations=0 worst_margin=-5.9396931817445875e-15
suite=ssa samples=200 violations=0 worst_slack=0.005431277587923278
suite=rgs-consistency samples=200 violations=0 worst_margin=-6.301263772128347e-15
suite=qss-bounds samples=200 violations=0 worst_slack=1.5290703875292522e-06
PASS
"""


def _split_worst(line):
    head, _, value = line.rpartition("=")
    return head, float(value)


def test_verify_all_matches_golden_output(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli("verify", "--suite", "all", "--samples", "200", "--seed", "42")
    assert code == 0 and err == ""
    got, want = out.splitlines(), GOLDEN_VERIFY_ALL.splitlines()
    assert len(got) == len(want) and got[-1] == want[-1]
    for line, golden in zip(got[:-1], want[:-1]):
        head, value = _split_worst(line)
        golden_head, golden_value = _split_worst(golden)
        assert head == golden_head  # suite name, sample and violation counts, label
        assert abs(value - golden_value) <= 1e-12, line
    assert got[0].endswith("worst_residual=0.0")  # +0.0, never -0.0


# The per-state formulations each batched suite replaced: sample i's
# margin and payload, from the single-state API.

def _monogamy_reference(samples, seed):
    cfg = SamplerConfig(seed=seed, count=1)
    results = []
    four = max(1, samples // 10)
    for index, n in [(i, 3) for i in range(samples)] + [(samples + i, 4) for i in range(four)]:
        sigma = _mixed_sample(n, cfg.rng_for(index), r_max=1.0)
        worst = None
        for direction in DIRECTIONS:
            for k in range(n):
                rep = monogamy_residual(sigma, list(range(n)), k, direction)
                if worst is None or rep.residual < worst[0]:
                    worst = (rep.residual, {
                        "state": sigma.to_dict(), "focus": rep.focus,
                        "direction": rep.direction, "residual": rep.residual,
                    })
        results.append(worst)
    return results


def _exclusivity_reference(samples, seed):
    cfg = SamplerConfig(seed=seed, count=1)
    results = []
    for index in range(samples):
        rng = cfg.rng_for(index)
        wide_a = index % 4 < 2
        n = 4 if wide_a else 3
        sigma = _pure_sample(n, rng, 1.0) if index % 2 == 0 else _mixed_sample(n, rng, 1.0)
        party_a, party_b = ((0, 1), (2,)) if wide_a else ((0,), (1,))
        values = []
        for party in (party_a, party_b):
            order = sorted(party + (n - 1,))
            values.append(gaussian_steering(
                partial_trace(sigma, order),
                [order.index(m) for m in party], [order.index(n - 1)],
            ).value)
        results.append((min(values), {
            "state": sigma.to_dict(), "party_a": list(party_a), "party_b": list(party_b),
            "steered_mode": n - 1, "min_steering": min(values),
        }))
    return results


def _rgs_reference(samples, seed):
    cfg = SamplerConfig(seed=seed, count=1)
    results = []
    for index in range(samples):
        params = _params_sample(cfg.rng_for(index), a_max=5.0, distribution="uniform")
        sigma = standard_form_pure(params)
        value = rgs(sigma)
        closed = rgs_closed_form(params)
        dev = max(abs(r - closed) for r in (
            min(value.residuals[(k, STEERED_BY_REST)] for k in range(3)),
            min(value.residuals[(k, STEERS_REST)] for k in range(3)),
        ))
        results.append((min(-dev / max(1.0, abs(closed)), value.value), {
            "params": list(params.as_tuple()), "state": sigma.to_dict(),
            "rgs": value.value, "closed_form": closed, "deviation": dev,
        }))
    return results


def _qss_reference(samples, seed):
    cfg = SamplerConfig(seed=seed, count=1)
    results = []
    for index in range(samples):
        params = _params_sample(cfg.rng_for(index), a_max=5.0, distribution="uniform")
        sigma = standard_form_pure(params)
        g = rgs_closed_form(params)
        k = key_rate_mode_invariant(sigma)
        lo, hi = k - (g / 2.0 - LN_E_HALF), (g - LN_E_HALF) - k
        results.append((min(lo, hi), {
            "params": list(params.as_tuple()), "state": sigma.to_dict(), "k_raw": k,
            "rgs": g, "slack_lower": lo, "slack_upper": hi,
        }))
    return results


@pytest.mark.parametrize(
    "name, reference, largest",
    [
        ("monogamy", _monogamy_reference, False),
        ("exclusivity", _exclusivity_reference, True),
        ("rgs-consistency", _rgs_reference, False),
        ("qss-bounds", _qss_reference, False),
    ],
)
@pytest.mark.parametrize("seed", [3, 42])
def test_batched_suite_matches_per_state_reference(name, reference, largest, seed):
    samples = 45
    results = reference(samples, seed)
    values = [v for v, _ in results]
    if largest:  # the first of the largest, then the first of the least
        index = max(range(len(values)), key=lambda i: (values[i], -i))
        violations = sum(1 for v in values if v > SLACK_TOL)
    else:
        index = min(range(len(values)), key=lambda i: (values[i], i))
        violations = sum(1 for v in values if v < -SLACK_TOL)
    (result,) = run_suite(name, samples=samples, seed=seed)
    assert result.samples == len(results)
    assert result.violations == violations
    assert type(result.worst) is float
    assert abs(result.worst - values[index]) <= 1e-12
    got, want = dict(result.worst_case), dict(results[index][1])
    np.testing.assert_allclose(got.pop("state")["matrix"], want.pop("state")["matrix"], rtol=0, atol=0)
    for key, value in want.items():
        if isinstance(value, float):
            assert abs(got[key] - value) <= 1e-12, key
        else:
            assert got[key] == value, key


def test_suites_reject_thread_count_below_one():
    with pytest.raises(UsageError):
        run_suite("monogamy", samples=5, seed=1, threads=0)
