"""Seeded Monte Carlo property campaigns behind `steerlab verify`.

Each suite samples random states, evaluates one family of inequalities,
and reports the count of violations together with the worst margin and
the state that produced it.  Sample i always derives its generator from
(master seed, i), so results are identical across runs and thread
counts.

The monogamy, exclusivity, rgs-consistency and qss-bounds suites draw
every sample's random numbers first, in index order, and then build and
evaluate the states in batches of at most ``_CHUNK`` through the array
kernels (:func:`steerlab.states.mixed_samples`,
:func:`steerlab.states.standard_form_blocks`,
:func:`steerlab.monogamy.residual_kernel`,
:func:`steerlab.steering.exclusivity_values`,
:func:`steerlab.qss.mode_invariant_rates`).  Each kernel acts on every state alone,
so a sample's numbers do not depend on the batch it lands in.  The
worst sample is the first one with the extreme margin, and its
reproduction payload is built for that sample only, by drawing it again
as a batch of one.  The logdet and ssa suites still evaluate one state
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .monogamy import DIRECTIONS, residual_kernel, rgs_closed_form
from .qss import LN_E_HALF, mode_invariant_rates
from .states import (
    SamplerConfig,
    _mixed_sample,
    _params_sample,
    _pure_sample,
    mixed_samples,
    pure_samples,
    standard_form_blocks,
    standard_form_matrices,
    standard_form_pure,
)
from .steering import exclusivity_values, logdet_steering_bound_check
from .symplectic import conditional_log_det
from .tables import format_cell, ordered_map
from .errors import UsageError

# Inequality slack below this counts as a violation.
SLACK_TOL = 1e-9
# States per batch: bounds the memory the stacks take, not the results.
_CHUNK = 4096

SUITES = ("monogamy", "exclusivity", "logdet", "ssa", "rgs-consistency", "qss-bounds")


@dataclass
class SuiteResult:
    """Outcome of one property campaign."""

    name: str
    samples: int
    violations: int
    worst: float
    worst_label: str
    worst_case: dict = field(default_factory=dict)

    def summary_line(self) -> str:
        return (
            f"suite={self.name} samples={self.samples} "
            f"violations={self.violations} {self.worst_label}={format_cell(self.worst)}"
        )

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _reduce_min(results):
    """Deterministic (value, index, payload) minimum; ties break on index."""
    best = None
    for i, (value, payload) in enumerate(results):
        if best is None or (value, i) < (best[0], best[1]):
            best = (value, i, payload)
    return best


def _batched(kernel, items) -> np.ndarray:
    """``kernel`` over consecutive chunks of ``items``, concatenated."""
    return np.concatenate([kernel(items[s:s + _CHUNK]) for s in range(0, len(items), _CHUNK)])


def suite_monogamy(samples: int, seed: int, threads: int = 1) -> SuiteResult:
    """Collective-vs-pairwise steering residuals on random mixed states.

    Runs 3-party states at the full sample count and 4-party states at
    a tenth of it; every focus party, both directions.
    """
    cfg = SamplerConfig(seed=seed, count=1)
    four_party = max(1, samples // 10)

    def residuals(n_parties):
        def kernel(indices):
            stack = mixed_samples(n_parties, [cfg.rng_for(i) for i in indices], r_max=1.0)
            return residual_kernel(stack)[2].reshape(len(indices), -1)
        return kernel

    # one row per state, residuals ordered direction-major, DIRECTIONS x focus
    three = _batched(residuals(3), range(samples))
    four = _batched(residuals(4), range(samples, samples + four_party))
    worst = np.concatenate([three.min(axis=1), four.min(axis=1)])
    index = int(np.argmin(worst))  # the first of the least
    n_parties, row = (3, three[index]) if index < samples else (4, four[index - samples])
    position = int(np.argmin(row))
    value = float(worst[index])
    sigma = _mixed_sample(n_parties, cfg.rng_for(index), r_max=1.0)
    payload = {
        "state": sigma.to_dict(),
        "focus": position % n_parties,
        "direction": DIRECTIONS[position // n_parties],
        "residual": value,
    }
    violations = int(np.count_nonzero(worst < -SLACK_TOL))
    return SuiteResult(
        "monogamy", samples + four_party, violations, value, "worst_residual", payload,
    )


def suite_exclusivity(samples: int, seed: int, threads: int = 1) -> SuiteResult:
    """No single-mode party is steered by two other parties at once.

    Alternates pure and mixed states, and single-mode versus two-mode
    steering parties; the metric is the smaller of the two steering
    values toward the shared single-mode target, which must vanish.
    """
    cfg = SamplerConfig(seed=seed, count=1)

    def setting(index):
        """(pure?, modes, party A, party B) of sample ``index``."""
        wide_a = index % 4 < 2
        return index % 2 == 0, 4 if wide_a else 3, (0, 1) if wide_a else (0,), (2,) if wide_a else (1,)

    values = np.empty(samples)
    for kind in range(min(4, samples)):  # the samples of one setting form one batch
        pure, n, party_a, party_b = setting(kind)

        def kernel(indices):
            sampler = pure_samples if pure else mixed_samples
            stack = sampler(n, [cfg.rng_for(i) for i in indices], 1.0)
            return exclusivity_values(stack, party_a, party_b, n - 1)

        values[kind::4] = _batched(kernel, range(kind, samples, 4))
    index = int(np.argmax(values))  # the first of the largest
    pure, n, party_a, party_b = setting(index)
    sigma = (_pure_sample if pure else _mixed_sample)(n, cfg.rng_for(index), 1.0)
    worst = float(values[index])
    payload = {
        "state": sigma.to_dict(),
        "party_a": list(party_a),
        "party_b": list(party_b),
        "steered_mode": n - 1,
        "min_steering": worst,
    }
    violations = int(np.count_nonzero(values > SLACK_TOL))
    return SuiteResult(
        "exclusivity", samples, violations, worst, "worst_min_steering", payload
    )


def suite_logdet(samples: int, seed: int, threads: int = 1) -> SuiteResult:
    """2 G >= M(sigma_steering) - M(sigma_full), plus single-mode tightness.

    Each sample checks the inequality with a two-mode steered party on a
    3-mode state, and the equality version on a 2-mode state (steered
    party one mode); samples with G = 0 are skipped, as the bound is
    only claimed for nonzero steering.
    """
    cfg = SamplerConfig(seed=seed, count=1)

    def margins(index):
        rng = cfg.rng_for(index)
        pure = index % 2 == 0
        tri = _pure_sample(3, rng, 1.0) if pure else _mixed_sample(3, rng, 1.0)
        rep = logdet_steering_bound_check(tri, steering=(0,), steered=(1, 2))
        slack = rep.slack if rep.applicable else None
        duo = _mixed_sample(2, rng, 1.0)
        rep1 = logdet_steering_bound_check(duo, steering=(0,), steered=(1,))
        eq_dev = abs(rep1.slack) if rep1.applicable else None
        # both sub-checks share the violation rule margin < -SLACK_TOL
        margin = min(
            slack if slack is not None else 0.0,
            -eq_dev if eq_dev is not None else 0.0,
        )
        return (margin, {
            "state": tri.to_dict(),
            "two_mode_steered_slack": slack,
            "single_mode_equality_deviation": eq_dev,
        })

    results = ordered_map(margins, range(samples), threads)
    worst_value, _, payload = _reduce_min(results)
    violations = sum(1 for v, _ in results if v < -SLACK_TOL)
    return SuiteResult(
        "logdet", samples, violations, worst_value, "worst_margin", payload
    )


def suite_ssa(samples: int, seed: int, threads: int = 1) -> SuiteResult:
    """Strong subadditivity of the log-determinant on tripartite states:
    I_{BC|A} <= I_{B|A} + I_{C|A}."""
    cfg = SamplerConfig(seed=seed, count=1)

    def slack(index):
        sigma = _mixed_sample(3, cfg.rng_for(index), r_max=1.0)
        value = (
            conditional_log_det(sigma, (1,), (0,))
            + conditional_log_det(sigma, (2,), (0,))
            - conditional_log_det(sigma, (1, 2), (0,))
        )
        return (value, {"state": sigma.to_dict(), "ssa_slack": value})

    results = ordered_map(slack, range(samples), threads)
    worst_value, _, payload = _reduce_min(results)
    violations = sum(1 for v, _ in results if v < -SLACK_TOL)
    return SuiteResult("ssa", samples, violations, worst_value, "worst_slack", payload)


def _triples(samples: int, seed: int) -> list:
    """Sample i's (a, b, c) triple, uniform over the triangle region."""
    cfg = SamplerConfig(seed=seed, count=1)
    return [_params_sample(cfg.rng_for(i), a_max=5.0, distribution="uniform") for i in range(samples)]


def suite_rgs_consistency(samples: int, seed: int, threads: int = 1) -> SuiteResult:
    """Both directional residual minima equal the closed form on random
    pure standard-form states, and the RGS is non-negative."""
    params = _triples(samples, seed)

    def kernel(chunk):
        return residual_kernel(standard_form_matrices(*standard_form_blocks(chunk)))[2]

    residual = _batched(kernel, params)  # (samples, direction, focus)
    closed = np.array([rgs_closed_form(p) for p in params])
    value = residual.min(axis=(1, 2))
    minima = residual.min(axis=2)
    dev = np.maximum(np.abs(minima[:, 0] - closed), np.abs(minima[:, 1] - closed))
    # margin < -SLACK_TOL iff the deviation exceeds tolerance or the
    # RGS itself dips below -SLACK_TOL
    margin = np.minimum(-dev / np.maximum(1.0, np.abs(closed)), value)
    index = int(np.argmin(margin))
    payload = {
        "params": list(params[index].as_tuple()),
        "state": standard_form_pure(params[index]).to_dict(),
        "rgs": float(value[index]),
        "closed_form": float(closed[index]),
        "deviation": float(dev[index]),
    }
    violations = int(np.count_nonzero(margin < -SLACK_TOL))
    return SuiteResult(
        "rgs-consistency", samples, violations, float(margin[index]), "worst_margin", payload
    )


def suite_qss_bounds(samples: int, seed: int, threads: int = 1) -> SuiteResult:
    """RGS/2 - ln(e/2) <= K_full^{A:B:C} <= RGS - ln(e/2) on random
    standard-form states."""
    params = _triples(samples, seed)
    k = _batched(mode_invariant_rates, params)
    g = np.array([rgs_closed_form(p) for p in params])
    lo = k - (g / 2.0 - LN_E_HALF)
    hi = (g - LN_E_HALF) - k
    margin = np.minimum(lo, hi)
    index = int(np.argmin(margin))
    payload = {
        "params": list(params[index].as_tuple()),
        "state": standard_form_pure(params[index]).to_dict(),
        "k_raw": float(k[index]),
        "rgs": float(g[index]),
        "slack_lower": float(lo[index]),
        "slack_upper": float(hi[index]),
    }
    violations = int(np.count_nonzero(margin < -SLACK_TOL))
    return SuiteResult(
        "qss-bounds", samples, violations, float(margin[index]), "worst_slack", payload
    )


_SUITE_FUNCTIONS = {
    "monogamy": suite_monogamy,
    "exclusivity": suite_exclusivity,
    "logdet": suite_logdet,
    "ssa": suite_ssa,
    "rgs-consistency": suite_rgs_consistency,
    "qss-bounds": suite_qss_bounds,
}


def run_suite(name: str, samples: int, seed: int, threads: int = 1):
    """Run one named suite, or every suite for name 'all'."""
    if samples < 1:
        raise UsageError(f"sample count must be >= 1, got {samples}")
    if threads < 1:
        raise UsageError(f"thread count must be >= 1, got {threads}")
    if name == "all":
        return [fn(samples, seed, threads) for fn in _SUITE_FUNCTIONS.values()]
    if name not in _SUITE_FUNCTIONS:
        raise UsageError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return [_SUITE_FUNCTIONS[name](samples, seed, threads)]
