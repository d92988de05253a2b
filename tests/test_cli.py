"""Command-line interface: exit codes, JSON payloads, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from steerlab import SamplerConfig, random_mixed
from steerlab.verify import SuiteResult


def load(out):
    return json.loads(out)


def test_state_vacuum(run_cli):
    code, out, err = run_cli("state", "--vacuum", "2")
    assert code == 0 and err == ""
    payload = load(out)
    assert payload["schema"] == "steerlab/v1"
    assert payload["n_modes"] == 2
    assert payload["pure"] is True
    np.testing.assert_allclose(payload["matrix"], np.eye(4), atol=0)


def test_state_standard_form_reports_invariants(run_cli):
    code, out, _ = run_cli("state", "--standard-form", "2", "1.5", "1.5")
    assert code == 0
    payload = load(out)
    np.testing.assert_allclose(payload["local_invariants"], [2.0, 1.5, 1.5], atol=1e-10)


def test_state_triangle_violation_exits_2(run_cli):
    code, out, err = run_cli("state", "--standard-form", "3", "1", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_state_below_uncertainty_exits_2(run_cli):
    code, _, err = run_cli("state", "--standard-form", "0.5", "1", "1")
    assert code == 2 and err.startswith("error: ")


def test_state_requires_exactly_one_constructor(run_cli):
    code, _, _ = run_cli("state")
    assert code == 2
    code, _, _ = run_cli("state", "--vacuum", "1", "--tmsv", "0.4")
    assert code == 2


def test_state_output_file_round_trip(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli("state", "--tmsv", "0.5", "--output", "state.json")
    assert code == 0 and out == ""
    code, out, _ = run_cli("analyze", "--input", "state.json", "--steering", "A", "B")
    assert code == 0
    np.testing.assert_allclose(load(out)["value"], math.log(math.cosh(1.0)), atol=1e-10)


def test_analyze_steering_direction_matters(run_cli):
    _, fwd, _ = run_cli("analyze", "--ghz-network", "0.5", "0.2", "0.5", "--steering", "AB", "C")
    _, bwd, _ = run_cli("analyze", "--ghz-network", "0.5", "0.2", "0.5", "--steering", "C", "AB")
    assert load(fwd)["steering"] == [0, 1] and load(fwd)["steered"] == [2]
    assert load(bwd)["steering"] == [2]


def test_analyze_steering_traces_unused_modes(run_cli):
    # A -> B on a three-mode state quietly works on the AB marginal
    code, out, _ = run_cli("analyze", "--standard-form", "2", "2", "2", "--steering", "A", "B")
    assert code == 0
    assert load(out)["value"] >= 0.0


def test_analyze_bad_label_exits_2(run_cli):
    code, _, err = run_cli("analyze", "--tmsv", "0.5", "--steering", "A", "D")
    assert code == 2 and err.startswith("error: ")


def test_analyze_rgs(run_cli):
    code, out, _ = run_cli("analyze", "--standard-form", "2", "2", "2", "--rgs")
    assert code == 0
    payload = load(out)
    np.testing.assert_allclose(payload["value"], math.log(2.0), atol=1e-9)
    assert payload["schema"] == "steerlab/v1"


def test_analyze_rgs_mixed_state_exits_3(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sigma = next(iter(random_mixed(3, SamplerConfig(seed=5, count=1))))
    (tmp_path / "mixed.json").write_text(json.dumps(sigma.to_dict()))
    code, _, err = run_cli("analyze", "--input", "mixed.json", "--rgs")
    assert code == 3 and err.startswith("error: ")


def test_analyze_keyrate_report(run_cli):
    code, out, _ = run_cli("analyze", "--standard-form", "2", "2", "2", "--keyrate")
    assert code == 0
    payload = load(out)
    assert payload["key_quadrature"] == "p"
    assert len(payload["dealers"]) == 3
    assert payload["mode_invariant_raw"] > 0.0
    np.testing.assert_allclose(payload["rgs"], math.log(2.0), atol=1e-9)


def test_analyze_keyrate_non_standard_form_exits_3(run_cli):
    code, _, err = run_cli("analyze", "--tmsv", "0.5", "--keyrate")
    assert code == 3 and err.startswith("error: ")


def test_analyze_missing_input_exits_2(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli("analyze", "--input", "nope.json", "--rgs")
    assert code == 2 and err.startswith("error: ")


def test_analyze_malformed_json_exits_2(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("{not json")
    code, _, err = run_cli("analyze", "--input", "bad.json", "--rgs")
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize(
    "text",
    [
        '{"n_modes": 1, "matrix": "abc"}',
        '{"n_modes": 1, "matrix": [[1.0, 0.0], [0.0]]}',
        '{"n_modes": 2, "matrix": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], '
        '[0.0, 0.0, Infinity, 0.0], [0.0, 0.0, 0.0, 1.0]]}',
        '{"n_modes": 1.9, "matrix": [[1.0, 0.0], [0.0, 1.0]]}',
        '{"n_modes": true, "matrix": [[1.0, 0.0], [0.0, 1.0]]}',
    ],
    ids=["string-matrix", "ragged-rows", "infinite-entry", "fractional-n-modes", "boolean-n-modes"],
)
def test_analyze_malformed_state_file_exits_2(run_cli, tmp_path, monkeypatch, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(text)
    code, out, err = run_cli("analyze", "--input", "bad.json", "--steering", "A", "B")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_cli_import_leaves_scipy_optimize_out():
    # scipy.optimize is needed only by `threshold`, and importing it
    # takes most of a cold start
    code = "import sys, steerlab.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_small_suites_pass(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli("verify", "--suite", "all", "--samples", "8", "--seed", "3")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[-1] == "PASS"
    assert len(lines) == 7  # six suites plus the verdict
    for line in lines[:-1]:
        assert "violations=0" in line
    assert not list(tmp_path.glob("steerlab-violation-*.json"))


def test_verify_failure_dumps_state(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fake = SuiteResult(
        name="monogamy",
        samples=4,
        violations=1,
        worst=-0.5,
        worst_label="worst_residual",
        worst_case={"sample_index": 2, "residual": -0.5},
    )
    monkeypatch.setattr("steerlab.cli.run_suite", lambda *a, **k: [fake])
    code, out, _ = run_cli("verify", "--suite", "monogamy", "--samples", "4")
    assert code == 1
    assert out.strip().split("\n")[-1] == "FAIL"
    dump = json.loads((tmp_path / "steerlab-violation-monogamy.json").read_text())
    assert dump["schema"] == "steerlab/v1"
    assert dump["suite"] == "monogamy"
    assert dump["sample_index"] == 2


def test_verify_unknown_suite_exits_2(run_cli):
    code, _, _ = run_cli("verify", "--suite", "bogus", "--samples", "2")
    assert code == 2


def test_sweep_1a_csv(run_cli):
    code, out, _ = run_cli("sweep", "--figure", "1a", "--a", "2", "--grid", "12")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "b,c,rgs"
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_sweep_1b_csv(run_cli):
    code, out, _ = run_cli("sweep", "--figure", "1b", "--r", "0.345", "--grid", "20")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R,a,b,c,rgs"
    assert len(lines) == 22


def test_sweep_2_structure_and_series(run_cli):
    code, out, _ = run_cli("sweep", "--figure", "2", "--samples", "4", "--seed", "11")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "sample_index,a,b,c,rgs,k_raw,k_clamped,lower_bound,upper_bound,"
        "slack_lower,slack_upper,series"
    )
    assert sum(1 for line in lines[1:] if line.endswith(",sample")) == 4


def test_sweep_deterministic_across_runs(run_cli):
    args = ("sweep", "--figure", "2", "--samples", "6", "--seed", "2")
    _, first, _ = run_cli(*args)
    _, second, _ = run_cli(*args)
    assert first == second


def test_sweep_thread_count_invisible(run_cli):
    base = ("sweep", "--figure", "2", "--samples", "6", "--seed", "2")
    _, one, _ = run_cli(*base, "--threads", "1")
    _, four, _ = run_cli(*base, "--threads", "4")
    assert one == four


def test_sweep_bad_grid_exits_2(run_cli):
    code, _, err = run_cli("sweep", "--figure", "1a", "--a", "2", "--grid", "1")
    assert code == 2 and err.startswith("error: ")


def test_sweep_output_file(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        "sweep", "--figure", "1b", "--r", "0.3", "--grid", "10", "--output", "fig.csv"
    )
    assert code == 0 and out == ""
    assert (tmp_path / "fig.csv").read_text().startswith("R,a,b,c,rgs\n")


def test_threshold_format(run_cli):
    code, out, _ = run_cli("threshold")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r_star = 0.4968"
    assert lines[1] == "squeezing_db = 4.3151"


def test_seed_env_fallback(run_cli, monkeypatch):
    base = ("sweep", "--figure", "2", "--samples", "3")
    monkeypatch.setenv("STEERLAB_SEED", "1")
    _, with_one, _ = run_cli(*base)
    monkeypatch.setenv("STEERLAB_SEED", "2")
    _, with_two, _ = run_cli(*base)
    assert with_one != with_two
    # an explicit --seed flag beats the environment
    _, explicit, _ = run_cli(*base, "--seed", "1")
    assert explicit == with_one


def test_help_exits_zero(run_cli):
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "steerlab" in out


def test_unknown_command_exits_2(run_cli):
    code, _, _ = run_cli("frobnicate")
    assert code == 2
