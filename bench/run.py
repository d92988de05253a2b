#!/usr/bin/env python3
"""steerlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository: steerlab is imported from ./src.
NAME is one of monogamy-campaign, keyrate-campaign and analyze-calls
(see bench/README.md), or ``all`` to run each in turn in its own process.
The workload runs in rounds of fixed size until S seconds of rounds have
been timed.  Before and after each round a fixed computation (``Gauge``)
measures the machine's current speed, and the round's outputs are checked
against bench/oracle.py.  The last line of standard output is one JSON
object {correct, attempted, failed, metrics}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1, which also writes every
span to bench/out/trace-NAME.json.  The line before it, ``raw {...}``,
holds the unscaled figures the metrics were scaled from.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SPAWNS = 10  # fresh interpreters timed per untraced run for setup_s
IMPORTTIME_SPAWNS = 3  # fresh interpreters per traced run for <layer>.import_ms
# Timed inside the child, so that the cost of spawning a process drops out.
IMPORT_CLI = ("import time; t0 = time.perf_counter(); import steerlab.cli; "
              "print(time.perf_counter() - t0, flush=True)")


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def round_seed(seed: int, r: int) -> int:
    """Seed of round r, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def child_env() -> dict:
    """Environment of the timed interpreters: steerlab from ./src, and
    bytecode caches allowed, so that they start as an installed package
    does (compiling the sources would add about 15 % to each start)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Gauge:
    """Machine-speed gauge: a fixed computation timed around each measured one.

    On a shared machine the speed of this code drifts by up to 2x within
    minutes, with the load others put on the same cores.  The gauge is
    the benchmark's own numpy and Python work (the oracle on fixed
    states), so it slows down with the machine and never with a change to
    steerlab.  ``slowdown()`` runs it and returns its time over
    ``NOMINAL_S``; times are divided by that factor, and rates multiplied
    by it, so that they read as at the speed where the gauge takes
    ``NOMINAL_S``.
    """

    NOMINAL_S = 0.025

    def __init__(self):
        rng = np.random.default_rng(0)
        self.standard = [oracle.random_standard_form(rng) for _ in range(20)]
        self.mixed = [oracle.random_mixed_cm(3, rng) for _ in range(20)]

    def slowdown(self) -> float:
        t0 = time.perf_counter()
        for sigma in self.standard:
            oracle.key_rate_mode_invariant(sigma)
        for sigma in self.mixed:
            for k in range(3):
                oracle.monogamy_residual(sigma, k, oracle.STEERS_REST)
        return (time.perf_counter() - t0) / self.NOMINAL_S


# --- workloads ------------------------------------------------------------
#
# Each workload has ``items`` per round, ``prepare(r)`` (untimed inputs of
# round r), ``run(inputs)`` (the timed program calls, returning the output,
# per-call latencies or None, and the count of failed items) and
# ``check(inputs, output)``.  ``entry(fn, name)`` returns fn, or in the
# traced run fn recording a root span.


class MonogamyCampaign:
    """``verify.run_suite("monogamy", N, seed)``: N random mixed 3-party
    states plus N // 10 4-party ones, every residual in both directions."""

    N = 100
    CHECKED = 4  # 3-party states per round recomputed by the oracle
    TOL = 1e-9  # residual agreement, relative to 1 + |collective G|
    unit = "states"

    def __init__(self, seed, entry, workdir):
        from steerlab import monogamy, states, verify

        self.seed = seed
        self.items = self.N + self.N // 10
        self.run_suite = entry(verify.run_suite, "verify.run_suite")
        self.residual = monogamy.monogamy_residual
        self.directions = (monogamy.STEERED_BY_REST, monogamy.STEERS_REST)
        self.sample = states._mixed_sample
        self.config = states.SamplerConfig

    def prepare(self, r):
        return r, round_seed(self.seed, r)

    def run(self, inputs):
        return self.run_suite("monogamy", self.N, inputs[1]), None, 0

    def check(self, inputs, results):
        r, seed = inputs
        expect(len(results) == 1, f"run_suite returned {len(results)} results")
        res = results[0]
        expect(res.name == "monogamy" and res.samples == self.items,
               f"suite {res.name} reports {res.samples} samples, expected {self.items}")
        expect(res.violations == 0, f"seed {seed}: {res.violations} violations")
        expect(res.worst >= -1e-9, f"seed {seed}: worst residual {res.worst}")
        cfg = self.config(seed=seed, count=1)
        least = math.inf
        for j in range(self.CHECKED):
            i = (r + j * self.N // self.CHECKED) % self.N
            sigma = self.sample(3, cfg.rng_for(i), r_max=1.0)
            for direction in self.directions:
                for k in range(3):
                    got = self.residual(sigma, [0, 1, 2], k, direction).residual
                    want, collective = oracle.monogamy_residual(sigma.matrix, k, direction)
                    expect(abs(got - want) <= self.TOL * (1.0 + abs(collective)),
                           f"seed {seed} state {i} focus {k} {direction}: "
                           f"residual {got}, oracle {want}")
                    least = min(least, want)
        expect(res.worst <= least + self.TOL,
               f"seed {seed}: suite worst {res.worst} above oracle minimum {least}")


class KeyrateCampaign:
    """``qss.fig2_campaign(SamplerConfig(seed, count=N, a_max)).to_csv_text()``:
    N triangle-sampled triples plus three 201-point boundary families on
    a grid of a in [1, a_max].  Each round draws its own a_max (``sweep
    --amax``), so that the families' triples, like the samples, never
    repeat between rounds."""

    N = 1000
    A_MAX = (4.0, 6.0)  # range of a round's a_max, around the default 5
    FAMILIES = (("lower_boundary", 201), ("upper_boundary", 201), ("ghz", 201))
    COLUMNS = ["sample_index", "a", "b", "c", "rgs", "k_raw", "k_clamped",
               "lower_bound", "upper_bound", "slack_lower", "slack_upper", "series"]
    TOL = 1e-9  # relative to oracle.invariant_scale
    unit = "rows"

    def __init__(self, seed, entry, workdir):
        from steerlab import qss, states, tables

        self.seed = seed
        self.items = self.N + sum(n for _, n in self.FAMILIES)
        self.series = ["sample"] * self.N + [s for s, n in self.FAMILIES for _ in range(n)]
        self.campaign = entry(qss.fig2_campaign, "qss.fig2_campaign")
        self.to_csv = entry(tables.SweepTable.to_csv_text, "tables.SweepTable.to_csv_text")
        self.standard_form = states.standard_form_pure
        self.config = states.SamplerConfig
        # rows recomputed by the oracle: spread samples, each family's ends
        self.checked = [self.N * j // 6 for j in range(6)]
        start = self.N
        for _, n in self.FAMILIES:
            self.checked += [start, start + n - 1]
            start += n
        self.csv_bytes = []

    def prepare(self, r):
        a_max = float(np.random.default_rng([self.seed, r]).uniform(*self.A_MAX))
        return self.config(seed=round_seed(self.seed, r), count=self.N, a_max=a_max)

    def run(self, cfg):
        return self.to_csv(self.campaign(cfg)), None, 0

    def check(self, cfg, text):
        self.csv_bytes.append(len(text.encode()))
        rows = list(csv.reader(io.StringIO(text)))
        expect(rows[0] == self.COLUMNS, f"header {rows[0]}")
        rows = rows[1:]
        expect(len(rows) == self.items, f"{len(rows)} rows, expected {self.items}")
        for i, row in enumerate(rows):
            where = f"seed {cfg.seed} row {i}"
            expect(int(row[0]) == i and row[11] == self.series[i], f"{where}: index or series {row}")
            a, b, c, g, k, k_clamped, lower, upper = (float(v) for v in row[1:9])
            tol = self.TOL * oracle.invariant_scale(a, b, c)
            want = oracle.rgs_closed_form(a, b, c)
            lo, hi = oracle.key_rate_envelope(want)
            expect(abs(g - want) <= tol, f"{where}: rgs {g}, closed form {want}")
            expect(abs(lower - lo) <= tol and abs(upper - hi) <= tol,
                   f"{where}: bounds {lower}, {upper}, expected {lo}, {hi}")
            expect(k_clamped == max(0.0, k), f"{where}: k_clamped {k_clamped} for k_raw {k}")
            expect(lo - tol <= k <= hi + tol, f"{where}: k_raw {k} outside [{lo}, {hi}]")
            if row[11] == "lower_boundary":
                expect(abs(k - lo) <= 1e-6, f"{where}: k_raw {k} off the lower bound {lo}")
            elif row[11] == "upper_boundary":
                expect(hi - k <= 1e-2, f"{where}: k_raw {k} more than 1e-2 below {hi}")
        for i in self.checked:
            a, b, c, k = (float(v) for v in (rows[i][1], rows[i][2], rows[i][3], rows[i][5]))
            where = f"seed {cfg.seed} row {i} ({a}, {b}, {c})"
            sigma = self.standard_form((a, b, c)).matrix
            defects = oracle.standard_form_defects(sigma, (a, b, c))
            expect(max(defects.values()) <= 1e-9, f"{where}: standard form defects {defects}")
            tol = self.TOL * oracle.invariant_scale(a, b, c)
            want = oracle.key_rate_mode_invariant(sigma)
            expect(abs(k - want) <= tol, f"{where}: k_raw {k}, oracle {want}")
            for dealer, inv in enumerate((a, b, c)):
                v_p, v_x = oracle.joint_variances(sigma, dealer)
                expect(abs(4.0 * v_p * v_x * inv * inv - 1.0) <= tol,
                       f"{where}: dealer {dealer} 4 V_P V_X a^2 = {4.0 * v_p * v_x * inv * inv}")


class AnalyzeCalls:
    """A seeded stream of in-process ``steerlab analyze`` calls, one state
    each, rotating --rgs, --keyrate and --steering on a state file."""

    CALLS = 120  # per round: 40 of each form
    FILES = 40  # state files written before each round, one per steering call
    A_MAX = 5.0
    LABELS = {
        3: (("A", "B"), ("BC", "A"), ("A", "BC"), ("C", "AB"), ("B", "C")),
        4: (("A", "B"), ("AB", "CD"), ("D", "ABC"), ("BC", "A"), ("ACD", "B")),
    }
    TOL = 1e-9  # relative to oracle.invariant_scale, or to 1 + G
    unit = "calls"

    def __init__(self, seed, entry, workdir):
        from steerlab import cli

        self.seed = seed
        self.items = self.CALLS
        self.main = entry(cli.main, "cli.main")
        self.workdir = workdir

    def write_files(self, rng):
        """The round's state files, new in every round."""
        files = []
        for j in range(self.FILES):
            n = 3 if j % 2 == 0 else 4
            matrix = oracle.random_mixed_cm(n, rng)
            path = self.workdir / f"state-{j}.json"
            path.write_text(json.dumps({"n_modes": n, "matrix": matrix.tolist()}))
            files.append((str(path), matrix, self.LABELS[n][(j // 2) % 5]))
        return files

    def _triple(self, q, rng):
        """Triple q of a round: one in four lies on a triangle edge,
        alternating a = 1 with b = c, and c = a + b - 1, at a rotating
        position; the rest are uniform over the region."""
        turn = (q // 8) % 3
        if q % 8 == 0:
            b = rng.uniform(1.0, self.A_MAX)
            t = (1.0, b, b)
        elif q % 8 == 4:
            a, b = rng.uniform(1.0, self.A_MAX, 2)
            t = (a, b, a + b - 1.0)
        else:
            while True:
                a, b, c = rng.uniform(1.0, self.A_MAX, 3)
                if a <= b + c - 1.0 and b <= c + a - 1.0 and c <= a + b - 1.0:
                    break
            t = (a, b, c)
        return tuple(float(v) for v in t[turn:] + t[:turn])

    def prepare(self, r):
        rng = np.random.default_rng([self.seed, r])
        files = self.write_files(rng)
        calls = []
        for c in range(self.CALLS):
            out = str(self.workdir / f"out-{c}.json")
            form, slot = c % 3, c // 3
            if form < 2:
                t = self._triple(2 * slot + form, rng)
                flag = "--rgs" if form == 0 else "--keyrate"
                argv = ["analyze", "--standard-form", *map(repr, t), flag, "--output", out]
                calls.append((argv, flag, t))
            else:
                path, matrix, (frm, to) = files[slot]
                argv = ["analyze", "--input", path, "--steering", frm, to, "--output", out]
                calls.append((argv, "--steering", (matrix, frm, to)))
        return calls

    def run(self, calls):
        main, clock = self.main, time.perf_counter
        codes, latencies = [], []
        for argv, _, _ in calls:
            t0 = clock()
            codes.append(main(argv))
            latencies.append(clock() - t0)
        return codes, latencies, sum(1 for code in codes if code != 0)

    def check(self, calls, codes):
        for (argv, form, what), code in zip(calls, codes):
            if code != 0:
                continue  # counted as failed
            with open(argv[-1]) as fh:
                out = json.load(fh)
            where = " ".join(argv[:-2])
            if form == "--steering":
                matrix, frm, to = what
                want = oracle.steering(matrix, label_modes(frm), label_modes(to))
                expect(out["quantity"] == "steering", f"{where}: quantity {out['quantity']}")
                expect(abs(out["value"] - want) <= self.TOL * (1.0 + want),
                       f"{where}: G {out['value']}, oracle {want}")
                continue
            tol = self.TOL * oracle.invariant_scale(*what)
            want = oracle.rgs_closed_form(*what)
            if form == "--rgs":
                expect(out["quantity"] == "rgs", f"{where}: quantity {out['quantity']}")
                expect(abs(out["value"] - want) <= tol, f"{where}: RGS {out['value']}, closed form {want}")
                expect(out["value"] == min(out["residuals"].values()) and len(out["residuals"]) == 6,
                       f"{where}: RGS is not the least of six residuals")
                continue
            lo, hi = oracle.key_rate_envelope(want)
            k = out["mode_invariant_raw"]
            expect(out["quantity"] == "keyrate", f"{where}: quantity {out['quantity']}")
            expect(abs(out["rgs"] - want) <= tol, f"{where}: rgs {out['rgs']}, closed form {want}")
            expect(lo - tol <= k <= hi + tol, f"{where}: K {k} outside [{lo}, {hi}]")
            expect(k == min(d["k_full_raw"] for d in out["dealers"]), f"{where}: K is not the least dealer rate")
            for d, inv in zip(out["dealers"], what):
                product = 4.0 * d["v_p_joint"] * d["v_x_joint"] * inv * inv
                expect(abs(product - 1.0) <= tol, f"{where}: dealer {d['dealer']} 4 V_P V_X a^2 = {product}")


def label_modes(label: str) -> list:
    return [ord(ch) - ord("A") for ch in label]


WORKLOADS = {
    "monogamy-campaign": MonogamyCampaign,
    "keyrate-campaign": KeyrateCampaign,
    "analyze-calls": AnalyzeCalls,
}


# --- set-up cost ------------------------------------------------------------

def time_fresh_import() -> float:
    """Seconds a fresh interpreter takes to import steerlab.cli."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CLI], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    expect(proc.returncode == 0, f"importing steerlab.cli failed: {proc.stderr[-2000:]}")
    return float(proc.stdout)


def parse_importtime(text: str) -> dict:
    """Milliseconds each layer's import adds, from ``python -X importtime``.

    A module's figure is its cumulative time minus the cumulative time of
    the nearest nested imports of other steerlab modules and of numpy,
    so a third-party import (scipy.optimize in qss) counts for the layer
    that first imports it; numpy, which every layer uses, has its own.
    """
    done = []  # (depth, name, cumulative_us, children), in import-finish order
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "imported package" in line:
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        children = []
        while done and done[-1][0] > depth:
            children.append(done.pop())
        done.append((depth, name.strip(), int(parts[1]), children[::-1]))

    def own(node):
        total = node[2]
        for child in node[3]:
            if child[1].startswith("steerlab") or child[1] == "numpy":
                total -= child[2]
            else:
                total -= child[2] - own(child)
        return total

    out = {}

    def visit(node):
        short = node[1].rpartition(".")[2]
        if node[1] == f"steerlab.{short}" and short in spans.LAYERS:
            out[f"{short}.import_ms"] = own(node) / 1e3
        elif node[1] == "numpy":
            out["numpy.import_ms"] = node[2] / 1e3
        for child in node[3]:
            visit(child)

    for node in done:
        visit(node)
    return out


def import_times() -> dict:
    runs = []
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import steerlab.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
        expect(proc.returncode == 0, f"importing steerlab.cli failed: {proc.stderr[-2000:]}")
        runs.append(parse_importtime(proc.stderr))
    names = [f"{layer}.import_ms" for layer in spans.LAYERS] + ["numpy.import_ms"]
    return {n: statistics.median(run.get(n, 0.0) for run in runs) for n in names}


# --- running and reporting --------------------------------------------------

def gauged(gauge) -> float:
    """The gauge's slowdown, read after a full garbage collection, so
    that garbage a round leaves behind is not collected on its clock."""
    gc.collect()
    return gauge.slowdown()


def measure(workload, seconds, tracer, gauge, spawns):
    """Warm-up round, then timed rounds until ``seconds`` of them.

    The gauge is read before and after each round, and the mean of the
    two readings scales it.  The round's outputs are checked after that.
    ``spawns`` fresh-interpreter set-up times are taken between rounds,
    spread over the run, outside the timed region.
    """
    rounds, problems, setup = [], [], []
    attempted = failed = 0
    r = 0
    timed = 0.0
    while r == 0 or timed < seconds:
        inputs = workload.prepare(r)
        before = gauged(gauge)
        t0 = time.perf_counter()
        try:
            output, latencies, bad = workload.run(inputs)
        except Exception:
            traceback.print_exc()
            output, latencies, bad = None, None, workload.items
        duration = time.perf_counter() - t0
        slowdown = (before + gauged(gauge)) / 2.0
        attempted += workload.items
        failed += bad
        if tracer is not None:
            tracer.end_round()
        mark = tracer.mark() if tracer is not None else 0
        if output is not None:
            try:
                workload.check(inputs, output)
            except CheckFailed as exc:
                problems.append(str(exc))
        if tracer is not None:
            tracer.discard(mark)
        if r == 0:
            if tracer is not None:
                tracer.discard()  # the warm-up round fills caches; trace the rest
        else:
            rounds.append((duration, latencies if latencies is not None else [duration], slowdown))
            timed += duration
        while len(setup) < spawns * min(1.0, timed / seconds):
            setup.append(time_fresh_import())
        r += 1
    while len(setup) < spawns:
        setup.append(time_fresh_import())
    return rounds, attempted, failed, problems, setup


def latency_ms(rounds, q):
    """q-th percentile of the calls' scaled latencies; a campaign round is one call."""
    return float(np.percentile([x / slow for _, lat, slow in rounds for x in lat], q)) * 1e3


def end_to_end(rounds, throughput, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "throughput": (throughput, "items/s"),
        "latency_p50_ms": (latency_ms(rounds, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, rounds, tracer, imports):
    stats = tracer.summary()
    items = len(rounds) * workload.items
    csv_bytes = getattr(workload, "csv_bytes", None)  # per round, warm-up first

    def calls(callee):
        return stats.get(callee, {}).get("calls", 0)

    def self_us(*callees):
        return sum(stats.get(c, {}).get("self_ns", 0.0) for c in callees) / 1e3

    def per_call_us(*callees):
        n = sum(calls(c) for c in callees)
        return self_us(*callees) / n if n else 0.0

    def layer_us(layer):
        return self_us(*(c for c in stats if c.startswith(layer + ".")))

    metrics = {
        "states.sample_us": (per_call_us("states._mixed_sample", "states._params_sample"), "us/sample"),
        "states.standard_form_calls": (calls("states.standard_form_pure") / items, "calls/item"),
        "states.standard_form_us": (per_call_us("states.standard_form_pure"), "us/call"),
        "symplectic.spectrum_calls": (calls("symplectic.symplectic_eigenvalues") / items, "calls/item"),
        "symplectic.spectrum_us": (per_call_us("symplectic.symplectic_eigenvalues"), "us/call"),
        "symplectic.validations": (calls("symplectic.is_valid_cm") / items, "calls/item"),
        "symplectic.schur_us": (per_call_us("symplectic.schur_complement"), "us/call"),
        "steering.g_evals": (calls("steering.gaussian_steering") / items, "calls/item"),
        "steering.g_distinct": (tracer.distinct.get("steering.gaussian_steering", 0) / items, "calls/item"),
        "steering.g_us": (per_call_us("steering.gaussian_steering"), "us/call"),
        "monogamy.residual_us": (self_us("monogamy.monogamy_residual", "monogamy.rgs") / items, "us/item"),
        "qss.purity_checks": (stats.get("symplectic.is_pure", {}).get("by_caller", {}).get("qss", 0) / items,
                              "calls/item"),
        "qss.cond_var_calls": (calls("qss.conditional_variance") / items, "calls/item"),
        "qss.keyrate_us": (layer_us("qss") / items, "us/item"),
        "verify.self_ms": (layer_us("verify") / 1e3 / len(rounds), "ms/run"),
        "tables.csv_ms": (layer_us("tables") / 1e3 / len(rounds), "ms/run"),
        "tables.csv_bytes": (csv_bytes[1] if csv_bytes else 0, "bytes"),
        "cli.self_us": (per_call_us("cli.main"), "us/call"),
    }
    metrics.update({name: (value, "ms") for name, value in imports.items()})
    return metrics


def run_one(args) -> int:
    if not (SRC / "steerlab" / "__init__.py").is_file():
        print(f"error: no steerlab sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import steerlab

    expect(Path(steerlab.__file__).resolve().parent == (SRC / "steerlab").resolve(),
           f"imported steerlab from {steerlab.__file__}, not {SRC}")

    time_fresh_import()  # untimed: writes the bytecode caches, warms the file cache
    imports = tracer = None
    if args.trace:
        imports = import_times()
        tracer = spans.Tracer()
        spans.install(tracer)

    def entry(fn, name):
        return tracer.wrap(fn, "bench", name) if tracer is not None else fn

    gauge = Gauge()

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, entry, workdir)
        rounds, attempted, failed, problems, setup = measure(
            workload, args.seconds, tracer, gauge, 0 if tracer else SETUP_SPAWNS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    throughput = statistics.median(workload.items / d for d, _, _ in rounds)
    scaled = statistics.median(workload.items / d * slow for d, _, slow in rounds)
    slowdown = statistics.median(slow for _, _, slow in rounds)
    if tracer is None:
        metrics = end_to_end(rounds, scaled, statistics.median(setup))
    else:
        metrics = per_layer(workload, rounds, tracer, imports)
        tracer.dump(OUT / f"trace-{args.workload}.json", {
            "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "items_per_round": workload.items, "throughput_unscaled": throughput,
            "throughput_scaled": scaled, "median_slowdown": slowdown,
            "metrics": {k: v for k, (v, _) in metrics.items()},
        })

    for message in problems[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {len(rounds)} timed rounds of {workload.items} {workload.unit}; {workload.unit}/s "
          f"{throughput:.1f} unscaled, {scaled:.1f} scaled; median slowdown {slowdown:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    if tracer is None and len(rounds) * workload.items >= 1000 and workload.unit == "calls":
        # reported, not gated: stalls from other loads on the machine make
        # it spread by 30-60 % between runs
        print(f"  {'latency_p99_ms':28s} {latency_ms(rounds, 99):14.6g} ms (not in BENCHMARK.json)")
    print(f"  attempted {attempted}  failed {failed}  checks failed {len(problems)}")
    # The scaling's inputs, so that a reader can undo it; the result line
    # below keeps to its four keys.
    print("raw " + json.dumps({
        "throughput_unscaled": throughput, "median_slowdown": slowdown,
        "round_s": [d for d, _, _ in rounds], "slowdown": [slow for _, _, slow in rounds],
        "setup_import_s": setup,
    }))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
