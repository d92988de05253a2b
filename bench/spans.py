"""Span tracing of steerlab's layers, installed from outside the program.

``install`` replaces, in each layer module's namespace, the functions
that module calls in another layer by a wrapper bound to the same name,
so every call made through that name records a span: the caller layer,
the callee, start and end in nanoseconds, and the enclosing span.  A few
functions that are also called inside their own module are wrapped in
that module too (``INTRA``), because the counts they give are the ones an
optimization is expected to move.  Spans stay in memory, in flat arrays,
until ``Tracer.dump`` writes them out.

Only the traced run installs the wrappers: the end-to-end metrics come
from runs without them.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import time
import types

import numpy as np

LAYERS = ("cli", "verify", "monogamy", "steering", "qss", "states", "symplectic", "tables")

# Functions also wrapped where their own module calls them.
INTRA = {
    "symplectic": ("symplectic_eigenvalues", "is_valid_cm", "partial_trace", "log_det"),
    "qss": ("conditional_variance", "require_standard_form", "key_rate_full",
            "key_rate_eve", "key_rate_mode_invariant"),
    "monogamy": ("monogamy_residual",),
}

# ordered_map runs the caller's own per-sample function: a span around it
# would charge the caller's work to tables.
UNWRAPPED = ("tables.ordered_map",)


class Tracer:
    """In-memory span store: one row per call, in call order."""

    def __init__(self):
        self.names = []  # span name id -> (caller layer, callee)
        self.name = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self._stack = []
        self._keys = {}  # callee -> argument keys seen in the current round
        self.distinct = {}  # callee -> distinct calls summed over rounds

    def wrap(self, fn, caller: str, callee: str, key=None):
        """``fn`` recording a span per call; ``key(*args, **kwargs)``, if
        given, identifies calls that repeat the same computation."""
        nid = len(self.names)
        self.names.append((caller, callee))
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns
        seen = self._keys.setdefault(callee, set()) if key else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            if seen is not None:
                seen.add(key(*args, **kwargs))
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1

        return traced

    def end_round(self):
        """Close a round of work: distinct keys are counted per round."""
        for callee, seen in self._keys.items():
            self.distinct[callee] = self.distinct.get(callee, 0) + len(seen)
            seen.clear()

    def mark(self) -> int:
        return len(self.name)

    def discard(self, mark: int = 0):
        """Drop the spans recorded since ``mark`` and the keys of the
        current round, e.g. those of a check made between rounds."""
        for col in (self.name, self.start, self.end, self.parent):
            del col[mark:]
        for seen in self._keys.values():
            seen.clear()
        if mark == 0:
            self.distinct.clear()

    def summary(self) -> dict:
        """callee -> {calls, self_ns, by_caller}.

        A span's self time is its duration minus the durations of its
        child spans; calls are synchronous, so children never overlap.
        """
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        out = {}
        for nid, (caller, callee) in enumerate(self.names):
            entry = out.setdefault(callee, {"calls": 0, "self_ns": 0.0, "by_caller": {}})
            entry["calls"] += int(calls[nid])
            entry["self_ns"] += float(self_ns[nid])
            entry["by_caller"][caller] = entry["by_caller"].get(caller, 0) + int(calls[nid])
        return out

    def dump(self, path, extra: dict) -> None:
        payload = {
            **extra,
            "span_names": [list(n) for n in self.names],
            "spans": {
                "name": self.name.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "parent": self.parent.tolist(),
            },
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _steering_key(sigma, steering, steered):
    return hash((sigma.matrix.tobytes(), tuple(sorted(steering)), tuple(sorted(steered))))


KEYS = {"steering.gaussian_steering": _steering_key}


def install(tracer: Tracer) -> None:
    """Wrap cross-layer (and ``INTRA``) calls in every layer module."""
    for caller in LAYERS:
        mod = importlib.import_module(f"steerlab.{caller}")
        for attr, obj in list(vars(mod).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            home = obj.__module__.rpartition(".")[2]
            callee = f"{home}.{obj.__name__}"
            if home not in LAYERS or callee in UNWRAPPED:
                continue
            if home == caller and attr not in INTRA.get(caller, ()):
                continue
            setattr(mod, attr, tracer.wrap(obj, caller, callee, KEYS.get(callee)))
