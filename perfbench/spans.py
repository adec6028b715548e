"""Spans and counters recorded around calls into chernscope's public functions.

The program itself is not instrumented.  ``Tracer.install`` replaces each
function in ``TARGETS`` with a timing wrapper at every ``chernscope`` module
that holds it by name, so calls made inside the package go through the
wrapper too; ``Tracer.restore`` puts the originals back.  Each span records
its layer name, start, end, parent span and operation id, and is kept in
memory until the pass that made it is summarised.  A layer's self time is
its spans' durations minus the time their child spans cover, so private
stages (the link product, the readout law, the propagator product) show up
in the self time of the public function that calls them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _leg_points(args, kwargs) -> int:
    plan = _arg(args, kwargs, 1, "plan")
    return len(plan.k_path_down.points) + len(plan.k_path_up.points)


def _none(args, kwargs, result):
    return {}


def _fields(args, kwargs, result):
    return {
        "lattice.fields.calls": 1,
        "lattice.fields.momenta": np.size(_arg(args, kwargs, 0, "kpts")) // 2,
    }


def _fhs(args, kwargs, result):
    return {"topology.fhs.plaquettes": result.n * result.n}


def _perturb(args, kwargs, result):
    return {"protocol.plan.calls": 1, "protocol.plan.perturbed": 1}


def _adiabatic(args, kwargs, result):
    return {
        "interferometer.adiabatic.calls": 1,
        "interferometer.leg_points": _leg_points(args, kwargs),
    }


def _tdse(args, kwargs, result):
    return {
        "interferometer.tdse.calls": 1,
        "interferometer.tdse.steps": 2 * result[1].n_steps,  # both packets
        "interferometer.leg_points": _leg_points(args, kwargs),
    }


def _classify(args, kwargs, result):
    if result.oracle_c is None:
        return {}
    return {
        "analysis.oracle_compared": 1,
        "analysis.oracle_agreed": int(result.c_classified == result.oracle_c),
    }


# (module, public function, layer, counter).  A counter maps the call's
# arguments and result to increments of named counts; None counts the call
# as "<layer>.calls".
TARGETS = (
    ("lattice", "bloch_fields", "lattice.fields", _fields),
    ("lattice", "band_states", "lattice.states", None),
    ("lattice", "band_energies", "lattice.energies", None),
    ("lattice", "band_gap_min", "lattice.gap_scan", None),
    ("topology", "berry_curvature_fhs", "topology.fhs", _fhs),
    ("topology", "chern_number", "topology.fhs", _none),
    ("protocol", "plan_site", "protocol.plan", None),
    ("protocol", "perturb_plan", "protocol.plan", _perturb),
    ("protocol", "validate_plan", "protocol.validate", None),
    ("interferometer", "evolve_adiabatic", "interferometer.adiabatic", _adiabatic),
    ("interferometer", "evolve_tdse", "interferometer.tdse", _tdse),
    ("interferometer", "apply_pi2", "interferometer.readout", None),
    ("interferometer", "readout", "interferometer.readout", _none),
    ("interferometer", "run_fringe", "interferometer.fringe", None),
    ("analysis", "fit_fringe", "analysis.fit", None),
    ("analysis", "robustness_sweep", "analysis.sweep", None),
    ("analysis", "classify", "analysis.classify", _classify),
    ("cli", "main", "cli", None),
)


class Tracer:
    """Records spans and counts while installed; summarises them per pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.op_id = 0
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, fn, layer, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls_key = layer + ".calls"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.op_id)
            if counter is None:
                counts[calls_key] += 1
            else:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if name == "chernscope" or name.startswith("chernscope.")
        ]
        for module_name, func_name, layer, counter in TARGETS:
            original = getattr(sys.modules["chernscope." + module_name], func_name)
            wrapper = self._wrap(original, layer, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> tuple[dict, dict]:
        """Self time per layer and the counts since the last take; resets."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = {}
        for (layer, start, end, _, _), covered in zip(spans, child):
            self_s[layer] = self_s.get(layer, 0.0) + (end - start - covered)
        counts = dict(self.counts)
        spans.clear()
        self.counts.clear()
        return self_s, counts
