"""The traced benchmark run wraps public functions by name; keep them present."""

import importlib
import inspect
import io
import runpy
from pathlib import Path

import pytest

from chernscope import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SPANS_NAMESPACE = runpy.run_path(str(SPANS))
TARGETS = [(mod, name) for mod, name, _, _ in SPANS_NAMESPACE["TARGETS"]]


@pytest.mark.parametrize("module_name,func_name", TARGETS)
def test_benchmark_target_exists(module_name, func_name):
    module = importlib.import_module(f"chernscope.{module_name}")
    assert inspect.isfunction(getattr(module, func_name, None)), (
        f"chernscope.{module_name}.{func_name} is traced by perfbench/spans.py"
    )


def test_traced_fringe_counts_each_leg_point_once():
    """The tracer reads the legs off the plan an evolution is given; a
    fringe run at 40 samples per leg has 2 x 41 leg points, and the fields
    of each down leg point are evaluated exactly once: the site plan's up
    leg is the down leg's mirror, its fields derived."""
    tracer = SPANS_NAMESPACE["Tracer"]()
    tracer.install()
    try:
        code = cli.main(["fringe", "--samples-per-leg", "40"], stdout=io.StringIO())
    finally:
        tracer.restore()
    assert code == 0
    _, counts = tracer.take()
    assert counts["interferometer.leg_points"] == 82
    assert counts["lattice.fields.momenta"] == 41
    assert counts["interferometer.adiabatic.calls"] == 1


def test_traced_sweep_evaluates_each_leg_sample_once():
    """A traced sweep at 2 trials and 20 samples per leg evolves the 2
    nominal plans and 2 sites x 2 trials at each of the 3 nonzero default
    radii (the radius-0 trials reuse the nominal end states), and evaluates
    the fields of each perturbed plan's 2 x 21 leg samples once and of each
    nominal plan's 21 down leg samples, its up leg the mirror; the traced
    wrappers it passes through are handed single plans, never a batch.
    Before any evolution it runs one gap search: a 32 x 32 scan and 20
    rounds of 7 x 7 points, batched.  Round 1 runs alone and moves the
    centre; rounds 2-20 run as one batch around the new centre, which round
    17 moves again, so rounds 18-20 run once more around it: 1 + 19 + 3 =
    23 rounds' grids."""
    tracer = SPANS_NAMESPACE["Tracer"]()
    tracer.install()
    try:
        code = cli.main(
            ["sweep", "--trials", "2", "--samples-per-leg", "20"],
            stdout=io.StringIO(),
        )
    finally:
        tracer.restore()
    assert code == 0
    _, counts = tracer.take()
    assert counts["lattice.gap_scan.calls"] == 1
    gap_search = 32 * 32 + 23 * 7 * 7
    legs = 2 * 1 + 3 * 2 * 2 * 2  # nominal down legs, perturbed plans' legs
    assert counts["lattice.fields.momenta"] == legs * 21 + gap_search


TDSE_ARGV = ["fringe", "--mode", "tdse", "--leg-time", "2", "--samples-per-leg", "400"]


def _tdse_stdout() -> str:
    out = io.StringIO()
    assert cli.main(TDSE_ARGV, stdout=out) == 0
    return out.getvalue()


def test_traced_tdse_counts_steps_and_leg_points_only():
    """The traced TDSE route counts both packets' steps, and the fields of
    the down leg's points once each, the site plan's up leg being its
    mirror: the midpoints go through ``line_fields``, which the tracer
    does not count as field momenta."""
    tracer = SPANS_NAMESPACE["Tracer"]()
    tracer.install()
    try:
        stdout = _tdse_stdout()
    finally:
        tracer.restore()
    _, counts = tracer.take()
    n_steps = int(next(
        line.split(": ", 1)[1] for line in stdout.splitlines()
        if line.startswith("n-steps: ")
    ))
    assert counts["interferometer.tdse.steps"] == 2 * n_steps
    assert counts["interferometer.leg_points"] == 2 * 401
    assert counts["lattice.fields.momenta"] == 401


def test_tdse_stdout_repeats_byte_for_byte():
    assert _tdse_stdout() == _tdse_stdout()
