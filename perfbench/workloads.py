"""Seeded inputs, work units and output checkers of the benchmark workloads.

Every workload is a stream of ``chernscope`` argument vectors generated from
the benchmark seed alone; the program sees nothing but those vectors.  The
checkers verify identities the outputs must satisfy whatever the phase
values are (oracle signs, sums, ranges, row counts), so a later fix to the
measured phases is not reported as a failure.

This module needs only the standard library, so run.py can import it
without loading the program or its dependencies.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Optional

# Model points: tprime uniform in [0.05, 0.3], |phi| uniform in
# [pi/6, 5pi/6] with a random sign.  Every such point is gapped by at least
# 2 * 3 sqrt(3) * 0.05 * sin(pi/6) = 0.26, so no call is expected to fail.
TPRIME_RANGE = (0.05, 0.3)
PHI_RANGE = (math.pi / 6, 5 * math.pi / 6)

SWEEP_RADII = 4  # the sweep's default error radii: 0, 0.001, 0.002, 0.003
SWEEP_TRIALS = 100  # the sweep's default; a traced pass runs it
SWEEP_TIMED_TRIALS = 25  # per timed call, so a run holds enough calls for a steady median
TDSE_LEG_TIME = 400.0
CURVATURE_GRID = 200
FRINGE_POINTS = 24  # default --phi-mw-points

# Metric names and units, and why each workload is there, are declared once,
# in BENCHMARK.json at the root of the checkout.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Outcome:
    """What a checker learned from one call."""

    work: float = 0.0
    problems: list = field(default_factory=list)


def model_point(rng: random.Random) -> tuple[float, float]:
    tprime = rng.uniform(*TPRIME_RANGE)
    phi = rng.uniform(*PHI_RANGE) * rng.choice((-1.0, 1.0))
    return tprime, phi


def model_args(tprime: float, phi: float) -> list[str]:
    # The '=' form keeps a negative angle from reading as a flag; repr of a
    # Python float is what parse_phi accepts.
    return ["--tprime", repr(float(tprime)), f"--phi={float(phi)!r}"]


# ---------------------------------------------------------------- parsing

def parse_record(text: str) -> tuple[dict, dict]:
    """Split CLI stdout into the summary block and the inline tables.

    Returns (summary, tables): summary maps key to value text, tables maps
    a table name to a list of row dicts (structured-record format).
    """
    lines = text.split("\n")
    summary: dict = {}
    tables: dict = {}
    i = 0
    while i < len(lines) and lines[i] and not lines[i].startswith("## table:"):
        key, sep, value = lines[i].partition(": ")
        if not sep:
            raise ValueError(f"malformed summary line {lines[i]!r}")
        summary[key] = value
        i += 1
    current = None
    row: dict = {}
    for line in lines[i:]:
        if line.startswith("## table:"):
            current = tables.setdefault(line[len("## table:"):].strip(), [])
            row = {}
        elif not line:
            if row and current is not None:
                current.append(row)
            row = {}
        else:
            key, sep, value = line.partition(": ")
            if not sep or current is None:
                raise ValueError(f"malformed table line {line!r}")
            row[key] = value
    if row and current is not None:
        current.append(row)
    return summary, tables


def parse_dsv(text: str) -> tuple[list, list]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split("\t")
    return header, [line.split("\t") for line in lines[1:]]


def _num(table: dict, key: str, problems: list) -> float:
    """Read a finite number from a parsed record; record a problem if not."""
    try:
        value = float(table[key])
    except KeyError:
        problems.append(f"missing {key}")
        return math.nan
    except ValueError:
        problems.append(f"{key} is not a number: {table[key]!r}")
        return math.nan
    if not math.isfinite(value):
        problems.append(f"{key} is not finite: {value}")
    return value


def _resolution(text: str) -> float:
    """Half a unit in the last digit of a value printed with %.12g."""
    value = abs(float(text))
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(value)) - 11)


def _arg(argv: list, flag: str, default=None) -> Optional[str]:
    for i, item in enumerate(argv):
        if item == flag and i + 1 < len(argv):
            return argv[i + 1]
        if item.startswith(flag + "="):
            return item[len(flag) + 1:]
    return default


def _oracle_sign(argv: list) -> int:
    return 1 if math.sin(float(_arg(argv, "--phi"))) > 0 else -1


# --------------------------------------------------------------- checkers

def check_detect(argv: list, stdout: str, out_dir: Optional[Path]) -> Outcome:
    out = Outcome(work=1.0)
    p = out.problems
    s, _ = parse_record(stdout)
    if s.get("command") != "detect":
        p.append(f"command is {s.get('command')!r}, not detect")
    phi_i = _num(s, "phi-zak-i", p)
    phi_ii = _num(s, "phi-zak-ii", p)
    c_est = _num(s, "c-estimate", p)
    for key in ("contrast-i", "contrast-ii"):
        c = _num(s, key, p)
        if not 0.0 <= c <= 1.0 + 1e-9:
            p.append(f"{key} = {c} outside [0, 1]")
    oracle = s.get("oracle-c")
    if oracle != str(_oracle_sign(argv)):
        p.append(f"oracle-c = {oracle} but sign(sin phi) = {_oracle_sign(argv)}")
    if not p:
        tol = 1e-12 + (
            _resolution(s["phi-zak-i"]) + _resolution(s["phi-zak-ii"])
        ) / math.pi + _resolution(s["c-estimate"])
        if abs(c_est - (phi_i + phi_ii) / math.pi) > tol:
            p.append(f"c-estimate {c_est} != (phi_I + phi_II)/pi")
    label = s.get("c-classified")
    if label not in ("Ambiguous", "-1", "0", "+1"):
        p.append(f"c-classified = {label!r}")
    agrees = s.get("agrees-with-oracle")
    if agrees not in ("true", "false"):
        p.append(f"agrees-with-oracle = {agrees!r}")
    else:
        # Labels print signed ("+1"), the oracle's integer does not ("1").
        expected = label != "Ambiguous" and label == {"1": "+1"}.get(oracle, oracle)
        if (agrees == "true") != expected:
            p.append("agrees-with-oracle contradicts c-classified and oracle-c")
    return out


def check_curvature(argv: list, stdout: str, out_dir: Optional[Path]) -> Outcome:
    n = int(_arg(argv, "--grid-n", "60"))
    out = Outcome(work=float(n * n))
    p = out.problems
    s, _ = parse_record(stdout)
    if s.get("grid-n") != str(n):
        p.append(f"grid-n = {s.get('grid-n')}, expected {n}")
    total = _num(s, "total-flux", p)
    if abs(total / (2 * math.pi) - _oracle_sign(argv)) > 1e-3:
        p.append(f"total-flux / 2pi = {total / (2 * math.pi)}, oracle {_oracle_sign(argv)}")
    estimate = _num(s, "chern-estimate", p)
    if abs(estimate - total / (2 * math.pi)) > 1e-10:
        p.append("chern-estimate != total-flux / 2pi")
    try:
        header, rows = parse_dsv((out_dir / "curvature.dsv").read_text())
    except (OSError, TypeError) as exc:
        p.append(f"cannot read curvature.dsv: {exc}")
        return out
    if header != ["i", "j", "flux"]:
        p.append(f"curvature.dsv header {header}")
        return out
    if len(rows) != n * n:
        p.append(f"curvature.dsv has {len(rows)} rows, expected {n * n}")
        return out
    fluxes = []
    for index, row in enumerate(rows):
        if len(row) != 3 or row[0] != str(index // n) or row[1] != str(index % n):
            p.append(f"curvature.dsv row {index} is {row}")
            return out
        fluxes.append(float(row[2]))
    if not all(abs(f) < math.pi for f in fluxes):
        p.append("a plaquette flux is not finite or reaches pi")
    elif abs(math.fsum(fluxes) - total) > 1e-9:
        p.append(f"flux column sums to {math.fsum(fluxes)}, total-flux {total}")
    return out


def check_tdse(argv: list, stdout: str, out_dir: Optional[Path]) -> Outcome:
    out = Outcome()
    p = out.problems
    s, tables = parse_record(stdout)
    if s.get("mode") != "tdse" or s.get("site") != _arg(argv, "--site"):
        p.append(f"mode/site = {s.get('mode')}/{s.get('site')}")
    drift = _num(s, "norm-drift", p)
    if not drift <= 1e-8:
        p.append(f"norm-drift {drift} > 1e-8")
    for key in ("leakage-down", "leakage-up"):
        leak = _num(s, key, p)
        if not 0.0 <= leak <= 1.0:
            p.append(f"{key} = {leak} outside [0, 1]")
    dt = _num(s, "dt", p)
    n_steps = _num(s, "n-steps", p)
    leg_time = float(_arg(argv, "--leg-time"))
    if not abs(dt * n_steps - leg_time) <= 1e-9 * leg_time:
        p.append(f"dt * n-steps = {dt * n_steps}, leg time {leg_time}")
    fitted = _num(s, "fitted-phi-zak", p)
    extracted = _num(s, "extracted-phase", p)
    gap = abs(math.remainder(fitted - extracted, 2 * math.pi))
    if not gap <= 1e-6:
        p.append(f"fitted phase differs from the extracted phase by {gap}")
    rows = tables.get("fringe", [])
    points = int(_arg(argv, "--phi-mw-points", str(FRINGE_POINTS)))
    if len(rows) != points:
        p.append(f"fringe table has {len(rows)} rows, expected {points}")
    for row in rows:
        n_down = _num(row, "n_down", p)
        n_up = _num(row, "n_up", p)
        if not (n_down >= 0.0 and n_up >= 0.0 and n_down + n_up <= 1.0 + 1e-9):
            p.append(f"fringe populations {n_down}, {n_up} out of range")
            break
    if not p:
        out.work = 2.0 * n_steps  # both packets
    return out


def check_sweep(argv: list, stdout: str, out_dir: Optional[Path]) -> Outcome:
    trials = int(_arg(argv, "--trials", str(SWEEP_TRIALS)))
    out = Outcome(work=float(SWEEP_RADII * trials))
    p = out.problems
    s, tables = parse_record(stdout)
    if s.get("seed") != _arg(argv, "--seed"):
        p.append(f"seed = {s.get('seed')}, expected {_arg(argv, '--seed')}")
    if s.get("trials-per-radius") != str(trials):
        p.append(f"trials-per-radius = {s.get('trials-per-radius')}")
    radius_rows = tables.get("sweep", [])
    if len(radius_rows) != SWEEP_RADII:
        p.append(f"sweep table has {len(radius_rows)} rows, expected {SWEEP_RADII}")
        return out
    for row in radius_rows:
        rate = _num(row, "success_rate", p)
        if not 0.0 <= rate <= 1.0 or row.get("trials") != str(trials):
            p.append(f"sweep row {row}")
    zero = radius_rows[0]
    if zero.get("radius") != "0" or zero.get("success_rate") != "1" or zero.get(
        "max_zak_error"
    ) != "0":
        p.append(f"radius-0 row is not exact: {zero}")
    trial_rows = tables.get("sweep-trials", [])
    if len(trial_rows) != SWEEP_RADII * trials:
        p.append(
            f"sweep-trials has {len(trial_rows)} rows, expected {SWEEP_RADII * trials}"
        )
    return out


# --------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    name: str
    pass_size: int  # calls in one traced pass
    inputs: Callable[[int, bool], Iterator[list]]
    check: Callable[[list, str, Optional[Path]], Outcome]
    needs_out_dir: bool = False
    pass_inputs: Optional[Callable[[int, bool], Iterator[list]]] = None  # else inputs


def sweep_inputs(seed: int, tiny: bool, trials: Optional[int] = None) -> Iterator[list]:
    # The default model and radii; each call gets its own sweep seed so
    # that no two calls in a run repeat the same input.  trials=None keeps
    # the sweep's default of SWEEP_TRIALS.
    if tiny:
        trials = 2
    extra = [] if trials is None else ["--trials", str(trials)]
    i = 0
    while True:
        yield ["sweep", "--seed", str(seed + i)] + extra
        i += 1


def tdse_inputs(seed: int, tiny: bool) -> Iterator[list]:
    rng = random.Random(seed)
    leg = ["--leg-time", "40", "--samples-per-leg", "200"] if tiny else [
        "--leg-time", repr(TDSE_LEG_TIME)
    ]
    while True:
        point = model_args(*model_point(rng))
        for site in ("I", "II"):
            yield ["fringe", "--mode", "tdse", "--site", site] + leg + point


def detect_inputs(seed: int, tiny: bool) -> Iterator[list]:
    rng = random.Random(seed)
    extra = ["--samples-per-leg", "200"] if tiny else []
    while True:
        yield ["detect"] + extra + model_args(*model_point(rng))


def curvature_inputs(seed: int, tiny: bool) -> Iterator[list]:
    # The worker appends --out with its own scratch directory.
    rng = random.Random(seed)
    n = "60" if tiny else str(CURVATURE_GRID)
    while True:
        yield ["curvature", "--grid-n", n, "--format", "dsv"] + model_args(
            *model_point(rng)
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", 1, partial(sweep_inputs, trials=SWEEP_TIMED_TRIALS),
                 check_sweep, pass_inputs=sweep_inputs),
        Workload("tdse", 8, tdse_inputs, check_tdse),
        Workload("detect-scan", 100, detect_inputs, check_detect),
        Workload("curvature", 8, curvature_inputs, check_curvature, needs_out_dir=True),
    )
}
