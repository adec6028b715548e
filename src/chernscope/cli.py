"""Command-line front end.

One entry point with subcommands that bind the library end to end:

    chernscope bands | curvature | chern | zak | protocol | fringe
               | detect | sweep

Configuration comes from a JSON file (sections: model, protocol, scan,
mode, sweep, output) with flags overriding file values and file values
overriding defaults.  Unknown sections or keys are rejected.  Every run
prints a structured-record summary that embeds the package version and a
hash of the resolved configuration; table data goes to files under --out
when given, otherwise to stdout.  Outputs contain no timestamps, so a
fixed configuration and seed reproduce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .analysis import classify, default_phi_grid, fit_fringe, robustness_sweep
from .errors import ChernscopeError
from .interferometer import (
    evolve_adiabatic,
    initial_state,
    landau_zener_estimate,
    run_fringe,
)
from .lattice import ModelParams, band_energies, high_symmetry_path
from .protocol import plan_site, validate_plan
from .topology import berry_curvature_fhs, chern_from_zak, chern_number

__all__ = ["main", "RunConfig", "ConfigError"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
ERROR_EXIT_CODES = {
    "gapless-point": 4,
    "not-quantized": 5,
    "malformed-plan": 6,
    "no-closure": 7,
    "step-too-large": 8,
    "degenerate-scan": 9,
    "not-reciprocal": 10,
    "plaquette-saturated": 11,
}

DEFAULTS = {
    "model": {"t": 1.0, "tprime": 0.1, "phi": math.pi / 2},
    "protocol": {
        "site": "I",
        "leg_time": 200.0,
        "echo": True,
        "zeeman_rate": 0.0,
        "samples_per_leg": 2000,
    },
    "scan": {"phi_mw_points": 24},
    "mode": {"mode": "adiabatic", "dt": None},
    "sweep": {
        "error_radii": [0.0, 0.001, 0.002, 0.003],
        "trials": 100,
        "seed": 0,
        "samples_per_leg": 1200,
    },
    "output": {"out": None, "format": "structured-record"},
}

# Each config key takes its default's type, and these two also take null.
# A number is stored as a float, so a file's 200 hashes like --leg-time 200.
_NULLABLE_KEYS = {("mode", "dt"): float, ("output", "out"): str}
_TYPE_NAMES = {
    float: "a number", int: "an integer", bool: "true or false", str: "a string",
    list: "a list of numbers",
}


class ConfigError(ValueError):
    pass


def parse_phi(text: str) -> float:
    """Accept plain floats and pi fractions like 'pi/2' or '-3pi/4'."""
    s = text.strip().lower().replace(" ", "")
    try:
        return float(s)
    except ValueError:
        pass
    m = re.fullmatch(r"([+-]?\d*\.?\d*)\*?pi(?:/([+-]?\d*\.?\d+))?", s)
    if m is None:
        raise ConfigError(f"cannot parse angle {text!r}")
    num = m.group(1)
    coef = {"": 1.0, "+": 1.0, "-": -1.0}.get(num)
    if coef is None:
        coef = float(num)
    value = coef * math.pi
    if m.group(2):
        value /= float(m.group(2))
    return value


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration, one dict per section."""

    model: dict
    protocol: dict
    scan: dict
    mode: dict
    sweep: dict
    output: dict

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        merged = copy.deepcopy(DEFAULTS)
        for section, table in data.items():
            if section not in merged:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(table, dict):
                raise ConfigError(f"config section {section!r} must be a table")
            for key, value in table.items():
                if key not in merged[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in config section {section!r}"
                    )
                merged[section][key] = value
        cfg = cls(**merged)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {
            "model": dict(self.model),
            "protocol": dict(self.protocol),
            "scan": dict(self.scan),
            "mode": dict(self.mode),
            "sweep": dict(self.sweep),
            "output": dict(self.output),
        }

    def validate(self) -> None:
        """Type-check every key, storing numbers as floats, then check the
        choices; any failure raises ConfigError."""
        for section, defaults in DEFAULTS.items():
            table = getattr(self, section)
            for key, default in defaults.items():
                kind = _NULLABLE_KEYS.get((section, key))
                if kind is None or table[key] is not None:
                    kind = kind or type(default)
                    table[key] = _typed(f"{section}.{key}", table[key], kind)
        if self.protocol["site"] not in ("I", "II"):
            raise ConfigError("protocol.site must be 'I' or 'II'")
        if self.mode["mode"] not in ("adiabatic", "tdse"):
            raise ConfigError("mode.mode must be 'adiabatic' or 'tdse'")
        if self.output["format"] not in ("dsv", "structured-record"):
            raise ConfigError("output.format must be 'dsv' or 'structured-record'")

    def model_params(self) -> ModelParams:
        return ModelParams(
            t=self.model["t"], tp=self.model["tprime"], phi=self.model["phi"]
        )

    def config_hash(self, command_settings: Optional[dict] = None) -> str:
        """Hash of every section but output, plus the subcommand's own
        settings (such as --grid-n) when it has any."""
        payload = {
            k: v for k, v in sorted(self.to_dict().items()) if k != "output"
        }
        if command_settings:
            payload["command"] = command_settings
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _typed(name: str, value, kind: type):
    """``value`` checked to be of the config type ``kind``, numbers returned
    as floats; a list holds numbers.  A bool is no number here."""
    if kind is list and isinstance(value, (list, tuple)):
        return [_typed(f"{name}[{i}]", v, float) for i, v in enumerate(value)]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    try:
        return float(value) if kind is float else value
    except OverflowError:
        raise ConfigError(f"{name} = {value} is too large for a float") from None


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a table of sections")
    return data


_FLAG_DESTINATIONS = {
    "t": ("model", "t"),
    "tprime": ("model", "tprime"),
    "phi": ("model", "phi"),
    "site": ("protocol", "site"),
    "leg_time": ("protocol", "leg_time"),
    "echo": ("protocol", "echo"),
    "zeeman_rate": ("protocol", "zeeman_rate"),
    "samples_per_leg": ("protocol", "samples_per_leg"),
    "mode": ("mode", "mode"),
    "dt": ("mode", "dt"),
    "phi_mw_points": ("scan", "phi_mw_points"),
    "seed": ("sweep", "seed"),
    "trials": ("sweep", "trials"),
    "out": ("output", "out"),
    "format": ("output", "format"),
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """File values over defaults, then flags over both.

    ``--samples-per-leg`` sets ``sweep.samples_per_leg`` under ``sweep``, the
    sampling that subcommand runs, and ``protocol.samples_per_leg`` otherwise.
    """
    data = _load_config_file(args.config) if args.config else {}
    base = RunConfig.from_dict(data).to_dict()
    destinations = dict(_FLAG_DESTINATIONS)
    if args.command == "sweep":
        destinations["samples_per_leg"] = ("sweep", "samples_per_leg")
    for flag, (section, key) in destinations.items():
        value = getattr(args, flag, None)
        if value is not None:
            base[section][key] = value
    cfg = RunConfig(**base)
    cfg.validate()
    return cfg


def format_value(value, name: str) -> str:
    """``value`` as printed; an array prints as a parenthesized tuple.  A NaN
    or infinite number raises ValueError naming the field ``name``."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {float(value)}")
        return "%.12g" % (float(value) + 0.0)
    if isinstance(value, np.ndarray):
        return "(%s)" % ", ".join(format_value(float(x), name) for x in value)
    return str(value)


def record_lines(pairs) -> list[str]:
    return [f"{key}: {format_value(value, key)}" for key, value in pairs]


def table_lines(headers, rows, fmt: str, name: str) -> list[str]:
    """The rows of table ``name``, each value named ``name.header`` for
    ``format_value``."""
    names = [f"{name}.{h}" for h in headers]
    if fmt == "dsv":
        lines = ["\t".join(headers)]
        for row in rows:
            lines.append("\t".join(map(format_value, row, names)))
        return lines
    lines = []
    for row in rows:
        lines.extend(map("{}: {}".format, headers, map(format_value, row, names)))
        lines.append("")
    return lines


def cmd_bands(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    pts, labels = high_symmetry_path(p.geometry, args.points_per_segment)
    e_lower, e_upper = band_energies(pts, p)
    rows = [
        (i, pts[i, 0], pts[i, 1], e_lower[i], e_upper[i]) for i in range(len(pts))
    ]
    marks = " ".join(f"{label}:{idx}" for idx, label in labels)
    summary = [("points", len(pts)), ("segment-labels", marks)]
    return summary, {"bands": (("index", "kx", "ky", "e_lower", "e_upper"), rows)}


def cmd_curvature(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    field = berry_curvature_fhs(p, args.grid_n)
    rows = [
        (i, j, field.plaquette_flux[i, j])
        for i in range(field.n)
        for j in range(field.n)
    ]
    summary = [
        ("grid-n", field.n),
        ("total-flux", field.total),
        ("chern-estimate", field.chern_estimate),
    ]
    return summary, {"curvature": (("i", "j", "flux"), rows)}


def cmd_chern(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    result = chern_number(p, n=args.grid_n)
    summary = [
        ("chern", result.value),
        ("residual", result.residual),
        ("grid-n", result.n),
    ]
    return summary, {}


def _plan(cfg: RunConfig, p: ModelParams, site: str):
    return plan_site(
        site,
        p,
        leg_time=cfg.protocol["leg_time"],
        with_echo=cfg.protocol["echo"],
        samples_per_leg=cfg.protocol["samples_per_leg"],
    )


def cmd_zak(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    phases = {}
    totals = {}
    for site in ("I", "II"):
        _, ledger = evolve_adiabatic(
            initial_state(), _plan(cfg, p, site), p,
            zeeman_rate=cfg.protocol["zeeman_rate"],
        )
        phases[site] = ledger.pancharatnam_phase
        totals[site] = ledger.total
    summary = [
        ("phi-zak-i", phases["I"]),
        ("phi-zak-ii", phases["II"]),
        ("total-i", totals["I"]),
        ("total-ii", totals["II"]),
        ("c-from-zak", chern_from_zak(phases["I"], phases["II"])),
    ]
    return summary, {}


def cmd_protocol(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    plan = _plan(cfg, p, cfg.protocol["site"])
    diag = validate_plan(plan, p)
    rows = []
    for i, step in enumerate(plan.steps):
        force = step.force
        rows.append(
            (
                i,
                step.kind,
                step.duration,
                force.lattice_force[0] if force else None,
                force.lattice_force[1] if force else None,
                force.gradient_force[0] if force else None,
                force.gradient_force[1] if force else None,
                step.gradient_direction_flip,
                step.phi_mw,
            )
        )
    leg_force = next(s.force for s in plan.steps if s.kind == "force_leg")
    summary = [
        ("site", plan.site),
        ("with-echo", plan.with_echo),
        ("start", plan.start),
        ("endpoint-down", plan.endpoint_down),
        ("endpoint-up", plan.endpoint_up),
        ("force-ratio", leg_force.magnitude_ratio),
        ("xi", diag.xi),
        ("adiabatic-warning", diag.adiabatic_warning),
        ("endpoints-reciprocal", diag.endpoints_reciprocal),
        ("landau-zener-estimate", landau_zener_estimate(p, plan)),
    ]
    headers = (
        "index", "kind", "duration", "lattice_fx", "lattice_fy",
        "gradient_fx", "gradient_fy", "gradient_flip", "phi_mw",
    )
    return summary, {"protocol": (headers, rows)}


def _fringe_scan(cfg: RunConfig, p: ModelParams, site: str):
    return run_fringe(
        p,
        _plan(cfg, p, site),
        default_phi_grid(cfg.scan["phi_mw_points"]),
        mode=cfg.mode["mode"],
        zeeman_rate=cfg.protocol["zeeman_rate"],
        dt=cfg.mode["dt"],
    )


def cmd_fringe(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    site = cfg.protocol["site"]
    scan = _fringe_scan(cfg, p, site)
    fit = fit_fringe(scan)
    summary = [
        ("site", site),
        ("mode", scan.mode),
        ("fitted-phi-zak", fit.phi_zak),
        ("contrast", fit.contrast),
        ("rms-residual", fit.rms_residual),
    ]
    if scan.ledger is not None:
        summary.extend(
            [
                ("geometric", scan.ledger.geometric),
                ("dynamic", scan.ledger.dynamic),
                ("zeeman", scan.ledger.zeeman),
                ("total", scan.ledger.total),
                ("pancharatnam-phase", scan.ledger.pancharatnam_phase),
            ]
        )
    if scan.diagnostics is not None:
        d = scan.diagnostics
        summary.extend(
            [
                ("dt", d.dt),
                ("n-steps", d.n_steps),
                ("norm-drift", d.norm_drift),
                ("leakage-down", d.leakage_down),
                ("leakage-up", d.leakage_up),
                ("xi", d.xi),
                ("extracted-phase", d.extracted_phase),
            ]
        )
    rows = list(zip(scan.phi_mw_values, scan.n_down, scan.n_up))
    return summary, {"fringe": (("phi_mw", "n_down", "n_up"), rows)}


def cmd_detect(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    fits = {}
    for site in ("I", "II"):
        fits[site] = fit_fringe(_fringe_scan(cfg, p, site))
    oracle = chern_number(p)
    report = classify(fits["I"], fits["II"], oracle_c=oracle.value)
    summary = [
        ("phi-zak-i", report.phi_zak_i),
        ("phi-zak-ii", report.phi_zak_ii),
        ("contrast-i", fits["I"].contrast),
        ("contrast-ii", fits["II"].contrast),
        ("c-estimate", report.c_estimate),
        ("c-classified", report.classified_label),
        ("pattern-i", report.pattern_i),
        ("pattern-ii", report.pattern_ii),
        ("oracle-c", report.oracle_c),
        ("agrees-with-oracle", report.c_classified == report.oracle_c),
    ]
    return summary, {}


def cmd_sweep(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    table = robustness_sweep(
        p,
        cfg.sweep["error_radii"],
        trials=cfg.sweep["trials"],
        seed=cfg.sweep["seed"],
        leg_time=cfg.protocol["leg_time"],
        with_echo=cfg.protocol["echo"],
        samples_per_leg=cfg.sweep["samples_per_leg"],
        phi_mw_points=cfg.scan["phi_mw_points"],
        zeeman_rate=cfg.protocol["zeeman_rate"],
    )
    summary = [
        ("seed", cfg.sweep["seed"]),
        ("trials-per-radius", cfg.sweep["trials"]),
        ("nominal-phi-zak-i", table.nominal.phi_zak_i),
        ("nominal-phi-zak-ii", table.nominal.phi_zak_ii),
        ("nominal-c-estimate", table.nominal.c_estimate),
        ("nominal-classification", table.nominal.classified_label),
    ]
    radius_rows = [
        (
            r.radius, r.trials, r.success_rate, r.max_zak_error,
            r.mean_zak_error, r.n_ambiguous, r.mean_n_up_zero,
            r.mean_n_up_nominal,
        )
        for r in table.rows
    ]
    trial_rows = [
        (
            t.radius, t.index, t.zak_error,
            "Ambiguous" if t.c_classified is None else t.c_classified,
            t.success, t.n_up_zero_i, t.n_up_zero_ii,
            t.n_up_nominal_i, t.n_up_nominal_ii,
        )
        for t in table.trials
    ]
    tables = {
        "sweep": (
            (
                "radius", "trials", "success_rate", "max_zak_error",
                "mean_zak_error", "n_ambiguous", "mean_n_up_zero",
                "mean_n_up_nominal",
            ),
            radius_rows,
        ),
        "sweep-trials": (
            (
                "radius", "trial", "zak_error", "classified", "success",
                "n_up_zero_i", "n_up_zero_ii", "n_up_nominal_i",
                "n_up_nominal_ii",
            ),
            trial_rows,
        ),
    }
    return summary, tables


COMMANDS = {
    "bands": cmd_bands,
    "curvature": cmd_curvature,
    "chern": cmd_chern,
    "zak": cmd_zak,
    "protocol": cmd_protocol,
    "fringe": cmd_fringe,
    "detect": cmd_detect,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--print-config", action="store_true",
                        help="print the resolved configuration and exit")
    common.add_argument("--t", type=float, help="nearest-neighbor hopping")
    common.add_argument("--tprime", type=float, help="next-nearest hopping")
    common.add_argument("--phi", type=parse_phi,
                        help="flux phase (accepts forms like pi/2)")
    common.add_argument("--site", choices=("I", "II"))
    common.add_argument("--leg-time", dest="leg_time", type=float)
    common.add_argument("--echo", dest="echo",
                        action=argparse.BooleanOptionalAction, default=None)
    common.add_argument("--zeeman-rate", dest="zeeman_rate", type=float)
    common.add_argument("--samples-per-leg", dest="samples_per_leg", type=int)
    common.add_argument("--mode", choices=("adiabatic", "tdse"))
    common.add_argument("--dt", type=float)
    common.add_argument("--phi-mw-points", dest="phi_mw_points", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--trials", type=int)
    common.add_argument("--out", help="directory for data files")
    common.add_argument("--format", choices=("dsv", "structured-record"))

    parser = argparse.ArgumentParser(
        prog="chernscope",
        description="Haldane-model topology oracles and interferometric "
                    "Chern-number detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name in ("curvature", "chern"):
            p.add_argument("--grid-n", dest="grid_n", type=int, default=60)
        if name == "bands":
            p.add_argument("--points-per-segment", dest="points_per_segment",
                           type=int, default=60)
    return parser


def _fp_refusal(kind: str) -> FloatingPointError:
    return FloatingPointError(
        f"floating-point {kind} encountered: the inputs drive the computation "
        f"out of float range"
    )


def _run(cfg: RunConfig, args) -> tuple[list, dict, Optional[str]]:
    """The command's summary and tables, and the kind of the first numpy
    floating-point error it hit (or None), recorded instead of printed as a
    warning.

    A ValueError or package error raised after such an error is replaced by
    FloatingPointError naming it, its cause.
    """
    first = []  # at most one kind: later errors are not kept
    with np.errstate(
        over="call", invalid="call", divide="call",
        call=lambda kind, flag: first or first.append(kind),
    ):
        try:
            summary, tables = COMMANDS[args.command](cfg, args)
        except (ValueError, ChernscopeError):
            if not first:
                raise
            raise _fp_refusal(first[0]) from None
    return summary, tables, first[0] if first else None


def _emit(
    cfg: RunConfig, args, summary, tables, stdout, fp_error: Optional[str]
) -> None:
    """Format the record and every table, then print or write them all, so a
    non-finite result raises ValueError before anything is output.  A run
    whose values are all finite but that hit a floating-point error
    (``fp_error``) raises FloatingPointError instead of printing them."""
    fmt = cfg.output["format"]
    settings = {
        key: getattr(args, key)
        for key in ("grid_n", "points_per_segment")
        if hasattr(args, key)
    }
    header = [("command", args.command), ("version", __version__),
              ("config-hash", cfg.config_hash(settings))]
    record = record_lines(header + summary)
    formatted = {
        name: table_lines(headers, rows, fmt, name)
        for name, (headers, rows) in tables.items()
    }
    if fp_error is not None:
        raise _fp_refusal(fp_error)
    print("\n".join(record), file=stdout)
    out_dir = cfg.output["out"]
    ext = "dsv" if fmt == "dsv" else "rec"
    for name, lines in formatted.items():
        if out_dir:
            path = Path(out_dir)
            path.mkdir(parents=True, exist_ok=True)
            (path / f"{name}.{ext}").write_text("\n".join(lines) + "\n")
        else:
            print(f"\n## table: {name}", file=stdout)
            print("\n".join(lines), file=stdout)


def main(argv: Optional[list] = None, stdout=None, stderr=None) -> int:
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = resolve_config(args)
        if args.print_config:
            print(json.dumps(cfg.to_dict(), sort_keys=True, indent=2),
                  file=stdout)
            return EXIT_OK
        summary, tables, fp_error = _run(cfg, args)
        _emit(cfg, args, summary, tables, stdout, fp_error)
        return EXIT_OK
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the pipe; keep the
        # interpreter-shutdown flush from raising a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except ConfigError as exc:
        print("\n".join(record_lines(
            [("error", "config"), ("message", str(exc))])), file=stderr)
        return EXIT_CONFIG
    except ChernscopeError as exc:
        code = ERROR_EXIT_CODES.get(exc.code, EXIT_ERROR)
        print("\n".join(record_lines(
            [("error", exc.code), ("message", str(exc))])), file=stderr)
        return code
    except (FloatingPointError, ValueError) as exc:
        print("\n".join(record_lines(
            [("error", "invalid-value"), ("message", str(exc))])), file=stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
