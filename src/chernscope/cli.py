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
import functools
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
from .analysis import (
    _read_and_fit,
    classify,
    default_phi_grid,
    fit_fringe,
    robustness_sweep,
)
from .errors import ChernscopeError
from .interferometer import (
    evolve_adiabatic_batch,
    evolve_tdse,
    initial_state,
    landau_zener_estimate,
    run_fringe,
)
from .lattice import ModelParams, band_energies, high_symmetry_path
from .protocol import SITES, plan_site, validate_plan
from .topology import (
    _require_gapped,
    berry_curvature_fhs,
    chern_from_zak,
    chern_number,
)

__all__ = ["main", "RunConfig", "ConfigError"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
ERROR_EXIT_CODES = {
    "gapless-point": 4,
    "not-quantized": 5,
    "no-closure": 7,
    "step-too-large": 8,
    "degenerate-scan": 9,
    "not-reciprocal": 10,
    "plaquette-saturated": 11,
}

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


# One row per config setting: (section, key, default, flag, argparse keywords
# of the flag, whose attribute is the key), in --help order.  A key takes its
# default's type, or its flag's when the default is null (then also null), and
# its row's choices.  A row without a flag is set only from a config file, but
# --samples-per-leg sets sweep.samples_per_leg under sweep (resolve_config).
SETTINGS = (
    ("model", "t", 1.0, "--t", {"type": float, "help": "nearest-neighbor hopping"}),
    ("model", "tprime", 0.1, "--tprime",
     {"type": float, "help": "next-nearest hopping"}),
    ("model", "phi", math.pi / 2, "--phi",
     {"type": parse_phi, "help": "flux phase (accepts forms like pi/2)"}),
    ("protocol", "site", "I", "--site", {"choices": SITES}),
    ("protocol", "leg_time", 200.0, "--leg-time", {"type": float}),
    ("protocol", "echo", True, "--echo", {"action": argparse.BooleanOptionalAction}),
    ("protocol", "zeeman_rate", 0.0, "--zeeman-rate", {"type": float}),
    ("protocol", "samples_per_leg", 2000, "--samples-per-leg", {"type": int}),
    ("mode", "mode", "adiabatic", "--mode", {"choices": ("adiabatic", "tdse")}),
    ("mode", "dt", None, "--dt", {"type": float}),
    ("scan", "phi_mw_points", 24, "--phi-mw-points", {"type": int}),
    ("sweep", "seed", 0, "--seed", {"type": int}),
    ("sweep", "trials", 100, "--trials", {"type": int}),
    ("sweep", "error_radii", [0.0, 0.001, 0.002, 0.003], None, {}),
    ("sweep", "samples_per_leg", 1200, None, {}),
    ("output", "out", None, "--out", {"type": str, "help": "directory for data files"}),
    ("output", "format", "structured-record", "--format",
     {"choices": ("dsv", "structured-record")}),
)

DEFAULTS: dict = {}
for _section, _key, _default, _, _ in SETTINGS:
    DEFAULTS.setdefault(_section, {})[_key] = _default

# Settings of single subcommands, (key, flag, default, subcommands); they
# enter the config hash as the command's own settings.
_COMMAND_SETTINGS = (
    ("grid_n", "--grid-n", 60, ("curvature", "chern")),
    ("points_per_segment", "--points-per-segment", 60, ("bands",)),
)


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
        return {section: dict(getattr(self, section)) for section in DEFAULTS}

    def validate(self) -> None:
        """Type-check every key, storing numbers as floats, then check the
        choices; any failure raises ConfigError."""
        for section, key, default, _, options in SETTINGS:
            table = getattr(self, section)
            if default is not None or table[key] is not None:
                kind = options["type"] if default is None else type(default)
                table[key] = _typed(f"{section}.{key}", table[key], kind)
        for section, key, _, _, options in SETTINGS:
            choices = options.get("choices")
            if choices and getattr(self, section)[key] not in choices:
                raise ConfigError(f"{section}.{key} must be "
                                  + " or ".join(map(repr, choices)))

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


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """File values over defaults, then flags over both."""
    data = _load_config_file(args.config) if args.config else {}
    base = RunConfig.from_dict(data).to_dict()
    for section, key, _, flag, _ in SETTINGS:
        value = getattr(args, key) if flag else None
        if value is not None:
            # Under sweep, --samples-per-leg sets the sampling sweep runs.
            if flag == "--samples-per-leg" and args.command == "sweep":
                section = "sweep"
            base[section][key] = value
    cfg = RunConfig(**base)
    cfg.validate()
    return cfg


# How every finite number prints, scalar or column (after adding 0.0, so
# that -0 prints as 0).
_FLOAT_FORMAT = "%.12g"


def format_value(value, name: str) -> str:
    """``value`` as printed; an array prints as a parenthesized tuple.  A NaN
    or infinite number raises ValueError naming the field ``name``."""
    if value is None:
        return "none"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {float(value)}")
        return _FLOAT_FORMAT % (float(value) + 0.0)
    if isinstance(value, np.ndarray):
        return "(%s)" % ", ".join(format_value(float(x), name) for x in value)
    return str(value)


def record_lines(pairs) -> list[str]:
    return [f"{key}: {format_value(value, key)}" for key, value in pairs]


def format_column(values, name: str) -> tuple[str, list]:
    """``(spec, items)``, with ``spec % item`` as ``format_value`` prints each
    value: ``"%.12g"`` and the values plus 0.0 for a finite float array,
    ``"%d"`` and the values for an integer array, and else (a NaN or infinity
    included) ``"%s"`` and ``format_value``'s strings, so that it raises."""
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind == "f" and np.isfinite(values).all():
        return _FLOAT_FORMAT, (values + 0.0).tolist()
    if kind in ("i", "u"):
        return "%d", values.tolist()
    return "%s", [format_value(value, name) for value in values]


# Rows formatted at a time, one %-format call per block, so that only one
# block's values are alive as separate objects: an in-process ``curvature
# --grid-n 400`` peaks at 161 B per grid point (tracemalloc), the kernel's.
_BLOCK_ROWS = 4096


def table_lines(headers, columns, fmt: str, name: str) -> list[str]:
    """The text of table ``name``, one sequence of ``columns`` per header,
    as blocks of lines: joined by newlines they give the table.  Each value
    is named ``name.header``; a non-finite one raises ValueError naming the
    first in row-major order."""
    names = [f"{name}.{h}" for h in headers]
    blocks = ["\t".join(headers)] if fmt == "dsv" else []
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        part = [column[start:start + _BLOCK_ROWS] for column in columns]
        try:
            specs, items = zip(*map(format_column, part, names))
        except ValueError:
            # Cell by cell, so the error names the row-major first bad cell.
            for row in zip(*part):
                list(map(format_value, row, names))
            raise
        if fmt == "dsv":
            template = "\t".join(specs)
        else:
            # A record row is its "header: value" lines and an empty line.
            template = "".join(f"{h.replace('%', '%%')}: {spec}\n"
                               for h, spec in zip(headers, specs))
        rows, width = len(items[0]), len(specs)
        cells = [None] * (rows * width)
        for c, column in enumerate(items):
            cells[c::width] = column
        blocks.append("\n".join([template] * rows) % tuple(cells))
    return blocks


def cmd_bands(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    pts, labels = high_symmetry_path(args.points_per_segment)
    e_lower, e_upper = band_energies(pts, p)
    columns = (np.arange(len(pts)), pts[:, 0], pts[:, 1], e_lower, e_upper)
    marks = " ".join(f"{label}:{idx}" for idx, label in labels)
    summary = [("points", len(pts)), ("segment-labels", marks)]
    return summary, {"bands": (("index", "kx", "ky", "e_lower", "e_upper"), columns)}


def cmd_curvature(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    field = berry_curvature_fhs(p, args.grid_n)
    n = field.n
    columns = (
        np.repeat(np.arange(n), n), np.tile(np.arange(n), n),
        field.plaquette_flux.ravel(),
    )
    summary = [
        ("grid-n", field.n),
        ("total-flux", field.total),
        ("chern-estimate", field.chern_estimate),
    ]
    return summary, {"curvature": (("i", "j", "flux"), columns)}


def cmd_chern(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    result = chern_number(p, n=args.grid_n)
    summary = [
        ("chern", result.value),
        ("residual", result.residual),
        ("grid-n", result.n),
        ("margin", result.margin),
    ]
    return summary, {}


def _plan(cfg: RunConfig, site: str):
    return plan_site(
        site,
        leg_time=cfg.protocol["leg_time"],
        with_echo=cfg.protocol["echo"],
        samples_per_leg=cfg.protocol["samples_per_leg"],
    )


def cmd_zak(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    _require_gapped(p)  # no Chern label from a gapless model
    plans = [_plan(cfg, site) for site in SITES]
    (_, ledger_i), (_, ledger_ii) = evolve_adiabatic_batch(
        plans, p, cfg.protocol["zeeman_rate"]
    )
    phase_i, phase_ii = ledger_i.pancharatnam_phase, ledger_ii.pancharatnam_phase
    summary = [
        ("phi-zak-i", phase_i),
        ("phi-zak-ii", phase_ii),
        ("total-i", ledger_i.total),
        ("total-ii", ledger_ii.total),
        ("c-from-zak", chern_from_zak(phase_i, phase_ii)),
    ]
    return summary, {}


def cmd_protocol(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    plan = _plan(cfg, cfg.protocol["site"])
    diag = validate_plan(plan, p)
    steps = plan.steps
    forces = [
        [getattr(s.force, name)[axis] if s.force else None for s in steps]
        for name in ("lattice_force", "gradient_force") for axis in (0, 1)
    ]
    columns = (
        list(range(len(steps))),
        [s.kind for s in steps],
        [s.duration for s in steps],
        *forces,
        [s.gradient_direction_flip for s in steps],
        [s.phi_mw for s in steps],
    )
    leg_force = next(s.force for s in steps if s.kind == "force_leg")
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
    return summary, {"protocol": (headers, columns)}


def cmd_fringe(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    site = cfg.protocol["site"]
    scan = run_fringe(
        p,
        _plan(cfg, site),
        default_phi_grid(cfg.scan["phi_mw_points"]),
        mode=cfg.mode["mode"],
        zeeman_rate=cfg.protocol["zeeman_rate"],
        dt=cfg.mode["dt"],
    )
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
    columns = (scan.phi_mw_values, scan.n_down, scan.n_up)
    return summary, {"fringe": (("phi_mw", "n_down", "n_up"), columns)}


def cmd_detect(cfg: RunConfig, args) -> tuple[list, dict]:
    """Both sites' fringes from one evolution pass (one ``evolve_tdse`` per
    plan in tdse mode), one readout pulse and one fit, each record equal to
    the site's ``run_fringe`` and ``fit_fringe``.  The oracle, gap search
    included, runs before any evolution."""
    p = cfg.model_params()
    grid = default_phi_grid(cfg.scan["phi_mw_points"])
    plans = [_plan(cfg, site) for site in SITES]
    oracle = chern_number(p)
    zeeman_rate = cfg.protocol["zeeman_rate"]
    if cfg.mode["mode"] == "tdse":
        ends = [
            evolve_tdse(initial_state(), plan, p, cfg.mode["dt"], zeeman_rate)[0]
            for plan in plans
        ]
    else:
        ends = [end for end, _ in evolve_adiabatic_batch(plans, p, zeeman_rate)]
    fit_i, fit_ii = _read_and_fit(ends, np.stack([grid] * len(SITES)), len(grid))[0]
    report = classify(fit_i, fit_ii, oracle_c=oracle.value)
    summary = [
        ("phi-zak-i", report.phi_zak_i),
        ("phi-zak-ii", report.phi_zak_ii),
        ("contrast-i", fit_i.contrast),
        ("contrast-ii", fit_ii.contrast),
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
    radius_headers = (
        "radius", "trials", "success_rate", "max_zak_error", "mean_zak_error",
        "n_ambiguous", "mean_n_up_zero", "mean_n_up_nominal",
    )
    trial_headers = (
        "radius", "trial", "zak_error", "classified", "success",
        "n_up_zero_i", "n_up_zero_ii", "n_up_nominal_i", "n_up_nominal_ii",
    )
    # A radius row's fields are named as its headers; a trial's are too,
    # but for its index and its classification, whose None prints Ambiguous.
    trial_fields = ("radius", "index", "zak_error", "c_classified") + trial_headers[4:]
    trial_columns = [[getattr(t, f) for t in table.trials] for f in trial_fields]
    trial_columns[3] = ["Ambiguous" if c is None else c for c in trial_columns[3]]
    tables = {
        "sweep": (
            radius_headers,
            [[getattr(r, h) for r in table.rows] for h in radius_headers],
        ),
        "sweep-trials": (trial_headers, trial_columns),
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


# Built once per process: parse_args only reads it, into a fresh Namespace.
# No flag default is mutable: SETTINGS rows set none, _COMMAND_SETTINGS ints.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--print-config", action="store_true",
                        help="print the resolved configuration and exit")
    for _, _, _, flag, options in SETTINGS:
        if flag:
            common.add_argument(flag, **options)

    parser = argparse.ArgumentParser(
        prog="chernscope",
        description="Haldane-model topology oracles and interferometric "
                    "Chern-number detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, parents=[common])
        for key, flag, default, commands in _COMMAND_SETTINGS:
            if name in commands:
                p.add_argument(flag, dest=key, type=int, default=default)
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
    """Format the record and every table, then write or print them all, so a
    non-finite result raises ValueError before anything is output.  A run
    whose values are all finite but that hit a floating-point error
    (``fp_error``) raises FloatingPointError instead of printing them.  The
    table files are written before the record is printed, and an output
    directory that cannot be made or written raises ConfigError naming it,
    with nothing printed."""
    fmt = cfg.output["format"]
    settings = {key: getattr(args, key) for key, _, _, commands
                in _COMMAND_SETTINGS if args.command in commands}
    header = [("command", args.command), ("version", __version__),
              ("config-hash", cfg.config_hash(settings))]
    record = record_lines(header + summary)
    formatted = {
        name: table_lines(headers, rows, fmt, name)
        for name, (headers, rows) in tables.items()
    }
    if fp_error is not None:
        raise _fp_refusal(fp_error)
    out_dir = cfg.output["out"]
    if out_dir and formatted:
        path = Path(out_dir)
        ext = "dsv" if fmt == "dsv" else "rec"
        try:
            path.mkdir(parents=True, exist_ok=True)
            for name, lines in formatted.items():
                (path / f"{name}.{ext}").write_text("\n".join(lines) + "\n")
        except OSError as exc:
            raise ConfigError(
                f"cannot write tables to output directory {out_dir}: {exc}"
            ) from exc
    print("\n".join(record), file=stdout)
    if not out_dir:
        for name, lines in formatted.items():
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
