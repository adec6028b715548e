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
import itertools
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .analysis import (
    TwoSiteReadout,
    default_phi_grid,
    fit_fringe,
    robustness_sweep,
)
from .errors import ChernscopeError
from .interferometer import (
    evolve_adiabatic,
    initial_state,
    landau_zener_estimate,
    run_fringe,
)
from .lattice import ModelParams, band_energies, high_symmetry_path
from .protocol import SITES, plans_from_config, validate_plan
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
        denominator = float(m.group(2))
        if denominator == 0.0:
            raise ConfigError(f"cannot parse angle {text!r}: zero denominator")
        value /= denominator
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


class RunConfig(NamedTuple):
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Besides malformed JSON: an integer over the int-to-str digit limit
        # (ValueError) and nesting deeper than the recursion limit.
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


# Table cells are rows of NUL-padded bytes, one (rows, width) uint8 matrix
# per column; the NULs are deleted once a block's text is assembled.  The
# lookup tables (_DigitTables) hold digit groups as integer words, so that
# one element gather places several bytes.
#
# A finite float x prints as "%.12g" would: with e = floor(log10 |x|),
# y = |x| fl(10^(11 - e)) is |x| 10^(11 - e) to within 2.3e-4 (two correctly
# rounded operations on a value below 1e12), so rint(y) is the correctly
# rounded 12-digit mantissa unless frac(y) lies within _TIE_GUARD of 1/2.
# Such a cell, and one whose |e| exceeds _EXP_LIMIT (subnormals, 1e+-300,
# where fl(10^(11 - e)) is no normal float), is formatted by format_value.
_TIE_GUARD = 1e-3
_EXP_LIMIT = 290
_GROUPS = np.array([[1e9], [1e6], [1e3], [1.0]])  # a mantissa's 3-digit groups
_FOLD_ROWS = 32  # rows of float cells ORed together in one step


class _DigitTables(NamedTuple):
    """Read-only lookup tables of the column formatters.

    Per exponent e the float path may reach (up to _EXP_LIMIT, one off from
    log10, then a carry), at index e + _EXP_LIMIT + 1: ``scales`` holds
    fl(10^(11 - e)), correctly rounded; ``heads`` the sign slot and prefix
    as a uint64 word (index 2 * index + negative); ``tails`` the suffix; and
    ``whole`` the digits before the point, printed even when zero.  Fixed
    notation holds -4 <= e < 12.

    A mantissa's digits are four uint64 words of three digits, digit j at
    byte 8 (j // 3) + 2 (j % 3), each followed by a slot for the point.
    Rows 0-999 of ``triples`` hold a group's digits, rows 1000-1999 the same
    with its trailing zeros as NULs (a group with no nonzero group after
    it); ``triple_digits`` counts their digits.  Column w + 13 point of
    ``fills`` is what a mantissa with w digits before the point shows beyond
    its stripped digits: a 0 in each integer slot (ORed onto a digit, it
    leaves the digit as it is), and the point after them.

    Rows 0-999 of ``int_triples`` hold a group's three digits and a NUL;
    1000-1999 the same with its leading zeros as NULs (a group with no
    nonzero group before it); 2000-2999 so too, but zero prints 0 (the last
    group).
    """

    scales: np.ndarray
    heads: np.ndarray
    tails: np.ndarray
    whole: np.ndarray
    triples: np.ndarray
    triple_digits: np.ndarray
    fills: np.ndarray
    int_triples: np.ndarray


@functools.cache
def _digit_tables() -> _DigitTables:
    """Built on the first table, so that importing the module stays cheap."""
    e = np.arange(-_EXP_LIMIT - 1, _EXP_LIMIT + 3)
    fixed = (-4 <= e) & (e < 12)
    lead = fixed & (e < 0)
    heads = np.zeros((len(e), 2, 8), np.uint8)
    heads[:, 1, 0] = ord("-")
    heads[lead, :, 1:3] = np.frombuffer(b"0.", np.uint8)
    heads[:, :, 3:6] = np.where(lead[:, None] & (e[:, None] < [-1, -2, -3]),
                                ord("0"), 0)[:, None]
    digits = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    tails = np.zeros((len(e), 8), np.uint8)
    tails[:, :2] = np.where(e[:, None] < 0, [ord("e"), ord("-")], [ord("e"), ord("+")])
    tails[:, 2:5] = digits[abs(e)] * (abs(e)[:, None] >= [100, 0, 0])
    tails[fixed] = 0
    nonzero = digits != ord("0")
    trailing = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    leading = np.logical_or.accumulate(nonzero, axis=1)
    triples = np.zeros((2, 1000, 8), np.uint8)
    triples[:, :, 0:6:2] = digits * np.array([np.ones_like(trailing), trailing])
    int_triples = np.zeros((3, 1000, 4), np.uint8)
    int_triples[:, :, :3] = digits * np.array(
        [np.ones_like(leading), leading, leading | [False, False, True]])
    slots = [8 * (j // 3) + 2 * (j % 3) for j in range(12)]
    fills = np.zeros((2, 13, 32), np.uint8)
    for whole in range(13):
        fills[:, whole, slots[:whole]] = ord("0")
        if 0 < whole:
            fills[1, whole, slots[whole - 1] + 1] = ord(".")
    tables = _DigitTables(
        scales=np.array([float(f"1e{11 - k}") for k in e.tolist()]),
        heads=heads.view(np.uint64).ravel(),
        tails=tails.view(np.uint64).ravel(),
        whole=np.where(fixed, np.maximum(e + 1, 0), 1),
        triples=triples.view(np.uint64).ravel(),
        triple_digits=np.concatenate([np.full(1000, 3), trailing.sum(axis=1)]
                                     ).astype(np.uint8),
        fills=np.ascontiguousarray(fills.view(np.uint64).reshape(26, 4).T),
        int_triples=int_triples.view(np.uint32).ravel(),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The finite float64 values ``x`` as format_value prints them, one
    NUL-padded row each: sign and prefix, digits and point slots, suffix."""
    t = _digit_tables()
    n = len(x)
    a = np.abs(x)
    zero = a == 0
    a[zero] = 1.0  # printed as 1, then its digit is made 0
    e = np.floor(np.log10(a))
    redo = np.abs(e) > _EXP_LIMIT
    np.minimum(np.maximum(e, -_EXP_LIMIT, out=e), _EXP_LIMIT, out=e)
    index = (e + (_EXP_LIMIT + 1)).astype(np.intp)
    y = a * t.scales[index]
    index += y >= 1e12  # log10 is off by one next to a power of ten
    index -= y < 1e11
    y = a * t.scales[index]
    mantissa = np.rint(y)
    redo |= np.abs(y - np.floor(y) - 0.5) < _TIE_GUARD
    del a, e, y  # freed early, as is each group's gather below, to lower the peak
    carry = mantissa >= 1e12
    mantissa[carry] = 1e11
    index += carry
    # The groups, most significant first; each quotient is exact, since the
    # mantissa is an integer below 2^40.
    rows = np.floor(mantissa / _GROUPS).astype(np.intp)
    rows[1:] -= 1000 * rows[:-1]
    # A group is stripped when every group after it is zero.
    stripped = rows[1:] == 0
    stripped[1] &= stripped[2]
    stripped[0] &= stripped[1]
    np.add(rows[:-1], 1000, out=rows[:-1], where=stripped)
    rows[-1] += 1000
    whole = t.whole[index]
    fill = whole + 13 * (t.triple_digits[rows].sum(axis=0) > whole)
    redone = np.flatnonzero(redo)
    # Six words a row, and NUL rows up to a whole number of folds.
    cells = np.empty((-(-n // _FOLD_ROWS) * _FOLD_ROWS, 6), np.uint64)
    cells[:n, 0] = t.heads[2 * index + (x < 0)]
    for group in range(4):
        np.bitwise_or(t.triples[rows[group]], t.fills[group][fill],
                      out=cells[:n, 1 + group])
    cells[:n, 5] = t.tails[index]
    cells[n:] = 0
    cells[redone] = 0  # format_value writes these rows
    # The bytes of each word ORed over the rows, first across folds, so
    # that each step runs along a row of 6 * _FOLD_ROWS words.  A zero's
    # digit overwrites the 1 it was gathered as, so the OR holds it.
    used = np.bitwise_or.reduce(cells.reshape(-1, 6 * _FOLD_ROWS), axis=0)
    used = np.bitwise_or.reduce(used.reshape(_FOLD_ROWS, 6), axis=0)
    used = used.view(np.uint8) != 0
    cells = cells[:n].view(np.uint8)
    cells[:, 8][zero] = ord("0")
    for row in redone:
        text = format_value(x[row], "").encode()
        cells[row, :len(text)] = np.frombuffer(text, np.uint8)
        used[:len(text)] = True
    # Without the byte columns that are NUL in every row, about half of
    # them, so that a wide table's block holds less.
    return cells[:, used]


def _int_cells(values: np.ndarray) -> np.ndarray:
    """The integers ``values`` (any int or uint dtype) in decimal, one
    NUL-padded row each: a sign slot if any value is negative, then words
    of three digits, the last without its NUL."""
    t = _digit_tables()
    n = len(values)
    negative = values < 0
    signed = int(negative.any())
    magnitude = values.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)  # exact for int64 min
    count = -(-len(str(magnitude.max(initial=0))) // 3)
    # The groups, most significant first, one division per group after it.
    rows = np.empty((count, n), np.intp)
    for group in range(count - 1, 0, -1):
        quotient = magnitude // np.uint64(1000)
        rows[group] = magnitude - quotient * np.uint64(1000)
        magnitude = quotient
    rows[0] = magnitude
    # Each group's block of int_triples rows: leading zeros drop while no
    # nonzero group comes before it, and the last group prints at least 0.
    variant = np.ones((count, n), np.intp)
    variant[1:] = np.logical_and.accumulate(rows[:-1] == 0)
    variant[-1] *= 2
    rows += 1000 * variant
    # Byte 3 of the word before the digits is the sign slot.
    words = np.empty((n, signed + count), np.uint32)
    words[:, signed:] = t.int_triples[rows.T]
    cells = words.view(np.uint8)[:, 3 * signed:-1]
    if signed:
        cells[:, 0] = np.where(negative, ord("-"), 0)
    return cells


def _text_cells(texts: list) -> np.ndarray:
    """The strings ``texts`` in UTF-8, one NUL-padded row each."""
    encoded = np.array([text.encode() for text in texts], dtype=np.bytes_)
    return encoded.view(np.uint8).reshape(len(texts), encoded.itemsize)


def column_cells(values, name: str) -> np.ndarray:
    """The cells of a column as format_value prints each value, one
    NUL-padded row of bytes each: finite float arrays (up to float64) and
    integer arrays in a fixed number of numpy calls, every other column
    (lists, bools, a NaN or infinity) through format_value, which raises
    naming ``name`` on the first non-finite value."""
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind == "f" and values.itemsize <= 8 and np.isfinite(values).all():
        return _float_cells(values.astype(np.float64, copy=False))
    if kind in ("i", "u"):
        return _int_cells(values)
    return _text_cells([format_value(value, name) for value in values])


# Rows formatted at a time, as one byte matrix per block, so that only one
# block's cells are alive at once: an in-process ``curvature --grid-n 400``
# peaks at 55 B per grid point with ``--format dsv --out`` and 67 inline
# (tracemalloc), most of it the formatted text, which is written block by
# block and never joined into one string.  A block's transient peak, above
# the text made before it, is about 0.73 MB in the 200-grid dsv table,
# against 0.45 MB for %-formatting it.
_BLOCK_ROWS = 4096


def table_lines(headers, columns, fmt: str, name: str) -> list[str]:
    """The text of table ``name``, one sequence of ``columns`` per header,
    as blocks of lines: joined by newlines they give the table.  Each value
    is named ``name.header``; a non-finite one raises ValueError naming the
    first in row-major order."""
    names = [f"{name}.{h}" for h in headers]
    if fmt == "dsv":
        blocks = ["\t".join(headers)]
        texts = [""] + ["\t"] * (len(headers) - 1) + ["\n"]
    else:
        # A record row is its "header: value" lines and an empty line.
        blocks = []
        texts = [f"{headers[0]}: "] + [f"\n{h}: " for h in headers[1:]] + ["\n\n"]
    # The constant bytes around each cell of a row.
    constants = [np.frombuffer(text.encode(), np.uint8) for text in texts]
    buffer = bytearray()
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        part = [column[start:start + _BLOCK_ROWS] for column in columns]
        try:
            cells = list(map(column_cells, part, names))
        except ValueError:
            # Cell by cell, so the error names the row-major first bad cell.
            for row in zip(*part):
                list(map(format_value, row, names))
            raise
        pieces = constants[:1]
        for cell, constant in zip(cells, constants[1:]):
            pieces += [cell, constant]
        ends = list(itertools.accumulate(piece.shape[-1] for piece in pieces))
        # Every byte of the block is written below, so a buffer of the
        # same size is reused as it stands.
        if len(buffer) != len(cells[0]) * ends[-1]:
            buffer = bytearray(len(cells[0]) * ends[-1])
        matrix = np.frombuffer(buffer, np.uint8).reshape(len(cells[0]), -1)
        for piece, end in zip(pieces, ends):
            matrix[:, end - piece.shape[-1]:end] = piece
        del cells, pieces  # copied: not kept alive while the text is made
        matrix[-1, -1] = 0  # the last newline: blocks are joined by newlines
        blocks.append(buffer.translate(None, b"\0").decode())
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


def cmd_zak(cfg: RunConfig, args) -> tuple[list, dict]:
    p = cfg.model_params()
    _require_gapped(p)  # no Chern label from a gapless model
    ledger_i, ledger_ii = (
        evolve_adiabatic(initial_state(), plan, p, cfg.protocol["zeeman_rate"])[1]
        for plan in plans_from_config(cfg.protocol)
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
    (plan,) = plans_from_config(cfg.protocol, [cfg.protocol["site"]])
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
        plans_from_config(cfg.protocol, [site])[0],
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
    """One trial of the two-site readout: its plans evolved in one pass
    (one ``evolve_tdse`` per plan in tdse mode), then read out and fitted
    as one stack and classified against the oracle, each site's values
    equal to its ``run_fringe`` and ``fit_fringe``.  The oracle, gap
    search included, runs before any evolution."""
    p = cfg.model_params()
    grid = default_phi_grid(cfg.scan["phi_mw_points"])
    readout = TwoSiteReadout(plans_from_config(cfg.protocol))
    oracle = chern_number(p)
    amps = readout.evolve(
        p, cfg.protocol["zeeman_rate"], cfg.mode["mode"], cfg.mode["dt"]
    )
    (report,), ((fit_i, fit_ii),), _ = readout.read(amps, grid, oracle_c=oracle.value)
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
    # The numeric trial columns are arrays, which column_cells formats in
    # one pass; the classification and success columns stay lists.
    trial_fields = ("radius", "index", "zak_error", "c_classified") + trial_headers[4:]
    trial_columns = [
        [getattr(t, f) for t in table.trials] if f in ("c_classified", "success")
        else np.array([getattr(t, f) for t in table.trials])
        for f in trial_fields
    ]
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
                with open(path / f"{name}.{ext}", "w") as table_file:
                    print(*lines, sep="\n", file=table_file)
        except OSError as exc:
            raise ConfigError(
                f"cannot write tables to output directory {out_dir}: {exc}"
            ) from exc
    print("\n".join(record), file=stdout)
    if not out_dir:
        for name, lines in formatted.items():
            print(f"\n## table: {name}", file=stdout)
            print(*lines, sep="\n", file=stdout)


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
