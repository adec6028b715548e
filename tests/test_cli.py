"""End-to-end tests for the command line interface."""

import argparse
import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chernscope
import chernscope.analysis
import chernscope.cli
import chernscope.interferometer
import chernscope.lattice
import chernscope.protocol
import chernscope.topology
from chernscope.cli import (
    DEFAULTS,
    ConfigError,
    RunConfig,
    column_cells,
    format_value,
    main,
    parse_phi,
    table_lines,
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def summary_of(text):
    """The leading key: value block, stopping at the first table."""
    pairs = {}
    for line in text.splitlines():
        if line.startswith("## table:"):
            break
        if ": " in line:
            key, value = line.split(": ", 1)
            pairs[key] = value
    return pairs


def test_chern_summary():
    code, out, err = run_cli("chern")
    assert code == 0
    assert err == ""
    summary = summary_of(out)
    assert summary["command"] == "chern"
    assert summary["chern"] == "1"
    assert float(summary["residual"]) < 1e-9
    assert len(summary["config-hash"]) == 64
    flux = chernscope.berry_curvature_fhs(chernscope.ModelParams(), 60).plaquette_flux
    assert summary["margin"] == format_value(np.pi - np.max(np.abs(flux)), "m")


def test_chern_negative_flux_phase():
    code, out, _ = run_cli("chern", "--phi=-pi/2")
    assert code == 0
    assert summary_of(out)["chern"] == "-1"


def test_chern_gapless_exit_code():
    code, out, err = run_cli("chern", "--phi", "0")
    assert code == 4
    assert out == ""
    assert summary_of(err)["error"] == "gapless-point"


@pytest.mark.parametrize("flag", ["--phi=0", "--tprime=0"])
@pytest.mark.parametrize(
    "argv",
    [("zak",), ("sweep", "--trials", "1", "--samples-per-leg", "20"), ("detect",)],
)
def test_gapless_model_gets_no_chern_label(monkeypatch, argv, flag):
    """zak, sweep and detect refuse a gapless model before any adiabatic
    pass, with the exit code and message of chern's gap check; the spy
    sees the passes of the same command at the default model."""
    passes = []
    reduce_legs = chernscope.interferometer._reduce_legs

    def spy(starts, endpoints, *args, **kwargs):
        passes.append(len(endpoints))
        return reduce_legs(starts, endpoints, *args, **kwargs)

    monkeypatch.setattr(chernscope.interferometer, "_reduce_legs", spy)
    code, out, err = run_cli(*argv, flag)
    assert (code, out, passes) == (4, "", [])
    assert err == run_cli("chern", flag)[2]
    assert summary_of(err)["error"] == "gapless-point"
    assert run_cli(*argv)[0] == 0
    assert passes


@pytest.mark.parametrize("command", ["zak", "curvature"])
def test_nan_gap_gets_the_floating_point_refusal(monkeypatch, command):
    """At --tprime 1e308 the gap search's energies overflow and its gap is
    NaN.  zak and curvature refuse it after the gap search, with detect's
    floating-point message and nothing printed: no adiabatic pass and no
    grid state runs."""
    calls = []
    monkeypatch.setattr(
        chernscope.interferometer, "_reduce_legs",
        lambda *args, **kwargs: calls.append("pass"),
    )
    monkeypatch.setattr(
        chernscope.topology, "band_states",
        lambda *args, **kwargs: calls.append("states"),
    )
    code, out, err = run_cli(command, "--tprime", "1e308")
    assert (code, out, calls) == (1, "", [])
    assert error_record(out, err).startswith("floating-point invalid value")
    assert err == run_cli("detect", "--tprime", "1e308")[2]


def test_zak_summary_phases():
    code, out, _ = run_cli("zak")
    assert code == 0
    summary = summary_of(out)
    assert float(summary["phi-zak-i"]) == pytest.approx(2.8360915281025494, abs=1e-9)
    assert float(summary["phi-zak-ii"]) == pytest.approx(-1.3526986766838414, abs=1e-9)
    assert float(summary["c-from-zak"]) == pytest.approx(0.47217860970, abs=1e-9)


def test_detect_reports_honest_ambiguity():
    code, out, _ = run_cli("detect")
    assert code == 0
    summary = summary_of(out)
    assert summary["oracle-c"] == "1"
    assert summary["c-classified"] == "Ambiguous"
    assert summary["agrees-with-oracle"] == "false"
    assert float(summary["c-estimate"]) == pytest.approx(0.4721786097, abs=1e-8)
    assert summary["pattern-i"] == "alpha-"
    assert summary["pattern-ii"] == "alpha+"
    assert float(summary["contrast-i"]) == pytest.approx(1.0, abs=1e-9)


def _cmd(argv):
    """The summary of ``argv``'s command, its values unformatted, and its
    resolved configuration."""
    args = chernscope.cli.build_parser().parse_args(argv)
    cfg = chernscope.cli.resolve_config(args)
    summary, _ = chernscope.cli.COMMANDS[args.command](cfg, args)
    return summary, cfg


def _seeded_couplings(seed):
    """Two (tp, phi) draws in the benchmark's range, one per sign of phi."""
    rng = np.random.default_rng(seed)
    draws = []
    for sign in (1.0, -1.0):
        tp, phi = rng.uniform([0.05, np.pi / 6], [0.3, 5 * np.pi / 6]).tolist()
        draws.append((tp, sign * phi))
    return draws


@pytest.mark.parametrize("tp, phi", _seeded_couplings(2601) + [(0.1, np.pi / 2)])
@pytest.mark.parametrize(
    "mode",
    [(), ("--mode", "tdse", "--leg-time", "40", "--samples-per-leg", "200")],
    ids=["adiabatic", "tdse"],
)
def test_detect_record_equals_the_per_site_route(tp, phi, mode):
    """detect evolves both sites in one pass (one evolve_tdse per plan in
    tdse mode) and reads out and fits them as one stack; every value of
    its record is bit for bit that of run_fringe and fit_fringe per site."""
    summary, cfg = _cmd(["detect", f"--tprime={tp!r}", f"--phi={phi!r}", *mode])
    p = cfg.model_params()
    grid = chernscope.analysis.default_phi_grid()
    fit_i, fit_ii = (
        chernscope.analysis.fit_fringe(
            chernscope.interferometer.run_fringe(
                p,
                chernscope.protocol.plan_site(
                    site,
                    leg_time=cfg.protocol["leg_time"],
                    samples_per_leg=cfg.protocol["samples_per_leg"],
                ),
                grid,
                mode=cfg.mode["mode"],
            )
        )
        for site in chernscope.protocol.SITES
    )
    report = chernscope.analysis.classify(
        fit_i, fit_ii, oracle_c=chernscope.topology.chern_number(p).value
    )
    assert summary == [
        ("phi-zak-i", fit_i.phi_zak),
        ("phi-zak-ii", fit_ii.phi_zak),
        ("contrast-i", fit_i.contrast),
        ("contrast-ii", fit_ii.contrast),
        ("c-estimate", report.c_estimate),
        ("c-classified", report.classified_label),
        ("pattern-i", report.pattern_i),
        ("pattern-ii", report.pattern_ii),
        ("oracle-c", report.oracle_c),
        ("agrees-with-oracle", report.c_classified == report.oracle_c),
    ]


@pytest.mark.parametrize("tp, phi", _seeded_couplings(3001) + [(0.1, np.pi / 2)])
@pytest.mark.parametrize(
    "flags", [(), ("--no-echo", "--zeeman-rate", "0.01")], ids=["echo", "no-echo"]
)
def test_sweep_nominal_record_equals_detect(tp, phi, flags):
    """The sweep's nominal record is detect's at the sweep's sampling of
    1,200 samples per leg, bit for bit: both evolve, read out and classify
    the one two-site readout, the sweep with a perturbed trial evolved
    beside the nominal pair.  At the default couplings both read phases
    2.83609062577 and -1.35269957902."""
    summary, cfg = _cmd(
        ["detect", f"--tprime={tp!r}", f"--phi={phi!r}", *flags,
         "--samples-per-leg", "1200"]
    )
    detect = dict(summary)
    nominal = chernscope.analysis.robustness_sweep(
        cfg.model_params(), [0.002], trials=1, with_echo=cfg.protocol["echo"],
        zeeman_rate=cfg.protocol["zeeman_rate"],
    ).nominal
    assert (
        nominal.phi_zak_i, nominal.phi_zak_ii, nominal.c_estimate,
        nominal.classified_label,
    ) == (
        detect["phi-zak-i"], detect["phi-zak-ii"], detect["c-estimate"],
        detect["c-classified"],
    )
    if (tp, phi, flags) == (0.1, np.pi / 2, ()):
        assert chernscope.cli.record_lines(summary[:2]) == [
            "phi-zak-i: 2.83609062577", "phi-zak-ii: -1.35269957902",
        ]


@pytest.mark.parametrize("tp, phi", _seeded_couplings(2602) + [(0.1, np.pi / 2)])
def test_zak_record_equals_the_per_site_ledgers(tp, phi):
    """zak evolves each site on its own through evolve_adiabatic, the
    one-plan view of the adiabatic entry; its record is bit for bit that of
    the site's ledger."""
    summary, cfg = _cmd(["zak", f"--tprime={tp!r}", f"--phi={phi!r}"])
    p = cfg.model_params()
    ledger_i, ledger_ii = (
        chernscope.interferometer.evolve_adiabatic(
            chernscope.interferometer.initial_state(),
            chernscope.protocol.plan_site(site), p,
        )[1]
        for site in chernscope.protocol.SITES
    )
    phase_i, phase_ii = ledger_i.pancharatnam_phase, ledger_ii.pancharatnam_phase
    assert summary == [
        ("phi-zak-i", phase_i),
        ("phi-zak-ii", phase_ii),
        ("total-i", ledger_i.total),
        ("total-ii", ledger_ii.total),
        ("c-from-zak", chernscope.topology.chern_from_zak(phase_i, phase_ii)),
    ]


def test_detect_runs_are_byte_identical():
    first = run_cli("detect")
    second = run_cli("detect")
    assert first == second


def test_sweep_runs_are_byte_identical():
    args = ("sweep", "--trials", "3")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    assert first[0] == 0
    summary = summary_of(first[1])
    assert summary["trials-per-radius"] == "3"
    assert summary["nominal-classification"] == "Ambiguous"
    assert "## table: sweep" in first[1]
    assert "## table: sweep-trials" in first[1]


def test_sweep_output_does_not_depend_on_batch_size(monkeypatch):
    """One plan per pass and one pass past 16,384 momenta print the same
    bytes as the default batches, and the radius-0 row stays exact.  The
    two nominal plans send their down legs' 1,201 samples, as each up leg
    is the down leg's mirror, and the 18 perturbed plans both legs' 2,402:
    20 passes of one plan, or one pass of 38 legs."""
    args = ("sweep", "--trials", "3")
    reference = run_cli(*args)
    assert reference[0] == 0
    fields = chernscope.lattice.bloch_fields
    one_plan = [1201] * 2 + [2 * 1201] * 18
    for batch, pass_sizes in ((1, one_plan), (10**6, [38 * 1201])):
        sizes = []

        def counting(kpts, p):
            sizes.append(len(kpts))
            return fields(kpts, p)

        monkeypatch.setattr(chernscope.protocol, "bloch_fields", counting)
        monkeypatch.setattr(chernscope.interferometer, "_ADIABATIC_BATCH", batch)
        assert run_cli(*args) == reference
        assert sorted(sizes) == pass_sizes
    table = reference[1].split("## table: sweep\n", 1)[1].splitlines()
    assert table[:4] == [
        "radius: 0", "trials: 3", "success_rate: 1", "max_zak_error: 0"
    ]


def test_sweep_writes_data_files(tmp_path):
    out_dir = tmp_path / "data"
    args = ("sweep", "--trials", "2", "--out", str(out_dir), "--format", "dsv")
    code, out, _ = run_cli(*args)
    assert code == 0
    sweep = (out_dir / "sweep.dsv").read_text()
    trials = (out_dir / "sweep-trials.dsv").read_text()
    header = sweep.splitlines()[0].split("\t")
    assert header[:4] == ["radius", "trials", "success_rate", "max_zak_error"]
    assert len(sweep.splitlines()) == 1 + len(DEFAULTS["sweep"]["error_radii"])
    assert len(trials.splitlines()) == 1 + 2 * len(DEFAULTS["sweep"]["error_radii"])
    # Tables go to files, not stdout.
    assert "## table" not in out
    run_cli(*args)
    assert (out_dir / "sweep.dsv").read_text() == sweep
    assert (out_dir / "sweep-trials.dsv").read_text() == trials


def test_protocol_summary_and_warning():
    code, out, _ = run_cli("protocol", "--leg-time", "2")
    assert code == 0
    summary = summary_of(out)
    assert summary["adiabatic-warning"] == "true"
    assert float(summary["xi"]) == pytest.approx(0.7754946119391695, abs=1e-9)
    assert float(summary["force-ratio"]) == pytest.approx(np.sqrt(3), abs=1e-9)
    assert float(summary["landau-zener-estimate"]) == pytest.approx(
        0.444858066222941, abs=1e-9
    )
    slow = summary_of(run_cli("protocol")[1])
    assert slow["adiabatic-warning"] == "false"
    assert slow["endpoints-reciprocal"] == "true"


def test_fringe_summary_ledger():
    code, out, _ = run_cli("fringe", "--site", "II", "--samples-per-leg", "800")
    assert code == 0
    summary = summary_of(out)
    assert summary["site"] == "II"
    assert summary["mode"] == "adiabatic"
    assert float(summary["dynamic"]) == pytest.approx(0.0, abs=1e-9)
    assert float(summary["fitted-phi-zak"]) == pytest.approx(
        float(summary["total"]), abs=1e-9
    )
    assert "## table: fringe" in out


def test_bands_table():
    code, out, _ = run_cli("bands", "--points-per-segment", "20")
    assert code == 0
    summary = summary_of(out)
    assert summary["points"] == "81"
    assert "K:" in summary["segment-labels"]
    assert "## table: bands" in out


def test_print_config():
    code, out, _ = run_cli("detect", "--tprime", "0.05", "--print-config")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"model", "protocol", "scan", "mode", "sweep", "output"}
    assert data["model"]["tprime"] == 0.05
    assert data["model"]["t"] == 1.0


def test_usage_error_exit_code():
    code, _, _ = run_cli("chern", "--no-such-flag")
    assert code == 2
    code, _, _ = run_cli()
    assert code == 2


def _main_captured(capsys, argv):
    """Exit code, stdout and stderr of one ``main`` call, argparse's own
    usage and help text included."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_reused_parser_changes_no_call(tmp_path, capsys, monkeypatch):
    """One process's mixed calls print what each prints with a new parser."""
    monkeypatch.setenv("COLUMNS", "100")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": {}}))
    calls = [
        ["detect"], ["fringe", "--site", "II", "--no-echo"],
        ["sweep", "--trials", "1"], ["chern", "--no-such-flag"], ["--help"],
        ["chern", "--config", str(bad)], ["detect"],
    ]
    build_parser = chernscope.cli.build_parser
    build_parser.cache_clear()
    reused = [_main_captured(capsys, argv) for argv in calls]
    assert build_parser.cache_info()[:2] == (len(calls) - 1, 1)  # hits, misses
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_main_captured(capsys, argv))
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 3, 0]
    assert reused == fresh
    assert reused[0] == reused[-1]


def test_reused_parser_help_follows_columns(capsys, monkeypatch):
    """--help takes its width from COLUMNS when it prints, not when the
    parser was built."""
    build_parser = chernscope.cli.build_parser
    build_parser.cache_clear()
    helps = {}
    for columns in ("50", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        helps[columns] = _main_captured(capsys, ["detect", "--help"])
    assert build_parser.cache_info().misses == 1
    for columns in ("50", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        build_parser.cache_clear()
        assert _main_captured(capsys, ["detect", "--help"]) == helps[columns]
    assert max(len(line) for line in helps["50"][1].splitlines()) < 100
    assert max(len(line) for line in helps["200"][1].splitlines()) > 100


def test_config_file_applies(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"tprime": 0.2}}))
    _, out, _ = run_cli("chern", "--config", str(path), "--print-config")
    assert json.loads(out)["model"]["tprime"] == 0.2
    # A flag still overrides the file.
    _, out, _ = run_cli(
        "chern", "--config", str(path), "--tprime", "0.3", "--print-config"
    )
    assert json.loads(out)["model"]["tprime"] == 0.3


def test_config_file_unknown_section(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"modle": {"t": 1.0}}))
    code, _, err = run_cli("chern", "--config", str(path))
    assert code == 3
    assert summary_of(err)["error"] == "config"


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"tprim": 0.1}}))
    code, _, err = run_cli("chern", "--config", str(path))
    assert code == 3


def test_config_file_invalid_json(tmp_path):
    """A file that cannot be read as text or parsed as JSON is a
    configuration error naming the file, with nothing printed: malformed
    JSON, bytes that are not UTF-8, nesting deeper than the recursion
    limit, and an integer over the int-to-str digit limit."""
    path = tmp_path / "bad.json"
    for data in (
        b"{not json", b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000,
        b'{"model": {"t": ' + b"9" * 5000 + b"}}",
    ):
        path.write_bytes(data)
        code, out, err = run_cli("chern", "--config", str(path))
        assert code == 3, data[:20]
        assert out == ""
        assert summary_of(err)["error"] == "config"
        assert str(path) in summary_of(err)["message"]


def test_config_roundtrip_lossless():
    cfg = RunConfig.from_dict({"model": {"phi": 0.7}, "sweep": {"seed": 3}})
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_hash_ignores_output_section():
    base = RunConfig.from_dict({})
    routed = RunConfig.from_dict({"output": {"out": "/tmp/somewhere"}})
    assert routed.config_hash() == base.config_hash()
    changed = RunConfig.from_dict({"model": {"phi": 0.5}})
    assert changed.config_hash() != base.config_hash()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"protocol": {"site": "Z"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"mode": {"mode": "magic"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"model": {"t": "fast"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"sweep": {"error_radii": 0.1}})


FLAGGED = [
    pytest.param(row, id=f"{row[0]}.{row[1]}")
    for row in chernscope.cli.SETTINGS
    if row[3]
]
WITH_CHOICES = [
    pytest.param(row, id=f"{row[0]}.{row[1]}")
    for row in chernscope.cli.SETTINGS
    if "choices" in row[4]
]


def changed_settings(config):
    """The (section, key) pairs of a printed config that differ from
    DEFAULTS."""
    return {
        (section, key)
        for section, table in DEFAULTS.items()
        for key, default in table.items()
        if config[section][key] != default
    }


@pytest.mark.parametrize("command", ["fringe", "sweep"])
@pytest.mark.parametrize("row", FLAGGED)
def test_each_flag_sets_only_its_own_setting(row, command):
    section, key, default, flag, options = row
    if options.get("action") is argparse.BooleanOptionalAction:
        argv = [flag if not default else "--no-" + flag[2:]]
    elif "choices" in options:
        argv = [flag, next(c for c in options["choices"] if c != default)]
    elif default is None:
        argv = [flag, "0.5" if options["type"] is float else "elsewhere"]
    else:
        argv = [flag, str(default + 1)]
    code, out, _ = run_cli(command, *argv, "--print-config")
    assert code == 0
    if command == "sweep" and flag == "--samples-per-leg":
        section = "sweep"
    assert changed_settings(json.loads(out)) == {(section, key)}


@pytest.mark.parametrize("row", WITH_CHOICES)
def test_config_value_outside_choices_exits_config(tmp_path, row):
    section, key = row[:2]
    path = tmp_path / "choice.json"
    path.write_text(json.dumps({section: {key: "no-such-choice"}}))
    code, out, err = run_cli("chern", "--config", str(path))
    assert code == 3
    assert out == ""
    summary = summary_of(err)
    assert summary["error"] == "config"
    assert f"{section}.{key}" in summary["message"]


@pytest.mark.parametrize(
    "text,value",
    [
        ("pi/2", np.pi / 2),
        ("-3pi/4", -3 * np.pi / 4),
        ("2pi/3", 2 * np.pi / 3),
        ("pi", np.pi),
        ("-pi", -np.pi),
        ("0.25", 0.25),
        ("1.5707963", 1.5707963),
    ],
)
def test_parse_phi_forms(text, value):
    assert parse_phi(text) == pytest.approx(value, abs=1e-12)


def test_parse_phi_rejects_junk():
    for text in ("banana", "pi/0", "pi/0.0", "-pi/-0", "3pi/+00", "pi/.0"):
        with pytest.raises(ConfigError):
            parse_phi(text)
    for flag in ("--phi=pi/0", "--phi=pi/0.0", "--phi=-pi/-0"):
        err_stream = io.StringIO()
        with contextlib.redirect_stderr(err_stream):  # argparse writes here
            code, out, _ = run_cli("chern", flag)
        assert (code, out) == (2, ""), flag
        assert "Traceback" not in err_stream.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ("zak", "--tprime", "nan"),
        ("zak", "--leg-time", "nan"),
        ("protocol", "--leg-time", "inf"),
        ("fringe", "--mode", "tdse", "--dt=-1"),
    ],
)
def test_non_finite_or_negative_inputs_exit_invalid_value(argv):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert summary_of(err)["error"] == "invalid-value"


@pytest.mark.parametrize(
    "argv",
    [
        ("fringe", "--zeeman-rate", "nan"),
        ("fringe", "--zeeman-rate", "inf"),
        ("fringe", "--no-echo", "--zeeman-rate=-inf"),
        ("zak", "--zeeman-rate", "nan"),
        ("detect", "--zeeman-rate", "inf"),
        ("fringe", "--mode", "tdse", "--leg-time", "2", "--samples-per-leg", "400",
         "--zeeman-rate", "nan"),
        ("sweep", "--trials", "1", "--samples-per-leg", "400", "--zeeman-rate", "nan"),
    ],
)
def test_non_finite_zeeman_rate_exits_invalid_value(argv):
    """The Zeeman phase is the rate times the signed leg time, so a NaN or
    infinite rate would print NaN populations and phases."""
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    summary = summary_of(err)
    assert summary["error"] == "invalid-value"
    assert "zeeman_rate" in summary["message"]


def test_sweep_zeeman_rate_cancels_with_echo_only():
    def sweep_output(*extra):
        code, out, _ = run_cli("sweep", "--trials", "1", "--samples-per-leg", "400",
                               *extra)
        assert code == 0
        return [line for line in out.splitlines() if "config-hash" not in line]

    assert sweep_output("--zeeman-rate", "0.05") == sweep_output()
    assert sweep_output("--no-echo", "--zeeman-rate", "0.05") != sweep_output(
        "--no-echo"
    )


@pytest.mark.parametrize(
    "argv,field",
    [
        (("fringe", "--t", "1e308"), "fitted-phi-zak"),
        (("fringe", "--tprime", "1e308"), "fitted-phi-zak"),
        (("zak", "--t", "1e308"), "phi-zak-i"),
        (("bands", "--t", "1e308"), "bands.e_lower"),
        (("protocol", "--leg-time", "1e-300"), "force-ratio"),
    ],
)
def test_non_finite_result_exits_invalid_value(tmp_path, argv, field):
    """Every value is formatted before any is output, so a NaN or infinite
    result leaves stdout empty and writes no table file."""
    code, out, err = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert not (tmp_path / "out").exists()
    summary = summary_of(err)
    assert summary["error"] == "invalid-value"
    assert summary["message"].startswith(f"{field} is not finite")


def _cell_by_cell(headers, rows, fmt, name):
    """Reference lines of a table: format_value on each cell, row by row."""
    names = [f"{name}.{h}" for h in headers]
    lines = ["\t".join(headers)] if fmt == "dsv" else []
    for row in rows:
        cells = [format_value(value, n) for value, n in zip(row, names)]
        if fmt == "dsv":
            lines.append("\t".join(cells))
        else:
            lines.extend(f"{h}: {c}" for h, c in zip(headers, cells))
            lines.append("")
    return lines


# Commands and settings whose tables the formatting tests print.
TABLE_ARGV = [
    ("bands", "--points-per-segment", "20"),
    ("curvature", "--grid-n", "24"),
    ("curvature", "--grid-n", "70"),  # more rows than one block
    ("protocol", "--leg-time", "2"),
    ("fringe",),
    ("sweep", "--trials", "2"),
]


def _command_tables(argv):
    args = chernscope.cli.build_parser().parse_args(list(argv))
    cfg = chernscope.cli.resolve_config(args)
    return chernscope.cli.COMMANDS[args.command](cfg, args)[1]


@pytest.mark.parametrize("fmt", ["dsv", "structured-record"])
@pytest.mark.parametrize("argv", TABLE_ARGV, ids=" ".join)
def test_table_lines_match_cell_by_cell_formatting(argv, fmt):
    """A table formatted column by column prints exactly what format_value
    prints for each cell in row-major order."""
    tables = _command_tables(argv)
    assert tables
    for name, (headers, columns) in tables.items():
        assert len(columns) == len(headers)
        rows = list(zip(*columns))
        assert all(len(column) == len(rows) for column in columns)
        # Compared as lists of lines, which pytest diffs quickly.
        text = "\n".join(table_lines(headers, columns, fmt, name))
        assert text.split("\n") == _cell_by_cell(headers, rows, fmt, name)


def _printed(values, name):
    """Each of ``values`` as its NUL-padded row of ``column_cells`` prints."""
    return [row.tobytes().translate(None, b"\0").decode()
            for row in column_cells(values, name)]


def test_numpy_booleans_print_true_false():
    assert format_value(np.bool_(True), "x") == "true"
    assert format_value(np.bool_(False), "x") == "false"
    assert _printed(np.array([True, False]), "x") == ["true", "false"]


def test_column_cells_match_format_value_on_edge_values():
    floats = [
        -0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 0.1 + 0.2, 1 / 3, 2.5e-7,
        0.1234567890125, 1.0000000000005, 999999999999.5, 9999999999995.0,
        -1.7976931348623157e308,
        # next to 12-digit ties, where the scaled value rounds the wrong way
        0.0008271467107625, 44.50319927065, 4676.258848775,
    ]
    ints = [0, -1, 2**62, np.iinfo(np.int64).min, np.iinfo(np.int64).max]
    mixed = [True, False, None, np.int64(7), np.float64(-0.0), -0.0, 2.5, 3,
             "Ambiguous", np.bool_(True)]
    cases = [
        np.array(floats),
        np.array(floats)[::3],  # a strided view
        np.array(floats[:4] + [0.1, 1e16, -0.0], dtype=np.float32),
        np.array(ints, dtype=np.int64),
        np.arange(3, dtype=np.uint8),
        np.array([True, False]),
        floats,
        ints,
        tuple(mixed),
        mixed,
        [],
        np.zeros(0),
        np.zeros(0, dtype=np.int64),
    ]
    for values in cases:
        expected = [format_value(value, "t.x") for value in values]
        assert _printed(values, "t.x") == expected


def _assert_prints_as_format_value(values):
    """The column path prints each value of the array ``values`` as
    format_value does, with no floating-point error or warning raised."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _printed(values, "t.x")
    assert got == [format_value(value, "t.x") for value in values]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_float64_column_prints_as_format_value(values):
    """Every finite float64, subnormals and +-max included."""
    _assert_prints_as_format_value(np.array(values, dtype=np.float64))


@given(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                max_size=40))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_float32_column_prints_as_format_value(values):
    _assert_prints_as_format_value(np.array(values, dtype=np.float32))


def _near_ties(rng, count):
    """The doubles nearest to 12-digit decimal ties (d.ddddddddddd5 x 10^k)
    and their neighbours up to two ulps either way, over a wide range of k."""
    digits = rng.integers(10**11, 10**12, count)
    powers = rng.integers(-60, 60, count)
    ties = np.array([float(f"{d}5e{k - 12}") for d, k in zip(digits, powers)])
    below = np.nextafter(ties, 0)
    above = np.nextafter(ties, np.inf)
    return np.concatenate([ties, below, above, np.nextafter(below, 0),
                           np.nextafter(above, np.inf)])


def test_float_column_sweep_prints_as_format_value():
    """A seeded sweep of 10^6 values: every binary exponent, random bit
    patterns, constructed 12-digit ties and the carries to the next power
    of ten, in blocks of a table's rows."""
    rng = np.random.default_rng(3401)
    n = 460_000
    values = np.concatenate([
        np.ldexp(rng.random(n), rng.integers(-1074, 1025, n))
        * rng.choice([-1.0, 1.0], n),
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        _near_ties(rng, 20_000),
        [999999999999.5, 9.999999999995e-5, -9.999999999995e-5, 99999999999.95,
         9.9999999999995, 0.00099999999999995, 9999999999995.0],
    ])
    values = values[np.isfinite(values)]
    assert len(values) >= 10**6
    for start in range(0, len(values), _BLOCK):
        _assert_prints_as_format_value(values[start:start + _BLOCK])


def test_integer_columns_print_as_format_value():
    """Every integer dtype, at its limits and next to each power of ten."""
    for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32,
                  np.int64, np.uint64):
        info = np.iinfo(dtype)
        near = [s * (10**k + d) for k in range(20) for d in (-1, 0, 1)
                for s in (-1, 1)]
        values = np.array([v for v in [info.min, info.max, 0] + near
                           if info.min <= v <= info.max], dtype=dtype)
        _assert_prints_as_format_value(values)
    _assert_prints_as_format_value(
        np.random.default_rng(3402).integers(-2**63, 2**63 - 1, 5000))


_BLOCK = chernscope.cli._BLOCK_ROWS


def _wide_then_narrow():
    """Three blocks, the first wider than the last in every column kind:
    negative and 7-digit integers, e-notation floats, 12-digit ties and a
    long label come only in the first block.  The last two blocks have rows
    of one width, 27 bytes of cells, but the last holds shorter floats and
    longer labels, so its tab moves: a block buffer that kept a stale byte
    would print it."""
    rows = 3 * _BLOCK
    ints = np.arange(rows) % 1000
    ints[:3] = [-1234567, 7654321, -5]
    floats = np.linspace(1.0, 9.0, rows)
    floats[:4] = [-1.5e-300, 2.5e20, 44.50319927065, -0.0008271467107625]
    floats[2 * _BLOCK:] = 1 + ints[2 * _BLOCK:] / 1000  # at most 4 digits
    labels = [f"s{i % 7}" for i in range(2 * _BLOCK)]
    labels += [f"t{i % 7}".ljust(19, "-") for i in range(_BLOCK)]
    labels[0] = "a long first-block label"
    return ("n", "x", "label"), (ints, floats, labels)


EDGE_TABLES = [
    (("50%", "a%sb", "%d"),
     (np.arange(3), np.array([0.5, -0.0, 1e-300]), ["x%s", "%%", "y"])),
    (("i", "x"), (np.arange(0), np.zeros(0))),
    (("i", "x"), (np.arange(_BLOCK), np.linspace(-1.0, 1.0, _BLOCK))),
    (("i", "x"), (np.arange(_BLOCK + 1), np.linspace(-1.0, 1.0, _BLOCK + 1))),
    (("n", "x", "label"),
     (np.arange(_BLOCK + 3, dtype=np.uint16) * 7,
      np.geomspace(1e-9, 1e12, _BLOCK + 3) * (-1) ** np.arange(_BLOCK + 3),
      [f"s{i}%" for i in range(_BLOCK + 3)])),
    _wide_then_narrow(),
]
EDGE_IDS = ["percent-headers", "no-rows", "one-block", "block-and-one", "mixed",
            "wide-then-narrow"]


@pytest.mark.parametrize("fmt", ["dsv", "structured-record"])
@pytest.mark.parametrize("headers,columns", EDGE_TABLES, ids=EDGE_IDS)
def test_table_lines_match_cell_by_cell_on_edge_tables(headers, columns, fmt):
    """One byte matrix per block prints what format_value prints cell by
    cell: headers holding %, no rows, a block edge, mixed column kinds, and
    blocks that narrow."""
    blocks = table_lines(headers, columns, fmt, "t")
    lines = "\n".join(blocks).split("\n") if blocks else []
    assert lines == _cell_by_cell(headers, list(zip(*columns)), fmt, "t")


@pytest.mark.parametrize("argv", [None] + TABLE_ARGV,
                         ids=lambda argv: "edge-tables" if argv is None else " ".join(argv))
def test_no_cell_or_header_holds_nul(argv):
    """Cells are padded with NUL bytes, which a block's text drops, so no
    header or formatted cell of these tables may hold one."""
    tables = EDGE_TABLES if argv is None else _command_tables(argv).values()
    for headers, columns in tables:
        assert not any("\0" in header for header in headers)
        for header, column in zip(headers, columns):
            assert not any("\0" in format_value(v, header) for v in column)


@pytest.mark.parametrize("fmt", ["dsv", "structured-record"])
@pytest.mark.parametrize(
    "bad_a,bad_b,message",
    [
        (5, 3, "t.b is not finite: inf"),
        (3, 3, "t.a is not finite: nan"),
        (_BLOCK, _BLOCK - 1, "t.b is not finite: inf"),  # across a block edge
        (_BLOCK - 1, _BLOCK, "t.a is not finite: nan"),
        (_BLOCK + 7, _BLOCK + 2, "t.b is not finite: inf"),
    ],
)
def test_table_names_row_major_first_non_finite_cell(fmt, bad_a, bad_b, message):
    """A later column's bad cell in an earlier row is the one named, as in
    formatting cell by cell; ``b`` is a plain list, ``a`` an array."""
    rows = 2 * _BLOCK + 1
    a = np.linspace(0.0, 1.0, rows)
    a[bad_a] = np.nan
    b = np.linspace(0.0, 1.0, rows).tolist()
    b[bad_b] = np.inf
    with pytest.raises(ValueError) as raised:
        table_lines(("i", "a", "b"), (np.arange(rows), a, b), fmt, "t")
    assert str(raised.value) == message


@pytest.mark.parametrize("count", ["-1", "11"])
def test_bands_points_outside_budget_exit_invalid_value(monkeypatch, count):
    """The budget is lowered so no large path is built."""
    monkeypatch.setattr(chernscope.lattice, "MAX_PATH_POINTS_PER_SEGMENT", 10)
    assert run_cli("bands", "--points-per-segment", "10")[0] == 0
    code, out, err = run_cli("bands", f"--points-per-segment={count}")
    assert code == 1
    assert out == ""
    summary = summary_of(err)
    assert summary["error"] == "invalid-value"
    assert "budget of 10" in summary["message"]


def error_record(out, err):
    """The message of the one invalid-value record that is all of stderr,
    with nothing on stdout."""
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0] == "error: invalid-value"
    assert lines[1].startswith("message: ")
    return lines[1][len("message: "):]


@pytest.mark.parametrize("samples", ["0", "-1", "-4"])
def test_samples_per_leg_below_one_exits_invalid_value(samples):
    code, out, err = run_cli("fringe", f"--samples-per-leg={samples}")
    assert code == 1
    assert "samples per leg" in error_record(out, err)


@pytest.mark.parametrize("command", ["fringe", "sweep"])
def test_samples_per_leg_over_budget_exits_invalid_value(monkeypatch, command):
    """The budget is lowered so no large leg is sampled."""
    monkeypatch.setattr(chernscope.protocol, "MAX_SAMPLES_PER_LEG", 10)
    argv = (command, "--trials", "1", "--samples-per-leg")
    assert run_cli(*argv, "10")[0] == 0
    code, out, err = run_cli(*argv, "11")
    assert code == 1
    assert "budget of 10" in error_record(out, err)


def _refuse_evolution(*args, **kwargs):
    raise AssertionError("an over-budget run reached an evolution")


def test_sweep_trials_over_budget_exit_before_evolving(monkeypatch):
    """The budget counts trials over all radii, 4 by default, and is
    lowered so no long sweep runs."""
    monkeypatch.setattr(chernscope.analysis, "MAX_SWEEP_TRIALS", 8)
    assert run_cli("sweep", "--trials", "2", "--samples-per-leg", "20")[0] == 0
    monkeypatch.setattr(
        chernscope.interferometer, "_reduce_legs", _refuse_evolution
    )
    code, out, err = run_cli("sweep", "--trials", "3", "--samples-per-leg", "20")
    assert code == 1
    assert "budget of 8" in error_record(out, err)


def test_sweep_empty_radii_exit_before_evolving(monkeypatch, tmp_path):
    """A sweep with no error radius exits 1 before any leg pass, with
    nothing printed."""
    path = tmp_path / "radii.json"
    path.write_text(json.dumps({"sweep": {"error_radii": []}}))
    monkeypatch.setattr(chernscope.protocol, "bloch_fields", _refuse_evolution)
    code, out, err = run_cli(
        "sweep", "--trials", "2", "--samples-per-leg", "20", "--config", str(path)
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: invalid-value\nmessage: a sweep needs at least one error radius\n"
    )


@pytest.mark.parametrize("source", ["flag", "config"])
def test_sweep_negative_seed_exits_before_gap_search(monkeypatch, tmp_path, source):
    """A negative seed, from the flag or from a config file, is refused by
    name before the gap search and any leg pass, with nothing printed."""
    argv = ["sweep", "--trials", "2", "--samples-per-leg", "20"]
    if source == "flag":
        argv.append("--seed=-1")
    else:
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({"sweep": {"seed": -1}}))
        argv += ["--config", str(path)]
    monkeypatch.setattr(chernscope.analysis, "_require_gapped", _refuse_evolution)
    monkeypatch.setattr(
        chernscope.interferometer, "_reduce_legs", _refuse_evolution
    )
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert err == "error: invalid-value\nmessage: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
def test_out_that_cannot_be_a_directory_exits_config(tmp_path, sub):
    """An --out that is an existing file, or lies under one, is refused as a
    config error naming it, before the record is printed."""
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out_dir = blocker / sub
    code, out, err = run_cli("bands", "--out", str(out_dir))
    assert (code, out) == (3, "")
    assert "Traceback" not in err
    summary = summary_of(err)
    assert summary["error"] == "config"
    assert summary["message"].startswith(
        f"cannot write tables to output directory {out_dir}: "
    )
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("fmt", ["dsv", "structured-record"])
def test_multi_block_table_streams_its_joined_lines(tmp_path, fmt):
    """A table of more rows than one formatting block is written block by
    block, inline and as a file, and reads byte for byte as its lines
    joined by newlines with a final newline."""
    argv = ["curvature", "--grid-n", "70", "--format", fmt]
    args = chernscope.cli.build_parser().parse_args(argv)
    cfg = chernscope.cli.resolve_config(args)
    _, tables = chernscope.cli.COMMANDS[args.command](cfg, args)
    headers, columns = tables["curvature"]
    assert len(columns[0]) == 4900 > _BLOCK
    blocks = table_lines(headers, columns, fmt, "curvature")
    assert len(blocks) > 1
    expected = "\n".join(blocks) + "\n"
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert out.split("\n## table: curvature\n", 1)[1] == expected
    ext = "dsv" if fmt == "dsv" else "rec"
    code, out, _ = run_cli(*argv, "--out", str(tmp_path))
    assert code == 0
    assert "## table" not in out
    assert (tmp_path / f"curvature.{ext}").read_bytes() == expected.encode()


def test_table_file_that_cannot_be_opened_exits_config(tmp_path):
    """A table file that cannot be written in a usable --out (here a
    directory in its place) is refused as a config error, nothing printed."""
    (tmp_path / "curvature.dsv").mkdir()
    code, out, err = run_cli(
        "curvature", "--grid-n", "70", "--format", "dsv", "--out", str(tmp_path)
    )
    assert (code, out) == (3, "")
    assert summary_of(err)["message"].startswith(
        f"cannot write tables to output directory {tmp_path}: "
    )


@pytest.mark.parametrize("command", ["fringe", "detect", "sweep"])
def test_phi_mw_points_over_budget_exit_before_evolving(monkeypatch, command):
    """The budget is lowered so no long scan is read out."""
    monkeypatch.setattr(chernscope.analysis, "MAX_PHI_MW_POINTS", 30)
    argv = (command, "--trials", "1", "--samples-per-leg", "20", "--phi-mw-points")
    assert run_cli(*argv, "30")[0] == 0
    monkeypatch.setattr(
        chernscope.interferometer, "_reduce_legs", _refuse_evolution
    )
    monkeypatch.setattr(chernscope.cli, "run_fringe", _refuse_evolution)
    code, out, err = run_cli(*argv, "31")
    assert code == 1
    assert "budget of 30" in error_record(out, err)


@pytest.mark.parametrize("count", ["-1", "0", "4"])
@pytest.mark.parametrize(
    "command",
    [("fringe",), ("fringe", "--mode", "tdse", "--leg-time", "40"), ("detect",),
     ("sweep", "--trials", "1")],
    ids=["fringe", "fringe-tdse", "detect", "sweep"],
)
def test_phi_mw_points_below_five_exit_degenerate_before_any_leg(
    monkeypatch, command, count
):
    """Too few pulse phases to fit are refused before any leg pass."""
    monkeypatch.setattr(chernscope.protocol, "bloch_fields", _refuse_evolution)
    code, out, err = run_cli(*command, f"--phi-mw-points={count}")
    assert (code, out) == (9, "")
    assert err == (
        "error: degenerate-scan\nmessage: need at least 5 distinct phi_mw points\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (("fringe", "--t", "1e308"), "fitted-phi-zak is not finite"),
        (("fringe", "--zeeman-rate", "1e308", "--no-echo"),
         "fitted-phi-zak is not finite"),
        (("protocol", "--leg-time", "1e-310"), "force-ratio is not finite"),
        (("bands", "--t", "1e300"), "bands.e_lower is not finite"),
        (("chern", "--t", "1e308"), "floating-point overflow encountered"),
        (("fringe", "--mode", "tdse", "--leg-time", "40", "--t", "1e308"),
         "floating-point overflow encountered"),
    ],
)
def test_float_overflow_exits_invalid_value_without_warnings(argv, message):
    """Finite inputs whose numbers overflow print no numpy warning: the run
    is refused by the non-finite output it names, or, when it fails before
    its output, by the floating-point error that came first."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(*argv)
    assert code == 1
    assert error_record(out, err).startswith(message)
    assert caught == []


def test_float_error_behind_a_finite_result_exits_invalid_value(monkeypatch):
    """A run whose printed values are all finite but that overflowed on the
    way is refused, not printed."""

    def overflowing_chern(cfg, args):
        np.array([1e308]) * 10.0
        return [("chern", 1)], {}

    monkeypatch.setitem(chernscope.cli.COMMANDS, "chern", overflowing_chern)
    code, out, err = run_cli("chern")
    assert code == 1
    assert error_record(out, err).startswith("floating-point overflow encountered")


@pytest.mark.parametrize("command", ["chern", "curvature"])
def test_grid_n_over_budget_exits_invalid_value(monkeypatch, command):
    """The budget is lowered so no large grid is built."""
    monkeypatch.setattr(chernscope.topology, "MAX_GRID_N", 30)
    assert run_cli(command, "--grid-n", "30")[0] == 0
    code, out, err = run_cli(command, "--grid-n", "31")
    assert code == 1
    assert out == ""
    summary = summary_of(err)
    assert summary["error"] == "invalid-value"
    assert "budget" in summary["message"]


def test_config_rejects_bool_as_number(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"model": {"t": True}}))
    code, out, err = run_cli("chern", "--config", str(path))
    assert code == 3
    assert out == ""
    assert summary_of(err)["error"] == "config"


@pytest.mark.parametrize(
    "command,section,key,value",
    [
        ("zak", "protocol", "leg_time", None),
        ("fringe", "protocol", "leg_time", None),
        ("sweep", "protocol", "leg_time", None),
        ("fringe", "mode", "dt", []),
        ("fringe", "scan", "phi_mw_points", None),
        ("sweep", "scan", "phi_mw_points", None),
        ("sweep", "sweep", "error_radii", [None]),
        ("zak", "protocol", "echo", "no"),
        ("sweep", "sweep", "trials", 2.5),
        pytest.param("chern", "model", "t", 10**400, id="chern-model-t-huge"),
        ("chern", "output", "out", 3),
    ],
)
def test_config_value_of_wrong_type_exits_config(
    tmp_path, command, section, key, value
):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({section: {key: value}}))
    code, out, err = run_cli(command, "--config", str(path))
    assert code == 3
    assert out == ""
    summary = summary_of(err)
    assert summary["error"] == "config"
    assert f"{section}.{key}" in summary["message"]


def test_config_numbers_resolve_as_floats(tmp_path):
    """A file's integer 200 is the flag's 200.0: same record, same hash."""
    path = tmp_path / "int.json"
    path.write_text(json.dumps({"protocol": {"leg_time": 200}}))
    from_file = run_cli("protocol", "--config", str(path))
    assert from_file[0] == 0
    assert from_file == run_cli("protocol", "--leg-time", "200")
    assert from_file == run_cli("protocol")


def test_config_hash_covers_subcommand_settings():
    def hash_of(*argv):
        return summary_of(run_cli(*argv)[1])["config-hash"]

    assert hash_of("chern") != hash_of("chern", "--grid-n", "30")
    assert hash_of("curvature") != hash_of("curvature", "--grid-n", "30")
    assert hash_of("bands") != hash_of("bands", "--points-per-segment", "30")
    assert run_cli("chern", "--grid-n", "30") == run_cli("chern", "--grid-n", "30")


def test_sweep_samples_per_leg_flag_sets_sweep_sampling():
    def sweep_output(*extra):
        code, out, _ = run_cli("sweep", "--trials", "1", *extra)
        assert code == 0
        return [
            line for line in out.splitlines() if not line.startswith("config-hash")
        ]

    coarse = sweep_output("--samples-per-leg", "400")
    assert coarse != sweep_output()
    assert coarse == sweep_output("--samples-per-leg", "400")
    printed = run_cli("sweep", "--samples-per-leg", "400", "--print-config")[1]
    config = json.loads(printed)
    assert config["sweep"]["samples_per_leg"] == 400
    assert config["protocol"] == DEFAULTS["protocol"]


def test_tdse_step_count_without_bound_exits_invalid_value():
    """A denormal dt makes the step count infinite; it is refused before
    any midpoint is allocated."""
    code, out, err = run_cli(
        "fringe", "--mode", "tdse", "--leg-time", "2", "--samples-per-leg", "400",
        "--dt", "5e-324",
    )
    assert code == 1
    assert out == ""
    summary = summary_of(err)
    assert summary["error"] == "invalid-value"
    assert "budget" in summary["message"]


def test_tdse_record_carries_xi():
    code, out, err = run_cli(
        "fringe", "--mode", "tdse", "--leg-time", "2", "--samples-per-leg", "400"
    )
    assert code == 0
    summary = summary_of(out)
    assert float(summary["xi"]) > 0.1  # leg time 2 drives past the warning
    keys = list(summary)
    assert keys.index("xi") == keys.index("leakage-up") + 1


# ------------------------------------------------------------------- fuzz

# The exit codes README.md documents, read from its "Exit codes:" paragraph.
README_EXIT_CODES = {
    int(code)
    for code in re.findall(
        r"`(\d+)` ",
        re.search(
            r"^Exit codes:.*?(?=\n\S*Non-finite)",
            (Path(__file__).resolve().parents[1] / "README.md").read_text(),
            re.S | re.M,
        )[0],
    )
}

_SPECIAL = ["nan", "inf", "-inf", "0", "-1", "1e308", "5e-324"]


def _number(low, high, wild):
    """A flag's value as text: a float in [low, high], or with ``wild`` also
    a special one."""
    plain = st.floats(low, high, allow_nan=False).map(repr)
    return st.one_of(plain, st.sampled_from(_SPECIAL)) if wild else plain


# In-range values per setting key, kept small enough that a drawn run takes
# milliseconds: short legs, few samples, trials and scan points.
_FUZZ_SIZES = {"samples_per_leg": 40, "phi_mw_points": 30, "trials": 3}
_FUZZ_RANGES = {
    "t": (0.2, 5.0), "tprime": (0.0, 0.5), "phi": (-2 * np.pi, 2 * np.pi),
    "leg_time": (0.5, 40.0), "zeeman_rate": (-0.1, 0.1),
}


def _fuzz_values(key, wild):
    if key == "phi":
        return st.one_of(
            _number(*_FUZZ_RANGES[key], wild),
            st.sampled_from(["pi/2", "-3pi/4", "2pi", "-2pi", "pi"]),
            st.builds("{}pi/{}".format, st.integers(-4, 4), st.integers(0, 4)),
        )
    if key in _FUZZ_SIZES:
        return st.integers(-1 if wild else 1, _FUZZ_SIZES[key]).map(str)
    if key == "seed":
        return st.integers(-1 if wild else 0, 2**32).map(str)
    if key == "dt":
        return st.sampled_from(
            ["1e-3", "0.5", "0", "-1", "nan", "inf", "5e-324"] if wild else ["1e-3"]
        )
    return _number(*_FUZZ_RANGES[key], wild)


@st.composite
def _fuzz_flags(draw):
    """A random subset of the SETTINGS flags, each with a drawn value
    (choices from the row's own), and always the size flags; half the runs
    draw only in-range numbers, the other half also special ones."""
    wild = draw(st.booleans())
    argv = []
    for _, key, _, flag, options in chernscope.cli.SETTINGS:
        if flag is None or key == "out":
            continue
        if key not in ("samples_per_leg", "trials") and not draw(st.booleans()):
            continue
        if options.get("action") is argparse.BooleanOptionalAction:
            argv.append(draw(st.sampled_from([flag, "--no-" + flag[2:]])))
        elif "choices" in options:
            argv.append(f"{flag}={draw(st.sampled_from(options['choices']))}")
        else:
            argv.append(f"{flag}={draw(_fuzz_values(key, wild))}")
    return argv


# Config values that most keys refuse: wrong types (null is dt's and out's
# default), JSON bools, non-finite numbers (json writes NaN and Infinity and
# reads them back), an integer too large for a float, and -1.
_WRONG_CONFIG_VALUES = [
    "1", [1], {"a": 1}, None, True, False, float("nan"), float("inf"),
    float("-inf"), 10**400, -1,
]


def _config_value(key, default, options):
    """An in-range JSON value of a SETTINGS key, as the flag fuzz draws it."""
    if key == "error_radii":
        return st.lists(st.floats(0.0, 0.003), max_size=4)
    if key == "out":
        return st.none()
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if isinstance(default, bool):
        return st.booleans()
    if key in _FUZZ_SIZES:
        return st.integers(1, _FUZZ_SIZES[key])
    if key == "seed":
        return st.integers(0, 2**32)
    if key == "dt":
        return st.sampled_from([None, 1e-3])
    return st.floats(*_FUZZ_RANGES[key])


@st.composite
def _fuzz_config(draw):
    """A --config file, as ("file", its text), ("unreadable", None) or
    ("none", None) for no --config.  The text holds a random subset of the
    SETTINGS keys; half the files draw only in-range values, the other half
    also wrong ones, an unknown key or section, a list of sections or text
    that is not JSON."""
    kind = draw(st.sampled_from(["none", "file", "file", "unreadable"]))
    if kind != "file":
        return kind, None
    wild = draw(st.booleans())
    data = {}
    for section, key, default, _, options in chernscope.cli.SETTINGS:
        if draw(st.booleans()):
            value = _config_value(key, default, options)
            if wild:
                value = st.one_of(value, st.sampled_from(_WRONG_CONFIG_VALUES))
            data.setdefault(section, {})[key] = draw(value)
    if wild:
        shape = draw(st.sampled_from(["tables"] * 3 + ["key", "section", "list", "text"]))
        if shape == "key":
            data.setdefault("model", {})["bogus"] = 1.0
        elif shape == "section":
            data["bogus"] = {}
        elif shape == "list":
            data = [data]
        elif shape == "text":
            return kind, "{"
    return kind, json.dumps(data)


def _config_argv(tmp_path_factory, config):
    """The --config flag of a drawn config, written to a fresh directory;
    an unreadable config is that directory itself."""
    kind, text = config
    if kind == "none":
        return []
    path = tmp_path_factory.mktemp("config")
    if kind == "file":
        path = path / "config.json"
        path.write_text(text)
    return [f"--config={path}"]


_NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def _assert_documented_outcome(argv, out_dir=None):
    """Run main on ``argv``: its exit code is one of README's, it prints no
    traceback, and its output (stdout, then any table file under
    ``out_dir``) holds no non-finite number after exit 0 and is empty
    otherwise."""
    err_stream = io.StringIO()
    with contextlib.redirect_stderr(err_stream):  # argparse writes here
        code, out, err = run_cli(*argv)
    err += err_stream.getvalue()
    if out_dir is not None and out_dir.exists():
        out += "".join(f.read_text() for f in sorted(out_dir.iterdir()))
    assert code in README_EXIT_CODES
    assert "Traceback" not in err and "Traceback" not in out
    if code == 0:
        assert _NON_FINITE.search(out) is None
    else:
        assert out == ""


@pytest.mark.parametrize("command", ["fringe", "detect", "sweep", "protocol", "zak"])
@given(flags=_fuzz_flags(), config=_fuzz_config())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_fuzzed_flags_exit_with_a_documented_code(
    tmp_path_factory, command, flags, config
):
    """Seeded fuzz of main over SETTINGS flags and --config files: every
    exit code is one of README's, no run prints a traceback, and a run that
    exits 0 prints no non-finite number."""
    _assert_documented_outcome(
        [command, *flags, *_config_argv(tmp_path_factory, config)]
    )


# Each size flag: (flag, smallest and largest in-range value drawn, budget).
# The in-range values stay small; the floor is 6 for --grid-n and 0 for
# --points-per-segment, and values past either end are drawn too.
_SIZE_FLAGS = {
    "bands": ("--points-per-segment", 0, 12,
              chernscope.lattice.MAX_PATH_POINTS_PER_SEGMENT),
    "chern": ("--grid-n", 6, 24, chernscope.topology.MAX_GRID_N),
    "curvature": ("--grid-n", 6, 24, chernscope.topology.MAX_GRID_N),
}


@pytest.mark.parametrize("command", sorted(_SIZE_FLAGS))
@given(
    flags=_fuzz_flags(), config=_fuzz_config(), data=st.data(), to_files=st.booleans()
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_fuzzed_size_flags_exit_with_a_documented_code(
    tmp_path_factory, command, flags, config, data, to_files
):
    """The fuzz of main over the commands with a size flag: a small path or
    grid, one below the floor or over the budget, a drawn --config file,
    and half the runs with --out into a fresh directory."""
    flag, low, high, budget = _SIZE_FLAGS[command]
    size = data.draw(st.one_of(
        st.integers(low, high),
        st.sampled_from([low - 1, -1, budget + 1, 10**9]),
    ))
    argv = [command, *flags, f"{flag}={size}", *_config_argv(tmp_path_factory, config)]
    out_dir = None
    if to_files:
        out_dir = tmp_path_factory.mktemp("out") / "tables"
        argv += ["--out", str(out_dir)]
    _assert_documented_outcome(argv, out_dir)
