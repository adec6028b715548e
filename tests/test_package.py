"""Package surface: exported names exist, the README's quickstart runs, the
result records keep their contracts, and importing the CLI stays lean."""

import contextlib
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chernscope
from chernscope import (
    BerryField,
    ChernReport,
    ChernResult,
    FringeFit,
    FringeScan,
    ForceSpec,
    PhaseLedger,
    PlanDiagnostics,
    ProtocolStep,
    RobustnessRow,
    RobustnessTable,
    TdseDiagnostics,
    TrialRecord,
    TwoSiteReadout,
)
from chernscope.cli import RunConfig

MODULES = ["chernscope"] + [
    f"chernscope.{info.name}" for info in pkgutil.iter_modules(chernscope.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []


def test_readme_quickstart_prints_its_commented_results():
    """Each ``print(...)  # result`` line prints its comment; "..." stands
    for further digits."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    comments = [line.split("# ")[1] for line in code.splitlines() if "print(" in line]
    assert len(comments) == 3
    for line, comment in zip(out.getvalue().splitlines(), comments, strict=True):
        assert re.fullmatch(re.escape(comment).replace(r"\.\.\.", r"\d*"), line)


_FORCE = ForceSpec(np.array([1.0, 0.0]), np.array([0.0, -2.0]))
_REPORT = ChernReport(0.5, -0.25, 0.0795774715459477, 0, "alpha-", "alpha+")
_ROW = RobustnessRow(0.001, 2, 1.0, 0.02, 0.01, 2, 0.5, 0.25)
_TRIAL = TrialRecord(0.001, 1, 0.01, None, True, 0.5, 0.5, 0.25, 0.75)
_FORCE_REPR = (
    "ForceSpec(gradient_force=array([1., 0.]), lattice_force=array([ 0., -2.]))"
)
_ROW_REPR = (
    "RobustnessRow(radius=0.001, trials=2, success_rate=1.0, "
    "max_zak_error=0.02, mean_zak_error=0.01, n_ambiguous=2, "
    "mean_n_up_zero=0.5, mean_n_up_nominal=0.25)"
)
_TRIAL_REPR = (
    "TrialRecord(radius=0.001, index=1, zak_error=0.01, c_classified=None, "
    "success=True, n_up_zero_i=0.5, n_up_zero_ii=0.5, n_up_nominal_i=0.25, "
    "n_up_nominal_ii=0.75)"
)
_REPORT_REPR = (
    "ChernReport(phi_zak_i=0.5, phi_zak_ii=-0.25, c_estimate=0.0795774715459477, "
    "c_classified=0, pattern_i='alpha-', pattern_ii='alpha+', oracle_c=None)"
)

# (sample, field order, defaults, repr) of each result record; the orders,
# defaults and repr texts are those the records printed as frozen
# dataclasses.
RECORDS = [
    (
        BerryField(2, np.array([0.5, -0.25]), 0.25, 2.5),
        ("n", "plaquette_flux", "total", "margin"),
        {},
        "BerryField(n=2, plaquette_flux=array([ 0.5 , -0.25]), total=0.25, "
        "margin=2.5)",
    ),
    (
        ChernResult(1, 1e-12, 60, 2.9),
        ("value", "residual", "n", "margin"),
        {},
        "ChernResult(value=1, residual=1e-12, n=60, margin=2.9)",
    ),
    (_FORCE, ("gradient_force", "lattice_force"), {}, _FORCE_REPR),
    (
        ProtocolStep(
            "force_leg", duration=2.0, force=_FORCE, gradient_direction_flip=True
        ),
        ("kind", "duration", "force", "phi_mw", "gradient_direction_flip"),
        {"duration": 0.0, "force": None, "phi_mw": None,
         "gradient_direction_flip": False},
        f"ProtocolStep(kind='force_leg', duration=2.0, force={_FORCE_REPR}, "
        "phi_mw=None, gradient_direction_flip=True)",
    ),
    (
        PlanDiagnostics(True, 0.05, False),
        ("endpoints_reciprocal", "xi", "adiabatic_warning"),
        {},
        "PlanDiagnostics(endpoints_reciprocal=True, xi=0.05, "
        "adiabatic_warning=False)",
    ),
    (
        PhaseLedger(0.1, 0.2, 0.3, 0.4, 0.5, 0.0, True),
        ("geometric_down", "geometric_up", "matching", "dynamic_down",
         "dynamic_up", "zeeman", "with_echo"),
        {},
        "PhaseLedger(geometric_down=0.1, geometric_up=0.2, matching=0.3, "
        "dynamic_down=0.4, dynamic_up=0.5, zeeman=0.0, with_echo=True)",
    ),
    (
        TdseDiagnostics(0.5, 800, 0.05, 1e-13, 0.0001, 0.0002, 1.25),
        ("dt", "n_steps", "xi", "norm_drift", "leakage_down", "leakage_up",
         "extracted_phase"),
        {},
        "TdseDiagnostics(dt=0.5, n_steps=800, xi=0.05, norm_drift=1e-13, "
        "leakage_down=0.0001, leakage_up=0.0002, extracted_phase=1.25)",
    ),
    (
        FringeScan(np.array([0.0, 1.5]), np.array([0.25, 0.75]),
                   np.array([0.75, 0.25]), "adiabatic", "I"),
        ("phi_mw_values", "n_down", "n_up", "mode", "site", "ledger",
         "diagnostics"),
        {"ledger": None, "diagnostics": None},
        "FringeScan(phi_mw_values=array([0. , 1.5]), n_down=array([0.25, 0.75]), "
        "n_up=array([0.75, 0.25]), mode='adiabatic', site='I', ledger=None, "
        "diagnostics=None)",
    ),
    (
        FringeFit(0.5, 1.0, 0.0),
        ("phi_zak", "contrast", "rms_residual"),
        {},
        "FringeFit(phi_zak=0.5, contrast=1.0, rms_residual=0.0)",
    ),
    (
        _REPORT,
        ("phi_zak_i", "phi_zak_ii", "c_estimate", "c_classified", "pattern_i",
         "pattern_ii", "oracle_c"),
        {"oracle_c": None},
        _REPORT_REPR,
    ),
    (
        _TRIAL,
        ("radius", "index", "zak_error", "c_classified", "success",
         "n_up_zero_i", "n_up_zero_ii", "n_up_nominal_i", "n_up_nominal_ii"),
        {},
        _TRIAL_REPR,
    ),
    (
        _ROW,
        ("radius", "trials", "success_rate", "max_zak_error", "mean_zak_error",
         "n_ambiguous", "mean_n_up_zero", "mean_n_up_nominal"),
        {},
        _ROW_REPR,
    ),
    (
        RobustnessTable((_ROW,), (_TRIAL,), _REPORT),
        ("rows", "trials", "nominal"),
        {},
        f"RobustnessTable(rows=({_ROW_REPR},), trials=({_TRIAL_REPR},), "
        f"nominal={_REPORT_REPR})",
    ),
    (TwoSiteReadout(()), ("plans",), {}, "TwoSiteReadout(plans=())"),
    (
        RunConfig({"t": 1.0}, {"echo": True}, {}, {"mode": "adiabatic"},
                  {"seed": 0}, {"out": None}),
        ("model", "protocol", "scan", "mode", "sweep", "output"),
        {},
        "RunConfig(model={'t': 1.0}, protocol={'echo': True}, scan={}, "
        "mode={'mode': 'adiabatic'}, sweep={'seed': 0}, output={'out': None})",
    ),
]


@pytest.mark.parametrize(
    "record,fields,defaults,text", RECORDS,
    ids=[type(record).__name__ for record, *_ in RECORDS],
)
def test_record_keeps_its_fields_defaults_repr_and_is_read_only(
    record, fields, defaults, text
):
    cls = type(record)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    with pytest.raises(AttributeError):
        record.unknown_field = 0


# The package's dataclasses: the types whose __post_init__ validates their
# input.  Every result record is a NamedTuple, which costs less to define.
VALIDATING_DATACLASSES = [
    "chernscope.interferometer.SpinorState",
    "chernscope.lattice.ModelParams",
    "chernscope.protocol.ProtocolPlan",
    "chernscope.topology.KPath",
]

_IMPORT_REPORT = """
import dataclasses, json, sys
import chernscope.cli
package = [m for name, m in sorted(sys.modules.items())
           if name.split(".")[0] == "chernscope"]
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "dataclasses": [f"{m.__name__}.{name}" for m in package
                    for name, value in sorted(vars(m).items())
                    if isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == m.__name__],
}))
"""


def test_cli_import_loads_no_scipy_and_only_validating_dataclasses():
    """In a fresh interpreter, ``import chernscope.cli`` imports no scipy
    (numpy is the only runtime dependency) and defines no dataclass beyond
    the four validating types."""
    src = Path(chernscope.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_REPORT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(result.stdout)
    assert report["scipy"] == []
    assert report["dataclasses"] == VALIDATING_DATACLASSES
