"""Config parsing, preset resolution, CLI verbs, artifacts, and plot series."""

import ctypes
import gc
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft

from hartreekit.cli import main
from hartreekit.config import (
    _SCHEMA,
    ConfigError,
    parse_config,
    preset_names,
    preset_path,
    resolve_config_arg,
)
from hartreekit.evolve import EvolveConfig, Termination, TrajectoryRecord
from hartreekit.fieldio import MAGIC, dump_field, read_json
from hartreekit.functionals import take_snapshot
from hartreekit import runner
from hartreekit.runner import RunError, build_initial
from hartreekit.spectral import Field, Grid, center_of_mass
from hartreekit.threshold import mp_product

from conftest import GAMMA, traced_peak

VERDICTS = {"BlowUp", "Global", "BlowUpNegativeEnergy", "Indeterminate"}


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SMALL_GRID = """
[grid]
dim = 3
points = 32
half_length = 8.0
"""


def test_parse_minimal_and_defaults(tmp_path):
    path = write_cfg(tmp_path, "[run]\nmode = groundstate\n")
    cfg = parse_config(path)
    assert cfg.run.mode == "groundstate"
    assert cfg.grid == Grid(3, 64, 10.0)
    assert cfg.gamma == 2.5
    assert cfg.potential.kind == "zero"
    assert cfg.initial is None
    assert cfg.evolve.dt0 == 1e-3
    assert cfg.groundstate.omega == 1.0 and cfg.groundstate.omega_mode == "fixed"
    assert cfg.run.seed == 0 and cfg.run.threads == 1
    assert cfg.source_path == os.path.abspath(path)


def test_all_violations_collected_with_suggestions(tmp_path):
    path = write_cfg(
        tmp_path,
        """
[run]
mode = clasify
[grid]
dim = 3
points = 32
half_length = ten
[model]
gama = 2.5
[potentail]
kind = zero
""",
    )
    with pytest.raises(ConfigError) as ei:
        parse_config(path)
    v = ei.value.violations
    assert any("did you mean 'classify'" in s for s in v)
    assert any("unknown key 'gama'" in s and "did you mean 'gamma'" in s for s in v)
    assert any("[potentail]" in s and "did you mean 'potential'" in s for s in v)
    assert any("cannot parse 'ten'" in s for s in v)
    assert len(v) >= 4  # one pass reports everything, not just the first


def test_evolve_violations_reject_nan_and_list_each(tmp_path):
    # NaN and inf fail `not 0 < x < inf`; each bad [evolve] key is its own violation
    path = write_cfg(tmp_path, "[run]\nmode = groundstate\n[evolve]\nt_max = nan\ntol_step = -1\ndt0 = inf\n")
    with pytest.raises(ConfigError) as ei:
        parse_config(path)
    v = ei.value.violations
    assert "[evolve]: t_max must be positive and finite, got nan" in v
    assert "[evolve]: tol_step must be positive and finite, got -1.0" in v
    assert "[evolve]: dt0 must be positive and finite, got inf" in v
    assert len(v) == 3


def test_potential_rejects_nan_and_lists_each(tmp_path, capsys):
    # NaN passed a `<= 0` test and the amplitude went unchecked, so this
    # config used to fail late, in the Helmholtz solve
    path = write_cfg(
        tmp_path,
        "[run]\nmode = classify\n[grid]\npoints = 16\n"
        "[potential]\nkind = gaussian_bump\namplitude = nan\nsigma = nan\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 1.5\n",
    )
    with pytest.raises(ConfigError) as ei:
        parse_config(path)
    assert sorted(ei.value.violations) == [
        "[potential]: gaussian_bump: amplitude must be finite, got nan",
        "[potential]: gaussian_bump: sigma must be positive and finite, got nan",
    ]
    assert main(["classify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert all(v in err for v in ei.value.violations)
    assert not os.path.exists(tmp_path / "o")


def test_solver_settings_reject_nonfinite_and_list_each(tmp_path):
    # tol = inf would accept the solver's initial Gaussian as converged, and a
    # NaN amplitude makes NaN data; every bad key is its own violation, and
    # scale, which a gaussian does not read, is one twice
    path = write_cfg(
        tmp_path,
        "[run]\nmode = classify\n[groundstate]\ntol = inf\nomega = nan\nmax_iter = 0\n"
        "[initial_data]\nkind = gaussian\namplitude = nan\nwidth = nan\nlambda = inf\nscale = 0\n",
    )
    with pytest.raises(ConfigError) as ei:
        parse_config(path)
    assert sorted(ei.value.violations) == [
        "[groundstate]: max_iter must be >= 1, got 0",
        "[groundstate]: omega must be positive and finite, got nan",
        "[groundstate]: tol must be positive and finite, got inf",
        "[initial_data] scale: only valid for kind ground_state_scaled",
        "[initial_data]: amplitude must be finite, got nan",
        "[initial_data]: lambda must be finite, got inf",
        "[initial_data]: scale must be positive and finite, got 0.0",
        "[initial_data]: width must be positive and finite, got nan",
    ]


_POSITIVE = "{key} must be positive and finite, got {x}"
# every key a section's dataclass checks through spectral._check_section: the
# section, the key, the section's other keys, the violation for the value x,
# and which of 0, -1, nan and inf pass
_SECTION_CHECKS = [
    ("run", "mode", "", "mode '{x}' is not one of groundstate/classify/evolve/full_pipeline/validate", ()),
    ("run", "seed", "mode = groundstate", "seed must be >= 0, got {x}", ("0",)),
    ("run", "threads", "mode = groundstate", "threads must be >= 1, got {x}", ()),
    ("grid", "dim", "", "dim must be >= 1, got {x}", ()),
    ("grid", "points", "", "points must be an even integer >= 4, got {x}", ()),
    ("grid", "half_length", "", _POSITIVE, ()),
    ("groundstate", "omega", "", _POSITIVE, ()),
    ("groundstate", "omega_mode", "", "omega_mode '{x}' is not one of fixed/self_consistent", ()),
    ("groundstate", "tol", "", _POSITIVE, ()),
    ("groundstate", "max_iter", "", "max_iter must be >= 1, got {x}", ()),
    ("evolve", "dt0", "", _POSITIVE, ()),
    ("evolve", "t_max", "", _POSITIVE, ()),
    ("evolve", "tol_step", "", _POSITIVE, ()),
    ("evolve", "record_dt", "", _POSITIVE, ()),
    ("evolve", "blowup_grad_factor", "", "blowup_grad_factor must exceed 1, got {x}", ("inf",)),
    ("evolve", "record_stride", "", "record_stride must be >= 1, got {x}", ()),
    ("evolve", "blowup_tail_frac", "", "blowup_tail_frac must lie in (0, 1], got {x}", ()),
    ("initial_data", "kind", "", "kind '{x}' is not one of gaussian/ground_state_scaled/file", ()),
    ("initial_data", "amplitude", "kind = gaussian\nwidth = 1", "amplitude must be finite, got {x}", ("0", "-1")),
    ("initial_data", "width", "kind = gaussian\namplitude = 1", _POSITIVE, ()),
    ("initial_data", "scale", "kind = ground_state_scaled", _POSITIVE, ()),
    ("initial_data", "lambda", "kind = gaussian\namplitude = 1\nwidth = 1",
     "lambda must be finite, got {x}", ("0", "-1")),
    (
        "potential", "kind", "",
        "kind '{x}' is not one of zero/gaussian_bump/smooth_compact_bump/inverse_poly/ball_indicator/grid_sampled", (),
    ),
    ("potential", "amplitude", "kind = gaussian_bump", "gaussian_bump: amplitude must be finite, got {x}", ("0", "-1")),
    ("potential", "sigma", "kind = gaussian_bump", "gaussian_bump: " + _POSITIVE, ()),
    ("potential", "radius", "kind = ball_indicator", "ball_indicator: " + _POSITIVE, ()),
    ("potential", "exponent", "kind = inverse_poly", "inverse_poly: exponent must be a positive integer, got {x}", ()),
]


@pytest.mark.parametrize(
    "section, key, others, violation, passes", _SECTION_CHECKS, ids=[f"{row[0]}-{row[1]}" for row in _SECTION_CHECKS]
)
def test_section_checks_name_each_bad_value(tmp_path, section, key, others, violation, passes):
    # an int key cannot parse nan or inf, which is its own violation
    tag = _SCHEMA[section][key][0]
    run = "" if section == "run" else "[run]\nmode = groundstate\n"
    for raw in ("0", "-1", "nan", "inf"):
        path = write_cfg(tmp_path, f"{run}[{section}]\n{others}\n{key} = {raw}\n")
        if raw in passes:
            parse_config(path)
            continue
        if tag == "int" and raw in ("nan", "inf"):
            want = f"[{section}] {key}: cannot parse '{raw}' as int"
        else:
            x = {"int": int, "float": float, "str": str}[tag](raw)
            want = f"[{section}]: " + violation.format(key=key, x=x)
        with pytest.raises(ConfigError) as ei:
            parse_config(path)
        assert ei.value.violations == [want], raw


def test_gamma_window_and_grid_checks(tmp_path):
    path = write_cfg(tmp_path, "[run]\nmode = groundstate\n[model]\ngamma = 3.5\n")
    with pytest.raises(ConfigError, match=r"\(2, 3.0\)"):
        parse_config(path)
    path = write_cfg(tmp_path, "[run]\nmode = groundstate\n[grid]\npoints = -4\n")
    with pytest.raises(ConfigError, match=r"\[grid\]"):
        parse_config(path)
    # an infinite box passed `not half_length > 0` and died later in riesz_multiplier
    path = write_cfg(
        tmp_path,
        "[run]\nmode = classify\n[grid]\npoints = 16\nhalf_length = inf\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 1.5\n",
    )
    with pytest.raises(ConfigError) as ei:
        parse_config(path)
    assert ei.value.violations == ["[grid]: half_length must be positive and finite, got inf"]
    assert main(["classify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    # every [grid] problem is reported, not just the first
    path = write_cfg(tmp_path, "[run]\nmode = groundstate\n[grid]\ndim = 0\npoints = 3\nhalf_length = -1\n")
    with pytest.raises(ConfigError) as ei:
        parse_config(path)
    assert ei.value.violations == [
        "[grid]: dim must be >= 1, got 0",
        "[grid]: points must be an even integer >= 4, got 3",
        "[grid]: half_length must be positive and finite, got -1.0",
    ]


def test_initial_data_requirements(tmp_path):
    base = "[run]\nmode = evolve\n" + SMALL_GRID
    with pytest.raises(ConfigError, match="required for mode evolve"):
        parse_config(write_cfg(tmp_path, base))
    with pytest.raises(ConfigError, match="requires amplitude and width"):
        parse_config(write_cfg(tmp_path, base + "[initial_data]\nkind = gaussian\n"))
    with pytest.raises(ConfigError, match="requires scale"):
        parse_config(write_cfg(tmp_path, base + "[initial_data]\nkind = ground_state_scaled\n"))
    with pytest.raises(ConfigError, match="not found"):
        parse_config(write_cfg(tmp_path, base + "[initial_data]\nkind = file\nfile = /no/such.fld\n"))
    gaussian = base + "[initial_data]\nkind = gaussian\namplitude = {}\nwidth = {}\n"
    for amp, width, match in (
        ("1", "-1", "width must be positive"),
        ("1", "inf", "width must be positive and finite"),
        ("nan", "1", "amplitude must be finite"),
    ):
        with pytest.raises(ConfigError, match=match):
            parse_config(write_cfg(tmp_path, gaussian.format(amp, width)))
    with pytest.raises(ConfigError, match="scale must be positive and finite"):
        parse_config(write_cfg(tmp_path, base + "[initial_data]\nkind = ground_state_scaled\nscale = nan\n"))
    cfg = parse_config(
        write_cfg(tmp_path, base + "[initial_data]\nkind = gaussian\namplitude = 0.4\nwidth = 1.2\nlambda = -0.3\n")
    )
    assert cfg.initial.kind == "gaussian"
    assert cfg.initial.lam == -0.3


def test_initial_data_keys_the_kind_does_not_read_are_rejected(tmp_path):
    # both used to parse, exit 0 and echo a key that nothing read
    base = "[run]\nmode = {}\n[grid]\npoints = 16\n[initial_data]\n"
    path = write_cfg(tmp_path, base.format("groundstate") + "amplitude = 0.3\nwidth = 1.0\n")
    with pytest.raises(ConfigError) as ei:
        parse_config(path)
    assert ei.value.violations == ["[initial_data] kind: required, since the section sets amplitude, width"]
    assert main(["groundstate", "--config", path, "--out", str(tmp_path / "a")]) == 2
    path = write_cfg(tmp_path, base.format("evolve") + "kind = gaussian\namplitude = 0.3\nwidth = 1.0\nscale = 5.0\n")
    with pytest.raises(ConfigError) as ei:
        parse_config(path)
    assert ei.value.violations == ["[initial_data] scale: only valid for kind ground_state_scaled"]
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "b")]) == 2
    path = write_cfg(tmp_path, base.format("evolve") + "kind = file\nfile = x.fld\nwidth = 1.0\nlambda = 0.1\n")
    with pytest.raises(ConfigError) as ei:
        parse_config(path)
    assert ei.value.violations == ["[initial_data] width: only valid for kind gaussian", "[initial_data]: file not found: x.fld"]


def test_potential_file_key_rules(tmp_path):
    base = "[run]\nmode = groundstate\n" + SMALL_GRID
    with pytest.raises(ConfigError, match="only valid for kind grid_sampled"):
        parse_config(write_cfg(tmp_path, base + "[potential]\nkind = zero\nfile = x.fld\n"))
    with pytest.raises(ConfigError, match="grid_sampled requires file"):
        parse_config(write_cfg(tmp_path, base + "[potential]\nkind = grid_sampled\n"))


def _nan_field(tmp_path, grid):
    """A field file on grid holding a Gaussian with one NaN sample."""
    vals = 0.3 * np.exp(-grid.r_sq / 2.0)
    vals[0, 0, 0] = np.nan
    path = str(tmp_path / "nan.fld")
    dump_field(path, Field(grid, vals), {})
    return path


def test_potential_file_with_a_nan_is_a_config_violation(tmp_path, capsys):
    # the NaN potential used to run to exit 0: every attempt was accepted with
    # err 0, since ref_sq > 0 is false for NaN
    pfile = _nan_field(tmp_path, Grid(3, 16, 10.0))
    path = write_cfg(
        tmp_path,
        "[run]\nmode = full_pipeline\n[grid]\npoints = 16\n"
        f"[potential]\nkind = grid_sampled\nfile = {pfile}\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 1.5\n[evolve]\nt_max = 0.01\n",
    )
    with pytest.raises(ConfigError) as ei:
        parse_config(path)
    assert ei.value.violations == [f"[potential] file: {pfile}: the payload holds non-finite values (NaN or inf)"]
    assert main(["pipeline", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert pfile in capsys.readouterr().err


def test_initial_data_file_with_a_nan_stops_naming_the_file(tmp_path, capsys):
    # it used to stop in recenter with "cannot convert float NaN to integer"
    ufile = _nan_field(tmp_path, Grid(3, 16, 10.0))
    path = write_cfg(
        tmp_path,
        f"[run]\nmode = evolve\n[grid]\npoints = 16\n[initial_data]\nkind = file\nfile = {ufile}\n[evolve]\nt_max = 0.01\n",
    )
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: initial_data: {ufile}: the payload holds non-finite values (NaN or inf)\n"


# .fld files that are not whole dumps, and the error load_field names in each
_MALFORMED = {
    "short_preamble": (MAGIC + b"\x10\x00", "error('unpack requires a buffer of 8 bytes')"),
    "no_grid_keys": (MAGIC + struct.pack("<Q", 19) + b'{"kind": "initial"}', "KeyError('dim')"),
    "header_length_past_any_read": (
        MAGIC + struct.pack("<Q", 2**64 - 1) + b"{}", "OverflowError(\"cannot fit 'int' into an index-sized integer\")"
    ),
    # read whole, this header's payload would take 512 GiB and raise a MemoryError
    "points_past_the_payload": (
        MAGIC + struct.pack("<Q", 46) + b'{"dim": 3, "points": 4096, "half_length": 8.0}' + bytes(64),
        "ValueError(\"the header's 68719476736 points need 549755813888 bytes, the file holds 64\")",
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_potential_file_is_a_config_violation(tmp_path, capsys, case):
    # struct.error and KeyError escaped parse_config, which exited 1 with a traceback
    data, why = _MALFORMED[case]
    pfile = tmp_path / "v.fld"
    pfile.write_bytes(data)
    path = write_cfg(
        tmp_path, f"[run]\nmode = groundstate\n[grid]\npoints = 16\n[potential]\nkind = grid_sampled\nfile = {pfile}\n"
    )
    with pytest.raises(ConfigError) as ei:
        parse_config(path)
    assert ei.value.violations == [f"[potential] file: {pfile}: malformed field dump ({why})"]
    assert main(["groundstate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_initial_data_file_ends_the_run_with_a_manifest(tmp_path, capsys, case):
    # the same errors escaped run: a traceback, exit 1 and no manifest.json
    data, why = _MALFORMED[case]
    ufile = tmp_path / "u.fld"
    ufile.write_bytes(data)
    path = write_cfg(
        tmp_path, f"[run]\nmode = evolve\n[grid]\npoints = 16\n[initial_data]\nkind = file\nfile = {ufile}\n"
    )
    out = tmp_path / "o"
    assert main(["evolve", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: initial_data: {ufile}: malformed field dump ({why})\n"
    manifest = read_json(out / "manifest.json")
    assert manifest["files"] == {} and manifest["inputs"]["initial_data"]["path"] == str(ufile)


def test_potential_keys_the_kind_does_not_read_are_rejected(tmp_path):
    # these used to parse cleanly and vanish from the manifest echo
    base = "[run]\nmode = groundstate\n" + SMALL_GRID + "[potential]\n"
    with pytest.raises(ConfigError) as ei:
        parse_config(write_cfg(tmp_path, base + "kind = zero\namplitude = 3.0\n"))
    assert ei.value.violations == [
        "[potential] amplitude: only valid for kind gaussian_bump/smooth_compact_bump/inverse_poly/ball_indicator"
    ]
    with pytest.raises(ConfigError) as ei:
        parse_config(write_cfg(tmp_path, base + "kind = gaussian_bump\namplitude = 0.3\nradius = 2.0\n"))
    assert ei.value.violations == ["[potential] radius: only valid for kind smooth_compact_bump/ball_indicator"]


def test_inverse_poly_exponent_is_a_positive_integer(tmp_path):
    base = "[run]\nmode = groundstate\n" + SMALL_GRID + "[potential]\nkind = inverse_poly\namplitude = 0.3\n"
    for raw in ("1.5", "inf"):
        with pytest.raises(ConfigError) as ei:
            parse_config(write_cfg(tmp_path, base + f"exponent = {raw}\n"))
        assert ei.value.violations == [f"[potential] exponent: cannot parse '{raw}' as int"]
    assert parse_config(write_cfg(tmp_path, base + "exponent = 2\n")).potential.exponent == 2
    from hartreekit.potentials import PotentialSpec

    for exponent in (1.5, math.inf, math.nan, 0):
        with pytest.raises(ValueError, match="exponent must be a positive integer"):
            PotentialSpec(kind="inverse_poly", amplitude=0.3, exponent=exponent)


# the parent revision's hand-written key table; (type tag, default), None for no default
_PARENT_SCHEMA = {
    "run": {"mode": ("str", None), "out": ("str", None), "seed": ("int", 0), "threads": ("int", 1)},
    "grid": {"dim": ("int", 3), "points": ("int", 64), "half_length": ("float", 10.0)},
    "model": {"gamma": ("float", 2.5)},
    "potential": {
        "kind": ("str", "zero"), "amplitude": ("float", None), "sigma": ("float", None),
        "radius": ("float", None), "exponent": ("float", None), "file": ("str", None),
    },
    "initial_data": {
        "kind": ("str", None), "amplitude": ("float", None), "width": ("float", None),
        "scale": ("float", None), "lambda": ("float", 0.0), "file": ("str", None),
    },
    "groundstate": {"omega": ("float", 1.0), "omega_mode": ("str", "fixed"), "tol": ("float", 1e-9), "max_iter": ("int", 2000)},
    "evolve": {
        "dt0": ("float", 1e-3), "t_max": ("float", 1.0), "tol_step": ("float", 1e-6),
        "blowup_grad_factor": ("float", 20.0), "blowup_tail_frac": ("float", 0.1),
        "record_stride": ("int", 5), "linear": ("bool", False), "record_dt": ("float", None),
    },
}
# the table left these four to PotentialSpec, whose defaults then applied
_POTENTIAL_DEFAULTS = {"amplitude": 0.0, "sigma": 1.0, "radius": 1.0, "exponent": 1}


def test_derived_schema_matches_the_parent_table():
    from hartreekit.config import _SCHEMA

    assert list(_SCHEMA) == list(_PARENT_SCHEMA)
    # the parent table's 33 keys less [evolve] adaptive, removed with the fixed-step path
    assert sum(len(keys) for keys in _SCHEMA.values()) == 32
    for section, keys in _PARENT_SCHEMA.items():
        assert list(_SCHEMA[section]) == list(keys), section
        for key, (tag, default) in keys.items():
            if section == "potential" and key in _POTENTIAL_DEFAULTS:
                default = _POTENTIAL_DEFAULTS[key]
            # the one declared change: exponent is integer-valued, so it parses as int
            if (section, key) == ("potential", "exponent"):
                tag = "int"
            assert _SCHEMA[section][key] == (tag, default), (section, key)


def test_readme_config_block_lists_the_schema():
    from hartreekit.config import _SCHEMA

    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    block = readme.split("## Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    listed: dict = {}
    for line in block.splitlines():
        line = line.split(";", 1)[0].strip()
        if line.startswith("["):
            section = listed.setdefault(line.strip("[]"), [])
        elif "=" in line:
            section.append(line.split("=", 1)[0].strip())
    assert {section: sorted(keys) for section, keys in listed.items()} == {
        section: sorted(keys) for section, keys in _SCHEMA.items()
    }


def test_overrides_reach_the_parsed_config(tmp_path):
    path = write_cfg(tmp_path, "[run]\nmode = groundstate\nseed = 1\n")
    cfg = parse_config(path, overrides={("run", "seed"): "7", ("run", "out"): "/tmp/x"})
    assert cfg.run.seed == 7
    assert cfg.run.out == "/tmp/x"


def test_config_that_cannot_be_read_is_rejected(tmp_path, capsys):
    # ConfigParser.read skips a path it cannot open, so a directory ran the
    # defaults and died writing its manifest: a traceback, exit 1, no manifest
    with pytest.raises(ConfigError) as ei:
        parse_config(str(tmp_path))
    assert ei.value.violations == [f"config file cannot be read: {tmp_path} (Is a directory)"]
    out = tmp_path / "o"
    assert main(["validate", "--config", str(tmp_path), "--out", str(out)]) == 2
    assert "cannot be read" in capsys.readouterr().err
    assert not out.exists()
    # a file that is not text escaped as a UnicodeDecodeError traceback
    binary = tmp_path / "run.cfg"
    binary.write_bytes(b"\xff\xfe[run]\n")
    with pytest.raises(ConfigError) as ei:
        parse_config(str(binary))
    assert ei.value.violations == [f"config file cannot be read: {binary} (invalid start byte)"]


def test_preset_resolution(tmp_path):
    names = preset_names()
    assert {"blowup-demo", "global-demo", "validate"} <= set(names)
    p = resolve_config_arg("validate")
    assert p == preset_path("validate") and os.path.exists(p)
    own = write_cfg(tmp_path, "[run]\nmode = groundstate\n")
    assert resolve_config_arg(own) == own
    with pytest.raises(ConfigError, match="no preset of that name"):
        resolve_config_arg("not-a-preset-or-file")
    for name in names:
        cfg = parse_config(preset_path(name))
        assert cfg.run.mode in ("validate", "full_pipeline")


def test_missing_config_path_runs_no_preset(tmp_path, monkeypatch, capsys):
    # a path that does not exist ran the shipped preset of its file name
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    for value in (str(tmp_path / "no" / "such" / "blowup-demo.cfg"), "blowup-demo.cfg"):
        with pytest.raises(ConfigError, match="no preset of that name"):
            resolve_config_arg(value)
        assert main(["pipeline", "--config", value, "--out", str(out)]) == 2
        assert f"config file not found: {value} (and no preset of that name)" in capsys.readouterr().err
        assert not out.exists()


def test_build_initial_families(grid32):
    from hartreekit.config import InitialSpec, RunConfig, RunSettings
    from hartreekit.potentials import PotentialSpec

    def mk(spec):
        return RunConfig(
            run=RunSettings(mode="evolve"), grid=grid32, gamma=GAMMA, potential=PotentialSpec(kind="zero"),
            initial=spec, evolve=EvolveConfig(grid=grid32, gamma=GAMMA),
        )

    u = build_initial(mk(InitialSpec(kind="gaussian", amplitude=0.4, width=1.2, lam=0.3)))
    c = grid32.points // 2
    assert abs(u.values[c, c, c]) == pytest.approx(0.4, rel=1e-12)
    # quadratic phase: arg(u) = lam r^2 away from the center
    idx = (c + 3, c, c)
    r_sq = grid32.r_sq[idx]
    assert np.angle(u.values[idx]) == pytest.approx((0.3 * r_sq + math.pi) % (2 * math.pi) - math.pi, abs=1e-12)
    with pytest.raises(RunError, match="requires a solved ground state"):
        build_initial(mk(InitialSpec(kind="ground_state_scaled", scale=0.5)))


def test_build_initial_from_file_recenters(tmp_path, grid32):
    from hartreekit.config import InitialSpec, RunConfig, RunSettings
    from hartreekit.potentials import PotentialSpec

    off = sum((x - s) ** 2 for x, s in zip(grid32.coords, (1.0, 0.0, -0.5)))
    f = Field(grid32, 0.5 * np.exp(-off / 2.0))
    p = str(tmp_path / "u0.fld")
    dump_field(p, f, {})
    cfg = RunConfig(
        run=RunSettings(mode="evolve"), grid=grid32, gamma=GAMMA, potential=PotentialSpec(kind="zero"),
        initial=InitialSpec(kind="file", path=p), evolve=EvolveConfig(grid=grid32, gamma=GAMMA),
    )
    u = build_initial(cfg)
    # cell-resolution recentering: residual offset is at most half a cell
    before = max(abs(v) for v in center_of_mass(f))
    after = max(abs(v) for v in center_of_mass(u))
    assert before > 0.9
    assert after <= 0.5 * grid32.cell_volume ** (1.0 / 3.0) + 1e-12
    # and a mismatched grid is rejected
    cfg.grid = Grid(3, 48, 8.0)
    cfg.evolve = EvolveConfig(grid=cfg.grid, gamma=GAMMA)
    with pytest.raises(RunError, match="does not match the run grid"):
        build_initial(cfg)


def test_cli_rejects_bad_config(tmp_path, capsys):
    assert main(["groundstate", "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err
    assert "configuration rejected" in err
    path = write_cfg(tmp_path, "[run]\nmode = groundstate\n[model]\ngama = 2.5\n")
    assert main(["groundstate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "did you mean 'gamma'" in capsys.readouterr().err


def test_removed_adaptive_key_is_rejected(tmp_path, capsys):
    # every run is adaptive; an old config that still sets the key is told so
    path = write_cfg(tmp_path, "[run]\nmode = groundstate\n[evolve]\nadaptive = false\n")
    with pytest.raises(ConfigError) as ei:
        parse_config(path)
    assert [v.split(" (")[0] for v in ei.value.violations] == ["[evolve]: unknown key 'adaptive'"]
    assert main(["groundstate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'adaptive'" in capsys.readouterr().err


def test_cli_requires_out(tmp_path, capsys):
    path = write_cfg(tmp_path, "[run]\nmode = groundstate\n" + SMALL_GRID)
    assert main(["groundstate", "--config", path]) == 2
    assert "no output directory" in capsys.readouterr().err


def test_cli_out_that_is_a_file(tmp_path, capsys):
    # os.makedirs raised FileExistsError through a traceback
    path = write_cfg(tmp_path, "[run]\nmode = groundstate\n" + SMALL_GRID)
    out = tmp_path / "taken"
    out.write_text("kept")
    assert main(["groundstate", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot create output directory {out} (File exists)\n"
    assert out.read_text() == "kept"


class FakeLibc:
    """Stands in for ctypes.CDLL(None): mallopt records its calls and returns `answer`."""

    def __init__(self, answer):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return answer

        self.mallopt = mallopt


@pytest.fixture
def fresh_heap_policy():
    runner._keep_heap.cache_clear()
    yield
    runner._keep_heap.cache_clear()


def run_groundstate_twice(tmp_path):
    path = write_cfg(tmp_path, "[run]\nmode = groundstate\n[grid]\npoints = 16\nhalf_length = 8.0\n")
    for k in range(2):
        assert runner.run(parse_config(path, overrides={("run", "out"): str(tmp_path / f"run{k}")})) == 0


@pytest.mark.parametrize("answer", [1, 0], ids=["accepted", "refused"])
def test_run_sets_the_heap_policy_once_per_process(tmp_path, monkeypatch, fresh_heap_policy, answer):
    # M_TRIM_THRESHOLD (-1) at 1 GiB and M_MMAP_THRESHOLD (-3) at 32 MiB, once
    # for two runs; a mallopt that refuses (returns 0) changes nothing
    opened = []

    def cdll(name):
        assert name is None
        opened.append(FakeLibc(answer))
        return opened[-1]

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    run_groundstate_twice(tmp_path)
    assert len(opened) == 1
    assert opened[0].calls == [(-1, 2**30), (-3, 2**25)]


@pytest.mark.parametrize("libc", ["no mallopt", "no libc"])
def test_run_without_mallopt_is_a_silent_no_op(tmp_path, monkeypatch, capsys, fresh_heap_policy, libc):
    def cdll(name):
        if libc == "no libc":
            raise OSError("cannot open the process's own symbols")
        return object()  # a libc without mallopt, as where there is no glibc

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    run_groundstate_twice(tmp_path)
    assert capsys.readouterr().err == ""


def test_fft_workers_hold_for_the_run_only(tmp_path, monkeypatch):
    # --threads is the FFT worker count of that run: the ground-state solve
    # sees it, the caller sees scipy's default again once the run returns, and
    # the artifacts do not depend on it, for V = 0 and on the pinned branch,
    # whose Richardson solve, Kato norms and octant with V the V = 0 run skips
    seen = []
    solve = runner.solve_ground_state

    def recording(*args, **kwargs):
        seen.append(scipy.fft.get_workers())
        return solve(*args, **kwargs)

    monkeypatch.setattr(runner, "solve_ground_state", recording)
    for branch, potential in (("free", ""), ("pinned", "kind = gaussian_bump\namplitude = -0.5\nsigma = 1.0\n")):
        path = write_cfg(
            tmp_path,
            "[run]\nmode = full_pipeline\n[grid]\npoints = 16\nhalf_length = 8.0\n"
            f"[potential]\n{potential}[initial_data]\nkind = gaussian\namplitude = 0.3\nwidth = 1.5\n"
            "[evolve]\nt_max = 0.05\n",
            name=f"{branch}.cfg",
        )
        outs = {}
        for threads in (1, 2):
            outs[threads] = tmp_path / f"{branch}{threads}"
            assert main(["pipeline", "--config", path, "--out", str(outs[threads]), "--threads", str(threads)]) == 0
            assert seen.pop() == threads
            assert scipy.fft.get_workers() == 1
        assert read_json(outs[1] / "groundstate_report.json")["branch"] == branch
        names = sorted(os.listdir(outs[1]))
        assert names == sorted(os.listdir(outs[2])) and "trajectory.csv" in names
        for name in names:
            if name != "manifest.json":
                assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), (branch, name)


def test_cli_groundstate_run(tmp_path):
    out = str(tmp_path / "gs_run")
    path = write_cfg(tmp_path, "[run]\nmode = groundstate\n" + SMALL_GRID)
    assert main(["groundstate", "--config", path, "--out", out]) == 0
    names = set(os.listdir(out))
    assert {"ground_state.fld", "ground_state.fld.meta.json", "groundstate_report.json", "manifest.json"} <= names
    rep = read_json(os.path.join(out, "groundstate_report.json"))
    assert rep["converged"] and rep["residual"] <= 1.01e-9
    assert rep["richardson_iterations"] == 0  # V = 0: the solve is the Fourier inverse
    # the radial first profile at V = 0 is even on every axis
    assert rep["transform_basis"] == "even_octant"
    assert rep["pohozaev"]["max_abs"] < 1.0
    man = read_json(os.path.join(out, "manifest.json"))
    assert man["schema"] == "hartreekit-run-v1"
    # manifest checksums every artifact except itself
    assert set(man["files"]) == names - {"manifest.json"}
    assert all(len(h) == 64 for h in man["files"].values())
    assert man["inputs"]["config"]["git_blob_sha1"]
    assert man["config"]["mode"] == "groundstate"


def test_cli_classify_run(tmp_path):
    out = str(tmp_path / "cls_run")
    path = write_cfg(
        tmp_path,
        "[run]\nmode = classify\n" + SMALL_GRID +
        "[initial_data]\nkind = ground_state_scaled\nscale = 0.5\n",
    )
    assert main(["classify", "--config", path, "--out", out]) == 0
    rep = read_json(os.path.join(out, "classify_report.json"))
    assert rep["verdict"] in VERDICTS
    assert rep["branch"] == "free"
    assert rep["me"] < 1.0
    assert rep["subthreshold"]["verdict"] in ("GlobalScattersPredicted", "BlowUpPredicted", "NotApplicable")


@pytest.fixture(scope="module")
def evolve_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("evo")
    out = str(tmp / "run")
    path = write_cfg(
        tmp,
        "[run]\nmode = evolve\n" + SMALL_GRID +
        "[initial_data]\nkind = gaussian\namplitude = 0.3\nwidth = 1.2\n"
        "[evolve]\ndt0 = 1e-3\nt_max = 0.05\ntol_step = 1e-5\nrecord_stride = 2\n",
    )
    assert main(["evolve", "--config", path, "--out", out]) == 0
    return out


def test_cli_evolve_artifacts(evolve_run):
    names = set(os.listdir(evolve_run))
    assert {"trajectory.csv", "evolve_report.json", "manifest.json"} <= names
    rep = read_json(os.path.join(evolve_run, "evolve_report.json"))
    assert rep["termination"]["kind"] == "Completed"
    assert rep["n_snapshots"] >= 5
    assert rep["n_step_attempts"] == rep["n_accepted_steps"] + rep["n_rejected_steps"]
    assert rep["virial_consistency"]["i1_gap"] < 1e-3
    # a centred Gaussian at V = 0 is even on every axis
    assert rep["transform_basis"] == "even_octant"


def test_cli_plot_data_roundtrip(evolve_run, capsys):
    assert main(["plot-data", evolve_run]) == 0
    printed = capsys.readouterr().out.strip().split("\n")
    plots = os.path.join(evolve_run, "plots")
    assert sorted(printed) == sorted(os.path.join(plots, f) for f in os.listdir(plots))
    traj = [
        l for l in open(os.path.join(evolve_run, "trajectory.csv")).read().strip().split("\n")
        if l and not l.startswith("#")
    ]
    header, data = traj[0].split(","), traj[1:]
    for col in header[1:]:
        series = open(os.path.join(plots, f"plot_{col}.csv")).read().strip().split("\n")
        assert series[0] == f"t,{col}"
        assert len(series) - 1 == len(data)
    prod = open(os.path.join(plots, "plot_product.csv")).read().strip().split("\n")
    assert prod[0] == "t,product" and len(prod) - 1 == len(data)
    im, ip = header.index("mass"), header.index("p_value")
    # the product has one implementation, so every row is mp_product's value to the bit
    for line, row in zip(prod[1:], data):
        vals = [float(x) for x in row.split(",")]
        assert [float(x) for x in line.split(",")] == [vals[0], mp_product(vals[im], vals[ip], GAMMA)]
    # still exactly one manifest in the tree after plot emission
    manifests = [
        os.path.join(r, n) for r, _d, ns in os.walk(evolve_run) for n in ns if n == "manifest.json"
    ]
    assert len(manifests) == 1


def test_cli_plot_data_errors(tmp_path, capsys):
    assert main(["plot-data", str(tmp_path / "nowhere")]) == 2
    assert "run directory not found" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["plot-data", str(empty)]) == 2
    assert "no trajectory.csv" in capsys.readouterr().err
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "trajectory.csv").write_text("a,b\n1,2\n")
    assert main(["plot-data", str(bad)]) == 2
    assert "not a diagnostics CSV" in capsys.readouterr().err
    # the product series needs the run's gamma, which only the manifest records
    from hartreekit.functionals import CSV_COLUMNS

    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "trajectory.csv").write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(["1.0"] * len(CSV_COLUMNS)) + "\n")
    assert main(["plot-data", str(bare)]) == 2
    assert "no manifest.json" in capsys.readouterr().err
    # a manifest without the gamma exited 1 with KeyError: 'gamma'
    (bare / "manifest.json").write_text('{"config": {}}')
    assert main(["plot-data", str(bare)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bare / 'manifest.json'}: the run's gamma cannot be read (KeyError('gamma'))\n"
    assert not os.path.exists(bare / "plots")
    # a short row raised IndexError after some series files were written, and
    # a token that is no number was reported without the file or the line
    n = len(CSV_COLUMNS)
    row = ",".join(["1.0"] * n)
    (bare / "manifest.json").write_text('{"config": {"gamma": 2.5}}')
    for bad_row, problem in ((row[:-4], f"{n - 1} fields, the header has {n}"),
                             (row[:-3] + "abc", "could not convert string to float: 'abc'")):
        (bare / "trajectory.csv").write_text(",".join(CSV_COLUMNS) + "\n" + row + "\n" + bad_row + "\n")
        assert main(["plot-data", str(bare)]) == 2
        assert capsys.readouterr().err == f"error: {bare / 'trajectory.csv'}: line 3: {problem}\n"
        assert not os.path.exists(bare / "plots")


def test_cli_pipeline_run(tmp_path):
    out = str(tmp_path / "pipe")
    path = write_cfg(
        tmp_path,
        "[run]\nmode = full_pipeline\n" + SMALL_GRID +
        "[initial_data]\nkind = gaussian\namplitude = 0.8\nwidth = 1.5\nlambda = -0.5\n"
        "[evolve]\ndt0 = 1e-3\nt_max = 0.5\ntol_step = 1e-5\nblowup_grad_factor = 3.0\n"
        "blowup_tail_frac = 0.35\nrecord_stride = 2\n",
    )
    assert main(["pipeline", "--config", path, "--out", out]) == 0
    names = set(os.listdir(out))
    assert {
        "ground_state.fld", "groundstate_report.json", "classify_report.json",
        "trajectory.csv", "evolve_report.json", "comparison.csv",
        "pipeline_report.json", "manifest.json",
    } <= names
    rep = read_json(os.path.join(out, "pipeline_report.json"))
    assert rep["verdict"] in VERDICTS
    assert rep["consistent"] in ("consistent", "inconsistent", "inconclusive")
    assert rep["termination"]["kind"] in ("Completed", "BlowupDetected", "ResolutionExhausted")
    assert rep["product_ground_state"] > 0
    classify_rep = read_json(os.path.join(out, "classify_report.json"))
    assert rep["product_ground_state"] == classify_rep["cond_mp"]["product_gs"]
    lines = open(os.path.join(out, "comparison.csv")).read().strip().split("\n")
    assert lines[0] == "verdict,termination,consistent,note"
    assert lines[1].split(",")[0] == rep["verdict"]


def test_indeterminate_note_names_both_sides_in_one_field(tmp_path, grid32):
    # the two sides of an Indeterminate verdict can fail disjoint hypotheses;
    # the note names each side's, and the row keeps the header's 4 fields
    u = Field(grid32, 0.3 * np.exp(-grid32.r_sq / 4.0) + 0j)
    record = TrajectoryRecord(
        [take_snapshot(u, 0.0, None, None, GAMMA)], Termination("BlowupDetected", 0.0), EvolveConfig(grid32, GAMMA)
    )
    report = SimpleNamespace(
        verdict="Indeterminate", gamma=GAMMA, cond_mp={"product_gs": 1.0}, f_x0=float("nan"),
        failed_blowup=["weight_sign_nonnegative"],
        failed_global=["I1_nonnegative", "weight_sign_nonpositive", "mp_product_below"],
    )
    runner.stage_compare(str(tmp_path), report, record)
    header, row = open(tmp_path / "comparison.csv").read().strip().split("\n")
    assert len(header.split(",")) == len(row.split(",")) == 4
    assert row.split(",")[3] == (
        "blowup fails weight_sign_nonnegative / global fails I1_nonnegative;weight_sign_nonpositive;mp_product_below"
    )


# comparison.csv's consistency for each verdict and the termination its run ended with
_CONSISTENCY = [
    ("BlowUp", "BlowupDetected", "consistent"),
    ("BlowUp", "Completed", "inconsistent"),
    ("BlowUp", "ResolutionExhausted", "inconclusive"),
    ("BlowUpNegativeEnergy", "BlowupDetected", "consistent"),
    ("BlowUpNegativeEnergy", "Completed", "inconsistent"),
    ("BlowUpNegativeEnergy", "ResolutionExhausted", "inconclusive"),
    ("Global", "BlowupDetected", "inconsistent"),
    ("Global", "Completed", "consistent"),
    ("Global", "ResolutionExhausted", "inconclusive"),
    ("Indeterminate", "BlowupDetected", "inconclusive"),
    ("Indeterminate", "Completed", "inconclusive"),
    ("Indeterminate", "ResolutionExhausted", "inconclusive"),
]


@pytest.mark.parametrize("verdict, end, consistency", _CONSISTENCY)
def test_consistency_of_each_verdict_and_run_end(verdict, end, consistency):
    assert runner._consistency(verdict, end) == consistency


@pytest.mark.parametrize("initial", ["gaussian", "file"])
def test_zero_mass_initial_data_ends_the_classify_stage(tmp_path, capsys, initial):
    # classify's ValueError escaped stage_classify: run printed
    # "error: full_pipeline: initial data has zero mass" and a traceback
    if initial == "gaussian":
        data = "kind = gaussian\namplitude = 0.0\nwidth = 1.5\n"
    else:
        grid = Grid(3, 16, 8.0)
        ufile = str(tmp_path / "zero.fld")
        dump_field(ufile, Field(grid, np.zeros(grid.shape, dtype=complex)), {})
        data = f"kind = file\nfile = {ufile}\n"
    path = write_cfg(tmp_path, "[run]\nmode = full_pipeline\n[grid]\npoints = 16\nhalf_length = 8.0\n[initial_data]\n" + data)
    out = tmp_path / "o"
    assert main(["pipeline", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: classify: initial data has zero mass\n"
    files = read_json(out / "manifest.json")["files"]
    assert "groundstate_report.json" in files and "classify_report.json" not in files


def test_evolve_refuses_data_that_reaches_the_box_edge(tmp_path, capsys):
    # a Gaussian of width 4 at L 10 holds 1.02e-03 of its mass on the outer
    # 10% shell, far past the evolve stage's limit: no step is taken
    out = tmp_path / "o"
    path = write_cfg(
        tmp_path, "[run]\nmode = evolve\n[grid]\npoints = 16\n[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 4.0\n"
    )
    assert main(["evolve", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: evolve: initial data carries 1.02e-03 of its mass in the outer 10% shell "
        "(limit 1e-08); enlarge the box or narrow the data\n"
    )
    assert os.listdir(out) == ["manifest.json"]


def test_ball_pipeline_warns_once(tmp_path):
    # classify and evolve both sample a ball's weight; the warning's location
    # is its own line in potentials, so a fresh interpreter's default filter
    # shows it once per process, not once per calling line
    path = write_cfg(
        tmp_path,
        "[run]\nmode = full_pipeline\n[grid]\npoints = 16\nhalf_length = 8.0\n"
        "[potential]\nkind = ball_indicator\namplitude = 0.4\nradius = 2.0\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 1.5\n[evolve]\nt_max = 0.01\n",
    )
    src = os.path.dirname(os.path.dirname(runner.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys; from hartreekit.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "pipeline", "--config", path, "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("UserWarning: ball_indicator") == 1, proc.stderr


def test_pipeline_reads_a_sampled_potential_from_its_file(tmp_path, capsys):
    # the manifest records a sampled V by its values' hash and shape; a file
    # on another grid is a config violation, reported before anything runs
    grid = Grid(3, 16, 10.0)
    vals = -0.3 * np.exp(-grid.r_sq / 2.0)
    pfile = str(tmp_path / "v.fld")
    dump_field(pfile, Field(grid, vals), {})
    text = (
        "[run]\nmode = full_pipeline\n[grid]\npoints = 16\n"
        f"[potential]\nkind = grid_sampled\nfile = {pfile}\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 1.5\n[evolve]\nt_max = 0.01\n"
    )
    out = tmp_path / "o"
    assert main(["pipeline", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["config"]["potential"] == {
        "kind": "grid_sampled", "sha256": hashlib.sha256(vals.tobytes()).hexdigest(), "shape": [16, 16, 16],
    }
    assert read_json(out / "groundstate_report.json")["branch"] == "pinned"
    other = write_cfg(tmp_path, text.replace("points = 16", "points = 32"), name="other.cfg")
    assert main(["pipeline", "--config", other, "--out", str(tmp_path / "o2")]) == 2
    assert f"[potential] file: grid of {pfile} does not match [grid]" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o2")


def test_nonnegative_potential_pipeline_uses_the_free_reference(tmp_path):
    # V >= 0 has no negative part, so classify's reference is the free profile;
    # the ground-state stage used to solve with V and classify then raised
    out = str(tmp_path / "pipe")
    path = write_cfg(
        tmp_path,
        "[run]\nmode = full_pipeline\n[grid]\npoints = 16\n"
        "[potential]\nkind = gaussian_bump\namplitude = 0.3\nsigma = 1.0\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 1.5\n"
        "[evolve]\nt_max = 0.01\n",
    )
    assert main(["pipeline", "--config", path, "--out", out]) == 0
    assert read_json(os.path.join(out, "classify_report.json"))["branch"] == "free"
    gs_rep = read_json(os.path.join(out, "groundstate_report.json"))
    assert (gs_rep["branch"], gs_rep["reference_potential"]) == ("free", "zero")
    assert read_json(os.path.join(out, "ground_state.fld.meta.json"))["potential"] == {"kind": "zero"}
    assert read_json(os.path.join(out, "manifest.json"))["config"]["potential"]["kind"] == "gaussian_bump"


def test_pipeline_computes_admissibility_once(tmp_path, monkeypatch):
    # a well has a nonzero negative part: one admissibility check is two Kato norms
    import hartreekit.potentials as potentials

    calls = []
    kato_norm = potentials.kato_norm
    monkeypatch.setattr(potentials, "kato_norm", lambda v: calls.append(1) or kato_norm(v))
    out = str(tmp_path / "pipe")
    path = write_cfg(
        tmp_path,
        "[run]\nmode = full_pipeline\n" + SMALL_GRID +
        "[potential]\nkind = gaussian_bump\namplitude = -0.3\nsigma = 1.0\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 1.5\n"
        "[evolve]\nt_max = 0.01\n",
    )
    assert main(["pipeline", "--config", path, "--out", out]) == 0
    assert len(calls) == 2
    gs_rep = read_json(os.path.join(out, "groundstate_report.json"))
    assert (gs_rep["branch"], gs_rep["reference_potential"]) == ("pinned", "gaussian_bump")
    assert gs_rep["richardson_iterations"] > 0
    gs_adm = gs_rep["admissibility"]
    assert gs_adm == read_json(os.path.join(out, "classify_report.json"))["admissibility"]
    assert gs_adm["kato_norm_negative_part"] > 0
    assert gs_adm["weight_band_error"] is None  # an analytic kind


def test_noncoercive_well_fails_the_groundstate_stage(tmp_path, capsys):
    # -Lap + V is not coercive for this well: the iteration settles on a
    # profile with ||Q||_HV^2 <= 0, whose Weinstein quotient used to raise a
    # bare ValueError that the run reported with a traceback
    out = str(tmp_path / "pipe")
    path = write_cfg(
        tmp_path,
        "[run]\nmode = full_pipeline\n[grid]\npoints = 16\nhalf_length = 8.0\n"
        "[potential]\nkind = gaussian_bump\namplitude = -5.0\nsigma = 1.0\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 1.5\n"
        "[evolve]\nt_max = 0.01\n",
    )
    assert main(["pipeline", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: groundstate: ground-state form norm")
    assert "the well is too strong" in err
    assert "Traceback" not in err
    assert os.listdir(out) == ["manifest.json"]


def test_disagreeing_me_and_x0_end_the_classify_run(tmp_path, capsys):
    # the 32^3 reference at L 16 is too coarse for this Gaussian: its ME reads
    # above 1 while x0 reads below 0, which is an arithmetic failure of the
    # reference, reported as a run error with a manifest, not a crash
    out = str(tmp_path / "cls")
    path = write_cfg(
        tmp_path,
        "[run]\nmode = classify\n[grid]\npoints = 32\nhalf_length = 16.0\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.12857142857142856\nwidth = 2.0\nlambda = 0.18\n",
    )
    assert main(["classify", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: classify: ME > 1 and x0 > 0 must agree")
    assert "Traceback" not in err
    files = read_json(os.path.join(out, "manifest.json"))["files"]
    assert {"ground_state.fld", "ground_state.fld.meta.json", "groundstate_report.json"} <= set(files)
    assert "classify_report.json" not in files


def test_validate_holds_one_gates_arrays_at_a_time(tmp_path):
    # each gate's grid arrays die with the gate, the library reads its inputs
    # without copying them, a full-grid reader holds one transient array
    # beyond its inputs, even Riesz convolutions (the Kato norms, the origin
    # gate) run on the octant, evolve's t = 0 snapshot reads the octant, and
    # ||grad u||^2, the Parseval and gradient sums, the dual form's terms and
    # the bump are formed in their transforms', derivatives' and samples' own
    # memory, so the suite's traced peak is about 3.5 complex grid arrays at
    # 32^3; with those temporaries it read 3.9, with the full-grid t = 0
    # snapshot 5.3, with the readers' extra arrays 6.4, and keeping every
    # finished gate's arrays alive 10.9
    path = write_cfg(tmp_path, "[run]\nmode = validate\nseed = 20301\n[grid]\npoints = 32\nhalf_length = 10.0\n")
    cfg = parse_config(path)
    # the grid caches a run's first stage fills, as the benchmark fills them before timing
    cfg.grid.r_sq, cfg.grid.k_sq, cfg.grid.riesz_multiplier(cfg.gamma)
    # the 32^3 grid fails the Pohozaev and Kato-ball gates by resolution; only memory is tested here
    assert traced_peak(lambda: runner.run_validate(cfg, str(tmp_path)), cfg.grid) <= 3.5
    # the Kato norms' gamma = d - 2 multiplier exists on the octant only
    assert ("riesz", "periodic", 1.0) not in cfg.grid._cache and ("riesz", "even_octant", 1.0) in cfg.grid._cache


def test_validate_transforms_by_class(tmp_path):
    """Counter gate on every transform of run_validate at 32^3, L 10, as validate_report.json's transforms.

    Full grid: parseval_mass, the ||grad u||^2 that gradient_routes_agree
    and virial_dual_form share, the ten kato_sandwich trials and the
    mass-drift evolve's fftn(u0) take one fftn each (13; 14 while the two
    gates took ||grad u||^2 each).  Each derivative
    is one transform pair along its axis: gradient_routes_agree's complex
    gradient takes 3 fft and 3 ifft, and each of the ten variational
    trials' snapshots 3 and 3, for I' and ||grad u||^2 with no fftn (33 and
    33).  virial_dual_form's gradient of the real |u|^2 takes 3 rfft and 3
    irfft.  The ten variational snapshots' P is one rfftn each, and the
    ground state's full-grid residual takes two real pairs (12 rfftn, 2
    irfftn).  The ground state's solve, the Kato norms, the origin gate and
    the whole mass-drift evolve run on the even octant: the evolve's state
    is read off its fftn(u0), and both of its snapshots' I' take one matrix
    pass per axis (EvenOctant.derivative, 6 octant_derivative); the ground
    state's real profile takes none.  With evolve's t = 0 snapshot on the
    full grid the counts read 36, 36 and 13."""
    path = write_cfg(tmp_path, "[run]\nmode = validate\nseed = 20301\n[grid]\npoints = 32\nhalf_length = 10.0\n")
    runner.run_validate(parse_config(path), str(tmp_path))
    assert read_json(os.path.join(tmp_path, "validate_report.json"))["transforms"] == {
        "fftn": 13, "fft": 33, "ifft": 33, "rfftn": 12, "irfftn": 2, "rfft": 3, "irfft": 3,
        "octant_forward": 114, "octant_inverse": 107, "octant_derivative": 6,
    }


def _zero_filled_random_field(grid, rng, amplitude=0.5):
    """smooth_random_field's values as they were first built: three full-grid bumps added to zeros."""
    vals = np.zeros(grid.shape, dtype=complex)
    for _ in range(3):
        c = rng.uniform(-0.2 * grid.half_length, 0.2 * grid.half_length, size=grid.dim)
        w = rng.uniform(0.8, 1.8)
        amp = amplitude * rng.uniform(0.4, 1.0)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        bump = amp * np.exp(1j * ph)
        for x, ci in zip(grid.coords, c):
            bump = bump * np.exp(-((x - ci) ** 2) / (2.0 * w * w))
        vals += bump
    return vals


@pytest.mark.parametrize(
    "grid",
    [
        Grid(3, 16, 10.0), Grid(3, 32, 10.0), Grid(3, 32, 100.0), Grid(3, 44, 10.0), Grid(3, 48, 10.0),
        Grid(3, 64, 10.6), Grid(2, 16, 10.0), Grid(1, 16, 10.0),
    ],
    ids=["16-L10", "32-L10", "32-L100", "44-L10", "48-L10", "64-L10.6", "2d-16", "1d-16"],
)
def test_smooth_random_field_has_the_bytes_of_the_zero_filled_sum(grid):
    # the bumps' sum formed an eighth of the planes at a time keeps every
    # byte, signed zeros included: at L 100 the bumps underflow, and seed 1
    # leaves a -0.0 in all three at some points, which adding to zeros made
    # 0.0.  44^3 is eight blocks of 5 and a short last one of 4
    for seed in range(5):
        got = runner.smooth_random_field(grid, np.random.default_rng(seed)).values
        assert got.tobytes() == _zero_filled_random_field(grid, np.random.default_rng(seed)).tobytes()


def test_smooth_random_field_holds_no_second_grid_array():
    # the sum is formed an eighth of the planes at a time, so above its output
    # the field holds one block's buffer and the bumps' partial products: 1.19
    # complex grid arrays at 64^3, where the whole-grid products read 2.08
    grid = Grid(3, 64, 10.6)
    grid.coords  # the grid's coordinates are cached on first use
    assert traced_peak(lambda: runner.smooth_random_field(grid, np.random.default_rng(0)), grid) <= 1.3


def test_sha256_reads_a_file_larger_than_a_chunk(tmp_path):
    path = tmp_path / "blob"
    data = np.random.default_rng(3).bytes(5 * (1 << 16) + 7)
    path.write_bytes(data)
    assert runner._sha256(str(path)) == hashlib.sha256(data).hexdigest()


def test_pipeline_from_a_config_file_leaves_no_file_unclosed(tmp_path, monkeypatch):
    # an unclosed file warns when it is collected, inside a finalizer, where
    # an error goes to sys.unraisablehook instead of the caller
    unraised = []
    monkeypatch.setattr(sys, "unraisablehook", unraised.append)
    path = write_cfg(
        tmp_path,
        "[run]\nmode = full_pipeline\n[grid]\npoints = 16\nhalf_length = 8.0\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 1.5\n[evolve]\nt_max = 0.01\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main(["pipeline", "--config", path, "--out", str(tmp_path / "o")]) == 0
        gc.collect()
    assert [str(u.exc_value) for u in unraised] == []
    assert "config" in read_json(tmp_path / "o" / "manifest.json")["inputs"]


def test_validate_deterministic_reruns(tmp_path):
    path = write_cfg(tmp_path, "[run]\nmode = validate\nseed = 5\n" + SMALL_GRID)
    outs = []
    for tag in ("v1", "v2"):
        out = str(tmp_path / tag)
        code = main(["validate", "--config", path, "--out", out, "--seed", "5", "--threads", "1"])
        assert code in (0, 1)
        outs.append(out)
    for name in ("validate_table.csv", "validate_report.json", "manifest.json"):
        b1 = open(os.path.join(outs[0], name), "rb").read()
        b2 = open(os.path.join(outs[1], name), "rb").read()
        assert b1 == b2, f"{name} differs between identical reruns"
    rep = read_json(os.path.join(outs[0], "validate_report.json"))
    assert rep["seed"] == 5
    table = open(os.path.join(outs[0], "validate_table.csv")).read().strip().split("\n")
    assert table[0] == "check,status,metric,threshold"
    statuses = [l.split(",")[1] for l in table[1:]]
    assert all(s in ("PASS", "FAIL") for s in statuses)
    assert rep["failures"] == statuses.count("FAIL")


def test_validate_without_a_converged_ground_state(tmp_path, capsys):
    # a solve cut at one iteration fails its own gate and takes the six
    # gates that read the solve with it; the rest of the suite still runs,
    # and stderr names why the solve failed, as run does for the other modes
    out = str(tmp_path / "v")
    path = write_cfg(tmp_path, "[run]\nmode = validate\n[grid]\npoints = 32\n[groundstate]\nmax_iter = 1\n")
    assert main(["validate", "--config", path, "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: groundstate: iteration did not converge (residual 5.712e-01 after 1 steps)"
    ]
    table = open(os.path.join(out, "validate_table.csv")).read().strip().split("\n")
    assert "ground_state_converged,FAIL,nan,0.0" in table
    checks = [row.split(",")[0] for row in table[1:]]
    solve_gates = {
        "ground_state_residual", "pohozaev_residuals", "cauchy_schwarz_gap_nonneg",
        "interpolation_bound", "weinstein_maximality", "threshold_identities",
    }
    assert not solve_gates & set(checks)
    assert checks[-3:] == ["kato_ball_closed_form", "kato_sandwich", "mass_drift_rate"]


def test_validate_nan_trial_reads_fail(tmp_path, monkeypatch):
    # a NaN defect on any trial must fail its gate; Python's max(0.0, nan) is 0.0
    import hartreekit.runner as runner

    monkeypatch.setattr(runner, "kato_sandwich_excess", lambda v, u: math.nan)
    out = str(tmp_path / "v")
    path = write_cfg(tmp_path, "[run]\nmode = validate\n" + SMALL_GRID)
    assert main(["validate", "--config", path, "--out", out]) == 1
    rows = {r["check"]: r for r in read_json(os.path.join(out, "validate_report.json"))["checks"]}
    assert rows["kato_sandwich"]["status"] == "FAIL"
    assert math.isnan(rows["kato_sandwich"]["metric"])


def test_presets_engage_the_even_octant():
    """The benchmark counts no DCT, so a fall back to the periodic grid would
    pass it unseen.  Every preset's evolve data and potential, and its
    ground-state first profile with the reference potential, must be exactly
    even, which puts them on the octant (validate evolves its drift datum in
    its bump).  Nothing is evolved or solved here."""
    from hartreekit.ground_state import _initial_profile
    from hartreekit.potentials import eval_potential
    from hartreekit.spectral import transform_basis

    for name in ("blowup-demo", "global-demo", "validate"):
        cfg = parse_config(preset_path(name))
        grid = cfg.grid
        v = None if cfg.potential.is_zero else eval_potential(cfg.potential, grid).values
        assert transform_basis(grid, _initial_profile(grid), v).name == "even_octant", name
        if cfg.run.mode == "validate":
            u0, v = runner._drift_datum(grid), eval_potential(runner._VALIDATE_BUMP, grid).values
        else:
            u0 = build_initial(cfg)
        assert transform_basis(grid, u0.values, v).name == "even_octant", name
