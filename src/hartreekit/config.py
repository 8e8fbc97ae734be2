"""Strictly-keyed INI run configuration.

Every key is checked against a schema and every violation is collected (not
just the first), because a silently ignored misspelling like "gama" would
quietly change which side of a strict inequality an experiment sits on.
Presets ship as config files under hartreekit/presets.
"""

from __future__ import annotations

import configparser
import difflib
import math
import os
from dataclasses import asdict, dataclass, fields

from .evolve import EvolveConfig
from .potentials import KINDS as POTENTIAL_KINDS
from .potentials import PotentialSpec
from .spectral import Grid

MODES = ("groundstate", "classify", "evolve", "full_pipeline", "validate")
INITIAL_KINDS = ("gaussian", "ground_state_scaled", "file")

# section -> key -> (type tag, default); None default means "no default"
_SCHEMA = {
    "run": {
        "mode": ("str", None),
        "out": ("str", None),
        "seed": ("int", 0),
        "threads": ("int", 1),
    },
    "grid": {
        "dim": ("int", 3),
        "points": ("int", 64),
        "half_length": ("float", 10.0),
    },
    "model": {
        "gamma": ("float", 2.5),
    },
    "potential": {
        "kind": ("str", "zero"),
        "amplitude": ("float", None),
        "sigma": ("float", None),
        "radius": ("float", None),
        "exponent": ("float", None),
        "file": ("str", None),
    },
    "initial_data": {
        "kind": ("str", None),
        "amplitude": ("float", None),
        "width": ("float", None),
        "scale": ("float", None),
        "lambda": ("float", 0.0),
        "file": ("str", None),
    },
    "groundstate": {
        "omega": ("float", 1.0),
        "omega_mode": ("str", "fixed"),
        "tol": ("float", 1e-9),
        "max_iter": ("int", 2000),
    },
    # every [evolve] key and default is an EvolveConfig field; the type tag is its
    # annotation, a string such as "float" because evolve.py postpones annotations
    "evolve": {f.name: (f.type, f.default) for f in fields(EvolveConfig) if f.name not in ("grid", "gamma")},
}


class ConfigError(Exception):
    """Carries every violation found in one parse pass."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class InitialSpec:
    kind: str
    amplitude: float | None = None
    width: float | None = None
    scale: float | None = None
    lam: float = 0.0
    path: str | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "amplitude": self.amplitude,
            "width": self.width,
            "scale": self.scale,
            "lambda": self.lam,
            "path": self.path,
        }


@dataclass
class RunConfig:
    mode: str
    grid: Grid
    gamma: float
    potential: PotentialSpec
    initial: InitialSpec | None
    evolve: EvolveConfig
    omega: float = 1.0
    omega_mode: str = "fixed"
    gs_tol: float = 1e-9
    gs_max_iter: int = 2000
    out: str | None = None
    seed: int = 0
    threads: int = 1
    source_path: str | None = None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "grid": {"dim": self.grid.dim, "points": self.grid.points, "half_length": self.grid.half_length},
            "gamma": self.gamma,
            "potential": self.potential.to_dict(),
            "initial_data": self.initial.to_dict() if self.initial else None,
            "evolve": asdict(self.evolve),
            "groundstate": {
                "omega": self.omega,
                "omega_mode": self.omega_mode,
                "tol": self.gs_tol,
                "max_iter": self.gs_max_iter,
            },
            "seed": self.seed,
            "threads": self.threads,
        }


def _suggest(name, options):
    close = difflib.get_close_matches(name, options, n=1)
    return f" (did you mean '{close[0]}'?)" if close else ""


def _convert(raw, tag, where, violations):
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return raw.strip()
    except ValueError:
        violations.append(f"{where}: cannot parse {raw!r} as {tag}")
        return None


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation.

    overrides maps (section, key) -> raw string, applied before validation
    (the CLI feeds --seed/--threads/--out/mode through here so the manifest
    echo always reflects what actually ran)."""
    if not os.path.exists(path):
        raise ConfigError([f"config file not found: {path}"])
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from exc

    violations: list = []
    values: dict = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            violations.append(f"unknown section [{section}]{_suggest(section, list(_SCHEMA))}")
            continue
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                violations.append(
                    f"[{section}]: unknown key '{key}'{_suggest(key, list(_SCHEMA[section]))}"
                )
                continue
            values[(section, key)] = raw
    if overrides:
        values.update(overrides)

    def get(section, key):
        tag, default = _SCHEMA[section][key]
        if (section, key) in values:
            return _convert(values[(section, key)], tag, f"[{section}] {key}", violations)
        return default

    # written as `not 0 < x < inf` so that NaN fails too; each bad key is its own violation
    def positive_finite(section, key, x):
        if x is not None and not 0 < x < math.inf:
            violations.append(f"[{section}] {key}: must be positive and finite, got {x}")

    mode = get("run", "mode")
    if mode is not None and mode not in MODES:
        violations.append(f"[run] mode: '{mode}' is not one of {'/'.join(MODES)}{_suggest(mode, MODES)}")
    if mode is None:
        violations.append("[run] mode: required (or pass a CLI verb)")

    dim = get("grid", "dim")
    points = get("grid", "points")
    half_length = get("grid", "half_length")
    grid = None
    if dim is not None and points is not None and half_length is not None:
        try:
            grid = Grid(dim, points, half_length)
        except ValueError as exc:
            violations.append(f"[grid]: {exc}")

    gamma = get("model", "gamma")
    if gamma is not None and dim is not None and not (2.0 < gamma < min(4.0, float(dim))):
        violations.append(f"[model] gamma: must lie in (2, min(4, d)) = (2, {min(4.0, float(dim))}), got {gamma}")

    pkind = get("potential", "kind")
    potential = None
    if pkind is not None:
        if pkind not in POTENTIAL_KINDS:
            violations.append(
                f"[potential] kind: '{pkind}' is not one of {'/'.join(POTENTIAL_KINDS)}{_suggest(pkind, POTENTIAL_KINDS)}"
            )
        else:
            pkw = {}
            for par, dest in (("amplitude", "amplitude"), ("sigma", "sigma"), ("radius", "radius"), ("exponent", "exponent")):
                v = get("potential", par)
                if v is not None:
                    pkw[dest] = v
            pfile = get("potential", "file")
            if pkind == "grid_sampled":
                if pfile is None:
                    violations.append("[potential]: kind grid_sampled requires file")
                elif grid is not None:
                    try:
                        from .fieldio import load_field

                        fld, _ = load_field(pfile)
                        if fld.grid != grid:
                            violations.append(f"[potential] file: grid of {pfile} does not match [grid]")
                        else:
                            pkw["values"] = fld.values.real
                    except (OSError, ValueError) as exc:
                        violations.append(f"[potential] file: {exc}")
            elif pfile is not None:
                violations.append("[potential]: file is only valid for kind grid_sampled")
            try:
                potential = PotentialSpec(kind=pkind, **pkw)
            except (TypeError, ValueError) as exc:
                # PotentialSpec joins all of its problems with "; "
                violations.extend(f"[potential]: {problem}" for problem in str(exc).split("; "))

    initial = None
    ikind = get("initial_data", "kind")
    needs_initial = mode in ("classify", "evolve", "full_pipeline")
    if ikind is None:
        if needs_initial:
            violations.append(f"[initial_data] kind: required for mode {mode}")
    elif ikind not in INITIAL_KINDS:
        violations.append(
            f"[initial_data] kind: '{ikind}' is not one of {'/'.join(INITIAL_KINDS)}{_suggest(ikind, INITIAL_KINDS)}"
        )
    else:
        amp = get("initial_data", "amplitude")
        width = get("initial_data", "width")
        scale = get("initial_data", "scale")
        lam = get("initial_data", "lambda")
        ipath = get("initial_data", "file")
        positive_finite("initial_data", "width", width)
        positive_finite("initial_data", "scale", scale)
        for key, x in (("amplitude", amp), ("lambda", lam)):
            if x is not None and not math.isfinite(x):
                violations.append(f"[initial_data] {key}: must be finite, got {x}")
        if ikind == "gaussian":
            if amp is None or width is None:
                violations.append("[initial_data]: kind gaussian requires amplitude and width")
        elif ikind == "ground_state_scaled":
            if scale is None:
                violations.append("[initial_data]: kind ground_state_scaled requires scale")
        elif ikind == "file":
            if ipath is None:
                violations.append("[initial_data]: kind file requires file")
            elif not os.path.exists(ipath):
                violations.append(f"[initial_data] file: not found: {ipath}")
        initial = InitialSpec(kind=ikind, amplitude=amp, width=width, scale=scale, lam=lam or 0.0, path=ipath)

    omega_mode = get("groundstate", "omega_mode")
    if omega_mode not in ("fixed", "self_consistent"):
        violations.append(
            f"[groundstate] omega_mode: '{omega_mode}' is not fixed/self_consistent{_suggest(omega_mode or '', ['fixed', 'self_consistent'])}"
        )
    omega = get("groundstate", "omega")
    gs_tol = get("groundstate", "tol")
    gs_max_iter = get("groundstate", "max_iter")
    positive_finite("groundstate", "omega", omega)
    positive_finite("groundstate", "tol", gs_tol)
    if gs_max_iter is not None and gs_max_iter < 1:
        violations.append(f"[groundstate] max_iter: must be >= 1, got {gs_max_iter}")

    evolve_cfg = None
    if grid is not None and gamma is not None:
        ekw = {k: get("evolve", k) for k in _SCHEMA["evolve"]}
        if all(v is not None for v in ekw.values()):
            try:
                evolve_cfg = EvolveConfig(grid=grid, gamma=gamma, **ekw)
            except ValueError as exc:
                # EvolveConfig joins all of its problems with "; "
                violations.extend(f"[evolve]: {problem}" for problem in str(exc).split("; "))

    seed = get("run", "seed")
    threads = get("run", "threads")
    if threads is not None and threads < 1:
        violations.append(f"[run] threads: must be >= 1, got {threads}")
    if seed is not None and seed < 0:
        violations.append(f"[run] seed: must be >= 0, got {seed}")

    if violations:
        raise ConfigError(violations)

    return RunConfig(
        mode=mode,
        grid=grid,
        gamma=gamma,
        potential=potential,
        initial=initial,
        evolve=evolve_cfg,
        omega=omega,
        omega_mode=omega_mode,
        gs_tol=gs_tol,
        gs_max_iter=gs_max_iter,
        out=get("run", "out"),
        seed=seed,
        threads=threads,
        source_path=os.path.abspath(path),
    )


def preset_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "presets")


def preset_names() -> list:
    d = preset_dir()
    return sorted(os.path.splitext(f)[0] for f in os.listdir(d) if f.endswith(".cfg"))


def preset_path(name: str) -> str:
    p = os.path.join(preset_dir(), name + ".cfg")
    if not os.path.exists(p):
        raise ConfigError([f"unknown preset '{name}' (available: {', '.join(preset_names())})"])
    return p


def resolve_config_arg(value: str) -> str:
    """Accept either a config file path or a shipped preset name."""
    if os.path.exists(value):
        return value
    base = os.path.splitext(os.path.basename(value))[0]
    try:
        return preset_path(base)
    except ConfigError:
        raise ConfigError([f"config file not found: {value} (and no preset of that name)"])
