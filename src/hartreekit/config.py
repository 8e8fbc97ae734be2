"""Strictly-keyed INI run configuration.

Each section is a dataclass whose fields are its keys, with their types and
defaults, and whose __post_init__ checks them; parse_config adds only the
checks that span sections.  Every violation is collected (not just the
first), because a silently ignored misspelling like "gama" or an unused key
would quietly change which side of a strict inequality an experiment sits on.
Presets ship as config files under hartreekit/presets.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import MISSING, asdict, dataclass, field, fields

from .evolve import EvolveConfig
from .fieldio import load_field
from .ground_state import GroundStateSettings, gamma_window_problem
from .potentials import _PARAMS, PotentialSpec
from .spectral import Grid, _check_section, suggest

MODES = ("groundstate", "classify", "evolve", "full_pipeline", "validate")
# the keys each initial-data kind reads; all but lambda are required
_READS = {
    "gaussian": ("amplitude", "width", "lambda"),
    "ground_state_scaled": ("scale", "lambda"),
    "file": ("file", "lambda"),
}
INITIAL_KINDS = tuple(_READS)


class ConfigError(Exception):
    """Carries every violation found in one parse pass."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class RunSettings:
    """The [run] keys."""

    mode: str | None = None
    out: str | None = None
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        _check_section([
            (self.mode is not None, "mode is required (or pass a CLI verb)"),
            ("mode", self.mode, MODES),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (self.threads >= 1, f"threads must be >= 1, got {self.threads}"),
        ])


@dataclass
class Model:
    """The [model] key; gamma's window depends on [grid] dim, so parse_config checks it."""

    gamma: float = 2.5


@dataclass
class InitialSpec:
    """The [initial_data] keys; lambda and file are the fields lam and path."""

    kind: str
    amplitude: float | None = None
    width: float | None = None
    scale: float | None = None
    lam: float = 0.0
    path: str | None = None

    def __post_init__(self):
        _check_section([("kind", self.kind, INITIAL_KINDS)])
        required = [key for key in _READS[self.kind] if key != "lambda"]
        missing = any(getattr(self, _FIELD["initial_data"].get(key, key)) is None for key in required)
        _check_section([
            ("width", self.width, "positive"),
            ("scale", self.scale, "positive"),
            ("amplitude", self.amplitude, "finite"),
            ("lambda", self.lam, "finite"),
            (not missing, f"kind {self.kind} requires {' and '.join(required)}"),
            (missing or self.kind != "file" or os.path.exists(self.path), f"file not found: {self.path}"),
        ])


SECTIONS = {
    "run": RunSettings,
    "grid": Grid,
    "model": Model,
    "potential": PotentialSpec,
    "initial_data": InitialSpec,
    "groundstate": GroundStateSettings,
    "evolve": EvolveConfig,
}
# config key -> field, where the two differ
_FIELD = {"initial_data": {"lambda": "lam", "file": "path"}}
# fields that are not keys: [evolve] takes grid and gamma from [grid] and
# [model], and a sampled potential's values are loaded from its file key
_NOT_KEYS = {"evolve": ("grid", "gamma"), "potential": ("values",)}


def _derive_schema() -> dict:
    """section -> key -> (type tag, default), read off the section dataclasses.

    The tag is the annotation's first type (annotations are strings here, as
    every module postpones them); a field without a default gets None."""
    schema = {}
    for section, cls in SECTIONS.items():
        key = {f: k for k, f in _FIELD.get(section, {}).items()}
        schema[section] = {
            key.get(f.name, f.name): (f.type.split(" |")[0], None if f.default is MISSING else f.default)
            for f in fields(cls)
            if f.name not in _NOT_KEYS.get(section, ())
        }
    schema["potential"]["file"] = ("str", None)
    return schema


_SCHEMA = _derive_schema()


@dataclass
class RunConfig:
    """A checked config: one dataclass per section, and gamma from [model]."""

    run: RunSettings
    grid: Grid
    gamma: float
    potential: PotentialSpec
    initial: InitialSpec | None
    evolve: EvolveConfig
    groundstate: GroundStateSettings = field(default_factory=GroundStateSettings)
    source_path: str | None = None

    def echo(self) -> dict:
        """The manifest's record of what ran: every section but the output directory."""
        run = {k: v for k, v in asdict(self.run).items() if k != "out"}
        # manifests have always named the initial-data file "path"
        initial = self.initial and {"lambda" if k == "lam" else k: v for k, v in asdict(self.initial).items()}
        return {
            **run,
            "grid": asdict(self.grid),
            "gamma": self.gamma,
            "potential": self.potential.to_dict(),
            "initial_data": initial,
            "evolve": asdict(self.evolve),
            "groundstate": asdict(self.groundstate),
        }


def _convert(raw, tag, where, violations):
    try:
        if tag == "bool":  # 1/0, true/false, yes/no, on/off
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return {"int": int, "float": float, "str": str.strip}[tag](raw)
    except (KeyError, ValueError):
        violations.append(f"{where}: cannot parse {raw!r} as {tag}")
        return None


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation.

    overrides maps (section, key) -> raw string, applied before validation
    (the CLI feeds --seed/--threads/--out/mode through here so the manifest
    echo always reflects what actually ran)."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:  # ConfigParser.read would skip a directory, running the defaults
        why = exc.reason if isinstance(exc, UnicodeDecodeError) else exc.strerror
        raise ConfigError([f"config file cannot be read: {path} ({why})"]) from exc
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from exc

    violations: list = []
    values: dict = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            violations.append(f"unknown section [{section}]{suggest(section, list(_SCHEMA))}")
            continue
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                violations.append(f"[{section}]: unknown key '{key}'{suggest(key, list(_SCHEMA[section]))}")
                continue
            values[(section, key)] = raw
    if overrides:
        values.update(overrides)

    # the given keys of each section as field arguments; None when one does not parse
    given: dict = {}
    for section, keys in _SCHEMA.items():
        kw = {}
        for key, (tag, _default) in keys.items():
            if (section, key) in values:
                kw[key] = _convert(values[(section, key)], tag, f"[{section}] {key}", violations)
        if None not in kw.values():
            given[section] = {_FIELD.get(section, {}).get(k, k): v for k, v in kw.items()}

    def build(section, **context):
        if section not in given:
            return None
        try:
            return SECTIONS[section](**given[section], **context)
        except ValueError as exc:
            violations.extend(f"[{section}]: {problem}" for problem in str(exc).split("; "))
            return None

    run, grid, model, groundstate = map(build, ("run", "grid", "model", "groundstate"))
    gamma = None if model is None else model.gamma
    evolve_cfg = None
    if grid is not None and model is not None:
        problem = gamma_window_problem(gamma, grid.dim)
        if problem:
            violations.append(f"[model]: {problem}")
        evolve_cfg = build("evolve", grid=grid, gamma=gamma)

    # a key the kind does not read would be dropped unseen; the section's
    # dataclass reports an unknown kind
    for section, reads, default_kind in (("potential", _PARAMS, PotentialSpec.kind), ("initial_data", _READS, None)):
        kind = values[(section, "kind")].strip() if (section, "kind") in values else default_kind
        for sec, key in values:
            if sec == section and key != "kind" and kind in reads and key not in reads[kind]:
                users = "/".join(k for k in reads if key in reads[k])
                violations.append(f"[{section}] {key}: only valid for kind {users}")

    initial = None
    initial_keys = [key for sec, key in values if sec == "initial_data"]
    if "kind" in initial_keys:
        initial = build("initial_data")
    elif initial_keys:
        violations.append(f"[initial_data] kind: required, since the section sets {', '.join(initial_keys)}")
    elif run is not None and run.mode in ("classify", "evolve", "full_pipeline"):
        violations.append(f"[initial_data] kind: required for mode {run.mode}")

    potential = None
    pkw = given.get("potential")
    if pkw is not None:
        kind = pkw.get("kind", PotentialSpec.kind)
        pfile = pkw.pop("file", None)
        if kind != "grid_sampled":
            potential = build("potential")
        elif pfile is None:
            violations.append("[potential]: kind grid_sampled requires file")
        elif grid is not None:
            try:
                fld, _ = load_field(pfile)
            except (OSError, ValueError) as exc:
                violations.append(f"[potential] file: {exc}")
            else:
                if fld.grid != grid:
                    violations.append(f"[potential] file: grid of {pfile} does not match [grid]")
                else:
                    potential = build("potential", values=fld.values.real)

    if violations:
        raise ConfigError(violations)
    return RunConfig(
        run=run,
        grid=grid,
        gamma=gamma,
        potential=potential,
        initial=initial,
        evolve=evolve_cfg,
        groundstate=groundstate,
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
