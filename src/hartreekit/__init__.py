"""Spectral toolkit for the focusing Hartree equation with an external potential.

    i u_t + Lap u - V u = -(|x|^{-gamma} * |u|^2) u

Ground states, sharp interpolation constants, blow-up/global-existence
threshold classification, and adaptive split-step dynamics on periodic
spectral grids.  The integrator is not re-exported here, so that
`hartreekit.evolve` stays the module: use `from hartreekit.evolve import evolve`.
"""

from .config import ConfigError, RunConfig, parse_config, preset_names, preset_path
from .evolve import EvolveConfig, TrajectoryRecord, detect_blowup, strang_step
from .fieldio import dump_field, load_field
from .functionals import FunctionalSnapshot, hv_norm_sq, mass, take_snapshot
from .ground_state import GroundState, pohozaev_residuals, solve_ground_state
from .potentials import PotentialSpec, eval_potential, kato_norm
from .runner import emit_plot_data, run
from .spectral import Field, Grid
from .threshold import DichotomyReport, check_condition_1_8, classify

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DichotomyReport",
    "EvolveConfig",
    "Field",
    "Grid",
    "GroundState",
    "PotentialSpec",
    "RunConfig",
    "FunctionalSnapshot",
    "TrajectoryRecord",
    "classify",
    "check_condition_1_8",
    "detect_blowup",
    "emit_plot_data",
    "eval_potential",
    "hv_norm_sq",
    "kato_norm",
    "load_field",
    "mass",
    "parse_config",
    "pohozaev_residuals",
    "preset_names",
    "preset_path",
    "run",
    "dump_field",
    "solve_ground_state",
    "strang_step",
    "take_snapshot",
    "__version__",
]
