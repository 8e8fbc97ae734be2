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
from .functionals import FunctionalSnapshot, energy, hv_norm_sq, mass, take_snapshot, weinstein
from .ground_state import GroundState, pohozaev_residuals, solve_ground_state
from .potentials import PotentialSpec, eval_potential, kato_norm
from .runner import emit_plot_data, run
from .spectral import (
    Field,
    Grid,
    gradient,
    integrate,
    laplacian,
    riesz_convolve,
    set_fft_workers,
)
from .threshold import DichotomyReport, check_condition_1_8, classify, classify_subthreshold

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
    "classify_subthreshold",
    "check_condition_1_8",
    "detect_blowup",
    "emit_plot_data",
    "energy",
    "eval_potential",
    "gradient",
    "hv_norm_sq",
    "integrate",
    "kato_norm",
    "laplacian",
    "load_field",
    "mass",
    "parse_config",
    "pohozaev_residuals",
    "preset_names",
    "preset_path",
    "riesz_convolve",
    "run",
    "dump_field",
    "set_fft_workers",
    "solve_ground_state",
    "strang_step",
    "take_snapshot",
    "weinstein",
    "__version__",
]
