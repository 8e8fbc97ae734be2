"""The benchmark's workloads: a hartreekit run config per (workload, seed) and
the results a correct run of it must report.

The pipeline workloads jitter one initial-data parameter by a relative amount
of at most JITTER, drawn from the seed.  The band is narrow on purpose: the
collapse scenario's energy drift at detection swings by a factor of ten under
a 0.2% amplitude change, so a wider band would turn the seed into the main
source of spread in `energy_drift`.  Every seed still gives different input
bytes, and so a different artifact digest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JITTER = 1e-5

_COLLAPSE = """\
# blowup-demo at 32^3: incoming chirp on a broad Gaussian, V = 0
[run]
mode = full_pipeline
seed = {seed}
threads = 1

[grid]
dim = 3
points = 32
half_length = 10.0

[model]
gamma = 2.5

[potential]
kind = zero

[initial_data]
kind = gaussian
amplitude = {value!r}
width = 1.99
lambda = -0.1422

[evolve]
dt0 = 1e-3
t_max = 3.0
tol_step = 1e-5
blowup_grad_factor = 6.0
blowup_tail_frac = 0.35
record_stride = 2
"""

_DISPERSAL = """\
# global-demo at 32^3, stopped at t = 2.5, before the wave reaches the box edge
[run]
mode = full_pipeline
seed = {seed}
threads = 1

[grid]
dim = 3
points = 32
half_length = 16.0

[model]
gamma = 2.5

[potential]
kind = zero

[initial_data]
kind = gaussian
amplitude = {value!r}
width = 3.0
lambda = 0.08

[evolve]
dt0 = 1e-3
t_max = 2.5
tol_step = 1e-6
record_stride = 5
"""

_VALIDATE = """\
# the validate preset; the benchmark seed is the suite's seed
[run]
mode = validate
seed = {seed}
threads = 1

[grid]
dim = 3
points = 64
half_length = 10.0

[model]
gamma = 2.5
"""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    base: float | None = None  # the jittered parameter's centre; None: no jitter
    verdict: str | None = None  # expected pipeline results; None for validate
    termination: str | None = None
    consistency: str | None = None

    @property
    def pipeline(self) -> bool:
        return self.verdict is not None

    def config_text(self, seed: int) -> str:
        value = None
        if self.base is not None:
            rng = random.Random(f"{self.name}:{seed}")
            value = self.base * (1.0 + JITTER * rng.uniform(-1.0, 1.0))
        return self.template.format(seed=seed, value=value)


# why each workload is in the benchmark: see the `workloads` list in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("collapse", _COLLAPSE, 0.3551, "BlowUp", "BlowupDetected", "consistent"),
        Workload("dispersal", _DISPERSAL, 0.1, "Global", "Completed", "consistent"),
        Workload("validate", _VALIDATE),
    )
}
