"""Spans and counts at hartreekit's module boundaries, recorded from outside the package.

A wrapper is installed wherever a name is looked up.  Modules bind each
other's functions with `from .spectral import fftn`, so every hartreekit
namespace that holds a public function gets the wrapper, not just the module
that defines it.  FFTs are counted at scipy.fft's entry points, which every
transform passes through however the package reaches it.  `hartreekit.evolve`
as a package attribute is the function, so modules are taken from
sys.modules.

Spans stay in memory; `write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
import uuid

LAYERS = ("spectral", "ground_state", "functionals", "potentials", "threshold", "evolve", "runner", "fieldio", "config")
FFT_PREFIX = "fft."
COMPLEX_FFTS = ("fftn", "ifftn")
REAL_FFTS = ("rfftn", "irfftn")
# private functions that mark a boundary the metrics need: the manifest stage,
# validate's ground-state solve, and the Strang sub-step, which counts step attempts
PRIVATE = {"runner": ("_write_manifest", "_solve_gs"), "evolve": ("_phase_step",)}
# layers that can issue an FFT themselves; FFTs are attributed to the
# innermost enclosing span of one of these
FFT_OWNERS = ("ground_state", "functionals", "potentials", "threshold", "evolve", "runner")


def _gs_counts(gs):
    return {"iterations": gs.iterations, "omega_rounds": gs.omega_iterations}


def _evolve_counts(record):
    return {"accepted": len(record.extras.get("accepted_dts", ())), "adaptive": record.config.adaptive}


# counts read off a call's return value at the boundary
HOOKS = {"ground_state.solve_ground_state": _gs_counts, "evolve.evolve": _evolve_counts}


class Tracer:
    """Records one span per wrapped call: [name, start_ns, end_ns, parent index]."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                counts[idx] = hook(out)
            return out

        return traced

    def install(self) -> None:
        import scipy.fft

        import hartreekit  # noqa: F401  (loads every module)

        modules = {layer: sys.modules[f"hartreekit.{layer}"] for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for attr in COMPLEX_FFTS + REAL_FFTS:
            obj = getattr(scipy.fft, attr)
            wrappers[id(obj)] = (obj, self._wrap(FFT_PREFIX + attr, obj))
        for ns in (scipy.fft, sys.modules["hartreekit"], *modules.values()):
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                    self._patches.append((ns, attr, obj))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)


def _is_fft(name: str) -> bool:
    return name.startswith(FFT_PREFIX)


def summarize(tracer: Tracer, run_s: float, points: int) -> dict:
    """Per-layer metrics from the spans of one run (see BENCHMARK.json)."""
    spans = tracer.spans
    dur = [(s[2] - s[1]) * 1e-9 for s in spans]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def total(*names):
        return sum(d for s, d in zip(spans, dur) if s[0] in names)

    def layer_of(i):
        return spans[i][0].split(".")[0]

    def busy(layer):
        # time inside the layer's functions, counting calls nested in the layer once
        return sum(d for i, d in enumerate(dur) if layer_of(i) == layer and (spans[i][3] < 0 or layer_of(spans[i][3]) != layer))

    def stage(fn, work):
        # a runner stage, or the same work called straight from another runner
        # function, as validate's gates call the solver and the integrator
        direct = sum(d for s, d in zip(spans, dur) if s[0] == work and s[3] >= 0 and layer_of(s[3]) == "runner" and spans[s[3]][0] != fn)
        return total(fn) + direct

    def calls(*names):
        return sum(1 for s in spans if s[0] in names)

    def ffts_under(name):
        return sum(1 for i, s in enumerate(spans) if _is_fft(s[0]) and any(spans[a][0] == name for a in ancestors(i)))

    m: dict = {}

    # spectral: every FFT, and which layer issued it
    n_complex = calls(*(FFT_PREFIX + f for f in COMPLEX_FFTS))
    n_real = calls(*(FFT_PREFIX + f for f in REAL_FFTS))
    fft_s = sum(d for s, d in zip(spans, dur) if _is_fft(s[0]))
    n3 = points**3
    m["spectral.fft_calls"] = n_complex
    m["spectral.rfft_calls"] = n_real
    m["spectral.fft_s"] = fft_s
    m["spectral.fft_share"] = fft_s / run_s
    # computed, not measured: one read and one write of the array per call
    m["spectral.fft_bytes_computed"] = n_complex * 2 * n3 * 16 + n_real * (n3 * 8 + points * points * (points // 2 + 1) * 16)
    by_layer = dict.fromkeys(FFT_OWNERS + ("other",), 0)
    for i, s in enumerate(spans):
        if _is_fft(s[0]):
            owner = next((layer_of(a) for a in ancestors(i) if layer_of(a) in FFT_OWNERS), "other")
            by_layer[owner] += 1
    for layer, n in by_layer.items():
        m[f"spectral.fft_calls.{layer}"] = n

    # evolve: step control, per-step cost, and the split of its own time
    ev = [i for i, s in enumerate(spans) if s[0] == "evolve.evolve"]
    accepted = sum(tracer.counts[i]["accepted"] for i in ev)
    # step doubling runs three Strang steps, one phase sub-flow each, per attempt
    attempts = sum(
        sum(1 for j, s in enumerate(spans) if s[0] == "evolve._phase_step" and i in ancestors(j))
        / (3 if tracer.counts[i]["adaptive"] else 1)
        for i in ev
    )
    intervals = []
    for i in ev:
        starts = [s[1] for s in spans if s[0] == "evolve.detect_blowup" and s[3] == i]
        intervals += [(b - a) * 1e-6 for a, b in zip(starts, starts[1:])]
    direct = [(s[0], d) for s, d in zip(spans, dur) if s[3] in ev]
    m["evolve.steps_accepted"] = accepted
    m["evolve.steps_rejected"] = attempts - accepted
    m["evolve.accept_ratio"] = accepted / attempts if attempts else 0.0
    m["evolve.fft_per_step"] = ffts_under("evolve.evolve") / accepted if accepted else 0.0
    m["evolve.step_ms.p50"] = statistics.median(intervals) if intervals else 0.0
    m["evolve.step_ms.p99"] = statistics.quantiles(intervals, n=100, method="inclusive")[98] if len(intervals) > 1 else 0.0
    m["evolve.self_s"] = sum(dur[i] for i in ev) - sum(d for n, d in direct if n in ("functionals.take_snapshot", "evolve.detect_blowup"))
    m["evolve.detect_s"] = total("evolve.detect_blowup")
    m["evolve.snapshots"] = sum(1 for n, _ in direct if n == "functionals.take_snapshot")

    snaps = [d for s, d in zip(spans, dur) if s[0] == "functionals.take_snapshot"]
    m["functionals.snapshot_calls"] = len(snaps)
    m["functionals.snapshot_ms"] = statistics.median(snaps) * 1e3 if snaps else 0.0
    m["functionals.snapshot_s"] = sum(snaps)
    m["functionals.weinstein_s"] = total("functionals.weinstein")

    gs = [i for i, s in enumerate(spans) if s[0] == "ground_state.solve_ground_state"]
    iters = sum(tracer.counts[i]["iterations"] for i in gs)
    gs_ffts = ffts_under("ground_state.solve_ground_state")
    m["ground_state.solve_s"] = total("ground_state.solve_ground_state")
    m["ground_state.iterations"] = iters
    m["ground_state.omega_rounds"] = sum(tracer.counts[i]["omega_rounds"] for i in gs)
    m["ground_state.fft_calls"] = gs_ffts
    m["ground_state.fft_per_iter"] = gs_ffts / iters if iters else 0.0

    # busy times rather than one function's: each layer's functions run on every
    # workload (kato_norm and classify do not), so no time metric is a fixed zero
    m["potentials.eval_calls"] = calls("potentials.eval_potential", "potentials.eval_virial_weight")
    m["potentials.busy_s"] = busy("potentials")
    m["threshold.busy_s"] = busy("threshold")
    m["threshold.fft_calls"] = ffts_under("threshold.classify")

    # a partition of the run: classify and compare on pipelines, and validate's
    # remaining gates, make up other_s
    m["runner.groundstate_s"] = stage("runner.stage_groundstate", "runner._solve_gs")
    m["runner.evolve_s"] = stage("runner.stage_evolve", "evolve.evolve")
    m["runner.manifest_s"] = total("runner._write_manifest")
    m["runner.other_s"] = total("runner.run") - m["runner.groundstate_s"] - m["runner.evolve_s"] - m["runner.manifest_s"]

    m["fieldio.write_s"] = total("fieldio.write_json", "fieldio.dump_field")
    m["config.parse_s"] = total("config.parse_config")
    return m
