"""hartreekit benchmark: end-to-end and per-layer metrics for three workloads.

usage: python3 bench/run.py --workload {collapse,dispersal,validate,all}
                            --seed N --seconds S --trace {0,1}

Run from anywhere; hartreekit is imported from the `src` directory next to
this one, so the benchmark measures the checkout it sits in.  Each hartreekit
run happens in a fresh interpreter with one FFT worker, one at a time.  The
benchmark starts runs of the workload until S seconds have passed (at least
one run), checks every run's outputs, and prints a table followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 makes the same untraced runs, then one traced run, and reports the
per-layer metrics: spans at every module boundary (saved under
.bench_runs/), counts, kernel micro-timings, and the tracing overhead.

The host's speed drifts by up to 1.7x within minutes on a shared machine,
so reference.py, a fixed numpy/scipy kernel, runs before and after every run:
setup_s and run_s are reported at the kernel's nominal speed, and the
wall-clock values are printed next to them.

Inputs come from the seed; see workloads.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from kernels import SIZES, fft_cost
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_runs")
CHILD = os.path.join(BENCH, "child.py")
REFERENCE = os.path.join(BENCH, "reference.py")
# the reference kernel's time on the host the benchmark was written on (2-vCPU
# Xeon VM, quiet); end-to-end times are reported at that host speed
REF_NOMINAL_S = 0.30
DEADLINE_S = 170.0  # every run of the benchmark ends within this
SETUP_SAMPLES = 5  # setup_s is a median over at least this many fresh interpreters
MASS_DRIFT_RATE = 1e-10  # the integrator's mass-conservation gate, per unit time


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def host_record(seed: int, versions: dict) -> dict:
    """Facts a result depends on, from the CPU description the kernel exposes."""
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")), "")
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = {}
    for entry in sorted(e for e in os.listdir(base) if e.startswith("index")) if os.path.isdir(base) else ():
        level, kind = _read(os.path.join(base, entry, "level")), _read(os.path.join(base, entry, "type"))
        caches[f"L{level} {kind}"] = _read(os.path.join(base, entry, "size"))
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches": caches, **versions, "fft_workers": 1, "seed": seed}


def _wait(proc, deadline: float):
    """Reap proc, killing it at the deadline; returns (exit code, peak RSS in MiB)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def spawn(argv, log, deadline) -> tuple:
    """Run one fresh interpreter to completion.  Returns (exit code, peak RSS in MiB,
    its last stdout line parsed as JSON, or {} when there is none)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with open(log + ".stdout", "w") as so, open(log + ".stderr", "w") as se:
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=ROOT)
        code, rss = _wait(proc, deadline)
    with open(log + ".stdout") as fh:
        lines = fh.read().splitlines()
    try:
        return code, rss, json.loads(lines[-1]) if code == 0 and lines else {}
    except ValueError:
        return code, rss, {}


def run_child(out, config_path, mode, deadline) -> dict:
    """One child.py process (mode run, setup or trace); returns its report plus exit code and RSS."""
    argv = [sys.executable, CHILD, SRC, config_path, out, str(time.monotonic_ns()), mode]
    code, rss, report = spawn(argv, out, deadline)
    report.update(exit=code, peak_rss_mb=rss, out=out)
    return report


def check_run(workload, report) -> tuple:
    """Output checks of one run.  Returns (failed checks, artifact digest, energy drift)."""
    failed = []
    if report["exit"] != 0 or report.get("status") != 0:
        return [f"exit status {report['exit']}, run status {report.get('status')}"], None, None
    out = report["out"]
    manifest = _read_json(os.path.join(out, "manifest.json"))
    files = manifest["files"]
    for rel, sha in files.items():
        if _sha256(os.path.join(out, rel)) != sha:
            failed.append(f"manifest hash of {rel}")
    digest = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()

    if not workload.pipeline:
        rep = _read_json(os.path.join(out, "validate_report.json"))
        if rep["failures"] != 0:
            failed.append(f"validate failures {rep['failures']}")
        e0, e1 = report["energies"]
        return failed, digest, abs(e1 - e0) / abs(e0)

    rep = _read_json(os.path.join(out, "pipeline_report.json"))
    got = (rep["verdict"], rep["termination"]["kind"], rep["consistent"])
    want = (workload.verdict, workload.termination, workload.consistency)
    if got != want:
        failed.append(f"verdict/termination/consistency {got} != {want}")
    gs = _read_json(os.path.join(out, "groundstate_report.json"))
    tol = manifest["config"]["groundstate"]["tol"]
    if not (gs["converged"] and gs["residual"] <= tol):
        failed.append(f"ground state residual {gs['residual']} > tol {tol}")
    with open(os.path.join(out, "trajectory.csv")) as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    first, last = ({name: float(v) for name, v in zip(header, line.split(","))} for line in (lines[1], lines[-1]))
    mass_rate = abs(last["mass"] - first["mass"]) / last["t"]
    if not mass_rate <= MASS_DRIFT_RATE:
        failed.append(f"mass drift {mass_rate:.3e} per unit time > {MASS_DRIFT_RATE:.0e}")
    return failed, digest, abs(last["energy"] - first["energy"]) / abs(first["energy"])


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(r, f)) for r, _d, names in os.walk(path) for f in names)


def _beyond_ten(values) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n={n}: no percentile has ten samples beyond it"
    return f"p{100.0 * (n - 10) / n:.0f}={sorted(values)[n - 11]:.4f} s (n={n}, ten above)"


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Untraced runs for `seconds`, then (trace) one traced run; checks every run."""
    workdir = os.path.join(WORK, f"{workload.name}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    config_path = os.path.join(workdir, "run.cfg")
    with open(config_path, "w") as fh:
        fh.write(workload.config_text(seed))

    start = time.monotonic()
    deadline = start + DEADLINE_S
    runs, problems, refs = [], [], []

    def reference():
        _code, _rss, rep = spawn([sys.executable, REFERENCE], os.path.join(workdir, f"ref{len(refs)}"), deadline)
        refs.append(rep.get("ref_s"))

    def one(mode="run"):
        report = run_child(os.path.join(workdir, f"run{len(runs)}"), config_path, mode, deadline)
        try:
            report["failed"], report["digest"], report["energy_drift"] = check_run(workload, report)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            report["failed"], report["digest"] = [f"outputs unreadable: {exc!r}"], None
        report["bytes"] = _dir_bytes(report["out"])
        shutil.rmtree(report["out"], ignore_errors=True)
        problems.extend(f"run {len(runs)}: {f}" for f in report["failed"])
        runs.append(report)
        return report

    reference()
    while True:
        t0 = time.monotonic()
        one()
        reference()  # every run sits between two measurements of the host's speed
        before, after = refs[-2:]
        if before and after:
            runs[-1]["speed"] = REF_NOMINAL_S / (0.5 * (before + after))
        now = time.monotonic()
        # stop once the window is used, or when another run could miss the deadline
        if now - start >= seconds or now + 1.5 * (now - t0) > deadline:
            break
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    for k in range(SETUP_SAMPLES - len(setups)):
        report = run_child(os.path.join(workdir, f"setup{k}"), config_path, "setup", deadline)
        if "setup_s" in report:
            setups.append(report["setup_s"])
    good = [r for r in runs if not r["failed"] and "speed" in r]
    refs = [r for r in refs if r]
    result = {"runs": runs, "problems": problems, "setups": setups, "refs": refs}
    if len(good) < len([r for r in runs if not r["failed"]]):
        problems.append("the reference kernel failed next to a run")
    if good:
        result["e2e"] = {
            "setup_s": statistics.median(setups) * REF_NOMINAL_S / statistics.median(refs),
            "run_s": statistics.median(r["run_s"] * r["speed"] for r in good),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            "energy_drift": statistics.median(r["energy_drift"] for r in good),
        }
    if trace:
        traced = one("trace")
        if not traced["failed"] and "e2e" in result:
            layers = traced["layers"]
            layers["fieldio.bytes_written"] = traced["bytes"]
            layers["trace.overhead_s"] = traced["run_s"] - statistics.median(r["run_s"] for r in good)
            by_layer = sum(v for k, v in layers.items() if k.startswith("spectral.fft_calls."))
            if by_layer != layers["spectral.fft_calls"] + layers["spectral.rfft_calls"]:
                problems.append(f"per-layer FFT counts sum to {by_layer}, not to spectral.fft_calls")
            result["layers"] = layers
            result["kernels"] = traced["kernels"]
    digests = {r["digest"] for r in runs if not r["failed"]}
    if len(digests) > 1:
        problems.append(f"runs of one seed gave {len(digests)} different artifact digests (tracing included)")
    result["digest"] = digests.pop() if len(digests) == 1 else None
    return result


def report(workload, seed, seconds, trace, result, units) -> dict:
    """Print the human-readable table; return the result object of the last output line."""
    runs = result["runs"]
    n_failed = sum(1 for r in runs if r["failed"])
    versions = next((r["versions"] for r in runs if "versions" in r), {})
    print(f"hartreekit benchmark: workload={workload.name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("host " + json.dumps(host_record(seed, versions)))
    print(f"artifact digest {result['digest']} over {len(runs)} runs of this seed")
    for p in result["problems"]:
        print(f"CHECK FAILED {p}")
    metrics = {}
    if not trace and "e2e" in result:
        good = [r for r in runs if not r["failed"]]
        for name, value in result["e2e"].items():
            metrics[name] = {"value": value, "unit": units[name]}
            n = len(result["setups"]) if name == "setup_s" else len(good)
            print(f"  {name:<14} {value:<12.6g} {units[name]:<9} median of {n}")
        walls = [r["run_s"] for r in good]
        print(f"  host speed: reference kernel median {statistics.median(result['refs']):.4f} s over {len(result['refs'])} runs"
              f" (nominal {REF_NOMINAL_S} s); setup_s and run_s above are scaled to the nominal speed,"
              " run_s by the two reference runs around each run")
        print(f"  wall clock: setup_s {statistics.median(result['setups']):.4f} s, run_s {statistics.median(walls):.4f} s;"
              f" run_s {_beyond_ten(walls)}; samples {' '.join(f'{w:.3f}' for w in walls)}")
        print(f"  {'fail_frac':<14} {n_failed / len(runs):<12.6g} {'share':<9} {n_failed} of {len(runs)} runs failed")
    if trace and "layers" in result:
        for name, value in sorted(result["layers"].items()):
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"  {name:<36} {value:<14.6g} {units[name]}")
        print("kernels (median ms per call; flops and bytes are computed, per transform):")
        for name, value in sorted(result["kernels"].items()):
            print(f"  {name:<36} {value:<14.6g} ms")
        for n in SIZES:
            for fft, cost in fft_cost(n).items():
                print(f"  {fft} {n}^3: {cost['flops']:.4g} flops, {cost['bytes'] / 2**20:.3g} MiB")
        print("  a 64^3 complex array is 4 MiB, inside this host's last-level cache (see host):"
              " no bandwidth or roofline ratio is claimed")
        metrics.update({k: {"value": v, "unit": units[k]} for k, v in result["kernels"].items()})
    return {"correct": not result["problems"], "attempted": len(runs), "failed": n_failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "hartreekit", "__init__.py")):
        print(f"error: no hartreekit sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        wl = WORKLOADS[name]
        res = report(wl, args.seed, args.seconds, bool(args.trace), measure(wl, args.seed, args.seconds, bool(args.trace)), units)
        results.append((name, res))
        if args.workload == "all":
            print(json.dumps(res))
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    else:
        final = results[0][1]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
