"""tools/compare_artifacts.py: the byte-identity report between two checkouts."""

import hashlib
import json
import os
import runpy

from hartreekit.config import parse_config
from hartreekit.spectral import is_even

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
tool = runpy.run_path(os.path.join(ROOT, "tools", "compare_artifacts.py"))


def _run_dir(path, report):
    # a run directory as runner.run leaves it: its files, then a manifest of their hashes
    path.mkdir()
    files = {"report.json": json.dumps(report).encode(), "table.csv": b"a,b\n1,2\n"}
    for name, data in files.items():
        (path / name).write_bytes(data)
    manifest = {"files": {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}}
    (path / "manifest.json").write_text(json.dumps(manifest))
    return str(path)


def test_compare_runs_names_the_artifact_and_the_key_that_differ(tmp_path):
    report = {"verdict": "Global", "sigma": {"fraction": 8.2e-10, "margin": float("nan")}, "rows": [1, 2]}
    parent = _run_dir(tmp_path / "parent", report)
    same = _run_dir(tmp_path / "same", report)
    change = _run_dir(tmp_path / "change", {**report, "sigma": {**report["sigma"], "fraction": 8.3e-10}})
    assert tool["compare_runs"](parent, same) == []
    assert tool["compare_runs"](parent, change) == ["report.json: differs", "  sigma.fraction: 8.2e-10 -> 8.3e-10"]
    assert tool["json_diff"]({"rows": [1, 2]}, {"rows": [1, 3]}) == ["rows[1]: 2 -> 3"]


def test_the_checkout_matches_itself_on_a_small_pipeline(tmp_path, capsys):
    # two fresh interpreters run the same 16^3 pipeline from this checkout
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "[run]\nmode = full_pipeline\n[grid]\npoints = 16\nhalf_length = 8.0\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 1.5\n[evolve]\nt_max = 0.01\n"
    )
    assert tool["main"]([ROOT, ROOT, str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("small.cfg: ") and out.rstrip().endswith("artifacts identical"), out


def test_each_run_stderr_is_labelled_under_its_config(tmp_path, capsys):
    # a Gaussian of width 4 at L 10 reaches the box edge, so both runs stop
    # in evolve with one error line, and their artifacts still match
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "[run]\nmode = full_pipeline\n[grid]\npoints = 16\nhalf_length = 10.0\n"
        "[initial_data]\nkind = gaussian\namplitude = 0.2\nwidth = 4.0\n"
    )
    assert tool["main"]([ROOT, ROOT, str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    error = (
        "    error: evolve: initial data carries 1.02e-03 of its mass in the outer 10% shell "
        "(limit 1e-08); enlarge the box or narrow the data"
    )
    assert lines[0].startswith("edge.cfg: ") and lines[0].endswith("artifacts identical"), lines
    assert lines[1:] == ["  parent stderr:", error, "  change stderr:", error]


def test_default_configs_add_three_pipelines_with_a_potential(tmp_path):
    # the presets and workloads run V = 0 only; the three extra pipelines
    # reach the pinned solve, the flagged e-term and a sampled V off the octant
    configs = tool["default_configs"](ROOT, str(tmp_path), 0)
    assert len(configs) == 9
    kinds = [parse_config(path).potential.kind for path in configs[-3:]]
    assert kinds == ["gaussian_bump", "ball_indicator", "grid_sampled"]
    sampled = parse_config(configs[-1]).potential.values
    assert sampled.shape == (32, 32, 32) and sampled.min() < 0.0
    assert not is_even(sampled)  # off-centre, so the run leaves the octant
