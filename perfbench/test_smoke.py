"""Smoke tests of the benchmark itself, at toy sizes.

    python3 -m pytest -q perfbench/test_smoke.py

The repository's own suite does not collect them (pyproject's testpaths is
``tests``).
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hooks  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--workload", "drift", "--toy")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class _Corrupt:
    """Hook that perturbs a function's result, standing in for a broken program."""

    def __init__(self, damage):
        self.damage = damage

    def call(self, name, fn, args, kwargs):
        return self.damage(fn(*args, **kwargs))


def _shift_beta(sol):
    sol.beta = sol.beta + 1e-3
    return sol


def _drift_j(traj):
    drift = 1e-6 * traj.steps.astype(float)
    return type(traj)(traj.steps, traj.times, traj.angular_momentum + drift, traj.energy,
                      traj.aborted)


def _run_toy(name, tmp_path):
    import symquad
    tmp_path.mkdir()
    config = tmp_path / f"{name}.ini"
    run.write_config(HERE / "configs" / "toy" / f"{name}.ini", 3, name, config)
    args = argparse.Namespace(config=str(config), outdir=str(tmp_path / "out"),
                              oracle=True, trace=None,
                              run_id="smoke")
    return workload.execute(symquad, symquad.load_configs(str(config)), args)


@pytest.mark.parametrize("name, target, damage", [
    ("circle-random-aug", "regression.augmented_lsq", _shift_beta),
    ("sphere-mix", "regression.augmented_lsq", _shift_beta),
    ("drift", "dynamics.simulate_batch", _drift_j),
])
def test_corrupted_output_counts_as_failed(name, target, damage, tmp_path):
    assert _run_toy(name, tmp_path / "clean")["failed"] == 0
    patches = hooks.install(_Corrupt(damage), [target])
    try:
        result = _run_toy(name, tmp_path / "corrupt")
    finally:
        hooks.uninstall(patches)
    assert 0 < result["failed"] <= result["attempted"]
