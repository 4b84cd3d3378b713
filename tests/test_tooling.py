"""The names the benchmark harness in ``perfbench/`` reaches into symquad by.

``perfbench/hooks.py`` patches functions by their ``module.name`` path and
``perfbench/checks.py`` imports solver functions directly; a rename in the
package would blind the per-layer trace or break the output check only when
the benchmark runs.  These tests read both files as they are, unedited, and
check that every config the repository ships, the benchmark's included,
still passes config validation.
"""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from symquad import dynamics, regression
from symquad.coupling import enumerate_basis
from symquad.regression import AugmentationScheme
from symquad.sampling import DistributionSpec, ExponentialDecay, make_target, sample_dataset
from symquad.experiments import load_configs

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SHIPPED_CONFIGS = sorted([*ROOT.glob("configs/*.ini"), *PERFBENCH.glob("configs/*.ini"),
                          *PERFBENCH.glob("configs/toy/*.ini")])


def _load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", PERFBENCH / "hooks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOOKS = _load_hooks()


@pytest.mark.parametrize("name", sorted(set(HOOKS.CAPTURED) | set(HOOKS.LAYERS)))
def test_hooked_names_resolve(name):
    owner, attr, fn = HOOKS._resolve(name)
    assert callable(fn) and getattr(owner, attr) is fn


def test_checks_imports_exist():
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("symquad")
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_tracer_counts_verlet_steps():
    # hooks.Tracer reads thetas from args[1] and n_steps from args[4] or the
    # keyword; a signature change would zero the Verlet layer metrics
    tracer = HOOKS.Tracer("test")
    patches = HOOKS.install(tracer, ["dynamics.simulate_batch"])
    pot = dynamics.default_potential(0.01)
    thetas, ps = np.zeros((4, 3)), np.full((4, 3), 0.1)
    try:
        dynamics.simulate_batch(pot, thetas, ps, 0.05, 30, 10)
        dynamics.simulate_batch(pot, thetas[:2], ps[:2], dt=0.05, n_steps=20, record_every=5)
    finally:
        HOOKS.uninstall(patches)
    layers = tracer.layer_metrics()
    assert layers["dynamics.particle_steps"] == 4 * 30 + 2 * 20
    assert math.isfinite(layers["dynamics.step_us"]) and layers["dynamics.step_us"] > 0.0


@pytest.mark.parametrize("d", [1, 2])
def test_tracer_counts_rotation_entries_once_per_solve_and_bound(d):
    # the augmented build reads the rotations through the
    # harmonics.rotation_blocks global, so the layer stays traced; the Schur
    # bound reads the mean that build kept and rotates nothing
    target = make_target(d, ExponentialDecay(2.0), 4, seed=88)
    data = sample_dataset(DistributionSpec(d, "UUU"), 60, np.random.default_rng(89), target)
    basis = enumerate_basis(d, 3, 3 if d == 1 else 2)
    scheme = AugmentationScheme("random", t=40, seed=90)
    tracer = HOOKS.Tracer("test")
    patches = HOOKS.install(tracer, ["harmonics.rotation_blocks"])
    try:
        sol = regression.augmented_lsq(basis, data, scheme)
        assert regression.schur_diagnostics(basis, data, scheme, sol).available
    finally:
        HOOKS.uninstall(patches)
    assert tracer.layer_metrics()["harmonics.rotation_blocks_calls"] == 1


def test_shipped_configs_found():
    assert len(SHIPPED_CONFIGS) >= 10


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: str(path.relative_to(ROOT)))
def test_shipped_config_loads(path):
    assert load_configs(path)


def test_toy_configs_solve_on_factors_and_gather_once(tmp_path, monkeypatch):
    # every fit hands lsq_solve a factor (at most p+1 rows), never a tall
    # design, and both d evaluate their basis through the one gather
    from symquad.experiments import run_config_file

    lsq_solve, products = regression.lsq_solve, regression._products
    excess, gathers = [], {}

    def counted_solve(a, y, *args, **kwargs):
        excess.append(np.shape(a)[0] - np.shape(a)[1])
        return lsq_solve(a, y, *args, **kwargs)

    def counted_products(*args, **kwargs):
        gathers[d] = gathers.get(d, 0) + 1
        return products(*args, **kwargs)

    monkeypatch.setattr(regression, "lsq_solve", counted_solve)
    monkeypatch.setattr(regression, "_products", counted_products)
    for path in sorted(PERFBENCH.glob("configs/toy/*.ini")):
        (d,) = {cfg.d for cfg in load_configs(path)}  # one d per toy config
        run_config_file(path, tmp_path / path.stem)
    assert excess and max(excess) <= 1
    assert gathers.get(1) and gathers.get(2)


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("configs/toy/*.ini")),
                         ids=lambda path: path.stem)
def test_toy_workload_passes_the_benchmark_checks(path, tmp_path, monkeypatch):
    # the benchmark's ok_frac is the share of its operations that pass
    # checks.check_solves (with the stacked-solve oracle) and
    # checks.check_outputs; a toy run through the same entry point must pass both
    import argparse

    import symquad

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workload")
    args = argparse.Namespace(config=str(path), outdir=str(tmp_path), oracle=True,
                              trace=None, run_id="tier1")
    result = workload.execute(symquad, load_configs(path), args)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["failures"]
