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
