"""Smoke test of the demo scripts: demos 01-03 run to completion; demo 04,
a long drift run, only has its imports from symquad checked."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symquad

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(symquad.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_rotations_and_quadrature.py",
                                  "02_invariant_regression.py",
                                  "03_data_augmentation.py"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_drift_demo_imports_resolve():
    tree = ast.parse((DEMOS / "04_angular_momentum_drift.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "symquad"
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(symquad, n)] == []
