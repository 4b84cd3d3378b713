"""Call hooks the benchmark puts around symquad's public functions.

The hooks live in the benchmark, not in the program: ``install`` replaces a
function object in every ``symquad`` module namespace that holds it (callers
look names up in their own module's globals, e.g. ``experiments`` imports
``augmented_lsq`` by name), and ``uninstall`` puts the originals back.

``Recorder`` keeps what the output check needs: one operation per config
section, solve and trajectory batch, with the arguments and result of each
solve.  ``Tracer`` adds in-memory spans (name, start, end, parent, run id) at
every layer boundary plus counts taken from argument shapes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Functions whose calls are operations for the output check (or sections).
CAPTURED = ("experiments.run_experiment", "regression.augmented_lsq", "regression.full_lsq",
            "regression.invariant_lsq", "regression.schur_diagnostics",
            "dynamics.simulate_batch")
SOLVES = ("regression.augmented_lsq", "regression.full_lsq", "regression.invariant_lsq")

# Layer boundaries timed by the traced run.  sample_haar_many is traced only so
# that the rotation draws inside augmented_lsq do not count as its self time.
LAYERS = ("coupling.enumerate_basis",
          "sampling.sample_dataset", "sampling.make_target", "sampling.export_dataset",
          "geometry.so2_quadrature", "geometry.so3_quadrature_euler",
          "geometry.sample_haar_many",
          "harmonics.sph_harm_table", "harmonics.rotation_blocks",
          "harmonics.apply_generalized_d",
          "regression.design_matrix", "regression.invariant_design_matrix",
          "regression.lsq_solve", "regression.full_lsq", "regression.invariant_lsq",
          "regression.augmented_lsq", "regression.l2_test_error",
          "regression.schur_diagnostics",
          "dynamics.simulate_batch", "dynamics.write_trajectory_csv",
          "experiments.run_config_file", "experiments.run_experiment",
          "experiments.emit_plot", "experiments.ResultTable.to_csv")


def _resolve(qualname: str):
    """(owner object, attribute, current value) for 'module.func' or
    'module.Class.method' under the symquad package."""
    parts = qualname.split(".")
    owner = importlib.import_module("symquad." + parts[0])
    for attr in parts[1:-1]:
        owner = getattr(owner, attr)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(recorder, names) -> list:
    """Route every call of the named functions through ``recorder.call``.

    Returns the patch list that ``uninstall`` reverts.
    """
    patches = []
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "symquad" or key.startswith("symquad."))]
    for name in names:
        owner, attr, fn = _resolve(name)

        def wrapper(*args, _name=name, _fn=fn, **kwargs):
            return recorder.call(_name, _fn, args, kwargs)

        functools.update_wrapper(wrapper, fn)
        if isinstance(owner, type):
            patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    patches.append((module, key, fn))
                    setattr(module, key, wrapper)
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, fn in reversed(patches):
        setattr(owner, attr, fn)


class Recorder:
    """Operations of one job, for the output check.

    ``ops`` holds one dict per config section, solve and trajectory batch;
    ``schur`` holds (solution, diagnostics) pairs.  Calls made from inside
    another captured call (the invariant fit inside ``schur_diagnostics``)
    are not operations of their own.
    """

    def __init__(self):
        self.ops: list[dict] = []
        self.schur: list[tuple] = []
        self.section = None
        self._inside = 0

    def call(self, name, fn, args, kwargs):
        if name not in CAPTURED or self._inside:
            return fn(*args, **kwargs)
        if name == "experiments.run_experiment":
            self.section = args[0].name
            self.ops.append({"kind": "section", "name": name, "section": self.section})
            return fn(*args, **kwargs)
        self._inside += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            self._inside -= 1
        if name == "regression.schur_diagnostics":
            self.schur.append((args[3], result))
        else:
            kind = "solve" if name in SOLVES else "batch"
            self.ops.append({"kind": kind, "name": name, "section": self.section,
                             "args": args, "kwargs": kwargs, "result": result})
        return result


def _svd_flops(m: int, n: int) -> float:
    """Computed (not measured) flops of a thin complex SVD with U and V:
    Golub & Van Loan's R-SVD count 6mn^2 + 20n^3 (m >= n), times 4 for
    complex arithmetic."""
    m, n = max(m, n), min(m, n)
    return 4.0 * (6.0 * m * n * n + 20.0 * n ** 3)


class Tracer(Recorder):
    """Recorder that also keeps a span per call of every layer function.

    A call of a function already on the span stack (recursion, or a hook
    reached twice) gets no span of its own, so nested calls of the same
    function count once.
    """

    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[dict] = []

    def call(self, name, fn, args, kwargs):
        if any(s["name"] == name for s in self._stack):
            return super().call(name, fn, args, kwargs)
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None, "child_s": 0.0}
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = super().call(name, fn, args, kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1]["child_s"] += span["end"] - span["start"]
        self._count(name, args, kwargs, result)
        return result

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, name, args, kwargs, result) -> None:
        self._add(name + ".calls", 1)
        if name == "coupling.enumerate_basis":
            self._add("basis_size", result.size)
        elif name == "regression.lsq_solve":
            m, n = args[0].shape
            self._add("factored_rows", m)
            self._add("factored_cols", n)
            self._add("svd_flops", _svd_flops(m, n))
        elif name == "regression.augmented_lsq":
            scheme = args[2] if len(args) > 2 else kwargs["scheme"]
            self._add("rotation_nodes", len(scheme.rule) if scheme.kind == "quadrature"
                      else scheme.t)
        elif name == "dynamics.simulate_batch":
            n_steps = args[4] if len(args) > 4 else kwargs["n_steps"]
            self._add("batch_steps", n_steps)
            self._add("particle_steps", len(args[1]) * n_steps)

    def inclusive_s(self, *names) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] in names)

    def self_s(self, *names) -> float:
        return sum(s["end"] - s["start"] - s["child_s"] for s in self.spans
                   if s["name"] in names)

    def layer_metrics(self) -> dict:
        """Per-layer values (without the run-level ``trace.overhead_s`` and
        ``experiments.bytes_written``)."""
        def c(key):
            return self.counts.get(key, 0)

        t = self.inclusive_s
        batch_steps = c("batch_steps")
        return {
            "coupling.enumerate_basis_s": t("coupling.enumerate_basis"),
            "coupling.basis_size": c("basis_size"),
            "sampling.sample_dataset_s": t("sampling.sample_dataset"),
            "sampling.sample_dataset_calls": c("sampling.sample_dataset.calls"),
            "sampling.make_target_s": t("sampling.make_target"),
            "geometry.quadrature_rule_s": t("geometry.so2_quadrature",
                                            "geometry.so3_quadrature_euler"),
            "geometry.rotation_nodes": c("rotation_nodes"),
            "harmonics.sph_harm_table_s": t("harmonics.sph_harm_table"),
            "harmonics.rotation_blocks_s": t("harmonics.rotation_blocks"),
            "harmonics.rotation_blocks_calls": c("harmonics.rotation_blocks.calls"),
            "harmonics.apply_generalized_d_s": t("harmonics.apply_generalized_d"),
            "regression.design_matrix_s": t("regression.design_matrix",
                                            "regression.invariant_design_matrix"),
            "regression.design_matrix_calls": (c("regression.design_matrix.calls")
                                               + c("regression.invariant_design_matrix.calls")),
            "regression.augmented_lsq_s": t("regression.augmented_lsq"),
            "regression.assembly_self_s": self.self_s("regression.augmented_lsq"),
            "regression.lsq_solve_s": t("regression.lsq_solve"),
            "regression.lsq_solve_calls": c("regression.lsq_solve.calls"),
            "regression.factored_rows": c("factored_rows"),
            "regression.factored_cols": c("factored_cols"),
            "regression.svd_flops": c("svd_flops"),
            "regression.full_lsq_s": t("regression.full_lsq"),
            "regression.invariant_lsq_s": t("regression.invariant_lsq"),
            "regression.l2_test_error_s": t("regression.l2_test_error"),
            "regression.schur_diagnostics_s": t("regression.schur_diagnostics"),
            "dynamics.simulate_batch_s": t("dynamics.simulate_batch"),
            "dynamics.particle_steps": c("particle_steps"),
            "dynamics.step_us": (1e6 * t("dynamics.simulate_batch") / batch_steps
                                 if batch_steps else 0.0),
            "experiments.runner_self_s": self.self_s("experiments.run_config_file",
                                                     "experiments.run_experiment"),
            "experiments.io_s": t("experiments.ResultTable.to_csv", "experiments.emit_plot",
                                  "sampling.export_dataset", "dynamics.write_trajectory_csv"),
        }

    def write_spans(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent, run id, self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s["id"], "name": s["name"], "run": s["run"],
                                     "parent": s["parent"], "start": s["start"],
                                     "end": s["end"],
                                     "self_s": s["end"] - s["start"] - s["child_s"]}) + "\n")
