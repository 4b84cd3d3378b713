"""One workload process: set up, run the job once, check its outputs.

Started by run.py in a fresh interpreter per repetition, so every cache fill
and lazy set-up inside symquad is paid again, as on each ``symquad run``.

    python3 perfbench/workload.py --config INI --outdir DIR --result JSON
        --spawn-ts T [--setup-only] [--oracle] [--trace SPANS.jsonl --run-id ID]

The program is imported from ``src/`` of the checkout that holds this file.

``--spawn-ts`` is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` covers
interpreter start, ``import symquad`` and config parse/validation.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SetupError(RuntimeError):
    """The program under test cannot be imported from the checkout."""


def import_program():
    """Import symquad from the checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import symquad
    except ImportError as exc:
        raise SetupError(f"cannot import symquad from {src}: {exc}") from exc
    if not os.path.abspath(symquad.__file__).startswith(src + os.sep):
        raise SetupError(f"symquad was imported from {symquad.__file__}, not {src}")
    return symquad


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS}}


def run_job(symquad, configs, config_path, outdir):
    """The timed job: what ``symquad run`` does for these configs.

    Drift sections enter through their runner plus the result CSV:
    ``run_config_file`` fails in ``emit_plot`` on a drift table whose first
    hitting step is NaN, which it always is at eps = 0.
    """
    if all(cfg.experiment != "drift" for cfg in configs):
        symquad.run_config_file(config_path, outdir)
        return
    for cfg in configs:
        cfg = replace(cfg, outdir=outdir)
        table = symquad.experiments.run_experiment(cfg)
        exp_dir = os.path.join(outdir, cfg.experiment)
        os.makedirs(exp_dir, exist_ok=True)
        table.to_csv(os.path.join(exp_dir, f"{cfg.name}.csv"))


def output_digests(outdir) -> dict:
    digests = {}
    for base, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, outdir)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def execute(symquad, configs, args) -> dict:
    """Run and check one job; the result dict of one repetition."""
    import checks
    import hooks

    recorder = hooks.Tracer(args.run_id) if args.trace else hooks.Recorder()
    patches = hooks.install(recorder, hooks.LAYERS if args.trace else hooks.CAPTURED)
    error = None
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        run_job(symquad, configs, args.config, args.outdir)
    except Exception:  # a failing operation is a measured outcome, not a crash
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    hooks.uninstall(patches)

    result = {"wall_s": wall,
              "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
              "peak_rss_mb": usage1.ru_maxrss / 1024.0}
    if args.trace:
        layers = recorder.layer_metrics()
        layers["experiments.bytes_written"] = sum(
            os.path.getsize(os.path.join(base, f))
            for base, _, files in os.walk(args.outdir) for f in files)
        result["layers"] = layers
        recorder.write_spans(args.trace)

    checked = time.perf_counter()
    ops = recorder.ops
    failures = {}
    if error is not None:  # the section that was running fails
        sections = [i for i, op in enumerate(ops) if op["kind"] == "section"]
        failures[sections[-1] if sections else 0] = error.strip().splitlines()[-1]
        sys.stderr.write(error)
    failures.update(checks.check_solves(ops, recorder.schur, args.oracle))
    failures.update(checks.check_outputs(ops, configs, args.outdir))
    result.update(attempted=max(len(ops), 1), failed=len(failures),
                  failures=[f"{ops[i]['section'] if i < len(ops) else '?'}: {why}"
                            for i, why in sorted(failures.items())],
                  digests=output_digests(args.outdir),
                  check_s=time.perf_counter() - checked)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawn-ts", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)

    os.environ.update(THREAD_PINS)  # one BLAS thread, before numpy is first imported
    try:
        symquad = import_program()
    except SetupError as exc:
        print(f"workload: {exc}", file=sys.stderr)
        return 3
    try:
        configs = symquad.load_configs(args.config)
    except symquad.ConfigError as exc:
        print(f"workload: {exc}", file=sys.stderr)
        return 3
    setup_s = time.monotonic() - args.spawn_ts

    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(execute(symquad, configs, args))
        result["env"] = environment()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
