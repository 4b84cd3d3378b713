"""symquad benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a symquad checkout; the program is imported from its
``src/``.  Each repetition of the workload's job runs in a fresh workload
process (perfbench/workload.py) with one BLAS thread, and a set-up-only
process runs before each repetition.  Repetitions continue until about
``--seconds`` have passed, output checks not counted (at least three).  The
last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (medians over repetitions) for ``--trace 0`` and
the per-layer metrics of traced repetitions for ``--trace 1``.  The line
before it records the environment, the git sha and every repetition.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("circle-random-aug", "sphere-mix", "drift")
MIN_REPS = 3            # repetitions per run, however short --seconds is
DEADLINE_S = 170.0      # a run must end within 180 s
DEFAULT_SEED = 1


class BenchError(RuntimeError):
    """The benchmark itself could not run (no program, crashed process)."""


def section_seed(seed: int, workload: str, section: str) -> int:
    digest = hashlib.sha256(f"{seed}/{workload}/{section}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def write_config(template: Path, seed: int, workload: str, path: Path) -> None:
    """Copy the workload's config with every section seed derived from ``seed``."""
    parser = configparser.ConfigParser()
    parser.read(template, encoding="utf-8")
    for section in parser.sections():
        parser[section]["seed"] = str(section_seed(seed, workload, section))
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


class Runner:
    """Starts workload processes for one run and keeps to the deadline."""

    def __init__(self, workload: str, config: Path, work: Path, deadline: float):
        self.workload = workload
        self.config = config
        self.work = work
        self.deadline = deadline
        self.count = 0

    def spawn(self, *flags: str) -> dict:
        self.count += 1
        result = self.work / f"result-{self.count}.json"
        # one output path for every repetition: result CSVs hash their outdir
        outdir = self.work / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "workload.py"), "--config", str(self.config),
               "--outdir", str(outdir), "--result", str(result), *flags]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next workload process")
        proc = subprocess.Popen(cmd + ["--spawn-ts", repr(time.monotonic())],
                                stdout=sys.stderr, stdin=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload process exceeded the {DEADLINE_S:.0f} s deadline")
        finally:  # also on SIGTERM (SystemExit) or Ctrl-C: leave no process behind
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not result.exists():
            raise BenchError(f"workload process exited with code {code}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


def repetitions(runner: Runner, seconds: float, trace: bool, trace_dir: Path,
                seed: int) -> tuple[list[dict], list[float]]:
    """Plain (and, with ``trace``, alternating traced) repetitions, each after
    a set-up-only probe, until about ``seconds`` have passed without the
    output checks.  The first repetition runs the oracle.  Returns the
    repetitions and the probes' set-up times."""
    reps: list[dict] = []
    probes: list[float] = []
    cycles: list[float] = []
    start = time.monotonic()
    checking = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        flags = ["--oracle"] if not reps else []
        if traced:
            run_id = f"{runner.workload}-seed{seed}-rep{len(reps)}"
            flags += ["--trace", str(trace_dir / f"{run_id}.jsonl"), "--run-id", run_id]
        started = time.monotonic()
        probes.append(runner.spawn("--setup-only")["setup_s"])
        rep = runner.spawn(*flags)
        rep["traced"] = traced
        reps.append(rep)
        checking += rep["check_s"]
        cycles.append(time.monotonic() - started - rep["check_s"])
        if len(reps) < MIN_REPS:
            continue
        now = time.monotonic()
        if (now - start - checking + statistics.median(cycles) > seconds
                or now + 2 * max(cycles) > runner.deadline):
            return reps, probes


def differing_outputs(reps: list[dict]) -> int:
    """Repetitions whose output files differ in bytes from the first one's."""
    return sum(r["digests"] != reps[0]["digests"] for r in reps[1:])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


LAYER_UNITS = {"_s": "s", "_us": "us", "svd_flops": "flop_computed",
               "bytes_written": "byte"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool) -> tuple:
    if not (ROOT / "src" / "symquad" / "__init__.py").is_file():
        raise BenchError(f"no symquad sources under {ROOT / 'src'}; run from a checkout")
    template = HERE / "configs" / ("toy" if toy else "") / f"{workload}.ini"
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    trace_dir = ROOT / ".perfbench_work" / "traces"
    work.mkdir(parents=True, exist_ok=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        config = work / f"{workload}.ini"
        write_config(template, seed, workload, config)
        runner = Runner(workload, config, work, time.monotonic() + DEADLINE_S)
        reps, probes = repetitions(runner, seconds, trace, trace_dir, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = min(sum(r["failed"] for r in reps) + differing_outputs(reps), attempted)
    plain = [r for r in reps if not r["traced"]]

    def median(key, rs=plain):
        return statistics.median(r[key] for r in rs)

    if trace:
        traced = [r for r in reps if r["traced"]]
        # median_low keeps counts whole when there is an even number of traced runs
        metrics = {name: metric(statistics.median_low(r["layers"][name] for r in traced),
                                layer_unit(name)) for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = metric(median("wall_s", traced) - median("wall_s"), "s")
    else:
        metrics = {
            "wall_s": metric(median("wall_s"), "s"),
            "cpu_s": metric(median("cpu_s"), "s"),
            "setup_s": metric(statistics.median(probes + [r["setup_s"] for r in reps]), "s"),
            "peak_rss_mb": metric(median("peak_rss_mb"), "MiB"),
            "ok_frac": metric(1.0 - failed / attempted, "fraction"),
        }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "toy": toy, "git_sha": git_sha(), "src_sha256": source_digest(),
              "env": reps[0]["env"], "setup_probes_s": probes,
              "repetitions": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "cpu_s",
                                                 "peak_rss_mb", "attempted", "failed")}
                              for r in reps],
              "failures": [f for r in reps for f in r["failures"]]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one symquad benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="smoke-test sizes (perfbench/configs/toy); not for measurement")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.toy)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    for failure in record["failures"]:
        print(f"run.py: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
