"""Experiment harness: INI-style configs drive regression and dynamics sweeps
that land as deterministic CSV tables plus optional SVG plots."""

from __future__ import annotations

import configparser
import csv
import hashlib
import math
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from typing import Callable, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .coupling import enumerate_basis, sym_coeffs
from .dynamics import default_potential, hitting_time, simulate_batch, write_trajectory_csv, Trajectory
from .geometry import so2_quadrature, so3_quadrature_euler
from .regression import (AugmentationScheme, augmented_lsq, design_factor, full_lsq,
                         l2_test_errors, schur_diagnostics)
from .sampling import (_CIRCLE_ROLES, _SPHERE_ROLES, AlgebraicDecay, DistributionSpec,
                       ExponentialDecay, export_dataset, make_target, sample_dataset)

RATIO_CAP = 1e16  # reported when the quadrature column is exactly symmetric


class ConfigError(ValueError):
    """Configuration file is missing or malformed; message names the field."""


class NumericalAbort(RuntimeError):
    """An experiment hit a numerical failure (blow-up or solver breakdown)."""


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    name: str
    outdir: str = "results"
    seed: int = 0
    trials: int = 1
    d: int = 0                      # required for regression experiments
    distribution: str = "UUU"
    degrees: tuple[int, ...] = ()
    quad_degrees: tuple[int, ...] = ()
    t_list: tuple[int, ...] = ()
    train_size: int = 0
    test_size: int = 0
    cutoff: str = "auto"            # "auto", or a float literal
    target_degree: int = 0          # 0 picks 30 (d=1) or 11 (d=2)
    alpha: float = 2.0
    powers: tuple[float, ...] = ()
    kappa: float = 100.0
    sigma: float = 0.1
    dt: float = 0.05
    steps: int = 1_000_000
    record_every: int = 100
    eps_list: tuple[float, ...] = ()
    hit_targets: tuple[float, ...] = (1e-6, 1e-4, 1e-3, 1e-2, 1e-1)
    preview_size: int = 2000


# field -> its annotation; a config value is parsed and checked by its type
_TYPES = {key: kind for key, kind in get_type_hints(ExperimentConfig).items()
          if key not in ("experiment", "name")}


def _item_type(kind):
    """The element type of a tuple annotation, the type itself otherwise."""
    return get_args(kind)[0] if get_origin(kind) is tuple else kind


@dataclass(frozen=True)
class _Experiment:
    """Everything declared about one experiment id."""

    runner: Callable[[ExperimentConfig], ResultTable]
    plot: str                 # emit_plot kind
    description: str          # the ``symquad list`` line
    defaults: dict            # overrides of the dataclass defaults
    required: str = "d"      # the field a config of it must set
    sizes: dict = field(default_factory=dict)  # d -> (train, test) when both unset


_EXPERIMENTS: dict[str, _Experiment] = {}


def _experiment(key: str, plot: str, description: str, defaults: dict, **declared):
    """Register the decorated runner as experiment ``key``; ``declared`` sets
    the other ``_Experiment`` fields."""
    def register(runner):
        _EXPERIMENTS[key] = _Experiment(runner, plot, description, defaults, **declared)
        return runner
    return register


def config_from_items(experiment: str, name: str, items: dict) -> ExperimentConfig:
    """Build and validate a config from raw string key/value pairs."""
    if any(sep and sep in name for sep in (os.sep, os.altsep)):  # the name is a file name
        raise ConfigError(f"section name {name!r} must not contain a path separator")
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from "
                          + ", ".join(sorted(_EXPERIMENTS)))
    values = dict(_EXPERIMENTS[experiment].defaults)
    for key, raw in items.items():
        if key not in _TYPES:
            raise ConfigError(f"[{name}] unknown field {key!r}")
        kind = _TYPES[key]
        try:
            values[key] = (tuple(map(_item_type(kind), raw.replace(",", " ").split()))
                           if get_origin(kind) is tuple else kind(raw))
        except ValueError as exc:
            raise ConfigError(f"[{name}] field {key!r}: cannot parse {raw!r}") from exc
    cfg = _apply_size_defaults(ExperimentConfig(experiment=experiment, name=name, **values))
    _validate(cfg)
    return cfg


# field -> the least value it (or every entry of it) may take in any experiment
_MINIMUM = {"trials": 1, "degrees": 0, "quad_degrees": 0, "t_list": 1, "target_degree": 0,
            "preview_size": 1, "alpha": 0,  # the target's envelope e^{-alpha s} is a decay
            "seed": 0,  # numpy's SeedSequence takes no negative entropy
            "sigma": 0, "steps": 1, "record_every": 1, "eps_list": 0}


def _validate(cfg: ExperimentConfig):
    spec = _EXPERIMENTS[cfg.experiment]
    if not getattr(cfg, spec.required):
        raise ConfigError(f"[{cfg.name}] missing required field {spec.required!r}")
    for key, kind in _TYPES.items():
        value = getattr(cfg, key)
        if _item_type(kind) is float and not np.all(np.isfinite(value)):
            raise ConfigError(f"[{cfg.name}] field {key!r} must be finite")
        if get_origin(kind) is tuple and len(set(value)) < len(value):  # would pool sweep points
            raise ConfigError(f"[{cfg.name}] field {key!r} has duplicate entries")
    if spec.required == "d":
        if cfg.d not in (1, 2):
            raise ConfigError(f"[{cfg.name}] field 'd' must be 1 or 2")
        if cfg.kappa <= 0.0:
            raise ConfigError(f"[{cfg.name}] field 'kappa' must be > 0")
    for key, low in _MINIMUM.items():
        value = getattr(cfg, key)
        if min(value if isinstance(value, tuple) else (value,), default=low) < low:
            raise ConfigError(f"[{cfg.name}] field {key!r} must be >= {low}")
    for key, value in spec.defaults.items():  # a swept list the experiment sets
        if isinstance(value, tuple) and not getattr(cfg, key):
            raise ConfigError(f"[{cfg.name}] field {key!r} must be non-empty")
    if "degrees" in spec.defaults:  # the regression sweeps
        if cfg.train_size < 1:
            raise ConfigError(f"[{cfg.name}] field 'train_size' must be >= 1")
        if cfg.test_size < 1:
            raise ConfigError(f"[{cfg.name}] field 'test_size' must be >= 1")
        try:
            DistributionSpec(cfg.d, cfg.distribution)
        except ValueError as exc:
            raise ConfigError(f"[{cfg.name}] field 'distribution': {exc}") from exc
    if cfg.experiment == "drift":
        if cfg.dt <= 0:
            raise ConfigError(f"[{cfg.name}] field 'dt' must be > 0")
        if cfg.record_every > cfg.steps:  # else no step is simulated
            raise ConfigError(f"[{cfg.name}] field 'record_every' must be <= steps")
        if min(cfg.hit_targets, default=1.0) <= 0.0:  # |J| >= 0 would hit at the first record
            raise ConfigError(f"[{cfg.name}] field 'hit_targets' must be > 0")
    if cfg.cutoff != "auto":
        try:
            cutoff = float(cfg.cutoff)
        except ValueError:
            cutoff = math.nan
        if not 0.0 <= cutoff < math.inf:
            raise ConfigError(f"[{cfg.name}] field 'cutoff' must be 'auto' or a finite number >= 0")


def _apply_size_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    """Fill in the experiment's (train, test) sizes for ``cfg.d`` when neither is set."""
    sizes = _EXPERIMENTS[cfg.experiment].sizes.get(cfg.d)
    if sizes is None or (cfg.train_size, cfg.test_size) != (0, 0):
        return cfg
    return replace(cfg, train_size=sizes[0], test_size=sizes[1])


def load_configs(path) -> list[ExperimentConfig]:
    """Parse an INI file: one section per experiment, `[id]` or `[id.variant]`."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not parser.sections():
        raise ConfigError(f"{path}: no experiment sections")
    out = []
    for section in parser.sections():
        experiment = section.split(".", 1)[0]
        out.append(config_from_items(experiment, section, dict(parser.items(section))))
    return out


def list_experiments() -> list[tuple[str, str]]:
    """(id, description) pairs for every available experiment."""
    return [(key, _EXPERIMENTS[key].description) for key in sorted(_EXPERIMENTS)]


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@dataclass
class ResultTable:
    """Aggregated metric rows keyed by the sweep variable."""

    experiment: str
    name: str
    provenance: dict
    rows: list = field(default_factory=list)

    def add(self, sweep, metric: str, values) -> None:
        vals = np.asarray(values, dtype=float)
        std = 0.0 if vals.size == 1 else float(vals.std())
        self.rows.append((sweep, metric, float(vals.mean()), std, int(vals.size)))

    def sorted_rows(self) -> list:
        return sorted(self.rows, key=lambda r: (r[0], r[1]))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# experiment={self.experiment}\n")
            fh.write(f"# name={self.name}\n")
            for key in sorted(self.provenance):
                fh.write(f"# {key}={self.provenance[key]}\n")
            # RFC 4180 quoting, only where a field needs it (a comma in a name)
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("sweep", "metric", "mean", "std", "trials"))
            out.writerows((_fmt(sweep), metric, _fmt(mean), _fmt(std), trials)
                          for sweep, metric, mean, std, trials in self.sorted_rows())

    def metric(self, name: str) -> dict:
        """sweep -> mean for one metric."""
        return {r[0]: r[2] for r in self.rows if r[1] == name}


def read_result_csv(path) -> ResultTable:
    provenance, body = {}, []
    experiment = name = ""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                if key == "experiment":
                    experiment = value
                elif key == "name":
                    name = value
                else:
                    provenance[key] = value
            else:
                body.append(line)
    rows = []
    for row in csv.reader(body):
        if row and row[0] != "sweep":
            sweep, metric, mean, std, trials = row
            rows.append((float(sweep), metric, float(mean), float(std), int(trials)))
    return ResultTable(experiment, name, provenance, rows)


def _config_hash(cfg: ExperimentConfig) -> str:
    text = "\n".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(ExperimentConfig))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed,) + path))


def _int_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence((seed,) + path).generate_state(1)[0])


_AUTO_CUTOFF = {(1, "dsUU"): 10.0 ** -4.5, (2, "dsUU"): 10.0 ** -3.4,
                (2, "dsH1sU"): 1e-5}


def _resolve_cutoff(cfg: ExperimentConfig) -> float:
    if cfg.cutoff == "auto":
        return _AUTO_CUTOFF.get((cfg.d, cfg.distribution), 0.0)
    return float(cfg.cutoff)


def _target_degree(cfg: ExperimentConfig) -> int:
    if cfg.target_degree > 0:
        return cfg.target_degree
    return 30 if cfg.d == 1 else 11


def _make_rule(d: int, degree: int):
    return so2_quadrature(degree + 1) if d == 1 else so3_quadrature_euler(degree)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _setup(cfg: ExperimentConfig, target=None, test: bool = True):
    """Shared set-up of the regression runners: size defaults, cutoff, target
    (the exponential-decay one unless given), the basis of each model degree
    in ``cfg.degrees`` over the target's particles, and a generator of the
    trials' (trial, train, test) triples.

    Each pair is drawn when its trial starts, train from seed path
    (2, trial) and test from the uniform distribution on (3, trial); test is
    None when ``test`` is false.  A runner iterates the generator once, with
    trials outermost, so every sweep point of a trial fits the same data, and
    deletes its names for the pair at the end of the trial, so a trial's
    datasets, with the factors they cache, are freed before the next pair is
    drawn.  The generator yields the trial index itself: ``enumerate`` would
    hold the previous pair while it draws the next.
    """
    cfg = _apply_size_defaults(cfg)
    if target is None:
        target = make_target(cfg.d, ExponentialDecay(cfg.alpha), _target_degree(cfg),
                             _int_seed(cfg.seed, 1))
    bases = [enumerate_basis(cfg.d, target.n_particles, k) for k in cfg.degrees]
    dist = DistributionSpec(cfg.d, cfg.distribution, cfg.kappa, cfg.sigma)
    uniform = DistributionSpec(cfg.d, "UUU")
    trials = ((trial,
               sample_dataset(dist, cfg.train_size, _rng(cfg.seed, 2, trial), target),
               sample_dataset(uniform, cfg.test_size, _rng(cfg.seed, 3, trial), target)
               if test else None)
              for trial in range(cfg.trials))
    return cfg, _resolve_cutoff(cfg), target, bases, trials


def _collected(cfg: ExperimentConfig, values: dict) -> ResultTable:
    """The result table of every runner: the per-trial values collected under
    (sweep, metric) keys, one row per key in insertion order, with the
    config's provenance.  A third key entry keeps apart the rows of one sweep
    and metric: compare's quadrature degrees of equal budget, drift's hitting
    targets that print alike."""
    table = ResultTable(cfg.experiment, cfg.name,
                        {"config_hash": _config_hash(cfg), "seed": cfg.seed,
                         "version": __version__})
    for (sweep, metric, *_), vals in values.items():
        table.add(sweep, metric, vals)
    return table


@_experiment("approx-rates", "semilogy",
             "test error vs model degree for full, invariant and sym-projected fits",
             {"trials": 1, "degrees": tuple(range(1, 8))},
             sizes={1: (8000, 2000), 2: (10000, 2500)})
def run_approx_rates(cfg: ExperimentConfig) -> ResultTable:
    """Full / invariant / sym-projected test errors per model degree.

    The invariant fit is the leading fit of the training factor the full fit
    read, and the three fits share one evaluation of the test design.
    """
    cfg, cutoff, target, bases, trials = _setup(cfg)
    values = defaultdict(list)
    for _, train, test in trials:
        for k, basis in zip(cfg.degrees, bases):
            sol_full = full_lsq(basis, train, cutoff)
            beta_inv = design_factor(basis, train).leading_fit(basis.invariant_count, cutoff)[0]
            betas = (sol_full.beta, np.pad(beta_inv, (0, basis.size - beta_inv.size)),
                     sym_coeffs(sol_full.beta, basis))
            errors = l2_test_errors(basis, betas, target, test)
            for name, error in zip(("full", "invariant", "projected"), errors):
                values[k, f"{name}_error"].append(error)
            values[k, "full_eps_sym"].append(sol_full.eps_sym)
        del train, test
    for k in cfg.degrees:
        values[k, "target_tail"] = [target.tail_norm(k)]
    return _collected(cfg, values)


@_experiment("quad-sweep", "semilogy",
             "symmetrization error vs quadrature degree of the augmentation rule",
             {"train_size": 800, "test_size": 200, "trials": 1, "degrees": (6,),
              "quad_degrees": tuple(range(10))})
def run_quad_sweep(cfg: ExperimentConfig) -> ResultTable:
    """eps_sym and test error vs quadrature degree, per model degree."""
    cfg, cutoff, target, bases, trials = _setup(cfg)
    rules = [_make_rule(cfg.d, q) for q in cfg.quad_degrees]
    values = defaultdict(list)
    for _, train, test in trials:
        for k, basis in zip(cfg.degrees, bases):
            sols = [augmented_lsq(basis, train, AugmentationScheme("quadrature", rule=rule),
                                  cutoff)
                    for rule in rules]
            errors = l2_test_errors(basis, [sol.beta for sol in sols], target, test)
            for q, sol, error in zip(cfg.quad_degrees, sols, errors):
                values[q, f"eps_sym[K={k}]"].append(sol.eps_sym)
                values[q, f"test_error[K={k}]"].append(error)
        del train, test
    for k in cfg.degrees:
        for q in cfg.quad_degrees:
            values[q, f"past_threshold[K={k}]"] = [1.0 if q >= k else 0.0]
    return _collected(cfg, values)


@_experiment("random-sweep", "loglog",
             "symmetrization error vs number of random augmentation rotations",
             {"train_size": 100, "test_size": 100, "trials": 10, "degrees": (6,),
              "t_list": (4, 8, 16, 32, 64, 128, 256)})
def run_random_sweep(cfg: ExperimentConfig) -> ResultTable:
    """eps_sym (with Schur bound) vs number of random rotations."""
    cfg, cutoff, target, bases, trials = _setup(cfg)
    values = defaultdict(list)
    for trial, train, test in trials:
        for k, basis in zip(cfg.degrees, bases):
            betas = []
            for ti, t in enumerate(cfg.t_list):
                scheme = AugmentationScheme("random", t=t,
                                            seed=_int_seed(cfg.seed, 4, ti, trial))
                sol = augmented_lsq(basis, train, scheme, cutoff)
                diag = schur_diagnostics(basis, train, scheme, sol)
                values[t, f"eps_sym[K={k}]"].append(sol.eps_sym)
                values[t, f"schur_bound[K={k}]"].append(diag.bound if diag.available
                                                         else math.nan)
                betas.append(sol.beta)
            for t, error in zip(cfg.t_list, l2_test_errors(basis, betas, target, test)):
                values[t, f"test_error[K={k}]"].append(error)
        del train, test
    return _collected(cfg, values)


@_experiment("compare", "loglog",
             "quadrature vs random augmentation on a common rotation budget",
             {"train_size": 100, "test_size": 100, "trials": 10, "degrees": (6,),
              "quad_degrees": tuple(range(10))})
def run_compare(cfg: ExperimentConfig) -> ResultTable:
    """Quadrature vs random augmentation on a shared rotation-count axis.

    Values are keyed by q as well as by budget: on the sphere two degrees
    can share a node count (q = 2 and 3 both give 32), and each keeps its rows.
    """
    cfg, cutoff, _, bases, trials = _setup(cfg, test=False)
    rules = [_make_rule(cfg.d, q) for q in cfg.quad_degrees]
    values = defaultdict(list)
    for trial, train, _ in trials:
        for k, basis in zip(cfg.degrees, bases):
            for qi, (q, rule) in enumerate(zip(cfg.quad_degrees, rules)):
                quad = AugmentationScheme("quadrature", rule=rule)
                rand = AugmentationScheme("random", t=len(rule),
                                          seed=_int_seed(cfg.seed, 5, qi, trial))
                for name, scheme in (("quad", quad), ("random", rand)):
                    values[len(rule), f"{name}_eps_sym[K={k}]", q].append(
                        augmented_lsq(basis, train, scheme, cutoff).eps_sym)
        del train
    for k in cfg.degrees:
        for q, rule in zip(cfg.quad_degrees, rules):
            q_mean = float(np.mean(values[len(rule), f"quad_eps_sym[K={k}]", q]))
            r_mean = float(np.mean(values[len(rule), f"random_eps_sym[K={k}]", q]))
            ratio = RATIO_CAP if q_mean < 1e-10 else min(r_mean / q_mean, RATIO_CAP)
            values[len(rule), f"ratio[K={k}]", q] = [ratio]
    return _collected(cfg, values)


@_experiment("drift", "loglog",
             "angular-momentum drift and hitting times under perturbed potentials",
             {"trials": 5}, required="eps_list")
def run_drift(cfg: ExperimentConfig, write_trajectories: bool = True) -> ResultTable:
    """Angular-momentum drift per perturbation strength; emits trajectory CSVs."""
    theta0 = np.array([0.1, 2.2, 4.0])
    p0 = np.array([0.3, -0.1, -0.2])  # sums to zero
    inits = [(theta0, p0)]
    for trial in range(1, cfg.trials):
        rng = _rng(cfg.seed, 6, trial)
        th = rng.uniform(0.0, 2.0 * math.pi, theta0.size)
        mo = rng.normal(size=theta0.size)
        mo -= mo.mean()  # vanishing initial total angular momentum
        inits.append((th, mo))
    outdir = _experiment_dir(cfg) if write_trajectories else None
    values = {}
    for eps in cfg.eps_list:
        pot = default_potential(eps)
        traj = simulate_batch(pot, np.stack([i[0] for i in inits]),
                              np.stack([i[1] for i in inits]),
                              cfg.dt, cfg.steps, cfg.record_every)
        if traj.aborted:
            raise NumericalAbort(f"drift run eps={eps:g} became non-finite")
        if outdir is not None:
            for trial in range(cfg.trials):
                single = Trajectory(traj.steps, traj.times,
                                    traj.angular_momentum[trial], traj.energy[trial])
                write_trajectory_csv(single, os.path.join(
                    outdir, f"{cfg.name}_eps{eps:g}_trial{trial}.csv"))
        for target in cfg.hit_targets:
            hits = []
            for trial in range(cfg.trials):
                idx = hitting_time(traj.angular_momentum[trial], target)
                hits.append(math.nan if idx is None else float(traj.steps[idx]))
            values[eps, f"hit_step[target={target:g}]", target] = hits
        values[eps, "max_abs_J"] = np.abs(traj.angular_momentum).max(axis=1)
    return _collected(cfg, values)


def regularity_target(d: int, power: float, degree: int, seed: int):
    """Target of smoothness class p: truncation tail decaying like K^-p.

    On the two-parameter invariant index lattice the shell at total degree s
    carries O(s) coefficients, so the coefficient envelope needs one extra
    power for the l2 tail to scale as K^-p.
    """
    return make_target(d, AlgebraicDecay(power + 1.0), degree, seed)


@_experiment("regularity-sweep", "loglog",
             "random-augmentation error across target smoothness classes",
             {"train_size": 100, "test_size": 100, "trials": 10, "degrees": (2, 8),
              "t_list": (16, 64, 256), "powers": (0.5, 1.0, 2.0, 3.0), "target_degree": 30})
def run_regularity_sweep(cfg: ExperimentConfig) -> ResultTable:
    """Random-augmentation eps_sym across algebraic smoothness classes."""
    values = defaultdict(list)
    for pi, power in enumerate(cfg.powers):
        target = regularity_target(cfg.d, power, _target_degree(cfg),
                                   _int_seed(cfg.seed, 1, pi))
        _, cutoff, _, bases, trials = _setup(cfg, target, test=False)
        for trial, train, _ in trials:
            for k, basis in zip(cfg.degrees, bases):
                for ti, t in enumerate(cfg.t_list):
                    scheme = AugmentationScheme("random", t=t,
                                                seed=_int_seed(cfg.seed, 7, pi, ti, trial))
                    values[t, f"eps_sym[K={k},p={power:g}]"].append(
                        augmented_lsq(basis, train, scheme, cutoff).eps_sym)
            del train
    return _collected(cfg, values)


@_experiment("distributions-preview", "semilogy",
             "raw samples from each named data distribution", {})
def run_distributions_preview(cfg: ExperimentConfig) -> ResultTable:
    """Dump raw samples of every distribution defined for this d."""
    names = _CIRCLE_ROLES if cfg.d == 1 else _SPHERE_ROLES
    outdir = _experiment_dir(cfg)
    values = {}
    for i, name in enumerate(names):
        spec = DistributionSpec(cfg.d, name, cfg.kappa, cfg.sigma)
        data = sample_dataset(spec, cfg.preview_size, _rng(cfg.seed, 8, i))
        export_dataset(data, os.path.join(outdir, f"{cfg.name}_{name}.csv"))
        values[i, f"n_samples[{name}]"] = [float(data.n)]
    return _collected(cfg, values)


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    return _EXPERIMENTS[cfg.experiment].runner(cfg)


def _experiment_dir(cfg: ExperimentConfig) -> str:
    """``outdir/<experiment>``, created if missing: the one directory every
    output of a section goes to."""
    path = os.path.join(cfg.outdir, cfg.experiment)
    os.makedirs(path, exist_ok=True)
    return path


def _write_outputs(cfg: ExperimentConfig, table: ResultTable) -> list[str]:
    """Write ``<name>.csv`` and, when there is anything to plot, the matching
    ``.svg`` into ``_experiment_dir``; returns the paths written."""
    stem = os.path.join(_experiment_dir(cfg), cfg.name)
    table.to_csv(stem + ".csv")
    written = [stem + ".csv"]
    if emit_plot(table, _EXPERIMENTS[cfg.experiment].plot, stem + ".svg") is not None:
        written.append(stem + ".svg")
    return written


def run_config_file(path, outdir_override=None) -> list[str]:
    """Run every section of a config file; returns the paths written."""
    written = []
    for cfg in load_configs(path):
        if outdir_override:
            cfg = replace(cfg, outdir=outdir_override)
        _experiment_dir(cfg)  # an unusable outdir fails here, before the sweep, not after it
        written += _write_outputs(cfg, run_experiment(cfg))
    return written


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
_FLOOR = 1e-16
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 80, 180, 24, 56


def _svg_coord(v: float) -> str:
    return f"{v:.3f}"


def emit_plot(table: ResultTable, kind: str = "semilogy", path=None):
    """Log-scale line plot of a result table, one polyline per metric.

    Values at or below zero are clamped to a 1e-16 floor and flagged with a
    square marker; non-finite means are left out and non-finite spreads drop
    their whisker.  Output bytes depend only on the table contents; a table
    with nothing to draw produces a warning and no file.
    """
    metrics = {}
    for sweep, metric, mean, std, _ in table.sorted_rows():
        if math.isfinite(mean):  # non-finite rows stay in the CSV but are not drawn
            metrics.setdefault(metric, []).append(
                (float(sweep), mean, std if math.isfinite(std) else 0.0))
    if not metrics:
        print(f"emit_plot: table {table.name!r} has no finite values, no plot written",
              file=sys.stderr)
        return None

    xs = sorted({x for pts in metrics.values() for (x, _, _) in pts})
    logx = kind == "loglog" and min(xs) > 0.0

    def tx(x):
        lo, hi = (math.log10(xs[0]), math.log10(xs[-1])) if logx else (xs[0], xs[-1])
        span = (hi - lo) or 1.0
        v = math.log10(x) if logx else x
        return _ML + (_W - _ML - _MR) * (v - lo) / span

    clamped = []
    ys = []
    for pts in metrics.values():
        for (_, mean, std) in pts:
            ys.append(max(mean, _FLOOR))
            ys.append(max(mean + std, _FLOOR))
            ys.append(max(mean - std, _FLOOR))
    ylo = math.floor(math.log10(min(ys)))
    yhi = max(math.ceil(math.log10(max(ys))), ylo + 1)

    def ty(y):
        v = math.log10(max(y, _FLOOR))
        return _H - _MB - (_H - _MB - _MT) * (v - ylo) / (yhi - ylo)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    # axes
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
                 'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
                 'stroke="black" stroke-width="1"/>')
    for dec in range(ylo, yhi + 1):
        y = ty(10.0 ** dec)
        parts.append(f'<line x1="{_ML - 4}" y1="{_svg_coord(y)}" x2="{_ML}" '
                     f'y2="{_svg_coord(y)}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_svg_coord(y + 4)}" text-anchor="end" '
                     f'font-size="11">1e{dec}</text>')
    for x in xs:
        px = tx(x)
        parts.append(f'<line x1="{_svg_coord(px)}" y1="{_H - _MB}" x2="{_svg_coord(px)}" '
                     f'y2="{_H - _MB + 4}" stroke="black" stroke-width="1"/>')
        label = f"{x:g}"
        parts.append(f'<text x="{_svg_coord(px)}" y="{_H - _MB + 18}" text-anchor="middle" '
                     f'font-size="11">{label}</text>')

    for i, (metric, pts) in enumerate(sorted(metrics.items())):
        color = _PALETTE[i % len(_PALETTE)]
        coords = []
        for (x, mean, std) in pts:
            px, py = tx(x), ty(max(mean, _FLOOR))
            coords.append(f"{_svg_coord(px)},{_svg_coord(py)}")
            if mean <= _FLOOR:
                clamped.append((px, py, color))
            if std > 0.0:
                y1 = ty(max(mean - std, _FLOOR))
                y2 = ty(max(mean + std, _FLOOR))
                parts.append(f'<line x1="{_svg_coord(px)}" y1="{_svg_coord(y1)}" '
                             f'x2="{_svg_coord(px)}" y2="{_svg_coord(y2)}" '
                             f'stroke="{color}" stroke-width="1"/>')
        parts.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 14 * (i + 1)
        parts.append(f'<line x1="{_W - _MR + 8}" y1="{ly - 4}" x2="{_W - _MR + 28}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR + 32}" y="{ly}" font-size="11">{metric}</text>')
    for (px, py, color) in clamped:
        parts.append(f'<rect x="{_svg_coord(px - 3)}" y="{_svg_coord(py - 3)}" width="6" '
                     f'height="6" fill="none" stroke="{color}" stroke-width="1"/>')
    parts.append("</svg>")
    payload = "\n".join(parts) + "\n"
    if path is None:
        return payload
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    return path
