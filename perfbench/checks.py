"""Output check of one job: a plain row-stacked oracle for the augmented
solves, the paper's properties, and parsing of every CSV the job wrote.

Each finding names the operation (config section, solve or trajectory batch)
it fails; the caller counts distinct failed operations into ``failed``.
"""

from __future__ import annotations

import glob
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

from symquad.harmonics import generalized_d
from symquad.regression import design_matrix, invariant_lsq, lsq_solve

# beta of augmented_lsq against the stacked oracle, relative to max|beta|.
# The chunked QR compression agrees to about 1e-15 on every workload; an exact
# reformulation moves only the last bits, a broken solve moves far more.
ORACLE_RTOL = 1e-8
EPS_SYM_EXACT = 1e-8       # eps_sym at quadrature degree >= K
QUAD_VS_INVARIANT = 1e-7   # max |beta_quad - beta_inv|
J_CONSERVED = 1e-8         # max |J| at eps = 0


def stacked_solve(basis, data, scheme, cutoff):
    """The augmented fit as one plain stack: rows sqrt(w_t) A D(Q_t) with the
    data vector replicated, solved by lsq_solve without compression."""
    weights, rotations = scheme.nodes(basis.d)
    a = design_matrix(basis, data)
    n = data.n
    stack = np.empty((n * len(weights), basis.size), dtype=complex)
    ys = np.empty(n * len(weights), dtype=complex)
    for t, (w, q) in enumerate(zip(weights, rotations)):
        sw = math.sqrt(w)
        stack[t * n:(t + 1) * n] = sw * (a @ generalized_d(basis, q))
        ys[t * n:(t + 1) * n] = sw * data.values
    return lsq_solve(stack, ys, cutoff)


def _solve_args(op):
    names = ("basis", "data", "scheme", "cutoff")
    bound = dict(zip(names, op["args"]))
    bound.update(op["kwargs"])
    bound.setdefault("cutoff", 0.0)
    return bound


def _rotation_set(op, scheme):
    """(section, kind, degree or T): one sweep point of the workload."""
    size = scheme.rule.declared_degree if scheme.kind == "quadrature" else scheme.t
    return (op["section"], scheme.kind, size)


def check_solves(ops, schur, oracle: bool) -> dict:
    """{op index: reason} for the solves that break a check."""
    failed = {}
    oracle_done = set()
    diag_of = {id(sol): diag for sol, diag in schur}
    for i, op in enumerate(ops):
        if op["kind"] != "solve":
            continue
        sol = op["result"]
        if not np.isfinite(sol.beta).all():
            failed[i] = "non-finite beta"
            continue
        if op["name"] != "regression.augmented_lsq":
            continue
        a = _solve_args(op)
        basis, scheme = a["basis"], a["scheme"]
        key = _rotation_set(op, scheme)
        if oracle and key not in oracle_done:
            oracle_done.add(key)
            ref = stacked_solve(basis, a["data"], scheme, a["cutoff"])
            err = float(np.abs(sol.beta - ref).max())
            scale = max(float(np.abs(ref).max()), 1e-300)
            if err > ORACLE_RTOL * scale:
                failed[i] = f"{key}: |beta - stacked oracle| = {err:.3e} (scale {scale:.3e})"
                continue
        if scheme.kind == "quadrature" and scheme.rule.declared_degree >= basis.degree:
            if sol.eps_sym >= EPS_SYM_EXACT:
                failed[i] = f"{key}: eps_sym {sol.eps_sym:.3e} at q >= K"
                continue
            inv = invariant_lsq(basis, a["data"], a["cutoff"]).beta
            gap = float(np.abs(sol.beta - inv).max())
            if gap >= QUAD_VS_INVARIANT:
                failed[i] = f"{key}: |beta_quad - beta_inv| = {gap:.3e}"
                continue
        diag = diag_of.get(id(sol))
        if diag is not None and diag.available and not sol.eps_sym <= diag.bound:
            failed[i] = f"{key}: eps_sym {sol.eps_sym:.3e} > Schur bound {diag.bound:.3e}"
    return failed


def _floats(fields, path):
    try:
        return [float(x) for x in fields]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def parse_result_csv(path) -> list[tuple]:
    """(sweep, metric, mean, std, trials) rows of a result table."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    if not lines or lines[0] != "sweep,metric,mean,std,trials":
        raise ValueError(f"{path}: missing result header")
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"{path}: row {line!r} has {len(fields)} fields")
        sweep, mean, std = _floats((fields[0], fields[2], fields[3]), path)
        rows.append((sweep, fields[1], mean, std, int(fields[4])))
    if not rows:
        raise ValueError(f"{path}: no rows")
    return rows


def parse_trajectory_csv(path) -> np.ndarray:
    """(records, 4) array of step,time,J,H."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = [_floats(ln.split(","), path) for ln in fh if ln.strip()]
    if header != "step,time,J,H" or not rows or any(len(r) != 4 for r in rows):
        raise ValueError(f"{path}: malformed trajectory")
    return np.array(rows)


def parse_dataset_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        d, n_particles = (int(x) for x in fh.readline().split(","))
        rows = [_floats(ln.split(","), path) for ln in fh if ln.strip()]
    width = n_particles * (1 if d == 1 else 3)
    if header != "d,N" or not rows or any(len(r) not in (width, width + 2) for r in rows):
        raise ValueError(f"{path}: malformed dataset")
    return np.array(rows)


def check_outputs(ops, configs, outdir) -> dict:
    """{op index: reason} for sections whose files do not parse and for
    trajectory batches that break conservation at eps = 0 or whose hitting
    steps grow with eps."""
    failed = {}
    section_op = {op["section"]: i for i, op in enumerate(ops) if op["kind"] == "section"}
    for cfg in configs:
        i = section_op.get(cfg.name)
        if i is None:
            continue
        exp_dir = os.path.join(outdir, cfg.experiment)
        try:
            table = parse_result_csv(os.path.join(exp_dir, f"{cfg.name}.csv"))
            trajectories = {}
            for path in sorted(glob.glob(os.path.join(exp_dir, f"{cfg.name}_*.csv"))):
                if cfg.experiment == "drift":
                    trajectories[path] = parse_trajectory_csv(path)
                else:
                    parse_dataset_csv(path)
            svg = os.path.join(exp_dir, f"{cfg.name}.svg")
            if os.path.exists(svg):
                ET.parse(svg)
        except (OSError, ValueError, ET.ParseError) as exc:
            failed[i] = f"{cfg.name}: {exc}"
            continue
        if cfg.experiment == "drift":
            failed.update(_check_drift(ops, cfg, exp_dir, table, trajectories))
    return failed


def _check_drift(ops, cfg, exp_dir, table, trajectories) -> dict:
    failed = {}
    batches = [i for i, op in enumerate(ops) if op["kind"] == "batch"
               and op["section"] == cfg.name]
    if len(batches) != len(cfg.eps_list):
        return {batches[-1] if batches else 0:
                f"{cfg.name}: {len(batches)} batches for {len(cfg.eps_list)} eps values"}
    for i, eps in zip(batches, cfg.eps_list):
        if eps != 0.0:
            continue
        for trial in range(cfg.trials):
            path = os.path.join(exp_dir, f"{cfg.name}_eps{eps:g}_trial{trial}.csv")
            traj = trajectories.get(path)
            if traj is None:
                failed[i] = f"{path}: missing"
                break
            j_max = float(np.abs(traj[:, 2]).max())
            if not j_max < J_CONSERVED:
                failed[i] = f"{path}: max|J| = {j_max:.3e} at eps = 0"
                break
    # mean hitting step per (target, eps); never reached (nan) reads as infinite
    hits = {}
    for sweep, metric, mean, _, _ in table:
        if metric.startswith("hit_step["):
            hits.setdefault(metric, {})[sweep] = math.inf if math.isnan(mean) else mean
    order = sorted(zip(cfg.eps_list, batches))
    for metric, by_eps in hits.items():
        for (eps0, _), (eps1, i1) in zip(order, order[1:]):
            if by_eps.get(eps1, math.inf) > by_eps.get(eps0, math.inf):
                failed.setdefault(i1, f"{metric}: step {by_eps.get(eps1)} at eps={eps1:g} "
                                      f"> {by_eps.get(eps0)} at eps={eps0:g}")
    return failed
