import gc
import math
import os
import weakref
from dataclasses import fields

import numpy as np
import pytest

from symquad.cli import main
from symquad.experiments import (ConfigError, ExperimentConfig, ResultTable, config_from_items,
                                 emit_plot, list_experiments, load_configs, read_result_csv,
                                 run_approx_rates, run_compare, run_config_file,
                                 run_drift, run_quad_sweep, run_random_sweep,
                                 run_regularity_sweep)


def _cfg(experiment, **kv):
    items = {k: str(v) for k, v in kv.items()}
    return config_from_items(experiment, experiment, items)


def test_config_missing_required_field_named():
    with pytest.raises(ConfigError, match="'d'"):
        config_from_items("approx-rates", "approx-rates", {})
    with pytest.raises(ConfigError, match="'eps_list'"):
        config_from_items("drift", "drift", {})


def test_config_unknown_field_and_experiment():
    with pytest.raises(ConfigError, match="unknown field"):
        config_from_items("approx-rates", "x", {"d": "1", "bogus": "1"})
    with pytest.raises(ConfigError, match="unknown experiment"):
        config_from_items("nope", "nope", {})


def test_config_defaults_applied():
    cfg = _cfg("quad-sweep", d=1)
    assert cfg.train_size == 800 and cfg.test_size == 200
    cfg2 = _cfg("approx-rates", d=2)
    assert (cfg2.train_size, cfg2.test_size) == (10000, 2500)
    cfg3 = _cfg("random-sweep", d=1)
    assert cfg3.trials == 10 and cfg3.t_list == (4, 8, 16, 32, 64, 128, 256)


def test_config_list_parsing():
    cfg = _cfg("random-sweep", d=1, t_list="4, 8 16", degrees="2 3")
    assert cfg.t_list == (4, 8, 16) and cfg.degrees == (2, 3)
    with pytest.raises(ConfigError, match="'t_list'"):
        _cfg("random-sweep", d=1, t_list="")
    with pytest.raises(ConfigError, match="'trials'"):
        _cfg("quad-sweep", d=1, trials=0)
    with pytest.raises(ConfigError, match="'cutoff'"):
        _cfg("quad-sweep", d=1, cutoff="huge")
    for experiment, key in (("quad-sweep", "degrees"), ("compare", "quad_degrees"),
                            ("regularity-sweep", "powers")):
        with pytest.raises(ConfigError, match=f"field '{key}' must be non-empty"):
            _cfg(experiment, d=1, **{key: ""})
    assert _cfg("drift", eps_list="0.1", degrees="").degrees == ()


def test_config_every_field_parsed_by_type(tmp_path):
    # one INI section sets every field from a string: (raw text, parsed value)
    scalars = {"seed": ("3", 3), "trials": ("2", 2), "d": ("1", 1), "train_size": ("40", 40),
               "test_size": ("20", 20), "target_degree": ("9", 9), "steps": ("100", 100),
               "record_every": ("5", 5), "preview_size": ("50", 50),
               "alpha": ("2", 2.0), "kappa": ("50", 50.0), "sigma": ("0.2", 0.2),
               "dt": ("0.01", 0.01), "outdir": (str(tmp_path), str(tmp_path)),
               "distribution": ("dUU", "dUU"), "cutoff": ("1e-3", "1e-3")}
    tuples = {"degrees": ("2, 3", (2, 3)), "quad_degrees": ("0 1", (0, 1)),
              "t_list": ("4,8", (4, 8)), "powers": ("1 2.5", (1.0, 2.5)),
              "eps_list": ("0, 0.1", (0.0, 0.1)), "hit_targets": ("1e-3 1", (1e-3, 1.0))}
    settings = {**scalars, **tuples}
    assert set(settings) == {f.name for f in fields(ExperimentConfig)} - {"experiment", "name"}
    path = tmp_path / "all.ini"
    path.write_text("[regularity-sweep.all]\n"
                    + "".join(f"{key} = {raw}\n" for key, (raw, _) in settings.items()))
    (cfg,) = load_configs(path)
    for key, (_, expected) in scalars.items():
        value = getattr(cfg, key)
        assert type(value) is type(expected) and value == expected, key
    for key, (_, expected) in tuples.items():
        value = getattr(cfg, key)
        assert type(value) is tuple and value == expected, key
        assert [type(v) for v in value] == [type(v) for v in expected], key


def test_load_configs_sections(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("""
[quad-sweep.small]
d = 1
degrees = 3
quad_degrees = 0 1 2 3 4
train_size = 60
test_size = 40
seed = 3

[drift]
eps_list = 0.0 0.01
steps = 2000
trials = 2
""")
    cfgs = load_configs(path)
    assert [c.experiment for c in cfgs] == ["quad-sweep", "drift"]
    assert cfgs[0].name == "quad-sweep.small"
    with pytest.raises(ConfigError):
        load_configs(tmp_path / "missing.ini")


def test_list_experiments_complete():
    ids = [k for k, _ in list_experiments()]
    assert sorted(ids) == ["approx-rates", "compare", "distributions-preview", "drift",
                           "quad-sweep", "random-sweep", "regularity-sweep"]
    assert all(desc for _, desc in list_experiments())


def test_quad_sweep_threshold_cliff(tmp_path):
    cfg = _cfg("quad-sweep", d=1, degrees="4", quad_degrees="0 1 2 3 4 5",
               train_size=120, test_size=60, seed=5, outdir=tmp_path)
    table = run_quad_sweep(cfg)
    eps = table.metric("eps_sym[K=4]")
    assert eps[4] < 1e-10 and eps[5] < 1e-10
    assert all(eps[q] > 1e-9 for q in (0, 1, 2, 3))
    flags = table.metric("past_threshold[K=4]")
    assert flags[3] == 0.0 and flags[4] == 1.0


def test_quad_sweep_low_data_still_exact(tmp_path):
    cfg = _cfg("quad-sweep", d=1, degrees="4", quad_degrees="4", train_size=40,
               test_size=20, seed=6, outdir=tmp_path)
    table = run_quad_sweep(cfg)
    assert table.metric("eps_sym[K=4]")[4] < 1e-10


def test_quad_sweep_degree_zero_matches_unaugmented(tmp_path):
    from symquad.coupling import enumerate_basis
    from symquad.regression import full_lsq
    from symquad.sampling import DistributionSpec, ExponentialDecay, make_target, sample_dataset
    from symquad.experiments import _int_seed, _rng

    cfg = _cfg("quad-sweep", d=1, degrees="3", quad_degrees="0", train_size=80,
               test_size=40, seed=7, outdir=tmp_path)
    table = run_quad_sweep(cfg)
    target = make_target(1, ExponentialDecay(2.0), 30, _int_seed(7, 1))
    data = sample_dataset(DistributionSpec(1, "UUU"), 80, _rng(7, 2, 0), target)
    plain = full_lsq(enumerate_basis(1, 3, 3), data)
    assert abs(table.metric("eps_sym[K=3]")[0] - plain.eps_sym) < 1e-12


def test_random_sweep_single_trial_zero_std(tmp_path):
    cfg = _cfg("random-sweep", d=1, degrees="3", t_list="4 8", trials=1,
               train_size=50, test_size=30, seed=8, outdir=tmp_path)
    table = run_random_sweep(cfg)
    stds = [r[3] for r in table.rows if r[1].startswith("eps_sym")]
    assert stds and all(s == 0.0 for s in stds)


def test_random_sweep_halving_rate(tmp_path):
    cfg = _cfg("random-sweep", d=1, degrees="4", t_list="64 256", trials=10,
               train_size=100, test_size=50, seed=9, outdir=tmp_path)
    table = run_random_sweep(cfg)
    eps = table.metric("eps_sym[K=4]")
    ratio = eps[64] / eps[256]
    assert 1.4 <= ratio <= 2.9  # T^{-1/2} with slack over a 4x budget step
    bounds = table.metric("schur_bound[K=4]")
    assert all(math.isfinite(bounds[t]) for t in (64, 256))


def test_random_sweep_concentrated_sharp_drop(tmp_path):
    cfg = _cfg("random-sweep", d=1, distribution="dUU", degrees="5",
               t_list="1 2 4 8 16", trials=6, train_size=100, test_size=50,
               seed=10, outdir=tmp_path)
    table = run_random_sweep(cfg)
    eps = table.metric("eps_sym[K=5]")
    ts = sorted(eps)
    ratios = [eps[a] / eps[b] for a, b in zip(ts, ts[1:])]
    assert max(ratios) > 5.0


def test_compare_ratio_capped_past_threshold(tmp_path):
    cfg = _cfg("compare", d=1, degrees="3", quad_degrees="1 3 5", trials=3,
               train_size=60, test_size=30, seed=11, outdir=tmp_path)
    table = run_compare(cfg)
    ratios = table.metric("ratio[K=3]")
    quad = table.metric("quad_eps_sym[K=3]")
    budgets = sorted(quad)
    assert quad[budgets[-1]] < 1e-10
    assert ratios[budgets[-1]] == 1e16
    pre = [b for b in budgets if quad[b] >= 1e-10]
    assert all(ratios[b] >= 1.0 for b in pre)


def test_runners_draw_each_trials_data_once(monkeypatch):
    from symquad import experiments

    calls = []
    real = experiments.sample_dataset
    monkeypatch.setattr(experiments, "sample_dataset",
                        lambda *args: calls.append(args) or real(*args))
    run_random_sweep(_cfg("random-sweep", d=1, degrees="2", t_list="4 8 16", trials=2,
                          train_size=30, test_size=10, seed=1))
    assert len(calls) == 4  # one (train, test) pair per trial
    calls.clear()
    run_quad_sweep(_cfg("quad-sweep", d=1, degrees="2 3", quad_degrees="0 3", trials=2,
                        train_size=30, test_size=10, seed=1))
    assert len(calls) == 2 * 2
    calls.clear()
    run_regularity_sweep(_cfg("regularity-sweep", d=1, degrees="2", t_list="4 8",
                              powers="1 2", trials=2, train_size=30, test_size=10,
                              target_degree=6, seed=1))
    assert len(calls) == 2 * 2  # train only, once per (power, trial)


# every regression runner at two degrees, two sweep points and three trials,
# with the solve each one calls first through the experiments module
_RUNNER_CASES = [
    ("approx-rates", run_approx_rates, "full_lsq", dict(degrees="1 2")),
    ("quad-sweep", run_quad_sweep, "augmented_lsq", dict(degrees="1 2", quad_degrees="0 2")),
    ("random-sweep", run_random_sweep, "augmented_lsq", dict(degrees="1 2", t_list="4 8")),
    ("compare", run_compare, "augmented_lsq", dict(degrees="1 2", quad_degrees="0 2")),
    ("regularity-sweep", run_regularity_sweep, "augmented_lsq",
     dict(degrees="1 2", t_list="4 8", powers="1 2", target_degree=6)),
]


def _runner_cfg(experiment, trials, kv):
    return _cfg(experiment, d=1, trials=trials, train_size=30, test_size=10, seed=9, **kv)


@pytest.mark.parametrize("experiment, runner, solve, kv", _RUNNER_CASES,
                         ids=[case[0] for case in _RUNNER_CASES])
def test_a_trials_datasets_are_freed_before_the_next_trial_solves(monkeypatch, experiment,
                                                                 runner, solve, kv):
    from symquad import experiments

    drawn = []  # a weak reference to every dataset, in draw order
    real_sample = experiments.sample_dataset

    def sample(*args):
        data = real_sample(*args)
        drawn.append(weakref.ref(data))
        return data

    real_solve = getattr(experiments, solve)
    trains = set()

    def solve_checked(basis, data, *args):
        gc.collect()
        first = next(i for i, ref in enumerate(drawn) if ref() is data)
        alive = [i for i, ref in enumerate(drawn[:first]) if ref() is not None]
        assert not alive, f"datasets {alive} of an earlier trial outlive it"
        trains.add(first)
        return real_solve(basis, data, *args)

    monkeypatch.setattr(experiments, "sample_dataset", sample)
    monkeypatch.setattr(experiments, solve, solve_checked)
    runner(_runner_cfg(experiment, 3, kv))
    assert len(trains) == 3 * (2 if runner is run_regularity_sweep else 1)


@pytest.mark.parametrize("experiment, runner, solve, kv", _RUNNER_CASES,
                         ids=[case[0] for case in _RUNNER_CASES])
def test_a_trials_datasets_are_freed_before_the_next_trial_is_drawn(monkeypatch, experiment,
                                                                    runner, solve, kv):
    from symquad import experiments

    cfg = _runner_cfg(experiment, 3, kv)
    drawn = []  # a weak reference to every dataset, in draw order
    trains = 0
    real_sample = experiments.sample_dataset

    def sample(spec, n, *args):
        nonlocal trains
        if n == cfg.train_size:  # a trial starts: nothing drawn before may be alive
            gc.collect()
            alive = [i for i, ref in enumerate(drawn) if ref() is not None]
            assert not alive, f"datasets {alive} of an earlier trial outlive it"
            trains += 1
        data = real_sample(spec, n, *args)
        drawn.append(weakref.ref(data))
        return data

    monkeypatch.setattr(experiments, "sample_dataset", sample)
    runner(cfg)
    assert trains == 3 * (2 if runner is run_regularity_sweep else 1)


def test_every_runner_reports_each_trial_once():
    once = ("past_threshold", "target_tail", "ratio")  # one value per sweep point
    for experiment, runner, _, kv in _RUNNER_CASES:
        table = runner(_runner_cfg(experiment, 2, kv))
        expected = {run_approx_rates: 2 * 5, run_regularity_sweep: 2 * 2 * 2}.get(runner, 12)
        assert len(table.rows) == expected, experiment
        for sweep, metric, _, _, trials in table.rows:
            assert trials == (1 if metric.split("[")[0] in once else 2), (experiment, sweep,
                                                                            metric)
    # on the sphere q = 2 and q = 3 both give a 32-node rule: each keeps its rows
    table = run_compare(_cfg("compare", d=2, degrees="1 2", quad_degrees="1 2 3", trials=2,
                             train_size=30, seed=10))
    assert len(table.rows) == 2 * 3 * 3
    at_32 = [metric for sweep, metric, _, _, _ in table.rows if sweep == 32]
    assert sorted(at_32) == sorted(2 * [f"{name}[K={k}]" for k in (1, 2)
                                        for name in ("quad_eps_sym", "random_eps_sym", "ratio")])
    assert all(trials == (1 if metric.startswith("ratio") else 2)
               for _, metric, _, _, trials in table.rows)


def test_one_design_evaluation_per_dataset_and_basis(monkeypatch):
    from symquad import regression

    calls = []  # (dataset, basis) per evaluation; holding them keeps ids unique
    real = regression.design_matrix
    monkeypatch.setattr(regression, "design_matrix",
                        lambda basis, data: calls.append((data, basis)) or real(basis, data))
    monkeypatch.setattr(regression, "invariant_design_matrix", None)  # never reached
    # train 60 > p+1 = 53 at K=2 (a triangular factor) and < 53 at K=2 below
    run_approx_rates(_cfg("approx-rates", d=2, degrees="1 2", trials=1, train_size=60,
                          test_size=20, seed=3))
    assert len(calls) == 2 * 2  # (train, test) per degree
    run_random_sweep(_cfg("random-sweep", d=2, distribution="dUU", degrees="2",
                          t_list="4 8 16", trials=2, train_size=60, test_size=20, seed=4))
    run_random_sweep(_cfg("random-sweep", d=2, degrees="2", t_list="4 8", trials=1,
                          train_size=30, test_size=20, seed=5))
    assert len(calls) == 4 + 2 * 2 + 2
    # d=1 train 40 > p+1 = 26 at K=2: the charge blocks read the factor too
    run_quad_sweep(_cfg("quad-sweep", d=1, distribution="dUU", degrees="2",
                        quad_degrees="0 1 2 3", train_size=40, test_size=20, seed=6))
    assert len(calls) == 10 + 2
    assert len({(id(data), id(basis)) for data, basis in calls}) == len(calls)


def test_random_sweep_cell_matches_direct_solve():
    from symquad.coupling import enumerate_basis
    from symquad.experiments import _int_seed, _rng
    from symquad.regression import AugmentationScheme, augmented_lsq
    from symquad.sampling import DistributionSpec, ExponentialDecay, make_target, sample_dataset

    table = run_random_sweep(_cfg("random-sweep", d=1, degrees="3", t_list="4 8", trials=2,
                                  train_size=40, test_size=20, seed=21))
    target = make_target(1, ExponentialDecay(2.0), 30, _int_seed(21, 1))
    eps = []
    for trial in range(2):
        train = sample_dataset(DistributionSpec(1, "UUU"), 40, _rng(21, 2, trial), target)
        scheme = AugmentationScheme("random", t=8, seed=_int_seed(21, 4, 1, trial))
        eps.append(augmented_lsq(enumerate_basis(1, 3, 3), train, scheme).eps_sym)
    assert table.metric("eps_sym[K=3]")[8] == float(np.mean(eps))


def test_identical_schemes_give_ratio_one():
    from symquad.coupling import enumerate_basis
    from symquad.regression import AugmentationScheme, augmented_lsq
    from symquad.sampling import DistributionSpec, ExponentialDecay, make_target, sample_dataset

    basis = enumerate_basis(1, 3, 3)
    target = make_target(1, ExponentialDecay(2.0), 8, seed=12)
    data = sample_dataset(DistributionSpec(1, "UUU"), 70, np.random.default_rng(13), target)
    scheme = AugmentationScheme("random", t=6, seed=14)
    a = augmented_lsq(basis, data, scheme)
    b = augmented_lsq(basis, data, scheme)
    assert a.eps_sym == b.eps_sym


def test_drift_experiment(tmp_path):
    cfg = _cfg("drift", eps_list="0.0 0.01 0.1", steps=20000, record_every=10,
               trials=2, seed=15, outdir=tmp_path)
    table = run_drift(cfg)
    hit = table.metric("hit_step[target=0.01]")
    assert math.isnan(hit[0.0])
    assert hit[0.1] <= hit[0.01]
    files = sorted(os.listdir(tmp_path / "drift"))
    assert len(files) == 6  # one trajectory per (eps, trial)
    assert table.metric("max_abs_J")[0.0] < 1e-8


def test_drift_single_run_single_file(tmp_path):
    cfg = _cfg("drift", eps_list="0.01", steps=500, record_every=10, trials=1,
               seed=16, outdir=tmp_path)
    run_drift(cfg)
    assert len(os.listdir(tmp_path / "drift")) == 1


def test_regularity_sweep_single_cell(tmp_path):
    cfg = _cfg("regularity-sweep", d=1, degrees="2", t_list="8", powers="1.0",
               trials=2, train_size=40, test_size=20, target_degree=10, seed=17,
               outdir=tmp_path)
    table = run_regularity_sweep(cfg)
    assert len(table.rows) == 1
    assert table.rows[0][1] == "eps_sym[K=2,p=1]"


def test_approx_rates_invariant_beats_full_on_concentrated(tmp_path):
    cfg = _cfg("approx-rates", d=1, distribution="dUU", degrees="2 4",
               train_size=400, test_size=200, seed=18, outdir=tmp_path)
    table = run_approx_rates(cfg)
    for k in (2, 4):
        assert table.metric("full_error")[k] > 3.0 * table.metric("invariant_error")[k]


def test_approx_rates_single_cell_rows(tmp_path):
    cfg = _cfg("approx-rates", d=1, degrees="2", train_size=200, test_size=80,
               trials=1, seed=19, outdir=tmp_path)
    table = run_approx_rates(cfg)
    sweeps = {r[0] for r in table.rows}
    assert sweeps == {2}


def test_result_csv_roundtrip_and_determinism(tmp_path):
    cfg = _cfg("quad-sweep", d=1, degrees="3", quad_degrees="0 2 4",
               train_size=60, test_size=30, seed=20, outdir=tmp_path)
    t1 = run_quad_sweep(cfg)
    t2 = run_quad_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t1.to_csv(p1)
    t2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = read_result_csv(p1)
    assert back.experiment == "quad-sweep"
    assert len(back.rows) == len(t1.rows)


def test_result_csv_quotes_names_with_commas(tmp_path):
    cfg = _cfg("regularity-sweep", d=1, degrees="2", t_list="4", powers="0.5 2",
               train_size=20, trials=1, seed=21, outdir=tmp_path)
    table = run_regularity_sweep(cfg)
    path = tmp_path / "reg.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert '4,"eps_sym[K=2,p=0.5]",' in "\n".join(lines)
    back = read_result_csv(path)
    assert back.experiment == "regularity-sweep" and back.name == table.name
    assert back.sorted_rows() == table.sorted_rows()


def test_run_config_file_outputs(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[quad-sweep]\nd = 1\ndegrees = 3\nquad_degrees = 0 3\n"
                    "train_size = 50\ntest_size = 25\nseed = 2\n"
                    f"outdir = {tmp_path / 'out'}\n")
    written = run_config_file(path)
    assert any(p.endswith(".csv") for p in written)
    assert any(p.endswith(".svg") for p in written)
    for p in written:
        assert os.path.isfile(p)


@pytest.mark.parametrize("key, raw", [("degrees", "2 2"), ("quad_degrees", "0 1 0"),
                                      ("t_list", "4 4"), ("eps_list", "0.1 0.10"),
                                      ("powers", "1 2 1.0"), ("hit_targets", "1e-3 0.001")])
def test_config_rejects_duplicate_sweep_entries(tmp_path, capsys, key, raw):
    # a repeated entry would pool two sweep points into one row, or write a
    # drift row and its trajectory files twice
    experiment = {"eps_list": "drift", "hit_targets": "drift",
                  "powers": "regularity-sweep"}.get(key, "compare" if key == "quad_degrees"
                                                    else "random-sweep")
    items = {"eps_list": "0.1"} if experiment == "drift" else {"d": "1"}
    items[key] = raw
    with pytest.raises(ConfigError, match=f"field '{key}' has duplicate entries"):
        config_from_items(experiment, experiment, items)
    ini = tmp_path / "dup.ini"
    ini.write_text(f"[{experiment}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items()))
    assert main(["run", str(ini), "--outdir", str(tmp_path / "out")]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_reports_a_bad_outdir_before_the_sweep(tmp_path, capsys, monkeypatch):
    from symquad import experiments

    ran = []
    monkeypatch.setattr(experiments, "run_experiment", lambda cfg: ran.append(cfg))
    blocker = tmp_path / "file"
    blocker.write_text("")
    ini = tmp_path / "run.ini"
    ini.write_text("[quad-sweep]\nd = 1\ndegrees = 1\nquad_degrees = 0\n"
                   "train_size = 10\ntest_size = 5\n")
    assert main(["run", str(ini), "--outdir", str(blocker / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert ran == []


def test_emit_plot_polylines_and_determinism(tmp_path):
    table = ResultTable("quad-sweep", "t", {"seed": 0})
    for sweep in (1, 2, 3):
        table.add(sweep, "a", [10.0 ** -sweep])
        table.add(sweep, "b", [0.0])  # clamped to the floor marker
    svg1 = emit_plot(table, "semilogy")
    svg2 = emit_plot(table, "semilogy")
    assert svg1 == svg2
    assert svg1.count("<polyline") == 2
    assert "<rect" in svg1  # floor markers present
    empty = ResultTable("quad-sweep", "empty", {})
    assert emit_plot(empty, "semilogy", tmp_path / "no.svg") is None
    assert not (tmp_path / "no.svg").exists()


def test_cli_list_and_errors(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "drift" in out and "quad-sweep" in out
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[approx-rates]\nbogus = 1\n")
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()
    for field, text in (("distribution", "[quad-sweep]\nd = 1\ndistribution = XYZ\n"),
                        ("kappa", "[quad-sweep]\nd = 1\nkappa = -1\n"),
                        ("eps_list", "[drift]\neps_list = -1\n"),
                        ("record_every", "[drift]\neps_list = 0.1\nrecord_every = 0\n"),
                        ("record_every", "[drift]\neps_list = 0.1\nsteps = 50\n"),
                        ("dt", "[drift]\neps_list = 0.1\ndt = nan\n"),
                        ("alpha", "[quad-sweep]\nd = 1\nalpha = nan\n"),
                        ("cutoff", "[quad-sweep]\nd = 1\ncutoff = nan\n"),
                        ("degrees", "[random-sweep]\nd = 1\ndegrees = 2 -1\n"),
                        ("quad_degrees", "[quad-sweep]\nd = 1\nquad_degrees = -1\n"),
                        ("t_list", "[random-sweep]\nd = 1\nt_list = 4 0\n"),
                        ("target_degree", "[quad-sweep]\nd = 1\ntarget_degree = -2\n"),
                        ("preview_size", "[distributions-preview]\nd = 1\npreview_size = 0\n"),
                        ("alpha", "[approx-rates]\nd = 1\nalpha = -30\n"),
                        ("hit_targets", "[drift]\neps_list = 0.1\nhit_targets = -1 0\n"),
                        # a section name is a file name under outdir/<experiment>
                        ("approx-rates.../../../escaped",
                         "[approx-rates.../../../escaped]\nd = 1\n"),
                        ("distributions-preview.a/b", "[distributions-preview.a/b]\nd = 1\n")):
        bad.write_text(text)
        assert main(["run", str(bad)]) == 2
        assert f"'{field}'" in capsys.readouterr().err


def test_cli_run_and_verify(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[quad-sweep]\nd = 1\ndegrees = 2\nquad_degrees = 0 2\n"
                   "train_size = 40\ntest_size = 20\nseed = 4\n")
    assert main(["run", str(ini), "--outdir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(str(tmp_path / "out") in line for line in out)

    from symquad.geometry import so3_quadrature_euler, write_quadrature_file
    rule_path = tmp_path / "rule.txt"
    write_quadrature_file(so3_quadrature_euler(2), rule_path)
    assert main(["verify-quadrature", str(rule_path), "--lmax", "4"]) == 0
    assert "verified_degree=3" in capsys.readouterr().out
    assert main(["verify-quadrature", str(tmp_path / "nope.txt")]) == 2
    capsys.readouterr()
    for header, body in (("degree 1", "-0.5 0 0 0\n1.5 0 1 0\n"),
                         ("degree 1", "0.5 0 0 0\n0.5 inf 1 0\n"),
                         ("degree -3", "0.5 0 0 0\n0.5 0 1 0\n")):
        rule_path.write_text(f"{header}\ncount 2\n" + body)
        assert main(["verify-quadrature", str(rule_path)]) == 2
        assert "rule.txt:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["config-not-utf8", "rule-not-utf8", "rule-is-directory",
                                  "run-outdir-under-file", "drift-outdir-under-file",
                                  "negative-lmax"])
def test_cli_bad_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    from symquad.geometry import so3_quadrature_euler, write_quadrature_file

    latin1 = tmp_path / "latin1.txt"  # the two non-UTF-8 files, empty for the other cases
    latin1.write_bytes({"config-not-utf8": "[quad-sweep]\nd = 1\n# caf\u00e9\n",
                        "rule-not-utf8": "degree 0\ncount 1\n1 0 0 0  # caf\u00e9\n"}
                       .get(case, "").encode("latin-1"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    ini = tmp_path / "run.ini"
    ini.write_text("[quad-sweep]\nd = 1\ndegrees = 1\nquad_degrees = 0\n"
                   "train_size = 10\ntest_size = 5\n")
    rule_path = tmp_path / "rule.txt"
    write_quadrature_file(so3_quadrature_euler(1), rule_path)
    argv = {"config-not-utf8": ["run", str(latin1)],
            "rule-not-utf8": ["verify-quadrature", str(latin1)],
            "rule-is-directory": ["verify-quadrature", str(tmp_path)],
            "run-outdir-under-file": ["run", str(ini), "--outdir", str(blocker / "out")],
            "drift-outdir-under-file": ["drift", "--eps", "0.01", "--steps", "20",
                                        "--record-every", "10", "--outdir", str(blocker)],
            "negative-lmax": ["verify-quadrature", str(rule_path), "--lmax", "-3"]}[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "tested up to" not in captured.out


def test_cli_drift(tmp_path, capsys):
    assert main(["drift", "--eps", "0.01", "--steps", "400", "--record-every", "10",
                 "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "drift.csv" in out
    assert (tmp_path / "drift" / "drift.csv").is_file()


def test_drift_without_hits_plots_without_nan(tmp_path, capsys):
    # at eps = 0 the hit target is never reached: the CSV keeps its nan rows,
    # the plot leaves those points out
    ini = tmp_path / "still.ini"
    ini.write_text("[drift.still]\neps_list = 0 0.01\nsteps = 200\nrecord_every = 10\n"
                   f"trials = 2\noutdir = {tmp_path / 'run'}\n")
    written = run_config_file(ini)
    assert main(["drift", "--eps", "0", "--steps", "200", "--record-every", "10",
                 "--outdir", str(tmp_path / "cli")]) == 0
    written += capsys.readouterr().out.split()
    assert len(written) == 4
    for path in written:
        text = open(path, encoding="utf-8").read()
        if path.endswith(".csv"):
            assert "nan" in text
        else:
            assert "<polyline" in text and "nan" not in text


def test_emit_plot_axis_reaches_decade_zero():
    # a largest value in (0.1, 1] puts the top tick at 1e0
    from symquad.experiments import _H, _MB, _MT

    table = ResultTable("quad-sweep", "t", {"seed": 0})
    for sweep in range(4):
        table.add(sweep, "a", [10.0 ** (sweep - 3)])
    svg = emit_plot(table, "semilogy")
    assert [f">1e{dec}<" in svg for dec in range(-4, 2)] == [False, True, True, True, True, False]
    points = svg.split('<polyline points="')[1].split('"')[0].split()
    assert all(_MT <= float(pt.split(",")[1]) <= _H - _MB for pt in points)


def test_emit_plot_skips_non_finite():
    table = ResultTable("quad-sweep", "t", {"seed": 0})
    for sweep in (1, 2, 3):
        table.add(sweep, "a", [10.0 ** -sweep, 10.0 ** -sweep])
    table.add(4, "a", [math.nan, 1.0])
    table.rows.append((5, "a", 1.0, math.nan, 2))  # finite mean, no whisker
    table.add(1, "b", [math.nan])
    svg = emit_plot(table, "semilogy")
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<polyline") == 1 and ">b</text>" not in svg
    assert svg.split("<polyline")[1].count(",") == 4  # sweeps 1, 2, 3 and 5
    only_nan = ResultTable("quad-sweep", "n", {})
    only_nan.add(1, "a", [math.nan])
    assert emit_plot(only_nan, "semilogy") is None


def test_cli_numerical_abort_exit_code(tmp_path, capsys):
    # a blown-up integration (dt astronomically large) must exit with code 3
    ini = tmp_path / "blow.ini"
    ini.write_text("[drift]\neps_list = 0.1\nsteps = 50\ndt = 1e160\n"
                   "record_every = 1\ntrials = 1\n"
                   f"outdir = {tmp_path / 'out'}\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", str(ini)])
    assert code == 3
    assert "numerical abort" in capsys.readouterr().err
