import math

import numpy as np
import pytest

from symquad.geometry import SO2, SO3, sample_haar
from symquad.regression import Dataset, rotate_dataset
from symquad.sampling import (AlgebraicDecay, DistributionSpec, ExponentialDecay,
                              export_dataset, import_dataset, make_target,
                              sample_dataset, sample_points)

from oracles import dataset_csv_text

TWO_PI = 2.0 * math.pi


def test_distribution_spec_validation():
    DistributionSpec(1, "dsUU")
    DistributionSpec(2, "dsH1sU")
    with pytest.raises(ValueError):
        DistributionSpec(1, "dH1U")  # geodesic roles exist only on the sphere
    with pytest.raises(ValueError):
        DistributionSpec(1, "UUU", kappa=0.0)


def test_circle_point_mass():
    pts = sample_points(DistributionSpec(1, "dUU"), 500, np.random.default_rng(0))
    assert np.all(pts[:, 0] == 0.0)
    assert pts.shape == (500, 3)


def test_circle_von_mises_concentration():
    n = 100_000
    kappa = 100.0
    pts = sample_points(DistributionSpec(1, "dsUU", kappa=kappa), n, np.random.default_rng(1))
    mean_angle = np.angle(np.exp(1j * pts[:, 0]).mean())
    assert abs(mean_angle) < 4.0 / math.sqrt(n * kappa)


def test_sphere_uniform_mean_vanishes():
    n = 100_000
    pts = sample_points(DistributionSpec(2, "UUU"), n, np.random.default_rng(2))
    mean = pts.reshape(-1, 3).mean(axis=0)
    assert np.linalg.norm(mean) < 4.0 * (1.0 / math.sqrt(3)) / math.sqrt(n)


def test_sphere_geodesic_roles():
    pts = sample_points(DistributionSpec(2, "dH1U"), 200, np.random.default_rng(3))
    assert np.abs(pts[:, 0, :] - [0.0, 0.0, 1.0]).max() == 0.0
    assert np.abs(pts[:, 1, 1]).max() < 1e-12  # second particle on the x-z circle
    assert np.abs(np.linalg.norm(pts[:, 1, :], axis=1) - 1.0).max() < 1e-12


def test_sphere_mollified_unit_norm():
    pts = sample_points(DistributionSpec(2, "dsH1sU"), 500, np.random.default_rng(4))
    assert np.abs(np.linalg.norm(pts.reshape(-1, 3), axis=1) - 1.0).max() < 1e-12


def test_haar_rotation_uniformizes_concentrated_marginal():
    # rotating each mollified-point-mass sample by a Haar angle must give a
    # uniform particle-1 marginal (16-bin chi-square)
    scipy_stats = pytest.importorskip("scipy.stats")
    n = 100_000
    rng = np.random.default_rng(6)
    pts = sample_points(DistributionSpec(1, "dsUU"), n, rng)
    shifted = np.mod(pts[:, 0] + rng.uniform(0.0, TWO_PI, n), TWO_PI)
    counts, _ = np.histogram(shifted, bins=16, range=(0.0, TWO_PI))
    assert scipy_stats.chisquare(counts).pvalue > 0.001


def test_sampling_determinism():
    a = sample_points(DistributionSpec(2, "dsUU"), 50, np.random.default_rng(7))
    b = sample_points(DistributionSpec(2, "dsUU"), 50, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_make_target_determinism_and_bounds():
    t1 = make_target(1, ExponentialDecay(2.0), 10, seed=8)
    t2 = make_target(1, ExponentialDecay(2.0), 10, seed=8)
    assert np.array_equal(t1.coeffs, t2.coeffs)
    assert t1.keys == t2.keys
    assert abs(t1.coeffs[t1.keys.index((0, 0, 0))]) <= 1.0
    degs = [sum(abs(c) for c in k) for k in t1.keys]
    env = np.exp(-2.0 * np.array(degs))
    assert np.all(np.abs(t1.coeffs) <= env + 1e-15)


def test_target_supported_on_invariant_indices():
    t = make_target(1, ExponentialDecay(2.0), 6, seed=9)
    assert all(sum(k) == 0 for k in t.keys)
    t2 = make_target(2, ExponentialDecay(2.0), 4, seed=10)
    assert all(abs(l[0] - l[1]) <= l[2] <= l[0] + l[1] for l in t2.keys)


def test_target_tail_norm_direct_sum():
    t = make_target(1, AlgebraicDecay(2.0), 12, seed=11)
    for k in (0, 3, 6):
        degs = np.array([sum(abs(c) for c in key) for key in t.keys])
        direct = math.sqrt(float(np.sum(np.abs(t.coeffs[degs > k]) ** 2)))
        assert abs(t.tail_norm(k) - direct) < 1e-14


def test_target_constant_only():
    t = make_target(1, ExponentialDecay(2.0), 0, seed=12)
    pts = np.random.default_rng(13).uniform(0, TWO_PI, (20, 3))
    vals = t.evaluate(pts)
    assert np.abs(vals - t.coeffs[0]).max() < 1e-14

    t2 = make_target(2, ExponentialDecay(2.0), 0, seed=14)
    v = np.random.default_rng(15).normal(size=(20, 3, 3))
    v /= np.linalg.norm(v, axis=2)[:, :, None]
    vals2 = t2.evaluate(v)
    assert np.abs(vals2 - t2.coeffs[0] * (4 * math.pi) ** -1.5).max() < 1e-14


def test_target_rotation_invariance():
    rng = np.random.default_rng(16)
    for d in (1, 2):
        t = make_target(d, ExponentialDecay(2.0), 5, seed=17)
        data = sample_dataset(DistributionSpec(d, "UUU"), 50, rng)
        base = t.evaluate(data.points)
        q = sample_haar(SO2 if d == 1 else SO3, rng)
        rotated = t.evaluate(rotate_dataset(q, data).points)
        assert np.abs(rotated - base).max() < 1e-9


def test_target_truncation_error_within_tail_bound():
    t = make_target(1, ExponentialDecay(2.0), 14, seed=18)
    k = 5
    truncated = make_target(1, ExponentialDecay(2.0), 14, seed=18)
    degs = np.array([sum(abs(c) for c in key) for key in truncated.keys])
    coeffs = truncated.coeffs.copy()
    coeffs[degs > k] = 0.0
    object.__setattr__(truncated, "coeffs", coeffs)
    pts = np.random.default_rng(19).uniform(0, TWO_PI, (1000, 3))
    diff = t.evaluate(pts) - truncated.evaluate(pts)
    rms = math.sqrt(float(np.mean(np.abs(diff) ** 2)))
    assert rms <= t.tail_sum(k) * (1.0 + 4.0 / math.sqrt(1000))


def test_dataset_csv_bytes_match_scalar_formatter(tmp_path):
    target = make_target(2, ExponentialDecay(2.0), 2, seed=20)
    sphere = sample_dataset(DistributionSpec(2, "UUU"), 40, np.random.default_rng(23), target)
    odd = Dataset(1, np.array([[-0.0, 1e-300, 5e-324], [0.1, -1e-300, 2.0 ** 60]]),
                  np.array([complex(-0.0, 5e-324), complex(1e300, -0.0)]))
    bare = Dataset(1, np.array([[0.0, -5e-324, 1.0 / 3.0]]))
    for data in (sphere, odd, bare):
        path = tmp_path / "data.csv"
        export_dataset(data, path)
        assert path.read_bytes() == dataset_csv_text(data).encode()


def test_dataset_csv_roundtrip(tmp_path):
    target = make_target(2, ExponentialDecay(2.0), 2, seed=20)
    data = sample_dataset(DistributionSpec(2, "UUU"), 25, np.random.default_rng(21), target)
    path = tmp_path / "data.csv"
    export_dataset(data, path)
    back = import_dataset(path)
    assert back.d == 2 and back.n == 25
    assert np.array_equal(back.points, data.points)
    assert np.array_equal(back.values, data.values)

    bare = Dataset(1, np.random.default_rng(22).uniform(0, TWO_PI, (5, 3)))
    path2 = tmp_path / "bare.csv"
    export_dataset(bare, path2)
    back2 = import_dataset(path2)
    assert back2.values is None and back2.n == 5

    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ValueError):
        import_dataset(bad)


def test_eval_target_on_configuration():
    # one configuration is a batch of one; a mis-shaped batch is rejected
    t = make_target(1, ExponentialDecay(2.0), 4, seed=23)
    pts = np.array([[0.3, 1.1, 5.0], [2.0, 0.1, 4.4]])
    single = t.evaluate(pts[1:])[0]
    assert abs(single - t.evaluate(pts)[1]) <= 1e-14 * abs(single)
    with pytest.raises(ValueError):
        t.evaluate(pts[:, :2])  # two particles
    t2 = make_target(2, ExponentialDecay(2.0), 2, seed=24)
    with pytest.raises(ValueError):
        t2.evaluate(pts)  # circle angles given to a sphere target
