import math

import numpy as np
import pytest

from symquad import geometry
from symquad.geometry import (SO2, SO3, DimensionError, QuadratureFormatError,
                              QuadratureRule, Rotation, compose, identity_rule,
                              load_quadrature_file, sample_haar,
                              sample_haar_many, so2_quadrature, so3_quadrature_euler,
                              verify_exactness, write_quadrature_file)
from symquad.harmonics import wigner_block, wigner_d
from symquad.regression import Dataset, rotate_dataset

TWO_PI = 2.0 * math.pi


def test_rotation_validation():
    with pytest.raises(ValueError):
        Rotation.sphere(np.eye(3) * 2.0)
    with pytest.raises(ValueError):
        Rotation.sphere(np.diag([1.0, 1.0, -1.0]))  # det = -1
    r = Rotation.circle(-0.5)
    assert 0.0 <= r.angle < TWO_PI


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_rotation_rejects_non_finite_angle(angle):
    with pytest.raises(ValueError, match="finite"):
        Rotation(SO2, angle=angle)


def test_rotation_rejects_nan_matrix():
    for matrix in (np.full((3, 3), np.nan), np.where(np.eye(3) > 0, np.nan, 0.0)):
        with pytest.raises(ValueError):
            Rotation(SO3, matrix=matrix)


def test_rotate_identity_fixes_configs():
    rng = np.random.default_rng(0)
    c1 = Dataset(1, rng.uniform(0, TWO_PI, (1, 3)))
    assert np.allclose(rotate_dataset(Rotation.identity(SO2), c1).points, c1.points)
    v = rng.normal(size=(3, 3))
    c2 = Dataset(2, (v / np.linalg.norm(v, axis=1)[:, None])[None])
    assert np.allclose(rotate_dataset(Rotation.identity(SO3), c2).points, c2.points)


def test_rotate_circle_addition():
    c = Dataset(1, np.array([[0.0, math.pi]]))
    out = rotate_dataset(Rotation.circle(math.pi / 2), c)
    assert np.allclose(out.points, [[math.pi / 2, 3 * math.pi / 2]])


def test_rotate_sphere_quarter_turn():
    q = Rotation.from_euler_zyz(math.pi / 2, 0.0, 0.0)  # 90 degrees about z
    c = Dataset(2, np.array([[[1.0, 0.0, 0.0]]]))
    out = rotate_dataset(q, c)
    assert np.abs(out.points[0, 0] - [0.0, 1.0, 0.0]).max() < 1e-12


def test_rotate_group_mismatch():
    c = Dataset(1, np.array([[0.0]]))
    with pytest.raises(DimensionError):
        rotate_dataset(Rotation.identity(SO3), c)


def test_compose_circle_angles_add():
    out = compose(Rotation.circle(0.3), Rotation.circle(0.4))
    assert abs(out.angle - 0.7) < 1e-15


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(1)
    for group in (SO2, SO3):
        q = sample_haar(group, rng)
        qi = compose(q, q.inverse())
        if group == SO2:
            assert min(qi.angle, TWO_PI - qi.angle) < 1e-12
        else:
            assert np.abs(qi.matrix - np.eye(3)).max() < 1e-12


def test_compose_so3_is_matrix_product():
    rng = np.random.default_rng(2)
    q1, q2 = sample_haar_many(SO3, 2, rng)
    out = compose(q1, q2)
    assert np.abs(out.matrix - q1.matrix @ q2.matrix).max() < 1e-14
    assert np.abs(out.matrix.T @ out.matrix - np.eye(3)).max() < 1e-12


def test_action_associativity_random_triples():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q1, q2 = sample_haar_many(SO3, 2, rng)
        v = rng.normal(size=(3, 3))
        c = Dataset(2, (v / np.linalg.norm(v, axis=1)[:, None])[None])
        lhs = rotate_dataset(q1, rotate_dataset(q2, c)).points
        rhs = rotate_dataset(compose(q1, q2), c).points
        assert np.abs(lhs - rhs).max() < 1e-12
    for _ in range(100):
        q1, q2 = sample_haar_many(SO2, 2, rng)
        c = Dataset(1, rng.uniform(0, TWO_PI, 3)[None])
        lhs = rotate_dataset(q1, rotate_dataset(q2, c)).points
        rhs = rotate_dataset(compose(q1, q2), c).points
        err = np.abs(lhs - rhs)
        assert np.minimum(err, TWO_PI - err).max() < 1e-12


def test_euler_roundtrip_including_degenerate():
    rng = np.random.default_rng(4)
    mats = [q.matrix for q in sample_haar_many(SO3, 20, rng)]
    mats.append(np.eye(3))
    mats.append(Rotation.from_euler_zyz(0.4, math.pi, 0.0).matrix)
    for m in mats:
        a, b, g = Rotation.sphere(m).euler_zyz()
        assert np.abs(Rotation.from_euler_zyz(a, b, g).matrix - m).max() < 1e-12


def test_sample_haar_deterministic():
    a = sample_haar(SO3, np.random.default_rng(123)).matrix
    b = sample_haar(SO3, np.random.default_rng(123)).matrix
    assert np.array_equal(a, b)
    x = sample_haar(SO2, np.random.default_rng(5)).angle
    y = sample_haar(SO2, np.random.default_rng(5)).angle
    assert x == y
    # one draw is the scalar uniform draw of the generator
    assert x == Rotation.circle(np.random.default_rng(5).uniform(0.0, TWO_PI)).angle


def test_sample_haar_rejects_unknown_group():
    with pytest.raises(ValueError, match=r"SO\(4\)"):
        sample_haar("SO(4)", np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"SO\(4\)"):
        sample_haar_many("SO(4)", 3, np.random.default_rng(0))


def test_haar_so3_mean_wigner_vanishes():
    # Monte-Carlo estimate of the Haar average of the degree-1 block
    rng = np.random.default_rng(6)
    n = 100_000
    eulers = np.array([q.euler_zyz() for q in sample_haar_many(SO3, n, rng)])
    acc = wigner_block(1, *eulers.T).sum(axis=0)
    assert np.abs(acc / n).max() < 4.0 / math.sqrt(n)


def test_haar_so2_mean_phase_vanishes():
    rng = np.random.default_rng(7)
    n = 100_000
    angles = np.array([q.angle for q in sample_haar_many(SO2, n, rng)])
    assert abs(np.exp(1j * angles).mean()) < 4.0 / math.sqrt(n)


def test_haar_left_invariance_statistic():
    # entries of D^1(Q0 Q) and D^1(Q) agree in mean within CLT error
    rng = np.random.default_rng(8)
    n = 100_000
    q0 = sample_haar(SO3, rng)
    qs = sample_haar_many(SO3, n, rng)
    plain = np.array([q.euler_zyz() for q in qs])
    shift = np.array([compose(q0, q).euler_zyz() for q in qs])
    acc_plain = wigner_block(1, *plain.T).sum(axis=0)
    acc_shift = wigner_block(1, *shift.T).sum(axis=0)
    assert np.abs(acc_shift - acc_plain).max() / n < 4.0 / math.sqrt(n)


def test_so2_quadrature_nodes():
    r1 = so2_quadrature(1)
    assert len(r1) == 1 and r1.declared_degree == 0
    assert r1.rotations[0].angle == 0.0
    r4 = so2_quadrature(4)
    assert np.allclose(r4.weights, 0.25)
    assert np.allclose([q.angle for q in r4.rotations],
                       [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    with pytest.raises(ValueError):
        so2_quadrature(0)


def test_so2_quadrature_geometric_sums():
    # oracle: sum_t w e^{i k a_t} is a geometric sum, 0 unless k % n == 0
    rule = so2_quadrature(8)
    angles = np.array([q.angle for q in rule.rotations])
    for k in range(1, 8):
        assert abs(np.sum(rule.weights * np.exp(1j * k * angles))) < 1e-14
    assert abs(np.sum(rule.weights * np.exp(0j * angles)) - 1.0) < 1e-14


def test_so3_quadrature_basic():
    r0 = so3_quadrature_euler(0)
    assert abs(r0.weights.sum() - 1.0) < 1e-12
    assert abs(sum(w * 1.0 for w in r0.weights) - 1.0) < 1e-15
    for n in (0, 1, 2, 4, 6):
        rule = so3_quadrature_euler(n)
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        assert rule.declared_degree == n


def test_so3_quadrature_degree4_kills_low_wigner():
    rule = so3_quadrature_euler(4)
    for l in range(1, 5):
        acc = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
        for w, q in rule.nodes:
            acc += w * wigner_d(l, q).matrix
        assert np.abs(acc).max() < 1e-12


def test_so3_quadrature_counts_grow_cubically():
    assert len(so3_quadrature_euler(8)) / len(so3_quadrature_euler(4)) >= 4.0


def test_verify_exactness_so2():
    assert verify_exactness(so2_quadrature(8), 10) == 7


def test_verify_exactness_identity_rule():
    assert verify_exactness(identity_rule(SO3), 5) == 0


def test_verify_exactness_euler_lower_bound():
    for n in range(0, 6):
        assert verify_exactness(so3_quadrature_euler(n), n + 3) >= n


def test_verify_exactness_node_chunks(monkeypatch):
    # a 50-entry budget splits the 192 nodes into chunks of 5 down to 1
    rule = so3_quadrature_euler(4)
    whole = verify_exactness(rule, 7)
    monkeypatch.setattr(geometry, "_VERIFY_ENTRIES", 50)
    assert verify_exactness(rule, 7) == whole == 5


def test_rule_file_roundtrip(tmp_path):
    rule = so3_quadrature_euler(4)
    path = tmp_path / "rule.txt"
    write_quadrature_file(rule, path)
    back = load_quadrature_file(path)
    assert back.declared_degree == 4
    assert len(back) == len(rule)
    assert np.abs(back.weights - rule.weights).max() < 1e-14
    for a, b in zip(back.rotations, rule.rotations):
        assert np.abs(a.matrix - b.matrix).max() < 1e-14


def test_rule_file_identity_only(tmp_path):
    path = tmp_path / "id.txt"
    path.write_text("degree 0\ncount 1\n1.0 0 0 0\n")
    rule = load_quadrature_file(path)
    assert len(rule) == 1
    assert np.abs(rule.rotations[0].matrix - np.eye(3)).max() < 1e-14


def test_rule_file_loaded_rule_passes_exactness(tmp_path):
    path = tmp_path / "deg7.txt"
    write_quadrature_file(so3_quadrature_euler(7), path)
    assert verify_exactness(load_quadrature_file(path), 7) >= 7


def test_rule_file_weight_scale_8pi2(tmp_path):
    rule = so3_quadrature_euler(2)
    path = tmp_path / "scaled.txt"
    with open(path, "w") as fh:
        fh.write(f"degree 2\ncount {len(rule)}\n")
        for w, q in rule.nodes:
            a, b, g = q.euler_zyz()
            fh.write(f"{float(w) * 8 * math.pi ** 2!r} {a!r} {b!r} {g!r}\n")
    back = load_quadrature_file(path)
    assert abs(back.weights.sum() - 1.0) < 1e-12


def test_rule_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("degree 1\ncount 2\n1.0 0 0 0\n")
    with pytest.raises(QuadratureFormatError):
        load_quadrature_file(bad)
    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("degree 1\ncount 1\n0.5 0 0\n")
    with pytest.raises(QuadratureFormatError, match="bad2.txt:3"):
        load_quadrature_file(bad2)
    bad3 = tmp_path / "bad3.txt"
    bad3.write_text("degree 0\ncount 1\n0.37 0 0 0\n")
    with pytest.raises(QuadratureFormatError, match="sum"):
        load_quadrature_file(bad3)


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(SO2, np.array([0.5, 0.6]),
                       [Rotation.circle(0.0), Rotation.circle(1.0)])
    with pytest.raises(ValueError):
        QuadratureRule(SO2, np.array([-0.5, 1.5]),
                       [Rotation.circle(0.0), Rotation.circle(1.0)])


def test_quadrature_rule_rejects_nan_weight():
    for weights in ([math.nan, 1.0], [math.nan, math.nan]):
        with pytest.raises(ValueError, match="positive"):
            QuadratureRule(SO2, np.array(weights), [Rotation.circle(0.0), Rotation.circle(1.0)])
