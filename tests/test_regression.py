import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import pinv_solve, random_units, schur_from_design, stacked_augmented_solve
from symquad import coupling, regression, sampling
from symquad.coupling import enumerate_basis, eval_coupled, invariant_couplings, sym_coeffs
from symquad.geometry import (SO2, identity_rule, load_quadrature_file, sample_haar,
                              so2_quadrature, so3_quadrature_euler, write_quadrature_file)
from symquad.harmonics import generalized_d, sph_harm_table
from symquad.regression import (AugmentationScheme, Dataset, RegressionSolution,
                                augmented_lsq, design_factor, design_matrix, full_lsq,
                                invariant_design_matrix, invariant_lsq,
                                l2_test_error, l2_test_errors,
                                lsq_solve, rotate_dataset, schur_diagnostics,
                                DesignFactor, _blocked_inverse, _compressed_stack, _pole_frame,
                                _pole_terms)
from symquad.sampling import DistributionSpec, ExponentialDecay, make_target, sample_dataset


def _uniform_data(d, n, seed, target=None):
    return sample_dataset(DistributionSpec(d, "UUU"), n, np.random.default_rng(seed), target)


def _normal_route(data) -> bool:
    """Whether the last augmented build on ``data`` was factored from its
    normal matrix.  Only that route keeps a triangle whose bounds prove it
    well conditioned: a stacked factor is built when the Cholesky fails (a
    rank-deficient system) or the same bounds reject the Cholesky factor,
    which has the stack's singular values, and a stack of fewer rows than
    columns keeps no triangle."""
    triangle = data._augmented[3]
    return (triangle is not None and triangle[0] is not None
            and regression._well_conditioned(*triangle[1:]))


def test_dataset_rejects_unknown_dimension():
    for d in (0, 3):
        with pytest.raises(ValueError, match="d must be 1 or 2"):
            Dataset(d, np.zeros((4, 3)))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(1, np.zeros((4, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        Dataset(2, np.zeros((4, 3)))
    units = np.tile([0.0, 0.0, 1.0], (2, 3, 1))
    Dataset(2, units, np.ones(2))
    for bad_points in (np.full((2, 3, 3), np.nan), 1.5 * units, units + 1e-9):
        with pytest.raises(ValueError):
            Dataset(2, bad_points)
    for bad_angle in (np.nan, np.inf):
        with pytest.raises(ValueError):
            Dataset(1, np.array([[0.0, bad_angle, 1.0]]))
    for bad_value in (np.nan, complex(0.0, np.inf)):
        with pytest.raises(ValueError):
            Dataset(1, np.zeros((2, 3)), np.array([1.0, bad_value]))


def test_design_matrix_constant_column():
    basis = enumerate_basis(1, 3, 0)
    data = _uniform_data(1, 11, 0)
    a = design_matrix(basis, data)
    assert a.shape == (11, 1)
    assert np.abs(a - 1.0).max() < 1e-15


def test_design_matrix_zero_angles_all_ones():
    basis = enumerate_basis(1, 2, 2)
    a = design_matrix(basis, Dataset(1, np.zeros((1, 2))))
    assert np.abs(a - 1.0).max() < 1e-15


def test_design_matrix_rotation_identity():
    rng = np.random.default_rng(1)
    for d in (1, 2):
        basis = enumerate_basis(d, 3, 3)
        data = _uniform_data(d, 15, 2 + d)
        q = sample_haar(SO2 if d == 1 else "SO(3)", rng)
        lhs = design_matrix(basis, rotate_dataset(q, data))
        rhs = design_matrix(basis, data) @ generalized_d(basis, q)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_invariant_design_matches_leading_columns():
    for d in (1, 2):
        basis = enumerate_basis(d, 3, 3)
        data = _uniform_data(d, 9, 5)
        full = design_matrix(basis, data)
        inv = invariant_design_matrix(basis, data)
        assert np.abs(full[:, :basis.invariant_count] - inv).max() < 1e-12


def _pole_geometries(n_particles, seed):
    """Uniform configurations plus the pole-frame edge cases: the last
    particle exactly on +z and -z and within 1e-9 of either pole, and the
    first particle on the last one and opposite it, also at the poles, or
    1e-8 rad from it or from its antipode (near the pole of the frame)."""
    rng = np.random.default_rng(seed)
    pts = random_units(12 * n_particles, rng).reshape(12, n_particles, 3)
    tilt = math.sqrt(1.0 - 1e-18)
    pts[[0, 6], -1] = (0.0, 0.0, 1.0)
    pts[[1, 7], -1] = (0.0, 0.0, -1.0)
    pts[[2, 8], -1] = (1e-9, 0.0, tilt)
    pts[3, -1] = (0.0, -1e-9, -tilt)
    if n_particles > 1:
        pts[[4, 6, 8], 0] = pts[[4, 6, 8], -1]
        pts[[5, 7], 0] = -pts[[5, 7], -1]
        for row, sign in ((9, 1.0), (10, -1.0)):
            last = pts[row, -1]
            normal = np.cross(last, pts[row, 0])
            normal /= np.linalg.norm(normal)
            pts[row, 0] = sign * (math.cos(1e-8) * last + math.sin(1e-8) * normal)
    return pts


def test_pole_frame_matches_coupled_oracle():
    # the m_N = 0 pole-frame terms against the full Clebsch-Gordan loop, for
    # every coupling of N = 1..4 particles up to K = 11, on uniform data, the
    # edge cases of _pole_geometries and pinned (dUU-like) data
    for n_particles in range(1, 5):
        uniform = _pole_geometries(n_particles, 90 + n_particles)
        pinned = uniform.copy()
        pinned[:, 0] = (0.0, 0.0, 1.0)
        for pts in (uniform, pinned):
            for k in range(12):
                tables = [sph_harm_table(k, pts[:, p]) for p in range(n_particles)]
                ref = eval_coupled(invariant_couplings(n_particles, k), tables)
                got = _pole_frame(pts, k, *_pole_terms(n_particles, k))
                assert got.shape == ref.shape
                err = np.abs(got - ref).max() / np.abs(ref).max()
                assert err <= 1e-12, (n_particles, k, err)


def test_pole_frame_gathers_in_bounded_chunks(monkeypatch):
    # 12 samples in chunks of 5 rows: every row is evaluated once, in place
    pts = _pole_geometries(3, 97)
    cols, w = _pole_terms(3, 6)
    whole = _pole_frame(pts, 6, cols, w)
    monkeypatch.setattr(regression, "_GATHER_ENTRIES", 5 * cols.shape[1])
    assert np.abs(_pole_frame(pts, 6, cols, w) - whole).max() <= 1e-15 * np.abs(whole).max()


def test_pole_frame_callers_match_coupled_oracle():
    # the two d=2 callers: the target (coefficients contracted into the
    # weights) and the invariant design (one weight column per coupling)
    target = make_target(2, ExponentialDecay(2.0), 11, seed=95)
    basis = enumerate_basis(2, 3, 4)
    for name in ("UUU", "dUU", "dsUU", "dH1U", "dsH1sU"):
        pts = sample_dataset(DistributionSpec(2, name), 40, np.random.default_rng(96)).points
        tables = [sph_harm_table(11, pts[:, p]) for p in range(3)]
        ref = eval_coupled(invariant_couplings(3, 11), tables) @ target.coeffs
        assert np.abs(target.evaluate(pts) - ref).max() <= 1e-12 * np.abs(ref).max()
        ref = eval_coupled(invariant_couplings(3, 4), tables)
        got = invariant_design_matrix(basis, Dataset(2, pts))
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_d2_invariants_never_reach_eval_coupled(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eval_coupled called")

    monkeypatch.setattr(coupling, "eval_coupled", refuse)
    for module in (regression, sampling):
        if hasattr(module, "eval_coupled"):
            monkeypatch.setattr(module, "eval_coupled", refuse)
    target = make_target(2, ExponentialDecay(2.0), 6, seed=98)
    data = _uniform_data(2, 30, 99, target)
    basis = enumerate_basis(2, 3, 2)
    assert invariant_design_matrix(basis, data).shape == (30, basis.invariant_count)
    assert invariant_lsq(basis, data).beta.shape == (basis.size,)


def test_invariant_design_rejects_mismatched_data():
    pts = random_units(8, np.random.default_rng(0)).reshape(4, 2, 3)
    with pytest.raises(ValueError, match="do not match"):
        invariant_design_matrix(enumerate_basis(2, 3, 2), Dataset(2, pts))


def test_circle_evaluator_bitwise_and_row_major():
    # every d=1 evaluation multiplies e^{i k_p theta_p} in particle order; the
    # design matrices are row-major, which fixes the summation order of the
    # BLAS calls downstream and so the result CSV bytes
    basis = enumerate_basis(1, 3, 4)
    data = _uniform_data(1, 13, 6)
    karr = np.array(basis.indices)
    expect = np.exp(1j * data.points[:, None, 0] * karr[None, :, 0])
    for p in (1, 2):
        expect = expect * np.exp(1j * data.points[:, None, p] * karr[None, :, p])
    full = design_matrix(basis, data)
    inv = invariant_design_matrix(basis, data)
    assert np.array_equal(full, expect) and np.array_equal(inv, expect[:, :basis.invariant_count])
    assert full.flags["C_CONTIGUOUS"] and inv.flags["C_CONTIGUOUS"]
    target = make_target(1, ExponentialDecay(2.0), 4, seed=7)
    assert target.keys == basis.indices[:basis.invariant_count]
    assert np.abs(target(data) - inv @ target.coeffs).max() < 1e-12


def test_lsq_solve_identity():
    y = np.array([1.0 + 2j, -0.5, 3.0])
    beta = lsq_solve(np.eye(3), y, 0.0)
    assert np.abs(beta - y).max() < 1e-14


def test_lsq_solve_consistent_overdetermined():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(30, 6)) + 1j * rng.normal(size=(30, 6))
    beta_true = rng.normal(size=6) + 1j * rng.normal(size=6)
    beta = lsq_solve(a, a @ beta_true, 0.0)
    assert np.abs(beta - beta_true).max() < 1e-10


def test_lsq_solve_cutoff_discards_directions():
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(20, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = u @ np.diag([1.0, 0.5, 1e-8]) @ v.T
    y = rng.normal(size=20)
    beta = lsq_solve(a, y, cutoff=1e-4)
    assert abs(v[:, 2] @ beta) < 1e-12
    with pytest.raises(ValueError):
        lsq_solve(np.zeros((0, 2)), np.zeros(0))


def test_invariant_lsq_recovers_invariant_target():
    target = make_target(1, ExponentialDecay(2.0), 3, seed=4)
    basis = enumerate_basis(1, 3, 3)
    data = _uniform_data(1, 300, 6, target)
    sol = invariant_lsq(basis, data)
    test = _uniform_data(1, 100, 7, target)
    assert sol.eps_sym == 0.0
    assert l2_test_error(sol, target, test) < 1e-10


def test_invariant_lsq_tracks_truncation_tail():
    target = make_target(1, ExponentialDecay(2.0), 30, seed=8)
    basis = enumerate_basis(1, 3, 4)
    data = _uniform_data(1, 4000, 9, target)
    sol = invariant_lsq(basis, data)
    err = l2_test_error(sol, target, _uniform_data(1, 2000, 10, target))
    tail = target.tail_norm(4)
    assert tail / 3.0 <= err <= 3.0 * tail


def test_augmented_identity_scheme_equals_plain():
    target = make_target(1, ExponentialDecay(2.0), 8, seed=11)
    basis = enumerate_basis(1, 3, 3)
    data = _uniform_data(1, 120, 12, target)
    plain = full_lsq(basis, data)
    aug = augmented_lsq(basis, data, AugmentationScheme("quadrature", rule=identity_rule(SO2)))
    assert np.abs(plain.beta - aug.beta).max() < 1e-12


def test_augmented_quadrature_exact_symmetry():
    target = make_target(1, ExponentialDecay(2.0), 10, seed=13)
    basis = enumerate_basis(1, 3, 4)
    data = sample_dataset(DistributionSpec(1, "dUU"), 150, np.random.default_rng(14), target)
    scheme = AugmentationScheme("quadrature", rule=so2_quadrature(5))
    sol = augmented_lsq(basis, data, scheme)
    assert sol.eps_sym < 1e-10
    inv = invariant_lsq(basis, data)
    assert np.linalg.norm(sol.beta - inv.beta) < 1e-8


def test_augmented_scheme_validation():
    with pytest.raises(ValueError):
        AugmentationScheme("random", t=0, seed=1)
    with pytest.raises(ValueError):
        AugmentationScheme("random", t=4)
    with pytest.raises(ValueError):
        AugmentationScheme("quadrature")
    with pytest.raises(ValueError):
        AugmentationScheme("bogus")
    basis = enumerate_basis(2, 3, 1)
    data = _uniform_data(2, 5, 15)
    scheme = AugmentationScheme("quadrature", rule=so2_quadrature(3))
    with pytest.raises(ValueError):
        augmented_lsq(basis, Dataset(2, data.points, np.zeros(5, dtype=complex)), scheme)


def test_eps_sym_cases():
    basis = enumerate_basis(1, 3, 2)
    beta = np.zeros(basis.size, dtype=complex)
    beta[0] = 3.0
    assert RegressionSolution(basis, beta, 0.0, 0.0).eps_sym == 0.0
    beta2 = np.zeros(basis.size, dtype=complex)
    beta2[basis.invariant_count] = 1.0
    assert abs(RegressionSolution(basis, beta2, 0.0, 0.0).eps_sym - 1.0) < 1e-15


def test_eps_sym_pythagoras():
    rng = np.random.default_rng(16)
    basis = enumerate_basis(1, 3, 3)
    beta = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    sol = RegressionSolution(basis, beta, 0.0, 0.0)
    e = sol.eps_sym
    s = np.linalg.norm(sym_coeffs(beta, basis))
    assert abs(e ** 2 + s ** 2 - np.linalg.norm(beta) ** 2) < 1e-12


def test_l2_test_error_zero_cases():
    basis = enumerate_basis(1, 3, 2)
    test = Dataset(1, np.random.default_rng(17).uniform(0, 2 * math.pi, (40, 3)),
                   np.zeros(40, dtype=complex))
    sol = RegressionSolution(basis, np.zeros(basis.size, dtype=complex), 0.0, 0.0)
    assert l2_test_error(sol, None, test) == 0.0
    with pytest.raises(ValueError):
        l2_test_error(sol, None, Dataset(1, np.zeros((0, 3)), np.zeros(0, dtype=complex)))


def test_l2_test_error_matches_tail_estimate():
    target = make_target(1, ExponentialDecay(2.0), 20, seed=18)
    basis = enumerate_basis(1, 3, 4)
    data = _uniform_data(1, 3000, 19, target)
    sol = invariant_lsq(basis, data)
    err = l2_test_error(sol, target, _uniform_data(1, 1000, 20, target))
    assert err <= target.tail_sum(4) + 4.0 / math.sqrt(1000) * target.tail_sum(4)


def test_stacked_matches_normal_equations():
    # explicit normal equations (sum_t w D* A* A D) beta = sum_t w D* A* Y
    rng = np.random.default_rng(21)
    for d in (1, 2):
        basis = enumerate_basis(d, 3, 1 if d == 2 else 2)
        target = make_target(d, ExponentialDecay(2.0), 2, seed=22)
        data = _uniform_data(d, 35, 23 + d, target)
        scheme = AugmentationScheme("random", t=7, seed=24)
        sol = augmented_lsq(basis, data, scheme)
        a = design_matrix(basis, data)
        weights, rotations = scheme.nodes(d)
        m = np.zeros((basis.size, basis.size), dtype=complex)
        rhs = np.zeros(basis.size, dtype=complex)
        for w, q in zip(weights, rotations):
            dm = generalized_d(basis, q)
            m += w * dm.conj().T @ (a.conj().T @ a) @ dm
            rhs += w * dm.conj().T @ (a.conj().T @ data.values)
        beta_normal = np.linalg.solve(m, rhs)
        assert np.abs(sol.beta - beta_normal).max() < 1e-8


def test_compressed_stack_equals_direct(monkeypatch):
    monkeypatch.setattr(regression, "_COMPRESS_ROWS", 64)
    rng = np.random.default_rng(25)
    blocks = [rng.normal(size=(40, 12)) + 1j * rng.normal(size=(40, 12)) for _ in range(6)]
    direct = np.concatenate(blocks, axis=0)
    compressed = _compressed_stack(iter(blocks))
    assert compressed.shape == (12, 12)  # a tall stack ends as its triangular factor
    y_d = lsq_solve(direct[:, :11], direct[:, 11], 0.0)
    y_c = lsq_solve(compressed[:, :11], compressed[:, 11], 0.0)
    assert np.abs(y_d - y_c).max() < 1e-10
    s_d = np.linalg.svd(direct, compute_uv=False)
    s_c = np.linalg.svd(compressed, compute_uv=False)
    assert np.abs(s_d - s_c).max() < 1e-10


@pytest.mark.filterwarnings("error")
def test_lsq_solve_qr_first_matches_svd_pseudo_inverse():
    rng = np.random.default_rng(41)

    def cmat(m, n):
        return rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))

    def triangle(s, v_noise=1.0):
        # R of U diag(s) V^H: singular values s, so kappa = s[0] / s[-1]; a
        # V near the identity keeps the norm bounds of lsq_solve's gate tight
        u, _ = np.linalg.qr(cmat(len(s) + 3, len(s)))
        v, _ = np.linalg.qr(np.eye(len(s)) + v_noise * cmat(len(s), len(s)))
        return np.linalg.qr(u @ np.diag(s) @ v.conj().T, mode="r")

    u, _ = np.linalg.qr(cmat(40, 6))
    v, _ = np.linalg.qr(cmat(10, 6))
    zero_diagonal = np.triu(cmat(6, 6))
    zero_diagonal[3, 3] = 0.0
    general = cmat(7, 6)
    systems = {"tall": cmat(50, 8), "square": cmat(8, 8), "wide": cmat(5, 12),
               "rank-deficient": u @ np.diag([3.0, 1.0, 0.5, 0.2, 1e-2, 1e-3]) @ v.conj().T,
               "trapezoidal (p+1) x p": np.linalg.qr(cmat(30, 9), mode="r")[:, :8],
               "kappa 9.9e3": triangle(np.geomspace(1.0, 1 / 9.9e3, 5), 1e-3),
               "kappa 1.01e4": triangle(np.geomspace(1.0, 1 / 1.01e4, 5), 1e-3),
               # the 1e-13 floor of cutoff 0 drops sigma = 1e-14; inv(T) would not
               "kappa 1e14": triangle(np.geomspace(1.0, 1e-14, 5), 1e-3),
               "zero diagonal": zero_diagonal,
               "general (p+1) x p": general, "general p x p": general[:6],
               # sigma 4 ... 0.1: the cutoffs 1e-3 < 0.1 < 0.3 bracket sigma_min
               "well-conditioned": triangle(np.geomspace(4.0, 0.1, 6))}
    for name, a in systems.items():
        y = cmat(a.shape[0], 1)[:, 0]
        for cutoff in (0.0, 1e-3, 0.3):
            ref = pinv_solve(a, y, cutoff)
            beta = lsq_solve(a, y, cutoff)
            assert np.abs(beta - ref).max() <= 1e-12 * np.abs(ref).max(), (name, cutoff)


def test_lsq_solve_well_conditioned_skips_svd(monkeypatch):
    rng = np.random.default_rng(43)
    a = rng.normal(size=(60, 8)) + 1j * rng.normal(size=(60, 8))
    y = rng.normal(size=60) + 1j * rng.normal(size=60)
    ref = pinv_solve(a, y)

    def no_svd(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    beta = lsq_solve(a, y)
    assert np.abs(beta - ref).max() <= 1e-12 * np.abs(ref).max()
    a[:, 7] = a[:, 6]  # rank deficient: only the SVD decides what to drop
    with pytest.raises(AssertionError, match="svd called"):
        lsq_solve(a, y)


@pytest.mark.parametrize("p", [1, 2, 31, 32, 33, 64, 65, 231, 553])
def test_blocked_inverse_matches_dense_inverse(p):
    # the triangles lsq_solve sees: QR factors of tall complex stacks; the
    # sizes straddle the 32-row leaves and the recursion's splits
    rng = np.random.default_rng(p)
    t = np.linalg.qr(rng.normal(size=(p + 8, p)) + 1j * rng.normal(size=(p + 8, p)), mode="r")
    ref = np.linalg.inv(t)
    inv = _blocked_inverse(t)
    assert not np.tril(inv, -1).any()
    assert np.abs(inv - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("p, zero", [(6, 3), (70, 0), (70, 50), (70, 69)])
def test_lsq_solve_exactly_singular_triangle_takes_the_svd(p, zero):
    rng = np.random.default_rng(47 + zero)
    t = np.triu(rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))) + 4.0 * np.eye(p)
    t[zero, zero] = 0.0
    y = rng.normal(size=p) + 1j * rng.normal(size=p)
    ref = pinv_solve(t, y)
    assert np.abs(lsq_solve(t, y) - ref).max() <= 1e-12 * np.abs(ref).max()


def _triangle_with_sigma(s, dense, rng):
    """An upper triangle with singular values s: diag(s), or the QR factor
    of U diag(s) V^H for random unitary U, V."""
    if not dense:
        return np.diag(s).astype(complex)
    u, _ = np.linalg.qr(rng.normal(size=(len(s) + 3, len(s)))
                        + 1j * rng.normal(size=(len(s) + 3, len(s))))
    v, _ = np.linalg.qr(rng.normal(size=(len(s), len(s))) + 1j * rng.normal(size=(len(s), len(s))))
    return np.linalg.qr(u @ np.diag(s) @ v.conj().T, mode="r")


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
@pytest.mark.parametrize("scale", [1 - 0.5, 1 - 1e-6, 1 + 1e-6, 1 + 0.5, 3.0, 10.0])
def test_schur_availability_equals_the_svd_rule(monkeypatch, scale, dense):
    # sigma_min around the 1e-10 threshold, kappa 100, so the condition gate
    # of the certified bound passes and only the threshold test decides
    basis = enumerate_basis(1, 3, 2)
    p = basis.size
    rng = np.random.default_rng(57)
    s = np.geomspace(1e-10 * scale, 1e-8, p)[::-1]
    r = np.zeros((p + 1, p + 1), dtype=complex)
    r[:p, :p] = _triangle_with_sigma(s, dense, rng)
    r[:p, p] = rng.normal(size=p)
    r[p, p] = 1.0
    expected = np.linalg.svd(r[:, :p], compute_uv=False)[-1] > 1e-10
    data = _uniform_data(1, 60, 58, make_target(1, ExponentialDecay(2.0), 4, seed=59))
    scheme = AugmentationScheme("random", t=4, seed=60)
    weights, rotations = scheme.nodes(1)
    mean = weights @ regression.rotation_blocks(basis, rotations)
    monkeypatch.setattr(regression, "_augmented_factor",
                        lambda *args: (DesignFactor(basis, r), mean, None))
    diag = schur_diagnostics(basis, data, scheme, None)
    assert diag.available == expected
    assert diag.reason == (None if expected else "singular normal matrix")


def test_schur_certified_bound_spares_the_full_svd(monkeypatch):
    # a certified system: c2 comes from the kept inverse (by Lanczos, then by
    # the dense Gram that a block this small takes by default) and ||A_N
    # Dbar|| from a Gram eigenvalue, so neither the SVD nor the matrix 2-norm
    # runs
    basis = enumerate_basis(1, 3, 3)
    data = _uniform_data(1, 200, 61, make_target(1, ExponentialDecay(2.0), 5, seed=62))
    scheme = AugmentationScheme("random", t=16, seed=63)
    sol = augmented_lsq(basis, data, scheme)
    ref = schur_from_design(basis, data, scheme)
    real_svd, real_norm = np.linalg.svd, np.linalg.norm
    for dense in (0, regression._DENSE_SIGMA):
        calls = []
        monkeypatch.setattr(regression, "_DENSE_SIGMA", dense)
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(("svd", a.shape))
                            or real_svd(a, *args, **kw))
        monkeypatch.setattr(np.linalg, "norm", lambda x, ord=None, **kw: (
            ord == 2 and calls.append(("norm", x.shape))) or real_norm(x, ord, **kw))
        diag = schur_diagnostics(basis, data, scheme, sol)
        monkeypatch.undo()
        assert diag.available and calls == [], dense
        for name in ("bound", "c2", "d_bar_norm"):
            assert abs(getattr(diag, name) - getattr(ref, name)) <= 1e-12 * getattr(ref, name), name


def _sigma_max_cases():
    """(label, x) for ``_sigma_max``: sizes 1 and 2, a repeated and a nearly
    repeated top singular value, a rank-one-dominated matrix, a graded
    triangle of condition 1e4, dense complex triangles, and a matrix whose
    top right singular vector is orthogonal to the fixed Lanczos start."""
    rng = np.random.default_rng(470)

    def unitary(m):
        return np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]

    def with_sigma(s, v=None):
        m = len(s)
        return unitary(m) @ np.diag(s) @ (unitary(m) if v is None else v).conj().T

    start = np.random.default_rng(regression._LANCZOS_SEED).standard_normal(60)
    missed = np.linalg.qr(np.column_stack([start, rng.normal(size=(60, 59))]))[0]
    missed = np.roll(missed, -1, axis=1)  # first column orthogonal to the start
    cases = [("m=1", np.array([[3.0 - 4.0j]])),
             ("m=2", np.triu(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))),
             ("repeated-top", with_sigma(np.r_[2.0, 2.0, 2.0, np.linspace(1.5, 0.1, 37)])),
             ("top-pair-1+-1e-12", with_sigma(np.r_[1 + 1e-12, 1 - 1e-12,
                                                      np.linspace(0.9, 0.01, 48)])),
             ("rank-one-dominated", 1e6 * np.outer(rng.normal(size=50), rng.normal(size=50))
              + rng.normal(size=(50, 50))),
             ("graded-kappa-1e4", np.triu(rng.normal(size=(80, 80)), 1) * 1e-3
              + np.diag(np.geomspace(1.0, 1e-4, 80))),
             ("start-orthogonal-to-top", with_sigma(np.r_[100.0, np.linspace(1.0, 0.5, 59)],
                                                        missed.astype(complex)))]
    for m in (33, 231):
        t = np.triu(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) + 3.0 * np.eye(m)
        cases.append((f"complex-triangle-m={m}", np.linalg.inv(t)))
    return cases


@pytest.mark.parametrize("dense", [0, regression._DENSE_SIGMA], ids=["lanczos", "default"])
@pytest.mark.parametrize("label", [label for label, _ in _sigma_max_cases()])
def test_sigma_max_matches_the_svd(monkeypatch, label, dense):
    # "lanczos" runs every case through Lanczos; "default" lets the small
    # ones take the dense Gram
    monkeypatch.setattr(regression, "_DENSE_SIGMA", dense)
    x = dict(_sigma_max_cases())[label]
    want = np.linalg.svd(x, compute_uv=False)[0]
    got = regression._sigma_max(x)
    if got is not None:  # None: the column-norm guard hands the case to the SVD
        assert abs(got - want) <= 1e-13 * want, (label, got, want)
    again = regression._sigma_max(x.copy())
    assert (got is None and again is None) or got == again  # byte-identical reruns


def test_sigma_max_guard_hands_a_miss_to_the_svd(monkeypatch):
    # with no residual test Lanczos stops at its first check (k = 8), at a
    # Ritz value below sigma_max of a spectrum of 200 close values; the
    # longest column (here sigma_max itself) exposes it
    monkeypatch.setattr(regression, "_LANCZOS_TOL", np.inf)
    assert regression._sigma_max(np.diag(np.linspace(0.5, 1.0, 200))) is None
    monkeypatch.undo()
    # a miss sends c2 to the SVD of R_NN, as for a system the bounds do not certify
    basis = enumerate_basis(1, 3, 3)
    data = _uniform_data(1, 200, 61, make_target(1, ExponentialDecay(2.0), 5, seed=62))
    scheme = AugmentationScheme("random", t=16, seed=63)
    sol = augmented_lsq(basis, data, scheme)
    ref = schur_from_design(basis, data, scheme)
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(regression, "_sigma_max", lambda x: None)
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(a.shape)
                        or real_svd(a, *args, **kw))
    diag = schur_diagnostics(basis, data, scheme, sol)
    m = basis.size - basis.invariant_count
    assert calls == [(m, m)]
    assert abs(diag.c2 - ref.c2) <= 1e-12 * ref.c2


def _oracle_case(d, k, dist, n, scheme, cutoff, seed):
    target = make_target(d, ExponentialDecay(2.0), 8 if d == 1 else 4, seed=seed)
    basis = enumerate_basis(d, 3, k)
    data = sample_dataset(DistributionSpec(d, dist), n, np.random.default_rng(seed + 1), target)
    sol = augmented_lsq(basis, data, scheme, cutoff)
    ref, ref_res, _ = stacked_augmented_solve(basis, data, scheme, cutoff)
    label = (d, k, dist, scheme.kind, scheme.t, cutoff)
    assert np.abs(sol.beta - ref).max() <= 1e-12 * np.abs(ref).max(), label
    assert abs(sol.train_residual - ref_res) <= 1e-12 * np.linalg.norm(data.values), label
    return data


@pytest.mark.parametrize("dist", ["UUU", "dUU"])
@pytest.mark.parametrize("cutoff", [0.0, 1e-3])
def test_augmented_lsq_matches_stacked_oracle(dist, cutoff, tmp_path):
    # d=1, K=5 has 11 charges: T=3 is below the charge count, T=64 far above;
    # so2_quadrature(m) has degree m-1, so m=3 is under-resolved (q=2 < K) and
    # m=6, 8 are exact (q=5, 7 >= K); so3_quadrature_euler(q) has degree q;
    # dUU pins one particle, which makes the design matrix rank deficient;
    # routes collects (d, kind, below, normal-matrix route), below meaning
    # T < S or a rule's degree q < K
    routes = set()

    def case(d, k, n, scheme, below, seed):
        data = _oracle_case(d, k, dist, n, scheme, cutoff, seed)
        routes.add((d, scheme.kind, below, _normal_route(data)))

    for i, t in enumerate((3, 16, 64)):
        case(1, 5, 80, AugmentationScheme("random", t=t, seed=42 + t), t < 11, 300 + i)
    for i, m in enumerate((3, 6, 8)):
        case(1, 5, 80, AugmentationScheme("quadrature", rule=so2_quadrature(m)), m - 1 < 5, 303 + i)
    # d=1, K=3 has p=63: n=150 > p+1 builds the charge blocks from the
    # 64-row triangular factor of [A | y], not from A's n rows
    for i, t in enumerate((3, 64)):
        case(1, 3, 150, AugmentationScheme("random", t=t, seed=52 + t), t < 7, 310 + i)
    for i, m in enumerate((3, 6)):
        case(1, 3, 150, AugmentationScheme("quadrature", rule=so2_quadrature(m)), m - 1 < 3, 312 + i)
    # d=2, K=2 has p=52 and S=35 irreducible entries: T=3 and 16 are below S,
    # T=35 equal, T=64 above; n=40 rotates the n rows themselves, n=80 > p+1
    # is cut to its 53-row triangular factor first; the loaded rule file is
    # the q=2 Euler rule read back from text
    path = tmp_path / "euler2.txt"
    write_quadrature_file(so3_quadrature_euler(2), path)
    schemes2 = [(AugmentationScheme("random", t=t, seed=42 + t), t < 35) for t in (3, 16, 35, 64)]
    schemes2 += [(AugmentationScheme("quadrature", rule=so3_quadrature_euler(q)), q < 2) for q in (1, 2)]
    schemes2.append((AugmentationScheme("quadrature", rule=load_quadrature_file(path)), False))
    for i, (scheme, below) in enumerate(schemes2):
        case(2, 2, 40, scheme, below, 320 + i)
        case(2, 2, 80, scheme, below, 330 + i)
    # the oracle held on both routes: every kind of UUU case, on both d, was
    # factored from its normal matrix; pinned data stack every quadrature
    # solve (aliased charges or weights), but not most random ones
    gram = {key[:3] for key in routes if key[3]}
    if dist == "UUU":
        assert gram == {(d, kind, below) for d in (1, 2) for kind in ("random", "quadrature")
                        for below in (True, False)}
    else:
        assert gram == {(1, "random", False), (2, "random", True), (2, "random", False)}
    assert any(not key[3] for key in routes)


def _watch_routes(monkeypatch) -> list:
    """Calls of the steps of an augmented build, in order: 'cholesky' or
    'cholesky failed', 'gate passed' or 'gate rejected' (the bounds of the
    Cholesky factor), and 'stack' (the virtual-node fallback)."""
    calls = []
    cholesky, triangle_inverse, virtual_nodes = (np.linalg.cholesky, regression._triangle_inverse,
                                                 regression._virtual_nodes)

    def watched_cholesky(*args, **kwargs):
        try:
            out = cholesky(*args, **kwargs)
        except np.linalg.LinAlgError:
            calls.append("cholesky failed")
            raise
        calls.append("cholesky")
        return out

    def watched_inverse(t):
        out = triangle_inverse(t)
        if calls and calls[-1] == "cholesky":
            passed = out[0] is not None and regression._well_conditioned(*out[1:])
            calls.append("gate passed" if passed else "gate rejected")
        return out

    monkeypatch.setattr(np.linalg, "cholesky", watched_cholesky)
    monkeypatch.setattr(regression, "_triangle_inverse", watched_inverse)
    monkeypatch.setattr(regression, "_virtual_nodes",
                        lambda *args: calls.append("stack") or virtual_nodes(*args))
    return calls


def test_augmented_route_per_case(monkeypatch):
    calls = _watch_routes(monkeypatch)
    sphere = enumerate_basis(2, 3, 2)
    target2 = make_target(2, ExponentialDecay(2.0), 4, seed=91)
    # full rank, kappa ~ 760, within the gate: the normal matrix, no stack;
    # the seminormal equations alone miss the oracle by 5e-12 here, the
    # corrected step meets it
    circle = enumerate_basis(1, 3, 4)
    target1 = make_target(1, ExponentialDecay(2.0), 6, seed=500)
    data = sample_dataset(DistributionSpec(1, "UUU"), 20, np.random.default_rng(501), target1)
    scheme = AugmentationScheme("random", t=8, seed=500)
    sol = augmented_lsq(circle, data, scheme)
    assert calls == ["cholesky", "gate passed"] and _normal_route(data)
    assert data._augmented[1].r.shape == (circle.size + 1, circle.size + 1)
    ref, ref_res, _ = stacked_augmented_solve(circle, data, scheme)
    assert np.abs(sol.beta - ref).max() <= 1e-12 * np.abs(ref).max()
    assert abs(sol.train_residual - ref_res) <= 1e-12 * np.linalg.norm(data.values)
    calls.clear()
    # a pinned particle and a rule of 3 nodes: charges equal modulo 3 stay
    # indistinguishable, the normal matrix is singular and Cholesky fails
    circle = enumerate_basis(1, 3, 3)
    data = sample_dataset(DistributionSpec(1, "dUU"), 150, np.random.default_rng(421), target1)
    augmented_lsq(circle, data, AugmentationScheme("quadrature", rule=so2_quadrature(3)))
    assert calls == ["cholesky failed", "stack"] and not _normal_route(data)
    calls.clear()
    # 8 random rotations of pinned d=2 data (S = 35 entries): the stack has
    # one singular value at roundoff, which the Cholesky of the normal matrix
    # does not detect but the gate's bounds do, so the SVD cuts it
    data = sample_dataset(DistributionSpec(2, "dUU"), 100, np.random.default_rng(3), target2)
    scheme = AugmentationScheme("random", t=8, seed=3)
    sol = augmented_lsq(sphere, data, scheme)
    assert calls == ["cholesky", "gate rejected", "stack"] and not _normal_route(data)
    sigma = np.linalg.svd(data._augmented[1].r[:, :sphere.size], compute_uv=False)
    assert sigma[-1] <= 1e-13 * sigma[0] < sigma[-2]
    ref = stacked_augmented_solve(sphere, data, scheme)[0]
    assert np.abs(sol.beta - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("d", [1, 2])
def test_one_triangle_inverse_per_build(monkeypatch, d):
    # the build inverts its p x p triangle once (the normal-matrix route in
    # its gate, a stacked factor right after the QR) and keeps the inverse:
    # the solve, the singularity test and c2 all read it, on either route
    # (the invariant residual's fit inverts its own n_inv x n_inv triangle)
    basis = enumerate_basis(d, 3, 3 if d == 1 else 2)
    p = basis.size
    target = make_target(d, ExponentialDecay(2.0), 5, seed=430)
    inversions = []
    real = regression._blocked_inverse
    monkeypatch.setattr(regression, "_blocked_inverse",
                        lambda t, *args: inversions.append(t.shape) or real(t, *args))
    rule = so2_quadrature(3) if d == 1 else so3_quadrature_euler(1)
    for dist, gram in (("UUU", True), ("dUU", False)):
        data = sample_dataset(DistributionSpec(d, dist), 90, np.random.default_rng(431), target)
        scheme = AugmentationScheme("quadrature", rule=rule)
        sol = augmented_lsq(basis, data, scheme)
        assert _normal_route(data) == gram, dist
        assert data._augmented[1].r.shape[0] >= p  # a triangle to invert on both routes
        diag = schur_diagnostics(basis, data, scheme, sol)
        assert inversions.count((p, p)) == 1, (dist, inversions)
        inversions.clear()
        ref = schur_from_design(basis, data, scheme)
        assert (diag.available, diag.reason) == (ref.available, ref.reason), dist
        if ref.available:
            assert abs(diag.bound - ref.bound) <= 1e-12 * abs(ref.bound), dist


@pytest.mark.parametrize("dist", ["UUU", "dUU"])
def test_quadrature_below_k_zeroes_aliased_charges(dist):
    # so2_quadrature(m) averages e^{i s alpha} to 0 unless s = 0 (mod m), so
    # Dbar and the normal matrix split the columns by their charge modulo m and
    # the data reach only the class s = 0: below resolution (m - 1 < K) every
    # other coefficient vanishes.  UUU data take the normal-matrix route, the
    # pinned dUU data the stacked minimum-norm solve.
    basis = enumerate_basis(1, 3, 5)
    target = make_target(1, ExponentialDecay(2.0), 8, seed=440)
    data = sample_dataset(DistributionSpec(1, dist), 150, np.random.default_rng(441), target)
    for m in (2, 3, 4, 5):
        sol = augmented_lsq(basis, data, AugmentationScheme("quadrature", rule=so2_quadrature(m)))
        assert _normal_route(data) == (dist == "UUU"), m
        aliased = basis.sums % m != 0
        assert aliased.any()
        assert np.abs(sol.beta[aliased]).max() <= 1e-12 * np.linalg.norm(sol.beta), m


@settings(max_examples=15, deadline=None)
@given(k=st.integers(0, 4), t=st.integers(1, 40), n=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1), dist=st.sampled_from(["UUU", "dUU"]))
@example(k=2, t=4, n=1, seed=543, dist="dUU")  # kappa ~ 1.7e4
def test_compressed_solve_equals_stacked_solve(k, t, n, seed, dist):
    target = make_target(1, ExponentialDecay(2.0), 6, seed=seed)
    basis = enumerate_basis(1, 3, k)
    data = sample_dataset(DistributionSpec(1, dist), n, np.random.default_rng(seed), target)
    scheme = AugmentationScheme("random", t=t, seed=seed)
    sol = augmented_lsq(basis, data, scheme)
    ref, ref_res, kappa = stacked_augmented_solve(basis, data, scheme)
    # two backward-stable solves agree to O(kappa * eps), not to a fixed
    # tolerance (Golub & Van Loan, Matrix Computations, sec. 5.3)
    tol = max(1e-12, 100 * kappa * np.finfo(float).eps)
    assert np.abs(sol.beta - ref).max() <= tol * np.abs(ref).max()
    assert abs(sol.train_residual - ref_res) <= tol * np.linalg.norm(data.values)


def _count_stack_rows(monkeypatch) -> list:
    """Rows of the [a | y] stack that enters the QR reducer, one entry a call."""
    rows = []
    reduce_stack = regression._compressed_stack

    def counting_stack(blocks):
        blocks = list(blocks)
        rows.append(sum(block.shape[0] for block in blocks))
        return reduce_stack(blocks)

    monkeypatch.setattr(regression, "_compressed_stack", counting_stack)
    return rows


def test_augmented_rows_independent_of_t(monkeypatch):
    rows = _count_stack_rows(monkeypatch)
    target = make_target(1, ExponentialDecay(2.0), 8, seed=43)
    basis = enumerate_basis(1, 3, 5)
    for n in (100, 20):
        data = _uniform_data(1, n, 44, target)
        for t in (16, 256):
            augmented_lsq(basis, data, AugmentationScheme("random", t=t, seed=45))
            assert _normal_route(data) == (n == 100), (n, t)
    # n = 100: [A | y] (100 rows, short of p+1 = 232) enters, and the full-rank
    # augmented system is factored from its normal matrix, with no stack; n =
    # 20: 11 charges times 20 rows, 220 < p, cannot have full rank, so min(T,
    # S) = 11 virtual nodes of 20 rows are stacked for either T
    assert rows == [100, 20, 11 * 20, 11 * 20]


def _coincident_pair_data(n, seed, target):
    """UUU points with the last two particles equal: the designs of any
    rotation of them are rank deficient, so every augmented stack is too."""
    data = _uniform_data(2, n, seed, target)
    pts = data.points.copy()
    pts[:, 2] = pts[:, 1]
    return Dataset(2, pts, data.values)


def test_augmented_rows_cut_to_p_plus_one_d2(monkeypatch):
    rows = _count_stack_rows(monkeypatch)
    target = make_target(2, ExponentialDecay(2.0), 4, seed=49)
    basis = enumerate_basis(2, 3, 2)
    rule = so3_quadrature_euler(2)
    assert (basis.size, len(rule)) == (52, 32)
    schemes = (AugmentationScheme("quadrature", rule=rule),
               AugmentationScheme("random", t=64, seed=48))
    data = _uniform_data(2, 200, 50, target)
    for scheme in schemes:  # full rank: the normal-matrix route stacks nothing
        augmented_lsq(basis, data, scheme)
        assert _normal_route(data) and data._augmented[1].r.shape == (53, 53)
    assert rows == [200]
    rows.clear()
    data = _coincident_pair_data(200, 50, target)
    for scheme in schemes:
        augmented_lsq(basis, data, scheme)
        assert not _normal_route(data)
    # [A | y] (200 rows) is cut first, then min(T, S) virtual nodes of 53 rows
    # are stacked, S = 35 Wigner entries of degree <= 2: all 32 nodes of the
    # rule, and 35 for the 64 random rotations
    assert rows == [200, 32 * 53, 35 * 53]


def test_augmented_d2_nodes_across_chunks(monkeypatch):
    # 53 rows a virtual node: a 120-row budget puts two in a stack chunk, so
    # every node set below spans several chunks
    target = make_target(2, ExponentialDecay(2.0), 4, seed=51)
    basis = enumerate_basis(2, 3, 2)
    data = _uniform_data(2, 80, 52, target)
    schemes = [AugmentationScheme("quadrature", rule=so3_quadrature_euler(q)) for q in (1, 2)]
    schemes.append(AugmentationScheme("random", t=9, seed=53))
    whole = [schur_diagnostics(basis, data, s, augmented_lsq(basis, data, s)) for s in schemes]
    monkeypatch.setattr(regression, "_COMPRESS_ROWS", 120)
    for scheme, ref_diag in zip(schemes, whole):
        sol = augmented_lsq(basis, data, scheme)
        ref, ref_res, _ = stacked_augmented_solve(basis, data, scheme)
        assert np.abs(sol.beta - ref).max() <= 1e-12 * np.abs(ref).max()
        assert abs(sol.train_residual - ref_res) <= 1e-12 * np.linalg.norm(data.values)
        diag = schur_diagnostics(basis, data, scheme, sol)
        assert diag.available and ref_diag.available
        # the exact q=2 rule leaves a bound at the roundoff floor
        assert abs(diag.bound - ref_diag.bound) <= 1e-12 * max(ref_diag.bound, 1e-3)


def test_full_rank_propagates_to_blocks():
    target = make_target(1, ExponentialDecay(2.0), 6, seed=26)
    basis = enumerate_basis(1, 3, 3)
    data = _uniform_data(1, 400, 27, target)
    a = design_matrix(basis, data)
    n_inv = basis.invariant_count
    if np.linalg.svd(a, compute_uv=False)[-1] > 1e-8:
        assert np.linalg.svd(a[:, :n_inv], compute_uv=False)[-1] > 1e-10
        assert np.linalg.svd(a[:, n_inv:], compute_uv=False)[-1] > 1e-10


def test_schur_exact_quadrature_zero_bound():
    target = make_target(1, ExponentialDecay(2.0), 10, seed=28)
    basis = enumerate_basis(1, 3, 3)
    data = _uniform_data(1, 200, 29, target)
    scheme = AugmentationScheme("quadrature", rule=so2_quadrature(4))
    sol = augmented_lsq(basis, data, scheme)
    diag = schur_diagnostics(basis, data, scheme, sol)
    assert diag.available and diag.reason is None
    assert diag.d_bar_norm < 1e-12
    assert diag.bound < 1e-12


def test_schur_identity_scheme_unit_norm():
    target = make_target(1, ExponentialDecay(2.0), 10, seed=30)
    basis = enumerate_basis(1, 3, 3)
    data = _uniform_data(1, 200, 31, target)
    scheme = AugmentationScheme("quadrature", rule=identity_rule(SO2))
    sol = augmented_lsq(basis, data, scheme)
    diag = schur_diagnostics(basis, data, scheme, sol)
    a_n = design_matrix(basis, data)[:, basis.invariant_count:]
    assert abs(diag.d_bar_norm - np.linalg.norm(a_n, ord=2)) < 1e-9


def test_schur_bound_dominates_measured_error():
    target = make_target(1, ExponentialDecay(2.0), 20, seed=32)
    basis = enumerate_basis(1, 3, 4)
    for trial in range(10):
        data = _uniform_data(1, 100, 40 + trial, target)
        scheme = AugmentationScheme("random", t=64, seed=50 + trial)
        sol = augmented_lsq(basis, data, scheme)
        diag = schur_diagnostics(basis, data, scheme, sol)
        assert diag.available
        assert sol.eps_sym <= diag.bound


def test_schur_unavailable_when_rank_deficient():
    target = make_target(1, ExponentialDecay(2.0), 6, seed=33)
    basis = enumerate_basis(1, 3, 4)
    data = sample_dataset(DistributionSpec(1, "dUU"), 30, np.random.default_rng(34), target)
    scheme = AugmentationScheme("quadrature", rule=identity_rule(SO2))
    sol = augmented_lsq(basis, data, scheme)
    diag = schur_diagnostics(basis, data, scheme, sol)
    assert not diag.available
    assert diag.bound is None
    assert diag.reason == "singular normal matrix"


def test_schur_bound_available_on_near_singular_data():
    # n = p points, two of them 1e-8 apart: the augmented system stays above
    # the singularity floor, and the Schur complement read from its triangle
    # (not formed by normal equations) still gives a bound that holds
    basis = enumerate_basis(1, 3, 2)
    rng = np.random.default_rng(56)
    pts = rng.uniform(0.0, 2.0 * np.pi, size=(basis.size, 3))
    pts[1] = pts[0] + 1e-8
    data = Dataset(1, pts, rng.normal(size=basis.size))
    scheme = AugmentationScheme("quadrature", rule=identity_rule(SO2))
    sol = augmented_lsq(basis, data, scheme)
    diag = schur_diagnostics(basis, data, scheme, sol)
    assert diag.available and diag.reason is None
    assert sol.eps_sym <= diag.bound


@pytest.mark.parametrize("d", [1, 2])
def test_schur_bound_zero_without_noninvariant_columns(d):
    # K = 0: every column is invariant, beta_N is empty and eps_sym = 0
    basis = enumerate_basis(d, 3, 0)
    assert basis.invariant_count == basis.size
    data = _uniform_data(d, 20, 85, make_target(d, ExponentialDecay(2.0), 3, seed=86))
    scheme = AugmentationScheme("random", t=4, seed=87)
    sol = augmented_lsq(basis, data, scheme)
    diag = schur_diagnostics(basis, data, scheme, sol)
    assert diag.available and diag.reason is None and diag.c2 is None
    assert diag.bound == diag.d_bar_norm == 0.0 == sol.eps_sym
    ref = invariant_lsq(basis, data)
    assert abs(diag.invariant_residual - ref.train_residual) <= 1e-12 * np.linalg.norm(data.values)


def _schur_cases():
    """(label, basis, data, scheme): both d, n below and above p+1, Euler and
    random node sets, and pinned (rank-deficient) dUU data."""
    cases = []
    for d, k, sizes, schemes in (
            (1, 3, (40, 200), [AugmentationScheme("random", t=16, seed=61),
                                AugmentationScheme("quadrature", rule=so2_quadrature(3))]),
            (2, 2, (40, 90), [AugmentationScheme("random", t=9, seed=62),
                               AugmentationScheme("quadrature", rule=so3_quadrature_euler(1))])):
        basis = enumerate_basis(d, 3, k)
        target = make_target(d, ExponentialDecay(2.0), k + 2, seed=63)
        for n in sizes:
            for dist in ("UUU", "dUU"):
                data = sample_dataset(DistributionSpec(d, dist), n,
                                      np.random.default_rng(64 + n), target)
                for scheme in schemes:
                    cases.append((f"d={d} n={n} p={basis.size} {dist} {scheme.kind}",
                                  basis, data, scheme))
    return cases


@pytest.mark.parametrize("cutoff", [0.0, 1e-3])
def test_schur_from_factor_matches_design_oracle(cutoff):
    available = 0
    for label, basis, data, scheme in _schur_cases():
        diag = schur_diagnostics(basis, data, scheme, augmented_lsq(basis, data, scheme, cutoff))
        ref = schur_from_design(basis, data, scheme)
        assert (diag.available, diag.reason) == (ref.available, ref.reason), label
        if not ref.available:
            continue
        available += 1
        for name in ("bound", "c2", "d_bar_norm", "invariant_residual"):
            got, want = getattr(diag, name), getattr(ref, name)
            assert abs(got - want) <= 1e-12 * abs(want), (label, name, got, want)
    assert available >= 8


@pytest.mark.parametrize("d", [1, 2])
def test_factor_never_crosses_data(d):
    basis = enumerate_basis(d, 3, 3 if d == 1 else 2)
    target = make_target(d, ExponentialDecay(2.0), 5, seed=65)
    data1, data2, twin = (_uniform_data(d, 90, seed, target) for seed in (66, 67, 67))
    scheme = AugmentationScheme("random", t=8, seed=68)
    sol1 = augmented_lsq(basis, data1, scheme)
    assert data1._factor is design_factor(basis, data1)
    # twin holds the same points as data2 but is a separate object: the fresh answer
    fresh = schur_diagnostics(basis, twin, scheme, augmented_lsq(basis, twin, scheme))
    assert fresh.available
    assert schur_diagnostics(basis, data2, scheme, sol1) == fresh
    bare = RegressionSolution(basis, sol1.beta, 0.0, 0.0)  # the four fields, positional
    assert schur_diagnostics(basis, data2, scheme, bare) == fresh
    assert data2._factor is not data1._factor
    assert np.array_equal(data2._factor.r, twin._factor.r)
    # the augmented factor is kept by the same rule, keyed by the scheme object
    # too; the diagnostics on data2 and twin neither read nor touched data1's,
    # and each dataset holds its own (scheme, factor)
    kept = data1._augmented
    for data in (data1, data2, twin):
        assert data._augmented[0] is scheme and data._augmented[1].basis is basis
    assert len({id(data._augmented[1]) for data in (data1, data2, twin)}) == 3
    assert np.array_equal(data2._augmented[1].r, twin._augmented[1].r)
    equal = AugmentationScheme("random", t=8, seed=68)  # the same draws, another object
    assert np.array_equal(augmented_lsq(basis, data1, equal).beta, sol1.beta)
    assert data1._augmented[0] is equal and data1._augmented[1] is not kept[1]


def test_schur_reuses_the_solves_rotations(monkeypatch):
    draws = []
    real = regression.sample_haar_many
    monkeypatch.setattr(regression, "sample_haar_many",
                        lambda *args: draws.append(args) or real(*args))
    basis = enumerate_basis(2, 3, 2)
    data = _uniform_data(2, 60, 76, make_target(2, ExponentialDecay(2.0), 4, seed=77))
    scheme = AugmentationScheme("random", t=6, seed=78)
    sol = augmented_lsq(basis, data, scheme)
    assert schur_diagnostics(basis, data, scheme, sol).available
    assert len(draws) == 1
    # nodes is a pure function of the scheme's fields: an equal scheme object,
    # and the same one called again, draw the same rotations
    again = AugmentationScheme("random", t=6, seed=78).nodes(2)
    assert [q.matrix.tolist() for q in again[1]] == [q.matrix.tolist() for q in scheme.nodes(2)[1]]


@pytest.mark.parametrize("d", [1, 2])
def test_schur_after_solve_builds_no_stack(monkeypatch, d):
    # nor does it draw or evaluate a rotation: the solve's build kept Dbar's
    # entries beside its factor
    basis = enumerate_basis(d, 3, 3 if d == 1 else 2)
    data = _uniform_data(d, 90, 79, make_target(d, ExponentialDecay(2.0), 5, seed=80))
    rule = so2_quadrature(3) if d == 1 else so3_quadrature_euler(1)
    for scheme in (AugmentationScheme("random", t=8, seed=81),
                   AugmentationScheme("quadrature", rule=rule)):
        sol = augmented_lsq(basis, data, scheme)
        calls = []
        for owner, name in ((regression, "_compressed_stack"), (regression, "_virtual_nodes"),
                            (regression, "rotation_blocks"), (regression, "sample_haar_many"),
                            (AugmentationScheme, "nodes")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *args, f=real, name=name: calls.append(name) or f(*args))
        assert schur_diagnostics(basis, data, scheme, sol).available, scheme.kind
        assert calls == [], scheme.kind
        monkeypatch.undo()


def test_design_factor_keyed_by_basis_and_data():
    target = make_target(2, ExponentialDecay(2.0), 4, seed=69)
    data = _uniform_data(2, 70, 70, target)
    small, large = enumerate_basis(2, 3, 1), enumerate_basis(2, 3, 2)
    for basis in (small, large, small):
        factor = design_factor(basis, data)
        assert factor.basis is basis and factor is data._factor
        assert design_factor(basis, data) is factor  # kept for the same basis object
        assert factor.r.shape == (min(data.n, basis.size + 1), basis.size + 1)
        ref = np.column_stack([design_matrix(basis, data), data.values])
        # [A | y] = Q r: equal Gram matrices
        gram = factor.r.conj().T @ factor.r
        assert np.abs(gram - ref.conj().T @ ref).max() <= 1e-12 * np.abs(gram).max()
    other = _uniform_data(2, 70, 70, target)  # same points, another dataset
    assert design_factor(small, other) is not factor and data._factor is factor
    # an equal basis that is another object builds its own factor
    assert design_factor(enumerate_basis(2, 3, 1), data) is not factor


def _stacked_with_y(basis, data, scheme):
    """The plain augmented stack [sqrt(w_t) A D(Q_t) | sqrt(w_t) y] from dense D(Q_t)."""
    weights, rotations = scheme.nodes(basis.d)
    a = design_matrix(basis, data)
    return np.concatenate([np.sqrt(w) * np.column_stack([a @ generalized_d(basis, q), data.values])
                           for w, q in zip(weights, rotations)])


@pytest.mark.parametrize("d", [1, 2])
def test_every_factor_is_its_stacks_triangle(monkeypatch, d):
    # every factor, design or augmented, short stack or tall, is upper
    # trapezoidal with the plain stack's Gram matrix: the QR factor of what
    # entered the reducer, or (a full-rank augmented system) the p+1 rows
    # built from its normal matrix with no stack
    rows = _count_stack_rows(monkeypatch)
    basis = enumerate_basis(d, 3, 3 if d == 1 else 2)
    p = basis.size
    target = make_target(d, ExponentialDecay(2.0), 5, seed=82)
    one_node = so2_quadrature(1) if d == 1 else so3_quadrature_euler(0)
    schemes = [AugmentationScheme("quadrature", rule=identity_rule(one_node.group)),
               AugmentationScheme("quadrature", rule=one_node),
               AugmentationScheme("random", t=5, seed=83)]
    routes = set()
    for n in (p // 2, p + 1, 2 * p):
        data = _uniform_data(d, n, 84 + n, target)
        design_factor(basis, data)
        assert rows == [n]  # the design factor is built once per dataset
        plain_ay = np.column_stack([design_matrix(basis, data), data.values])
        for scheme in schemes:
            augmented_lsq(basis, data, scheme)
            gram = _normal_route(data)
            routes.add(gram)
            assert len(rows) == (1 if gram else 2), (n, scheme.kind)
            augmented_rows = p + 1 if gram else min(rows.pop(), p + 1)
            for factor, stack, height in ((data._factor, plain_ay, min(n, p + 1)),
                                          (data._augmented[1], _stacked_with_y(basis, data, scheme),
                                           augmented_rows)):
                r = factor.r
                assert r.shape == (height, p + 1), (n, scheme.kind)
                assert not np.tril(r, -1).any(), (n, scheme.kind)
                gram_matrix = r.conj().T @ r
                ref = stack.conj().T @ stack
                assert np.abs(gram_matrix - ref).max() <= 1e-12 * np.abs(ref).max(), (n, scheme.kind)
        rows.clear()
    assert routes == {False, True}


@pytest.mark.parametrize("d", [1, 2])
def test_leading_fit_matches_invariant_lsq(d):
    k = 4 if d == 1 else 2
    basis = enumerate_basis(d, 3, k)
    n_inv = basis.invariant_count
    target = make_target(d, ExponentialDecay(2.0), k + 2, seed=71)
    for dist, n, cutoff in (("UUU", 400, 0.0), ("dUU", 400, 0.0), ("dUU", 400, 1e-3),
                            ("UUU", basis.size - 5, 0.0)):
        data = sample_dataset(DistributionSpec(d, dist), n, np.random.default_rng(72), target)
        full_lsq(basis, data, cutoff)
        beta, res = design_factor(basis, data).leading_fit(n_inv, cutoff)
        ref = invariant_lsq(basis, data, cutoff)
        assert np.abs(beta - ref.beta_invariant).max() <= 1e-12 * np.abs(ref.beta).max(), dist
        assert abs(res - ref.train_residual) <= 1e-12 * np.linalg.norm(data.values), dist


def test_l2_test_errors_match_one_at_a_time():
    target = make_target(1, ExponentialDecay(2.0), 8, seed=73)
    basis = enumerate_basis(1, 3, 3)
    train, test = _uniform_data(1, 120, 74, target), _uniform_data(1, 50, 75, target)
    sols = [full_lsq(basis, train), invariant_lsq(basis, train)]
    assert l2_test_errors(basis, [s.beta for s in sols], target, test) == [
        l2_test_error(s, target, test) for s in sols]


def test_solution_norm_split():
    rng = np.random.default_rng(35)
    basis = enumerate_basis(1, 3, 3)
    beta = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    sol = RegressionSolution(basis, beta, 0.0, 0.0)
    total = np.linalg.norm(sol.beta) ** 2
    split = np.linalg.norm(sol.beta_invariant) ** 2 + np.linalg.norm(sol.beta_noninvariant) ** 2
    assert abs(total - split) < 1e-10


def test_quadrature_theorem_all_sphere_distributions():
    from symquad.geometry import so3_quadrature_euler

    target = make_target(2, ExponentialDecay(2.0), 4, seed=36)
    basis = enumerate_basis(2, 3, 2)
    scheme = AugmentationScheme("quadrature", rule=so3_quadrature_euler(2))
    for name in ("UUU", "dUU", "dsUU", "dH1U", "dsH1sU"):
        data = sample_dataset(DistributionSpec(2, name), 100,
                              np.random.default_rng(37), target)
        sol = augmented_lsq(basis, data, scheme)
        assert sol.eps_sym < 1e-10, name


def test_random_augmentation_sqrt_t_envelope():
    # E[eps_sym] <= lambda / sqrt(T); the constant is fitted at T=16 from a
    # 10-trial mean.  The almost-sure rate carries ln(T)^{1/2+eps} factors, so
    # the fitted envelope is given 1.5x headroom across the grid; a rate as
    # slow as T^{-1/4} would still blow through it at T=256.
    target = make_target(1, ExponentialDecay(2.0), 30, seed=38)
    basis = enumerate_basis(1, 3, 4)
    means = {}
    for ti, t in enumerate((16, 64, 256)):
        eps = []
        for trial in range(10):
            data = _uniform_data(1, 100, 60 + trial, target)
            scheme = AugmentationScheme("random", t=t, seed=900 + 31 * ti + trial)
            eps.append(augmented_lsq(basis, data, scheme).eps_sym)
        means[t] = float(np.mean(eps))
    lam = means[16] * math.sqrt(16.0)
    for t, mean in means.items():
        assert mean <= 1.5 * lam / math.sqrt(t)
