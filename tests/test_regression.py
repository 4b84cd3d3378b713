import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import pinv_solve, stacked_augmented_solve
from symquad import regression
from symquad.coupling import enumerate_basis, sym_coeffs
from symquad.geometry import (SO2, identity_rule, sample_haar,
                              so2_quadrature, so3_quadrature_euler)
from symquad.harmonics import generalized_d
from symquad.regression import (AugmentationScheme, Dataset, RegressionSolution,
                                augmented_lsq, design_matrix, full_lsq,
                                invariant_design_matrix, invariant_lsq, l2_test_error,
                                lsq_solve, rotate_dataset, schur_diagnostics,
                                _compressed_stack)
from symquad.sampling import DistributionSpec, ExponentialDecay, make_target, sample_dataset


def _uniform_data(d, n, seed, target=None):
    return sample_dataset(DistributionSpec(d, "UUU"), n, np.random.default_rng(seed), target)


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


def test_lsq_solve_relative_mode():
    a = np.diag([1.0, 1e-3])
    y = np.array([1.0, 1.0])
    keep_all = lsq_solve(a, y, cutoff=1e-4, relative=False)
    dropped = lsq_solve(a, y, cutoff=1e-2, relative=True)
    assert abs(keep_all[1] - 1e3) < 1e-9
    assert dropped[1] == 0.0


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
               # sigma 4 ... 0.1: the absolute cutoffs 1e-3 < 0.1 < 0.3 and the
               # relative ones 1e-6 < 0.1 / 4 < 0.05 bracket sigma_min
               "well-conditioned": triangle(np.geomspace(4.0, 0.1, 6))}
    cutoffs = [(0.0, False), (1e-3, False), (0.3, False), (1e-6, True), (0.05, True)]
    for name, a in systems.items():
        y = cmat(a.shape[0], 1)[:, 0]
        for cutoff, relative in cutoffs:
            ref = pinv_solve(a, y, cutoff, relative)
            beta = lsq_solve(a, y, cutoff, relative)
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


def _oracle_case(d, k, dist, n, scheme, cutoff, seed):
    target = make_target(d, ExponentialDecay(2.0), 8 if d == 1 else 4, seed=seed)
    basis = enumerate_basis(d, 3, k)
    data = sample_dataset(DistributionSpec(d, dist), n, np.random.default_rng(seed + 1), target)
    sol = augmented_lsq(basis, data, scheme, cutoff)
    ref, ref_res, _ = stacked_augmented_solve(basis, data, scheme, cutoff)
    label = (d, k, dist, scheme.kind, scheme.t, cutoff)
    assert np.abs(sol.beta - ref).max() <= 1e-12 * np.abs(ref).max(), label
    assert abs(sol.train_residual - ref_res) <= 1e-12 * np.linalg.norm(data.values), label


@pytest.mark.parametrize("dist", ["UUU", "dUU"])
@pytest.mark.parametrize("cutoff", [0.0, 1e-3])
def test_augmented_lsq_matches_stacked_oracle(dist, cutoff):
    # d=1, K=5 has 11 charges: T=3 is below the charge count, T=64 far above;
    # so2_quadrature(m) has degree m-1, so m=3 is under-resolved (q=2 < K) and
    # m=6, 8 are exact (q=5, 7 >= K); so3_quadrature_euler(q) has degree q;
    # dUU pins one particle, which makes the design matrix rank deficient
    schemes1 = [AugmentationScheme("random", t=t, seed=42 + t) for t in (3, 16, 64)]
    schemes1 += [AugmentationScheme("quadrature", rule=so2_quadrature(m)) for m in (3, 6, 8)]
    for i, scheme in enumerate(schemes1):
        _oracle_case(1, 5, dist, 80, scheme, cutoff, 300 + i)
    # d=2, K=2 has p=52: n=40 rotates the n rows themselves, n=80 > p+1 is cut
    # to its 53-row triangular factor first
    schemes2 = [AugmentationScheme("random", t=t, seed=42 + t) for t in (3, 16)]
    schemes2 += [AugmentationScheme("quadrature", rule=so3_quadrature_euler(q)) for q in (1, 2)]
    for i, scheme in enumerate(schemes2):
        _oracle_case(2, 2, dist, 40, scheme, cutoff, 320 + i)
        _oracle_case(2, 2, dist, 80, scheme, cutoff, 330 + i)


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
    data = _uniform_data(1, 100, 44, target)
    for t in (16, 256):
        augmented_lsq(basis, data, AugmentationScheme("random", t=t, seed=45))
    assert len(rows) == 2
    assert rows[0] == rows[1] <= 11 * 100


def test_augmented_rows_cut_to_p_plus_one_d2(monkeypatch):
    rows = _count_stack_rows(monkeypatch)
    target = make_target(2, ExponentialDecay(2.0), 4, seed=49)
    basis = enumerate_basis(2, 3, 2)
    data = _uniform_data(2, 200, 50, target)
    rule = so3_quadrature_euler(2)
    augmented_lsq(basis, data, AugmentationScheme("quadrature", rule=rule))
    assert (basis.size, len(rule)) == (52, 32)
    # [A | y] (200 rows) is cut first, then 32 nodes of 53 rows are stacked
    assert rows == [200, 32 * 53]


def test_augmented_d2_nodes_across_chunks(monkeypatch):
    # 53 rows a node: a 120-row budget puts two nodes in a stack chunk and
    # three in a Schur chunk, so every node set below spans several chunks
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


@pytest.mark.parametrize("budget", [16384, 200])
def test_schur_moments_match_per_node_sums(monkeypatch, budget):
    # the batched contraction against dense D(Q_t) built node by node
    monkeypatch.setattr(regression, "_COMPRESS_ROWS", budget)
    rng = np.random.default_rng(54)
    basis = enumerate_basis(2, 3, 3)
    n_inv, p_n = basis.invariant_count, basis.size - basis.invariant_count
    a_n = rng.normal(size=(70, p_n)) + 1j * rng.normal(size=(70, p_n))
    gram = a_n.conj().T @ a_n
    weights, rotations = AugmentationScheme("random", t=11, seed=55).nodes(2)
    d_bar_ref = np.zeros((p_n, p_n), dtype=complex)
    d_block_ref = np.zeros((p_n, p_n), dtype=complex)
    for w, q in zip(weights, rotations):
        d_t = generalized_d(basis, q)[n_inv:, n_inv:]
        d_bar_ref += w * d_t
        d_block_ref += w * (d_t.conj().T @ gram @ d_t)
    d_bar, d_block = regression._noninvariant_moments(basis, gram, weights, rotations)
    assert np.abs(d_bar - d_bar_ref).max() <= 1e-13
    assert np.abs(d_block - d_block_ref).max() <= 1e-13 * np.abs(d_block_ref).max()


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


def test_schur_unavailable_when_schur_complement_is_roundoff():
    # n = p points, two of them 1e-8 apart: the normal matrix stays above the
    # singularity floor, its Schur complement does not
    basis = enumerate_basis(1, 3, 2)
    rng = np.random.default_rng(56)
    pts = rng.uniform(0.0, 2.0 * np.pi, size=(basis.size, 3))
    pts[1] = pts[0] + 1e-8
    data = Dataset(1, pts, rng.normal(size=basis.size))
    scheme = AugmentationScheme("quadrature", rule=identity_rule(SO2))
    diag = schur_diagnostics(basis, data, scheme, augmented_lsq(basis, data, scheme))
    assert not diag.available
    assert diag.reason == "Schur-complement roundoff"


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
