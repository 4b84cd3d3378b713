import math

import numpy as np
import pytest

from oracles import brute_force_circle_indices, cg_table_by_diagonalization, random_units
from symquad.coupling import (clebsch_gordan, enumerate_basis, eval_coupled,
                              invariant_basis_sphere3, invariant_couplings,
                              invariant_indices_circle, sym_coeffs)
from symquad.geometry import SO3, sample_haar_many, so2_quadrature
from symquad.harmonics import generalized_d, sph_harm_table
from symquad.regression import Dataset, design_matrix, invariant_design_matrix, rotate_dataset


def test_enumerate_circle_small():
    basis = enumerate_basis(1, 3, 1)
    assert basis.size == 7
    assert set(basis.indices) == {(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                  (0, -1, 0), (0, 0, 1), (0, 0, -1)}
    assert basis.invariant_count == 1
    assert basis.indices[0] == (0, 0, 0)


def test_enumerate_sphere_single_particle():
    basis = enumerate_basis(2, 1, 1)
    assert [idx for idx in basis.indices] == [((0,), (0,)), ((1,), (-1,)),
                                              ((1,), (0,)), ((1,), (1,))]
    assert basis.invariant_count == 1


def test_enumerate_degree_zero():
    assert enumerate_basis(1, 1, 0).size == 1


def test_enumerate_matches_brute_force():
    for n, k in ((2, 3), (3, 4)):
        basis = enumerate_basis(1, n, k)
        assert sorted(basis.indices) == sorted(brute_force_circle_indices(n, k))


def test_invariant_indices_circle_examples():
    got = invariant_indices_circle(3, 2)
    expect = {(0, 0, 0), (1, -1, 0), (1, 0, -1), (0, 1, -1),
              (-1, 1, 0), (-1, 0, 1), (0, -1, 1)}
    assert set(got) == expect and len(got) == 7
    assert invariant_indices_circle(1, 9) == [(0,)]
    assert set(invariant_indices_circle(2, 2)) == {(0, 0), (1, -1), (-1, 1)}


def test_invariant_ordering_is_deterministic():
    a = enumerate_basis(1, 3, 3)
    b = enumerate_basis(1, 3, 3)
    assert a.indices == b.indices
    assert a.indices[:a.invariant_count] == tuple(invariant_indices_circle(3, 3))


def test_clebsch_gordan_trivial_values():
    assert clebsch_gordan(0, 0, 0, 0, 0, 0) == 1.0
    assert clebsch_gordan(1, 1, 1, 1, 1, 1) == 0.0  # m-selection: 1+1 != 1
    assert abs(clebsch_gordan(1, 1, 1, -1, 0, 0) - 1.0 / math.sqrt(3)) < 1e-12
    with pytest.raises(ValueError):
        clebsch_gordan(1, 2, 1, 0, 1, 0)


def test_clebsch_gordan_matches_diagonalization_oracle():
    for j1 in range(0, 5):
        for j2 in range(0, 5):
            table = cg_table_by_diagonalization(j1, j2)
            for (m1, m2, j3, m3), ref in table.items():
                assert abs(clebsch_gordan(j1, m1, j2, m2, j3, m3) - ref) < 1e-12


def test_clebsch_gordan_swap_symmetry():
    rng = np.random.default_rng(0)
    count = 0
    while count < 200:
        l1, l2 = rng.integers(0, 5, size=2)
        l3 = rng.integers(abs(l1 - l2), l1 + l2 + 1)
        m1 = rng.integers(-l1, l1 + 1)
        m2 = rng.integers(-l2, l2 + 1)
        if abs(m1 + m2) > l3:
            continue
        lhs = clebsch_gordan(l1, m1, l2, m2, l3, m1 + m2)
        rhs = (-1) ** (l1 + l2 - l3) * clebsch_gordan(l2, m2, l1, m1, l3, m1 + m2)
        assert abs(lhs - rhs) < 1e-12
        count += 1


def _racah_couplings(n_particles, degree):
    """{l-tuple: {m-tuple: coefficient}} of the invariant couplings for N <= 3
    as explicit Clebsch-Gordan products: the pair <l m; l -m | 0 0>, and for
    triples l1 x l2 coupled to l3, contracted with the third particle's l3."""
    out = {}
    if n_particles == 1:
        out[(0,)] = {(0,): 1.0}
    for l in range(degree // 2 + 1 if n_particles == 2 else 0):
        out[(l, l)] = {(m, -m): clebsch_gordan(l, m, l, -m, 0, 0) for m in range(-l, l + 1)}
    for l1 in range(degree + 1 if n_particles == 3 else 0):
        for l2 in range(degree + 1 - l1):
            for l3 in range(abs(l1 - l2), min(l1 + l2, degree - l1 - l2) + 1):
                out[(l1, l2, l3)] = {
                    (m1, m2, -(m1 + m2)): clebsch_gordan(l1, m1, l2, m2, l3, m1 + m2)
                    * clebsch_gordan(l3, m1 + m2, l3, -(m1 + m2), 0, 0)
                    for m1 in range(-l1, l1 + 1) for m2 in range(-l2, l2 + 1)
                    if abs(m1 + m2) <= l3}
    return out


def test_invariant_couplings_match_clebsch_gordan_products():
    for n in (1, 2, 3):
        for k in range(0, 9):
            funcs = invariant_couplings(n, k)
            oracle = _racah_couplings(n, k)
            assert [f.l for f in funcs] == sorted(oracle)
            for f in funcs:
                got = {tuple(int(m) for m in ms): c for ms, c in zip(f.ms, f.coeffs)}
                ref = oracle[f.l]
                assert set(got) <= set(ref)
                assert max(abs(got.get(m, 0.0) - c) for m, c in ref.items()) < 1e-12


def test_invariant_basis_sphere3_constant():
    funcs = invariant_basis_sphere3(0)
    assert len(funcs) == 1
    f = funcs[0]
    assert f.l == (0, 0, 0) and f.coeffs.shape == (1,) and f.coeffs[0] == 1.0
    # the constant invariant equals (4 pi)^{-3/2} everywhere
    pts = random_units(3, np.random.default_rng(1)).reshape(1, 3, 3)
    tables = [sph_harm_table(0, pts[:, p, :]) for p in range(3)]
    val = eval_coupled(funcs, tables)[0, 0]
    assert abs(val - (4 * math.pi) ** -1.5) < 1e-14


def test_invariant_basis_triangle_rule():
    keys = {f.l for f in invariant_basis_sphere3(3)}
    assert (2, 0, 1) not in keys  # |2-0| > 1 violates the triangle condition
    assert (1, 1, 1) in keys
    assert (1, 1, 0) in keys


def test_invariant_basis_functions_are_invariant():
    rng = np.random.default_rng(2)
    funcs = invariant_basis_sphere3(5)
    rots = sample_haar_many(SO3, 20, rng)
    for q in rots:
        pts = random_units(3, rng)
        rot = pts @ q.matrix.T
        t0 = [sph_harm_table(5, pts[p:p + 1]) for p in range(3)]
        t1 = [sph_harm_table(5, rot[p:p + 1]) for p in range(3)]
        v0 = eval_coupled(funcs, t0)
        v1 = eval_coupled(funcs, t1)
        assert np.abs(v1 - v0).max() < 1e-10


def test_coupling_columns_orthonormal():
    for k in range(0, 9):
        basis = enumerate_basis(1, 3, k)
        c = _coupling(basis)
        assert np.abs(c.conj().T @ c - np.eye(basis.invariant_count)).max() < 1e-12
    for k in range(0, 7):
        basis = enumerate_basis(2, 3, k)
        c = _coupling(basis)
        assert np.abs(c.conj().T @ c - np.eye(basis.invariant_count)).max() < 1e-12


def test_coupling_columns_block_supported():
    basis = enumerate_basis(2, 3, 4)
    c = _coupling(basis)
    for blk in basis.blocks:
        for j in range(blk.n_inv):
            col = c[:, blk.work_cols[j]]
            mask = np.ones(basis.size, dtype=bool)
            mask[blk.start:blk.stop] = False
            assert np.abs(col[mask]).max() == 0.0


def test_invariant_dimension_matches_projector_rank():
    # Haar average of D (exact by quadrature) is the coefficient projector;
    # its rank counts the invariant subspace dimension
    for d_dim, n, k in ((1, 3, 4), (2, 3, 3), (2, 3, 4), (2, 4, 3)):
        basis = enumerate_basis(d_dim, n, k)
        if d_dim == 1:
            rule = so2_quadrature(k + 1)
        else:
            from symquad.geometry import so3_quadrature_euler
            rule = so3_quadrature_euler(k)
        acc = np.zeros((basis.size, basis.size), dtype=complex)
        for w, q in rule.nodes:
            acc += w * generalized_d(basis, q)
        eigs = np.linalg.eigvalsh((acc + acc.conj().T) / 2.0)
        assert int((eigs > 0.5).sum()) == basis.invariant_count
        assert np.abs(acc @ acc - acc).max() < 1e-10  # projector


def test_four_particle_invariant_columns_fixed_by_rotations():
    basis = enumerate_basis(2, 4, 3)
    assert basis.invariant_count == 11  # 1 constant, 6 equal pairs, 4 triples (1, 1, 1)
    rng = np.random.default_rng(8)
    data = Dataset(2, random_units(4 * 6, rng).reshape(6, 4, 3))
    a_inv = invariant_design_matrix(basis, data)
    assert np.abs(design_matrix(basis, data)[:, :basis.invariant_count] - a_inv).max() < 1e-12
    for q in sample_haar_many(SO3, 10, rng):
        rotated = rotate_dataset(q, data)
        assert np.abs(invariant_design_matrix(basis, rotated) - a_inv).max() < 1e-10
        a_rot = design_matrix(basis, rotated)[:, :basis.invariant_count]
        assert np.abs(a_rot - a_inv).max() < 1e-10


def test_sym_coeffs_circle_rules():
    basis = enumerate_basis(1, 3, 2)
    idx = {k: i for i, k in enumerate(basis.indices)}
    beta = np.zeros(basis.size, dtype=complex)
    beta[idx[(1, -1, 0)]] = 2.0 - 1.0j
    assert np.array_equal(sym_coeffs(beta, basis), beta)
    beta2 = np.zeros(basis.size, dtype=complex)
    beta2[idx[(1, 0, 0)]] = 1.0
    assert np.abs(sym_coeffs(beta2, basis)).max() == 0.0


def test_sym_coeffs_idempotent():
    rng = np.random.default_rng(3)
    basis = enumerate_basis(1, 3, 3)
    beta = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    once = sym_coeffs(beta, basis)
    assert np.abs(sym_coeffs(once, basis) - once).max() < 1e-14
    with pytest.raises(ValueError):
        sym_coeffs(beta[:-1], basis)


def _working_to_tensor(basis):
    """Matrix taking working coefficients to tensor-basis coefficients: the
    identity for d=1; for d=2 block b maps its working columns through its
    unitary b.u."""
    if basis.d == 1:
        return np.eye(basis.size, dtype=complex)
    m = np.zeros((basis.size, basis.size), dtype=complex)
    for b in basis.blocks:
        m[b.start:b.stop, b.work_cols] = b.u
    return m


def _coupling(basis):
    """p x n_inv tensor coefficients of the invariant working functions."""
    return _working_to_tensor(basis)[:, :basis.invariant_count]


def test_sym_coeffs_matches_tensor_projection():
    # C C* in tensor coordinates equals tail-zeroing in working coordinates
    rng = np.random.default_rng(4)
    basis = enumerate_basis(2, 3, 3)
    beta = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    projected = sym_coeffs(beta, basis)
    to_tensor = _working_to_tensor(basis)
    c = to_tensor[:, :basis.invariant_count]
    tensor = to_tensor @ beta
    expect = to_tensor.conj().T @ (c @ (c.conj().T @ tensor))
    assert np.abs(projected - expect).max() < 1e-12


def test_quadrature_average_equals_coefficient_projection():
    # group-averaged evaluation of P_beta equals P_{sym(beta)} pointwise
    rng = np.random.default_rng(5)
    k = 3
    basis = enumerate_basis(1, 3, k)
    beta = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    rule = so2_quadrature(2 * k + 1)
    from symquad.regression import Dataset, design_matrix

    pts = rng.uniform(0, 2 * math.pi, (50, 3))
    sym_beta = sym_coeffs(beta, basis)
    averaged = np.zeros(50, dtype=complex)
    for w, q in rule.nodes:
        rotated = Dataset(1, np.mod(pts + q.angle, 2 * math.pi))
        averaged += w * (design_matrix(basis, rotated) @ beta)
    direct = design_matrix(basis, Dataset(1, pts)) @ sym_beta
    assert np.abs(averaged - direct).max() < 1e-10


def test_to_tensor_roundtrip():
    rng = np.random.default_rng(6)
    basis = enumerate_basis(2, 3, 3)
    beta = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    to_tensor = _working_to_tensor(basis)
    back = to_tensor.conj().T @ (to_tensor @ beta)
    assert np.abs(back - beta).max() < 1e-12
    assert abs(np.linalg.norm(to_tensor @ beta) - np.linalg.norm(beta)) < 1e-12


def test_pair_couplings_on_sphere():
    # N=2 invariants: one combination per equal-degree pair (l, l), 2l <= K
    basis = enumerate_basis(2, 2, 4)
    assert basis.invariant_count == 3  # l = 0, 1, 2
    rng = np.random.default_rng(7)
    funcs = invariant_couplings(2, 4)
    for q in sample_haar_many(SO3, 10, rng):
        pts = random_units(2, rng)
        rot = pts @ q.matrix.T
        t0 = [sph_harm_table(4, pts[p:p + 1]) for p in range(2)]
        t1 = [sph_harm_table(4, rot[p:p + 1]) for p in range(2)]
        assert np.abs(eval_coupled(funcs, t1) - eval_coupled(funcs, t0)).max() < 1e-10
