import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_units, sph_harm_table_loop, sphere_product_rule
from symquad.coupling import enumerate_basis
from symquad.geometry import SO2, SO3, Rotation, compose, sample_haar, sample_haar_many, so2_quadrature
from symquad.harmonics import (_apply_entries, apply_generalized_d, generalized_d,
                               rotation_blocks, sph_harm_table, wigner_block, wigner_d,
                               wigner_little_d)


def test_sph_harm_constant():
    # closed form: Y_0^0 = 1 / (2 sqrt(pi))
    r = random_units(1, np.random.default_rng(0))[0]
    assert abs(sph_harm_table(0, r[None])[0, 0] - 0.2820947917738781) < 1e-12


def test_sph_harm_pole():
    # closed form with P_1^0(1) = 1: Y_1^0(north pole) = sqrt(3 / 4pi)
    l, m = 1, 0
    val = sph_harm_table(l, np.array([[0.0, 0.0, 1.0]]))[0, l * l + l + m]
    assert abs(val - 0.4886025119029199) < 1e-12


def test_sph_harm_orthonormality_by_quadrature():
    # product-rule integration oracle over S^2, exact to degree 13
    pts, w = sphere_product_rule(8, 16)
    table = sph_harm_table(6, pts)
    gram = (table.conj() * w[:, None]).T @ table
    assert np.abs(gram - np.eye(49)).max() < 1e-10


def test_sph_harm_against_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(1)
    pts = random_units(50, rng)
    theta = np.arccos(pts[:, 2])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    table = sph_harm_table(8, pts)
    for l in range(9):
        for m in range(-l, l + 1):
            ref = scipy_special.sph_harm_y(l, m, theta, phi)
            assert np.abs(table[:, l * l + l + m] - ref).max() < 1e-12


def test_sph_harm_accurate_near_the_poles():
    # sqrt(1 - cos^2) would round the polar sine to 0 at 1e-8; every entry
    # up to l = 11 must keep its relative accuracy however close the pole
    scipy_special = pytest.importorskip("scipy.special")
    phi = np.linspace(-3.0, 3.0, 5)
    for theta in (1e-4, 1e-8, 1e-12, np.pi - 1e-8):
        vecs = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                         np.full_like(phi, np.cos(theta))], axis=1)
        table = sph_harm_table(11, vecs)
        y11 = -0.5 * math.sqrt(3.0 / (2.0 * math.pi)) * np.sin(theta) * np.exp(1j * phi)
        assert np.abs(table[:, 3] - y11).max() <= 1e-14 * np.abs(y11).max()
        for l in range(12):
            for m in range(-l, l + 1):
                ref = scipy_special.sph_harm_y(l, m, theta, phi)
                assert np.abs(table[:, l * l + l + m] - ref).max() <= 1e-12 * np.abs(ref).max()
    for z in (1.0, -1.0):  # at the poles only m = 0 survives: z^l sqrt((2l+1)/4pi)
        table = sph_harm_table(11, np.array([[0.0, 0.0, z], [-0.0, 0.0, z]]))
        expect = np.zeros((2, 144))
        for l in range(12):
            expect[:, l * l + l] = z ** l * math.sqrt((2 * l + 1) / (4.0 * math.pi))
        assert np.abs(table - expect).max() < 1e-15


def test_sph_harm_table_matches_loop_bit_for_bit():
    # random directions plus both poles and the equator (incl. phi = pi)
    rng = np.random.default_rng(5)
    equator = np.stack([np.cos(np.linspace(-np.pi, np.pi, 9)),
                        np.sin(np.linspace(-np.pi, np.pi, 9)), np.zeros(9)], axis=1)
    vecs = np.concatenate([random_units(300, rng), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                           equator])
    for l_max in range(13):
        table, ref = sph_harm_table(l_max, vecs), sph_harm_table_loop(l_max, vecs)
        assert np.array_equal(table.real, ref.real), l_max
        assert np.array_equal(table.imag, ref.imag), l_max


def test_wigner_trivial_blocks():
    q = sample_haar(SO3, np.random.default_rng(2))
    assert np.array_equal(wigner_d(0, q).matrix, np.ones((1, 1)))
    for l in (1, 3):
        block = wigner_d(l, Rotation.identity(SO3)).matrix
        assert np.abs(block - np.eye(2 * l + 1)).max() < 1e-14


def test_wigner_little_d_orthogonal():
    for l in (1, 2, 5, 12, 16, 24, 32):
        d = wigner_little_d(l, 0.8321)
        assert np.abs(d @ d.T - np.eye(2 * l + 1)).max() < 1e-12


def test_wigner_transformation_identity():
    # two-sided check: Y o Q = Y . W at random rotations and points
    rng = np.random.default_rng(3)
    for q in sample_haar_many(SO3, 5, rng):
        r = random_units(4, rng)
        rot = r @ q.matrix.T
        for l in range(1, 7):
            lhs = sph_harm_table(l, rot)[:, l * l:(l + 1) ** 2]
            rhs = sph_harm_table(l, r)[:, l * l:(l + 1) ** 2] @ wigner_d(l, q).matrix
            assert np.abs(lhs - rhs).max() < 1e-12


def test_wigner_unitarity():
    rng = np.random.default_rng(4)
    for q in sample_haar_many(SO3, 5, rng):
        for l in (1, 4, 9):
            w = wigner_d(l, q).matrix
            assert np.abs(w.conj().T @ w - np.eye(2 * l + 1)).max() < 1e-12


def test_generalized_d_circle_phases():
    basis = enumerate_basis(1, 3, 2)
    d = generalized_d(basis, Rotation.circle(math.pi))
    idx = {k: i for i, k in enumerate(basis.indices)}
    assert abs(d[idx[(1, -1, 0)], idx[(1, -1, 0)]] - 1.0) < 1e-15
    assert abs(d[idx[(1, 1, 0)], idx[(1, 1, 0)]] - 1.0) < 1e-12  # e^{2 pi i}
    assert abs(d[idx[(1, 0, 0)], idx[(1, 0, 0)]] + 1.0) < 1e-12  # e^{i pi}


def test_generalized_d_identity():
    for d_dim, group in ((1, SO2), (2, SO3)):
        basis = enumerate_basis(d_dim, 3, 2)
        mat = generalized_d(basis, Rotation.identity(group))
        assert np.abs(mat - np.eye(basis.size)).max() < 1e-12


def test_generalized_d_unitary():
    rng = np.random.default_rng(5)
    basis = enumerate_basis(2, 3, 3)
    for q in sample_haar_many(SO3, 20, rng):
        mat = generalized_d(basis, q)
        assert np.abs(mat.conj().T @ mat - np.eye(basis.size)).max() < 1e-10
    # K = 6 checked blockwise; the matrix is block diagonal in working order
    basis6 = enumerate_basis(2, 3, 6)
    for q in sample_haar_many(SO3, 3, rng):
        for blk, mats in zip(basis6.blocks, _working_blocks(basis6, rotation_blocks(basis6, [q]))):
            mat = mats[0]
            assert np.abs(mat.conj().T @ mat - np.eye(blk.dim)).max() < 1e-10


def test_generalized_d_composition_order():
    # row-vector convention A o Q = A D(Q) reverses the composition order:
    # D(Q1 o Q2) = D(Q2) D(Q1)
    rng = np.random.default_rng(6)
    basis = enumerate_basis(2, 3, 4)
    for _ in range(3):
        q1, q2 = sample_haar_many(SO3, 2, rng)
        lhs = generalized_d(basis, compose(q1, q2))
        rhs = generalized_d(basis, q2) @ generalized_d(basis, q1)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_generalized_d_invariant_block_is_identity():
    rng = np.random.default_rng(7)
    basis = enumerate_basis(2, 3, 4)
    n_inv = basis.invariant_count
    for q in sample_haar_many(SO3, 5, rng):
        mat = generalized_d(basis, q)
        assert np.abs(mat[:n_inv, :n_inv] - np.eye(n_inv)).max() < 1e-10
        assert np.abs(mat[:n_inv, n_inv:]).max() < 1e-10
        assert np.abs(mat[n_inv:, :n_inv]).max() < 1e-10


def test_generalized_d_quadrature_average_kills_noninvariant():
    # mean of D over an exact rule keeps only the invariant identity block
    basis = enumerate_basis(1, 3, 4)
    rule = so2_quadrature(basis.degree + 1)
    acc = np.zeros((basis.size, basis.size), dtype=complex)
    for w, q in rule.nodes:
        acc += w * generalized_d(basis, q)
    diag = np.real(np.diag(acc))
    assert np.abs(diag[basis.invariant_count:]).max() < 1e-14
    assert np.abs(diag[:basis.invariant_count] - 1.0).max() < 1e-14


def test_apply_generalized_d_matches_dense():
    rng = np.random.default_rng(8)
    for d_dim, group in ((1, SO2), (2, SO3)):
        basis = enumerate_basis(d_dim, 3, 3)
        a = rng.normal(size=(7, basis.size)) + 1j * rng.normal(size=(7, basis.size))
        q = sample_haar(group, rng)
        assert np.abs(apply_generalized_d(basis, a, [q])[0]
                      - a @ generalized_d(basis, q)).max() < 1e-12


def _per_node_blocks(basis, q):
    """The working-basis blocks of D(Q) built one node at a time: Wigner
    blocks, Kronecker products and the change of basis blk.u."""
    a, b, g = q.euler_zyz()
    w = [wigner_block(l, a, b, g) for l in range(basis.degree + 1)]
    out = []
    for blk in basis.blocks:
        kron = w[blk.l[0]]
        for li in blk.l[1:]:
            kron = np.kron(kron, w[li])
        out.append(blk.u.conj().T @ kron @ blk.u)
    return out


def _working_blocks(basis, entries):
    """Per l-block, the (T, dim, dim) working-basis blocks of the rotation
    matrices whose irreducible entries are the rows of ``entries``."""
    out = []
    for blk in basis.blocks:
        rows = np.zeros((blk.dim, basis.size))
        rows[np.arange(blk.dim), blk.work_cols] = 1.0
        out.append(_apply_entries(basis, rows, entries)[..., blk.work_cols])
    return out


@pytest.mark.parametrize("n, degrees", [(3, range(7)), (4, [3])])
def test_working_blocks_are_irreducible(n, degrees):
    # u^H kron_p W^{l_p}(Q) u is (+)_L I_mult (x) W^L(Q) on every l-block
    rots = sample_haar_many(SO3, 3, np.random.default_rng(11))
    rots.append(Rotation.from_euler_zyz(0.4, math.pi, 1.3))
    for k in degrees:
        basis = enumerate_basis(2, n, k)
        for q in rots:
            w = [wigner_block(l, *q.euler_zyz()) for l in range(k + 1)]
            for blk, mat in zip(basis.blocks, _per_node_blocks(basis, q)):
                assert len(blk.mults) == sum(blk.l) + 1 and blk.n_inv == blk.mults[0]
                expect = np.zeros((blk.dim, blk.dim), dtype=complex)
                at = 0
                for big_l, mult in enumerate(blk.mults):
                    for _ in range(mult):
                        expect[at:at + 2 * big_l + 1, at:at + 2 * big_l + 1] = w[big_l]
                        at += 2 * big_l + 1
                assert at == blk.dim
                assert np.abs(mat - expect).max() <= 1e-13, (n, k, blk.l)


def test_rotation_blocks_node_batch_matches_per_node():
    rng = np.random.default_rng(9)
    rots = sample_haar_many(SO3, 6, rng) + [Rotation.identity(SO3),
                                            Rotation.from_euler_zyz(0.4, math.pi, 1.3)]
    for k in range(7):
        basis = enumerate_basis(2, 3, k)
        batch = rotation_blocks(basis, rots)
        assert batch.shape == (len(rots), sum((2 * l + 1) ** 2 for l in range(k + 1)))
        for t, q in enumerate(rots):
            ref = np.concatenate([wigner_block(l, *q.euler_zyz()).ravel() for l in range(k + 1)])
            assert np.abs(batch[t] - ref).max() <= 1e-14, (k, t)
            assert np.abs(batch[t] - rotation_blocks(basis, [q])[0]).max() <= 1e-14, (k, t)
    basis = enumerate_basis(1, 3, 3)
    circle = sample_haar_many(SO2, 5, rng)
    phases = rotation_blocks(basis, circle)
    assert phases.shape == (5, 7)
    for t, q in enumerate(circle):
        assert np.abs(phases[t] - np.exp(1j * q.angle * np.arange(-3, 4))).max() <= 1e-14
        assert np.abs(np.diag(generalized_d(basis, q))
                      - np.exp(1j * q.angle * basis.sums)).max() <= 1e-14


def test_wigner_block_broadcasts_over_angles():
    rng = np.random.default_rng(10)
    angles = rng.uniform(0.0, math.pi, size=(3, 4, 3))
    for l in (0, 1, 3, 6):
        batch = wigner_block(l, angles[..., 0], angles[..., 1], angles[..., 2])
        assert batch.shape == (3, 4, 2 * l + 1, 2 * l + 1)
        for i, j in np.ndindex(3, 4):
            single = wigner_block(l, *angles[i, j])
            assert single.shape == (2 * l + 1, 2 * l + 1)
            assert np.abs(batch[i, j] - single).max() <= 1e-14


def test_wigner_little_d_closed_forms():
    # d^1 in closed form; beta = 0 and pi are the identity and the flip
    beta = np.array([0.0, 0.37, math.pi])
    d = wigner_little_d(1, beta)
    for b, mat in zip(beta, d):
        c, s = math.cos(b), math.sin(b)
        ref = np.array([[(1 + c) / 2, s / math.sqrt(2), (1 - c) / 2],
                        [-s / math.sqrt(2), c, s / math.sqrt(2)],
                        [(1 - c) / 2, -s / math.sqrt(2), (1 + c) / 2]])
        assert np.abs(mat - ref).max() < 1e-15
    for l in (2, 5):
        d = wigner_little_d(l, np.array([0.0, math.pi]))
        assert np.abs(d[0] - np.eye(2 * l + 1)).max() < 1e-14
        flip = np.fliplr(np.diag((-1.0) ** (l - np.arange(-l, l + 1))))
        assert np.abs(d[1] - flip).max() < 1e-14
    # composition about one axis: d(0.3) d(0.9) = d(1.2)
    for l in (16, 32):
        d = wigner_little_d(l, np.array([0.3, 0.9, 1.2]))
        assert np.abs(d[0] @ d[1] - d[2]).max() < 1e-12


@settings(max_examples=12, deadline=None)
@given(k=st.integers(0, 4), t=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_rotation_blocks_group_properties(k, t, seed):
    # on a node batch, every block is unitary, fixes its invariant columns and
    # reverses composition: D(Q1 o Q2) = D(Q2) D(Q1)
    basis = enumerate_basis(2, 3, k)
    rng = np.random.default_rng(seed)
    q1 = sample_haar_many(SO3, t, rng)
    q2 = sample_haar_many(SO3, t, rng)
    composed = rotation_blocks(basis, [compose(a, b) for a, b in zip(q1, q2)])
    entries = rotation_blocks(basis, q1)
    assert entries.shape == (t, sum((2 * l + 1) ** 2 for l in range(k + 1)))
    for blk, m1, m2, m12 in zip(basis.blocks, _working_blocks(basis, entries),
                                _working_blocks(basis, rotation_blocks(basis, q2)),
                                _working_blocks(basis, composed)):
        eye = np.eye(blk.dim)
        assert m1.shape == (t, blk.dim, blk.dim)
        assert np.abs(m12 - m2 @ m1).max() < 1e-12
        assert np.abs(np.swapaxes(m1, 1, 2).conj() @ m1 - eye).max() < 1e-12
        if blk.n_inv:
            assert np.abs(m1[:, :, :blk.n_inv] - eye[:, :blk.n_inv]).max() < 1e-12
