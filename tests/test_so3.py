import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgsphere import so3
from cgsphere.config import parse_config
from cgsphere.data import generate_split
from cgsphere.so3 import (
    CapacityError,
    EulerAngles,
    cg_block,
    cg_table,
    legendre,
    random_rotation,
    spherical_harmonic,
    wigner_D,
    wigner_d_small,
)

import oracles
from oracles import (clebsch_gordan_coeff, compose, euler_from_matrix,
                     rotation_matrix)

RNG = np.random.default_rng(20240817)


# --- Wigner little-d ---

def test_wigner_d_degree_zero():
    for beta in (0.0, 0.4, math.pi):
        np.testing.assert_allclose(wigner_d_small(0, beta), [[1.0]],
                                   atol=1e-15)


def test_wigner_d_identity_rotation():
    np.testing.assert_allclose(wigner_d_small(1, 0.0), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(wigner_d_small(4, 0.0), np.eye(9), atol=1e-15)


@pytest.mark.parametrize("ell", [2, 16, 32])
def test_wigner_d_matches_high_precision_sum(ell):
    d = wigner_d_small(ell, math.pi / 3)
    ref = oracles.wigner_d_highprec(ell, math.pi / 3)
    np.testing.assert_allclose(d, ref, atol=1e-12)


@pytest.mark.parametrize("ell", [1, 3, 6, 10, 16, 32, 48, 64])
def test_wigner_d_orthogonal(ell):
    beta = RNG.uniform(0.0, math.pi)
    d = wigner_d_small(ell, beta)
    np.testing.assert_allclose(d.T @ d, np.eye(2 * ell + 1), atol=1e-12)


# Above the degrees the 50-digit oracle reaches in test time, d is checked
# against two identities it does not share code with.
@pytest.mark.parametrize("ell", [3, 48, 64])
def test_wigner_d_angle_addition(ell):
    product = wigner_d_small(ell, 0.7) @ wigner_d_small(ell, 1.9)
    np.testing.assert_allclose(product, wigner_d_small(ell, 2.6), atol=1e-12)


@pytest.mark.parametrize("ell", [3, 48, 64])
def test_wigner_d_zero_column_is_harmonic(ell):
    # d^l_{m'0}(beta) = sqrt(4 pi / (2l+1)) Y_l^{m'}(beta, 0)
    beta = 1.3
    y = [spherical_harmonic(ell, mp, beta, 0.0) for mp in range(-ell, ell + 1)]
    np.testing.assert_allclose(
        wigner_d_small(ell, beta)[:, ell],
        math.sqrt(4.0 * math.pi / (2 * ell + 1)) * np.array(y), atol=1e-12)


def test_wigner_d_endpoints():
    # beta = pi needs no special case
    d = wigner_d_small(3, math.pi)
    ref = oracles.wigner_d_highprec(3, math.pi)
    np.testing.assert_allclose(d, ref, atol=1e-13)


def test_capacity_error():
    with pytest.raises(CapacityError):
        wigner_d_small(65, 0.3)
    with pytest.raises(CapacityError):
        wigner_D(100, EulerAngles(0.1, 0.2, 0.3))
    for l1, l2, l in [(65, 0, 65), (0, 65, 65), (64, 64, 65)]:
        with pytest.raises(CapacityError, match="MAX_DEGREE = 64"):
            cg_block(l1, l2, l)
    with pytest.raises(CapacityError):
        clebsch_gordan_coeff(65, 0, 65, 0, 0, 0)
    # callers that catch ValueError for bad degrees catch this too
    assert issubclass(CapacityError, ValueError)


# --- Wigner D ---

def test_wigner_D_identity():
    d = wigner_D(3, EulerAngles(0.0, 0.0, 0.0))
    np.testing.assert_allclose(d.matrix, np.eye(7), atol=1e-15)


def test_wigner_D_unitary():
    for ell in range(7):
        rot = random_rotation(RNG)
        d = wigner_D(ell, rot).matrix
        np.testing.assert_allclose(d.conj().T @ d, np.eye(2 * ell + 1),
                                   atol=1e-12)


def test_wigner_D_degree_one_similar_to_rotation_matrix():
    # coefficient vectors of the coordinate functions x, y, z, unit norm
    u = np.array([
        [1 / np.sqrt(2), 1j / np.sqrt(2), 0],
        [0, 0, 1],
        [-1 / np.sqrt(2), 1j / np.sqrt(2), 0]])
    for _ in range(10):
        rot = random_rotation(RNG)
        d = wigner_D(1, rot).matrix
        np.testing.assert_allclose(u.conj().T @ d @ u, rotation_matrix(rot),
                                   atol=1e-10)


def test_wigner_D_homomorphism():
    for _ in range(20):
        r1, r2 = random_rotation(RNG), random_rotation(RNG)
        r12 = compose(r1, r2)
        for ell in range(7):
            lhs = wigner_D(ell, r1).matrix @ wigner_D(ell, r2).matrix
            rhs = wigner_D(ell, r12).matrix
            assert np.linalg.norm(lhs - rhs) < 1e-10


# rotations for the stacked form, with both ends of the beta range
STACK_ROTATIONS = (
    [random_rotation(np.random.default_rng(5)) for _ in range(6)]
    + [EulerAngles(0.3, 0.0, 1.7), EulerAngles(2.1, math.pi, 0.4),
       EulerAngles(0.0, 0.0, 0.0)])


@pytest.mark.parametrize("ell", [0, 1, 16, 64])
def test_wigner_D_stack_matches_single_rotations_exactly(ell):
    stack = wigner_D(ell, STACK_ROTATIONS)
    assert stack.ell == ell
    assert stack.matrix.shape == (len(STACK_ROTATIONS), 2 * ell + 1, 2 * ell + 1)
    for r, rot in enumerate(STACK_ROTATIONS):
        assert np.array_equal(stack.matrix[r], wigner_D(ell, rot).matrix)


@pytest.mark.parametrize("ell", [0, 1, 16, 64])
def test_wigner_d_small_broadcasts_over_beta_exactly(ell):
    betas = np.array([r.beta for r in STACK_ROTATIONS])
    stack = wigner_d_small(ell, betas)
    assert stack.shape == (len(betas), 2 * ell + 1, 2 * ell + 1)
    for r, beta in enumerate(betas):
        assert np.array_equal(stack[r], wigner_d_small(ell, float(beta)))


@pytest.mark.parametrize("ell", [0, 1, 16, 64])
def test_wigner_d_small_matches_one_eigh_per_call_exactly(ell):
    so3._jy_eigenvectors.cache_clear()
    betas = np.array([r.beta for r in STACK_ROTATIONS])
    # the first call fills the memo, the later ones read it
    for beta in (0.0, 0.3, math.pi, betas, 0.0):
        got = wigner_d_small(ell, beta)
        assert got.tobytes() == \
            oracles.wigner_d_small_per_call(ell, beta).tobytes()


def test_memoized_eigenbasis_is_read_only_and_results_are_fresh():
    v = so3._jy_eigenvectors(3)
    with pytest.raises(ValueError):
        v[0, 0] = 0.0
    assert so3._jy_eigenvectors.cache_info().maxsize == so3.MAX_DEGREE + 1
    d = wigner_d_small(3, 0.3)
    want = d.copy()
    d[:] = 0.0  # the result is the caller's own array
    assert np.array_equal(wigner_d_small(3, 0.3), want)


def test_rotated_splits_make_one_eigh_per_degree(monkeypatch):
    """Two rotated L=16 splits from an empty memo: one J_y eigh per degree,
    17 in all, not 17 per split."""
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    so3._jy_eigenvectors.cache_clear()
    cfg = parse_config("bandlimit = 16\ngrid_bandwidth = 32\n")
    for seed in (0, 1):
        generate_split(cfg, 1, rotated=True, seed=seed)
    assert len(calls) == 17


def test_wigner_D_stack_capacity_and_shapes():
    with pytest.raises(CapacityError):
        wigner_D(65, STACK_ROTATIONS)
    with pytest.raises(CapacityError):
        wigner_D(65, [])
    with pytest.raises(CapacityError):
        wigner_d_small(65, np.array([0.3, 0.4]))
    assert wigner_D(3, STACK_ROTATIONS[0]).matrix.shape == (7, 7)
    assert wigner_D(3, STACK_ROTATIONS[:1]).matrix.shape == (1, 7, 7)
    assert wigner_d_small(3, 0.3).shape == (7, 7)
    # an empty sequence gives an empty complex stack
    empty = wigner_D(3, [])
    assert empty.matrix.shape == (0, 7, 7)
    assert empty.matrix.dtype == complex
    assert wigner_d_small(3, np.array([])).shape == (0, 7, 7)


def test_euler_round_trip():
    for _ in range(20):
        rot = random_rotation(RNG)
        back = euler_from_matrix(rotation_matrix(rot))
        np.testing.assert_allclose(rotation_matrix(back),
                                   rotation_matrix(rot), atol=1e-12)


def test_euler_round_trip_degenerate():
    for beta in (0.0, math.pi):
        rot = EulerAngles(1.2, beta, 0.0)
        back = euler_from_matrix(rotation_matrix(rot))
        np.testing.assert_allclose(rotation_matrix(back),
                                   rotation_matrix(rot), atol=1e-12)


# --- Clebsch-Gordan ---

def test_cg_trivial_coupling():
    for ell in range(4):
        for m in range(-ell, ell + 1):
            assert clebsch_gordan_coeff(ell, 0, ell, m, 0, m) == pytest.approx(1.0)


def test_cg_selection_rules():
    assert clebsch_gordan_coeff(1, 1, 2, 1, 0, 0) == 0.0
    assert clebsch_gordan_coeff(1, 1, 3, 0, 0, 0) == 0.0


def test_cg_highest_weight():
    assert clebsch_gordan_coeff(1, 1, 2, 1, 1, 2) == pytest.approx(1.0)
    assert clebsch_gordan_coeff(3, 2, 5, 3, 2, 5) == pytest.approx(1.0)


def test_cg_against_intertwiner_oracle():
    rng = np.random.default_rng(5)
    rots = [random_rotation(rng) for _ in range(6)]
    for (l1, l2, l) in [(1, 1, 0), (1, 1, 1), (1, 1, 2), (2, 1, 2), (2, 2, 3)]:
        x = oracles.intertwiner_from_representations(
            [wigner_D(l1, r).matrix for r in rots],
            [wigner_D(l2, r).matrix for r in rots],
            [wigner_D(l, r).matrix for r in rots])
        c = cg_block(l1, l2, l).dense()
        err = min(np.abs(x - c).max(), np.abs(x + c).max())
        assert err < 1e-10


def test_cg_value_from_oracle():
    # <1 1 1 -1 | 0 0> up to the global sign fixed by the convention
    assert abs(clebsch_gordan_coeff(1, 1, 0, 1, -1, 0)) == pytest.approx(
        1.0 / math.sqrt(3.0))
    assert clebsch_gordan_coeff(1, 1, 0, 1, -1, 0) > 0  # Condon-Shortley


def test_cg_block_trivial_pattern():
    block = cg_block(2, 0, 2)
    np.testing.assert_allclose(block.dense(), np.eye(5), atol=1e-14)


def test_cg_block_111():
    block = cg_block(1, 1, 1)
    assert block.dense().shape == (9, 3)
    assert len(block.entries) == 6


def test_cg_block_220():
    block = cg_block(2, 2, 0)
    dense = block.dense()
    assert dense.shape == (25, 1)
    values = [value for _, _, value in block.entries]
    assert len(values) == 5
    np.testing.assert_allclose(np.abs(values), 1.0 / math.sqrt(5.0),
                               atol=1e-14)


def test_cg_block_entries_view_the_matrix():
    block = cg_block(3, 2, 3)
    order = [(m, m1) for (m1, _), m, _ in block.entries]
    assert order == sorted(order)  # m ascending, then m1
    rebuilt = np.zeros_like(block.matrix)
    for (m1, m2), m, value in block.entries:
        rebuilt[(m1 + 3) * 5 + (m2 + 2), m + 3] = value
    np.testing.assert_array_equal(rebuilt, block.matrix)
    assert not block.matrix.flags.writeable
    dense = block.dense()
    dense[0, 0] = 7.0
    assert block.matrix[0, 0] != 7.0


def test_cg_block_invalid_triangle():
    with pytest.raises(ValueError):
        cg_block(1, 1, 3)


def test_cg_block_m_selection():
    for (l1, l2, l) in [(1, 1, 1), (2, 2, 2), (3, 1, 4)]:
        for (m1, m2), m, _ in cg_block(l1, l2, l).entries:
            assert m1 + m2 == m


def test_cg_block_orthonormal_columns():
    for (l1, l2, l) in [(1, 1, 2), (2, 2, 1), (3, 2, 4)]:
        c = cg_block(l1, l2, l).dense()
        np.testing.assert_allclose(c.T @ c, np.eye(2 * l + 1), atol=1e-12)


def test_cg_completeness():
    # stacking all blocks for fixed (l1, l2) gives a square orthogonal matrix
    for (l1, l2) in [(1, 1), (2, 2), (3, 4), (4, 4)]:
        c = np.hstack([cg_block(l1, l2, l).dense()
                       for l in range(abs(l1 - l2), l1 + l2 + 1)])
        assert c.shape[0] == c.shape[1]
        np.testing.assert_allclose(c.T @ c, np.eye(c.shape[0]), atol=1e-12)


# Up to MAX_DEGREE: the 50-digit Racah sum, completeness, orthonormality and
# the intertwiner identity against the Wigner-D verified to the same degree.

@pytest.mark.parametrize("l1, l2, l", [(2, 1, 2), (12, 12, 12), (20, 20, 20),
                                       (32, 32, 31)])
def test_cg_block_matches_high_precision_racah(l1, l2, l):
    np.testing.assert_allclose(cg_block(l1, l2, l).matrix,
                               oracles.cg_block_highprec(l1, l2, l),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("l1, l2, ells", [
    (5, 9, tuple(range(4, 15))),   # the pair's full degree range
    (9, 12, tuple(range(3, 13))),  # capped below l1 + l2
])
def test_cg_table_matches_high_precision_racah(l1, l2, ells):
    table = cg_table(l1, l2, ells)
    M = ells[-1]
    assert table.shape == (2 * M + 1, len(ells), 2 * l1 + 1)
    assert not table.flags.writeable
    # table[m+M, i, m1+l1] against row (m1+l1)(2l2+1) + m-m1+l2 of the block
    m = np.arange(-M, M + 1)[:, None]
    k = np.arange(2 * l1 + 1)
    m2 = m - k + l1
    valid = np.abs(m2) <= l2
    for i, l in enumerate(ells):
        want = np.zeros((2 * M + 1, 2 * l1 + 1))
        ref = oracles.cg_block_highprec(l1, l2, l)
        band = np.abs(m[:, 0]) <= l
        sel = valid & band[:, None]
        rows = (k * (2 * l2 + 1) + m2 + l2)[sel]
        want[sel] = ref[rows, np.broadcast_to(m + l, sel.shape)[sel]]
        np.testing.assert_allclose(table[:, i], want, rtol=0, atol=1e-13)
        assert not table[:, i][~sel].any()


def test_cg_table_rejects_bad_degrees():
    for ells in ((2, 5), (1, 2)):
        with pytest.raises(ValueError, match="triangle"):
            cg_table(1, 3, ells)
    with pytest.raises(ValueError, match="must ascend"):
        cg_table(2, 2, (3, 1))
    with pytest.raises(ValueError, match="must ascend"):
        cg_table(2, 2, ())
    with pytest.raises(CapacityError):
        cg_table(64, 64, (64, 65))


@pytest.mark.parametrize("l1, l2", [(20, 20), (32, 32)])
def test_cg_completeness_high_degree(l1, l2):
    # C^T C = I for the stacked blocks of (l1, l2).  Columns of different m
    # have disjoint supports (checked: every row with m1 + m2 != m is zero),
    # so it is checked as one square Gram matrix per m.
    m_of_row = np.add.outer(np.arange(-l1, l1 + 1), np.arange(-l2, l2 + 1)).ravel()
    rows = {m: np.flatnonzero(m_of_row == m)
            for m in range(-(l1 + l2), l1 + l2 + 1)}
    per_m = {m: [] for m in rows}
    for l in range(abs(l1 - l2), l1 + l2 + 1):
        c = cg_block(l1, l2, l).matrix
        assert not c[m_of_row[:, None] != np.arange(-l, l + 1)].any()
        for m in range(-l, l + 1):
            per_m[m].append(c[rows[m], m + l])
    for m, cols in per_m.items():
        sub = np.array(cols)
        assert sub.shape == (len(rows[m]), len(rows[m]))
        np.testing.assert_allclose(sub @ sub.T, np.eye(len(cols)),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("l1, l2, l", [(64, 64, 64), (64, 0, 64)])
def test_cg_block_orthonormal_at_max_degree(l1, l2, l):
    c = cg_block(l1, l2, l).matrix
    np.testing.assert_allclose(c.T @ c, np.eye(2 * l + 1), rtol=0, atol=1e-13)


def _intertwiner_error(l1, l2, l, rot):
    """||C^T (D1 x D2) C - D||, applying D1 x D2 to each column of C as
    D1 X D2^T on its (2l1+1, 2l2+1) reshape X."""
    c = cg_block(l1, l2, l).matrix
    x = c.T.reshape(2 * l + 1, 2 * l1 + 1, 2 * l2 + 1)
    y = wigner_D(l1, rot).matrix @ x @ wigner_D(l2, rot).matrix.T
    return np.linalg.norm(c.T @ y.reshape(2 * l + 1, -1).T
                          - wigner_D(l, rot).matrix)


# At (32, 64, 32) the largest-m1 entries of some columns, positive by the
# Condon-Shortley convention, are near 1e-19, the smallest in the domain:
# signs read off them would be rounding noise
@pytest.mark.parametrize("l1, l2, l", [(32, 32, 32), (40, 24, 30),
                                       (64, 64, 64), (32, 64, 32)])
def test_intertwiner_identity_high_degree(l1, l2, l):
    rot = random_rotation(np.random.default_rng(10))
    assert _intertwiner_error(l1, l2, l, rot) < 1e-10


def test_intertwiner_identity():
    rng = np.random.default_rng(9)
    for _ in range(3):
        rot = random_rotation(rng)
        for l1 in range(5):
            for l2 in range(5):
                d12 = np.kron(wigner_D(l1, rot).matrix,
                              wigner_D(l2, rot).matrix)
                for l in range(abs(l1 - l2), l1 + l2 + 1):
                    c = cg_block(l1, l2, l).dense()
                    err = np.linalg.norm(
                        c.T @ d12 @ c - wigner_D(l, rot).matrix)
                    assert err < 1e-10, (l1, l2, l)


# --- spherical harmonics ---

def test_harmonic_constant():
    assert spherical_harmonic(0, 0, 0.3, 2.2) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi))


def test_harmonic_degree_one_closed_form():
    theta, phi = 0.9, 1.7
    assert spherical_harmonic(1, 0, theta, phi) == pytest.approx(
        math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(theta))


def test_harmonic_against_high_precision():
    for (ell, m) in [(3, 2), (3, -3), (5, 1), (7, -4)]:
        mine = spherical_harmonic(ell, m, 0.7, 1.1)
        ref = oracles.spherical_harmonic_highprec(ell, m, 0.7, 1.1)
        assert abs(mine - ref) < 1e-12


def test_legendre_against_high_precision_up_to_max_degree():
    # (l, m, theta) where the 50-digit oracle converges quickly; near the
    # poles it does not for large m
    points = [(63, 0, 0.05), (57, 3, 0.05), (33, 7, 0.05),
              (63, 17, 0.4), (63, 32, 0.4), (50, 25, 0.4),
              (63, 1, 1.1), (63, 48, 1.1), (63, 62, 1.1), (63, 63, 1.1),
              (40, 40, 1.1), (64, 64, 1.1), (63, 20, 1.6), (64, 0, 2.3)]
    for ell, m, theta in points:
        mine = legendre(64, theta)[ell, m]
        ref = oracles.spherical_harmonic_highprec(ell, m, theta, 0.0).real
        assert abs(mine - ref) <= 1e-13 * abs(ref), (ell, m, theta)
    # negative m through the harmonic
    mine = spherical_harmonic(63, -48, 1.1, 0.3)
    ref = oracles.spherical_harmonic_highprec(63, -48, 1.1, 0.3)
    assert abs(mine - ref) <= 1e-13 * abs(ref)


def test_harmonic_orthonormality_by_quadrature():
    n = 64
    theta = np.pi * (np.arange(n) + 0.5) / n
    phi = 2.0 * np.pi * np.arange(2 * n) / (2 * n)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    w = np.sin(th) * (np.pi / n) * (np.pi / n)
    y1 = spherical_harmonic(2, 1, th, ph)
    y2 = spherical_harmonic(3, 1, th, ph)
    assert np.sum(w * np.abs(y1) ** 2) == pytest.approx(1.0, abs=1e-6)
    assert abs(np.sum(w * np.conj(y1) * y2)) < 1e-6


# --- Haar sampling ---

def test_random_rotation_deterministic():
    a = random_rotation(np.random.default_rng(123))
    b = random_rotation(np.random.default_rng(123))
    assert a == b


def _degree_one_D(alpha, beta, gamma):
    """Closed-form D^1 for arrays of Euler angles: shape (n, 3, 3), rows and
    columns m = -1, 0, 1."""
    c, s = np.cos(beta), np.sin(beta) / math.sqrt(2.0)
    d = np.array([[(1 + c) / 2, s, (1 - c) / 2],
                  [-s, c, s],
                  [(1 - c) / 2, -s, (1 + c) / 2]]).transpose(2, 0, 1)
    m = np.arange(-1, 2)
    return (np.exp(-1j * np.multiply.outer(alpha, m))[:, :, None] * d
            * np.exp(-1j * np.multiply.outer(gamma, m))[:, None, :])


def _angle_arrays(rotations):
    return np.array([(r.alpha, r.beta, r.gamma) for r in rotations]).T


def test_degree_one_closed_form_matches_wigner_D():
    rots = [random_rotation(np.random.default_rng(seed)) for seed in range(5)]
    rots.append(EulerAngles(0.3, 0.0, 5.0))
    rots.append(EulerAngles(6.0, math.pi, 0.1))
    for rot, d in zip(rots, _degree_one_D(*_angle_arrays(rots))):
        np.testing.assert_allclose(d, wigner_D(1, rot).matrix,
                                   rtol=0, atol=1e-14)


def test_random_rotation_haar_moments():
    rng = np.random.default_rng(77)
    n = 100_000
    angles = _angle_arrays([random_rotation(rng) for _ in range(n)])
    mean = _degree_one_D(*angles).mean(axis=0)
    # each entry has |D| <= 1, so the standard error is at most 1/sqrt(n)
    assert np.abs(mean).max() < 3.0 / math.sqrt(n)


def test_random_rotation_trivial_representation_mean():
    rng = np.random.default_rng(78)
    vals = [wigner_D(0, random_rotation(rng)).matrix[0, 0] for _ in range(100)]
    assert all(v == 1.0 for v in vals)


# --- property tests ---

@given(st.integers(0, 64),
       st.floats(0.0, math.pi, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_wigner_d_orthogonality_property(ell, beta):
    d = wigner_d_small(ell, beta)
    assert np.abs(d.T @ d - np.eye(2 * ell + 1)).max() < 1e-12


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_cg_m_selection_property(l1, l2, data):
    m1 = data.draw(st.integers(-l1, l1))
    m2 = data.draw(st.integers(-l2, l2))
    l = data.draw(st.integers(abs(l1 - l2), l1 + l2))
    m = data.draw(st.integers(-l, l))
    value = clebsch_gordan_coeff(l1, l2, l, m1, m2, m)
    if m1 + m2 != m:
        assert value == 0.0


def test_invalid_beta_rejected():
    with pytest.raises(ValueError):
        EulerAngles(0.0, 4.0, 0.0)
