import tracemalloc

import numpy as np
import pytest

from cgsphere import sht
from cgsphere.sht import (
    HarmonicCoefficients,
    SphericalSignal,
    forward_sht,
    grid_angles,
    inverse_sht,
    quadrature_weights,
    read_signal,
    rotate_coefficients,
    write_signal,
)
from cgsphere.so3 import EulerAngles, legendre, random_rotation, spherical_harmonic

import oracles
from oracles import rotation_matrix

RNG = np.random.default_rng(42)


def random_coefficients(L, n_ch=1, rng=RNG):
    blocks = [rng.standard_normal((2 * ell + 1, n_ch))
              + 1j * rng.standard_normal((2 * ell + 1, n_ch))
              for ell in range(L + 1)]
    return HarmonicCoefficients(L, blocks)


def test_quadrature_weights_match_exactness_solve():
    for b in (4, 8, 16):
        np.testing.assert_allclose(quadrature_weights(b),
                                   oracles.quadrature_weights_by_solve(b),
                                   atol=1e-12)


def test_forward_constant_signal():
    b = 8
    sig = SphericalSignal(b, 2.5 * np.ones((1, 2 * b, 2 * b)))
    coeffs = forward_sht(sig, 5)
    assert coeffs.blocks[0][0, 0] == pytest.approx(2.5 * np.sqrt(4 * np.pi))
    assert max(np.abs(blk).max() for blk in coeffs.blocks[1:]) < 1e-12


def test_forward_picks_out_single_harmonic():
    b = 8
    theta, phi = grid_angles(b)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    sig = SphericalSignal(b, spherical_harmonic(2, 1, th, ph)[None])
    coeffs = forward_sht(sig, 5)
    assert coeffs.blocks[2][3, 0] == pytest.approx(1.0, abs=1e-10)
    others = np.concatenate([blk.ravel() for blk in coeffs.blocks])
    others[sum(2 * l + 1 for l in range(2)) + 3] = 0.0
    assert np.abs(others).max() < 1e-10


def test_forward_rejects_aliasing():
    sig = SphericalSignal(4, np.zeros((1, 8, 8)))
    with pytest.raises(ValueError):
        forward_sht(sig, 4)


def test_inverse_zero_and_constant():
    b = 6
    zero = HarmonicCoefficients(2, [np.zeros((2 * l + 1, 1), dtype=complex)
                                    for l in range(3)])
    assert np.abs(inverse_sht(zero, b).samples).max() == 0.0
    const = HarmonicCoefficients(0, [np.full((1, 1), np.sqrt(4 * np.pi),
                                             dtype=complex)])
    np.testing.assert_allclose(inverse_sht(const, b).samples,
                               np.ones((1, 2 * b, 2 * b)), atol=1e-13)


def test_round_trip_inverse_then_forward():
    coeffs = random_coefficients(6, n_ch=2)
    sig = inverse_sht(coeffs, 8)
    back = forward_sht(sig, 6)
    for a, b in zip(coeffs.blocks, back.blocks):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_inverse_spectrum_slices_match_fancy_index_scatter():
    """The two basic-slice writes into the FFT spectrum assign exactly
    what one fancy-index scatter over m = -L..L does: the output is
    bit-identical to that form."""
    from cgsphere import sht

    b, L = 16, 8
    coeffs = random_coefficients(L, n_ch=5)
    flat = np.zeros((2 * L + 1, L + 1, 5), dtype=complex)
    for ell, block in enumerate(coeffs.blocks):
        flat[L - ell:L + ell + 1, ell] = block
    q = sht._colatitude_factors(b, L).transpose(0, 2, 1)
    h = (q @ flat.view(float)).view(complex)
    spectrum = np.zeros((5, 2 * b, 2 * b), dtype=complex)
    spectrum[..., np.arange(-L, L + 1)] = h.transpose(2, 1, 0)
    want = np.fft.ifft(spectrum, axis=-1, norm="forward")
    np.testing.assert_array_equal(inverse_sht(coeffs, b).samples, want)


def test_round_trip_forward_then_inverse_on_bandlimited_grid():
    coeffs = random_coefficients(5)
    sig = inverse_sht(coeffs, 8)
    again = inverse_sht(forward_sht(sig, 5), 8)
    np.testing.assert_allclose(sig.samples, again.samples, atol=1e-10)


def test_parseval():
    coeffs = random_coefficients(6, n_ch=3)
    sig = inverse_sht(coeffs, 8)
    power = sum(np.sum(np.abs(blk) ** 2, axis=0) for blk in coeffs.blocks)
    np.testing.assert_allclose(oracles.grid_energy(sig), power, rtol=1e-8)


def test_rotate_coefficients_identity():
    coeffs = random_coefficients(4)
    rot = rotate_coefficients(coeffs, EulerAngles(0.0, 0.0, 0.0))
    for a, b in zip(coeffs.blocks, rot.blocks):
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_rotate_coefficients_l0_invariant():
    coeffs = random_coefficients(4)
    rot = rotate_coefficients(coeffs, random_rotation(RNG))
    np.testing.assert_allclose(coeffs.blocks[0], rot.blocks[0], atol=1e-14)


def _rotated_grid(coeffs, b, rot):
    """Oracle: evaluate the expansion at inversely-rotated grid points."""
    theta, phi = grid_angles(b)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    xyz = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                    np.cos(th)], axis=-1)
    v = xyz @ rotation_matrix(rot)  # row vectors times R = R^-1 applied
    th2 = np.arccos(np.clip(v[..., 2], -1.0, 1.0))
    ph2 = np.arctan2(v[..., 1], v[..., 0])
    return oracles.synthesize_at(coeffs.blocks, th2, ph2, spherical_harmonic)


def test_transform_equivariance_against_grid_rotation():
    b, L = 8, 5
    coeffs = random_coefficients(L)
    rot = random_rotation(RNG)
    grid = _rotated_grid(coeffs, b, rot)
    from_grid = forward_sht(SphericalSignal(b, grid[None]), L)
    reference = rotate_coefficients(coeffs, rot)
    for a, b_ in zip(from_grid.blocks, reference.blocks):
        np.testing.assert_allclose(a, b_, atol=1e-8)


def _synthesize_points(coeffs, theta, phi):
    """Evaluate a one-channel expansion at points, with Y_l^m taken from
    the Legendre values and Y_l^{-m} = (-1)^m conj(Y_l^m)."""
    p = legendre(coeffs.bandlimit, theta)
    out = np.zeros(theta.shape, dtype=complex)
    for ell, block in enumerate(coeffs.blocks):
        m = np.arange(-ell, ell + 1)
        y = (np.where(m < 0, (-1.0) ** m, 1.0) * p[:, ell, np.abs(m)]
             * np.exp(1j * np.outer(phi, m)))
        out += y @ block[:, 0]
    return out


def test_round_trip_at_high_degree():
    coeffs = random_coefficients(63)
    back = forward_sht(inverse_sht(coeffs, 64), 63)
    for a, b in zip(coeffs.blocks, back.blocks):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_round_trip_at_high_degree_stays_small():
    coeffs = random_coefficients(63)
    sht._colatitude_factors.cache_clear()  # the first call builds and holds it
    tracemalloc.start()
    try:
        forward_sht(inverse_sht(coeffs, 64), 63)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_equivariance_at_high_degree_on_sampled_points():
    b, L = 64, 63
    coeffs = random_coefficients(L)
    rot = random_rotation(RNG)
    j, k = RNG.integers(0, 2 * b, size=(2, 40))
    rotated = inverse_sht(rotate_coefficients(coeffs, rot), b).samples[0, j, k]
    # the unrotated expansion at R^-1 x for each sampled grid point x
    theta, phi = grid_angles(b)
    th, ph = theta[j], phi[k]
    xyz = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                    np.cos(th)], axis=-1)
    v = xyz @ rotation_matrix(rot)
    expected = _synthesize_points(coeffs, np.arccos(np.clip(v[:, 2], -1.0, 1.0)),
                                  np.arctan2(v[:, 1], v[:, 0]))
    np.testing.assert_allclose(rotated, expected, atol=1e-9)


def test_colatitude_memo_is_bounded_and_read_only():
    assert sht._colatitude_factors.cache_info().maxsize == 4
    sht._colatitude_factors.cache_clear()
    q = sht._colatitude_factors(8, 5)
    assert sht._colatitude_factors(8, 5) is q
    with pytest.raises(ValueError):
        q[0, 0, 0] = 1.0
    sht._colatitude_factors.cache_clear()
    assert np.array_equal(sht._colatitude_factors(8, 5), q)


def test_weight_memo_is_bounded_and_read_only():
    assert sht._weight_column.cache_info().maxsize == 4
    sht._weight_column.cache_clear()
    w = sht._weight_column(8)
    assert sht._weight_column(8) is w
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    assert np.array_equal(w, (np.pi / 8) * quadrature_weights(8)[:, None])
    fresh = quadrature_weights(8)
    assert fresh.flags.writeable and quadrature_weights(8) is not fresh


def test_signal_validation():
    with pytest.raises(ValueError):
        SphericalSignal(4, np.zeros((1, 7, 8)))
    with pytest.raises(ValueError):
        SphericalSignal(4, np.full((1, 8, 8), np.nan))


def test_sph1_round_trip(tmp_path):
    coeffs = random_coefficients(4, n_ch=3)
    sig = inverse_sht(coeffs, 6)
    path = tmp_path / "sig.sph"
    write_signal(path, sig)
    back = read_signal(path)
    assert back.bandwidth == 6
    assert back.n_channels == 3
    np.testing.assert_array_equal(back.samples, sig.samples)


def test_sph1_header_layout(tmp_path):
    sig = SphericalSignal(2, np.arange(16).reshape(1, 4, 4) + 0j)
    path = tmp_path / "sig.sph"
    write_signal(path, sig)
    raw = path.read_bytes()
    assert raw[:4] == b"SPH1"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 1
    first = np.frombuffer(raw[12:28], dtype="<f8")
    assert first[0] == 0.0 and first[1] == 0.0  # re, im of sample (0, 0)


def test_sph1_bad_magic(tmp_path):
    path = tmp_path / "bad.sph"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        read_signal(path)


@pytest.mark.parametrize("size", [10, 1003, 1012, 1044])
def test_sph1_size_checked_against_header(tmp_path, size):
    # b = 4, one channel: 12 header bytes + 16 * 8 * 8 payload bytes
    path = tmp_path / "sig.sph"
    write_signal(path, SphericalSignal(4, np.ones((1, 8, 8))))
    raw = path.read_bytes()
    assert len(raw) == 1036
    path.write_bytes((raw + b"\x00" * 8)[:size])
    with pytest.raises(ValueError) as err:
        read_signal(path)
    message = str(err.value)
    assert str(path) in message
    assert str(size) in message
    assert ("1036" if size >= 12 else "12") in message
