"""Spherical harmonic transforms on the Driscoll-Healy equiangular grid.

The grid is 2b x 2b with pole-avoiding colatitudes theta_j = pi(2j+1)/(4b)
and azimuths phi_k = pi k / b.  Forward and inverse transforms are direct
summations (desk scale, correctness over speed); quadrature uses the
closed-form Driscoll-Healy weights, which integrate band-limited functions
exactly.

Signal files use the SPH1 binary format: magic ``SPH1``, then bandwidth b
and channel count as little-endian uint32, then interleaved real/imag
float64 samples in row-major grid order, one channel after another.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .so3 import EulerAngles, spherical_harmonic, wigner_D

_MAGIC = b"SPH1"
_HEADER_BYTES = 12  # magic, then bandwidth and channel count as uint32


@dataclass
class SphericalSignal:
    """Complex samples of n_channels functions on the 2b x 2b grid.

    ``samples`` has shape (n_channels, 2b, 2b); rows are colatitudes,
    columns azimuths.
    """

    bandwidth: int
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim == 2:
            self.samples = self.samples[None]
        n = 2 * self.bandwidth
        if self.samples.shape[-2:] != (n, n):
            raise ValueError(
                f"samples must be (*, {n}, {n}) for bandwidth {self.bandwidth}, "
                f"got {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples.view(float))):
            raise ValueError("samples must be finite")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]


@dataclass
class HarmonicCoefficients:
    """Per-degree coefficient matrices, shape (2l+1, n_channels), m = -l..l."""

    bandlimit: int
    blocks: list

    @property
    def n_channels(self) -> int:
        return self.blocks[0].shape[1]


def grid_angles(b: int):
    """Colatitudes and azimuths of the 2b x 2b Driscoll-Healy grid."""
    j = np.arange(2 * b)
    theta = np.pi * (2 * j + 1) / (4 * b)
    phi = np.pi * j / b
    return theta, phi


def quadrature_weights(b: int) -> np.ndarray:
    """Closed-form Driscoll-Healy colatitude weights for the offset grid.

    Satisfy sum_j w_j P_l(cos theta_j) = 2 delta_{l0} for l < 2b; the full
    sphere quadrature is (pi/b) * sum_{j,k} w_j f(theta_j, phi_k).
    """
    theta, _ = grid_angles(b)
    k = np.arange(b)
    w = np.zeros(2 * b)
    for j in range(2 * b):
        w[j] = (2.0 / b) * np.sin(theta[j]) * np.sum(
            np.sin((2 * k + 1) * theta[j]) / (2 * k + 1)
        )
    return w


def _harmonic_matrix(b: int, L: int) -> np.ndarray:
    """Y_l^m on the grid, shape ((L+1)^2, 2b, 2b); rows ordered (l, m)."""
    theta, phi = grid_angles(b)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    rows = []
    for ell in range(L + 1):
        for m in range(-ell, ell + 1):
            rows.append(spherical_harmonic(ell, m, th, ph))
    return np.stack(rows)


_MATRIX_CACHE: dict = {}


def _cached_harmonics(b: int, L: int) -> np.ndarray:
    key = (b, L)
    if key not in _MATRIX_CACHE:
        _MATRIX_CACHE[key] = _harmonic_matrix(b, L)
    return _MATRIX_CACHE[key]


def _split_blocks(flat: np.ndarray, L: int) -> list:
    blocks, start = [], 0
    for ell in range(L + 1):
        n = 2 * ell + 1
        blocks.append(flat[start:start + n])
        start += n
    return blocks


def forward_sht(signal: SphericalSignal, L: int) -> HarmonicCoefficients:
    """Project a grid signal onto Y_l^m for l <= L.

    Exact (to round-off) for signals band-limited below b.  Requires L < b.
    """
    b = signal.bandwidth
    if L >= b:
        raise ValueError(f"bandlimit L={L} must be below grid bandwidth b={b}")
    y = _cached_harmonics(b, L)
    w = quadrature_weights(b)
    n2 = (2 * b) * (2 * b)
    proj = (np.conj(y) * w[None, :, None]).reshape(-1, n2) * (np.pi / b)
    flat = proj @ signal.samples.reshape(signal.n_channels, n2).T
    return HarmonicCoefficients(L, _split_blocks(flat, L))


def inverse_sht(coeffs: HarmonicCoefficients, b: int) -> SphericalSignal:
    """Synthesize the grid signal sum_{l,m} fhat_l^m Y_l^m(theta_j, phi_k)."""
    L = coeffs.bandlimit
    if L >= b:
        raise ValueError(f"bandlimit L={L} must be below grid bandwidth b={b}")
    y = _cached_harmonics(b, L)
    flat = np.concatenate(coeffs.blocks, axis=0)
    n = 2 * b
    grid = np.tensordot(flat.T, y.reshape(-1, n, n), axes=(1, 0))
    return SphericalSignal(b, grid)


def rotate_coefficients(coeffs: HarmonicCoefficients,
                        rotation: EulerAngles) -> HarmonicCoefficients:
    """Apply the rotation in coefficient space: fhat_l -> D^l(R) fhat_l.

    This is the ground truth for rotating the underlying band-limited
    function.
    """
    blocks = [wigner_D(ell, rotation).matrix @ block
              for ell, block in enumerate(coeffs.blocks)]
    return HarmonicCoefficients(coeffs.bandlimit, blocks)


def grid_energy(signal: SphericalSignal) -> np.ndarray:
    """Quadrature estimate of int |f|^2 dOmega per channel."""
    b = signal.bandwidth
    w = quadrature_weights(b)
    return (np.pi / b) * np.sum(
        w[None, :, None] * np.abs(signal.samples) ** 2, axis=(1, 2)
    )


def write_signal(path, signal: SphericalSignal) -> None:
    """Write a SphericalSignal in the SPH1 binary format."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", signal.bandwidth, signal.n_channels))
        fh.write(signal.samples.astype("<c16").tobytes())


def read_signal(path) -> SphericalSignal:
    """Read a SphericalSignal from a SPH1 file, checking the file size
    against the header before the samples are parsed."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a SPH1 file: bad magic {raw[:4]!r}")
    if len(raw) < _HEADER_BYTES:
        raise ValueError(f"{path}: expected at least {_HEADER_BYTES} bytes "
                         f"for the SPH1 header, found {len(raw)}")
    b, n_ch = struct.unpack_from("<II", raw, 4)
    n = 2 * b
    expected = _HEADER_BYTES + 16 * n_ch * n * n
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes from the SPH1 "
                         f"header (b={b}, {n_ch} channels), found {len(raw)}")
    samples = np.frombuffer(raw, dtype="<c16", offset=_HEADER_BYTES)
    return SphericalSignal(b, samples.reshape(n_ch, n, n).astype(complex))
