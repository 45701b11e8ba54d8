"""Spherical harmonic transforms on the Driscoll-Healy equiangular grid.

The grid is 2b x 2b with pole-avoiding colatitudes theta_j = pi(2j+1)/(4b)
and azimuths phi_k = pi k / b.  Both transforms are semi-naive (Driscoll &
Healy 1994; Healy, Rockmore, Kostelec & Moore 2003): an FFT over phi, then
for each order m one matrix of orthonormal Legendre values over theta,
built from ``so3.legendre`` once per (b, L) and kept in a small bounded
memo of read-only arrays, O(L^2 b) floats each.  Quadrature
uses the closed-form Driscoll-Healy weights, which integrate band-limited
functions exactly; the forward transform keeps them, scaled, in a
bounded memo per b.

Signal files use the SPH1 binary format: magic ``SPH1``, then bandwidth b
and channel count as little-endian uint32, then interleaved real/imag
float64 samples in row-major grid order, one channel after another.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .so3 import EulerAngles, legendre, wigner_D

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
    k = 2 * np.arange(b) + 1
    return (2.0 / b) * np.sin(theta) * np.sum(np.sin(np.outer(theta, k)) / k, axis=1)


@lru_cache(maxsize=4)
def _colatitude_factors(b: int, L: int) -> np.ndarray:
    """Read-only real factors q[m + L, l, j] with Y_l^m(theta_j, phi) =
    q[m + L, l, j] e^{i m phi} for |m| <= l <= L, zero for |m| > l: one
    Legendre matrix per m, m = -L..L.  Memoized for the last few grids:
    (2L+1)(L+1)2b floats, 280 KB at b=32, L=16 and 7.9 MB at b=64, L=63."""
    p = legendre(L, grid_angles(b)[0]).transpose(2, 1, 0)  # [m, l, j], m >= 0
    # Y_l^{-m} = (-1)^m conj(Y_l^m)
    sign = (-1.0) ** np.arange(L, 0, -1)
    q = np.concatenate([sign[:, None, None] * p[:0:-1], p])
    q.flags.writeable = False
    return q


@lru_cache(maxsize=4)
def _weight_column(b: int) -> np.ndarray:
    """Read-only (2b, 1) column (pi/b) w_j of ``quadrature_weights(b)``,
    which ``forward_sht`` scales every call's FFT by.  Memoized for the
    last few grids."""
    w = (np.pi / b) * quadrature_weights(b)[:, None]
    w.flags.writeable = False
    return w


def forward_sht(signal: SphericalSignal, L: int) -> HarmonicCoefficients:
    """Project a grid signal onto Y_l^m for l <= L.

    Exact (to round-off) for signals band-limited below b.  Requires L < b.
    """
    b = signal.bandwidth
    if L >= b:
        raise ValueError(f"bandlimit L={L} must be below grid bandwidth b={b}")
    # g[c, j, m] = (pi/b) w_j sum_k f_c(theta_j, phi_k) e^{-i m phi_k}
    g = np.fft.fft(signal.samples, axis=-1)[..., np.arange(-L, L + 1)]
    g *= _weight_column(b)
    g = np.ascontiguousarray(g.transpose(2, 1, 0))
    flat = (_colatitude_factors(b, L) @ g.view(float)).view(complex)  # [m, l, c]
    return HarmonicCoefficients(
        L, [flat[L - ell:L + ell + 1, ell].copy() for ell in range(L + 1)])


def inverse_sht(coeffs: HarmonicCoefficients, b: int) -> SphericalSignal:
    """Synthesize the grid signal sum_{l,m} fhat_l^m Y_l^m(theta_j, phi_k)."""
    L = coeffs.bandlimit
    if L >= b:
        raise ValueError(f"bandlimit L={L} must be below grid bandwidth b={b}")
    flat = np.zeros((2 * L + 1, L + 1, coeffs.n_channels), dtype=complex)
    for ell, block in enumerate(coeffs.blocks):
        flat[L - ell:L + ell + 1, ell] = block
    q = _colatitude_factors(b, L).transpose(0, 2, 1)
    h = (q @ flat.view(float)).view(complex)  # [m, j, c]
    h = h.transpose(2, 1, 0)  # [c, j, m]
    spectrum = np.zeros((coeffs.n_channels, 2 * b, 2 * b), dtype=complex)
    # FFT order: m >= 0 first, then m < 0 at the end
    spectrum[..., :L + 1] = h[..., L:]
    spectrum[..., 2 * b - L:] = h[..., :L]
    return SphericalSignal(b, np.fft.ifft(spectrum, axis=-1, norm="forward"))


def rotate_coefficients(coeffs: HarmonicCoefficients,
                        rotation: EulerAngles) -> HarmonicCoefficients:
    """Apply the rotation in coefficient space: fhat_l -> D^l(R) fhat_l.

    This is the ground truth for rotating the underlying band-limited
    function.
    """
    blocks = [wigner_D(ell, rotation).matrix @ block
              for ell, block in enumerate(coeffs.blocks)]
    return HarmonicCoefficients(coeffs.bandlimit, blocks)


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
