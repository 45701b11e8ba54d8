"""Numerics for the rotation group SO(3).

Wigner little-d and big-D matrices, Clebsch-Gordan coefficients, spherical
harmonics and the orthonormal associated Legendre functions under them, and
Haar-distributed rotation sampling.  Everything uses the
Condon-Shortley sign convention and the ZYZ Euler angle convention for
active rotations, so that

    D^l_{m',m}(alpha, beta, gamma) = e^{-i m' alpha} d^l_{m',m}(beta) e^{-i m gamma}

and a function rotated by R has its degree-l harmonic coefficient vector
multiplied by D^l(R).

All functions are pure.  The one thing kept between calls is a bounded
memo of each degree's J_y eigenvectors, a read-only function of the degree
alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Wigner-d, Clebsch-Gordan and the Legendre functions are verified up to
# this degree.
MAX_DEGREE = 64


class CapacityError(ValueError):
    """Requested degree exceeds MAX_DEGREE."""


def _check_degree(ell: int) -> None:
    if ell < 0:
        raise ValueError(f"degree must be non-negative, got {ell}")
    if ell > MAX_DEGREE:
        raise CapacityError(
            f"degree {ell} exceeds MAX_DEGREE = {MAX_DEGREE}, the verified "
            f"bound for Wigner-d, Clebsch-Gordan and the Legendre functions"
        )


@dataclass(frozen=True)
class EulerAngles:
    """ZYZ Euler angles (alpha, beta, gamma) of an active rotation."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)
                and math.isfinite(self.gamma)):
            raise ValueError("Euler angles must be finite")
        if not -1e-12 <= self.beta <= math.pi + 1e-12:
            raise ValueError(f"beta must lie in [0, pi], got {self.beta}")


@dataclass(frozen=True)
class WignerD:
    """Degree-ell irreducible representation matrix, indexed m', m = -ell..ell."""

    ell: int
    matrix: np.ndarray


@dataclass(frozen=True)
class CGBlock:
    """Clebsch-Gordan block C_{l1,l2,l}, a read-only real matrix.

    Row (m1+l1)*(2l2+1) + (m2+l2), column m+l of ``matrix`` holds
    <l1 m1 l2 m2 | l m>, which vanishes unless m1 + m2 = m; the columns are
    orthonormal.  Coefficients of magnitude at most 1e-14 are stored as
    exact zeros.
    """

    ell1: int
    ell2: int
    ell: int
    matrix: np.ndarray

    @property
    def entries(self) -> tuple:
        """The nonzero coefficients as ((m1, m2), m, value), m ascending,
        then m1 ascending."""
        d2 = 2 * self.ell2 + 1
        cols, rows = (a.tolist() for a in np.nonzero(self.matrix.T))
        return tuple(((r // d2 - self.ell1, r % d2 - self.ell2), c - self.ell,
                      float(self.matrix[r, c])) for c, r in zip(cols, rows))

    def dense(self) -> np.ndarray:
        """A writable copy of ``matrix``."""
        return self.matrix.copy()


@lru_cache(maxsize=MAX_DEGREE + 1)
def _jy_eigenvectors(ell: int) -> np.ndarray:
    """Read-only eigenvectors V of the Hermitian tridiagonal J_y of degree
    ell, columns in the ascending eigenvalue order -ell..ell that eigh
    returns.  Memoized: every degree up to MAX_DEGREE fits in 5.6 MB."""
    m = np.arange(-ell, ell + 1)
    # <m|J_y|m+1> = (i/2) sqrt(l(l+1) - m(m+1)); eigh reads only this triangle
    k = m[:-1]
    off = 0.5j * np.sqrt(ell * (ell + 1) - k * (k + 1))
    _, v = np.linalg.eigh(np.diag(off, 1), UPLO="U")
    v.flags.writeable = False
    return v


def wigner_d_small(ell: int, beta: float | np.ndarray) -> np.ndarray:
    """Wigner little-d matrix d^ell(beta) = exp(-i beta J_y), real orthogonal.

    Rows and columns are indexed by m' and m running over -ell..ell.  The
    eigenvalues of the Hermitian tridiagonal J_y are exactly -ell..ell, in
    the ascending order eigh returns; eigenvector phases cancel in V(.)V^H.
    I + V diag(expm1) V^H is exactly the identity at beta = 0.  J_y does not
    depend on beta, so its eigenvectors are computed once per degree and
    process (``_jy_eigenvectors``); an array of R angles gives the
    (R, 2ell+1, 2ell+1) stack, a scalar beta one matrix, always a new
    writable array.
    """
    _check_degree(ell)
    m = np.arange(-ell, ell + 1)
    v = _jy_eigenvectors(ell)
    phase = -1j * beta
    if isinstance(phase, np.ndarray):
        phase = phase[..., None, None]
    d = (v * np.expm1(phase * m)) @ v.conj().T
    return np.eye(2 * ell + 1) + d.real


def wigner_D(ell: int,
             angles: EulerAngles | Sequence[EulerAngles]) -> WignerD:
    """Wigner D-matrix D^ell(alpha, beta, gamma) for an active ZYZ rotation.

    ``angles`` is one EulerAngles, giving the (2ell+1, 2ell+1) matrix, or a
    sequence of R of them, giving the (R, 2ell+1, 2ell+1) stack from the
    degree's one J_y eigenbasis (an empty sequence gives an empty stack).
    """
    if isinstance(angles, EulerAngles):
        alpha, beta, gamma = angles.alpha, angles.beta, angles.gamma
    else:
        rows = np.reshape([(r.alpha, r.beta, r.gamma) for r in angles], (-1, 3))
        alpha, beta, gamma = rows[:, :1], rows[:, 1], rows[:, 2:]
    d = wigner_d_small(ell, beta)
    im = -1j * np.arange(-ell, ell + 1)
    phase_mp = np.exp(im * alpha)
    phase_m = np.exp(im * gamma)
    return WignerD(ell, phase_mp[..., :, None] * d * phase_m[..., None, :])


def clebsch_gordan_coeff(ell1: int, ell2: int, ell: int,
                         m1: int, m2: int, m: int) -> float:
    """Clebsch-Gordan coefficient <l1 m1 l2 m2 | l m>, read from ``cg_table``.

    Returns 0 when the selection rules m1 + m2 = m or the triangle
    inequality fail.
    """
    for l, mm in ((ell1, m1), (ell2, m2), (ell, m)):
        _check_degree(l)
        if abs(mm) > l:
            raise ValueError(f"|m| = {abs(mm)} exceeds degree {l}")
    if m1 + m2 != m or not abs(ell1 - ell2) <= ell <= ell1 + ell2:
        return 0.0
    return float(cg_table(ell1, ell2, (ell,))[m + ell, 0, m1 + ell1])


def cg_table(ell1: int, ell2: int, ells: Sequence[int]) -> np.ndarray:
    """CG coefficients of the pair (l1, l2) for the ascending degrees
    ``ells``: with M = ells[-1], the read-only (2M+1, #ells, 2l1+1) array
    ``table[m+M, i, m1+l1]`` = <l1 m1, l2 m-m1 | ells[i] m>, zero where
    |m - m1| > l2 or ells[i] < |m|, and exactly zero at magnitude <= 1e-14.

    For each m, one eigh of the real symmetric tridiagonal J^2 on the states
    |m1, m-m1> gives column m of every degree: its eigenvalues are exactly
    l(l+1), l = max(|m|, |l1-l2|)..l1+l2, in eigh's ascending order.  The
    Condon-Shortley signs are read off large entries only: J+ kills the
    m = l column, so its entry m1 has the sign (-1)^(l1-m1), and each lower
    column overlaps J- of the one above positively.
    """
    for l in (ell1, ell2, *ells):
        _check_degree(l)
    ells, lo = np.asarray(ells, dtype=int), abs(ell1 - ell2)
    if not (ells.size and lo <= ells[0] and ells[-1] <= ell1 + ell2
            and np.all(np.diff(ells) > 0)):
        raise ValueError(f"degrees {ells.tolist()} must ascend within the "
                         f"triangle range {lo}..{ell1 + ell2} of ({ell1}, {ell2})")
    M, n, d1 = int(ells[-1]), ells.size, 2 * ell1 + 1
    c1, c2 = ell1 * (ell1 + 1), ell2 * (ell2 + 1)
    x = np.zeros((2 * M + 1, n, d1))
    for m in range(-M, M + 1):
        m1 = np.arange(max(-ell1, m - ell2), min(ell1, m + ell2) + 1)
        m2 = m - m1
        # <m1+1, m2-1| J1+ J2- |m1, m2>; eigh reads only this lower triangle
        off = (np.sqrt(c1 - m1[:-1] * (m1[:-1] + 1))
               * np.sqrt(c2 - m2[:-1] * (m2[:-1] - 1)))
        _, v = np.linalg.eigh(np.diag(c1 + c2 + 2.0 * m1 * m2) + np.diag(off, -1))
        i = np.flatnonzero(ells >= abs(m))
        x[m + M][np.ix_(i, m1 + ell1)] = v[:, ells[i] - max(abs(m), lo)].T

    # J- of column m at (m1, m-1-m1) reads (m1+1, m-1-m1) and (m1, m-m1);
    # m2 runs past +-l2 where x is 0, so its factor is clipped to stay real
    k1 = np.arange(-ell1, ell1 + 1)
    m2 = np.arange(-M, M)[:, None] - k1
    lowered = np.sqrt(np.maximum(c2 - m2 * (m2 + 1), 0))[:, None] * x[1:]
    lowered[..., :-1] += np.sqrt(c1 - k1[:-1] * (k1[:-1] + 1)) * x[1:, :, 1:]
    overlap = np.einsum("jik,jik->ji", lowered, x[:-1])
    signs = np.ones((2 * M + 1, n))
    signs[:-1] = np.sign(overlap) + (overlap == 0)  # 1 off a degree's band
    top, i = M + ells, np.arange(n)
    peak = np.argmax(np.abs(x[top, i]), axis=1)
    signs[top, i] = np.sign((-1.0) ** peak * x[top, i, peak])
    x *= np.cumprod(signs[::-1], axis=0)[::-1, :, None]
    x[np.abs(x) <= 1e-14] = 0.0
    x.flags.writeable = False
    return x


def cg_block(ell1: int, ell2: int, ell: int) -> CGBlock:
    """CG block C_{l1,l2,l}: ``cg_table(l1, l2, (l,))`` as a dense matrix."""
    table = cg_table(ell1, ell2, (ell,))[:, 0]
    j, k = np.nonzero(table)
    mat = np.zeros(((2 * ell1 + 1) * (2 * ell2 + 1), 2 * ell + 1))
    mat[k * (2 * ell2 + 1) + j - ell - k + ell1 + ell2, j] = table[j, k]
    mat.flags.writeable = False
    return CGBlock(ell1, ell2, ell, mat)


def legendre(L: int, theta) -> np.ndarray:
    """Orthonormal associated Legendre values with the Condon-Shortley phase.

    ``out[..., l, m]`` for 0 <= m <= l <= L, zero for m > l, with the shape
    of ``theta`` in front, so that Y_l^m(theta, phi) = out[..., l, m]
    e^{i m phi} for m >= 0.  All m run at once through the three-term
    recurrence in l on the normalized functions, started from the diagonal
    P_m^m = (-1)^m sqrt((2m+1)!! / (4 pi (2m)!!)) sin^m(theta); no
    factorial is formed, so nothing overflows up to MAX_DEGREE.
    """
    _check_degree(L)
    theta = np.asarray(theta, dtype=float)
    x, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
    m = np.arange(L + 1)
    diag = np.cumprod(np.append(1.0 / math.sqrt(4.0 * math.pi),
                                -np.sqrt(1.0 + 0.5 / m[1:])))
    p = np.zeros(theta.shape + (L + 1, L + 1))
    p[..., m, m] = diag * s ** m
    for l in range(1, L + 1):
        k = m[:l]
        a = np.sqrt((4 * l * l - 1) / (l * l - k * k))
        p[..., l, :l] = a * x * p[..., l - 1, :l]
        if l > 1:  # at l = 1 only m = l - 1 runs, where this term vanishes
            b = np.sqrt((2 * l + 1) * ((l - 1) ** 2 - k * k)
                        / ((2 * l - 3) * (l * l - k * k)))
            p[..., l, :l] -= b * p[..., l - 2, :l]
    return p


def spherical_harmonic(ell: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_l^m(theta, phi), Condon-Shortley phase.

    ``theta`` is the colatitude in [0, pi]; ``phi`` the azimuth.  Accepts
    scalars or arrays (broadcast together).
    """
    _check_degree(ell)
    if abs(m) > ell:
        raise ValueError(f"|m| = {abs(m)} exceeds degree {ell}")
    ma = abs(m)
    phi = np.asarray(phi, dtype=float)
    y = legendre(ell, theta)[..., ell, ma] * np.exp(1j * ma * phi)
    if m < 0:
        y = (-1.0) ** ma * np.conj(y)
    return y[()] if y.ndim == 0 else y


def random_rotation(rng: np.random.Generator) -> EulerAngles:
    """Haar-distributed rotation: alpha, gamma uniform, cos(beta) uniform."""
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    gamma = rng.uniform(0.0, 2.0 * math.pi)
    beta = math.acos(rng.uniform(-1.0, 1.0))
    return EulerAngles(alpha, beta, gamma)

