"""Numerics for the rotation group SO(3).

Wigner little-d and big-D matrices, Clebsch-Gordan coefficients, spherical
harmonics and Haar-distributed rotation sampling.  Everything uses the
Condon-Shortley sign convention and the ZYZ Euler angle convention for
active rotations, so that

    D^l_{m',m}(alpha, beta, gamma) = e^{-i m' alpha} d^l_{m',m}(beta) e^{-i m gamma}

and a function rotated by R has its degree-l harmonic coefficient vector
multiplied by D^l(R).

All functions are pure; the only precomputed state is an immutable
log-factorial table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Wigner-d is verified up to this degree; for Racah's CG formula it bounds the
# log-factorial table, which holds up to (4*MAX_DEGREE + 2)!.
MAX_DEGREE = 64

_LOG_FACT = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 4 * MAX_DEGREE + 3)))))


class CapacityError(Exception):
    """Requested degree exceeds MAX_DEGREE."""


def _log_fact(n: int) -> float:
    return _LOG_FACT[n]


def _check_degree(ell: int) -> None:
    if ell < 0:
        raise ValueError(f"degree must be non-negative, got {ell}")
    if ell > MAX_DEGREE:
        raise CapacityError(
            f"degree {ell} exceeds MAX_DEGREE = {MAX_DEGREE}, the verified "
            f"bound for Wigner-d and the factorial-table bound for CG"
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
    """Sparse Clebsch-Gordan block C_{l1,l2,l}.

    ``entries`` is a list of ((m1, m2), m, value) with every stored triple
    satisfying m1 + m2 = m.  The dense (2l1+1)(2l2+1) x (2l+1) matrix
    assembled from the entries has orthonormal columns.
    """

    ell1: int
    ell2: int
    ell: int
    entries: tuple

    def dense(self) -> np.ndarray:
        """Assemble the dense block; row index is (m1+l1)*(2*l2+1) + (m2+l2)."""
        mat = np.zeros(((2 * self.ell1 + 1) * (2 * self.ell2 + 1), 2 * self.ell + 1))
        for (m1, m2), m, value in self.entries:
            row = (m1 + self.ell1) * (2 * self.ell2 + 1) + (m2 + self.ell2)
            mat[row, m + self.ell] = value
        return mat


def wigner_d_small(ell: int, beta: float) -> np.ndarray:
    """Wigner little-d matrix d^ell(beta) = exp(-i beta J_y), real orthogonal.

    Rows and columns are indexed by m' and m running over -ell..ell.  The
    eigenvalues of the Hermitian tridiagonal J_y are exactly -ell..ell, in
    the ascending order eigh returns; eigenvector phases cancel in V(.)V^H.
    I + V diag(expm1) V^H is exactly the identity at beta = 0.
    """
    _check_degree(ell)
    m = np.arange(-ell, ell + 1)
    # <m|J_y|m+1> = (i/2) sqrt(l(l+1) - m(m+1)); eigh reads only this triangle
    off = 0.5j * np.sqrt(ell * (ell + 1) - m[:-1] * (m[:-1] + 1))
    _, v = np.linalg.eigh(np.diag(off, 1), UPLO="U")
    d = (v * np.expm1(-1j * beta * m)) @ v.conj().T
    return np.eye(2 * ell + 1) + d.real


def wigner_D(ell: int, angles: EulerAngles) -> WignerD:
    """Wigner D-matrix D^ell(alpha, beta, gamma) for an active ZYZ rotation."""
    d = wigner_d_small(ell, angles.beta)
    m = np.arange(-ell, ell + 1)
    phase_mp = np.exp(-1j * m * angles.alpha)
    phase_m = np.exp(-1j * m * angles.gamma)
    return WignerD(ell, phase_mp[:, None] * d * phase_m[None, :])


def clebsch_gordan_coeff(ell1: int, ell2: int, ell: int,
                         m1: int, m2: int, m: int) -> float:
    """Clebsch-Gordan coefficient <l1 m1 l2 m2 | l m> (Racah's formula).

    Returns 0 when the selection rules m1 + m2 = m or the triangle
    inequality fail.
    """
    for l, mm in ((ell1, m1), (ell2, m2), (ell, m)):
        _check_degree(l)
        if abs(mm) > l:
            raise ValueError(f"|m| = {abs(mm)} exceeds degree {l}")
    if m1 + m2 != m:
        return 0.0
    if ell < abs(ell1 - ell2) or ell > ell1 + ell2:
        return 0.0

    log_pref = 0.5 * (
        math.log(2 * ell + 1)
        + _log_fact(ell1 + ell2 - ell) + _log_fact(ell1 - ell2 + ell)
        + _log_fact(-ell1 + ell2 + ell) - _log_fact(ell1 + ell2 + ell + 1)
        + _log_fact(ell + m) + _log_fact(ell - m)
        + _log_fact(ell1 + m1) + _log_fact(ell1 - m1)
        + _log_fact(ell2 + m2) + _log_fact(ell2 - m2)
    )
    k_min = max(0, ell2 - ell - m1, ell1 - ell + m2)
    k_max = min(ell1 + ell2 - ell, ell1 - m1, ell2 + m2)
    total = 0.0
    for k in range(k_min, k_max + 1):
        log_den = (_log_fact(k) + _log_fact(ell1 + ell2 - ell - k)
                   + _log_fact(ell1 - m1 - k) + _log_fact(ell2 + m2 - k)
                   + _log_fact(ell - ell2 + m1 + k) + _log_fact(ell - ell1 - m2 + k))
        total += (-1.0) ** k * math.exp(log_pref - log_den)
    return total


def cg_block(ell1: int, ell2: int, ell: int) -> CGBlock:
    """Sparse CG block C_{l1,l2,l}; only entries with m1 + m2 = m are stored."""
    if ell < abs(ell1 - ell2) or ell > ell1 + ell2:
        raise ValueError(
            f"(l1, l2, l) = ({ell1}, {ell2}, {ell}) violates the triangle inequality"
        )
    entries = []
    for m in range(-ell, ell + 1):
        for m1 in range(max(-ell1, m - ell2), min(ell1, m + ell2) + 1):
            m2 = m - m1
            value = clebsch_gordan_coeff(ell1, ell2, ell, m1, m2, m)
            if abs(value) > 1e-14:
                entries.append(((m1, m2), m, value))
    return CGBlock(ell1, ell2, ell, tuple(entries))


def _legendre_column(ell_max: int, m: int, x: np.ndarray) -> np.ndarray:
    """Associated Legendre P_l^m(x) for l = m..ell_max, with Condon-Shortley phase.

    Returns array of shape (ell_max - m + 1,) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    # P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}
    pmm = np.full(x.shape, (-1.0) ** m)
    for i in range(1, m + 1):
        pmm = pmm * (2 * i - 1) * s
    out = [pmm]
    if ell_max > m:
        out.append(x * (2 * m + 1) * pmm)
        for l in range(m + 2, ell_max + 1):
            nxt = ((2 * l - 1) * x * out[-1] - (l + m - 1) * out[-2]) / (l - m)
            out.append(nxt)
    return np.stack(out)


def spherical_harmonic(ell: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_l^m(theta, phi), Condon-Shortley phase.

    ``theta`` is the colatitude in [0, pi]; ``phi`` the azimuth.  Accepts
    scalars or arrays (broadcast together).
    """
    _check_degree(ell)
    if abs(m) > ell:
        raise ValueError(f"|m| = {abs(m)} exceeds degree {ell}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ma = abs(m)
    p = _legendre_column(ell, ma, np.cos(theta))[ell - ma]
    log_norm = 0.5 * (math.log((2 * ell + 1) / (4.0 * math.pi))
                      + _log_fact(ell - ma) - _log_fact(ell + ma))
    y = math.exp(log_norm) * p * np.exp(1j * ma * phi)
    if m < 0:
        y = (-1.0) ** ma * np.conj(y)
    out = y[()] if y.ndim == 0 else y
    return out


def random_rotation(rng: np.random.Generator) -> EulerAngles:
    """Haar-distributed rotation: alpha, gamma uniform, cos(beta) uniform."""
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    gamma = rng.uniform(0.0, 2.0 * math.pi)
    beta = math.acos(rng.uniform(-1.0, 1.0))
    return EulerAngles(alpha, beta, gamma)


# --- 3x3 rotation matrix helpers (composition and test oracles) ---

def rotation_matrix(angles: EulerAngles) -> np.ndarray:
    """3x3 active rotation matrix Rz(alpha) Ry(beta) Rz(gamma)."""
    ca, sa = math.cos(angles.alpha), math.sin(angles.alpha)
    cb, sb = math.cos(angles.beta), math.sin(angles.beta)
    cg, sg = math.cos(angles.gamma), math.sin(angles.gamma)
    rz_a = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry_b = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rz_g = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    return rz_a @ ry_b @ rz_g


def euler_from_matrix(r: np.ndarray) -> EulerAngles:
    """ZYZ Euler angles of a rotation matrix; gamma = 0 at the gimbal poles."""
    beta = math.acos(min(1.0, max(-1.0, r[2, 2])))
    if math.sin(beta) > 1e-10:
        alpha = math.atan2(r[1, 2], r[0, 2])
        gamma = math.atan2(r[2, 1], -r[2, 0])
    elif r[2, 2] > 0.0:
        alpha = math.atan2(r[1, 0], r[0, 0])
        gamma = 0.0
    else:
        alpha = math.atan2(-r[1, 0], -r[0, 0])
        gamma = 0.0
    return EulerAngles(alpha % (2.0 * math.pi), beta, gamma % (2.0 * math.pi))


def compose(r1: EulerAngles, r2: EulerAngles) -> EulerAngles:
    """Euler angles of the composition r1 after r2 (matrix product R1 R2)."""
    return euler_from_matrix(rotation_matrix(r1) @ rotation_matrix(r2))
