"""Independent reference computations used by the test suite.

Everything here is deliberately implemented without reusing the package's
production code paths: extended-precision brute force via mpmath, direct
dense linear algebra, and least-squares intertwiner recovery.  The
exceptions are composition references built from the package's own
stages: ``generate_split_per_example``, the per-example loop that the
batched ``data.generate_split`` must reproduce byte for byte;
``class_templates_per_block`` and ``wigner_d_small_per_call``, the
one-draw-per-block templates and the one-eigh-per-call little-d that
``data.class_templates`` and ``so3.wigner_d_small`` must reproduce byte
for byte;
``cg_nonlinearity_gather`` and ``backward_cg_gather``, the CG kernel and
its adjoint with a row gather per pair, read from the same ``CGPlan``,
which the strided-view kernels must reproduce byte for byte (the adjoint
to rounding at B=1); ``clebsch_gordan_coeff``, one coefficient read from
``so3.cg_table``;
``loss_and_grad_unfused``, the training step with a normalized copy of
every CG output and its wide cotangent; and ``audit_two_forwards``, the
audit with one forward pass per input.
"""

import math

import mpmath as mp
import numpy as np

from cgsphere import network
from cgsphere.data import Dataset, class_templates
from cgsphere.gradients import HeadWeights, NetworkWeights, backward_linear
from cgsphere.network import (CovariantActivation, backward_cg,
                              cg_nonlinearity, cg_output_type,
                              covariant_linear, covariant_normalize,
                              invariant_features, layer_out_ell_max,
                              network_forward)
from cgsphere.sht import HarmonicCoefficients, inverse_sht
from cgsphere.so3 import (EulerAngles, cg_table, random_rotation,
                          wigner_D)

mp.mp.dps = 50


def wigner_d_highprec(ell, beta):
    """Little-d matrix by direct evaluation of the factorial sum in 50-digit
    arithmetic."""
    beta = mp.mpf(beta)
    c, s = mp.cos(beta / 2), mp.sin(beta / 2)
    n = 2 * ell + 1
    out = np.zeros((n, n))
    for mp_idx, mprime in enumerate(range(-ell, ell + 1)):
        for m_idx, m in enumerate(range(-ell, ell + 1)):
            pref = mp.sqrt(mp.factorial(ell + mprime) * mp.factorial(ell - mprime)
                           * mp.factorial(ell + m) * mp.factorial(ell - m))
            total = mp.mpf(0)
            for k in range(max(0, m - mprime), min(ell + m, ell - mprime) + 1):
                den = (mp.factorial(ell + m - k) * mp.factorial(k)
                       * mp.factorial(ell - mprime - k)
                       * mp.factorial(mprime - m + k))
                total += ((-1) ** (k + mprime - m) / den
                          * c ** (2 * ell + m - mprime - 2 * k)
                          * s ** (mprime - m + 2 * k))
            out[mp_idx, m_idx] = float(pref * total)
    return out


def wigner_d_small_per_call(ell, beta):
    """``so3.wigner_d_small`` with its own eigh of J_y on every call."""
    m = np.arange(-ell, ell + 1)
    k = m[:-1]
    off = 0.5j * np.sqrt(ell * (ell + 1) - k * (k + 1))
    _, v = np.linalg.eigh(np.diag(off, 1), UPLO="U")
    phase = -1j * beta
    if isinstance(phase, np.ndarray):
        phase = phase[..., None, None]
    d = (v * np.expm1(phase * m)) @ v.conj().T
    return np.eye(2 * ell + 1) + d.real


def cg_block_highprec(l1, l2, l):
    """Dense Clebsch-Gordan block C_{l1,l2,l} (row (m1+l1)(2l2+1) + m2+l2,
    column m+l) by Racah's alternating factorial sum in 50-digit
    arithmetic."""
    f = [mp.factorial(n) for n in range(l1 + l2 + l + 2)]
    d2 = 2 * l2 + 1
    out = np.zeros(((2 * l1 + 1) * d2, 2 * l + 1))
    tri = (2 * l + 1) * f[l1 + l2 - l] * f[l1 - l2 + l] * f[-l1 + l2 + l] \
        / f[l1 + l2 + l + 1]
    for m in range(-l, l + 1):
        for m1 in range(max(-l1, m - l2), min(l1, m + l2) + 1):
            m2 = m - m1
            pref = mp.sqrt(tri * f[l + m] * f[l - m] * f[l1 + m1] * f[l1 - m1]
                           * f[l2 + m2] * f[l2 - m2])
            total = mp.mpf(0)
            for k in range(max(0, l2 - l - m1, l1 - l + m2),
                           min(l1 + l2 - l, l1 - m1, l2 + m2) + 1):
                total += (-1) ** k / (f[k] * f[l1 + l2 - l - k] * f[l1 - m1 - k]
                                      * f[l2 + m2 - k] * f[l - l2 + m1 + k]
                                      * f[l - l1 - m2 + k])
            out[(m1 + l1) * d2 + m2 + l2, m + l] = float(pref * total)
    return out


def clebsch_gordan_coeff(ell1, ell2, ell, m1, m2, m):
    """Clebsch-Gordan coefficient <l1 m1 l2 m2 | l m>, read from the whole
    ``so3.cg_table`` of (l1, l2, l).

    Returns 0 when the selection rules m1 + m2 = m or the triangle
    inequality fail; ``cg_table`` rejects degrees above ``MAX_DEGREE``.
    """
    for l, mm in ((ell1, m1), (ell2, m2), (ell, m)):
        if abs(mm) > l:
            raise ValueError(f"|m| = {abs(mm)} exceeds degree {l}")
    if m1 + m2 != m or not abs(ell1 - ell2) <= ell <= ell1 + ell2:
        return 0.0
    return float(cg_table(ell1, ell2, (ell,))[m + ell, 0, m1 + ell1])


def spherical_harmonic_highprec(ell, m, theta, phi):
    """Y_l^m via mpmath's Legendre functions (Condon-Shortley, orthonormal)."""
    theta, phi = mp.mpf(theta), mp.mpf(phi)
    ma = abs(m)
    # mp.legenp includes the Condon-Shortley phase for type 2 on (-1, 1)
    p = mp.legenp(ell, ma, mp.cos(theta), type=2)
    norm = mp.sqrt((2 * ell + 1) / (4 * mp.pi)
                   * mp.factorial(ell - ma) / mp.factorial(ell + ma))
    val = norm * p * mp.e ** (1j * ma * phi)
    if m < 0:
        val = (-1) ** ma * mp.conj(val)
    return complex(val)


def intertwiner_from_representations(d_blocks_1, d_blocks_2, d_blocks_out):
    """Recover the (unique up to sign) real intertwiner X with
    (D1 x D2) X = X Dout from sampled representation matrices.

    ``d_blocks_*`` are lists of matrices for the same sampled rotations.
    The intertwiner space is one-dimensional because every output degree
    appears exactly once in the product, so the nullspace of the stacked
    commutation constraints pins X up to a complex scalar.  Returns X with
    unit columns; the global sign is arbitrary.
    """
    dim_in = d_blocks_1[0].shape[0] * d_blocks_2[0].shape[0]
    dim_out = d_blocks_out[0].shape[0]
    rows = []
    for d1, d2, dout in zip(d_blocks_1, d_blocks_2, d_blocks_out):
        kron = np.kron(d1, d2)
        # K X - X Dout = 0 on the row-major vec of X (dim_in, dim_out)
        rows.append(np.kron(kron, np.eye(dim_out))
                    - np.kron(np.eye(dim_in), dout.T))
    _, _, vh = np.linalg.svd(np.vstack(rows))
    x = vh[-1].conj().reshape(dim_in, dim_out)
    # rotate the global complex phase so the matrix is real
    idx = np.unravel_index(np.argmax(np.abs(x)), x.shape)
    x = (x * (abs(x[idx]) / x[idx])).real
    x /= np.linalg.norm(x[:, 0])
    return x


def dense_cg_transform(fragments, pairs, out_blocks, out_ell_max):
    """Dense Kronecker-product + projection reference for the nonlinearity.

    ``fragments`` is a list of (B, 2l+1, tau_l) arrays; ``out_blocks`` maps
    (l1, l2, l) to the dense CG matrix.  Returns per-degree concatenations
    in the same pair-major order as the production code.
    """
    L = len(fragments) - 1
    B = fragments[0].shape[0]
    out = [[] for _ in range(L + 1)]
    for l1, l2 in pairs:
        f1, f2 = fragments[l1], fragments[l2]
        if f1.shape[2] == 0 or f2.shape[2] == 0:
            continue
        kron = np.stack([np.kron(f1[b], f2[b]) for b in range(B)])
        for l in range(abs(l1 - l2), min(l1 + l2, out_ell_max) + 1):
            c = out_blocks[(l1, l2, l)]
            out[l].append(np.einsum("rm,brt->bmt", c, kron))
    return [
        np.concatenate(blocks, axis=2) if blocks
        else np.zeros((B, 2 * ell + 1, 0), dtype=complex)
        for ell, blocks in enumerate(out)
    ]


def _gathered_rows(l1, l2, M):
    """rows[m + M, m1 + l1] = m - m1 + l2, clipped into degree l2's rows
    where no m2 is valid (the CG table is zero there)."""
    return np.clip(np.arange(-M, M + 1)[:, None] - np.arange(2 * l1 + 1)
                   + l1 + l2, 0, 2 * l2)


def cg_nonlinearity_gather(F, out_ell_max=None):
    """``network.cg_nonlinearity`` with one row gather (``take``) of the l2
    factor per pair and a broadcast Kronecker product, as the kernel did
    before it read the rows through one strided view."""
    plan = network._cg_plan(F.type, out_ell_max)
    B = F.batch_size
    G = F.m_major
    out = [np.empty((2 * ell + 1, B, w), dtype=complex)
           for ell, w in enumerate(plan.out_type.tau)]
    kron_ws, y_ws = plan.workspaces(B)
    for p, table in zip(plan.pairs, plan.tables):
        l1, l2, M, n, d1 = p.l1, p.l2, p.M, p.n, 2 * p.l1 + 1
        t1, t2 = G[l1].shape[2], G[l2].shape[2]
        rows = _gathered_rows(l1, l2, M)
        np.multiply(G[l1][..., None], G[l2].take(rows, axis=0)[..., None, :],
                    out=np.ndarray((2 * M + 1, d1, B, t1, t2), complex,
                                   kron_ws))
        np.matmul(table, np.ndarray((2 * M + 1, d1, 2 * B * n), float, kron_ws),
                  out=np.ndarray((2 * M + 1, len(p.ells), 2 * B * n), float,
                                 y_ws))
        y = np.ndarray((2 * M + 1, len(p.ells), B, n), complex, y_ws)
        for i, (l, c) in enumerate(zip(p.ells, p.starts)):
            out[l][:, :, c:c + n] = y[M - l:M + l + 1, i]
    return CovariantActivation.from_m_major(F.bandlimit, out)


def backward_cg_gather(G_bar, F, mixes, out_ell_max=None):
    """``network.backward_cg`` with an m-major cotangent workspace filled
    by one batched matmul per (pair, degree) over m, and one row gather of
    the conjugate l2 factor per pair, as the adjoint did before it read
    the rows through one strided view."""
    B = F.batch_size
    G = F.m_major
    Gb = [np.ascontiguousarray(a.transpose(1, 0, 2)) for a in G_bar]
    plan = network._cg_plan(F.type, out_ell_max)
    F_bar = [np.zeros_like(g) for g in G]
    k_ws, y_ws = plan.workspaces(B)
    for p, table in zip(plan.pairs, plan.tables):
        l1, l2, M, n, d1 = p.l1, p.l2, p.M, p.n, 2 * p.l1 + 1
        t1, t2 = G[l1].shape[2], G[l2].shape[2]
        y_bar = np.ndarray((2 * M + 1, len(p.ells), B, n), complex, y_ws)
        for i, (l, c) in enumerate(zip(p.ells, p.starts)):
            y_bar[:M - l, i] = 0.0
            np.matmul(Gb[l], mixes[l][c:c + n].conj().T,
                      out=y_bar[M - l:M + l + 1, i])
            y_bar[M + l + 1:, i] = 0.0
        np.matmul(table.transpose(0, 2, 1),
                  np.ndarray((2 * M + 1, len(p.ells), 2 * B * n), float, y_ws),
                  out=np.ndarray((2 * M + 1, d1, 2 * B * n), float, k_ws))
        k_bar = np.ndarray((2 * M + 1, d1, B, t1, t2), complex, k_ws)
        G2 = G[l2].take(_gathered_rows(l1, l2, M), axis=0).conj()
        F_bar[l1] += (k_bar @ G2[..., None]).sum(axis=0)[..., 0]
        g2_bar = (G[l1].conj()[:, :, None, :] @ k_bar)[..., 0, :]
        c = l1 + l2 - M  # rows[j, k] = j - k + c: one run of rows per k
        for k in range(d1):
            lo, hi = max(0, k - c), min(2 * M + 1, k - c + 2 * l2 + 1)
            F_bar[l2][lo - k + c:hi - k + c] += g2_bar[lo:hi, k]
    return [f.transpose(1, 0, 2) for f in F_bar]


def synthesize_at(coeff_blocks, theta, phi, harmonic):
    """Evaluate a band-limited expansion at arbitrary points.

    ``harmonic(l, m, theta, phi)`` supplies the basis; used to build the
    grid-rotation oracle without the package's transform code.
    """
    out = np.zeros(np.shape(theta), dtype=complex)
    for ell, block in enumerate(coeff_blocks):
        for m in range(-ell, ell + 1):
            out = out + block[m + ell, 0] * harmonic(ell, m, theta, phi)
    return out


def quadrature_weights_by_solve(b):
    """Driscoll-Healy colatitude weights from the exactness conditions
    sum_j w_j P_l(cos theta_j) = 2 delta_{l0}, l < 2b (independent of the
    closed form)."""
    theta = np.pi * (2 * np.arange(2 * b) + 1) / (4 * b)
    x = np.cos(theta)
    rows = [np.polynomial.legendre.Legendre.basis(l)(x) for l in range(2 * b)]
    rhs = np.zeros(2 * b)
    rhs[0] = 2.0
    return np.linalg.solve(np.vstack(rows), rhs)


def grid_energy(signal):
    """Quadrature estimate of int |f|^2 dOmega per channel, with the
    weights from ``quadrature_weights_by_solve``."""
    b = signal.bandwidth
    w = quadrature_weights_by_solve(b)
    return (np.pi / b) * np.sum(
        w[None, :, None] * np.abs(signal.samples) ** 2, axis=(1, 2))


def class_templates_per_block(classes, L, seed):
    """``data.class_templates`` with one draw per block: per class and
    degree, the real parts, then the imaginary parts."""
    rng = np.random.default_rng(seed)
    templates = []
    for _ in range(classes):
        blocks = [rng.standard_normal((2 * ell + 1, 1))
                  + 1j * rng.standard_normal((2 * ell + 1, 1))
                  for ell in range(L + 1)]
        templates.append(HarmonicCoefficients(L, blocks))
    return templates


def generate_split_per_example(cfg, per_class, rotated, seed):
    """``data.generate_split`` as one loop over examples: per example, the
    noise degree by degree, one rotation draw whether or not it is used,
    and one single-rotation ``wigner_D`` call per degree."""
    L, b = cfg.bandlimit, cfg.grid_bandwidth
    templates = class_templates(cfg.classes, L, cfg.seed)
    rng = np.random.default_rng(seed)
    rot_rng = np.random.default_rng(seed + 1)
    examples, labels = [], []
    for k in range(cfg.classes):
        for _ in range(per_class):
            blocks = [
                t + cfg.noise_sigma * (rng.standard_normal(t.shape)
                                       + 1j * rng.standard_normal(t.shape))
                for t in templates[k].blocks
            ]
            rot = random_rotation(rot_rng)
            if rotated:
                blocks = [wigner_D(ell, rot).matrix @ blk
                          for ell, blk in enumerate(blocks)]
            examples.append(blocks)
            labels.append(k)
    coeffs = HarmonicCoefficients(L, [np.hstack([ex[ell] for ex in examples])
                                      for ell in range(L + 1)])
    return Dataset(inverse_sht(coeffs, b), np.asarray(labels, dtype=int))


def loss_and_grad_unfused(coeffs, labels, weights, norm_states,
                          training=False):
    """``gradients.loss_and_grad`` as separate stages.  Forward: CG product,
    ``covariant_normalize`` into a copy, ``covariant_linear``.  Backward:
    ``backward_linear`` forms the wide cotangent of the CG output, and
    ``backward_cg`` with identity mixes (the bare CG adjoint) takes it on.
    Returns (loss, NetworkWeights-shaped gradients, logits)."""
    spec = weights.spec
    S, L, B = spec.n_layers, spec.bandlimit, len(labels)
    normed, outputs, F = [], [], coeffs
    for s in range(S):
        H = cg_nonlinearity(F, layer_out_ell_max(s, S, L))
        normed.append(covariant_normalize(H, norm_states[s], training))
        F = covariant_linear(normed[s], weights.layers[s])
        outputs.append(F)
    head = weights.head
    feats = invariant_features(outputs, coeffs.fragments[0])
    hid_pre = feats @ head.w1 + head.b1
    hid = np.maximum(hid_pre, 0.0)
    logits = hid @ head.w2 + head.b2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    loss = -np.mean(np.log(probs[np.arange(B), labels] + 1e-300))
    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B
    dhid = (dlogits @ head.w2.T) * (hid_pre > 0.0)
    g_head = HeadWeights(feats.T @ dhid, dhid.sum(axis=0), hid.T @ dlogits,
                         dlogits.sum(axis=0))
    head_adjoints = np.split(
        np.ascontiguousarray(dhid @ head.w1.T).view(complex),
        np.cumsum([t.tau[0] for t in spec.layer_types]), axis=1)
    g_layers = [None] * S
    G_bar = [np.zeros_like(f) for f in outputs[-1].fragments]
    for s in range(S - 1, -1, -1):
        G_bar[0][:, 0, :] += head_adjoints[s]
        # H_bar = G_bar (W / d)^H; W_bar = normed^H G_bar
        H_bar, g_layers[s] = backward_linear(
            G_bar, normed[s], norm_states[s].fold(weights.layers[s]))
        if s == 0:
            break
        cap = layer_out_ell_max(s, S, L)
        G_bar = backward_cg(H_bar, outputs[s - 1], [
            np.eye(w) for w in cg_output_type(outputs[s - 1].type, cap).tau],
            cap)
    return loss, NetworkWeights(spec, g_layers, g_head), logits


def audit_two_forwards(weights, norm_states, trials, seed=0):
    """``cli.audit_equivariance`` with one B=1 forward pass for the input
    and another for its rotation, drawing from the RNG in the same order."""
    rng = np.random.default_rng(seed)
    L = weights.spec.bandlimit
    layer_err = head_err = 0.0
    for _ in range(trials):
        F0 = CovariantActivation(L, [
            rng.standard_normal((1, 2 * ell + 1, weights.spec.n_in))
            + 1j * rng.standard_normal((1, 2 * ell + 1, weights.spec.n_in))
            for ell in range(L + 1)])
        rot = random_rotation(rng)
        d_mats = [wigner_D(ell, rot).matrix for ell in range(L + 1)]
        feats, acts, _ = network_forward(F0, weights.layers, norm_states)
        feats_r, acts_r, _ = network_forward(
            F0.rotated(d_mats), weights.layers, norm_states)
        for act, act_r in zip(acts, acts_r):
            for f_exp, f_rot in zip(act.rotated(d_mats).fragments,
                                    act_r.fragments):
                if f_exp.size:
                    layer_err = max(layer_err, np.abs(f_rot - f_exp).max()
                                    / max(np.abs(f_exp).max(), 1e-30))
        head_err = max(head_err, np.abs(feats - feats_r).max()
                       / max(np.abs(feats).max(), 1e-30))
    return layer_err, head_err


def finite_difference(fn, array, index, step=1e-5, imag=False):
    """Central difference of a scalar function in one (real or imaginary)
    coordinate of ``array``."""
    delta = 1j * step if imag else step
    orig = array[index]
    array[index] = orig + delta
    plus = fn()
    array[index] = orig - delta
    minus = fn()
    array[index] = orig
    return (plus - minus) / (2.0 * step)


# --- 3x3 rotation matrices, an oracle for Wigner-D and composition ---

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
