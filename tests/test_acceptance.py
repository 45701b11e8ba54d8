"""Acceptance suite: one test per headline guarantee, each printing a
single PASS/FAIL line with the measured figure (run with ``pytest -s`` to
see them on success)."""

import time

import numpy as np
import pytest

from cgsphere.cli import audit_equivariance, batched_activation
from cgsphere.config import ExperimentConfig
from cgsphere.data import generate_split
from cgsphere.gradients import init_weights, loss_and_grad
from cgsphere.network import (
    ActivationType,
    CovariantActivation,
    NetworkSpec,
    cg_block,
    cg_madd_count,
    cg_pairs,
    clear_cg_corruption,
    corrupt_cg_entry,
    tau_schedule,
)
from cgsphere.sht import (
    SphericalSignal,
    forward_sht,
    grid_angles,
    inverse_sht,
    rotate_coefficients,
)
from cgsphere.so3 import random_rotation, spherical_harmonic, wigner_D
from cgsphere.training import (
    AdamState,
    accuracy,
    make_norm_states,
    train_loop,
)
from cgsphere.gradients import forward_with_tape

import oracles
from oracles import compose, rotation_matrix


def report(name, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_activation(L, tau, batch, rng):
    return CovariantActivation(L, [
        rng.standard_normal((batch, 2 * ell + 1, t))
        + 1j * rng.standard_normal((batch, 2 * ell + 1, t))
        for ell, t in enumerate(tau)
    ])


def test_representation_correctness():
    """Wigner-D unitarity and homomorphism, l <= 6, 100 rotation pairs."""
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_u = worst_h = 0.0
    for _ in range(100):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        r12 = compose(r1, r2)
        for ell in range(7):
            d1 = wigner_D(ell, r1).matrix
            d2 = wigner_D(ell, r2).matrix
            eye = np.eye(2 * ell + 1)
            worst_u = max(worst_u, np.abs(d1.conj().T @ d1 - eye).max())
            worst_h = max(worst_h,
                          np.abs(d1 @ d2 - wigner_D(ell, r12).matrix).max())
    elapsed = time.perf_counter() - t0
    ok = worst_u <= 1e-10 and worst_h <= 1e-10 and elapsed < 5.0
    report("representation correctness", ok,
           f"unitarity {worst_u:.2e}, homomorphism {worst_h:.2e} "
           f"(tol 1e-10), {elapsed:.1f}s (< 5s)")


def test_cg_correctness():
    """Intertwiner identity, stacked orthogonality, m-selection rule."""
    rng = np.random.default_rng(2)
    rots = [random_rotation(rng) for _ in range(20)]
    worst_int = worst_orth = 0.0
    selection_ok = True
    for l1 in range(5):
        for l2 in range(5):
            stacked = []
            for l in range(abs(l1 - l2), l1 + l2 + 1):
                block = cg_block(l1, l2, l)
                c = block.dense()
                stacked.append(c)
                for (m1, m2), m, _ in block.entries:
                    selection_ok &= (m1 + m2 == m)
                for rot in rots:
                    d12 = np.kron(wigner_D(l1, rot).matrix,
                                  wigner_D(l2, rot).matrix)
                    worst_int = max(worst_int, np.linalg.norm(
                        c.T @ d12 @ c - wigner_D(l, rot).matrix))
            full = np.hstack(stacked)
            worst_orth = max(worst_orth, np.abs(
                full.T @ full - np.eye(full.shape[0])).max())
    ok = worst_int <= 1e-10 and worst_orth <= 1e-12 and selection_ok
    report("Clebsch-Gordan correctness", ok,
           f"intertwiner {worst_int:.2e} (tol 1e-10), orthogonality "
           f"{worst_orth:.2e} (tol 1e-12), m-selection {selection_ok}")


def test_sht_round_trip_and_equivariance():
    rng = np.random.default_rng(3)
    L, b = 6, 8
    blocks = [rng.standard_normal((2 * l + 1, 1))
              + 1j * rng.standard_normal((2 * l + 1, 1))
              for l in range(L + 1)]
    from cgsphere.sht import HarmonicCoefficients
    coeffs = HarmonicCoefficients(L, blocks)
    back = forward_sht(inverse_sht(coeffs, b), L)
    rt_err = max(np.abs(a - c).max() for a, c in zip(coeffs.blocks,
                                                     back.blocks))

    # rotate the sphere samples directly and compare against rotating
    # the coefficients with Wigner-D matrices
    L2 = 5
    coeffs5 = HarmonicCoefficients(L2, blocks[:L2 + 1])
    rot = random_rotation(rng)
    theta, phi = grid_angles(b)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    xyz = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                    np.cos(th)], axis=-1)
    v = xyz @ rotation_matrix(rot)
    th2 = np.arccos(np.clip(v[..., 2], -1.0, 1.0))
    ph2 = np.arctan2(v[..., 1], v[..., 0])
    grid = oracles.synthesize_at(coeffs5.blocks, th2, ph2, spherical_harmonic)
    lhs = forward_sht(SphericalSignal(b, grid[None]), L2)
    rhs = rotate_coefficients(coeffs5, rot)
    eq_err = max(np.abs(a - c).max() for a, c in zip(lhs.blocks, rhs.blocks))
    ok = rt_err <= 1e-10 and eq_err <= 1e-8
    report("spherical transform", ok,
           f"round trip {rt_err:.2e} (tol 1e-10), "
           f"equivariance {eq_err:.2e} (tol 1e-8)")


def test_exact_invariance():
    """Random-weight 3-layer L=5 network: 50 Haar rotations."""
    t0 = time.perf_counter()
    L = 5
    hidden = ActivationType((4,) * (L + 1))
    last = ActivationType((4,) + (0,) * L)
    spec = NetworkSpec(L, 1, (hidden, hidden, last))
    weights = init_weights(spec, n_out=4, seed=4)
    norms = make_norm_states(spec)
    rng = np.random.default_rng(4)
    warm = random_activation(L, spec.input_type().tau, 4, rng)
    loss_and_grad(warm, np.zeros(4, dtype=int), weights, norms, training=True)
    layer_err, head_err = audit_equivariance(weights, norms, trials=50,
                                             seed=5)
    elapsed = time.perf_counter() - t0
    ok = layer_err <= 1e-8 and head_err <= 1e-8 and elapsed < 30.0
    report("exact rotation invariance", ok,
           f"layer covariance {layer_err:.2e}, head invariance "
           f"{head_err:.2e} (tol 1e-8), {elapsed:.1f}s (< 30s)")


def test_gradient_audit():
    """Reverse mode vs. central finite differences on every parameter kind."""
    L = 2
    hidden = ActivationType((3,) * (L + 1))
    last = ActivationType((3,) + (0,) * L)
    spec = NetworkSpec(L, 1, (hidden, last))
    weights = init_weights(spec, n_out=3, hidden=8, seed=6)
    norms = make_norm_states(spec)
    rng = np.random.default_rng(6)
    coeffs = random_activation(L, spec.input_type().tau, 3, rng)
    labels = rng.integers(0, 3, size=3)
    loss_and_grad(coeffs, labels, weights, norms, training=True)

    def scalar():
        return loss_and_grad(coeffs, labels, weights, norms)[0]

    _, grads, _ = loss_and_grad(coeffs, labels, weights, norms)
    worst = 0.0
    for w, g in zip(weights.arrays(), grads.arrays()):
        if w.size == 0:
            continue
        for _ in range(4):
            idx = tuple(rng.integers(0, s) for s in w.shape)
            fd = oracles.finite_difference(scalar, w, idx)
            parts = [(float(np.real(g[idx])), fd)]
            if np.iscomplexobj(w):
                fd_im = oracles.finite_difference(scalar, w, idx, imag=True)
                parts.append((float(np.imag(g[idx])), fd_im))
            for analytic, numeric in parts:
                rel = abs(analytic - numeric) / max(abs(numeric), 1e-3)
                worst = max(worst, rel)
    ok = worst <= 1e-5
    report("gradient audit", ok,
           f"worst relative error vs finite differences {worst:.2e} "
           "(tol 1e-5)")


def test_sparse_equals_dense_and_cost_model():
    L = 3
    rng = np.random.default_rng(7)
    tau = (2, 1, 2, 1)
    F = random_activation(L, tau, 2, rng)
    got = oracles.cg_product(F)
    pairs = cg_pairs(L)
    blocks = {(l1, l2, l): cg_block(l1, l2, l).dense()
              for l1, l2 in pairs
              for l in range(abs(l1 - l2), min(l1 + l2, L) + 1)}
    want = oracles.dense_cg_transform(F.fragments, pairs, blocks, L)
    sd_err = max(np.abs(a - b).max()
                 for a, b in zip(got.fragments, want))

    # cost model: multiply-add count quadratic in the fragment budget N at
    # fixed L (N in {32, 64, 128} via uniform tau = N / (L+1)) and
    # monotonically increasing in L at fixed N
    counts = {n: cg_madd_count(ActivationType((n // (L + 1),) * (L + 1)))
              for n in (32, 64, 128)}
    r1 = counts[64] / counts[32]
    r2 = counts[128] / counts[64]
    growth = [cg_madd_count(ActivationType((8,) * (l + 1)))
              for l in range(2, 6)]
    monotone = all(a < b for a, b in zip(growth, growth[1:]))
    ok = (sd_err <= 1e-13 and abs(r1 / 4 - 1) <= 0.15
          and abs(r2 / 4 - 1) <= 0.15 and monotone)
    report("CG kernel vs dense reference", ok,
           f"max deviation {sd_err:.2e} (tol 1e-13); count ratios "
           f"{r1:.2f}, {r2:.2f} for N doubling (target 4 +/- 15%); "
           f"count increases with band limit: {monotone}")


def test_desk_scale_learning():
    """4-class rotated/rotated task: >= 95% test accuracy inside the step
    and wall-clock budget, and accuracy flat across rotated/unrotated
    test conditions."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig()  # desk-scale defaults
    train = generate_split(cfg, cfg.train_per_class, cfg.train_rotated(),
                           seed=cfg.seed + 1000)
    test_nr = generate_split(cfg, cfg.test_per_class, False,
                             seed=cfg.seed + 2000)
    test_r = generate_split(cfg, cfg.test_per_class, True,
                            seed=cfg.seed + 2000)
    L = cfg.bandlimit
    acts = batched_activation(train, L)
    acts_nr = batched_activation(test_nr, L)
    acts_r = batched_activation(test_r, L)

    spec = cfg.network_spec()
    weights = init_weights(spec, cfg.classes, cfg.hidden, seed=cfg.seed)
    norms = make_norm_states(spec)
    adam = AdamState.for_weights(weights, lr=cfg.lr,
                                 weight_decay=cfg.weight_decay)

    def test_accuracy(test_acts, labels):
        tape = forward_with_tape(test_acts, weights, norms)
        return accuracy(tape.logits, labels)

    acc_r = 0.0
    chunk = 100
    while adam.step < cfg.steps:
        train_loop(acts, train.labels, weights, norms, adam, steps=chunk,
                   batch_size=cfg.batch_size, seed=cfg.seed)
        acc_r = test_accuracy(acts_r, test_r.labels)
        if acc_r >= 0.95:
            break
    acc_nr = test_accuracy(acts_nr, test_nr.labels)
    elapsed = time.perf_counter() - t0
    ok = (acc_r >= 0.95 and adam.step <= cfg.steps and elapsed < 600.0
          and abs(acc_nr - acc_r) <= 0.01)
    report("desk-scale learning", ok,
           f"rotated test accuracy {acc_r:.3f} (>= 0.95) after "
           f"{adam.step} steps, {elapsed:.0f}s (< 600s); unrotated test "
           f"accuracy {acc_nr:.3f}, gap {abs(acc_nr - acc_r):.3f} (<= 0.01)")


def test_invariant_head_width():
    L = 5
    tau = tau_schedule(L, 12)
    spec = NetworkSpec(L, 1, (tau,) * 4
                       + (ActivationType((tau.tau[0],) + (0,) * L),))
    width = spec.head_width()
    ok = width == 122
    report("invariant feature width", ok,
           f"5 layers with 12 scalar fragments each + 1 input channel "
           f"-> {width} (expected 122)")


def test_mutation_sensitivity():
    """Flipping the sign of a single CG coefficient must break the
    equivariance audit, proving the audit has teeth."""
    L = 3
    hidden = ActivationType((4,) * (L + 1))
    last = ActivationType((4,) + (0,) * L)
    spec = NetworkSpec(L, 1, (hidden, hidden, last))
    weights = init_weights(spec, n_out=4, seed=8)
    norms = make_norm_states(spec)
    clean_layer, clean_head = audit_equivariance(weights, norms, trials=5,
                                                 seed=9)
    corrupt_cg_entry(1, 1, 1, 0)
    try:
        bad_layer, bad_head = audit_equivariance(weights, norms, trials=5,
                                                 seed=9)
    finally:
        clear_cg_corruption()
    ok = (max(clean_layer, clean_head) <= 1e-8
          and max(bad_layer, bad_head) > 1e-3)
    report("mutation sensitivity", ok,
           f"clean audit error {max(clean_layer, clean_head):.2e}, "
           f"corrupted audit error {max(bad_layer, bad_head):.2e} (> 1e-3)")
