"""Gradients, invariance and checkpoints over randomly drawn network specs.

Specs draw the band limit, input channels, depth and every fragment count,
with zero counts wherever ``NetworkSpec`` accepts them, so the kernels meet
empty degrees, empty CG pairs and one-example batches.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cgsphere.gradients import forward_with_tape, init_weights, loss_and_grad
from cgsphere.network import ActivationType, CovariantActivation, NetworkSpec
from cgsphere.so3 import random_rotation, wigner_D
from cgsphere.training import (
    AdamState,
    adam_step,
    load_checkpoint,
    make_norm_states,
    save_checkpoint,
)

import oracles

N_OUT = 3


@st.composite
def problems(draw):
    """A spec, weights with trained norm scales, a batch and its labels."""
    L = draw(st.integers(1, 4))
    n_in = draw(st.integers(1, 3))
    S = draw(st.integers(2, 3))
    counts = st.integers(0, 3)
    hidden = [ActivationType(tuple(draw(counts) for _ in range(L + 1)))
              for _ in range(S - 1)]
    last = ActivationType((draw(counts),) + (0,) * L)
    spec = NetworkSpec(L, n_in, tuple(hidden) + (last,))
    B = draw(st.sampled_from([1, 2, 3]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    weights = init_weights(spec, n_out=N_OUT, hidden=8, seed=seed)
    coeffs = CovariantActivation(L, [
        rng.standard_normal((B, 2 * ell + 1, n_in))
        + 1j * rng.standard_normal((B, 2 * ell + 1, n_in))
        for ell in range(L + 1)])
    labels = rng.integers(0, N_OUT, size=B)
    norms = make_norm_states(spec)
    # one training pass sets the norm scales the checks below run with
    loss_and_grad(coeffs, labels, weights, norms, training=True)
    return spec, weights, norms, coeffs, labels, rng


@given(problems())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_random_spec_gradient_finite_difference(problem):
    spec, weights, norms, coeffs, labels, rng = problem

    def scalar():
        return loss_and_grad(coeffs, labels, weights, norms)[0]

    _, grads, _ = loss_and_grad(coeffs, labels, weights, norms)
    arrays = [(w, g) for w, g in zip(weights.arrays(), grads.arrays())
              if w.size]
    worst = 0.0
    for k in rng.choice(len(arrays), size=min(4, len(arrays)), replace=False):
        w, g = arrays[k]
        idx = tuple(int(rng.integers(0, s)) for s in w.shape)
        fd = oracles.finite_difference(scalar, w, idx)
        if np.iscomplexobj(w):
            fd_im = oracles.finite_difference(scalar, w, idx, imag=True)
            worst = max(worst, abs(g[idx].real - fd), abs(g[idx].imag - fd_im))
        else:
            worst = max(worst, abs(g[idx] - fd))
    assert worst < 1e-5


@given(problems())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_random_spec_logits_rotation_invariant(problem):
    spec, weights, norms, coeffs, labels, rng = problem
    rot = random_rotation(rng)
    d = [wigner_D(ell, rot).matrix for ell in range(spec.bandlimit + 1)]
    base = forward_with_tape(coeffs, weights, norms).logits
    rotated = forward_with_tape(coeffs.rotated(d), weights, norms).logits
    assert np.abs(rotated - base).max() <= 1e-10


@given(problems())
@settings(max_examples=10, deadline=None, derandomize=True)
def test_random_spec_checkpoint_round_trip(problem):
    spec, weights, norms, coeffs, labels, rng = problem
    adam = AdamState.for_weights(weights)
    _, grads, _ = loss_and_grad(coeffs, labels, weights, norms)
    adam_step(adam, weights, grads)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(f"{tmp}/ckpt", weights, norms, adam)
        w2, n2, a2, _ = load_checkpoint(f"{tmp}/ckpt")
    assert w2.spec == spec
    for a, b in zip(weights.arrays(), w2.arrays()):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    for ns, ns2 in zip(norms, n2):
        assert ns.count == ns2.count
        for a, b in zip(ns.scales, ns2.scales):
            assert a.tobytes() == b.tobytes()
    assert a2.step == adam.step
    for a, b in zip(adam.m + adam.v, a2.m + a2.v):
        assert a.tobytes() == b.tobytes()
