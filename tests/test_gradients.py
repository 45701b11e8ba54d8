import numpy as np
import pytest

from cgsphere.gradients import (
    NumericError,
    backward_cg,
    backward_linear,
    forward_with_tape,
    init_weights,
    loss_and_grad,
)
from cgsphere.network import (
    ActivationType,
    CovariantActivation,
    NetworkSpec,
    cg_nonlinearity,
    covariant_linear,
)
from cgsphere.training import make_norm_states

import oracles

RNG = np.random.default_rng(777)


def random_activation(L, tau, batch=2, rng=RNG):
    return CovariantActivation(L, [
        rng.standard_normal((batch, 2 * ell + 1, t))
        + 1j * rng.standard_normal((batch, 2 * ell + 1, t))
        for ell, t in enumerate(tau)
    ])


def real_inner(g_list, f_list):
    """Re sum(conj-free pairing): cotangent convention g = dL/dRe + i dL/dIm,
    so dL = sum Re(conj(g) * df)."""
    return sum(float(np.sum(g.conj() * f).real) for g, f in zip(g_list, f_list))


# --- backward_linear against finite differences ---

def test_backward_linear_finite_difference():
    F = random_activation(1, (2, 3), batch=2)
    w = [RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2)),
         RNG.standard_normal((3, 1)) + 1j * RNG.standard_normal((3, 1))]
    probe = [RNG.standard_normal(s) + 1j * RNG.standard_normal(s)
             for s in [(2, 1, 2), (2, 3, 1)]]

    def scalar():
        G = covariant_linear(F, w)
        return real_inner(probe, G.fragments)

    G_bar = probe
    F_bar, W_bar = backward_linear(G_bar, F, w)
    for arrays, grads in [(F.fragments, F_bar), (w, W_bar)]:
        for arr, grad in zip(arrays, grads):
            idx = tuple(RNG.integers(0, s) for s in arr.shape)
            fd_re = oracles.finite_difference(scalar, arr, idx)
            fd_im = oracles.finite_difference(scalar, arr, idx, imag=True)
            assert grad[idx].real == pytest.approx(fd_re, abs=1e-7)
            assert grad[idx].imag == pytest.approx(fd_im, abs=1e-7)


def test_backward_linear_shape_check():
    F = random_activation(0, (2,))
    with pytest.raises(ValueError):
        backward_linear([np.zeros((1, 1, 5), dtype=complex)], F,
                        [np.zeros((3, 5), dtype=complex)])


# --- backward_cg against finite differences ---

def test_backward_cg_finite_difference():
    L = 2
    F = random_activation(L, (2, 1, 1), batch=2)
    out = cg_nonlinearity(F)
    probe = [RNG.standard_normal(f.shape) + 1j * RNG.standard_normal(f.shape)
             for f in out.fragments]

    def scalar():
        return real_inner(probe, cg_nonlinearity(F).fragments)

    F_bar = backward_cg(probe, F)
    for ell in range(L + 1):
        arr = F.fragments[ell]
        for _ in range(3):
            idx = tuple(RNG.integers(0, s) for s in arr.shape)
            fd_re = oracles.finite_difference(scalar, arr, idx)
            fd_im = oracles.finite_difference(scalar, arr, idx, imag=True)
            assert F_bar[ell][idx].real == pytest.approx(fd_re, abs=1e-6)
            assert F_bar[ell][idx].imag == pytest.approx(fd_im, abs=1e-6)


def test_backward_cg_out_ell_max_zero():
    F = random_activation(1, (1, 1), batch=1)
    out = cg_nonlinearity(F, out_ell_max=0)
    probe = [np.ones(f.shape, dtype=complex) for f in out.fragments]

    def scalar():
        return real_inner(probe, cg_nonlinearity(F, out_ell_max=0).fragments)

    F_bar = backward_cg(probe, F, out_ell_max=0)
    idx = (0, 1, 0)
    fd = oracles.finite_difference(scalar, F.fragments[1], idx)
    assert F_bar[1][idx].real == pytest.approx(fd, abs=1e-7)


# --- adjoint identities at wide and zero-width shapes ---

def random_like(arrays, rng=RNG):
    return [rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
            for a in arrays]


def assert_adjoint(lhs, rhs):
    """Re<G_bar, J dF> equals Re<J^T G_bar, dF> to 1e-12 relative."""
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("tau_in, tau_out", [
    ((2, 0, 3, 1), (1, 2, 0, 1)),
    ((300, 0, 450, 7), (5, 3, 0, 2)),
])
def test_backward_linear_adjoint_identity(batch, tau_in, tau_out):
    F = random_activation(3, tau_in, batch=batch)
    w = [RNG.standard_normal((a, b)) + 1j * RNG.standard_normal((a, b))
         for a, b in zip(tau_in, tau_out)]
    dF, dw = random_like(F.fragments), random_like(w)
    # the mix is bilinear in (F, W): J (dF, dW) = dF W + F dW
    J = [df @ wl + f @ dwl
         for df, wl, f, dwl in zip(dF, w, F.fragments, dw)]
    G_bar = random_like(J)
    F_bar, W_bar = backward_linear(G_bar, F, w)
    assert_adjoint(real_inner(G_bar, J),
                   real_inner(F_bar, dF) + real_inner(W_bar, dw))


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("tau, out_ell_max", [
    ((2, 0, 3, 1), 3),
    ((2, 0, 3, 1), 0),
    ((0, 3, 0, 2), 1),
    ((8, 6, 5, 4), 3),   # post-CG widths in the hundreds
])
def test_backward_cg_adjoint_identity(batch, tau, out_ell_max):
    L = len(tau) - 1
    F = random_activation(L, tau, batch=batch)
    dF = random_like(F.fragments)

    def cg(frags):
        return cg_nonlinearity(CovariantActivation(L, frags),
                               out_ell_max=out_ell_max).fragments

    # the product is quadratic in F, so the central difference is its
    # linearisation in both factors exactly, up to rounding
    plus = cg([f + d for f, d in zip(F.fragments, dF)])
    minus = cg([f - d for f, d in zip(F.fragments, dF)])
    J = [(p - m) / 2 for p, m in zip(plus, minus)]
    if tau == (8, 6, 5, 4):
        assert min(j.shape[2] for j in J) >= 100
    H_bar = random_like(J)
    F_bar = backward_cg(H_bar, F, out_ell_max=out_ell_max)
    assert_adjoint(real_inner(H_bar, J), real_inner(F_bar, dF))


# --- full network gradient ---

def small_spec(L=2, S=2, width=3):
    hidden = ActivationType((width,) * (L + 1))
    last = ActivationType((width,) + (0,) * L)
    return NetworkSpec(L, 1, (hidden,) * (S - 1) + (last,))


def setup_problem(L=2, S=2, width=3, batch=3, seed=0, train_norm=True):
    spec = small_spec(L, S, width)
    weights = init_weights(spec, n_out=3, hidden=8, seed=seed)
    norms = make_norm_states(spec)
    rng = np.random.default_rng(seed + 1)
    coeffs = random_activation(L, spec.input_type().tau, batch=batch, rng=rng)
    labels = rng.integers(0, 3, size=batch)
    if train_norm:
        loss_and_grad(coeffs, labels, weights, norms, training=True)
    return spec, weights, norms, coeffs, labels


def test_loss_matches_direct_cross_entropy():
    spec, weights, norms, coeffs, labels = setup_problem()
    loss, _, logits = loss_and_grad(coeffs, labels, weights, norms)
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    direct = -np.mean(np.log(probs[np.arange(len(labels)), labels]))
    assert loss == pytest.approx(direct, rel=1e-12)


def test_full_gradient_finite_difference():
    spec, weights, norms, coeffs, labels = setup_problem()

    def scalar():
        loss, _, _ = loss_and_grad(coeffs, labels, weights, norms)
        return loss

    _, grads, _ = loss_and_grad(coeffs, labels, weights, norms)
    rng = np.random.default_rng(11)
    worst = 0.0
    for w, g in zip(weights.arrays(), grads.arrays()):
        if w.size == 0:
            continue
        for _ in range(3):
            idx = tuple(rng.integers(0, s) for s in w.shape)
            fd = oracles.finite_difference(scalar, w, idx)
            if np.iscomplexobj(w):
                fd_im = oracles.finite_difference(scalar, w, idx, imag=True)
                analytic = complex(g[idx])
                worst = max(worst, abs(analytic.real - fd),
                            abs(analytic.imag - fd_im))
            else:
                worst = max(worst, abs(float(g[idx]) - fd))
    assert worst < 1e-5


def test_gradient_wrt_input_not_needed_but_norm_frozen():
    # in eval mode two calls with identical inputs give identical gradients
    spec, weights, norms, coeffs, labels = setup_problem()
    _, g1, _ = loss_and_grad(coeffs, labels, weights, norms)
    _, g2, _ = loss_and_grad(coeffs, labels, weights, norms)
    for a, b in zip(g1.arrays(), g2.arrays()):
        np.testing.assert_array_equal(a, b)


def test_empty_batch_rejected():
    spec, weights, norms, coeffs, labels = setup_problem()
    with pytest.raises(ValueError):
        loss_and_grad(CovariantActivation(spec.bandlimit,
                                          [f[0:1] for f in coeffs.fragments]),
                      np.zeros(0, dtype=int), weights, norms)


def test_non_finite_logits_reported_with_example_index():
    spec, weights, norms, coeffs, labels = setup_problem()
    weights.head.w2[:] = np.nan
    with pytest.raises(NumericError) as err:
        loss_and_grad(coeffs, labels, weights, norms)
    assert err.value.example_index == 0


def test_forward_with_tape_matches_network_forward():
    from cgsphere.network import network_forward
    spec, weights, norms, coeffs, labels = setup_problem()
    tape = forward_with_tape(coeffs, weights, norms)
    feats, _, _ = network_forward(coeffs, weights.layers, norms)
    np.testing.assert_allclose(tape.features, feats, atol=1e-14)


def test_init_weights_variance_rule():
    spec = small_spec(L=3, S=2, width=24)
    weights = init_weights(spec, n_out=4, seed=3)
    for s in range(spec.n_layers):
        fan = spec.cg_input_type(s).tau
        for ell, w in enumerate(weights.layers[s]):
            if w.size < 200:
                continue
            assert np.mean(np.abs(w) ** 2) == pytest.approx(
                1.0 / fan[ell], rel=0.35)
    assert weights.head.b1.shape == (64,)
    assert np.all(weights.head.b2 == 0.0)
