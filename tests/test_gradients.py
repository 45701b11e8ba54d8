import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cgsphere import network
from cgsphere.gradients import (
    NumericError,
    backward_cg,
    backward_linear,
    forward_with_tape,
    init_weights,
    loss_and_grad,
)
from cgsphere.network import (
    NORM_EPS,
    ActivationType,
    CovariantActivation,
    NetworkSpec,
    NormState,
    cg_nonlinearity,
    cg_output_type,
    cg_pairs,
    covariant_linear,
    network_forward,
    tau_schedule,
)
from cgsphere.so3 import cg_table, random_rotation, wigner_D
from cgsphere.training import make_norm_states

import oracles

RNG = np.random.default_rng(777)


def random_activation(L, tau, batch=2, rng=RNG):
    return CovariantActivation(L, [
        rng.standard_normal((batch, 2 * ell + 1, t))
        + 1j * rng.standard_normal((batch, 2 * ell + 1, t))
        for ell, t in enumerate(tau)
    ])


def identity_mixes(F, out_ell_max=None):
    """Mixes under which ``backward_cg`` is the bare CG adjoint: multiplying
    by an identity matrix is exact."""
    return [np.eye(w) for w in cg_output_type(F.type, out_ell_max).tau]


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
    out = oracles.cg_product(F)
    probe = [RNG.standard_normal(f.shape) + 1j * RNG.standard_normal(f.shape)
             for f in out.fragments]

    def scalar():
        return real_inner(probe, oracles.cg_product(F).fragments)

    F_bar = backward_cg(probe, F, identity_mixes(F))
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
    out = oracles.cg_product(F, 0)
    probe = [np.ones(f.shape, dtype=complex) for f in out.fragments]

    def scalar():
        return real_inner(probe, oracles.cg_product(F, 0).fragments)

    F_bar = backward_cg(probe, F, identity_mixes(F, 0), out_ell_max=0)
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
    ((10, 6, 5, 4), 3),  # post-CG widths in the hundreds
])
def test_backward_cg_adjoint_identity(batch, tau, out_ell_max):
    L = len(tau) - 1
    F = random_activation(L, tau, batch=batch)
    dF = random_like(F.fragments)

    def cg(frags):
        return oracles.cg_product(CovariantActivation(L, frags),
                                  out_ell_max).fragments

    # the product is quadratic in F, so the central difference is its
    # linearisation in both factors exactly, up to rounding
    plus = cg([f + d for f, d in zip(F.fragments, dF)])
    minus = cg([f - d for f, d in zip(F.fragments, dF)])
    J = [(p - m) / 2 for p, m in zip(plus, minus)]
    if tau == (10, 6, 5, 4):
        assert min(j.shape[2] for j in J) >= 100
    H_bar = random_like(J)
    F_bar = backward_cg(H_bar, F, identity_mixes(F, out_ell_max),
                        out_ell_max=out_ell_max)
    assert_adjoint(real_inner(H_bar, J), real_inner(F_bar, dF))


def test_backward_cg_rejects_mixes_of_the_wrong_height():
    # a mix with an extra row would otherwise be read short, silently
    F = random_activation(1, (2, 1), batch=1)
    G_bar = random_like(oracles.cg_product(F).fragments)
    mixes = identity_mixes(F)
    mixes[1] = np.vstack([mixes[1], np.ones((1, mixes[1].shape[1]))])
    with pytest.raises(ValueError, match="widths"):
        backward_cg(G_bar, F, mixes)
    with pytest.raises(ValueError, match="widths"):
        backward_cg(G_bar, F, mixes[:1])


def in_layout(arrays, layout):
    """Contiguous (B, 2l+1, tau) arrays, or the same values as views of
    C-contiguous (2l+1, B, tau) arrays, the layout the package stores."""
    if layout == "contiguous":
        return [np.ascontiguousarray(a) for a in arrays]
    return [np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)
            for a in arrays]


@pytest.mark.parametrize("layout", ["contiguous", "m-major"])
@pytest.mark.parametrize("tau, out_ell_max", [
    pytest.param(tau, cap, id=f"{name}-cap{cap}")
    for name, tau in (("band", (8,) * 9), ("mixed", (3, 0, 2, 1, 0, 2, 0, 1, 2)))
    for cap in (8, 3, 0)])
def test_backward_cg_adjoint_identity_at_band_scale(tau, out_ell_max, layout):
    L = len(tau) - 1
    F = random_activation(L, tau, batch=2)
    dF = random_like(F.fragments)

    def cg(frags):
        return oracles.cg_product(CovariantActivation(L, frags),
                                  out_ell_max).fragments

    plus = cg([f + d for f, d in zip(F.fragments, dF)])
    minus = cg([f - d for f, d in zip(F.fragments, dF)])
    J = [(p - m) / 2 for p, m in zip(plus, minus)]
    H_bar = in_layout(random_like(J), layout)
    F_in = CovariantActivation(L, in_layout(F.fragments, layout))
    F_bar = oracles.cg_adjoint(H_bar, F_in, out_ell_max)
    assert [f.shape for f in F_bar] == [f.shape for f in F.fragments]
    assert_adjoint(real_inner(H_bar, J), real_inner(F_bar, dF))


def frozen_mix(F, cap, out_tau, rng):
    """Random weights from F's CG output of cap ``cap`` to widths
    ``out_tau``, and a frozen ``NormState`` whose first live column reads
    as dead (it passes through unscaled)."""
    cg = cg_output_type(F.type, cap).tau
    weights = random_like([np.empty((c, w)) for c, w in zip(cg, out_tau)],
                          rng)
    norm = NormState([rng.random(c) + 0.5 for c in cg], 3)
    live = next((s for s in norm.scales if s.size), None)
    if live is not None:
        live[0] = NORM_EPS / 10
    return weights, norm


@pytest.mark.parametrize("tau", [(2, 1, 2, 1), (0, 0, 0, 2), (1, 1, 1, 1)])
def test_cg_kernels_ignore_workspace_contents(monkeypatch, tau):
    """The CG kernels reuse one scratch block across pairs and never clear
    it; whatever it held before (NaN here, in every element, so also in
    the spare rows of the l2 regions, which the kernels zero themselves)
    must not reach the result: the bare product, the adjoint, the frozen
    mix, the training forward with its statistics, and the weight
    gradient.  The bare product builds H (``network._cg_output``) at
    (2, 1, 2, 1), and so do both mixes, whose every pair is then narrower
    than the mix, at (1, 1, 1, 1).  With one producing pair, (3, 3),
    every unwritten slot is still NaN when the pair reads it.  At a run
    budget of one byte every run is one row m, so each run of the adjoint
    also reads the region its previous run left."""
    F = random_activation(3, tau, batch=2)
    H_bar = random_like(oracles.cg_product(F).fragments)
    weights, norm = frozen_mix(F, None, (2, 1, 3, 2), np.random.default_rng(8))
    mixes = norm.fold(weights)
    G_bar = random_like(cg_nonlinearity(F, None, mixes).fragments)

    def run():
        trained = norm.copy()
        return (oracles.cg_product(F).fragments,
                backward_cg(H_bar, F, identity_mixes(F)),
                cg_nonlinearity(F, None, mixes).fragments,
                cg_nonlinearity(F, None, weights, trained).fragments,
                trained.scales,
                network.cg_weight_gradient(G_bar, F))

    empty = np.empty

    def poisoned(*args, **kwargs):
        block = empty(*args, **kwargs)
        if block.dtype.kind in "fc":
            block.fill(np.nan)
        return block

    for budget in (network._CACHE_BYTES, 1):
        monkeypatch.setattr(network, "_CACHE_BYTES", budget)
        monkeypatch.setattr(np, "empty", empty)
        want = run()
        monkeypatch.setattr(np, "empty", poisoned)
        got = run()
        for a, b in zip(sum(want, []), sum(got, []), strict=True):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("tau, batch, out_tau, budgets", [
    pytest.param((2, 0, 3, 1), 2, (2, 1, 3, 2), (1, 1000, 10_000, 1 << 30),
                 id="2"),
    pytest.param((2, 0, 3, 1), 7, (2, 1, 3, 2), (1, 1000, 10_000, 1 << 30),
                 id="7"),
    pytest.param((2,) * 9, 3, (2,) * 9, (1,), id="band-3")])
def test_cg_kernels_ignore_the_run_budget(monkeypatch, tau, batch, out_tau,
                                          budgets):
    """The kernels form each pair's Kronecker rows in runs of rows m, and
    each run multiplies only its block of the pair's table (``CGPair``):
    one row per run (a budget of one byte), a few rows with a shorter last
    run, and one run per pair all give the default budget's bytes, for the
    bare product, the adjoint, the frozen mix, the training forward with
    its scales, and the weight gradient, at cap L and 0.

    On the band-shaped layer (L=8, tau=2, B=3) a pair's one run at the
    default budget straddles m = 0, and at one row per run the top rows'
    blocks are widened to two m1 and two degrees.  Its pair (8, 8), with
    17 m1 over 2Bn = 18 columns, keeps its whole table in every row.

    A row's block, and so its contraction length, depends on the run it
    falls in, so this equality rests on the BLAS summing the fewer than
    16 terms of a trimmed pair's row in an order that does not depend on
    the operands' shapes, as OpenBLAS's AVX-512 dgemm does; another BLAS
    may differ in the last bit here (``CGPair.blocks``)."""
    rng = np.random.default_rng(batch)
    L = len(tau) - 1
    F = random_activation(L, tau, batch=batch, rng=rng)
    default = network._CACHE_BYTES
    for cap, out_tau in ((L, out_tau), (0, out_tau[:1] + (0,) * L)):
        weights, norm = frozen_mix(F, cap, out_tau, rng)
        mixes = norm.fold(weights)
        G_bar = random_like(cg_nonlinearity(F, cap, mixes).fragments, rng)

        def run():
            trained = norm.copy()
            return (oracles.cg_product(F, cap).fragments,
                    backward_cg(G_bar, F, mixes, cap),
                    cg_nonlinearity(F, cap, mixes).fragments,
                    cg_nonlinearity(F, cap, weights, trained).fragments,
                    trained.scales,
                    network.cg_weight_gradient(G_bar, F, cap))

        want = run()
        # at cap L, pair (2, 3) takes its 7 rows m 2 at a time in 1000
        # bytes at B=2, and 5 at a time in 10,000 bytes at B=7
        for budget in budgets:
            monkeypatch.setattr(network, "_CACHE_BYTES", budget)
            got = run()
            monkeypatch.setattr(network, "_CACHE_BYTES", default)
            for a, b in zip(sum(want, []), sum(got, []), strict=True):
                assert np.array_equal(a, b)


def kernel_taus(L):
    """Uniform, non-uniform and zero-width fragment counts at degree L:
    (2, ..., 2) (or 1s at L=16), and (2, 1, 1, 2) and (2, 0, 2, 1) repeated
    to length L + 1."""
    return [((1 if L == 16 else 2),) * (L + 1),
            tuple(np.resize((2, 1, 1, 2), L + 1)),
            tuple(np.resize((2, 0, 2, 1), L + 1))]


@pytest.mark.parametrize("L, batch", [
    (L, batch) for L in (0, 1, 5, 8) for batch in (1, 2, 32)]
    + [(16, 1), (16, 2)])
def test_cg_kernels_match_row_gather_oracles(L, batch):
    """Both strided-view kernels give the row-gather kernels' bytes for
    every cap (B=32 stops at L=8 to keep the suite fast).  At B=1 the
    oracle adjoint's per-m cotangent products are vector-matrix products,
    which numpy hands to BLAS gemv rather than to the gemm that one
    (2l+1)-row product uses; the two agree to rounding.  The oracles read
    the whole tables and the kernels each run's block, so the equality
    rests on the BLAS summing fewer than 16 terms in an order that does
    not depend on the operands' shapes, as OpenBLAS's AVX-512 dgemm does
    (``CGPair.blocks``)."""
    rng = np.random.default_rng(L * 100 + batch)
    for tau in kernel_taus(L):
        F = random_activation(L, tau, batch=batch, rng=rng)
        G_bar = [rng.standard_normal((batch, 2 * ell + 1, 2))
                 + 1j * rng.standard_normal((batch, 2 * ell + 1, 2))
                 for ell in range(L + 1)]
        for cap in range(L + 1):
            got = oracles.cg_product(F, cap).m_major
            want = oracles.cg_nonlinearity_gather(F, cap).m_major
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            mixes = random_like([np.empty((w, 2)) for w in
                                 cg_output_type(F.type, cap).tau], rng)
            got = backward_cg(G_bar, F, mixes, cap)
            want = oracles.backward_cg_gather(G_bar, F, mixes, cap)
            for g, w in zip(got, want, strict=True):
                if batch == 1:
                    np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13)
                else:
                    assert np.array_equal(g, w)


@pytest.mark.parametrize("L, batch", [
    (L, batch) for L in (0, 2, 5) for batch in (1, 2, 7)])
def test_mixing_cg_kernel_matches_cg_then_linear(L, batch):
    """With frozen statistics, the kernel that mixes each pair's product
    in place gives covariant_linear(H, fold(W)) to rounding, for every cap
    (cap 0 is the final layer's) and for output widths that are uniform,
    differ by degree or vanish."""
    rng = np.random.default_rng(L * 10 + batch)
    for tau in kernel_taus(L):
        F = random_activation(L, tau, batch=batch, rng=rng)
        for cap in range(L + 1):
            for out_tau in (tau, tuple(np.resize((2, 0, 3, 1), L + 1))):
                weights, norm = frozen_mix(F, cap, out_tau, rng)
                mixes = norm.fold(weights)
                want = covariant_linear(oracles.cg_product(F, cap),
                                        mixes).m_major
                got = cg_nonlinearity(F, cap, mixes).m_major
                for g, w in zip(got, want, strict=True):
                    assert g.shape == w.shape
                    assert np.abs(g - w).max(initial=0.0) <= \
                        1e-13 * np.abs(w).max(initial=0.0)


def test_mixing_cg_kernel_rejects_mixes_of_the_wrong_height():
    F = random_activation(2, (2, 1, 2), batch=2)
    weights, norm = frozen_mix(F, None, (2, 2, 2), RNG)
    mixes = norm.fold(weights)
    mixes[1] = mixes[1][1:]
    with pytest.raises(ValueError, match="CG output widths"):
        cg_nonlinearity(F, None, mixes)


def test_band_cg_call_allocates_only_its_buffers():
    """A band layer-1 training forward (L=8, tau=8, B=32, width 8) peaks at
    no more than its accumulator and its scratch block, plus 1 MB: no
    region the size of the CG output, which is 16x wider, is allocated,
    no buffer of every degree's rows repeated max(tau) times (3.2 MB
    here), and no Kronecker region for more than one run of rows m (the
    largest pair's rows whole are 5.3 MB here)."""
    L, t, B = 8, 8, 32
    F = random_activation(L, (t,) * (L + 1), batch=B)
    weights, norm = frozen_mix(F, None, (t,) * (L + 1),
                               np.random.default_rng(2))
    # builds the memoized CG tables outside the measurement
    cg_nonlinearity(F, None, weights, norm.copy())
    tracemalloc.start()
    try:
        cg_nonlinearity(F, None, weights, norm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plan = network._cg_plan(F.type, None)
    n_mix = sum(plan.out_type.tau)
    acc = (L + 1) * (2 * L + 1) * B * t
    scratch = network._run_size(B, *plan.kron) \
        + B * (plan.y_size + plan.l1_size + plan.l2_size + plan.mix_size * t) \
        + (2 * n_mix + 1) * t + plan.stat_size + n_mix
    assert not any(p.n < t for p in plan.pairs)  # none builds H
    assert peak <= 16 * (acc + scratch) + 2 ** 20


# ten frozen forwards or five training steps of the desk model, or five
# training steps of the band model, after two warm-up calls; prints the
# minor page faults the measured calls took
FAULT_SCRIPT = """
import resource, sys
import numpy as np
from cgsphere.gradients import init_weights, loss_and_grad
from cgsphere.network import (ActivationType, CovariantActivation,
                              NetworkSpec, network_forward)
from cgsphere.training import AdamState, adam_step, make_norm_states

what, B, calls = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
L, t = (8, 8) if what == "train-band" else (5, 4)
hidden = ActivationType((t,) * (L + 1))
spec = NetworkSpec(L, 1, (hidden, hidden, ActivationType((t,) + (0,) * L)))
weights = init_weights(spec, n_out=4, seed=0)
norms = make_norm_states(spec)
adam = AdamState.for_weights(weights)
rng = np.random.default_rng(1)
x = CovariantActivation(L, [rng.standard_normal((B, 2 * l + 1, 1))
                            + 1j * rng.standard_normal((B, 2 * l + 1, 1))
                            for l in range(L + 1)])
labels = np.arange(B) % 4

def call():
    if what == "forward":
        network_forward(x, weights.layers, norms)
    else:
        adam_step(adam, weights,
                  loss_and_grad(x, labels, weights, norms, training=True)[1])

call()
call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(calls):
    call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's reuse of freed heap pages")
@pytest.mark.parametrize("what, batch, calls", [
    ("forward", 100, 10), ("train", 32, 5), ("train-band", 32, 5)])
def test_repeated_desk_calls_fault_in_no_fresh_pages(what, batch, calls):
    """Repeated frozen desk forwards (B=100) and training steps of the desk
    and band models (B=32) reuse the heap pages of the calls before them:
    each CG kernel call takes its scratch from one block, which glibc keeps
    once its mmap threshold has risen to that size.  With separately
    allocated workspaces and row buffers the desk calls took about 16,700
    and 6,500 minor faults; a band step that built its layer-1 CG output
    (61 MB, above glibc's 32 MB threshold ceiling) took 366-870 a step.
    Each check runs in a fresh interpreter, because the allocator's state
    depends on what ran before."""
    src = str(Path(network.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_SCRIPT, what, str(batch), str(calls)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True)
    assert int(proc.stdout) < 200


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
    spec, weights, norms, coeffs, labels = setup_problem()
    tape = forward_with_tape(coeffs, weights, norms)
    feats, _ = network_forward(coeffs, weights.layers, norms)
    np.testing.assert_allclose(tape.features, feats, atol=1e-14)


# --- the fused training step against the unfused stages ---

def band_spec():
    """The train-band benchmark's network: L8, tau 8, 3 layers."""
    t8 = ActivationType((8,) * 9)
    return NetworkSpec(8, 1, (t8, t8, ActivationType((8,) + (0,) * 8)))


def desk_spec():
    t4 = ActivationType((4,) * 6)
    return NetworkSpec(5, 1, (t4, t4, ActivationType((4,) + (0,) * 5)))


ZERO_TAU_SPEC = NetworkSpec(3, 1, (ActivationType((2, 0, 3, 1)),
                                   ActivationType((0, 2, 0, 1)),
                                   ActivationType((3, 0, 0, 0))))


@pytest.mark.parametrize("spec, batch, dead", [
    pytest.param(band_spec(), 4, False, id="band"),
    pytest.param(desk_spec(), 8, False, id="desk"),
    pytest.param(ZERO_TAU_SPEC, 3, False, id="zero-tau"),
    pytest.param(desk_spec(), 8, True, id="desk-dead-scales"),
])
def test_loss_and_grad_matches_unfused_stages(spec, batch, dead):
    weights = init_weights(spec, n_out=3, hidden=8, seed=2)
    norms = make_norm_states(spec)
    rng = np.random.default_rng(5)
    coeffs = random_activation(spec.bandlimit, spec.input_type().tau,
                               batch=batch, rng=rng)
    labels = rng.integers(0, 3, size=batch)
    loss_and_grad(coeffs, labels, weights, norms, training=True)
    if dead:
        # live columns whose scale reads as dead pass through unscaled; the
        # huge count keeps them below the floor through a training update
        for state in norms[:2]:
            state.scales[2][::2] = NORM_EPS / 100
            state.count = 10 ** 12
    for training in (True, False):
        want_norms = [n.copy() for n in norms]
        want = oracles.loss_and_grad_unfused(coeffs, labels, weights,
                                             want_norms, training)
        got = loss_and_grad(coeffs, labels, weights, norms, training)
        # (H / d) W and H (W / d) round differently, so the logits and the
        # loss agree to rounding, not bit for bit
        assert got[0] == pytest.approx(want[0], rel=1e-15, abs=0)
        np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-14)
        # gradients, and the scales of layers whose input already differs
        # by rounding, relative to each array's largest entry; the scale
        # update itself is checked bit for bit in test_network.py
        pairs = list(zip(got[1].arrays(), want[1].arrays()))
        for a, b in zip(norms, want_norms):
            assert a.count == b.count
            pairs += zip(a.scales, b.scales)
        for a, b in pairs:
            assert np.abs(a - b).max(initial=0.0) <= \
                1e-13 * np.abs(b).max(initial=0.0)
    if dead:
        assert np.all(norms[1].scales[2][::2] < NORM_EPS)


def band_step_peak(B, seed, labels=None):
    """The tracemalloc peak of one band-shaped ``loss_and_grad(training=
    True)`` at batch ``B``, on coefficients drawn from ``seed`` and
    ``labels`` (by default drawn after them), after one untraced step that
    builds the memoized plans and CG tables."""
    spec = band_spec()
    weights = init_weights(spec, n_out=4, seed=0)
    norms = make_norm_states(spec)
    rng = np.random.default_rng(seed)
    coeffs = random_activation(8, spec.input_type().tau, batch=B, rng=rng)
    if labels is None:
        labels = rng.integers(0, 4, size=B)
    loss_and_grad(coeffs, labels, weights, norms, training=True)
    tracemalloc.start()
    try:
        loss_and_grad(coeffs, labels, weights, norms, training=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_band_step_holds_no_wide_copy():
    """A band step at B=32 builds no wide post-CG activation: the forward
    mixes each pair's product in place and the weight gradient recomputes
    the products, so the step peaks below half of layer 1's CG output."""
    B = 32
    wide = 16 * B * sum((2 * ell + 1) * t
                        for ell, t in enumerate(band_spec().cg_input_type(1).tau))
    assert band_step_peak(B, 3) < 0.5 * wide


# the tracemalloc peak of one band training step at B=4 (numpy 2.4); with
# a row for every column of each self-pair's grid it was 13,335,279 bytes,
# with each layer's CG output built for the statistics and the weight
# gradient 11,942,327, with a buffer of every degree's rows repeated
# max(tau) times 9,014,642, and with each pair's Kronecker rows whole in
# the Kronecker regions 7,589,396
BAND_STEP_PEAK_B4 = 6_668_052
# the same at B=32, where each pair's Kronecker rows whole in the
# Kronecker regions gave 25,383,452
BAND_STEP_PEAK_B32 = 16_470_844


def test_band_step_peak_is_pinned():
    """One band-shaped ``loss_and_grad(training=True)`` at B=4 peaks
    within 2% of its pinned tracemalloc peak, a deterministic count where
    the benchmark's peak RSS moves with the allocator's layout: a change
    that widens a column-sized array, or keeps one alive longer, fails
    here."""
    assert band_step_peak(4, 1, np.arange(4) % 4) <= 1.02 * BAND_STEP_PEAK_B4


def test_band_step_peak_at_batch_32_is_pinned():
    """The band step at the benchmark's batch, B=32, peaks within 2% of its
    pinned tracemalloc peak too: there each pair's Kronecker rows whole
    are megabytes, so a kernel that sizes a region by them fails here."""
    assert band_step_peak(32, 3) <= 1.02 * BAND_STEP_PEAK_B32


SCHEDULE_SPEC = NetworkSpec(3, 1, (tau_schedule(3, 5), tau_schedule(3, 5),
                                    ActivationType((3, 0, 0, 0))))


@pytest.mark.parametrize("spec", [
    pytest.param(desk_spec(), id="desk"),
    pytest.param(ZERO_TAU_SPEC, id="zero-tau"),
    pytest.param(SCHEDULE_SPEC, id="tau-schedule"),
    pytest.param(NetworkSpec(2, 1, (ActivationType((0, 0, 0)),
                                    ActivationType((2, 0, 0)))),
                 id="zero-hidden-layer"),
])
def test_frozen_forward_matches_the_cg_output_path(spec):
    """An eval-mode forward mixes each CG product in place; its features
    and layer outputs match the path that builds H and mixes it by
    ``covariant_linear`` to rounding."""
    weights = init_weights(spec, n_out=3, hidden=8, seed=4)
    norms = make_norm_states(spec)
    rng = np.random.default_rng(6)
    L = spec.bandlimit
    coeffs = random_activation(L, spec.input_type().tau, batch=8, rng=rng)
    loss_and_grad(coeffs, rng.integers(0, 3, size=8), weights, norms,
                  training=True)
    for batch in (1, 2, 7):
        coeffs = random_activation(L, spec.input_type().tau, batch=batch,
                                   rng=rng)
        want = oracles.network_forward_through_h(coeffs, weights.layers,
                                                 norms)
        got = network_forward(coeffs, weights.layers, norms)
        pairs = [(got[0], want[0])] + [
            (g, w) for a, b in zip(got[1], want[1], strict=True)
            for g, w in zip(a.m_major, b.m_major, strict=True)]
        for g, w in pairs:
            assert g.shape == w.shape
            assert np.abs(g - w).max(initial=0.0) <= \
                1e-13 * np.abs(w).max(initial=0.0)


def test_desk_eval_forward_builds_no_wide_cg_output():
    """An eval-mode desk forward at B=100 peaks below the size of its
    layer-1 CG output, which the training path builds."""
    spec, B = desk_spec(), 100
    weights = init_weights(spec, n_out=4, seed=0)
    norms = make_norm_states(spec)
    coeffs = random_activation(5, spec.input_type().tau, batch=B,
                               rng=np.random.default_rng(9))
    # builds the memoized CG tables outside the measurement
    network_forward(coeffs, weights.layers, norms)
    tracemalloc.start()
    try:
        network_forward(coeffs, weights.layers, norms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    wide = 16 * B * sum((2 * ell + 1) * t
                        for ell, t in enumerate(spec.cg_input_type(1).tau))
    assert peak < wide


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


# --- the network at L=16 with tau = 1: two layers, B=2 ---

L16 = 16
L16_SPEC = NetworkSpec(L16, 1, (ActivationType((1,) * (L16 + 1)),
                                ActivationType((1,) + (0,) * L16)))


def dense_cg_blocks(L, cap):
    """``cg_block(l1, l2, l).dense()`` for every pair up to L and every
    l <= cap, scattered from one ``cg_table`` per pair rather than one
    table per degree."""
    blocks = {}
    for l1, l2 in cg_pairs(L):
        ells = range(l2 - l1, min(l1 + l2, cap) + 1)
        table, M = cg_table(l1, l2, ells), ells[-1]
        m1 = np.arange(-l1, l1 + 1)
        for i, l in enumerate(ells):
            m = np.arange(-l, l + 1)[:, None]
            keep = np.abs(m - m1) <= l2
            rows = (m1 + l1) * (2 * l2 + 1) + m - m1 + l2
            mat = np.zeros(((2 * l1 + 1) * (2 * l2 + 1), 2 * l + 1))
            mat[rows[keep], np.broadcast_to(m + l, keep.shape)[keep]] = \
                table[M - l:M + l + 1, i][keep]
            blocks[(l1, l2, l)] = mat
    return blocks


def test_cg_kernel_matches_dense_oracle_at_l16():
    F = random_activation(L16, (1,) * (L16 + 1), batch=2)
    got = oracles.cg_product(F)
    want = oracles.dense_cg_transform(F.fragments, cg_pairs(L16),
                                      dense_cg_blocks(L16, L16), L16)
    for g, w in zip(got.fragments, want, strict=True):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-13)


def test_backward_cg_adjoint_identity_at_l16():
    F = random_activation(L16, (1,) * (L16 + 1), batch=2)
    dF = random_like(F.fragments)

    def cg(frags):
        return oracles.cg_product(CovariantActivation(L16, frags)).fragments

    plus = cg([f + d for f, d in zip(F.fragments, dF)])
    minus = cg([f - d for f, d in zip(F.fragments, dF)])
    J = [(p - m) / 2 for p, m in zip(plus, minus)]
    H_bar = random_like(J)
    F_bar = backward_cg(H_bar, F, identity_mixes(F))
    assert_adjoint(real_inner(H_bar, J), real_inner(F_bar, dF))


def l16_problem():
    weights = init_weights(L16_SPEC, n_out=3, hidden=8, seed=4)
    norms = make_norm_states(L16_SPEC)
    rng = np.random.default_rng(16)
    coeffs = random_activation(L16, L16_SPEC.input_type().tau, batch=2,
                               rng=rng)
    labels = np.array([0, 2])
    loss_and_grad(coeffs, labels, weights, norms, training=True)
    return weights, norms, coeffs, labels, rng


def test_network_invariant_at_l16():
    weights, norms, coeffs, _, rng = l16_problem()
    base, _ = network_forward(coeffs, weights.layers, norms)
    rot = random_rotation(rng)
    d = [wigner_D(ell, rot).matrix for ell in range(L16 + 1)]
    turned, _ = network_forward(coeffs.rotated(d), weights.layers, norms)
    np.testing.assert_allclose(turned, base, rtol=0, atol=1e-8)


def test_directional_gradient_at_l16():
    """The gradient against a central difference along one random unit
    direction through every parameter."""
    weights, norms, coeffs, labels, rng = l16_problem()
    _, grads, _ = loss_and_grad(coeffs, labels, weights, norms)
    direction = [rng.standard_normal(w.shape)
                 + (1j * rng.standard_normal(w.shape)
                    if np.iscomplexobj(w) else 0.0)
                 for w in weights.arrays()]
    size = np.sqrt(sum(np.sum(np.abs(u) ** 2) for u in direction))
    direction = [u / size for u in direction]
    analytic = real_inner(grads.arrays(), direction)

    def loss_at(step):
        for w, u in zip(weights.arrays(), direction):
            w += step * u
        loss = loss_and_grad(coeffs, labels, weights, norms)[0]
        for w, u in zip(weights.arrays(), direction):
            w -= step * u
        return loss

    h = 1e-5
    assert abs((loss_at(h) - loss_at(-h)) / (2 * h) - analytic) <= 1e-5
