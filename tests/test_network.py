import dataclasses

import numpy as np
import pytest

from cgsphere import network
from cgsphere.network import (
    ActivationType,
    CovariantActivation,
    NetworkSpec,
    NormState,
    cg_madd_count,
    cg_nonlinearity,
    cg_output_type,
    cg_pairs,
    covariant_linear,
    covariant_normalize,
    invariant_features,
    network_forward,
    tau_schedule,
)
from cgsphere.config import parse_config
from cgsphere.gradients import init_weights, loss_and_grad
from cgsphere.so3 import cg_block, random_rotation, wigner_D
from cgsphere.training import make_norm_states

import oracles

RNG = np.random.default_rng(31337)


def random_activation(L, tau, batch=2, rng=RNG):
    return CovariantActivation(L, [
        rng.standard_normal((batch, 2 * ell + 1, t))
        + 1j * rng.standard_normal((batch, 2 * ell + 1, t))
        for ell, t in enumerate(tau)
    ])


def d_matrices(L, rot):
    return [wigner_D(ell, rot).matrix for ell in range(L + 1)]


# --- activation container ---

def test_activation_shape_validation():
    with pytest.raises(ValueError):
        CovariantActivation(1, [np.zeros((1, 1, 2))])
    with pytest.raises(ValueError):
        CovariantActivation(1, [np.zeros((1, 1, 2)), np.zeros((1, 2, 2))])
    with pytest.raises(ValueError):
        CovariantActivation(
            1, [np.zeros((2, 1, 2)), np.zeros((3, 3, 2))])


def m_major_views(fragments):
    """The same values as (B, 2l+1, tau) views of C-contiguous
    (2l+1, B, tau) arrays, the layout the package stores."""
    return [np.ascontiguousarray(f.transpose(1, 0, 2)).transpose(1, 0, 2)
            for f in fragments]


def test_activation_stores_m_major_behind_public_view():
    a = random_activation(2, (3, 0, 2), batch=4)
    for ell, (f, g) in enumerate(zip(a.fragments, a.m_major)):
        assert f.shape == (4, 2 * ell + 1, a.type.tau[ell])
        assert g.shape == (2 * ell + 1, 4, a.type.tau[ell])
        assert g.flags.c_contiguous
        assert f.size == 0 or np.shares_memory(f, g)
    # an m-major view goes in without a copy
    views = m_major_views(a.fragments)
    b = CovariantActivation(2, views)
    for v, g in zip(views, b.m_major):
        assert v.size == 0 or np.shares_memory(v, g)
        np.testing.assert_array_equal(g.transpose(1, 0, 2), v)


def test_single_example_fragments_are_a_batch_of_one():
    frags = [RNG.standard_normal((2 * ell + 1, 2)) + 0j for ell in range(3)]
    a = CovariantActivation(2, frags)
    assert a.batch_size == 1
    for f, g in zip(frags, a.fragments):
        np.testing.assert_array_equal(g[0], f)


def test_activation_type_and_stack():
    a = random_activation(2, (3, 2, 1), batch=1)
    b = random_activation(2, (3, 2, 1), batch=1)
    assert a.type == ActivationType((3, 2, 1))
    s = CovariantActivation(2, [np.concatenate([fa, fb])
                                for fa, fb in zip(a.fragments, b.fragments)])
    assert s.batch_size == 2
    second = CovariantActivation(2, [f[1:2] for f in s.fragments])
    np.testing.assert_array_equal(second.fragments[1], b.fragments[1])


# --- pair enumeration and type arithmetic ---

def test_cg_pairs_policies():
    assert cg_pairs(1) == [(0, 0), (0, 1), (1, 1)]
    assert all(l1 <= l2 for l1, l2 in cg_pairs(4))
    assert len(cg_pairs(4)) == 5 * 6 // 2
    # cg_madd_count keeps a policy argument that only accepts the one rule
    tau = ActivationType((2, 2))
    assert cg_madd_count(tau, NetworkSpec.pair_policy) == cg_madd_count(tau)
    with pytest.raises(ValueError, match="ordered"):
        cg_madd_count(tau, "ordered")


def test_cg_output_type_by_hand():
    # L=1, tau=(1,1): pairs (0,0)->l0, (0,1)->l1, (1,1)->l0,l1 (l2 clipped)
    out = cg_output_type(ActivationType((1, 1)))
    assert out.tau == (2, 2)
    clipped = cg_output_type(ActivationType((1, 1)), out_ell_max=0)
    assert clipped.tau == (2, 0)
    # a list of counts is held as a tuple, so it can key the memoized layout
    assert cg_output_type(ActivationType([1, 1])).tau == (2, 2)


def test_cg_output_type_counts_products():
    tau = ActivationType((2, 3, 1))
    out = cg_output_type(tau)
    # independent recount straight from the definition
    expect = [0, 0, 0]
    for l1, l2 in cg_pairs(2):
        for l in range(abs(l1 - l2), min(l1 + l2, 2) + 1):
            expect[l] += tau.tau[l1] * tau.tau[l2]
    assert out.tau == tuple(expect)


def test_tau_schedule_rule():
    t = tau_schedule(5, 12)
    assert t.tau == tuple(int(np.ceil(12 / np.sqrt(2 * l + 1)))
                          for l in range(6))
    assert t.tau[0] == 12


# --- CG nonlinearity ---

# every degree cap at L = 3, with and without a zero-width degree
LAYOUT_CASES = [
    pytest.param(tau, cap, id=f"tau{''.join(map(str, tau))}-cap{cap}")
    for tau in ((2, 1, 2, 1), (2, 0, 2, 1)) for cap in range(4)]


@pytest.mark.parametrize("tau, out_ell_max", LAYOUT_CASES)
def test_cg_nonlinearity_matches_dense_oracle(tau, out_ell_max):
    L = len(tau) - 1
    F = random_activation(L, tau, batch=3)
    got = cg_nonlinearity(F, out_ell_max=out_ell_max)
    pairs = cg_pairs(L)
    blocks = {(l1, l2, l): cg_block(l1, l2, l).dense()
              for l1, l2 in pairs
              for l in range(abs(l1 - l2), min(l1 + l2, out_ell_max) + 1)}
    want = oracles.dense_cg_transform(F.fragments, pairs, blocks, out_ell_max)
    for ell in range(L + 1):
        np.testing.assert_allclose(got.fragments[ell], want[ell], atol=1e-13)


def dense_oracle(F, out_ell_max, flip=None):
    """The dense Kronecker reference; ``flip`` = (l1, l2, l, idx) negates
    ``cg_block(l1, l2, l).entries[idx]`` in its blocks, idx taken modulo
    the number of entries as the corruption hook takes it."""
    L = F.bandlimit
    pairs = cg_pairs(L)
    blocks = {(l1, l2, l): cg_block(l1, l2, l).dense()
              for l1, l2 in pairs
              for l in range(abs(l1 - l2), min(l1 + l2, out_ell_max) + 1)}
    if flip is not None:
        l1, l2, l, idx = flip
        entries = cg_block(l1, l2, l).entries
        (m1, m2), m, value = entries[idx % len(entries)]
        blocks[(l1, l2, l)][(m1 + l1) * (2 * l2 + 1) + m2 + l2, m + l] = -value
    return oracles.dense_cg_transform(F.fragments, pairs, blocks, out_ell_max)


# band scale (L=8, tau=8), and a mixed tau with zero counts
BAND_CASES = [
    pytest.param(tau, cap, id=f"{name}-cap{cap}")
    for name, tau in (("band", (8,) * 9), ("mixed", (3, 0, 2, 1, 0, 2, 0, 1, 2)))
    for cap in (8, 3, 0)]


@pytest.mark.parametrize("layout", ["contiguous", "m-major"])
@pytest.mark.parametrize("tau, out_ell_max", BAND_CASES)
def test_cg_kernel_matches_dense_oracle_at_band_scale(tau, out_ell_max,
                                                      layout):
    L = len(tau) - 1
    F = random_activation(L, tau, batch=2)
    frags = [np.ascontiguousarray(f) for f in F.fragments]
    if layout == "m-major":
        frags = m_major_views(frags)
    got = cg_nonlinearity(CovariantActivation(L, frags), out_ell_max)
    want = dense_oracle(F, out_ell_max)
    for ell in range(L + 1):
        assert got.fragments[ell].shape == want[ell].shape
        np.testing.assert_allclose(got.fragments[ell], want[ell],
                                   rtol=0, atol=1e-13)


# (1, 1, 1) has 6 entries, so index 8 wraps round to entry 2
@pytest.mark.parametrize("flip", [(1, 1, 1, 0), (1, 2, 2, 3), (0, 3, 3, 6),
                                  (1, 1, 1, 8)])
def test_corruption_hook_negates_exactly_one_coefficient(flip):
    F = random_activation(3, (2, 1, 2, 1), batch=3)
    clean = cg_nonlinearity(F)
    try:
        network.corrupt_cg_entry(*flip)
        bad = cg_nonlinearity(F)
    finally:
        network.clear_cg_corruption()
    want = dense_oracle(F, 3, flip=flip)
    for ell in range(4):
        np.testing.assert_allclose(bad.fragments[ell], want[ell],
                                   rtol=0, atol=1e-13)
    l = flip[2]
    assert np.abs(bad.fragments[l] - clean.fragments[l]).max() > 1e-3
    again = cg_nonlinearity(F)
    for a, b in zip(again.fragments, clean.fragments):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("text", [
    "bandlimit = 5\ngrid_bandwidth = 8\nlayers = 3\ntau = 4\n",   # desk
    "bandlimit = 8\ngrid_bandwidth = 16\nlayers = 3\ntau = 8\n",  # band
])
def test_kernel_tables_follow_the_cost_model(text):
    """The multiply-adds the kernel's stored tables imply stay within 2.5x
    of the cost model's count, layer by layer (a dense CG matrix per pair
    was 11.5-17x)."""
    spec = parse_config(text).network_spec()
    for s in range(spec.n_layers):
        tau, cap = spec._layer_cg(s)
        plan = network._cg_plan(tau, cap)
        stored = sum(table.size * tau.tau[p.l1] * tau.tau[p.l2]
                     for p, table in zip(plan.pairs, plan.tables))
        assert stored <= 2.5 * cg_madd_count(tau, NetworkSpec.pair_policy,
                                             cap)


@pytest.mark.parametrize("tau, out_ell_max", LAYOUT_CASES)
def test_cg_madd_count_recounts_stored_entries(tau, out_ell_max):
    L = len(tau) - 1
    want = sum(len(cg_block(l1, l2, l).entries) * tau[l1] * tau[l2]
               for l1, l2 in cg_pairs(L)
               for l in range(abs(l1 - l2), min(l1 + l2, out_ell_max) + 1))
    got = cg_madd_count(ActivationType(tau), out_ell_max=out_ell_max)
    assert type(got) is int
    assert got == want


def test_one_eigh_per_pair_and_m(monkeypatch):
    """Every pair table of an L=16 layer (tau = 1, cap L) from an empty
    memo: one J^2 eigh per (l1, l2, m), 4161 in all, not one per
    (l1, l2, l, m), 26061."""
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(network, "_PAIR_CACHE", {})
    network._cg_plan.cache_clear()
    L = 16
    network._cg_plan(ActivationType((1,) * (L + 1)), L).tables
    assert len(calls) == 4161


def test_type_queries_build_no_cg_table(monkeypatch):
    def no_tables(*args):
        raise AssertionError("a type query built a CG table")

    monkeypatch.setattr(network, "cg_table", no_tables)
    monkeypatch.setattr(network, "_PAIR_CACHE", {})
    L = 64
    spec = desk_spec(L=L, S=2, width=1)
    assert cg_output_type(spec.input_type()).tau[L] > 0
    assert spec.cg_input_type(1).tau[1:] == (0,) * L
    weights = init_weights(spec, n_out=2, hidden=4)
    assert weights.layers[0][L].shape[0] == spec.cg_input_type(0).tau[L]
    norms = make_norm_states(spec)
    assert [len(n.scales) for n in norms] == [L + 1, L + 1]


def test_one_frozen_plan_per_type_and_cap():
    """A (type, cap) has one memoized ``CGPlan``; it is frozen, its pairs
    hold the column offsets, widths, top degree and row-buffer row of each
    producing pair, and its tables are read-only, corrupted ones too."""
    tau = ActivationType((1, 2))
    plan = network._cg_plan(tau, None)
    assert network._cg_plan(ActivationType((1, 2)), None) is plan
    assert network._cg_plan(tau, 0) is not plan
    assert network._cg_plan.cache_info().maxsize == 256
    # L=1: (0,0) -> l0; (0,1) -> l1; (1,1) -> l0, l1 (l2 capped at L)
    assert plan.out_type == ActivationType((1 + 4, 2 + 4))
    assert [(p.l1, p.l2, p.ells, p.starts, p.n, p.M, p.row0)
            for p in plan.pairs] == [(0, 0, (0,), (0,), 1, 0, 1),
                                     (0, 1, (1,), (0,), 2, 1, 2),
                                     (1, 1, (0, 1), (1, 2), 4, 1, 3)]
    assert (plan.kron_size, plan.y_size) == (3 * 4 * 3, 3 * 4 * 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.out_type = tau
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.pairs[0].row0 = 0
    assert len(plan.tables) == len(plan.pairs)
    try:
        network.corrupt_cg_entry(1, 1, 1, 0)
        corrupted = network._cg_plan(tau, None)
        assert corrupted is not plan
        tables = plan.tables + corrupted.tables
    finally:
        network.clear_cg_corruption()
    assert not np.array_equal(plan.tables[2], corrupted.tables[2])
    assert not any(t.flags.writeable for t in tables)


@pytest.mark.parametrize("text, eigh_calls, tables", [
    pytest.param("bandlimit = 8\ngrid_bandwidth = 16\nlayers = 3\ntau = 8\n",
                 633, 53, id="band"),
    pytest.param("bandlimit = 5\ngrid_bandwidth = 8\nlayers = 3\ntau = 4\n",
                 192, 26, id="desk"),
])
def test_layers_share_cg_tables(monkeypatch, text, eigh_calls, tables):
    """From empty memos, a first band or desk training step builds each
    distinct pair table once, however many layers' plans name it."""
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(network, "_PAIR_CACHE", {})
    network._cg_plan.cache_clear()
    spec = parse_config(text).network_spec()
    F = random_activation(spec.bandlimit, spec.input_type().tau, batch=2)
    weights = init_weights(spec, n_out=2, hidden=4)
    loss_and_grad(F, np.array([0, 1]), weights, make_norm_states(spec),
                  training=True)
    assert (len(calls), len(network._PAIR_CACHE)) == (eigh_calls, tables)


def test_cg_nonlinearity_out_ell_max_zero():
    F = random_activation(2, (1, 2, 1), batch=2)
    got = cg_nonlinearity(F, out_ell_max=0)
    assert got.type.tau[0] == cg_output_type(F.type, out_ell_max=0).tau[0]
    assert all(t == 0 for t in got.type.tau[1:])


def test_cg_nonlinearity_type_consistency():
    F = random_activation(3, (2, 0, 1, 3), batch=1)
    assert cg_nonlinearity(F).type == cg_output_type(F.type)


def test_cg_nonlinearity_equivariant():
    L = 3
    F = random_activation(L, (2, 1, 1, 2), batch=2)
    rot = random_rotation(RNG)
    d = d_matrices(L, rot)
    lhs = cg_nonlinearity(F.rotated(d))
    rhs = cg_nonlinearity(F).rotated(d)
    for a, b in zip(lhs.fragments, rhs.fragments):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_cg_madd_count_small_case():
    # L=1, tau=(1,1): nnz counts are 1 (0x0->0), 3 (0x1->1),
    # 3 (1x1->0) + 6 (1x1->1); l=2 output clipped at L=1... not clipped:
    # out_ell_max defaults to L=1 so (1,1)->2 is dropped.
    n = cg_madd_count(ActivationType((1, 1)))
    assert n == 1 + 3 + (3 + 6)


def test_cg_madd_count_scales_quadratically():
    base = cg_madd_count(ActivationType((2,) * 4))
    double = cg_madd_count(ActivationType((4,) * 4))
    assert double == 4 * base


# --- linear mixing ---

def test_covariant_linear_shapes_and_values():
    F = random_activation(1, (2, 3), batch=2)
    w = [RNG.standard_normal((2, 4)) + 0j, RNG.standard_normal((3, 1)) + 0j]
    G = covariant_linear(F, w)
    assert G.type.tau == (4, 1)
    np.testing.assert_allclose(G.fragments[1], F.fragments[1] @ w[1])


def test_covariant_linear_validates():
    F = random_activation(1, (2, 3))
    with pytest.raises(ValueError):
        covariant_linear(F, [np.zeros((2, 4), dtype=complex)])
    with pytest.raises(ValueError):
        covariant_linear(F, [np.zeros((3, 4), dtype=complex),
                             np.zeros((3, 1), dtype=complex)])


def test_covariant_linear_equivariant():
    F = random_activation(2, (2, 2, 2), batch=2)
    w = [RNG.standard_normal((2, 3)) + 1j * RNG.standard_normal((2, 3))
         for _ in range(3)]
    rot = random_rotation(RNG)
    d = d_matrices(2, rot)
    lhs = covariant_linear(F.rotated(d), w)
    rhs = covariant_linear(F, w).rotated(d)
    for a, b in zip(lhs.fragments, rhs.fragments):
        np.testing.assert_allclose(a, b, atol=1e-12)


# --- normalization ---

def test_normalize_training_updates_expanding_average():
    F = random_activation(1, (2, 1), batch=4)
    G = random_activation(1, (2, 1), batch=4)
    norm = NormState.for_type(F.type)
    covariant_normalize(F, norm, training=True)
    rms_f = np.sqrt(np.mean(np.abs(F.fragments[0]) ** 2, axis=(0, 1)))
    rms_g = np.sqrt(np.mean(np.abs(G.fragments[0]) ** 2, axis=(0, 1)))
    # the first batch replaces the placeholder scales outright
    np.testing.assert_allclose(norm.scales[0], rms_f)
    assert norm.count == 1
    covariant_normalize(G, norm, training=True)
    np.testing.assert_allclose(norm.scales[0], (rms_f + rms_g) / 2.0)
    assert norm.count == 2


@pytest.mark.parametrize("widths", [(1, 2), (3,), (3, 2, 1)])
def test_norm_update_rejects_mismatched_widths(widths):
    # width 1 would broadcast over the activation's 3 columns
    F = random_activation(1, (3, 2), batch=2)
    norm = NormState([np.ones(t) for t in widths], 0)
    with pytest.raises(ValueError, match="widths"):
        norm.update(F)
    assert norm.count == 0


def test_normalize_eval_does_not_update():
    F = random_activation(1, (2, 1))
    norm = NormState.for_type(F.type)
    before = [s.copy() for s in norm.scales]
    out = covariant_normalize(F, norm, training=False)
    for a, b in zip(norm.scales, before):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(out.fragments[0], F.fragments[0])  # scales = 1


def test_normalize_divides_by_scales():
    F = random_activation(1, (1, 1))
    norm = NormState([np.array([4.0]), np.array([0.5])], 1)
    out = covariant_normalize(F, norm)
    np.testing.assert_allclose(out.fragments[0], F.fragments[0] / 4.0)
    np.testing.assert_allclose(out.fragments[1], F.fragments[1] * 2.0)


def test_normalize_dead_fragment_passthrough():
    F = CovariantActivation(0, [np.full((1, 1, 1), 1e-16 + 0j)])
    norm = NormState([np.array([1e-12])], 5)
    out = covariant_normalize(F, norm)
    np.testing.assert_array_equal(out.fragments[0], F.fragments[0])


def test_normalize_equivariant():
    F = random_activation(2, (1, 2, 1), batch=3)
    norm = NormState.for_type(F.type)
    covariant_normalize(F, norm, training=True)
    rot = random_rotation(RNG)
    d = d_matrices(2, rot)
    state = norm.copy()
    lhs = covariant_normalize(F.rotated(d), state)
    rhs = covariant_normalize(F, norm).rotated(d)
    for a, b in zip(lhs.fragments, rhs.fragments):
        np.testing.assert_allclose(a, b, atol=1e-12)


# --- network spec ---

def desk_spec(L=3, S=3, n_in=1, width=4):
    hidden = ActivationType((width,) * (L + 1))
    last = ActivationType((width,) + (0,) * L)
    return NetworkSpec(L, n_in, (hidden,) * (S - 1) + (last,))


def test_spec_validates_final_layer():
    hidden = ActivationType((2, 2))
    with pytest.raises(ValueError):
        NetworkSpec(1, 1, (hidden, hidden))
    with pytest.raises(ValueError):
        NetworkSpec(2, 1, (hidden,))  # bandlimit mismatch


def test_spec_head_width():
    spec = desk_spec(L=2, S=3, n_in=2, width=5)
    assert spec.head_width() == 2 * (3 * 5 + 2)


def test_spec_head_width_mixed_tau():
    types = (ActivationType((3, 1, 1)), ActivationType((7, 0, 0)))
    spec = NetworkSpec(2, 1, types)
    assert spec.head_width() == 2 * (3 + 7 + 1)


def test_invariant_features_layout():
    act = CovariantActivation(0, [np.array([[[1 + 2j, 3 - 1j]]])])
    feats = invariant_features([act], np.array([[[0.5 + 0j]]]))
    np.testing.assert_allclose(feats, [[1.0, 2.0, 3.0, -1.0, 0.5, 0.0]])


# --- full forward pass ---

def build_network(spec, seed=0):
    weights = init_weights(spec, n_out=4, seed=seed)
    return weights, make_norm_states(spec)


def test_network_forward_layer_composition():
    spec = desk_spec()
    weights, norms = build_network(spec)
    F = random_activation(spec.bandlimit, spec.input_type().tau, batch=2)
    # one training pass, so the divisors are not all 1
    network_forward(F, weights.layers, norms, training=True)
    H = cg_nonlinearity(F)
    by_hand = covariant_linear(covariant_normalize(H, norms[0].copy()),
                               weights.layers[0])
    _, outputs, cg_outputs = network_forward(
        F, weights.layers, [n.copy() for n in norms])
    for a, b in zip(by_hand.fragments, outputs[0].fragments):
        np.testing.assert_allclose(a, b, atol=1e-14)
    for a, b in zip(H.fragments, cg_outputs[0].fragments):
        np.testing.assert_array_equal(a, b)


def test_training_forward_updates_norm_states_as_normalize_does():
    spec = desk_spec()
    weights, norms = build_network(spec)
    by_normalize = [n.copy() for n in norms]
    for _ in range(2):  # the second pass takes the expanding average
        F = random_activation(spec.bandlimit, spec.input_type().tau, batch=3)
        _, _, cg_outputs = network_forward(F, weights.layers, norms,
                                           training=True)
        for H, state in zip(cg_outputs, by_normalize):
            covariant_normalize(H, state, training=True)
        for got, want in zip(norms, by_normalize):
            assert got.count == want.count
            for a, b in zip(got.scales, want.scales):
                np.testing.assert_array_equal(a, b)
    assert norms[0].count == 2


def test_network_forward_shapes():
    spec = desk_spec(L=3, S=3, n_in=1, width=4)
    weights, norms = build_network(spec)
    F = random_activation(spec.bandlimit, spec.input_type().tau, batch=5)
    feats, acts, _ = network_forward(F, weights.layers, norms, training=True)
    assert feats.shape == (5, spec.head_width())
    assert feats.dtype == np.float64
    assert len(acts) == 3
    assert all(t == 0 for t in acts[-1].type.tau[1:])


def test_network_forward_invariant_under_rotation():
    spec = desk_spec(L=3, S=3)
    weights, norms = build_network(spec)
    F = random_activation(spec.bandlimit, spec.input_type().tau, batch=2)
    # freeze statistics with one training pass, then evaluate
    network_forward(F, weights.layers, norms, training=True)
    base, _, _ = network_forward(F, weights.layers, norms)
    for _ in range(5):
        d = d_matrices(spec.bandlimit, random_rotation(RNG))
        rot, _, _ = network_forward(F.rotated(d), weights.layers, norms)
        np.testing.assert_allclose(rot, base, atol=1e-8)


def test_network_forward_intermediate_covariance():
    spec = desk_spec(L=3, S=3)
    weights, norms = build_network(spec)
    F = random_activation(spec.bandlimit, spec.input_type().tau, batch=2)
    network_forward(F, weights.layers, norms, training=True)
    d = d_matrices(spec.bandlimit, random_rotation(RNG))
    _, acts, _ = network_forward(F, weights.layers, norms)
    _, acts_r, _ = network_forward(F.rotated(d), weights.layers, norms)
    for a, ar in zip(acts, acts_r):
        expect = a.rotated(d)
        for x, y in zip(ar.fragments, expect.fragments):
            np.testing.assert_allclose(x, y, atol=1e-9)
