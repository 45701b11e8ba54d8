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
    cg_output_type,
    cg_pairs,
    covariant_linear,
    covariant_normalize,
    invariant_features,
    layer_out_ell_max,
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
    # tau=(2,3): (0,0) keeps 3 of its 2x2 columns, (0,1) all 6, (1,1) 6 of 9
    assert cg_output_type(ActivationType((2, 3))).tau == (3 + 6, 6 + 6)
    # a list of counts is held as a tuple, so it can key the memoized layout
    assert cg_output_type(ActivationType([1, 1])).tau == (2, 2)


def test_cg_output_type_counts_products():
    tau = ActivationType((2, 3, 1))
    out = cg_output_type(tau)
    # independent recount straight from the definition: a self-pair keeps
    # the columns (i, j) with i <= j of its grid
    expect = [0, 0, 0]
    for l1, l2 in cg_pairs(2):
        t1, t2 = tau.tau[l1], tau.tau[l2]
        kept = sum(i <= j for i in range(t1) for j in range(t2)) \
            if l1 == l2 else t1 * t2
        for l in range(abs(l1 - l2), min(l1 + l2, 2) + 1):
            expect[l] += kept
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
    got = oracles.cg_product(F, out_ell_max)
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
    got = oracles.cg_product(CovariantActivation(L, frags), out_ell_max)
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
    clean = oracles.cg_product(F)
    try:
        network.corrupt_cg_entry(*flip)
        bad = oracles.cg_product(F)
    finally:
        network.clear_cg_corruption()
    want = dense_oracle(F, 3, flip=flip)
    for ell in range(4):
        np.testing.assert_allclose(bad.fragments[ell], want[ell],
                                   rtol=0, atol=1e-13)
    l = flip[2]
    assert np.abs(bad.fragments[l] - clean.fragments[l]).max() > 1e-3
    again = oracles.cg_product(F)
    for a, b in zip(again.fragments, clean.fragments):
        np.testing.assert_array_equal(a, b)


# the input types of the desk (L=5) and band (L=8) layers, and a type with
# a zero count
TWIN_TYPES = [(1,) * 6, (4,) * 6, (1,) * 9, (8,) * 9, (2, 0, 3, 1)]


@pytest.mark.parametrize("tau", TWIN_TYPES,
                         ids=lambda tau: "tau" + "".join(map(str, tau)))
def test_dropped_self_pair_columns_repeat_kept_ones(tau):
    """On every pair's full tau_l1 x tau_l2 grid of the dense reference, at
    every cap, a self-pair's column (j, i), i < j, is (-1)^l times its
    twin (i, j), and its (i, i) at odd l is zero, to rounding (1e-13 of
    the degree's largest value), so dropping the columns (j, i) loses
    nothing; the kernel's columns are the pairs' columns (i, j), i <= j,
    for a self-pair, all for the others."""
    L, B = len(tau) - 1, 2
    F = random_activation(L, tau, batch=B)
    pairs = cg_pairs(L)
    blocks = {(l1, l2, l): cg_block(l1, l2, l).dense() for l1, l2 in pairs
              for l in range(abs(l1 - l2), min(l1 + l2, L) + 1)}
    for cap in range(L + 1):
        grid = oracles.dense_cg_transform(F.fragments, pairs, blocks, cap,
                                          grid=True)
        got = oracles.cg_product(F, cap).fragments
        start, kept = [0] * (L + 1), [0] * (L + 1)
        for l1, l2 in pairs:
            t1, t2 = tau[l1], tau[l2]
            for l in range(abs(l1 - l2), min(l1 + l2, cap) + 1):
                block = grid[l][..., start[l]:start[l] + t1 * t2].reshape(
                    B, 2 * l + 1, t1, t2)
                start[l] += t1 * t2
                if l1 == l2:
                    # to rounding of the reference's sums over (m1, m2)
                    tol = 1e-13 * np.abs(grid[l]).max()
                    i, j = np.triu_indices(t1, 1)
                    np.testing.assert_allclose(
                        block[..., j, i], (-1) ** l * block[..., i, j],
                        rtol=0, atol=tol)
                    if l % 2:
                        diag = block[..., np.arange(t1), np.arange(t1)]
                        assert np.abs(diag).max(initial=0.0) <= tol
                    i, j = np.triu_indices(t1)
                    block = block[..., i, j]
                else:
                    block = block.reshape(B, 2 * l + 1, t1 * t2)
                n = block.shape[2]
                np.testing.assert_allclose(
                    got[l][..., kept[l]:kept[l] + n], block, rtol=0,
                    atol=1e-13)
                kept[l] += n
        assert tuple(kept) == cg_output_type(F.type, cap).tau


@pytest.mark.parametrize("text", [
    "bandlimit = 5\ngrid_bandwidth = 8\nlayers = 3\ntau = 4\n",   # desk
    "bandlimit = 8\ngrid_bandwidth = 16\nlayers = 3\ntau = 8\n",  # band
])
def test_only_odd_degree_self_pair_diagonals_are_dead(text):
    """For random inputs at every desk and band layer, a CG column is
    identically zero exactly when it is a self-pair's (i, i) at odd degree:
    its RMS is below 1e-13 of the degree's largest, while every other
    column's is above 1e-3 of it.  ``NORM_EPS`` lets those columns, and
    columns an all-zero input leaves zero, pass through unscaled."""
    spec = parse_config(text).network_spec()
    rng = np.random.default_rng(5)
    for s in range(spec.n_layers):
        tau, cap = spec._layer_cg(s)
        H = oracles.cg_product(
            random_activation(spec.bandlimit, tau.tau, batch=3, rng=rng), cap)
        dead = [np.zeros(t, bool) for t in H.type.tau]
        at = [0] * (spec.bandlimit + 1)
        for l1, l2 in cg_pairs(spec.bandlimit):
            t1, t2 = tau.tau[l1], tau.tau[l2]
            for l in range(abs(l1 - l2), min(l1 + l2, cap) + 1):
                if l1 != l2:
                    at[l] += t1 * t2
                    continue
                i, j = np.triu_indices(t1)
                dead[l][at[l]:at[l] + i.size] = (i == j) & (l % 2 == 1)
                at[l] += i.size
        assert tuple(at) == H.type.tau
        for h, d in zip(H.m_major, dead):
            rms = np.sqrt(np.mean(np.abs(h) ** 2, axis=(0, 1)))
            top = rms.max(initial=0.0)
            assert np.all(rms[d] <= 1e-13 * top)
            assert np.all(rms[~d] > 1e-3 * top)


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
        stored = sum(table.size * p.n
                     for p, table in zip(plan.pairs, plan.tables))
        assert stored <= 2.5 * cg_madd_count(tau, NetworkSpec.pair_policy,
                                             cap)


def block_layers(text, name):
    """The (type, cap) of every layer of a config, as pytest params."""
    spec = parse_config(text).network_spec()
    return [pytest.param(*spec._layer_cg(s), id=f"{name}-{s}")
            for s in range(spec.n_layers)]


# every desk and band layer, and a 2-layer L=16 tau = 1 network's first
BLOCK_LAYERS = (
    block_layers("bandlimit = 5\ngrid_bandwidth = 8\nlayers = 3\ntau = 4\n",
                 "desk")
    + block_layers("bandlimit = 8\ngrid_bandwidth = 16\nlayers = 3\ntau = 8\n",
                   "band")
    + [pytest.param(ActivationType((1,) * 17), 16, id="L16")])


@pytest.mark.parametrize("tau, out_ell_max", BLOCK_LAYERS + [
    pytest.param(ActivationType(p.values[0]), *p.values[1:], id=p.id)
    for p in LAYOUT_CASES])
def test_row_blocks_hold_every_table_nonzero(tau, out_ell_max):
    """Each table row's block (``CGPair.blocks``) holds every nonzero of
    the row and keeps two m1 and two degrees where the pair has them.  lo
    and hi never fall and first falls to row m = 0 and then rises, so a
    run's block, from its first row's lo, its last row's hi and its
    nearest row's first, holds the blocks of all its rows.  A pair of 16
    or more m1 keeps its whole table in every row."""
    plan = network._cg_plan(tau, out_ell_max)
    for p, table in zip(plan.pairs, plan.tables):
        d1, k, M = 2 * p.l1 + 1, len(p.ells), p.M
        los, his, firsts = p.blocks
        assert len(los) == len(his) == len(firsts) == 2 * M + 1
        for row, lo, hi, first in zip(table, los, his, firsts):
            outside = np.ones(row.shape, bool)
            outside[first:, lo:hi] = False
            assert not row[outside].any()
            assert hi - lo >= min(2, d1) and k - first >= min(2, k)
        assert list(los) == sorted(los) and list(his) == sorted(his)
        assert list(firsts[:M + 1]) == sorted(firsts[:M + 1], reverse=True)
        assert list(firsts[M:]) == sorted(firsts[M:])
        if d1 >= 16:
            assert p.blocks == ((0,) * (2 * M + 1), (d1,) * (2 * M + 1),
                                (0,) * (2 * M + 1))


@pytest.mark.parametrize("tau, out_ell_max", BLOCK_LAYERS)
def test_row_blocks_follow_the_cost_model(tau, out_ell_max):
    """With a run of one row m each, the table matmuls of the pairs of
    fewer than 16 m1 multiply their blocks, within 1.1x of the cost
    model's multiply-adds for those pairs at every desk and band layer and
    at L=16 (their whole tables are 1.9-2.0x); the pairs of 16 or more m1
    keep their whole tables (``CGPair.blocks``)."""
    plan = network._cg_plan(tau, out_ell_max)
    trimmed = [(p, t) for p, t in zip(plan.pairs, plan.tables) if p.l1 < 8]
    blocks = sum((len(p.ells) - first) * (hi - lo) * p.n for p, _ in trimmed
                 for lo, hi, first in zip(*p.blocks))
    assert blocks <= 1.1 * sum(np.count_nonzero(t) * p.n for p, t in trimmed)


@pytest.mark.parametrize("tau, out_ell_max", LAYOUT_CASES)
def test_cg_madd_count_recounts_stored_entries(tau, out_ell_max):
    L = len(tau) - 1
    # a self-pair keeps tau (tau + 1) / 2 of its tau^2 columns
    want = sum(len(cg_block(l1, l2, l).entries)
               * (tau[l1] * (tau[l1] + 1) // 2 if l1 == l2
                  else tau[l1] * tau[l2])
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


def test_one_frozen_plan_per_type_and_cap(monkeypatch):
    """A (type, cap) has one memoized ``CGPlan``; it is frozen, its pairs
    hold the column offsets, widths, top degree and read-only kept (i, j)
    of each producing pair, and its tables are read-only, corrupted ones
    too."""
    tau = ActivationType((1, 2))
    plan = network._cg_plan(tau, None)
    assert network._cg_plan(ActivationType((1, 2)), None) is plan
    assert network._cg_plan(tau, 0) is not plan
    assert network._cg_plan.cache_info().maxsize == 256
    # L=1: (0,0) -> l0; (0,1) -> l1; (1,1) -> l0, l1 (l2 capped at L);
    # (1,1) keeps the columns (0,0), (0,1) and (1,1) of its 2 x 2 grid
    assert plan.out_type == ActivationType((1 + 3, 2 + 3))
    assert [(p.l1, p.l2, p.ells, p.starts, p.n, p.M, p.mix_row,
             p.grid_row) for p in plan.pairs] == [
        (0, 0, (0,), (0,), 1, 0, 0, 0),
        (0, 1, (1,), (0,), 2, 1, 1, 1),
        (1, 1, (0, 1), (1, 2), 3, 1, 3, 3)]
    # every pair lists its kept (i, j): the whole grid, or i <= j
    assert [p.cols.tolist() for p in plan.pairs] == [
        [[0], [0]], [[0, 0], [0, 1]], [[0, 0, 1], [0, 1, 1]]]
    assert not any(p.cols.flags.writeable for p in plan.pairs)
    # (1,1)'s rows in the degree-major stack of the mixes (degree 0 rows
    # 0..3, degree 1 rows 4..8, zero row 9): kept columns, then its grid
    assert plan.mix_rows.tolist() == [0, 4, 5, 1, 2, 3, 6, 7, 8]
    assert plan.grid_rows.tolist() == [0, 4, 5, 1, 2, 9, 3, 6, 7, 9, 8]
    # the forward works on the kept columns, the adjoint on the grid; of
    # the Kronecker rows, each holds (1,1)'s: its row m and its 3 rows
    assert (plan.kron, plan.y_size) == ((3 * 3, 3 * 3 * 3), 3 * 3 * 2)
    assert (plan.grid_kron, plan.grid_y_size) == ((3 * 4, 3 * 3 * 4),
                                                  3 * 4 * 2)
    # a run holds what the budget holds, at least one row and at most the
    # pair: at B=2, the whole of (1,1)'s 3 rows of 18 elements; with a
    # budget of 40 elements 2 rows of them and (0,1)'s 3 rows of 4, so a
    # region of 40; with a budget of one byte one row, and a region of 18
    assert network._run_size(2, *plan.kron) == 54
    monkeypatch.setattr(network, "_CACHE_BYTES", 16 * 40)
    assert [network._run_size(2, 9, 27) // 18,
            network._run_size(2, 2, 6) // 4] == [2, 3]
    assert network._run_size(2, *plan.kron) == 40
    monkeypatch.setattr(network, "_CACHE_BYTES", 1)
    assert network._run_size(2, 9, 27) // 18 == 1
    assert network._run_size(2, *plan.kron) == 18
    # (1,1)'s 3 rows on i, and its 3 rows on j between M + l1 - l2 = 1
    # spare row at each end
    assert (plan.l1_size, plan.l2_size) == (3 * 3, (1 + 3 + 1) * 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.out_type = tau
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.pairs[0].M = 0
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
    got = oracles.cg_product(F, 0)
    assert got.type.tau[0] == cg_output_type(F.type, out_ell_max=0).tau[0]
    assert all(t == 0 for t in got.type.tau[1:])


def test_cg_nonlinearity_type_consistency():
    F = random_activation(3, (2, 0, 1, 3), batch=1)
    assert oracles.cg_product(F).type == cg_output_type(F.type)


def test_cg_nonlinearity_equivariant():
    L = 3
    F = random_activation(L, (2, 1, 1, 2), batch=2)
    rot = random_rotation(RNG)
    d = d_matrices(L, rot)
    lhs = oracles.cg_product(F.rotated(d))
    rhs = oracles.cg_product(F).rotated(d)
    for a, b in zip(lhs.fragments, rhs.fragments):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_cg_madd_count_small_case():
    # L=1, tau=(1,1): nnz counts are 1 (0x0->0), 3 (0x1->1),
    # 3 (1x1->0) + 6 (1x1->1); l=2 output clipped at L=1... not clipped:
    # out_ell_max defaults to L=1 so (1,1)->2 is dropped.
    n = cg_madd_count(ActivationType((1, 1)))
    assert n == 1 + 3 + (3 + 6)


def test_cg_madd_count_scales_quadratically():
    """At uniform tau = t the count is a t^2 + b t: pairs of two degrees
    keep t^2 columns and self-pairs t (t + 1) / 2, so it has no constant
    term and its second difference over t = 1, 2, 4 vanishes exactly."""
    c1, c2, c4 = (cg_madd_count(ActivationType((t,) * 4)) for t in (1, 2, 4))
    assert c4 - 6 * c2 + 8 * c1 == 0
    assert 3.5 * c2 < c4 < 4 * c2


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


@pytest.mark.parametrize("L", [-1, 65])
def test_spec_rejects_bandlimit_outside_verified_range(L):
    # MAX_DEGREE = 64 bounds the degrees the CG and Wigner tests verify
    last = ActivationType((1,) + (0,) * max(L, 0))
    with pytest.raises(ValueError, match="bandlimit must lie in 0..64"):
        NetworkSpec(L, 1, (last,))


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
    H = oracles.cg_product(F)
    by_hand = covariant_linear(covariant_normalize(H, norms[0].copy()),
                               weights.layers[0])
    _, outputs = network_forward(F, weights.layers,
                                 [n.copy() for n in norms])
    for a, b in zip(by_hand.fragments, outputs[0].fragments):
        np.testing.assert_allclose(a, b, atol=1e-14)
    # the bare product through identity mixes is the CG output H itself
    for a, b in zip(H.fragments, oracles.cg_nonlinearity_gather(F).fragments):
        np.testing.assert_array_equal(a, b)


def test_training_forward_updates_norm_states_as_normalize_does():
    """The training forward's per-pair statistics (and ``NormState.update``
    from the CG output H at layer 0, whose pairs are all narrower than its
    mix) give the scales that ``covariant_normalize`` gives from each
    layer's whole CG output H."""
    spec = desk_spec()
    weights, norms = build_network(spec)
    by_normalize = [n.copy() for n in norms]
    S, L = spec.n_layers, spec.bandlimit
    for _ in range(2):  # the second pass takes the expanding average
        F = random_activation(spec.bandlimit, spec.input_type().tau, batch=3)
        _, outputs = network_forward(F, weights.layers, norms, training=True)
        for s, (x, state) in enumerate(zip([F] + outputs[:-1], by_normalize)):
            H = oracles.cg_product(x, layer_out_ell_max(s, S, L))
            covariant_normalize(H, state, training=True)
        for got, want in zip(norms, by_normalize):
            assert got.count == want.count
            for a, b in zip(got.scales, want.scales):
                np.testing.assert_array_equal(a, b)
    assert norms[0].count == 2


@pytest.mark.parametrize("n_in", [1, 3])
def test_frozen_forward_repeats_the_training_forward(n_in):
    """With the statistics a training forward leaves, a frozen forward on
    the same input gives its features and layer outputs byte for byte:
    the training forward folds each pair's mix rows with the new scales as
    ``NormState.fold`` does, and layer 0, which with one input channel
    mixes its CG output H, folds its mixes with ``NormState.fold``."""
    spec = desk_spec(L=5, n_in=n_in)
    weights, norms = build_network(spec)
    for _ in range(2):  # the second pass takes the expanding average
        F = random_activation(spec.bandlimit, spec.input_type().tau, batch=3)
        feats, outputs = network_forward(F, weights.layers, norms,
                                         training=True)
    frozen_feats, frozen = network_forward(F, weights.layers, norms)
    assert frozen_feats.tobytes() == feats.tobytes()
    for got, want in zip(frozen, outputs):
        for a, b in zip(got.m_major, want.m_major):
            assert a.tobytes() == b.tobytes()


def spy_cg_output(monkeypatch) -> list:
    """The input type of every later ``network._cg_output`` call."""
    built, original = [], network._cg_output

    def spy(plan, F):
        built.append(F.type)
        return original(plan, F)

    monkeypatch.setattr(network, "_cg_output", spy)
    return built


@pytest.mark.parametrize("text, batch", [
    ("bandlimit = 8\ngrid_bandwidth = 16\nlayers = 3\ntau = 8\n", 2),
    ("bandlimit = 5\ngrid_bandwidth = 8\nlayers = 3\ntau = 4\n", 3)])
def test_only_a_layer_of_narrow_pairs_builds_its_cg_output(monkeypatch,
                                                           text, batch):
    """With one input channel every pair of layer 0 is narrower than its
    mix, and no pair of a later layer is: a training step and a frozen
    forward build H (``_cg_output``) at layer 0 and nowhere else."""
    spec = parse_config(text).network_spec()
    weights = init_weights(spec, 3, 8, seed=4)
    norms = make_norm_states(spec)
    built = spy_cg_output(monkeypatch)
    F = random_activation(spec.bandlimit, spec.input_type().tau, batch=batch)
    loss_and_grad(F, np.arange(batch) % 3, weights, norms, training=True)
    assert built == [spec.input_type()]
    built.clear()
    network_forward(F, weights.layers, norms)
    assert built == [spec.input_type()]


def test_layer_of_narrow_and_wide_pairs_mixes_in_place(monkeypatch):
    """A layer where some pairs are narrower than the widest mix and some
    are not mixes each pair in place, frozen and in training, and gives
    the mix of its CG output H."""
    tau, out = (2, 1, 2, 1), (2, 1, 3, 2)
    F = random_activation(3, tau, batch=3)
    plan = network._cg_plan(F.type, None)
    assert {p.n < max(out) for p in plan.pairs} == {True, False}
    cg = plan.out_type.tau
    rng = np.random.default_rng(6)
    mixes = [rng.standard_normal((c, w)) + 1j * rng.standard_normal((c, w))
             for c, w in zip(cg, out)]
    H = oracles.cg_product(F)
    norm = NormState([rng.random(c) + 0.5 for c in cg], 2)
    by_normalize = norm.copy()
    want = [covariant_linear(H, mixes),
            covariant_linear(covariant_normalize(H, by_normalize, True),
                             mixes)]
    built = spy_cg_output(monkeypatch)
    got = [network.cg_nonlinearity(F, None, mixes),
           network.cg_nonlinearity(F, None, mixes, norm)]
    assert built == []
    for g, w in zip(got, want):
        for a, b in zip(g.m_major, w.m_major):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)
    assert norm.count == by_normalize.count == 3
    for a, b in zip(norm.scales, by_normalize.scales):
        np.testing.assert_array_equal(a, b)


def test_network_forward_shapes():
    spec = desk_spec(L=3, S=3, n_in=1, width=4)
    weights, norms = build_network(spec)
    F = random_activation(spec.bandlimit, spec.input_type().tau, batch=5)
    feats, acts = network_forward(F, weights.layers, norms, training=True)
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
    base, _ = network_forward(F, weights.layers, norms)
    for _ in range(5):
        d = d_matrices(spec.bandlimit, random_rotation(RNG))
        rot, _ = network_forward(F.rotated(d), weights.layers, norms)
        np.testing.assert_allclose(rot, base, atol=1e-8)


def test_network_forward_intermediate_covariance():
    spec = desk_spec(L=3, S=3)
    weights, norms = build_network(spec)
    F = random_activation(spec.bandlimit, spec.input_type().tau, batch=2)
    network_forward(F, weights.layers, norms, training=True)
    d = d_matrices(spec.bandlimit, random_rotation(RNG))
    _, acts = network_forward(F, weights.layers, norms)
    _, acts_r = network_forward(F.rotated(d), weights.layers, norms)
    for a, ar in zip(acts, acts_r):
        expect = a.rotated(d)
        for x, y in zip(ar.fragments, expect.fragments):
            np.testing.assert_allclose(x, y, atol=1e-9)
