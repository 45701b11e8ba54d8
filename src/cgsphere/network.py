"""Forward pass of the fully-Fourier covariant spherical network, and the
adjoint of its CG product.

Activations live entirely in Fourier space: a batch of activations is one
complex array per degree l, of shape (batch, 2l+1, tau_l), stored m-major
(see ``CovariantActivation``).  Each column is an irreducible fragment
transforming as v -> D^l(R) v under input rotation.
A layer applies the Clebsch-Gordan tensor-product nonlinearity, a covariant
fragment normalization, and a learnable per-degree linear mix.  The network
output is the invariant feature vector built from all l=0 fragments.
The CG kernels, ``cg_nonlinearity``, its adjoint ``backward_cg`` and the
weight gradient of its mix ``cg_weight_gradient``, read one frozen
``CGPlan`` per (input type, degree cap), so no other module knows the CG
table layout or which columns a pair keeps: a self-pair (l', l') keeps the
columns (i, j), i <= j, of its tau_l' x tau_l' grid, because column (j, i)
is (-1)^l times column (i, j), so the weights, the normalization
statistics and every column-sized array carry no mirrored column.  Each
kernel call takes all its scratch from one block that ``CGPlan.scratch``
lays out, so repeated calls reuse the heap pages of the calls before them
instead of faulting in fresh ones.  No kernel builds a CG output H wider
than its mix: ``cg_nonlinearity`` builds H only where every pair is
narrower than the mix, and mixes it with ``covariant_linear``; everywhere
else it mixes each pair's product in place, in training after updating
the normalization statistics from it; ``cg_weight_gradient`` recomputes
each pair's product from the layer input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import ClassVar

import numpy as np

# cg_block is unused here, but bench/spans.py wraps network.cg_block
from .so3 import MAX_DEGREE, cg_block, cg_table  # noqa: F401


@dataclass(frozen=True)
class ActivationType:
    """Fragment counts per degree, tau = (tau_0, ..., tau_L)."""

    tau: tuple

    def __post_init__(self):
        # a tuple, so that types key the memoized layouts
        object.__setattr__(self, "tau", tuple(self.tau))
        if any(t < 0 for t in self.tau):
            raise ValueError("fragment counts must be non-negative")

    @property
    def bandlimit(self) -> int:
        return len(self.tau) - 1


class CovariantActivation:
    """Batched covariant activation: fragments[l] has shape (B, 2l+1, tau_l).

    Each degree is stored m-major, as a C-contiguous (2l+1, B, tau_l) array
    in ``m_major[l]``; ``fragments[l]`` is its transposed view.  The kernels
    work on the m-major arrays, so one row of 2-D matmul operands is one
    (m, example) pair and no stage reorders its input.  An input that is
    already such a view is stored without a copy.
    """

    def __init__(self, bandlimit: int, fragments: list):
        stored = []
        for f in fragments:
            f = np.asarray(f, dtype=complex)
            # a single (2l+1, tau) example is a batch of one
            stored.append(f[:, None, :] if f.ndim == 2
                          else f.transpose(1, 0, 2))
        self._store(bandlimit, stored)

    @classmethod
    def from_m_major(cls, bandlimit: int, arrays: list) -> "CovariantActivation":
        """Wrap per-degree (2l+1, B, tau_l) arrays, without copying
        C-contiguous complex ones."""
        act = cls.__new__(cls)
        act._store(bandlimit, arrays)
        return act

    def _store(self, bandlimit: int, arrays: list) -> None:
        if len(arrays) != bandlimit + 1:
            raise ValueError("need one fragment matrix per degree 0..L")
        stored = []
        for ell, g in enumerate(arrays):
            if g.shape[0] != 2 * ell + 1:
                raise ValueError(
                    f"fragment matrix for l={ell} must have {2 * ell + 1} rows, "
                    f"got {g.shape[0]}"
                )
            if g.shape[1] != arrays[0].shape[1]:
                raise ValueError("inconsistent batch size across degrees")
            stored.append(np.ascontiguousarray(g, dtype=complex))
        self.bandlimit = bandlimit
        self.m_major = stored

    @property
    def fragments(self) -> list:
        return [g.transpose(1, 0, 2) for g in self.m_major]

    @property
    def batch_size(self) -> int:
        return self.m_major[0].shape[1]

    @property
    def type(self) -> ActivationType:
        return ActivationType(tuple(g.shape[2] for g in self.m_major))

    def rotated(self, d_matrices: list) -> "CovariantActivation":
        """Apply D^l(R) to every fragment (the covariance ground truth)."""
        return CovariantActivation.from_m_major(self.bandlimit, [
            (d_matrices[ell] @ g.reshape(2 * ell + 1, -1)).reshape(g.shape)
            for ell, g in enumerate(self.m_major)
        ])


# --- Clebsch-Gordan product plans ---

def cg_pairs(L: int):
    """Degree pairs entering the tensor-product nonlinearity, l1 <= l2.

    C^l_{l1 m1, l2 m2} = (-1)^{l1+l2-l} C^l_{l2 m2, l1 m1}, so the (l2, l1)
    columns would repeat the (l1, l2) ones up to sign.  For the same reason
    a self-pair (l', l') keeps only the columns (i, j) with i <= j of its
    tau_l' x tau_l' grid: column (j, i) is (-1)^l times column (i, j).
    Every pair lists the (i, j) it keeps in ``CGPair.cols``.  At odd l the
    kept column (i, i) is identically zero; it stays, so that a self-pair
    table that has lost this symmetry shows as a column that breaks
    equivariance, even where tau_l' = 1."""
    return [(l1, l2) for l1 in range(L + 1) for l2 in range(l1, L + 1)]


@dataclass(frozen=True)
class CGPair:
    """A pair (l1, l2) that produces output: its block of degree ``ells[i]``
    fills the columns ``starts[i]`` to ``starts[i] + n``; M = ``ells[-1]``
    is its top degree, ``mix_row`` the first of its len(ells) * n rows in
    the pair-ordered mixing rows, and ``grid_row`` the first of its
    len(ells) * tau_l1 * tau_l2 rows in the pair-ordered grid mixing rows
    (``CGPlan.grid_rows``).

    ``cols`` holds the i and j of the pair's n kept columns (i, j), in
    row-major order, as the rows of one read-only (2, n) index array: the
    whole tau_l1 x tau_l2 grid for l1 < l2, and the n = tau (tau + 1) / 2
    columns with i <= j for a self-pair (``cg_pairs``).

    ``blocks`` holds, per table row m + M, the bounds of the row's nonzero
    table block as three tuples (lo, hi, first): lo and hi bound its m1 +
    l1 window, the m1 in [max(-l1, m - l2), min(l1, m + l2)] with a valid
    m2, and first is the index in ``ells`` of its first degree l >= |m|.
    Each bound is widened to keep two m1 and two degrees where the pair
    has them, because numpy hands a one-row matmul operand to BLAS gemv,
    whose sums round differently from gemm's.  A run of rows a..z
    (``_run_size``) multiplies the block from lo[a] to hi[z] and from the
    first of its row nearest m = 0, so a row's contraction length depends
    on the run it falls in.  OpenBLAS's AVX-512 dgemm sums fewer than 16
    terms in an order that does not depend on the operands' shapes, but
    not always 16 or more; so a pair of 16 or more m1 (l1 >= 8; no pair
    has more degrees than m1) keeps its whole table in every row, until
    the tables take one fixed shape per row m."""

    l1: int
    l2: int
    ells: tuple
    starts: tuple
    n: int
    M: int
    mix_row: int
    grid_row: int
    cols: np.ndarray = field(compare=False)
    blocks: tuple


@dataclass(frozen=True)
class CGPlan:
    """What the CG product of one activation type and degree cap reads and
    writes: the post-CG type, the producing pairs in column order (l1
    ascending, then l2; blocks of one degree sit side by side), and the
    per-example complex sizes of the scratch regions a kernel call cuts
    from its one block (``scratch``), each the largest over the pairs,
    which take turns in it.  The product (``_products``) works on the kept
    columns: one run of Kronecker rows (``kron``: the widest row m and the
    largest pair, see ``_run_size``), the per-m table product, degree l1's
    rows gathered on i (the l1 region), and degree l2's rows gathered on j
    between M + l1 - l2 spare rows at each end (the l2 region, where the
    adjoint copies the conjugated l2 rows, as tau_l2 <= n); the forward
    kernel adds the table product's rows per mixed column, and a training
    forward the pair's squares and column powers (``stat_size``, not per
    example), taken in one call over its product.  The adjoint works on each
    pair's full tau_l1 x tau_l2 grid: one run of the Kronecker cotangent
    (``grid_kron``), the per-m table-product cotangent, and the three
    mat-vec results.  ``_cg_plan`` builds one per (type, cap), and building
    it builds no CG table.
    """

    out_type: ActivationType
    pairs: tuple
    kron: tuple
    y_size: int
    l1_size: int
    l2_size: int
    mix_size: int
    grid_kron: tuple
    grid_y_size: int
    vec_size: int
    stat_size: int

    @cached_property
    def tables(self) -> tuple:
        """Each pair's read-only CG table, taken on first use from the
        memo that every plan with the pair shares."""
        return tuple(_pair_table(p.l1, p.l2, p.ells) for p in self.pairs)

    def _degree_rows(self, grid: bool) -> np.ndarray:
        """For each pair-ordered mixing row (pair by pair, then degree by
        degree, then column: the kept columns, or with ``grid`` every (i, j)
        of the pair's tau_l1 x tau_l2 grid), its row in the stack of every
        degree's mix, or with ``grid`` the zero row below that stack for a
        column a self-pair does not keep."""
        first = np.cumsum((0,) + self.out_type.tau[:-1])
        zero = sum(self.out_type.tau)
        rows = []
        for p in self.pairs:
            kept = np.arange(p.n)
            if grid:
                # the last kept column is (tau_l1 - 1, tau_l2 - 1)
                kept = np.full(tuple(p.cols[:, -1] + 1), -1)
                kept[p.cols[0], p.cols[1]] = np.arange(p.n)
                kept = kept.ravel()
            for l, c in zip(p.ells, p.starts):
                rows.append(np.where(kept < 0, zero, first[l] + c + kept))
        return np.concatenate(rows or [np.zeros(0, int)])

    @cached_property
    def mix_rows(self) -> np.ndarray:
        """The degree-stack row of each pair-ordered mixing row, kept
        columns only (the forward kernel's mix)."""
        return self._degree_rows(grid=False)

    @cached_property
    def grid_rows(self) -> np.ndarray:
        """The degree-stack row of each pair-ordered grid mixing row, a
        self-pair's dropped columns reading the zero row (the adjoint's
        mix, so its cotangents stay on the full grid)."""
        return self._degree_rows(grid=True)

    @staticmethod
    def scratch(*sizes: int) -> list:
        """Every region a kernel call works in, cut from one ``np.empty``
        block: flat views of ``sizes`` complex elements each.  A pair views
        a region's leading elements through ``np.ndarray(shape, dtype,
        buffer)``."""
        ends = list(accumulate((0,) + sizes))
        block = np.empty(ends[-1], complex)
        return [block[a:b] for a, b in zip(ends[:-1], ends[1:])]


@lru_cache(maxsize=256)
def _cg_plan(tau: ActivationType, out_ell_max: int | None) -> CGPlan:
    """The memoized ``CGPlan`` of the CG product of an activation of type
    ``tau`` keeping degrees up to ``out_ell_max`` (None: all)."""
    L = tau.bandlimit
    if out_ell_max is None:
        out_ell_max = L
    widths = [0] * (L + 1)
    pairs, grid_row = [], 0
    for l1, l2 in cg_pairs(L):
        t1, t2 = tau.tau[l1], tau.tau[l2]
        ells = tuple(range(abs(l1 - l2), min(l1 + l2, out_ell_max) + 1))
        if t1 * t2 == 0 or not ells:
            continue
        cols = np.array(np.triu_indices(t1) if l1 == l2
                        else np.indices((t1, t2)).reshape(2, -1))
        cols.flags.writeable = False
        n, M, d1 = cols.shape[1], ells[-1], 2 * l1 + 1
        m = range(-M, M + 1)
        if d1 >= 16:  # the whole table (``CGPair.blocks``)
            blocks = ((0,) * len(m), (d1,) * len(m), (0,) * len(m))
        else:
            blocks = (
                tuple(min(max(0, k + l1 - l2), max(0, d1 - 2)) for k in m),
                tuple(max(min(d1, k + l1 + l2 + 1), min(2, d1)) for k in m),
                tuple(min(max(0, abs(k) - ells[0]), max(0, len(ells) - 2))
                      for k in m))
        pairs.append(CGPair(l1, l2, ells, tuple(widths[l] for l in ells), n,
                            M, sum(widths), grid_row, cols, blocks))
        grid_row += len(ells) * t1 * t2
        for l in ells:
            widths[l] += n

    def largest(size):
        return max(map(size, pairs), default=0)

    def grid(p):
        return tau.tau[p.l1] * tau.tau[p.l2]

    def kron(n):  # the widest Kronecker row m, and the largest pair
        return (largest(lambda p: (2 * p.l1 + 1) * n(p)),
                largest(lambda p: (2 * p.M + 1) * (2 * p.l1 + 1) * n(p)))

    return CGPlan(
        ActivationType(tuple(widths)), tuple(pairs), kron(lambda p: p.n),
        largest(lambda p: (2 * p.M + 1) * p.n * len(p.ells)),
        largest(lambda p: (2 * p.l1 + 1) * p.n),
        largest(lambda p: (2 * p.M + 2 * p.l1 + 1) * p.n),
        largest(lambda p: (2 * p.M + 1) * len(p.ells)), kron(grid),
        largest(lambda p: (2 * p.M + 1) * grid(p) * len(p.ells)),
        # k_bar G2, its sum over m, and G1^H k_bar
        largest(lambda p: (2 * p.l1 + 1) * ((2 * p.M + 2) * tau.tau[p.l1]
                                            + (2 * p.M + 1) * tau.tau[p.l2])),
        # a training forward's column powers
        largest(lambda p: len(p.ells) * p.n))


_PAIR_CACHE: dict = {}
_CORRUPTION: dict = {}


def corrupt_cg_entry(ell1: int, ell2: int, ell: int, index: int = 0) -> None:
    """Negate one stored CG coefficient (test-sensitivity hook).

    Affects all tables built afterwards, and drops every table and every
    plan that holds one; call ``clear_cg_corruption`` to restore.
    """
    _CORRUPTION[(ell1, ell2, ell)] = index
    _PAIR_CACHE.clear()
    _cg_plan.cache_clear()


def clear_cg_corruption() -> None:
    _CORRUPTION.clear()
    _PAIR_CACHE.clear()
    _cg_plan.cache_clear()


def _pair_table(ell1: int, ell2: int, ells: tuple) -> np.ndarray:
    """Memoized ``cg_table(ell1, ell2, ells)`` of pair (ell1, ell2) for
    degrees ``ells``, shared by every plan with that pair, whose corrupted
    block (l, idx) has the idx-th nonzero of ``table[:, i]`` in (m, then m1)
    order, ``cg_block(ell1, ell2, l).entries[idx]``, negated.  Read-only."""
    key = (ell1, ell2, ells)
    if key not in _PAIR_CACHE:
        table = cg_table(ell1, ell2, ells)
        for i, l in enumerate(ells):
            if (ell1, ell2, l) in _CORRUPTION:
                table = table.copy()
                m, k = np.nonzero(table[:, i])
                j = _CORRUPTION[(ell1, ell2, l)] % m.size
                table[m[j], i, k[j]] *= -1.0
                table.flags.writeable = False
        _PAIR_CACHE[key] = table
    return _PAIR_CACHE[key]


def cg_output_type(tau: ActivationType,
                   out_ell_max: int | None = None) -> ActivationType:
    """Fragment counts after the CG nonlinearity (before linear mixing)."""
    return _cg_plan(tau, out_ell_max).out_type


def cg_madd_count(tau: ActivationType, policy: str = "unordered",
                  out_ell_max: int | None = None) -> int:
    """Multiply-add count of the CG transform for one example under the
    paper's cost model: each stored nonzero CG coefficient touches each of
    its pair's kept columns once, tau_l1 * tau_l2 of them, or tau (tau + 1)
    / 2 for a self-pair (``CGPair.n``).  The padded tables hold about 2x
    as many entries at L = 8, but each run of rows m in the kernels
    multiplies only its nonzero block (``CGPair.blocks``): with one row
    per run the blocks come to about 1.10-1.14x the count at band, whose
    pair (8, 8) keeps its whole table, and 1.09x at desk.
    ``policy`` must be ``NetworkSpec.pair_policy``.
    """
    if policy != NetworkSpec.pair_policy:
        raise ValueError(f"pair policy {policy!r} is not unordered")
    plan = _cg_plan(tau, out_ell_max)
    return int(sum(np.count_nonzero(table) * p.n
                   for p, table in zip(plan.pairs, plan.tables)))


def _stack_mixes(mixes: list, rows: np.ndarray, by_degree: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """The rows ``rows`` (``CGPlan.mix_rows`` or ``grid_rows``) of every
    degree's mix, padded with zero columns to the widest, stacked in degree
    order above one zero row in the flat region ``by_degree`` and taken
    into the flat region ``out``."""
    width = max(w.shape[1] for w in mixes)
    by_degree = by_degree.reshape(sum(map(len, mixes)) + 1, width)
    np.concatenate(
        [w if w.shape[1] == width else
         np.pad(w, ((0, 0), (0, width - w.shape[1])))
         for w in mixes if len(w)] or [np.zeros((0, width), complex)],
        out=by_degree[:-1])
    by_degree[-1] = 0.0
    # the indices are in range; "clip" only spares take a buffered copy
    return np.take(by_degree, rows, axis=0, mode="clip",
                   out=out.reshape(len(rows), width))


def _per_degree(block: np.ndarray, B: int, widths: tuple) -> list:
    """Per-degree m-major (2l+1, B, widths[l]) views of the leading
    elements of the flat complex ``block``, degree after degree."""
    ends = accumulate((2 * l + 1) * B * w for l, w in enumerate(widths))
    return [block[e - (2 * l + 1) * B * w:e].reshape(2 * l + 1, B, w)
            for l, (e, w) in enumerate(zip(ends, widths))]


# the Kronecker rows all three CG kernels form at a time: band steps (L=8,
# tau=8, B=32, 2 MB of L2 cache per core) took the same time with forward
# runs of 64 KB to 1 MB, 6% more with each pair whole; adjoint runs of 256
# KB, 512 KB, 1 MB and 2 MB read 65.9, 65.9, 66.5, 67.3 MB band peak RSS
_CACHE_BYTES = 1 << 18


def _run_size(B: int, row: int, pair: int) -> int:
    """The complex size of a run of Kronecker rows m of ``row`` elements
    per example of a pair of ``pair``: ``_CACHE_BYTES``, at least a row, at
    most the pair, so at the widest row and largest pair it holds all."""
    return min(B * pair, max(_CACHE_BYTES // 16, B * row))


def _products(plan: CGPlan, G: list, kron_ws: np.ndarray, y_ws: np.ndarray,
              l1_ws: np.ndarray, l2_ws: np.ndarray):
    """Each pair's CG table product, in pair order: yields each pair once
    its product, degree-major, (#ells, 2M+1, B, n), fills the head of
    ``y_ws``, which the next product overwrites.  The regions are the
    Kronecker region of one run (``_run_size``), and the table-product, l1
    and l2 regions of ``CGPlan``, in that order.

    A pair forms only its kept columns c = (i, j) (``CGPair.cols``):
    kron[m, k, b, c] = G1[m1, b, i] G2[m - m1, b, j], k = m1 + l1.  One
    ``take`` gathers degree l1's rows on i into the l1 region, and one
    gathers degree l2's rows on j into the l2 region, below M + l1 - l2
    rows, so that output m, which only reads the rows with m1 + m2 = m,
    reads its l2 rows m - m1 through one sheared view of that region.  The
    Kronecker product is then a multiply of two operands whose (B, n)
    blocks are contiguous, followed by a batched matmul over m with the
    pair's table, both on runs of rows m (``_run_size``), so that the
    table reads each run from cache.  Both work only on the run's block
    (``CGPair.blocks``): the m1 window of its rows, and the degrees l >=
    |m| of its row nearest m = 0, so the matmul skips the table's zero
    padding; the product's rows at the degrees below the block are
    zeroed.  In block l of the product the rows |m| > l are exact zeros,
    because the table is."""
    B, item = G[0].shape[1], l2_ws.itemsize
    # the l2 rows m - m1 with no valid m2 read zeros or an earlier pair's
    # finite rows, which the CG table weighs by zero
    l2_ws[:] = 0.0
    for p, table in zip(plan.pairs, plan.tables):
        l1, l2, M, n, d1 = p.l1, p.l2, p.M, p.n, 2 * p.l1 + 1
        S = B * n * item
        # the indices are in range; "clip" only spares take a buffered copy
        G1 = np.take(G[l1], p.cols[0], axis=2, mode="clip",
                     out=np.ndarray((d1, B, n), complex, l1_ws))
        np.take(G[l2], p.cols[1], axis=2, mode="clip",
                out=np.ndarray((2 * l2 + 1, B, n), complex, l2_ws,
                               (M + l1 - l2) * S))
        # [m + M, m1 + l1] reads region row m - m1 + M + l1
        G2 = np.ndarray((2 * M + 1, d1, B, n), complex, l2_ws, 2 * l1 * S,
                        (S, -S, n * item, item))
        y = np.ndarray((len(p.ells), 2 * M + 1, 2 * B * n), float,
                       y_ws).transpose(1, 0, 2)
        # a run of rows m at a time, whose Kronecker rows are still in
        # cache when the real table acts on their re/im float view
        los, his, firsts = p.blocks
        step = _run_size(B, d1 * n, (2 * M + 1) * d1 * n) // (d1 * B * n)
        for a in range(0, 2 * M + 1, step):
            # run a..z's block (``CGPair.blocks``); its row nearest m = 0
            # is z below row M, a above it, and otherwise M
            z = a + step - 1 if a + step <= 2 * M else 2 * M
            k0, k1 = los[a], his[z]
            i = firsts[z if z < M else a if a > M else M]
            m = G2[a:z + 1, k0:k1]
            np.multiply(G1[k0:k1], m,
                        out=np.ndarray(m.shape, complex, kron_ws))
            if i:  # the degrees below the block are zero at every row
                y[a:z + 1, :i] = 0.0
            np.matmul(table[a:z + 1, i:, k0:k1],
                      np.ndarray((z + 1 - a, k1 - k0, 2 * B * n), float,
                                 kron_ws),
                      out=y[a:z + 1, i:])
        yield p


def _cg_output(plan: CGPlan, F: CovariantActivation) -> CovariantActivation:
    """The CG output H of ``F``: each pair's product (``_products``) copies
    its blocks' valid rows into their columns (``CGPair.starts``) of H,
    whose m-major degrees are the last region of the products' one scratch
    block."""
    B, widths = F.batch_size, plan.out_type.tau
    *regions, h_ws = plan.scratch(
        _run_size(B, *plan.kron), plan.y_size * B, plan.l1_size * B,
        plan.l2_size * B,
        B * sum((2 * l + 1) * t for l, t in enumerate(widths)))
    H = _per_degree(h_ws, B, widths)
    for p in _products(plan, F.m_major, *regions):
        M, n = p.M, p.n
        y = np.ndarray((len(p.ells), 2 * M + 1, B, n), complex, regions[1])
        for i, (l, c) in enumerate(zip(p.ells, p.starts)):
            H[l][:, :, c:c + n] = y[i, M - l:M + l + 1]
    return CovariantActivation.from_m_major(F.bandlimit, H)


def cg_nonlinearity(F: CovariantActivation, out_ell_max: int | None,
                    mixes: list, norm: NormState | None = None
                    ) -> CovariantActivation:
    """Tensor-product nonlinearity followed by the layer's mix: all
    pairwise Kronecker products, decomposed into irreducible fragments by
    the CG selection rule (``_products``).  Returns
    ``covariant_linear(H, mixes)`` of the CG output H; identity mixes give
    H itself, exactly.

    ``mixes`` are a layer's per-degree mixes, one row per CG column: with
    frozen statistics (eval, audit) its folded weights
    (``NormState.fold``).  ``norm``, the layer's state, makes the call the
    forward of a training step, and ``mixes`` the unfolded weights W,
    folded with the scales this batch updates; ``norm.count`` advances
    once.

    One rule per call picks how to mix.  Where every pair is narrower than
    the widest mix (n < width, such as every pair of a first layer with one
    input channel), a pair's mix would be an outer product as wide as the
    mix, and H is no wider than the mix: the call builds H
    (``_cg_output``), in training takes ``NormState.update`` and
    ``NormState.fold``, and returns ``covariant_linear``.  Every other call
    builds no H.  It stacks the mixes once in pair order
    (``CGPlan.mix_rows``), padded with zero columns to the widest, and
    mixes each pair's degree-major product by its rows in one batched
    matmul, whose blocks are added into a degree-stacked accumulator (the
    rows |m| > l of block l are zero and land outside degree l's rows).
    In training, while each pair's product is in cache, one
    ``_column_power`` call over it (the zero rows leave each column's sum
    unchanged) updates ``norm``'s expanding average for the pair's columns
    (each column belongs to one pair, so the scales are those
    ``NormState.update(H)`` would give, bit for bit), and the pair's mix
    rows are folded with the new scales, as ``NormState.fold`` folds them,
    before the pair is mixed.

    Every buffer the pairs work in, one run of Kronecker rows m among
    them (``_run_size``), is a region of one scratch block, which is freed
    when the call returns, and the pairs write into their regions with
    ``out=``.  Repeated calls therefore do not fault in fresh pages: glibc
    serves a block above its mmap threshold with a fresh mapping, but
    freeing one raises that threshold to the block's size (up to 32 MB),
    so the next call's same-size block comes from the heap pages the last
    one left.  Many separate blocks of different sizes, allocated and
    freed in turn, keep being unmapped or trimmed instead.
    """
    tau, B, G = F.type, F.batch_size, F.m_major
    plan = _cg_plan(tau, out_ell_max)
    if tuple(map(len, mixes)) != plan.out_type.tau:
        raise ValueError("mixes do not match the CG output widths")
    training = norm is not None
    if training and tuple(map(len, norm.scales)) != plan.out_type.tau:
        raise ValueError("norm state widths do not match the CG output "
                         "widths")
    width = max(w.shape[1] for w in mixes)
    if all(p.n < width for p in plan.pairs):
        H = _cg_output(plan, F)
        if training:
            norm.update(H)
            mixes = norm.fold(mixes)
        return covariant_linear(H, mixes)
    # the degrees with CG columns are 0..top; degree l of the mixed output
    # is rows (top - l .. top + l) * B of acc[l]
    top = max(p.M for p in plan.pairs)
    acc = np.zeros((top + 1, (2 * top + 1) * B, width), complex)
    n_mix = sum(plan.out_type.tau)
    # in training the scales in pair order, and each pair's squares and
    # column powers, as floats
    n_stat = n_mix + 3 * plan.stat_size if training else 0
    *regions, by_degree, stacked, mixed_ws, stat_ws = plan.scratch(
        _run_size(B, *plan.kron), plan.y_size * B, plan.l1_size * B,
        plan.l2_size * B, (n_mix + 1) * width, n_mix * width,
        plan.mix_size * B * width, (n_stat + 1) // 2)
    y_ws = regions[1]
    stacked = _stack_mixes(mixes, plan.mix_rows, by_degree, stacked)
    if training:
        stat = np.ndarray((n_stat,), float, stat_ws)
        scales = np.take(np.concatenate(norm.scales), plan.mix_rows,
                         out=stat[:n_mix])
        work = stat[n_mix:]
        # the (m, example) rows of each degree
        dims = (2.0 * np.arange(top + 1)[:, None] + 1.0) * B
    for p in _products(plan, G, *regions):
        M, n, k = p.M, p.n, len(p.ells)
        R = (2 * M + 1) * B
        rows = slice(p.mix_row, p.mix_row + k * n)
        if training:
            # block l's rows |m| > l are zeros, which leave each column's
            # row-order sum of squares as NormState.update takes it in H
            power = work[2 * k * n:3 * k * n].reshape(k, n)
            _column_power(np.ndarray((k, R, 2 * n), float, y_ws),
                          work[:2 * k * n].reshape(k, 2 * n), power)
            s = scales[rows].reshape(k, n)
            norm._average(s, power, dims[p.ells[0]:M + 1])
            _fold_rows(stacked[rows], _reciprocals(s, out=power).ravel())
        # each block's (m, example) rows are one matrix
        mixed = np.matmul(np.ndarray((k, R, n), complex, y_ws),
                          stacked[rows].reshape(k, n, width),
                          out=np.ndarray((k, R, width), complex, mixed_ws))
        acc[p.ells[0]:M + 1, (top - M) * B:(top + M + 1) * B] += mixed
    if training:
        flat = np.empty(n_mix)
        flat[plan.mix_rows] = scales
        norm.scales = np.split(flat, np.cumsum(plan.out_type.tau)[:-1])
        norm.count += 1
    acc = acc.reshape(top + 1, 2 * top + 1, B, width)
    out = [acc[l, top - l:top + l + 1, :, :w.shape[1]] if len(w)
           else np.zeros((2 * l + 1, B, w.shape[1]), complex)
           for l, w in enumerate(mixes)]
    return CovariantActivation.from_m_major(F.bandlimit, out)


def cg_weight_gradient(G_bar: list, F: CovariantActivation,
                       out_ell_max: int | None = None) -> list:
    """The weight gradient H_l^H G_bar_l of the mix G_l = H_l W_l that
    follows the CG product H of ``F``, per degree, unfolded (the gradient
    of the unfolded weights is ``NormState.fold`` of it), without building
    H: each pair's product is recomputed by ``_products``, in runs as the
    forward kernel forms it, from one scratch block, and each block meets
    its degree's conjugated cotangent in one matmul over the block's valid
    (m, example) rows, written straight into the block's rows of the
    gradient.  Unlike the forward's mix, this matmul gives only n x width
    entries, so a pair narrower than the cotangent (n < width) takes it
    too.  Cotangents are in the convention of ``gradients``.  Returns
    per-degree (columns, width_l) arrays.
    """
    B, G = F.batch_size, F.m_major
    Gb = CovariantActivation(F.bandlimit, G_bar).m_major
    plan = _cg_plan(F.type, out_ell_max)
    G_conj = [np.conjugate(g).reshape(g.shape[0] * B, g.shape[2])
              for g in Gb]
    W_conj = [np.empty((c, g.shape[1]), complex)
              for c, g in zip(plan.out_type.tau, G_conj)]
    regions = plan.scratch(_run_size(B, *plan.kron), plan.y_size * B,
                           plan.l1_size * B, plan.l2_size * B)
    for p in _products(plan, G, *regions):
        M, n = p.M, p.n
        y = np.ndarray((len(p.ells), 2 * M + 1, B, n), complex, regions[1])
        for i, (l, c) in enumerate(zip(p.ells, p.starts)):
            # y^T conj(G_bar): the conjugate of the block's H^H G_bar
            np.matmul(y[i, M - l:M + l + 1].reshape(-1, n).T, G_conj[l],
                      out=W_conj[l][c:c + n])
    return [np.conjugate(w, out=w) for w in W_conj]


def backward_cg(G_bar: list, F: CovariantActivation, mixes: list,
                out_ell_max: int | None = None) -> list:
    """Adjoint of the CG nonlinearity followed by the mix G_l = H_l V_l
    (identity mixes give the CG adjoint alone), with cotangents in the
    convention of ``gradients``; mirrors the forward column order exactly.
    Self-pairs accumulate both branch gradients.

    The adjoint works on each pair's full tau_l1 x tau_l2 grid of columns:
    the conjugated mixes are stacked once per call in pair order on that
    grid (``CGPlan.grid_rows``), a self-pair's dropped columns (j, i), i <
    j, reading a zero row, so those columns get a zero cotangent, as a
    column that feeds no output must.  Per pair and degree, G_bar_l V_l^H
    on the pair's columns is one 2-D matmul over the (2l+1)*B rows,
    written straight into the degree-major (#ells, 2M+1, B, n) workspace,
    whose transposed view the transposed table maps back to the Kronecker
    rows (m, m1) in runs of rows m (``_run_size``), on which each factor's
    cotangent is a batched mat-vec with the other factor's conjugate.  As
    in ``_products``, each run's table matmul and both mat-vecs work only
    on the run's block (``CGPair.blocks``); each run zeroes the l1
    cotangent's (m, m1) cells outside its m1 window, because the sum over
    m reads them, while the l2 slice-adds read only cells with a valid m2,
    which every block holds.  Every degree of ``F`` is conjugated
    once per call; per pair, the conjugated l2 rows are copied into the l2
    region below M + l1 - l2 rows and read as rows m - m1 through the same
    sheared view as in ``_products``.  After the runs, the l1 cotangent is
    summed over m, and the l2 cotangent is added back to its rows m2 = m -
    m1 in one slice per m1.  As in ``cg_nonlinearity``, every buffer the
    pairs work in, the conjugated mixes included, is a region of one
    scratch block, and the cotangents are views of one zeroed output block.
    Returns m-major views.
    """
    B, G, tau = F.batch_size, F.m_major, F.type.tau
    Gb = CovariantActivation(F.bandlimit, G_bar).m_major
    plan = _cg_plan(F.type, out_ell_max)
    if [len(v) for v in mixes] != list(plan.out_type.tau):
        raise ValueError("mixes do not match the CG output widths")
    size = B * sum((2 * l + 1) * t for l, t in enumerate(tau))
    F_bar = _per_degree(np.zeros(size, complex), B, tau)
    width = max(v.shape[1] for v in mixes)
    conj_ws, l2_ws, k_ws, y_ws, by_degree, grid_ws, vec_ws = plan.scratch(
        size, plan.l2_size * B, _run_size(B, *plan.grid_kron),
        plan.grid_y_size * B, (sum(plan.out_type.tau) + 1) * width,
        len(plan.grid_rows) * width, plan.vec_size * B)
    G_conj = _per_degree(conj_ws, B, tau)
    for g, c in zip(G, G_conj):
        np.conjugate(g, out=c)
    # as in _products, rows m - m1 with no valid m2 read zeros or an
    # earlier pair's finite rows, which the CG table weighs by zero
    l2_ws[:] = 0.0
    V_conj = _stack_mixes(mixes, plan.grid_rows, by_degree, grid_ws)
    np.conjugate(V_conj, out=V_conj)
    item = l2_ws.itemsize
    for p, table in zip(plan.pairs, plan.tables):
        l1, l2, M, d1 = p.l1, p.l2, p.M, 2 * p.l1 + 1
        t1, t2 = tau[l1], tau[l2]
        n = t1 * t2
        y_bar = np.ndarray((len(p.ells), 2 * M + 1, B, n), complex, y_ws)
        for i, l in enumerate(p.ells):
            r, w = p.grid_row + i * n, Gb[l].shape[2]
            y_bar[i, :M - l] = 0.0
            np.matmul(Gb[l].reshape((2 * l + 1) * B, w),
                      V_conj[r:r + n, :w].T,
                      out=y_bar[i, M - l:M + l + 1].reshape(-1, n))
            y_bar[i, M + l + 1:] = 0.0
        y = np.ndarray((len(p.ells), 2 * M + 1, 2 * B * n), float,
                       y_ws).transpose(1, 0, 2)
        # the conjugate factors: l2 rows m - m1, and l1's own rows
        S = B * t2 * item
        np.copyto(np.ndarray(G_conj[l2].shape, complex, l2_ws,
                             (M + l1 - l2) * S), G_conj[l2])
        G2 = np.ndarray((2 * M + 1, d1, B, t2, 1), complex, l2_ws,
                        2 * l1 * S, (S, -S, t2 * item, item, item))
        G1 = G_conj[l1][:, :, None, :]
        kg = np.ndarray((2 * M + 1, d1, B, t1, 1), complex, vec_ws)
        kg_sum = np.ndarray((d1, B, t1, 1), complex, vec_ws, kg.nbytes)
        g2_bar = np.ndarray((2 * M + 1, d1, B, 1, t2), complex, vec_ws,
                            kg.nbytes + kg_sum.nbytes)
        # a run of rows m at a time, still in cache when the mat-vecs read it
        los, his, firsts = p.blocks
        step = _run_size(B, d1 * n, (2 * M + 1) * d1 * n) // (d1 * B * n)
        for a in range(0, 2 * M + 1, step):
            # run a..z's block (``CGPair.blocks``); its row nearest m = 0
            # is z below row M, a above it, and otherwise M
            z = a + step - 1 if a + step <= 2 * M else 2 * M
            k0, k1 = los[a], his[z]
            i = firsts[z if z < M else a if a > M else M]
            # the m-sum reads kg outside the run's m1 window too
            if k0:
                kg[a:z + 1, :k0] = 0.0
            if k1 < d1:
                kg[a:z + 1, k1:] = 0.0
            t = table[a:z + 1, i:, k0:k1]
            np.matmul(t.transpose(0, 2, 1), y[a:z + 1, i:],
                      out=np.ndarray((len(t), k1 - k0, 2 * B * n), float,
                                     k_ws))
            k_bar = np.ndarray((len(t), k1 - k0, B, t1, t2), complex, k_ws)
            np.matmul(k_bar, G2[a:z + 1, k0:k1], out=kg[a:z + 1, k0:k1])
            np.matmul(G1[k0:k1], k_bar, out=g2_bar[a:z + 1, k0:k1])
        F_bar[l1] += np.sum(kg, axis=0, out=kg_sum)[..., 0]
        c = l1 + l2 - M  # [m + M, m1 + l1] reads row m2 + l2 = j - k + c
        for k in range(d1):
            lo, hi = max(0, k - c), min(2 * M + 1, k - c + 2 * l2 + 1)
            F_bar[l2][lo - k + c:hi - k + c] += g2_bar[lo:hi, k, :, 0]
    return [f.transpose(1, 0, 2) for f in F_bar]


# --- covariant linear mixing ---

def covariant_linear(F: CovariantActivation, weights: list) -> CovariantActivation:
    """Mix fragments degree by degree: G_l = F_l @ W_l (the mix of a CG
    layer whose every pair is narrower than its mix, see
    ``cg_nonlinearity``; every other layer mixes inside the kernel)."""
    if len(weights) != F.bandlimit + 1:
        raise ValueError("need one weight matrix per degree")
    out = []
    for ell, (g, w) in enumerate(zip(F.m_major, weights)):
        if w.shape[0] != g.shape[2]:
            raise ValueError(
                f"weight rows ({w.shape[0]}) must match input fragment count "
                f"({g.shape[2]}) at l={ell}"
            )
        d, B, t = g.shape
        # as one 2-D matmul over the (2l+1)*B rows of the m-major array
        out.append((g.reshape(d * B, t) @ w).reshape(d, B, w.shape[1]))
    return CovariantActivation.from_m_major(F.bandlimit, out)


# --- covariant normalization ---

NORM_EPS = 1e-8


def _column_power(x: np.ndarray, squares: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """|f|^2 of each complex column summed over the rows, from the re/im
    float view ``x`` (..., rows, 2 * columns), with any leading batch axes:
    each float column's squares summed in row order, then re + im."""
    squares = np.einsum("...ij,...ij->...j", x, x, out=squares)
    return np.add(squares[..., 0::2], squares[..., 1::2], out=out)


def _fold_rows(rows: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Multiply each complex mix row of ``rows`` by its factor in ``r``,
    in place, on the re/im float view, as ``NormState.fold`` does."""
    f = rows.view(float)
    np.multiply(f, r[..., None], out=f)
    return rows


def _divisors(scales: np.ndarray) -> np.ndarray:
    """The divisor of each column of the normalization: its scale, or 1
    where the scale is below ``NORM_EPS``.

    Such a column passes through unscaled: dividing its rounding noise by
    a tiny scale would amplify it.  The CG columns that are identically
    zero for every input are a self-pair's (i, i) at odd degree
    (``cg_pairs``), so this rule holds for them, and for columns an
    all-zero input leaves zero."""
    return np.where(scales < NORM_EPS, 1.0, scales)


def _reciprocals(scales: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
    """1 / each scale's divisor (``_divisors``), the factors
    ``NormState.fold`` multiplies the mix rows by."""
    return np.divide(1.0, _divisors(scales), out=out)


@dataclass
class NormState:
    """Expanding-average fragment scales for one layer's post-CG activation.

    A training forward updates them inside ``cg_nonlinearity``: from the
    CG output H with ``update``, where every pair of the layer is narrower
    than its mix, and otherwise pair by pair, one ``_column_power`` call
    over each pair's CG product.  ``update`` also serves
    ``covariant_normalize``.  Both take the one expanding-average step
    ``_average``, so they agree bit for bit, and ``count`` advances once
    per update of the layer.  Every divisor comes from ``_divisors``.
    """

    scales: list = field(default_factory=list)   # per-l float arrays (tau_l,)
    count: int = 0

    @classmethod
    def for_type(cls, tau: ActivationType) -> "NormState":
        return cls([np.ones(t) for t in tau.tau], 0)

    def copy(self) -> "NormState":
        return NormState([s.copy() for s in self.scales], self.count)

    def fold(self, weights: list) -> list:
        """The mixes W_l / d_l, so that H (W / d) = (H / d) W mixes the raw
        CG output H without a normalized copy of it.  Each is a new
        C-contiguous array, its re/im view multiplied by 1 / d_l
        (``_reciprocals``): numpy's complex division by a real d multiplies
        by the same reciprocal, so the quotients are the same."""
        if tuple(map(len, weights)) != tuple(map(len, self.scales)):
            raise ValueError("weights do not match the norm state's widths")
        r = _reciprocals(np.concatenate(self.scales))
        out, i = [], 0
        for w in weights:
            out.append((np.ascontiguousarray(w).view(float)
                        * r[i:i + len(w), None]).view(complex))
            i += len(w)
        return out

    def _average(self, scales: np.ndarray, power: np.ndarray,
                 rows) -> None:
        """One expanding-average step, in place: ``scales`` becomes (count *
        scales + rms) / (count + 1), with the batch RMS sqrt(power / rows)
        of columns whose |f|^2 summed over ``rows`` (m, example) rows is
        ``power``, which it overwrites."""
        rms = np.sqrt(np.divide(power, rows, out=power), out=power)
        scales *= self.count
        scales += rms
        scales /= self.count + 1

    def update(self, F: CovariantActivation) -> None:
        """Fold the batch's per-fragment RMS into the expanding average."""
        widths = tuple(len(s) for s in self.scales)
        if widths != F.type.tau:
            raise ValueError(f"norm state widths {widths} do not match the "
                             f"activation's {F.type.tau}")
        for ell, g in enumerate(F.m_major):
            # sum of |f|^2 over the (m, example) rows, on the re/im view
            x = g.reshape(g.shape[0] * g.shape[1], g.shape[2]).view(float)
            power = _column_power(x)
            scales = self.scales[ell].copy()
            self._average(scales, power, x.shape[0])
            self.scales[ell] = scales
        self.count += 1


def covariant_normalize(F: CovariantActivation, norm: NormState,
                        training: bool = False) -> CovariantActivation:
    """Divide each fragment column by its running root-mean-square scale.

    In training mode the expanding average is first updated with the current
    batch's per-fragment RMS.  No mean is ever subtracted: only a
    rotation-invariant positive rescaling keeps the activation covariant.
    ``network_forward`` folds the divisors into the mix instead.
    """
    if len(norm.scales) != F.bandlimit + 1:
        raise ValueError("norm state does not match activation bandlimit")
    if training:
        norm.update(F)
    # real division of the re/im view: each component divided exactly once
    return CovariantActivation.from_m_major(F.bandlimit, [
        (g.view(float) / _divisors(s).repeat(2)).view(complex)
        for g, s in zip(F.m_major, norm.scales)])


# --- layer and network composition ---

@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: band limit, input channels and per-layer output types.

    ``layer_types[s]`` is the output type of layer s+1; the final layer's
    type must vanish above l=0 (only invariant components are produced).
    """

    bandlimit: int
    n_in: int
    layer_types: tuple
    # bench/workload.py::cg_counts passes this to cg_madd_count's policy;
    # both stay until that call goes
    pair_policy: ClassVar[str] = "unordered"

    def __post_init__(self):
        if not 0 <= self.bandlimit <= MAX_DEGREE:
            raise ValueError(f"bandlimit must lie in 0..{MAX_DEGREE}, got "
                             f"{self.bandlimit}")
        if self.n_layers < 1:
            raise ValueError("need at least one layer")
        for tau in self.layer_types:
            if tau.bandlimit != self.bandlimit:
                raise ValueError("layer type bandlimit mismatch")
        last = self.layer_types[-1]
        if any(t != 0 for t in last.tau[1:]):
            raise ValueError("final layer type must be zero above l=0")

    @property
    def n_layers(self) -> int:
        return len(self.layer_types)

    def input_type(self) -> ActivationType:
        return ActivationType((self.n_in,) * (self.bandlimit + 1))

    def _layer_cg(self, s: int) -> tuple:
        """Input type and degree cap of layer s's CG product."""
        prev = self.input_type() if s == 0 else self.layer_types[s - 1]
        return prev, layer_out_ell_max(s, self.n_layers, self.bandlimit)

    def cg_input_type(self, s: int) -> ActivationType:
        """Post-CG (pre-mixing) type feeding layer s's weights (s = 0-based)."""
        return cg_output_type(*self._layer_cg(s))

    def cg_blocks(self) -> set:
        """Every (l1, l2, l) CG block the forward pass multiplies by."""
        return {(p.l1, p.l2, l) for s in range(self.n_layers)
                for p in _cg_plan(*self._layer_cg(s)).pairs for l in p.ells}

    def head_width(self) -> int:
        """Length of the invariant feature vector."""
        return 2 * (sum(t.tau[0] for t in self.layer_types) + self.n_in)


def tau_schedule(L: int, width: int = 12) -> ActivationType:
    """Fragment-count rule tau_l = ceil(width / sqrt(2l+1))."""
    return ActivationType(tuple(
        int(np.ceil(width / np.sqrt(2 * ell + 1))) for ell in range(L + 1)))


def layer_out_ell_max(s: int, n_layers: int, bandlimit: int) -> int:
    """Highest degree layer s keeps after its CG product: the final layer
    produces invariants only."""
    return 0 if s == n_layers - 1 else bandlimit


def invariant_features(layer_outputs: list, input_l0: np.ndarray) -> np.ndarray:
    """Concatenate every layer's l=0 fragments plus the input's l=0
    coefficients, splitting each complex scalar into (real, imag).

    ``input_l0`` has shape (B, 1, n_in).  Output is real, shape
    (B, 2 * (sum_s tau_0^s + n_in)).
    """
    parts = [act.fragments[0][:, 0, :] for act in layer_outputs]
    parts.append(np.asarray(input_l0, dtype=complex)[:, 0, :])
    flat = np.ascontiguousarray(np.concatenate(parts, axis=1))
    return flat.view(float).reshape(flat.shape[0], 2 * flat.shape[1])


def network_forward(coeffs: CovariantActivation, weights: list,
                    norm_states: list, training: bool = False):
    """Full covariant forward pass: S layers (CG nonlinearity,
    normalization, linear mix) then the invariant head.

    ``weights[s]`` is the per-degree weight list of layer s and
    ``norm_states[s]`` its ``NormState``.  Each layer is one
    ``cg_nonlinearity`` call, so no layer builds a CG output H wider than
    its mix: with frozen statistics it takes the weights folded with the
    layer's normalization (``NormState.fold``); in training mode it takes
    the state and the unfolded weights, updates the state from this
    batch's CG products and folds the weights with the new scales.
    Returns ``(features, outputs)``: the invariant features (B,
    head_width) and the per-layer outputs.
    """
    S = len(weights)
    L = coeffs.bandlimit
    outputs = []
    F = coeffs
    for s in range(S):
        cap = layer_out_ell_max(s, S, L)
        F = (cg_nonlinearity(F, cap, weights[s], norm_states[s]) if training
             else cg_nonlinearity(F, cap, norm_states[s].fold(weights[s])))
        outputs.append(F)
    return invariant_features(outputs, coeffs.fragments[0]), outputs
