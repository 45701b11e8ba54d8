"""Forward pass of the fully-Fourier covariant spherical network.

Activations live entirely in Fourier space: a batch of activations is one
complex array per degree l, of shape (batch, 2l+1, tau_l), stored m-major
(see ``CovariantActivation``).  Each column is an irreducible fragment
transforming as v -> D^l(R) v under input rotation.
A layer applies the Clebsch-Gordan tensor-product nonlinearity, a covariant
fragment normalization, and a learnable per-degree linear mix.  The network
output is the invariant feature vector built from all l=0 fragments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

# cg_block is unused here, but bench/spans.py wraps network.cg_block
from .so3 import cg_block, cg_table  # noqa: F401


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


# --- Clebsch-Gordan pair bookkeeping ---

def cg_pairs(L: int):
    """Degree pairs entering the tensor-product nonlinearity, l1 <= l2
    (the (l2, l1) columns would repeat them up to sign)."""
    return [(l1, l2) for l1 in range(L + 1) for l2 in range(l1, L + 1)]


@lru_cache(maxsize=256)
def _cg_layout(tau: ActivationType, out_ell_max: int | None):
    """Where the CG product of an activation of type ``tau`` puts its output.

    Returns the post-CG type and, for each pair that produces output (a
    tuple, memoized per argument pair),
    ``(l1, l2, ells, starts)``: the pair's block of degree ``ells[i]``
    fills columns ``starts[i]`` to ``starts[i] + tau_l1 * tau_l2``.  Blocks
    of one degree sit side by side in pair order (l1 ascending, then l2).
    Bookkeeping only: no CG table is built.
    """
    L = tau.bandlimit
    if out_ell_max is None:
        out_ell_max = L
    widths = [0] * (L + 1)
    pairs = []
    for l1, l2 in cg_pairs(L):
        n = tau.tau[l1] * tau.tau[l2]
        ells = tuple(range(abs(l1 - l2), min(l1 + l2, out_ell_max) + 1))
        if n == 0 or not ells:
            continue
        pairs.append((l1, l2, ells, tuple(widths[l] for l in ells)))
        for l in ells:
            widths[l] += n
    return ActivationType(tuple(widths)), tuple(pairs)


_PAIR_CACHE: dict = {}
_CORRUPTION: dict = {}


def corrupt_cg_entry(ell1: int, ell2: int, ell: int, index: int = 0) -> None:
    """Negate one stored CG coefficient (test-sensitivity hook).

    Affects all tables built afterwards; call ``clear_cg_corruption`` to
    restore.
    """
    _CORRUPTION[(ell1, ell2, ell)] = index
    _PAIR_CACHE.clear()


def clear_cg_corruption() -> None:
    _CORRUPTION.clear()
    _PAIR_CACHE.clear()


def _pair_table(ell1: int, ell2: int, ells: tuple) -> np.ndarray:
    """Memoized ``cg_table(ell1, ell2, ells)`` of pair (ell1, ell2) for
    degrees ``ells``, whose corrupted block (l, idx) has the idx-th nonzero
    of ``table[:, i]`` in (m, then m1) order,
    ``cg_block(ell1, ell2, l).entries[idx]``, negated."""
    key = (ell1, ell2, ells)
    if key not in _PAIR_CACHE:
        table = cg_table(ell1, ell2, ells)
        for i, l in enumerate(ells):
            if (ell1, ell2, l) in _CORRUPTION:
                table = table.copy()
                m, k = np.nonzero(table[:, i])
                j = _CORRUPTION[(ell1, ell2, l)] % m.size
                table[m[j], i, k[j]] *= -1.0
        _PAIR_CACHE[key] = table
    return _PAIR_CACHE[key]


@lru_cache(maxsize=256)
def _workspace_sizes(tau: ActivationType, out_ell_max: int | None) -> tuple:
    """Per-example complex lengths of ``_workspaces``' two buffers: the
    largest pair's Kronecker rows and its per-m table product."""
    sizes = [((2 * ells[-1] + 1) * tau.tau[l1] * tau.tau[l2], 2 * l1 + 1,
              len(ells)) for l1, l2, ells, _ in _cg_layout(tau, out_ell_max)[1]]
    return (max((n * d1 for n, d1, _ in sizes), default=0),
            max((n * k for n, _, k in sizes), default=0))


def _workspaces(tau: ActivationType, B: int,
                out_ell_max: int | None) -> tuple:
    """Two complex buffers that fit every pair's Kronecker rows and per-m
    table product for a batch of B activations of type ``tau``, sized by
    ``_workspace_sizes`` (memoized per type and cap).  Every pair of one
    call reuses them, so the call touches fresh memory once rather than
    once per pair; a pair views their leading elements through
    ``np.ndarray(shape, dtype, buffer)``."""
    kron, y = _workspace_sizes(tau, out_ell_max)
    return np.empty(kron * B, complex), np.empty(y * B, complex)


def _row_buffer(G: list, reps: int) -> np.ndarray:
    """Every degree's rows stacked on one axis, degree l's row m at
    L + l^2 + l + m, between L zero rows at each end.  A row holds G_l[m]
    repeated ``reps`` times, a contiguous (B, reps, tau_l) block, then
    zeros up to the common row length B * reps * max(tau).

    With row stride S, the rows m - m1 + l2 of degree l2 that a pair
    (l1, l2) with top degree M reads at [m + M, m1 + l1] are one view at
    offset (L + l2^2 + l1 + l2 - M) S with strides (S, -S, ...).  Entries
    (m, m1) with no valid m2 read a zero row or a neighbouring degree's
    finite row, which the CG table weighs by zero.  With M <= L and
    l1 <= l2 every row read lies inside the buffer, and ``np.ndarray``
    refuses a view that would not."""
    L = len(G) - 1
    B = G[0].shape[1]
    buf = np.zeros(((L + 1) ** 2 + 2 * L,
                    B * reps * max(g.shape[2] for g in G)), complex)
    S, item = buf.strides[0], buf.itemsize
    for ell, g in enumerate(G):
        d, _, t = g.shape
        np.copyto(np.ndarray((d, B, reps, t), complex, buf,
                             (L + ell * ell) * S,
                             (S, reps * t * item, t * item, item)),
                  g[:, :, None, :])
    return buf


def cg_output_type(tau: ActivationType,
                   out_ell_max: int | None = None) -> ActivationType:
    """Fragment counts after the CG nonlinearity (before linear mixing)."""
    return _cg_layout(tau, out_ell_max)[0]


def cg_madd_count(tau: ActivationType, policy: str = "unordered",
                  out_ell_max: int | None = None) -> int:
    """Multiply-add count of the CG transform for one example under the
    paper's cost model: each stored nonzero CG coefficient touches
    tau_{l1} * tau_{l2} column pairs.  The kernel in ``cg_nonlinearity``
    multiplies by its padded tables, a bounded constant factor more (about
    2x at L = 8).  ``policy`` must be ``NetworkSpec.pair_policy``.
    """
    if policy != NetworkSpec.pair_policy:
        raise ValueError(f"pair policy {policy!r} is not unordered")
    return int(sum(
        np.count_nonzero(_pair_table(l1, l2, ells))
        * tau.tau[l1] * tau.tau[l2]
        for l1, l2, ells, _ in _cg_layout(tau, out_ell_max)[1]))


def cg_nonlinearity(F: CovariantActivation,
                    out_ell_max: int | None = None) -> CovariantActivation:
    """Tensor-product nonlinearity: all pairwise Kronecker products,
    decomposed into irreducible fragments by the CG selection rule.

    Per pair (l1, l2), output m only reads the rows with m1 + m2 = m.  The
    call stacks every degree's rows, each repeated along t1, in one
    ``_row_buffer``, so a pair's l2 rows m - m1 are one strided view of it
    with no gather; the l1 factor, repeated along t2, is built once per
    run of pairs sharing (l1, t2).  The Kronecker product is then one
    multiply of two operands whose (B, t1, t2) blocks are contiguous,
    followed by one batched matmul over m with ``_pair_table``.  Output
    blocks of one degree sit side by side in pair order (l1 ascending,
    then l2), as ``_cg_layout`` places them; each degree's output is
    allocated once, m-major, and every pair writes its blocks straight
    into their columns.
    """
    tau, B, L = F.type, F.batch_size, F.bandlimit
    out_type, pairs = _cg_layout(tau, out_ell_max)
    G = F.m_major
    out = [np.empty((2 * ell + 1, B, w), dtype=complex)
           for ell, w in enumerate(out_type.tau)]
    kron_ws, y_ws = _workspaces(tau, B, out_ell_max)
    tmax = max(tau.tau)
    rows = _row_buffer(G, tmax)
    S, item = rows.strides[0], rows.itemsize
    run = None
    for l1, l2, ells, starts in pairs:
        table = _pair_table(l1, l2, ells)
        M, d1 = ells[-1], 2 * l1 + 1
        t1, t2 = G[l1].shape[2], G[l2].shape[2]
        n = t1 * t2
        if run != (l1, t2):
            run = (l1, t2)
            G1 = G[l1].repeat(t2, axis=2).reshape(d1, B, t1, t2)
        # kron[m, k, b, i, j] = G1[m1, b, i] G2[m - m1, b, j], k = m1 + l1;
        # the real table then acts on its re/im float view
        G2 = np.ndarray((2 * M + 1, d1, B, t1, t2), complex, rows,
                        (L + l2 * l2 + l1 + l2 - M) * S,
                        (S, -S, tmax * t2 * item, t2 * item, item))
        np.multiply(G1, G2, out=np.ndarray((2 * M + 1, d1, B, t1, t2),
                                           complex, kron_ws))
        np.matmul(table, np.ndarray((2 * M + 1, d1, 2 * B * n), float, kron_ws),
                  out=np.ndarray((2 * M + 1, len(ells), 2 * B * n), float,
                                 y_ws))
        y = np.ndarray((2 * M + 1, len(ells), B, n), complex, y_ws)
        for i, (l, c) in enumerate(zip(ells, starts)):
            out[l][:, :, c:c + n] = y[M - l:M + l + 1, i]
    return CovariantActivation.from_m_major(F.bandlimit, out)


# --- covariant linear mixing ---

def covariant_linear(F: CovariantActivation, weights: list) -> CovariantActivation:
    """Mix fragments degree by degree: G_l = F_l @ W_l."""
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


@dataclass
class NormState:
    """Expanding-average fragment scales for one layer's post-CG activation."""

    scales: list = field(default_factory=list)   # per-l float arrays (tau_l,)
    count: int = 0

    @classmethod
    def for_type(cls, tau: ActivationType) -> "NormState":
        return cls([np.ones(t) for t in tau.tau], 0)

    def copy(self) -> "NormState":
        return NormState([s.copy() for s in self.scales], self.count)

    def denominators(self) -> list:
        """Per-degree divisors of the normalization.

        Dead fragments (identically-zero CG outputs, e.g. odd-degree
        self-couplings of a column with itself) pass through unscaled:
        dividing their rounding noise by a tiny floor would amplify it.
        """
        return [np.where(s < NORM_EPS, 1.0, s) for s in self.scales]

    def fold(self, weights: list) -> list:
        """The mixes W_l / d_l, so that H (W / d) = (H / d) W mixes the raw
        CG output H without a normalized copy of it."""
        return [w / d[:, None] for w, d in zip(weights, self.denominators())]

    def update(self, F: CovariantActivation) -> None:
        """Fold the batch's per-fragment RMS into the expanding average."""
        widths = tuple(len(s) for s in self.scales)
        if widths != F.type.tau:
            raise ValueError(f"norm state widths {widths} do not match the "
                             f"activation's {F.type.tau}")
        for ell, g in enumerate(F.m_major):
            # sum of |f|^2 over the (m, example) rows, on the re/im view
            x = g.reshape(g.shape[0] * g.shape[1], g.shape[2]).view(float)
            power = np.einsum("ij,ij->j", x, x).reshape(-1, 2).sum(axis=1)
            batch_rms = np.sqrt(power / x.shape[0])
            self.scales[ell] = (self.count * self.scales[ell] + batch_rms) \
                / (self.count + 1)
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
        (g.view(float) / d.repeat(2)).view(complex)
        for g, d in zip(F.m_major, norm.denominators())])


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
        return {(l1, l2, l) for s in range(self.n_layers)
                for l1, l2, ells, _ in _cg_layout(*self._layer_cg(s))[1]
                for l in ells}

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
    ``norm_states[s]`` its ``NormState``; in training mode the forward pass
    updates the states first.  Returns ``(features, outputs, cg_outputs)``:
    the invariant features (B, head_width), the per-layer outputs, and each
    layer's raw CG output H, which it mixes by ``NormState.fold``.
    """
    S = len(weights)
    L = coeffs.bandlimit
    outputs, cg_outputs = [], []
    F = coeffs
    for s in range(S):
        H = cg_nonlinearity(F, layer_out_ell_max(s, S, L))
        if training:
            norm_states[s].update(H)
        cg_outputs.append(H)
        F = covariant_linear(H, norm_states[s].fold(weights[s]))
        outputs.append(F)
    return invariant_features(outputs, coeffs.fragments[0]), outputs, cg_outputs
