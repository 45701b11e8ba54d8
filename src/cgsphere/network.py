"""Forward pass of the fully-Fourier covariant spherical network.

Activations live entirely in Fourier space: a batch of activations is one
complex array per degree l, of shape (batch, 2l+1, tau_l).  Each column is
an irreducible fragment transforming as v -> D^l(R) v under input rotation.
A layer applies the Clebsch-Gordan tensor-product nonlinearity, a covariant
fragment normalization, and a learnable per-degree linear mix.  The network
output is the invariant feature vector built from all l=0 fragments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .so3 import cg_block


@dataclass(frozen=True)
class ActivationType:
    """Fragment counts per degree, tau = (tau_0, ..., tau_L)."""

    tau: tuple

    def __post_init__(self):
        if any(t < 0 for t in self.tau):
            raise ValueError("fragment counts must be non-negative")

    @property
    def bandlimit(self) -> int:
        return len(self.tau) - 1


class CovariantActivation:
    """Batched covariant activation: fragments[l] has shape (B, 2l+1, tau_l)."""

    def __init__(self, bandlimit: int, fragments: list):
        if len(fragments) != bandlimit + 1:
            raise ValueError("need one fragment matrix per degree 0..L")
        frags = []
        batch = None
        for ell, f in enumerate(fragments):
            f = np.asarray(f, dtype=complex)
            if f.ndim == 2:
                f = f[None]
            if f.shape[1] != 2 * ell + 1:
                raise ValueError(
                    f"fragment matrix for l={ell} must have {2 * ell + 1} rows, "
                    f"got {f.shape[1]}"
                )
            if batch is None:
                batch = f.shape[0]
            elif f.shape[0] != batch:
                raise ValueError("inconsistent batch size across degrees")
            frags.append(f)
        self.bandlimit = bandlimit
        self.fragments = frags

    @property
    def batch_size(self) -> int:
        return self.fragments[0].shape[0]

    @property
    def type(self) -> ActivationType:
        return ActivationType(tuple(f.shape[2] for f in self.fragments))

    @classmethod
    def stack(cls, activations: list) -> "CovariantActivation":
        """Stack single-example activations into one batch."""
        L = activations[0].bandlimit
        return cls(L, [
            np.concatenate([a.fragments[ell] for a in activations], axis=0)
            for ell in range(L + 1)
        ])

    def example(self, i: int) -> "CovariantActivation":
        return CovariantActivation(
            self.bandlimit, [f[i:i + 1] for f in self.fragments])

    def rotated(self, d_matrices: list) -> "CovariantActivation":
        """Apply D^l(R) to every fragment (the covariance ground truth)."""
        return CovariantActivation(self.bandlimit, [
            np.einsum("mn,bnt->bmt", d_matrices[ell], f)
            for ell, f in enumerate(self.fragments)
        ])


# --- Clebsch-Gordan pair bookkeeping ---

PAIR_POLICIES = ("unordered", "ordered")


def cg_pairs(L: int, policy: str = "unordered"):
    """Degree pairs entering the tensor-product nonlinearity."""
    if policy == "unordered":
        return [(l1, l2) for l1 in range(L + 1) for l2 in range(l1, L + 1)]
    if policy == "ordered":
        return [(l1, l2) for l1 in range(L + 1) for l2 in range(L + 1)]
    raise ValueError(f"unknown pair policy {policy!r}")


def _cg_paths(tau: ActivationType, policy: str, out_ell_max: int):
    """(l1, l2, l, t) for every CG block a product of type ``tau`` uses,
    where t = tau_l1 * tau_l2 is the number of column pairs it maps."""
    for l1, l2 in cg_pairs(tau.bandlimit, policy):
        t = tau.tau[l1] * tau.tau[l2]
        if t:
            for l in range(abs(l1 - l2), min(l1 + l2, out_ell_max) + 1):
                yield l1, l2, l, t


@dataclass(frozen=True)
class _PairTable:
    """Stacked dense CG matrix for one (l1, l2) pair, clipped at out_ell_max."""

    ells: tuple
    matrix: np.ndarray | None  # real, shape (d1*d2, sum_l (2l+1))
    nnz: dict                  # stored nonzero coefficients per degree l


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


def _block_dense(ell1: int, ell2: int, ell: int) -> np.ndarray:
    block = cg_block(ell1, ell2, ell)
    mat = block.dense()
    key = (ell1, ell2, ell)
    if key in _CORRUPTION:
        entries = block.entries
        (m1, m2), m, _ = entries[_CORRUPTION[key] % len(entries)]
        row = (m1 + ell1) * (2 * ell2 + 1) + (m2 + ell2)
        mat[row, m + ell] *= -1.0
    return mat


def _pair_table(ell1: int, ell2: int, out_ell_max: int) -> _PairTable:
    key = (ell1, ell2, out_ell_max)
    if key not in _PAIR_CACHE:
        ells = tuple(l for l in range(abs(ell1 - ell2), ell1 + ell2 + 1)
                     if l <= out_ell_max)
        mats = [_block_dense(ell1, ell2, l) for l in ells]
        stacked = np.hstack(mats) if mats else None
        nnz = {l: int(np.count_nonzero(m)) for l, m in zip(ells, mats)}
        _PAIR_CACHE[key] = _PairTable(ells, stacked, nnz)
    return _PAIR_CACHE[key]


def cg_output_type(tau: ActivationType, policy: str = "unordered",
                   out_ell_max: int | None = None) -> ActivationType:
    """Fragment counts after the CG nonlinearity (before linear mixing)."""
    L = tau.bandlimit
    if out_ell_max is None:
        out_ell_max = L
    out = [0] * (L + 1)
    for _, _, l, t in _cg_paths(tau, policy, out_ell_max):
        out[l] += t
    return ActivationType(tuple(out))


def cg_madd_count(tau: ActivationType, policy: str = "unordered",
                  out_ell_max: int | None = None) -> int:
    """Multiply-add count of the CG transform for one example under the
    paper's cost model: each stored nonzero CG coefficient touches
    tau_{l1} * tau_{l2} column pairs.  This is not the flop count of the
    dense kernel in ``cg_nonlinearity``, which also multiplies the zeros.
    """
    if out_ell_max is None:
        out_ell_max = tau.bandlimit
    return sum(_pair_table(l1, l2, out_ell_max).nnz[l] * t
               for l1, l2, l, t in _cg_paths(tau, policy, out_ell_max))


def _real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``a @ z`` for a real matrix ``a`` and a complex matrix ``z``, as one
    real matmul on the float64 re/im view of a C-contiguous ``z``."""
    return (a @ np.ascontiguousarray(z).view(float)).view(complex)


def cg_nonlinearity(F: CovariantActivation, policy: str = "unordered",
                    out_ell_max: int | None = None) -> CovariantActivation:
    """Tensor-product nonlinearity: all pairwise Kronecker products,
    decomposed into irreducible fragments through the dense CG matrices.

    Output blocks with the same degree sit side by side, in pair order
    (l1 ascending, then l2), then degree ascending within a pair.  Each
    degree's output is allocated once, at the width ``cg_output_type``
    gives, and every pair writes its blocks straight into their columns.
    """
    L = F.bandlimit
    if out_ell_max is None:
        out_ell_max = L
    B = F.batch_size
    widths = cg_output_type(F.type, policy, out_ell_max).tau
    out = [np.empty((B, 2 * ell + 1, w), dtype=complex)
           for ell, w in enumerate(widths)]
    offsets = [0] * (L + 1)
    # (2l+1, B, tau_l) copies, so the Kronecker product below comes out
    # C-contiguous with the (m1, m2) axis leading
    G = [np.ascontiguousarray(f.transpose(1, 0, 2)) for f in F.fragments]
    for l1, l2 in cg_pairs(L, policy):
        t1, t2 = G[l1].shape[2], G[l2].shape[2]
        if t1 == 0 or t2 == 0 or abs(l1 - l2) > out_ell_max:
            continue
        table = _pair_table(l1, l2, out_ell_max)
        d1, d2, n = 2 * l1 + 1, 2 * l2 + 1, t1 * t2
        kron = G[l1][:, None, :, :, None] * G[l2][None, :, :, None, :]
        y = _real_matmul(table.matrix.T, kron.reshape(d1 * d2, B * n))
        row = 0
        for l in table.ells:
            d = 2 * l + 1
            out[l][:, :, offsets[l]:offsets[l] + n] = \
                y[row:row + d].reshape(d, B, n).transpose(1, 0, 2)
            row += d
            offsets[l] += n
    return CovariantActivation(L, out)


# --- covariant linear mixing ---

def covariant_linear(F: CovariantActivation, weights: list) -> CovariantActivation:
    """Mix fragments degree by degree: G_l = F_l @ W_l."""
    if len(weights) != F.bandlimit + 1:
        raise ValueError("need one weight matrix per degree")
    frags = []
    for ell, (f, w) in enumerate(zip(F.fragments, weights)):
        if w.shape[0] != f.shape[2]:
            raise ValueError(
                f"weight rows ({w.shape[0]}) must match input fragment count "
                f"({f.shape[2]}) at l={ell}"
            )
        B, d, t = f.shape
        # as one 2-D matmul: numpy runs the 3-D (B, 2l+1, tau) form far slower
        frags.append((f.reshape(B * d, t) @ w).reshape(B, d, w.shape[1]))
    return CovariantActivation(F.bandlimit, frags)


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


def covariant_normalize(F: CovariantActivation, norm: NormState,
                        training: bool = False) -> CovariantActivation:
    """Divide each fragment column by its running root-mean-square scale.

    In training mode the expanding average is first updated with the current
    batch's per-fragment RMS.  No mean is ever subtracted: only a
    rotation-invariant positive rescaling keeps the activation covariant.
    """
    if len(norm.scales) != F.bandlimit + 1:
        raise ValueError("norm state does not match activation bandlimit")
    if training:
        for ell, f in enumerate(F.fragments):
            if f.shape[2] != norm.scales[ell].shape[0]:
                raise ValueError(
                    f"norm state has {norm.scales[ell].shape[0]} slots at "
                    f"l={ell}, activation has {f.shape[2]}"
                )
            batch_rms = np.sqrt(np.mean(np.abs(f) ** 2, axis=(0, 1)))
            norm.scales[ell] = (norm.count * norm.scales[ell] + batch_rms) \
                / (norm.count + 1)
        norm.count += 1
    return CovariantActivation(F.bandlimit, [
        f / d[None, None, :]
        for f, d in zip(F.fragments, norm.denominators())])


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
    pair_policy: str = "unordered"

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
        """Input type, pair policy and degree cap of layer s's CG product."""
        prev = self.input_type() if s == 0 else self.layer_types[s - 1]
        return (prev, self.pair_policy,
                layer_out_ell_max(s, self.n_layers, self.bandlimit))

    def cg_input_type(self, s: int) -> ActivationType:
        """Post-CG (pre-mixing) type feeding layer s's weights (s = 0-based)."""
        return cg_output_type(*self._layer_cg(s))

    def cg_blocks(self) -> set:
        """Every (l1, l2, l) CG block the forward pass multiplies by."""
        return {(l1, l2, l) for s in range(self.n_layers)
                for l1, l2, l, _ in _cg_paths(*self._layer_cg(s))}

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
                    norm_states: list | None = None, training: bool = False,
                    policy: str = "unordered", return_layers: bool = False,
                    return_normed: bool = False):
    """Full covariant forward pass: S layers (CG nonlinearity, optional
    normalization, linear mix) then the invariant head.

    ``weights[s]`` is the per-degree weight list of layer s.  Returns the
    invariant features (B, head_width); with ``return_layers`` also the
    per-layer outputs; with ``return_normed`` also each layer's normalized
    CG output and its denominators (None without normalization).
    """
    S = len(weights)
    L = coeffs.bandlimit
    outputs, normed, denoms = [], [], []
    F = coeffs
    for s in range(S):
        H = cg_nonlinearity(F, policy, layer_out_ell_max(s, S, L))
        norm = norm_states[s] if norm_states is not None else None
        if norm is not None:
            H = covariant_normalize(H, norm, training)
        if return_normed:
            normed.append(H)
            denoms.append(norm.denominators() if norm is not None else None)
        F = covariant_linear(H, weights[s])
        outputs.append(F)
    feats = invariant_features(outputs, coeffs.fragments[0])
    if return_normed:
        return feats, outputs, normed, denoms
    if return_layers:
        return feats, outputs
    return feats
