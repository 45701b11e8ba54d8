"""Reverse-mode gradients for the covariant network.

Complex weights are optimized as independent real/imaginary pairs; the
cotangent carried backwards for a complex quantity z is dL/dRe(z) +
i*dL/dIm(z).  Under this convention the adjoint of G = F W is
F_bar = G_bar W^H, W_bar = F^H G_bar, and the adjoint of a bilinear product
contracts each factor's cotangent with the conjugate of the other factor.

Normalization statistics are treated as constants during backpropagation:
the backward pass folds the same ``NormState`` denominators into the mixes
as the forward pass (``NormState.fold``), which nothing changes in between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    CovariantActivation,
    NetworkSpec,
    layer_out_ell_max,
    network_forward,
    _cg_layout,
    _pair_table,
    _workspaces,
)
# the forward stages stay reachable through this module too
from .network import cg_nonlinearity, covariant_normalize  # noqa: F401


class NumericError(Exception):
    """Non-finite value encountered; carries the offending example index."""

    def __init__(self, message, example_index=None):
        super().__init__(message)
        self.example_index = example_index


@dataclass
class HeadWeights:
    """Real dense classifier on the invariant features: one hidden layer."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def arrays(self) -> list:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class NetworkWeights:
    """All learnable parameters: per-layer complex mixing matrices + head."""

    spec: NetworkSpec
    layers: list          # layers[s][l]: complex (tau_bar_l, tau_l)
    head: HeadWeights

    def arrays(self) -> list:
        """Flat parameter list in a fixed order (layers by s then l, head)."""
        out = []
        for layer in self.layers:
            out.extend(layer)
        out.extend(self.head.arrays())
        return out


def init_weights(spec: NetworkSpec, n_out: int, hidden: int = 64,
                 seed: int = 0) -> NetworkWeights:
    """Random complex layer weights with E|w|^2 = 1/fan_in; real head weights
    with the same variance rule."""
    rng = np.random.default_rng(seed)
    layers = []
    for s in range(spec.n_layers):
        fan = spec.cg_input_type(s).tau
        tau = spec.layer_types[s].tau
        mats = []
        for ell in range(spec.bandlimit + 1):
            scale = 1.0 / np.sqrt(2.0 * max(fan[ell], 1))
            w = scale * (rng.standard_normal((fan[ell], tau[ell]))
                         + 1j * rng.standard_normal((fan[ell], tau[ell])))
            mats.append(w)
        layers.append(mats)
    d = spec.head_width()
    w1 = rng.standard_normal((d, hidden)) / np.sqrt(d)
    b1 = np.zeros(hidden)
    w2 = rng.standard_normal((hidden, n_out)) / np.sqrt(hidden)
    b2 = np.zeros(n_out)
    return NetworkWeights(spec, layers, HeadWeights(w1, b1, w2, b2))


# --- elementary adjoints ---

def _m_major(arrays: list) -> list:
    """(2l+1, B, tau) C-contiguous copies of (B, 2l+1, tau) arrays; no copy
    for the transposed views ``CovariantActivation.fragments`` returns."""
    return [np.ascontiguousarray(a.transpose(1, 0, 2)) for a in arrays]


def backward_linear(G_bar: list, F: CovariantActivation, weights: list):
    """Adjoint of the per-degree mix G_l = F_l W_l.

    ``G_bar`` is a list of cotangent arrays matching the output fragments.
    Both products are 2-D matmuls over the (2l+1)*B rows of the m-major
    arrays; W_bar is computed as (G^H F)^H, which conjugates the narrow
    cotangent rather than the wide activation.  Returns (F_bar fragments,
    W_bar list); the F_bar arrays are views of m-major arrays.
    """
    F_bar, W_bar = [], []
    for ell, (g, f, w) in enumerate(zip(_m_major(G_bar), F.m_major, weights)):
        if w.shape != (f.shape[2], g.shape[2]):
            raise ValueError(f"adjoint shape mismatch at l={ell}")
        d, B, t = f.shape
        g2 = g.reshape(d * B, g.shape[2])
        F_bar.append((g2 @ w.conj().T).reshape(f.shape).transpose(1, 0, 2))
        W_bar.append((g2.conj().T @ f.reshape(d * B, t)).conj().T)
    return F_bar, W_bar


def backward_cg(G_bar: list, F: CovariantActivation, mixes: list,
                out_ell_max: int | None = None) -> list:
    """Adjoint of the CG nonlinearity followed by the mix G_l = H_l V_l
    (identity mixes give the CG adjoint alone); mirrors the forward column
    order exactly.  Self-pairs accumulate both branch gradients.

    Per pair and degree, G_bar_l V_l^H on the pair's columns goes straight
    into the padded workspace rows, which the transposed ``_pair_table``
    maps back to the gathered Kronecker rows (m, m1); each factor's
    cotangent is then a batched mat-vec with the other factor's conjugate,
    summed over m for the l1 factor, and for the l2 factor added back to
    its rows m2 = m - m1 in one slice per m1.  Returns m-major views.
    """
    B = F.batch_size
    G, Gb = F.m_major, _m_major(G_bar)
    out_type, pairs = _cg_layout(F.type, out_ell_max)
    if [len(v) for v in mixes] != list(out_type.tau):
        raise ValueError("mixes do not match the CG output widths")
    F_bar = [np.zeros_like(g) for g in G]
    k_ws, y_ws = _workspaces(F, out_ell_max)
    for l1, l2, ells, starts in pairs:
        table, rows = _pair_table(l1, l2, ells)
        M, d1 = ells[-1], 2 * l1 + 1
        t1, t2 = G[l1].shape[2], G[l2].shape[2]
        n = t1 * t2
        y_bar = np.ndarray((2 * M + 1, len(ells), B, n), complex, y_ws)
        for i, (l, c) in enumerate(zip(ells, starts)):
            y_bar[:M - l, i] = 0.0
            np.matmul(Gb[l], mixes[l][c:c + n].conj().T,
                      out=y_bar[M - l:M + l + 1, i])
            y_bar[M + l + 1:, i] = 0.0
        np.matmul(table.transpose(0, 2, 1),
                  np.ndarray((2 * M + 1, len(ells), 2 * B * n), float, y_ws),
                  out=np.ndarray((2 * M + 1, d1, 2 * B * n), float, k_ws))
        k_bar = np.ndarray((2 * M + 1, d1, B, t1, t2), complex, k_ws)
        G2 = G[l2].take(rows, axis=0).conj()
        F_bar[l1] += (k_bar @ G2[..., None]).sum(axis=0)[..., 0]
        g2_bar = (G[l1].conj()[:, :, None, :] @ k_bar)[..., 0, :]
        c = l1 + l2 - M  # rows[j, k] = j - k + c: one run of rows per k
        for k in range(d1):
            lo, hi = max(0, k - c), min(2 * M + 1, k - c + 2 * l2 + 1)
            F_bar[l2][lo - k + c:hi - k + c] += g2_bar[lo:hi, k]
    return [f.transpose(1, 0, 2) for f in F_bar]


# --- tape-recorded network forward/backward ---

@dataclass
class ForwardTape:
    """Everything the backward pass needs from one forward evaluation,
    apart from the normalization denominators, which it reads from the
    ``NormState`` list the forward pass used.

    ``loss_and_grad`` sets ``cg_outputs[s]`` to None once it has taken
    the layer's weight gradient from it, so a layer's wide CG output is
    freed before the CG adjoint below it runs.
    """

    cg_outputs: list     # raw post-CG activations, the inputs of the mixes
    outputs: list        # per-layer outputs
    features: np.ndarray
    hidden_pre: np.ndarray
    logits: np.ndarray


def forward_with_tape(coeffs: CovariantActivation, weights: NetworkWeights,
                      norm_states: list,
                      training: bool = False) -> ForwardTape:
    """``network_forward`` plus the classifier head, recording the tape."""
    feats, outputs, cg_outputs = network_forward(
        coeffs, weights.layers, norm_states, training)
    hid_pre = feats @ weights.head.w1 + weights.head.b1
    logits = np.maximum(hid_pre, 0.0) @ weights.head.w2 + weights.head.b2
    return ForwardTape(cg_outputs, outputs, feats, hid_pre, logits)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grad(coeffs: CovariantActivation, labels: np.ndarray,
                  weights: NetworkWeights, norm_states: list,
                  training: bool = False):
    """Mean softmax cross-entropy and its gradient with respect to every
    parameter.

    Returns (loss, NetworkWeights-shaped gradients, logits).
    """
    labels = np.asarray(labels)
    B = labels.shape[0]
    if B == 0:
        raise ValueError("batch must be non-empty")
    tape = forward_with_tape(coeffs, weights, norm_states, training)
    bad = np.where(~np.isfinite(tape.logits).all(axis=1))[0]
    if bad.size:
        raise NumericError(
            f"non-finite logits for example {bad[0]}", int(bad[0]))
    probs = _softmax(tape.logits)
    eps = 1e-300
    loss = -np.mean(np.log(probs[np.arange(B), labels] + eps))
    if not np.isfinite(loss):
        raise NumericError("non-finite loss", None)

    spec = weights.spec

    # head backward
    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B
    hid = np.maximum(tape.hidden_pre, 0.0)
    dhid = (dlogits @ weights.head.w2.T) * (tape.hidden_pre > 0.0)
    g_head = HeadWeights(tape.features.T @ dhid, dhid.sum(axis=0),
                         hid.T @ dlogits, dlogits.sum(axis=0))
    dfeats = dhid @ weights.head.w1.T

    # split the feature cotangent back into complex l=0 adjoints
    # (the input's own l=0 slice, split off last, has no parameters)
    dcomplex = np.ascontiguousarray(dfeats).view(complex)  # (B, sum tau0 + n_in)
    head_adjoints = np.split(
        dcomplex, np.cumsum([t.tau[0] for t in spec.layer_types]), axis=1)

    # walk the layers backwards
    L = spec.bandlimit
    S = spec.n_layers
    g_layers = [None] * S
    # the last layer's output is read by the head only
    G_bar = [np.zeros_like(f) for f in tape.outputs[-1].fragments]
    for s in range(S - 1, -1, -1):
        G_bar[0][:, 0, :] += head_adjoints[s]
        # the mix is H fold(W), so W_bar = fold(H^H G_bar), with H^H G_bar
        # taken as (G_bar^H H)^H to conjugate the narrow side; ADAM steps
        # complex gradients through their float64 view
        g_layers[s] = [np.ascontiguousarray(w) for w in norm_states[s].fold([
            (g.reshape(len(g) * B, -1).conj().T @ h.reshape(len(h) * B, -1))
            .conj().T for g, h in zip(_m_major(G_bar),
                                      tape.cg_outputs[s].m_major)])]
        tape.cg_outputs[s] = None  # nothing reads it again; free it before CG
        if s == 0:
            break  # the network input has no parameters behind it
        G_bar = backward_cg(G_bar, tape.outputs[s - 1],
                            norm_states[s].fold(weights.layers[s]),
                            layer_out_ell_max(s, S, L))

    grads = NetworkWeights(spec, g_layers, g_head)
    return loss, grads, tape.logits
