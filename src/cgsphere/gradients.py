"""Reverse-mode gradients for the covariant network.

Complex weights are optimized as independent real/imaginary pairs; the
cotangent carried backwards for a complex quantity z is dL/dRe(z) +
i*dL/dIm(z).  Under this convention the adjoint of G = F W is
F_bar = G_bar W^H, W_bar = F^H G_bar, and the adjoint of a bilinear product
contracts each factor's cotangent with the conjugate of the other factor.

Normalization statistics are treated as constants during backpropagation:
the running scales recorded on the forward tape are reused verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    CovariantActivation,
    NetworkSpec,
    cg_pairs,
    layer_out_ell_max,
    network_forward,
    _pair_table,
    _real_matmul,
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

def backward_linear(G_bar: list, F: CovariantActivation, weights: list):
    """Adjoint of the per-degree mix G_l = F_l W_l.

    ``G_bar`` is a list of cotangent arrays matching the output fragments.
    Both products are 2-D matmuls over the (B*(2l+1), tau) rows; W_bar is
    computed as (G^H F)^H, which conjugates the narrow cotangent rather
    than the wide activation.  Returns (F_bar fragments, W_bar list).
    """
    F_bar, W_bar = [], []
    for ell, (g, f, w) in enumerate(zip(G_bar, F.fragments, weights)):
        if w.shape != (f.shape[2], g.shape[2]):
            raise ValueError(f"adjoint shape mismatch at l={ell}")
        rows = f.shape[0] * f.shape[1]
        g2 = g.reshape(rows, g.shape[2])
        F_bar.append((g2 @ w.conj().T).reshape(f.shape))
        W_bar.append((g2.conj().T @ f.reshape(rows, f.shape[2])).conj().T)
    return F_bar, W_bar


def backward_cg(H_bar: list, F: CovariantActivation, policy: str = "unordered",
                out_ell_max: int | None = None) -> list:
    """Adjoint of the CG nonlinearity; mirrors the forward column order
    exactly.  Self-pairs accumulate both branch gradients.

    Per pair, the CG matrix maps the output cotangent back to the Kronecker
    cotangent, laid out as one (d1*t1, d2*t2) matrix per example; each
    factor's cotangent is then a batched mat-vec with the other factor's
    conjugate.
    """
    L = F.bandlimit
    if out_ell_max is None:
        out_ell_max = L
    B = F.batch_size
    F_bar = [np.zeros_like(f) for f in F.fragments]
    offsets = [0] * (L + 1)
    for l1, l2 in cg_pairs(L, policy):
        F1, F2 = F.fragments[l1], F.fragments[l2]
        t1, t2 = F1.shape[2], F2.shape[2]
        if t1 == 0 or t2 == 0 or abs(l1 - l2) > out_ell_max:
            continue
        table = _pair_table(l1, l2, out_ell_max)
        d1, d2, n = 2 * l1 + 1, 2 * l2 + 1, t1 * t2
        y_bar = np.concatenate([
            H_bar[l][:, :, offsets[l]:offsets[l] + n].transpose(1, 0, 2)
            for l in table.ells])
        for l in table.ells:
            offsets[l] += n
        k_bar = _real_matmul(table.matrix, y_bar.reshape(-1, B * n))
        # (m1, m2, b, i, j) -> (b, (m1, i), (m2, j))
        k_bar = np.ascontiguousarray(
            k_bar.reshape(d1, d2, B, t1, t2).transpose(2, 0, 3, 1, 4)
        ).reshape(B, d1 * t1, d2 * t2)
        F_bar[l1] += (k_bar @ F2.conj().reshape(B, d2 * t2, 1)).reshape(
            B, d1, t1)
        F_bar[l2] += (F1.conj().reshape(B, 1, d1 * t1) @ k_bar).reshape(
            B, d2, t2)
    return F_bar


# --- tape-recorded network forward/backward ---

@dataclass
class ForwardTape:
    """Everything the backward pass needs from one forward evaluation.

    ``loss_and_grad`` sets ``normed[s]`` to None once ``backward_linear``
    has read it, so a layer's wide normalized activation is freed before
    the CG adjoint below it runs.
    """

    norm_denoms: list    # per layer: per-l denominators, None if unnormalized
    normed: list         # post-CG, post-normalization activations
    outputs: list        # per-layer outputs
    features: np.ndarray
    hidden_pre: np.ndarray
    logits: np.ndarray


def forward_with_tape(coeffs: CovariantActivation, weights: NetworkWeights,
                      norm_states: list | None = None,
                      training: bool = False) -> ForwardTape:
    """``network_forward`` plus the classifier head, recording the tape."""
    feats, outputs, normed, denoms = network_forward(
        coeffs, weights.layers, norm_states, training,
        weights.spec.pair_policy, return_normed=True)
    hid_pre = feats @ weights.head.w1 + weights.head.b1
    logits = np.maximum(hid_pre, 0.0) @ weights.head.w2 + weights.head.b2
    return ForwardTape(denoms, normed, outputs, feats, hid_pre, logits)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grad(coeffs: CovariantActivation, labels: np.ndarray,
                  weights: NetworkWeights, norm_states: list | None = None,
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
        H_bar, W_bar = backward_linear(G_bar, tape.normed[s],
                                       weights.layers[s])
        tape.normed[s] = None  # nothing reads it again; free it before CG
        # ADAM steps complex gradients through their float64 view
        g_layers[s] = [np.ascontiguousarray(w) for w in W_bar]
        if s == 0:
            break  # the network input has no parameters behind it
        for h, d in zip(H_bar, tape.norm_denoms[s] or ()):
            h /= d[None, None, :]
        G_bar = backward_cg(H_bar, tape.outputs[s - 1], spec.pair_policy,
                            layer_out_ell_max(s, S, L))

    grads = NetworkWeights(spec, g_layers, g_head)
    return loss, grads, tape.logits
