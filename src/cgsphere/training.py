"""ADAM optimizer, training loop and checkpoint serialization.

Checkpoints are directories: a structured-text ``model.manifest`` plus
binary blobs (``weights.bin``, ``norm.bin``, ``adam.bin``).  Complex
matrices are stored as little-endian float64 real/imag pairs; the array
order is documented in the manifest.  The format is CGNET2: each layer's
weights, norm scales and ADAM moments have one row per post-CG column
the network keeps (``network.cg_pairs``).
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gradients import HeadWeights, NetworkWeights, loss_and_grad
from .network import ActivationType, CovariantActivation, NetworkSpec, NormState
from .so3 import MAX_DEGREE


@dataclass
class AdamState:
    """Per-parameter first/second moments plus hyperparameters.

    Complex parameters are optimized as real/imag pairs: moments track the
    float64 view of each array.
    """

    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-5
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_weights(cls, weights: NetworkWeights, **hyper) -> "AdamState":
        state = cls(**hyper)
        for arr in weights.arrays():
            f = arr.view(float) if np.iscomplexobj(arr) else arr
            state.m.append(np.zeros_like(f))
            state.v.append(np.zeros_like(f))
        return state


def adam_step(state: AdamState, weights: NetworkWeights,
              grads: NetworkWeights) -> None:
    """One ADAM update with bias correction and decoupled L2 decay, in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for arr, g, m, v in zip(weights.arrays(), grads.arrays(),
                            state.m, state.v):
        f = arr.view(float) if np.iscomplexobj(arr) else arr
        gf = g.view(float) if np.iscomplexobj(g) else g
        m *= state.beta1
        m += (1.0 - state.beta1) * gf
        v *= state.beta2
        v += (1.0 - state.beta2) * gf * gf
        if state.weight_decay:
            f -= state.lr * state.weight_decay * f
        f -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def make_norm_states(spec: NetworkSpec) -> list:
    return [NormState.for_type(spec.cg_input_type(s))
            for s in range(spec.n_layers)]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def train_loop(coeffs: CovariantActivation, labels: np.ndarray,
               weights: NetworkWeights, norm_states: list, adam: AdamState,
               steps: int, batch_size: int, seed: int = 0,
               log_file=None) -> list:
    """Minibatch training; deterministic for a fixed seed and data order.

    Each step's batch is drawn from ``np.random.default_rng((seed, k))``,
    where k is ``adam.step`` before the step, so a run cut after any step
    and resumed from its checkpoint with the same seed draws the batches
    an uninterrupted run would.  Weight decay is applied by the optimizer.
    Returns the per-step (loss, accuracy) history and writes one
    tab-separated log line per step: ``step  loss  train_acc  lr  wall_ms``.
    """
    n = labels.shape[0]
    history = []
    for _ in range(steps):
        t0 = time.perf_counter()
        idx = np.random.default_rng((seed, adam.step)).choice(
            n, size=min(batch_size, n), replace=False)
        batch = CovariantActivation(
            coeffs.bandlimit, [f[idx] for f in coeffs.fragments])
        loss, grads, logits = loss_and_grad(
            batch, labels[idx], weights, norm_states, training=True)
        adam_step(adam, weights, grads)
        acc = accuracy(logits, labels[idx])
        history.append((loss, acc))
        if log_file is not None:
            wall_ms = (time.perf_counter() - t0) * 1e3
            log_file.write(
                f"{adam.step}\t{loss:.6f}\t{acc:.4f}\t{adam.lr:.6g}\t"
                f"{wall_ms:.1f}\n")
    return history


# --- checkpoint serialization ---

_BLOB_DOC = ("layer weights by layer then degree as complex128 "
             "(little-endian float64 re/im pairs), then head w1, b1, w2, b2 "
             "as float64")


def save_checkpoint(path, weights: NetworkWeights, norm_states: list,
                    adam: AdamState | None = None,
                    extra: dict | None = None) -> None:
    """Write a checkpoint directory atomically.

    Every file goes into a temporary sibling directory, which then replaces
    ``path`` by rename, so a failure while writing leaves the previous
    checkpoint at ``path`` as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.partial-{os.getpid()}")
    old = path.with_name(f".{path.name}.old-{os.getpid()}")
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir()
    try:
        _write_checkpoint(partial, weights, norm_states, adam, extra)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    if path.exists():
        shutil.rmtree(old, ignore_errors=True)
        os.replace(path, old)
    os.replace(partial, path)
    shutil.rmtree(old, ignore_errors=True)


def _write_checkpoint(path: Path, weights: NetworkWeights, norm_states: list,
                      adam: AdamState | None, extra: dict | None) -> None:
    spec = weights.spec
    lines = [
        "format=CGNET2",
        f"bandlimit={spec.bandlimit}",
        f"layers={spec.n_layers}",
        f"n_in={spec.n_in}",
        f"n_out={weights.head.b2.shape[0]}",
        f"hidden={weights.head.b1.shape[0]}",
        f"head_width={spec.head_width()}",
        f"blob_order={_BLOB_DOC}",
    ]
    for s, tau in enumerate(spec.layer_types):
        lines.append(f"tau{s + 1}=" + ",".join(str(t) for t in tau.tau))
    for key, value in (extra or {}).items():
        lines.append(f"{key}={value}")
    (path / "model.manifest").write_text("\n".join(lines) + "\n")

    with open(path / "weights.bin", "wb") as fh:
        for layer in weights.layers:
            for w in layer:
                fh.write(np.ascontiguousarray(w, dtype="<c16").tobytes())
        for arr in weights.head.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    with open(path / "norm.bin", "wb") as fh:
        counts = np.array([ns.count for ns in norm_states], dtype="<i8")
        fh.write(counts.tobytes())
        for ns in norm_states:
            for scale in ns.scales:
                fh.write(np.ascontiguousarray(scale, dtype="<f8").tobytes())

    if adam is not None:
        with open(path / "adam.bin", "wb") as fh:
            header = np.array([adam.step], dtype="<i8")
            hyper = np.array([adam.lr, adam.beta1, adam.beta2, adam.eps,
                              adam.weight_decay], dtype="<f8")
            fh.write(header.tobytes())
            fh.write(hyper.tobytes())
            for m, v in zip(adam.m, adam.v):
                fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def _parse_manifest(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out


def _manifest_value(manifest: dict, key: str, where: Path, many: bool = False):
    """A required manifest key as an integer, or with ``many`` as a tuple of
    comma-separated integers."""
    if key not in manifest:
        raise ValueError(f"{where}: missing key {key}")
    text = manifest[key]
    try:
        return tuple(int(x) for x in text.split(",")) if many else int(text)
    except ValueError:
        kind = "a list of integers" if many else "an integer"
        raise ValueError(f"{where}: {key}={text} is not {kind}") from None


def _read_blob(path: Path, expected: int) -> bytes:
    blob = path.read_bytes()
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes from the "
                         f"manifest, found {len(blob)}")
    return blob


def _split(flat: np.ndarray, shapes: list) -> list:
    """Copies of consecutive runs of ``flat``, one array per shape."""
    out, pos = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
        out.append(flat[pos:pos + n].reshape(shape).copy())
        pos += n
    return out


# the value domains a checkpoint field may have to lie in, by rule
_RULES = {
    "finite": np.isfinite,
    "at least 0": lambda a: a >= 0,
    "finite and at least 0": lambda a: np.isfinite(a) & (a >= 0),
    "finite and above 0": lambda a: np.isfinite(a) & (a > 0),
    "in [0, 1)": lambda a: (a >= 0) & (a < 1),
}


def _check_fields(blob: Path, fields) -> None:
    """Raise a ``ValueError`` naming ``blob`` and the first of ``fields``,
    (name, values, rule) triples, whose values break their rule."""
    for name, values, rule in fields:
        if not np.all(_RULES[rule](values)):
            raise ValueError(f"{blob}: {name} must be {rule}")


def load_checkpoint(path):
    """Load (weights, norm_states, adam_or_None, manifest_dict).

    Every blob's size is checked against the manifest before it is parsed,
    and every value against the domain training can produce: parameters,
    norm scales and ADAM moments finite, scales, counts and the ADAM step
    not negative, and ADAM hyperparameters in the range configs accept.  A
    zero scale stays valid: the column (i, i) of a self-pair at odd degree
    is identically zero, so its scale is.  ``head_width`` and ``blob_order``
    must read what the writer writes.  Only format CGNET2 is read: CGNET1
    weights and statistics have a row for every column of a self-pair's
    grid, where CGNET2 has one for each kept column.
    """
    path = Path(path)
    where = path / "model.manifest"
    manifest = _parse_manifest(where.read_text())
    fmt = manifest.get("format")
    if fmt != "CGNET2":
        why = ("; its weights hold every column of each self-pair's grid, "
               "which this version no longer forms: retrain"
               if fmt == "CGNET1" else "")
        raise ValueError(f"{where}: format={fmt} is not CGNET2{why}")
    L, S, n_in, n_out, hidden = (
        _manifest_value(manifest, key, where)
        for key in ("bandlimit", "layers", "n_in", "n_out", "hidden"))
    if not 0 <= L <= MAX_DEGREE:
        raise ValueError(f"{where}: bandlimit={L} is outside 0..{MAX_DEGREE}")
    for key, value in (("layers", S), ("n_in", n_in), ("n_out", n_out),
                       ("hidden", hidden)):
        if value < 1:
            raise ValueError(f"{where}: {key}={value} is below 1")
    taus = []
    for s in range(S):
        key = f"tau{s + 1}"
        counts = _manifest_value(manifest, key, where, many=True)
        for bad, why in ((len(counts) != L + 1,
                          f"has {len(counts)} entries, need {L + 1}"),
                         (min(counts) < 0, "has a negative entry"),
                         (s == S - 1 and any(counts[1:]),
                          "is not zero above l=0 in the final layer")):
            if bad:
                raise ValueError(f"{where}: {key}={manifest[key]} {why}")
        taus.append(ActivationType(counts))
    spec = NetworkSpec(L, n_in, tuple(taus))
    fans = [spec.cg_input_type(s).tau for s in range(S)]
    d = spec.head_width()
    for key, v in (("head_width", str(d)), ("blob_order", _BLOB_DOC)):
        if (got := manifest.get(key)) != v:
            raise ValueError(f"{where}: {key}={got}, expected {v}")
    layer_shapes = [(fan[ell], tau.tau[ell])
                    for fan, tau in zip(fans, taus) for ell in range(L + 1)]
    head_shapes = [(d, hidden), (hidden,), (hidden, n_out), (n_out,)]
    n_complex = sum(a * b for a, b in layer_shapes)
    n_head = sum(int(np.prod(shape)) for shape in head_shapes)
    n_scales = sum(sum(fan) for fan in fans)
    blob = _read_blob(path / "weights.bin", 16 * n_complex + 8 * n_head)
    norm_raw = _read_blob(path / "norm.bin", 8 * S + 8 * n_scales)

    mats = _split(np.frombuffer(blob[:16 * n_complex], dtype="<c16"),
                  layer_shapes)
    head = _split(np.frombuffer(blob[16 * n_complex:], dtype="<f8"),
                  head_shapes)
    layers = [mats[s * (L + 1):(s + 1) * (L + 1)] for s in range(S)]
    weights = NetworkWeights(spec, layers, HeadWeights(*head))

    counts = np.frombuffer(norm_raw[:8 * S], dtype="<i8")
    scales = _split(np.frombuffer(norm_raw[8 * S:], dtype="<f8"),
                    [(t,) for fan in fans for t in fan])
    norm_states = [NormState(scales[s * (L + 1):(s + 1) * (L + 1)],
                             int(counts[s])) for s in range(S)]
    # parameter names in ``NetworkWeights.arrays`` order
    names = [f"layer {s + 1} degree {ell} weights"
             for s in range(S) for ell in range(L + 1)]
    names += [f"head {key}" for key in ("w1", "b1", "w2", "b2")]
    _check_fields(path / "weights.bin", [
        (name, a, "finite") for name, a in zip(names, weights.arrays())])
    _check_fields(path / "norm.bin", [
        (f"layer {s + 1} norm count", counts[s], "at least 0")
        for s in range(S)] + [
        (f"layer {s + 1} degree {ell} norm scales", scale,
         "finite and at least 0")
        for s, ns in enumerate(norm_states)
        for ell, scale in enumerate(ns.scales)])

    adam = None
    adam_path = path / "adam.bin"
    if adam_path.exists():
        raw = _read_blob(adam_path, 48 + 16 * (2 * n_complex + n_head))
        step = int(np.frombuffer(raw[:8], dtype="<i8")[0])
        lr, b1, b2, eps, wd = np.frombuffer(raw[8:48], dtype="<f8")
        adam = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps,
                         weight_decay=wd, step=step)
        # m and v alternate, each shaped like the parameter's float64 view
        shapes = [(a.view(float) if np.iscomplexobj(a) else a).shape
                  for a in weights.arrays() for _ in range(2)]
        moments = _split(np.frombuffer(raw[48:], dtype="<f8"), shapes)
        adam.m, adam.v = moments[0::2], moments[1::2]
        _check_fields(adam_path, [
            ("step", step, "at least 0"),
            ("lr", lr, "finite and at least 0"),
            ("weight_decay", wd, "finite and at least 0"),
            ("beta1", b1, "in [0, 1)"), ("beta2", b2, "in [0, 1)"),
            ("eps", eps, "finite and above 0")] + [
            (f"{kind} of the {name}", moment, "finite")
            for name, m, v in zip(names, adam.m, adam.v)
            for kind, moment in (("m", m), ("v", v))])
    return weights, norm_states, adam, manifest
