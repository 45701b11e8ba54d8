import io
from pathlib import Path

import numpy as np
import pytest

from cgsphere import training
from cgsphere.gradients import NetworkWeights, init_weights
from cgsphere.network import ActivationType, CovariantActivation, NetworkSpec
from cgsphere.training import (
    AdamState,
    accuracy,
    adam_step,
    load_checkpoint,
    make_norm_states,
    save_checkpoint,
    train_loop,
)

RNG = np.random.default_rng(2024)


def small_spec(L=2, S=2, width=3):
    hidden = ActivationType((width,) * (L + 1))
    last = ActivationType((width,) + (0,) * L)
    return NetworkSpec(L, 1, (hidden,) * (S - 1) + (last,))


def random_activation(spec, batch, rng=RNG):
    return CovariantActivation(spec.bandlimit, [
        rng.standard_normal((batch, 2 * ell + 1, t))
        + 1j * rng.standard_normal((batch, 2 * ell + 1, t))
        for ell, t in enumerate(spec.input_type().tau)
    ])


def grads_like(weights, fill):
    def full(a):
        value = fill * (1 + 1j) if np.iscomplexobj(a) else fill
        return np.full_like(a, value)
    layers = [[full(w) for w in layer] for layer in weights.layers]
    from cgsphere.gradients import HeadWeights
    head = HeadWeights(*[full(a) for a in weights.head.arrays()])
    return NetworkWeights(weights.spec, layers, head)


# --- ADAM ---

def test_adam_first_step_is_signed_lr():
    spec = small_spec()
    weights = init_weights(spec, n_out=2, seed=1)
    adam = AdamState.for_weights(weights, lr=1e-3, weight_decay=0.0)
    before = [a.copy() for a in weights.arrays()]
    adam_step(adam, weights, grads_like(weights, 0.5))
    # with constant gradient g, the bias-corrected first step is
    # -lr * g / (|g| + eps) = -lr * sign(g) up to eps
    for b, a in zip(before, weights.arrays()):
        delta = (a - b).view(float) if np.iscomplexobj(a) else a - b
        np.testing.assert_allclose(delta, -1e-3 * np.ones_like(delta),
                                   rtol=1e-4)
    assert adam.step == 1


def test_adam_decoupled_weight_decay():
    spec = small_spec()
    weights = init_weights(spec, n_out=2, seed=1)
    adam = AdamState.for_weights(weights, lr=1e-3, weight_decay=0.1)
    w0 = weights.head.w1.copy()
    adam_step(adam, weights, grads_like(weights, 0.0))
    # zero gradient: only the decay term moves the weights
    np.testing.assert_allclose(weights.head.w1, w0 * (1.0 - 1e-3 * 0.1),
                               atol=1e-12)


def test_adam_moments_track_float_views():
    spec = small_spec()
    weights = init_weights(spec, n_out=2, seed=1)
    adam = AdamState.for_weights(weights)
    for arr, m in zip(weights.arrays(), adam.m):
        f = arr.view(float) if np.iscomplexobj(arr) else arr
        assert m.shape == f.shape


def test_accuracy():
    logits = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
    assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


# --- training loop ---

def make_toy_problem(seed=0, n=24):
    spec = small_spec(L=2, S=2, width=3)
    rng = np.random.default_rng(seed)
    coeffs = random_activation(spec, n, rng)
    # learnable rule: label from the sign structure of the input's l=0 part
    labels = (coeffs.fragments[0][:, 0, 0].real > 0).astype(int)
    weights = init_weights(spec, n_out=2, hidden=16, seed=seed)
    norms = make_norm_states(spec)
    adam = AdamState.for_weights(weights, lr=5e-3)
    return spec, coeffs, labels, weights, norms, adam


def test_train_loop_reduces_loss_and_logs():
    _, coeffs, labels, weights, norms, adam = make_toy_problem()
    log = io.StringIO()
    history = train_loop(coeffs, labels, weights, norms, adam,
                         steps=40, batch_size=12, seed=3, log_file=log)
    assert len(history) == 40
    first = np.mean([l for l, _ in history[:5]])
    last = np.mean([l for l, _ in history[-5:]])
    assert last < first
    lines = log.getvalue().strip().splitlines()
    assert len(lines) == 40
    fields = lines[0].split("\t")
    assert fields[0] == "1" and len(fields) == 5


def test_train_loop_deterministic():
    results = []
    for _ in range(2):
        _, coeffs, labels, weights, norms, adam = make_toy_problem(seed=5)
        train_loop(coeffs, labels, weights, norms, adam,
                   steps=10, batch_size=8, seed=7)
        results.append([a.copy() for a in weights.arrays()])
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


# --- checkpoints ---

def test_checkpoint_round_trip(tmp_path):
    _, coeffs, labels, weights, norms, adam = make_toy_problem()
    train_loop(coeffs, labels, weights, norms, adam, steps=5, batch_size=8)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, weights, norms, adam, extra={"note": "x"})
    w2, n2, a2, manifest = load_checkpoint(ckpt)

    assert manifest["format"] == "CGNET2"
    assert manifest["note"] == "x"
    assert w2.spec == weights.spec
    for a, b in zip(weights.arrays(), w2.arrays()):
        np.testing.assert_array_equal(a, b)
    for s1, s2 in zip(norms, n2):
        assert s1.count == s2.count
        for x, y in zip(s1.scales, s2.scales):
            np.testing.assert_array_equal(x, y)
    assert a2.step == adam.step
    assert a2.lr == adam.lr
    for m1, m2 in zip(adam.m + adam.v, a2.m + a2.v):
        np.testing.assert_array_equal(m1, m2)


def test_checkpoint_without_adam(tmp_path):
    spec = small_spec()
    weights = init_weights(spec, n_out=2, seed=0)
    norms = make_norm_states(spec)
    save_checkpoint(tmp_path / "c", weights, norms)
    w2, n2, a2, _ = load_checkpoint(tmp_path / "c")
    assert a2 is None
    for a, b in zip(weights.arrays(), w2.arrays()):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_resume_equivalence(tmp_path):
    """Train 10 steps straight vs. 5 + checkpoint + resume + 5, all at one
    seed: each step draws its batch from (seed, step), so the two runs end
    with the same parameters, statistics and moments, bit for bit."""
    _, coeffs, labels, w_full, n_full, a_full = make_toy_problem(seed=2)
    train_loop(coeffs, labels, w_full, n_full, a_full,
               steps=10, batch_size=8, seed=9)

    _, coeffs2, labels2, w_half, n_half, a_half = make_toy_problem(seed=2)
    train_loop(coeffs2, labels2, w_half, n_half, a_half,
               steps=5, batch_size=8, seed=9)
    save_checkpoint(tmp_path / "half", w_half, n_half, a_half)
    w_res, n_res, a_res, _ = load_checkpoint(tmp_path / "half")
    train_loop(coeffs2, labels2, w_res, n_res, a_res,
               steps=5, batch_size=8, seed=9)

    assert a_res.step == a_full.step == 10
    for a, b in zip(w_res.arrays(), w_full.arrays()):
        assert np.array_equal(a, b)
    for a, b in zip(a_res.m + a_res.v, a_full.m + a_full.v):
        assert np.array_equal(a, b)
    for a, b in zip(n_res, n_full):
        assert a.count == b.count
        for x, y in zip(a.scales, b.scales):
            assert np.array_equal(x, y)


def test_checkpoint_bad_format(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "model.manifest").write_text("format=WRONG\n")
    with pytest.raises(ValueError):
        load_checkpoint(d)


def test_checkpoint_of_the_earlier_format_is_rejected(tmp_path):
    """A CGNET1 checkpoint has a weight row for every column of each
    self-pair's grid; loading one fails, naming the file and the format."""
    _, _, _, weights, norms, adam = make_toy_problem()
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, weights, norms, adam)
    path = ckpt / "model.manifest"
    assert path.read_text().startswith("format=CGNET2\n")
    path.write_text(path.read_text().replace("format=CGNET2",
                                             "format=CGNET1"))
    with pytest.raises(ValueError) as err:
        load_checkpoint(ckpt)
    assert str(err.value).startswith(f"{path}: format=CGNET1 is not CGNET2")


@pytest.mark.parametrize("blob", ["weights.bin", "norm.bin", "adam.bin"])
@pytest.mark.parametrize("damage", ["truncated", "padded"])
def test_checkpoint_blob_size_checked(tmp_path, blob, damage):
    _, _, _, weights, norms, adam = make_toy_problem()
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, weights, norms, adam)
    path = ckpt / blob
    data = path.read_bytes()
    expected = len(data)
    data = data[:-16] if damage == "truncated" else data + bytes(16)
    path.write_bytes(data)
    with pytest.raises(ValueError) as err:
        load_checkpoint(ckpt)
    message = str(err.value)
    assert blob in message
    assert f"expected {expected} bytes" in message
    assert f"found {len(data)}" in message


@pytest.mark.parametrize("key", ["bandlimit", "layers", "n_in", "n_out",
                                 "hidden", "tau1", "tau2"])
@pytest.mark.parametrize("damage", ["missing", "non-integer"])
def test_manifest_key_checked(tmp_path, key, damage):
    _, _, _, weights, norms, adam = make_toy_problem()
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, weights, norms, adam)
    path = ckpt / "model.manifest"
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith(f"{key}=")]
    if damage == "non-integer":
        lines.append(f"{key}=x")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_checkpoint(ckpt)
    message = str(err.value)
    assert "model.manifest" in message
    assert key in message


@pytest.mark.parametrize("key, value", [("layers", "0"), ("tau1", "3,3"),
                                        ("tau2", "-1,0,0"), ("tau2", "1,1,0"),
                                        ("n_out", "0"), ("n_out", "-2"),
                                        ("hidden", "0"), ("n_in", "0"),
                                        ("bandlimit", "65"),
                                        ("bandlimit", "-1"),
                                        ("head_width", "-1"),
                                        ("head_width", "nan"),
                                        ("head_width", "16"),
                                        ("blob_order", "head first")])
def test_manifest_values_that_make_no_network(tmp_path, key, value):
    _, _, _, weights, norms, adam = make_toy_problem()
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, weights, norms, adam)
    path = ckpt / "model.manifest"
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith(f"{key}=")]
    path.write_text("\n".join(lines + [f"{key}={value}"]) + "\n")
    with pytest.raises(ValueError) as err:
        load_checkpoint(ckpt)
    message = str(err.value)
    assert "model.manifest" in message
    assert f"{key}={value}" in message


def field_offsets(weights, norms):
    """Byte offsets of some 8-byte fields in (weights, norm, adam).bin:
    layer arrays, then the head in weights.bin; one count per layer, then
    the scales in norm.bin; the step, lr, beta1, beta2, eps and
    weight_decay, then m and v per parameter in adam.bin."""
    layer_bytes = 16 * sum(w.size for layer in weights.layers for w in layer)
    first = weights.layers[0]
    adam_head = 48 + 2 * layer_bytes + 2 * 8 * weights.head.w1.size
    return {
        "layer 2 degree 0 weights": 16 * sum(w.size for w in first) + 8,
        "head b1": layer_bytes + 8 * weights.head.w1.size,
        "layer 2 norm count": 8,
        "layer 1 degree 0 norm scales": 8 * len(norms),
        "layer 2 degree 0 norm scales": 8 * len(norms)
        + 8 * sum(len(sc) for sc in norms[0].scales),
        "step": 0, "lr": 8, "beta1": 16, "beta2": 24, "eps": 32,
        "weight_decay": 40,
        "m of the layer 1 degree 0 weights": 48,
        "v of the head b1": adam_head + 8 * weights.head.b1.size,
    }


CHECKPOINT_PROBES = [
    ("weights.bin", "layer 2 degree 0 weights", np.nan, "finite"),
    ("weights.bin", "head b1", np.inf, "finite"),
    ("norm.bin", "layer 1 degree 0 norm scales", np.nan,
     "finite and at least 0"),
    ("norm.bin", "layer 2 degree 0 norm scales", -0.5,
     "finite and at least 0"),
    ("norm.bin", "layer 2 norm count", -1, "at least 0"),
    ("adam.bin", "step", -1, "at least 0"),
    ("adam.bin", "lr", np.nan, "finite and at least 0"),
    ("adam.bin", "lr", -1e-3, "finite and at least 0"),
    ("adam.bin", "weight_decay", np.inf, "finite and at least 0"),
    ("adam.bin", "beta1", 1.0, "in [0, 1)"),
    ("adam.bin", "beta2", -0.1, "in [0, 1)"),
    ("adam.bin", "eps", 0.0, "finite and above 0"),
    ("adam.bin", "m of the layer 1 degree 0 weights", np.nan, "finite"),
    ("adam.bin", "v of the head b1", -np.inf, "finite"),
]


@pytest.mark.parametrize("blob, field, value, rule", [
    pytest.param(*probe, id=f"{probe[1].replace(' ', '_')}={probe[2]}")
    for probe in CHECKPOINT_PROBES])
def test_checkpoint_values_checked_at_load(tmp_path, blob, field, value,
                                           rule):
    """A checkpoint field outside the domain training produces fails at
    load, naming the blob and the field, rather than loading and running."""
    _, _, _, weights, norms, adam = make_toy_problem()
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, weights, norms, adam)
    path = ckpt / blob
    data = bytearray(path.read_bytes())
    at = field_offsets(weights, norms)[field]
    kind = "<i8" if field in ("step", "layer 2 norm count") else "<f8"
    data[at:at + 8] = np.array(value, dtype=kind).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as err:
        load_checkpoint(ckpt)
    assert str(err.value) == f"{path}: {field} must be {rule}"


def test_checkpoint_with_zero_norm_scale_loads(tmp_path):
    """A self-pair's column (i, i) at odd degree is identically zero, and
    so is its scale, so zero stays valid."""
    _, _, _, weights, norms, adam = make_toy_problem()
    norms[0].scales[1][:] = 0.0
    save_checkpoint(tmp_path / "ckpt", weights, norms, adam)
    _, loaded, _, _ = load_checkpoint(tmp_path / "ckpt")
    np.testing.assert_array_equal(loaded[0].scales[1], 0.0)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    _, coeffs, labels, weights, norms, adam = make_toy_problem()
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, weights, norms, adam)
    before = {p.name: p.read_bytes() for p in ckpt.iterdir()}
    train_loop(coeffs, labels, weights, norms, adam, steps=2, batch_size=8)

    def failing_open(path, *args, **kwargs):
        if Path(path).name == "adam.bin":
            raise OSError("disk full")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(training, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ckpt, weights, norms, adam)
    monkeypatch.undo()

    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
    assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == before
    w_old, _, a_old, _ = load_checkpoint(ckpt)
    assert a_old.step == adam.step - 2
    assert any(not np.array_equal(a, b)
               for a, b in zip(w_old.arrays(), weights.arrays()))


def test_save_replaces_the_whole_checkpoint(tmp_path):
    _, _, _, weights, norms, adam = make_toy_problem()
    save_checkpoint(tmp_path / "ckpt", weights, norms, adam)
    save_checkpoint(tmp_path / "ckpt", weights, norms)
    assert not (tmp_path / "ckpt" / "adam.bin").exists()
    assert load_checkpoint(tmp_path / "ckpt")[2] is None
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
