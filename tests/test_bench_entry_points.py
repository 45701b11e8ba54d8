"""The benchmark's entry points into the package, read from ``bench/``.

``bench/spans.py`` wraps the functions in ``WRAP_POINTS`` under
``--trace 1``, and ``bench/workload.py::cg_counts`` reports the CG
multiply-add and column counts from the package's own bookkeeping.  A
refactor that renames one of them breaks only the traced benchmark run, so
they are checked here, and so is the number of calls a span sees.
"""

import importlib
import sys
from pathlib import Path

import pytest

import numpy as np

import cgsphere.cli
import cgsphere.data
from cgsphere import gradients, training
from cgsphere.config import parse_config
from cgsphere.network import ActivationType, CovariantActivation, NetworkSpec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import prep  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402


@pytest.mark.parametrize("module, attr, name", spans.WRAP_POINTS)
def test_wrap_points_resolve_to_callables(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr))


# a self-pair keeps the columns (i, j), i <= j, of its tau x tau grid
# (36480 / 1269 and 993249 / 14551 with every column of the grid)
@pytest.mark.parametrize("name, madd, columns", [
    ("infer-desk", 31386, 1071),     # L5 / tau 4 / 3 layers
    ("train-band", 872177, 12591),   # L8 / tau 8 / 3 layers
])
def test_cg_counts_of_workload_configs(name, madd, columns):
    spec = parse_config(prep.CONFIGS[name]).network_spec()
    assert workload.cg_counts(spec) == {"network.cg_madd": madd,
                                        "network.cg_columns": columns}


@pytest.mark.parametrize("rotated", [True, False])
def test_wigner_span_sees_one_call_per_degree(monkeypatch, rotated):
    # the so3.wigner_D span wraps cgsphere.data.wigner_D; a split that
    # bypassed that attribute would read 0 calls under --trace 1
    seen = []
    original = cgsphere.data.wigner_D

    def counting(ell, angles):
        seen.append(ell)
        return original(ell, angles)

    monkeypatch.setattr(cgsphere.data, "wigner_D", counting)
    cfg = parse_config(prep.CONFIGS["gen-highband"])
    cgsphere.data.generate_split(cfg, cfg.train_per_class, rotated, seed=3)
    assert seen == (list(range(cfg.bandlimit + 1)) if rotated else [])


def test_training_step_spans_see_the_fused_stages():
    # a training step reaches these stages through the module attributes
    # --trace 1 wraps; a stage folded out of sight would read 0 calls
    t2 = ActivationType((2, 2, 2))
    spec = NetworkSpec(2, 1, (t2, ActivationType((2, 0, 0))))
    weights = gradients.init_weights(spec, n_out=3, hidden=4, seed=1)
    norms = training.make_norm_states(spec)
    adam = training.AdamState.for_weights(weights)
    rng = np.random.default_rng(4)
    batch = CovariantActivation(2, [
        rng.standard_normal((3, 2 * ell + 1, 1)) + 0j for ell in range(3)])
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, grads, _ = gradients.loss_and_grad(
            batch, np.array([0, 1, 2]), weights, norms, training=True)
        training.adam_step(adam, weights, grads)
    finally:
        tracer.uninstall()
    calls = {name: entry["calls_setup"]
             for name, entry in tracer.summary().items()}
    # layer 1 mixes inside the CG kernel, and layer 0, with one input
    # channel, builds its narrow CG output for covariant_linear to mix
    for name in ("network.cg_nonlinearity", "network.covariant_linear",
                 "gradients.backward_cg"):
        assert calls.get(name, 0) > 0, name


def test_eval_and_audit_spans_see_the_cg_kernel():
    # infer-desk's eval request and audit trial mix layer 1's CG products
    # inside the kernel and layer 0's CG output with covariant_linear; they
    # must still reach both through the module attributes --trace 1 wraps,
    # or their per-layer metrics read 0
    spec = NetworkSpec(2, 1, (ActivationType((2, 2, 2)),
                              ActivationType((2, 0, 0))))
    weights = gradients.init_weights(spec, n_out=3, hidden=4, seed=2)
    norms = training.make_norm_states(spec)
    rng = np.random.default_rng(5)
    batch = CovariantActivation(2, [
        rng.standard_normal((3, 2 * ell + 1, 1)) + 0j for ell in range(3)])
    for run in (
            lambda: gradients.forward_with_tape(batch, weights, norms,
                                                training=False),
            lambda: cgsphere.cli.audit_equivariance(weights, norms, 1)):
        tracer = spans.Tracer()
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        for name in ("network.cg_nonlinearity", "network.covariant_linear"):
            assert summary.get(name, {}).get("calls_setup", 0) > 0, name
