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

import cgsphere.data
from cgsphere.config import parse_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import prep  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402


@pytest.mark.parametrize("module, attr, name", spans.WRAP_POINTS)
def test_wrap_points_resolve_to_callables(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name, madd, columns", [
    ("infer-desk", 36480, 1269),     # L5 / tau 4 / 3 layers
    ("train-band", 993249, 14551),   # L8 / tau 8 / 3 layers
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
