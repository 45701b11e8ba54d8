"""Spans around calls into cgsphere, recorded from the benchmark's side.

Every wrapper replaces a function at the module attribute its caller looks
it up through: modules import by name, so ``cgsphere.gradients`` (the
training path) and ``cgsphere.network`` (the ``network_forward`` path) each
hold their own reference to ``cg_nonlinearity``, and both are wrapped under
one span name.  Spans stay in memory and are summarised once, when the
workload ends.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from statistics import median

# (module, attribute, span name).  A span name may have several lookup points.
WRAP_POINTS = (
    ("cgsphere.data", "wigner_D", "so3.wigner_D"),
    ("cgsphere.cli", "wigner_D", "so3.wigner_D"),
    ("cgsphere.network", "cg_block", "so3.cg_block"),
    ("cgsphere.data", "forward_sht", "sht.forward_sht"),
    ("cgsphere.data", "inverse_sht", "sht.inverse_sht"),
    ("cgsphere.gradients", "cg_nonlinearity", "network.cg_nonlinearity"),
    ("cgsphere.network", "cg_nonlinearity", "network.cg_nonlinearity"),
    ("cgsphere.gradients", "covariant_normalize", "network.covariant_normalize"),
    ("cgsphere.network", "covariant_normalize", "network.covariant_normalize"),
    ("cgsphere.network", "covariant_linear", "network.covariant_linear"),
    ("cgsphere.cli", "network_forward", "network.network_forward"),
    ("cgsphere.gradients", "forward_with_tape", "gradients.forward_with_tape"),
    ("cgsphere.gradients", "backward_cg", "gradients.backward_cg"),
    ("cgsphere.gradients", "backward_linear", "gradients.backward_linear"),
    ("cgsphere.gradients", "loss_and_grad", "gradients.loss_and_grad"),
    ("cgsphere.training", "adam_step", "training.adam_step"),
    ("cgsphere.training", "load_checkpoint", "training.load_checkpoint"),
    ("cgsphere.data", "generate_split", "data.generate_split"),
    ("cgsphere.data", "write_dataset", "data.write_dataset"),
    ("cgsphere.data", "read_dataset", "data.read_dataset"),
    ("cgsphere.cli", "audit_equivariance", "cli.audit_equivariance"),
    ("cgsphere.cli", "batched_activation", "cli.batched_activation"),
)

# span fields
_NAME, _PARENT, _START, _END, _OP, _CHILD = range(6)


class Tracer:
    """Records one span per wrapped call: name, parent span, start, end,
    the operation it belongs to (``None`` during set-up) and the time its
    direct children cover.  One thread only, so children nest strictly."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, parent, time.perf_counter(), 0.0, self.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][_CHILD] += span[_END] - span[_START]

        return traced

    def summary(self) -> dict:
        """Per span name: calls and durations in set-up and in the timed
        operations, self times, the first call and the parents seen."""
        out: dict = {}
        for span in self.spans:
            name = span[_NAME]
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {
                    "first_start": span[_START],
                    "first_ms": (span[_END] - span[_START]) * 1e3,
                    "setup_ms": [], "timed_ms": [], "timed_self_ms": [],
                    "setup_self_ms": [], "parents": Counter()}
            dur = (span[_END] - span[_START]) * 1e3
            own = dur - span[_CHILD] * 1e3
            phase = "setup" if span[_OP] is None else "timed"
            entry[f"{phase}_ms"].append(dur)
            entry[f"{phase}_self_ms"].append(own)
            parent = span[_PARENT]
            entry["parents"][self.spans[parent][_NAME]
                             if parent is not None else "-"] += 1
        return {name: _condense(entry) for name, entry in out.items()}


def _condense(entry: dict) -> dict:
    timed = entry["timed_ms"]
    per_call = timed or entry["setup_ms"]
    per_call_self = entry["timed_self_ms"] or entry["setup_self_ms"]
    return {
        "calls_setup": len(entry["setup_ms"]),
        "calls_timed": len(timed),
        "ms_p50": median(per_call),
        "self_ms_p50": median(per_call_self),
        "total_ms": sum(entry["setup_ms"]) + sum(timed),
        "timed_ms_total": sum(timed),
        "timed_self_ms_total": sum(entry["timed_self_ms"]),
        "first_start": entry["first_start"],
        "first_ms": entry["first_ms"],
        "parents": dict(entry["parents"]),
    }
