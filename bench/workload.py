"""The timed process of one benchmark workload.

It reads the inputs ``prep.py`` wrote, sets up, runs one warm-up operation
of each kind, then runs operations in a closed loop on one client thread
for ``--seconds``.  Every operation's output is checked; an operation that
raises or fails its check counts as failed.  The result is one JSON file.

    python3 bench/workload.py --workload train-band --inputs DIR --seed 1 \
        --seconds 20 --trace 0 --result FILE [--setup-only]

``run.py`` starts this process and measures set-up time from before the
process starts to the ``setup_end`` stamp it writes.  Bare timings come
from a run with ``--trace 0``; ``--trace 1`` wraps the public functions
listed in ``spans.WRAP_POINTS`` and adds per-layer metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

import cgsphere
from cgsphere import cli, data, gradients, network, training
from cgsphere.config import load_config
from cgsphere.network import CovariantActivation

import envinfo
import spans

ROOT = Path(__file__).resolve().parent.parent

# Gates.  Measured at the first baseline: eval logits agree to ~5e-15,
# audit errors are ~4e-15, rotated/unrotated power spectra agree to ~3e-13.
EVAL_TOL = 1e-8
AUDIT_TOL = 1e-8
SPECTRUM_TOL = 1e-10


class GateError(Exception):
    """An operation returned a wrong answer."""


def check_audit(layer_err: float, head_err: float) -> None:
    worst = max(layer_err, head_err)
    if not np.isfinite(worst) or worst > AUDIT_TOL:
        raise GateError(f"audit error layer {layer_err:.3e} head "
                        f"{head_err:.3e} exceeds {AUDIT_TOL:g}")


def harmonic_table_mb(b: int, L: int) -> float:
    """Size of the dense ((L+1)^2, 2b, 2b) complex harmonic table, computed
    from its shape (MB = 2^20 bytes)."""
    return (L + 1) ** 2 * (2 * b) ** 2 * 16 / 2 ** 20


def cg_counts(spec) -> dict:
    """Multiply-adds of the CG products for one example, and post-CG
    column count, summed over layers."""
    madd = columns = 0
    for s in range(spec.n_layers):
        prev = spec.input_type() if s == 0 else spec.layer_types[s - 1]
        out_max = 0 if s == spec.n_layers - 1 else spec.bandlimit
        madd += network.cg_madd_count(prev, spec.pair_policy, out_max)
        columns += sum(spec.cg_input_type(s).tau)
    return {"network.cg_madd": madd, "network.cg_columns": columns}


class TrainBand:
    """One operation is one training step: a minibatch draw,
    ``loss_and_grad(training=True)`` and ``adam_step``."""

    mix = ("step",)
    latency_kind = "step"

    def __init__(self, inputs: Path, seed: int):
        cfg = load_config(inputs / "config.txt")
        train = data.read_dataset(inputs / "data" / "train")
        self.acts = cli.batched_activation(train, cfg.bandlimit)
        self.labels = train.labels
        self.spec = cfg.network_spec()
        self.weights = gradients.init_weights(self.spec, cfg.classes,
                                              cfg.hidden, seed=cfg.seed)
        self.norms = training.make_norm_states(self.spec)
        self.adam = training.AdamState.for_weights(
            self.weights, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
            eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
        self.batch_size = cfg.batch_size
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.grid = (cfg.grid_bandwidth, cfg.bandlimit)

    def step(self, i: int) -> int:
        n = self.labels.shape[0]
        idx = self.rng.choice(n, size=min(self.batch_size, n), replace=False)
        batch = CovariantActivation(
            self.acts.bandlimit, [f[idx] for f in self.acts.fragments])
        loss, grads, _ = gradients.loss_and_grad(
            batch, self.labels[idx], self.weights, self.norms, training=True)
        if not np.isfinite(loss):
            raise GateError(f"non-finite loss {loss}")
        training.adam_step(self.adam, self.weights, grads)
        return idx.shape[0]

    def final_check(self) -> None:
        """The trained weights still pass a one-trial audit."""
        check_audit(*cli.audit_equivariance(self.weights, self.norms, 1,
                                            seed=self.seed))

    def counts(self) -> dict:
        return cg_counts(self.spec)

    def named(self, kinds: dict, wall: float) -> dict:
        steps = kinds["step"]["ms"]
        tail, pct = tail_of(steps)
        return {
            "step_ms_p50": (median(steps), "ms"),
            "step_ms_tail": (tail, f"ms (p{pct}, n={len(steps)})"),
            "train_examples_per_s": (self.rate(kinds, wall), "ex/s"),
        }

    def rate(self, kinds: dict, wall: float) -> float:
        return kinds["step"]["examples"] / wall


class InferDesk:
    """A fixed closed-loop mix on the desk model loaded from a checkpoint:
    one eval request (both matched test sets, forward SHT, forward pass,
    argmax) to every ten audit trials (two B=1 forwards plus Wigner-D)."""

    mix = ("eval",) + ("audit",) * 10
    latency_kind = "audit"

    def __init__(self, inputs: Path, seed: int):
        cfg = load_config(inputs / "config.txt")
        ckpt = inputs / "run" / "checkpoint"
        self.weights, self.norms, _, _ = training.load_checkpoint(ckpt)
        self.checkpoint_bytes = sum(p.stat().st_size for p in ckpt.iterdir())
        self.data_dir = inputs / "data"
        self.seed = seed
        self.spec = self.weights.spec
        self.grid = (cfg.grid_bandwidth, cfg.bandlimit)
        self.correct = self.evaluated = 0

    def eval(self, i: int) -> int:
        test_r = data.read_dataset(self.data_dir / "test_r")
        test_nr = data.read_dataset(self.data_dir / "test_nr")
        if not np.array_equal(test_r.labels, test_nr.labels):
            raise GateError("test_r and test_nr labels differ")
        logits = []
        for dataset in (test_r, test_nr):
            acts = cli.batched_activation(dataset, self.spec.bandlimit)
            # keep only the logits, so one tape at a time is alive, as in
            # `cgsphere eval`
            logits.append(gradients.forward_with_tape(
                acts, self.weights, self.norms, training=False).logits)
            self.correct += int(np.sum(
                np.argmax(logits[-1], axis=1) == dataset.labels))
        err = np.abs(logits[0] - logits[1]).max() / np.abs(logits[1]).max()
        if not np.isfinite(err) or err > EVAL_TOL:
            raise GateError(f"rotated/unrotated logits differ by {err:.3e}")
        self.evaluated += 2 * len(test_r)
        return 2 * len(test_r)

    def audit(self, i: int) -> int:
        check_audit(*cli.audit_equivariance(
            self.weights, self.norms, 1, seed=self.seed * 1_000_003 + i))
        return 1

    def counts(self) -> dict:
        return {**cg_counts(self.spec),
                "training.checkpoint_bytes": self.checkpoint_bytes}

    def named(self, kinds: dict, wall: float) -> dict:
        audits = kinds["audit"]["ms"]
        return {
            "eval_examples_per_s": (self.rate(kinds, wall), "ex/s"),
            "audit_trial_ms_p50": (median(audits), "ms"),
            "audit_trial_ms_p90": (float(np.percentile(audits, 90)),
                                   f"ms (n={len(audits)})"),
            "eval_accuracy": (self.correct / max(self.evaluated, 1), "ratio"),
        }

    def rate(self, kinds: dict, wall: float) -> float:
        return kinds["eval"]["examples"] / kinds["eval"]["busy_s"]


class GenHighband:
    """One operation generates a class-balanced rotated split and its
    unrotated twin from the same seed, writes both as SPH1 plus labels,
    reads them back and runs the forward SHT."""

    mix = ("generate",)
    latency_kind = "generate"

    def __init__(self, inputs: Path, seed: int):
        self.cfg = load_config(inputs / "config.txt")
        self.out = inputs / "generated"
        self.out.mkdir(exist_ok=True)
        self.seed = seed
        self.grid = (self.cfg.grid_bandwidth, self.cfg.bandlimit)
        self.bytes_written = 0

    def generate(self, i: int) -> int:
        cfg = self.cfg
        split_seed = self.seed * 1_000_003 + i
        made = [data.generate_split(cfg, cfg.train_per_class, rotated,
                                    seed=split_seed) for rotated in (True, False)]
        back = []
        self.bytes_written = 0
        for name, dataset in zip(("gen_r", "gen_nr"), made):
            prefix = self.out / name
            data.write_dataset(prefix, dataset)
            self.bytes_written += sum(prefix.with_suffix(s).stat().st_size
                                      for s in (".sph", ".labels"))
            back.append(data.read_dataset(prefix))
        for wrote, read in zip(made, back):
            if not (np.array_equal(wrote.signal.samples, read.signal.samples)
                    and np.array_equal(wrote.labels, read.labels)):
                raise GateError("SPH1 round trip changed the data")
        # rotation acts unitarily within each degree, so per-degree power
        # of every example is the same in both twins
        power = [np.stack([np.sum(np.abs(blk) ** 2, axis=0) for blk in
                           data.dataset_coefficients(ds, cfg.bandlimit).blocks])
                 for ds in back]
        err = np.abs(power[0] - power[1]).max() / np.abs(power[1]).max()
        if not np.isfinite(err) or err > SPECTRUM_TOL:
            raise GateError(f"twin power spectra differ by {err:.3e}")
        return sum(len(ds) for ds in made)

    def counts(self) -> dict:
        return {"data.bytes_written": self.bytes_written}

    def named(self, kinds: dict, wall: float) -> dict:
        return {"gen_examples_per_s": (self.rate(kinds, wall), "ex/s")}

    def rate(self, kinds: dict, wall: float) -> float:
        return kinds["generate"]["examples"] / wall


WORKLOADS = {"train-band": TrainBand, "infer-desk": InferDesk,
             "gen-highband": GenHighband}


def tail_of(values: list):
    """The highest whole percentile with at least ten samples beyond it,
    capped at the 90th, and that percentile (0 when there are ten samples
    or fewer).  Past the 90th a run of a few hundred operations would
    report the host's scheduling hiccups rather than the program."""
    n = len(values)
    pct = min(90, max(0, 100 * (n - 10) // n))
    return float(np.percentile(values, pct)), pct


class Runner:
    """Attempts operations and keeps the counts and timings per kind."""

    def __init__(self, workload, tracer):
        self.wl = workload
        self.tracer = tracer
        self.kinds = {k: {"ms": [], "examples": 0, "busy_s": 0.0}
                      for k in workload.mix}
        self.attempted = self.failed = self.numeric_errors = 0
        self.failures: list = []

    def attempt(self, kind: str, i: int, timed: bool) -> None:
        if self.tracer is not None:
            self.tracer.op = i if timed else None
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            n = getattr(self.wl, kind)(i)
        except Exception as exc:  # any exception from the program is a failed op
            self.failed += 1
            if isinstance(exc, gradients.NumericError):
                self.numeric_errors += 1
            if len(self.failures) < 3:
                self.failures.append(f"{kind} #{i}: {traceback.format_exc(limit=4)}")
            return
        dt = time.perf_counter() - t0
        if timed:
            entry = self.kinds[kind]
            entry["ms"].append(dt * 1e3)
            entry["examples"] += n
            entry["busy_s"] += dt

    def final_check(self) -> None:
        check = getattr(self.wl, "final_check", None)
        if check is None:
            return
        self.attempted += 1
        try:
            check()
        except Exception:  # a failed final check is a failed operation
            self.failed += 1
            self.failures.append(f"final check: {traceback.format_exc(limit=4)}")


def layer_metrics(summary: dict, runner: Runner) -> dict:
    """Per-layer metrics from the span summary, as {name: {value, unit}}.

    ``.ms`` is the median duration per call and ``.self_ms`` the median of
    duration minus child spans, both over calls in the timed operations, or
    over set-up calls when there were none then; 0 when never called.
    ``.calls`` is calls per timed operation.  ``so3.cg_block`` counts the
    whole process, since CG blocks are built lazily during set-up.
    ``.ms_per_op`` is the time spent in a span per timed operation: one
    operation calls a layer several times with different sizes (three
    layers per step, rotated and unrotated splits), and a per-call median
    hides the largest call.
    """
    n_ops = max(1, sum(len(k["ms"]) for k in runner.kinds.values()))

    def stat(name, key):
        entry = summary.get(name)
        return entry[key] if entry else 0

    sht = [summary[n] for n in ("sht.forward_sht", "sht.inverse_sht")
           if n in summary]
    gen = runner.kinds.get("generate")
    counts = {"network.cg_madd": 0, "network.cg_columns": 0,
              "training.checkpoint_bytes": 0, "data.bytes_written": 0}
    counts.update(runner.wl.counts())
    values = {
        "so3.wigner_D.ms": (stat("so3.wigner_D", "ms_p50"), "ms"),
        "so3.wigner_D.calls": (stat("so3.wigner_D", "calls_timed") / n_ops,
                               "1/op"),
        "so3.cg_block.ms_total": (stat("so3.cg_block", "total_ms"), "ms"),
        "so3.cg_block.calls": (stat("so3.cg_block", "calls_setup")
                               + stat("so3.cg_block", "calls_timed"), "count"),
        "sht.forward_sht.ms": (stat("sht.forward_sht", "ms_p50"), "ms"),
        "sht.inverse_sht.ms": (stat("sht.inverse_sht", "ms_p50"), "ms"),
        "sht.first_call_ms": (min(sht, key=lambda e: e["first_start"])
                              ["first_ms"] if sht else 0, "ms"),
        "sht.harmonic_table_mb": (harmonic_table_mb(*runner.wl.grid), "MB"),
        "network.cg_nonlinearity.ms": (
            stat("network.cg_nonlinearity", "ms_p50"), "ms"),
        "network.covariant_normalize.ms": (
            stat("network.covariant_normalize", "ms_p50"), "ms"),
        "network.covariant_linear.ms": (
            stat("network.covariant_linear", "ms_p50"), "ms"),
        "network.network_forward.self_ms": (
            stat("network.network_forward", "self_ms_p50"), "ms"),
        "network.cg_madd": (counts["network.cg_madd"], "count"),
        "network.cg_columns": (counts["network.cg_columns"], "count"),
        "gradients.forward_with_tape.self_ms": (
            stat("gradients.forward_with_tape", "self_ms_p50"), "ms"),
        "gradients.backward_cg.ms": (stat("gradients.backward_cg", "ms_p50"),
                                     "ms"),
        "gradients.backward_linear.ms": (
            stat("gradients.backward_linear", "ms_p50"), "ms"),
        "gradients.loss_and_grad.self_ms": (
            stat("gradients.loss_and_grad", "self_ms_p50"), "ms"),
        "gradients.numeric_errors": (runner.numeric_errors, "count"),
        "training.adam_step.ms": (stat("training.adam_step", "ms_p50"), "ms"),
        "training.load_checkpoint.ms": (
            stat("training.load_checkpoint", "ms_p50"), "ms"),
        "training.checkpoint_bytes": (counts["training.checkpoint_bytes"], "B"),
        "data.generate_split.self_ms": (
            stat("data.generate_split", "timed_self_ms_total") / gen["examples"]
            if gen and gen["examples"] else 0, "ms/ex"),
        "data.write_dataset.ms": (stat("data.write_dataset", "ms_p50"), "ms"),
        "data.read_dataset.ms": (stat("data.read_dataset", "ms_p50"), "ms"),
        "data.bytes_written": (counts["data.bytes_written"], "B/op"),
        "cli.audit_equivariance.self_ms": (
            stat("cli.audit_equivariance", "self_ms_p50"), "ms"),
        "cli.batched_activation.ms": (
            stat("cli.batched_activation", "ms_p50"), "ms"),
    }
    for name in dict.fromkeys(n for _, _, n in spans.WRAP_POINTS):
        values[f"{name}.ms_per_op"] = (stat(name, "timed_ms_total") / n_ops,
                                       "ms/op")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one timed benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the warm-up operations")
    parser.add_argument("--corrupt-cg", metavar="L1,L2,L,IDX",
                        help="negate one CG coefficient (gate self-test)")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(cgsphere.__file__).resolve().parents:
        raise SystemExit(f"cgsphere imported from {cgsphere.__file__}, "
                         f"not from {src}")

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    if args.corrupt_cg:
        network.corrupt_cg_entry(*(int(x) for x in args.corrupt_cg.split(",")))
    try:
        workload = WORKLOADS[args.workload](Path(args.inputs), args.seed)
        runner = Runner(workload, tracer)
        counter = itertools.count()
        for kind in dict.fromkeys(workload.mix):
            runner.attempt(kind, next(counter), timed=False)
        setup_end = time.monotonic()
        result = {"setup_end": setup_end}
        if not args.setup_only:
            kinds = itertools.cycle(workload.mix)
            start = time.perf_counter()
            deadline = start + args.seconds
            while time.perf_counter() < deadline:
                runner.attempt(next(kinds), next(counter), timed=True)
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
            runner.final_check()
            result.update(timed_e2e(workload, runner, wall))
            if tracer is not None:
                summary = tracer.summary()
                result["layers"] = layer_metrics(summary, runner)
                result["spans"] = summary
            result["env"] = envinfo.environment(ROOT)
    finally:
        if args.corrupt_cg:
            network.clear_cg_corruption()
    result.update(attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024)
    Path(args.result).write_text(json.dumps(result))
    return 0


def timed_e2e(workload, runner: Runner, wall: float) -> dict:
    """Operation latency, throughput and the workload's own named metrics.
    With failed operations a kind may have no samples; then it reports
    nothing and the run is marked incorrect by the failure count."""
    latency = runner.kinds[workload.latency_kind]["ms"]
    if not latency or any(not k["ms"] for k in runner.kinds.values()):
        return {"ops": 0}
    tail, pct = tail_of(latency)
    return {
        "ops": sum(len(k["ms"]) for k in runner.kinds.values()),
        "wall_s": wall,
        "op_ms_tail": tail,
        "op_tail_pct": pct,
        "op_samples": len(latency),
        "examples_per_s": workload.rate(runner.kinds, wall),
        "named": workload.named(runner.kinds, wall),
    }


if __name__ == "__main__":
    sys.exit(main())
