"""Command-line harness.

Subcommands: gen-data, train, eval, audit, dump-cg.
Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 audit failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config, serialize_config
from .data import (
    Dataset,
    dataset_coefficients,
    generate_split,
    read_dataset,
    write_dataset,
)
from .gradients import (
    NumericError,
    check_logits,
    forward_with_tape,
    init_weights,
)
from .network import (
    CovariantActivation,
    corrupt_cg_entry,
    clear_cg_corruption,
    network_forward,
)
from .so3 import cg_block, random_rotation, wigner_D
from .training import (
    AdamState,
    accuracy,
    load_checkpoint,
    make_norm_states,
    save_checkpoint,
    train_loop,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_AUDIT = 3

AUDIT_TOLERANCE = 1e-7


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def batched_activation(dataset: Dataset, L: int) -> CovariantActivation:
    """Per-example input activations (n_in = 1) from a dataset."""
    coeffs = dataset_coefficients(dataset, L)
    return CovariantActivation(
        L, [blk.T[:, :, None] for blk in coeffs.blocks])


def _check_dataset(dataset: Dataset, weights, prefix) -> None:
    """Reject labels the model has no output class for, and a grid too
    coarse for the model's degrees, naming the file."""
    n_classes, L = weights.head.b2.shape[0], weights.spec.bandlimit
    bad = dataset.labels[dataset.labels >= n_classes]
    if bad.size:
        raise ValueError(
            f"{Path(prefix).with_suffix('.labels')}: label {bad[0]} is not "
            f"below the model's class count {n_classes}")
    if L >= (b := dataset.signal.bandwidth):
        raise ValueError(
            f"{Path(prefix).with_suffix('.sph')}: grid bandwidth b={b} is "
            f"too coarse for the model's bandlimit L={L}; need b > L")


def _check_resume(cfg, config_path, weights, ckpt, manifest) -> None:
    """Raise a ``ConfigError`` naming both files and the first field where
    the config's network, classes or hidden width differ from the
    checkpoint's, or naming the manifest where the run's seed differs from
    the one its batches were drawn with (a manifest without a seed passes).
    """
    where = Path(ckpt) / "model.manifest"
    spec, head = weights.spec, weights.head
    for name, ours, theirs in (
            ("bandlimit", cfg.bandlimit, spec.bandlimit),
            ("layers", cfg.layers, spec.n_layers),
            ("tau", cfg.network_spec().layer_types, spec.layer_types),
            ("classes", cfg.classes, head.b2.shape[0]),
            ("hidden", cfg.hidden, head.b1.shape[0])):
        if ours != theirs:
            raise ConfigError(
                f"{config_path}: {name} = {getattr(cfg, name)} does not "
                f"match the network of {where}")
    if manifest.get("seed", str(cfg.seed)) != str(cfg.seed):
        raise ConfigError(
            f"{where}: seed={manifest['seed']} does not match this run's "
            f"seed {cfg.seed}; resume with --seed {manifest['seed']} to "
            f"continue its batch stream")


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train = generate_split(cfg, cfg.train_per_class, cfg.train_rotated(),
                           seed=cfg.seed + 1000)
    # the two test variants share templates, noise and rotation draws:
    # identical underlying examples, with and without the rotation applied
    test_nr = generate_split(cfg, cfg.test_per_class, False,
                             seed=cfg.seed + 2000)
    test_r = generate_split(cfg, cfg.test_per_class, True,
                            seed=cfg.seed + 2000)
    write_dataset(out / "train", train)
    write_dataset(out / "test_nr", test_nr)
    write_dataset(out / "test_r", test_r)
    test = test_r if cfg.test_rotated() else test_nr
    write_dataset(out / "test", test)
    (out / "config.used").write_text(serialize_config(cfg))
    print(f"wrote {len(train)} train / {len(test)} test examples to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_dir = Path(args.data) if args.data else out
    train = read_dataset(data_dir / "train")

    if args.resume:
        weights, norm_states, adam, manifest = load_checkpoint(args.resume)
        if adam is None:
            raise ValueError(f"checkpoint {args.resume} has no optimizer state")
        _check_resume(cfg, args.config, weights, args.resume, manifest)
    else:
        spec = cfg.network_spec()
        weights = init_weights(spec, cfg.classes, cfg.hidden, seed=cfg.seed)
        norm_states = make_norm_states(spec)
        adam = AdamState.for_weights(
            weights, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
            eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    _check_dataset(train, weights, data_dir / "train")
    acts = batched_activation(train, weights.spec.bandlimit)

    steps = args.steps if args.steps is not None else cfg.steps
    log_path = out / "train.log"
    with open(log_path, "a") as log:
        train_loop(acts, train.labels, weights, norm_states, adam,
                   steps=steps, batch_size=cfg.batch_size,
                   seed=cfg.seed, log_file=log)
    ckpt = out / "checkpoint"
    save_checkpoint(ckpt, weights, norm_states, adam,
                    extra={"steps_trained": adam.step, "seed": cfg.seed})
    print(f"trained {steps} steps; checkpoint at {ckpt}, log at {log_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    weights, norm_states, _, _ = load_checkpoint(args.checkpoint)
    dataset = read_dataset(args.data)
    if len(dataset) == 0:
        raise ValueError(f"dataset {args.data} is empty")
    n_out = weights.head.b2.shape[0]
    _check_dataset(dataset, weights, args.data)
    L = weights.spec.bandlimit
    acts = batched_activation(dataset, L)
    tape = forward_with_tape(acts, weights, norm_states, training=False)
    check_logits(tape.logits)
    preds = np.argmax(tape.logits, axis=1)
    acc = accuracy(tape.logits, dataset.labels)
    confusion = np.zeros((n_out, n_out), dtype=int)
    for truth, pred in zip(dataset.labels, preds):
        confusion[truth, pred] += 1
    print(f"accuracy {acc:.4f} on {len(dataset)} examples")
    print("confusion matrix (rows = truth):")
    for row in confusion:
        print(" ".join(f"{c:5d}" for c in row))
    return EXIT_OK


def _worse(err: float, new: float) -> float:
    """The larger error, or NaN if either is NaN: Python's ``max`` keeps
    its first argument when the second is NaN."""
    return new if new > err or new != new else err


def audit_equivariance(weights, norm_states, trials: int, seed: int = 0):
    """Per-layer covariance and head invariance errors over random
    (input, rotation) pairs, each pair one batch: eval mode mixes no
    examples.  Returns (max_layer_error, max_head_error); an error that is
    NaN anywhere makes its maximum NaN."""
    rng = np.random.default_rng(seed)
    spec = weights.spec
    L = spec.bandlimit
    layer_err = 0.0
    head_err = 0.0
    for _ in range(trials):
        F0 = CovariantActivation(L, [
            rng.standard_normal((1, 2 * ell + 1, spec.n_in))
            + 1j * rng.standard_normal((1, 2 * ell + 1, spec.n_in))
            for ell in range(L + 1)])
        rot = random_rotation(rng)
        d_mats = [wigner_D(ell, rot).matrix for ell in range(L + 1)]
        feats, acts = network_forward(CovariantActivation.from_m_major(L, [
            np.concatenate(p, axis=1)
            for p in zip(F0.m_major, F0.rotated(d_mats).m_major)]),
            weights.layers, norm_states)
        for act in acts:
            for f_exp, f in zip(act.rotated(d_mats).fragments, act.fragments):
                if f_exp.size == 0:
                    continue
                scale = max(np.abs(f_exp[0]).max(), 1e-30)
                layer_err = _worse(layer_err,
                                   np.abs(f[1] - f_exp[0]).max() / scale)
        scale = max(np.abs(feats[0]).max(), 1e-30)
        head_err = _worse(head_err,
                          np.abs(feats[0] - feats[1]).max() / scale)
    return layer_err, head_err


def cmd_audit(args) -> int:
    weights, norm_states, _, _ = load_checkpoint(args.checkpoint)
    if args.corrupt_cg:
        try:
            l1, l2, l, idx = (int(x) for x in args.corrupt_cg.split(","))
        except ValueError:
            l1 = l2 = l = idx = None  # malformed: matches no block below
        if (l1, l2, l) not in weights.spec.cg_blocks():
            # corrupting nothing would let the audit report a vacuous pass
            print(f"error: --corrupt-cg {args.corrupt_cg}: not a CG block "
                  f"L1,L2,L the network evaluates, plus an entry IDX",
                  file=sys.stderr)
            return EXIT_USAGE
        entries = len(cg_block(l1, l2, l).entries)
        if not 0 <= idx < entries:
            print(f"error: --corrupt-cg {args.corrupt_cg}: entry IDX={idx} "
                  f"is not in 0..{entries - 1}: block ({l1}, {l2}, {l}) has "
                  f"{entries} entries", file=sys.stderr)
            return EXIT_USAGE
        corrupt_cg_entry(l1, l2, l, idx)
    try:
        layer_err, head_err = audit_equivariance(
            weights, norm_states, args.trials, seed=args.seed or 0)
    finally:
        clear_cg_corruption()
    print(f"max per-layer covariance error: {layer_err:.3e}")
    print(f"max head invariance error:      {head_err:.3e}")
    if not (layer_err <= AUDIT_TOLERANCE and head_err <= AUDIT_TOLERANCE):
        finite = np.isfinite(layer_err) and np.isfinite(head_err)
        print(f"AUDIT FAILED ({'' if finite else 'non-finite error; '}"
              f"tolerance {AUDIT_TOLERANCE:g})")
        return EXIT_AUDIT
    print(f"audit passed (tolerance {AUDIT_TOLERANCE:g})")
    return EXIT_OK


def cmd_dump_cg(args) -> int:
    block = cg_block(args.l1, args.l2, args.l)
    for (m1, m2), m, value in block.entries:
        print(f"{args.l1} {args.l2} {args.l} {m1} {m2} {m} {value:.17g}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="cgsphere",
                     description="Fourier-space covariant spherical networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a network")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--data", help="dataset directory (defaults to --out)")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int, help="override the config step budget")
    p.add_argument("--resume", help="checkpoint directory to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True,
                   help="dataset prefix (expects <prefix>.sph/.labels)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("audit", help="verify rotation equivariance")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int)
    p.add_argument("--corrupt-cg", metavar="L1,L2,L,IDX",
                   help="negate one CG coefficient (sensitivity check)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("dump-cg", help="print a Clebsch-Gordan block")
    p.add_argument("l1", type=int)
    p.add_argument("l2", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(func=cmd_dump_cg)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, low in (("steps", 0), ("trials", 1), ("seed", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            parser.error(f"--{flag} must be at least {low}, got {value}")
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_NUMERIC
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
