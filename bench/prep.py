"""Write one workload's inputs from its seed, before the timed process starts.

The inputs are made with the package's own public entry points (the
``gen-data`` and ``train`` subcommands), so the timed process only reads
files: a config, SPH1 datasets and, for ``infer-desk``, a checkpoint.

    python3 bench/prep.py --workload infer-desk --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# train-band: the ROADMAP `band` config (L=8, tau=8, 3 layers, B=32);
# test_per_class is 1 because only the train split is read.
# infer-desk: the desk model (L5/tau4/3 layers, b=8), 25 test examples a
# class in each of test_r and test_nr.
# gen-highband: the split each operation generates, 2 examples a class.
CONFIGS = {
    "train-band": """\
bandlimit = 8
grid_bandwidth = 16
layers = 3
tau = 8
classes = 4
hidden = 64
batch_size = 32
train_per_class = 32
test_per_class = 1
""",
    "infer-desk": """\
bandlimit = 5
grid_bandwidth = 8
layers = 3
tau = 4
classes = 4
hidden = 64
batch_size = 32
train_per_class = 25
test_per_class = 25
""",
    "gen-highband": """\
bandlimit = 16
grid_bandwidth = 32
classes = 4
train_per_class = 2
""",
}

# The gate self-test runs infer-desk at these sizes.
TINY_DESK = """\
bandlimit = 2
grid_bandwidth = 4
layers = 2
tau = 2
classes = 2
hidden = 8
batch_size = 4
train_per_class = 4
test_per_class = 2
"""

# Steps trained before the infer-desk checkpoint is written, so the model
# carries real normalization statistics.
DESK_TRAIN_STEPS = 20


def prepare(workload: str, seed: int, out: Path, tiny: bool = False) -> None:
    from cgsphere.cli import main as cli

    out.mkdir(parents=True, exist_ok=True)
    text = TINY_DESK if tiny else CONFIGS[workload]
    config = out / "config.txt"
    config.write_text(text + f"seed = {seed}\n")
    if workload == "gen-highband":
        return
    data = out / "data"
    if cli(["gen-data", "--config", str(config), "--out", str(data)]) != 0:
        raise SystemExit(f"gen-data failed for {workload}")
    if workload == "infer-desk":
        if cli(["train", "--config", str(config), "--out", str(out / "run"),
                "--data", str(data), "--steps", str(DESK_TRAIN_STEPS)]) != 0:
            raise SystemExit("train failed for infer-desk")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="infer-desk at gate self-test sizes")
    args = parser.parse_args(argv)
    if args.tiny and args.workload != "infer-desk":
        parser.error("--tiny applies to infer-desk only")
    prepare(args.workload, args.seed, Path(args.out), args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
