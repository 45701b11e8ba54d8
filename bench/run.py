"""cgsphere benchmark: one seeded, closed-loop workload per invocation.

    python3 bench/run.py --workload train-band --seed 1 --seconds 20 --trace 0

Workloads (why each exists: bench/NOTES.md):

  train-band    one training step on the L=8, tau=8, B=32 `band` config
  infer-desk    eval requests and B=1 audit trials on a desk checkpoint
  gen-highband  L=16, b=32 data generation, SPH1 write/read, forward SHT

``prep.py`` first writes the workload's inputs from ``--seed``.  Then
``workload.py`` runs in its own process with one client thread; BLAS keeps
its default thread count, which the stamp records.  With ``--trace 0``
set-up runs five times (the last one goes on to the timed loop) and the
last line of output carries the end-to-end metrics.  With ``--trace 1``
an untraced and a traced process each measure for half of ``--seconds``;
the last line carries the per-layer metrics and the tracing overhead
(traced minus untraced) of each end-to-end metric.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exit status: 0 when every operation passed its check, 1 when one failed,
2 when the benchmark could not run (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("train-band", "infer-desk", "gen-highband")

# End-to-end metrics on the result line, with units.  The workload decides
# what an "op" is: a training step, an audit trial, or one generated split
# pair.  The median op time is printed but not on the result line: this
# host switches between speed states up to 1.8x apart for 10-30 s at a
# time, and a median jumps between them (see NOTES.md).
END_TO_END = (("setup_s", "s"), ("op_ms_tail", "ms"),
              ("examples_per_s", "ex/s"), ("peak_rss_mb", "MB"))
SETUPS = 5          # set-up samples in an untraced run; setup_s is the median
BUDGET_S = 170      # every child process ends within this long of the start


class BenchError(Exception):
    """The benchmark itself could not run."""


def _run_child(cmd: list, deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget used up before " + Path(cmd[1]).name)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(cmd[1]).name} did not end in time")
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])


def _timed_child(workload: str, work: Path, seed: int, seconds: float,
                 trace: int, tag: str, deadline: float, extra: list,
                 setup_only: bool = False) -> dict:
    result = work / f"result-{tag}.json"
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--inputs", str(work), "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--result", str(result), *extra]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    _run_child(cmd, deadline)
    out = json.loads(result.read_text())
    out["setup_s"] = out["setup_end"] - start
    return out


def run(workload: str, seed: int, seconds: float, trace: int,
        prep_args: tuple = (), child_args: tuple = ()) -> list:
    """Prepare inputs and run the workload's processes; returns their
    results (set-up-only runs first)."""
    if not (ROOT / "src" / "cgsphere" / "__init__.py").is_file():
        raise BenchError(f"no cgsphere sources under {ROOT / 'src'}")
    deadline = time.monotonic() + BUDGET_S
    work = ROOT / ".benchdata" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _run_child([sys.executable, str(BENCH / "prep.py"), "--workload",
                    workload, "--seed", str(seed), "--out", str(work),
                    *prep_args], deadline)
        extra = list(child_args)
        if trace:
            return [_timed_child(workload, work, seed, seconds / 2, t,
                                 f"trace{t}", deadline, extra)
                    for t in (0, 1)]
        runs = [_timed_child(workload, work, seed, seconds, 0, f"setup{k}",
                             deadline, extra, setup_only=True)
                for k in range(SETUPS - 1)]
        runs.append(_timed_child(workload, work, seed, seconds, 0, "main",
                                 deadline, extra))
        return runs
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(main: dict, setups: list) -> dict:
    if not main.get("ops"):
        return {}
    values = {"setup_s": median(setups), **{
        name: main[name] for name, _ in END_TO_END if name != "setup_s"}}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def summarise(workload: str, seed: int, seconds: float, trace: int,
              runs: list) -> dict:
    """Print the readable report and return the result line."""
    main = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"cgsphere benchmark: workload {workload}, seed {seed}, "
          f"{seconds:g} s, trace {trace}; closed loop, one client thread")
    print("env " + json.dumps(main.get("env", {})))
    for r in runs:
        for failure in r["failures"]:
            print("FAILED " + failure.rstrip().replace("\n", "\n       "))
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'op_failure_ratio':24s} {ratio:.6g} ratio "
          f"({failed} failed / {attempted} attempted)")

    if trace:
        bare, traced = (end_to_end(r, [r["setup_s"]]) for r in runs)
        metrics = dict(main.get("layers", {}))
        if bare and traced:
            for name, unit in END_TO_END:
                metrics[f"trace_overhead.{name}"] = {
                    "value": traced[name]["value"] - bare[name]["value"],
                    "unit": unit}
        print_spans(main.get("spans", {}))
    else:
        setups = [r["setup_s"] for r in runs]
        metrics = end_to_end(main, setups)
        print(f"  {'setup_s':24s} {median(setups):.4f} s (median of "
              + ", ".join(f"{s:.4f}" for s in setups) + ")")
        for name, (value, unit) in main.get("named", {}).items():
            print(f"  {name:24s} {value:.4f} {unit}")
        print(f"  {'peak_rss_mb':24s} {main['peak_rss_mb']:.2f} MB")
        if metrics:
            print(f"result line: op_ms_tail is p{main['op_tail_pct']} of "
                  f"{main['op_samples']} ops")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    correct = failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_spans(summary: dict) -> None:
    print(f"  {'span':30s} {'setup':>6s} {'timed':>6s} {'ms p50':>9s} "
          f"{'self p50':>9s} {'total ms':>10s}  parents")
    for name, e in sorted(summary.items(), key=lambda kv: -kv[1]["total_ms"]):
        parents = ", ".join(f"{p}:{n}" for p, n in e["parents"].items())
        print(f"  {name:30s} {e['calls_setup']:6d} {e['calls_timed']:6d} "
              f"{e['ms_p50']:9.3f} {e['self_ms_p50']:9.3f} "
              f"{e['total_ms']:10.1f}  {parents}")


def main(argv=None, prep_args: tuple = (), child_args: tuple = ()) -> int:
    """Command-line entry.  ``prep_args`` and ``child_args`` reach
    ``prep.py`` and ``workload.py``; only the gate self-test sets them."""
    parser = argparse.ArgumentParser(
        description="cgsphere benchmark (see bench/NOTES.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        runs = run(args.workload, args.seed, args.seconds, args.trace,
                   prep_args, child_args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = summarise(args.workload, args.seed, args.seconds, args.trace, runs)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
