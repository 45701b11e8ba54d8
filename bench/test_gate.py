"""Self-test of the benchmark's correctness gate, at tiny sizes.

Runs ``infer-desk`` on a tiny desk model twice: once as it is, once with
one stored CG coefficient negated through ``network.corrupt_cg_entry``
(the timed process calls ``clear_cg_corruption`` when it ends).  The clean
run must pass with no failed operation.  The corrupted run must count
failed operations, mark the result incorrect and exit non-zero, so that a
broken program cannot report a clean number.

    python3 bench/test_gate.py
    python3 -m pytest -q bench/test_gate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def _bench(child_args: tuple = ()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "infer-desk", "--seed", "0",
                         "--seconds", "1", "--trace", "0"],
                        prep_args=("--tiny",), child_args=child_args)
    text = out.getvalue()
    return code, json.loads(text.strip().splitlines()[-1]), text


def test_clean_run_passes_the_gate():
    code, line, text = _bench()
    assert code == 0, text
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {name for name, _ in run.END_TO_END}


def test_corrupted_cg_fails_the_gate():
    code, line, text = _bench(("--corrupt-cg", "1,1,1,0"))
    assert code != 0, text
    assert not line["correct"]
    assert line["failed"] > 0 and line["attempted"] >= line["failed"]
    assert "FAILED" in text


if __name__ == "__main__":
    for test in (test_clean_run_passes_the_gate, test_corrupted_cg_fails_the_gate):
        test()
        print(f"ok  {test.__name__}")
