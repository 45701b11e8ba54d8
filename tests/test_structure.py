"""Module boundaries inside the package."""

import ast
from pathlib import Path

import cgsphere

SRC = Path(cgsphere.__file__).resolve().parent


def test_no_module_imports_a_private_name_of_another():
    """A name with a leading underscore stays inside its module: no
    cgsphere module imports one from another."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith(
                    "cgsphere"):
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert found == []


def per_pair_loops(path: Path, kernels: tuple) -> dict:
    """The loops over ``plan.pairs`` in each named function of ``path``."""
    loops = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef) and node.name in kernels:
            loops[node.name] = [
                loop for loop in ast.walk(node) if isinstance(loop, ast.For)
                and "plan.pairs" in ast.unparse(loop.iter)]
    return loops


def test_cg_kernels_allocate_nothing_per_pair():
    """Every temporary of a CG kernel call is a region of its one scratch
    block: the per-pair loops of ``cg_nonlinearity`` and ``backward_cg``
    hold no ``@`` (which allocates its result) and call none of the
    allocating ``repeat``, ``conj``, ``empty``, ``zeros``, ``pad`` or
    ``concatenate``.  The ``take`` there (a self-pair's kept columns) writes
    into a region with ``out=`` and ``mode="clip"``: in the default mode
    numpy takes into a buffered copy of ``out``."""
    allocating = {"repeat", "conj", "empty", "zeros", "pad", "concatenate"}
    loops = per_pair_loops(SRC / "network.py",
                           ("cg_nonlinearity", "backward_cg"))
    assert {name: len(found) for name, found in loops.items()} == {
        "cg_nonlinearity": 1, "backward_cg": 1}
    found, takes = [], []
    for name, kernel_loops in loops.items():
        for node in (n for loop in kernel_loops for n in ast.walk(loop)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, ast.MatMult):
                found.append(f"{name}:{node.lineno} @")
            elif isinstance(node, ast.Call):
                f = node.func
                called = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                if called in allocating:
                    found.append(f"{name}:{node.lineno} {called}")
                keywords = {k.arg: ast.unparse(k.value)
                            for k in node.keywords}
                if called == "take":
                    takes.append(name)
                    if "out" not in keywords or \
                            keywords.get("mode") != "'clip'":
                        found.append(f"{name}:{node.lineno} take")
    assert found == []
    # a self-pair's rows, gathered on i and on j
    assert takes == ["cg_nonlinearity"]
