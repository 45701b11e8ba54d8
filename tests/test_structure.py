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


def per_pair_loops(path: Path, kernels: tuple) -> tuple:
    """The loops over ``plan.pairs``, or over the products that
    ``_products`` yields pair by pair, in each named function of ``path``;
    and every function and method defined in ``path``, by name."""
    loops, functions = {}, {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
    for name in kernels:
        loops[name] = [
            loop for loop in ast.walk(functions[name])
            if isinstance(loop, ast.For) and any(
                key in ast.unparse(loop.iter)
                for key in ("plan.pairs", "_products("))]
    return loops, functions


def called_name(call: ast.Call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def test_cg_kernels_allocate_nothing_per_pair():
    """Every temporary of a CG kernel call is a region of its one scratch
    block: the per-pair loops of ``_products`` (the CG table products),
    ``_cg_output`` (the copies into H), ``cg_nonlinearity`` (the training
    statistics, the fold and the mix), ``cg_weight_gradient`` and
    ``backward_cg`` hold no ``@`` (which allocates its result) and call
    none of the allocating ``repeat``, ``conj``, ``empty``, ``zeros``,
    ``pad`` or ``concatenate``; every ``einsum``, ``matmul``, ``take`` and
    arithmetic ufunc there, and in the module's own helpers those loops
    call (the column powers, the expanding-average step, the fold), writes
    into a region with ``out=``.  ``_products`` gathers each pair's
    factors with exactly two ``take``s (degree l1's rows on the kept i,
    degree l2's on the kept j), and each also passes ``mode="clip"``: in
    the default mode numpy takes into a buffered copy of ``out``."""
    allocating = {"repeat", "conj", "empty", "zeros", "pad", "concatenate"}
    writing = {"einsum", "matmul", "take", "multiply", "add", "divide",
               "sqrt", "sum", "conjugate"}
    loops, functions = per_pair_loops(
        SRC / "network.py",
        ("_products", "_cg_output", "cg_nonlinearity", "cg_weight_gradient",
         "backward_cg"))
    assert {name: len(found) for name, found in loops.items()} == {
        "_products": 1, "_cg_output": 1, "cg_nonlinearity": 1,
        "cg_weight_gradient": 1, "backward_cg": 1}
    found, takes, helpers = [], [], set()
    for name, kernel_loops in loops.items():
        nodes = [n for loop in kernel_loops for n in ast.walk(loop)]
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, ast.MatMult):
                found.append(f"{name}:{node.lineno} @")
            elif isinstance(node, ast.Call):
                called = called_name(node)
                if called in functions and called not in loops \
                        and called not in helpers:
                    helpers.add(called)
                    nodes += ast.walk(functions[called])
                if called in allocating:
                    found.append(f"{name}:{node.lineno} {called}")
                keywords = {k.arg: ast.unparse(k.value)
                            for k in node.keywords}
                if called in writing and "out" not in keywords:
                    found.append(f"{name}:{node.lineno} {called} without out")
                if called == "take":
                    takes.append(name)
                    if keywords.get("mode") != "'clip'":
                        found.append(f"{name}:{node.lineno} take")
    assert found == []
    assert helpers == {"_column_power", "_average", "_fold_rows",
                       "_reciprocals", "_divisors", "_run_size"}
    # each pair's l1 rows on i and l2 rows on j, one take each
    assert takes == ["_products", "_products"]


def test_one_function_holds_the_epsilon_rule():
    """``NORM_EPS`` is read in one place, the divisor helper that the
    training fold, ``NormState.fold`` and ``covariant_normalize`` share,
    so the rule for columns with a tiny scale cannot drift between them."""
    tree = ast.parse((SRC / "network.py").read_text())
    inside = {id(node): function.name for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef)
              for node in ast.walk(function)}
    readers = [inside.get(id(node), "<module>") for node in ast.walk(tree)
               if isinstance(node, ast.Name) and node.id == "NORM_EPS"
               and isinstance(node.ctx, ast.Load)]
    assert readers == ["_divisors"]


def test_cg_kernels_share_one_run_rule():
    """One helper, ``_run_size``, holds the run rule of the CG kernels: it
    alone reads ``_CACHE_BYTES``; ``_products`` and ``backward_cg`` each
    take a pair's rows m in runs of the sizes it gives, in one loop per
    pair; and the plan's Kronecker sizes (``kron``, ``grid_kron``: the
    widest row m and the largest pair) reach a kernel only as its
    arguments, for the region a scratch block cuts, so no kernel cuts a
    region for a whole pair's Kronecker rows."""
    tree = ast.parse((SRC / "network.py").read_text())
    inside = {id(node): function.name for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef)
              for node in ast.walk(function)}
    readers = [inside.get(id(node), "<module>") for node in ast.walk(tree)
               if isinstance(node, ast.Name) and node.id == "_CACHE_BYTES"
               and isinstance(node.ctx, ast.Load)]
    assert readers == ["_run_size"]
    loops, functions = per_pair_loops(SRC / "network.py",
                                      ("_products", "backward_cg"))
    for name, (loop,) in loops.items():
        steps = [ast.unparse(node.value) for node in ast.walk(loop)
                 if isinstance(node, ast.Assign)
                 and ast.unparse(node.targets[0]) == "step"]
        runs = [ast.unparse(node.iter) for node in ast.walk(loop)
                if isinstance(node, ast.For) and node is not loop
                and "step" in ast.unparse(node.iter)]
        assert len(steps) == 1 and steps[0].startswith("_run_size("), name
        assert runs == ["range(0, 2 * M + 1, step)"], name
    regions = {
        name: [ast.unparse(arg) for call in ast.walk(functions[name])
               if isinstance(call, ast.Call) and called_name(call) == "scratch"
               for arg in call.args if "kron" in ast.unparse(arg)]
        for name in ("_cg_output", "cg_nonlinearity", "cg_weight_gradient",
                     "backward_cg")}
    assert regions == {"_cg_output": ["_run_size(B, *plan.kron)"],
                       "cg_nonlinearity": ["_run_size(B, *plan.kron)"],
                       "cg_weight_gradient": ["_run_size(B, *plan.kron)"],
                       "backward_cg": ["_run_size(B, *plan.grid_kron)"]}
    reads = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("kron", "grid_kron")]
    assert sorted(reads) == ["plan.grid_kron", "plan.kron", "plan.kron",
                             "plan.kron"]
