"""The public names of bspower are used by the package or kept for a reason."""

import ast
import sys
from pathlib import Path

import bspower

# the names in bspower.__all__ that no module of the package references,
# each with the reason it stays public
UNREFERENCED = {
    "per_scenario_decomposition": "benchmarks/ looks it up by name",
    "build_deterministic_equivalent": "benchmarks/gate.py imports it",
    "verify_policy": "benchmarks/gate.py imports it",
    "baseline_policy": "the baseline cost and saving report will call it (ROADMAP item 1)",
    "default_calibration": "the README documents it as library API",
}


def referenced_names() -> set[str]:
    """Every name a module of the package (not __init__.py) loads, reads as
    an attribute or imports."""
    names = set()
    for path in Path(bspower.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_public_names_no_module_references_are_the_allowlist():
    assert sorted(set(bspower.__all__) - referenced_names()) == sorted(UNREFERENCED)


def test_the_package_imports_only_numpy_and_the_standard_library():
    # scipy, hypothesis and the LP oracles are for tests only
    allowed = sys.stdlib_module_names | {"numpy"}
    imported = set()
    for path in Path(bspower.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and sorted(imported - allowed) == []


def test_no_module_but_lp_multiplies_matrices():
    # costs and expectations are summed in written order, never by a BLAS
    # product whose order depends on the kernel loaded; lp.py, the simplex
    # the tests check the storage recursion with, is the one exception
    products = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}
    found = []
    for path in Path(bspower.__file__).parent.glob("*.py"):
        if path.name == "lp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            matmult = (isinstance(node, (ast.BinOp, ast.AugAssign))
                       and isinstance(node.op, ast.MatMult))
            if matmult or name in products:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
