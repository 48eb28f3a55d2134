"""The public names of bspower are used by the package or kept for a reason."""

import ast
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
