"""Every public name of the package is used by the program, the benchmark or
the acceptance criteria, and not only by unit tests; every module-level
import of the package is read by its module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ordwalk"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]

# public names that only unit tests call, and why each stays public
TEST_ONLY = {
    "lattice_exact.exact_free_kernel":
        "exact free k-walk law; the killed kernels are checked against it",
    "lattice_exact.exact_stopped_measure":
        "exact exit law P(tau = m, X(m) = z); checked for mass balance with survival",
    "lattice_exact.gap_chain_stopped_delta":
        "float64 k=2 E[Delta(X(tau)); tau <= n], the V_n reference past exact capacity",
    "transform.dyson_gap_marginal":
        "ordered-BM gap density; its quadrature checks the closed-form dyson_gap_cdf",
}


TREES = {path: ast.parse(path.read_text()) for path in USERS}


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _references(path, module, name):
    """Uses of `name` in a file: names, attributes, imports and identifier
    strings (bench/spans.py patches by attribute name). The name's own
    definition, its body, and `__all__` do not count."""
    count = 0

    def visit(node):
        nonlocal count
        if (path.stem == module and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name):
            return
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return
        if isinstance(node, ast.Name) and node.id == name:
            count += 1
        elif isinstance(node, ast.Attribute) and node.attr == name:
            count += 1
        elif isinstance(node, ast.alias) and node.name == name:
            count += 1
        elif isinstance(node, ast.Constant) and node.value == name:
            count += 1
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(TREES[path])
    return count


PUBLIC = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
          for name in _exported(TREES[path])]


@pytest.mark.parametrize("module, name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_has_a_user(module, name):
    used = sum(_references(path, module, name) for path in USERS)
    if f"{module}.{name}" in TEST_ONLY:
        assert used == 0, f"{module}.{name} has users; drop it from TEST_ONLY"
    else:
        assert used > 0, f"{module}.{name} is public but nothing outside tests uses it"


def test_test_only_names_are_public():
    assert set(TEST_ONLY) <= {f"{m}.{n}" for m, n in PUBLIC}


def _unused_imports(tree):
    """Names a module imports at its top level but never reads or exports."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - set(_exported(tree)))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert _unused_imports(TREES[path]) == []


def test_unused_import_check_flags_an_orphan():
    tree = ast.parse("import math\nfrom itertools import combinations\nmath.pi\n")
    assert _unused_imports(tree) == ["combinations"]


def test_cli_import_loads_no_scipy_stats():
    # scipy is a test dependency only: importing scipy.special and
    # scipy.integrate took about 0.6 s of a fresh `import ordwalk.cli`, and
    # scipy.stats about 0.5 s more
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, ordwalk.cli\n"
            "ordwalk.cli.validate_spec('{kind: endpoint, seed: 1, walk: {k: 2, start: [0, 1],"
            " dist: rademacher}, params: {n: 64, survivors: 100}}')\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
