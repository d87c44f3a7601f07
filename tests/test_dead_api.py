"""Every public name of the package is used by the program, the benchmark or
the acceptance criteria, and not only by unit tests; every module-level
import of the package is read by its module, and every module-level private
name by the program, the benchmark or some test."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ordwalk"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]
# this file's own strings would count as reads of the names they spell
READERS = [ast.parse(path.read_text()) for path in
           sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
           + sorted((ROOT / "tests").glob("*.py")) if path != Path(__file__).resolve()]

# public names that only unit tests call, and why each stays public
TEST_ONLY = {
    "lattice_exact.exact_free_kernel":
        "exact free k-walk law; the killed kernels are checked against it",
    "lattice_exact.exact_stopped_measure":
        "exact exit law P(tau = m, X(m) = z); checked for mass balance with survival",
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


def _private_definitions(tree):
    """Names a module defines at its top level, by def, class or assignment,
    that start with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _reads(tree):
    """Names a file reads: loaded names, attributes, imported names and
    identifier strings (bench/spans.py patches by attribute name)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def _unread_private_names(tree, readers):
    return sorted(_private_definitions(tree) - set().union(*map(_reads, readers)))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_private_name_is_read(path):
    assert _unread_private_names(TREES[path], READERS) == []


def test_private_name_check_flags_an_orphan():
    tree = ast.parse("_A, _B = 1, 2\n_C: int = 3\ndef _f():\n    return _A\n"
                     "class _K:\n    pass\n__x__ = _K\n")
    assert _unread_private_names(tree, [tree]) == ["_B", "_C", "_f"]


def test_only_engine_reads_how_blocks_are_cut_and_keyed():
    # every block consumer iterates engine._blocks, so the block size, the
    # block simulator and the sizes of a batch stay behind one module
    internals = {"_simulate_block", "_block_sizes", "BLOCK_SIZE"}
    readers = {path.stem for path in PACKAGE.glob("*.py") if _reads(TREES[path]) & internals}
    assert readers == {"engine"}


def test_every_gap_dp_caller_goes_through_the_one_module_attribute():
    # the k=2 gap DP's blocks stay behind lattice_exact, and its one checked
    # entry is looked up on the module, so a wrapper put there (the tracer's)
    # sees every call; a from-import would bind the unwrapped function
    internals = {"_gap_blocks", "_run_blocks"}
    readers = {path.stem for path in PACKAGE.glob("*.py") if _reads(TREES[path]) & internals}
    assert readers == {"lattice_exact"}
    bound = {(path.stem, alias.name) for path in PACKAGE.glob("*.py")
             for node in ast.walk(TREES[path]) if isinstance(node, ast.ImportFrom)
             for alias in node.names
             if alias.name == "_gap_chain_dp" or alias.name.startswith("gap_chain_")}
    assert bound == set()


def test_cli_keeps_one_table_of_run_kinds():
    # every kind's runner, params, law and horizon are one record of _KINDS;
    # run_experiment checks the law before dispatch, so no runner does
    tree = TREES[PACKAGE / "cli.py"]
    assert _private_definitions(tree) & {"_RUNNERS", "_KIND_LAWS", "_KIND_PARAMS"} == set()
    runners = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_")]
    assert len(runners) == 10
    assert not [node.name for node in runners if "_law_error" in _reads(node)]


def test_only_v_module_asks_for_stopped_positions():
    # the stopped path gathers every exit row and takes Delta per block; only
    # V by Monte Carlo reads them, so every other consumer of engine._blocks
    # takes the lean path (stopped is its sixth parameter)
    askers = {path.stem for path in PACKAGE.glob("*.py") for node in ast.walk(TREES[path])
              if isinstance(node, ast.Call)
              and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_blocks"
              and (len(node.args) > 5 or any(kw.arg == "stopped" for kw in node.keywords))}
    assert askers == {"v_module"}


def _numpy_random_users(tree):
    """Qualified names of the scopes that call into numpy.random (a bit
    generator, a Generator, a SeedSequence or the global state) or import
    from it; "<module>" is the top level."""
    users = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        func = getattr(node, "func", None)
        if ((isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
             and func.value.attr == "random"
             and getattr(func.value.value, "id", None) in ("np", "numpy"))
                or isinstance(node, ast.ImportFrom) and node.module == "numpy.random"
                or isinstance(node, ast.Import)
                and any(a.name == "numpy.random" for a in node.names)):
            users.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return users


def test_only_random_stream_builds_a_generator():
    # every stream is keyed by (seed, salt) in one place, so no layer draws
    # from a generator outside the salt registry
    found = {(path.stem, scope) for path in PACKAGE.glob("*.py")
             for scope in _numpy_random_users(TREES[path])}
    assert found == {("distributions", "RandomStream.generator")}


def test_numpy_random_check_flags_a_stray_generator():
    tree = ast.parse("import numpy as np\nfrom numpy.random import SFC64\n"
                     "class K:\n    def f(self):\n        return np.random.Philox(1)\n"
                     "def g():\n    np.random.default_rng(2).random(3)\n"
                     "def h(rng: np.random.Generator):\n    return rng.random(3)\n")
    assert _numpy_random_users(tree) == {"<module>", "K.f", "g"}


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


def test_json_spec_validation_loads_no_yaml():
    # a JSON spec is parsed by json; PyYAML's import and scanner took about
    # 17 ms of each fresh set-up, and JSON specs need neither
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    spec = json.dumps({"kind": "endpoint", "seed": 1, "params": {"n": 64, "survivors": 100},
                       "walk": {"k": 2, "start": [0, 1], "dist": "rademacher"}})
    code = ("import sys, ordwalk.cli\n"
            "ordwalk.cli.validate_spec(sys.argv[1])\n"
            "assert 'yaml' not in sys.modules")
    subprocess.run([sys.executable, "-c", code, spec], env=env, check=True)
