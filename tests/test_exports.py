import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spherecert

MODULES = ["bounds", "capopt", "cli", "codes", "data", "errors", "gegenbauer",
           "threepoint", "verify"]
# test-only reference code, kept in tests/oracles.py
ORACLES = ["orthogonality_oracle", "monomial_oracle", "_monomial_oracle_exact",
           "_poly_weighted_inner", "_monomial_inner", "_weighted_even_moment",
           "MONOMIAL_ORACLE_MAX_DEGREE", "bv_matrix", "sweep_1d_loop", "triple_sweep_loop",
           "kernel_tensor_fraction", "poly_per_entry"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"spherecert.{name}")
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"spherecert.{name}.__all__ names missing {attr}"


def test_package_imports_resolve():
    tree = ast.parse(Path(spherecert.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "GegenbauerExpansion" in names
    for attr in names:
        assert hasattr(spherecert, attr), f"spherecert does not bind {attr}"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads: not as a name, not in a
    quoted annotation and not in __all__."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used.update(ast.literal_eval(node.value))
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


PACKAGE = Path(spherecert.__file__).parent


# the package's __init__.py imports names to re-export them
@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.rglob("*.py"))
                                  if path != PACKAGE / "__init__.py"],
                         ids=lambda path: str(path.relative_to(PACKAGE)))
def test_modules_use_what_they_import(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_oracles_are_not_in_the_package():
    for module in [spherecert] + [importlib.import_module(f"spherecert.{m}") for m in MODULES]:
        for name in ORACLES:
            assert not hasattr(module, name), f"{module.__name__} defines {name}"


def test_test_imports_are_declared_dependencies():
    # every third-party module the tests import is installed by
    # pip install -e ".[test]"
    tomllib = pytest.importorskip("tomllib")
    tests = Path(__file__).resolve().parent
    project = tomllib.loads((tests.parent / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    local = {path.stem for path in tests.glob("*.py")} | {"spherecert"}
    imported = set()
    for path in tests.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - local - set(sys.stdlib_module_names)
    assert {"numpy", "pytest", "mpmath"} <= third_party
    assert third_party <= declared, f"undeclared: {sorted(third_party - declared)}"


def test_benchmark_tracer_installs():
    # perfbench/spans.py wraps package names by attribute, so removing or
    # renaming one (say cli.check_triple_condition) must fail here and not
    # only in the benchmark's self-test; install() rebinds names in the
    # package's modules, hence the fresh interpreter
    root = Path(__file__).resolve().parent.parent
    code = ("import spans\n"
            "spans.Tracer().install()\n"
            "from spherecert import bounds, capopt, cli, codes\n"
            "for f in (codes.gegenbauer_eval, bounds.energy, capopt.minimize,\n"
            "          cli.check_triple_condition):\n"
            "    assert hasattr(f, '__wrapped__'), f\n")
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_is_imported_at_the_first_polish():
    # only the multistart cap polish uses scipy: every verb, kissing-check
    # too, runs without importing it, hence the fresh interpreter
    root = Path(__file__).resolve().parent.parent
    code = ("import io, sys, contextlib\n"
            "import spherecert, spherecert.cli\n"
            "from spherecert import capopt, cli\n"
            "from spherecert.data import load_expansion\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['eval', {str(PACKAGE / 'data' / 'g1.json')!r}, '--t', '0.5']) == 0\n"
            f"    assert cli.main(['kissing-check', {str(PACKAGE / 'data' / 'g1_cert.json')!r},\n"
            "                     '--t0=-0.7071067811865476', '--N', '25']) == 4\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded[:5]\n"
            "g = load_expansion('g1')\n"
            "capopt.cap_max(capopt.CapProblem(4, g, -0.7071067811865476, 1, 4), starts=2)\n"
            "assert 'scipy.optimize' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
