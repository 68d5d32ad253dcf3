import ast
import subprocess
import sys
from pathlib import Path

import pytest

import leafpower

ROOT = Path(__file__).resolve().parent.parent


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert leafpower.__version__ == project["version"]


def test_runtime_imports_only_the_standard_library():
    # -S: no site-packages, and no modules that their .pth files load
    code = "import sys, leafpower; print('\\n'.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    ).stdout
    top = {name.split(".")[0] for name in out.split()}
    assert top - set(sys.stdlib_module_names) - {"leafpower", "__main__"} == set()


def test_private_names_are_imported_only_from_tree_metric():
    # tree_metric owns the shared private helpers (the tree walk and the
    # edge leaf-mask format); no other module lends out underscore names
    offenders = []
    for path in sorted((ROOT / "src" / "leafpower").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != "tree_metric":
                offenders += [f"{path.name}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_no_float_on_any_decision_path():
    # exactness is the product: no float literal, no float() or round()
    # call and no math.sqrt, math.log or math.exp anywhere in the package
    inexact = {"sqrt", "log", "exp"}
    offenders = []
    for path in sorted((ROOT / "src" / "leafpower").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                offenders.append(f"{where}: literal {node.value!r}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                offenders += [f"{where}: math.{a.name}" for a in node.names if a.name in inexact]
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in ("float", "round"):
                    offenders.append(f"{where}: {func.id}()")
                elif (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "math"
                    and func.attr in inexact
                ):
                    offenders.append(f"{where}: math.{func.attr}()")
    assert offenders == []
