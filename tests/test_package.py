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
