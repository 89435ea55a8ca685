"""Every program name the benchmark harness reaches exists.

``perfbench/traced_job.py`` wraps its ``TARGETS`` and reads the cache
statistics of its ``CACHES``, listing a missing one as absent, and
``perfbench/checks.py`` imports from the package.  Both files are parsed,
not run, so a name removed from ``src/`` fails here on every Python the
suite runs on.
"""

import ast
import importlib
from pathlib import Path

import pytest

from equisyz.linalg import Subspace
from equisyz.schur import SchurSeries

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned(path: Path, name: str):
    """The literal value assigned to ``name`` at the top of a module."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module_name, path", _assigned(PERFBENCH / "traced_job.py", "TARGETS"))
def test_every_traced_target_resolves(module_name, path):
    assert callable(_resolve(module_name, path))


@pytest.mark.parametrize("module_name, attr", _assigned(PERFBENCH / "traced_job.py", "CACHES"))
def test_every_counted_cache_has_cache_info(module_name, attr):
    assert hasattr(_resolve(module_name, attr), "cache_info")


def test_every_name_the_checks_import_resolves():
    tree = ast.parse((PERFBENCH / "checks.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("equisyz")
        for alias in node.names
    ]
    assert imported
    for module_name, name in imported:
        _resolve(module_name, name)


def test_the_members_the_harness_reads_exist():
    """traced_job.py counts ``.coeffs`` of each series; checks.py builds
    series by ``from_pairs``, reads ``min_degree`` and Subspace ``basis``."""
    assert isinstance(SchurSeries.coeffs, property)
    assert isinstance(Subspace.basis, property)
    assert callable(SchurSeries.from_pairs) and callable(SchurSeries.min_degree)
