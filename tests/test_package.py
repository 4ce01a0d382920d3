"""Package surface: every export resolves, and the README quickstart runs."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import stablepar

MODULES = sorted(info.name for info in pkgutil.iter_modules(stablepar.__path__))
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    """``import *`` reads ``__all__``, so a stale entry fails here."""
    namespace = {}
    exec(f"from stablepar.{module} import *", namespace)
    for name in getattr(importlib.import_module(f"stablepar.{module}"), "__all__", ()):
        assert name in namespace, name


def test_package_imports_resolve():
    """Every name ``stablepar/__init__`` imports from a submodule exists there."""
    tree = ast.parse(Path(stablepar.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"stablepar.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert getattr(stablepar, alias.name) is getattr(module, alias.name)


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    """The README's first ``python`` block runs as written."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["est"].period == 3
    assert capsys.readouterr().out.count("[[") == 2
