"""Package hygiene: the public export list and the module imports.

Every name in ``eigenprod.__all__`` must resolve under a star import and
appear once; every module-level import in a package module must be read
somewhere in that module.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import eigenprod

MODULES = sorted(
    p for p in Path(eigenprod.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def test_star_import_resolves_every_exported_name_once():
    repeated = [name for name, n in Counter(eigenprod.__all__).items() if n > 1]
    assert repeated == []
    namespace: dict = {}
    exec("from eigenprod import *", namespace)
    missing = [name for name in eigenprod.__all__ if name not in namespace]
    assert missing == []


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
