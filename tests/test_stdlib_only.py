"""The package imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

import minword

SRC = Path(minword.__file__).parent


def _imported_top_level(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_import_only_stdlib_and_minword():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        imported = _imported_top_level(ast.parse(path.read_text(), filename=str(path)))
        foreign = {name for name in imported if name != "minword"} - sys.stdlib_module_names
        assert not foreign, f"{path.name} imports {sorted(foreign)}"
