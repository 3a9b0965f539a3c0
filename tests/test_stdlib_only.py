"""The package imports only the standard library and itself, and opens files as UTF-8."""

import ast
import subprocess
import sys
from pathlib import Path

import minword

from helpers import src_env

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


def test_sources_open_files_only_as_utf8():
    unencoded = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("read_text", "write_text", "open") and not any(
                kw.arg == "encoding" for kw in node.keywords
            ):
                unencoded.append(f"{path.name}:{node.lineno} {name}")
    assert not unencoded, f"file access without encoding=: {unencoded}"


def test_cli_import_loads_no_process_machinery():
    probe = (
        "import sys, minword.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=src_env(), check=True)
    assert out.stdout == "[]\n"


def test_cli_import_loads_no_record_or_output_machinery():
    # The records are named tuples, and csv and datetime load only when
    # --format csv or --timestamp asks for them.
    probe = (
        "import sys, minword.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'csv', 'datetime') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=src_env(), check=True)
    assert out.stdout == "[]\n"


def test_package_import_loads_every_library_module():
    # Tracing patches the functions of the loaded minword modules, so the
    # package imports each of them eagerly; cli is the entry point and is
    # imported on its own.
    expected = sorted(f"minword.{p.stem}" for p in SRC.glob("*.py") if p.stem not in ("__init__", "cli"))
    probe = "import sys, minword; print(sorted(m for m in sys.modules if m.startswith('minword.')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=src_env(), check=True)
    assert out.stdout == f"{expected}\n"
