"""The engine imports no test code.

A replaced algorithm is kept only as a test oracle under ``tests/``, never
as a second live path, so no module of ``src/catdb`` may import ``tests``
or any ``*_oracle`` module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "catdb"


def imported_modules(path: Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            out.append(base)
            out += [f"{base}.{alias.name}" if base else alias.name
                    for alias in node.names]
    return out


def is_test_code(module: str) -> bool:
    parts = module.split(".")
    return parts[0] == "tests" or any(p.endswith("_oracle") for p in parts)


def test_the_sources_are_found():
    assert (SRC / "instance.py").is_file()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_source_imports_test_code(path):
    bad = [m for m in imported_modules(path) if is_test_code(m)]
    assert not bad, f"{path.name} imports {bad}"


@pytest.mark.parametrize("source, bad", [
    ("import tests.eval_oracle", True),
    ("from tests import saturate_oracle", True),
    ("from . import typeside_oracle", True),
    ("from .typeside_oracle import canon", True),
    ("import typeside_oracle as t", True),
    ("from .typeside import type_plan", False),
    ("import testsuite", False),
])
def test_the_check_sees_each_form_of_import(tmp_path, source, bad):
    path = tmp_path / "m.py"
    path.write_text(source + "\n", encoding="utf-8")
    assert any(is_test_code(m) for m in imported_modules(path)) == bad
