"""The README's "Python API" section runs, and it documents the package root."""

import ast
import re
from pathlib import Path

import pytest

import dravlid

README = Path(__file__).resolve().parent.parent / "README.md"


def api_section() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Python API\n(.*?)^## ", text, re.M | re.S)
    assert match, "README has no Python API section"
    return match.group(1)


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", api_section(), re.M | re.S)


def test_section_has_examples():
    assert len(python_blocks()) >= 3


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_example_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(python_blocks()[index], f"README block {index}", "exec"), {})


def test_root_imports_are_exported():
    imported = {
        alias.name
        for block in python_blocks()
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "dravlid"
        for alias in node.names
    }
    assert imported
    assert imported <= set(dravlid.__all__)


def test_every_export_is_documented():
    section = api_section()
    assert [name for name in dravlid.__all__ if f"`{name}`" not in section] == []
