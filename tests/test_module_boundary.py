"""Which modules may spell documents: only ``formats`` (and the graph codec in
``graphs``) imports ``json``, and only ``formats`` holds a ``%...g`` float format."""
import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gstft").glob("*.py"))
FLOAT_FORMAT = re.compile(r"%[-+ #0]*\d*(\.\d+)?[gG]")


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is not None and node.level == 0:
            yield node.module


def _float_formats(tree):
    return [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and FLOAT_FORMAT.search(node.value)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_formats_spells_documents(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name not in ("formats.py", "graphs.py"):
        assert "json" not in {name.split(".")[0] for name in _imports(tree)}
    if path.name != "formats.py":
        assert _float_formats(tree) == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse('import json\nfrom json import loads\nx = "%.17g" % 1.0\ny = "%+.3G"')
    assert list(_imports(tree)) == ["json", "json"]
    assert sorted(_float_formats(tree)) == ["%+.3G", "%.17g"]
    assert SOURCES and "formats.py" in {p.name for p in SOURCES}
