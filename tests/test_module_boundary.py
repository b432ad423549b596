"""Which modules may spell documents: only ``formats`` (and the graph codec in
``graphs``) imports ``json``, and only ``formats`` holds a ``%...g`` float format;
and what ``import gstft`` leaves unloaded."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "gstft").glob("*.py"))
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


def test_importing_the_library_loads_no_cli_codec_or_fft():
    # the CLI and its codecs, hashlib (the graph digest) and numpy.fft (classical, loaded inside its
    # functions) stay unloaded until used, so a process that only imports gstft does not pay for them
    code = "import sys, gstft; print(sorted({'gstft.cli', 'gstft.formats', 'hashlib', 'numpy.fft'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
