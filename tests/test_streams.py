"""The seed contract stands alone: ``qndsim.streams`` imports no module of
the package, so its stream arithmetic is read, tested and patched apart from
the engines that draw from it."""

import ast
from pathlib import Path

from qndsim import streams


def test_streams_imports_only_numpy():
    tree = ast.parse(Path(streams.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "numpy"}
