"""The package needs only the standard library at run time."""

import ast
import sys
from pathlib import Path

import tropmoduli


def test_runtime_imports_are_stdlib_only():
    modules = sorted(Path(tropmoduli.__file__).parent.rglob("*.py"))
    assert len(modules) >= 9
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "tropmoduli" and top not in sys.stdlib_module_names:
                    outside.append((path.name, node.lineno, name))
    assert outside == []
