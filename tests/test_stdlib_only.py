"""The package needs only the standard library at run time."""

import ast
import subprocess
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


def test_import_loads_no_dataclasses_inspect_or_typing():
    """A cold start imports the package and the CLI and builds the parser;
    ``-S`` keeps ``site`` from loading any of these modules first."""
    src = str(Path(tropmoduli.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tropmoduli, tropmoduli.cli; "
            "tropmoduli.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
