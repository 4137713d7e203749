"""The methods the benchmark's tracer wraps must exist where it looks.

``perfbench/layers.py`` names the traced methods in ``METHODS`` as
``"Class.method"`` per layer module, and its ``Tracer.install`` reads each
one as ``owner.__dict__[attr]``: deleting or moving such a method breaks
every ``--trace 1`` run.  Each one must also stay a plain function, since
the tracer wraps it as a method: a method turned into a cached attribute
or a property would break the trace too.  The file is read with ``ast``,
not imported, so the check needs nothing from the benchmark's own imports.
"""

import ast
import importlib
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _methods():
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no METHODS assignment in {LAYERS}")


def test_traced_methods_are_defined_on_their_classes():
    methods = _methods()
    assert methods
    for layer, quals in methods.items():
        module = importlib.import_module(f"tropmoduli.{layer}")
        for qual in quals:
            cls_name, meth = qual.split(".")
            owner = vars(getattr(module, cls_name))
            assert meth in owner, f"{layer}.{qual}"
            assert inspect.isfunction(owner[meth]), f"{layer}.{qual} is not a plain function"
