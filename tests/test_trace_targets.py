"""The methods the benchmark's tracer wraps must exist where it looks.

``perfbench/layers.py`` names the traced methods in ``METHODS`` as
``"Class.method"`` per layer module, and its ``Tracer.install`` reads each
one as ``owner.__dict__[attr]``: deleting or moving such a method breaks
every ``--trace 1`` run.  Each one must also stay a plain function, since
the tracer wraps it as a method: a method turned into a cached attribute
or a property would break the trace too.  ``METRIC_OF`` maps traced span
names to per-layer metrics; a key that names no function in the library
leaves its metric reading 0 without any error, so every key must resolve,
except the retired kernels in ``RETIRED``.  The file is read with ``ast``,
not imported, so the check needs nothing from the benchmark's own imports.
"""

import ast
import importlib
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


# kernels deleted from the library that METRIC_OF still names; they trace
# nothing until the benchmark drops them
RETIRED = {"exact_linalg.kernel_rational", "exact_linalg.solve_linear"}


def _assigned(name):
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} assignment in {LAYERS}")


def _resolve(name):
    """The object a span name such as ``polyhedral.Polyhedron.vrep`` names in
    the library, or None."""
    layer, *path = name.split(".")
    obj = importlib.import_module(f"tropmoduli.{layer}")
    for attr in path:
        obj = vars(obj).get(attr) if inspect.isclass(obj) else getattr(obj, attr, None)
    return obj


def test_traced_metrics_name_library_functions():
    metric_of = _assigned("METRIC_OF")
    assert metric_of and RETIRED <= set(metric_of)
    for name in metric_of:
        fn = _resolve(name)
        if name in RETIRED:
            assert fn is None, f"{name} is retired but still defined"
            continue
        assert inspect.isfunction(fn) and fn.__module__.startswith("tropmoduli."), name


def test_traced_methods_are_defined_on_their_classes():
    methods = _assigned("METHODS")
    assert methods
    for layer, quals in methods.items():
        module = importlib.import_module(f"tropmoduli.{layer}")
        for qual in quals:
            cls_name, meth = qual.split(".")
            owner = vars(getattr(module, cls_name))
            assert meth in owner, f"{layer}.{qual}"
            assert inspect.isfunction(owner[meth]), f"{layer}.{qual} is not a plain function"
