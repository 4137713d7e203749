"""Layer tracing from outside the library.

A ``Tracer`` wraps the public functions of each tropmoduli layer (and a few
kernel methods) at run time.  The package binds names with ``from .x
import y``, so a function is rebound in every ``tropmoduli.*`` namespace
that holds it; ``uninstall`` puts every original object back.

Each wrapped call records a span (id, parent id, op id, name, start, end)
in memory.  A layer's self time is the time its spans cover minus the time
covered by their child spans; a metric's time counts only the outermost
span of that metric, so nested calls are not counted twice.  Counts come
only from the arguments and return values of the wrapped calls.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

from workloads import type_genus

LAYERS = ("exact_linalg", "polyhedral", "tropcurve", "moduli", "family", "documents", "cli")

# Leaf helpers called millions of times per batch; wrapping them would
# mostly measure the wrapper.
UNTRACED = {
    "exact_linalg": {"frac", "vec", "ivec", "vec_add", "vec_sub", "vec_scale", "vec_dot",
                     "vec_is_zero", "zero_vec", "mat_rows", "mat_identity", "mat_mul",
                     "mat_vec", "mat_transpose", "mat_columns", "primitive_vector",
                     "affine_apply", "affine_compose"},
    "documents": {"rat_str", "parse_rat"},
}

# Public methods traced besides the module-level functions.
METHODS = {
    "polyhedral": ("Polyhedron.vrep", "Polyhedron.proper_faces",
                   "Polyhedron.feasible_point", "Polyhedron.interior_point"),
    "moduli": ("StratumDescriptor.is_empty",),
}

# span name -> metric key whose calls and outermost time are reported
METRIC_OF = {
    "exact_linalg.lp_maximize": "exact_linalg.lp",
    "exact_linalg.smith_normal_form": "exact_linalg.snf",
    "exact_linalg.rank": "exact_linalg.rowred",
    "exact_linalg.solve_linear": "exact_linalg.rowred",
    "exact_linalg.kernel_rational": "exact_linalg.rowred",
    "exact_linalg.det": "exact_linalg.rowred",
    "polyhedral.Polyhedron.vrep": "polyhedral.vrep",
    "polyhedral.Polyhedron.proper_faces": "polyhedral.faces",
    "polyhedral.validate_complex": "polyhedral.validate_complex",
    "polyhedral.harmonicity_at": "polyhedral.harmonicity",
    "tropcurve.is_stable": "tropcurve.is_stable",
    "moduli.canonical_form": "moduli.canonical",
    "moduli.StratumDescriptor.is_empty": "moduli.stratum_check",
    "moduli.enumerate_types": "moduli.enumerate_types",
    "family.validate_family": "family.validate_family",
    "family.induced_alpha": "family.induced_alpha",
}

# ops whose validate_family calls are counted per invocation
VALIDATING_VERBS = ("verdicts", "alpha")


def _metric_key(name: str):
    if name in METRIC_OF:
        return METRIC_OF[name]
    if name.startswith("documents.") and name.endswith("_from_doc"):
        return "documents.parse"
    if name.startswith("documents.") and name.endswith("_to_doc"):
        return "documents.serialize"
    return None


class Tracer:
    def __init__(self, package: str = "tropmoduli"):
        self.package = package
        self.spans = []          # (id, parent id, op id, name, start, end)
        self._stack = []         # frames [span id, time covered by children]
        self._next_id = 0
        self._op_id = None
        self._op_kind = None
        self._restore = []       # (owner, attribute, original object)
        self.reset()

    # -- accumulators -------------------------------------------------------

    def reset(self):
        """Start a new batch: clear spans and every count and time."""
        self.spans.clear()
        self._stack.clear()
        self.calls = {}
        self.time = {}
        self._depth = {}
        self.self_time = {layer: 0.0 for layer in LAYERS}
        self.lp_rows = 0
        self.lp_cols = 0
        self.stable_true = 0
        self.canonical_strings = set()
        self.stratum_nonempty = 0
        self.stratum_genus0 = 0
        self.types_found = 0
        self.validating_ops = 0
        self.validating_calls = 0

    def begin_op(self, kind: str):
        self._op_id = self._next_id
        self._op_kind = kind
        self._next_id += 1
        if kind in VALIDATING_VERBS:
            self.validating_ops += 1

    def end_op(self):
        self._op_id = None
        self._op_kind = None

    # -- observers: counts from arguments and return values -----------------

    def _observe(self, name, args, result):
        if name == "exact_linalg.lp_maximize":
            self.lp_rows += len(args[1]) + len(args[2])
            self.lp_cols += len(args[0])
        elif name == "tropcurve.is_stable":
            self.stable_true += bool(result)
        elif name == "moduli.canonical_form":
            self.canonical_strings.add(result.string)
        elif name == "moduli.StratumDescriptor.is_empty":
            self.stratum_nonempty += not result
            self.stratum_genus0 += type_genus(args[0].type) == 0
        elif name == "moduli.enumerate_types":
            self.types_found += len(result)
        elif name == "family.validate_family" and self._op_kind in VALIDATING_VERBS:
            self.validating_calls += 1

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, layer: str, orig):
        key = _metric_key(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        observed = name in {"exact_linalg.lp_maximize", "tropcurve.is_stable",
                            "moduli.canonical_form", "moduli.StratumDescriptor.is_empty",
                            "moduli.enumerate_types", "family.validate_family"}
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            if key is not None:
                depth = tracer._depth.get(key, 0)
                tracer._depth[key] = depth + 1
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.self_time[layer] += dur - frame[1]
                if key is not None:
                    tracer._depth[key] = depth
                    tracer.calls[key] = tracer.calls.get(key, 0) + 1
                    if depth == 0:
                        tracer.time[key] = tracer.time.get(key, 0.0) + dur
                spans.append((sid, parent, tracer._op_id, name, t0, t1))
            if observed:
                tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.__qualname__ = getattr(orig, "__qualname__", name)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    def targets(self):
        """(layer, span name, owner, attribute) for everything traced."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in inspect.getmembers(mod, inspect.isfunction):
                if attr.startswith("_") or obj.__module__ != mod.__name__ \
                        or attr in UNTRACED.get(layer, ()):
                    continue
                out.append((layer, f"{layer}.{attr}", mod, attr))
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                out.append((layer, f"{layer}.{qual}", getattr(mod, cls_name), meth))
        return out

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for layer, name, owner, attr in self.targets():
            if inspect.isclass(owner):
                orig = owner.__dict__[attr]
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, layer, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, layer, orig)
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is orig:
                        self._restore.append((ns, bound, orig))
                        setattr(ns, bound, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the batch traced since the last reset."""
        c, t = self.calls, self.time

        def ratio(num, den):
            return num / den if den else 0.0

        lp_calls = c.get("exact_linalg.lp", 0)
        canon_calls = c.get("moduli.canonical", 0)
        checks = c.get("moduli.stratum_check", 0)
        stable_calls = c.get("tropcurve.is_stable", 0)
        return {
            "exact_linalg.lp.calls": lp_calls,
            "exact_linalg.lp.s": t.get("exact_linalg.lp", 0.0),
            "exact_linalg.lp.rows_mean": ratio(self.lp_rows, lp_calls),
            "exact_linalg.lp.cols_mean": ratio(self.lp_cols, lp_calls),
            "exact_linalg.snf.calls": c.get("exact_linalg.snf", 0),
            "exact_linalg.snf.s": t.get("exact_linalg.snf", 0.0),
            "exact_linalg.rowred.calls": c.get("exact_linalg.rowred", 0),
            "exact_linalg.rowred.s": t.get("exact_linalg.rowred", 0.0),
            "exact_linalg.self_s": self.self_time["exact_linalg"],
            "polyhedral.vrep.calls": c.get("polyhedral.vrep", 0),
            "polyhedral.vrep.s": t.get("polyhedral.vrep", 0.0),
            "polyhedral.faces.s": t.get("polyhedral.faces", 0.0),
            "polyhedral.validate_complex.s": t.get("polyhedral.validate_complex", 0.0),
            "polyhedral.self_s": self.self_time["polyhedral"],
            "polyhedral.harmonicity.calls": c.get("polyhedral.harmonicity", 0),
            "polyhedral.harmonicity.s": t.get("polyhedral.harmonicity", 0.0),
            "tropcurve.is_stable.calls": stable_calls,
            "tropcurve.stable_ratio": ratio(self.stable_true, stable_calls),
            "tropcurve.self_s": self.self_time["tropcurve"],
            "moduli.canonical.calls": canon_calls,
            "moduli.canonical.s": t.get("moduli.canonical", 0.0),
            "moduli.canonical.distinct_ratio": ratio(len(self.canonical_strings), canon_calls),
            "moduli.stratum_check.calls": checks,
            "moduli.stratum_check.nonempty_ratio": ratio(self.stratum_nonempty, checks),
            "moduli.types_found": self.types_found,
            "moduli.self_s": self.self_time["moduli"],
            "family.validate_family.calls": ratio(self.validating_calls, self.validating_ops),
            "family.validate_family.s": t.get("family.validate_family", 0.0),
            "family.induced_alpha.calls": c.get("family.induced_alpha", 0),
            "family.self_s": self.self_time["family"],
            "documents.parse.s": t.get("documents.parse", 0.0),
            "documents.serialize.s": t.get("documents.serialize", 0.0),
            "documents.self_s": self.self_time["documents"],
            "cli.self_s": self.self_time["cli"],
        }

    def traffic(self, metrics: dict) -> dict:
        """Shares that later claims cite, each with its base, from the
        batch's ``metrics()``."""
        checks = metrics["moduli.stratum_check.calls"]
        canon_calls = metrics["moduli.canonical.calls"]
        return {
            "genus0_share_of_stratum_checks": {
                "count": self.stratum_genus0, "base": checks,
                "share": self.stratum_genus0 / checks if checks else 0.0},
            "canonical_calls_on_seen_types": {
                "base": canon_calls,
                "share": 1 - metrics["moduli.canonical.distinct_ratio"] if canon_calls else 0.0},
            "validate_family_calls_per_verdicts_or_alpha": {
                "per_op": metrics["family.validate_family.calls"],
                "base": self.validating_ops},
        }

    def exact_counts(self) -> dict:
        """Calls per traced function in the batch, for the repeat check."""
        counts = {}
        for span in self.spans:
            counts[span[3]] = counts.get(span[3], 0) + 1
        return dict(sorted(counts.items()))

    def write_spans(self, path):
        """Write the spans of the last batch as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")
