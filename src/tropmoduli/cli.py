"""Command-line front end.

Every verb is a thin wrapper around one library operation: it loads JSON
documents, dispatches, and emits a report whose payload is exactly the
operation's result.  Reports are byte-stable across runs: keys are sorted
and all ordering inside payloads is canonical.

Exit codes: 0 ok, 1 violations found, 2 input/usage error (an unwritable
``--output`` too, reported on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from . import documents as docs
from .errors import Disconnected, InputError, TropModuliError
from .family import fiber, image_strata, induced_alpha, propagate_closure, validate_family, wall_verdict
from .moduli import canonical_string, classify, enumerate_types, resolve_4valent, wall_graph
from .polyhedral import ValidationReport, Violation, build_skeleton, validate_complex
from .tropcurve import ParameterizedTropicalCurve, TropicalCurve, check_balanced, genus, is_stable


def _parse_json(text, what):
    """The JSON value of ``text``, a string or an open text file read here;
    bad JSON or UTF-8, a huge int or deep nesting is an input error."""
    try:
        return json.loads(text if isinstance(text, str) else text.read())
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what} is not valid JSON: {exc}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = _parse_json(fh, path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    # accept a saved report in place of its payload document, so verbs chain
    if isinstance(doc, dict) and doc.get("schema") == docs.SCHEMA \
            and "verb" in doc and "payload" in doc:
        return doc["payload"]
    return doc


def _checked(report, ok_summary, **fields):
    """(status, payload, summary) of a validating verb: the payload is the
    report's document plus ``fields``, the summary ``ok_summary`` if it is ok."""
    payload = {**fields, **docs.report_to_doc(report)}
    if report.ok:
        return "ok", payload, ok_summary
    return "violations", payload, f"{len(report.violations)} violations"


def _report(verb, status, payload, summary):
    return {
        "schema": docs.SCHEMA,
        "verb": verb,
        "status": status,
        "payload": payload,
        "summary": summary,
    }


def _encode(value, out, newline, seen=None):
    """Append to ``out`` the pieces of ``json.dumps(value, sort_keys=True,
    indent=2)``, ``newline`` being the line break and indent of value's own
    line.  Only dicts with string keys, lists, tuples, strings, ints, bools
    and None are encoded; anything else, a float included, is a TypeError.
    A dict met again at the same indent is written by repeating its pieces,
    whose span ``seen`` keeps by (id, newline) within one call."""
    seen = {} if seen is None else seen
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        for i, item in enumerate(value):
            out.append(("," if i else "[") + inner)
            _encode(item, out, inner, seen)
        out.append(newline + "]")
    elif isinstance(value, dict):
        span = seen.get((id(value), newline))
        if span is not None:
            out.extend(out[span[0]:span[1]])
            return
        if not value:
            out.append("{}")
            return
        start, inner = len(out), newline + "  "
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(("," if i else "{") + inner + encode_basestring_ascii(key) + ": ")
            _encode(value[key], out, inner, seen)
        out.append(newline + "}")
        seen[(id(value), newline)] = start, len(out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report, fmt, output):
    """Write the report as JSON (byte for byte what ``json.dumps(report,
    sort_keys=True, indent=2)`` writes, from ``_encode``) or as text."""
    if fmt == "json":
        out = []
        _encode(report, out, "\n")
        text = "".join(out) + "\n"
    else:
        lines = [f"status: {report['status']}", report["summary"]]
        payload = report["payload"]
        for v in payload.get("violations", []) if isinstance(payload, dict) else []:
            lines.append(str(Violation(**v)))
        text = "\n".join(lines) + "\n"
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a missing directory, a directory, no permission
        raise InputError(f"cannot write {output}: {exc}", "/output")


# ---------------------------------------------------------------------------
# verb handlers: return (status, payload, summary)
# ---------------------------------------------------------------------------

def _cmd_validate_complex(args):
    c = docs.complex_from_doc(_load_json(args.input))
    return _checked(validate_complex(c), f"complex with {len(c.faces)} faces is valid")


def _cmd_skeleton(args):
    d = docs.pair_from_doc(_load_json(args.input))
    sk = build_skeleton(d)
    return "ok", docs.complex_to_doc(sk), f"skeleton with {len(sk.faces)} faces"


def _cmd_validate_curve(args):
    t, lengths, positions = docs.type_from_doc(_load_json(args.input))
    report = ValidationReport()
    balance = check_balanced(t)
    for v, deficit in balance.failures:
        report.add("balance", v, f"slope sum [{', '.join(map(docs.rat_str, deficit))}] is nonzero")
    try:
        g = genus(t.graph)
    except Disconnected:
        g = None
        report.add("connected", "graph", "graph is not connected")
    if lengths is not None and positions is not None:
        missing = [e for e, _, _ in t.graph.edges if e not in lengths]
        if missing:
            report.add("lengths", ",".join(missing), "edges without length")
        unplaced = [v for v in t.graph.vertex_ids() if v not in positions]
        if unplaced:
            report.add("positions", ",".join(unplaced), "vertices without position")
        if not (missing or unplaced):
            curve = ParameterizedTropicalCurve(
                TropicalCurve(t.graph, lengths), positions, dict(t.slopes), t.dim)
            for e in curve.edge_relation_violations():
                report.add("edge-relation", e, "positions do not match length * slope")
    return _checked(report, "curve is balanced",
                    balanced=balance.ok, stable=is_stable(t.graph), genus=g)


def _cmd_enumerate(args):
    for name in ("genus", "contracted", "max_edges"):
        if getattr(args, name) < 0:
            raise InputError(f"--{name.replace('_', '-')} must be nonnegative", f"/{name}")
    degree = _parse_json(args.degree, "--degree")
    if not isinstance(degree, list) or not all(isinstance(s, list) for s in degree):
        raise InputError("--degree must be a JSON list of integer vectors")
    dim = args.dim
    if dim is None:
        if not degree:
            raise InputError("--dim is required when --degree is empty", "/dim")
        dim = len(degree[0])
    if dim < 0:
        raise InputError("--dim must be nonnegative", "/dim")
    for i, s in enumerate(degree):
        if not all(type(x) is int for x in s):  # JSON true/false are not slopes
            raise InputError("slopes must have integer entries", f"/degree/{i}")
        if len(s) != dim:
            raise InputError(f"slope has {len(s)} entries, expected {dim}", f"/degree/{i}")
        if not any(s):
            raise InputError("degree slopes must be nonzero", f"/degree/{i}")
    types = enumerate_types(args.genus, args.contracted, degree, args.max_edges, dim=dim)
    payload = docs.types_to_doc(types)
    payload["parameters"] = {
        "genus": args.genus, "contracted": args.contracted,
        "degree": degree, "max_edges": args.max_edges, "seed": args.seed,
    }
    return "ok", payload, f"{len(types)} types"


def _cmd_classify(args):
    t, _, _ = docs.type_from_doc(_load_json(args.input))
    cls = classify(t)
    payload = {"classification": cls.classification.value,
               "four_valent_vertex": cls.four_valent_vertex,
               "canonical": canonical_string(t)}
    return "ok", payload, cls.classification.value


def _cmd_resolve(args):
    t, _, _ = docs.type_from_doc(_load_json(args.input))
    vertex = args.vertex
    if vertex is None:
        cls = classify(t)
        vertex = cls.four_valent_vertex
        if vertex is None:
            raise InputError("type has no 4-valent vertex; pass --vertex explicitly")
    resolutions = resolve_4valent(t, vertex)
    payload = docs.types_to_doc(resolutions)
    return "ok", payload, f"{len(resolutions)} resolutions"


def _cmd_wallgraph(args):
    types = docs.types_from_doc(_load_json(args.input))
    wg = wall_graph(types)
    payload = docs.wallgraph_to_doc(wg)
    payload["seed"] = args.seed
    return "ok", payload, f"{len(wg.nodes)} nodes, {len(wg.walls)} walls"


def _cmd_validate_family(args):
    f = docs.family_from_doc(_load_json(args.input))
    return _checked(validate_family(f), f"family over {len(f.base.faces)} faces is valid")


def _cmd_fiber(args):
    f = docs.family_from_doc(_load_json(args.input))
    point = _parse_json(args.point, "--point")
    if not isinstance(point, list):
        raise InputError("--point must be a JSON list of rationals")
    coords = [docs.parse_rat(x, f"/point/{i}") for i, x in enumerate(point)]
    p = fiber(f, args.face, coords)
    return "ok", docs.curve_to_doc(p), f"fiber over {args.face} at {args.point}"


def _cmd_alpha(args):
    f = docs.family_from_doc(_load_json(args.input))
    alpha = induced_alpha(f)
    type_docs = {}
    payload = {
        "faces": [docs.lift_to_doc(alpha.lifts[fid], type_docs) for fid in sorted(alpha.lifts)],
        "image_strata": [docs.image_stratum_to_doc(s) for s in image_strata(alpha)],
    }
    return "ok", payload, f"lifts over {len(alpha.lifts)} faces"


def _cmd_verdicts(args):
    f = docs.family_from_doc(_load_json(args.input))
    faces = args.face
    if not faces:
        faces = [fid for fid in sorted(f.base.faces)
                 if f.base.cofacet_inclusions(fid)]
    verdicts = []
    if faces:
        f.base.face(faces[0])  # an unknown first face is reported before an invalid family
        alpha = induced_alpha(f)
        verdicts = [wall_verdict(alpha, w) for w in faces]
    payload = {"verdicts": [docs.verdict_to_doc(v) for v in verdicts]}
    summary = ", ".join(f"{v.face}: {v.verdict.value}" for v in verdicts) or "no faces"
    return "ok", payload, summary


def _cmd_propagate(args):
    wg = docs.wallgraph_from_doc(_load_json(args.input))
    if args.seeds_file:
        (seeds,) = docs.SCHEMAS["seeds"](_load_json(args.seeds_file), "")
    elif args.seeds is not None:
        seeds = [s for s in args.seeds.split(",") if s]
    else:
        raise InputError("pass --seeds or --seeds-file")
    result = propagate_closure(wg, seeds)
    payload = {
        "closure": list(result.closure),
        "trace": [{"wall": wid, "added": list(added)} for wid, added in result.trace],
    }
    return "ok", payload, f"closure has {len(result.closure)} nodes"


# ---------------------------------------------------------------------------
# verb table and parsers
# ---------------------------------------------------------------------------

def _arg(*flags, **options):
    """One argument spec: the positional and keyword arguments of add_argument."""
    return flags, options


_COMMON = (
    _arg("--format", choices=("json", "text"), default="json",
         help="output format (default json)"),
    _arg("--output", "-o", metavar="FILE",
         help="write the report to FILE instead of stdout"),
    _arg("--seed", type=int, default=0,
         help="seed for randomized internals (default 0)"),
)

# The one place where a verb and its flags are declared: name -> (help,
# handler, argument specs).  Every verb also takes the _COMMON specs, first.
VERBS = {
    "validate-complex": (
        "check the gluing axioms of a polyhedral complex", _cmd_validate_complex,
        (_arg("input", help="complex.json"),)),
    "skeleton": (
        "build the skeleton of semistable pair data", _cmd_skeleton,
        (_arg("input", help="pair.json"),)),
    "validate-curve": (
        "check balancing (and edge relations, when positions are present)",
        _cmd_validate_curve,
        (_arg("input", help="curve.json or type.json"),)),
    "enumerate": (
        "enumerate stable balanced types with nonempty strata", _cmd_enumerate,
        (_arg("--genus", type=int, required=True),
         _arg("--contracted", type=int, default=0,
              help="number of contracted legs (slope zero, first in order)"),
         _arg("--degree", required=True,
              help='JSON list of nonzero slopes, e.g. "[[1,0],[0,1],[-1,-1]]"'),
         _arg("--max-edges", type=int, required=True),
         _arg("--dim", type=int, default=None,
              help="ambient lattice rank (required when the degree is empty)"))),
    "classify": (
        "weightless 3-valent / almost 3-valent / other", _cmd_classify,
        (_arg("input", help="type.json"),)),
    "resolve": (
        "resolutions of a 4-valent vertex", _cmd_resolve,
        (_arg("input", help="type.json"),
         _arg("--vertex", help="4-valent vertex id (default: detected)"))),
    "wallgraph": (
        "node/wall incidence graph of weightless 3-valent types", _cmd_wallgraph,
        (_arg("input", help="types.json"),)),
    "validate-family": (
        "check the family conditions over a base complex", _cmd_validate_family,
        (_arg("input", help="family.json"),)),
    "fiber": (
        "the parameterized tropical curve over a point", _cmd_fiber,
        (_arg("input", help="family.json"),
         _arg("--face", required=True, help="face id the point is given in"),
         _arg("--point", required=True,
              help='chart coordinates as JSON, e.g. \'["1/2", 0]\''))),
    "alpha": (
        "per-face lifts of the induced moduli map and image strata", _cmd_alpha,
        (_arg("input", help="family.json"),)),
    "verdicts": (
        "harmonic / quasi-harmonic / locally combinatorially surjective", _cmd_verdicts,
        (_arg("input", help="family.json"),
         _arg("--face", action="append", default=[],
              help="face to test (repeatable; default: all with cofacets)"))),
    "propagate": (
        "saturate full-dimensional strata through wall incidences", _cmd_propagate,
        (_arg("input", help="wallgraph.json"),
         _arg("--seeds", help="comma-separated node ids"),
         _arg("--seeds-file", help='JSON file with {"seeds": [...]}'))),
}


def _add_verb_arguments(parser, handler, specs):
    for flags, options in _COMMON + specs:
        parser.add_argument(*flags, **options)
    parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with every verb of VERBS as a subcommand."""
    parser = argparse.ArgumentParser(
        prog="tropmoduli",
        description="Exact tropical moduli toolkit: polyhedral complexes, "
                    "tropical curves, moduli strata and wall crossings.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (help_, handler, specs) in VERBS.items():
        _add_verb_arguments(sub.add_parser(name, help=help_), handler, specs)
    return parser


@lru_cache(maxsize=None)
def _verb_parser(verb) -> argparse.ArgumentParser:
    """The parser of one verb alone, built once per process; a parse reads
    its defaults afresh and leaves the parser as it was."""
    _, handler, specs = VERBS[verb]
    parser = argparse.ArgumentParser(prog=f"tropmoduli {verb}")
    _add_verb_arguments(parser, handler, specs)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """What build_parser().parse_args(argv) returns, using only the named
    verb's parser when argv starts with a verb and that parser takes the rest."""
    if argv is None:
        argv = sys.argv[1:]
    verb = argv[0] if argv else None
    if verb in VERBS:
        args, extras = _verb_parser(verb).parse_known_args(argv[1:])
        if not extras:
            args.verb = verb
            return args
    # no verb, an unknown verb, top-level help or arguments the verb does not
    # take: the full parser prints the top-level help or usage error
    return build_parser().parse_args(argv)


def _error(verb, exc):
    """The report of an error: an input error's pointer, else the error's class."""
    if isinstance(exc, InputError):
        return _report(verb, "error", {"pointer": exc.pointer, "message": str(exc)},
                       f"input error: {exc}")
    return _report(verb, "error", {"error": type(exc).__name__, "message": str(exc)},
                   f"{type(exc).__name__}: {exc}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        status, payload, summary = args.handler(args)
        report, code = _report(args.verb, status, payload, summary), 0 if status == "ok" else 1
    except TropModuliError as exc:
        report, code = _error(args.verb, exc), 2
    try:
        _emit(report, args.format, args.output)
    except InputError as exc:  # the report cannot be written to --output: stdout has it
        _emit(_error(args.verb, exc), args.format, None)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
