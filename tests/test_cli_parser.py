"""The argparse surface of the CLI: help and usage output pinned byte for
byte, main's parse compared with the full parser's, and the entry point
run in a fresh interpreter, also under each other CPython from 3.10.7 on
that can be started."""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tropmoduli
from tropmoduli import cli
from tropmoduli import documents as docs
from tropmoduli.polyhedral import Face, FaceInclusion, PolyhedralComplex, Polyhedron

from helpers import (
    cross_type,
    decorated_family,
    ray_wall_family,
    resolution_type,
    two_ray_resolution_family,
)

VERB_NAMES = ["validate-complex", "skeleton", "validate-curve", "enumerate", "classify",
              "resolve", "wallgraph", "validate-family", "fiber", "alpha", "verdicts",
              "propagate"]

# argv -> stdout, stderr and exit code, recorded in cli_usage.json
SURFACE = {
    "top-help": ["--help"],
    "no-arguments": [],
    **{f"{verb}-help": [verb, "--help"] for verb in VERB_NAMES},
    "unknown-verb": ["no-such-verb", "x.json"],
    "missing-required": ["enumerate", "--genus", "0"],
    "bad-format": ["classify", "x.json", "--format", "xml"],
    "bad-genus": ["enumerate", "--genus", "x", "--degree", "[]", "--max-edges", "1"],
    "unrecognized": ["classify", "x.json", "--bogus"],
}
SURFACE_FILE = Path(__file__).with_name("cli_usage.json")


def _surface(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return {"code": code, "out": captured.out, "err": captured.err}


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    expected = json.loads(SURFACE_FILE.read_text(encoding="utf-8"))
    if sys.version_info[:2] != tuple(expected["python"]):
        pytest.skip("argparse formats help differently in other Python versions")
    assert _surface(capsys, SURFACE[name]) == expected["surface"][name]


def test_pinned_surface_covers_every_verb():
    assert list(cli.VERBS) == VERB_NAMES
    expected = json.loads(SURFACE_FILE.read_text(encoding="utf-8"))
    assert sorted(expected["surface"]) == sorted(SURFACE)


# the argv of one scenario of the perfbench cli batch
BATCH = [
    ["skeleton", "pair.json", "-o", "complex.json"],
    ["validate-complex", "complex.json", "-o", "vc.json"],
    ["validate-curve", "curve.json", "-o", "vcurve.json"],
    ["classify", "cross.json", "-o", "classify.json"],
    ["resolve", "cross.json", "-o", "resolve.json"],
    ["enumerate", "--genus", "0", "--degree", "[[1, 0], [0, 1], [-1, 1], [0, -2]]",
     "--max-edges", "2", "-o", "types.json"],
    ["wallgraph", "nodes.json", "-o", "wg.json"],
    ["propagate", "wg.json", "--seeds", "n0,n2", "-o", "prop.json"],
    ["validate-family", "ray.json", "-o", "vf.json"],
    ["validate-family", "bad.json", "-o", "vfbad.json"],
    ["fiber", "path.json", "--face", "E2", "--point", '["3/7"]', "-o", "fiber.json"],
    ["alpha", "ray.json", "-o", "alpha.json"],
    ["alpha", "path.json", "-o", "alphapath.json"],
    ["verdicts", "ray.json", "-o", "verdicts.json"],
    ["verdicts", "path.json", "-o", "verdictspath.json"],
]
# the argv shapes the CLI tests pass to main that parse, and a few more
PARSED = BATCH + [
    ["skeleton", "pair.json"],
    ["validate-complex", "complex.json"],
    ["validate-complex", "--format", "text", "c.json"],
    ["validate-curve", "tripod.json"],
    ["enumerate", "--genus", "0", "--degree", "[[1,0],[0,1],[-1,0],[0,-1]]",
     "--max-edges", "1"],
    ["enumerate", "--genus", "0", "--degree", "[[1,0],[0,1],[-1,0],[0,-1]]",
     "--max-edges", "2", "--seed", "0"],
    ["enumerate", "--genus", "0", "--degree", "[[1,0],[0,1],[-1,-1]]", "--max-edges", "1",
     "--genus", "-1"],
    ["enumerate", "--genus", "0", "--degree", "[[1,0],[0,1],[-1,-1]]", "--max-edges", "1",
     "--degree", "[]"],
    ["enumerate", "--genus", "1", "--contracted", "2", "--degree", "[]", "--dim", "2",
     "--max-edges", "1"],
    ["classify", "cross.json"],
    ["resolve", "cross.json"],
    ["resolve", "cross.json", "--vertex", "v"],
    ["wallgraph", "types.json"],
    ["wallgraph", "types.json", "--seed", "0"],
    ["propagate", "wg.json", "--seeds", "n0"],
    ["propagate", "wg.json", "--seeds-file", "seeds.json"],
    ["validate-family", "family.json"],
    ["validate-family", "family.json", "--output", "report.json"],
    ["validate-family", "family.json", "--format", "text"],
    ["fiber", "family.json", "--face", "R0", "--point", '["2"]'],
    ["alpha", "family.json"],
    ["verdicts", "family.json", "--face", "O"],
    ["verdicts", "family.json", "--face", "A", "--face", "B"],
    ["verdicts", "family.json"],
    ["classify", "--", "x.json"],
]


def test_main_parses_as_the_full_parser():
    for argv in PARSED:
        assert vars(cli._parse_args(argv)) == vars(cli.build_parser().parse_args(argv)), argv
    # a parse leaves nothing behind: --face starts empty after a repeated --face
    assert cli._parse_args(["verdicts", "f.json", "--face", "A", "--face", "B"]).face \
        == ["A", "B"]
    assert cli._parse_args(["verdicts", "f.json"]).face == []


def test_a_verb_builds_only_its_own_parser(monkeypatch):
    def full_parser():
        raise AssertionError("built the full parser")
    monkeypatch.setattr(cli, "build_parser", full_parser)
    for argv in PARSED:
        assert cli._parse_args(argv).verb == argv[0]


def test_module_entry_point_matches_main(tmp_path, capsys):
    path = tmp_path / "cross.json"
    path.write_text(json.dumps(docs.type_to_doc(cross_type())), encoding="utf-8")
    assert cli.main(["classify", str(path)]) == 0
    in_process = capsys.readouterr().out
    src = str(Path(tropmoduli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "tropmoduli", "classify", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == in_process


def _interpreters(minor):
    """Paths that may run CPython 3.<minor>: this interpreter if it is one,
    ``python3.<minor>`` on PATH, then pyenv's installed 3.<minor>.* builds."""
    found = [sys.executable] if sys.version_info[:2] == (3, minor) else []
    found.append(shutil.which(f"python3.{minor}"))
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    found += sorted(str(p) for p in root.glob(f"versions/3.{minor}.*/bin/python3"))
    return [p for p in found if p]


def _cpython(exe, minor):
    """Whether ``exe`` starts and is CPython 3.<minor>, at 3.10.7 or later."""
    probe = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:3])"
    try:
        done = subprocess.run([exe, "-c", probe], capture_output=True, text=True, timeout=60)
    except OSError:
        return False
    words = done.stdout.split() if done.returncode == 0 else []
    return len(words) == 4 and words[0] == "CPython" and \
        tuple(map(int, words[1:3])) == (3, minor) and tuple(map(int, words[1:])) >= (3, 10, 7)


@pytest.mark.parametrize("minor", range(10, 15), ids=lambda minor: f"3.{minor}")
def test_each_supported_python_imports_the_cli_and_classifies(minor, tmp_path, capsys):
    """``requires-python`` is >=3.10.7: the first CPython 3.<minor> that
    starts here imports the package and the CLI in a fresh interpreter and
    writes the reports this interpreter writes: ``classify`` on the cross,
    ``alpha`` and ``verdicts`` on the ray-wall family, ``verdicts`` on the
    two-ray family, whose wall reads its cofacet lifts through the
    contractions, ``validate-complex`` on a quadrant sent into an octant
    by diag(2, 3), whose saturation check takes the Smith form's
    divisibility step, and ``alpha`` on a decorated family whose fibers
    smooth into chains of up to four edges.  A minor version with no such
    interpreter is skipped."""
    exe = next((p for p in _interpreters(minor) if _cpython(p, minor)), None)
    if exe is None:
        pytest.skip(f"no CPython 3.{minor} at 3.10.7 or later starts here")
    path = tmp_path / "cross.json"
    path.write_text(json.dumps(docs.type_to_doc(cross_type())), encoding="utf-8")
    family = tmp_path / "family.json"
    family.write_text(json.dumps(docs.family_to_doc(ray_wall_family((1, 2)))), encoding="utf-8")
    two_ray = tmp_path / "two-ray.json"
    two_ray.write_text(json.dumps(docs.family_to_doc(two_ray_resolution_family())),
                       encoding="utf-8")
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(docs.complex_to_doc(PolyhedralComplex(
        [Face("Q", 2, Polyhedron(2, [((1, 0), 0), ((0, 1), 0)])),
         Face("C", 3, Polyhedron(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)]))],
        [FaceInclusion("Q", "C", ((2, 0), (0, 3), (0, 0)), (0, 0, 0))]))), encoding="utf-8")
    decorated = tmp_path / "decorated.json"
    decorated.write_text(json.dumps(docs.family_to_doc(decorated_family(
        resolution_type(1), random.Random("cross-version/0"), axes=2))), encoding="utf-8")
    src = str(Path(tropmoduli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, tropmoduli, tropmoduli.cli; sys.exit(tropmoduli.cli.main(sys.argv[1:]))"
    for argv in (["classify", str(path)], ["alpha", str(family)], ["verdicts", str(family)],
                 ["verdicts", str(two_ray)], ["validate-complex", str(scaled)],
                 ["alpha", str(decorated)]):
        status = cli.main(argv)
        in_process = capsys.readouterr().out
        done = subprocess.run([exe, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (status, ""), argv
        assert done.stdout == in_process, argv
