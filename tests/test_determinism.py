"""Reports are byte-identical across processes with different hash seeds.

Each case runs ``python -m tropmoduli`` once per ``PYTHONHASHSEED`` and
requires the same exit code and the same standard output.  A single
process cannot see this: the order of a set of strings is fixed for the
life of the interpreter.  The cases are every seed document of the
contract fuzzer and a pair document with several order violations, on
which a walk over a set of stratum ids would name a different stratum in
the cycle under different seeds (0, 3 and 4 give three different ones).
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import tropmoduli
from tropmoduli import documents as docs

from test_cli_contract import SEEDS

HASH_SEEDS = ("0", "3", "4")
SRC = str(Path(tropmoduli.__file__).resolve().parents[1])

# strata over verticals A, B, C with the cycle s0 -> s1 -> {s2, s3} -> s0
CYCLIC_PAIR = {
    "schema": docs.SCHEMA, "vertical": ["A", "B", "C"], "horizontal": [],
    "strata": [{"id": sid, "vertical": list(v), "horizontal": [], "length": "1"}
               for sid, v in [("s0", "ABC"), ("s1", "AB"), ("s2", "A"), ("s3", "B")]],
    "order": [["s0", "s1"], ["s1", "s2"], ["s1", "s3"], ["s2", "s0"], ["s3", "s0"]],
}
CASES = [("skeleton", CYCLIC_PAIR, [])] + SEEDS


def _run(argv, hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "tropmoduli", *argv], env=env,
                          capture_output=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    runs = []
    for i, (verb, doc, flags) in enumerate(CASES):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(doc))
        runs += [(i, [verb, str(path), *flags], h) for h in HASH_SEEDS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda run: _run(*run[1:]), runs))
    outputs = {}
    for (i, argv, h), (code, out, err) in zip(runs, results):
        assert code in (0, 1, 2) and not err, (argv, h, err)
        outputs.setdefault(i, {})[h] = (code, out)
    for i, by_seed in outputs.items():
        assert len(set(by_seed.values())) == 1, (CASES[i][0], by_seed)
    cyclic = json.loads(outputs[0][HASH_SEEDS[0]][1])
    assert cyclic["payload"] == {"error": "InconsistentStrata",
                                 "message": "order cycle through 's0' and 's1'"}
