"""Outcome differential of the eigenvalue follower between two src/ trees.

    python tests/differential.py run SRC > OUT.jsonl
    python tests/differential.py compare BASE.jsonl HEAD.jsonl

`run` imports setfield from the tree SRC and writes one JSON line for each
of 1816 runs: the 8 worked cases, and 300 draws for each of the seeds 5, 6
and 31 (the draws of tests/test_spectral.py), each at 40 and 500 steps.  A
line holds:
- "all": the outcome of following every wheel together, each wheel's
  permutation and windings and the wheel group's order, or the error's
  type and message;
- "single": the outcome of following each wheel alone;
- "rows": a sha256 of the times and rows of the wheels that succeed alone;
- "calls": the _secular_step calls of the all-wheel run.

`compare` exits 1 when an outcome that succeeds at BASE fails or changes at
HEAD, or when an error changes.  It lists the outcomes that newly succeed
and the runs whose row bits or _secular_step calls changed.  The name keeps pytest
from collecting this file.
"""

import hashlib
import json
import os
import random
import sys

WORKED = [([[1, 2, 3]], 7), ([[1, 2], [2, 3], [3, 4], [5, 6]], 10),
          ([[1, 2, 3, 4]], 15), ([[1, 2, 3], [3, 4, 5]], 13),
          ([[1, 2, 3, 4, 5]], 63), ([[1]], 3), ([[1, 2]], 5),
          ([[1, 2], [2, 3]], 11)]
SEEDS, DRAWS, STEPS = (5, 6, 31), 300, (40, 500)


def _systems():
    """(name, system, field) of each case, in order."""
    from oracles import random_set_system
    from setfield import generate
    from setfield.connection import random_field, roots_field
    from setfield.scalars import COMPLEX
    from setfield.setsystem import random_complex

    for gens, order in WORKED:
        system = generate(gens)
        yield "%s roots:%d" % (gens, order), system, roots_field(system, order)
    for seed in SEEDS:
        rng = random.Random(seed)
        for draw in range(DRAWS):
            if draw % 3 == 2:  # in general not closed under subsets
                system = random_set_system(rng, rng.randint(1, 10))
            else:
                system = random_complex(rng, max_generators=3, max_vertices=5,
                                        max_cardinality=3)
            if draw % 5 == 4:
                h = roots_field(system, 2 * len(system) + 1)
            else:
                h = random_field(system, COMPLEX, rng, unit=draw % 2 == 0)
            yield "seed %d draw %d" % (seed, draw), system, h


def run(src):
    sys.path.insert(0, os.path.abspath(src))
    from setfield import group_order, spectral, wheel_permutations

    if not os.path.abspath(spectral.__file__).startswith(
            os.path.abspath(src) + os.sep):
        sys.exit("setfield was imported from %s, not %s"
                 % (spectral.__file__, src))
    calls = []
    step = spectral._secular_step
    spectral._secular_step = lambda *a: calls.append(1) or step(*a)

    def outcome(*args, **kwargs):
        try:
            return wheel_permutations(*args, **kwargs), None
        # every library error of tracking is a ValueError
        except ValueError as exc:
            return None, {"error": [type(exc).__name__, str(exc)]}

    for name, system, h in _systems():
        for steps in STEPS:
            calls.clear()
            wps, failed = outcome(system, h, steps)
            line = {"run": "%s, %d steps" % (name, steps), "calls": len(calls),
                    "all": failed or {
                        "wheels": [[wp.perm, wp.windings] for wp in wps],
                        "order": group_order([wp.perm for wp in wps])},
                    "single": []}
            rows = hashlib.sha256()
            for wheel in range(len(system)):
                wps, failed = outcome(system, h, steps, [wheel], paths=True)
                if failed is None:
                    failed = {"wheels": [[wps[0].perm, wps[0].windings]]}
                    rows.update(wps[0].path.ts.tobytes())
                    rows.update(wps[0].path.values.tobytes())
                line["single"].append(failed)
            line["rows"] = rows.hexdigest()
            print(json.dumps(line), flush=True)


def compare(base_path, head_path):
    base, head = ({line["run"]: line for line in map(json.loads, open(path))}
                  for path in (base_path, head_path))
    if list(base) != list(head):
        print("the two files list other runs")
        return 1
    broken, gained, moved = [], [], []
    calls = [0, 0]
    for key, was in base.items():
        now = head[key]
        pairs = [("all wheels", was["all"], now["all"])] + [
            ("wheel %d alone" % w, a, b)
            for w, (a, b) in enumerate(zip(was["single"], now["single"]))]
        for what, a, b in pairs:
            if a != b:
                new = "error" in a and "error" not in b
                (gained if new else broken).append("%s, %s: %s -> %s" % (
                    key, what, json.dumps(a), json.dumps(b)))
        if was["rows"] != now["rows"] or was["calls"] != now["calls"]:
            moved.append("%s: rows %s, calls %d -> %d" % (
                key, "moved" if was["rows"] != now["rows"] else "equal",
                was["calls"], now["calls"]))
        calls[0] += was["calls"]
        calls[1] += now["calls"]
    failing = sum("error" in line["all"] for line in base.values())
    print("%d runs, %d of them fail at the base" % (len(base), failing))
    for title, items in (("newly succeeding outcomes", gained),
                         ("runs whose row bits or calls changed", moved),
                         ("changed or newly failing outcomes", broken)):
        print("%s: %d" % (title, len(items)))
        for item in items:
            print("  " + item)
    print("_secular_step calls: %d -> %d" % tuple(calls))
    return 1 if broken else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["run"] and len(sys.argv) == 3:
        run(sys.argv[2])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
