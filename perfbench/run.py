"""setfield benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from src/ next to this directory,
with no install.  Workloads are listed in BENCHMARK.json and defined in
workloads.py.  Every workload runs in fresh interpreters (worker.py), one at
a time:

* --trace 0: SETUP_SAMPLES workers each import the library, generate the
  inputs from the seed and run a warm-up case; set-up time is the median of
  their times from process start.  The last of them then runs untraced
  passes for --seconds and gives the end-to-end metrics.  Case times are
  reported in reference units (see worker.reference_s), each case's median
  over the passes; raw seconds appear in the notes line.
* --trace 1: one worker alternates untraced and traced passes and gives the
  per-layer metrics, tracing overhead and span coverage.

Human-readable lines come first; the last line of stdout is the JSON result.
A wrong result, an unexpected failure or a CLI report that differs between
passes (or from an earlier run with the same seed in this checkout) makes
`correct` false.  The exit code is non-zero when the benchmark itself cannot
run, for example when src/setfield is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
STATE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_SAMPLES = 3
WORKER_TIMEOUT = 160
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:  # one BLAS thread: single process, steadier times
        env[var] = "1"
    return env


def spawn(args, mode, env):
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode())
        raise SystemExit("worker failed with exit code %d" % proc.returncode)
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def environment():
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {v: "1" for v in THREAD_VARS}}


def verdicts(rows):
    """attempted, failed, and the messages of results that make a run
    incorrect (wrong or unexpectedly failed, as opposed to known failures)."""
    failed = [r for r in rows if r["verdict"] != "ok"]
    bad = sorted({"%s: %s" % (r["case"], r.get("message", r["verdict"]))
                  for r in failed if r["verdict"] in ("wrong", "failed")})
    return len(rows), len(failed), bad


def determinism(args, passes):
    """Per-case stdout hashes must agree across passes and with the record of
    an earlier run of the same seed in this checkout."""
    digests = {}
    problems = []
    for p in passes:
        for r in p["cases"]:
            if "sha256" in r and digests.setdefault(r["case"], r["sha256"]) \
                    != r["sha256"]:
                problems.append("%s: stdout differs between passes" % r["case"])
    if not digests:
        return None, problems
    path = os.path.join(STATE_DIR, "%s-seed%d.json" % (args.workload, args.seed))
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
        problems += ["%s: stdout differs from an earlier run" % k
                     for k, v in digests.items() if record.get(k, v) != v]
    else:
        os.makedirs(STATE_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(digests, fh, sort_keys=True, indent=1)
    return digests, problems


def per_case(passes, reduce, value):
    """One number per case, in case order, from its samples over the passes."""
    samples = {}
    for p in passes:
        for r in p["cases"]:
            samples.setdefault(r["case"], []).append(value(r))
    return [reduce(v) for v in samples.values()]


def best_times(passes):
    return per_case(passes, min, lambda r: r["s"])


def ref_times(passes):
    """Each case's median time in reference units over the passes."""
    return per_case(passes, statistics.median, lambda r: r["s"] / r["ref_s"])


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(args, env):
    setups = [spawn(args, "setup", env)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(args, "measure", env)
    setups.append(run["setup_s"])
    passes = run["passes"]
    cases = ref_times(passes)
    best = best_times(passes)
    attempted, failed, bad = verdicts([r for p in passes for r in p["cases"]])
    p90_value = p90(cases)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_ref": (sum(cases), "ref", len(passes)),
        "case_p50_ref": (statistics.median(cases), "ref", len(cases)),
        "case_p90_ref": (p90_value, "ref", len(cases)),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB", 1),
        "success_ratio": ((attempted - failed) / attempted, "ratio", attempted),
    }
    tail = sum(1 for c in cases if c > p90_value)
    notes = {"passes": len(passes),
             "reference_s": statistics.median(r["ref_s"] for p in passes
                                              for r in p["cases"]),
             "wall_s": sum(best),
             "case_p50_s": statistics.median(best),
             "case_p90_s": p90(best),
             "pass_wall_s": [p["wall_s"] for p in passes],
             "failed_ratio": failed / attempted,
             "known_failures": sorted({r["case"] for p in passes
                                       for r in p["cases"]
                                       if r["verdict"] == "known"}),
             "case_p90_tail_samples": tail,
             "case_p90_resolved": tail >= 10}
    misses = [p["notes"]["octonion_formula_misses"] for p in passes
              if "octonion_formula_misses" in p["notes"]]
    if misses:
        notes["octonion_formula_misses_per_pass"] = misses
    return metrics, passes, attempted, failed, bad, notes


def per_layer(args, env, names):
    run = spawn(args, "trace", env)
    passes = run["passes"] + run["traced"]
    attempted, failed, bad = verdicts([r for p in passes for r in p["cases"]])
    values = {}
    for name in names:
        samples = [layer.get(name, 0.0) for layer in run["layers"]]
        values[name] = statistics.median(samples)
    values.update(run["layers_once"])
    values["setsystem.generate_s"] = run["generate_s"]
    values["setsystem.elements"] = run["elements"]
    values["trace.overhead_s"] = (sum(best_times(run["traced"]))
                                  - sum(best_times(run["passes"])))
    notes = {"traced_passes": len(run["traced"]),
             "untraced_passes": len(run["passes"])}
    return values, passes, attempted, failed, bad, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload %r" % args.workload)
    if not os.path.isfile(os.path.join(ROOT, "src", "setfield", "__init__.py")):
        raise SystemExit("error: no setfield sources under %s"
                         % os.path.join(ROOT, "src"))
    env = worker_env()

    if args.trace:
        declared = spec["per_layer"]
        values, passes, attempted, failed, bad, notes = per_layer(
            args, env, [m["name"] for m in declared])
        metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"], None)
                   for m in declared}
    else:
        metrics, passes, attempted, failed, bad, notes = end_to_end(args, env)
    digests, problems = determinism(args, passes)
    bad += problems

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                               args.trace))
    print("environment %s" % json.dumps(environment(), sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        extra = "" if samples is None else "  (%d samples)" % samples
        print("  %-40s %14.6g %-6s%s" % (name, value, unit, extra))
    print("notes %s" % json.dumps(notes, sort_keys=True))
    if digests:
        print("cli stdout sha256 %s" % json.dumps(digests, sort_keys=True))
    print("verdict: %s, %d attempted, %d failed%s" % (
        "correct" if not bad else "INCORRECT", attempted, failed,
        "".join("\n  " + b for b in bad)))
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
