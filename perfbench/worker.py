"""One workload in one fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace

Every mode imports the library, generates the seeded inputs and runs one
warm-up case, then records the monotonic clock (the parent turns that into
set-up time).  `measure` then runs untraced passes over the case list until
`--seconds` have passed; `trace` alternates an untraced and a traced pass
for as long.  Each case row carries its time and the reference time around
it.  The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402

SCALAR_BATCH = 256
SCALAR_REPEATS = 15
IMPORT_REPEATS = 3


def load_library():
    import setfield
    if not os.path.abspath(setfield.__file__).startswith(SRC + os.sep):
        raise SystemExit("setfield imported from %s, not from %s"
                         % (setfield.__file__, SRC))


_REF_MATRIX = np.random.default_rng(0).standard_normal((12, 12))


def reference_s():
    """Seconds for a fixed mix of the work the workloads do: rational and
    big-integer arithmetic, small objects and a small LAPACK call.

    A shared host can change speed for minutes at a time (up to 1.6x on the
    2-vCPU virtual machine this benchmark was built on).  Timed next to every
    case, it gives each case's time in reference units, which such changes
    scale alike and so leave nearly unchanged.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, k + 1) * Fraction(k + 2, k + 3)
    table = {}
    for k in range(600):
        table[k, k % 7] = [k] * 3
    np.linalg.eigvals(_REF_MATRIX)
    x = 3 ** 400
    for _ in range(60):
        x = x * 7 // 5
    return time.perf_counter() - t0


def run_pass(wl, tracer=None):
    """Time every case once, with the reference timed between cases;
    verdicts are taken outside the timed call."""
    rows = []
    start = time.perf_counter()
    ref_before = reference_s()
    for case in wl.cases:
        idx = tracer.begin(case.span) if tracer and case.span else None
        t0 = time.perf_counter()
        try:
            outcome = case.run()
        except Exception as exc:  # a failing case is counted, not fatal
            outcome = exc
        dt = time.perf_counter() - t0
        if idx is not None:
            tracer.end(idx)
        verdict, message = case.verdict(outcome)
        ref_after = reference_s()
        row = {"case": case.label, "s": dt, "verdict": verdict,
               "ref_s": (ref_before + ref_after) / 2}
        ref_before = ref_after
        if message:
            row["message"] = message
        if isinstance(outcome, workloads.CliResult):
            row["sha256"] = outcome.digest
            row["stdout_bytes"] = len(outcome.stdout)
            row["traceback"] = b"Traceback" in outcome.stderr
        rows.append(row)
    notes = dict(wl.notes)
    for key in wl.notes:
        wl.notes[key] = 0
    return {"wall_s": sum(r["s"] for r in rows),
            "clock_s": time.perf_counter() - start,
            "cases": rows, "notes": notes}


def scalar_costs(seed):
    """ns per binary product (through product_right) and per `+`, per kind."""
    from setfield import scalars

    rng = random.Random(seed)
    out = {}
    for name in workloads.IDENTITY_KINDS:
        kind = scalars.KINDS[name]
        values = [scalars.random_unit(kind, rng) for _ in range(SCALAR_BATCH)]
        mul, add = [], []
        for _ in range(SCALAR_REPEATS):
            t0 = time.perf_counter_ns()
            scalars.product_right(values, kind)
            mul.append((time.perf_counter_ns() - t0) / (SCALAR_BATCH - 1))
            t0 = time.perf_counter_ns()
            acc = kind.zero
            for v in values:
                acc = acc + v
            add.append((time.perf_counter_ns() - t0) / SCALAR_BATCH)
        out["scalars.mul_ns." + name] = statistics.median(mul)
        out["scalars.add_ns." + name] = statistics.median(add)
    return out


def import_costs():
    """Cumulative import time of setfield.cli and of scipy.optimize in a cold
    interpreter, from -X importtime (median of a few runs)."""
    total, scipy_opt = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import setfield.cli"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
            check=True)
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        # the setfield package is imported inside setfield.cli's line
        total.append(cumulative["setfield.cli"])
        scipy_opt.append(cumulative.get("scipy.optimize", 0.0))
    return {"cli.import_s": statistics.median(total),
            "cli.import_scipy_s": statistics.median(scipy_opt)}


def layer_metrics(tracer, pass_row):
    """Per-layer numbers of one traced pass."""
    out = dict(tracer.totals())
    out.update(tracer.counts)
    # kaehler_report builds J^T J inline, so its self time is the form
    out["kaehler.form_s"] = (out.pop("kaehler.kaehler_form", 0.0)
                             + tracer.self_time("kaehler.kaehler_report"))
    out["trace.coverage"] = tracer.covered() / pass_row["clock_s"]
    rows = pass_row["cases"]
    if any("sha256" in r for r in rows):
        out["cli.report_bytes"] = sum(r["stdout_bytes"] for r in rows)
        out["cli.tracebacks"] = sum(r["traceback"] for r in rows)
    for key, value in pass_row["notes"].items():
        out["determinants." + key] = value
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    args = ap.parse_args(argv)

    # one CPU for this process and the CLI processes it starts, so that the
    # reference job and the cases run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cli = args.workload == "cli-cold"
    if not cli:  # cli-cold imports the library only in its CLI processes
        load_library()
    wl = workloads.BUILDERS[args.workload](args.seed)
    wl.cases[0].run()  # warm-up
    result = {"t_ready": time.monotonic(), "generate_s": wl.generate_s,
              "elements": wl.elements}
    if args.mode != "setup":
        passes, traced, layers = [], [], []
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(wl))
            if args.mode == "trace":
                tracer = Tracer()
                restore = instrument(tracer)
                try:
                    row = run_pass(wl, tracer)
                finally:
                    restore()
                traced.append(row)
                layers.append(layer_metrics(tracer, row))
            if time.perf_counter() - t0 >= args.seconds:
                break
        result["passes"] = passes
        if args.mode == "trace":
            result["traced"] = traced
            result["layers"] = layers
            result["layers_once"] = {**scalar_costs(args.seed),
                                     **import_costs()}
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_kb"] = children if cli else own
    print(json.dumps(result))


if __name__ == "__main__":
    main()
