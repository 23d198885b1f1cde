"""The four benchmark workloads: seeded inputs, cases and their references.

A workload is an ordered list of cases.  `Case.run()` is the timed call into
the library (or a cold CLI process); `Case.check(outcome)` compares the
outcome with a reference that does not come from the code under test and
returns one of the verdicts below.  Cases are built from the workload seed
only; the library receives nothing but the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
import time

OK = "ok"            # result matches its reference
KNOWN = "known"      # a documented failure, failing in its documented way
FAILED = "failed"    # raised, or exited with an unexpected code
WRONG = "wrong"      # completed with a result that contradicts its reference

# Element counts of the 100 identity-sweep systems: the (i + 0.5)/100
# quantiles of len(random_complex(rng)) with its default arguments, among
# draws with at most 18 elements (78% of 20000 draws).  Fixed sizes keep the
# cost of a pass independent of the seed, which still picks every system and
# every field value; the cap keeps a pass short enough to repeat in a run.
IDENTITY_SIZES = (
    1, 1, 1, 1, 1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4,
    4, 4, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
    7, 7, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 9, 10, 10, 10, 10, 10, 10, 10,
    11, 11, 11, 11, 11, 11, 12, 12, 12, 12, 13, 13, 13, 13, 13, 13, 14, 14, 14, 15,
    15, 15, 15, 15, 15, 15, 15, 15, 16, 16, 16, 16, 17, 17, 17, 17, 17, 18, 18, 18,
)
# The complexes' shapes come from this fixed seed; the workload seed relabels
# their vertices and draws the fields.  Cost depends on shape far more than on
# field values, so this keeps runs with different seeds comparable.
SHAPE_SEED = 2008
IDENTITY_KINDS = ("real", "complex", "quaternion", "octonion", "gaussian")
MAX_DRAWS = 100000
UNIT_TOL = 1e-9

# The full simplex on 7 vertices (n = 127, about 12 s in one call) is left
# out so that a run can repeat the ladder and take each case's best time.
KAEHLER_SIMPLEX_VERTICES = (3, 4, 5, 6)
TWO_FIVES = ((1, 2, 3, 4, 5), (3, 4, 5, 6, 7))
TWO_FIVES_DET = 3 ** 113 * 5 ** 7 * 7 ** 7

MONODROMY_STEPS = 500
# The full 4-vertex simplex with roots:15 generates a group larger than any
# closure cap; a cap of 10^5 (the library default is 10^6) reaches the same
# overflow in a tenth of the time.  The bowtie {1,2,3},{3,4,5} with roots:13
# (order 172800, about 7 s in one call) is left out so that a run can repeat
# the case list and take each case's best time.
MONODROMY_CAP = 10 ** 5
# (label, generators, root order N, expected group order or None if unknown)
MONODROMY_CASES = (
    ("triangle", ((1, 2, 3),), 7, 36),
    ("path-edge", ((1, 2), (2, 3), (3, 4), (5, 6)), 10, 72),
    ("full-4", ((1, 2, 3, 4),), 15, None),
)


class Case:
    """One timed call and its reference check.

    `span` names the span a traced pass records around the whole call (None
    where the library's own functions carry the spans).  A check sees raised
    exceptions only when `expects_errors` is set; otherwise an exception is
    a FAILED verdict.
    """

    def __init__(self, label, run, check, expects_errors=False, span=None):
        self.label = label
        self.run = run
        self.check = check
        self.expects_errors = expects_errors
        self.span = span

    def verdict(self, outcome):
        if isinstance(outcome, Exception) and not self.expects_errors:
            return FAILED, repr(outcome)
        try:
            return self.check(outcome)
        except (ValueError, KeyError, TypeError, IndexError,
                AttributeError) as exc:
            return WRONG, "unreadable result: %r" % exc


class Workload:
    """Cases, what generating them cost, and counts the checks keep."""

    def __init__(self, cases, generate_s, elements, notes=None):
        self.cases = cases
        self.generate_s = generate_s
        self.elements = elements
        self.notes = notes if notes is not None else {}


def relabel(generators, rng):
    """Map the vertices, in order, to sorted distinct random labels in 1..99.

    The map is monotone, so the canonical element order, the matrices and
    the cost of every case stay the same; only the vertex names change.
    """
    verts = sorted({v for g in generators for v in g})
    mapping = dict(zip(verts, sorted(rng.sample(range(1, 100), len(verts)))))
    return [sorted(mapping[v] for v in g) for g in generators]


def braces(generators):
    return "{%s}" % ",".join("{%s}" % ",".join(map(str, g)) for g in generators)


# ---------------------------------------------------------------------------
# identity-sweep

def identity_sweep(seed):
    from setfield import connection, determinants, identities, scalars, setsystem

    shapes = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    t0 = time.perf_counter()
    inputs = []
    for i, n in enumerate(IDENTITY_SIZES):
        for _ in range(MAX_DRAWS):
            system = setsystem.random_complex(shapes)
            if len(system) == n:
                break
        else:
            raise RuntimeError("no random complex with %d elements in %d draws"
                               % (n, MAX_DRAWS))
        system = setsystem.SetSystem(relabel(system.elements, rng))
        kind = scalars.KINDS[IDENTITY_KINDS[i % len(IDENTITY_KINDS)]]
        inputs.append((system, connection.random_field(system, kind, rng,
                                                        unit=True)))
    generate_s = time.perf_counter() - t0
    wl_notes = {"octonion_formula_misses": 0}

    def make_case(i, system, h):
        kind = h.kind

        def run():
            # module attributes are looked up per call so that a traced pass
            # sees its instrumented versions
            return (determinants.det_formula_check(system, h),
                    identities.green_star_check(system, h),
                    identities.energy_check(system, h),
                    identities.gauss_bonnet_check(system, h))

        def check(out):
            det, green, energy, gb = out
            if not (green.holds and energy.holds and gb.holds):
                return WRONG, "identity check does not hold"
            # a unit field has |prod h| = 1, so every Study determinant is 1
            if abs(det.expected_study - 1.0) > UNIT_TOL:
                return WRONG, "product of unit norms is %r" % det.expected_study
            if kind is scalars.OCTONION:
                if not det.holds:
                    wl_notes["octonion_formula_misses"] += 1
                return OK, ""
            if not det.holds or abs(det.study_L - 1.0) > UNIT_TOL \
                    or abs(det.study_g - 1.0) > UNIT_TOL:
                return WRONG, "determinant formula does not hold"
            if kind is scalars.GAUSSIAN and not det.exact_equal:
                return WRONG, "gaussian determinant not exactly equal"
            return OK, ""

        return Case("%03d-%s-n%d" % (i, kind.name, len(system)), run, check)

    cases = [make_case(i, s, h) for i, (s, h) in enumerate(inputs)]
    return Workload(cases, generate_s, sum(len(s) for s, _ in inputs),
                    wl_notes)


# ---------------------------------------------------------------------------
# kaehler-ladder

def simplex_exponent(v):
    """det of the full simplex on v vertices is 3 to this power."""
    return sum(math.comb(v, k) * (v - k) for k in range(1, v))


def kaehler_ladder(seed):
    from setfield import kaehler, setsystem

    rng = random.Random(seed)
    t0 = time.perf_counter()
    specs = []
    for v in KAEHLER_SIMPLEX_VERTICES:
        gens = relabel([tuple(range(1, v + 1))], rng)
        specs.append(("full-%d" % v, setsystem.generate(gens),
                      3 ** simplex_exponent(v), [(3, simplex_exponent(v))]))
    specs.append(("two-5s", setsystem.generate(relabel(TWO_FIVES, rng)),
                  TWO_FIVES_DET, [(3, 113), (5, 7), (7, 7)]))
    generate_s = time.perf_counter() - t0

    def make_case(label, system, det, factors):
        n = len(system)

        def run():
            return kaehler.kaehler_report(system)

        def check(rep):
            if rep.det != det or rep.rank != n or rep.n != n:
                return WRONG, "det/rank %s/%d" % (rep.det, rep.rank)
            if [tuple(f) for f in rep.factorization] != factors:
                return WRONG, "factorization %r" % (rep.factorization,)
            return OK, ""

        return Case("%s-n%d" % (label, n), run, check)

    return Workload([make_case(*spec) for spec in specs], generate_s,
                    sum(len(s) for _, s, _, _ in specs))


# ---------------------------------------------------------------------------
# monodromy

def monodromy(seed):
    from setfield import connection, setsystem, spectral

    rng = random.Random(seed)
    t0 = time.perf_counter()
    specs = []
    for label, gens, order_n, expected in MONODROMY_CASES:
        system = setsystem.generate(relabel(gens, rng))
        specs.append((label, system, connection.roots_field(system, order_n),
                      expected))
    generate_s = time.perf_counter() - t0

    def make_case(label, system, h, expected):
        n = len(system)

        def run():
            return spectral.monodromy_report(system, h, MONODROMY_STEPS,
                                             cap=MONODROMY_CAP)

        def check(rep):
            if isinstance(rep, RuntimeError) and expected is None \
                    and "closure exceeded cap" in str(rep):
                return KNOWN, "group closure overflow"
            if isinstance(rep, Exception):
                return FAILED, repr(rep)
            order = rep.group_order
            if expected is not None and order != expected:
                return WRONG, "group order %d, expected %d" % (order, expected)
            if math.factorial(n) % order or any(
                    order % w.order for w in rep.generators):
                return WRONG, "group order %d inconsistent" % order
            if not rep.relations_verified:
                return WRONG, "relations not verified"
            return OK, ""

        return Case("%s-n%d" % (label, n), run, check, expects_errors=True)

    return Workload([make_case(*spec) for spec in specs], generate_s,
                    sum(len(s) for _, s, _, _ in specs))


# ---------------------------------------------------------------------------
# cli-cold

class CliResult:
    def __init__(self, code, stdout, stderr):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.digest = hashlib.sha256(stdout).hexdigest()


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "setfield.cli", *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=120)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def connection_L(elements, values):
    """L(x,y) = sum of h over the elements contained in both x and y."""
    sets = [frozenset(e) for e in elements]
    n = len(sets)
    return [[sum((values[k] for k in range(n)
                  if sets[k] <= sets[i] and sets[k] <= sets[j]), 0j)
             for j in range(n)] for i in range(n)]


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _json(res):
    return json.loads(res.stdout.decode())


def _one_line_error(res):
    lines = res.stderr.decode().strip().splitlines()
    return (res.code == 2 and len(lines) == 1 and lines[0].startswith("error:")
            and not res.stdout)


def cli_cold(seed):
    rng = random.Random(seed)
    t0 = time.perf_counter()
    bowtie = relabel(((1, 2, 3), (3, 4, 5)), rng)
    tri = relabel(((1, 2, 3),), rng)
    path = relabel(((1, 2), (2, 3), (3, 4)), rng)
    fives = relabel(TWO_FIVES, rng)
    field_seeds = [rng.randrange(1, 10 ** 6) for _ in range(2)]
    det_values = [rng.choice((-1, 1)) * rng.uniform(0.5, 2.0) for _ in range(7)]
    det_literals = ["%.6f" % v for v in det_values]
    det_values = [float(t) for t in det_literals]
    garbage = "set-%d" % rng.randrange(10 ** 6)
    generate_s = time.perf_counter() - t0

    def checks_hold(data, names):
        by_name = {c["name"]: c for c in data["checks"]}
        return data["failed"] == [] and all(by_name[k]["holds"] for k in names)

    def check_gen(res):
        data = _json(res)
        verts = sorted({v for g in bowtie for v in g})
        if data["n"] != 13 or data["dimension"] != 2 \
                or not data["is_simplicial_complex"] or data["vertices"] != verts:
            return WRONG, "gen report %r" % {k: data[k] for k in ("n", "dimension")}
        return OK, ""

    def check_matrices(res):
        data = _json(res)
        h = [complex(*v) for v in data["field"]]
        want = connection_L(data["elements"], h)
        got = [[complex(*v) for v in row] for row in data["L"]]
        n = len(h)
        if n != 7 or data["kind"] != "complex" or any(
                not _close(got[i][j], want[i][j]) for i in range(n)
                for j in range(n)):
            return WRONG, "L differs from the intersection sums"
        gl = [[complex(*v) for v in row] for row in data["conj_g_L"]]
        if any(abs(gl[i][j] - (1 if i == j else 0)) > 1e-9
               for i in range(n) for j in range(n)):
            return WRONG, "conj(g) L is not the identity for a unit field"
        return OK, ""

    def check_det(res):
        data = _json(res)
        prod = math.prod(det_values)
        for label in ("L", "g"):
            entry = data[label]
            if not (_close(entry["study"], abs(prod))
                    and _close(entry["dieudonne"], prod)
                    and _close(entry["leibniz"], prod)
                    and entry["pivot_log"]):
                return WRONG, "det of %s differs from the field product" % label
        return OK, ""

    def check_check(names):
        def check(res):
            return (OK, "") if checks_hold(_json(res), names) \
                else (WRONG, "identity check failed")
        return check

    def check_group(res):
        data = _json(res)
        if data["order"] != 36 or not data["relations_verified"]:
            return WRONG, "group order %r" % data["order"]
        return OK, ""

    def check_kaehler(res):
        data = _json(res)
        if data["det"] != str(TWO_FIVES_DET) or data["rank"] != 55:
            return WRONG, "kaehler det/rank %s/%s" % (data["det"], data["rank"])
        return OK, ""

    def check_error(res):
        return (OK, "") if _one_line_error(res) else (FAILED, "no one-line error")

    def check_empty(res):
        if _one_line_error(res):
            return OK, ""
        err = res.stderr.decode()
        if res.code == 1 and "Traceback" in err and "IndexError" in err:
            return KNOWN, "empty system raises IndexError"
        return FAILED, "exit %d" % res.code

    specs = [
        ("gen", ["gen", "--inline", braces(bowtie), "--closure"], 0, check_gen),
        ("matrices", ["matrices", "--inline", braces(tri), "--closure",
                      "--field", "random:%d:complex:unit" % field_seeds[0]],
         0, check_matrices),
        ("det", ["det", "--inline", braces(tri), "--closure", "--field",
                 "values:" + ",".join(det_literals), "--pivot-log"],
         0, check_det),
        ("check", ["check", "--inline", braces(tri), "--closure",
                   "--field", "roots:7"], 0,
         check_check(("greenstar", "energy", "gaussbonnet", "unimodular"))),
        ("check", ["check", "--inline", braces(path), "--closure", "--field",
                   "random:%d:quaternion:unit" % field_seeds[1]], 0,
         check_check(("greenstar", "energy", "gaussbonnet", "unimodular"))),
        ("group", ["group", "--inline", braces(tri), "--closure",
                   "--field", "roots:7"], 0, check_group),
        ("kaehler", ["kaehler", "--inline", braces(fives), "--closure"], 0,
         check_kaehler),
        ("det", ["det", "--inline", garbage], 2, check_error),
        ("check", ["check", "--inline", "[]"], 2, check_empty),
    ]

    def make_case(i, sub, args, code, ref):
        def run():
            return run_cli(args)

        def check(res):
            if code == 0 and res.code != 0:
                return FAILED, "exit %d: %s" % (
                    res.code, res.stderr.decode().strip()[-200:])
            return ref(res)

        return Case("%d-%s" % (i, sub), run, check, span="cli.run_s." + sub)

    return Workload([make_case(i, *spec) for i, spec in enumerate(specs)],
                    generate_s, 0)


BUILDERS = {
    "identity-sweep": identity_sweep,
    "kaehler-ladder": kaehler_ladder,
    "monodromy": monodromy,
    "cli-cold": cli_cold,
}

