#!/usr/bin/env python3
"""Reproduce the two worked monodromy group computations.

Turning each field value once around the circle permutes the eigenvalues of
L; the permutations generate a finite group, the wheel group.  The full
simplex on three vertices with 7th roots of unity gives a group of order
36, and the path complex on {1..4} plus a separate edge with 10th roots
gives order 72.  Each case prints the group order and every wheel's
permutation, order and windings; no presentation is printed.
"""

import argparse
import time

from setfield import generate, monodromy_report, roots_field


CASES = [
    ("triangle, 7th roots", [[1, 2, 3]], 7),
    ("path + disjoint edge, 10th roots", [[1, 2], [2, 3], [3, 4], [5, 6]], 10),
]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--steps", type=int, default=500)
    args = parser.parse_args()
    for name, gens, order in CASES:
        system = generate(gens)
        h = roots_field(system, order)
        t0 = time.time()
        report = monodromy_report(system, h, steps=args.steps)
        dt = time.time() - t0
        print("=" * 70)
        print("%s  (n=%d, %.1fs)" % (name, len(system), dt))
        print("group order:", report.group_order)
        for w in report.generators:
            print("  wheel %d: %-18s order %d  windings %s"
                  % (w.wheel + 1, w.cycle_string(), w.order, list(w.windings)))
        # wheels are numbered from 1 here, as in the lines above
        if report.duplicate_wheels:
            print("wheels producing identical permutations:",
                  [(i + 1, j + 1) for i, j in report.duplicate_wheels])
        if report.multi_winding_wheels:
            print("wheels winding more than one eigenvalue:",
                  [w + 1 for w in report.multi_winding_wheels])


if __name__ == "__main__":
    main()
