#!/usr/bin/env python3
"""Exact bilinear-form determinants for full simplexes and the 55-element case.

Prints det(J^T J) of the parametrization Jacobian for the complete complexes
on 1..max vertices next to the closed form 3^(sum C(n,k)(n-k)), a theorem
(Lindstroem 1969; Wilf 1968), then the simplicial complex generated by
{1,2,3,4,5} and {3,4,5,6,7}.
"""

import argparse
import time

from setfield import generate
from setfield.kaehler import complete_complex_exponent, kaehler_report
from setfield.setsystem import complete_complex


def fmt_factors(factors):
    return " * ".join("%d^%d" % (p, e) if e > 1 else str(p)
                      for p, e in factors) or "1"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-vertices", type=int, default=5,
                        help="largest full simplex to evaluate")
    args = parser.parse_args()
    print("%-8s %-4s %-22s %s" % ("complex", "n", "det factorization",
                                  "closed form"))
    for v in range(1, args.max_vertices + 1):
        system = complete_complex(v)
        t0 = time.perf_counter()
        report = kaehler_report(system)
        det, factors = report.det, report.factorization
        expo = complete_complex_exponent(v)
        agree = "3^%d %s" % (expo, "OK" if det == 3 ** expo else "MISMATCH")
        print("%-8s %-4d %-22s %s  (%.2f ms)"
              % ("full-%d" % v, len(system), fmt_factors(factors), agree,
                 1e3 * (time.perf_counter() - t0)))

    big = generate([[1, 2, 3, 4, 5], [3, 4, 5, 6, 7]])
    t0 = time.perf_counter()
    factors = kaehler_report(big).factorization
    print("%-8s %-4d %-22s %s  (%.2f ms)"
          % ("two-5s", len(big), fmt_factors(factors), "",
             1e3 * (time.perf_counter() - t0)))


if __name__ == "__main__":
    main()
