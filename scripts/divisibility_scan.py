#!/usr/bin/env python3
"""Scan random positive-dimensional complexes for 3 | det(J^T J).

Most positive-dimensional simplicial complexes have a bilinear-form
determinant divisible by 3, but not all: every cycle graph gives a power of
7 (the triangle boundary gives 343).  The determinant is the product over
the elements x of gamma(x) = sum over z containing x of
(-1)^(|z|-|x|) |star z|^2 (Lindstroem 1969; Wilf 1968), so 3 divides it
exactly when 3 divides some gamma(x).  The scan prints each determinant
and how many are divisible.
"""

import argparse
import sys

from setfield.kaehler import kaehler_report
from setfield.setsystem import random_complex

import random


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    systems = [random_complex(rng, min_dimension=1) for _ in range(args.count)]
    print("%-5s %-5s %-10s %s" % ("n", "dim", "3 | det", "det"))
    divisible = 0
    for system in systems:
        det = kaehler_report(system).det
        flag = det % 3 == 0
        divisible += flag
        print("%-5d %-5d %-10s %d" % (len(system), system.dimension,
                                      "yes" if flag else "no", det))
    print("%d of %d positive-dimensional determinants divisible by 3"
          % (divisible, len(systems)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
