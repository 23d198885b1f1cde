"""The linear parametrization h -> L(h), its 0/1 Jacobian, and the exact
integer bilinear form J^T J with big-integer determinant and factorization.

The map from field values to connection matrices is linear, L = Z^T D_h Z
with Z the inclusion matrix of the system, so its Jacobian is a constant
n^2 x n matrix of zeros and ones whose column k is z_k (x) z_k, z_k the k-th
row of Z.  Hence J^T J = (Z Z^T) * (Z Z^T) entrywise: entry (k, l) is the
squared size of star(x_k) & star(x_l), one AND of two star bit rows and a
popcount.  The form is built without the Jacobian or numpy.  It is
positive definite, so its rank is n and its determinant is positive.

That squared size counts the ordered pairs (z, z') of elements with
x_k | x_l <= z & z', so the form is the sum over the pairwise intersections
w of c(w) y_w y_w^T, with c(w) the number of pairs meeting in exactly w and
y_w[x] = [x <= w].  When every nonempty pairwise intersection is an element
(simplicial complexes among them) that is Z D_c Z^T, Z unitriangular up to
order, so the determinant is the product of the counts c(x).  Only other
systems build the form, for one Bareiss elimination.  Determinants grow
like 10^60 already for medium complexes, so everything here is exact
integer arithmetic on Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .setsystem import SetSystem

TRIAL_DIVISION_BOUND = 10 ** 6


def kaehler_form(system: SetSystem) -> list[list[int]]:
    """The integer Gram matrix J^T J of the parametrization Jacobian, as
    nested lists of ints.

    Entry (k, l) is |star(x_k) & star(x_l)|^2, i.e. C * C with C = Z Z^T,
    read off the star bit rows.
    """
    stars = system.star_rows
    return [[(a & b).bit_count() ** 2 for b in stars] for a in stars]


def intersection_counts(system: SetSystem) -> list[int] | None:
    """c(x) for each element x: the number of ordered pairs (z, z') of
    elements with z & z' = x; None when some nonempty pairwise intersection
    is not an element, which the same loop tests."""
    elements = system.elements
    index = {x: k for k, x in enumerate(elements)}
    counts = [0] * len(elements)
    for z in elements:
        for w in elements:
            x = z & w
            if x:
                k = index.get(x)
                if k is None:
                    return None
                counts[k] += 1
    return counts


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> tuple[list[tuple[int, int]], int | None]:
    """(factors, cofactor) of an integer n >= 1: the prime factors (p, e)
    from trial division up to 10^6 and a strong-pseudoprime check on the
    rest, and the composite cofactor that check rejects, else None.

    The forms are positive definite, so their determinants are n >= 1 (the
    empty form's is 1).  They factor into tiny primes in practice.
    """
    out = []
    for p in range(2, TRIAL_DIVISION_BOUND + 1):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        if not _is_probable_prime(n):
            return out, n
        out.append((n, 1))
    return out, None


@dataclass
class KaehlerReport:
    """The form's determinant, factorization and rank; the form itself is
    kaehler_form's."""

    n: int
    det: int
    factorization: list
    rank: int
    unfactored: int | None = None  # composite cofactor left by factorize


def kaehler_report(system: SetSystem) -> KaehlerReport:
    """The form's exact determinant and factorization, and its rank.

    The elements are distinct, so Z is unitriangular once they are sorted
    by size.  Hence the columns z_k (x) z_k of the Jacobian are linearly
    independent, and the form J^T J is positive definite: det > 0 and
    rank = n for every set system.  The determinant is the product of the
    intersection counts, each at most n^2, when they exist, else one
    Bareiss elimination of the form, the only case that builds it.
    """
    counts = intersection_counts(system)
    if counts is None:
        from .determinants import bareiss_det

        det = bareiss_det(kaehler_form(system))
    else:
        det = math.prod(counts)
    factors, unfactored = factorize(det)
    return KaehlerReport(len(system), det, factors, len(system), unfactored)


def complete_complex_exponent(n: int) -> int:
    """Exponent e with det = 3^e for the full simplex on n vertices.

    A special case of kaehler_report's product of intersection counts: the
    form of a simplicial complex is Z D_gamma Z^T with gamma(x) the Moebius
    inversion of |star|^2 over supersets (Lindstroem 1969; Wilf 1968),
    which is the count c(x); on the full simplex two subsets meet in x when
    each of the n - |x| other vertices lies in at most one of them, so
    c(x) = 3^(n - |x|).
    """
    return sum(math.comb(n, k) * (n - k) for k in range(1, n))
