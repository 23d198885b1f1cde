"""The linear parametrization h -> L(h), its 0/1 Jacobian, and the exact
integer bilinear form J^T J with big-integer determinant and factorization.

The map from field values to connection matrices is linear, L = Z^T D_h Z
with Z the inclusion matrix of the system, so its Jacobian is a constant
n^2 x n matrix of zeros and ones whose column k is z_k (x) z_k, z_k the k-th
row of Z.  Hence J^T J = (Z Z^T) * (Z Z^T) entrywise: entry (k, l) is the
squared size of star(x_k) & star(x_l), one AND of two star bit rows and a
popcount.  The form is built without the Jacobian or numpy.  Determinants
of the form grow like 10^60 already for medium complexes, so everything
here is exact integer arithmetic on Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .determinants import bareiss_det
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


class CompositeCofactorError(ValueError):
    """Trial division left a composite cofactor; carries the prime factors
    found so far and the cofactor."""

    def __init__(self, factors, cofactor):
        self.factors = factors
        self.cofactor = cofactor
        super().__init__("composite cofactor %d survived trial division"
                         % cofactor)


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial division up to 10^6, then a strong-pseudoprime check on the rest.

    The determinants seen in practice factor into tiny primes; a composite
    leftover would be surprising and raises CompositeCofactorError.
    """
    if n == 0:
        return [(0, 1)]
    out = []
    if n < 0:
        out.append((-1, 1))
        n = -n
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
            raise CompositeCofactorError(out, n)
        out.append((n, 1))
    return out


def exact_det_factor(form) -> tuple[int, list[tuple[int, int]]]:
    """Exact determinant together with its prime factorization."""
    det = bareiss_det(form)
    return det, factorize(det)


@dataclass
class KaehlerReport:
    """The form (kaehler_form's nested lists of ints), its determinant,
    factorization and rank."""

    n: int
    form: list[list[int]]
    det: int
    factorization: list
    rank: int
    unfactored: int | None = None  # composite cofactor left by factorize


def kaehler_report(system: SetSystem) -> KaehlerReport:
    """The form, its exact determinant and factorization, and its rank.

    The elements are distinct, so Z is unitriangular once they are sorted
    by size.  Hence the columns z_k (x) z_k of the Jacobian are linearly
    independent, and the form J^T J is positive definite: det > 0 and
    rank = n for every set system.
    """
    form = kaehler_form(system)
    det = bareiss_det(form)
    try:
        factors, unfactored = factorize(det), None
    except CompositeCofactorError as exc:
        factors, unfactored = exc.factors, exc.cofactor
    return KaehlerReport(len(system), form, det, factors, len(system),
                         unfactored)


def divisibility_scan(systems) -> list[dict]:
    """Dimension, determinant and 3-divisibility for each complex in a family.

    Most positive-dimensional complexes have a determinant divisible by 3,
    but not all: every cycle graph gives a power of 7 (the triangle boundary
    gives 343).  Zero-dimensional systems are flagged exempt; their form is
    the identity, with determinant 1.
    """
    out = []
    for system in systems:
        det = bareiss_det(kaehler_form(system))
        dim = system.dimension
        out.append({
            "elements": len(system),
            "dimension": dim,
            "det": det,
            "divisible_by_3": det % 3 == 0,
            "exempt": dim <= 0,
        })
    return out


def complete_complex_exponent(n: int) -> int:
    """Exponent e with det = 3^e for the full simplex on n vertices.

    A theorem: the form of a simplicial complex is Z D_gamma Z^T with
    gamma(x) the Moebius inversion of |star|^2 over supersets (Lindstroem
    1969; Wilf 1968), and on the full simplex gamma(x) = 3^(n - |x|).
    """
    return sum(math.comb(n, k) * (n - k) for k in range(1, n))
