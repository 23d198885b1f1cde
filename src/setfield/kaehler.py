"""The linear parametrization h -> L(h), its 0/1 Jacobian, and the exact
integer bilinear form J^T J with big-integer determinant and factorization.

The map from field values to connection matrices is linear, L = Z^T D_h Z
with Z the inclusion matrix of the system, so its Jacobian is a constant
n^2 x n matrix of zeros and ones whose column k is z_k (x) z_k, z_k the k-th
row of Z.  Hence J^T J = (Z Z^T) * (Z Z^T) entrywise, and the form is built
without the Jacobian.  Determinants of the form grow like 10^60 already for
medium complexes, so everything here is exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .determinants import bareiss_det, exact_rank
from .setsystem import SetSystem

TRIAL_DIVISION_BOUND = 10 ** 6


def _jacobian_from_zeta(Z: np.ndarray) -> np.ndarray:
    n = Z.shape[0]
    return (Z[:, :, None] * Z[:, None, :]).reshape(n, n * n).T


def jacobian_dr(system: SetSystem) -> np.ndarray:
    """n^2 x n matrix; column k is L built from the k-th standard basis field.

    Entry at (flattened (i,j), k) is 1 iff x_k lies in core(x_i) & core(x_j).
    """
    return _jacobian_from_zeta(system.zeta)


def kaehler_form(system: SetSystem) -> np.ndarray:
    """The integer Gram matrix J^T J of the parametrization Jacobian.

    Entry (k, l) is |star(x_k) & star(x_l)|^2, i.e. C * C with C = Z Z^T.
    """
    Z = system.zeta
    C = Z @ Z.T
    return C * C


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
    n: int
    zeta: np.ndarray
    form: np.ndarray
    det: int
    factorization: list
    rank: int
    unfactored: int | None = None  # composite cofactor left by factorize

    @property
    def jacobian(self) -> np.ndarray:
        """The n^2 x n parametrization Jacobian, built from zeta on access."""
        return _jacobian_from_zeta(self.zeta)


def kaehler_report(system: SetSystem) -> KaehlerReport:
    form = kaehler_form(system)
    det = bareiss_det(form)
    # a nonzero determinant already proves full rank
    rank = exact_rank(form) if det == 0 else len(system)
    try:
        factors, unfactored = factorize(det), None
    except CompositeCofactorError as exc:
        factors, unfactored = exc.factors, exc.cofactor
    return KaehlerReport(len(system), system.zeta, form, det, factors, rank,
                         unfactored)


def divisibility_scan(systems) -> list[dict]:
    """Dimension, determinant and 3-divisibility for each complex in a family.

    Zero-dimensional systems are exempt from the divisibility observation
    (their form is a permutation-free diagonal with unit determinant).
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
    """Conjectured exponent e with det = 3^e for the full simplex on n vertices."""
    return sum(math.comb(n, k) * (n - k) for k in range(1, n))
