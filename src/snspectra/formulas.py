"""
Closed-form eigenvalue expressions for the cycle connecting sets.

Everything is exact integer arithmetic; expressions that are only provably
integral after cancellation go through Fraction and are asserted integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the conventions C(a, 0) = 1, C(a, -1) = 0."""
    if b == 0:
        return 1
    return comb(a, b) if 0 <= b <= a else 0


def _as_int(value: Fraction) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {value}")
    return int(value)


def mu_values(n: int, k: int, r: int) -> tuple[int, int, int, int]:
    """The four natural-module eigenvalues for the prefix-moving set
    C(n, k; r), 2 <= r < k < n.  All four are exact integers.

    mu2 is the diagonal-minus-coupling count on the tail coordinates:
    a tail point j is fixed by (k-1)!C(n-r-1, k-r) elements and sent to a
    given other tail point by (k-2)!C(n-r-2, k-r-2) elements.  See
    printed_mu2_variant for the published scalar expression, which
    disagrees with this (and with the operator itself) once k - r >= 2.
    """
    if not 2 <= r < k < n:
        raise ValueError(f"need 2 <= r < k < n, got n={n}, k={k}, r={r}")
    base = factorial(k - 2) * binom(n - r, k - r)
    mu1 = factorial(k - 1) * binom(n - r, k - r)
    mu2 = factorial(k - 1) * binom(n - r - 1, k - r) - factorial(k - 2) * binom(
        n - r - 2, k - r - 2
    )
    mu3 = _as_int(base * (Fraction(r * (n - k), n - r) - 1))
    mu4 = -base
    return mu1, mu2, mu3, mu4


def printed_mu2_variant(n: int, k: int, r: int) -> Fraction:
    """The published closed form for mu2,
    (k-2)!C(n-r,k-r)(k-1 - (k-r)(2k-2-r)/(n-r)).

    It agrees with mu_values for k = r + 1 but not in general (for example
    (n, k, r) = (7, 4, 2) gives 28 while the operator eigenvalue is 34);
    kept only so verification runs can flag the discrepancy."""
    base = factorial(k - 2) * binom(n - r, k - r)
    return base * (k - 1 - Fraction((k - r) * (2 * k - 2 - r), n - r))


def natural_multiplicities(n: int, r: int) -> tuple[int, int, int, int]:
    """Multiplicities of (mu1, mu2, mu3, mu4) on the natural module for the
    k = r + 1 case."""
    return 1, n - r - 1, 1, r - 1


def printed_third_eigenvalue_variant(n: int, r: int) -> int:
    """The published table's third natural-module eigenvalue for k = r + 1,
    (r-1)(r-1)!(n-r-1) - r!.  It disagrees with the trace identity and with
    the closed-form mu3 = (r-1)!((r-1)(n-r-1) - 1); kept only so runs can
    flag the discrepancy."""
    return (r - 1) * factorial(r - 1) * (n - r - 1) - factorial(r)


def mu3_closed_form(n: int, r: int) -> int:
    """(r-1)!((r-1)(n-r-1) - 1), the k = r + 1 specialization of mu3."""
    return factorial(r - 1) * ((r - 1) * (n - r - 1) - 1)


def natural_trace(n: int, r: int) -> int:
    """Trace of the connecting-set sum on the natural module for k = r + 1:
    every element fixes n - r - 1 points."""
    return factorial(r) * (n - r) * (n - r - 1)


# ---------------------------------------------------------------------------
# Headline second-largest-eigenvalue values


def full_cycle_lambda1(n: int) -> int:
    return factorial(n - 1)


def full_cycle_lambda2(n: int) -> int:
    """lambda2 for the all-n-cycles connecting set: (n-2)! for even n,
    2(n-3)! for odd n."""
    if n <= 4:
        raise ValueError("asserted for n > 4 only")
    return factorial(n - 2) if n % 2 == 0 else 2 * factorial(n - 3)


def almost_full_cycle_lambda1(n: int) -> int:
    return n * factorial(n - 2)


def almost_full_cycle_lambda2(n: int) -> int:
    """lambda2 for the all-(n-1)-cycles connecting set: 3(n-3)(n-5)! for even
    n, 2(n-2)(n-4)! for odd n."""
    if n <= 4:
        raise ValueError("asserted for n > 4 only")
    if n % 2 == 0:
        return 3 * (n - 3) * factorial(n - 5)
    return 2 * (n - 2) * factorial(n - 4)


def prefix_lambda1(n: int, r: int) -> int:
    return factorial(r) * (n - r)


def prefix_lambda2(n: int, r: int) -> int:
    return factorial(r) * (n - r - 1)
