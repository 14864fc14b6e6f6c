"""
Eigenvalue machinery: multiplicity clustering with integer snapping, and
exact integer characteristic polynomials whose integer roots an integer
Newton descent finds.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

CLUSTER_TOL = 1e-6


class NonIntegerSpectrumError(ArithmeticError):
    """An exact spectrum was expected to be integral but is not."""


def snap_to_integer(value: float) -> float:
    """The nearest int when within CLUSTER_TOL of one, else the value."""
    nearest = round(value)
    return nearest if abs(value - nearest) <= CLUSTER_TOL else value


def cluster_eigenvalues(pairs: Sequence[tuple[float, int]]) -> list[tuple[float, int]]:
    """Merge numerically equal eigenvalues of (value, multiplicity) pairs.

    Raw solver output passes multiplicity 1 per value.  Sorted values chain
    into one cluster while each is within CLUSTER_TOL of the previous one;
    the representative is the multiplicity-weighted mean, snapped to the
    nearest integer when within CLUSTER_TOL.  Sorted descending.

    The mean is taken as an offset from the cluster's first value, and a
    cluster of equal values keeps that first value as it is: an exact int
    stays one however large it or the multiplicities are.
    """
    clusters: list[list] = []  # [first value, offset sum, weight]
    for value, mult in sorted(pairs, key=lambda p: -p[0]):
        if not clusters or prev - value > CLUSTER_TOL:
            clusters.append([value, 0, 0])
        cluster = clusters[-1]
        cluster[1] += (value - cluster[0]) * mult
        cluster[2] += mult
        prev = value
    return [
        (snap_to_integer(base + offset / weight if offset else base), weight)
        for base, offset, weight in clusters
    ]


INVARIANT_RTOL = 1e-9


def check_cayley_invariants(
    pairs: Sequence[tuple[float, int]], order: int, degree: int
) -> None:
    """Raise ArithmeticError unless the (value, multiplicity) pairs of
    Cay(G, H), with |G| = ``order`` and |H| = ``degree``, satisfy
    sum m = |G|, sum v m = 0, sum v^2 m = |G||H| and lambda1 = |H|.

    The check is exact when every value is an int; otherwise sums agree to
    the relative tolerance INVARIANT_RTOL.
    """
    exact = all(isinstance(v, int) for v, _ in pairs)

    def holds(value: float, target: int, scale: float) -> bool:
        return value == target if exact else abs(value - target) <= INVARIANT_RTOL * scale

    failures = []
    size = sum(m for _, m in pairs)
    if size != order:
        failures.append(f"sum m = {size} != |G| = {order}")
    trace = sum(v * m for v, m in pairs)
    if not holds(trace, 0, sum(abs(v) * m for v, m in pairs)):
        failures.append(f"sum v m = {trace} != 0")
    square = sum(v * v * m for v, m in pairs)
    if not holds(square, order * degree, order * degree):
        failures.append(f"sum v^2 m = {square} != |G||H| = {order * degree}")
    top = max((v for v, _ in pairs), default=0)
    if not holds(top, degree, degree):
        failures.append(f"lambda1 = {top} != |H| = {degree}")
    if failures:
        raise ArithmeticError("Cayley spectrum invariants fail: " + "; ".join(failures))


class SpectrumReport:
    """Sorted eigenvalue multiset with provenance.

    ``eigenvalues`` is descending (value, multiplicity); ``lambda1`` and
    ``lambda2`` are the largest and second largest *distinct* values.
    """

    def __init__(self, eigenvalues: list[tuple[float, int]], method: str) -> None:
        if not eigenvalues:
            raise ValueError("empty spectrum")
        if method not in ("dense", "irrep", "natural", "char"):
            raise ValueError(f"unknown method {method!r}")
        values = [v for v, _ in eigenvalues]
        if values != sorted(values, reverse=True):
            raise ValueError("eigenvalues must be sorted descending")
        self.eigenvalues = eigenvalues
        self.method = method
        self.lambda1: float = values[0]
        self.lambda2: float = values[1] if len(values) > 1 else values[0]

    @property
    def size(self) -> int:
        return sum(m for _, m in self.eigenvalues)

    def distinct(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.eigenvalues)

    def trace(self) -> float:
        return sum(v * m for v, m in self.eigenvalues)


# ---------------------------------------------------------------------------
# Exact integer spectra


def charpoly_int(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Characteristic polynomial det(xI - M) of an integer matrix.

    Faddeev-LeVerrier with exact integer arithmetic; returns coefficients
    [1, c_{n-1}, ..., c_0] from the leading term down.
    """
    m = [[int(v) for v in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("not square")
    coeffs = [1]
    work = [[0] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        # work <- M * (work + c_{k-1} I)
        for i in range(n):
            work[i][i] += coeffs[-1]
        columns = list(zip(*work))
        work = [[sum(map(mul, row, column)) for column in columns] for row in m]
        trace = sum(work[i][i] for i in range(n))
        c, rem = divmod(-trace, k)
        assert rem == 0, "Faddeev-LeVerrier trace not divisible"
        coeffs.append(c)
    return coeffs


def _eval_poly(coeffs: list[int], x: int) -> tuple[int, int]:
    """p(x) and p'(x) from one Horner pass."""
    value = slope = 0
    for c in coeffs:
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _deflate(coeffs: list[int], root: int) -> list[int]:
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + root * out[-1])
    assert coeffs[-1] + root * out[-1] == 0
    return out


def integer_roots(coeffs: Sequence[int]) -> dict[int, int]:
    """Roots with multiplicity of a monic integer polynomial, all of which
    must be integers, keyed largest first; raises NonIntegerSpectrumError
    otherwise.

    An integer Newton descent x <- x - max(p(x) // p'(x), 1) starts at
    2^(1 + max ceil(bits(c_i) / i)), above the Fujiwara bound on every root.
    When the roots are all integers, each step lands at or above the largest
    one, so the descent stops on it; the root is deflated out and the descent
    resumes from it.  Otherwise the descent meets p(x) < 0 or p'(x) <= 0
    first, and raises there.
    """
    poly = list(coeffs)
    if not poly or poly[0] != 1:
        raise ValueError("polynomial must be monic")
    roots: dict[int, int] = {}
    x = 2 << max((-(-abs(c).bit_length() // i) for i, c in enumerate(poly[1:], 1)), default=0)
    while len(poly) > 1:
        value, slope = _eval_poly(poly, x)
        if value == 0:
            roots[x] = roots.get(x, 0) + 1
            poly = _deflate(poly, x)
        elif value < 0 or slope <= 0:
            raise NonIntegerSpectrumError(
                f"degree-{len(poly) - 1} factor {poly} has a root that is not an integer"
            )
        else:
            x -= max(value // slope, 1)
    return roots


def exact_integer_eigenvalues(matrix: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """(eigenvalue, multiplicity) pairs, descending, for an integer matrix
    whose spectrum is known to be integral."""
    return list(integer_roots(charpoly_int(matrix)).items())
