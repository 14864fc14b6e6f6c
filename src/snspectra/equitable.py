"""
The two 3-block partitions of the prefix-moving Cayley graphs: their exact
closed-form quotient matrices, and a quotient oracle counted from H.

The closed-form quotient matrices B1 (blocks by the image of the last point)
and B2 (blocks by the image of the first point) have exact integer entries;
their eigenvalues are extracted exactly from the characteristic polynomial.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

from .eigen import exact_integer_eigenvalues
from .formulas import binom, check_quotient_parameters
from .graphs import natural_module_matrix
from .permutations import prefix_moving_cycles


def quotient_B1(n: int, k: int, r: int) -> list[list[int]]:
    """Quotient matrix of the last-point partition for C(n, k; r)."""
    check_quotient_parameters(n, k, r)
    f1, f2 = factorial(k - 1), factorial(k - 2)
    return [
        [
            f1 * binom(n - r - 1, k - r),
            r * f2 * binom(n - r - 1, k - r - 1),
            (n - r - 1) * f2 * binom(n - r - 2, k - r - 2),
        ],
        [
            f2 * binom(n - r - 1, k - r - 1),
            (r - 1) * f2 * binom(n - r, k - r),
            (n - r - 1) * f2 * binom(n - r - 1, k - r - 1),
        ],
        [
            f2 * binom(n - r - 2, k - r - 2),
            r * f2 * binom(n - r - 1, k - r - 1),
            (n - r - 2) * f2 * binom(n - r - 2, k - r - 2) + f1 * binom(n - r - 1, k - r),
        ],
    ]


def quotient_B2(n: int, k: int, r: int) -> list[list[int]]:
    """Quotient matrix of the first-point partition for C(n, k; r)."""
    check_quotient_parameters(n, k, r)
    f1, f2 = factorial(k - 1), factorial(k - 2)
    whole = binom(n - r, k - r)
    return [
        [0, (r - 1) * f2 * whole, (k - r) * f2 * whole],
        [f2 * whole, (r - 2) * f2 * whole, (k - r) * f2 * whole],
        [
            f2 * binom(n - r - 1, k - r - 1),
            (r - 1) * f2 * binom(n - r - 1, k - r - 1),
            (n - r - 1) * f2 * binom(n - r - 2, k - r - 2) + f1 * binom(n - r - 1, k - r),
        ],
    ]


def counted_quotient(n: int, k: int, r: int) -> dict[str, tuple[bool, list[list[int]]]]:
    """Neighbor-counted quotient oracle, independent of the closed forms:
    for "B1" and "B2", whether the partition is equitable and its quotient
    matrix, both read from one count of H = C(n, k; r).

    A neighbor h*v of v lands in the block determined by h(v(p)) where p is
    the partition point, so the count for every vertex of a block is a pure
    point-image count, read off the natural-module operator; constancy
    across each block is verified exactly, which covers every vertex of the
    explicit graph.
    """
    natural = natural_module_matrix(prefix_moving_cycles(n, k, r))
    result = {}
    for which, ranges in (
        ("B1", [(n, n), (1, r), (r + 1, n - 1)]),
        ("B2", [(1, 1), (2, r), (r + 1, n)]),
    ):
        # counts[p][b] = #{h in H : h(p) in block b}, for every point p
        counts = [
            [sum(natural[i - 1][p - 1] for i in range(lo, hi + 1)) for lo, hi in ranges]
            for p in range(1, n + 1)
        ]
        quotient: list[list[int]] = []
        equitable = True
        for lo, hi in ranges:
            rows = counts[lo - 1 : hi]
            if any(row != rows[0] for row in rows):
                equitable = False
            quotient.append(rows[0])
        result[which] = equitable, quotient
    return result


def quotient_eigenvalues(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Exact integer eigenvalues of a small quotient matrix, descending with
    multiplicity; raises if any root fails to be an integer."""
    pairs = exact_integer_eigenvalues(matrix)
    out: list[int] = []
    for value, mult in pairs:
        out.extend([value] * mult)
    return out


def export_quotient_csv(
    matrix: Sequence[Sequence[int]], block_names: Sequence[str], path
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("block," + ",".join(block_names) + "\n")
        for name, row in zip(block_names, matrix):
            fh.write(name + "," + ",".join(str(int(v)) for v in row) + "\n")
