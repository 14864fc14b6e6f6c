"""
Exact irreducible character values of Sym(1..n) by the Murnaghan-Nakayama
rule, one whole class column at a time.

All values are exact integers.  ``character_column``, the one reader of a
class column, builds its nonzero values bottom up and caches them in process,
after COLUMN_CAP prices the read from the cycle type.  ``class_eigenvalues``
turns one column into the class sum's eigenvalues in one pass; the char route
reads that dict.  The irrep route in ``yor`` reads only ``character_column``,
to check the trace of each H+ block against its diagonal of contents.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache
from math import factorial
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .diagrams import (
    dimension,
    diagram_string,
    partition_count,
    partitions_of,
    validate_diagram,
)
from .permutations import CapExceededError, validate_cycle_type

# The S18 table, 385^2 values: 0.8 s, 35 MB resident; the S20 table: 2.1 s, 66 MB.
TABLE_CAP = 18
# Reading one class column costs about n^3 p(n - largest part): each of the
# p(n - k) shapes below gains up to n rim hooks, each new shape and its
# dimension taking O(n) big-int steps. The cap is that work at C(40,2), so
# every k-cycle class of S40 passes. At the edge, in process, the column, then
# the char spectrum from it, and the peak: C(40,2) 3.8 s, 0.6 s, 71 MB;
# C(100,80) 0.7 s, 2.0 s, 75 MB; the n-cycles of S1183 0.3 s, 1.0 s, 23 MB.
COLUMN_CAP = 40**3 * 26015  # 40^3 p(38)


def class_size(ctype: Sequence[int]) -> int:
    """Number of permutations with the given cycle type."""
    n = sum(ctype)
    denom = 1
    multiplicity: dict[int, int] = {}
    for length in ctype:
        denom *= length
        multiplicity[length] = multiplicity.get(length, 0) + 1
    for m in multiplicity.values():
        denom *= factorial(m)
    return factorial(n) // denom


def _shape_from_beta(beta: list[int]) -> tuple[int, ...]:
    beta = sorted(beta, reverse=True)
    m = len(beta)
    rows = tuple(beta[i] - (m - 1 - i) for i in range(m))
    return tuple(p for p in rows if p > 0)


def check_column_cap(ctype: tuple[int, ...]) -> None:
    """Refuse, with CapExceededError, the column of a cycle type whose work
    n^3 p(n - largest part) exceeds COLUMN_CAP.  n^3 is tested alone first,
    so a huge n is refused before any partition is counted."""
    n = sum(ctype)
    rest = n - max(ctype, default=0)
    if n**3 > COLUMN_CAP or n**3 * partition_count(rest) > COLUMN_CAP:
        raise CapExceededError(
            f"the S{n} column with largest part {ctype[0]} costs n^3 p({rest}), "
            f"more than column cap {COLUMN_CAP}"
        )


@cache
def character_column(ctype: tuple[int, ...]) -> Mapping[tuple[int, ...], int]:
    """{shape: chi^shape(ctype)} over the shapes where the value is nonzero;
    refused by check_column_cap before anything is built.

    Murnaghan-Nakayama bottom up: the column of the smaller parts ctype[1:]
    gets one rim hook of length ctype[0] added to each of its shapes.  On
    the beta set of a shape (row i + number of rows below it, padded with
    enough zero rows), adding a rim hook moves one bead b to an empty b + p;
    its sign is (-1)**(beads strictly between).  Values that cancel to zero
    are dropped, so the column holds only the support.
    """
    ctype = validate_cycle_type(ctype, sum(ctype))
    check_column_cap(ctype)
    if not ctype:
        return MappingProxyType({(): 1})
    p, rest = ctype[0], ctype[1:]
    column: dict[tuple[int, ...], int] = {}
    for shape, value in character_column(rest).items():
        beads = len(shape) + p
        beta = [part + beads - 1 - i for i, part in enumerate(shape + (0,) * p)]
        occupied = set(beta)
        for i, b in enumerate(beta):
            if b + p in occupied:
                continue
            height = sum(1 for x in beta[:i] if x < b + p)
            bigger = _shape_from_beta(beta[:i] + [b + p] + beta[i + 1:])
            column[bigger] = column.get(bigger, 0) + (-1) ** height * value
    return MappingProxyType({shape: v for shape, v in column.items() if v})


def mn_character(shape: Sequence[int], ctype: Sequence[int]) -> int:
    """Character value of the irreducible labeled by ``shape`` on the class
    of cycle type ``ctype``; exact integer."""
    shape = validate_diagram(shape)
    n = sum(shape)
    ctype = validate_cycle_type(ctype, n)
    return character_column(ctype).get(shape, 0)


def class_eigenvalues(ctype: Sequence[int]) -> dict[tuple[int, ...], int]:
    """{shape: |class| chi^shape(ctype) / chi^shape(1)} over the support of
    character_column(ctype): the class sum's eigenvalue on each block, zero
    off the support; raises ArithmeticError if one is not an integer."""
    column = character_column(tuple(ctype))  # validates ctype and checks the cap
    size = class_size(ctype)
    eigenvalues = {}
    for shape, chi in column.items():
        value, rest = divmod(size * chi, dimension(shape))
        if rest:
            raise ArithmeticError(f"class eigenvalue for {shape} on {ctype} is not integral")
        eigenvalues[shape] = value
    return eigenvalues


def _best_ratio(
    shapes: Iterable[tuple[int, ...]], column: Mapping[tuple[int, ...], int]
) -> tuple[Fraction | None, list[tuple[int, ...]]]:
    best: Fraction | None = None
    winners: list[tuple[int, ...]] = []
    for shape in shapes:
        dim = dimension(shape)
        if dim == 1:
            continue
        ratio = Fraction(column.get(shape, 0), dim)
        if best is None or ratio > best:
            best, winners = ratio, [shape]
        elif ratio == best:
            winners.append(shape)
    return best, winners


def max_ratio_diagram(
    n: int, ctype: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], Fraction]:
    """Maximize chi(h)/chi(1) over irreducibles with chi(1) != 1.

    Returns (winning diagrams, ratio), every tie in ``partitions_of`` order.
    Every shape off the character's support has ratio 0, so a positive best
    on the support is exact; otherwise all partitions of n are scanned.
    """
    if n <= 4:
        raise ValueError("maximization only supported for n > 4")
    column = character_column(validate_cycle_type(ctype, n))
    best, winners = _best_ratio(sorted(column, reverse=True), column)
    if best is None or best <= 0:
        best, winners = _best_ratio(partitions_of(n), column)
    assert best is not None
    return tuple(winners), best


def character_table_csv(n: int) -> str:
    """The character table as CSV: one row per diagram, one column per cycle
    type, both in partitions_of order, exact ints; the one writer of both
    ``character`` table outputs; n < 1, which has no diagram, and
    n > TABLE_CAP are refused."""
    if n < 1:
        raise ValueError(f"degree {n} has no diagram: n must be at least 1")
    if n > TABLE_CAP:
        raise CapExceededError(f"degree {n} exceeds table cap {TABLE_CAP}")
    classes = partitions_of(n)
    columns = [character_column(c) for c in classes]
    lines = ["diagram," + ",".join(map(diagram_string, classes))]
    lines += [
        diagram_string(shape) + "," + ",".join(str(column.get(shape, 0)) for column in columns)
        for shape in classes
    ]
    return "\n".join(lines) + "\n"


def export_character_table_csv(n: int, path: str | os.PathLike) -> None:
    """Write character_table_csv(n) to ``path``; a refused n leaves the file
    as it was, since the table is built before the file is opened."""
    table = character_table_csv(n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table)
