"""
Exact irreducible character values of Sym(1..n) by the Murnaghan-Nakayama
rule, one whole class column at a time.

All values are exact integers.  ``character_column``, the one reader of a
class column, builds its nonzero values bottom up in one loop, after
COLUMN_CAP prices the read from the cycle type; nothing is kept between
calls.  ``class_eigenvalues`` turns one column into each block's eigenvalue
and dimension in one pass; the char route reads that dict.  The irrep route
in ``yor`` reads one column per spectrum, to check each H+ block's trace.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Sequence

from .diagrams import (
    dimension,
    diagram_string,
    partition_count,
    partitions_of,
    validate_diagram,
)
from .permutations import CapExceededError, validate_cycle_type

# The S18 table, 385^2 values: 0.8 s, 35 MB resident; the S20 table: 2.2 s, 66 MB.
TABLE_CAP = 18
# Reading one class column costs about n^3 p(n - largest part): each of the
# p(n - k) shapes below gains up to n rim hooks, each new shape and its
# dimension taking O(n) big-int steps. The cap is that work at C(40,2), so
# every k-cycle class of S40 passes. At the edge, in process, the column, then
# the char spectrum from it, and the peak: C(40,2) 3.5 s, 0.6 s, 39 MB;
# C(100,80) 0.8 s, 1.9 s, 68 MB; the n-cycles of S1183 0.2 s, 0.9 s, 23 MB.
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


def _add_rim_hooks(column: dict[tuple[int, ...], int], p: int) -> dict[tuple[int, ...], int]:
    """The column of the cycle type (p,) + rest from the column of rest, by
    Murnaghan-Nakayama: each shape gains one rim hook of length p.  On the
    beta set of a shape (row i + number of rows below it, padded with enough
    zero rows), adding a rim hook moves one bead b to an empty b + p; its sign
    is (-1)**(beads strictly between).  Values that cancel to zero are
    dropped, so the column holds only the support."""
    bigger_column: dict[tuple[int, ...], int] = {}
    for shape, value in column.items():
        beads = len(shape) + p
        beta = [part + beads - 1 - i for i, part in enumerate(shape + (0,) * p)]
        occupied = set(beta)
        for i, b in enumerate(beta):
            if b + p in occupied:
                continue
            height = sum(1 for x in beta[:i] if x < b + p)
            bigger = _shape_from_beta(beta[:i] + [b + p] + beta[i + 1:])
            bigger_column[bigger] = bigger_column.get(bigger, 0) + (-1) ** height * value
    return {shape: v for shape, v in bigger_column.items() if v}


def character_column(ctype: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{shape: chi^shape(ctype)} over the shapes where the value is nonzero;
    refused by check_column_cap before anything is built.  Bottom up, last
    part first, each column dropped once the next is built from it."""
    ctype = validate_cycle_type(ctype, sum(ctype))
    check_column_cap(ctype)
    column = {(): 1}
    for p in reversed(ctype):
        column = _add_rim_hooks(column, p)
    return column


def mn_character(shape: Sequence[int], ctype: Sequence[int]) -> int:
    """Character value of the irreducible labeled by ``shape`` on the class
    of cycle type ``ctype``; exact integer."""
    shape = validate_diagram(shape)
    n = sum(shape)
    ctype = validate_cycle_type(ctype, n)
    return character_column(ctype).get(shape, 0)


def class_eigenvalues(ctype: Sequence[int]) -> dict[tuple[int, ...], tuple[int, int]]:
    """{shape: (|class| chi^shape(ctype) / chi^shape(1), chi^shape(1))} over
    the support of character_column(ctype): the class sum's eigenvalue on
    each block, zero off the support, and the block's dimension; raises
    ArithmeticError if an eigenvalue is not an integer."""
    column = character_column(tuple(ctype))  # validates ctype and checks the cap
    size = class_size(ctype)
    eigenvalues = {}
    for shape, chi in column.items():
        value, rest = divmod(size * chi, dim := dimension(shape))
        if rest:
            raise ArithmeticError(f"class eigenvalue for {shape} on {ctype} is not integral")
        eigenvalues[shape] = value, dim
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
    # Each suffix of a class is a class of smaller degree, built once, shortest
    # first, from its own suffix, and shared by every class that ends with it.
    columns = {(): {(): 1}}
    for c in sorted({c[i:] for c in classes for i in range(len(c))}, key=len):
        columns[c] = _add_rim_hooks(columns[c[1:]], c[0])
    lines = ["diagram," + ",".join(map(diagram_string, classes))]
    lines += [
        diagram_string(shape) + "," + ",".join(str(columns[c].get(shape, 0)) for c in classes)
        for shape in classes
    ]
    return "\n".join(lines) + "\n"


def export_character_table_csv(n: int, path: str | os.PathLike) -> None:
    """Write character_table_csv(n) to ``path``; a refused n leaves the file
    as it was, since the table is built before the file is opened."""
    table = character_table_csv(n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table)
