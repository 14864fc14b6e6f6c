"""
Young diagrams as weakly decreasing tuples of positive integers.

A diagram labels an irreducible character of Sym(1..n) where n is the sum of
the parts.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import re
from functools import cache
from math import factorial
from typing import Iterator, Sequence


def validate_diagram(rows: Sequence[int]) -> tuple[int, ...]:
    rows = tuple(rows)
    if not rows or any(p <= 0 for p in rows):
        raise ValueError(f"parts must be positive: {rows}")
    if list(rows) != sorted(rows, reverse=True):
        raise ValueError(f"parts must be weakly decreasing: {rows}")
    return rows


def parse_diagram(text: str) -> tuple[int, ...]:
    """Parse the "[4,2,1]" notation."""
    m = re.fullmatch(r"\[\s*(\d+(\s*,\s*\d+)*)\s*\]", text.strip())
    if m is None:
        raise ValueError(f"bad diagram notation: {text!r}")
    return validate_diagram(tuple(int(tok) for tok in m.group(1).split(",")))


def diagram_string(rows: Sequence[int]) -> str:
    return "[" + ",".join(map(str, rows)) + "]"


@cache
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in reverse lexicographic order ([n] first)."""

    def gen(remaining: int, largest: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def partition_count(m: int) -> int:
    """p(m) by Euler's pentagonal recurrence, without listing the partitions."""
    counts = [1]
    for i in range(1, m + 1):
        total, j = 0, 1
        while (g := j * (3 * j - 1) // 2) <= i:  # the pentagonal numbers g and g + j
            terms = counts[i - g] + (counts[i - g - j] if g + j <= i else 0)
            total += terms if j % 2 else -terms
            j += 1
        counts.append(total)
    return counts[m]


def transpose(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate diagram (reflect across the main diagonal), in one pass up
    the rows: the columns that the i-th row reaches past the (i+1)-th hold
    i boxes, so each column length is set once."""
    cols: list[int] = []
    for i in range(len(rows), 0, -1):
        cols += [i] * (rows[i - 1] - len(cols))
    return tuple(cols)


def hook_lengths(rows: tuple[int, ...]) -> list[list[int]]:
    cols = transpose(rows)
    return [
        [(rows[i] - j) + (cols[j] - i) - 1 for j in range(rows[i])]
        for i in range(len(rows))
    ]


@cache
def dimension(rows: tuple[int, ...]) -> int:
    """Number of standard tableaux of the shape, by the hook length formula."""
    rows = validate_diagram(rows)
    n = sum(rows)
    product = 1
    for row in hook_lengths(rows):
        for h in row:
            product *= h
    d, rem = divmod(factorial(n), product)
    assert rem == 0
    return d
