"""
Young diagrams as weakly decreasing tuples of positive integers.

A diagram labels an irreducible character of Sym(1..n) where n is the sum of
the parts.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import re
from math import factorial, prod
from typing import Sequence


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


def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in reverse lexicographic order ([n] first): each
    next one takes a box from the last part above 1 and refills after it."""
    parts = [n] if n > 0 else []
    found = [tuple(parts)] if n >= 0 else []
    while parts and parts[0] > 1:
        i = len(parts) - parts.count(1) - 1  # the 1s come last
        largest = parts[i] - 1
        whole, rest = divmod(len(parts) - i, largest)  # the 1s after it, and its box
        parts[i:] = [largest] * (whole + 1) + ([rest] if rest else [])
        found.append(tuple(parts))
    return tuple(found)


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


def dimension(rows: tuple[int, ...]) -> int:
    """Number of standard tableaux of the shape, by the hook length formula."""
    rows = validate_diagram(rows)
    cols = transpose(rows)
    hooks = prod(rows[i] - j + cols[j] - i - 1 for i in range(len(rows)) for j in range(rows[i]))
    d, rem = divmod(factorial(sum(rows)), hooks)
    assert rem == 0
    return d
