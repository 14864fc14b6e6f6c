"""
Exact irreducible character values of Sym(1..n) via rim-hook recursion.

All values are exact integers; class-invariant eigenvalues are exact
rationals asserted to be integers.  A persistent per-degree cache of
character values can be loaded/saved by the CLI (see ``cache_path``).
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Sequence

from .diagrams import (
    dimension,
    diagram_string,
    hook_leg,
    is_hook,
    partitions_of,
    validate_diagram,
)
from .permutations import validate_cycle_type

CACHE_SCHEMA_VERSION = 1

# Memo shared by all callers; inserts are idempotent so concurrent updates
# cannot corrupt results.
_MEMO: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}


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


def class_sign(ctype: Sequence[int]) -> int:
    """Sign of any permutation with this cycle type."""
    return -1 if (sum(ctype) - len(ctype)) % 2 else 1


def _beta_set(shape: tuple[int, ...]) -> tuple[int, ...]:
    m = len(shape)
    return tuple(shape[i] + (m - 1 - i) for i in range(m))


def _shape_from_beta(beta: list[int]) -> tuple[int, ...]:
    beta = sorted(beta, reverse=True)
    m = len(beta)
    rows = tuple(beta[i] - (m - 1 - i) for i in range(m))
    return tuple(p for p in rows if p > 0)


def _strip_removals(shape: tuple[int, ...], length: int):
    """All ways to remove a rim hook of the given length.

    Yields (smaller shape, height) where the sign contribution of the strip
    is (-1)**height.
    """
    beta = _beta_set(shape)
    bset = set(beta)
    for b in beta:
        target = b - length
        if target < 0 or target in bset:
            continue
        height = sum(1 for x in beta if target < x < b)
        new_beta = [target if x == b else x for x in beta]
        yield _shape_from_beta(new_beta), height


def _mn(shape: tuple[int, ...], parts: tuple[int, ...]) -> int:
    if not parts:
        return 1
    key = (shape, parts)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    total = 0
    for smaller, height in _strip_removals(shape, parts[0]):
        total += (-1) ** height * _mn(smaller, parts[1:])
    _MEMO[key] = total
    return total


def mn_character(shape: Sequence[int], ctype: Sequence[int]) -> int:
    """Character value of the irreducible labeled by ``shape`` on the class
    of cycle type ``ctype``; exact integer."""
    shape = validate_diagram(shape)
    n = sum(shape)
    ctype = validate_cycle_type(ctype, n)
    return _mn(shape, ctype)


def hook_value_on_ncycle(shape: Sequence[int]) -> int:
    """Character value at the n-cycle class: (-1)**leg for hooks, else 0."""
    shape = validate_diagram(shape)
    if not is_hook(shape):
        return 0
    return (-1) ** hook_leg(shape)


def class_eigenvalue(shape: Sequence[int], ctype: Sequence[int]) -> int:
    """Eigenvalue |class| * chi(h) / chi(1) of the class sum on the block
    labeled by ``shape``; raises if it fails to be an integer."""
    shape = validate_diagram(shape)
    value = Fraction(class_size(ctype) * mn_character(shape, ctype), dimension(shape))
    if value.denominator != 1:
        raise ArithmeticError(
            f"class eigenvalue for {shape} on {ctype} is not integral: {value}"
        )
    return int(value)


def max_ratio_diagram(
    n: int, ctype: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], Fraction]:
    """Maximize chi(h)/chi(1) over irreducibles with chi(1) != 1.

    Returns (winning diagrams, ratio).  Ties are all reported; the scan is
    exhaustive over the partitions of n (desk scale).
    """
    if n <= 4:
        raise ValueError("maximization only supported for n > 4")
    ctype = validate_cycle_type(ctype, n)
    best: Fraction | None = None
    winners: list[tuple[int, ...]] = []
    for shape in partitions_of(n):
        dim = dimension(shape)
        if dim == 1:
            continue
        ratio = Fraction(mn_character(shape, ctype), dim)
        if best is None or ratio > best:
            best, winners = ratio, [shape]
        elif ratio == best:
            winners.append(shape)
    assert best is not None
    return tuple(winners), best


def character_table(n: int) -> tuple[tuple[tuple[int, ...], ...], list[list[int]]]:
    """(cycle types, rows) with rows indexed by partitions_of(n)."""
    classes = partitions_of(n)
    rows = [[mn_character(shape, c) for c in classes] for shape in classes]
    return classes, rows


def export_character_table_csv(n: int, path: str | os.PathLike) -> None:
    """CSV with one row per diagram, one column per cycle type, exact ints."""
    classes, rows = character_table(n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("diagram," + ",".join(diagram_string(c) for c in classes) + "\n")
        for shape, row in zip(partitions_of(n), rows):
            fh.write(diagram_string(shape) + "," + ",".join(map(str, row)) + "\n")


# ---------------------------------------------------------------------------
# Persistent cache (one file per degree, versioned schema)


def cache_dir() -> Path:
    env = os.environ.get("SNSPECTRA_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "snspectra"


def cache_path(n: int) -> Path:
    return cache_dir() / f"characters-v{CACHE_SCHEMA_VERSION}-n{n}.json"


def _key_string(shape: tuple[int, ...], parts: tuple[int, ...]) -> str:
    return ",".join(map(str, shape)) + "|" + ",".join(map(str, parts))


def _parse_key(key: str, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (diagram, cycle type) of a cache key; both must partition n."""
    try:
        shape, parts = (
            validate_cycle_type([int(x) for x in side.split(",")], n)
            for side in key.split("|")
        )
    except ValueError:
        raise ValueError(
            f"entry {key!r} is not (a partition of {n}, a cycle type of {n})"
        ) from None
    return shape, parts


def save_character_cache(n: int) -> Path:
    """Write the memoized values of degree n, replacing the file atomically.

    The payload goes to a temporary file in the same directory first, so a
    reader never sees a partly written cache.  There is no fsync: a file torn
    by a crash is ignored by ``load_character_cache``.
    """
    entries = {
        _key_string(shape, parts): value
        for (shape, parts), value in _MEMO.items()
        if sum(shape) == n
    }
    path = cache_path(n)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema_version": CACHE_SCHEMA_VERSION, "n": n, "values": entries}
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _read_cache(path: Path, n: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        raise ValueError("not JSON") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("values"), dict):
        raise ValueError("not a cache object")
    if payload.get("schema_version") != CACHE_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {payload.get('schema_version')!r}, expected {CACHE_SCHEMA_VERSION}"
        )
    if payload.get("n") != n:
        raise ValueError(f"n {payload.get('n')!r}, expected {n}")
    entries = {}
    for key, value in payload["values"].items():
        if type(value) is not int:
            raise ValueError(f"entry {key!r} has the non-integer value {value!r}")
        entries[_parse_key(key, n)] = value
    return entries


def load_character_cache(n: int) -> int:
    """Merge cached values into the memo; returns the number loaded.

    A file that is not JSON, has another schema version or degree, or holds
    an entry that is not (partition of n, cycle type of n) -> int is ignored
    whole, with a one-line warning on stderr.
    """
    path = cache_path(n)
    if not path.exists():
        return 0
    try:
        entries = _read_cache(path, n)
    except ValueError as exc:
        print(f"snspectra: warning: ignoring character cache {path}: {exc}", file=sys.stderr)
        return 0
    for key, value in entries.items():
        _MEMO.setdefault(key, value)
    return len(entries)
