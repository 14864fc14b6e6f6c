"""
Cycle connecting sets of Sym(1..n), and the groups they live in.

A connecting set is held three ways, and nothing else: as a
``ConnectingSetSpec`` (family, n, k, r), which the irrep and char routes
read; as the cycles of its elements, which ``connecting_cycles`` draws and
the natural and quotient routes count; and as an ``(N, n)`` small-int array
of 0-based images, one row per element, which ``connecting_images`` writes
for the dense route.  Groups are image arrays too, from ``group_images``.
Points are 1-based in cycles and 0-based in image rows.  Products act right
to left, ``(g h)(x) = g(h(x))``: on image rows ``g h`` is ``g[h]``.  Cayley
adjacency elsewhere uses ``u ~ v`` iff ``u v^-1`` is in the connecting set.

Groups and connecting sets share one enumerator, ``itertools.permutations``,
whose lexicographic order is the order of group rows.

Connecting sets:

- ``full_cycles(n, k)``: all k-cycles in Sym(1..n), size ``(k-1)! * C(n, k)``.
- ``prefix_moving_cycles(n, k, r)``: the k-cycles moving every point of
  {1..r}, size ``(k-1)! * C(n-r, k-r)``.
"""

from __future__ import annotations

import itertools
import re
from math import comb, factorial, lgamma, log, log10
from typing import Iterator, Sequence

from ._numpy import np


SET_CAP = 10**6  # the most elements connecting_cycles makes


class DegreeMismatchError(ValueError):
    """Raised when a connecting set's degree differs from its group's."""


class CapExceededError(RuntimeError):
    """A size cap refused a computation before its large allocation."""


class _Value:
    """An immutable value whose fields are its ``__slots__``, in order:
    equality, hash, repr and pickling read them, and assigning or deleting
    one raises AttributeError, as on a frozen dataclass."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def validate_cycle_type(parts: Sequence[int], n: int) -> tuple[int, ...]:
    parts = tuple(parts)
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise ValueError(f"parts must be weakly decreasing positive: {parts}")
    return parts


# ---------------------------------------------------------------------------
# Connecting sets


class ConnectingSetSpec(_Value):
    """Symbolic description of a cycle connecting set, immutable and hashable.

    ``family`` is "full" (all k-cycles) or "prefix" (k-cycles moving all of
    {1..r}); ``r`` is None exactly for the "full" family.
    """

    __slots__ = ("family", "n", "k", "r")

    def __init__(self, family: str, n: int, k: int, r: int | None = None) -> None:
        if family == "full":
            if not (1 < k <= n):
                raise ValueError(f"full cycles need 1 < k <= n, got k={k}, n={n}")
            if r is not None:
                raise ValueError("r is meaningless for the full-cycle family")
        elif family == "prefix":
            if r is None or not (1 <= r < k < n):
                raise ValueError(f"prefix family needs 1 <= r < k < n, got r={r}, k={k}, n={n}")
        else:
            raise ValueError(f"unknown family {family!r}")
        self._set(family, n, k, r)

    def cardinality(self) -> int:
        if self.family == "full":
            return factorial(self.k - 1) * comb(self.n, self.k)
        return factorial(self.k - 1) * comb(self.n - self.r, self.k - self.r)

    def __str__(self) -> str:
        if self.family == "full":
            return f"C({self.n},{self.k})"
        return f"C({self.n},{self.k};{self.r})"


def full_cycles(n: int, k: int) -> ConnectingSetSpec:
    return ConnectingSetSpec("full", n, k)


def prefix_moving_cycles(n: int, k: int, r: int) -> ConnectingSetSpec:
    return ConnectingSetSpec("prefix", n, k, r)


_SPEC_RE = re.compile(r"C\(\s*(\d+)\s*,\s*(\d+)\s*(?:;\s*(\d+)\s*)?\)")


def parse_spec(text: str) -> ConnectingSetSpec:
    """Parse "C(n,k)" or "C(n,k;r)"."""
    m = _SPEC_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"bad connecting set spec: {text!r}")
    n, k, r = int(m.group(1)), int(m.group(2)), m.group(3)
    if r is None:
        return full_cycles(n, k)
    return prefix_moving_cycles(n, k, int(r))


def count_text(count: int) -> str:
    """A positive count in decimal, or past 13000 bits as 10^x, x to one
    place: Python refuses to convert an int of more than 4300 digits."""
    return str(count) if count.bit_length() <= 13000 else f"10^{log10(count):.1f}"


def check_set_cap(spec: ConnectingSetSpec) -> None:
    """Refuse, with CapExceededError, a set of more than SET_CAP elements; one
    past 13000 bits, printed as 10^x, from log10 |H| before its count is made."""
    n, k, r = spec.n, spec.k, spec.r or 0  # |H| = (n-r)! (k-1)! / ((k-r)! (n-k)!)
    log_size = (lgamma(n - r + 1) + lgamma(k) - lgamma(k - r + 1) - lgamma(n - k + 1)) / log(10)
    if log_size > max(13001 * log10(2), log10(SET_CAP) + 1):
        raise CapExceededError(f"|{spec}| = 10^{log_size:.1f} exceeds set cap {SET_CAP}")
    size = spec.cardinality()
    if size > SET_CAP:
        raise CapExceededError(f"|{spec}| = {count_text(size)} exceeds set cap {SET_CAP}")


def connecting_cycles(spec: ConnectingSetSpec) -> Iterator[tuple[int, ...]]:
    """Each element of the connecting set once, as its cycle: a tuple of k
    points with cycle[i] -> cycle[i+1], led by its least point.  A set of
    more than SET_CAP elements is refused by check_set_cap on the call."""
    check_set_cap(spec)
    n, k = spec.n, spec.k
    if spec.family == "full":
        supports = itertools.combinations(range(1, n + 1), k)
    else:
        prefix = tuple(range(1, spec.r + 1))
        supports = (
            prefix + extra
            for extra in itertools.combinations(range(spec.r + 1, n + 1), k - spec.r)
        )
    # All (k-1)! distinct k-cycles on each support, anchored at its least point.
    return (
        (first,) + tail for first, *rest in supports for tail in itertools.permutations(rest)
    )


def generated_subgroup_kind(spec: ConnectingSetSpec) -> str:
    """'symmetric' iff k is even, else 'alternating' (k-cycles are even)."""
    if spec.n <= 4:
        raise ValueError("subgroup dichotomy only asserted for n > 4")
    return "symmetric" if spec.k % 2 == 0 else "alternating"


def even_rows(images: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of an image array that are even permutations."""
    odd = np.zeros(len(images), dtype=bool)
    for i, j in itertools.combinations(range(images.shape[1]), 2):
        odd ^= images[:, i] > images[:, j]  # one inversion flips the parity
    return ~odd


def check_group(kind: str, inside_alt: bool) -> None:
    """The one membership rule: refuse, with ValueError, a group kind other
    than "symmetric" or "alternating", and a connecting set that is not
    ``inside_alt`` (has an odd element) on the alternating group."""
    if kind not in ("symmetric", "alternating"):
        raise ValueError(f"unknown group kind {kind!r}")
    if kind == "alternating" and not inside_alt:
        raise ValueError("connecting set contains odd permutations, not inside Alt")


def group_images(kind: str, n: int) -> np.ndarray:
    """Sym(1..n) for kind "symmetric", else Alt(1..n), as 0-based images,
    rows in lexicographic order; check_group decides which kinds exist."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    images = np.fromiter(flat, np.min_scalar_type(n), factorial(n) * n).reshape(factorial(n), n)
    return images if kind == "symmetric" else images[even_rows(images)]


def connecting_images(spec: ConnectingSetSpec) -> np.ndarray:
    """H = spec as 0-based images, one row per element in the order of
    connecting_cycles; check_set_cap refuses a set above SET_CAP."""
    cycles = connecting_cycles(spec)
    count, n, k = spec.cardinality(), spec.n, spec.k
    flat = itertools.chain.from_iterable(cycles)
    points = np.fromiter(flat, np.intp, count * k).reshape(count, k) - 1
    images = np.tile(np.arange(n, dtype=np.min_scalar_type(n)), (count, 1))
    # cycle[i] -> cycle[i+1]: each row sends its points one place along.
    images[np.arange(count)[:, None], points] = np.roll(points, -1, axis=1)
    return images


def group_order(kind: str, n: int) -> int:
    return factorial(n) if kind == "symmetric" else factorial(n) // 2

