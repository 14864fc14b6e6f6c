"""
Permutations of {1..n} and enumeration of cycle connecting sets.

A permutation is stored as a tuple ``images`` where ``images[j-1]`` is the
image of the point ``j``.  Points are 1-based everywhere in the public API.
The composition convention is fixed repo-wide as ``(g * h)(x) = g(h(x))``,
i.e. ``h`` acts first.  Cayley adjacency elsewhere uses ``u ~ v`` iff
``u * v.inverse()`` is in the connecting set.

Groups and connecting sets share one enumerator, ``itertools.permutations``,
whose lexicographic order is the order of group rows.  The array routes hold
groups and connecting sets as ``(N, n)`` small-int arrays of 0-based images,
one row per element; ``Permutation`` objects are made from them only at the
public boundary.

Connecting sets:

- ``full_cycles(n, k)``: all k-cycles in Sym(1..n), size ``(k-1)! * C(n, k)``.
- ``prefix_moving_cycles(n, k, r)``: the k-cycles moving every point of
  {1..r}, size ``(k-1)! * C(n-r, k-r)``.
"""

from __future__ import annotations

import itertools
import re
from math import comb, factorial
from typing import Iterable, Iterator, Sequence

from ._numpy import np


SET_CAP = 10**6  # the most elements connecting_cycles makes


class DegreeMismatchError(ValueError):
    """Raised when two permutations of different degree are combined."""


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


class Permutation(_Value):
    """A bijection of {1..n}, immutable and hashable, ordered by ``images``."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        self._set(images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        # For images already known to be a bijection of 1..n; skips the check.
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    # Equality and hash as _Value gives them, without its generic field walk.
    def __eq__(self, other):
        return self.images == other.images if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.images,))

    def __lt__(self, other):
        return self.images < other.images if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return self.images <= other.images if other.__class__ is self.__class__ else NotImplemented

    def __gt__(self, other):
        return self.images > other.images if other.__class__ is self.__class__ else NotImplemented

    def __ge__(self, other):
        return self.images >= other.images if other.__class__ is self.__class__ else NotImplemented

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        images = list(range(1, degree + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)((cycle[0],))):
                if not 1 <= a <= degree:
                    raise ValueError(f"point {a} outside 1..{degree}")
                images[a - 1] = b
        return Permutation(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for j, i in enumerate(self.images, start=1):
            inv[i - 1] = j
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for j, i in enumerate(self.images, start=1))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition, each cycle led by its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            x = self(start)
            while x != start:
                cycle.append(x)
                seen[x - 1] = True
                x = self(x)
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def __str__(self) -> str:
        return cycle_string(self)


def compose(g: Permutation, h: Permutation) -> Permutation:
    """Product g*h with h applied first: (g*h)(x) = g(h(x))."""
    if g.degree != h.degree:
        raise DegreeMismatchError(f"degrees {g.degree} != {h.degree}")
    return Permutation._trusted(tuple(g.images[x - 1] for x in h.images))


def conjugate(g: Permutation, x: Permutation) -> Permutation:
    """x g x^{-1}; relabels the cycles of g by x, preserving cycle type."""
    return compose(compose(x, g), x.inverse())


def cycle_type(g: Permutation) -> tuple[int, ...]:
    """Weakly decreasing cycle lengths (including fixed points), summing to n."""
    lengths = [len(c) for c in g.cycles(include_fixed=True)]
    return tuple(sorted(lengths, reverse=True))


def parity(g: Permutation) -> str:
    """'even' or 'odd'; a k-cycle is even iff k is odd."""
    transpositions = sum(len(c) - 1 for c in g.cycles())
    return "even" if transpositions % 2 == 0 else "odd"


def validate_cycle_type(parts: Sequence[int], n: int) -> tuple[int, ...]:
    parts = tuple(parts)
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise ValueError(f"parts must be weakly decreasing positive: {parts}")
    return parts


# ---------------------------------------------------------------------------
# Cycle notation


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation like "(1,2,5)(3)(4)"; fixed points optional."""
    stripped = text.replace(" ", "")
    if stripped in ("", "()", "e", "id"):
        return Permutation.identity(degree)
    if not re.fullmatch(r"(\(\d+(,\d+)*\))+", stripped):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for group in _CYCLE_RE.findall(stripped):
        points = tuple(int(tok) for tok in group.split(","))
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point in cycle {group}")
        cycles.append(points)
    support = [p for c in cycles for p in c]
    if len(set(support)) != len(support):
        raise ValueError(f"cycles are not disjoint: {text!r}")
    return Permutation.from_cycles(cycles, degree)


def cycle_string(g: Permutation) -> str:
    cycles = g.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


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


def as_permutations(images: np.ndarray) -> tuple[Permutation, ...]:
    """One ``Permutation`` per row of an array of 0-based images of bijections."""
    return tuple(Permutation._trusted(tuple(row)) for row in (images + 1).tolist())


def check_set_cap(spec: ConnectingSetSpec) -> None:
    """Refuse, with CapExceededError, a set of more than SET_CAP elements."""
    if spec.cardinality() > SET_CAP:
        raise CapExceededError(f"|{spec}| = {spec.cardinality()} exceeds set cap {SET_CAP}")


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


def enumerate_connecting_set(spec: ConnectingSetSpec) -> tuple[Permutation, ...]:
    """The explicit connecting set, sorted by image sequence (deterministic).

    The result excludes the identity, is closed under inverse, and every
    element is a single k-cycle.  A set of more than SET_CAP elements is
    refused by check_set_cap.
    """
    identity = list(range(1, spec.n + 1))
    rows = []
    for cycle in connecting_cycles(spec):
        images = identity.copy()
        a = cycle[-1]
        for b in cycle:
            images[a - 1] = b
            a = b
        rows.append(tuple(images))
    rows.sort()
    assert len(rows) == spec.cardinality()
    return tuple(map(Permutation._trusted, rows))


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


def symmetric_group(n: int) -> tuple[Permutation, ...]:
    """All of Sym(1..n) in lexicographic image order."""
    return as_permutations(group_images("symmetric", n))


def alternating_group(n: int) -> tuple[Permutation, ...]:
    return as_permutations(group_images("alternating", n))
