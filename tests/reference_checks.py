"""Numeric checks that only the tests call: interlacing after deleting the
edges at one vertex, the Weyl inequalities on a split of H, the relations of
Young's orthogonal generators, and the split sizes of C(n, r+1; r).  Beside
them are reference implementations the tests compare against: permutations
as objects, with their product, cycle notation and the sorted connecting
set; the image array of a list of permutations, the Cayley graph and the H+
blocks of any inverse-closed set, standard tableaux as row tuples, with
their content vectors and the class-sum diagonal by Murnaghan-Nakayama,
Young's generators built from tableau positions, the whole H+ block put
together from its skew blocks, and the matrix of any
permutation in Young's orthogonal form, each
class eigenvalue as a fraction of a character value and the class-sum
spectrum from every diagram of n, the per-vertex equitability check with
orbit and point-image partitions, the branching rule, hooks, and the sign of
a cycle type.

They compare the package against classical facts; no command or ``verify``
row reaches them, so they live beside the tests and not in the package.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import cache
from math import factorial
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from snspectra import yor
from snspectra.characters import class_eigenvalues, class_size, mn_character
from snspectra.diagrams import dimension, partitions_of, validate_diagram
from snspectra.eigen import CLUSTER_TOL, SpectrumReport, cluster_eigenvalues
from snspectra.graphs import CayleyGraph, dense_spectrum
from snspectra.permutations import (
    ConnectingSetSpec,
    DegreeMismatchError,
    _Value,
    check_group,
    connecting_cycles,
    even_rows,
    group_images,
)
from snspectra.yor import _Generator


# ---------------------------------------------------------------------------
# Permutations as objects: 1-based image tuples, (g * h)(x) = g(h(x))


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


def as_permutations(images: np.ndarray) -> tuple[Permutation, ...]:
    """One ``Permutation`` per row of an array of 0-based images of bijections."""
    return tuple(Permutation._trusted(tuple(row)) for row in (images + 1).tolist())


def enumerate_connecting_set(spec: ConnectingSetSpec) -> tuple[Permutation, ...]:
    """The connecting set as permutations made from ``connecting_cycles``,
    sorted by image sequence; the set cap refuses it as it refuses the cycles."""
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


# ---------------------------------------------------------------------------
# Any inverse-closed set: its image array, the explicit Cayley graph and the
# H+ blocks


def image_array(perms: Sequence[Permutation], n: int) -> np.ndarray:
    """The ``(len(perms), n)`` array of 0-based images of degree-n permutations;
    a permutation of another degree raises DegreeMismatchError."""
    rows = [p.images for p in perms]
    for row in rows:
        if len(row) != n:
            raise DegreeMismatchError(f"degrees {len(row)} != {n}")
    flat = itertools.chain.from_iterable(rows)
    return np.fromiter(flat, np.min_scalar_type(n), len(rows) * n).reshape(len(rows), n) - 1


def from_explicit_set(
    group_kind: str, n: int, connecting: Sequence[Permutation]
) -> CayleyGraph:
    connecting = tuple(sorted(set(connecting)))
    if any(h.is_identity() for h in connecting):
        raise ValueError("connecting set contains the identity")
    if set(connecting) != {h.inverse() for h in connecting}:
        raise ValueError("connecting set is not inverse-closed")
    images = image_array(connecting, n)
    check_group(group_kind, bool(even_rows(images).all()))
    return CayleyGraph(group_kind, n, group_images(group_kind, n), images)


def _inverse_representatives(
    connecting_set: Iterable[Permutation],
) -> tuple[list[Permutation], list[Permutation]]:
    """Split an inverse-closed set into involutions and one element per
    {h, h^-1} pair (the image of the partner is the transpose)."""
    hset = set(connecting_set)
    involutions, reps = [], []
    for h in sorted(hset):
        hinv = h.inverse()
        if hinv == h:
            involutions.append(h)
        elif h < hinv:
            if hinv not in hset:
                raise ValueError(f"set is not inverse-closed: missing {hinv}")
            reps.append(h)
    return involutions, reps


def word_walk_matrix(shape: tuple[int, ...], connecting_set: Sequence[Permutation]) -> np.ndarray:
    """Sum of the images of an inverse-closed set, one adjacent word per element.

    Words sharing a prefix reuse partial products.
    """
    dim = dimension(shape)
    involutions, reps = _inverse_representatives(connecting_set)
    total = np.zeros((dim, dim))
    worklist = sorted(
        [(adjacent_word(h), False) for h in involutions]
        + [(adjacent_word(h), True) for h in reps]
    )
    stack = [np.eye(dim)]
    prev: tuple[int, ...] = ()
    for word, paired in worklist:
        common = 0
        for a, b in zip(word, prev):
            if a != b:
                break
            common += 1
        del stack[common + 1:]
        for a in word[common:]:
            stack.append(apply_right(whole_generator(shape, a), stack[-1]))
        prev = word
        mat = stack[len(word)]
        total += mat + mat.T if paired else mat
    return total


def word_walk_spectrum(n: int, connecting_set: Sequence[Permutation]) -> list[tuple[float, int]]:
    """Clustered spectrum of Cay(Sym(1..n), H) from the word-walk blocks,
    each block value counted dim(shape) times."""
    pairs = [
        (value, dimension(shape))
        for shape in partitions_of(n)
        for value in np.linalg.eigvalsh(word_walk_matrix(shape, connecting_set)).tolist()
    ]
    return cluster_eigenvalues(pairs)


def reference_class_eigenvalue(shape: Sequence[int], ctype: Sequence[int]) -> Fraction:
    """|class| chi(h) / chi(1), the class sum's eigenvalue on the block of
    ``shape``, as an exact fraction of one character value."""
    return Fraction(class_size(ctype) * mn_character(shape, ctype), dimension(tuple(shape)))


def diagram_scan_char_spectrum(
    n: int, ctype: Sequence[int], group_kind: str = "symmetric"
) -> SpectrumReport:
    """The class-sum spectrum scored on all p(n) diagrams of n, off the
    character's support as well as on it: each block is the int
    |H| chi(h)/chi(1), with multiplicity dim^2."""
    pairs = []
    for shape in partitions_of(n):
        value = reference_class_eigenvalue(shape, ctype)
        assert value.denominator == 1, f"{shape} on {ctype}: {value}"
        pairs.append((value.numerator, dimension(shape) ** 2))
    return yor._group_report(pairs, "char", group_kind, n, class_size(ctype))


# ---------------------------------------------------------------------------
# Split sizes of C(n, r+1; r)


def split_sizes(n: int, r: int) -> tuple[int, int]:
    """|H ∩ Sym(1..n-1)| and |H \\ Sym(1..n-1)| for H = C(n, r+1; r)."""
    return factorial(r) * (n - r - 1), factorial(r)


# ---------------------------------------------------------------------------
# Interlacing after deleting the edges at one vertex


def delete_vertex_edges(graph: CayleyGraph, v: int) -> np.ndarray:
    """Adjacency matrix with every edge incident to vertex ``v`` removed."""
    a = graph.adjacency_matrix().astype(float)
    a[v, :] = 0.0
    a[:, v] = 0.0
    return a


class InterlacingReport(NamedTuple):
    vertex: int
    lambda1: float
    lambda2: float
    lambda1_after: float
    lambda2_after: float
    degree: int
    chain_holds: bool
    sqrt_bound_holds: bool

    @property
    def ok(self) -> bool:
        return self.chain_holds and self.sqrt_bound_holds


def interlacing_check(
    graph: CayleyGraph, v: int, tol: float = CLUSTER_TOL
) -> InterlacingReport:
    """Verify lambda1 >= lambda1' >= lambda2 >= lambda2' and the sqrt(d)
    bound on the shifts, for edge deletion at one vertex."""
    before = dense_spectrum(graph)
    after_vals = np.linalg.eigvalsh(delete_vertex_edges(graph, v)).tolist()
    after = SpectrumReport(cluster_eigenvalues([(x, 1) for x in after_vals]), "dense")
    l1, l2 = before.lambda1, before.lambda2
    l1p, l2p = after.lambda1, after.lambda2
    d = graph.degree
    chain = l1 + tol >= l1p >= l2 - tol and l2 + tol >= l2p
    bound = abs(l1 - l1p) <= d**0.5 + tol and abs(l2 - l2p) <= d**0.5 + tol
    return InterlacingReport(v, l1, l2, l1p, l2p, d, chain, bound)


# ---------------------------------------------------------------------------
# Weyl inequalities and split checks


def weyl_upper_bounds_hold(
    alpha: Sequence[float],
    beta: Sequence[float],
    gamma: Sequence[float],
    tol: float = CLUSTER_TOL,
) -> bool:
    """Check gamma_{i+j-1} <= alpha_i + beta_j for all valid i, j.

    Inputs are full descending eigenvalue lists of symmetric A, B and
    C = A + B of equal size.
    """
    m = len(gamma)
    if len(alpha) != m or len(beta) != m:
        raise ValueError("eigenvalue lists must have equal length")
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i + j - 1 <= m and gamma[i + j - 2] > alpha[i - 1] + beta[j - 1] + tol:
                return False
    return True


class WeylBlockReport(NamedTuple):
    shape: tuple[int, ...]
    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    gamma2: float
    holds: bool


def weyl_check(
    n: int,
    part_a: Sequence[Permutation],
    part_b: Sequence[Permutation],
    tol: float = CLUSTER_TOL,
) -> list[WeylBlockReport]:
    """For a split H = H1 u H2 into disjoint inverse-closed parts, verify the
    Weyl bounds gamma2 <= alpha1 + beta2 and gamma2 <= alpha2 + beta1 on every
    representation block (and the full inequality family)."""
    part_a, part_b = tuple(part_a), tuple(part_b)
    if set(part_a) & set(part_b):
        raise ValueError("split parts must be disjoint")

    reports = []
    for shape in partitions_of(n):
        mat_a = word_walk_matrix(shape, part_a) if part_a else None
        mat_b = word_walk_matrix(shape, part_b) if part_b else None
        dim = dimension(shape)
        zero = np.zeros((dim, dim))
        a = mat_a if mat_a is not None else zero
        b = mat_b if mat_b is not None else zero
        alpha = np.sort(np.linalg.eigvalsh(a))[::-1]
        beta = np.sort(np.linalg.eigvalsh(b))[::-1]
        gamma = np.sort(np.linalg.eigvalsh(a + b))[::-1]
        holds = weyl_upper_bounds_hold(alpha, beta, gamma, tol)
        a2 = alpha[1] if dim > 1 else alpha[0]
        b2 = beta[1] if dim > 1 else beta[0]
        g2 = gamma[1] if dim > 1 else gamma[0]
        holds = holds and g2 <= alpha[0] + b2 + tol and g2 <= a2 + beta[0] + tol
        reports.append(
            WeylBlockReport(shape, alpha[0], a2, beta[0], b2, g2, holds)
        )
    return reports


def split_by_last_point(
    connecting: Sequence[Permutation],
) -> tuple[tuple[Permutation, ...], tuple[Permutation, ...]]:
    """Split H into the part fixing the last point and the rest."""
    fixing = tuple(h for h in connecting if h(h.degree) == h.degree)
    moving = tuple(h for h in connecting if h(h.degree) != h.degree)
    return fixing, moving


# ---------------------------------------------------------------------------
# Young's orthogonal form

# Tableau = tuple of row tuples, e.g. ((1, 2), (3,)) for shape [2, 1].
Tableau = tuple[tuple[int, ...], ...]


@cache
def standard_tableaux(shape: tuple[int, ...]) -> tuple[Tableau, ...]:
    """All standard tableaux of the shape as row tuples, in the order of
    yor._content_index: entries 1..n are placed in increasing order,
    branching over the rows that can legally receive the next entry (lowest
    row first).  The first tableau is always the row-reading filling."""
    shape = validate_diagram(shape)
    n = sum(shape)
    results: list[Tableau] = []
    fills = [0] * len(shape)
    rows: list[list[int]] = [[] for _ in shape]

    def place(value: int) -> None:
        if value > n:
            results.append(tuple(tuple(r) for r in rows))
            return
        for i in range(len(shape)):
            if fills[i] >= shape[i]:
                continue
            if i > 0 and fills[i] >= fills[i - 1]:
                continue
            rows[i].append(value)
            fills[i] += 1
            place(value + 1)
            fills[i] -= 1
            rows[i].pop()

    place(1)
    assert len(results) == dimension(shape)
    return tuple(results)


def tableau_contents(tableau: Tableau) -> tuple[int, ...]:
    """The content vector c of a tableau: entry v at (row, column) has
    c[v - 1] = column - row."""
    contents = [0] * sum(map(len, tableau))
    for row, entries in enumerate(tableau):
        for column, v in enumerate(entries):
            contents[v - 1] = column - row
    return tuple(contents)


def mn_class_diagonal(shape: tuple[int, ...], k: int) -> list[int]:
    """The class sum of the k-cycles on {1..k} on each standard tableau T of
    the shape, by Murnaghan-Nakayama: the class eigenvalue of the shape that
    1..k fill in T."""
    eigenvalues = class_eigenvalues((k,))
    return [eigenvalues.get(restricted_shape(tab, k), 0) for tab in standard_tableaux(shape)]


def fits(inner: tuple[int, ...], shape: tuple[int, ...]) -> bool:
    """True when the diagram inner lies inside shape."""
    return len(inner) <= len(shape) and all(a <= b for a, b in zip(inner, shape))


def restricted_shape(tableau: Tableau, r: int) -> tuple[int, ...]:
    """The shape that the entries 1..r fill in the tableau."""
    return tuple(c for c in (sum(v <= r for v in row) for row in tableau) if c)


def skew_assembled_block(shape: tuple[int, ...], k: int, r: int) -> np.ndarray:
    """H+ of C(n,k;r) on the whole block of shape, put together from the skew
    blocks yor.hplus_matrix(shape, k, mu) of every mu |- r inside shape, hook
    or not: each filling h of mu by 1..r gets one copy, on the tableaux whose
    content vectors are h followed by a key of the skew index.  Every row of
    the whole block must be reached exactly once."""
    whole = yor._content_index(shape)
    block = np.zeros((len(whole), len(whole)))
    reached: list[int] = []
    for mu in partitions_of(r):
        if not fits(mu, shape):
            continue
        skew = yor.hplus_matrix(shape, k, mu)
        heads = [tableau_contents(t) for t in standard_tableaux(mu)] if mu else [()]
        for head in heads:
            at = [whole[head + tail] for tail in yor._content_index(shape, mu)]
            block[np.ix_(at, at)] = skew
            reached += at
    assert sorted(reached) == list(range(len(whole))), (shape, r)
    return block


@cache
def whole_generator(shape: tuple[int, ...], i: int) -> _Generator:
    """yor._generator of s_i on the whole shape.  yor builds its generators
    per block and keeps none; this memo keeps the word walks from building
    one again for every word."""
    return yor._generator(yor._content_index(shape), i)


def yor_generator(shape: Sequence[int], i: int) -> np.ndarray:
    """Orthogonal matrix of the adjacent transposition (i, i+1)."""
    g = whole_generator(validate_diagram(shape), i)
    mat = np.diag(g.diag)
    mat[g.p, g.q] = mat[g.q, g.p] = g.coeff
    return mat


def _positions(tableau: Tableau) -> dict[int, tuple[int, int]]:
    return {
        value: (i, j)
        for i, row in enumerate(tableau)
        for j, value in enumerate(row)
    }


@cache
def position_generator(shape: tuple[int, ...], i: int) -> _Generator:
    """The generator as built before content vectors: the positions of i and
    i+1 in each tableau, and the swapped tableau looked up in an index of
    all of them.  yor._generator must equal it array for array."""
    n = sum(shape)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} outside 1..{n - 1}")
    tableaux = standard_tableaux(shape)
    index = {t: idx for idx, t in enumerate(tableaux)}
    dim = len(tableaux)
    diag = np.zeros(dim)
    pairs_p, pairs_q, coeffs = [], [], []
    for t_idx, tab in enumerate(tableaux):
        pos = _positions(tab)
        (r1, c1), (r2, c2) = pos[i], pos[i + 1]
        axial = (c2 - r2) - (c1 - r1)
        if axial == 1:  # same row
            diag[t_idx] = 1.0
        elif axial == -1:  # same column
            diag[t_idx] = -1.0
        else:
            diag[t_idx] = 1.0 / axial
            swapped = tuple(
                tuple(i + 1 if v == i else i if v == i + 1 else v for v in row)
                for row in tab
            )
            u_idx = index[swapped]
            if u_idx > t_idx:
                pairs_p.append(t_idx)
                pairs_q.append(u_idx)
                coeffs.append(np.sqrt(1.0 - 1.0 / axial**2))
    return _Generator(
        diag,
        np.asarray(pairs_p, dtype=np.intp),
        np.asarray(pairs_q, dtype=np.intp),
        np.asarray(coeffs),
    )


def apply_right(g: _Generator, m: np.ndarray) -> np.ndarray:
    """m times the matrix of the generator g, without forming that matrix."""
    out = m * g.diag[None, :]
    if len(g.p):
        out[:, g.p] += m[:, g.q] * g.coeff[None, :]
        out[:, g.q] += m[:, g.p] * g.coeff[None, :]
    return out


def adjacent_word(g: Permutation) -> tuple[int, ...]:
    """Factor g as a product of adjacent transpositions (i, i+1).

    The returned indices multiply left to right, i.e. g = s_{a1} s_{a2} ...
    Deterministic bubble-sort factorization.
    """
    images = list(g.images)
    swaps = []
    changed = True
    while changed:
        changed = False
        for j in range(len(images) - 1):
            if images[j] > images[j + 1]:
                images[j], images[j + 1] = images[j + 1], images[j]
                swaps.append(j + 1)
                changed = True
    return tuple(reversed(swaps))


def yor_image(shape: Sequence[int], g: Permutation) -> np.ndarray:
    """Representation matrix of g on the block labeled by ``shape``."""
    shape = validate_diagram(shape)
    if g.degree != sum(shape):
        raise ValueError(f"degree {g.degree} != |{shape}|")
    mat = np.eye(dimension(shape))
    for a in adjacent_word(g):
        mat = apply_right(whole_generator(shape, a), mat)
    return mat


def relation_residual(shape: Sequence[int]) -> float:
    """Max residual over the defining relations of the generators:
    orthogonality, involutivity, commutation and braid."""
    shape = validate_diagram(shape)
    n = sum(shape)
    gens = [yor_generator(shape, i) for i in range(1, n)]
    eye = np.eye(dimension(shape))
    worst = 0.0
    for q in gens:
        worst = max(worst, np.abs(q.T @ q - eye).max())
        worst = max(worst, np.abs(q @ q - eye).max())
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if j - i >= 2:
                worst = max(worst, np.abs(gens[i] @ gens[j] - gens[j] @ gens[i]).max())
            else:
                lhs = gens[i] @ gens[j] @ gens[i]
                rhs = gens[j] @ gens[i] @ gens[j]
                worst = max(worst, np.abs(lhs - rhs).max())
    return worst


# ---------------------------------------------------------------------------
# Equitable partitions, checked vertex by vertex

VertexPartition = list[list[int]]


class MalformedPartitionError(ValueError):
    pass


def _check_partition(graph: CayleyGraph, blocks: VertexPartition) -> None:
    seen: set[int] = set()
    for block in blocks:
        if not block:
            raise MalformedPartitionError("empty block")
        if seen & set(block):
            raise MalformedPartitionError("blocks overlap")
        seen.update(block)
    if seen != set(range(graph.size)):
        raise MalformedPartitionError("blocks do not cover the vertex set")


def is_equitable(
    graph: CayleyGraph, blocks: VertexPartition
) -> tuple[bool, list[list[int]] | None]:
    """Full per-vertex equitability check; returns the quotient on success.

    Every vertex of every block is examined, not just one representative.
    """
    _check_partition(graph, blocks)
    block_of = np.empty(graph.size, dtype=np.intp)
    for b, block in enumerate(blocks):
        block_of[block] = b
    # counts[v, b] = number of neighbours of vertex v in block b
    keys = np.arange(graph.size)[:, None] * len(blocks) + block_of[graph.neighbor_table()]
    counts = np.bincount(keys.ravel(), minlength=graph.size * len(blocks))
    counts = counts.reshape(graph.size, len(blocks))
    quotient: list[list[int]] = []
    for block in blocks:
        rows = counts[block]
        if (rows != rows[0]).any():
            return False, None
        quotient.append(rows[0].tolist())
    return True, quotient


def _three_blocks(graph: CayleyGraph, point: int, r: int) -> VertexPartition:
    if not 2 <= r < graph.n:
        raise ValueError(f"need 2 <= r < n, got r={r}")
    image = graph.vertex_images[:, point - 1] + 1
    fixed = image == point
    masks = (fixed, ~fixed & (image <= r), ~fixed & (image > r))
    return [np.flatnonzero(mask).tolist() for mask in masks]


def partition_P1(graph: CayleyGraph, r: int) -> VertexPartition:
    """Blocks by the image of the last point: fixed, in {1..r}, in {r+1..n-1}."""
    return _three_blocks(graph, graph.n, r)


def partition_P2(graph: CayleyGraph, r: int) -> VertexPartition:
    """Blocks by the image of the first point: fixed, in {2..r}, in {r+1..n}."""
    return _three_blocks(graph, 1, r)


# ---------------------------------------------------------------------------
# Orbit partitions, the branching rule and the sign of a cycle type


def singleton_partition(graph: CayleyGraph) -> VertexPartition:
    return [[v] for v in range(graph.size)]


def orbit_partition(
    graph: CayleyGraph, generators: Sequence[tuple[Permutation, Permutation]]
) -> VertexPartition:
    """Orbits of a subgroup of F x G acting by (f, g): v -> f^-1 v g.

    Each generator must be an automorphism of the graph, which for this
    action is exactly the requirement that conjugation by f preserves the
    connecting set; this is checked and a failing generator raises.
    The orbit partition is guaranteed equitable (and asserted so).
    """
    hset = set(as_permutations(graph.connecting_images))
    actions = []
    for f, g in generators:
        if {conjugate(h, f.inverse()) for h in hset} != hset:
            raise ValueError(f"conjugation by {f} does not preserve the connecting set")
        finv = f.inverse()
        actions.append((finv, g))
    parent = list(range(graph.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for finv, g in actions:
        finv_images, g_images = image_array([finv, g], graph.n)
        # (f^-1 v g)(x) = f^-1(v(g(x))), for every vertex v at once
        targets = graph.ranks(finv_images[graph.vertex_images[:, g_images]])
        if (targets < 0).any():
            raise ValueError(f"right translation by {g} leaves the vertex set")
        for i, j in enumerate(targets.tolist()):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
    orbits: dict[int, list[int]] = {}
    for i in range(graph.size):
        orbits.setdefault(find(i), []).append(i)
    blocks = sorted(orbits.values(), key=lambda b: b[0])
    ok, _ = is_equitable(graph, blocks)
    assert ok, "orbit partition failed the equitability check"
    return blocks


def branch_restrict(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Diagrams obtained by removing one removable corner box.

    These label the irreducible constituents of the restriction to the
    point-stabilizer subgroup one degree down; each occurs exactly once.
    """
    rows = validate_diagram(rows)
    if sum(rows) < 2:
        raise ValueError("need n >= 2 to remove a box")
    children = []
    for i, part in enumerate(rows):
        below = rows[i + 1] if i + 1 < len(rows) else 0
        if part > below:
            child = rows[:i] + ((part - 1,) if part > 1 else ()) + rows[i + 1:]
            children.append(child)
    return tuple(children)


def is_hook(rows: tuple[int, ...]) -> bool:
    """True for shapes [n-m, 1^m] (including [n] and [1^n])."""
    return len(rows) == 1 or rows[1] == 1


def class_sign(ctype: Sequence[int]) -> int:
    """Sign of any permutation with this cycle type."""
    return -1 if (sum(ctype) - len(ctype)) % 2 else 1
