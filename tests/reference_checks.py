"""Numeric checks that only the tests call: interlacing after deleting the
edges at one vertex, the Weyl inequalities on a split of H, the relations of
Young's orthogonal generators, and the split sizes of C(n, r+1; r).  Beside
them are reference implementations the tests compare against: the image
array of a list of permutations, the Cayley graph and the H+ blocks of any
inverse-closed set, the class-sum spectrum from every diagram of n, orbit
and singleton partitions, and the sign of a cycle type.

They compare the package against classical facts; no command or ``verify``
row reaches them, so they live beside the tests and not in the package.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from snspectra import yor
from snspectra.characters import class_eigenvalue, class_size
from snspectra.diagrams import dimension, partitions_of, validate_diagram
from snspectra.eigen import CLUSTER_TOL, SpectrumReport, cluster_eigenvalues
from snspectra.equitable import VertexPartition, is_equitable
from snspectra.graphs import CayleyGraph, dense_spectrum
from snspectra.permutations import (
    DegreeMismatchError,
    Permutation,
    as_permutations,
    check_group,
    conjugate,
    even_rows,
    group_images,
)


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
        [(yor.adjacent_word(h), False) for h in involutions]
        + [(yor.adjacent_word(h), True) for h in reps]
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
            stack.append(yor._generator(shape, a).apply_right(stack[-1]))
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


def diagram_scan_char_spectrum(
    n: int, ctype: Sequence[int], group_kind: str = "symmetric"
) -> SpectrumReport:
    """The class-sum spectrum scored on all p(n) diagrams of n, off the
    character's support as well as on it: each block is the int
    |H| chi(h)/chi(1), with multiplicity dim^2."""
    pairs = [
        (class_eigenvalue(shape, ctype), dimension(shape) ** 2) for shape in partitions_of(n)
    ]
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


def relation_residual(shape: Sequence[int]) -> float:
    """Max residual over the defining relations of the generators:
    orthogonality, involutivity, commutation and braid."""
    shape = validate_diagram(shape)
    n = sum(shape)
    gens = [yor.yor_generator(shape, i) for i in range(1, n)]
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
# Orbit partitions and the sign of a cycle type


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


def class_sign(ctype: Sequence[int]) -> int:
    """Sign of any permutation with this cycle type."""
    return -1 if (sum(ctype) - len(ctype)) % 2 else 1
