"""
Explicit Cayley graphs over symmetric/alternating groups, the dense spectrum
oracle, the natural permutation-module operator, and the interlacing / Weyl
numeric checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .eigen import (
    CLUSTER_TOL,
    SpectrumReport,
    cluster_eigenvalues,
    exact_integer_eigenvalues,
    weyl_upper_bounds_hold,
)
from .permutations import (
    ConnectingSetSpec,
    Permutation,
    alternating_group,
    enumerate_connecting_set,
    symmetric_group,
)
from . import yor

DENSE_DEFAULT_CAP = 1000
DENSE_HARD_CAP = 5040


class DenseCapExceededError(RuntimeError):
    pass


@dataclass
class CayleyGraph:
    """Cay(G, H) with u ~ v iff u * v^-1 in H.

    Vertices are indexed by lexicographic rank of the image sequence so
    adjacency matrices are reproducible across runs.  If H generates a proper
    subgroup the graph is a disjoint union of copies of the Cayley graph of
    that subgroup; this is allowed and flagged via ``connected``.
    """

    group_kind: str
    n: int
    vertices: tuple[Permutation, ...]
    connecting_set: tuple[Permutation, ...]
    _index: dict[Permutation, int] = field(repr=False, default_factory=dict)
    _neighbors: list[np.ndarray] | None = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def degree(self) -> int:
        return len(self.connecting_set)

    def index_of(self, v: Permutation) -> int:
        if not self._index:
            self._index.update({u: i for i, u in enumerate(self.vertices)})
        return self._index[v]

    def neighbors(self, i: int) -> np.ndarray:
        if self._neighbors is None:
            self._neighbors = [
                np.array(
                    sorted(self.index_of(h * v) for h in self.connecting_set),
                    dtype=np.intp,
                )
                for v in self.vertices
            ]
        return self._neighbors[i]

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.size, self.size), dtype=np.uint8)
        for i in range(self.size):
            a[i, self.neighbors(i)] = 1
        return a

    def edges(self) -> Iterable[tuple[int, int]]:
        for i in range(self.size):
            for j in self.neighbors(i):
                if i < j:
                    yield (i, int(j))


def build(group_kind: str, spec: ConnectingSetSpec) -> CayleyGraph:
    """Construct the Cayley graph for a connecting-set spec.

    For the alternating group every element of H must be even, otherwise the
    connecting set does not live inside the vertex group at all.
    """
    connecting = enumerate_connecting_set(spec)
    if group_kind == "symmetric":
        vertices = symmetric_group(spec.n)
    elif group_kind == "alternating":
        if any(not h.is_even() for h in connecting):
            raise ValueError(f"{spec} contains odd permutations, not inside Alt")
        vertices = alternating_group(spec.n)
    else:
        raise ValueError(f"unknown group kind {group_kind!r}")
    return CayleyGraph(group_kind, spec.n, vertices, connecting)


def from_explicit_set(
    group_kind: str, n: int, connecting: Sequence[Permutation]
) -> CayleyGraph:
    connecting = tuple(sorted(set(connecting)))
    if any(h.is_identity() for h in connecting):
        raise ValueError("connecting set contains the identity")
    if set(connecting) != {h.inverse() for h in connecting}:
        raise ValueError("connecting set is not inverse-closed")
    vertices = symmetric_group(n) if group_kind == "symmetric" else alternating_group(n)
    return CayleyGraph(group_kind, n, vertices, connecting)


def connected_components(graph: CayleyGraph) -> list[list[int]]:
    seen = [False] * graph.size
    components = []
    for start in range(graph.size):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt = []
            for i in frontier:
                for j in graph.neighbors(i):
                    if not seen[j]:
                        seen[j] = True
                        comp.append(int(j))
                        nxt.append(int(j))
            frontier = nxt
        components.append(comp)
    return components


def is_connected(graph: CayleyGraph) -> bool:
    return len(connected_components(graph)) == 1


def is_bipartite(graph: CayleyGraph) -> bool:
    """BFS 2-coloring; for Cayley graphs over Sym this is equivalent to the
    connecting set consisting of odd permutations."""
    color = [-1] * graph.size
    for start in range(graph.size):
        if color[start] != -1:
            continue
        color[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for i in frontier:
                for j in graph.neighbors(i):
                    if color[j] == -1:
                        color[j] = 1 - color[i]
                        nxt.append(int(j))
                    elif color[j] == color[i]:
                        return False
            frontier = nxt
    return True


def dense_spectrum(
    graph: CayleyGraph, cap: int = DENSE_DEFAULT_CAP, allow_large: bool = False
) -> SpectrumReport:
    """Full spectrum of the 0/1 adjacency matrix (the brute-force oracle)."""
    limit = DENSE_HARD_CAP if allow_large else cap
    if graph.size > limit:
        raise DenseCapExceededError(
            f"{graph.size} vertices exceeds dense cap {limit}"
        )
    values = np.linalg.eigvalsh(graph.adjacency_matrix().astype(float)).tolist()
    return SpectrumReport(cluster_eigenvalues([(x, 1) for x in values]), "dense")


# ---------------------------------------------------------------------------
# Natural module


def natural_module_matrix(n: int, connecting: Sequence[Permutation]) -> list[list[int]]:
    """The n x n integer operator N[i][j] = #{h in H : h(j) = i}."""
    matrix = [[0] * n for _ in range(n)]
    for h in connecting:
        for j in range(1, n + 1):
            matrix[h(j) - 1][j - 1] += 1
    return matrix


def natural_module_spectrum(n: int, connecting: Sequence[Permutation]) -> SpectrumReport:
    """Exact integer spectrum of the connecting-set sum on the natural module."""
    pairs = exact_integer_eigenvalues(natural_module_matrix(n, connecting))
    return SpectrumReport([(float(v), m) for v, m in pairs], "natural")


def multiplicity_table(n: int, r: int) -> list[tuple[int, int]]:
    """(eigenvalue, multiplicity) pairs on the natural module for the
    prefix-moving set with k = r + 1, computed from the operator itself."""
    if not 2 <= r <= n - 2:
        raise ValueError(f"need 2 <= r <= n-2, got r={r}, n={n}")
    from .permutations import prefix_moving_cycles

    connecting = enumerate_connecting_set(prefix_moving_cycles(n, r + 1, r))
    return exact_integer_eigenvalues(natural_module_matrix(n, connecting))


# ---------------------------------------------------------------------------
# Interlacing after deleting the edges at one vertex


def delete_vertex_edges(graph: CayleyGraph, v: int) -> np.ndarray:
    """Adjacency matrix with every edge incident to vertex ``v`` removed."""
    a = graph.adjacency_matrix().astype(float)
    a[v, :] = 0.0
    a[:, v] = 0.0
    return a


@dataclass
class InterlacingReport:
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
    before = dense_spectrum(graph, allow_large=True)
    after_vals = np.linalg.eigvalsh(delete_vertex_edges(graph, v)).tolist()
    after = SpectrumReport(cluster_eigenvalues([(x, 1) for x in after_vals]), "dense")
    l1, l2 = before.lambda1, before.lambda2
    l1p, l2p = after.lambda1, after.lambda2
    d = graph.degree
    chain = l1 + tol >= l1p >= l2 - tol and l2 + tol >= l2p
    bound = abs(l1 - l1p) <= d**0.5 + tol and abs(l2 - l2p) <= d**0.5 + tol
    return InterlacingReport(v, l1, l2, l1p, l2p, d, chain, bound)


def star_spectrum(d: int, isolated: int = 0) -> list[tuple[float, int]]:
    """Spectrum of the d-ray star plus isolated vertices: {sqrt(d), 0.., -sqrt(d)}."""
    zeros = d - 1 + isolated
    return [(d**0.5, 1)] + ([(0.0, zeros)] if zeros else []) + [(-(d**0.5), 1)]


# ---------------------------------------------------------------------------
# Weyl split checks


@dataclass
class WeylBlockReport:
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
    from .diagrams import partitions_of

    reports = []
    for shape in partitions_of(n):
        mat_a = yor.hplus_matrix(shape, part_a) if part_a else None
        mat_b = yor.hplus_matrix(shape, part_b) if part_b else None
        dim = yor.dimension(shape)
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
# Exports


def export_edge_list(graph: CayleyGraph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in graph.edges():
            fh.write(f"{i} {j}\n")


def export_adjacency_matrix(graph: CayleyGraph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in graph.adjacency_matrix():
            fh.write("".join(str(int(x)) for x in row) + "\n")
