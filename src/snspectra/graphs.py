"""
Explicit Cayley graphs over symmetric/alternating groups, the dense spectrum
oracle (block by block over the right cosets of a sign subgroup), the
natural permutation-module operator, and the interlacing / Weyl numeric
checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ._numpy import np
from .eigen import (
    CLUSTER_TOL,
    SpectrumReport,
    check_cayley_invariants,
    cluster_eigenvalues,
    exact_integer_eigenvalues,
    weyl_upper_bounds_hold,
)
from .permutations import (
    CapExceededError,
    ConnectingSetSpec,
    DegreeMismatchError,
    Permutation,
    as_permutations,
    enumerate_connecting_set,
    even_rows,
    group_images,
    image_array,
)
from . import yor

DENSE_CAP = 5040


class DenseCapExceededError(CapExceededError):
    pass


@dataclass(eq=False)
class CayleyGraph:
    """Cay(G, H) with u ~ v iff u * v^-1 in H.

    Vertices are indexed by lexicographic rank of the image sequence so
    adjacency matrices are reproducible across runs.  If H generates a proper
    subgroup the graph is a disjoint union of copies of the Cayley graph of
    that subgroup; this is allowed.

    ``vertex_images`` and ``connecting_images`` hold G and H as 0-based image
    arrays, one row per element, the vertex rows in lexicographic order.
    """

    group_kind: str
    n: int
    vertex_images: np.ndarray
    connecting_set: tuple[Permutation, ...]
    connecting_images: np.ndarray = field(init=False, repr=False)
    _codes: np.ndarray = field(init=False, repr=False)
    _neighbors: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self.connecting_images = image_array(self.connecting_set, self.n)
        self._codes = self._code(self.vertex_images)

    def _code(self, images: np.ndarray) -> np.ndarray:
        # Base-n reading of each row: increasing in lexicographic order, and
        # exact in int64 up to n = 15, far beyond any enumerable group.
        radix = self.n ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        return images @ radix

    def ranks(self, images: np.ndarray) -> np.ndarray:
        """Vertex index of each row of ``images``, or -1 for a non-vertex."""
        codes = self._code(images)
        ranks = np.searchsorted(self._codes, codes).clip(max=self.size - 1)
        return np.where(self._codes[ranks] == codes, ranks, -1)

    @property
    def size(self) -> int:
        return len(self.vertex_images)

    @property
    def degree(self) -> int:
        return len(self.connecting_set)

    @property
    def vertices(self) -> tuple[Permutation, ...]:
        return as_permutations(self.vertex_images)

    def neighbors_of(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), degree) array; row i lists the neighbours h g of
        vertex g = rows[i], one column per element h of the connecting set.
        A product outside the group can only come from an h outside it, so
        any set of rows detects that."""
        table = np.empty((len(rows), self.degree), dtype=np.int32)
        vertices = self.vertex_images[rows]
        for j, h in enumerate(self.connecting_images):
            table[:, j] = self.ranks(h[vertices])
        if (table < 0).any():
            raise ValueError(f"the connecting set is not inside the {self.group_kind} group")
        return table

    def neighbor_table(self) -> np.ndarray:
        """(size, degree) array; row i lists the neighbours of vertex i in
        increasing order."""
        if self._neighbors is None:
            table = self.neighbors_of(np.arange(self.size))
            table.sort(axis=1)
            self._neighbors = table
        return self._neighbors

    def neighbors(self, i: int) -> np.ndarray:
        return self.neighbor_table()[i]

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.size, self.size), dtype=np.uint8)
        a[np.arange(self.size)[:, None], self.neighbor_table()] = 1
        return a


def _vertex_images(group_kind: str, n: int, connecting: np.ndarray, label: str) -> np.ndarray:
    # For the alternating group every element of H must be even, otherwise
    # the connecting set does not live inside the vertex group at all.
    if group_kind == "alternating" and not even_rows(connecting).all():
        raise ValueError(f"{label} contains odd permutations, not inside Alt")
    return group_images(group_kind, n)


def build(group_kind: str, spec: ConnectingSetSpec) -> CayleyGraph:
    """Construct the Cayley graph for a connecting-set spec."""
    connecting = enumerate_connecting_set(spec)
    vertices = _vertex_images(group_kind, spec.n, image_array(connecting, spec.n), str(spec))
    return CayleyGraph(group_kind, spec.n, vertices, connecting)


def from_explicit_set(
    group_kind: str, n: int, connecting: Sequence[Permutation]
) -> CayleyGraph:
    connecting = tuple(sorted(set(connecting)))
    if any(h.is_identity() for h in connecting):
        raise ValueError("connecting set contains the identity")
    if set(connecting) != {h.inverse() for h in connecting}:
        raise ValueError("connecting set is not inverse-closed")
    label = "{" + ", ".join(map(str, connecting)) + "}"
    vertices = _vertex_images(group_kind, n, image_array(connecting, n), label)
    return CayleyGraph(group_kind, n, vertices, connecting)


def check_dense_cap(size: int) -> None:
    """Refuse a dense spectrum of ``size`` vertices above DENSE_CAP."""
    if size > DENSE_CAP:
        raise DenseCapExceededError(f"{size} vertices exceeds dense cap {DENSE_CAP}")


def sign_subgroup(group_kind: str, n: int) -> np.ndarray:
    """The elementary abelian 2-subgroup K of Sym(n) or Alt(n) that splits
    the dense oracle, as a (2^d, n) array of 0-based images.

    K is generated by the d commuting involutions (1 2), (3 4), ... in
    Sym(n), and (1 2)(3 4), (1 2)(5 6), ... in Alt(n) (trivial for Alt(n)
    with n <= 3).  Row b is the product of the generators at the set bits
    of b.
    """
    swaps = [(2 * i, 2 * i + 1) for i in range(n // 2)]
    if group_kind == "symmetric":
        generators = [[s] for s in swaps]
    else:
        generators = [[swaps[0], s] for s in swaps[1:]]
    elements = np.arange(n)[None, :]
    for generator in generators:
        t = np.arange(n)
        for a, b in generator:
            t[[a, b]] = b, a
        elements = np.concatenate([elements, elements[:, t]])
    return elements


def sign_blocks(graph: CayleyGraph) -> Iterator[np.ndarray]:
    """The adjacency operator's blocks in the sign basis of the right cosets
    of K = sign_subgroup, one (N/2^d) x (N/2^d) real symmetric block per
    character of K, made one at a time.

    The neighbours of g are h g, so g -> g k is a graph automorphism for
    every k in G, and the sign patterns v(rep_c k_b) = (-1)^popcount(e & b)
    on the cosets rep_c K span, for each e, a subspace the operator keeps.
    Block e has entry (i, c) = sum of those signs over the neighbours of
    rep_i that lie in coset c.
    """
    k = sign_subgroup(graph.group_kind, graph.n)
    # right[b, g] is the vertex g k_b; a coset's representative is its
    # least vertex, and g = rep k_bits(g) since each k_b is an involution.
    right = np.stack([graph.ranks(graph.vertex_images[:, kb]) for kb in k])
    rep, bits = right.min(axis=0), right.argmin(axis=0)
    reps = np.flatnonzero(bits == 0)
    m = len(reps)
    coset = np.empty(graph.size, dtype=np.intp)
    coset[reps] = np.arange(m)
    neighbors = graph.neighbors_of(reps)
    flat = (np.arange(m)[:, None] * m + coset[rep[neighbors]]).ravel()
    neighbor_bits = bits[neighbors].ravel()
    # Sylvester's table: signs[e, b] = (-1)^popcount(e & b).
    signs = np.ones((1, 1))
    while len(signs) < len(k):
        signs = np.block([[signs, signs], [signs, -signs]])
    for row in signs:
        yield np.bincount(flat, weights=row[neighbor_bits], minlength=m * m).reshape(m, m)


def dense_spectrum(graph: CayleyGraph) -> SpectrumReport:
    """Full spectrum of the explicit adjacency operator (the brute-force
    oracle), in the sign basis of the right cosets of K = sign_subgroup: the
    union of the spectra of the 2^d blocks of sign_blocks, each diagonalized
    on its own."""
    check_dense_cap(graph.size)
    values: list[float] = []
    for block in sign_blocks(graph):
        values += np.linalg.eigvalsh(block).tolist()
        del block  # free it before the generator makes the next one
    pairs = cluster_eigenvalues([(x, 1) for x in values])
    check_cayley_invariants(pairs, graph.size, graph.degree)
    return SpectrumReport(pairs, "dense")


# ---------------------------------------------------------------------------
# Natural module


def natural_module_matrix(n: int, connecting: Sequence[Permutation]) -> list[list[int]]:
    """The n x n integer operator N[i][j] = #{h in H : h(j) = i}; a
    permutation of another degree raises DegreeMismatchError."""
    rows = [h.images for h in connecting]
    for row in rows:
        if len(row) != n:
            raise DegreeMismatchError(f"degrees {len(row)} != {n}")
    matrix = [[0] * n for _ in range(n)]
    for j, column in enumerate(zip(*rows)):
        for i, count in Counter(column).items():
            matrix[i - 1][j] = count
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
