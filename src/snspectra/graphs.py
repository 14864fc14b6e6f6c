"""
Explicit Cayley graphs over symmetric/alternating groups, the dense spectrum
oracle (block by block over the right cosets of a sign subgroup), and the
natural permutation-module operator.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Sequence

from ._numpy import np
from .eigen import (
    CLUSTER_TOL,
    SpectrumReport,
    check_cayley_invariants,
    cluster_eigenvalues,
    exact_integer_eigenvalues,
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

DENSE_CAP = 5040


class DenseCapExceededError(CapExceededError):
    pass


class CayleyGraph:
    """Cay(G, H) with u ~ v iff u * v^-1 in H.

    Vertices are indexed by lexicographic rank of the image sequence so
    adjacency matrices are reproducible across runs.  If H generates a proper
    subgroup the graph is a disjoint union of copies of the Cayley graph of
    that subgroup; this is allowed.

    ``vertex_images`` and ``connecting_images`` hold G and H as 0-based image
    arrays, one row per element, the vertex rows in lexicographic order.
    """

    def __init__(
        self,
        group_kind: str,
        n: int,
        vertex_images: np.ndarray,
        connecting_set: tuple[Permutation, ...],
    ) -> None:
        self.group_kind = group_kind
        self.n = n
        self.vertex_images = vertex_images
        self.connecting_set = connecting_set
        self.connecting_images = image_array(connecting_set, n)
        self._codes = self._code(vertex_images)
        self._neighbors: np.ndarray | None = None

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
