"""
Explicit Cayley graphs over symmetric/alternating groups, the dense spectrum
oracle (block by block over the characters of an abelian subgroup K of right
translations), and the natural permutation-module operator.

K is generated by the transpositions (1 2), (3 4), ... in Sym(n), and in
Alt(n) by a Klein four-group {(a b)(c d), (a c)(b d)} on each run of four
points, with the 3-cycle on the last three points when n = 3 (mod 4).  Each
pair {chi, conj(chi)} of characters of K gives one block of N/|K| rows: a
real symmetric block for a real chi, else a Hermitian block whose
eigenvalues count twice.
"""

from __future__ import annotations

from itertools import product
from math import lcm, lgamma, log, log10
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
    check_group,
    connecting_cycles,
    connecting_images,
    count_text,
    group_images,
    group_order,
)

DENSE_CAP = 5040
# charpoly_int takes O(n^4) big-int steps on the n x n natural operator. At
# the cap the slowest case under the set cap, Lemma 52 at (n, k, r) =
# (60, 5, 2) with |H| = 740736, takes 1.8 s, and Lemma 61 at (60, 7) 1.3 s.
NATURAL_CAP = 60


class CayleyGraph:
    """Cay(G, H) with u ~ v iff u * v^-1 in H.

    Vertices are indexed by lexicographic rank of the image sequence so
    adjacency matrices are reproducible across runs.  If H generates a proper
    subgroup the graph is a disjoint union of copies of the Cayley graph of
    that subgroup; this is allowed.

    ``vertex_images`` and ``connecting_images`` hold G and H as 0-based image
    arrays, one row per element: the vertex rows in lexicographic order,
    the rows of H in any order (each vertex's neighbours are sorted).
    """

    def __init__(
        self,
        group_kind: str,
        n: int,
        vertex_images: np.ndarray,
        connecting_images: np.ndarray,
    ) -> None:
        if connecting_images.shape[1:] != (n,):
            raise DegreeMismatchError(f"degrees {connecting_images.shape[-1]} != {n}")
        self.group_kind = group_kind
        self.n = n
        self.vertex_images = vertex_images
        self.connecting_images = connecting_images
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
        return len(self.connecting_images)

    def neighbors_of(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), degree) array; row i lists the neighbours h g of
        vertex g = rows[i], one column per element h of the connecting set.
        A chunk of H is composed with every row at once and ranked in one
        call: at most 2^16 products a chunk, or one element of H when the
        rows alone are more.  A product outside the group can only come
        from an h outside it, so any set of rows detects that."""
        table = np.empty((len(rows), self.degree), dtype=np.int32)
        vertices = self.vertex_images[rows]
        step = max(1, 2**16 // max(1, len(rows)))
        for s in range(0, self.degree, step):
            products = self.connecting_images[s : s + step, vertices]  # [j, i] = h_j g_i
            ranks = self.ranks(products.reshape(-1, self.n))
            table[:, s : s + step] = ranks.reshape(len(products), len(rows)).T
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


def build(group_kind: str, spec: ConnectingSetSpec) -> CayleyGraph:
    """Construct the Cayley graph for a connecting-set spec, H made as an
    image array from its cycles; a k-cycle is even iff k is odd."""
    check_group(group_kind, spec.k % 2 == 1)
    return CayleyGraph(
        group_kind, spec.n, group_images(group_kind, spec.n), connecting_images(spec)
    )


def check_dense_cap(group_kind: str, n: int) -> None:
    """Refuse the group of this kind on n points above DENSE_CAP vertices; one
    past 13000 bits, printed as 10^x, from log10 |G| before its order is made."""
    log_size = (lgamma(n + 1) - (group_kind != "symmetric") * log(2)) / log(10)
    if log_size > 13001 * log10(2):
        raise CapExceededError(f"10^{log_size:.1f} vertices exceeds dense cap {DENSE_CAP}")
    size = group_order(group_kind, n)
    if size > DENSE_CAP:
        raise CapExceededError(f"{count_text(size)} vertices exceeds dense cap {DENSE_CAP}")


def translation_subgroup(group_kind: str, n: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """K = <c_1> x ... x <c_d> (see the module docstring) as (|K|, n) 0-based
    images, the (|K|, d) exponents x of its rows, row b being c_1^x_1 ...
    c_d^x_d for the b-th x in lexicographic order, and the orders m_j of the
    generators."""
    if group_kind == "symmetric":
        generators = [[(a, a + 1)] for a in range(0, n - 1, 2)]
    else:
        generators = []
        for a in range(0, n - 3, 4):
            generators += [[(a, a + 1), (a + 2, a + 3)], [(a, a + 2), (a + 1, a + 3)]]
        if n % 4 == 3:
            generators.append([(n - 3, n - 2, n - 1)])
    orders = [len(cycles[0]) for cycles in generators]
    elements = np.arange(n)[None, :]
    for cycles, order in zip(generators, orders):
        powers = []
        for j in range(order):  # c^j sends cycle[i] to cycle[i + j]
            power = np.arange(n)
            for cycle in cycles:
                power[list(cycle)] = cycle[j:] + cycle[:j]
            powers.append(power)
        # Row i * order + j is row i times c^j.
        elements = np.stack([elements[:, p] for p in powers], axis=1).reshape(-1, n)
    exponents = np.array(list(product(*map(range, orders))), dtype=np.intp)
    return elements, exponents.reshape(-1, len(orders)), orders


def characters(orders: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """One exponent vector e per pair {chi, conj(chi)} of characters of
    Z/m_1 x ... x Z/m_d, chi_e(x) = exp(2 pi i sum_j e_j x_j / m_j): the
    first of the pair in lexicographic order of e."""
    seen = set()
    for e in product(*map(range, orders)):
        conjugate = tuple(-x % m for x, m in zip(e, orders))
        if conjugate not in seen:
            seen.add(e)
            yield e


def sign_blocks(graph: CayleyGraph) -> Iterator[np.ndarray]:
    """The adjacency operator's blocks in the character bases of the right
    cosets of K = translation_subgroup, one (N/|K|) x (N/|K|) block per
    pair {chi, conj(chi)} of characters of K, made one at a time: a real
    symmetric block for a real chi, and a complex Hermitian block for any
    other chi, whose eigenvalues are those of conj(chi) too.

    The neighbours of g are h g, so g -> g k is a graph automorphism for
    every k in G, and the functions v(rep_c k) = chi(k) on the cosets
    rep_c K span, for each chi, a subspace the operator keeps.  Block chi
    has entry (i, c) = sum of chi(k) over the neighbours rep_c k of rep_i.
    """
    k, exponents, orders = translation_subgroup(graph.group_kind, graph.n)
    # A coset's representative is its least vertex, and g = rep k_position(g):
    # a running minimum of the vertex g k_b^-1 over the rows b of K, row 0
    # being the identity.
    rep = np.arange(graph.size)
    position = np.zeros(graph.size, dtype=np.min_scalar_type(len(k) - 1))
    for b in range(1, len(k)):
        right = graph.ranks(graph.vertex_images[:, np.argsort(k[b])])
        less = right < rep
        rep[less], position[less] = right[less], b
    reps = np.flatnonzero(position == 0)
    m = len(reps)
    key_dtype = np.min_scalar_type(m * m - 1)
    coset = np.empty(graph.size, dtype=key_dtype)
    coset[reps] = np.arange(m)
    coset = coset[rep]
    # Edge (i, j) from rep_i to its j-th neighbour rep_c k_b has the key
    # i m + c; the edges of one position b have distinct keys, since the
    # neighbour fixes (c, b).  Only the keys, grouped by b, are kept.
    neighbors = graph.neighbors_of(reps)
    keys = np.arange(m)[:, None] * m + coset[neighbors]
    edge_position = position[neighbors]
    del neighbors
    segments = [keys[edge_position == b].astype(key_dtype) for b in range(len(k))]
    del keys, edge_position

    def block(chi: np.ndarray) -> np.ndarray:
        # Add chi(k_b) once at the key of every edge through position b.
        out = np.zeros(m * m, dtype=chi.dtype)
        for value, segment in zip(chi.tolist(), segments):
            np.add.at(out, segment, value)
        return out.reshape(m, m)

    # chi_e(k_b) = exp(2 pi i t_b / L), t = sum_j e_j x_j L / m_j mod L.
    period = lcm(*orders)
    for e in characters(orders):
        t = exponents @ (np.array(e, dtype=np.intp) * period // orders) % period
        if (2 * t % period == 0).all():  # a real chi takes the values +-1
            yield block(np.where(t == 0, 1.0, -1.0))
        else:
            yield block(np.exp(2j * np.pi / period * t))


def dense_spectrum(graph: CayleyGraph) -> SpectrumReport:
    """Full spectrum of the explicit adjacency operator (the brute-force
    oracle), in the character bases of the right cosets of K: the union of
    the spectra of the blocks of sign_blocks, each diagonalized on its own,
    with the values of a complex block counted twice (for chi and conj(chi))."""
    pairs: list[tuple[float, int]] = []
    for block in sign_blocks(graph):
        count = 2 if np.iscomplexobj(block) else 1
        pairs += ((x, count) for x in np.linalg.eigvalsh(block).tolist())
        del block  # free it before the generator makes the next one
    pairs = cluster_eigenvalues(pairs)
    check_cayley_invariants(pairs, graph.size, graph.degree)
    return SpectrumReport(pairs, "dense")


# ---------------------------------------------------------------------------
# Natural module


def natural_module_matrix(spec: ConnectingSetSpec) -> list[list[int]]:
    """The n x n integer operator N[i][j] = #{h in H : h(j) = i} of H = spec,
    counted from the cycle of every element: each arrow a -> b of a cycle
    adds one to N[b][a], and N[j][j] = |H| - #{h moving j}."""
    n = spec.n
    matrix = [[0] * n for _ in range(n)]
    size = 0
    for cycle in connecting_cycles(spec):
        size += 1
        a = cycle[-1]
        for b in cycle:
            matrix[b - 1][a - 1] += 1
            a = b
    assert size == spec.cardinality()
    for j in range(n):
        matrix[j][j] = size - sum(row[j] for row in matrix)
    return matrix


def natural_module_spectrum(spec: ConnectingSetSpec) -> SpectrumReport:
    """Exact integer spectrum of the connecting-set sum on the natural module;
    a degree above NATURAL_CAP is refused, with CapExceededError, before the
    operator is built."""
    if spec.n > NATURAL_CAP:
        raise CapExceededError(f"degree {spec.n} exceeds natural cap {NATURAL_CAP}")
    return SpectrumReport(exact_integer_eigenvalues(natural_module_matrix(spec)), "natural")

