"""
Young's orthogonal representation and per-block spectra of connecting sets.

Each irreducible of Sym(1..n) is realized by real orthogonal matrices indexed
by standard tableaux, each held only as its content vector: a generator s_i
acts through a content difference, and the class sum of the k-cycles on
{1..k} acts as a product of contents (Jucys 1974; Okounkov-Vershik 1996).
The image of C(n,k;r) on a block is dim(mu) copies of one symmetric image on
the skew shape shape/mu for each mu |- r, 0 unless mu is a hook, built from
that class sum by conjugations with the generators; Murnaghan-Nakayama is
read only to check the traces.  The union of their ``eigvalsh`` spectra over
all diagrams, each value repeated dim times, is the Cayley graph spectrum.
Spectra stay (value, multiplicity) pairs and are never expanded to |G| floats.
The char route for a whole class, ``char_spectrum``, reads one character
column and builds no block.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import Iterator, NamedTuple, Sequence

from . import characters, diagrams
from ._numpy import np
from .diagrams import validate_diagram
from .eigen import SpectrumReport, check_cayley_invariants, cluster_eigenvalues
from .permutations import (
    CapExceededError, ConnectingSetSpec, check_group, group_order, validate_cycle_type,
)

SYMMETRY_TOL = 1e-9
# |trace - |H| chi(k-cycle)| relative to |H|, which bounds every entry: at
# n = 10 the worst block reads 2.5e-14. Relative to the block's own largest
# entry it reads 5.5e-11 and grows about sevenfold per n (blocks cancel).
TRACE_TOL = 1e-9
# The largest block of S12, (5,3,2,1,1): assembling and diagonalizing it
# peaks at 944 MiB, about two copies of its 452 MiB. S13's largest,
# (5,4,2,1,1), has 21450 rows.
BLOCK_CAP = 7700


def _content_index(
    shape: tuple[int, ...], inner: tuple[int, ...] = ()
) -> dict[tuple[int, ...], int]:
    """Position of each standard tableau of the skew shape shape/inner, keyed
    by its content vector: with r = |inner|, entry v at (row, column) has
    c[v - r - 1] = column - row, and a standard skew tableau is determined by
    its content vector.  inner = () is the whole shape.

    Entries r+1..n are placed around inner in increasing order, branching
    over the rows that can legally receive the next entry (lowest row
    first), so position 0 is the row-reading filling.
    """
    shape = validate_diagram(shape)
    inner = validate_diagram(inner) if inner else ()
    if len(inner) > len(shape) or any(a > b for a, b in zip(inner, shape)):
        raise ValueError(f"{inner} is not inside {shape}")
    size = sum(shape) - sum(inner)
    index: dict[tuple[int, ...], int] = {}
    fills = list(inner) + [0] * (len(shape) - len(inner))
    contents: list[int] = []

    def place() -> None:
        if len(contents) == size:
            index[tuple(contents)] = len(index)
            return
        for i in range(len(shape)):
            if fills[i] >= shape[i]:
                continue
            if i > 0 and fills[i] >= fills[i - 1]:
                continue
            contents.append(fills[i] - i)
            fills[i] += 1
            place()
            fills[i] -= 1
            contents.pop()

    place()
    del place  # it calls itself: drop that cycle, or index waits for the collector
    return index


class _Generator(NamedTuple):
    """Structured form of the orthogonal matrix of one adjacent transposition
    s_i, read from content vectors c: ``diag`` holds 1/a on a tableau with
    axial distance a = c_{i+1} - c_i, and ``coeff`` the symmetric couplings
    sqrt(1 - 1/a^2) between tableau pairs ``(p, q)`` whose content vectors
    differ by swapping entries i and i+1."""

    diag: np.ndarray
    p: np.ndarray
    q: np.ndarray
    coeff: np.ndarray

    def conjugate(self, m: np.ndarray) -> None:
        """Replace the square matrix m by g m g in place (g is symmetric):
        columns first, then rows.  The pair rows are rewritten a few at a
        time, so what is held beside m is a few times 2^16 entries."""
        unpaired = self.diag.copy()
        unpaired[self.p] = unpaired[self.q] = 1.0
        dp, dq, c = self.diag[self.p, None], self.diag[self.q, None], self.coeff[:, None]
        step = max(1, 2**16 // len(m))
        for side in (m.T, m):
            side *= unpaired[:, None]
            for s in range(0, len(self.p), step):
                chunk = slice(s, s + step)
                p, q = self.p[chunk], self.q[chunk]
                at_p, at_q = side[p], side[q]
                side[p] = at_p * dp[chunk] + at_q * c[chunk]
                at_q *= dq[chunk]
                at_q += at_p * c[chunk]
                side[q] = at_q


def _generator(index: dict[tuple[int, ...], int], i: int) -> _Generator:
    """s_i of the skew shape shape/inner, acting on entries |inner| + i and
    |inner| + i + 1, read from index = _content_index(shape, inner)."""
    size = len(next(iter(index)))
    if not 1 <= i <= size - 1:
        raise ValueError(f"generator index {i} outside 1..{size - 1}")
    diag = np.empty(len(index))
    pairs_p, pairs_q, coeffs = [], [], []
    for c, t_idx in index.items():
        # Swapping a row or column pair (axial +-1) gives no standard tableau.
        axial = c[i] - c[i - 1]
        diag[t_idx] = 1.0 / axial
        u_idx = index.get(c[: i - 1] + (c[i], c[i - 1]) + c[i + 1 :], -1)
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


def _check_set(n: int, k: int, r: int) -> None:
    if not (2 <= k <= n and 0 <= r <= k):
        raise ValueError(f"no connecting set C({n},{k};{r})")


def hplus_matrix(shape: Sequence[int], k: int, inner: Sequence[int]) -> np.ndarray:
    """H+ of C(n,k;r), r = |inner|, on the skew block shape/inner, n = |shape|:
    the sum of the images of the k-cycles of Sym(1..n) that move all of
    {1..r}, on the tableaux whose entries 1..r fill inner in one fixed way;
    inner = () gives C(n,k) on the whole block.

    It is built from the class sum of the k-cycles on {1..k}.  That sum is
    the product of the Jucys-Murphy elements X_2 ... X_k, and X_i acts on
    tableau T of this Gelfand-Tsetlin basis as the content c_i(T), so the
    sum is diagonal, c_2(T) ... c_k(T) on T; c_2 ... c_r is the product of
    the contents of inner's cells but (0, 0), 0 unless inner is a hook.
    Let Y_i be the sum over the supports inside {1..i} that contain {1..r};
    it is Sym({r+1..i})-invariant.  Conjugating by the i - r chains
    s_j ... s_{i-1} (j = r+1..i) reaches every support inside {1..i} exactly
    i - k times, so Y_i is that sum of conjugates of Y_{i-1} divided by
    i - k, and H+ = Y_n; s_j is generator j - r of shape/inner.  H is
    inverse-closed, so an asymmetry beyond tolerance signals an assembly bug.
    """
    shape, inner = validate_diagram(shape), tuple(inner)
    n, r = sum(shape), sum(inner)
    _check_set(n, k, r)
    head = [j - i for i, row in enumerate(inner) for j in range(row)]
    index = _content_index(shape, inner)
    y = np.diag(np.array([prod((*head, *c)[1:k]) for c in index], dtype=float))
    generators = [_generator(index, i) for i in range(1, n - r)]
    for i in range(k + 1, n + 1):
        # y itself walks the chain of conjugates; one accumulator sums them.
        acc = y.copy()
        for g in reversed(generators[: i - 1 - r]):
            g.conjugate(y)
            acc += y
        acc /= i - k
        y = acc
    diff = y - y.T
    asym = np.abs(diff, out=diff).max()
    if not asym <= SYMMETRY_TOL:  # a NaN is refused too
        raise ArithmeticError(f"H+ block for {shape}/{inner} asymmetric by {asym:.3e}")
    return y


def hplus_block_spectrum(shape: Sequence[int], k: int, r: int, chi: int) -> list[tuple[float, int]]:
    """Clustered eigenvalues of H+ of C(n,k;r) over the dim(shape) rows of a
    block.  H+ commutes with Sym(1..r): it is dim(mu) copies of
    hplus_matrix(shape, k, mu) for each hook mu |- r inside shape, and 0 on
    every other row.  Every element of H is a k-cycle, so sum dim(mu) trace
    must be |H| chi, relative to |H|, chi = chi^shape(k-cycle) by
    Murnaghan-Nakayama, read once per spectrum by the caller."""
    shape = validate_diagram(shape)
    n = sum(shape)
    _check_set(n, k, r)
    # The hooks (r - a, 1^a) inside shape, of dim C(r-1, a); mu = () for r = 0.
    fit = range(max(0, r - shape[0]), min(r, len(shape)))
    hooks = [((r - a,) + (1,) * a, comb(r - 1, a)) for a in fit] if r else [((), 1)]
    pairs: list[tuple[float, int]] = []
    trace, zero_rows = 0.0, diagrams.dimension(shape)
    for mu, copies in hooks:
        block = hplus_matrix(shape, k, mu)
        trace += copies * float(np.trace(block))
        zero_rows -= copies * len(block)
        pairs += [(v, copies) for v in np.linalg.eigvalsh(block).tolist()]
        del block  # free it before the next hook's block is built
    if zero_rows > 0:
        pairs.append((0.0, zero_rows))
    size = factorial(k - 1) * comb(n - r, k - r)
    if not abs(trace - size * chi) <= TRACE_TOL * size:
        raise ArithmeticError(f"H+ block for {shape} has trace {trace:.6g}, not {size * chi}")
    return cluster_eigenvalues(pairs)


def _group_report(
    pairs: list[tuple[float, int]], method: str, group_kind: str, n: int, degree: int
) -> SpectrumReport:
    """Cluster Sym(1..n) spectrum pairs; for the alternating group halve them.

    With H inside Alt, Cay(Sym, H) is two copies of Cay(Alt, H) (one per
    coset), so every Sym multiplicity is even and half of it is exact.  The
    result must pass the Cayley invariants for |H| = ``degree``.
    """
    clustered = cluster_eigenvalues(pairs)
    if group_kind == "alternating":
        if any(m % 2 for _, m in clustered):
            raise ArithmeticError(f"odd Sym multiplicity in {clustered} for H inside Alt")
        clustered = [(v, m // 2) for v, m in clustered]
    check_cayley_invariants(clustered, group_order(group_kind, n), degree)
    return SpectrumReport(clustered, method)


def block_shapes(n: int) -> dict[tuple[int, ...], int]:
    """{diagram: dimension} over the diagrams of n, one block each; refused
    with CapExceededError, before any block is built, when the largest has
    more than BLOCK_CAP rows.  Adding a box never shrinks a block (branching),
    so the scan stops at the first S_m, m <= n, past the cap."""
    dims: dict[tuple[int, ...], int] = {}
    for m in range(1, n + 1):
        dims = {s: diagrams.dimension(s) for s in diagrams.partitions_of(m)}
        rows, largest = max((d, s) for s, d in dims.items())
        if rows > BLOCK_CAP:
            beyond = f", so S{n} has one at least as large" if m < n else ""
            raise CapExceededError(
                f"{rows}-row block {largest} of S{m} exceeds block cap {BLOCK_CAP}{beyond}"
            )
    return dims


def block_spectra(spec: ConnectingSetSpec) -> Iterator[tuple[tuple[int, ...], int, list]]:
    """(diagram, dim, hplus_block_spectrum) for each diagram of n, one block
    at a time, for H = spec, C(n,k) or C(n,k;r): each block built from (k, r)
    with no element of H made and checked against one character column.
    Refused on the call, before any block is built, by block_shapes."""
    dims = block_shapes(spec.n)
    # r = 0 for C(n,k); every n-cycle moves 1..n-1, so C(n,n) = C(n,n;n-1).
    n, k, r = spec.n, spec.k, spec.n - 1 if spec.k == spec.n else spec.r or 0
    column = characters.character_column((k,) + (1,) * (n - k))
    return (
        (shape, dim, hplus_block_spectrum(shape, k, r, column.get(shape, 0)))
        for shape, dim in dims.items()
    )


def full_spectrum_via_irreps(
    spec: ConnectingSetSpec, group_kind: str = "symmetric"
) -> SpectrumReport:
    """Cayley spectrum of H = spec: each value of block_spectra counts dim
    times, as in the regular representation of Sym(1..n), halved to those of
    Cay(Alt, H) for ``group_kind`` "alternating".  Refused before any block
    is built: by block_shapes, then for a set of odd k-cycles on Alt."""
    blocks = block_spectra(spec)
    check_group(group_kind, spec.k % 2 == 1)  # a k-cycle is even iff k is odd
    pairs = [(value, mult * dim) for _, dim, spectrum in blocks for value, mult in spectrum]
    return _group_report(pairs, "irrep", group_kind, spec.n, spec.cardinality())


def char_spectrum(
    n: int, ctype: Sequence[int], group_kind: str = "symmetric"
) -> SpectrumReport:
    """Spectrum of a full-conjugacy-class connecting set from one pass over
    its character column, characters.class_eigenvalues, refused by
    characters.check_column_cap before it is built; no diagram of n is
    listed.  Each diagram on the support gives its int eigenvalue, with
    multiplicity dim^2; those off it give 0, with the rest of n!.  So
    sum m = n! holds by construction (a support whose dim^2 pass n! raises
    ArithmeticError), and sum v m = 0 and sum v^2 m = n! |H| check the
    column."""
    ctype = validate_cycle_type(ctype, n)
    # A permutation is even iff n minus its number of cycles is even.
    check_group(group_kind, (n - len(ctype)) % 2 == 0)
    eigenvalues = characters.class_eigenvalues(ctype)
    pairs = [(value, dim**2) for value, dim in eigenvalues.values()]
    rest = factorial(n) - sum(m for _, m in pairs)
    if rest < 0:
        raise ArithmeticError(f"the support of the {ctype} column has sum dim^2 above {n}!")
    if rest:
        pairs.append((0, rest))
    # The trivial diagram (n) has chi = 1 = dim, so its eigenvalue is |H|.
    return _group_report(pairs, "char", group_kind, n, eigenvalues[(n,)][0])
