import collections
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snspectra import verify
from snspectra.eigen import CLUSTER_TOL, cluster_eigenvalues
from snspectra.formulas import natural_trace
from snspectra.graphs import (
    CayleyGraph,
    build,
    characters,
    check_dense_cap,
    dense_spectrum,
    natural_module_matrix,
    natural_module_spectrum,
    sign_blocks,
    translation_subgroup,
)
from snspectra.permutations import (
    CapExceededError,
    DegreeMismatchError,
    connecting_images,
    full_cycles,
    generated_subgroup_kind,
    group_images,
    parse_spec,
    prefix_moving_cycles,
)

from reference_checks import (
    Permutation,
    as_permutations,
    compose,
    delete_vertex_edges,
    enumerate_connecting_set,
    from_explicit_set,
    image_array,
    interlacing_check,
    parity,
    parse_cycles,
    split_by_last_point,
    split_sizes,
    weyl_check,
)


def adjacency_oracle(vertices, connecting):
    """Direct double-loop oracle: u ~ v iff u * v^-1 is in the set."""
    hset = set(connecting)
    size = len(vertices)
    a = np.zeros((size, size), dtype=int)
    for i, u in enumerate(vertices):
        for j, v in enumerate(vertices):
            a[i, j] = compose(u, v.inverse()) in hset
    return a


def group_oracle(kind, n):
    """The group in lexicographic order, from itertools and the cycle-based parity."""
    group = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
    return [g for g in group if kind == "symmetric" or parity(g) == "even"]


class TestConstruction:
    def test_sizes_and_degree(self):
        g = build("alternating", full_cycles(5, 5))
        assert g.size == 60
        assert g.degree == 24
        s = build("symmetric", full_cycles(6, 6))
        assert s.size == 720
        assert s.degree == 120

    def test_regularity(self):
        g = build("symmetric", prefix_moving_cycles(5, 3, 2))
        a = g.adjacency_matrix()
        assert (a.sum(axis=0) == g.degree).all()
        assert (a.sum(axis=1) == g.degree).all()
        assert not np.diag(a).any()
        assert (a == a.T).all()

    def test_odd_set_rejected_on_alternating(self):
        with pytest.raises(ValueError):
            build("alternating", full_cycles(5, 4))

    def test_matches_double_loop_oracle(self):
        connecting = [
            parse_cycles("(1,2)", 3),
            parse_cycles("(2,3)", 3),
            parse_cycles("(1,3)", 3),
        ]
        g = from_explicit_set("symmetric", 3, connecting)
        expected = adjacency_oracle(as_permutations(g.vertex_images), connecting)
        assert (g.adjacency_matrix() == expected).all()

    @pytest.mark.parametrize(
        "kind, spec_text",
        [
            ("symmetric", "C(4,2)"),
            ("symmetric", "C(4,4)"),
            ("alternating", "C(4,3)"),
            ("symmetric", "C(5,2)"),
            ("symmetric", "C(5,4;2)"),
            ("alternating", "C(5,3;2)"),
            ("alternating", "C(5,5)"),
            ("symmetric", "C(5,3;2)"),
        ],
    )
    def test_build_matches_double_loop_oracle(self, kind, spec_text):
        spec = parse_spec(spec_text)
        g = build(kind, spec)
        vertices = group_oracle(kind, spec.n)
        assert list(as_permutations(g.vertex_images)) == vertices
        expected = adjacency_oracle(vertices, enumerate_connecting_set(spec))
        assert (g.adjacency_matrix() == expected).all()
        assert (g.neighbor_table() == np.nonzero(expected)[1].reshape(g.size, g.degree)).all()

    @pytest.mark.parametrize(
        "kind, spec",
        [("alternating", prefix_moving_cycles(6, 3, 2)), ("symmetric", full_cycles(5, 4))],
        ids=["Alt6-C(6,3;2)", "Sym5-C(5,4)"],
    )
    def test_build_makes_no_permutation(self, kind, spec):
        # H is made as one image array from its cycles, and G from its images.
        graph = build(kind, spec)
        assert graph.degree == len(graph.connecting_images) == spec.cardinality()
        assert dense_spectrum(graph).lambda1 == spec.cardinality()

    @pytest.mark.parametrize(
        "kind, spec_text", [("symmetric", "C(5,4;2)"), ("alternating", "C(6,3)")]
    )
    def test_rows_of_H_in_any_order(self, kind, spec_text):
        spec = parse_spec(spec_text)
        graph = build(kind, spec)
        reversed_rows = graph.connecting_images[::-1]
        other = CayleyGraph(kind, spec.n, graph.vertex_images, reversed_rows)
        assert (other.neighbor_table() == graph.neighbor_table()).all()
        assert dense_spectrum(other).eigenvalues == dense_spectrum(graph).eigenvalues

    def test_explicit_set_validation(self):
        with pytest.raises(ValueError):
            from_explicit_set("symmetric", 3, [parse_cycles("(1,2,3)", 3)])

    def test_set_of_another_degree_refused(self):
        with pytest.raises(DegreeMismatchError, match="degrees 4 != 6"):
            from_explicit_set("symmetric", 6, enumerate_connecting_set(full_cycles(4, 2)))
        with pytest.raises(DegreeMismatchError, match="degrees 4 != 6"):
            CayleyGraph(
                "symmetric", 6, group_images("symmetric", 6), connecting_images(full_cycles(4, 2))
            )

    def test_explicit_odd_set_rejected_on_alternating(self):
        with pytest.raises(ValueError, match="odd permutations"):
            from_explicit_set("alternating", 4, [parse_cycles("(1,2)", 4)])


class TestConnectivity:
    """Read off the dense spectrum: lambda1 = |H| has multiplicity the number
    of components, and -|H| is an eigenvalue iff a component is bipartite."""

    def test_alternating_set_splits_symmetric_group(self):
        spec = prefix_moving_cycles(5, 3, 2)
        assert generated_subgroup_kind(spec) == "alternating"
        report = dense_spectrum(build("symmetric", spec))
        assert report.eigenvalues[0] == (spec.cardinality(), 2)

    def test_connected_on_its_own_group(self):
        for kind, spec in (
            ("alternating", prefix_moving_cycles(5, 3, 2)),
            ("symmetric", prefix_moving_cycles(5, 4, 3)),
        ):
            report = dense_spectrum(build(kind, spec))
            assert report.eigenvalues[0] == (spec.cardinality(), 1)

    def test_bipartite_iff_odd_elements(self):
        odd = build("symmetric", prefix_moving_cycles(5, 4, 3))
        assert dense_spectrum(odd).eigenvalues[-1] == (-odd.degree, 1)
        even = build("alternating", full_cycles(5, 5))
        assert all(
            abs(v + even.degree) > CLUSTER_TOL for v, _ in dense_spectrum(even).eigenvalues
        )


def reference_spectrum(graph):
    """The whole-matrix spectrum, clustered as dense_spectrum clusters."""
    values = np.linalg.eigvalsh(graph.adjacency_matrix().astype(float)).tolist()
    return cluster_eigenvalues([(x, 1) for x in values])


def assert_same_spectrum(got, expected):
    assert [m for _, m in got] == [m for _, m in expected]
    assert all(abs(a - b) <= CLUSTER_TOL for (a, _), (b, _) in zip(got, expected))


def cycle_graphs(max_n):
    """Every Sym/Alt Cayley graph of C(n,k) and C(n,k;r) with n <= max_n;
    an even k gives odd cycles, which Alt does not contain."""
    for n in range(2, max_n + 1):
        specs = [full_cycles(n, k) for k in range(2, n + 1)] + [
            prefix_moving_cycles(n, k, r) for k in range(2, n) for r in range(1, k)
        ]
        for spec in specs:
            for kind in ("symmetric", "alternating")[: 1 + spec.k % 2]:
                yield kind, spec


class TestDenseSpectrum:
    @pytest.mark.parametrize(
        "kind, spec",
        [*cycle_graphs(6), ("alternating", prefix_moving_cycles(7, 3, 2))],
        ids=str,
    )
    def test_matches_whole_matrix_eigvalsh(self, kind, spec):
        g = build(kind, spec)
        assert_same_spectrum(dense_spectrum(g).eigenvalues, reference_spectrum(g))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_inverse_closed_sets(self, data):
        kind = data.draw(st.sampled_from(("symmetric", "alternating")))
        n = data.draw(st.integers(2, 5) if kind == "symmetric" else st.integers(3, 6))
        group = as_permutations(group_images(kind, n))
        picks = data.draw(st.lists(st.integers(1, len(group) - 1), min_size=1, max_size=6))
        connecting = {group[i] for i in picks}  # group[0] is the identity
        connecting |= {h.inverse() for h in connecting}
        g = from_explicit_set(kind, n, connecting)
        assert_same_spectrum(dense_spectrum(g).eigenvalues, reference_spectrum(g))

    @pytest.mark.parametrize(
        "kind, n, d",
        [("symmetric", 3, 1), ("alternating", 3, 0), ("alternating", 5, 2), ("symmetric", 6, 3),
         ("alternating", 6, 2), ("symmetric", 7, 3), ("alternating", 7, 2), ("alternating", 8, 4)],
    )
    def test_block_sizes(self, kind, n, d):
        # K has d generators of order 2, and in Alt(n) with n = 3 (mod 4) a
        # 3-cycle besides: |K| for Alt(5..8) is 4, 4, 12, 16.
        with_3_cycle = kind == "alternating" and n % 4 == 3
        k, exponents, orders = translation_subgroup(kind, n)
        assert sorted(orders) == [2] * d + [3] * with_3_cycle
        assert len(k) == 2**d * 3**with_3_cycle
        assert len({tuple(row) for row in k.tolist()}) == len(k)
        assert [tuple(x) for x in exponents.tolist()] == list(itertools.product(*map(range, orders)))
        # c_j is the row whose exponents are the j-th unit vector.
        units = np.eye(len(orders), dtype=int)
        generators = [(k[(exponents == unit).all(axis=1)][0], m) for unit, m in zip(units, orders)]
        identity = np.arange(n)
        for c, m in generators:
            powers = [identity]
            for _ in range(m):
                powers.append(c[powers[-1]])
            assert (powers[m] == identity).all()
            assert not any((p == identity).all() for p in powers[1:m])
        for (a, _), (b, _) in itertools.combinations(generators, 2):
            assert (a[b] == b[a]).all()
        for row, x in zip(k, exponents.tolist()):
            element = identity
            for (c, _), power in zip(generators, x):
                for _ in range(power):
                    element = element[c]
            assert (row == element).all()
        if kind == "alternating":
            assert all(parity(Permutation(tuple(row))) == "even" for row in (k + 1).tolist())
        g = build(kind, full_cycles(n, 3))
        rows = g.size // len(k)
        blocks = list(sign_blocks(g))
        assert all(block.shape == (rows, rows) for block in blocks)
        # A complex block stands for a character and its conjugate.
        assert sum(rows * (1 + np.iscomplexobj(block)) for block in blocks) == g.size
        assert any(np.iscomplexobj(block) for block in blocks) == with_3_cycle
        for block in blocks:
            assert np.allclose(block, block.conj().T, rtol=0, atol=1e-12)
            assert np.iscomplexobj(block) or (block == block.T).all()

    def test_transposition_graph_on_sym3(self):
        # All transpositions on three points give K_{3,3}: spectrum 3, 0^4, -3.
        connecting = enumerate_connecting_set(full_cycles(3, 2))
        g = from_explicit_set("symmetric", 3, connecting)
        report = dense_spectrum(g)
        assert report.eigenvalues == [(3.0, 1), (0.0, 4), (-3.0, 1)]

    def test_full_cycles_on_alt5(self):
        report = dense_spectrum(build("alternating", full_cycles(5, 5)))
        assert report.lambda1 == 24.0
        assert report.lambda2 == 4.0

    def test_bipartite_spectrum_is_symmetric(self):
        report = dense_spectrum(build("symmetric", prefix_moving_cycles(5, 4, 3)))
        values = [(v, m) for v, m in report.eigenvalues]
        assert values == sorted([(-v, m) for v, m in values], reverse=True)

    def test_cap(self):
        check_dense_cap("symmetric", 7)
        with pytest.raises(CapExceededError, match="^40320 vertices exceeds dense cap 5040$"):
            check_dense_cap("symmetric", 8)
        with pytest.raises(CapExceededError, match="^20160 vertices exceeds dense cap 5040$"):
            check_dense_cap("alternating", 8)
        with pytest.raises(CapExceededError, match="40320 vertices exceeds dense cap 5040"):
            verify.spectrum(full_cycles(8, 8), "symmetric", "dense")


def numpy_natural_reference(n, connecting):
    """N by the array formula: one np.add.at over the image array."""
    matrix = np.zeros((n, n), dtype=np.int64)
    np.add.at(matrix, (image_array(connecting, n), np.arange(n)), 1)
    return matrix.tolist()


def per_element_natural_reference(spec):
    """N by the loop over the explicit elements: h adds one to N[h(j)][j]."""
    expected = [[0] * spec.n for _ in range(spec.n)]
    for h in enumerate_connecting_set(spec):
        for j in range(1, spec.n + 1):
            expected[h(j) - 1][j - 1] += 1
    return expected


class TestNaturalModule:
    def test_matrix_entries(self):
        spec = prefix_moving_cycles(6, 3, 2)
        m = natural_module_matrix(spec)
        assert all(m[j][j] == 0 for j in range(2))  # moved points
        assert all(m[j][j] == 6 for j in range(2, 6))  # (k-1)! C(n-r-1, k-r)
        assert sum(m[i][1] for i in range(6)) == spec.cardinality()

    @pytest.mark.parametrize("spec_text", ["C(5,2)", "C(6,3;2)", "C(7,5;3)", "C(8,8)", "C(4,4)"])
    def test_matrix_matches_per_element_loop(self, spec_text):
        spec = parse_spec(spec_text)
        assert natural_module_matrix(spec) == per_element_natural_reference(spec)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_matrix_matches_numpy_reference(self, n):
        for k in range(3, n):
            for r in range(2, k):
                spec = prefix_moving_cycles(n, k, r)
                matrix = natural_module_matrix(spec)
                assert matrix == per_element_natural_reference(spec)
                assert matrix == numpy_natural_reference(n, enumerate_connecting_set(spec))
                assert all(type(entry) is int for row in matrix for entry in row)

    def test_set_above_the_cap_refused(self):
        with pytest.raises(CapExceededError, match="exceeds set cap"):
            natural_module_matrix(prefix_moving_cycles(13, 12, 11))

    def test_spectrum_example(self):
        report = natural_module_spectrum(prefix_moving_cycles(6, 3, 2))
        assert report.eigenvalues == [(8, 1), (6, 3), (2, 1), (-4, 1)]

    @pytest.mark.parametrize("n,r", [(6, 2), (7, 3), (8, 4), (9, 2)])
    def test_multiplicity_table_trace(self, n, r):
        table = natural_module_spectrum(prefix_moving_cycles(n, r + 1, r)).eigenvalues
        assert sum(m for _, m in table) == n
        assert sum(v * m for v, m in table) == natural_trace(n, r)

    def test_at_most_four_distinct_values(self):
        for n, k, r in [(6, 3, 2), (7, 5, 3), (8, 6, 2), (7, 4, 2)]:
            report = natural_module_spectrum(prefix_moving_cycles(n, k, r))
            assert len(report.eigenvalues) <= 4
            assert all(type(v) is int for v in report.distinct())


class TestInterlacing:
    def test_edge_deletion_interlaces(self):
        g = build("alternating", prefix_moving_cycles(5, 3, 2))
        report = interlacing_check(g, 0)
        assert report.ok
        assert report.degree == 6

    def test_deleted_matrix_isolated_vertex(self):
        g = build("symmetric", full_cycles(4, 3))
        a = delete_vertex_edges(g, 3)
        assert not a[3].any() and not a[:, 3].any()


class TestWeylSplit:
    def test_trivial_split_gives_equality(self):
        connecting = enumerate_connecting_set(prefix_moving_cycles(5, 3, 2))
        reports = weyl_check(5, connecting, ())
        assert all(rep.holds for rep in reports)
        for rep in reports:
            assert rep.beta1 == rep.beta2 == 0.0
            assert rep.gamma2 <= rep.alpha1 + 1e-9

    def test_last_point_split(self):
        connecting = enumerate_connecting_set(prefix_moving_cycles(6, 3, 2))
        fixing, moving = split_by_last_point(connecting)
        assert (len(fixing), len(moving)) == split_sizes(6, 2)
        reports = weyl_check(6, fixing, moving)
        assert all(rep.holds for rep in reports)

    def test_rejects_overlapping_parts(self):
        connecting = enumerate_connecting_set(prefix_moving_cycles(5, 3, 2))
        with pytest.raises(ValueError):
            weyl_check(5, connecting, connecting[:1])


def test_vertex_order_is_lexicographic():
    g = build("symmetric", full_cycles(4, 4))
    vertices = as_permutations(g.vertex_images)
    assert list(vertices) == sorted(as_permutations(group_images("symmetric", 4)))
    assert (g.ranks(g.vertex_images) == np.arange(g.size)).all()
    assert g.ranks(image_array([vertices[5]], 4)).tolist() == [5]


def neighbors_loop_reference(graph, rows):
    """The neighbour table with one rank lookup per element h of H."""
    vertices = graph.vertex_images[rows]
    return np.stack([graph.ranks(h[vertices]) for h in graph.connecting_images], axis=1)


@pytest.mark.parametrize(
    "kind, spec",
    [("symmetric", full_cycles(6, 6)), ("alternating", prefix_moving_cycles(7, 3, 2)),
     ("symmetric", full_cycles(7, 6))],
    ids=["Sym6-C(6,6)", "Alt7-C(7,3;2)", "Sym7-C(7,6)"],
)
def test_neighbors_of_equals_the_per_element_loop(kind, spec):
    g = build(kind, spec)
    for rows in (np.arange(g.size), np.arange(0, g.size, 7)[::-1], np.array([3])):
        table = g.neighbors_of(rows)
        assert table.dtype == np.int32
        assert (table == neighbors_loop_reference(g, rows)).all()


def every_spec(n):
    yield from (full_cycles(n, k) for k in range(2, n + 1))
    yield from (prefix_moving_cycles(n, k, r) for k in range(2, n) for r in range(1, k))


def full_table_sign_blocks(graph):
    """The block of every character chi of K from the whole adjacency
    matrix: the rows of the coset representatives times the character basis
    v_c(rep_c k) = chi(k), one vector per coset, keyed by the exponents e of
    chi(k) = exp(2 pi i sum_j e_j x_j / m_j) at k = c_1^x_1 ... c_d^x_d."""
    k, exponents, orders = translation_subgroup(graph.group_kind, graph.n)
    right = np.stack([graph.ranks(graph.vertex_images[:, kb]) for kb in k])  # g k_b
    reps = np.unique(right.min(axis=0))
    rows = graph.adjacency_matrix()[reps].astype(float)
    blocks = {}
    for e in itertools.product(*map(range, orders)):
        chi = np.exp(2j * np.pi * (exponents @ (np.array(e) / orders)))
        basis = np.zeros((graph.size, len(reps)), dtype=complex)
        for c, rep in enumerate(reps):
            basis[right[:, rep], c] = chi
        blocks[e] = rows @ basis
    return blocks


class TestSignBlocksFromRepresentatives:
    @pytest.mark.parametrize(
        "kind, n, specs",
        [("symmetric", 5, 10), ("alternating", 5, 4), ("symmetric", 6, 15), ("alternating", 6, 8),
         ("alternating", 3, 1), ("alternating", 7, 9)],
    )
    def test_same_blocks_as_the_full_table(self, kind, n, specs):
        checked = 0
        for spec in every_spec(n):
            if kind == "alternating" and spec.k % 2 == 0:
                continue
            g = build(kind, spec)
            blocks = list(sign_blocks(g))
            reference = full_table_sign_blocks(g)
            _, _, orders = translation_subgroup(kind, n)
            pairs = list(characters(orders))
            assert len(blocks) == len(pairs)
            conjugate = {e: tuple(-x % m for x, m in zip(e, orders)) for e in pairs}
            assert set(conjugate.values()) | set(pairs) == set(reference)
            for e, block in zip(pairs, blocks):
                # chi is real iff it is its own conjugate; else its block is complex.
                assert np.iscomplexobj(block) == (conjugate[e] != e), (kind, spec, e)
                assert np.allclose(block, reference[e], rtol=0, atol=1e-9), (kind, spec, e)
            checked += 1
        assert checked == specs

    def test_set_outside_the_group_still_refused(self):
        transpositions = connecting_images(full_cycles(5, 2))
        g = CayleyGraph("alternating", 5, group_images("alternating", 5), transpositions)
        with pytest.raises(ValueError, match="not inside the alternating group"):
            list(sign_blocks(g))


class TestSignBlocksWorkingSet:
    """sign_blocks holds its per-edge keys and about one block at a time: no
    (|K|, N) coset stack, no weight per edge and block, no block kept after
    it is handed out."""

    @pytest.mark.parametrize(
        "kind, spec, limit_mb",
        # 630-row real blocks of 3.2 MB, 529 200 edges; 210-row complex
        # blocks of 0.7 MB, 2100 edges.
        [
            ("symmetric", full_cycles(7, 6), 15),
            ("alternating", prefix_moving_cycles(7, 3, 2), 1.5),
        ],
        ids=["Sym7-C(7,6)", "Alt7-C(7,3;2)"],
    )
    def test_peak(self, traced_peak, kind, spec, limit_mb):
        g = build(kind, spec)
        peak = traced_peak(lambda: collections.deque(sign_blocks(g), maxlen=0))
        assert peak <= limit_mb * 1e6

    def test_no_block_kept_after_it_is_yielded(self):
        blocks = sign_blocks(build("alternating", full_cycles(7, 3)))
        block = next(blocks)
        buffer = weakref.ref(block if block.base is None else block.base)
        del block
        assert buffer() is None
        assert len(list(blocks)) == 7
