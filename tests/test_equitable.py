import numpy as np
import pytest

from snspectra.eigen import NonIntegerSpectrumError
from snspectra.equitable import (
    counted_quotient,
    export_quotient_csv,
    quotient_B1,
    quotient_B2,
    quotient_eigenvalues,
)
from snspectra.formulas import mu_values
from snspectra.graphs import build, dense_spectrum
from snspectra.permutations import full_cycles, prefix_moving_cycles

from reference_checks import (
    MalformedPartitionError,
    Permutation,
    enumerate_connecting_set,
    image_array,
    is_equitable,
    orbit_partition,
    parse_cycles,
    partition_P1,
    partition_P2,
    singleton_partition,
)


def bincount_quotient_reference(n, k, r, which):
    """The counted quotient by the array formula: a block lookup table and
    one bincount over the image array of H."""
    connecting = enumerate_connecting_set(prefix_moving_cycles(n, k, r))
    ranges = [(n, n), (1, r), (r + 1, n - 1)] if which == "B1" else [(1, 1), (2, r), (r + 1, n)]
    block_of = np.full(n, -1, dtype=np.intp)
    for b, (lo, hi) in enumerate(ranges):
        block_of[lo - 1 : hi] = b
    keys = np.arange(n) * 3 + block_of[image_array(connecting, n)]
    counts = np.bincount(keys.ravel(), minlength=3 * n).reshape(n, 3)
    blocks = [counts[lo - 1 : hi] for lo, hi in ranges]
    return (
        all((rows == rows[0]).all() for rows in blocks),
        [rows[0].tolist() for rows in blocks],
    )


class TestEquitability:
    def test_singleton_partition_recovers_adjacency(self):
        graph = build("symmetric", full_cycles(4, 3))
        ok, quotient = is_equitable(graph, singleton_partition(graph))
        assert ok
        assert (np.array(quotient) == graph.adjacency_matrix()).all()

    def test_random_bisection_is_not_equitable(self):
        graph = build("symmetric", full_cycles(4, 3))
        blocks = [list(range(0, 7)), list(range(7, graph.size))]
        ok, quotient = is_equitable(graph, blocks)
        assert not ok and quotient is None

    def test_malformed_partitions_rejected(self):
        graph = build("symmetric", full_cycles(4, 3))
        with pytest.raises(MalformedPartitionError):
            is_equitable(graph, [[0, 1], [1, 2]] + [[v] for v in range(3, graph.size)])
        with pytest.raises(MalformedPartitionError):
            is_equitable(graph, [list(range(graph.size - 1))])

    def test_P1_is_equitable_and_matches_B1(self):
        graph = build("symmetric", prefix_moving_cycles(5, 3, 2))
        ok, quotient = is_equitable(graph, partition_P1(graph, 2))
        assert ok
        assert quotient == quotient_B1(5, 3, 2)

    def test_P2_is_equitable_and_matches_B2(self):
        graph = build("symmetric", prefix_moving_cycles(5, 3, 2))
        ok, quotient = is_equitable(graph, partition_P2(graph, 2))
        assert ok
        assert quotient == quotient_B2(5, 3, 2)

    def test_block_sizes(self):
        graph = build("symmetric", prefix_moving_cycles(6, 4, 2))
        blocks = partition_P1(graph, 2)
        # image of the last point: fixed, in {1, 2}, in {3, 4, 5}
        assert [len(b) for b in blocks] == [120, 240, 360]


class TestOrbitPartitions:
    def test_trivial_action_gives_singletons(self):
        graph = build("symmetric", full_cycles(4, 3))
        blocks = orbit_partition(graph, [])
        assert blocks == singleton_partition(graph)

    def test_right_translations_give_single_block(self):
        graph = build("symmetric", full_cycles(4, 3))
        ident = Permutation.identity(4)
        gens = [(ident, parse_cycles("(1,2)", 4)), (ident, parse_cycles("(1,2,3,4)", 4))]
        blocks = orbit_partition(graph, gens)
        assert len(blocks) == 1

    def test_diagonal_action(self):
        graph = build("symmetric", prefix_moving_cycles(5, 3, 2))
        f = parse_cycles("(1,2)", 5)  # preserves the connecting set
        blocks = orbit_partition(graph, [(f, f)])
        assert sum(len(b) for b in blocks) == graph.size
        assert len(blocks) > 1

    def test_rejects_translation_out_of_the_group(self):
        graph = build("alternating", full_cycles(5, 5))
        ident = Permutation.identity(5)
        with pytest.raises(ValueError):
            orbit_partition(graph, [(ident, parse_cycles("(1,2)", 5))])

    def test_rejects_non_preserving_conjugation(self):
        graph = build("symmetric", prefix_moving_cycles(5, 3, 2))
        bad = parse_cycles("(2,5)", 5)  # moves the prefix out of {1, 2}
        with pytest.raises(ValueError):
            orbit_partition(graph, [(bad, bad)])


class TestClosedFormQuotients:
    def test_worked_example(self):
        assert quotient_B1(6, 3, 2) == [[6, 2, 0], [1, 4, 3], [0, 2, 6]]
        assert quotient_eigenvalues(quotient_B1(6, 3, 2)) == [8, 6, 2]
        assert quotient_B2(6, 3, 2) == [[0, 4, 4], [4, 0, 4], [1, 1, 6]]
        assert quotient_eigenvalues(quotient_B2(6, 3, 2)) == [8, 2, -4]

    def test_B2_corner_is_zero(self):
        # A vertex with v(1) = 1 has no neighbor fixing 1: every generator moves 1.
        for n, k, r in [(6, 3, 2), (7, 5, 3), (8, 4, 2)]:
            assert quotient_B2(n, k, r)[0][0] == 0

    @pytest.mark.parametrize("n,k,r", [(6, 3, 2), (6, 4, 2), (7, 4, 3), (7, 5, 2), (8, 5, 3)])
    def test_row_sums_are_degree(self, n, k, r):
        degree = prefix_moving_cycles(n, k, r).cardinality()
        for matrix in (quotient_B1(n, k, r), quotient_B2(n, k, r)):
            assert all(sum(row) == degree for row in matrix)

    @pytest.mark.parametrize("n", range(5, 8))
    def test_counted_oracle_agrees(self, n):
        for k in range(3, n):
            for r in range(2, k):
                for which in ("B1", "B2"):
                    equitable, counted = counted_quotient(n, k, r)[which]
                    closed = quotient_B1(n, k, r) if which == "B1" else quotient_B2(n, k, r)
                    assert equitable
                    assert counted == closed

    @pytest.mark.parametrize("n", range(4, 9))
    def test_counted_oracle_matches_bincount_reference(self, n):
        for k in range(3, n):
            for r in range(2, k):
                for which in ("B1", "B2"):
                    equitable, counted = counted_quotient(n, k, r)[which]
                    assert (equitable, counted) == bincount_quotient_reference(n, k, r, which)
                    assert all(type(entry) is int for row in counted for entry in row)

    @pytest.mark.parametrize(
        "n,k,r", [(n, k, r) for n in range(4, 7) for k in range(3, n) for r in range(2, k)]
    )
    def test_counted_oracle_agrees_with_explicit_graph(self, n, k, r):
        # The point-image count against the per-vertex count on the graph itself.
        kinds = ("symmetric", "alternating") if k % 2 else ("symmetric",)
        for kind in kinds:
            graph = build(kind, prefix_moving_cycles(n, k, r))
            for which, partition in (("B1", partition_P1), ("B2", partition_P2)):
                assert counted_quotient(n, k, r)[which] == is_equitable(graph, partition(graph, r))

    @pytest.mark.parametrize("n,k,r", [(6, 3, 2), (7, 4, 2), (7, 4, 3), (8, 5, 4)])
    def test_eigenvalues_are_mu_values(self, n, k, r):
        mu1, mu2, mu3, mu4 = mu_values(n, k, r)
        assert set(quotient_eigenvalues(quotient_B1(n, k, r))) == {mu1, mu2, mu3}
        assert set(quotient_eigenvalues(quotient_B2(n, k, r))) == {mu1, mu3, mu4}

    def test_eigenvalues_are_mu_values_to_n_30(self):
        # Lemmas 53/54 on every 2 <= r < k < n <= 30; mu1 = |H| reaches 28 * 28!.
        for n in range(4, 31):
            for k in range(3, n):
                for r in range(2, k):
                    mu1, mu2, mu3, mu4 = mu_values(n, k, r)
                    assert set(quotient_eigenvalues(quotient_B1(n, k, r))) == {mu1, mu2, mu3}
                    assert set(quotient_eigenvalues(quotient_B2(n, k, r))) == {mu1, mu3, mu4}

    def test_quotient_spectrum_inside_graph_spectrum(self):
        graph = build("symmetric", prefix_moving_cycles(5, 3, 2))
        spectrum = {v for v, _ in dense_spectrum(graph).eigenvalues}
        for value in quotient_eigenvalues(quotient_B1(5, 3, 2)):
            assert float(value) in spectrum

    def test_non_integer_spectrum_raises(self):
        with pytest.raises(NonIntegerSpectrumError):
            quotient_eigenvalues([[0, 2], [1, 0]])

    def test_csv_export(self, tmp_path):
        path = tmp_path / "b1.csv"
        export_quotient_csv(quotient_B1(6, 3, 2), ["V1", "V2", "V3"], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "block,V1,V2,V3"
        assert lines[1] == "V1,6,2,0"
