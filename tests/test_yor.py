import gc
import os
import subprocess
import sys
import tracemalloc
from math import comb, factorial, prod
from pathlib import Path

import numpy as np
import pytest

from snspectra.characters import class_eigenvalues, mn_character
from snspectra.diagrams import dimension, partition_count, partitions_of
from snspectra.graphs import dense_spectrum
from snspectra.permutations import (
    CapExceededError,
    full_cycles,
    group_images,
    prefix_moving_cycles,
)
from snspectra import characters, diagrams, permutations, verify, yor
from snspectra.yor import (
    full_spectrum_via_irreps,
    char_spectrum,
    hplus_block_spectrum,
    hplus_matrix,
)

from reference_checks import (
    Permutation,
    adjacent_word,
    as_permutations,
    compose,
    cycle_type,
    diagram_scan_char_spectrum,
    enumerate_connecting_set,
    fits,
    from_explicit_set,
    mn_class_diagonal,
    parse_cycles,
    position_generator,
    relation_residual,
    restricted_shape,
    skew_assembled_block,
    split_by_last_point,
    standard_tableaux,
    tableau_contents,
    word_walk_matrix,
    word_walk_spectrum,
    yor_generator,
    yor_image,
)


def refuse_class_eigenvalues(ctype):
    raise AssertionError(f"class_eigenvalues({ctype}) read")


def word_oracle(g):
    """Multiply out an adjacent word with explicit transpositions."""
    n = g.degree
    acc = Permutation.identity(n)
    for a in adjacent_word(g):
        acc = compose(acc, parse_cycles(f"({a},{a + 1})", n))
    return acc


class TestTableaux:
    def test_counts(self):
        assert len(standard_tableaux((2, 1))) == 2
        assert len(standard_tableaux((4, 1, 1))) == 10
        assert len(standard_tableaux((3, 3))) == 5

    def test_first_is_row_reading(self):
        assert standard_tableaux((3, 2))[0] == ((1, 2, 3), (4, 5))

    def test_entries_increase(self):
        for tab in standard_tableaux((3, 2, 1)):
            rows = [list(r) for r in tab]
            assert all(r == sorted(r) for r in rows)
            for i in range(len(rows) - 1):
                assert all(a < b for a, b in zip(rows[i], rows[i + 1]))


class TestContentIndex:
    def test_first_is_row_reading(self):
        assert next(iter(yor._content_index((3, 2)))) == (0, 1, 2, -1, 0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_keys_are_the_reference_tableaux_in_order(self, n):
        for shape in partitions_of(n):
            index = yor._content_index(shape)
            assert list(index) == [tableau_contents(t) for t in standard_tableaux(shape)]
            assert list(index.values()) == list(range(len(index)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_skew_keys_are_the_reference_tails_in_order(self, n):
        # For every mu inside shape, each filling of mu by 1..r is followed,
        # in the reference order, by the skew index's keys; so the f^shape
        # rows split into dim(mu) copies of f^(shape/mu) rows over mu |- r.
        for shape in partitions_of(n):
            for r in range(n + 1):
                rows = 0
                for mu in filter(lambda mu: fits(mu, shape), partitions_of(r)):
                    keys = list(yor._content_index(shape, mu))
                    tails: dict[tuple[int, ...], list] = {}
                    for t in standard_tableaux(shape):
                        if restricted_shape(t, r) == mu:
                            c = tableau_contents(t)
                            tails.setdefault(c[:r], []).append(c[r:])
                    assert len(tails) == (dimension(mu) if mu else 1), (shape, mu)
                    assert all(tail == keys for tail in tails.values()), (shape, mu)
                    rows += len(tails) * len(keys)
                assert rows == dimension(shape), (shape, r)

    @pytest.mark.parametrize("inner", [(2, 2), (1, 1, 1), (4,), (2, 3)])
    def test_inner_not_inside_shape_is_refused(self, inner):
        with pytest.raises(ValueError):
            yor._content_index((3, 1), inner)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_jucys_product_is_the_murnaghan_nakayama_diagonal(self, n):
        # The class sum of the k-cycles on {1..k} is X_2 ... X_k, so on a
        # tableau it is c_2 ... c_k; by characters, the class eigenvalue of
        # the shape that 1..k fill.
        for shape in partitions_of(n):
            keys = yor._content_index(shape)
            for k in range(2, n + 1):
                assert [prod(c[1:k]) for c in keys] == mn_class_diagonal(shape, k), (shape, k)


class TestWords:
    @pytest.mark.parametrize("cycles", ["(1,2,3)", "(1,4)(2,3)", "(1,2,3,4,5)", ""])
    def test_word_reconstructs_permutation(self, cycles):
        g = parse_cycles(cycles, 5)
        assert word_oracle(g) == g

    def test_exhaustive_degree_4(self):
        for g in as_permutations(group_images("symmetric", 4)):
            assert word_oracle(g) == g


class TestGenerators:
    def test_sign_representation(self):
        assert yor_generator((1, 1, 1), 1).tolist() == [[-1.0]]
        assert yor_generator((1, 1, 1), 2).tolist() == [[-1.0]]

    def test_standard_two_one(self):
        # First tableau has 1,2 in the same row, second in the same column.
        assert np.allclose(yor_generator((2, 1), 1), np.diag([1.0, -1.0]))
        q2 = yor_generator((2, 1), 2)
        assert np.allclose(q2, np.array([[-0.5, np.sqrt(3) / 2], [np.sqrt(3) / 2, 0.5]]))

    @pytest.mark.parametrize("shape", [(3, 2), (4, 1, 1), (3, 2, 1), (2, 2, 2)])
    def test_relations(self, shape):
        assert relation_residual(shape) < 1e-10

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            yor_generator((3, 2), 5)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_content_vectors_give_the_position_generators_bit_for_bit(self, n):
        # The relation and image tests use tolerances; only exact equality
        # sees a reordered pair or a coefficient rounded another way.
        for shape in partitions_of(n):
            for i in range(1, n):
                got = yor._generator(yor._content_index(shape), i)
                want = position_generator(shape, i)
                for field, a, b in zip(yor._Generator._fields, got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (shape, i, field)


class TestImages:
    def test_identity(self):
        assert np.allclose(yor_image((3, 1), Permutation.identity(4)), np.eye(3))

    @pytest.mark.parametrize("shape", [(4, 1), (3, 2), (3, 1, 1)])
    def test_homomorphism(self, shape):
        g = parse_cycles("(1,3,5)", 5)
        h = parse_cycles("(2,4)", 5)
        lhs = yor_image(shape, compose(g, h))
        rhs = yor_image(shape, g) @ yor_image(shape, h)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_orthogonality(self):
        g = parse_cycles("(1,2,3,4,5)", 5)
        q = yor_image((3, 2), g)
        assert np.abs(q.T @ q - np.eye(5)).max() < 1e-12

    @pytest.mark.parametrize("shape", [s for n in range(1, 7) for s in partitions_of(n)])
    def test_trace_matches_character(self, shape):
        # One permutation per class: consecutive cycles of the class's lengths.
        n = sum(shape)
        for ctype in partitions_of(n):
            images, start = [], 1
            for length in ctype:
                images += list(range(start + 1, start + length)) + [start]
                start += length
            g = Permutation(tuple(images))
            assert cycle_type(g) == ctype
            trace = float(np.trace(yor_image(shape, g)))
            assert trace == pytest.approx(mn_character(shape, ctype), abs=1e-9)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            yor_image((3, 2), Permutation.identity(4))


class TestBlockSums:
    def test_class_block_is_scalar(self):
        # A full conjugacy class acts as the scalar |H| chi(h) / chi(1).
        eigenvalues = class_eigenvalues((6,))
        for shape in partitions_of(6):
            mat = hplus_matrix(shape, 6, ())
            expected = float(eigenvalues.get(shape, 0))
            assert np.abs(mat - expected * np.eye(dimension(shape))).max() < 1e-8

    def test_scalar_block_example(self):
        spectrum = hplus_block_spectrum((2, 1, 1, 1, 1), 6, 6)
        assert spectrum == [(24.0, 5)]

    def test_prefix_block_example(self):
        spectrum = hplus_block_spectrum((5, 1), 3, 2)
        assert spectrum == [(6.0, 3), (2.0, 1), (-4.0, 1)]

    def test_rejects_non_inverse_closed(self):
        half = [parse_cycles("(1,2,3)", 4)]
        with pytest.raises(ValueError, match="not inverse-closed"):
            word_walk_matrix((3, 1), half)

    @pytest.mark.parametrize("k, r", [(1, 0), (5, 0), (3, 4), (3, -1)])
    def test_rejects_parameters_of_no_set(self, k, r):
        with pytest.raises(ValueError, match=rf"^no connecting set C\(4,{k};{r}\)$"):
            hplus_block_spectrum((3, 1), k, r)

    def test_trivial_block_counts_set(self):
        connecting = enumerate_connecting_set(prefix_moving_cycles(7, 4, 2))
        # (7)/(2) has one box.
        assert hplus_matrix((7,), 4, (2,)).tolist() == [[pytest.approx(len(connecting))]]

    def test_corrupted_generator_is_refused(self, monkeypatch):
        # A finite change to a coefficient keeps the generator symmetric, and
        # so the block; a NaN compares false with any tolerance.
        real = yor._generator

        def corrupted(index, i):
            g = real(index, i)
            if i == 1:  # s_3 for r = 2
                g = g._replace(coeff=g.coeff.copy())
                g.coeff[0] = np.nan
            return g

        monkeypatch.setattr(yor, "_generator", corrupted)
        message = r"^H\+ block for \(4, 3, 2, 1\)/\(2,\) asymmetric by nan$"
        with pytest.raises(ArithmeticError, match=message):
            hplus_block_spectrum((4, 3, 2, 1), 3, 2)

    @pytest.mark.parametrize("shape, k", [((3, 1), 3), ((5, 1, 1), 5), ((6, 1), 6)])
    def test_block_that_cancels_to_zero_passes_the_trace_check(self, shape, k):
        # chi(k-cycle) = 0 here. The rounded trace can exceed the block's
        # largest entry (-8.9e-14 against 3.2e-14 for (6, 1)), so the
        # tolerance is scaled by |H|, which bounds every entry.
        assert mn_character(shape, (k,) + (1,) * (sum(shape) - k)) == 0
        assert np.abs(hplus_matrix(shape, k, ())).max() < 1e-12
        assert hplus_block_spectrum(shape, k, 0) == [(0, dimension(shape))]

    def test_wrong_character_is_refused_by_the_trace(self, monkeypatch):
        # The diagonal is read from contents, the trace from characters, so a
        # doctored column no longer agrees with the block: the hook (6,1) has
        # value -1 on the 7-cycles, and |H| = 6! = 720.
        column = dict(characters.character_column((7,)))
        column[(6, 1)] = 1
        real = characters.character_column
        monkeypatch.setattr(
            characters, "character_column", lambda ctype: column if ctype == (7,) else real(ctype)
        )
        message = r"^H\+ block for \(6, 1\) has trace -720, not 720$"
        with pytest.raises(ArithmeticError, match=message):
            hplus_block_spectrum((6, 1), 7, 6)

    def test_wrong_coefficient_is_refused_by_the_trace(self, monkeypatch):
        # Scaling one generator's couplings keeps the block symmetric, but
        # moves its trace off |H| chi(3-cycle) = 16 * -48 = -768.
        real = yor._generator

        def scaled(index, i):
            g = real(index, i)
            return g._replace(coeff=g.coeff * 1.1) if i == 1 else g  # s_3 for r = 2

        monkeypatch.setattr(yor, "_generator", scaled)
        message = r"^H\+ block for \(4, 3, 2, 1\) has trace -633\.16\d*, not -768$"
        with pytest.raises(ArithmeticError, match=message):
            hplus_block_spectrum((4, 3, 2, 1), 3, 2)


class TestBlockWorkingSet:
    """hplus_matrix conjugates in place: the running conjugate, one
    accumulator and a few pair rows at a time, beside the block's own
    content index and generators."""

    # One block for each r, of 768, 1071 and 630 rows: large enough that the
    # pair rows, a few times 2^16 entries, stay below one block.
    BLOCKS = {0: ((4, 3, 2, 1), ()), 2: ((4, 3, 2, 1, 1), (2,)), 8: ((9, 4, 3, 1), (8,))}

    @pytest.mark.parametrize("k, r", [(3, 2), (9, 8), (5, 0)])
    def test_peak_within_three_blocks(self, traced_peak, k, r):
        shape, inner = self.BLOCKS[r]
        rows = len(yor._content_index(shape, inner))
        block = rows**2 * 8
        assert traced_peak(lambda: hplus_matrix(shape, k, inner)) <= 3 * block

    def test_spectrum_holds_one_block_at_a_time(self, traced_peak):
        # (4,3,2,1,1)/(2) has 1071 rows and /(1,1) 1239: the spectrum peaks
        # where its larger block does, not with the other one still held.
        shape = (4, 3, 2, 1, 1)
        larger = traced_peak(lambda: hplus_matrix(shape, 3, (1, 1)))
        assert traced_peak(lambda: hplus_block_spectrum(shape, 3, 2)) <= larger + 1071**2 * 4


class TestFullSpectra:
    def test_eigenvalue_count_is_group_order(self):
        report = full_spectrum_via_irreps(prefix_moving_cycles(5, 3, 2))
        assert report.size == factorial(5)
        assert report.method == "irrep"

    def test_full_cycle_spectrum(self):
        report = full_spectrum_via_irreps(full_cycles(5, 5))
        assert report.eigenvalues == [(24.0, 2), (4.0, 36), (0.0, 50), (-6.0, 32)]
        assert report.lambda2 == 4.0

    @pytest.mark.parametrize("n", range(5, 13))
    def test_full_cycles_from_one_box_blocks(self, monkeypatch, n):
        # The n-cycles act on the hook (n-a, 1^a) as (-1)^a a! (n-1-a)!, of
        # multiplicity dim^2 = C(n-1,a)^2, and as 0 on every other diagram.
        expected: dict[int, int] = {}
        for a in range(n):
            value = (-1) ** a * factorial(a) * factorial(n - 1 - a)
            expected[value] = expected.get(value, 0) + comb(n - 1, a) ** 2
        expected[0] = factorial(n) - sum(expected.values())
        rows = set()
        real = yor.hplus_matrix
        monkeypatch.setattr(
            yor, "hplus_matrix", lambda *args: rows.add(len(block := real(*args))) or block
        )
        report = full_spectrum_via_irreps(full_cycles(n, n))
        assert report.eigenvalues == sorted(expected.items(), reverse=True)
        assert all(type(v) is int for v, _ in report.eigenvalues)
        assert rows == {1}

    def test_theorem_13_builds_skew_blocks_of_r_boxes_only(self, monkeypatch):
        # At (12, 10) most diagrams hold no hook of 10 and get only zero rows.
        inners = []
        real = yor.hplus_matrix
        monkeypatch.setattr(
            yor, "hplus_matrix", lambda shape, k, inner: inners.append(inner) or real(shape, k, inner)
        )
        assert verify.verify_T13(12, 10, "irrep").outcome == "match"
        assert inners and {sum(inner) for inner in inners} == {10}

    def test_agrees_with_char_spectrum(self, monkeypatch):
        # Every C(n,k) with n <= 8, on Alt too where H is even. The irrep
        # route reads no class eigenvalue: its diagonal is a product of contents.
        cases = [
            (n, k, kind)
            for n in range(2, 9)
            for k in range(2, n + 1)
            for kind in (["symmetric", "alternating"] if k % 2 else ["symmetric"])
        ]
        with monkeypatch.context() as m:
            m.setattr(characters, "class_eigenvalues", refuse_class_eigenvalues)
            irrep = [full_spectrum_via_irreps(full_cycles(n, k), kind) for n, k, kind in cases]
        assert len(cases) == 40
        for (n, k, kind), report in zip(cases, irrep):
            by_char = char_spectrum(n, (k,) + (1,) * (n - k), kind)
            assert report.eigenvalues == by_char.eigenvalues, (n, k, kind)

    def test_theorems_by_irrep_read_no_class_eigenvalue(self, monkeypatch):
        monkeypatch.setattr(characters, "class_eigenvalues", refuse_class_eigenvalues)
        outcomes = [verify.verify_T1A(6, "irrep"), verify.verify_T1B(6, "irrep")]
        outcomes += [verify.verify_T13(6, r, "irrep") for r in range(2, 5)]
        assert [o.outcome for o in outcomes] == ["match"] * 5

    @pytest.mark.parametrize(
        "spec", [prefix_moving_cycles(7, 3, 2), full_cycles(6, 5), prefix_moving_cycles(6, 4, 1)]
    )
    def test_matches_dense(self, spec):
        report = full_spectrum_via_irreps(spec)
        connecting = enumerate_connecting_set(spec)
        dense = dense_spectrum(from_explicit_set("symmetric", spec.n, connecting))
        assert report.eigenvalues == [(pytest.approx(v, abs=1e-8), m) for v, m in dense.eigenvalues]

    @pytest.mark.parametrize(
        "kind, spec",
        [
            ("symmetric", prefix_moving_cycles(7, 4, 2)),
            ("symmetric", full_cycles(6, 6)),
            ("alternating", full_cycles(7, 5)),
            ("alternating", prefix_moving_cycles(8, 5, 4)),
        ],
    )
    def test_makes_no_element(self, no_element_made, kind, spec):
        # The blocks are built from (k, r), and |H| is read from the spec.
        report = full_spectrum_via_irreps(spec, kind)
        assert report.lambda1 == spec.cardinality()

    def test_theorem_65_makes_no_element(self, no_element_made):
        # The blocks are built from (k, r) = (r+1, r).
        rows = verify.theorem_65_max_block_eigenvalues(7, 3)
        assert len(rows) == sum(dimension(shape) > 6 for shape in partitions_of(7))

    def test_alternating_rejects_odd_set(self, no_block_assembled):
        for spec in (full_cycles(6, 4), prefix_moving_cycles(6, 4, 3)):
            with pytest.raises(ValueError, match="odd permutations"):
                full_spectrum_via_irreps(spec, "alternating")
        with pytest.raises(ValueError, match="odd permutations"):
            char_spectrum(6, (4, 1, 1), "alternating")

    def test_rejects_unknown_group_kind(self):
        with pytest.raises(ValueError):
            char_spectrum(5, (5,), "cyclic")


class TestNothingKeptBetweenCalls:
    """hplus_matrix builds its block's content index and generators as
    locals; yor keeps nothing from one block, or one spectrum, to the next."""

    def test_no_attribute_is_memoized(self):
        assert [name for name in dir(yor) if hasattr(getattr(yor, name), "cache_info")] == []

    def test_pairs_do_not_depend_on_an_earlier_spec(self):
        # C(8,3;2) and C(8,4;2) have the same skew blocks shape/mu, mu |- 2.
        code = (
            "from snspectra.permutations import parse_spec; "
            "from snspectra.yor import full_spectrum_via_irreps; "
            "print(repr(full_spectrum_via_irreps(parse_spec('C(8,4;2)')).eigenvalues))"
        )
        src = str(Path(yor.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        full_spectrum_via_irreps(prefix_moving_cycles(8, 3, 2))
        after = full_spectrum_via_irreps(prefix_moving_cycles(8, 4, 2)).eigenvalues
        assert proc.stdout == repr(after) + "\n"

    def test_a_spectrum_leaves_no_memory_behind(self):
        # C(8,3;2) reads the character column and diagrams that C(8,3) reads,
        # but builds other skew blocks.  The full collection also empties the
        # interpreter's free lists; numpy's own cache of small freed buffers
        # keeps under 2 KB.  A memo of the blocks' indexes would keep 280 KB.
        full_spectrum_via_irreps(prefix_moving_cycles(8, 3, 2))
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            full_spectrum_via_irreps(full_cycles(8, 3))
            assert gc.collect() == 0  # nothing waited for the collector
            assert tracemalloc.get_traced_memory()[0] < 4096
        finally:
            tracemalloc.stop()
            gc.enable()


class TestNoSetCap:
    """The irrep route and Lemma 65 make no element of H, so the set cap
    refuses only the routes that make its cycles."""

    def test_irrep_route_ignores_the_set_cap(self, monkeypatch):
        monkeypatch.setattr(permutations, "SET_CAP", 1)
        assert verify.verify_T13(6, 2, "irrep").outcome == "match"
        assert verify.verify_T1A(6, "irrep").outcome == "match"
        assert verify.verify_T65(6, 2).outcome == "match"
        for spec in (prefix_moving_cycles(6, 3, 2), full_cycles(6, 6)):
            with pytest.raises(CapExceededError, match=r"exceeds set cap 1$"):
                next(permutations.connecting_cycles(spec))


class TestBlockCap:
    def test_largest_block_of_S12_is_admitted(self):
        assert max(map(dimension, yor.block_shapes(12))) == yor.BLOCK_CAP == 7700
        assert yor.block_shapes(12) == partitions_of(12)

    @pytest.mark.parametrize(
        "refused",
        [
            lambda: yor.block_shapes(13),
            lambda: full_spectrum_via_irreps(prefix_moving_cycles(13, 3, 2)),
            lambda: verify.theorem_65_max_block_eigenvalues(13, 2),
        ],
        ids=["shapes", "full_spectrum", "theorem_65"],
    )
    def test_S13_refused_before_any_block(self, no_block_assembled, refused):
        with pytest.raises(
            CapExceededError, match=r"^21450-row block \(5, 4, 2, 1, 1\) of S13 exceeds block cap 7700$"
        ):
            refused()


class TestCharSpectrum:
    def test_weighted_pairs_at_n20(self):
        # 20! eigenvalues held as at most p(20) = 627 (value, multiplicity) pairs.
        report = char_spectrum(20, (20,))
        assert report.size == factorial(20)
        assert len(report.eigenvalues) <= len(partitions_of(20)) == 627
        assert report.lambda1 == factorial(19)

    def test_alternating_halves_sym_multiplicities(self):
        sym = char_spectrum(7, (7,))
        alt = char_spectrum(7, (7,), "alternating")
        assert alt.eigenvalues == [(v, m // 2) for v, m in sym.eigenvalues]

    @pytest.mark.parametrize("n", range(5, 15))
    def test_support_equals_the_diagram_scan(self, n):
        for k in range(2, n + 1):
            ctype = (k,) + (1,) * (n - k)
            for kind in ["symmetric", "alternating"] if k % 2 else ["symmetric"]:
                pairs = char_spectrum(n, ctype, kind).eigenvalues
                assert pairs == diagram_scan_char_spectrum(n, ctype, kind).eigenvalues
                assert all(type(v) is int for v, _ in pairs)

    @pytest.mark.parametrize("n", [50, 100, 200, 300])
    def test_theorem_1_without_listing_the_diagrams(self, n, no_partitions_past_40):
        for run in (verify.verify_T1A, verify.verify_T1B):
            assert run(n, "char").outcome == "match"

    def test_full_support_adds_no_zero_pair(self):
        # Every character of S3 is nonzero on the 3-cycles.
        assert char_spectrum(3, (3,)).eigenvalues == [(2, 2), (-1, 4)]

    def test_wrong_column_value_fails_the_invariants(self, monkeypatch):
        column = dict(characters.character_column((7,)))
        column[(6, 1)] = -2  # the hook (6,1) has value -1 on the 7-cycles
        monkeypatch.setattr(characters, "character_column", lambda ctype: column)
        with pytest.raises(ArithmeticError, match=r"^Cayley spectrum invariants fail: sum v m = "):
            char_spectrum(7, (7,))

    @pytest.mark.parametrize("kind", ["symmetric", "alternating"])
    def test_reads_class_size_once(self, monkeypatch, kind):
        calls = []
        size = characters.class_size
        monkeypatch.setattr(characters, "class_size", lambda ctype: calls.append(ctype) or size(ctype))
        report = char_spectrum(9, (3,) + (1,) * 6, kind)
        assert calls == [(3,) + (1,) * 6]
        assert report.lambda1 == size((3,) + (1,) * 6) == 168

    def test_support_past_n_factorial_is_refused(self, monkeypatch):
        monkeypatch.setattr(diagrams, "dimension", lambda shape: 100)
        with pytest.raises(ArithmeticError, match=r"sum dim\^2 above 7!$"):
            char_spectrum(7, (7,))


def every_spec(max_n):
    """Every full and prefix connecting-set spec with n <= max_n."""
    for n in range(2, max_n + 1):
        yield from (full_cycles(n, k) for k in range(2, n + 1))
        yield from (prefix_moving_cycles(n, k, r) for k in range(2, n) for r in range(1, k))


def subset_of_prefix_set():
    # C(6,3;2) without the inverse pair (1,2,3), (1,3,2).
    drop = {parse_cycles("(1,2,3)", 6), parse_cycles("(1,3,2)", 6)}
    return [h for h in enumerate_connecting_set(prefix_moving_cycles(6, 3, 2)) if h not in drop]


def prefix_set_with_repeat():
    connecting = list(enumerate_connecting_set(prefix_moving_cycles(6, 3, 2)))
    return connecting + connecting[:1]


def transpositions_with_repeat():
    # Right length, but the last transposition is replaced by a copy of the first.
    connecting = list(enumerate_connecting_set(full_cycles(5, 2)))
    return connecting[:-1] + connecting[:1]


def cycles_moving_2_and_3():
    return [
        h for h in enumerate_connecting_set(full_cycles(6, 3)) if h(2) != 2 and h(3) != 3
    ]


def union_of_two_classes():
    return list(enumerate_connecting_set(full_cycles(6, 3))) + list(
        enumerate_connecting_set(full_cycles(6, 4))
    )


class TestClassSumAssembly:
    def test_matches_word_walk_on_every_small_spec(self):
        # Each whole block is put together from its skew blocks, with the
        # route's r: n - 1 for C(n,n), 0 for any other C(n,k).
        blocks = 0
        for spec in every_spec(7):
            connecting = enumerate_connecting_set(spec)
            r = spec.n - 1 if spec.k == spec.n else spec.r or 0
            for shape in partitions_of(spec.n):
                walked = word_walk_matrix(shape, connecting)
                built = skew_assembled_block(shape, spec.k, r)
                assert np.abs(built - walked).max() < 1e-10, (spec, shape)
                blocks += 1
        assert blocks == 591

    ODD_SETS = [
        subset_of_prefix_set,
        prefix_set_with_repeat,
        transpositions_with_repeat,
        cycles_moving_2_and_3,
        union_of_two_classes,
    ]

    @pytest.mark.parametrize("make", ODD_SETS)
    def test_other_sets_fall_through_to_the_word_walk(self, make):
        # Only the reference walk takes these sets; it agrees with the dense oracle.
        connecting = make()
        n = connecting[0].degree
        dense = dense_spectrum(from_explicit_set("symmetric", n, connecting))
        walked = word_walk_spectrum(n, connecting)
        assert walked == [(pytest.approx(v, abs=1e-8), m) for v, m in dense.eigenvalues]

    def test_split_parts_fall_through_and_add_up(self):
        # The parts are no C(n,k;r); their reference walks add up to the class-sum block.
        connecting = enumerate_connecting_set(prefix_moving_cycles(7, 3, 2))
        fixing, moving = split_by_last_point(connecting)
        for shape in partitions_of(7):
            parts = word_walk_matrix(shape, fixing) + word_walk_matrix(shape, moving)
            assert np.abs(parts - skew_assembled_block(shape, 3, 2)).max() < 1e-10


class TestPartitionScans:
    def test_largest_block_never_shrinks_as_n_grows(self):
        largest = [max(map(dimension, partitions_of(m))) for m in range(1, 14)]
        assert largest == sorted(largest)

    def test_block_cap_names_the_first_symmetric_group_past_it(self, no_block_assembled):
        with pytest.raises(
            CapExceededError,
            match=r"^21450-row block \(5, 4, 2, 1, 1\) of S13 exceeds block cap 7700, "
            r"so S14 has one at least as large$",
        ):
            yor.block_shapes(14)

    def test_column_cap_boundary(self, monkeypatch):
        # The cap is the work of C(40,2); no column is built on either side.
        def refuse(beta):
            raise AssertionError("a column was built")

        monkeypatch.setattr(characters, "_shape_from_beta", refuse)
        assert characters.COLUMN_CAP == 40**3 * partition_count(38)
        for k in range(2, 41):
            characters.check_column_cap((k,) + (1,) * (40 - k))
        refused = (
            r"^the S{} column with largest part 2 costs n\^3 p\({}\), more than column cap {}$"
        )
        with pytest.raises(CapExceededError, match=refused.format(41, 39, characters.COLUMN_CAP)):
            char_spectrum(41, (2,) + (1,) * 39)
        monkeypatch.setattr(characters, "COLUMN_CAP", characters.COLUMN_CAP - 1)
        with pytest.raises(CapExceededError, match=refused.format(40, 38, characters.COLUMN_CAP)):
            characters.check_column_cap((2,) + (1,) * 38)
