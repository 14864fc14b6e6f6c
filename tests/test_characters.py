import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from snspectra import characters
from snspectra.characters import (
    character_column,
    class_eigenvalues,
    class_size,
    export_character_table_csv,
    max_ratio_diagram,
    mn_character,
)
from snspectra.permutations import CapExceededError
from snspectra.diagrams import (
    diagram_string,
    dimension,
    parse_diagram,
    partition_count,
    partitions_of,
    transpose,
    validate_diagram,
)

from reference_checks import branch_restrict, class_sign, is_hook, reference_class_eigenvalues


def count_standard_fillings(shape):
    """Brute-force oracle: count fillings of the diagram by 1..n that
    increase along rows and columns."""
    n = sum(shape)
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        entry = dict(zip(cells, perm))
        ok = all(
            entry[(i, j)] < entry[(i, j + 1)]
            for (i, j) in cells
            if (i, j + 1) in entry
        ) and all(
            entry[(i, j)] < entry[(i + 1, j)]
            for (i, j) in cells
            if (i + 1, j) in entry
        )
        count += ok
    return count


class TestDiagrams:
    def test_validation(self):
        with pytest.raises(ValueError):
            validate_diagram((2, 3))
        with pytest.raises(ValueError):
            validate_diagram((3, 0))

    def test_notation_roundtrip(self):
        assert parse_diagram("[4,2,1]") == (4, 2, 1)
        assert diagram_string((4, 2, 1)) == "[4,2,1]"

    def test_partitions_count(self):
        assert len(partitions_of(6)) == 11
        assert partitions_of(6)[0] == (6,)

    def test_pentagonal_count_equals_the_listed_partitions(self):
        assert [partition_count(m) for m in range(31)] == [len(partitions_of(m)) for m in range(31)]
        assert partition_count(100) == 190569292

    def test_transpose(self):
        assert transpose((4, 2)) == (2, 2, 1, 1)
        assert transpose(transpose((5, 3, 1))) == (5, 3, 1)

    def test_is_hook(self):
        assert is_hook((4, 1, 1))
        assert is_hook((6,))
        assert not is_hook((3, 2, 1))


class TestDimension:
    def test_one_row_is_trivial(self):
        assert dimension((7,)) == 1

    def test_hook_formula_examples(self):
        assert dimension((4, 1, 1)) == 10  # (n-1)(n-2)/2 at n=6
        assert dimension((4, 2)) == 9  # n(n-3)/2 at n=6
        assert dimension((4, 2)) + 1 == dimension((4, 1, 1))

    @pytest.mark.parametrize("shape", [(3, 2), (3, 1, 1), (2, 2, 1), (4, 2, 1)])
    def test_against_filling_oracle(self, shape):
        assert dimension(shape) == count_standard_fillings(shape)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sum_of_squares_is_group_order(self, n):
        assert sum(dimension(shape) ** 2 for shape in partitions_of(n)) == factorial(n)


class TestBranching:
    def test_one_row(self):
        assert branch_restrict((6,)) == ((5,),)

    def test_two_corners(self):
        assert set(branch_restrict((4, 2))) == {(3, 2), (4, 1)}

    @pytest.mark.parametrize("shape", [(4, 2, 1), (3, 3, 2), (5, 1, 1), (2, 2, 2)])
    def test_dimension_sum(self, shape):
        children = branch_restrict(shape)
        assert len(set(children)) == len(children)
        assert sum(dimension(c) for c in children) == dimension(shape)

    def test_transpose_and_dimension_on_every_partition_to_25(self):
        # transpose against its definition, column j = #{rows longer than j};
        # dimension by induction on n, against the sum over the corners.
        for n in range(1, 26):
            for shape in partitions_of(n):
                columns = tuple(sum(1 for p in shape if p > j) for j in range(shape[0]))
                assert transpose(shape) == columns
                corners = sum(dimension(c) for c in branch_restrict(shape)) if n > 1 else 1
                assert dimension(shape) == corners, shape


class TestCharacters:
    def test_non_hook_vanishes_on_ncycle(self):
        assert mn_character((3, 3), (6,)) == 0
        assert mn_character((3, 2, 1), (6,)) == 0

    def test_hook_sign_on_ncycle(self):
        assert mn_character((4, 1, 1), (6,)) == 1  # leg 2
        assert mn_character((5, 1), (6,)) == -1
        assert mn_character((2, 1, 1, 1, 1), (6,)) == 1  # n = 6 even

    def test_trivial_character(self):
        for c in partitions_of(5):
            assert mn_character((5,), c) == 1

    def test_sign_character(self):
        for c in partitions_of(5):
            assert mn_character((1, 1, 1, 1, 1), c) == class_sign(c)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            mn_character((3, 2), (6,))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_transpose_symmetry(self, n):
        for shape in partitions_of(n):
            for c in partitions_of(n):
                assert mn_character(transpose(shape), c) == class_sign(c) * mn_character(shape, c)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_column_orthogonality(self, n):
        shapes = partitions_of(n)
        chi = {(a, c): mn_character(a, c) for a in shapes for c in shapes}
        for a in shapes:
            for b in shapes:
                total = sum(class_size(c) * chi[a, c] * chi[b, c] for c in shapes)
                assert total == (factorial(n) if a == b else 0)

    @pytest.mark.parametrize("n", range(5, 8))
    def test_almost_full_cycle_class_support(self, n):
        # On the (n-1)-cycle class the character vanishes unless the shape
        # is a near-hook with a single box at position (2, 2); plain hooks
        # vanish too because the two branching legs have opposite parity.
        c = (n - 1, 1)
        near_hooks = {
            (n - m, 2) + (1,) * (m - 2) for m in range(2, n - 1)
        }
        for shape in partitions_of(n):
            value = mn_character(shape, c)
            if is_hook(shape) and dimension(shape) > 1:
                assert value == 0
            elif shape not in near_hooks and not is_hook(shape):
                assert value == 0

    def test_csv_export(self, tmp_path):
        out = tmp_path / "table.csv"
        export_character_table_csv(4, out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 partitions of 4
        assert lines[0].startswith("diagram,")


class TestClassEigenvalue:
    def test_full_cycle_examples(self):
        assert class_eigenvalues((6,))[(2, 1, 1, 1, 1)] == (24, 5)  # (n-2)!
        assert class_eigenvalues((5,))[(3, 1, 1)] == (4, 6)  # 2(n-3)!

    def test_almost_full_cycle_example(self):
        assert class_eigenvalues((4, 1))[(2, 2, 1)] == (6, 5)  # 2(n-2)(n-4)! at n=5

    def test_trivial_block_gets_class_size(self):
        assert class_eigenvalues((6,))[(6,)] == (class_size((6,)), 1) == (120, 1)

    @staticmethod
    def assert_equals_the_fraction_reference(ctype):
        expected = {
            shape: (value, dimension(shape))
            for shape, value in reference_class_eigenvalues(ctype).items()
            if value
        }
        got = class_eigenvalues(ctype)
        assert got == expected
        assert all(type(v) is int and type(d) is int for v, d in got.values())

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_class_to_10_equals_the_fraction_reference(self, n):
        for ctype in partitions_of(n):
            self.assert_equals_the_fraction_reference(ctype)

    @pytest.mark.parametrize("n", range(11, 15))
    def test_every_cycle_class_to_14_equals_the_fraction_reference(self, n):
        for k in range(2, n + 1):
            self.assert_equals_the_fraction_reference((k,) + (1,) * (n - k))

    def test_non_integral_value_is_refused(self, monkeypatch):
        # |C(7,2)| = 21 is not a multiple of dim (6,1) = 6.
        monkeypatch.setattr(characters, "character_column", lambda ctype: {(7,): 1, (6, 1): 1})
        with pytest.raises(ArithmeticError, match=r"^class eigenvalue for \(6, 1\) on .* is not integral$"):
            class_eigenvalues((2, 1, 1, 1, 1, 1))


class TestContentPolynomials:
    """The class sums of 2-, 3- and 4-cycles act on the block of a shape by
    polynomials in the contents c = column - row of its boxes (Jucys-Murphy):
    sum c, sum c^2 - C(n, 2) and sum c^3 - (2n - 3) sum c.  This checks the
    char route without Murnaghan-Nakayama."""

    @pytest.mark.parametrize("n", range(3, 21))
    def test_class_eigenvalues_are_content_polynomials(self, n):
        columns = {
            k: {shape: value for shape, (value, _) in class_eigenvalues((k,) + (1,) * (n - k)).items()}
            for k in (2, 3, 4)
            if k <= n
        }
        for shape in partitions_of(n):
            contents = [column - row for row, length in enumerate(shape) for column in range(length)]
            p1, p2, p3 = (sum(c**e for c in contents) for e in (1, 2, 3))
            expected = {2: p1, 3: p2 - comb(n, 2), 4: p3 - (2 * n - 3) * p1}
            for k, column in columns.items():
                assert column.get(shape, 0) == expected[k], (shape, k)


class TestMaxRatio:
    def test_odd_n_full_cycle(self):
        winners, ratio = max_ratio_diagram(7, (7,))
        assert (5, 1, 1) in winners
        assert ratio == Fraction(2, 30)

    def test_even_n_full_cycle(self):
        winners, ratio = max_ratio_diagram(6, (6,))
        assert (2, 1, 1, 1, 1) in winners
        assert ratio == Fraction(1, 5)

    def test_even_n_almost_full_cycle(self):
        winners, ratio = max_ratio_diagram(6, (5, 1))
        assert (3, 2, 1) in winners
        assert ratio == Fraction(3, 48)


class TestCharacterColumn:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_identity_class_gives_dimensions(self, n):
        assert dict(character_column((1,) * n)) == {s: dimension(s) for s in partitions_of(n)}

    @pytest.mark.parametrize("n", range(1, 11))
    def test_holds_no_zero_values(self, n):
        for c in partitions_of(n):
            column = character_column(c)
            assert 0 not in column.values()
            assert set(column) <= set(partitions_of(n))

    def test_mutating_a_column_leaves_the_next_one_exact(self):
        first = character_column((3, 1, 1))
        exact = dict(first)
        first[(5,)] = 2
        first.clear()
        assert character_column((3, 1, 1)) == exact
        assert mn_character((5,), (3, 1, 1)) == 1


def full_scan_max_ratio(n, ctype):
    """Reference: the largest ratio over every diagram of n with dim > 1."""
    column = character_column(ctype)
    ratios = {
        shape: Fraction(column.get(shape, 0), dimension(shape))
        for shape in partitions_of(n)
        if dimension(shape) > 1
    }
    best = max(ratios.values())
    return tuple(s for s in partitions_of(n) if ratios.get(s) == best), best


class TestMaxRatioScan:
    @pytest.mark.parametrize("n", range(5, 12))
    def test_support_scan_equals_full_scan(self, n):
        for c in partitions_of(n):
            assert max_ratio_diagram(n, c) == full_scan_max_ratio(n, c)

    @pytest.mark.parametrize(
        "column, winners",
        [
            ({(5,): 1, (4, 1): -1, (1, 1, 1, 1, 1): 1}, ((3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1))),
            ({(5,): 1}, ((4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1))),
        ],
    )
    def test_nonpositive_best_on_the_support_falls_back_to_full_scan(
        self, column, winners, monkeypatch
    ):
        # On real columns this arises only at n <= 4, which is refused.
        monkeypatch.setattr(characters, "character_column", lambda ctype: column)
        assert max_ratio_diagram(5, (5,)) == (winners, 0)


def test_table_cap():
    with pytest.raises(CapExceededError, match=r"^degree 19 exceeds table cap 18$"):
        characters.character_table_csv(characters.TABLE_CAP + 1)
