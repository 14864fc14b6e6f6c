import itertools
import json
from fractions import Fraction
from math import factorial

import pytest

from snspectra import characters
from snspectra.characters import (
    cache_path,
    class_eigenvalue,
    class_sign,
    class_size,
    export_character_table_csv,
    hook_value_on_ncycle,
    load_character_cache,
    max_ratio_diagram,
    mn_character,
    save_character_cache,
)
from snspectra.diagrams import (
    branch_restrict,
    diagram_string,
    dimension,
    is_hook,
    parse_diagram,
    partitions_of,
    transpose,
    validate_diagram,
)


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


class TestCharacters:
    def test_non_hook_vanishes_on_ncycle(self):
        assert mn_character((3, 3), (6,)) == 0
        assert hook_value_on_ncycle((3, 2, 1)) == 0

    def test_hook_sign_on_ncycle(self):
        assert mn_character((4, 1, 1), (6,)) == 1  # leg 2
        assert hook_value_on_ncycle((5, 1)) == -1
        assert hook_value_on_ncycle((2, 1, 1, 1, 1)) == 1  # n = 6 even

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

    @pytest.mark.parametrize("n", range(2, 7))
    def test_column_orthogonality(self, n):
        shapes = partitions_of(n)
        for a in shapes:
            for b in shapes:
                total = sum(
                    class_size(c) * mn_character(a, c) * mn_character(b, c)
                    for c in shapes
                )
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


class TestClassEigenvalue:
    def test_full_cycle_examples(self):
        assert class_eigenvalue((2, 1, 1, 1, 1), (6,)) == 24  # (n-2)!
        assert class_eigenvalue((3, 1, 1), (5,)) == 4  # 2(n-3)!

    def test_almost_full_cycle_example(self):
        assert class_eigenvalue((2, 2, 1), (4, 1)) == 6  # 2(n-2)(n-4)! at n=5

    def test_trivial_block_gets_class_size(self):
        assert class_eigenvalue((6,), (6,)) == class_size((6,)) == 120


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


class TestCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNSPECTRA_CACHE_DIR", str(tmp_path))
        mn_character((3, 2), (5,))
        path = save_character_cache(5)
        assert path.exists()
        assert load_character_cache(5) > 0

    def test_save_replaces_the_file_atomically(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNSPECTRA_CACHE_DIR", str(tmp_path))
        mn_character((3, 2), (5,))
        path = save_character_cache(5)
        before = path.read_text()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(characters.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_character_cache(5)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[1, 2]",
            json.dumps({"schema_version": 2, "n": 5, "values": {"5|5": 1}}),
            json.dumps({"schema_version": 1, "n": 6, "values": {"5|5": 1}}),
            json.dumps({"schema_version": 1, "n": 5, "values": {"5|5": 1, "3,3|5": 1}}),
            json.dumps({"schema_version": 1, "n": 5, "values": {"5|5": 1, "3,2|2,3": 1}}),
            json.dumps({"schema_version": 1, "n": 5, "values": {"5|5": 1, "3,2": 1}}),
            json.dumps({"schema_version": 1, "n": 5, "values": {"5|5": 1, "3,2|5": 0.5}}),
            json.dumps({"schema_version": 1, "n": 5, "values": {"5|5": 1, "3,2|5": True}}),
        ],
    )
    def test_bad_file_is_ignored_whole_with_a_warning(self, text, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SNSPECTRA_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(characters, "_MEMO", {})
        cache_path(5).write_text(text)
        assert load_character_cache(5) == 0
        assert characters._MEMO == {}
        err = capsys.readouterr().err
        assert err.startswith(f"snspectra: warning: ignoring character cache {cache_path(5)}: ")
        assert err.count("\n") == 1

    def test_csv_export(self, tmp_path):
        out = tmp_path / "table.csv"
        export_character_table_csv(4, out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 partitions of 4
        assert lines[0].startswith("diagram,")
