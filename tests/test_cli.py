import json
import time
from pathlib import Path

import pytest

from snspectra import equitable, formulas, graphs, verify
from snspectra.cli import main
from snspectra.permutations import parse_spec

from reference_checks import cycle_string, enumerate_connecting_set

# enumerate --set "C(7,5;2)" as printed when the command still made a
# Permutation per element; the CI console-script step compares against it too.
ENUMERATE_C7_5_2 = Path(__file__).parent / "data" / "enumerate_C7_5_2.txt"


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestVerifyCommand:
    def test_text_output(self, capsys):
        code, out = run_cli(capsys, "verify", "--theorem", "1A", "--n", "5", "--format", "text")
        assert code == 0
        assert "match" in out

    def test_json_output_with_range(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--theorem", "42", "--n", "5-6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [o["params"]["n"] for o in payload] == [5, 6]
        assert all(o["outcome"] == "match" for o in payload)

    def test_quotient_theorem_with_r(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--theorem", "13", "--n", "6", "--r", "2",
            "--method", "dense", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("theorem,")

    def test_writes_no_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "verify", "--theorem", "42", "--n", "5-6")[0] == 0
        assert run_cli(capsys, "character", "--n", "5")[0] == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, params",
        [
            (("--theorem", "1A", "--n", "3-6"), [{"n": 5}, {"n": 6}]),
            (("--theorem", "61", "--n", "6", "--r", "1-2"), [{"n": 6, "r": 2}] * 2),
        ],
    )
    def test_partial_range_keeps_the_domain(self, capsys, argv, params):
        code, out = run_cli(capsys, "verify", *argv, "--format", "json")
        assert code == 0
        assert [o["params"] for o in json.loads(out)] == params

    def test_rejects_unknown_theorem(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--theorem", "9", "--n", "5"])


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--theorem", "1A", "--n", "5-"),
            ("spectrum", "--group", "A", "--n", "6", "--set", "C(6,4)"),
            ("spectrum", "--group", "A", "--n", "6", "--set", "C(6,4)", "--method", "irrep"),
            ("spectrum", "--group", "S", "--n", "8", "--set", "C(8,8)"),
            ("spectrum", "--group", "S", "--n", "6", "--set", "C(6,3;2)", "--method", "char"),
            ("enumerate", "--set", "C(5,6)"),
            ("spectrum", "--group", "S", "--n", "9", "--set", "C(5,3)"),
            ("verify", "--theorem", "52", "--n", "6", "--method", "dense"),
            ("verify", "--theorem", "61", "--n", "6", "--method", "irrep"),
            ("verify", "--theorem", "42", "--n", "6", "--method", "natural"),
            ("verify", "--theorem", "43", "--n", "6", "--method", "all"),
            ("verify", "--theorem", "1A", "--n", "6", "--method", "natural"),
            ("verify", "--theorem", "1B", "--n", "6", "--method", "natural"),
            ("verify", "--theorem", "13", "--n", "6", "--r", "2", "--method", "natural"),
            ("verify", "--theorem", "1A", "--n", "5", "--r", "3"),
            ("verify", "--theorem", "1B", "--n", "5", "--r", "3"),
            ("verify", "--theorem", "42", "--n", "6", "--r", "3"),
            ("verify", "--theorem", "43", "--n", "6", "--r", "3"),
            ("verify", "--theorem", "43", "--n", "4"),
            ("verify", "--theorem", "43", "--n", "3"),
            ("verify", "--theorem", "42", "--n", "1"),
            ("verify", "--theorem", "52", "--n", "6", "--r", "5"),
            ("verify", "--theorem", "52", "--n", "3"),
            ("verify", "--theorem", "61", "--n", "3"),
            ("verify", "--theorem", "13", "--n", "3"),
            ("verify", "--theorem", "1A", "--n", "4"),
            ("verify", "--theorem", "13", "--n", "6", "--r", "1"),
            ("verify", "--theorem", "13", "--n", "6", "--r", "5"),
            ("verify", "--theorem", "65", "--n", "7", "--r", "6"),
            ("character", "--n", "3", "--diagram", "[4,2,1]", "--class", "[3,3,1]"),
            ("character", "--n", "7", "--diagram", "[4,2,1]", "--class", "[3,3]"),
            ("character", "--n", "4", "--diagram", "[4,2,1]"),
            ("character", "--n", "7", "--class", "[3,3,1]"),
        ],
    )
    def test_one_line_error_and_exit_code_2(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"snspectra {argv[0]}: error: ")
        assert captured.err.count("\n") == 1

    def test_fixed_method_theorems_accept_their_own_method(self, capsys):
        for theorem, method in (("52", "natural"), ("42", "char"), ("43", "auto")):
            code, out = run_cli(capsys, "verify", "--theorem", theorem, "--n", "6", "--method", method)
            assert code == 0 and "match" in out

    def test_failed_verification_exits_1(self, capsys, monkeypatch):
        bad = verify.Outcome("1A", {"n": 5}, 1, 2, "dense", "mismatch")
        monkeypatch.setattr(verify, "run_cases", lambda *args: [bad])
        code, out = run_cli(capsys, "verify", "--theorem", "1A", "--n", "5")
        assert code == 1
        assert "mismatch" in out


@pytest.mark.usefixtures("no_element_made")
class TestIrrepCap:
    """The irrep route makes no element of H, so only the block cap refuses
    it: C(13,13) is refused by S13's largest block, before any block is
    built."""

    BLOCK = "21450-row block (5, 4, 2, 1, 1) of S13 exceeds block cap 7700"

    def test_verify_reports_skipped(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--theorem", "1A", "--n", "13", "--method", "irrep",
            "--format", "json",
        )
        assert code == 0
        [outcome] = json.loads(out)
        assert outcome["outcome"] == "skipped"
        assert outcome["expected"] is None
        assert outcome["detail"] == self.BLOCK

    def test_spectrum_one_line_error_and_exit_code_2(self, capsys):
        code = main(
            ["spectrum", "--group", "S", "--n", "13", "--set", "C(13,13)", "--method", "irrep"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"snspectra spectrum: error: {self.BLOCK}\n"


@pytest.mark.usefixtures("no_element_made")
class TestSetCap:
    """Every other route that enumerates H refuses a huge H the same way."""

    def test_enumerate_one_line_error_and_exit_code_2(self, capsys):
        code = main(["enumerate", "--set", "C(13,13)"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "snspectra enumerate: error: |C(13,13)| = 479001600 exceeds set cap 1000000\n"
        )

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (("61", "--n", "13", "--r", "11"), "|C(13,12;11)| = 79833600 exceeds set cap 1000000"),
            (("53", "--n", "14", "--r", "12"), "|C(14,13;12)| = 958003200 exceeds set cap 1000000"),
        ],
    )
    def test_natural_and_quotient_rows_skipped(self, capsys, argv, detail):
        start = time.perf_counter()
        code, out = run_cli(capsys, "verify", "--theorem", *argv, "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        [outcome] = json.loads(out)
        assert (outcome["outcome"], outcome["expected"], outcome["detail"]) == (
            "skipped", None, detail,
        )


@pytest.mark.usefixtures("no_block_assembled")
class TestBlockCap:
    """The irrep route refuses an n whose largest block exceeds yor.BLOCK_CAP
    before it assembles any block."""

    def test_verify_reports_skipped(self, capsys):
        start = time.perf_counter()
        code, out = run_cli(
            capsys, "verify", "--theorem", "13", "--n", "13", "--r", "2", "--format", "json"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        [outcome] = json.loads(out)
        assert (outcome["outcome"], outcome["expected"], outcome["params"]) == (
            "skipped", None, {"n": 13, "r": 2},
        )
        assert outcome["detail"] == "21450-row block (5, 4, 2, 1, 1) of S13 exceeds block cap 7700"

    def test_spectrum_one_line_error_and_exit_code_2(self, capsys):
        code = main(
            ["spectrum", "--group", "S", "--n", "13", "--set", "C(13,3;2)", "--method", "irrep"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "snspectra spectrum: error: "
            "21450-row block (5, 4, 2, 1, 1) of S13 exceeds block cap 7700\n"
        )


class TestSpectrumCommand:
    def test_dense(self, capsys):
        code, out = run_cli(
            capsys, "spectrum", "--group", "A", "--n", "5", "--set", "C(5,5)"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda1"] == 24.0
        assert payload["lambda2"] == 4.0

    def test_irrep(self, capsys):
        code, out = run_cli(
            capsys, "spectrum", "--group", "S", "--n", "5", "--set", "C(5,4)",
            "--method", "irrep",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda1"] == 30.0
        assert payload["lambda2"] == 6.0

    def test_char(self, capsys):
        code, out = run_cli(
            capsys, "spectrum", "--group", "S", "--n", "8", "--set", "C(8,8)", "--method", "char"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "char"
        assert payload["lambda1"] == formulas.full_cycle_lambda1(8)
        assert payload["lambda2"] == formulas.full_cycle_lambda2(8)

    def test_auto_equals_dense_below_the_auto_limit(self, capsys):
        argv = ("spectrum", "--group", "S", "--n", "6", "--set", "C(6,3;2)")
        dense = run_cli(capsys, *argv, "--method", "dense")
        assert dense[0] == 0
        assert run_cli(capsys, *argv, "--method", "auto") == dense


class TestQuotientCommand:
    def test_matrix_and_eigenvalues(self, capsys):
        code, out = run_cli(
            capsys, "quotient", "--n", "6", "--k", "3", "--r", "2", "--which", "B1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"] == [[6, 2, 0], [1, 4, 3], [0, 2, 6]]
        assert payload["eigenvalues"] == [8, 6, 2]

    def test_csv_export(self, capsys, tmp_path):
        target = tmp_path / "b2.csv"
        code, out = run_cli(
            capsys, "quotient", "--n", "6", "--k", "3", "--r", "2",
            "--which", "B2", "--csv", str(target),
        )
        assert code == 0
        assert target.exists()

    def test_admitted_set_prints_as_before(self, capsys):
        code, out = run_cli(
            capsys, "quotient", "--n", "8", "--k", "5", "--r", "3", "--which", "B1"
        )
        assert code == 0
        assert json.loads(out) == {
            "which": "B1",
            "matrix": [[144, 72, 24], [24, 120, 96], [6, 72, 162]],
            "eigenvalues": [240, 138, 48],
        }

    def test_set_above_the_cap_refused_before_the_root_scan(self, capsys):
        start = time.perf_counter()
        code = main(["quotient", "--n", "18", "--k", "9", "--r", "2", "--which", "B1"])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "snspectra quotient: error: |C(18,9;2)| = 461260800 exceeds set cap 1000000\n"
        )

    @pytest.mark.parametrize("which", ["B1", "B2"])
    def test_set_above_the_cap_refused_before_the_matrix(self, capsys, monkeypatch, which):
        # B1 and B2 hold (k-1)!, which has a million digits at k = 200000.
        def refuse(m):
            raise AssertionError(f"factorial({m}) taken for the matrix")

        monkeypatch.setattr(equitable, "factorial", refuse)
        code = main(["quotient", "--n", "18", "--k", "9", "--r", "2", "--which", which])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.endswith("exceeds set cap 1000000\n")

    def test_parameters_checked_before_the_set_cap(self, capsys):
        code = main(["quotient", "--n", "6", "--k", "6", "--r", "2", "--which", "B1"])
        assert (code, capsys.readouterr().err) == (
            2, "snspectra quotient: error: need 2 <= r < k < n, got n=6, k=6, r=2\n"
        )


class TestCountsPastPrinting:
    """A count of more than 4300 digits, which Python will not print in
    decimal, is named by its power of ten in a cap's refusal."""

    def test_enumerate_names_the_set_cap(self, capsys):
        code = main(["enumerate", "--set", "C(5000,2500)"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "snspectra enumerate: error: |C(5000,2500)| = 10^8911.0 exceeds set cap 1000000\n"
        )

    def test_dense_verify_reports_skipped(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--theorem", "13", "--n", "2000", "--r", "2",
            "--method", "dense", "--format", "json",
        )
        assert code == 0
        [outcome] = json.loads(out)
        assert (outcome["outcome"], outcome["detail"]) == (
            "skipped", "10^5735.2 vertices exceeds dense cap 5040"
        )


class TestNaturalCap:
    """Lemmas 52 and 61 refuse a degree above graphs.NATURAL_CAP before the
    n x n operator is built."""

    @pytest.mark.parametrize(
        "argv", [("61", "--n", "3000", "--r", "2"), ("52", "--n", "61", "--r", "2")]
    )
    def test_verify_reports_skipped(self, capsys, monkeypatch, argv):
        def refuse(spec):
            raise AssertionError("the natural operator was built")

        monkeypatch.setattr(graphs, "natural_module_matrix", refuse)
        code, out = run_cli(capsys, "verify", "--theorem", *argv, "--format", "json")
        assert code == 0
        outcomes = json.loads(out)
        assert {o["outcome"] for o in outcomes} == {"skipped"}
        n = argv[2]
        assert {o["detail"] for o in outcomes} == {f"degree {n} exceeds natural cap 60"}

    def test_cap_is_the_largest_degree_admitted(self, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "NATURAL_CAP", 7)
        code, out = run_cli(capsys, "verify", "--theorem", "61", "--n", "7-8", "--r", "2",
                            "--format", "json")
        assert code == 0
        outcomes = [o["outcome"] for o in json.loads(out)]
        assert outcomes == ["match", "documented-discrepancy", "skipped"]


class TestUnwritableCsv:
    """An output file that cannot be opened is bad input: one line, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("character", "--n", "5"),
            ("quotient", "--n", "6", "--k", "3", "--r", "2", "--which", "B1"),
        ],
        ids=["character", "quotient"],
    )
    def test_one_line_error_and_exit_code_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "q.csv"
        code = main([*argv, "--csv", str(target)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"snspectra {argv[0]}: error: [Errno 2] No such file or directory: '{target}'\n"
        )
        assert not target.parent.exists()


class TestCharacterCommand:
    def test_single_value(self, capsys):
        code, out = run_cli(
            capsys, "character", "--n", "6", "--diagram", "[4,1,1]", "--class", "[6]"
        )
        assert code == 0
        assert json.loads(out)["value"] == 1

    def test_table_to_stdout(self, capsys):
        code, out = run_cli(capsys, "character", "--n", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    @pytest.mark.parametrize(
        "argv",
        [("--diagram", "[4,1,1]", "--class", "[6]"), ("--diagram", "[4,1,1]"), ("--class", "[6]")],
    )
    def test_csv_with_one_value_refused(self, capsys, tmp_path, argv):
        target = tmp_path / "t.csv"
        code = main(["character", "--n", "6", *argv, "--csv", str(target)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "snspectra character: error: --csv writes the whole table, "
            "so it takes no --diagram or --class\n"
        )
        assert not target.exists()

    @pytest.mark.parametrize(
        "n, message",
        [
            ("19", "degree 19 exceeds table cap 18"),
            ("0", "degree 0 has no diagram: n must be at least 1"),
        ],
    )
    def test_refused_table_leaves_the_csv_file_as_it_was(self, capsys, tmp_path, n, message):
        target = tmp_path / "t.csv"
        target.write_text("kept\n")
        code = main(["character", "--n", n, "--csv", str(target)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"snspectra character: error: {message}\n"
        assert target.read_text() == "kept\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_1_refused(self, capsys, n):
        code = main(["character", "--n", n])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"snspectra character: error: degree {n} has no diagram: n must be at least 1\n"
        )

    def test_stdout_equals_the_csv_file(self, capsys, tmp_path):
        target = tmp_path / "t8.csv"
        code, out = run_cli(capsys, "character", "--n", "8", "--csv", str(target))
        assert (code, json.loads(out)) == (0, {"n": 8, "csv": str(target)})
        code, out = run_cli(capsys, "character", "--n", "8")
        assert code == 0
        assert out.encode() == target.read_bytes()
        assert len(out.splitlines()) == 23  # header + p(8) diagrams


@pytest.mark.usefixtures("no_partitions_of_200")
class TestPartitionCaps:
    """Each cap refuses within a second, before its large allocation, and no
    route lists the diagrams of 200: the char route reads one column."""

    BLOCK = (
        "21450-row block (5, 4, 2, 1, 1) of S13 exceeds block cap 7700, "
        "so S200 has one at least as large"
    )
    ONES_80 = f"[{','.join('1' * 80)}]"
    COLUMN = "the S{} column with largest part {} costs n^3 p({}), more than column cap 1664960000"

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (("13", "--n", "200", "--r", "2"), BLOCK),
            (("65", "--n", "200", "--r", "2"), BLOCK),
            pytest.param(
                ("1A", "--n", "2000", "--method", "char"), COLUMN.format(2000, 2000, 0), id="1A-2000"
            ),
            pytest.param(("42", "--n", "100000"), COLUMN.format(100000, 100000, 0), id="42-100000"),
            pytest.param(("43", "--n", "100000"), COLUMN.format(100000, 99999, 1), id="43-100000"),
        ],
    )
    def test_verify_reports_skipped(self, capsys, argv, detail):
        start = time.perf_counter()
        code, out = run_cli(capsys, "verify", "--theorem", *argv, "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        [outcome] = json.loads(out)
        assert (outcome["outcome"], outcome["expected"], outcome["detail"]) == (
            "skipped", None, detail,
        )

    def test_char_route_matches_at_200(self, capsys):
        start = time.perf_counter()
        argv = ("verify", "--theorem", "1A", "--n", "200", "--method", "char", "--format", "json")
        code, out = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        [outcome] = json.loads(out)
        assert (code, outcome["outcome"], outcome["method"]) == (0, "match", "char")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("character", "--n", "200"), "degree 200 exceeds table cap 18"),
            (
                ("spectrum", "--group", "S", "--n", "400", "--set", "C(400,2)", "--method", "char"),
                COLUMN.format(400, 2, 398),
            ),
            (
                ("character", "--n", "80", "--diagram", "[80]", "--class", ONES_80),
                COLUMN.format(80, 1, 79),
            ),
        ],
        ids=["character", "spectrum", "character-value"],
    )
    def test_one_line_error_and_exit_code_2(self, capsys, argv, message):
        start = time.perf_counter()
        code = main(list(argv))
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"snspectra {argv[0]}: error: {message}\n"


ENUMERATED_SPECS = [f"C({n},{k})" for n in range(2, 7) for k in range(2, n + 1)] + [
    f"C({n},{k};{r})" for n in range(3, 8) for k in range(2, n) for r in range(1, k)
]


class TestEnumerateCommand:
    def test_lists_cycles(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--set", "C(5,3;2)")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.startswith("(") for line in lines)

    @pytest.mark.parametrize("spec_text", ENUMERATED_SPECS)
    def test_lines_are_the_reference_cycles_sorted_by_images(self, capsys, spec_text):
        code, out = run_cli(capsys, "enumerate", "--set", spec_text)
        assert code == 0
        expected = [cycle_string(h) for h in enumerate_connecting_set(parse_spec(spec_text))]
        assert out == "".join(line + "\n" for line in expected)

    def test_output_is_the_recorded_file(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--set", "C(7,5;2)")
        assert code == 0
        assert out == ENUMERATE_C7_5_2.read_text()
