import json
import time
from math import factorial
from pathlib import Path

import pytest

from snspectra import equitable, formulas, graphs, verify, yor
from snspectra.formulas import (
    almost_full_cycle_lambda2,
    full_cycle_lambda2,
    mu3_closed_form,
    mu_values,
    natural_multiplicities,
    prefix_lambda1,
    prefix_lambda2,
    printed_mu2_variant,
    printed_third_eigenvalue_variant,
)
from snspectra.permutations import full_cycles, group_order, parse_spec, prefix_moving_cycles

from reference_checks import theorem_65_rows


class TestFormulas:
    def test_connecting_set_sizes(self):
        assert full_cycles(5, 5).cardinality() == 24
        assert prefix_moving_cycles(5, 3, 2).cardinality() == 6
        assert prefix_moving_cycles(6, 4, 2).cardinality() == factorial(3) * 6

    def test_headline_values(self):
        assert full_cycle_lambda2(6) == 24
        assert full_cycle_lambda2(7) == 48
        assert almost_full_cycle_lambda2(6) == 9
        assert almost_full_cycle_lambda2(7) == 60
        assert prefix_lambda1(6, 2) == 8
        assert prefix_lambda2(6, 2) == 6

    def test_mu_values_k_equals_r_plus_one(self):
        for n, r in [(6, 2), (7, 3), (8, 4)]:
            mu1, mu2, mu3, mu4 = mu_values(n, r + 1, r)
            assert mu1 == factorial(r) * (n - r)
            assert mu2 == factorial(r) * (n - r - 1)
            assert mu3 == mu3_closed_form(n, r)
            assert mu4 == -factorial(r - 1) * (n - r)
            assert sum(natural_multiplicities(n, r)) == n

    def test_printed_mu2_agrees_only_for_small_gap(self):
        assert printed_mu2_variant(6, 3, 2) == mu_values(6, 3, 2)[1]
        assert printed_mu2_variant(7, 4, 3) == mu_values(7, 4, 3)[1]
        assert printed_mu2_variant(7, 4, 2) == 28 != mu_values(7, 4, 2)[1] == 34

    def test_printed_third_eigenvalue_differs(self):
        assert printed_third_eigenvalue_variant(6, 2) != mu3_closed_form(6, 2)


@pytest.mark.parametrize("method", ["dense", "irrep", "char"])
@pytest.mark.parametrize(
    "kind, spec_text",
    [
        ("symmetric", "C(5,4)"),
        ("symmetric", "C(5,3)"),
        ("alternating", "C(5,5)"),
        ("alternating", "C(6,3)"),
    ],
)
def test_spectrum_invariants(kind, spec_text, method):
    """Sum m = |G|, sum v m = 0, sum v^2 m = |G||H| and lambda1 = |H| on
    every route and both groups."""
    spec = parse_spec(spec_text)
    order = factorial(spec.n) // (1 if kind == "symmetric" else 2)
    degree = spec.cardinality()
    report = verify.spectrum(spec, kind, method)
    assert report.method == method
    assert all(type(v) is int for v in report.distinct())  # a class sum's spectrum
    assert report.size == order
    assert report.trace() == 0
    assert sum(v * v * m for v, m in report.eigenvalues) == order * degree
    assert report.lambda1 == degree


@pytest.mark.parametrize(
    "kind, spec_text, method, floats",
    [
        ("symmetric", "C(7,5;3)", "irrep", 2),
        ("alternating", "C(7,5;3)", "irrep", 2),
        ("alternating", "C(7,5;3)", "dense", 2),
        ("symmetric", "C(6,4;3)", "dense", 0),
        ("symmetric", "C(7,7)", "char", 0),
        ("alternating", "C(7,5)", "char", 0),
    ],
)
def test_every_integral_value_is_an_int(kind, spec_text, method, floats):
    """Integral eigenvalues are ints on every route; only the values that are
    not integral, as C(7,5;3) has two, stay floats."""
    values = verify.spectrum(parse_spec(spec_text), kind, method).distinct()
    non_ints = [v for v in values if type(v) is not int]
    assert len(non_ints) == floats
    assert all(type(v) is float and abs(v - round(v)) > 0.1 for v in non_ints)


@pytest.mark.parametrize("method, module", [("dense", graphs), ("irrep", yor), ("char", yor)])
@pytest.mark.parametrize("kind, spec_text", [("symmetric", "C(5,4)"), ("alternating", "C(5,5)")])
def test_tampered_spectrum_raises(kind, spec_text, method, module, monkeypatch):
    """Every route checks its clustered pairs: lowering one value breaks sum v m = 0."""
    real = module.cluster_eigenvalues

    def tampered(pairs):
        clustered = real(pairs)
        value, mult = clustered[-1]
        return clustered[:-1] + [(value - 1.0, mult)]

    monkeypatch.setattr(module, "cluster_eigenvalues", tampered)
    with pytest.raises(ArithmeticError, match="invariants"):
        verify.spectrum(parse_spec(spec_text), kind, method)


class TestTheoremRunners:
    def test_T1A_small(self):
        out = verify.verify_T1A(5)
        assert out.outcome == "match"
        assert out.computed == {"lambda1": 24.0, "lambda2": 4.0}
        assert out.ok

    @pytest.mark.parametrize(
        "runner, n",
        [(verify.verify_T1A, 20), (verify.verify_T1A, 30), (verify.verify_T1B, 24),
         (verify.verify_T1B, 30)],
    )
    def test_char_route_at_large_n(self, runner, n, monkeypatch):
        # The values are exact ints however large: multiplicities near n!
        # move no value, and a closed form off by 1 is a mismatch.
        out = runner(n, "char")
        assert out.outcome == "match"
        assert all(type(v) is int for v in out.computed.values())
        closed_form = "full_cycle_lambda2" if out.theorem == "1A" else "almost_full_cycle_lambda2"
        real = getattr(formulas, closed_form)
        monkeypatch.setattr(formulas, closed_form, lambda n: real(n) + 1)
        assert runner(n, "char").outcome == "mismatch"

    def test_auto_takes_char_for_a_class(self):
        assert verify.verify_T1A(8).method == "char"
        assert verify.verify_T1B(7).method == "char"
        assert verify.verify_T13(6, 2).method == "dense"

    def test_auto_goes_dense_up_to_720_vertices(self, monkeypatch):
        monkeypatch.setattr(verify, "build", lambda kind, spec: None)
        monkeypatch.setattr(verify, "dense_spectrum", lambda graph: "dense")
        monkeypatch.setattr(yor, "full_spectrum_via_irreps", lambda spec, kind: "irrep")
        for n in range(4, 21):
            for kind in ("symmetric", "alternating"):
                expected = "dense" if group_order(kind, n) <= 720 else "irrep"
                assert verify.spectrum(prefix_moving_cycles(n, 3, 2), kind, "auto") == expected

    def test_T1A_skips_tiny(self):
        # n <= 4 is outside Theorem 1A: run_cases builds no case there, and
        # the runner called directly raises the formula's ValueError.
        assert [o.params for o in verify.run_cases("1A", [3, 4, 5])] == [{"n": 5}]
        with pytest.raises(ValueError, match="asserted for n > 4 only"):
            verify.verify_T1A(4)

    def test_dense_refused_before_building(self, monkeypatch):
        def build(*args):
            raise AssertionError("the graph was built")

        monkeypatch.setattr(verify, "build", build)
        [out] = verify.run_cases("1A", [9], None, "dense")
        assert (out.outcome, out.expected, out.computed) == ("skipped", None, None)
        assert (out.params, out.method) == ({"n": 9}, "dense")
        assert out.detail == "181440 vertices exceeds dense cap 5040"

    def test_T1B_small(self):
        out = verify.verify_T1B(5)
        assert out.outcome == "match"
        assert out.computed["lambda2"] == 6.0

    def test_T13_dense_and_irrep_agree(self):
        dense = verify.verify_T13(6, 2, "dense")
        irrep = verify.verify_T13(6, 2, "irrep")
        assert dense.outcome == irrep.outcome == "match"
        assert dense.computed == irrep.computed

    def test_T13_bad_r_skipped(self):
        outcomes = verify.run_cases("13", [6], [1, 2, 5])
        assert [o.params for o in outcomes] == [{"n": 6, "r": 2}]
        with pytest.raises(ValueError, match="prefix family needs 1 <= r < k < n"):
            verify.verify_T13(6, 5)

    def test_T52_match_and_discrepancy(self):
        assert verify.verify_T52(6, 3, 2).outcome == "match"
        out = verify.verify_T52(7, 4, 2)
        assert out.outcome == "documented-discrepancy"
        assert out.ok
        assert "34" in out.detail

    def test_L61_reports_discrepancy(self):
        table, variant = verify.verify_L61(7, 2)
        assert table.outcome == "match"
        assert variant.outcome == "documented-discrepancy"

    def test_L61_computes_the_table_once(self, monkeypatch):
        calls = []

        def natural_module_matrix(spec):
            calls.append(spec)
            return real(spec)

        real = graphs.natural_module_matrix
        monkeypatch.setattr(graphs, "natural_module_matrix", natural_module_matrix)
        table, variant = verify.verify_L61(7, 2)
        spec = prefix_moving_cycles(7, 3, 2)
        assert calls == [spec]
        assert table.computed == graphs.natural_module_spectrum(spec).eigenvalues
        assert variant.outcome == "documented-discrepancy"

    def test_L42_L43(self):
        assert verify.verify_L42(6).outcome == "match"
        assert verify.verify_L42(7).outcome == "match"
        assert verify.verify_L43(6).outcome == "match"
        assert verify.verify_L43(7).outcome == "match"

    def test_quotients(self):
        outcomes = verify.verify_quotients(6, 3, 2)
        assert [o.outcome for o in outcomes] == ["match", "match"]
        assert [o.theorem for o in outcomes] == ["53", "54"]

    def test_quotients_count_H_once(self, monkeypatch):
        counted = []
        count_once = equitable.natural_module_matrix
        monkeypatch.setattr(
            equitable, "natural_module_matrix", lambda spec: counted.append(spec) or count_once(spec)
        )
        assert all(o.outcome == "match" for o in verify.verify_quotients(7, 4, 2))
        assert counted == [prefix_moving_cycles(7, 4, 2)]

    def test_natural_rows_count_H_without_enumerating(self):
        # They count the cycles of H, making no permutation of it.
        for theorem in ("52", "53", "54", "61"):
            assert all(o.ok for o in verify.run_cases(theorem, [6]))

    @pytest.mark.parametrize("theorem, index", [("53", 0), ("54", 1)])
    def test_quotient_rows_split_verify_quotients(self, theorem, index):
        def fields(outcome):
            return {**outcome.__dict__, "runtime_ms": 0.0}

        outcomes = verify.run_cases(theorem, [6])
        pairs = [(k, r) for r in range(2, 5) for k in range(r + 1, 6)]
        expected = [verify.verify_quotients(6, k, r)[index] for k, r in pairs]
        assert [fields(o) for o in outcomes] == [fields(o) for o in expected]
        assert all(o.theorem == theorem and o.outcome == "match" for o in outcomes)

    def test_T65_compares_the_largest_top_with_the_bound(self, monkeypatch):
        out = verify.verify_T65(7, 2)
        assert out.outcome == "match"
        assert out.expected == prefix_lambda2(7, 2)
        tops = [top for _, _, top in verify.theorem_65_max_block_eigenvalues(7, 2)]
        assert out.computed == max(tops)
        monkeypatch.setattr(
            verify, "theorem_65_max_block_eigenvalues", lambda n, r: [((4, 3), 14, 10.5)]
        )
        out = verify.verify_T65(7, 2)
        assert (out.computed, out.outcome) == (10.5, "mismatch")

    def test_T65_skips_outside_the_theorem(self):
        outcomes = verify.run_cases("65", [4, 7], [2, 6])
        assert [o.params for o in outcomes] == [{"n": 7, "r": 2}]
        with pytest.raises(ValueError, match="prefix family needs 1 <= r < k < n"):
            verify.verify_T65(7, 6)

    def test_T65_refused_above_the_irrep_cap_before_enumerating(self, no_element_made):
        start = time.perf_counter()
        [out] = verify.run_cases("65", [13], [11])
        assert time.perf_counter() - start < 1.0
        assert (out.outcome, out.expected, out.params) == ("skipped", None, {"n": 13, "r": 11})
        assert out.detail == "21450-row block (5, 4, 2, 1, 1) of S13 exceeds block cap 7700"

    def test_skipped_case_records_the_time_to_its_refusal(self, no_element_made):
        [out] = verify.run_cases("61", [13], [11])
        assert (out.outcome, out.params) == ("skipped", {"n": 13, "r": 11})
        assert out.detail == "|C(13,12;11)| = 79833600 exceeds set cap 1000000"
        assert out.runtime_ms > 0

    @pytest.mark.usefixtures("no_element_made", "no_block_assembled")
    def test_T13_refused_on_the_block_cap_before_enumerating(self):
        [out] = verify.run_cases("13", [13], [8], "irrep")
        assert (out.outcome, out.expected, out.params) == ("skipped", None, {"n": 13, "r": 8})
        assert out.detail == "21450-row block (5, 4, 2, 1, 1) of S13 exceeds block cap 7700"

    def test_admitted_irrep_case_makes_no_element(self, no_element_made):
        [out] = verify.run_cases("13", [8], [5], "irrep")
        assert (out.outcome, out.method) == ("match", "irrep")
        report = verify.spectrum(parse_spec("C(7,5;2)"), "alternating", "irrep")
        assert report.lambda1 == 240  # 4! C(5, 3)

    @pytest.mark.parametrize("theorem", ["42", "43"])
    def test_L42_L43_reach(self, theorem):
        outcomes = verify.run_cases(theorem, range(27, 61))
        assert [o.params["n"] for o in outcomes] == list(range(27, 61))
        assert all(o.outcome == "match" for o in outcomes)

    def test_theorem_65_rows_match_the_recorded_rows(self):
        # tests/data/theorem_65_rows.json holds the rows as computed when
        # Theorem 65 still ran its own copy of the irrep block loop.
        recorded = json.loads(THEOREM_65_ROWS.read_text())
        assert len(recorded) == 20 and sum(map(len, recorded.values())) == 311
        for key, rows in recorded.items():
            n, r = map(int, key.split(","))
            got = verify.theorem_65_max_block_eigenvalues(n, r)
            assert [[list(shape), dim, top] for shape, dim, top in got] == rows, key

    @pytest.mark.parametrize(
        "n, r",
        [(n, r) for n in range(5, 10) for r in range(2, n - 1)] + [(12, r) for r in range(6, 11)],
    )
    def test_theorem_65_rows_are_its_own_loop_over_the_irrep_walk(self, n, r):
        assert verify.theorem_65_max_block_eigenvalues(n, r) == theorem_65_rows(n, r)

    def test_theorem_65_bound(self):
        for n, r in [(6, 2), (6, 3), (7, 2), (8, 5)]:
            bound = prefix_lambda2(n, r)
            rows = verify.theorem_65_max_block_eigenvalues(n, r)
            assert rows  # at least one large block at these sizes
            for shape, dim, top in rows:
                assert dim > n - 1
                assert top <= bound + 1e-6


class TestOrchestration:
    def test_run_cases_unknown_theorem(self):
        with pytest.raises(ValueError):
            verify.run_cases("99", [6])

    @pytest.mark.parametrize("theorem", list(verify.THEOREMS))
    def test_every_method_of_a_row_checks_its_theorem(self, theorem):
        methods, *_ = verify.THEOREMS[theorem]
        for method in methods:
            outcomes = verify.run_cases(theorem, [6], None, method)
            assert outcomes
            assert all(o.outcome != "mismatch" for o in outcomes)

    @pytest.mark.parametrize("theorem", list(verify.THEOREMS))
    def test_methods_and_r_outside_a_row_are_refused(self, theorem):
        methods, _, takes, _ = verify.THEOREMS[theorem]
        for method in set(verify.METHODS) - set(methods):
            with pytest.raises(ValueError, match=f"theorem {theorem} takes method"):
                verify.run_cases(theorem, [6], None, method)
        if takes:
            assert verify.run_cases(theorem, [6], [2])
        else:
            with pytest.raises(ValueError, match="takes no r"):
                verify.run_cases(theorem, [6], [2])

    def test_refused_when_no_case_would_run(self):
        with pytest.raises(ValueError, match=r"theorem 52 has no case at n in \[6\], r in \[5\]"):
            verify.run_cases("52", [6], [5])
        with pytest.raises(ValueError, match=r"theorem 61 has no case at n in \[3\], r in 2..n-2"):
            verify.run_cases("61", [3])
        with pytest.raises(ValueError, match=r"theorem 1A has no case at n in \[4\]; it needs n >= 5"):
            verify.run_cases("1A", [4])
        with pytest.raises(ValueError, match="theorem 43 needs n > 4, got n=4"):
            verify.verify_L43(4)

    @pytest.mark.parametrize(
        "theorem, least_n",
        [("1A", 5), ("1B", 5), ("13", 5), ("65", 5), ("42", 5), ("43", 5),
         ("52", 4), ("53", 4), ("54", 4), ("61", 4)],
    )
    def test_domain_of_each_row(self, theorem, least_n):
        _, least, takes, _ = verify.THEOREMS[theorem]
        assert least == least_n
        outcomes = verify.run_cases(theorem, range(1, least_n + 1))
        assert {o.params["n"] for o in outcomes} == {least_n}
        for o in outcomes:
            if "r" in takes:
                assert 2 <= o.params["r"] <= o.params["n"] - 2
            if "k" in takes:
                assert o.params["r"] < o.params["k"] < o.params["n"]

    def test_every_case_outcome_carries_its_case_time(self):
        outcomes = verify.run_cases("61", [7], [2]) + verify.run_cases("61", [13], [11])
        assert [(o.params, o.outcome) for o in outcomes] == [
            ({"n": 7, "r": 2}, "match"),
            ({"n": 7, "r": 2}, "documented-discrepancy"),
            ({"n": 13, "r": 11}, "skipped"),
        ]
        assert all(o.runtime_ms > 0 for o in outcomes)
        assert outcomes[0].runtime_ms == outcomes[1].runtime_ms

    def test_quotient_pair_shares_its_call_time(self):
        outcomes = verify.verify_quotients(6, 3, 2)
        assert len(outcomes) == 2
        assert outcomes[0].runtime_ms > 0
        assert outcomes[0].runtime_ms == outcomes[1].runtime_ms

    def test_runner_called_directly_is_not_timed(self):
        assert verify.verify_T1A(5).runtime_ms == 0.0
        assert [o.runtime_ms for o in verify.verify_L61(7, 2)] == [0.0, 0.0]

    def test_run_cases_and_exit_code(self):
        outcomes = verify.run_cases("42", [5, 6])
        assert len(outcomes) == 2
        assert verify.exit_code(outcomes) == 0

    def test_exit_code_on_mismatch(self):
        bad = verify.Outcome("1A", {"n": 5}, 1, 2, "dense", "mismatch")
        assert verify.exit_code([bad]) == 1
        assert not bad.ok

    def test_outcome_keeps_its_field_order(self):
        order = ["theorem", "params", "expected", "computed", "method", "outcome", "runtime_ms", "detail"]
        out = verify.Outcome("13", {"n": 6, "r": 2}, 1, 2, "dense", "mismatch", 1.5, "note")
        assert out.__dict__ == dict(zip(order, ["13", {"n": 6, "r": 2}, 1, 2, "dense", "mismatch", 1.5, "note"]))
        assert list(out.__dict__) == order
        assert list(json.loads(verify.to_json([out]))[0]) == order
        assert verify.to_csv([out]).splitlines() == [",".join(order), '13,"{""n"": 6, ""r"": 2}",1,2,dense,mismatch,1.5,note']
        plain = verify.Outcome("42", {"n": 5}, 1, 1, "char", "match")
        assert (plain.runtime_ms, plain.detail, plain.ok) == (0.0, "", True)

    def test_json_schema(self):
        outcomes = verify.run_cases("13", [6], [2], "dense")
        payload = json.loads(verify.to_json(outcomes))
        assert len(payload) == 1
        assert set(payload[0]) == {
            "theorem", "params", "expected", "computed", "method", "outcome",
            "runtime_ms", "detail",
        }
        assert payload[0]["outcome"] == "match"

    def test_csv_and_text_renderers(self):
        outcomes = verify.run_cases("43", [6])
        csv_text = verify.to_csv(outcomes)
        assert csv_text.splitlines()[0].startswith("theorem,")
        assert len(csv_text.splitlines()) == 2
        assert "match" in verify.to_text(outcomes)


# tests/data/verify_golden.json holds the outputs of this grid as computed
# before run_cases took its methods from one table; a refactor of verify that
# changes any outcome, value, route or detail text fails here.
GOLDEN_GRID = (
    [(t, range(5, 7), m) for t in ("1A", "1B") for m in ("auto", "dense", "irrep", "char", "all")]
    + [("13", range(5, 7), m) for m in ("auto", "dense", "irrep", "all")]
    + [("52", range(5, 8), "auto"), ("61", range(5, 8), "auto")]
    + [("42", range(5, 10), "auto"), ("43", range(5, 10), "auto")]
)
GOLDEN_FILE = Path(__file__).parent / "data" / "verify_golden.json"
THEOREM_65_ROWS = Path(__file__).parent / "data" / "theorem_65_rows.json"


def golden_outputs() -> dict[str, list[dict]]:
    """verify.to_json of every grid entry, runtime_ms removed."""
    outputs = {}
    for theorem, ns, method in GOLDEN_GRID:
        payload = json.loads(verify.to_json(verify.run_cases(theorem, list(ns), None, method)))
        for outcome in payload:
            del outcome["runtime_ms"]
        outputs[f"{theorem} n={ns.start}-{ns.stop - 1} {method}"] = payload
    return outputs


def test_outputs_match_golden_file():
    golden = json.loads(GOLDEN_FILE.read_text())
    assert sum(len(outcomes) for outcomes in golden.values()) == 96
    assert golden_outputs() == golden
