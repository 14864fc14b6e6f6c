"""Self-tests of the benchmark: the correctness gate, the tracer and the
bare-directory refusal.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import collections
import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def outcomes_for(expected: workloads.Expected) -> list[dict]:
    """The outcome list a correct child prints for these pinned cases."""
    return [
        {"theorem": theorem, "params": dict(params), "method": method,
         "outcome": outcome, "runtime_ms": 1.0}
        for (theorem, params), results in expected.items()
        for method, outcome in results
    ]


def workload_grade(name: str, doctor=None) -> workloads.Grade:
    """Grade a workload whose children all print correct outcomes, except the
    first one that ``doctor`` changes."""
    total = workloads.Grade()
    for inv in workloads.invocations(name, seed=1):
        outcomes = outcomes_for(inv.expected)
        if doctor is not None:
            doctored = doctor(copy.deepcopy(outcomes))
            if doctored != outcomes:
                outcomes, doctor = doctored, None
        total.add(workloads.grade(inv.expected, outcomes))
    return total


@pytest.mark.parametrize(
    "name, counts",
    [
        ("t13-irrep", {"match": 10}),
        ("class-char", {"match": 56}),
        ("oracles", {"match": 103, "documented-discrepancy": 34}),
    ],
)
def test_pinned_case_counts(name, counts):
    outcomes = collections.Counter()
    for inv in workloads.invocations(name, seed=1):
        outcomes.update(o for results in inv.expected.values() for _, o in results)
    assert dict(outcomes) == counts


def test_pinned_counts_per_lemma():
    oracles = {inv.label: inv for inv in workloads.invocations("oracles", seed=1)}
    for label, counts in (("--theorem 52 --n 5-8", {"match": 14, "documented-discrepancy": 20}),
                          ("--theorem 61 --n 5-8", {"match": 14, "documented-discrepancy": 14}),
                          ("quotients", {"match": 70})):
        got = collections.Counter(o for r in oracles[label].expected.values() for _, o in r)
        assert dict(got) == counts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_labels_are_unique(name):
    labels = [inv.label for inv in workloads.invocations(name, seed=1)]
    assert len(set(labels)) == len(labels)


def test_wall_is_the_sum_of_median_times(monkeypatch, tmp_path):
    invs = workloads.invocations("oracles", seed=1)
    walls = iter([3.0, 1.5, 2.0])

    def fake_pass(order, tmp, deadline, traced):
        result = run.Pass(traced, rss_mb=10.0)
        for inv in order:
            result.child_wall_s[inv.label] = 1.0
        result.child_wall_s[invs[0].label] = next(walls)
        result.grade = workloads.Grade(len(order), 0)
        return result

    monkeypatch.setattr(run, "run_pass", fake_pass)
    monkeypatch.setattr(run, "probe_setup", lambda tmp, probes, deadline: [0.5] * probes)
    rounds, metrics = run.timed_run(invs, 1, tmp_path, 0.0, float("inf"))
    assert len(rounds) == run.MIN_ROUNDS
    assert metrics["wall_s"]["value"] == 2.0 + (len(invs) - 1) * 1.0
    assert metrics["ok_frac"]["value"] == 1.0 and metrics["setup_s"]["value"] == 0.5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_correct_outputs_pass(name):
    grade = workload_grade(name)
    assert grade.failed == 0 and grade.attempted > 0 and not grade.problems


def _replace_first(outcome: str, new: dict):
    def doctor(outcomes):
        for o in outcomes:
            if o["outcome"] == outcome:
                o.update(new)
                break
        return outcomes
    return doctor


@pytest.mark.parametrize(
    "name, doctor",
    [
        ("t13-irrep", _replace_first("match", {"outcome": "skipped"})),
        ("t13-irrep", _replace_first("match", {"outcome": "mismatch"})),
        ("oracles", _replace_first("documented-discrepancy", {"outcome": "match"})),
        ("oracles", _replace_first("match", {"method": "irrep"})),
        ("class-char", lambda outcomes: outcomes[1:]),
    ],
    ids=["skipped", "mismatch", "flipped-discrepancy", "other-route", "missing-case"],
)
def test_one_doctored_case_fails(name, doctor):
    clean = workload_grade(name)
    grade = workload_grade(name, doctor)
    assert grade.attempted == clean.attempted
    assert grade.failed == 1


def test_extra_case_is_attempted_and_failed():
    clean = workload_grade("t13-irrep")
    extra = {"theorem": "13", "params": {"n": 9, "r": 2}, "method": "irrep",
             "outcome": "match", "runtime_ms": 1.0}
    grade = workload_grade("t13-irrep", lambda outcomes: outcomes + [extra])
    assert (grade.attempted, grade.failed) == (clean.attempted + 1, 1)


def test_duplicated_case_fails():
    grade = workload_grade("class-char", lambda outcomes: outcomes + outcomes[:1])
    assert grade.failed == 1


def test_crash_fails_every_case_of_the_invocation():
    for inv in workloads.invocations("oracles", seed=1):
        grade = workloads.grade(inv.expected, None)
        assert grade.failed == grade.attempted == sum(map(len, inv.expected.values()))


@pytest.mark.parametrize(
    "returncode, stdout",
    [(1, "[]"), (0, "Traceback"), (0, '{"a": 1}'), (0, '[{"theorem": "1A"}]'), (None, "[]")],
)
def test_unusable_child_output_is_none(returncode, stdout):
    child = run.ChildRun(1.0, 1.0, returncode, stdout, "")
    assert run.parse_outcomes(child) is None


def test_seed_orders_but_keeps_cases():
    a = workloads.invocations("oracles", seed=1)
    b = workloads.invocations("oracles", seed=2)
    assert sorted(i.label for i in a) == sorted(i.label for i in b)
    assert sorted(workloads.quotient_order(1)) == sorted(workloads.quotient_order(2))
    assert [i.label for i in a] == [i.label for i in workloads.invocations("oracles", seed=1)]


def test_self_times_subtract_children():
    t = tracer.Tracer()
    t.spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0], ["c", 3.0, 4.0, 1], ["b", 6.0, 7.0, 0]]
    layers = t.self_times()
    assert layers["a"] == {"self_s": 6.0, "calls": 1}
    assert layers["b"] == {"self_s": 3.0, "calls": 2}
    assert layers["c"] == {"self_s": 1.0, "calls": 1}


def test_wrapper_links_parents_and_counts():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda xs: list(xs), tracer._cluster_values)
    outer = t.wrap("outer", lambda: inner([1, 2, 3]))
    assert outer() == [1, 2, 3]
    assert [(s[0], s[3]) for s in t.spans] == [("outer", -1), ("inner", 0)]
    assert t.counters == {"eigen.cluster_values": 3}


@pytest.mark.parametrize(
    "args, layers",
    [
        (["verify", "--theorem", "1A", "--n", "5", "--method", "char"],
         {"yor.expand", "eigen.cluster", "characters.eigenvalue"}),
        (["verify", "--theorem", "1A", "--n", "5", "--method", "dense"],
         {"permutations.enumerate", "graphs.adjacency", "graphs.dense_eig", "eigen.cluster"}),
        (["verify", "--theorem", "13", "--n", "5", "--method", "irrep"],
         {"permutations.enumerate", "yor.assemble", "yor.block", "eigen.jacobi",
          "yor.expand", "eigen.cluster"}),
        (["verify", "--theorem", "61", "--n", "5"],
         {"permutations.enumerate", "graphs.natural_matrix", "eigen.exact"}),
    ],
    ids=["char", "dense", "irrep", "natural"],
)
def test_traced_child_sees_call_site_bindings(tmp_path, args, layers):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SNSPECTRA_CACHE_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--trace-out", str(out), "cli", *args,
         "--format", "json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text())
    assert trace["missing"] == []
    assert set(trace["layers"]) == layers


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "t13-irrep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
