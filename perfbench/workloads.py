"""The benchmark's workloads and the gate that grades their outputs.

A workload is a fixed list of child-process invocations.  Each invocation
carries the exact cases it must report, in order, with the method and the
outcome each must have.  ``grade`` compares what a child printed against
that list; anything else counts as a failed case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# (theorem, sorted params) identifies a case; Lemma 61 reports two cases with
# the same key, so each key maps to the ordered list of its expected results.
Key = tuple[str, tuple[tuple[str, object], ...]]
Expected = dict[Key, list[tuple[str, str]]]

MATCH = "match"
DISCREPANCY = "documented-discrepancy"


def case_key(theorem: str, params: dict) -> Key:
    return (theorem, tuple(sorted(params.items())))


@dataclass(frozen=True)
class Invocation:
    """One child process.

    ``kind`` "cli" runs ``python -m snspectra.cli *args``; "quotients" runs
    the Lemma 53/54 runner in ``child.py`` (the CLI cannot reach it) with
    ``args`` = (seed,).
    """

    kind: str
    args: tuple[str, ...]
    expected: Expected = field(compare=False)

    @property
    def label(self) -> str:
        words = self.args[1:] if self.kind == "cli" else ("quotients",)
        return " ".join(w for w in words if w not in ("--format", "json"))


@dataclass
class Grade:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Grade") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def grade(expected: Expected, outcomes: list[dict] | None) -> Grade:
    """Grade one invocation's outcome list against its pinned cases.

    ``outcomes`` is None when the child crashed, timed out, exited non-zero
    or printed no JSON: then every expected case fails.  Otherwise a case
    fails when it is missing, extra (also counted as attempted), or has
    another method or outcome than pinned -- a ``skipped`` case or a
    discrepancy turned into ``match`` included.
    """
    total = sum(len(v) for v in expected.values())
    if outcomes is None:
        return Grade(total, total, ["no parsable output; every case counts as failed"])
    actual: dict[Key, list[tuple[str, str]]] = {}
    for o in outcomes:
        actual.setdefault(case_key(o["theorem"], o["params"]), []).append(
            (o["method"], o["outcome"])
        )
    result = Grade(total, 0)
    for key in list(expected) + [k for k in actual if k not in expected]:
        want, got = expected.get(key, []), actual.get(key, [])
        for i in range(max(len(want), len(got))):
            if i >= len(want):
                result.attempted += 1
                problem = f"extra case {got[i]}"
            elif i >= len(got):
                problem = f"missing case, expected {want[i]}"
            elif got[i] != want[i]:
                problem = f"expected {want[i]}, got {got[i]}"
            else:
                continue
            result.failed += 1
            result.problems.append(f"{key[0]} {dict(key[1])}: {problem}")
    return result


def _verify(theorem: str, n: str, *extra: str) -> tuple[str, ...]:
    return ("verify", "--theorem", theorem, "--n", n, *extra, "--format", "json")


def _cases(theorem: str, results, params) -> Expected:
    """``params`` yields param dicts; ``results(**p)`` gives their expected list."""
    return {case_key(theorem, p): results(**p) for p in params}


def _ns(lo: int, hi: int) -> range:
    return range(lo, hi + 1)


# Lemmas 53/54 over every 2 <= r < k < n <= 8.
QUOTIENT_GRID = tuple(
    (n, k, r) for n in _ns(4, 8) for k in range(3, n) for r in range(2, k)
)


def quotient_order(seed: int) -> list[tuple[int, int, int]]:
    grid = list(QUOTIENT_GRID)
    random.Random(seed).shuffle(grid)
    return grid


def _t13_irrep(seed: int) -> list[Invocation]:
    t13 = lambda params: _cases("13", lambda n, r: [("irrep", MATCH)], params)
    return [
        Invocation(
            "cli",
            _verify("13", "5-7", "--method", "irrep"),
            t13({"n": n, "r": r} for n in _ns(5, 7) for r in range(2, n - 1)),
        ),
        Invocation("cli", _verify("13", "8", "--r", "5", "--method", "irrep"),
                   t13([{"n": 8, "r": 5}])),
    ]


def _class_char(seed: int) -> list[Invocation]:
    per_n = lambda theorem, method, lo, hi: _cases(
        theorem, lambda n: [(method, MATCH)], ({"n": n} for n in _ns(lo, hi))
    )
    return [
        Invocation("cli", _verify("1A", "5-10", "--method", "char"), per_n("1A", "char", 5, 10)),
        Invocation("cli", _verify("1B", "5-10", "--method", "char"), per_n("1B", "char", 5, 10)),
        Invocation("cli", _verify("42", "5-26"), per_n("42", "char", 5, 26)),
        Invocation("cli", _verify("43", "5-26"), per_n("43", "char", 5, 26)),
    ]


def _oracles(seed: int) -> list[Invocation]:
    prefix = lambda lo, hi: ((n, r) for n in _ns(lo, hi) for r in range(2, n - 1))
    # The published mu2 expression agrees with the operator only for k = r + 1.
    t52 = lambda n, k, r: [("natural", MATCH if k == r + 1 else DISCREPANCY)]
    # The published third eigenvalue differs from the operator's for every r >= 2.
    l61 = lambda n, r: [("natural", MATCH), ("natural", DISCREPANCY)]
    quotients = {}
    for n, k, r in QUOTIENT_GRID:
        for theorem, which in (("53", "B1"), ("54", "B2")):
            quotients[case_key(theorem, {"n": n, "k": k, "r": r, "which": which})] = [
                ("quotient", MATCH)
            ]
    dense = lambda theorem: Invocation(
        "cli",
        _verify(theorem, "5-6", "--method", "dense"),
        _cases(theorem, lambda n: [("dense", MATCH)], ({"n": n} for n in _ns(5, 6))),
    )
    return [
        dense("1A"),
        dense("1B"),
        Invocation(
            "cli",
            _verify("13", "7", "--r", "2", "--method", "dense"),
            {case_key("13", {"n": 7, "r": 2}): [("dense", MATCH)]},
        ),
        Invocation(
            "cli",
            _verify("52", "5-8"),
            _cases(
                "52",
                t52,
                ({"n": n, "k": k, "r": r} for n, r in prefix(5, 8) for k in range(r + 1, n)),
            ),
        ),
        Invocation(
            "cli",
            _verify("61", "5-8"),
            _cases("61", l61, ({"n": n, "r": r} for n, r in prefix(5, 8))),
        ),
        Invocation("quotients", (str(seed),), quotients),
    ]


# Workload name -> (function making its invocations, layers that must fire when traced).
WORKLOADS = {
    "t13-irrep": (
        _t13_irrep,
        ("permutations.enumerate", "yor.assemble", "yor.block", "eigen.jacobi",
         "yor.expand", "eigen.cluster"),
    ),
    "class-char": (
        _class_char,
        ("yor.expand", "eigen.cluster", "characters.eigenvalue"),
    ),
    "oracles": (
        _oracles,
        ("permutations.enumerate", "graphs.adjacency", "graphs.dense_eig",
         "graphs.natural_matrix", "equitable.quotient", "eigen.exact", "eigen.cluster"),
    ),
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocations in the order the seed gives.

    Every invocation gets its own fresh character cache, so the order changes
    no result and no amount of work; it only varies what runs next to what.
    """
    build, _ = WORKLOADS[workload]
    calls = build(seed)
    random.Random(seed).shuffle(calls)
    return calls


def required_layers(workload: str) -> tuple[str, ...]:
    return WORKLOADS[workload][1]
