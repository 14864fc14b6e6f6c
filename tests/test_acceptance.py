"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Tolerances are pinned here: 1e-6 for spectra (before integer snapping),
1e-10 for representation relation residuals, 1e-8 for trace-vs-character
agreement.
"""

import random
import time
from math import factorial

import numpy as np
import pytest

from snspectra import verify
from snspectra.characters import class_size, mn_character
from snspectra.diagrams import partitions_of
from snspectra.eigen import CLUSTER_TOL
from snspectra.equitable import counted_quotient, quotient_B1, quotient_B2, quotient_eigenvalues
from snspectra.formulas import (
    mu3_closed_form,
    mu_values,
    natural_multiplicities,
    prefix_lambda2,
    printed_third_eigenvalue_variant,
)
from snspectra.graphs import (
    build,
    dense_spectrum,
    natural_module_spectrum,
)
from snspectra.permutations import full_cycles, group_images, parse_spec, prefix_moving_cycles
from snspectra.yor import full_spectrum_via_irreps

from reference_checks import (
    as_permutations,
    cycle_type,
    enumerate_connecting_set,
    interlacing_check,
    relation_residual,
    split_by_last_point,
    split_sizes,
    weyl_check,
    yor_image,
)

SPECTRUM_TOL = 1e-6
YOR_TOL = 1e-10
TRACE_TOL = 1e-8


def criterion(capfd, number, description, check):
    try:
        check()
    except Exception:
        with capfd.disabled():
            print(f"acceptance {number}: FAIL -- {description}")
        raise
    with capfd.disabled():
        print(f"acceptance {number}: PASS -- {description}")


def timed_lambda2(spec_text, kind, method, budget_s):
    spec = parse_spec(spec_text)
    start = time.perf_counter()
    if method == "dense":
        report = dense_spectrum(build(kind, spec))
    else:
        report = full_spectrum_via_irreps(spec, kind)
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{spec_text} {method} took {elapsed:.1f}s"
    return report.lambda2


def test_criterion_01_full_cycles(capfd):
    def check():
        assert abs(timed_lambda2("C(5,5)", "alternating", "dense", 1.0) - 4) <= SPECTRUM_TOL
        assert abs(timed_lambda2("C(6,6)", "symmetric", "dense", 30.0) - 24) <= SPECTRUM_TOL
        assert abs(timed_lambda2("C(7,7)", "alternating", "irrep", 60.0) - 48) <= SPECTRUM_TOL

    criterion(capfd, 1, "lambda2 for all-n-cycle sets at n = 5, 6, 7", check)


def test_criterion_02_almost_full_cycles(capfd):
    def check():
        assert abs(timed_lambda2("C(5,4)", "symmetric", "dense", 1.0) - 6) <= SPECTRUM_TOL
        assert abs(timed_lambda2("C(6,5)", "alternating", "dense", 30.0) - 9) <= SPECTRUM_TOL
        assert abs(timed_lambda2("C(7,6)", "symmetric", "irrep", 60.0) - 60) <= SPECTRUM_TOL

    criterion(capfd, 2, "lambda2 for all-(n-1)-cycle sets at n = 5, 6, 7", check)


def test_criterion_03_prefix_moving(capfd):
    def check():
        for n in range(5, 9):
            for r in range(2, n - 1):
                out = verify.verify_T13(n, r, "irrep")
                assert out.outcome == "match", (n, r, out)
                if n <= 6:
                    out = verify.verify_T13(n, r, "dense")
                    assert out.outcome == "match", (n, r, out)

    criterion(
        capfd, 3,
        "lambda1 = r!(n-r), lambda2 = r!(n-r-1) for C(n,r+1;r), 5 <= n <= 8",
        check,
    )


def test_criterion_04_natural_module(capfd):
    def check():
        for n in range(4, 10):
            for k in range(3, n):
                for r in range(2, k):
                    mus = mu_values(n, k, r)
                    report = natural_module_spectrum(prefix_moving_cycles(n, k, r))
                    values = {int(v) for v, _ in report.eigenvalues}
                    assert values == set(mus), (n, k, r)
                    if k == r + 1:
                        expected = sorted(
                            (
                                (float(v), m)
                                for v, m in zip(mus, natural_multiplicities(n, r))
                                if m > 0
                            ),
                            key=lambda p: -p[0],
                        )
                        assert report.eigenvalues == expected, (n, r)
                        assert mus[2] == mu3_closed_form(n, r)
                        # the published "-r!" third-eigenvalue variant is not
                        # an eigenvalue identity: it never equals mu3
                        assert printed_third_eigenvalue_variant(n, r) != mus[2]
                    # the published mu2 expression is allowed to deviate only
                    # as a documented discrepancy
                    assert verify.verify_T52(n, k, r).ok, (n, k, r)

    criterion(
        capfd, 4,
        "natural-module spectra equal the mu-formulas for 2 <= r < k < n <= 9, "
        "with k = r+1 multiplicities (1, n-r-1, 1, r-1) and the published "
        "third-eigenvalue variant flagged",
        check,
    )


def test_criterion_05_quotients(capfd):
    def check():
        for n in range(4, 10):
            for k in range(3, n):
                for r in range(2, k):
                    mu1, mu2, mu3, mu4 = mu_values(n, k, r)
                    for which, closed, expected in (
                        ("B1", quotient_B1(n, k, r), {mu1, mu2, mu3}),
                        ("B2", quotient_B2(n, k, r), {mu1, mu3, mu4}),
                    ):
                        equitable, counted = counted_quotient(n, k, r)[which]
                        assert equitable, (n, k, r, which)
                        assert counted == closed, (n, k, r, which)
                        assert set(quotient_eigenvalues(closed)) == expected, (n, k, r, which)

    criterion(
        capfd, 5,
        "closed-form B1/B2 equal neighbor-counted quotients for "
        "2 <= r < k < n <= 9 with eigenvalue sets {mu1,mu2,mu3} / {mu1,mu3,mu4}",
        check,
    )


def test_criterion_06_character_ratios(capfd):
    def check():
        for n in range(5, 10):
            assert verify.verify_L42(n).outcome == "match", n
            assert verify.verify_L43(n).outcome == "match", n

    criterion(
        capfd, 6,
        "exhaustive character-ratio maximization returns the stated argmax "
        "diagrams and exact ratios for 5 <= n <= 9",
        check,
    )


def test_criterion_07_property_suites(capfd):
    def check():
        # character orthogonality
        for n in range(2, 9):
            shapes = partitions_of(n)
            chi = {(a, c): mn_character(a, c) for a in shapes for c in shapes}
            for a in shapes:
                for b in shapes:
                    total = sum(class_size(c) * chi[a, c] * chi[b, c] for c in shapes)
                    assert total == (factorial(n) if a == b else 0)
        # representation relation residuals
        for n in range(2, 7):
            for shape in partitions_of(n):
                assert relation_residual(shape) < YOR_TOL
        # trace vs exact character
        reps = {cycle_type(g): g for g in as_permutations(group_images("symmetric", 6))}
        for shape in partitions_of(6):
            for ctype, g in reps.items():
                trace = float(np.trace(yor_image(shape, g)))
                assert abs(trace - mn_character(shape, ctype)) < TRACE_TOL
        # dense vs irrep agreement, multiplicities included, on both groups
        for kind, spec_text in (
            ("symmetric", "C(5,4)"),
            ("symmetric", "C(5,3;2)"),
            ("symmetric", "C(4,4)"),
            ("alternating", "C(5,5)"),
            ("alternating", "C(6,3;2)"),
            ("alternating", "C(6,5)"),
        ):
            spec = parse_spec(spec_text)
            dense = dense_spectrum(build(kind, spec))
            irrep = full_spectrum_via_irreps(spec, kind)
            assert len(dense.eigenvalues) == len(irrep.eigenvalues)
            for (dv, dm), (iv, im) in zip(dense.eigenvalues, irrep.eigenvalues):
                assert abs(dv - iv) <= SPECTRUM_TOL and dm == im
        # bipartite spectrum symmetry for an odd connecting set
        report = dense_spectrum(build("symmetric", parse_spec("C(5,4)")))
        values = report.eigenvalues
        assert values == sorted([(-v, m) for v, m in values], reverse=True)
        # interlacing and sqrt(d) bounds on randomized vertex deletions
        graph = build("alternating", full_cycles(5, 5))
        rng = random.Random(0)
        for v in rng.sample(range(graph.size), 20):
            assert interlacing_check(graph, v).ok, v
        # Weyl inequalities on the fix-the-last-point split
        for n in range(5, 8):
            for r in range(2, n - 1):
                connecting = enumerate_connecting_set(prefix_moving_cycles(n, r + 1, r))
                fixing, moving = split_by_last_point(connecting)
                assert (len(fixing), len(moving)) == split_sizes(n, r)
                assert all(rep.holds for rep in weyl_check(n, fixing, moving))

    criterion(
        capfd, 7,
        "property suites: orthogonality, relation residuals, trace agreement, "
        "dense-vs-irrep, bipartite symmetry, interlacing, Weyl split",
        check,
    )


def test_criterion_08_large_block_bound(capfd):
    def check():
        for n in range(5, 10):
            for r in range(2, n - 1):
                bound = prefix_lambda2(n, r)
                for shape, dim, top in verify.theorem_65_max_block_eigenvalues(n, r):
                    assert dim > n - 1
                    assert top <= bound + SPECTRUM_TOL, (n, r, shape)

    criterion(
        capfd, 8,
        "max eigenvalue of every block of dimension > n-1 is at most "
        "r!(n-r-1) for C(n,r+1;r), n <= 9",
        check,
    )
