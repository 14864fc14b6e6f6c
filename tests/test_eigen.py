import contextlib
import io
import random
from collections import Counter
from math import factorial

import numpy as np
import pytest

from snspectra import cli, eigen
from snspectra.eigen import (
    NonIntegerSpectrumError,
    SpectrumReport,
    charpoly_int,
    check_cayley_invariants,
    cluster_eigenvalues,
    exact_integer_eigenvalues,
    integer_roots,
    snap_to_integer,
)

from reference_checks import weyl_upper_bounds_hold


class TestClustering:
    def test_snap(self):
        assert type(snap_to_integer(3.9999999)) is int
        assert snap_to_integer(3.9999999) == 4
        assert snap_to_integer(3.9) == 3.9
        assert snap_to_integer(factorial(39)) == factorial(39)

    def test_cluster_merges_and_sorts(self):
        clustered = cluster_eigenvalues([(2.0, 1), (-1.0 + 2e-7, 1), (2.0 + 3e-7, 1), (-1.0, 1)])
        assert clustered == [(2, 2), (-1, 2)]
        assert all(type(v) is int for v, _ in clustered)

    def test_equal_ints_stay_exact(self):
        big = factorial(39)  # no float is this integer
        clustered = cluster_eigenvalues([(big, 2), (0, 5), (big, 10**18), (-big, 1)])
        assert clustered == [(big, 10**18 + 2), (0, 5), (-big, 1)]
        assert all(type(v) is int for v, _ in clustered)

    def test_distinct_values_survive(self):
        clustered = cluster_eigenvalues([(1.0, 1), (0.5, 1), (0.0, 1)])
        assert clustered == [(1.0, 1), (0.5, 1), (0.0, 1)]

    def test_weighted_pairs(self):
        # Multiplicities add up and weight the cluster representative.
        clustered = cluster_eigenvalues([(0.25, 3), (-1.0, 10**18), (0.25 + 4e-7, 1)])
        assert clustered == [(pytest.approx(0.25 + 1e-7, abs=1e-12), 4), (-1.0, 10**18)]

    def test_empty(self):
        assert cluster_eigenvalues([]) == []


class TestSpectrumReport:
    def test_lambda_fields(self):
        report = SpectrumReport([(24.0, 2), (4.0, 36), (0.0, 50)], "dense")
        assert report.lambda1 == 24.0
        assert report.lambda2 == 4.0
        assert report.size == 88
        assert report.distinct() == (24.0, 4.0, 0.0)

    def test_trace(self):
        report = SpectrumReport([(2.0, 3), (-1.0, 6)], "irrep")
        assert report.trace() == 0.0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SpectrumReport([(1.0, 1), (2.0, 1)], "dense")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            SpectrumReport([(1.0, 1)], "magic")


class TestCayleyInvariants:
    # Cay(Alt(5), C(5,5)): |G| = 60, |H| = 24, an integral spectrum.
    ALT5 = [(24, 1), (4, 18), (0, 25), (-6, 16)]
    # Two copies of K_{D,D}: D, 0 and -D, far above 2**53.
    BIG = [(2**60, 2), (0, 2**62 - 4), (-(2**60), 2)]
    # The 5-cycle, Cay(Z/5, {1, -1}): 2 and 2cos(2 pi j / 5), each twice.
    CYCLE5 = [(2.0, 1), (2 * np.cos(2 * np.pi / 5), 2), (2 * np.cos(4 * np.pi / 5), 2)]

    def test_true_spectra_pass(self):
        check_cayley_invariants(self.ALT5, 60, 24)
        check_cayley_invariants(self.CYCLE5, 5, 2)
        check_cayley_invariants(self.BIG, 2**62, 2**60)

    @pytest.mark.parametrize(
        "pairs, order, degree",
        [
            ([(24.0, 1), (4.0, 17), (0.0, 26), (-6.0, 16)], 60, 24),  # sum v m
            ([(24.0, 1), (4.0, 18), (0.0, 25), (-6.0, 16)], 120, 24),  # sum m
            ([(25.0, 1), (4.0, 18), (0.0, 25), (-6.0, 16)], 60, 24),  # lambda1
            ([(24.0, 1), (6.0, 12), (0.0, 31), (-6.0, 16)], 60, 24),  # sum v^2 m
            ([(2.0, 1), (0.618034, 2), (-1.618034, 2)], 5, 2),  # 6 decimals: sum v^2 m
            # ints above 2**53 are checked exactly: sum v m = 1
            ([(2**60, 2), (0, 2**62 - 4), (1 - 2**60, 1), (-(2**60), 1)], 2**62, 2**60),
        ],
    )
    def test_tampered_pairs_raise(self, pairs, order, degree):
        with pytest.raises(ArithmeticError, match="invariants fail"):
            check_cayley_invariants(pairs, order, degree)

    def test_float_rounding_within_relative_tolerance(self):
        pairs = [(v * (1 + 1e-13), m) for v, m in self.CYCLE5]
        check_cayley_invariants(pairs, 5, 2)


class TestCharpoly:
    def test_two_by_two(self):
        # det(xI - [[1,2],[3,4]]) = x^2 - 5x - 2
        assert charpoly_int([[1, 2], [3, 4]]) == [1, -5, -2]

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(7)
        m = rng.integers(-4, 5, size=(5, 5))
        coeffs = charpoly_int(m.tolist())
        ours = np.roots([float(c) for c in coeffs])
        reference = np.linalg.eigvals(m.astype(float))
        assert np.allclose(sorted(ours.real), sorted(reference.real), atol=1e-6)
        assert np.allclose(sorted(ours.imag), sorted(reference.imag), atol=1e-6)


def bareiss_determinant(matrix):
    """det of an integer matrix by fraction-free Bareiss elimination."""
    a = [list(row) for row in matrix]
    n, sign, previous = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if n else 1


class TestCharpolyAgainstDeterminants:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_values_are_det_xI_minus_M(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            m = rng.integers(-9, 10, size=(n, n)).tolist()
            coeffs = charpoly_int(m)
            assert len(coeffs) == n + 1 and coeffs[0] == 1
            for x in range(n + 1):
                shifted = [[x * (i == j) - m[i][j] for j in range(n)] for i in range(n)]
                value = sum(c * x ** (n - d) for d, c in enumerate(coeffs))
                assert value == bareiss_determinant(shifted), (m, x)


def poly_at(coeffs, x):
    """p(x) by the power sum, leading coefficient first."""
    return sum(c * x ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))


def from_roots(roots, factor=(1,)):
    """Coefficients of factor * prod(x - root), leading term first."""
    poly = list(factor)
    for root in roots:
        poly = [a - root * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


class TestIntegerRoots:
    def test_simple_factorization(self):
        # (x - 2)^2 (x + 3) = x^3 - x^2 - 8x + 12
        assert integer_roots([1, -1, -8, 12]) == {2: 2, -3: 1}

    def test_zero_roots(self):
        assert integer_roots([1, -1, 0, 0]) == {0: 2, 1: 1}

    def test_irrational_spectrum_raises(self):
        with pytest.raises(NonIntegerSpectrumError):
            integer_roots([1, 0, -2])  # x^2 - 2

    def test_repeated_negative_and_zero_roots(self):
        roots = [0, 0, -2, -2, -2, 5, 5, 1, -7]
        assert integer_roots(from_roots(roots)) == {0: 2, 1: 1, -2: 3, 5: 2, -7: 1}

    def test_non_integer_factor_left_after_the_integer_roots_raises(self):
        # (x - 3)^2 (x + 1) (x^2 - 2): the descent deflates out 3 twice, then
        # steps past sqrt(2) before it reaches -1.
        coeffs = from_roots([3, 3, -1], factor=(1, 0, -2))
        with pytest.raises(
            NonIntegerSpectrumError,
            match=r"^degree-3 factor \[1, 1, -2, -2\] has a root that is not an integer$",
        ):
            integer_roots(coeffs)

    @pytest.mark.parametrize("seed", range(40))
    def test_roots_of_integer_products(self, seed):
        rng = random.Random(seed)
        pool = [0, 1, -1, factorial(40), -factorial(40)] + [
            rng.randint(-(10 ** rng.randint(1, 30)), 10 ** rng.randint(1, 30)) for _ in range(4)
        ]
        roots = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
        found = integer_roots(from_roots(roots))
        assert found == Counter(roots)
        assert list(found) == sorted(found, reverse=True)

    @pytest.mark.parametrize("seed", range(40))
    def test_non_integer_roots_raise(self, seed):
        # A monic factor none of whose constant term's divisors is a root has
        # no integer root (rational root theorem).
        rng = random.Random(seed)
        while True:
            factor = [1] + [rng.randint(-20, 20) for _ in range(rng.randint(1, 4))]
            c0 = abs(factor[-1])
            divisors = [d for d in range(1, c0 + 1) if c0 % d == 0]
            if c0 and all(poly_at(factor, x) for d in divisors for x in (d, -d)):
                break
        roots = [rng.randint(-50, 50) for _ in range(rng.randint(0, 6))]
        with pytest.raises(NonIntegerSpectrumError):
            integer_roots(from_roots(roots, factor))

    def test_one_scan_on_theorem_52(self, monkeypatch):
        # Each call gives p and p' at one point of the Newton descent.
        calls = []
        evaluate = eigen._eval_poly
        monkeypatch.setattr(eigen, "_eval_poly", lambda *args: calls.append(1) or evaluate(*args))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--theorem", "52", "--n", "5-8", "--format", "json"]) == 0
        assert 0 < len(calls) <= 3700

    def test_exact_eigenvalues(self):
        # Quotient-style matrix with known integer spectrum {8, 6, 2}.
        pairs = exact_integer_eigenvalues([[6, 2, 0], [1, 4, 3], [0, 2, 6]])
        assert pairs == [(8, 1), (6, 1), (2, 1)]


class TestWeyl:
    @pytest.mark.parametrize("seed", range(5))
    def test_holds_on_random_symmetric_pairs(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6))
        a, b = a + a.T, b + b.T
        alpha = np.linalg.eigvalsh(a)[::-1]
        beta = np.linalg.eigvalsh(b)[::-1]
        gamma = np.linalg.eigvalsh(a + b)[::-1]
        assert weyl_upper_bounds_hold(alpha, beta, gamma)

    def test_detects_violation(self):
        assert not weyl_upper_bounds_hold([1.0, 0.0], [1.0, 0.0], [5.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            weyl_upper_bounds_hold([1.0], [1.0, 0.0], [1.0, 0.0])
