import numpy as np
import pytest

from snspectra.eigen import (
    NonIntegerSpectrumError,
    SpectrumReport,
    charpoly_int,
    cluster_eigenvalues,
    exact_integer_eigenvalues,
    integer_roots,
    is_exact_root,
    snap_to_integer,
    weyl_upper_bounds_hold,
)


class TestClustering:
    def test_snap(self):
        assert snap_to_integer(3.9999999) == 4.0
        assert snap_to_integer(3.9) == 3.9

    def test_cluster_merges_and_sorts(self):
        clustered = cluster_eigenvalues([(2.0, 1), (-1.0 + 2e-7, 1), (2.0 + 3e-7, 1), (-1.0, 1)])
        assert clustered == [(2.0, 2), (-1.0, 2)]

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


class TestIntegerRoots:
    def test_simple_factorization(self):
        # (x - 2)^2 (x + 3) = x^3 - x^2 - 8x + 12
        assert integer_roots([1, -1, -8, 12]) == {2: 2, -3: 1}

    def test_zero_roots(self):
        assert integer_roots([1, -1, 0, 0]) == {0: 2, 1: 1}

    def test_irrational_spectrum_raises(self):
        with pytest.raises(NonIntegerSpectrumError):
            integer_roots([1, 0, -2])  # x^2 - 2

    def test_exact_eigenvalues(self):
        # Quotient-style matrix with known integer spectrum {8, 6, 2}.
        pairs = exact_integer_eigenvalues([[6, 2, 0], [1, 4, 3], [0, 2, 6]])
        assert pairs == [(8, 1), (6, 1), (2, 1)]

    def test_is_exact_root(self):
        m = [[6, 2, 0], [1, 4, 3], [0, 2, 6]]
        assert is_exact_root(m, 8)
        assert not is_exact_root(m, 7)


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
