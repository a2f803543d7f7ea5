"""Correctness tests: every paper workload executed end-to-end vs numpy."""

import numpy as np
import pytest

from repro.core.executor import run_program
from repro.errors import ValidationError
from repro.workloads.chains import (
    build_chain_program,
    build_multiply_program,
    build_power_iteration_program,
    reference_power_iteration,
)
from repro.workloads.gnmf import build_gnmf_program, reference_gnmf
from repro.workloads.regression import (
    build_normal_equations_program,
    solve_normal_equations,
)
from repro.workloads.rsvd import (
    build_rsvd_program,
    reference_rsvd,
    sketch_quality,
)

RNG = np.random.default_rng(11)


class TestMultiply:
    def test_simple(self):
        a = RNG.random((40, 24))
        b = RNG.random((24, 56))
        program = build_multiply_program(40, 24, 56)
        result = run_program(program, {"A": a, "B": b}, tile_size=16)
        np.testing.assert_allclose(result.output("C"), a @ b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            build_multiply_program(0, 4, 4)


class TestChain:
    def test_three_matrices(self):
        mats = [RNG.random((20, 20)) for __ in range(3)]
        program = build_chain_program(20, 3)
        result = run_program(program,
                             {f"M{i}": m for i, m in enumerate(mats)},
                             tile_size=8)
        np.testing.assert_allclose(result.output("C"),
                                   mats[0] @ mats[1] @ mats[2])

    def test_validation(self):
        with pytest.raises(ValidationError):
            build_chain_program(10, 1)


class TestGNMF:
    def test_matches_reference(self):
        v = RNG.random((30, 24)) + 0.01
        w0 = RNG.random((30, 3)) + 0.01
        h0 = RNG.random((3, 24)) + 0.01
        program = build_gnmf_program(30, 24, 3, iterations=4)
        result = run_program(program, {"V": v, "W0": w0, "H0": h0},
                             tile_size=8)
        w_ref, h_ref = reference_gnmf(v, w0, h0, 4)
        np.testing.assert_allclose(result.output("W"), w_ref, rtol=1e-8)
        np.testing.assert_allclose(result.output("H"), h_ref, rtol=1e-8)

    def test_objective_decreases(self):
        v = RNG.random((40, 30)) + 0.01
        w0 = RNG.random((40, 4)) + 0.01
        h0 = RNG.random((4, 30)) + 0.01
        w1, h1 = reference_gnmf(v, w0, h0, 1)
        w5, h5 = reference_gnmf(v, w0, h0, 5)
        assert np.linalg.norm(v - w5 @ h5) < np.linalg.norm(v - w1 @ h1)

    def test_program_statement_count_scales_with_iterations(self):
        one = build_gnmf_program(16, 16, 2, iterations=1)
        three = build_gnmf_program(16, 16, 2, iterations=3)
        assert len(three.statements) == 3 * len(one.statements)

    def test_validation(self):
        with pytest.raises(ValidationError):
            build_gnmf_program(10, 10, 20, 1)
        with pytest.raises(ValidationError):
            build_gnmf_program(10, 10, 2, 0)


class TestRSVD:
    def test_matches_reference(self):
        a = RNG.standard_normal((36, 28))
        g = RNG.standard_normal((28, 5))
        program = build_rsvd_program(36, 28, 5, power_iterations=2)
        result = run_program(program, {"A": a, "G": g}, tile_size=8)
        np.testing.assert_allclose(result.output("B"),
                                   reference_rsvd(a, g, 2), rtol=1e-8)

    def test_zero_power_iterations(self):
        a = RNG.standard_normal((16, 12))
        g = RNG.standard_normal((12, 3))
        program = build_rsvd_program(16, 12, 3, power_iterations=0)
        result = run_program(program, {"A": a, "G": g}, tile_size=8)
        np.testing.assert_allclose(result.output("B"), a @ g)

    def test_sketch_captures_low_rank_structure(self):
        rank = 4
        left = RNG.standard_normal((60, rank))
        right = RNG.standard_normal((rank, 50))
        a = left @ right
        g = RNG.standard_normal((50, rank + 2))
        b = reference_rsvd(a, g, power_iterations=2)
        assert sketch_quality(a, b) > 0.99

    def test_validation(self):
        with pytest.raises(ValidationError):
            build_rsvd_program(10, 10, 0)
        with pytest.raises(ValidationError):
            build_rsvd_program(10, 10, 2, power_iterations=-1)


class TestRegression:
    def test_normal_equations_match(self):
        x = RNG.standard_normal((50, 6))
        y = RNG.standard_normal((50, 1))
        program = build_normal_equations_program(50, 6)
        result = run_program(program, {"X": x, "y": y}, tile_size=16)
        np.testing.assert_allclose(result.output("XtX"), x.T @ x, rtol=1e-8)
        np.testing.assert_allclose(result.output("Xty"), x.T @ y, rtol=1e-8)

    def test_end_to_end_recovers_weights(self):
        from repro.data.generators import regression_dataset
        x, y, w_true = regression_dataset(400, 5, seed=3, noise=0.01)
        program = build_normal_equations_program(400, 5)
        result = run_program(program,
                             {"X": x.to_numpy(), "y": y.to_numpy()},
                             tile_size=64)
        w_hat = solve_normal_equations(result.output("XtX"),
                                       result.output("Xty"))
        np.testing.assert_allclose(w_hat.ravel(), w_true, atol=0.05)

    def test_ridge_solver(self):
        xtx = np.eye(3)
        xty = np.ones((3, 1))
        w = solve_normal_equations(xtx, xty, ridge=1.0)
        np.testing.assert_allclose(w, np.full((3, 1), 0.5))

    def test_validation(self):
        with pytest.raises(ValidationError):
            build_normal_equations_program(0, 5)
        with pytest.raises(ValidationError):
            solve_normal_equations(np.eye(2), np.ones((2, 1)), ridge=-1.0)


class TestPowerIteration:
    def test_matches_reference(self):
        n = 24
        adjacency = RNG.random((n, n))
        adjacency /= adjacency.sum(axis=0, keepdims=True)
        r0 = np.full((n, 1), 1.0 / n)
        program = build_power_iteration_program(n, iterations=5)
        result = run_program(program, {"A": adjacency, "r0": r0}, tile_size=8)
        expected = reference_power_iteration(adjacency, r0, 5)
        np.testing.assert_allclose(result.output("r"), expected, rtol=1e-8)

    def test_rank_mass_conserved(self):
        n = 16
        adjacency = RNG.random((n, n))
        adjacency /= adjacency.sum(axis=0, keepdims=True)
        r0 = np.full((n, 1), 1.0 / n)
        rank = reference_power_iteration(adjacency, r0, 20)
        assert rank.sum() == pytest.approx(1.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            build_power_iteration_program(10, 0)
        with pytest.raises(ValidationError):
            build_power_iteration_program(10, 5, damping=1.5)


class TestLogistic:
    def test_matches_reference(self):
        from repro.workloads.logistic import (
            build_logistic_program,
            classification_dataset,
            reference_logistic,
        )
        x, y, __ = classification_dataset(40, 5, seed=8)
        w0 = np.zeros((5, 1))
        program = build_logistic_program(40, 5, iterations=4,
                                         learning_rate=0.1)
        result = run_program(program, {"X": x, "y": y, "w0": w0}, tile_size=8)
        expected = reference_logistic(x, y, w0, 4, 0.1)
        np.testing.assert_allclose(result.output("w"), expected, rtol=1e-8)

    def test_training_improves_accuracy(self):
        from repro.workloads.logistic import (
            accuracy,
            classification_dataset,
            reference_logistic,
        )
        x, y, __ = classification_dataset(400, 6, seed=9)
        w0 = np.zeros((6, 1))
        untrained = accuracy(x, y, w0)
        trained = accuracy(x, y, reference_logistic(x, y, w0, 50, 0.01))
        assert trained > untrained
        assert trained > 0.7

    def test_sigmoid_density_densifies(self):
        from repro.core.expr import Var
        node = Var("A", (4, 4), density=0.1).apply("sigmoid")
        assert node.density == 1.0

    def test_validation(self):
        from repro.workloads.logistic import build_logistic_program
        with pytest.raises(ValidationError):
            build_logistic_program(0, 5, 3, 0.1)
        with pytest.raises(ValidationError):
            build_logistic_program(10, 5, 3, 0.0)


class TestPCA:
    def test_matches_reference(self):
        from repro.workloads.pca import build_pca_program, reference_pca
        x = RNG.random((60, 20)) + 0.1
        g = RNG.standard_normal((20, 5))
        program = build_pca_program(60, 20, 5)
        result = run_program(program, {"X": x, "G": g}, tile_size=8)
        sketch_ref, cov_ref = reference_pca(x, g)
        np.testing.assert_allclose(result.output("S"), sketch_ref, rtol=1e-7)
        np.testing.assert_allclose(result.output("C"), cov_ref, rtol=1e-7)

    def test_captures_planted_structure(self):
        from repro.workloads.pca import (
            build_pca_program,
            explained_variance_ratio,
            principal_components,
            reference_pca,
        )
        rng = np.random.default_rng(77)
        # Two dominant directions + small isotropic noise.
        basis = rng.standard_normal((12, 2))
        scores = rng.standard_normal((300, 2)) * np.array([5.0, 3.0])
        x = scores @ basis.T + 0.1 * rng.standard_normal((300, 12))
        g = rng.standard_normal((12, 4))
        sketch, covariance = reference_pca(x, g)
        components = principal_components(sketch, 2)
        assert explained_variance_ratio(covariance, components) > 0.8

    def test_validation(self):
        from repro.workloads.pca import build_pca_program, principal_components
        with pytest.raises(ValidationError):
            build_pca_program(10, 5, 6)
        with pytest.raises(ValidationError):
            principal_components(np.ones((4, 2)), 3)


class TestSoftKMeans:
    def test_matches_reference(self):
        from repro.workloads.kmeans import (
            build_soft_kmeans_program,
            clustered_dataset,
            reference_soft_kmeans,
        )
        x, __ = clustered_dataset(48, 6, 3, seed=12)
        rng = np.random.default_rng(4)
        c0 = x[rng.choice(48, 3, replace=False)]
        program = build_soft_kmeans_program(48, 6, 3, iterations=3)
        result = run_program(program, {"X": x, "C0": c0}, tile_size=16)
        expected = reference_soft_kmeans(x, c0, 3)
        np.testing.assert_allclose(result.output("C"), expected, rtol=1e-7)

    def test_recovers_planted_centers(self):
        # Soft k-means is a local optimizer: start from perturbed truth
        # (random restarts handle the global problem in practice).
        from repro.workloads.kmeans import (
            centroid_match_error,
            clustered_dataset,
            reference_soft_kmeans,
        )
        x, truth = clustered_dataset(300, 4, 4, seed=5, spread=0.05)
        rng = np.random.default_rng(9)
        c0 = truth + 0.4 * rng.standard_normal(truth.shape)
        found = reference_soft_kmeans(x, c0, 15)
        assert centroid_match_error(found, truth) \
            < centroid_match_error(c0, truth) / 3
        assert centroid_match_error(found, truth) < 0.1

    def test_iterations_improve_fit(self):
        from repro.workloads.kmeans import (
            centroid_match_error,
            clustered_dataset,
            reference_soft_kmeans,
        )
        x, truth = clustered_dataset(200, 4, 3, seed=6, spread=0.05)
        rng = np.random.default_rng(2)
        c0 = x[rng.choice(200, 3, replace=False)] \
            + rng.standard_normal((3, 4))
        early = reference_soft_kmeans(x, c0, 1)
        late = reference_soft_kmeans(x, c0, 12)
        assert centroid_match_error(late, truth) \
            <= centroid_match_error(early, truth)

    def test_validation(self):
        from repro.workloads.kmeans import build_soft_kmeans_program
        with pytest.raises(ValidationError):
            build_soft_kmeans_program(10, 4, 0, 3)
        with pytest.raises(ValidationError):
            build_soft_kmeans_program(10, 4, 2, 3, beta=0.0)
