import dataclasses

import numpy as np
import pytest

from sqcflow import catalog, estimate, flows, solvers
from sqcflow.core import (DomainExit, DomainSamplingFailure, DomainSpec,
                          FunctionOracle, InsufficientSamples)
from sqcflow.flows import FlowConfig
from sqcflow.verify import SampleBudget, check_strong_quasiconvexity

CAT = catalog.default_catalog()


class TestLipschitzEstimate:
    def test_anisotropic_quadratic(self):
        entry = CAT["quadratic_2d"]
        L = estimate.estimate_lipschitz_sublevel(entry.oracle, [1.0, 1.0],
                                                 samples=2000, seed=0)
        assert 4.0 <= L <= 4.4

    def test_half_square(self):
        L = estimate.estimate_lipschitz_sublevel(CAT["quadratic_1d"].oracle,
                                                 [1.0], samples=1000, seed=0)
        assert 1.0 <= L <= 1.1

    def test_sin_quadratic(self):
        # curvature 2 + 6 cos 2x peaks at 8 near the origin
        L = estimate.estimate_lipschitz_sublevel(CAT["sin_quadratic"].oracle,
                                                 [2.0], samples=3000, seed=0)
        assert 7.1 <= L <= 8.8

    def test_monotone_refinement(self):
        entry = CAT["sin_quadratic"]
        L1 = estimate.estimate_lipschitz_sublevel(entry.oracle, [2.0],
                                                  samples=500, seed=4)
        L2 = estimate.estimate_lipschitz_sublevel(entry.oracle, [2.0],
                                                  samples=1000, seed=4)
        assert L2 >= L1

    def test_start_outside_the_domain(self):
        with pytest.raises(DomainExit, match="x0 outside the domain"):
            estimate.estimate_lipschitz_sublevel(CAT["sqrt_norm_2d"].oracle,
                                                 [3.0, 3.0])

    def test_unbounded_sublevel_fails(self):
        with pytest.raises(DomainSamplingFailure):
            estimate.estimate_lipschitz_sublevel(
                CAT["degenerate_quadratic"].oracle, [1.0, 1.0], samples=100,
                seed=0)


class TestEmpiricalModulus:
    def test_quadratic_is_one(self):
        oracle = dataclasses.replace(CAT["quadratic_1d"].oracle,
                                     domain=DomainSpec.box([-1.0], [1.0]))
        gamma = estimate.empirical_modulus(oracle, samples=5000, seed=0)
        assert gamma == pytest.approx(1.0, abs=0.02)

    def test_linear_is_zero_on_large_region(self):
        lin = FunctionOracle(
            dim=1, value=lambda x: np.asarray(x)[..., 0],
            grad=lambda x: np.ones_like(np.asarray(x, dtype=float)[..., 0:1]),
            domain=DomainSpec.box([-1e6], [1e6]))
        gamma = estimate.empirical_modulus(lin, samples=20_000, seed=0)
        assert 0.0 <= gamma < 1e-4

    def test_sin_quadratic_certifiable(self):
        entry = CAT["sin_quadratic"]
        gamma = estimate.empirical_modulus(entry.oracle, samples=50_000,
                                           seed=3)
        assert gamma > 0
        report = check_strong_quasiconvexity(
            entry.oracle, gamma * estimate.SAFETY_MODULUS,
            SampleBudget(pairs=5000, seed=11))
        assert report.holds_on_samples

    def test_monotone_refinement(self):
        entry = CAT["sin_quadratic"]
        g1 = estimate.empirical_modulus(entry.oracle, samples=2000, seed=4)
        g2 = estimate.empirical_modulus(entry.oracle, samples=4000, seed=4)
        assert g2 <= g1

    def test_insufficient_samples(self):
        with pytest.raises(Exception):
            estimate.empirical_modulus(CAT["quadratic_1d"].oracle, samples=2,
                                       seed=0)


class TestKappa:
    def traj(self, entry, x0, t_end=3.0):
        return flows.integrate_first_order(
            entry.oracle, FlowConfig(x0=x0, t_end=t_end, dt=1e-3))

    def test_half_square_ratio_is_two(self):
        entry = CAT["quadratic_1d"]
        k = estimate.estimate_kappa(entry.oracle, self.traj(entry, [1.0]),
                                    entry.oracle.known_minimizer)
        assert k == pytest.approx(1.9)

    def test_convex_entries_at_least_one(self):
        # max_two_quadratics is nonsmooth at its minimizer (0.5, 0); a
        # gradient run cannot certify it, so the analytic point is passed
        minimizers = {"max_two_quadratics": np.array([0.5, 0.0])}
        for name in ("quadratic_2d", "quadratic_fraction", "max_two_quadratics"):
            entry = CAT[name]
            x_bar = minimizers.get(name, entry.oracle.known_minimizer)
            traj = self.traj(entry, [0.9, 0.7])
            k = estimate.estimate_kappa(entry.oracle, traj, x_bar)
            assert k >= 0.95

    def test_reference_run_stagnates_on_nonsmooth_minimizer(self):
        from sqcflow.core import StagnationFailure
        with pytest.raises(StagnationFailure):
            estimate.reference_minimizer(CAT["max_two_quadratics"].oracle,
                                         [0.4, 0.1])

    def test_gamma_over_L_lower_bound(self):
        entry = CAT["quadratic_2d"]
        k = estimate.estimate_kappa(entry.oracle, self.traj(entry, [1.0, 1.0]),
                                    entry.oracle.known_minimizer)
        assert k >= 0.95 * 1.0 / 4.0

    def test_no_valid_samples(self):
        entry = CAT["quadratic_1d"]
        traj = flows.integrate_first_order(
            entry.oracle, FlowConfig(x0=[1e-9], t_end=0.1, dt=1e-2))
        with pytest.raises(InsufficientSamples):
            estimate.estimate_kappa(entry.oracle, traj,
                                    entry.oracle.known_minimizer)


class TestReferenceMinimizer:
    def test_sin_quadratic(self):
        x = estimate.reference_minimizer(CAT["sin_quadratic"].oracle, [2.0])
        assert abs(x[0]) < 1e-8

    def test_shifted_quadratic(self):
        entry = catalog.shifted_isotropic_quadratic(2, [0.3, -0.7])
        x = estimate.reference_minimizer(entry.oracle, [2.0, 2.0])
        assert np.linalg.norm(x - [0.3, -0.7]) < 1e-10

    def test_quadratic_fraction(self):
        x = estimate.reference_minimizer(CAT["quadratic_fraction"].oracle,
                                         [1.5, -0.5])
        assert np.linalg.norm(x) < 1e-8


class TestCrossEstimateInvariants:
    @pytest.mark.parametrize("name,x0", [
        ("quadratic_1d", [1.0]),
        ("quadratic_2d", [1.0, 1.0]),
        ("quadratic_3d", [1.0, 1.0, 1.0]),
        ("sin_quadratic", [2.0]),
        ("sqrt_norm_2d", [0.5, 0.5]),
    ])
    def test_modulus_below_lipschitz(self, name, x0):
        entry = CAT[name]
        gamma = estimate.empirical_modulus(entry.oracle, samples=5000,
                                           seed=6)
        L = estimate.estimate_lipschitz_sublevel(entry.oracle, x0,
                                                 samples=1000, seed=6)
        assert gamma <= L * 1.2

    def test_safety_adjusted_window_nonempty(self):
        for name, x0 in (("quadratic_2d", [1.0, 1.0]), ("sin_quadratic", [2.0])):
            entry = CAT[name]
            gamma = estimate.empirical_modulus(entry.oracle, samples=5000,
                                               seed=6) * estimate.SAFETY_MODULUS
            L = estimate.estimate_lipschitz_sublevel(entry.oracle, x0,
                                                     samples=1000, seed=6)
            assert gamma > 0
            assert solvers.step_window(gamma, L) > 0
            assert solvers.optimal_step(gamma, L) < solvers.step_window(gamma, L)
