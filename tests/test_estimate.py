import dataclasses
import tracemalloc

import numpy as np
import pytest

from sqcflow import catalog, estimate, flows, sampling, solvers, verify
from sqcflow.cli import _start
from sqcflow.core import (DomainExit, DomainSamplingFailure, DomainSpec,
                          FunctionOracle, InsufficientSamples, MissingMinimizer,
                          NumericalBlowup)
from sqcflow.flows import FlowConfig
from sqcflow.sampling import sample_points
from sqcflow.verify import SampleBudget, check_strong_quasiconvexity

CAT = catalog.default_catalog()


class TestLipschitzEstimate:
    def test_anisotropic_quadratic(self):
        entry = CAT["quadratic_2d"]
        L = estimate.estimate_lipschitz_sublevel(entry.oracle, [1.0, 1.0],
                                                 samples=2000, seed=0).safe
        assert 4.0 <= L <= 4.4

    def test_half_square(self):
        L = estimate.estimate_lipschitz_sublevel(CAT["quadratic_1d"].oracle,
                                                 [1.0], samples=1000, seed=0).safe
        assert 1.0 <= L <= 1.1

    def test_sin_quadratic(self):
        # curvature 2 + 6 cos 2x peaks at 8 near the origin
        L = estimate.estimate_lipschitz_sublevel(CAT["sin_quadratic"].oracle,
                                                 [2.0], samples=3000, seed=0).safe
        assert 7.1 <= L <= 8.8

    def test_monotone_refinement(self):
        entry = CAT["sin_quadratic"]
        L1 = estimate.estimate_lipschitz_sublevel(entry.oracle, [2.0],
                                                  samples=500, seed=4)
        L2 = estimate.estimate_lipschitz_sublevel(entry.oracle, [2.0],
                                                  samples=1000, seed=4)
        assert L2.safe >= L1.safe

    def test_start_outside_the_domain(self):
        with pytest.raises(DomainExit, match="x0 outside the domain"):
            estimate.estimate_lipschitz_sublevel(CAT["sqrt_norm_2d"].oracle,
                                                 [3.0, 3.0])

    @pytest.mark.parametrize("name", ["sin_quadratic", "quadratic_2d",
                                      "max_two_quadratics"])
    def test_start_at_the_minimizer_is_refused_before_sampling(
            self, monkeypatch, name):
        def never(*args):
            raise AssertionError("sampled")
        monkeypatch.setattr(estimate, "sample_points", never)
        o = CAT[name].oracle
        with pytest.raises(InsufficientSamples, match="minimum value"):
            estimate.estimate_lipschitz_sublevel(o, o.known_minimizer)

    def test_unbounded_sublevel_fails(self):
        with pytest.raises(DomainSamplingFailure):
            estimate.estimate_lipschitz_sublevel(
                CAT["degenerate_quadratic"].oracle, [1.0, 1.0], samples=100,
                seed=0)


def quartic_with_nan_gradient_at_one():
    """h = 2.5 x^4, whose gradient 10 x^3 reads NaN at x = 1 only."""
    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 1.0, np.nan, 10.0 * x ** 3)
    return FunctionOracle(
        dim=1, value=lambda x: 2.5 * np.asarray(x)[..., 0] ** 4, grad=grad)


class TestNonFiniteGradient:
    def test_refused(self):
        # the sublevel set of h(1) holds x0 = 1 itself; skipping its pairs
        # would return an estimate below the largest finite quotient
        with pytest.raises(NumericalBlowup, match="non-finite gradient"):
            estimate.estimate_lipschitz_sublevel(
                quartic_with_nan_gradient_at_one(), [1.0], samples=2000,
                seed=1)

    def test_infinite_gradient_refused(self):
        oracle = dataclasses.replace(
            quartic_with_nan_gradient_at_one(),
            grad=lambda x: np.where(np.asarray(x) < 0.0, np.inf, 1.0))
        with pytest.raises(NumericalBlowup):
            estimate.estimate_lipschitz_sublevel(oracle, [1.0], samples=200)


def exhaustive_ratio(pts, grads) -> float:
    """Largest |g_i - g_j| / |x_i - x_j| over the full (n, n) table of
    pairs, squares summed in ascending coordinate order; pairs closer than
    1e-12 count as 0."""
    def distances(A):
        return np.sqrt(sum((A[:, None, k] - A[None, :, k]) ** 2
                           for k in range(A.shape[1])))
    dist = distances(pts)
    dist[dist < 1e-12] = np.inf
    return float((distances(grads) / dist).max())


def blocked_ratio(pts, grads) -> float:
    return estimate._largest_ratio(np.stack([pts.T, grads.T]))


class TestBlockedScan:
    """The blocked pair scan against an exhaustive reference, bit for bit."""

    @pytest.mark.parametrize("name", sorted(CAT))
    def test_catalog_gradients(self, name):
        # x0 first, as the estimator stacks it, then points of the domain
        # (its sampling window when the domain is all of space)
        o = CAT[name].oracle
        pts = np.concatenate([_start(CAT[name], {})[None, :],
                              sample_points(o.domain, o.dim, 600, 7)])
        grads = np.asarray(o.grad(pts))
        assert blocked_ratio(pts, grads) == exhaustive_ratio(pts, grads)

    # the degenerate quadratic's sublevel sets are unbounded
    @pytest.mark.parametrize("name",
                             sorted(set(CAT) - {"degenerate_quadratic"}))
    def test_estimate_is_the_scan_of_its_sublevel_samples(self, monkeypatch,
                                                         name):
        scans = []

        def spy(XG):
            scans.append((XG[0].T.copy(), XG[1].T.copy()))
            return largest_ratio(XG)
        largest_ratio = estimate._largest_ratio
        monkeypatch.setattr(estimate, "_largest_ratio", spy)
        est = estimate.estimate_lipschitz_sublevel(
            CAT[name].oracle, _start(CAT[name], {}), samples=500, seed=3)
        [(pts, grads)] = scans
        assert pts.shape[0] == 501 and est.samples == 500
        assert est.value == exhaustive_ratio(pts, grads)
        assert est.safe == est.value * estimate.SAFETY_LIPSCHITZ

    @pytest.mark.parametrize("budget", ["one_row", "default", "above_n2"])
    @pytest.mark.parametrize("dim", range(1, 7))
    def test_random_points_with_duplicates(self, monkeypatch, budget, dim):
        rng = np.random.default_rng(dim)
        n = 150
        pts = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, dim)
        grads = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, dim)
        # repeated points, some with other gradients, in and across blocks
        for i, j in rng.integers(0, n, (20, 2)):
            pts[i] = pts[j]
        pts[1] = pts[0]
        grads[5:9] = grads[4]
        # a pair closer than 1e-12, which counts as 0
        pts[3] = 0.5
        pts[2] = pts[3] + 1e-13
        monkeypatch.setattr(estimate, "_PAIR_BUDGET", {
            "one_row": 1, "default": estimate._PAIR_BUDGET,
            "above_n2": n * n + 1}[budget])
        assert blocked_ratio(pts, grads) == exhaustive_ratio(pts, grads)

    @pytest.mark.parametrize("budget", [1, 2, 7, 8, 100, 1000, 1 << 15])
    def test_blocks_tile_the_rows_within_the_budget(self, monkeypatch, budget):
        blocks = []

        def spy(XG, start, end):
            blocks.append((start, end))
            return 0.0
        monkeypatch.setattr(estimate, "_PAIR_BUDGET", budget)
        monkeypatch.setattr(estimate, "_block_ratio", spy)
        n = 2001
        estimate._largest_ratio(np.zeros((2, 1, n)))
        assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
        assert blocks[-1][1] == n
        for start, end in blocks:
            assert end - start == 1 or (end - start) * end <= budget

    def test_memory_does_not_grow_with_the_sample_count(self):
        oracle, x0, n = CAT["quadratic_3d"].oracle, [1.0, 1.0, 1.0], 8000
        # the scan holds at most four float64 arrays of _PAIR_BUDGET
        # elements: two squared sums, one difference, and the comparison
        # mask with room to spare
        scan = 4 * 8 * estimate._PAIR_BUDGET
        # a few copies of the (n + 1, 3) points: the sampler's parts and
        # their concatenation, x0 prepended, the gradients, the stacked
        # copy; and a few sampler chunks of rows, points and masks
        samples = 8 * 8 * (n + 1) * 3 + 4 * 8 * sampling._CHUNK * 3
        estimate.estimate_lipschitz_sublevel(oracle, x0, samples=10)
        tracemalloc.start()
        try:
            estimate.estimate_lipschitz_sublevel(oracle, x0, samples=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 2.9 MiB; a (512, n, 3) broadcast of the differences alone
        # takes 94 MiB
        assert peak <= scan + samples


class TestEmpiricalModulus:
    def test_quadratic_is_one(self):
        oracle = dataclasses.replace(CAT["quadratic_1d"].oracle,
                                     domain=DomainSpec.box([-1.0], [1.0]))
        gamma = estimate.empirical_modulus(oracle, samples=5000, seed=0).value
        assert gamma == pytest.approx(1.0, abs=0.02)

    def test_linear_is_zero_on_large_region(self):
        lin = FunctionOracle(
            dim=1, value=lambda x: np.asarray(x)[..., 0],
            grad=lambda x: np.ones_like(np.asarray(x, dtype=float)[..., 0:1]),
            domain=DomainSpec.box([-1e6], [1e6]))
        gamma = estimate.empirical_modulus(lin, samples=20_000, seed=0).value
        assert 0.0 <= gamma < 1e-4

    def test_sin_quadratic_certifiable(self):
        entry = CAT["sin_quadratic"]
        gamma = estimate.empirical_modulus(entry.oracle, samples=50_000,
                                           seed=3)
        assert gamma.value > 0
        report = check_strong_quasiconvexity(
            entry.oracle, gamma.safe,
            SampleBudget(pairs=5000, seed=11))
        assert report.holds_on_samples

    def test_monotone_refinement(self):
        entry = CAT["sin_quadratic"]
        g1 = estimate.empirical_modulus(entry.oracle, samples=2000, seed=4)
        g2 = estimate.empirical_modulus(entry.oracle, samples=4000, seed=4)
        assert g2.value <= g1.value

    def test_insufficient_samples(self):
        with pytest.raises(Exception):
            estimate.empirical_modulus(CAT["quadratic_1d"].oracle, samples=2,
                                       seed=0)

    @pytest.mark.parametrize("name", ["sin_quadratic", "quadratic_fraction",
                                      "sqrt_norm_2d"])
    def test_blocks_give_the_whole_sample_estimate(self, monkeypatch, name):
        # blocks of one pair, of a count that divides no sample size, and
        # one block holding the whole sample
        oracle, samples = CAT[name].oracle, 1500
        estimates = []
        for budget in (oracle.dim, 37 * oracle.dim, samples * oracle.dim):
            monkeypatch.setattr(verify, "_PAIR_BUDGET", budget)
            estimates.append(estimate.empirical_modulus(oracle, samples, 5))
        assert estimates[0] == estimates[1] == estimates[2]
        assert estimates[0].value > 0

    def test_memory_does_not_grow_with_the_sample_count(self):
        oracle = CAT["sin_quadratic"].oracle
        # in dim 1 a block's temporaries are about ten float64 arrays of
        # _PAIR_BUDGET rows: h at both points and at the interpolation
        # points, the penalty, both sides, the margin, the ratio and masks
        block = 12 * 8 * verify._PAIR_BUDGET
        estimate.empirical_modulus(oracle, samples=20)
        for samples in (20_000, 100_000):
            # X, Y and the weights, and two sampler chunks of rows
            sample = 8 * samples * 3 + 2 * 8 * sampling._CHUNK * 3
            tracemalloc.start()
            try:
                estimate.empirical_modulus(oracle, samples=samples)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # about 4.8 MiB at 100000 samples, where one batch peaked at
            # 8.5 MiB
            assert peak <= sample + block


class TestKappa:
    def traj(self, entry, x0, t_end=3.0):
        return flows.integrate_first_order(
            entry.oracle, FlowConfig(x0=x0, t_end=t_end, dt=1e-3))

    def test_half_square_ratio_is_two(self):
        entry = CAT["quadratic_1d"]
        k = estimate.estimate_kappa(entry.oracle, self.traj(entry, [1.0]))
        assert k.value == pytest.approx(2.0) and k.safe == pytest.approx(1.9)

    def test_convex_entries_at_least_one(self):
        for name in ("quadratic_2d", "quadratic_fraction", "max_two_quadratics"):
            oracle = CAT[name].oracle
            traj = flows.integrate_first_order(
                oracle, FlowConfig(x0=[0.9, 0.7], t_end=3.0, dt=1e-3))
            assert estimate.estimate_kappa(oracle, traj).safe >= 0.95

    def test_reference_run_stagnates_on_nonsmooth_minimizer(self):
        from sqcflow.core import StagnationFailure
        with pytest.raises(StagnationFailure):
            estimate.reference_minimizer(CAT["max_two_quadratics"].oracle,
                                         [0.4, 0.1])

    def test_gamma_over_L_lower_bound(self):
        entry = CAT["quadratic_2d"]
        k = estimate.estimate_kappa(entry.oracle, self.traj(entry, [1.0, 1.0]))
        assert k.safe >= 0.95 * 1.0 / 4.0

    def test_no_valid_samples(self):
        entry = CAT["quadratic_1d"]
        traj = flows.integrate_first_order(
            entry.oracle, FlowConfig(x0=[1e-9], t_end=0.1, dt=1e-2))
        with pytest.raises(InsufficientSamples):
            estimate.estimate_kappa(entry.oracle, traj)

    def test_needs_the_minimizer(self):
        # the gaps are measured against the oracle's minimum
        entry = catalog.max_combine(
            catalog.strongly_convex_quadratic(2, 1.0, 1.0),
            catalog.shifted_isotropic_quadratic(2, [1.0, 0.0]))
        with pytest.raises(MissingMinimizer):
            estimate.estimate_kappa(entry.oracle, self.traj(entry, [0.9, 0.7]))


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
                                           seed=6).value
        L = estimate.estimate_lipschitz_sublevel(entry.oracle, x0,
                                                 samples=1000, seed=6).safe
        assert gamma <= L * 1.2

    def test_safety_adjusted_window_nonempty(self):
        for name, x0 in (("quadratic_2d", [1.0, 1.0]), ("sin_quadratic", [2.0])):
            entry = CAT[name]
            gamma = estimate.empirical_modulus(entry.oracle, samples=5000,
                                               seed=6).safe
            L = estimate.estimate_lipschitz_sublevel(entry.oracle, x0,
                                                     samples=1000, seed=6).safe
            assert gamma > 0
            assert solvers.step_window(gamma, L) > 0
            assert solvers.optimal_step(gamma, L) < solvers.step_window(gamma, L)
