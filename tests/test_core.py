import inspect
import itertools
import math
import statistics
import tracemalloc

import numpy as np
import pytest

from sqcflow import catalog, flows, sampling, solvers, verify
from sqcflow.core import (DomainExit, DomainSamplingFailure, DomainSpec,
                          DomainViolation, FunctionOracle, InvalidParameter,
                          MissingMinimizer, ParameterWindowViolation,
                          Trajectory, as_point, check_start,
                          envelope_violations, norm, rate_certificate,
                          trajectory)
from sqcflow.sampling import (NestedSampler, inverse_normal_cdf, sample_pairs,
                              sample_points)


def finite_difference_gradient(oracle: FunctionOracle, x, step: float = 1e-6):
    """Central-difference gradient, used to validate oracle gradients.

    Componentwise (h(x + step e_i) - h(x - step e_i)) / (2 step).  Raises
    DomainViolation if a perturbed point leaves the oracle's domain.
    """
    if step <= 0:
        raise InvalidParameter("finite-difference step must be positive")
    x = as_point(x, oracle.dim)
    out = np.empty(oracle.dim)
    for i in range(oracle.dim):
        e = np.zeros(oracle.dim)
        e[i] = step
        xp, xm = x + e, x - e
        if not (oracle.domain.contains(xp) and oracle.domain.contains(xm)):
            raise DomainViolation(
                f"perturbation along coordinate {i} leaves the domain")
        out[i] = (float(oracle.value(xp)) - float(oracle.value(xm))) / (2.0 * step)
    return out


class TestFiniteDifferenceGradient:
    def test_quadratic_exact(self):
        entry = catalog.strongly_convex_quadratic(2, 1.0, 1.0)
        fd = finite_difference_gradient(entry.oracle, [1.0, 0.0], step=1e-5)
        np.testing.assert_allclose(fd, [1.0, 0.0], atol=1e-8)

    def test_stationary_point(self):
        entry = catalog.sin_quadratic()
        fd = finite_difference_gradient(entry.oracle, [0.0], step=1e-6)
        assert abs(fd[0]) < 1e-8

    def test_sqrt_against_hand_derivative(self):
        entry = catalog.sqrt_norm(1, 1.0)
        fd = finite_difference_gradient(entry.oracle, [0.25], step=1e-6)
        # d/dx sqrt(x) = 1/(2 sqrt(x)) = 1 at x = 0.25
        np.testing.assert_allclose(fd, [1.0], atol=1e-6)
        np.testing.assert_allclose(fd, entry.oracle.grad(np.array([0.25])),
                                   atol=1e-6)

    def test_domain_violation(self):
        entry = catalog.sqrt_norm(2, 1.0)
        boundary = np.array([1.0, 0.0])
        with pytest.raises(DomainViolation):
            finite_difference_gradient(entry.oracle, boundary, step=1e-5)

    def test_bad_step(self):
        entry = catalog.sin_quadratic()
        with pytest.raises(InvalidParameter):
            finite_difference_gradient(entry.oracle, [0.0], step=0.0)


def fitted(series, times=None):
    """The rate ``rate_certificate`` fits to ``series``: a per-step factor,
    or with ``times`` a decay exponent."""
    series = np.asarray(series, dtype=np.float64)
    kind = "gd_value" if times is None else "flow_first"
    times = np.arange(series.size, dtype=np.float64) if times is None else times
    return rate_certificate(kind, {}, 0.5, times, series,
                            np.zeros(0, dtype=bool)).empirical_rate


class TestFitLinearRate:
    """The rate fit inside ``rate_certificate``."""

    def test_exact_geometric(self):
        assert fitted([1.0, 0.5, 0.25, 0.125]) == pytest.approx(0.5)

    def test_constant(self):
        assert fitted([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_noisy_geometric(self):
        rng = np.random.default_rng(5)
        vals = 0.9 ** np.arange(50) * (1 + 0.01 * (2 * rng.random(50) - 1))
        assert fitted(vals) == pytest.approx(0.9, abs=0.01)

    @pytest.mark.parametrize("scale", [1e-8, 0.5, 3.0, 1e7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        vals = np.exp(-0.3 * np.arange(20)) * (1 + 0.05 * rng.random(20))
        assert fitted(scale * vals) == pytest.approx(fitted(vals), rel=1e-12)

    def test_nonpositive_rejected(self):
        # samples at or below the floor 0 are left out of the fit
        assert fitted([1.0, 0.0, 0.5, -1.0, 0.25]) == pytest.approx(0.5)

    def test_too_short(self):
        assert np.isnan(fitted([1.0, 0.5]))

    # a diverging run overflows its series; its logs have no finite slope
    @pytest.mark.parametrize("times", [None, np.arange(4.0)])
    def test_overflowed_sample(self, times):
        assert np.isnan(fitted([np.inf, 1.0, 0.5, np.inf], times))

    def test_decay_exponent(self):
        t = np.linspace(0.0, 3.0, 40)
        assert fitted(np.exp(-2.0 * t), t) == pytest.approx(2.0)


class TestRateCertificate:
    def test_envelope_floor_and_slack(self):
        values = np.array([1e-12, 2e-12, 1.05, 1.06, np.nan])
        bad = envelope_violations(values, np.array([0.0, 0.0, 1.0, 1.0, 1.0]))
        assert bad.tolist() == [False, True, False, True, False]

    def test_first_violation_aligns_with_the_last_times(self):
        times = np.arange(5.0)
        cert = rate_certificate("gd_value", {}, 0.5, times, 0.5 ** times,
                                np.array([False, False, True, True]))
        assert cert.first_violation == 3.0 and not cert.satisfied

    @pytest.mark.parametrize("kind,rate,ok", [
        ("gd_contraction", 0.48, True), ("gd_contraction", 0.47, False),
        ("flow_first", 0.52, True), ("flow_first", 0.53, False)])
    def test_verdict_direction(self, kind, rate, ok):
        # a factor of 0.5 per step, or a decay exponent of 0.5
        times = np.arange(6.0)
        series = 0.5 ** times if kind == "gd_contraction" \
            else np.exp(-0.5 * times)
        cert = rate_certificate(kind, {}, rate, times, series,
                                np.zeros(6, dtype=bool))
        assert cert.empirical_rate == pytest.approx(0.5)
        assert cert.satisfied is ok

    def test_nan_rate_is_vacuous_and_extra_failure_fails(self):
        times = np.arange(3.0)
        series = np.array([1.0, 1e-13, 0.0])
        cert = rate_certificate("hb_energy", {"c": 1.0}, 0.1, times, series,
                                np.zeros(2, dtype=bool), fit_floor=1e-12)
        assert np.isnan(cert.empirical_rate) and cert.satisfied
        assert cert.first_violation is None
        failed = rate_certificate("hb_energy", {}, 0.1, times, series,
                                  np.zeros(2, dtype=bool), failed=True,
                                  notes="tail")
        assert not failed.satisfied and failed.notes == "tail"


class TestPointsAndDomains:
    def test_as_point_rejects_nan(self):
        with pytest.raises(InvalidParameter):
            as_point([1.0, np.nan])

    def test_as_point_dim(self):
        with pytest.raises(InvalidParameter):
            as_point([1.0, 2.0], dim=3)

    def test_ball_membership(self):
        d = DomainSpec.ball([0.0, 0.0], 1.0)
        assert d.contains(np.array([0.5, 0.5]))
        assert not d.contains(np.array([1.0, 1.0]))

    def test_box_membership(self):
        d = DomainSpec.box([-1.0, 0.0], [1.0, 2.0])
        assert d.contains(np.array([0.0, 1.0]))
        assert not d.contains(np.array([0.0, -0.5]))

    def test_predicate_restricts(self):
        d = DomainSpec.box([-1.0], [1.0], predicate=lambda x: x[..., 0] > 0)
        assert d.contains(np.array([0.5]))
        assert not d.contains(np.array([-0.5]))

    def test_invalid_shapes(self):
        with pytest.raises(InvalidParameter):
            DomainSpec.ball([0.0], -1.0)
        with pytest.raises(InvalidParameter):
            DomainSpec.box([1.0], [0.0])

    def test_trajectory_needs_increasing_times(self):
        with pytest.raises(InvalidParameter):
            Trajectory(times=[0.0, 0.0], states=np.zeros((2, 1)),
                       h_values=np.zeros(2), grad_norms=np.zeros(2))

    def test_trajectory_rows_must_match_times(self):
        rows = dict(times=np.arange(3.0), states=np.zeros((3, 1)),
                    h_values=np.zeros(3), grad_norms=np.zeros(3))
        Trajectory(**rows, diagnostics={"E": np.zeros(3)})
        with pytest.raises(InvalidParameter):
            Trajectory(**dict(rows, states=np.zeros((2, 1))))
        with pytest.raises(InvalidParameter):
            Trajectory(**rows, diagnostics={"E": np.zeros(2)})

    def test_predicate_mask_shape_is_checked(self):
        # elementwise x > 0 instead of x[..., 0] > 0: one value per coordinate
        d = DomainSpec.box([-1.0, -1.0], [1.0, 1.0], predicate=lambda x: x > 0)
        with pytest.raises(InvalidParameter):
            d.contains(np.full(2, 0.5))
        with pytest.raises(InvalidParameter):
            d.contains(np.full((5, 2), 0.5))
        with pytest.raises(InvalidParameter):
            sample_points(d, 2, 10, 0)

    def test_constant_predicate_broadcasts(self):
        d = DomainSpec.all_space(predicate=lambda x: False)
        assert d.contains(np.zeros((4, 3))).shape == (4,)
        assert not d.contains(np.zeros((4, 3))).any()
        assert not d.contains(np.zeros(3))


def row_norms(G):
    """The grad_norm column ``core.trajectory`` records where grad h is G."""
    G = np.asarray(G, dtype=np.float64)
    oracle = FunctionOracle(dim=G.shape[1], value=lambda X: np.zeros(len(X)),
                            grad=lambda X: G)
    return trajectory(oracle, np.zeros_like(G), 1).grad_norms


class TestNorms:
    TINY = np.finfo(np.float64).tiny

    def test_normal_sums_keep_their_bytes(self):
        rng = np.random.default_rng(5)
        for scale in (1e-150, 1e-100, 1.0, 1e100, 1e150):
            for v in scale * rng.standard_normal((50, 3)):
                s = 0.0
                for c in v.tolist():
                    s += c * c
                assert norm(v) == math.sqrt(s)
                assert norm(v.tolist()) == math.sqrt(s)

    @pytest.mark.parametrize("v,expected", [
        ([2.0 ** -600], 2.0 ** -600),
        ([5e-324], 5e-324),
        ([-3e-170, 0.0, 4e-170], 5e-170),
        ([1e-160, 1e-160], math.sqrt(2.0) * 1e-160)])
    def test_underflowing_squares_are_rescaled(self, v, expected):
        # every square here sums below the smallest normal float
        assert sum(c * c for c in v) < self.TINY
        assert norm(v) == pytest.approx(expected, rel=1e-15)
        assert row_norms([v])[0] == pytest.approx(expected, rel=1e-15)

    def test_zero_and_non_finite_rows(self):
        assert norm([0.0, -0.0]) == 0.0
        assert math.isnan(norm([math.nan, 1e-200]))
        assert norm([math.inf, 1e-200]) == math.inf
        got = row_norms([[0.0, -0.0], [math.nan, 1e-200], [math.inf, 0.0]])
        assert got[0] == 0.0 and math.isnan(got[1]) and got[2] == math.inf

    def test_grad_norms_are_numpy_norms_above_underflow(self):
        rng = np.random.default_rng(6)
        G = rng.standard_normal((400, 3)) * \
            10.0 ** rng.uniform(-150, 150, (400, 1))
        G[:5] = [[1e-170, 0.0, 0.0], [0.0, 0.0, 0.0], [3e-200, 4e-200, 0.0],
                 [1e-300, 1e-300, 1e-300], [1e-150, 1e-160, 0.0]]
        got, numpy_norms = row_norms(G), np.linalg.norm(G, axis=-1)
        low = np.add.reduce(G * G, axis=-1) < self.TINY
        assert low.tolist()[:5] == [True, True, True, True, False]
        assert got[~low].tobytes() == numpy_norms[~low].tobytes()
        np.testing.assert_allclose(got[low], [1e-170, 0.0, 5e-200,
                                              math.sqrt(3.0) * 1e-300],
                                   rtol=1e-15)


    def test_gd_runs_to_its_exact_fixed_point(self):
        # x_k = grad h(x_k) = 2^-k; 2^-1074 steps to itself
        oracle = catalog.default_catalog()["quadratic_1d"].oracle
        traj = solvers.gradient_descent(oracle, solvers.GDConfig(
            x0=[1.0], beta=0.5, max_iters=2000, stop_grad_tol=0.0))
        assert traj.grad_norms.tolist() == [2.0 ** -k for k in range(1075)]


class TestCheckStart:
    def test_everywhere_is_never_asked(self, monkeypatch):
        asked = []
        monkeypatch.setattr(DomainSpec, "contains",
                            lambda self, x: asked.append(1) or False)
        check_start(DomainSpec.all_space(), [1e300, -1e300])
        assert asked == []
        with pytest.raises(DomainExit):
            check_start(DomainSpec.all_space(lambda x: True), [0.0])
        assert asked == [1]

    @pytest.mark.parametrize("message", [None, "starting points outside "
                                               "the domain"])
    def test_outside_raises_at_zero(self, message):
        ball = DomainSpec.ball([0.0, 0.0], 1.0)
        check_start(ball, [0.5, 0.5])
        args = () if message is None else (message,)
        with pytest.raises(DomainExit) as exc:
            check_start(ball, np.array([1.0, 1.0]), *args)
        assert exc.value.where == 0
        assert str(exc.value) == (message or "x0 outside the domain")


def _probe_oracles():
    """Every catalog oracle, plus ones whose domains are a ball with a
    predicate, a band and an intersection, built by the catalog."""
    oracles = {name: e.oracle for name, e in catalog.default_catalog().items()}
    # f <= 0 on the band 1 <= |x| <= 2, B positive definite: ball + predicate
    ball_band = catalog.quadratic_fraction(np.eye(2), np.zeros(2), -10.0,
                                           np.eye(2), np.zeros(2), 1.0, 1.5, 3.0)
    # f >= 0 and B negative definite: all space + predicate
    annulus = catalog.quadratic_fraction(np.eye(2), np.zeros(2), 0.0,
                                         -np.eye(2), np.zeros(2), 3.0, 1.0, 2.5)
    both = catalog.max_combine(catalog.sqrt_norm(2, 1.5), ball_band)
    oracles.update({"ball_band": ball_band.oracle, "annulus": annulus.oracle,
                    "intersection": both.oracle})
    return oracles


def _probe_points(dom, dim, n=1000):
    """n uniform points around the domain, plus points on and next to the
    ball, band, origin-exclusion and box boundaries."""
    rng = np.random.default_rng(0)
    if dom.kind == "ball":
        lo, hi = dom.center - 1.5 * dom.radius, dom.center + 1.5 * dom.radius
    elif dom.kind == "box":
        lo = dom.lower - 0.5 * (dom.upper - dom.lower)
        hi = dom.upper + 0.5 * (dom.upper - dom.lower)
    else:
        lo, hi = np.full(dim, -4.0), np.full(dim, 4.0)
    dirs = rng.normal(size=(20, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = [0.0, 1e-13, 1e-12, 1e-11, 1.0, 1.5, 2.0]
    if dom.kind == "ball":
        radii += [dom.radius * (1 + e) for e in (-1e-13, 0.0, 1e-13, 1e-11)]
    center = dom.center if dom.kind == "ball" else np.zeros(dim)
    pts = [lo + rng.random((n, dim)) * (hi - lo)]
    pts += [center + r * dirs for r in radii]
    if dom.kind == "box":
        pts.append(np.array(list(itertools.product(*zip(dom.lower, dom.upper)))))
    return np.concatenate(pts)


class TestVectorizedDomains:
    @pytest.mark.parametrize("name", sorted(_probe_oracles()))
    def test_contains_matches_per_point_loop(self, name):
        oracle = _probe_oracles()[name]
        dom = oracle.domain
        P = _probe_points(dom, oracle.dim)

        def member(p):  # base region, then the predicate, one point at a time
            if dom.kind == "ball":
                ok = float(np.linalg.norm(p - dom.center)) <= dom.radius * (1 + 1e-12)
            elif dom.kind == "box":
                ok = bool(np.all(p >= dom.lower) and np.all(p <= dom.upper))
            else:
                ok = True
            return ok and (dom.predicate is None or bool(dom.predicate(p)))

        loop = np.array([member(p) for p in P])
        got = dom.contains(P)
        assert got.shape == (P.shape[0],)
        np.testing.assert_array_equal(got, loop)
        assert loop.any()
        if dom.kind != "all_space" or name == "annulus":
            assert not loop.all()


STREAM_SEEDS = [0, 1, 2 ** 63, 2 ** 64 - 1, -3]


class TestPhiloxStream:
    """The sampler's Philox4x64-10 words and uniforms against numpy's."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_words_match_numpy(self, seed):
        key = seed % 2 ** 64
        # past one generator pass, so the second pass starts mid-stream
        n = sampling._WORDS + 123
        ref = np.random.Philox(key=key).random_raw(n)
        np.testing.assert_array_equal(sampling._philox_words(key, 0, n), ref)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("first, count", [
        (1, 1), (2, 3), (3, 2), (5, 4), (6, 11), (4095, 9),
        (sampling._WORDS - 3, 7)])
    def test_words_from_any_start(self, seed, first, count):
        key = seed % 2 ** 64
        ref = np.random.Philox(key=key).random_raw(first + count)[first:]
        np.testing.assert_array_equal(
            sampling._philox_words(key, first, count), ref)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_rows_match_numpy_uniforms(self, seed):
        # row widths that leave the stream between 4-word blocks, and one
        # draw that crosses a generator pass
        gen = np.random.Generator(np.random.Philox(key=seed % 2 ** 64))
        sampler = NestedSampler(seed)
        for shape in [(1, 1), (1, 3), (2, 5), (3, 7), (1300, 13), (1, 2)]:
            ref = np.clip(gen.random(shape), 1e-15, 1.0 - 1e-15)
            np.testing.assert_array_equal(sampler.rows(*shape), ref)


class TestSampling:
    def test_inverse_normal_cdf_matches_stdlib(self):
        p = np.concatenate([[1e-15, 1e-10, 0.02425, 0.5, 1 - 0.02425, 1 - 1e-15],
                            np.linspace(1e-6, 1 - 1e-6, 1001)])
        ref = np.array([statistics.NormalDist().inv_cdf(float(v)) for v in p])
        np.testing.assert_allclose(inverse_normal_cdf(p), ref, rtol=2e-9, atol=0)

    def test_reject_runs_end_at_the_last_needed_accept(self):
        keep = np.r_[np.zeros(10, bool), True, np.zeros(1500, bool)]
        idx, run = sampling._first_accepted(keep, 1, 0)
        assert idx.tolist() == [10] and run == 0
        with pytest.raises(DomainSamplingFailure):  # 990 carried + 10 rejects
            sampling._first_accepted(keep, 1, 990)
        with pytest.raises(DomainSamplingFailure):  # 1500 before a 2nd accept
            sampling._first_accepted(keep, 2, 0)

    # seed 3: 1028 rejects precede the 165th accept of x > 2.97 on [-3, 3];
    # seed 5: the 576th pair with both coordinates > 2.5 follows a run >= 1000
    @pytest.mark.parametrize("pairs,threshold,seed,n,raises", [
        (False, 2.97, 3, 164, False), (False, 2.97, 3, 165, True),
        (False, 2.97, 3, 200, True),
        (True, 2.5, 5, 575, False), (True, 2.5, 5, 576, True)])
    def test_reject_limit_is_exact_and_chunk_invariant(
            self, monkeypatch, pairs, threshold, seed, n, raises):
        dom = DomainSpec.all_space(predicate=lambda x: x[..., 0] > threshold)
        outcomes = []
        for chunk in (64, 4096):
            monkeypatch.setattr(sampling, "_CHUNK", chunk)
            try:
                if pairs:
                    outcomes.append(sample_pairs(dom, 1, n, 1, seed))
                else:
                    outcomes.append((sample_points(dom, 1, n, seed),))
            except DomainSamplingFailure:
                outcomes.append(None)
        assert (outcomes[0] is None) == raises
        assert (outcomes[1] is None) == raises
        if not raises:
            for a, b in zip(*outcomes):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("chunk", [64, 4096])
    def test_smaller_samples_are_prefixes(self, monkeypatch, chunk):
        # the predicate rejects about half the candidates, so accepted rows
        # and stream rows part ways within the first chunk
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
        dom = DomainSpec.all_space(predicate=lambda x: x[..., 0] > 0.0)
        big = sample_pairs(dom, 2, 5000, 3, 9)
        for n in (1, 63, 64, 65, 4097):
            for a, b in zip(sample_pairs(dom, 2, n, 3, 9), big):
                np.testing.assert_array_equal(a, b[:n])
        points = sample_points(dom, 2, 5000, 9)
        np.testing.assert_array_equal(
            sample_points(dom, 2, 4097, 9), points[:4097])

    def test_sample_exists_once(self):
        dom, dim, pairs, weights = DomainSpec.all_space(), 6, 20000, 2
        width = 2 * dim + weights
        sample_pairs(dom, dim, 10, weights, 0)
        tracemalloc.start()
        try:
            sample_pairs(dom, dim, pairs, weights, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the returned X, Y and LAM, plus a few float64 arrays of one chunk
        # of rows (the uniforms, their clipped copy, the points mapped from
        # them and the accepted rows); about 3.6 MiB, where keeping each
        # chunk's accepted rows and then concatenating them peaked at 4.7 MiB
        sample = 8 * pairs * width
        chunk = 4 * 8 * sampling._CHUNK * width
        assert peak <= sample + chunk < 2 * sample


def _interior_points(entry, n=100):
    dom = entry.oracle.domain
    pts = sample_points(dom, entry.oracle.dim, 3 * n, 11)
    if dom.kind == "ball":
        pts = dom.center + 0.9 * (pts - dom.center)
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-2]
    return pts[:n]


class TestOracleInvariants:
    @pytest.mark.parametrize("name", sorted(catalog.default_catalog()))
    def test_gradient_matches_finite_differences(self, name):
        entry = catalog.default_catalog()[name]
        for x in _interior_points(entry):
            g = np.asarray(entry.oracle.grad(x))
            fd = finite_difference_gradient(entry.oracle, x, step=1e-6)
            assert np.linalg.norm(g - fd) <= 1e-4 * (1 + np.linalg.norm(g))

    @pytest.mark.parametrize("name", sorted(catalog.default_catalog()))
    def test_gradient_dimension(self, name):
        entry = catalog.default_catalog()[name]
        x = _interior_points(entry, n=1)[0]
        assert np.asarray(entry.oracle.grad(x)).shape == (entry.oracle.dim,)

    def test_minimizer_gradient_is_zero(self):
        for name, entry in catalog.default_catalog().items():
            x_bar = entry.oracle.known_minimizer
            if name.startswith("sqrt_norm"):
                continue  # the gradient of sqrt(|x|) is undefined at 0
            g = np.asarray(entry.oracle.grad(x_bar))
            assert np.linalg.norm(g) <= 1e-8 * (1.0 + np.linalg.norm(x_bar))

    @pytest.mark.parametrize("name", sorted(catalog.default_catalog()))
    def test_minimizer_has_the_least_value(self, name):
        # 10000 seeded domain points, each also pulled 10x and 100x toward
        # x_bar, so a recorded point near, but off, the minimizer fails
        o = catalog.default_catalog()[name].oracle
        x_bar = o.known_minimizer
        X = sample_points(o.domain, o.dim, 10_000, 3)
        X = np.concatenate([x_bar + s * (X - x_bar) for s in (1.0, 0.1, 0.01)])
        X = X[o.domain.contains(X)]
        assert len(X) >= 10_000
        assert np.all(o.value(x_bar) <= np.asarray(o.value(X)))

    def test_oracles_are_deterministic(self):
        entry = catalog.default_catalog()["sin_quadratic"]
        x = np.array([1.234])
        assert entry.oracle.value(x) == entry.oracle.value(x.copy())
        assert np.array_equal(entry.oracle.grad(x), entry.oracle.grad(x.copy()))

    def test_invalid_oracle_params(self):
        with pytest.raises(InvalidParameter):
            FunctionOracle(dim=0, value=lambda x: 0.0, grad=lambda x: x)
        with pytest.raises(InvalidParameter):
            FunctionOracle(dim=1, value=lambda x: 0.0, grad=lambda x: x,
                           known_modulus=-1.0)


def _range_checks():
    """One call per range check of the library, each taking ``bad`` where
    a positive (or nonnegative) finite number belongs."""
    q1 = catalog.default_catalog()["quadratic_1d"].oracle
    traj = flows.integrate_first_order(q1, flows.FlowConfig(
        x0=[1.0], t_end=1.0, dt=0.1))
    budget = verify.SampleBudget(pairs=10)
    return {
        "step_window": lambda bad: solvers.step_window(1.0, bad),
        "optimal_step": lambda bad: solvers.optimal_step(bad, 1.0),
        "gd_beta": lambda bad: solvers.GDConfig(x0=[1.0], beta=bad),
        "gd_stop_grad_tol": lambda bad: solvers.GDConfig(
            x0=[1.0], beta=0.1, stop_grad_tol=bad),
        "hb_beta": lambda bad: solvers.HBConfig(x0=[1.0], theta=0.5, beta=bad),
        "hb_stop_grad_tol": lambda bad: solvers.HBConfig(
            x0=[1.0], theta=0.5, beta=0.1, stop_grad_tol=bad),
        "hb_window_beta": lambda bad: solvers.hb_window(0.5, bad, 1.0),
        "hb_window_L": lambda bad: solvers.hb_window(0.5, 0.1, bad),
        "hb_window_theta": lambda bad: solvers.hb_window(bad, 0.1, 1.0),
        "certify_hb_energy": lambda bad: solvers.certify_hb_energy(
            traj, bad, 1.0),
        "certify_first_order": lambda bad: flows.certify_first_order(
            traj, bad),
        "certify_first_order_values": lambda bad:
            flows.certify_first_order_values(traj, 1.0, bad),
        "flow_t_end": lambda bad: flows.FlowConfig(x0=[1.0], t_end=bad,
                                                   dt=0.1),
        "flow_dt": lambda bad: flows.FlowConfig(x0=[1.0], t_end=1.0, dt=bad),
        "second_order_gamma": lambda bad: flows.integrate_second_order(
            q1, flows.FlowConfig(x0=[1.0], t_end=1.0, dt=0.1, alpha=3.0),
            bad, 0.5),
        "second_order_kappa": lambda bad: flows.integrate_second_order(
            q1, flows.FlowConfig(x0=[1.0], t_end=1.0, dt=0.1, alpha=3.0),
            1.0, bad),
        "second_order_alpha": lambda bad: flows.integrate_second_order(
            q1, flows.FlowConfig(x0=[1.0], t_end=1.0, dt=0.1, alpha=bad)),
        "check_gamma": lambda bad: verify.check_property(
            "strong_quasiconvexity", q1, bad, budget),
        "check_mu": lambda bad: verify.check_property("pl", q1, bad, budget),
        "ladder": lambda bad: verify.check_implication_ladder(q1, bad, budget),
        "derive_pl_modulus": lambda bad: verify.derive_pl_modulus(bad, 1.0),
    }


RANGE_CHECKS = _range_checks()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("check", sorted(RANGE_CHECKS))
def test_range_checks_refuse_non_finite_numbers(check, bad):
    with pytest.raises((InvalidParameter, ParameterWindowViolation)):
        RANGE_CHECKS[check](bad)


class TestCertificateContract:
    """A certificate takes its trajectory and the function's constants;
    the run's parameters come from the trajectory."""

    CERTIFICATES = {name: fn for module in (flows, solvers)
                    for name, fn in vars(module).items()
                    if name.startswith("certify_")}

    @staticmethod
    def runs():
        """gd, heavy ball and a damped flow on quadratic_2d (gamma 1, L 4),
        each with the certificates that read it."""
        o = catalog.default_catalog()["quadratic_2d"].oracle
        gd = solvers.gradient_descent(o, solvers.GDConfig(
            x0=[1.0, 1.0], beta=0.05, max_iters=20))
        hb = solvers.heavy_ball(o, solvers.HBConfig(
            x0=[1.0, 1.0], theta=0.5, beta=0.05, max_iters=20))
        flow = flows.integrate_second_order(
            o, flows.FlowConfig(x0=[1.0, 1.0], t_end=1.0, dt=0.1, alpha=3.0),
            1.0, 0.25)
        return [
            (gd, lambda t: solvers.certify_gd_contraction(t, 1.0, 4.0)),
            (gd, lambda t: solvers.certify_gd_values(t, 1.0, 4.0)),
            (hb, lambda t: solvers.certify_hb_energy(t, 1.0, 4.0)),
            (flow, flows.certify_second_order),
        ]

    def test_signatures(self):
        assert len(self.CERTIFICATES) == 6
        for name, fn in self.CERTIFICATES.items():
            traj, *constants = inspect.signature(fn).parameters
            assert traj == "traj", name
            assert set(constants) <= {"gamma", "L", "L0"}, name

    def test_runs_record_their_parameters(self):
        gd, _, hb, flow = (traj for traj, _ in self.runs())
        assert gd.params == {"beta": 0.05}
        assert hb.params == {"theta": 0.5, "beta": 0.05}
        assert flow.params == {"lam": min(np.sqrt(2.0), 6.0 / 4.25),
                               "kappa": 0.25}
        for traj, certify in self.runs():
            assert certify(traj).satisfied

    @pytest.mark.parametrize("config,certify", [
        (solvers.GDConfig(x0=[1.0, 1.0], beta=0.4, max_iters=5),
         lambda t: solvers.certify_gd_contraction(t, 1.0, 4.0)),
        (solvers.GDConfig(x0=[1.0, 1.0], beta=0.4, max_iters=5),
         lambda t: solvers.certify_gd_values(t, 1.0, 4.0)),
        (solvers.HBConfig(x0=[1.0, 1.0], theta=0.0, beta=0.05, max_iters=5),
         lambda t: solvers.certify_hb_energy(t, 1.0, 4.0)),
        (solvers.HBConfig(x0=[1.0, 1.0], theta=0.5, beta=0.1875, max_iters=5),
         lambda t: solvers.certify_hb_energy(t, 1.0, 4.0)),
    ], ids=["gd_contraction_beta", "gd_value_beta", "hb_theta",
            "hb_boundary_beta"])
    def test_recorded_parameters_outside_the_window_are_refused(
            self, config, certify):
        o = catalog.default_catalog()["quadratic_2d"].oracle
        run = solvers.gradient_descent if isinstance(config, solvers.GDConfig) \
            else solvers.heavy_ball
        with pytest.raises(ParameterWindowViolation):
            certify(run(o, config))

    @pytest.mark.parametrize("index", range(4))
    def test_missing_parameter(self, index):
        traj, certify = self.runs()[index]
        traj.params.clear()
        with pytest.raises(InvalidParameter, match="records no parameter"):
            certify(traj)

    @pytest.mark.parametrize("index", range(4))
    def test_missing_minimizer_column(self, index):
        traj, certify = self.runs()[index]
        for name in ("h_gap", "dist", "energy", "Sigma"):
            traj.diagnostics.pop(name, None)
        with pytest.raises(MissingMinimizer):
            certify(traj)
