import numpy as np
import pytest

from sqcflow import catalog, cli, estimate, flows, solvers
from sqcflow.core import (DomainExit, DomainSpec, FunctionOracle,
                          InvalidParameter, MissingMinimizer, NumericalBlowup,
                          ParameterWindowViolation)
from sqcflow.flows import FlowConfig, integrate_second_order
from sqcflow.solvers import (GDConfig, HBConfig, certify_gd_contraction,
                             certify_gd_values, certify_hb_energy,
                             gd_window, gradient_descent, hb_window,
                             heavy_ball, optimal_step, step_window)

CAT = catalog.default_catalog()


class TestGradientDescent:
    def test_hand_recursion(self):
        cfg = GDConfig(x0=[1.0], beta=0.25, max_iters=2, stop_grad_tol=0.0)
        traj = gradient_descent(CAT["quadratic_1d"].oracle, cfg)
        np.testing.assert_allclose(traj.states[:, 0], [1.0, 0.75, 0.5625])

    def test_optimal_step_rule(self):
        # gamma = L0 = 1: beta* = 0.5, contraction 0.5 per step on x
        cfg = GDConfig(x0=[1.0], beta=optimal_step(1.0, 1.0), max_iters=3,
                       stop_grad_tol=0.0)
        traj = gradient_descent(CAT["quadratic_1d"].oracle, cfg)
        np.testing.assert_allclose(traj.states[:, 0], [1.0, 0.5, 0.25, 0.125])
        assert traj.param("beta") == pytest.approx(0.5)

    def test_gradient_tolerance_stop(self):
        cfg = GDConfig(x0=[1.0], beta=0.5, max_iters=10_000,
                       stop_grad_tol=1e-6)
        traj = gradient_descent(CAT["quadratic_1d"].oracle, cfg)
        assert traj.grad_norms[-1] <= 1e-6
        assert len(traj) < 100

    def test_exact_fixed_point_stop(self):
        # update below one ulp: x - beta g == x bitwise although |g| = 1
        cfg = GDConfig(x0=[1.0], beta=1e-17, max_iters=10, stop_grad_tol=0.0)
        traj = gradient_descent(CAT["quadratic_1d"].oracle, cfg)
        assert len(traj) == 1
        # gradient is zero up to step scaling: beta |g| below ulp of x
        assert 1e-17 * traj.grad_norms[-1] <= np.finfo(float).eps

    def test_sufficient_decrease_per_step(self):
        # h(x_k) - h(x_{k+1}) >= beta (1 - beta L0/2) |grad|^2 for beta <= 2/L0
        entry = CAT["sin_quadratic"]
        L0 = estimate.estimate_lipschitz_sublevel(entry.oracle, [2.0],
                                                  samples=2000, seed=0).safe
        beta = 0.2
        assert beta <= 2.0 / L0
        traj = gradient_descent(entry.oracle,
                                GDConfig(x0=[2.0], beta=beta,
                                         max_iters=200, stop_grad_tol=0.0))
        decrease = traj.h_values[:-1] - traj.h_values[1:]
        floor = beta * (1 - beta * L0 / 2) * traj.grad_norms[:-1] ** 2
        assert np.all(decrease >= floor - 1e-12)
        assert np.all(traj.h_values <= traj.h_values[0] + 1e-12)

    def test_descent_direction_inequality_at_iterates(self):
        # <grad h(x_k), x_bar - x_k> <= -(gamma/2) |x_k - x_bar|^2 on a
        # certified run
        entry = CAT["quadratic_3d"]
        traj = gradient_descent(entry.oracle,
                                GDConfig(x0=[1.0, 1.0, 0.5],
                                         beta=optimal_step(1.0, 4.0),
                                         max_iters=100, stop_grad_tol=0.0))
        x_bar = entry.oracle.known_minimizer
        grads = np.asarray(entry.oracle.grad(traj.states))
        inner = np.sum(grads * (x_bar - traj.states), axis=1)
        bound = -0.5 * 1.0 * np.sum((traj.states - x_bar) ** 2, axis=1)
        assert np.all(inner <= bound + 1e-12)

    def test_sqrt_norm_certified_progress(self):
        # small certified steps still contract toward the minimizer
        entry = CAT["sqrt_norm_2d"]
        gamma = entry.constants_known["gamma"]
        L0 = estimate.estimate_lipschitz_sublevel(entry.oracle, [0.5, 0.5],
                                                  samples=200, seed=1).safe
        beta = 0.9 * step_window(gamma, L0)
        traj = gradient_descent(entry.oracle,
                                GDConfig(x0=[0.5, 0.5],
                                         beta=beta,
                                         max_iters=20_000, stop_grad_tol=0.0))
        dist = traj.diagnostic("dist")
        assert np.all(np.diff(dist) <= 1e-15)
        assert dist[-1] < 0.75 * dist[0]
        cert = certify_gd_contraction(traj, gamma, L0)
        assert cert.satisfied


def drift_oracle(domain=None, blowup_above=None, grad_below=None):
    """h(x) = -x0 in 1-D, whose gradient -1 pushes every iterate right.

    Beyond ``blowup_above`` the gradient is infinite.  With ``grad_below``
    it is instead 1 above that point and 1e-20 at or below it.
    """
    def grad(x):
        x = np.asarray(x, dtype=float)
        if grad_below is not None:
            return np.where(x > grad_below, 1.0, 1e-20)
        g = -np.ones_like(x)
        if blowup_above is not None:
            g[x > blowup_above] = np.inf
        return g

    return FunctionOracle(dim=1, value=lambda x: -np.asarray(x)[..., 0],
                          grad=grad, domain=domain or DomainSpec.all_space())


def gd_run(oracle):
    # beta = 0.5, gradient -1: x_k = 0.5 k
    return gradient_descent(oracle, GDConfig(x0=[0.0], beta=0.5,
                                             max_iters=100, stop_grad_tol=0.0))


def hb_run(oracle):
    # theta = 0.5, beta = 0.5, gradient -1: x = 0, 0.5, 1.25, 2.125, 3.0625
    return heavy_ball(oracle, HBConfig(x0=[0.0], theta=0.5, beta=0.5,
                                       max_iters=100, stop_grad_tol=0.0))


class TestStepLoopSemantics:
    @pytest.mark.parametrize("run,where", [(gd_run, 6), (hb_run, 5)])
    def test_blowup_where(self, run, where):
        # gd reaches x_5 = 2.5 and hb x_4 = 3.0625 beyond 2.2, where the
        # gradient is infinite, so the next iterate is not finite
        with pytest.raises(NumericalBlowup) as exc:
            run(drift_oracle(blowup_above=2.2))
        assert exc.value.where == where

    @pytest.mark.parametrize("run,where", [(gd_run, 5), (hb_run, 4)])
    def test_domain_exit_where(self, run, where):
        with pytest.raises(DomainExit) as exc:
            run(drift_oracle(domain=DomainSpec.box([-10.0], [2.2])))
        assert exc.value.where == where

    def test_exact_fixed_point_stop_after_steps(self):
        # x = 1, 0.875, 0.75; at 0.75 the step 0.125e-20 is below one ulp
        traj = gradient_descent(
            drift_oracle(grad_below=0.75),
            GDConfig(x0=[1.0], beta=0.125, max_iters=100, stop_grad_tol=0.0))
        np.testing.assert_array_equal(traj.states[:, 0], [1.0, 0.875, 0.75])
        np.testing.assert_array_equal(traj.grad_norms, [1.0, 1.0, 1e-20])
        assert traj.param("beta") == 0.125

    @pytest.mark.parametrize("kw,rows", [
        ({"max_iters": 3, "stop_grad_tol": 0.0}, 4),       # iteration cap
        ({"max_iters": 100, "stop_grad_tol": 0.3}, 3)])    # |x_2| = 0.25
    def test_step_is_a_parameter_not_a_column(self, kw, rows):
        traj = gradient_descent(CAT["quadratic_1d"].oracle,
                                GDConfig(x0=[1.0], beta=0.5, **kw))
        assert len(traj) == rows
        assert traj.param("beta") == 0.5
        assert "beta" not in traj.diagnostics

    def test_hb_zero_gradient_with_live_momentum_continues(self):
        # grad h(x0) = 0 at the minimizer, but |x0 - x_prev| = 1
        traj = heavy_ball(CAT["quadratic_1d"].oracle,
                          HBConfig(x0=[0.0], x_prev=[1.0], theta=0.5, beta=0.5,
                                   max_iters=3))
        assert len(traj) == 4
        assert traj.states[1, 0] == -0.5
        np.testing.assert_array_equal(traj.diagnostic("step_norm")[:2],
                                      [1.0, 0.5])

    def test_hb_stops_at_rest_on_the_minimizer(self):
        traj = heavy_ball(CAT["quadratic_1d"].oracle,
                          HBConfig(x0=[0.0], theta=0.5, beta=0.5, max_iters=3))
        assert len(traj) == 1

    @pytest.mark.parametrize("run", ["gd", "hb"])
    def test_memory_follows_steps_not_max_iters(self, run):
        import tracemalloc
        oracle = CAT["quadratic_1d"].oracle
        if run == "gd":
            config = GDConfig(x0=[1.0], beta=0.023, max_iters=10 ** 9)
            solve = gradient_descent
        else:
            config = HBConfig(x0=[1.0], theta=0.5, beta=0.01,
                              max_iters=10 ** 9)
            solve = heavy_ball
        tracemalloc.start()
        try:
            traj = solve(oracle, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 500 < len(traj) < 2000
        assert peak < 4 * 2 ** 20


class TestGDCertificates:
    def test_per_step_factor_quarter_vs_bound(self):
        traj = gradient_descent(CAT["quadratic_1d"].oracle,
                                GDConfig(x0=[1.0], beta=0.5,
                                         max_iters=30, stop_grad_tol=0.0))
        cert = certify_gd_contraction(traj, 1.0, 1.0)
        assert cert.satisfied
        assert cert.constants["q_squared"] == pytest.approx(0.75)
        assert cert.empirical_rate == pytest.approx(0.25, rel=1e-6)

    def test_q_formula(self):
        entry = catalog.strongly_convex_quadratic(1, 2.0, 2.0)
        traj = gradient_descent(entry.oracle,
                                GDConfig(x0=[1.0], beta=0.25,
                                         max_iters=20, stop_grad_tol=0.0))
        cert = certify_gd_contraction(traj, 2.0, 2.0)
        assert cert.constants["q"] == pytest.approx(np.sqrt(0.75), rel=1e-12)

    def test_window_violation(self):
        traj = gradient_descent(CAT["quadratic_2d"].oracle,
                                GDConfig(x0=[1.0, 1.0],
                                         beta=0.4,
                                         max_iters=5, stop_grad_tol=0.0))
        # window for gamma=1, L0=4 is min{1/16, 1/2} = 0.0625
        with pytest.raises(ParameterWindowViolation):
            certify_gd_contraction(traj, 1.0, 4.0)

    def test_empirical_factor_below_bound(self):
        entry = CAT["quadratic_3d"]
        L_hat = estimate.estimate_lipschitz_sublevel(entry.oracle,
                                                     [1.0, 1.0, 0.5],
                                                     samples=2000, seed=42).safe
        beta = optimal_step(1.0, L_hat)
        traj = gradient_descent(entry.oracle,
                                GDConfig(x0=[1.0, 1.0, 0.5],
                                         beta=beta,
                                         max_iters=200, stop_grad_tol=0.0))
        cert = certify_gd_contraction(traj, 1.0, L_hat)
        assert cert.satisfied
        assert cert.empirical_rate <= cert.constants["q_squared"]

    def test_needs_minimizer(self):
        traj = gradient_descent(CAT["sin_quadratic"].oracle,
                                GDConfig(x0=[1.0], beta=0.01,
                                         max_iters=5, stop_grad_tol=0.0))
        # sin_quadratic knows its minimizer, so strip the diagnostics
        traj.diagnostics.pop("dist")
        with pytest.raises(MissingMinimizer):
            certify_gd_contraction(traj, 0.5, 8.0)

    def test_value_envelopes(self):
        traj = gradient_descent(CAT["quadratic_1d"].oracle,
                                GDConfig(x0=[1.0], beta=0.5,
                                         max_iters=30, stop_grad_tol=0.0))
        cert = certify_gd_values(traj, 1.0, 1.0)
        assert cert.satisfied
        assert cert.constants["factor_dist"] == pytest.approx(0.75)
        assert cert.constants["factor_value"] == pytest.approx(0.8125)

    def test_value_hypotheses_enforced(self):
        traj = gradient_descent(CAT["quadratic_1d"].oracle,
                                GDConfig(x0=[1.0], beta=0.5,
                                         max_iters=5, stop_grad_tol=0.0))
        with pytest.raises(ParameterWindowViolation):
            certify_gd_values(traj, 2.0, 1.0)  # gamma < 2 L0 fails

    def test_value_envelopes_follow_the_step(self):
        # gamma = L0 = 1, beta = 0.25: q = 1 - 0.25 (1 - 0.25) = 0.8125 and
        # f = 1 - 0.25 (1 - 0.125) / 2 = 0.890625; the gap contracts by 0.5625
        traj = gradient_descent(CAT["quadratic_1d"].oracle,
                                GDConfig(x0=[1.0], beta=0.25,
                                         max_iters=30, stop_grad_tol=0.0))
        cert = certify_gd_values(traj, 1.0, 1.0)
        assert cert.satisfied
        assert cert.constants["factor_dist"] == 0.8125
        assert cert.constants["factor_value"] == 0.890625
        assert cert.theoretical_rate == 0.890625
        assert cert.empirical_rate == pytest.approx(0.5625, rel=1e-6)


def _gd_from_default_start(name):
    """300 gd steps of 0.01 from the start the CLI takes by default."""
    entry = CAT[name]
    return gradient_descent(entry.oracle, GDConfig(
        x0=cli._start(entry, {}), beta=0.01, max_iters=300, stop_grad_tol=0.0))


# The abstract's discretization of the first-order flow: a gd step of beta
# is an explicit-Euler step of dt = beta, bit for bit, because
# x + dt (-g) and x - beta g round alike.
@pytest.mark.parametrize("name", sorted(CAT))
def test_gd_is_the_explicit_euler_flow(name):
    gd = _gd_from_default_start(name)
    flow = flows.integrate_first_order(CAT[name].oracle, FlowConfig(
        x0=gd.states[0], t_end=3.0, dt=0.01, integrator="explicit_euler"))
    assert np.array_equal(gd.states, flow.states)
    assert np.array_equal(gd.h_values, flow.h_values)
    # the flow evaluates its gradients as one batch after the run, gd point
    # by point during it; every catalog gradient rounds alike both ways
    assert np.array_equal(gd.grad_norms, flow.grad_norms)


class TestHeavyBall:
    def test_hand_recursion(self):
        cfg = HBConfig(x0=[1.0], theta=0.5, beta=0.5, max_iters=2,
                       stop_grad_tol=0.0)
        traj = heavy_ball(CAT["quadratic_1d"].oracle, cfg)
        np.testing.assert_allclose(traj.states[:, 0], [1.0, 0.5, 0.0])

    @pytest.mark.parametrize("name", sorted(CAT))
    def test_degenerate_momentum_matches_gd_bitwise(self, name):
        gd = _gd_from_default_start(name)
        hb = heavy_ball(CAT[name].oracle,
                        HBConfig(x0=gd.states[0], theta=0.0, beta=0.01,
                                 max_iters=300, stop_grad_tol=0.0))
        for series in ("states", "h_values", "grad_norms"):
            assert np.array_equal(getattr(gd, series), getattr(hb, series))
        assert set(gd.diagnostics) <= set(hb.diagnostics)
        for key, series in gd.diagnostics.items():
            assert np.array_equal(series, hb.diagnostics[key])

    def test_tiny_momentum_close_to_gd(self):
        gd = gradient_descent(CAT["quadratic_1d"].oracle,
                              GDConfig(x0=[1.0], beta=0.3,
                                       max_iters=40, stop_grad_tol=0.0))
        hb = heavy_ball(CAT["quadratic_1d"].oracle,
                        HBConfig(x0=[1.0], theta=1e-12, beta=0.3,
                                 max_iters=40, stop_grad_tol=0.0))
        assert np.max(np.abs(gd.states - hb.states)) <= 1e-10

    def test_theta_range_enforced(self):
        with pytest.raises(InvalidParameter):
            HBConfig(x0=[1.0], theta=1.0, beta=0.1)
        with pytest.raises(InvalidParameter):
            HBConfig(x0=[1.0], theta=-0.1, beta=0.1)

    def test_discretization_matches_damped_flow(self):
        # theta = 1 - alpha eta, beta = eta^2 reproduces the flow to O(eta)
        entry = catalog.strongly_convex_quadratic(2, 1.0, 1.0)
        x0 = np.array([1.0, 0.5])
        eta, alpha = 0.01, 3.0
        hb = heavy_ball(entry.oracle,
                        HBConfig(x0=x0, theta=1 - alpha * eta, beta=eta ** 2,
                                 max_iters=100, stop_grad_tol=0.0))
        fl = integrate_second_order(
            entry.oracle, FlowConfig(x0=x0, t_end=1.0,
                                     dt=eta / 10.0, alpha=alpha))
        gap = np.max(np.abs(hb.states - fl.states[::10][:len(hb.states)]))
        assert gap < 0.05


class TestHBCertificate:
    def run_default(self, iters=200):
        return heavy_ball(CAT["quadratic_1d"].oracle,
                          HBConfig(x0=[1.0], theta=0.5, beta=0.5,
                                   max_iters=iters, stop_grad_tol=0.0))

    def test_constants_by_substitution(self):
        cert = certify_hb_energy(self.run_default(), 1.0, 1.0)
        assert cert.constants["rho"] == pytest.approx(0.25)
        assert cert.constants["sigma"] == pytest.approx(2.5)
        assert cert.constants["factor"] == pytest.approx(0.9)
        assert cert.satisfied

    def test_energy_nonincreasing_with_factor(self):
        traj = self.run_default()
        E = traj.diagnostic("energy")
        assert np.all(E[1:] <= 0.9 * E[:-1] + 1e-9 * (1 + E[:-1]))

    def test_printed_E1_uses_first_step(self):
        traj = self.run_default(iters=5)
        cert = certify_hb_energy(traj, 1.0, 1.0)
        step1 = traj.diagnostic("step_norm")[1]
        expected = traj.diagnostic("h_gap")[0] + (0.25 / 1.0) * step1 ** 2
        assert cert.constants["E1"] == pytest.approx(expected)

    def test_boundary_rejected(self):
        # beta = (1 - theta^2)/L makes rho = 0: window violation
        traj = heavy_ball(CAT["quadratic_1d"].oracle,
                          HBConfig(x0=[1.0], theta=0.5, beta=0.75,
                                   max_iters=10, stop_grad_tol=0.0))
        with pytest.raises(ParameterWindowViolation):
            certify_hb_energy(traj, 1.0, 1.0)

    def test_run_without_a_step_is_vacuous(self):
        # at rest on the minimizer the run stops at x_0
        traj = heavy_ball(CAT["quadratic_1d"].oracle,
                          HBConfig(x0=[0.0], theta=0.5, beta=0.5, max_iters=10))
        assert len(traj) == 1
        cert = certify_hb_energy(traj, 1.0, 1.0)
        assert cert.satisfied and cert.first_violation is None
        assert np.isnan(cert.empirical_rate)
        full = certify_hb_energy(self.run_default(), 1.0, 1.0)
        for name in ("rho", "sigma", "factor"):
            assert cert.constants[name] == full.constants[name]
        assert cert.constants["E1"] == 0.0

    def test_zero_theta_rejected_by_certificate(self):
        traj = heavy_ball(CAT["quadratic_1d"].oracle,
                          HBConfig(x0=[1.0], theta=0.0, beta=0.5,
                                   max_iters=10, stop_grad_tol=0.0))
        with pytest.raises(ParameterWindowViolation):
            certify_hb_energy(traj, 1.0, 1.0)


class TestStepHelpers:
    def test_window(self):
        assert step_window(1.0, 4.0) == pytest.approx(1.0 / 16.0)
        assert step_window(1.0, 1.0) == pytest.approx(1.0)

    def test_optimal(self):
        assert optimal_step(1.0, 1.0) == pytest.approx(0.5)
        assert optimal_step(2.0, 2.0) == pytest.approx(0.25)

    def test_gd_window(self):
        assert gd_window(1.0, 4.0, 0.05) == 0.05
        with pytest.raises(ParameterWindowViolation, match=r"beta=0.5 outside "
                           r"the certified window \]0, 0.0625\["):
            gd_window(1.0, 4.0, 0.5)
        with pytest.raises(ParameterWindowViolation, match="beta=nan"):
            gd_window(1.0, 4.0, float("nan"))
        for beta in (0.0, -1.0):
            with pytest.raises(ParameterWindowViolation,
                               match="step size must be positive"):
                gd_window(1.0, 4.0, beta)
        with pytest.raises(InvalidParameter):
            gd_window(1.0, 0.0, 0.05)

    def test_hb_window(self):
        # theta = beta = 0.5, L = 1: rho = min{0.25, (1 - 0.5 - 0.25)/1}
        assert hb_window(0.5, 0.5, 1.0) == 0.25
        # the boundary beta = (1 - theta^2)/L, theta outside ]0, 1[, beta <= 0
        for theta, beta in ((0.5, 0.75), (0.0, 0.5), (1.0, 0.1), (0.5, 0.0)):
            with pytest.raises(ParameterWindowViolation):
                hb_window(theta, beta, 1.0)

    def test_invalid(self):
        with pytest.raises(InvalidParameter):
            step_window(0.0, 1.0)
        for beta in (0.0, -1.0):
            with pytest.raises(InvalidParameter, match="step size must be positive"):
                GDConfig(x0=[1.0], beta=beta)
