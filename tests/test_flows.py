import numpy as np
import pytest

from sqcflow import catalog, flows
from sqcflow.core import (DomainExit, DomainSpec, FunctionOracle,
                          InvalidParameter, MissingMinimizer, NumericalBlowup)
from sqcflow.flows import (FlowConfig, LyapunovParams, certify_first_order,
                           certify_first_order_values, certify_second_order,
                           integrate_first_order, integrate_second_order)

CAT = catalog.default_catalog()


def constant_oracle():
    def value(x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1]) if x.ndim > 1 else 1.0

    return FunctionOracle(dim=1, value=value,
                          grad=lambda x: np.zeros_like(np.asarray(x, dtype=float)))


class TestFirstOrderIntegration:
    def test_linear_ode_closed_form(self):
        cfg = FlowConfig(x0=[1.0], t_end=5.0, dt=1e-3)
        traj = integrate_first_order(CAT["quadratic_1d"].oracle, cfg)
        assert traj.final_state[0] == pytest.approx(np.exp(-5.0), abs=1e-6)

    def test_decay_exponent_matches_curvature(self):
        entry = catalog.strongly_convex_quadratic(1, 2.0, 2.0)
        cfg = FlowConfig(x0=[1.0], t_end=3.0, dt=1e-3)
        traj = integrate_first_order(entry.oracle, cfg)
        slope = np.polyfit(traj.times, np.log(np.abs(traj.states[:, 0])), 1)[0]
        assert -slope == pytest.approx(2.0, rel=1e-3)

    def test_values_nonincreasing_on_sin_quadratic(self):
        cfg = FlowConfig(x0=[2.0], t_end=4.0, dt=1e-3)
        traj = integrate_first_order(CAT["sin_quadratic"].oracle, cfg)
        assert np.all(np.diff(traj.h_values) <= 1e-9)

    def test_value_slope_equals_squared_gradient_norm(self):
        # d/dt h = -|grad h|^2 along the flow; forward differences agree
        # to first order in dt, relative to the gradient magnitude
        for dt in (1e-3, 5e-4):
            cfg = FlowConfig(x0=[1.0, 1.0], t_end=1.0, dt=dt)
            traj = integrate_first_order(CAT["quadratic_2d"].oracle, cfg)
            slope = np.diff(traj.h_values) / dt
            resid = np.abs(slope + traj.grad_norms[:-1] ** 2) \
                / (1.0 + traj.grad_norms[:-1] ** 2)
            assert resid.max() <= 10.0 * dt

    def test_euler_first_order_accuracy(self):
        exact = np.exp(-2.0)
        errs = []
        for dt in (0.02, 0.01):
            cfg = FlowConfig(x0=[1.0], t_end=2.0, dt=dt,
                             integrator="explicit_euler")
            traj = integrate_first_order(CAT["quadratic_1d"].oracle, cfg)
            errs.append(abs(traj.final_state[0] - exact))
        assert 1.7 <= errs[0] / errs[1] <= 2.3

    def test_rk4_fourth_order_accuracy(self):
        exact = np.exp(-2.0)
        errs = []
        for dt in (0.2, 0.1):
            cfg = FlowConfig(x0=[1.0], t_end=2.0, dt=dt)
            traj = integrate_first_order(CAT["quadratic_1d"].oracle, cfg)
            errs.append(abs(traj.final_state[0] - exact))
        assert 10.0 <= errs[0] / errs[1] <= 30.0

    def test_domain_exit(self):
        # gradient ascent direction: flow on -h leaves the ball
        entry = catalog.sqrt_norm(1, 1.0)
        neg = FunctionOracle(dim=1,
                             value=lambda x: -entry.oracle.value(x),
                             grad=lambda x: -np.asarray(entry.oracle.grad(x)),
                             domain=entry.oracle.domain)
        cfg = FlowConfig(x0=[0.9], t_end=2.0, dt=1e-2)
        with pytest.raises(DomainExit):
            integrate_first_order(neg, cfg)

    def test_stop_dist_truncates(self):
        entry = CAT["sqrt_norm_1d"]
        cfg = FlowConfig(x0=[0.9], t_end=1.2, dt=1e-4, stop_dist=1e-3)
        traj = integrate_first_order(entry.oracle, cfg)
        assert traj.times[-1] < 1.2
        assert abs(traj.final_state[0]) <= 1e-3

    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            FlowConfig(x0=[1.0], t_end=1.0, dt=0.0)
        with pytest.raises(InvalidParameter):
            FlowConfig(x0=[1.0], t_end=1.0, dt=0.1, integrator="rk3")
        oracle = CAT["quadratic_1d"].oracle
        for bad in ({}, {"alpha": 0.0}, {"alpha": 1.0, "v0": [0.0, 0.0]}):
            cfg = FlowConfig(x0=[1.0], t_end=1.0, dt=0.1, **bad)
            with pytest.raises(InvalidParameter):
                integrate_second_order(oracle, cfg)
        # the first-order flow reads neither alpha nor v0
        cfg = FlowConfig(x0=[1.0], t_end=1.0, dt=0.1, alpha=-1.0, v0=[0.0, 0.0])
        assert len(integrate_first_order(oracle, cfg)) == 11


def drift_oracle(domain=None, blowup_above=None):
    """h(x) = -x0 in 1-D: the first-order flow moves right at unit speed.

    Beyond ``blowup_above`` the gradient is infinite, so a step that
    evaluates it there yields a non-finite state.
    """
    def grad(x):
        x = np.asarray(x, dtype=float)
        g = -np.ones_like(x)
        if blowup_above is not None:
            g[x > blowup_above] = np.inf
        return g

    return FunctionOracle(dim=1, value=lambda x: -np.asarray(x)[..., 0],
                          grad=grad, domain=domain or DomainSpec.all_space())


def drift_config(order, integrator, **kw):
    # second order: v0 = 1 is the fixed point of v' = -v + 1, so x also
    # moves right at unit speed
    extra = {"alpha": 1.0, "v0": [1.0]} if order == 2 else {}
    return FlowConfig(x0=[0.0], t_end=10.0, dt=0.5, integrator=integrator,
                      **extra, **kw)


INTEGRATE = {1: integrate_first_order, 2: integrate_second_order}


class TestStepLoopSemantics:
    """Where each loop stops or raises; x_k = 0.5 k on the drift oracle."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("integrator,where", [
        # Euler evaluates the gradient at x_5 = 2.5 only in step 6; the
        # RK4 stage x_4 + dt/2 = 2.25 already does so in step 5
        ("explicit_euler", 6 * 0.5), ("rk4", 5 * 0.5)])
    def test_blowup_where(self, order, integrator, where):
        with pytest.raises(NumericalBlowup) as exc:
            INTEGRATE[order](drift_oracle(blowup_above=2.2),
                             drift_config(order, integrator))
        assert exc.value.where == where

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("integrator", ["explicit_euler", "rk4"])
    def test_domain_exit_where(self, order, integrator):
        box = DomainSpec.box([-10.0], [2.2])
        with pytest.raises(DomainExit) as exc:
            INTEGRATE[order](drift_oracle(domain=box),
                             drift_config(order, integrator))
        assert exc.value.where == 5 * 0.5  # x_5 = 2.5 is the first outside

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("integrator", ["explicit_euler", "rk4"])
    def test_stop_dist_keeps_first_sample_inside(self, order, integrator):
        cfg = FlowConfig(x0=[1.0, -1.0], t_end=50.0, dt=0.01,
                         integrator=integrator, stop_dist=1e-2,
                         alpha=3.0 if order == 2 else None)
        traj = INTEGRATE[order](CAT["quadratic_2d"].oracle, cfg)
        dist = np.linalg.norm(traj.states, axis=-1)
        assert dist[-1] <= 1e-2 < dist[:-1].min()
        assert len(traj) < 5000
        assert traj.times[-1] == (len(traj) - 1) * 0.01


class TestSecondOrderIntegration:
    def test_overdamped_closed_form(self):
        cfg = FlowConfig(x0=[1.0], t_end=2.0, dt=1e-3, alpha=3.0)
        traj = integrate_second_order(CAT["quadratic_1d"].oracle, cfg)
        s1, s2 = (-3 + np.sqrt(5)) / 2, (-3 - np.sqrt(5)) / 2
        a = s2 / (s2 - s1)
        exact = a * np.exp(s1 * traj.times) + (1 - a) * np.exp(s2 * traj.times)
        assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-10

    def test_zero_gradient_decouples(self):
        cfg = FlowConfig(x0=[0.5], v0=[1.0], t_end=2.0, dt=1e-3, alpha=1.0)
        traj = integrate_second_order(constant_oracle(), cfg)
        np.testing.assert_allclose(traj.diagnostic("v0"),
                                   np.exp(-traj.times), atol=1e-9)
        np.testing.assert_allclose(traj.states[:, 0],
                                   0.5 + 1.0 - np.exp(-traj.times), atol=1e-9)

    def test_sigma_nonincreasing_with_admissible_params(self):
        entry = CAT["quadratic_2d"]
        lyap = LyapunovParams.from_constants(1.0, 0.25, 3.0)
        cfg = FlowConfig(x0=[1.0, 1.0], t_end=5.0, dt=1e-3, alpha=3.0)
        traj = integrate_second_order(entry.oracle, cfg, lyap)
        sigma = traj.diagnostic("Sigma")
        assert np.all(np.diff(sigma) <= 1e-9)


class TestLyapunovParams:
    def test_from_constants_picks_bound(self):
        lyap = LyapunovParams.from_constants(1.0, 0.25, 3.0)
        assert lyap.lam == pytest.approx(min(np.sqrt(2.0), 6.0 / 4.25))
        assert lyap.xi == lyap.lam * lyap.lam

    def test_positivity(self):
        with pytest.raises(InvalidParameter):
            LyapunovParams(lam=-1.0, kappa=0.5)


class TestFirstOrderCertificates:
    def test_half_square_envelope(self):
        cfg = FlowConfig(x0=[1.0], t_end=5.0, dt=1e-3)
        traj = integrate_first_order(CAT["quadratic_1d"].oracle, cfg)
        cert = certify_first_order(traj, 1.0)
        assert cert.satisfied
        assert cert.empirical_rate == pytest.approx(1.0, rel=1e-3)
        assert cert.theoretical_rate == 0.5

    def test_sqrt_norm_envelope(self):
        entry = CAT["sqrt_norm_1d"]
        cfg = FlowConfig(x0=[0.9], t_end=1.2, dt=1e-4, stop_dist=1e-3)
        traj = integrate_first_order(entry.oracle, cfg)
        cert = certify_first_order(traj, entry.constants_known["gamma"])
        assert cert.satisfied and cert.first_violation is None

    def test_sin_quadratic_empirical_modulus_envelope(self):
        from sqcflow import estimate
        entry = CAT["sin_quadratic"]
        gamma = estimate.empirical_modulus(entry.oracle, samples=50_000,
                                           seed=3) * estimate.SAFETY_MODULUS
        cfg = FlowConfig(x0=[2.0], t_end=6.0, dt=1e-3)
        traj = integrate_first_order(entry.oracle, cfg)
        cert = certify_first_order(traj, gamma)
        assert cert.satisfied

    def test_wrong_modulus_falsified(self):
        cfg = FlowConfig(x0=[1.0], t_end=5.0, dt=1e-3)
        traj = integrate_first_order(CAT["quadratic_1d"].oracle, cfg)
        cert = certify_first_order(traj, 10.0)
        assert not cert.satisfied
        assert cert.first_violation is not None

    def test_value_envelopes_half_square(self):
        cfg = FlowConfig(x0=[1.0], t_end=5.0, dt=1e-3)
        traj = integrate_first_order(CAT["quadratic_1d"].oracle, cfg)
        cert = certify_first_order_values(traj, 1.0, 1.0)
        assert cert.satisfied
        # actual decay exp(-2t) beats both envelope exponents
        assert cert.empirical_rate == pytest.approx(2.0, rel=1e-3)

    def test_value_envelopes_anisotropic(self):
        entry = CAT["quadratic_2d"]
        cfg = FlowConfig(x0=[1.0, 1.0], t_end=8.0, dt=1e-3)
        traj = integrate_first_order(entry.oracle, cfg)
        cert = certify_first_order_values(traj, 1.0, 4.0)
        assert cert.satisfied and cert.first_violation is None

    def test_value_envelope_wrong_modulus_falsified(self):
        cfg = FlowConfig(x0=[1.0], t_end=5.0, dt=1e-3)
        traj = integrate_first_order(CAT["quadratic_1d"].oracle, cfg)
        cert = certify_first_order_values(traj, 10.0, 1.0)
        assert not cert.satisfied

    def test_value_envelope_far_start(self):
        # gap 8 exp(-2t) sits under (L/2)|x0|^2 exp(-gamma t) = 8 exp(-t);
        # the envelope (L/2)|x0| exp(-gamma t / 2) = 2 exp(-t/2) did not hold
        # at t = 0
        cfg = FlowConfig(x0=[4.0], t_end=10.0, dt=1e-3)
        traj = integrate_first_order(CAT["quadratic_1d"].oracle, cfg)
        cert = certify_first_order_values(traj, 1.0, 1.0)
        assert cert.satisfied and cert.first_violation is None
        assert cert.theoretical_rate == 0.5

    def test_value_envelope_needs_minimizer_diag(self):
        cfg = FlowConfig(x0=[0.5], t_end=1.0, dt=1e-2)
        traj = integrate_first_order(cubic_free(), cfg)
        with pytest.raises(MissingMinimizer):
            certify_first_order_values(traj, 1.0, 1.0)

    def test_distance_envelope_needs_minimizer_diag(self):
        cfg = FlowConfig(x0=[0.5], t_end=1.0, dt=1e-2)
        traj = integrate_first_order(cubic_free(), cfg)
        assert "E" not in traj.diagnostics
        with pytest.raises(MissingMinimizer):
            certify_first_order(traj, 1.0)


def cubic_free():
    return FunctionOracle(
        dim=1,
        value=lambda x: np.asarray(x)[..., 0] ** 4,
        grad=lambda x: 4.0 * np.asarray(x)[..., 0:1] ** 3)


class TestStartAtMinimizer:
    """No sample lies above the floor, so no rate is fitted (NaN) and the
    envelopes hold trivially: nothing contradicts the bounds."""

    def test_first_order(self):
        cfg = FlowConfig(x0=[0.0, 0.0], t_end=1.0, dt=0.01)
        traj = integrate_first_order(CAT["quadratic_2d"].oracle, cfg)
        for cert in (certify_first_order(traj, 1.0),
                     certify_first_order_values(traj, 1.0, 4.0)):
            assert np.isnan(cert.empirical_rate)
            assert cert.satisfied and cert.first_violation is None

    def test_second_order(self):
        lyap = LyapunovParams.from_constants(1.0, 0.25, 3.0)
        cfg = FlowConfig(x0=[0.0, 0.0], t_end=1.0, dt=0.01, alpha=3.0)
        traj = integrate_second_order(CAT["quadratic_2d"].oracle, cfg, lyap)
        cert = certify_second_order(traj)
        assert np.isnan(cert.empirical_rate)
        assert cert.satisfied and cert.first_violation is None


class TestSecondOrderCertificate:
    def test_quadratic_lyapunov_envelope(self):
        entry = CAT["quadratic_2d"]
        lyap = LyapunovParams.from_constants(1.0, 0.25, 3.0)
        cfg = FlowConfig(x0=[1.0, 1.0], t_end=10.0, dt=1e-3, alpha=3.0)
        traj = integrate_second_order(entry.oracle, cfg, lyap)
        cert = certify_second_order(traj)
        assert cert.satisfied
        assert cert.theoretical_rate == pytest.approx(0.5 * lyap.lam * 0.25)

    def test_missing_sigma_diagnostics(self):
        cfg = FlowConfig(x0=[1.0], t_end=1.0, dt=1e-2, alpha=1.0)
        traj = integrate_second_order(CAT["quadratic_1d"].oracle, cfg, lyap=None)
        with pytest.raises(InvalidParameter):
            certify_second_order(traj)
