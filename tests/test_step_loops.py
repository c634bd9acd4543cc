"""The step loops of flows and solvers, which step lists of Python floats,
against a numpy copy of the array recursion they replaced, whose gd and
heavy-ball rows also held grad h(x_k) and |x_k - x_{k-1}|: the same states,
batch gradients and step norms byte for byte, the same stops, the same
errors at the same time."""

import dataclasses
import math

import numpy as np
import pytest

from sqcflow import catalog, cli, core, flows, solvers
from sqcflow.core import (DomainExit, DomainSpec, FunctionOracle,
                          NumericalBlowup)
from sqcflow.flows import (FlowConfig, integrate_first_order,
                           integrate_second_order)
from sqcflow.solvers import GDConfig, HBConfig, gradient_descent, heavy_ball

CAT = catalog.default_catalog()


# --- the array recursion, kept here as the reference -------------------------

@np.errstate(over="ignore", invalid="ignore")
def array_step_rows(first, n_max, unit, advance, inside, *, width=None,
                    fill=None):
    if not inside(first):
        raise DomainExit(0, "x0 outside the domain")
    n = first.size
    rows = np.empty((min(n_max, 1024) + 1, width or n))
    rows[0, :n] = first
    if fill is not None:
        fill(rows, 0)
    k = 0
    while k < n_max:
        state = advance(rows, k)
        if state is None:
            break
        if not all(map(math.isfinite, state.tolist())):
            raise NumericalBlowup((k + 1) * unit)
        if not inside(state):
            raise DomainExit((k + 1) * unit)
        k += 1
        if k == rows.shape[0]:
            grown = np.empty((min(2 * k, n_max + 1), rows.shape[1]))
            grown[:k] = rows
            rows = grown
        rows[k, :n] = state
        if fill is not None:
            fill(rows, k)
    return rows[:k + 1]


def array_step(integrator):
    if integrator == "rk4":
        def step(f, z, dt):
            k1 = f(z)
            k2 = f(z + 0.5 * dt * k1)
            k3 = f(z + 0.5 * dt * k2)
            k4 = f(z + dt * k3)
            return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        def step(f, z, dt):
            return z + dt * f(z)
    return step


def array_flow(oracle, config, order):
    d, dt, x_bar = oracle.dim, config.dt, oracle.known_minimizer
    x0 = core.as_point(config.x0, d)
    if order == 1:
        z0 = x0

        def f(z):
            return -np.asarray(oracle.grad(z))
    else:
        alpha = float(config.alpha)
        v0 = np.zeros_like(x0) if config.v0 is None \
            else core.as_point(config.v0)
        z0 = np.concatenate([x0, v0])

        def f(z):
            x, v = z[:d], z[d:]
            return np.concatenate([v, -alpha * v - np.asarray(oracle.grad(x))])
    step = array_step(config.integrator)

    def advance(rows, k):
        if config.stop_dist is not None and k \
                and core.norm(rows[k, :d] - x_bar) <= config.stop_dist:
            return None
        return step(f, rows[k], dt)
    return array_step_rows(z0, max(1, int(round(config.t_end / dt))), dt,
                           advance, lambda z: oracle.domain.contains(z[:d]))


def array_gd(oracle, config):
    d, beta, tol = oracle.dim, config.beta, config.stop_grad_tol

    def fill(rows, k):
        rows[k, d:2 * d] = oracle.grad(rows[k, :d])

    def advance(rows, k):
        x, g = rows[k, :d], rows[k, d:2 * d]
        if core.norm(g) <= tol:
            return None
        x_next = x - beta * g
        return None if x_next.tolist() == x.tolist() else x_next

    return array_step_rows(core.as_point(config.x0, d), config.max_iters, 1,
                           advance, oracle.domain.contains, width=2 * d,
                           fill=fill)


def array_hb(oracle, config):
    d, tol = oracle.dim, config.stop_grad_tol
    x_prev = core.as_point(config.x_prev, d)
    if not oracle.domain.contains(x_prev):
        raise DomainExit(0, "starting points outside the domain")

    def fill(rows, k):
        x = rows[k, :d]
        rows[k, d:2 * d] = oracle.grad(x)
        rows[k, -1] = core.norm(x - (rows[k - 1, :d] if k else x_prev))

    def advance(rows, k):
        x, g = rows[k, :d], rows[k, d:2 * d]
        if core.norm(g) <= tol and rows[k, -1] <= tol:
            return None
        return x + config.theta * (x - (rows[k - 1, :d] if k else x_prev)) \
            - config.beta * g

    return array_step_rows(core.as_point(config.x0, d), config.max_iters, 1,
                           advance, oracle.domain.contains, width=2 * d + 1,
                           fill=fill)


# --- runs of both loops ------------------------------------------------------

ARRAY_RUNS = {
    "flow1": lambda oracle, config: array_flow(oracle, config, 1),
    "flow2": lambda oracle, config: array_flow(oracle, config, 2),
    "gd": array_gd,
    "hb": array_hb,
}
LIST_RUNS = {"flow1": integrate_first_order, "flow2": integrate_second_order,
             "gd": gradient_descent, "hb": heavy_ball}


def outcome(run):
    """Shape and bytes of each column block, or the error's class and time."""
    try:
        blocks = run()
    except (NumericalBlowup, DomainExit) as exc:
        return type(exc).__name__, exc.where
    return tuple((b.shape, np.ascontiguousarray(b).tobytes()) for b in blocks)


@pytest.fixture
def both(monkeypatch):
    """``both(kind, oracle, config)``: the outcomes of the array copy and of
    the library run as column blocks: the states (the whole row of a flow),
    then for gd and hb grad h at each state and for hb the step norms.  The
    library's states are caught on their way out of ``core.step_rows``, its
    gradients taken in one batch on ``traj.states``."""
    caught = []

    def catching(*args, **kw):
        caught.append(core.step_rows(*args, **kw))
        return caught[-1]
    monkeypatch.setattr(flows, "step_rows", catching)
    monkeypatch.setattr(solvers, "step_rows", catching)

    def reference(kind, oracle, config):
        rows, d = ARRAY_RUNS[kind](oracle, config), oracle.dim
        if kind.startswith("flow"):
            return [rows]
        return [rows[:, :d], rows[:, d:2 * d]] + \
            ([rows[:, 2 * d:]] if kind == "hb" else [])

    def library(kind, oracle, config):
        traj = LIST_RUNS[kind](oracle, config)
        blocks = [caught.pop()]
        if not kind.startswith("flow"):
            blocks.append(np.asarray(oracle.grad(traj.states)))
        if kind == "hb":
            blocks.append(traj.diagnostics["step_norm"][:, None])
        return blocks

    def run(kind, oracle, config):
        return (outcome(lambda: reference(kind, oracle, config)),
                outcome(lambda: library(kind, oracle, config)))
    return run


def configs(entry, **flow):
    """A run of each kind from the entry's default start; hb starts with
    x_prev halfway to the minimizer, inside every (convex) domain."""
    x0 = cli._start(entry, {})
    x_prev = 0.5 * (x0 + entry.oracle.known_minimizer)
    flow = {"t_end": 4.0, "dt": 0.01, **flow}
    for integrator in ("rk4", "explicit_euler"):
        yield "flow1", FlowConfig(x0=x0, integrator=integrator, **flow)
        yield "flow2", FlowConfig(x0=x0, integrator=integrator, alpha=3.0,
                                  **flow)
    yield "gd", GDConfig(x0=x0, beta=0.05, max_iters=400)
    yield "hb", HBConfig(x0=x0, x_prev=x_prev, theta=0.5, beta=0.05,
                         max_iters=400)


def drift_oracle(domain=None, blowup_above=None, grad_below=None):
    """h(x) = -x0 in 1-D; the gradient is infinite beyond ``blowup_above``,
    and with ``grad_below`` it is 1 above that point and 1e-20 at or below."""
    def grad(x):
        x = np.asarray(x, dtype=float)
        if grad_below is not None:
            return np.where(x > grad_below, 1.0, 1e-20)
        g = -np.ones_like(x)
        if blowup_above is not None:
            g[x > blowup_above] = np.inf
        return g

    return FunctionOracle(dim=1, value=lambda x: -np.asarray(x)[..., 0],
                          grad=grad, domain=domain or DomainSpec.all_space(),
                          known_minimizer=np.zeros(1))


# --- the tests ---------------------------------------------------------------

class TestSameRowsAsTheArrayRecursion:
    @pytest.mark.parametrize("name", sorted(CAT))
    def test_catalog(self, both, name):
        for kind, config in configs(CAT[name]):
            ref, new = both(kind, CAT[name].oracle, config)
            assert new == ref, (kind, config)

    @pytest.mark.parametrize("name", sorted(CAT))
    def test_stop_dist(self, both, name):
        entry = CAT[name]
        x0 = cli._start(entry, {})
        dist0 = core.norm(x0 - entry.oracle.known_minimizer)
        for kind, config in configs(entry, t_end=20.0,
                                    stop_dist=0.25 * dist0):
            if kind.startswith("flow"):
                ref, new = both(kind, entry.oracle, config)
                assert new == ref, (kind, config)
                # the degenerate quadratic's flow ends on its minimizer set,
                # away from the one minimizer it records
                assert (ref[0][0][0] < 2001) == \
                    (name != "degenerate_quadratic")

    def test_decay_into_subnormals(self, both):
        oracle = CAT["quadratic_2d"].oracle
        config = FlowConfig(x0=[1.0, 1.0], t_end=800.0, dt=0.01)
        ref, new = both("flow1", oracle, config)
        assert new == ref
        states = np.frombuffer(ref[0][1]).reshape(ref[0][0])
        assert np.any((states != 0) & (np.abs(states) < np.finfo(float).tiny))

    @pytest.mark.parametrize("oracle,config,rows", [
        # x_k = g_k = 2^-k down to 2^-1074, whose step rounds back to it:
        # an exact fixed point (the norm rescales squares that underflow)
        (CAT["quadratic_1d"].oracle,
         GDConfig(x0=[1.0], beta=0.5, max_iters=2000, stop_grad_tol=0.0), 1075),
        # x_1 = 0 exactly, whose zero gradient meets the tolerance 0
        (CAT["quadratic_1d"].oracle,
         GDConfig(x0=[1.0], beta=1.0, max_iters=10, stop_grad_tol=0.0), 2),
        (CAT["quadratic_2d"].oracle,
         GDConfig(x0=[1.0, -1.0], beta=1e-20, max_iters=10), 1),
        (drift_oracle(grad_below=0.75),
         GDConfig(x0=[1.0], beta=0.125, max_iters=100, stop_grad_tol=0.0), 3),
        (CAT["quadratic_2d"].oracle,
         GDConfig(x0=[1.0, -1.0], beta=0.2, max_iters=10 ** 6,
                  stop_grad_tol=1e-8), None),
    ])
    def test_gd_stops(self, both, oracle, config, rows):
        ref, new = both("gd", oracle, config)
        assert new == ref
        assert ref[0][0][0] < config.max_iters + 1
        assert rows is None or ref[0][0][0] == rows

    @pytest.mark.parametrize("config", [
        HBConfig(x0=[0.0], theta=0.5, beta=0.5, max_iters=3),
        HBConfig(x0=[0.0], x_prev=[1.0], theta=0.5, beta=0.5, max_iters=3),
        HBConfig(x0=[1.0], theta=0.9, beta=0.3, max_iters=10 ** 6,
                 stop_grad_tol=1e-8)])
    def test_hb_stops(self, both, config):
        ref, new = both("hb", CAT["quadratic_1d"].oracle, config)
        assert new == ref

    @pytest.mark.parametrize("oracle,kind,config,error", [
        (CAT["quadratic_2d"].oracle, "flow1",
         FlowConfig(x0=[1.0, 1.0], t_end=800.0, dt=1.0,
                    integrator="explicit_euler"), "NumericalBlowup"),
        (CAT["quadratic_2d"].oracle, "flow2",
         FlowConfig(x0=[1.0, 1.0], t_end=800.0, dt=2.0, alpha=1.0),
         "NumericalBlowup"),
        (CAT["quadratic_2d"].oracle, "gd",
         GDConfig(x0=[1.0, 1.0], beta=10.0), "NumericalBlowup"),
        (CAT["quadratic_2d"].oracle, "hb",
         HBConfig(x0=[1.0, 1.0], theta=0.5, beta=10.0), "NumericalBlowup"),
        (CAT["sqrt_norm_2d"].oracle, "gd",
         GDConfig(x0=[0.3, 0.2], beta=5.0), "DomainExit"),
        (CAT["sqrt_norm_2d"].oracle, "flow1",
         FlowConfig(x0=[1.0, 1.0], t_end=1.0, dt=0.1), "DomainExit"),
    ])
    def test_errors(self, both, oracle, kind, config, error):
        ref, new = both(kind, oracle, config)
        assert new == ref
        assert ref[0] == error

    @pytest.mark.parametrize("kind,config", [
        *((kind, FlowConfig(x0=[0.0], t_end=10.0, dt=0.5, alpha=1.0, v0=[1.0],
                            integrator=integrator))
          for kind in ("flow1", "flow2")
          for integrator in ("rk4", "explicit_euler")),
        ("gd", GDConfig(x0=[0.0], beta=0.5, max_iters=100, stop_grad_tol=0.0)),
        ("hb", HBConfig(x0=[0.0], theta=0.5, beta=0.5, max_iters=100,
                        stop_grad_tol=0.0))])
    @pytest.mark.parametrize("oracle", [
        drift_oracle(blowup_above=2.2),
        drift_oracle(domain=DomainSpec.box([-10.0], [2.2])),
        drift_oracle(domain=DomainSpec.all_space(lambda x: x[..., 0] <= 2.2))])
    def test_drift_errors(self, both, kind, config, oracle):
        ref, new = both(kind, oracle, config)
        assert new == ref
        assert ref[0] in ("NumericalBlowup", "DomainExit")


class TestDomainTest:
    """All of R^n with no predicate is never asked; any other domain is
    asked on every state, the first included."""

    @pytest.mark.parametrize("domain,calls", [
        (DomainSpec.all_space(), 0),
        (DomainSpec.all_space(lambda x: True), 201),
        (DomainSpec.ball([0.0, 0.0], 10.0), 201),
        (DomainSpec.box([-5.0, -5.0], [5.0, 5.0]), 201)])
    def test_contains_calls(self, monkeypatch, domain, calls):
        asked = []
        contains = DomainSpec.contains
        monkeypatch.setattr(DomainSpec, "contains",
                            lambda self, x: asked.append(1) or contains(self, x))
        oracle = dataclasses.replace(CAT["quadratic_2d"].oracle, domain=domain)
        traj = integrate_first_order(
            oracle, FlowConfig(x0=[1.0, -1.0], t_end=2.0, dt=0.01))
        assert len(traj) == 201 and len(asked) == calls

    @pytest.mark.parametrize("domain,calls", [
        (DomainSpec.all_space(), 0),
        (DomainSpec.ball([0.0, 0.0], 10.0), 22)])
    def test_heavy_ball_asks_x_prev_like_x0(self, monkeypatch, domain, calls):
        # x_prev, then x0 and each of the 20 steps' states
        asked = []
        contains = DomainSpec.contains
        monkeypatch.setattr(DomainSpec, "contains",
                            lambda self, x: asked.append(1) or contains(self, x))
        oracle = dataclasses.replace(CAT["quadratic_2d"].oracle, domain=domain)
        traj = heavy_ball(oracle, HBConfig(x0=[1.0, -1.0], x_prev=[0.5, 0.5],
                                           theta=0.5, beta=0.1, max_iters=20))
        assert len(traj) == 21 and len(asked) == calls


class TestOracleCalls:
    """gd and heavy ball take grad h at one point per step, the step that
    stops included, then read h and grad h over all iterates in one batch
    call each; h* is one more single-point h call."""

    @pytest.mark.parametrize("kind,config", [
        ("gd", GDConfig(x0=[1.0, -1.0], beta=0.2, max_iters=30)),
        ("gd", GDConfig(x0=[1.0, -1.0], beta=0.2, max_iters=10 ** 6,
                        stop_grad_tol=1e-8)),
        ("hb", HBConfig(x0=[1.0, -1.0], theta=0.5, beta=0.1, max_iters=30)),
        ("hb", HBConfig(x0=[1.0, -1.0], theta=0.5, beta=0.1,
                        max_iters=10 ** 6, stop_grad_tol=1e-8))])
    def test_calls(self, kind, config):
        base, calls = CAT["quadratic_2d"].oracle, []

        def value(x):
            calls.append(("h", np.ndim(x)))
            return base.value(x)

        def grad(x):
            calls.append(("grad", np.ndim(x)))
            return base.grad(x)
        oracle = dataclasses.replace(base, value=value, grad=grad)
        n = len(LIST_RUNS[kind](oracle, config))
        stopped = n - 1 < config.max_iters
        assert stopped == (config.max_iters > 30)
        steps = n - 1 + stopped
        assert calls[:steps] == [("grad", 1)] * steps
        assert sorted(calls[steps:]) == [("grad", 2), ("h", 1), ("h", 2)]
