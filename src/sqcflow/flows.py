"""Gradient-flow integrators with envelope certificates.

First order:   dx/dt = -grad h(x)
Second order:  d2x/dt2 + alpha dx/dt + grad h(x) = 0   (viscous damping)

Both are integrated with fixed-step explicit Euler or classical RK4 and
record per-sample diagnostics, including the quadratic distance energy
E = 0.5 |x - x_bar|^2 for the first-order flow and the damped Lyapunov
energy

    Sigma = h(x) - h* + 0.5 |lam (x - x_bar) + v|^2 + (xi/2) |x - x_bar|^2

for the second-order flow.  Certificates compare each trajectory against
its exponential envelope and fit the observed decay exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (RATE_SLACK, DomainExit, FunctionOracle, InvalidParameter,
                   MissingMinimizer, RateCertificate, Trajectory, as_point,
                   fit_decay_exponent, step_rows)

_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class FlowConfig:
    kind: str  # "first_order" | "second_order"
    x0: np.ndarray
    t_end: float
    dt: float
    integrator: str = "rk4"
    alpha: Optional[float] = None
    v0: Optional[np.ndarray] = None
    stop_dist: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "x0", as_point(self.x0))
        if self.kind not in ("first_order", "second_order"):
            raise InvalidParameter(f"unknown flow kind {self.kind!r}")
        if self.integrator not in ("rk4", "explicit_euler"):
            raise InvalidParameter(f"unknown integrator {self.integrator!r}")
        if self.dt <= 0 or self.t_end <= 0 or self.dt > self.t_end:
            raise InvalidParameter("need 0 < dt <= t_end")
        if self.kind == "second_order":
            if self.alpha is None or self.alpha <= 0:
                raise InvalidParameter("second-order flow needs alpha > 0")
            v0 = np.zeros_like(self.x0) if self.v0 is None else as_point(self.v0)
            if v0.shape != self.x0.shape:
                raise InvalidParameter("v0 dimension must match x0")
            object.__setattr__(self, "v0", v0)


@dataclass(frozen=True)
class LyapunovParams:
    """Parameters (lam, xi, kappa) of the second-order energy Sigma.

    The dissipation argument needs xi = lam^2 and
    lam <= min{sqrt(gamma / 2 kappa), 2 alpha / (kappa + 4)}; use
    ``from_constants`` to pick the largest admissible lam.
    """

    lam: float
    xi: float
    kappa: float

    def __post_init__(self):
        if self.lam <= 0 or self.xi <= 0 or self.kappa <= 0:
            raise InvalidParameter("lam, xi, kappa must all be positive")
        if not math.isclose(self.xi, self.lam ** 2, rel_tol=1e-9):
            raise InvalidParameter("the energy argument requires xi = lam^2")

    @staticmethod
    def lambda_bound(gamma: float, kappa: float, alpha: float) -> float:
        return min(math.sqrt(gamma / (2.0 * kappa)),
                   2.0 * alpha / (kappa + 4.0))

    @classmethod
    def from_constants(cls, gamma: float, kappa: float, alpha: float) -> "LyapunovParams":
        if gamma <= 0 or kappa <= 0 or alpha <= 0:
            raise InvalidParameter("gamma, kappa, alpha must all be positive")
        lam = cls.lambda_bound(gamma, kappa, alpha)
        return cls(lam=lam, xi=lam * lam, kappa=kappa)

    def admissible_for(self, gamma: float, alpha: float) -> bool:
        return self.lam <= self.lambda_bound(gamma, self.kappa, alpha) * (1 + 1e-12)

    @property
    def decay_exponent(self) -> float:
        return 0.5 * self.lam * self.kappa


def _step_fn(integrator: str):
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


def _n_steps(t_end: float, dt: float) -> int:
    return max(1, int(round(t_end / dt)))


def _flow_rows(oracle: FunctionOracle, config: FlowConfig, z0, f):
    """Times and states of z' = f(z), whose first oracle.dim entries are x."""
    d, dt, x_bar = oracle.dim, config.dt, oracle.known_minimizer
    step = _step_fn(config.integrator)
    done = None
    if config.stop_dist is not None and x_bar is not None:
        def done(z):
            r = z[:d] - x_bar
            return math.sqrt(r.dot(r)) <= config.stop_dist
    rows = step_rows(z0, _n_steps(config.t_end, dt), dt,
                     lambda rows, k: step(f, rows[k], dt),
                     lambda z: oracle.domain.contains(z[:d]), done=done)
    return np.arange(rows.shape[0]) * dt, rows


def integrate_first_order(oracle: FunctionOracle, config: FlowConfig) -> Trajectory:
    """Integrate dx/dt = -grad h(x) from config.x0 up to t_end."""
    if config.kind != "first_order":
        raise InvalidParameter("config.kind must be 'first_order'")
    x = as_point(config.x0, oracle.dim)
    if not oracle.domain.contains(x):
        raise DomainExit(0.0, "x0 outside the domain")
    x_bar = oracle.known_minimizer
    h_star = oracle.minimum_value() if x_bar is not None else None
    times, S = _flow_rows(oracle, config, x,
                          lambda z: -np.asarray(oracle.grad(z)))
    h = np.asarray(oracle.value(S))
    g = np.asarray(oracle.grad(S))
    diags = {}
    if x_bar is not None:
        diff = S - x_bar
        diags["E"] = 0.5 * np.sum(diff * diff, axis=-1)
        diags["h_gap"] = h - h_star
    return Trajectory(times=times, states=S, h_values=h,
                      grad_norms=np.linalg.norm(g, axis=-1), diagnostics=diags)


def integrate_second_order(oracle: FunctionOracle, config: FlowConfig,
                           lyap: Optional[LyapunovParams] = None) -> Trajectory:
    """Integrate the damped system as (x, v) with dv/dt = -alpha v - grad h(x).

    Sigma is recorded when ``lyap`` is given and the oracle knows its
    minimizer; velocity components are always recorded as diagnostics.
    """
    if config.kind != "second_order":
        raise InvalidParameter("config.kind must be 'second_order'")
    x0 = as_point(config.x0, oracle.dim)
    if not oracle.domain.contains(x0):
        raise DomainExit(0.0, "x0 outside the domain")
    alpha = float(config.alpha)
    d = oracle.dim
    x_bar = oracle.known_minimizer
    h_star = oracle.minimum_value() if x_bar is not None else None

    def f(z):
        x, v = z[:d], z[d:]
        return np.concatenate([v, -alpha * v - np.asarray(oracle.grad(x))])

    times, Z = _flow_rows(oracle, config, np.concatenate([x0, config.v0]), f)
    X, V = Z[:, :d], Z[:, d:]
    h = np.asarray(oracle.value(X))
    g = np.asarray(oracle.grad(X))
    diags = {"v_norm": np.linalg.norm(V, axis=-1)}
    for i in range(d):
        diags[f"v{i}"] = V[:, i]
    if lyap is not None and x_bar is not None:
        diff = X - x_bar
        diags["Sigma"] = (h - h_star
                          + 0.5 * np.sum((lyap.lam * diff + V) ** 2, axis=-1)
                          + 0.5 * lyap.xi * np.sum(diff * diff, axis=-1))
    return Trajectory(times=times, states=X, h_values=h,
                      grad_norms=np.linalg.norm(g, axis=-1), diagnostics=diags)


def _envelope_check(times, values, envelope, floor):
    """First time where values exceed envelope*(1+RATE_SLACK), or None."""
    consider = values > floor
    bad = consider & (values > envelope * (1.0 + RATE_SLACK))
    idx = np.flatnonzero(bad)
    return None if idx.size == 0 else float(times[idx[0]])


def _fit_exponent(times, values):
    pos = values > 0
    if np.count_nonzero(pos) < 3:
        return float("nan")
    return fit_decay_exponent(times[pos], values[pos])


def certify_first_order(traj: Trajectory, gamma: float, x_bar) -> RateCertificate:
    """Distance envelope |x(t) - x_bar| <= |x0 - x_bar| exp(-gamma t / 2)."""
    if gamma <= 0:
        raise InvalidParameter("gamma must be positive")
    x_bar = as_point(x_bar)
    dist = np.linalg.norm(traj.states - x_bar, axis=-1)
    envelope = dist[0] * np.exp(-0.5 * gamma * traj.times)
    first_bad = _envelope_check(traj.times, dist, envelope, _NOISE_FLOOR)
    empirical = _fit_exponent(traj.times, dist)
    theoretical = 0.5 * gamma
    ok = first_bad is None and empirical >= theoretical * (1.0 - RATE_SLACK)
    return RateCertificate(
        kind="flow_first",
        constants={"gamma": gamma, "dist0": float(dist[0])},
        theoretical_rate=theoretical,
        empirical_rate=empirical,
        satisfied=bool(ok),
        first_violation=first_bad,
    )


def certify_first_order_values(traj: Trajectory, gamma: float, L: float, x_bar,
                               trust_radius: Optional[float] = None) -> RateCertificate:
    """Value envelope: h gap below the smaller of the two exponential bounds,

        min{ (L/2) |x0 - x_bar|^2 exp(-gamma t),
             (h(x0) - h*) exp(-gamma^2 t / 2L) }

    The first is L-smoothness, h - h* <= (L/2) |x - x_bar|^2, applied to
    the distance envelope |x - x_bar| <= |x0 - x_bar| exp(-gamma t / 2).

    checked from t = 0, or from the first sample inside ``trust_radius``
    of the minimizer when the Lipschitz constant is only local.
    """
    if gamma <= 0 or L <= 0:
        raise InvalidParameter("gamma and L must be positive")
    if "h_gap" not in traj.diagnostics:
        raise MissingMinimizer("trajectory lacks h_gap diagnostics (minimizer unknown)")
    x_bar = as_point(x_bar)
    gaps = traj.diagnostic("h_gap")
    dist = np.linalg.norm(traj.states - x_bar, axis=-1)
    t = traj.times
    env = np.minimum(0.5 * L * dist[0] ** 2 * np.exp(-gamma * t),
                     gaps[0] * np.exp(-(gamma ** 2) / (2.0 * L) * t))
    if trust_radius is None:
        t_start = 0.0
    else:
        inside = np.flatnonzero(dist <= trust_radius)
        if inside.size == 0:
            raise InvalidParameter("trajectory never enters the trust radius")
        t_start = float(t[inside[0]])
    sel = t >= t_start
    first_bad = _envelope_check(t[sel], gaps[sel], env[sel], _NOISE_FLOOR)
    empirical = _fit_exponent(t[sel], gaps[sel])
    theoretical = max(0.5 * gamma, gamma ** 2 / (2.0 * L))
    ok = first_bad is None and empirical >= theoretical * (1.0 - RATE_SLACK)
    return RateCertificate(
        kind="flow_first",
        constants={"gamma": gamma, "L": L, "dist0": float(dist[0]),
                   "gap0": float(gaps[0]), "t_start": t_start},
        theoretical_rate=theoretical,
        empirical_rate=empirical,
        satisfied=bool(ok),
        first_violation=first_bad,
        notes="value envelope",
    )


def certify_second_order(traj: Trajectory, lyap: LyapunovParams) -> RateCertificate:
    """Energy envelope Sigma(t) <= Sigma(0) exp(-lam kappa t / 2)."""
    if "Sigma" not in traj.diagnostics:
        raise InvalidParameter("trajectory lacks Sigma diagnostics")
    sigma = traj.diagnostic("Sigma")
    rate = lyap.decay_exponent
    envelope = sigma[0] * np.exp(-rate * traj.times)
    floor = _NOISE_FLOOR * (1.0 + float(sigma[0]))
    first_bad = _envelope_check(traj.times, sigma, envelope, floor)
    empirical = _fit_exponent(traj.times, sigma)
    ok = first_bad is None and empirical >= rate * (1.0 - RATE_SLACK)
    return RateCertificate(
        kind="flow_second",
        constants={"lam": lyap.lam, "xi": lyap.xi, "kappa": lyap.kappa,
                   "sigma0": float(sigma[0])},
        theoretical_rate=rate,
        empirical_rate=empirical,
        satisfied=bool(ok),
        first_violation=first_bad,
    )
