"""Gradient-flow integrators with envelope certificates.

First order:   dx/dt = -grad h(x)
Second order:  d2x/dt2 + alpha dx/dt + grad h(x) = 0   (viscous damping)

Both are integrated with fixed-step explicit Euler or classical RK4 and
record per-sample diagnostics, including the quadratic distance energy
E = 0.5 |x - x_bar|^2 for the first-order flow and the damped Lyapunov
energy

    Sigma = h(x) - h* + 0.5 |lam (x - x_bar) + v|^2 + (xi/2) |x - x_bar|^2

for the second-order flow, whose trajectory then records the lam and kappa
it was computed with.  Certificates read these columns and parameters,
compare each column against its exponential envelope and fit the observed
decay exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (NOISE_FLOOR, FunctionOracle, InvalidParameter,
                   RateCertificate, Trajectory, as_point, envelope_violations,
                   positive, rate_certificate, step_rows)


@dataclass(frozen=True)
class FlowConfig:
    """Start and time grid of a flow; ``alpha`` and ``v0`` (zeros when
    omitted) are read by the second-order flow only."""

    x0: np.ndarray
    t_end: float
    dt: float
    integrator: str = "rk4"
    alpha: Optional[float] = None
    v0: Optional[np.ndarray] = None
    stop_dist: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "x0", as_point(self.x0))
        if self.integrator not in ("rk4", "explicit_euler"):
            raise InvalidParameter(f"unknown integrator {self.integrator!r}")
        if not (positive(self.dt, self.t_end) and self.dt <= self.t_end):
            raise InvalidParameter("need 0 < dt <= t_end")
        if self.stop_dist is not None and not 0.0 <= self.stop_dist < math.inf:
            raise InvalidParameter("stop_dist must be a nonnegative distance")


@dataclass(frozen=True)
class LyapunovParams:
    """Parameters (lam, kappa) of the second-order energy Sigma.

    The dissipation argument needs
    lam <= min{sqrt(gamma / 2 kappa), 2 alpha / (kappa + 4)} and
    xi = lam^2, so ``xi`` is derived from lam; use ``from_constants`` to
    pick the largest admissible lam.
    """

    lam: float
    kappa: float

    def __post_init__(self):
        if not positive(self.lam, self.kappa):
            raise InvalidParameter("lam, xi, kappa must all be positive")

    @classmethod
    def from_constants(cls, gamma: float, kappa: float, alpha: float) -> "LyapunovParams":
        if not positive(gamma, kappa, alpha):
            raise InvalidParameter("gamma, kappa, alpha must all be positive")
        return cls(lam=min(math.sqrt(gamma / (2.0 * kappa)),
                           2.0 * alpha / (kappa + 4.0)), kappa=kappa)

    @property
    def xi(self) -> float:
        return self.lam * self.lam

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


def _flow_rows(oracle: FunctionOracle, config: FlowConfig, z0, f):
    """Times and states of z' = f(z), whose first oracle.dim entries are x."""
    d, dt, x_bar = oracle.dim, config.dt, oracle.known_minimizer
    step = _step_fn(config.integrator)

    def advance(rows, k):
        return step(f, rows[k], dt)
    if config.stop_dist is not None and x_bar is not None:
        # a run stops at the first row after row 0 within stop_dist
        def advance(rows, k):
            r = rows[k, :d] - x_bar
            if k and math.sqrt(r.dot(r)) <= config.stop_dist:
                return None
            return step(f, rows[k], dt)
    rows = step_rows(z0, max(1, int(round(config.t_end / dt))), dt, advance,
                     lambda z: oracle.domain.contains(z[:d]))
    return np.arange(rows.shape[0]) * dt, rows


def integrate_first_order(oracle: FunctionOracle, config: FlowConfig) -> Trajectory:
    """Integrate dx/dt = -grad h(x) from config.x0 up to t_end."""
    x = as_point(config.x0, oracle.dim)
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

    Sigma, and with it lam and kappa as parameters, is recorded when
    ``lyap`` is given and the oracle knows its minimizer; velocity
    components are always recorded as diagnostics.
    """
    if config.alpha is None or not positive(config.alpha):
        raise InvalidParameter("second-order flow needs alpha > 0")
    v0 = np.zeros_like(config.x0) if config.v0 is None else as_point(config.v0)
    if v0.shape != config.x0.shape:
        raise InvalidParameter("v0 dimension must match x0")
    x0 = as_point(config.x0, oracle.dim)
    alpha = float(config.alpha)
    d = oracle.dim
    x_bar = oracle.known_minimizer
    h_star = oracle.minimum_value() if x_bar is not None else None

    def f(z):
        x, v = z[:d], z[d:]
        return np.concatenate([v, -alpha * v - np.asarray(oracle.grad(x))])

    times, Z = _flow_rows(oracle, config, np.concatenate([x0, v0]), f)
    X, V = Z[:, :d], Z[:, d:]
    h = np.asarray(oracle.value(X))
    g = np.asarray(oracle.grad(X))
    diags, params = {}, {}
    if lyap is not None and x_bar is not None:
        params = {"lam": lyap.lam, "kappa": lyap.kappa}
        diff = X - x_bar
        diags["Sigma"] = (h - h_star
                          + 0.5 * np.sum((lyap.lam * diff + V) ** 2, axis=-1)
                          + 0.5 * lyap.xi * np.sum(diff * diff, axis=-1))
    diags["v_norm"] = np.linalg.norm(V, axis=-1)
    for i in range(d):
        diags[f"v{i}"] = V[:, i]
    return Trajectory(times=times, states=X, h_values=h,
                      grad_norms=np.linalg.norm(g, axis=-1), diagnostics=diags,
                      params=params)


def certify_first_order(traj: Trajectory, gamma: float) -> RateCertificate:
    """Distance envelope |x(t) - x_bar| <= |x0 - x_bar| exp(-gamma t / 2)."""
    if not positive(gamma):
        raise InvalidParameter("gamma must be positive")
    dist = np.sqrt(2.0 * traj.diagnostic("E"))  # E = |x - x_bar|^2 / 2
    envelope = dist[0] * np.exp(-0.5 * gamma * traj.times)
    return rate_certificate(
        "flow_first", {"gamma": gamma, "dist0": float(dist[0])}, 0.5 * gamma,
        traj.times, dist, envelope_violations(dist, envelope))


def certify_first_order_values(traj: Trajectory, gamma: float,
                               L: float) -> RateCertificate:
    """Value envelope: h gap below the smaller of the two exponential bounds,

        min{ (L/2) |x0 - x_bar|^2 exp(-gamma t),
             (h(x0) - h*) exp(-gamma^2 t / 2L) }

    checked from t = 0.  The first is L-smoothness,
    h - h* <= (L/2) |x - x_bar|^2, applied to the distance envelope
    |x - x_bar| <= |x0 - x_bar| exp(-gamma t / 2).
    """
    if not positive(gamma, L):
        raise InvalidParameter("gamma and L must be positive")
    gaps = traj.diagnostic("h_gap")
    dist0 = np.sqrt(2.0 * traj.diagnostic("E")[0])
    t = traj.times
    env = np.minimum(0.5 * L * dist0 ** 2 * np.exp(-gamma * t),
                     gaps[0] * np.exp(-(gamma ** 2) / (2.0 * L) * t))
    return rate_certificate(
        "flow_first", {"gamma": gamma, "L": L, "dist0": float(dist0),
                       "gap0": float(gaps[0]), "t_start": 0.0},
        max(0.5 * gamma, gamma ** 2 / (2.0 * L)), t, gaps,
        envelope_violations(gaps, env), notes="value envelope")


def certify_second_order(traj: Trajectory) -> RateCertificate:
    """Energy envelope Sigma(t) <= Sigma(0) exp(-lam kappa t / 2), with the
    lam and kappa the run computed Sigma with."""
    lyap = LyapunovParams(lam=traj.param("lam"), kappa=traj.param("kappa"))
    sigma = traj.diagnostic("Sigma")
    rate = lyap.decay_exponent
    envelope = sigma[0] * np.exp(-rate * traj.times)
    floor = NOISE_FLOOR * (1.0 + float(sigma[0]))
    return rate_certificate(
        "flow_second", {"lam": lyap.lam, "xi": lyap.xi, "kappa": lyap.kappa,
                        "sigma0": float(sigma[0])}, rate,
        traj.times, sigma, envelope_violations(sigma, envelope, floor))
