"""Gradient-flow integrators with envelope certificates.

First order:   dx/dt = -grad h(x)
Second order:  d2x/dt2 + alpha dx/dt + grad h(x) = 0   (viscous damping)

Both are integrated with fixed-step explicit Euler or classical RK4 on
lists of floats (``core.step_rows``: a row is the state, x or [x | v];
``stop_dist`` needs the oracle's minimizer), read h and |grad h| over
their points in one batch (``core.trajectory``) and record per-sample
diagnostics, including the quadratic distance energy E = 0.5 |x - x_bar|^2
for the first-order flow and the damped Lyapunov energy

    Sigma = h(x) - h* + 0.5 |lam (x - x_bar) + v|^2 + (xi/2) |x - x_bar|^2

for the second-order flow, whose trajectory then records the lam and kappa
it was computed with; a run given no kappa reads it on its own states.
Certificates read these columns and parameters, compare each column
against its exponential envelope and fit the observed decay exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (NOISE_FLOOR, FunctionOracle, InvalidParameter,
                   MissingMinimizer, RateCertificate, Trajectory, as_point,
                   envelope_violations, grad_at, norm, positive,
                   rate_certificate, step_rows, trajectory)
from .estimate import estimate_kappa


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
        if not (0.0 < self.dt <= self.t_end and self.t_end / self.dt < math.inf):
            raise InvalidParameter("need 0 < dt <= t_end and a finite t_end / dt")
        if self.stop_dist is not None and not 0.0 <= self.stop_dist < math.inf:
            raise InvalidParameter("stop_dist must be a nonnegative distance")


def _step_fn(integrator: str):
    """A step of z' = f(z) on lists, in numpy's order of operations."""
    if integrator == "rk4":
        def step(f, z, dt):
            c2, c6 = 0.5 * dt, dt / 6.0
            k1 = f(z)
            k2 = f([a + c2 * b for a, b in zip(z, k1)])
            k3 = f([a + c2 * b for a, b in zip(z, k2)])
            k4 = f([a + dt * b for a, b in zip(z, k3)])
            return [a + c6 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                    for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]
    else:
        def step(f, z, dt):
            return [a + dt * b for a, b in zip(z, f(z))]
    return step


def _flow_rows(oracle: FunctionOracle, config: FlowConfig, z0: list, f):
    """Rows of z' = f(z), whose first oracle.dim entries are x."""
    dt, x_bar, stop = float(config.dt), oracle.known_minimizer, config.stop_dist
    if stop is not None and x_bar is None:
        raise MissingMinimizer("stop_dist needs the oracle's minimizer")
    step = _step_fn(config.integrator)

    def advance(z, k):
        # a run stops at the first row after row 0 within stop_dist of x_bar
        if stop is not None and k and norm(
                [a - b for a, b in zip(z, x_bar.tolist())]) <= stop:
            return None
        return step(f, z, dt)
    return step_rows(oracle, z0, max(1, int(round(config.t_end / dt))), dt,
                     advance)


def integrate_first_order(oracle: FunctionOracle, config: FlowConfig) -> Trajectory:
    """Integrate dx/dt = -grad h(x) from config.x0 up to t_end."""
    x = as_point(config.x0, oracle.dim)
    x_bar = oracle.known_minimizer
    S = _flow_rows(oracle, config, x.tolist(),
                   lambda z: [-g for g in grad_at(oracle, z)])
    traj = trajectory(oracle, S, float(config.dt))
    if x_bar is not None:
        diff = S - x_bar
        traj.diagnostics["E"] = 0.5 * np.sum(diff * diff, axis=-1)
        traj.diagnostics["h_gap"] = traj.h_values - oracle.minimum_value()
    return traj


def integrate_second_order(oracle: FunctionOracle, config: FlowConfig,
                           gamma: Optional[float] = None,
                           kappa: Optional[float] = None) -> Trajectory:
    """Integrate the damped system as (x, v) with dv/dt = -alpha v - grad h(x).

    Given the modulus ``gamma``, and when the oracle knows its minimizer,
    the run records Sigma, and lam and kappa as parameters; without
    ``kappa`` it takes ``estimate_kappa``'s safe value on its own states,
    the only ones its dissipation argument reads.  That argument needs
    lam <= min{sqrt(gamma / 2 kappa), 2 alpha / (kappa + 4)} for the alpha
    the run integrates with, and xi = lam^2; the run takes the largest
    such lam.  Velocity components are always recorded as diagnostics.
    """
    if config.alpha is None or not positive(config.alpha):
        raise InvalidParameter("second-order flow needs alpha > 0")
    if gamma is None and kappa is not None:
        raise InvalidParameter("kappa needs gamma")
    if not positive(*(c for c in (gamma, kappa) if c is not None)):
        raise InvalidParameter("gamma and kappa must be positive")
    v0 = np.zeros_like(config.x0) if config.v0 is None else as_point(config.v0)
    if v0.shape != config.x0.shape:
        raise InvalidParameter("v0 dimension must match x0")
    x0 = as_point(config.x0, oracle.dim)
    alpha = float(config.alpha)
    d = oracle.dim
    x_bar = oracle.known_minimizer

    def f(z):
        v = z[d:]
        return v + [-alpha * b - g for b, g in zip(v, grad_at(oracle, z[:d]))]

    Z = _flow_rows(oracle, config, x0.tolist() + v0.tolist(), f)
    X, V = Z[:, :d], Z[:, d:]
    traj = trajectory(oracle, X, float(config.dt))
    diags, params = traj.diagnostics, traj.params
    if gamma is not None and x_bar is not None:
        if kappa is None:
            kappa = estimate_kappa(oracle, traj).safe
            if not positive(kappa):
                raise InvalidParameter("kappa on the run's states is not positive")
        lam = min(math.sqrt(gamma / (2.0 * kappa)), 2.0 * alpha / (kappa + 4.0))
        xi = lam * lam
        params.update(lam=lam, kappa=kappa)
        diff = X - x_bar
        diags["Sigma"] = (traj.h_values - oracle.minimum_value()
                          + 0.5 * np.sum((lam * diff + V) ** 2, axis=-1)
                          + 0.5 * xi * np.sum(diff * diff, axis=-1))
    diags["v_norm"] = np.linalg.norm(V, axis=-1)
    for i in range(d):
        diags[f"v{i}"] = V[:, i]
    return traj


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
    lam, kappa = traj.param("lam"), traj.param("kappa")
    if not positive(lam, kappa):
        raise InvalidParameter("lam and kappa must be positive")
    sigma = traj.diagnostic("Sigma")
    rate = 0.5 * lam * kappa
    envelope = sigma[0] * np.exp(-rate * traj.times)
    floor = NOISE_FLOOR * (1.0 + float(sigma[0]))
    return rate_certificate(
        "flow_second", {"lam": lam, "xi": lam * lam, "kappa": kappa,
                        "sigma0": float(sigma[0])}, rate,
        traj.times, sigma, envelope_violations(sigma, envelope, floor))
