"""Gradient descent and heavy-ball iterations with per-step certificates.

Gradient method:  x_{k+1} = x_k - beta grad h(x_k), stopped on exact
iterate equality (kept verbatim as a stationarity certificate), on a small
gradient norm, or at the iteration cap.

Heavy ball:       x_{k+1} = x_k + theta (x_k - x_{k-1}) - beta grad h(x_k),
the explicit discretization of the damped second-order flow under
theta = 1 - alpha eta, beta = eta^2.

Certificates check the closed-form contraction / energy inequalities at
every step and compare the fitted empirical factor with the theoretical
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (NOISE_FLOOR, RATE_SLACK, DomainExit, FunctionOracle,
                   InvalidParameter, MissingMinimizer, ParameterWindowViolation,
                   RateCertificate, Trajectory, as_point, envelope_violations,
                   rate_certificate, step_rows)


def step_window(gamma: float, L0: float) -> float:
    """Upper end of the certified step window min{gamma/L0^2, 2/L0}."""
    if gamma <= 0 or L0 <= 0:
        raise InvalidParameter("gamma and L0 must be positive")
    return min(gamma / L0 ** 2, 2.0 / L0)


def optimal_step(gamma: float, L0: float) -> float:
    if gamma <= 0 or L0 <= 0:
        raise InvalidParameter("gamma and L0 must be positive")
    return gamma / (2.0 * L0 ** 2)


@dataclass(frozen=True)
class GDConfig:
    x0: np.ndarray
    beta: float
    max_iters: int = 100_000
    stop_grad_tol: float = 1e-10

    def __post_init__(self):
        if self.beta <= 0:
            raise InvalidParameter("step size must be positive")
        object.__setattr__(self, "x0", as_point(self.x0))
        if self.max_iters < 1:
            raise InvalidParameter("max_iters must be >= 1")
        if self.stop_grad_tol < 0:
            raise InvalidParameter("stop_grad_tol must be >= 0")


@dataclass(frozen=True)
class HBConfig:
    x0: np.ndarray
    theta: float
    beta: float
    x_prev: Optional[np.ndarray] = None
    max_iters: int = 100_000
    stop_grad_tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "x0", as_point(self.x0))
        # theta = 0 is allowed so the degenerate-momentum run can be compared
        # against plain gradient descent; certificates require theta > 0.
        if not (0.0 <= self.theta < 1.0):
            raise InvalidParameter("theta must lie in [0, 1[")
        if self.beta <= 0:
            raise InvalidParameter("beta must be positive")
        prev = self.x0 if self.x_prev is None else as_point(self.x_prev)
        if prev.shape != self.x0.shape:
            raise InvalidParameter("x_prev dimension must match x0")
        object.__setattr__(self, "x_prev", prev)
        if self.max_iters < 1:
            raise InvalidParameter("max_iters must be >= 1")


def _trajectory(oracle, rows) -> Trajectory:
    """Trajectory of solver rows laid out as [x | grad h(x) | step record]."""
    d = oracle.dim
    S = np.ascontiguousarray(rows[:, :d])
    h = np.asarray(oracle.value(S))
    diags = {}
    if oracle.known_minimizer is not None:
        diff = S - oracle.known_minimizer
        diags["dist"] = np.linalg.norm(diff, axis=-1)
        diags["h_gap"] = h - oracle.minimum_value()
    return Trajectory(times=np.arange(S.shape[0], dtype=np.float64), states=S,
                      h_values=h,
                      grad_norms=np.linalg.norm(rows[:, d:2 * d], axis=-1),
                      diagnostics=diags)


def gradient_descent(oracle: FunctionOracle, config: GDConfig) -> Trajectory:
    """Run the gradient method; the trace records the step used at each k."""
    x = as_point(config.x0, oracle.dim)
    if not oracle.domain.contains(x):
        raise DomainExit(0, "x0 outside the domain")
    d, beta, tol = oracle.dim, config.beta, config.stop_grad_tol

    def fill(rows, k):
        rows[k, d:2 * d] = oracle.grad(rows[k, :d])

    def advance(rows, k):
        x, g = rows[k, :d], rows[k, d:2 * d]
        if math.sqrt(g.dot(g)) <= tol:
            return None
        rows[k, -1] = beta
        x_next = x - beta * g
        # x_next equal to x_k is an exact fixed point: beta grad h(x_k) = 0,
        # so x_k is stationary and the run stops there
        return None if (x_next == x).all() else x_next

    rows = step_rows(x, config.max_iters, 1, advance, oracle.domain.contains,
                     width=2 * d + 1, fill=fill)
    traj = _trajectory(oracle, rows)
    traj.diagnostics["beta"] = np.append(rows[:-1, -1], np.nan)
    return traj


def heavy_ball(oracle: FunctionOracle, config: HBConfig) -> Trajectory:
    """Run the two-term momentum recursion from (x_prev, x0)."""
    x = as_point(config.x0, oracle.dim)
    x_prev = as_point(config.x_prev, oracle.dim)
    if not (oracle.domain.contains(x) and oracle.domain.contains(x_prev)):
        raise DomainExit(0, "starting points outside the domain")
    L = oracle.known_lipschitz
    if L is not None and config.beta > (1.0 - config.theta ** 2) / L * (1 + 1e-12):
        raise ParameterWindowViolation(
            "beta exceeds (1 - theta^2)/L for the known Lipschitz constant")
    d, tol = oracle.dim, config.stop_grad_tol

    def fill(rows, k):
        x = rows[k, :d]
        rows[k, d:2 * d] = oracle.grad(x)
        r = x - (rows[k - 1, :d] if k else x_prev)
        rows[k, -1] = math.sqrt(r.dot(r))

    def advance(rows, k):
        x, g = rows[k, :d], rows[k, d:2 * d]
        # a zero gradient alone is not a fixed point while momentum is live
        if math.sqrt(g.dot(g)) <= tol and rows[k, -1] <= tol:
            return None
        return x + config.theta * (x - (rows[k - 1, :d] if k else x_prev)) \
            - config.beta * g

    rows = step_rows(x, config.max_iters, 1, advance, oracle.domain.contains,
                     width=2 * d + 1, fill=fill)
    traj = _trajectory(oracle, rows)
    diags = traj.diagnostics
    diags["step_norm"] = rows[:, -1]
    if oracle.known_minimizer is not None:
        diags["energy"] = diags["h_gap"] + (config.theta ** 2 / (2.0 * config.beta)) \
            * diags["step_norm"] ** 2
    return traj


def _betas_from(traj: Trajectory) -> np.ndarray:
    if "beta" not in traj.diagnostics:
        raise InvalidParameter("trajectory carries no step-size record")
    b = traj.diagnostic("beta")
    b = b[np.isfinite(b)]
    if b.size != len(traj) - 1:
        raise InvalidParameter("need one step size per transition")
    return b


def certify_gd_contraction(traj: Trajectory, gamma: float, L0: float) -> RateCertificate:
    """Per-step squared-distance contraction

        |x_{k+1} - x_bar|^2 <= (1 - beta_k (gamma - beta_k L0^2)) |x_k - x_bar|^2

    plus the aggregate factor q^2 = 1 - beta_lo (gamma - beta_hi L0^2)
    against the fitted empirical factor.  The step window
    0 < beta_k < min{gamma/L0^2, 2/L0} is enforced before any checking.
    """
    if gamma <= 0 or L0 <= 0:
        raise InvalidParameter("gamma and L0 must be positive")
    if "dist" not in traj.diagnostics:
        raise MissingMinimizer("trajectory lacks distance diagnostics")
    b = _betas_from(traj)
    top = step_window(gamma, L0)
    if b.size and (b.min() <= 0 or b.max() >= top):
        raise ParameterWindowViolation(
            f"steps must satisfy 0 < beta < {top:.6g}")
    d2 = traj.diagnostic("dist") ** 2
    factors = 1.0 - b * (gamma - b * L0 ** 2)
    # ~(a <= b): a NaN sample is a violation
    bad = ~(d2[1:] <= factors * d2[:-1] * (1.0 + RATE_SLACK) + NOISE_FLOOR)
    beta_lo, beta_hi = (float(b.min()), float(b.max())) if b.size else (np.nan, np.nan)
    q_sq = 1.0 - beta_lo * (gamma - beta_hi * L0 ** 2)
    return rate_certificate(
        "gd_contraction",
        {"gamma": gamma, "L0": L0, "beta_lower": beta_lo, "beta_upper": beta_hi,
         "q": float(np.sqrt(q_sq)), "q_squared": float(q_sq)},
        q_sq, traj.times, d2, bad, fit_floor=NOISE_FLOOR ** 2)


def certify_gd_values(traj: Trajectory, gamma: float, L0: float) -> RateCertificate:
    """Function-value envelopes from iterate k = 1 on:

        h(x_k) - h* <= (1 - gamma^2 / 4 L0^2)^(k-1) |x_0 - x_bar|^2
        h(x_k) - h* <= (1 - (gamma^3/4L0^3)(1 - gamma/4L0))^(k-1) (h(x_0) - h*)

    under gamma < 2 L0 and beta_k < gamma / L0^2.
    """
    if gamma <= 0 or L0 <= 0:
        raise InvalidParameter("gamma and L0 must be positive")
    if not gamma < 2.0 * L0:
        raise ParameterWindowViolation("need gamma < 2 L0")
    b = _betas_from(traj)
    if b.size and b.max() >= gamma / L0 ** 2:
        raise ParameterWindowViolation("need beta_k < gamma / L0^2")
    if "h_gap" not in traj.diagnostics or "dist" not in traj.diagnostics:
        raise MissingMinimizer("trajectory lacks minimizer diagnostics")
    gaps = traj.diagnostic("h_gap")
    dist0_sq = float(traj.diagnostic("dist")[0]) ** 2
    f_dist = 1.0 - gamma ** 2 / (4.0 * L0 ** 2)
    f_val = 1.0 - (gamma ** 3 / (4.0 * L0 ** 3)) * (1.0 - gamma / (4.0 * L0))

    k = np.arange(1, len(traj), dtype=np.float64)
    env = np.minimum(f_dist ** (k - 1) * dist0_sq,
                     f_val ** (k - 1) * gaps[0])
    return rate_certificate(
        "gd_value",
        {"gamma": gamma, "L0": L0, "factor_dist": f_dist, "factor_value": f_val,
         "dist0_sq": dist0_sq, "gap0": float(gaps[0])},
        f_val, traj.times, gaps, envelope_violations(gaps[1:], env),
        fit_floor=NOISE_FLOOR)


def hb_rho(beta: float, L: float, theta: float) -> float:
    return min(0.5 * beta, (1.0 - beta * L - theta ** 2) / (2.0 * beta))


def hb_sigma(beta: float, L: float, gamma: float) -> float:
    return max(2.0 * L / gamma ** 2 + beta, 1.0 / beta)


def certify_hb_energy(traj: Trajectory, gamma: float, L: float,
                      theta: float, beta: float) -> RateCertificate:
    """Energy recursion E_{k+1} <= (1 - rho/sigma) E_k and its tail bounds.

    E_k = h(x_k) - h* + (theta^2 / 2 beta) |x_k - x_{k-1}|^2 with
    rho = min{beta/2, (1 - beta L - theta^2)/(2 beta)} and
    sigma = max{2L/gamma^2 + beta, 1/beta}; rho must be strictly positive,
    the window boundary beta = (1 - theta^2)/L is rejected because the
    rate is vacuous there.  The four tail bounds (values, step norms,
    gradient norms, distances) are checked against E_1 as printed:
    E_1 = h(x_0) - h* + (theta^2 / 2 beta) |x_1 - x_0|^2.
    """
    if gamma <= 0 or L <= 0:
        raise InvalidParameter("gamma and L must be positive")
    if not (0.0 < theta < 1.0):
        raise ParameterWindowViolation("theta must lie strictly inside ]0, 1[")
    if beta <= 0:
        raise ParameterWindowViolation("beta must be positive")
    rho = hb_rho(beta, L, theta)
    if rho <= 0:
        raise ParameterWindowViolation(
            "rho = min{beta/2, (1-beta L-theta^2)/2beta} must be positive")
    sigma = hb_sigma(beta, L, gamma)
    factor = 1.0 - rho / sigma
    if "h_gap" not in traj.diagnostics:
        raise MissingMinimizer("trajectory lacks minimizer diagnostics")

    gaps = traj.diagnostic("h_gap")
    steps = traj.diagnostic("step_norm")
    dist = traj.diagnostic("dist")
    E = gaps + (theta ** 2 / (2.0 * beta)) * steps ** 2
    # a run stopped at x_0 makes no step, so x_1 = x_0 and every check below
    # is vacuous
    step1 = steps[1] if len(traj) > 1 else 0.0
    E1 = float(gaps[0] + (theta ** 2 / (2.0 * beta)) * step1 ** 2)

    tol = 1e-9 * (1.0 + np.abs(E[:-1]) + np.abs(E[1:]))
    bad = ~(E[1:] <= factor * E[:-1] + tol)  # NaN is a violation

    k = np.arange(1, len(traj), dtype=np.float64)
    pow_full = factor ** (k - 1.0)
    pow_half = factor ** ((k - 1.0) / 2.0)
    root_term = np.sqrt(2.0 / beta) * np.sqrt(E1)
    tails = {
        "value_tail": (gaps[1:], pow_full * E1),
        "step_tail": (steps[1:] ** 2, (2.0 * beta / theta ** 2) * pow_full * E1),
        "grad_tail": (traj.grad_norms[1:],
                      ((1.0 + theta) / theta) * pow_half * root_term),
        "dist_tail": (dist[1:],
                      (2.0 * (1.0 + theta) / (gamma * theta)) * pow_half * root_term),
    }
    tail_bad = [name for name, (observed, bound) in tails.items()
                if envelope_violations(observed, bound).any()]
    return rate_certificate(
        "hb_energy",
        {"gamma": gamma, "L": L, "theta": theta, "beta": beta, "rho": rho,
         "sigma": sigma, "factor": factor, "E1": E1},
        factor, traj.times, E, bad, fit_floor=NOISE_FLOOR, failed=bool(tail_bad),
        notes="" if not tail_bad else "tail bounds violated: " + ", ".join(tail_bad))
