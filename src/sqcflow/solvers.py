"""Gradient descent and heavy-ball iterations with per-step certificates.

Gradient method:  x_{k+1} = x_k - beta grad h(x_k), stopped on exact
iterate equality (kept verbatim as a stationarity certificate), on a small
gradient norm, or at the iteration cap.

Heavy ball:       x_{k+1} = x_k + theta (x_k - x_{k-1}) - beta grad h(x_k),
the explicit discretization of the damped second-order flow under
theta = 1 - alpha eta, beta = eta^2.

Both step lists of floats (``core.step_rows``), one row per iterate, and
take grad h(x_k) in the step; heavy ball keeps x_{k-1} and its step norms.

Each run records the parameters it used in ``Trajectory.params`` (``beta``
of gd, ``theta`` and ``beta`` of heavy ball).  Certificates read them with
the run's columns, check the closed-form contraction / energy inequalities
at every step and compare the fitted empirical factor with the theoretical
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (NOISE_FLOOR, RATE_SLACK, FunctionOracle, InvalidParameter,
                   ParameterWindowViolation, RateCertificate, Trajectory,
                   as_point, check_start, envelope_violations, grad_at,
                   ineq_tol, norm, positive, rate_certificate, step_rows,
                   trajectory)


def step_window(gamma: float, L0: float) -> float:
    """Upper end of the certified step window min{gamma/L0^2, 2/L0}."""
    if not positive(gamma, L0):
        raise InvalidParameter("gamma and L0 must be positive")
    return min(gamma / L0 ** 2, 2.0 / L0)


def optimal_step(gamma: float, L0: float) -> float:
    if not positive(gamma, L0):
        raise InvalidParameter("gamma and L0 must be positive")
    return gamma / (2.0 * L0 ** 2)


@dataclass(frozen=True)
class GDConfig:
    x0: np.ndarray
    beta: float
    max_iters: int = 100_000
    stop_grad_tol: float = 1e-10

    def __post_init__(self):
        if not positive(self.beta):
            raise InvalidParameter("step size must be positive")
        object.__setattr__(self, "x0", as_point(self.x0))
        if self.max_iters < 1:
            raise InvalidParameter("max_iters must be >= 1")
        if not 0.0 <= self.stop_grad_tol < math.inf:
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
        if not positive(self.beta):
            raise InvalidParameter("beta must be positive")
        prev = self.x0 if self.x_prev is None else as_point(self.x_prev)
        if prev.shape != self.x0.shape:
            raise InvalidParameter("x_prev dimension must match x0")
        object.__setattr__(self, "x_prev", prev)
        if self.max_iters < 1:
            raise InvalidParameter("max_iters must be >= 1")
        if not 0.0 <= self.stop_grad_tol < math.inf:
            raise InvalidParameter("stop_grad_tol must be >= 0")


def _trajectory(oracle, X, params) -> Trajectory:
    """The iterates' trajectory, with the minimizer's columns if known."""
    traj = trajectory(oracle, X, 1, params)
    if oracle.known_minimizer is not None:
        traj.diagnostics["h_gap"] = traj.h_values - oracle.minimum_value()
        traj.diagnostics["dist"] = np.linalg.norm(X - oracle.known_minimizer,
                                                  axis=-1)
    return traj


def gradient_descent(oracle: FunctionOracle, config: GDConfig) -> Trajectory:
    """Run the gradient method; the trajectory records its step in ``params``."""
    x = as_point(config.x0, oracle.dim).tolist()
    beta, tol = float(config.beta), config.stop_grad_tol

    def advance(x, k):
        g = grad_at(oracle, x)
        if norm(g) <= tol:
            return None
        x_next = [a - beta * b for a, b in zip(x, g)]
        # x_next equal to x_k is an exact fixed point: beta grad h(x_k) = 0,
        # so x_k is stationary and the run stops there
        return None if x_next == x else x_next

    X = step_rows(oracle, x, config.max_iters, 1, advance)
    return _trajectory(oracle, X, {"beta": beta})


def heavy_ball(oracle: FunctionOracle, config: HBConfig) -> Trajectory:
    """Run the two-term momentum recursion from (x_prev, x0)."""
    x = as_point(config.x0, oracle.dim).tolist()
    x_prev = as_point(config.x_prev, oracle.dim).tolist()
    check_start(oracle.domain, x_prev, "starting points outside the domain")
    theta, beta = float(config.theta), float(config.beta)
    tol = config.stop_grad_tol
    steps = [norm([a - p for a, p in zip(x, x_prev)])]  # |x_k - x_{k-1}|

    def advance(x, k):
        nonlocal x_prev
        g = grad_at(oracle, x)
        # a zero gradient alone is not a fixed point while momentum is live
        if norm(g) <= tol and steps[k] <= tol:
            return None
        x_next = [(a + theta * (a - p)) - beta * b
                  for a, p, b in zip(x, x_prev, g)]
        x_prev = x
        steps.append(norm([a - p for a, p in zip(x_next, x)]))
        return x_next

    X = step_rows(oracle, x, config.max_iters, 1, advance)
    traj = _trajectory(oracle, X, {"theta": theta, "beta": beta})
    diags = traj.diagnostics
    diags["step_norm"] = np.array(steps)
    if oracle.known_minimizer is not None:
        diags["energy"] = diags["h_gap"] + (theta ** 2 / (2.0 * beta)) \
            * diags["step_norm"] ** 2
    return traj


def gd_window(gamma: float, L0: float, beta: float) -> float:
    """The step ``beta`` of a gd run, checked against the window of both gd
    certificates, 0 < beta < min{gamma/L0^2, 2/L0}, and their constants
    against gamma < 2 L0 (their premises give gamma <= 2 L0, see
    ``certify_gd_values``)."""
    top = step_window(gamma, L0)
    if not gamma < 2.0 * L0:
        raise ParameterWindowViolation("need gamma < 2 L0")
    if not beta < top:  # a NaN step is outside
        raise ParameterWindowViolation(
            f"beta={float(beta)} outside the certified window "
            f"]0, {top:.6g}[ for gamma={gamma:.6g}, L0={L0:.6g}")
    if beta <= 0:
        raise ParameterWindowViolation("step size must be positive")
    return beta


def gd_factor(beta, gamma: float, L0: float):
    """Contraction factor q(beta) = 1 - beta (gamma - beta L0^2) of one gd step."""
    return 1.0 - beta * (gamma - beta * L0 ** 2)


def certify_gd_contraction(traj: Trajectory, gamma: float, L0: float) -> RateCertificate:
    """Per-step squared-distance contraction

        |x_{k+1} - x_bar|^2 <= q^2 |x_k - x_bar|^2,  q^2 = q(beta),

    for the run's step ``beta`` (``gd_window``), plus q^2 against the
    fitted empirical factor.
    """
    d2 = traj.diagnostic("dist") ** 2
    beta = gd_window(gamma, L0, traj.param("beta"))
    q_sq = gd_factor(beta, gamma, L0)
    # ~(a <= b): a NaN sample is a violation
    bad = ~(d2[1:] <= q_sq * d2[:-1] * (1.0 + RATE_SLACK) + NOISE_FLOOR)
    return rate_certificate(
        "gd_contraction",
        {"gamma": gamma, "L0": L0, "beta_lower": beta, "beta_upper": beta,
         "q": float(np.sqrt(q_sq)), "q_squared": q_sq},
        q_sq, traj.times, d2, bad, fit_floor=NOISE_FLOOR ** 2)


def certify_gd_values(traj: Trajectory, gamma: float, L0: float) -> RateCertificate:
    """Function-value envelopes from iterate k = 1 on, for the run's step
    ``beta`` in the window (``gd_window``):

        h(x_k) - h* <= (L0/2) q^k |x_0 - x_bar|^2
        h(x_k) - h* <= f^k (h(x_0) - h*)

    with q = q(beta), f = 1 - beta (1 - L0 beta/2) gamma^2/(2 L0).
    The premises are the modulus, <grad h(x), x - x_bar> >= (gamma/2)
    |x - x_bar|^2, so |grad h(x)| >= (gamma/2)|x - x_bar|, and an
    L0-Lipschitz gradient, so |grad h(x)| <= L0 |x - x_bar| (together
    gamma <= 2 L0; ``gd_window`` refuses gamma >= 2 L0) and h - h* <= (L0/2)
    |x - x_bar|^2.  The first envelope is the contraction of
    ``certify_gd_contraction`` followed by that last bound.  The second is
    the descent lemma, h(x_{k+1}) <= h(x_k) - beta (1 - L0 beta/2)
    |grad h(x_k)|^2, with |grad h|^2 >= (gamma^2/4)|x - x_bar|^2 >=
    (gamma^2/2L0)(h - h*).  The theoretical rate is f.  At the optimal
    step beta* = gamma/2L0^2 the factors are the printed
    q = 1 - gamma^2/4L0^2 and f = 1 - (gamma^3/4L0^3)(1 - gamma/4L0).
    """
    gaps = traj.diagnostic("h_gap")
    dist0_sq = float(traj.diagnostic("dist")[0]) ** 2
    beta = gd_window(gamma, L0, traj.param("beta"))
    q = gd_factor(beta, gamma, L0)
    f = 1.0 - beta * (1.0 - 0.5 * L0 * beta) * gamma ** 2 / (2.0 * L0)
    k = np.arange(1, len(traj), dtype=np.float64)
    env = np.minimum(0.5 * L0 * dist0_sq * q ** k, gaps[0] * f ** k)
    return rate_certificate(
        "gd_value",
        {"gamma": gamma, "L0": L0, "factor_dist": q, "factor_value": f,
         "dist0_sq": dist0_sq, "gap0": float(gaps[0])},
        f, traj.times, gaps, envelope_violations(gaps[1:], env),
        fit_floor=NOISE_FLOOR)


def hb_window(theta: float, beta: float, L: float) -> float:
    """rho = min{beta/2, (1 - beta L - theta^2)/(2 beta)}, checked against
    the window of the heavy-ball certificate: 0 < theta < 1 and rho > 0
    (so beta > 0, and the boundary beta = (1 - theta^2)/L, where the rate
    is vacuous, is rejected); a NaN or infinite input is outside."""
    rho = min(0.5 * beta, (1.0 - beta * L - theta ** 2) / (2.0 * beta)) \
        if positive(beta) and 0.0 < theta < 1.0 and math.isfinite(L) else 0.0
    if not rho > 0:
        raise ParameterWindowViolation(
            "theta must lie in ]0,1[ with rho = min{beta/2, "
            "(1 - beta L - theta^2)/2beta} > 0 for certification")
    return rho


def certify_hb_energy(traj: Trajectory, gamma: float, L: float) -> RateCertificate:
    """Energy recursion E_{k+1} <= (1 - rho/sigma) E_k and its tail bounds.

    E_k = h(x_k) - h* + (theta^2 / 2 beta) |x_k - x_{k-1}|^2 is the
    ``energy`` column of a ``heavy_ball`` run, which records its theta and
    beta; rho comes from ``hb_window`` and
    sigma = max{2L/gamma^2 + beta, 1/beta}.
    The four tail bounds (values, step norms, gradient norms, distances)
    are checked against E_1 as printed:
    E_1 = h(x_0) - h* + (theta^2 / 2 beta) |x_1 - x_0|^2.
    """
    if not positive(gamma, L):
        raise InvalidParameter("gamma and L must be positive")
    theta, beta = traj.param("theta"), traj.param("beta")
    rho = hb_window(theta, beta, L)
    sigma = max(2.0 * L / gamma ** 2 + beta, 1.0 / beta)
    factor = 1.0 - rho / sigma
    E = traj.diagnostic("energy")
    gaps = traj.diagnostic("h_gap")
    steps = traj.diagnostic("step_norm")
    dist = traj.diagnostic("dist")
    # a run stopped at x_0 makes no step, so x_1 = x_0 and every check below
    # is vacuous
    step1 = steps[1] if len(traj) > 1 else 0.0
    E1 = float(gaps[0] + (theta ** 2 / (2.0 * beta)) * step1 ** 2)

    tol = ineq_tol(E[:-1], E[1:])
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
