"""Shared data model: oracles, domains, trajectories, the step loop of
flows and solvers, and rate certificates.

Vectors are plain ``numpy.float64`` arrays.  Oracles evaluate a scalar
objective h and its gradient; both callables must broadcast over leading
axes, i.e. accept ``(..., dim)`` input and return ``(...)`` / ``(..., dim)``.
Everything here is immutable after construction and safe to share.

Every rate certificate follows one rule (``envelope_violations`` and
``rate_certificate``).  A sample breaks an envelope when it lies above the
noise floor NOISE_FLOOR = 1e-12 and above envelope * (1 + RATE_SLACK), with
RATE_SLACK = 5 %; a step recursion states its own violation rule.  The
observed rate is fitted to the samples above a floor, and is NaN when fewer
than 3 remain; a NaN rate fits nothing, so it cannot contradict the bound.
The verdict points one way per kind: a fitted per-step factor (gd, hb) must
be at most rate * (1 + RATE_SLACK), a fitted decay exponent (flows) at least
rate * (1 - RATE_SLACK).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

# Multiplicative slack applied when comparing empirical against theoretical
# rates: the theoretical numbers are bounds, and an empirical rate may sit
# exactly at the bound under roundoff.
RATE_SLACK = 0.05

# Samples at or below this size are roundoff, not evidence against a bound.
NOISE_FLOOR = 1e-12

# Roundoff may break an inequality lhs >= rhs by up to ineq_tol(lhs, rhs).
INEQ_TOL_COEFF = 1e-9

# kinds whose theoretical rate is a decay exponent; the others are factors
_DECAY_KINDS = ("flow_first", "flow_second")


class SqcflowError(Exception):
    """Base class for all toolkit errors."""


class DomainViolation(SqcflowError):
    """A point (or a perturbation of one) left the oracle's domain."""


class InvalidParameter(SqcflowError):
    """A constructor or operation received an out-of-range parameter."""


class DomainSamplingFailure(SqcflowError):
    """Rejection sampling could not hit the domain (1000 consecutive misses)."""


class MissingMinimizer(SqcflowError):
    """The operation needs a known minimizer on the oracle."""


class ParameterWindowViolation(SqcflowError):
    """Step-size / momentum parameters fall outside the certified window."""


class InsufficientSamples(SqcflowError):
    """Too few valid samples survived filtering to form an estimate."""


class StagnationFailure(SqcflowError):
    """The reference-minimizer search stopped making progress."""


class NumericalBlowup(SqcflowError):
    """An iteration or flow produced a non-finite state."""

    def __init__(self, where: float, message: str = ""):
        self.where = where
        super().__init__(message or f"non-finite state at {where!r}")


class DomainExit(SqcflowError):
    """An iteration or flow left the oracle's domain."""

    def __init__(self, where: float, message: str = ""):
        self.where = where
        super().__init__(message or f"state left the domain at {where!r}")


def positive(*values) -> bool:
    """True when every value is a positive finite number; NaN and inf fail."""
    return all(0.0 < v < math.inf for v in values)


def as_point(x, dim: Optional[int] = None) -> Vector:
    """Validate and convert to a finite float64 vector."""
    p = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if p.ndim != 1:
        raise InvalidParameter(f"point must be one-dimensional, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidParameter("point has non-finite entries")
    if dim is not None and p.shape[0] != dim:
        raise InvalidParameter(f"expected dimension {dim}, got {p.shape[0]}")
    return p


@dataclass(frozen=True)
class DomainSpec:
    """Convex domain: all of R^n, a closed ball, or an axis-aligned box.

    An optional ``predicate`` restricts membership further (used for
    domains given implicitly through inequalities); the base kind then
    acts as the bounding region for samplers.  Like the oracles, the
    predicate is vectorized: it takes ``(..., dim)`` points and returns a
    boolean mask of shape ``(...)``, or a scalar that broadcasts to it.
    ``contains`` broadcasts the same way, so a single point gives a scalar.
    """

    kind: str  # "all_space" | "ball" | "box"
    center: Optional[Vector] = None
    radius: Optional[float] = None
    lower: Optional[Vector] = None
    upper: Optional[Vector] = None
    predicate: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @staticmethod
    def all_space(predicate=None) -> "DomainSpec":
        return DomainSpec(kind="all_space", predicate=predicate)

    @staticmethod
    def ball(center, radius: float, predicate=None) -> "DomainSpec":
        if radius <= 0:
            raise InvalidParameter("ball radius must be strictly positive")
        return DomainSpec(kind="ball", center=as_point(center),
                          radius=float(radius), predicate=predicate)

    @staticmethod
    def box(lower, upper, predicate=None) -> "DomainSpec":
        lo, hi = as_point(lower), as_point(upper)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise InvalidParameter("box needs lower <= upper componentwise")
        return DomainSpec(kind="box", lower=lo, upper=hi, predicate=predicate)

    def predicate_mask(self, X: np.ndarray) -> np.ndarray:
        """The predicate alone on ``(..., dim)`` points, as a ``(...)`` mask."""
        if self.predicate is None:
            return np.ones(X.shape[:-1], dtype=bool)
        mask = np.asarray(self.predicate(X), dtype=bool)
        if mask.shape not in ((), X.shape[:-1]):
            raise InvalidParameter(
                f"domain predicate returned shape {mask.shape} for points of "
                f"shape {X.shape}; expected () or {X.shape[:-1]}")
        return np.broadcast_to(mask, X.shape[:-1])

    def contains(self, x) -> np.ndarray:
        """Membership of ``(..., dim)`` points, as a ``(...)`` mask."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "ball":
            ok = np.linalg.norm(x - self.center, axis=-1) <= self.radius * (1 + 1e-12)
        elif self.kind == "box":
            ok = np.all((x >= self.lower) & (x <= self.upper), axis=-1)
        else:
            # a single point, as the step loops pass, needs no allocation
            ok = np.True_ if x.ndim == 1 else np.ones(x.shape[:-1], dtype=bool)
        if self.predicate is not None:
            ok = ok & self.predicate_mask(x)
        return ok


@dataclass(frozen=True)
class FunctionOracle:
    """Evaluates h(x) and its gradient, plus whatever constants are known.

    ``value`` and ``grad`` must be deterministic and broadcast over leading
    axes.  ``known_modulus`` is a strong-quasiconvexity modulus valid on
    ``domain``; ``known_lipschitz`` a gradient Lipschitz constant there.
    """

    dim: int
    value: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    known_modulus: Optional[float] = None
    known_lipschitz: Optional[float] = None
    known_minimizer: Optional[Vector] = None
    domain: DomainSpec = field(default_factory=DomainSpec.all_space)

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParameter("oracle dimension must be >= 1")
        if self.known_modulus is not None and self.known_modulus <= 0:
            raise InvalidParameter("known modulus must be positive")
        if self.known_lipschitz is not None and self.known_lipschitz <= 0:
            raise InvalidParameter("known Lipschitz constant must be positive")
        if self.known_minimizer is not None:
            object.__setattr__(self, "known_minimizer",
                               as_point(self.known_minimizer, self.dim))

    def minimum_value(self) -> float:
        if self.known_minimizer is None:
            raise MissingMinimizer("oracle has no known minimizer")
        return float(self.value(self.known_minimizer))


@dataclass
class Trajectory:
    """Time- or iteration-indexed states with per-sample diagnostics.

    ``times`` is strictly increasing (continuous time for flows, the
    iteration counter for solvers).  ``diagnostics`` maps a name to an
    array aligned with ``times``; entries may be NaN where undefined.  A
    run inserts them in the order ``trace.csv`` writes them, and the
    certificates read them instead of recomputing them.  ``params`` holds
    the scalars the run used that its certificates read: ``beta`` of gd,
    ``theta`` and ``beta`` of heavy ball, ``lam`` and ``kappa`` of a
    damped flow that records ``Sigma``.
    """

    times: np.ndarray
    states: np.ndarray
    h_values: np.ndarray
    grad_norms: np.ndarray
    diagnostics: dict[str, np.ndarray] = field(default_factory=dict)
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.states = np.asarray(self.states, dtype=np.float64)
        if np.any(np.diff(self.times) <= 0):
            raise InvalidParameter("trajectory times must be strictly increasing")
        n = self.times.shape[0]
        columns = [("states", self.states), ("h_values", self.h_values),
                   ("grad_norms", self.grad_norms), *self.diagnostics.items()]
        for name, values in columns:
            if np.shape(values)[:1] != (n,):
                raise InvalidParameter(
                    f"trajectory {name!r} has shape {np.shape(values)}, "
                    f"expected {n} rows to match the times")

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def final_state(self) -> Vector:
        return self.states[-1]

    def diagnostic(self, name: str) -> np.ndarray:
        """A recorded column.  Runs record the minimizer's columns only when
        the oracle knows it, so a missing one raises MissingMinimizer."""
        if name not in self.diagnostics:
            raise MissingMinimizer(f"trajectory lacks {name!r} diagnostics")
        return self.diagnostics[name]

    def param(self, name: str) -> float:
        """A parameter the run recorded; InvalidParameter when it has none."""
        if name not in self.params:
            raise InvalidParameter(f"trajectory records no parameter {name!r}")
        return self.params[name]


@np.errstate(over="ignore", invalid="ignore")
def step_rows(first, n_max: int, unit, advance, inside, *, width=None,
              fill=None) -> np.ndarray:
    """Rows 0..n of a fixed-step recursion making at most ``n_max`` steps.

    Rows live in one buffer that doubles when full, so memory follows the
    steps made, not ``n_max``.  A ``first`` not ``inside`` the domain
    raises DomainExit at 0.  Row 0 begins with ``first``; ``width``
    (default ``first.size``) leaves room for the columns ``fill`` writes.
    Step k, in order: ``advance(rows, k)`` returns the next state, or None
    to stop before stepping; a non-finite state (numpy does not warn of
    it) raises NumericalBlowup and one not ``inside`` the domain
    DomainExit, both at ``(k + 1) * unit``; the state starts row k + 1 and
    ``fill(rows, k + 1)`` ends it (``fill(rows, 0)`` runs first).  The
    buffer is replaced when it grows, so ``advance`` and ``fill`` must
    keep no reference to it between calls.
    """
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


@dataclass
class RateCertificate:
    """Closed-form convergence constants next to the observed rate.

    ``theoretical_rate`` is a per-step contraction factor in ]0,1[ for the
    discrete kinds and a positive decay exponent for the flow kinds.
    ``satisfied`` means the per-sample envelope held everywhere and the
    empirical rate does not beat the bound the wrong way by more than
    RATE_SLACK.
    """

    kind: str  # gd_contraction | gd_value | hb_energy | flow_first | flow_second
    constants: dict[str, float]
    theoretical_rate: float
    empirical_rate: float
    satisfied: bool
    first_violation: Optional[float] = None
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "constants": {k: float(v) for k, v in sorted(self.constants.items())},
            "theoretical_rate": float(self.theoretical_rate),
            "empirical_rate": float(self.empirical_rate),
            "satisfied": bool(self.satisfied),
            "first_violation": None if self.first_violation is None
            else float(self.first_violation),
            "notes": self.notes,
        }


def ineq_tol(lhs, rhs):
    return INEQ_TOL_COEFF * (1.0 + np.abs(lhs) + np.abs(rhs))


def envelope_violations(values, envelope, floor=NOISE_FLOOR) -> np.ndarray:
    """Mask of samples above ``floor`` and above envelope * (1 + RATE_SLACK)."""
    return (values > floor) & (values > envelope * (1.0 + RATE_SLACK))


def rate_certificate(kind: str, constants: dict, rate: float, times, series,
                     violations, *, fit_floor: float = 0.0, failed: bool = False,
                     notes: str = "") -> RateCertificate:
    """The certificate of ``series`` (one sample per time) against ``rate``.

    ``violations`` marks broken samples of the last ``len(violations)``
    times (a recursion over transitions k -> k+1 marks times[1:]); the
    first one is ``first_violation``.  The rate is fitted to the samples
    of ``series`` above ``fit_floor``: the least-squares slope of their log
    against time is minus a decay exponent, against their index the log
    of a per-step factor; NaN when fewer than 3 samples remain.
    ``failed`` fails the certificate for a reason of its own, which
    ``notes`` should name.
    """
    bad = np.flatnonzero(violations)
    first = None if bad.size == 0 else \
        float(times[len(times) - len(violations) + bad[0]])
    decay = kind in _DECAY_KINDS
    pos = series > fit_floor
    n = np.count_nonzero(pos)
    if n < 3:
        empirical = math.nan
    else:
        at = times[pos] if decay else np.arange(n, dtype=np.float64)
        slope = np.polyfit(at, np.log(series[pos]), 1)[0]
        empirical = -slope if decay else np.exp(slope)
    if math.isnan(empirical):
        within = True
    elif decay:
        within = empirical >= rate * (1.0 - RATE_SLACK)
    else:
        within = empirical <= rate * (1.0 + RATE_SLACK)
    return RateCertificate(
        kind=kind, constants=constants, theoretical_rate=float(rate),
        empirical_rate=float(empirical),
        satisfied=bool(first is None and not failed and within),
        first_violation=first, notes=notes)
