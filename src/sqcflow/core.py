"""Shared data model: oracles, domains, trajectories, the step loop of
flows and solvers, and rate certificates.

Vectors are plain ``numpy.float64`` arrays.  Oracles evaluate a scalar
objective h and its gradient; both callables must broadcast over leading
axes, i.e. accept ``(..., dim)`` input and return ``(...)`` / ``(..., dim)``.
Everything here is immutable after construction and safe to share.  Flows
and solvers step their state, a row of ``step_rows``, as a list of floats;
``trajectory`` reads h and |grad h| over the rows in one batch call each.

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
import sys
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
    """Base class for all toolkit errors.  ``kind`` is what the command
    line reports: ``usage`` (exit 2: flags, config, output directory, an
    input that breaks a premise) or ``numerical`` (exit 3).  Exit 1 only
    ever means that a certificate or check failed."""

    kind = "usage"


class NumericalFailure(SqcflowError):
    """A run inside its premises failed numerically."""

    kind = "numerical"


class DomainViolation(NumericalFailure):
    """A point (or a perturbation of one) left the oracle's domain."""


class InvalidParameter(SqcflowError):
    """A constructor or operation received an out-of-range parameter."""


class DomainSamplingFailure(NumericalFailure):
    """Rejection sampling could not hit the domain (1000 consecutive misses)."""


class MissingMinimizer(SqcflowError):
    """The operation needs a known minimizer on the oracle."""


class ParameterWindowViolation(SqcflowError):
    """Step-size / momentum parameters fall outside the certified window."""


class InsufficientSamples(SqcflowError):
    """Too few valid samples survived filtering to form an estimate."""


class StagnationFailure(NumericalFailure):
    """The reference-minimizer search stopped making progress."""


class NumericalBlowup(NumericalFailure):
    """An iteration or flow produced a non-finite state."""

    def __init__(self, where: float, message: str = ""):
        self.where = where
        super().__init__(message or f"non-finite state at {where!r}")


class DomainExit(NumericalFailure):
    """An iteration or flow left the oracle's domain."""

    def __init__(self, where: float, message: str = ""):
        self.where = where
        super().__init__(message or f"state left the domain at {where!r}")


def positive(*values) -> bool:
    """True when every value is a positive finite number; NaN and inf fail."""
    return all(0.0 < v < math.inf for v in values)


def norm(v) -> float:
    """Euclidean norm of a short list or array, its squares summed left to
    right in Python floats.  ``v.dot(v)`` is BLAS ddot, whose kernel
    OpenBLAS picks by CPU, so its last bit, and a step loop's stop, could
    move with it.  When that sum is below the smallest normal float and an
    entry is nonzero, the squares underflowed, so the entries are first
    divided by the largest |entry|; every other input keeps its bytes."""
    v = v.tolist() if isinstance(v, np.ndarray) else v
    s, m = 0.0, 1.0
    for c in v:
        s += c * c
    if s < sys.float_info.min and any(v):
        s, m = 0.0, max(map(abs, v))
        for c in v:
            s += (c / m) * (c / m)
    return m * math.sqrt(s)


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

    @property
    def everywhere(self) -> bool:
        """All of R^n with no predicate: it holds every point, unasked."""
        return self.kind == "all_space" and self.predicate is None

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


def check_start(domain: DomainSpec, x, message: str = "x0 outside the domain"):
    """Raise DomainExit at 0 with ``message`` when the start ``x`` is
    outside ``domain``; a domain ``everywhere`` is never asked."""
    if not domain.everywhere and not domain.contains(x):
        raise DomainExit(0, message)


def grad_at(oracle: FunctionOracle, x: list) -> list:
    """grad h(x) as a list, the oracle called on a fresh array."""
    return np.asarray(oracle.grad(np.array(x))).tolist()


@np.errstate(over="ignore", invalid="ignore")
def step_rows(oracle: FunctionOracle, first: list, n_max: int, unit,
              advance) -> np.ndarray:
    """Rows 0..n of a fixed-step recursion making at most ``n_max`` steps;
    row k is the state after k steps.

    A state is a list of Python floats whose first ``oracle.dim`` entries
    are a point.  Rows live in one buffer that doubles when full, so memory
    follows the steps made, not ``n_max``.  A ``first`` outside
    ``oracle.domain`` raises DomainExit at 0 (``check_start``).  Step k:
    ``advance(state, k)`` returns the next state, a new list, or None to
    stop before stepping; a non-finite state raises NumericalBlowup and one
    outside the domain DomainExit, both at ``(k + 1) * unit``.  A domain
    ``everywhere`` is never asked.

    Lists, because an RK4 step on a 3-element array makes about 20 ufunc
    calls that cost more than their arithmetic.  Python's float + and *
    round like numpy's loops and CPython fuses no FMA, so the same order of
    operations gives the same bytes.  Above about 10 coordinates arrays win:
    2000 RK4 steps of ``integrate_first_order`` took 23.4 -> 18.4 ms at dim
    3, 24.2 -> 26.5 ms at 10 and 26.1 -> 47.7 ms at 30 (arrays -> lists; 2
    vCPUs, Python 3.11, numpy 2.4); a batch of starts would step arrays.
    """
    d, domain = oracle.dim, oracle.domain
    check_start(domain, first[:d])
    ask = not domain.everywhere
    rows = np.empty((min(n_max, 1024) + 1, len(first)))
    rows[0] = first
    state, k = first, 0
    while k < n_max:
        state = advance(state, k)
        if state is None:
            break
        if not all(map(math.isfinite, state)):
            raise NumericalBlowup((k + 1) * unit)
        if ask and not domain.contains(state[:d]):
            raise DomainExit((k + 1) * unit)
        k += 1
        if k == rows.shape[0]:
            grown = np.empty((min(2 * k, n_max + 1), rows.shape[1]))
            grown[:k] = rows
            rows = grown
        rows[k] = state
    return rows[:k + 1]


def trajectory(oracle: FunctionOracle, states: np.ndarray, unit,
               params: Optional[dict] = None) -> Trajectory:
    """The trajectory of ``states``, row k at time k * ``unit``, with h and
    |grad h| read in one batch call each.  |grad h| is ``np.linalg.norm``'s
    where the squares sum to a normal float, else ``norm``'s: below that
    every partial sum is exact, so both sums, and their tests, agree."""
    h = np.asarray(oracle.value(states))
    g = np.asarray(oracle.grad(states))
    s = np.add.reduce(g * g, axis=-1)
    grad_norms = np.sqrt(s)
    for i in np.flatnonzero(s < sys.float_info.min):
        grad_norms[i] = norm(g[i])
    return Trajectory(
        times=np.arange(states.shape[0], dtype=np.float64) * unit,
        states=states, h_values=h, grad_norms=grad_norms, params=params or {})


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
    of a per-step factor; NaN when fewer than 3 samples remain.  The slope
    is the closed form sum(t y) / sum(t t) over centred t and y, each sum
    a ``math.fsum``, and the factor its ``math.exp``: no BLAS, LAPACK or
    numpy AVX-512 loop moves their bytes (the logs are still numpy's).
    ``failed`` fails the certificate for a reason of its own, which
    ``notes`` should name.
    """
    bad = np.flatnonzero(violations)
    first = None if bad.size == 0 else \
        float(times[len(times) - len(violations) + bad[0]])
    decay = kind in _DECAY_KINDS
    pos = series > fit_floor
    n, y = np.count_nonzero(pos), np.log(series[pos])
    if n < 3 or not np.isfinite(y).all():  # an overflowed sample fits NaN
        empirical = math.nan
    else:
        at = times[pos] if decay else np.arange(n, dtype=np.float64)
        at = at - math.fsum(at.tolist()) / n
        y -= math.fsum(y.tolist()) / n
        slope = math.fsum((at * y).tolist()) / math.fsum((at * at).tolist())
        empirical = -slope if decay else math.exp(slope)
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
