"""Sampling-based verifiers for convexity classes and gradient monotonicity.

Each checker draws a seeded sample of points/pairs from the oracle's
domain, evaluates one inequality family, and returns a ClassReport with
explicit witnesses for every violation.  A passing report means "holds on
these samples", never "proved": the properties are universally quantified
and sampling can only refute them.

Margins follow one convention throughout: an inequality is stored as
``lhs >= rhs`` and its margin is ``lhs - rhs``; a sample is a violation
exactly when ``margin < -tol`` with the one-sided relative tolerance
``core.ineq_tol``: ``tol = 1e-9 (1 + |lhs| + |rhs|)``.  The tolerance is
applied so that roundoff can never manufacture a violation.

Every inequality is written once, as an entry of the property table
``PROPERTIES``.  The ``check_*`` functions, ``witness_margin``,
``check_property`` (the command line's dispatch) and
``check_implication_ladder`` all evaluate those entries.

A check draws its whole sample, O(pairs (2 dim + weights)) floats, then
``_blocks`` (the one block rule) cuts it into ``_PAIR_BUDGET // (weights
dim)`` rows (one at the least): the temporaries stay at one block whatever
the sample count.  Every oracle evaluates each row on its own, so the
blocks give the margins, counts and witnesses of one whole-sample pass.
``_check`` runs every check, alone or in the ladder.  Runs that read one
sample (points, or pairs at one weight count) share it: it is drawn once
and each block is evaluated once.  An ordered-pair check reads a block,
then its (y, x) mirror, which evaluates only its interpolation points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .core import (FunctionOracle, InvalidParameter, MissingMinimizer,
                   ineq_tol, positive)
from .sampling import sample_pairs, sample_points

MAX_WITNESSES = 25

_FIXED_LAMBDAS = np.array([0.0, 0.5, 1.0])

# Float64 elements per temporary of a blocked evaluation: 256 KiB, which
# fits in L2.  Both modules read it: ``_blocks`` cuts samples into
# _PAIR_BUDGET // (weights * dim) rows, and estimate's Lipschitz scan
# compares blocks of at most _PAIR_BUDGET pairs.
_PAIR_BUDGET = 1 << 15


@dataclass(frozen=True)
class SampleBudget:
    """How much to sample: pairs, interpolation points per pair, seed."""

    pairs: int = 2000
    lambdas_per_pair: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.pairs < 1 or self.lambdas_per_pair < 1:
            raise InvalidParameter("budget needs pairs >= 1 and lambdas >= 1")


@dataclass
class Witness:
    """One violated inequality instance, reproducible from scratch."""

    x: np.ndarray
    y: Optional[np.ndarray]
    lam: Optional[float]
    lhs: float
    rhs: float
    margin: float
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "x": [float(v) for v in np.atleast_1d(self.x)],
            "y": None if self.y is None else [float(v) for v in np.atleast_1d(self.y)],
            "lambda": None if self.lam is None else float(self.lam),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "margin": float(self.margin),
            "note": self.note,
        }


@dataclass
class ClassReport:
    """Outcome of one sampled property check."""

    property_name: str
    holds_on_samples: bool
    violations: list[Witness]
    samples_tested: int
    violations_count: int = 0
    params: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "property": self.property_name,
            "params": {k: float(v) for k, v in sorted(self.params.items())},
            "holds_on_samples": bool(self.holds_on_samples),
            "samples_tested": int(self.samples_tested),
            "violations_count": int(self.violations_count),
            "violations": [w.to_dict() for w in self.violations],
        }


def derive_pl_modulus(gamma: float, L: float) -> float:
    """PL constant implied by a strong-quasiconvexity modulus and L-smoothness."""
    if not positive(gamma, L):
        raise InvalidParameter("need gamma > 0 and L > 0")
    return gamma * gamma / (2.0 * L)


class _Batch:
    """Sampled points ``x`` and, for pair properties, partners ``y`` and
    interpolation weights ``lam`` of shape (pairs, weights).

    Oracle values are evaluated on first use, once per batch.
    """

    def __init__(self, oracle: FunctionOracle, x, y=None, lam=None):
        self.oracle, self.x, self.y, self.lam = oracle, x, y, lam

    @cached_property
    def hx(self):
        return np.asarray(self.oracle.value(self.x))

    @cached_property
    def hy(self):
        return np.asarray(self.oracle.value(self.y))

    @cached_property
    def gx(self):
        return np.asarray(self.oracle.grad(self.x))

    @cached_property
    def gy(self):
        return np.asarray(self.oracle.grad(self.y))

    @cached_property
    def h_mid(self):
        """h(x + lam (y - x)) for every pair and weight."""
        mid = self.x[:, None, :] + self.lam[:, :, None] * (self.y - self.x)[:, None, :]
        return np.asarray(self.oracle.value(mid))

    @cached_property
    def d2(self):
        return np.sum((self.x - self.y) ** 2, axis=-1)

    @cached_property
    def h_star(self):
        return self.oracle.minimum_value()


class _Mirror(_Batch):
    """A block's (y, x) order: it reads h and grad h at the swapped ends and
    |x - y|^2 from the block, on first use; only h(y + lam (x - y)) is new."""

    def __init__(self, block: _Batch):
        super().__init__(block.oracle, block.y, block.x, block.lam)
        self.block = block

    hx = property(lambda self: self.block.hy)
    hy = property(lambda self: self.block.hx)
    gx = property(lambda self: self.block.gy)
    gy = property(lambda self: self.block.gx)
    d2 = property(lambda self: self.block.d2)


def _inner(g, v):
    return np.sum(g * v, axis=-1)


def _offset(s: _Batch, gamma: float):
    """-(gamma/2)|x - y|^2."""
    return -(0.5 * gamma) * s.d2


def _nonnegative(v):
    """v >= 0 up to roundoff."""
    return v >= -ineq_tol(v, 0.0)


def _positive(v):
    """v > 0 beyond roundoff."""
    return v > ineq_tol(v, 0.0)


def _penalty(s: _Batch, gamma: float):
    """lam (1-lam)(gamma/2)|x - y|^2 for every pair and weight."""
    return s.lam * (1.0 - s.lam) * (0.5 * gamma) * s.d2[:, None]


def _below_max(s: _Batch, gamma: float):
    return np.maximum(s.hx, s.hy)[:, None] - _penalty(s, gamma), s.h_mid


def _below_chord(s: _Batch, gamma: float):
    return (s.lam * s.hy[:, None] + (1.0 - s.lam) * s.hx[:, None]
            - _penalty(s, gamma), s.h_mid)


def _offset_premises(s: _Batch, gamma: float):
    """<g(x), y-x> > -(gamma/2)|y-x|^2 ("strict", with a +tol guard so that
    near-equality cases go to the non-strict variant only) and the same
    premise with >= ("non_strict")."""
    p, pen = _inner(s.gx, s.y - s.x), _offset(s, gamma)
    tol = ineq_tol(p, pen)
    return {"strict": p > pen + tol, "non_strict": p >= pen - tol}


def _quasi_strong_convexity(s: _Batch, mu: float):
    diff = s.x - s.oracle.known_minimizer
    return (_inner(s.gx, diff),
            s.hx - s.h_star + (0.5 * mu) * np.sum(diff * diff, axis=-1))


@dataclass(frozen=True)
class Property:
    """One sampled inequality ``lhs >= rhs``, written once.

    ``sample`` is "points", "pairs" or "ordered pairs" (each pair in both
    orders); with ``lambdas`` every pair also gets the interpolation
    weights ``lam`` (the budget's random ones, then 0, 1/2, 1).
    ``inequality(batch, modulus)`` gives (lhs, rhs) on a batch and
    ``premise(batch, modulus)`` maps a witness note to the mask of samples
    the inequality is asserted on (all samples when None).  ``param`` names
    the modulus: "gamma", "gamma_half" (half the function's modulus) or
    "mu" (which also needs a known minimizer).  At modulus 0 the report is
    called ``weak_name`` when one is given.  ``ladder`` lists the multiples
    of the function's modulus at which the implication ladder runs it.
    """

    name: str
    checker: str
    param: str
    sample: str
    lambdas: bool
    inequality: Callable
    premise: Optional[Callable] = None
    weak_name: Optional[str] = None
    ladder: tuple[float, ...] = ()


# In ladder order.
_TABLE = (
    Property("strong_convexity", "check_convexity", "gamma",
             sample="pairs", lambdas=True, inequality=_below_chord,
             weak_name="convexity", ladder=(1.0, 0.0)),
    Property("strong_quasiconvexity", "check_strong_quasiconvexity", "gamma",
             sample="pairs", lambdas=True, inequality=_below_max,
             weak_name="quasiconvexity", ladder=(1.0, 0.0)),
    Property("gradient_characterization", "check_gradient_characterization",
             "gamma", sample="ordered pairs", lambdas=False,
             inequality=lambda s, m: (_offset(s, m), _inner(s.gy, s.x - s.y)),
             premise=lambda s, m: {"": s.hx <= s.hy}, ladder=(1.0,)),
    Property("sharp_quasiconvexity", "check_sharp_quasiconvexity", "gamma",
             sample="ordered pairs", lambdas=True, inequality=_below_max,
             premise=lambda s, m: {
                 "": _nonnegative(_inner(s.gy, s.x - s.y))[:, None]},
             ladder=(1.0,)),
    Property("strong_monotonicity", "check_monotone_operator", "gamma",
             sample="pairs", lambdas=False,
             inequality=lambda s, m: (_inner(s.gy - s.gx, s.y - s.x), m * s.d2),
             weak_name="monotonicity", ladder=(1.0, 0.0)),
    Property("offset_monotonicity", "check_offset_monotonicity", "gamma",
             sample="ordered pairs", lambdas=False,
             inequality=lambda s, m: (_offset(s, m), _inner(s.gy, s.x - s.y)),
             premise=_offset_premises, ladder=(1.0,)),
    Property("strong_pseudomonotonicity", "check_strong_pseudomonotonicity",
             "gamma_half", sample="ordered pairs", lambdas=False,
             inequality=lambda s, m: (-m * s.d2, _inner(s.gx, s.y - s.x)),
             premise=lambda s, m: {"": _nonnegative(_inner(s.gy, s.x - s.y))},
             ladder=(0.5,)),
    Property("strong_quasimonotonicity", "check_strong_quasimonotonicity",
             "gamma", sample="ordered pairs", lambdas=False,
             inequality=lambda s, m: (-m * s.d2, _inner(s.gx, s.y - s.x)),
             premise=lambda s, m: {"": _positive(_inner(s.gy, s.x - s.y))},
             weak_name="quasimonotonicity", ladder=(0.5, 0.0)),
    Property("pl", "check_pl", "mu", sample="points", lambdas=False,
             inequality=lambda s, m: (_inner(s.gx, s.gx), m * (s.hx - s.h_star)),
             ladder=(1.0,)),
    Property("quasi_strong_convexity", "check_quasi_strong_convexity", "mu",
             sample="points", lambdas=False, inequality=_quasi_strong_convexity),
)

# Every report name, the weak ones included.
PROPERTIES = {name: prop for prop in _TABLE
              for name in (prop.name, prop.weak_name) if name}


def _weight_count(prop: Property, budget: SampleBudget) -> int:
    """The random weights per pair that ``prop``'s sample is drawn with."""
    return budget.lambdas_per_pair if prop.lambdas else 1


def _blocks(oracle: FunctionOracle, x, y=None, lam=None):
    """``_Batch`` views of the sample's rows, in order, at most
    ``_PAIR_BUDGET // (weights * dim)`` rows each (one at the least)."""
    rows = max(1, _PAIR_BUDGET // ((1 if lam is None else lam.shape[1])
                                   * oracle.dim))
    for start in range(0, x.shape[0], rows):
        yield _Batch(oracle, *(None if a is None else a[start:start + rows]
                               for a in (x, y, lam)))


def _draw(props: list[Property], oracle: FunctionOracle, budget: SampleBudget):
    """Draw the properties' shared sample (points, or pairs with one weight
    count) and yield its (x, y) blocks; weights if one reads them."""
    if props[0].sample == "points":
        yield from _blocks(oracle, sample_points(oracle.domain, oracle.dim,
                                                 budget.pairs, budget.seed))
        return
    X, Y, lam = sample_pairs(oracle.domain, oracle.dim, budget.pairs,
                             _weight_count(props[0], budget), budget.seed)
    lam = np.concatenate([lam, np.broadcast_to(_FIXED_LAMBDAS, (len(lam), 3))],
                         axis=1) if any(p.lambdas for p in props) else None
    yield from _blocks(oracle, X, Y, lam)


def _witness(s: _Batch, lhs, rhs, flat_index: int, note: str) -> Witness:
    at = np.unravel_index(flat_index, lhs.shape)
    i = at[0]
    # a margin per pair has no weight, even on a batch that carries them
    return Witness(x=s.x[i].copy(), y=None if s.y is None else s.y[i].copy(),
                   lam=float(s.lam[at]) if lhs.ndim == 2 else None,
                   lhs=float(lhs[at]), rhs=float(rhs[at]),
                   margin=float(lhs[at] - rhs[at]), note=note)


def _check(runs: list[tuple[Property, float]], oracle: FunctionOracle,
           budget: SampleBudget) -> list[ClassReport]:
    """Sample each (property, modulus) run and report every violation.

    Each sample is drawn once, in the order the runs first need it (see
    the module docstring), and every run reads the values its blocks cache.
    """
    groups: dict = {}
    for r, (prop, modulus) in enumerate(runs):
        if prop.param == "mu":
            if not positive(modulus):
                raise InvalidParameter("mu must be positive")
            if oracle.known_minimizer is None:
                raise MissingMinimizer(f"{prop.checker} needs a known minimizer")
        elif not 0.0 <= modulus < math.inf:
            raise InvalidParameter(f"{prop.param} must be nonnegative")
        groups.setdefault((prop.sample == "points", _weight_count(prop, budget)),
                          []).append((r, prop, modulus))
    # per run and premise note, the first witnesses of each order in turn
    witnesses = [{} for _ in runs]
    tested, count = [0] * len(runs), [0] * len(runs)
    for group in groups.values():
        for block in _draw([prop for _, prop, _ in group], oracle, budget):
            for order, s in enumerate((block, _Mirror(block))):
                for r, prop, modulus in group:
                    if order and prop.sample != "ordered pairs":
                        continue
                    lhs, rhs = prop.inequality(s, modulus)
                    violated = lhs - rhs < -ineq_tol(lhs, rhs)
                    premises = {"": True} if prop.premise is None \
                        else prop.premise(s, modulus)
                    for note, mask in premises.items():
                        active = np.broadcast_to(mask, violated.shape)
                        flat = np.flatnonzero(active & violated)
                        tested[r] += int(np.count_nonzero(active))
                        count[r] += flat.size
                        kept = witnesses[r].setdefault(note, ([], []))[order]
                        kept += [_witness(s, lhs, rhs, i, note)
                                 for i in flat[:MAX_WITNESSES - len(kept)]]
        del block, s  # their views would keep the sample through the next draw
    return [ClassReport(
        property_name=prop.weak_name if modulus == 0 and prop.weak_name
        else prop.name,
        holds_on_samples=count[r] == 0,
        violations=[w for xy, yx in witnesses[r].values()
                    for w in (xy + yx)[:MAX_WITNESSES]][:MAX_WITNESSES],
        samples_tested=tested[r], violations_count=count[r],
        params={prop.param: modulus})
        for r, (prop, modulus) in enumerate(runs)]


def _check_one(name: str, oracle: FunctionOracle, modulus: float,
               budget: SampleBudget) -> ClassReport:
    return _check([(PROPERTIES[name], modulus)], oracle, budget)[0]


def check_strong_quasiconvexity(oracle: FunctionOracle, gamma: float,
                                budget: SampleBudget) -> ClassReport:
    """h(x + lam (y-x)) <= max{h(x), h(y)} - lam(1-lam)(gamma/2)|x-y|^2.

    gamma = 0 degenerates to the plain quasiconvexity test.
    """
    return _check_one("strong_quasiconvexity", oracle, gamma, budget)


def check_convexity(oracle: FunctionOracle, gamma: float,
                    budget: SampleBudget) -> ClassReport:
    """Chord inequality with quadratic penalty: strong convexity (gamma > 0)
    or plain convexity (gamma = 0)."""
    return _check_one("strong_convexity", oracle, gamma, budget)


def check_gradient_characterization(oracle: FunctionOracle, gamma: float,
                                    budget: SampleBudget) -> ClassReport:
    """h(x) <= h(y) implies <grad h(y), x - y> <= -(gamma/2)|y - x|^2.

    Equivalent to strong quasiconvexity with the same modulus for
    differentiable h on a convex set; gamma = 0 is the classical
    quasiconvexity characterization.  The witness stores the sublevel
    point in ``x`` and the point where the gradient was taken in ``y``.
    """
    return _check_one("gradient_characterization", oracle, gamma, budget)


def check_offset_monotonicity(oracle: FunctionOracle, gamma: float,
                              budget: SampleBudget) -> ClassReport:
    """Monotonicity with both sides offset by the half-gamma quadratic.

    Strict form:   <g(x), y-x> >  -(gamma/2)|y-x|^2  implies
                   <g(y), x-y> <= -(gamma/2)|y-x|^2.
    Both the strict-premise form and the non-strict variant (premise with
    >=) are evaluated; witnesses are tagged "strict" / "non_strict".
    gamma = 0 reduces to quasimonotonicity of the gradient.
    """
    return _check_one("offset_monotonicity", oracle, gamma, budget)


def check_strong_pseudomonotonicity(oracle: FunctionOracle, gamma_half: float,
                                    budget: SampleBudget) -> ClassReport:
    """<g(y), x-y> >= 0 implies <g(x), y-x> <= -gamma_half |y-x|^2."""
    return _check_one("strong_pseudomonotonicity", oracle, gamma_half, budget)


def check_strong_quasimonotonicity(oracle: FunctionOracle, gamma: float,
                                   budget: SampleBudget) -> ClassReport:
    """<g(y), x-y> > 0 implies <g(x), y-x> <= -gamma |y-x|^2.

    gamma = 0 is plain quasimonotonicity of the gradient.  The strict
    premise carries a +tol guard so roundoff cannot activate it.
    """
    return _check_one("strong_quasimonotonicity", oracle, gamma, budget)


def check_monotone_operator(oracle: FunctionOracle, gamma: float,
                            budget: SampleBudget) -> ClassReport:
    """<g(y) - g(x), y - x> >= gamma |y - x|^2 (monotone when gamma = 0)."""
    return _check_one("strong_monotonicity", oracle, gamma, budget)


def check_pl(oracle: FunctionOracle, mu: float,
             budget: SampleBudget) -> ClassReport:
    """|grad h(x)|^2 >= mu (h(x) - h(x_bar)) on sampled points."""
    return _check_one("pl", oracle, mu, budget)


def check_quasi_strong_convexity(oracle: FunctionOracle, mu: float,
                                 budget: SampleBudget) -> ClassReport:
    """<grad h(x), x - x_bar> >= h(x) - h(x_bar) + (mu/2)|x - x_bar|^2."""
    return _check_one("quasi_strong_convexity", oracle, mu, budget)


def check_sharp_quasiconvexity(oracle: FunctionOracle, gamma: float,
                               budget: SampleBudget) -> ClassReport:
    """Strong-quasiconvexity inequality required only under the premise
    <grad h(y), x - y> >= 0."""
    return _check_one("sharp_quasiconvexity", oracle, gamma, budget)


def check_property(name: str, oracle: FunctionOracle, modulus: float,
                   budget: SampleBudget) -> ClassReport:
    """Run the check that reports under ``name`` (a key of PROPERTIES).

    ``modulus`` is the check's own parameter (see ``Property.param``); the
    weak names run at modulus 0 whatever is passed.
    """
    prop = PROPERTIES[name]
    # through the module attribute, so a wrapper installed on the public
    # name (e.g. by a profiler) sees every call
    return globals()[prop.checker](
        oracle, 0.0 if name == prop.weak_name else modulus, budget)


# Forward implications asserted on samples: (upper property, lower property).
# If the upper one holds on the sampled set, the lower one must as well.
LADDER_EDGES = [
    ("strong_convexity", "convexity"),
    ("strong_convexity", "strong_quasiconvexity"),
    ("strong_convexity", "strong_monotonicity"),
    ("strong_quasiconvexity", "quasiconvexity"),
    ("strong_quasiconvexity", "gradient_characterization"),
    ("strong_quasiconvexity", "sharp_quasiconvexity"),
    ("strong_quasiconvexity", "offset_monotonicity"),
    ("strong_monotonicity", "monotonicity"),
    ("strong_monotonicity", "offset_monotonicity"),
    ("offset_monotonicity", "strong_pseudomonotonicity"),
    ("strong_pseudomonotonicity", "strong_quasimonotonicity"),
    ("strong_quasiconvexity", "pl"),
]


def check_implication_ladder(oracle: FunctionOracle, gamma: float,
                             budget: SampleBudget) -> list[ClassReport]:
    """Run the full battery of class checks at one modulus.

    Returns reports for the value inequalities (convexity family) and the
    gradient inequalities (monotonicity family), all at the given gamma
    (the pseudo- and quasimonotonicity checks run at gamma/2, the PL check
    at gamma^2 / 2L when the oracle knows L and a minimizer).

    The checks read three samples, which ``_check`` draws once each:
    points, pairs with the budget's weights and pairs with one weight (one
    sample at one weight).  The reports are those of the checks run alone.
    """
    runs = []
    for prop in _TABLE:
        # at gamma = 0 a property runs once, under its weak name if any; a
        # gamma that is not finite and >= 0 fails in _check's first run
        for modulus in dict.fromkeys(f * gamma for f in prop.ladder):
            if prop.param == "mu":
                L = oracle.known_lipschitz
                if not positive(modulus) or L is None \
                        or oracle.known_minimizer is None:
                    continue
                modulus = derive_pl_modulus(modulus, L)
            runs.append((prop, modulus))
    return _check(runs, oracle, budget)


def ladder_soundness(reports: list[ClassReport]) -> list[str]:
    """Names of forward implications violated by the sampled reports."""
    by_name = {}
    for r in reports:
        by_name.setdefault(r.property_name, r)
    broken = []
    for upper, lower in LADDER_EDGES:
        if upper in by_name and lower in by_name:
            if by_name[upper].holds_on_samples and not by_name[lower].holds_on_samples:
                broken.append(f"{upper} holds but {lower} fails")
    return broken


def witness_margin(oracle: FunctionOracle, report: ClassReport,
                   witness: Witness) -> tuple[float, float]:
    """Recompute (margin, tol) for a stored witness from scratch.

    The report's inequality is evaluated on a batch of one with fresh
    oracle calls, to confirm that every reported violation reproduces
    margin < -tol independently of the bulk evaluation.
    """
    prop = PROPERTIES.get(report.property_name)
    if prop is None:
        raise InvalidParameter(f"unknown property {report.property_name!r}")

    def one(v):
        return None if v is None else np.asarray(v, dtype=np.float64).reshape(1, -1)
    s = _Batch(oracle, one(witness.x), one(witness.y), one(witness.lam))
    lhs, rhs = prop.inequality(s, report.params.get(prop.param, 0.0))
    lhs, rhs = float(np.ravel(lhs)[0]), float(np.ravel(rhs)[0])
    return lhs - rhs, float(ineq_tol(lhs, rhs))
