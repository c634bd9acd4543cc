"""Ready-made oracles with known moduli, plus the closure combinators.

Every entry records which constants are known for it so verifiers and
solvers can be driven without hand-tuning: its oracle carries the modulus
gamma and the gradient Lipschitz constant, the entry the other facts (ball
radius, denominator band, PL constant).  All oracle callables broadcast
over leading axes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .core import (DomainSpec, DomainViolation, FunctionOracle,
                   InvalidParameter, as_point)
from .sampling import sample_points

_ORIGIN_EXCLUSION = 1e-12
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class CatalogEntry:
    """An oracle with its provenance; ``facts`` holds the known constants
    the oracle does not carry: ``radius``, ``m``, ``M`` and ``mu``."""

    name: str
    oracle: FunctionOracle
    provenance: str
    facts: dict[str, float] = field(default_factory=dict)

    @property
    def constants_known(self) -> dict[str, float]:
        """gamma and lipschitz where the oracle knows them, then the facts."""
        known = {"gamma": self.oracle.known_modulus,
                 "lipschitz": self.oracle.known_lipschitz}
        return {**{k: v for k, v in known.items() if v is not None}, **self.facts}

    def to_metadata(self) -> dict:
        return {
            "name": self.name,
            "dim": self.oracle.dim,
            "constants": {k: float(v) for k, v in sorted(self.constants_known.items())},
            "provenance": self.provenance,
        }


def sqrt_norm(dim: int, radius: float) -> CatalogEntry:
    """h(x) = sqrt(|x|) on the ball of the given radius.

    Nonconvex, yet strongly quasiconvex on B(0, r) with modulus
    gamma = c r^(-3/2), c = 1 / (5^(1/4) 2^(5/4)) = 0.281 < 1/2.  The
    gradient is undefined at the origin; points with |x| < 1e-12 are
    rejected by the gradient and excluded from sampling.

    Proof, for h = |x|^p with 0 < p <= 2 (here p = 1/2): take x, y in the
    ball with |y| <= |x| = a, lam in [0, 1], z = (1 - lam) x + lam y and
    delta = lam (1 - lam) |x - y|^2.  Then
    |z|^2 = (1 - lam) |x|^2 + lam |y|^2 - delta <= a^2 - delta.  As
    u -> u^(p/2) is increasing and concave,
    |z|^p <= (a^2 - delta)^(p/2) <= a^p - (p/2) a^(p-2) delta, and
    a^(p-2) >= r^(p-2) since a <= r and p <= 2.  So
    h(z) <= max{h(x), h(y)} - lam (1 - lam) (gamma/2) |x - y|^2 holds with
    gamma = p r^(p-2), here r^(-3/2) / 2; it is tight at x = -r e,
    y = r e as lam -> 1.  Under x = r u, sqrt|x| scales by r^(1/2) and
    |x - y|^2 by r^2, hence the r^(-3/2).  The catalog states
    c r^(-3/2), below the exact modulus at every radius.
    """
    if radius <= 0:
        raise InvalidParameter("radius must be positive")
    if dim < 1:
        raise InvalidParameter("dimension must be >= 1")
    gamma = 1.0 / (5.0 ** 0.25 * 2.0 ** 1.25 * radius ** 1.5)

    def value(x):
        x = np.asarray(x, dtype=np.float64)
        return np.sqrt(np.linalg.norm(x, axis=-1))

    def grad(x):
        x = np.asarray(x, dtype=np.float64)
        n = np.linalg.norm(x, axis=-1)
        if np.any(n < _ORIGIN_EXCLUSION):
            raise DomainViolation("gradient of sqrt(|x|) is undefined at the origin")
        # n * sqrt(n), not n ** 1.5: pow rounds differently for a numpy
        # scalar than in an array loop, so one row would differ from a batch
        return x / (2.0 * n * np.sqrt(n))[..., None]

    domain = DomainSpec.ball(
        np.zeros(dim), radius,
        predicate=lambda x: np.linalg.norm(x, axis=-1) >= _ORIGIN_EXCLUSION)
    oracle = FunctionOracle(dim=dim, value=value, grad=grad,
                            known_modulus=gamma,
                            known_minimizer=np.zeros(dim), domain=domain)
    return CatalogEntry(
        name=f"sqrt_norm_{dim}d",
        oracle=oracle,
        provenance="square root of the Euclidean norm; nonconvex but strongly "
                   "quasiconvex on the ball, nonsmooth only at the origin",
        facts={"radius": float(radius)},
    )


def _bounding_domain(B, b, beta, m, M, dim, predicate) -> DomainSpec:
    """Base sampling region containing {x : m <= g(x) <= M}."""
    if not np.any(B):
        # g is affine; the set is a slab (or everything), both unbounded
        return DomainSpec.all_space(predicate=predicate)
    eig_min = float(np.linalg.eigvalsh(B).min())
    if eig_min <= 0:
        return DomainSpec.all_space(predicate=predicate)
    # 0.5 eig_min |x|^2 - |b||x| + beta <= M bounds |x|
    bn = float(np.linalg.norm(b))
    disc = bn * bn + 2.0 * eig_min * max(M - beta, 0.0)
    r = (bn + np.sqrt(disc)) / eig_min
    return DomainSpec.ball(np.zeros(dim), max(r, 1e-6), predicate=predicate)


def quadratic_fraction(A, a, alpha: float, B, b, beta: float,
                       m: float, M: float) -> CatalogEntry:
    """Ratio of two quadratics h = f/g on the set {m <= g <= M}.

    With A positive definite and one of (a) B = 0, (b) f >= 0 on the set
    and B negative semidefinite, (c) f <= 0 on the set and B positive
    semidefinite, h is strongly quasiconvex there with modulus
    lambda_min(A) / M.  Condition (a) is checked exactly, (b)/(c) on 512
    seeded points of the set.  Inputs that meet none of them raise
    InvalidParameter: the stated modulus would have no backing.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    dim = A.shape[0]
    a = as_point(a, dim) if np.ndim(a) else np.full(dim, float(a))
    b = as_point(b, dim) if np.ndim(b) else np.full(dim, float(b))
    if A.shape != (dim, dim) or B.shape != (dim, dim):
        raise InvalidParameter("A and B must be square matrices of equal size")
    if not (np.allclose(A, A.T) and np.allclose(B, B.T)):
        raise InvalidParameter("A and B must be symmetric")
    if not (0 < m < M):
        raise InvalidParameter("need 0 < m < M")
    eigs_A = np.linalg.eigvalsh(A)
    if eigs_A.min() <= 0:
        raise InvalidParameter("A must be positive definite")
    gamma = float(eigs_A.min()) / M

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * np.einsum("...i,ij,...j->...", x, A, x) + x @ a + alpha

    def g(x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * np.einsum("...i,ij,...j->...", x, B, x) + x @ b + beta

    def value(x):
        return f(x) / g(x)

    def grad(x):
        x = np.asarray(x, dtype=np.float64)
        fx, gx = f(x), g(x)
        df = x @ A + a
        dg = x @ B + b
        return (df * gx[..., None] - fx[..., None] * dg) / (gx ** 2)[..., None]

    def member(x):
        gx = g(x)
        return (m <= gx) & (gx <= M)

    domain = _bounding_domain(B, b, beta, m, M, dim, member)
    if np.any(B):
        eigs_B = np.linalg.eigvalsh(B)
        pts = sample_points(domain, dim, 512, seed=0)
        fvals = f(pts)
        nsd, psd = eigs_B.max() <= 1e-12, eigs_B.min() >= -1e-12
        if not ((nsd and np.all(fvals >= -1e-12)) or
                (psd and np.all(fvals <= 1e-12))):
            raise InvalidParameter(
                "none of the sign premises holds; the modulus "
                "lambda_min(A)/M does not apply")

    known_lipschitz = None
    known_minimizer = None
    if not np.any(B) and not np.any(b):
        if not (m <= beta <= M):
            raise InvalidParameter("constant denominator falls outside [m, M]")
        known_lipschitz = float(eigs_A.max()) / beta
        known_minimizer = np.linalg.solve(A, -a)

    oracle = FunctionOracle(dim=dim, value=value, grad=grad,
                            known_modulus=gamma,
                            known_lipschitz=known_lipschitz,
                            known_minimizer=known_minimizer, domain=domain)
    return CatalogEntry(
        name="quadratic_fraction",
        oracle=oracle,
        provenance="ratio of quadratic forms on a denominator band; strongly "
                   "quasiconvex there with modulus lambda_min(A)/M",
        facts={"m": float(m), "M": float(M)},
    )


def _intersect_domains(d1: DomainSpec, d2: DomainSpec) -> DomainSpec:
    if d1.everywhere:
        return d2
    if d2.everywhere:
        return d1

    def both(x):
        return d1.contains(x) & d2.contains(x)

    def bbox(d):
        if d.kind == "box":
            return d.lower, d.upper
        if d.kind == "ball":
            return d.center - d.radius, d.center + d.radius
        return None

    b1, b2 = bbox(d1), bbox(d2)
    if b1 is None and b2 is None:
        return DomainSpec.all_space(predicate=both)
    if b1 is None:
        lo, hi = b2
    elif b2 is None:
        lo, hi = b1
    else:
        lo, hi = np.maximum(b1[0], b2[0]), np.minimum(b1[1], b2[1])
        if np.any(lo > hi):
            raise InvalidParameter("domains do not overlap")
    return DomainSpec.box(lo, hi, predicate=both)


def max_combine(e1: CatalogEntry, e2: CatalogEntry) -> CatalogEntry:
    """Pointwise maximum of two entries.

    The modulus of the max is the smaller of the two moduli.  Off the tie
    set |h1 - h2| < 1e-12 the gradient is the larger branch's.  On it the
    gradient is the least-norm point of the subdifferential conv{g1, g2}:
    with d = g1 - g2 that is g2 + t d, t = clip(-<g2, d> / |d|^2, 0, 1)
    (t = 0 when g1 == g2), computed only on the tie rows.  The tie set is measure zero but breaks gradient
    Lipschitz continuity, so no Lipschitz constant is carried over.
    """
    if e1.oracle.dim != e2.oracle.dim:
        raise InvalidParameter("entries have different dimensions")
    o1, o2 = e1.oracle, e2.oracle

    def value(x):
        return np.maximum(o1.value(x), o2.value(x))

    def grad(x):
        h1, h2 = np.asarray(o1.value(x)), np.asarray(o2.value(x))
        g1, g2 = np.asarray(o1.grad(x)), np.asarray(o2.grad(x))
        g = np.where((h1 >= h2)[..., None], g1, g2)
        tie = np.abs(h1 - h2) < _TIE_TOL
        if np.any(tie):
            a, d = g2[tie], g1[tie] - g2[tie]
            dd = np.sum(d * d, axis=-1)
            t = np.divide(-np.sum(a * d, axis=-1), dd,
                          out=np.zeros_like(dd), where=dd > 0)
            g[tie] = a + np.clip(t, 0.0, 1.0)[..., None] * d
        return g

    gamma = None
    if o1.known_modulus is not None and o2.known_modulus is not None:
        gamma = min(o1.known_modulus, o2.known_modulus)
    oracle = FunctionOracle(dim=o1.dim, value=value, grad=grad,
                            known_modulus=gamma,
                            domain=_intersect_domains(o1.domain, o2.domain))
    return CatalogEntry(
        name=f"max({e1.name},{e2.name})",
        oracle=oracle,
        provenance="pointwise maximum; modulus is the minimum of the branch "
                   "moduli, nonsmooth on the tie set",
    )


def scale_combine(entry: CatalogEntry, alpha: float) -> CatalogEntry:
    """alpha * h for alpha > 0; modulus and Lipschitz constant scale by alpha."""
    if alpha <= 0:
        raise InvalidParameter("scale factor must be positive")
    o = entry.oracle
    facts = dict(entry.facts)
    if "mu" in facts:
        facts["mu"] = alpha * facts["mu"]
    oracle = FunctionOracle(
        dim=o.dim,
        value=lambda x, _v=o.value: alpha * _v(x),
        grad=lambda x, _g=o.grad: alpha * np.asarray(_g(x)),
        known_modulus=None if o.known_modulus is None else alpha * o.known_modulus,
        known_lipschitz=None if o.known_lipschitz is None else alpha * o.known_lipschitz,
        known_minimizer=o.known_minimizer,
        domain=o.domain)
    return CatalogEntry(
        name=f"scale({entry.name},{alpha:g})",
        oracle=oracle,
        provenance=f"{entry.provenance}; scaled by {alpha:g}",
        facts=facts,
    )


def sin_quadratic() -> CatalogEntry:
    """h(x) = x^2 + 3 sin^2 x on the line.

    Strongly quasiconvex and PL but not convex; no closed-form modulus is
    carried, the estimators supply an empirical one.
    """

    def value(x):
        t = np.asarray(x, dtype=np.float64)[..., 0]
        return t * t + 3.0 * np.sin(t) ** 2

    def grad(x):
        t = np.asarray(x, dtype=np.float64)[..., 0]
        return (2.0 * t + 3.0 * np.sin(2.0 * t))[..., None]

    oracle = FunctionOracle(dim=1, value=value, grad=grad,
                            known_minimizer=np.zeros(1))
    return CatalogEntry(
        name="sin_quadratic",
        oracle=oracle,
        provenance="quadratic plus squared sine; nonconvex, strongly "
                   "quasiconvex with unique minimizer at the origin",
    )


def max_two_quadratics() -> CatalogEntry:
    """h(x) = max{|x|^2 / 2, |x - c|^2 / 2} with c = (1, 0) in the plane.

    Modulus 1, the smaller branch modulus, and nonsmooth at its minimizer
    x_bar = c / 2 = (1/2, 0), where h* = 1/8.  By the parallelogram law
    |x|^2 + |x - c|^2 = 2 |x - c/2|^2 + |c|^2 / 2 >= |c|^2 / 2, with
    equality only at c / 2.  A maximum is at least the mean of its
    branches, so h(x) >= (|x|^2 + |x - c|^2) / 4 >= |c|^2 / 8 = 1/8, and
    h = 1/8 only at (1/2, 0).  Both branches give exactly 0.125 there, so
    x_bar is on the tie set, and the gradient there, the least-norm point
    of conv{(1/2, 0), (-1/2, 0)}, is exactly 0.
    """
    entry = max_combine(strongly_convex_quadratic(2, 1.0, 1.0),
                        shifted_isotropic_quadratic(2, [1.0, 0.0]))
    oracle = dataclasses.replace(entry.oracle,
                                 known_minimizer=np.array([0.5, 0.0]))
    return dataclasses.replace(entry, name="max_two_quadratics", oracle=oracle)


def strongly_convex_quadratic(dim: int, gamma: float, L: float) -> CatalogEntry:
    """Diagonal quadratic baseline with exact constants.

    Eigenvalues run geometrically from gamma up to L, so the strong
    convexity modulus and the gradient Lipschitz constant are known
    exactly and every certificate can be checked against ground truth.
    """
    if dim < 1:
        raise InvalidParameter("dimension must be >= 1")
    if not (0 < gamma <= L):
        raise InvalidParameter("need 0 < gamma <= L")
    if dim == 1:
        if gamma != L:
            raise InvalidParameter("a 1-D quadratic has a single eigenvalue")
        d = np.array([gamma])
    else:
        d = gamma * (L / gamma) ** (np.arange(dim) / (dim - 1))

    def value(x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * np.sum(d * x * x, axis=-1)

    def grad(x):
        return d * np.asarray(x, dtype=np.float64)

    oracle = FunctionOracle(dim=dim, value=value, grad=grad,
                            known_modulus=float(gamma),
                            known_lipschitz=float(L),
                            known_minimizer=np.zeros(dim))
    return CatalogEntry(
        name=f"quadratic_{dim}d",
        oracle=oracle,
        provenance="diagonal strongly convex quadratic with geometrically "
                   "spaced eigenvalues",
    )


def shifted_isotropic_quadratic(dim: int, center) -> CatalogEntry:
    """h(x) = 0.5 |x - c|^2; modulus and Lipschitz constant are both 1."""
    c = as_point(center, dim)

    def value(x):
        diff = np.asarray(x, dtype=np.float64) - c
        return 0.5 * np.sum(diff * diff, axis=-1)

    def grad(x):
        return np.asarray(x, dtype=np.float64) - c

    oracle = FunctionOracle(dim=dim, value=value, grad=grad,
                            known_modulus=1.0, known_lipschitz=1.0,
                            known_minimizer=c)
    return CatalogEntry(
        name=f"shifted_quadratic_{dim}d",
        oracle=oracle,
        provenance="isotropic quadratic centered away from the origin",
    )


def pl_degenerate_quadratic() -> CatalogEntry:
    """h(x1, x2) = 0.5 x1^2: PL with modulus 1, yet not strongly quasiconvex.

    The minimizer set is the whole x2 axis, so the strong-quasiconvexity
    inequality fails along it for any positive modulus while the PL
    inequality |grad h|^2 >= mu (h - h*) holds with mu = 1.  Kept in the
    catalog as the canonical negative example separating the two classes.
    """

    def value(x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * x[..., 0] ** 2

    def grad(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        out[..., 0] = x[..., 0]
        return out

    oracle = FunctionOracle(dim=2, value=value, grad=grad,
                            known_lipschitz=1.0,
                            known_minimizer=np.zeros(2))
    return CatalogEntry(
        name="degenerate_quadratic",
        oracle=oracle,
        provenance="quadratic in the first coordinate only; PL with modulus "
                   "1 but not strongly quasiconvex (non-unique argmin)",
        facts={"mu": 1.0},
    )


def default_catalog() -> dict[str, CatalogEntry]:
    """The fixed named catalog exposed through the command line."""
    entries = [
        strongly_convex_quadratic(1, 1.0, 1.0),
        strongly_convex_quadratic(2, 1.0, 4.0),
        strongly_convex_quadratic(3, 1.0, 4.0),
        sqrt_norm(1, 1.0),
        sqrt_norm(2, 1.0),
        sin_quadratic(),
        quadratic_fraction(np.eye(2), np.zeros(2), 0.0,
                           np.zeros((2, 2)), np.zeros(2), 2.0, 1.0, 3.0),
        max_two_quadratics(),
        pl_degenerate_quadratic(),
    ]
    return {e.name: e for e in entries}


def get_entry(name: str) -> CatalogEntry:
    cat = default_catalog()
    if name not in cat:
        raise InvalidParameter(
            f"unknown function {name!r}; available: {', '.join(sorted(cat))}")
    return cat[name]
