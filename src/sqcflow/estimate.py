"""Empirical estimation of the constants the theory takes as given.

Sampled extrema are biased optimistically, so each estimator returns an
``Estimate``: the sampled extremum as ``value`` and, as ``safe``, that value
times its ``SAFETY_*`` factor (L 1.1x, the modulus and kappa 0.95x), which
is what a certificate reads; kappa is read on the states of the run that
it certifies.  Streams are nested (same seed, prefix property), so
doubling the sample count can only tighten an estimate.

The Lipschitz estimate compares every pair of its samples in blocks.  A
block of budget // (start + side) samples, side > sqrt(budget), meets
every sample up to its end: at most ``_PAIR_BUDGET`` pairs (one sample at
the least), so the scan's memory does not grow with the sample count.
Squares are summed in ascending coordinate order, as ``np.linalg.norm``
sums fewer than 8 terms: dims 1 and 2 make at most one addition, dims 3
to 6 matched it on 2M vectors under numpy 2.4.6, and only CI's job on the
numpy 1.24 floor checks that version.  The modulus estimate cuts its
sample with ``verify._blocks``, the one block rule of sampled checks, so
its temporaries do not grow with the sample count either.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .core import (DomainSamplingFailure, DomainSpec, FunctionOracle,
                   InsufficientSamples, InvalidParameter, NumericalBlowup,
                   StagnationFailure, as_point, check_start)
from .sampling import sample_pairs, sample_points
from .verify import _PAIR_BUDGET, PROPERTIES, _blocks, _penalty

SAFETY_LIPSCHITZ = 1.1
SAFETY_MODULUS = 0.95
SAFETY_KAPPA = 0.95

# Interpolation weights below carry no information about the modulus at the
# interval ends, and the ratio denominator blows up there.
_LAMBDA_RANGE = (0.05, 0.95)

REFERENCE_SAMPLES = 512  # sublevel samples behind reference_minimizer's step


class Estimate(NamedTuple):
    """``samples`` is the sample budget; for kappa, the trajectory's length."""
    value: float
    safe: float
    samples: int


def _sublevel_region(oracle: FunctionOracle, x0, level: float) -> DomainSpec:
    """The sublevel set {h <= level} of the oracle's domain, as a domain
    whose predicate is the domain's and h <= level.

    A bounded domain bounds it directly.  Otherwise the bounding box is
    grown by doubling along each axis from the best-known center until the
    value exceeds the level; unbounded growth means the sublevel set is
    not compact and sampling it is hopeless.
    """
    dom = oracle.domain

    def below(X):
        return dom.predicate_mask(X) & (np.asarray(oracle.value(X)) <= level)
    if dom.kind != "all_space":
        return dataclasses.replace(dom, predicate=below)
    center = oracle.known_minimizer if oracle.known_minimizer is not None else x0
    halfwidth = np.empty(oracle.dim)
    for i in range(oracle.dim):
        t = 1.0
        e = np.zeros(oracle.dim)
        e[i] = 1.0
        for _ in range(60):
            if (oracle.value(center + t * e) > level + 1e-12
                    and oracle.value(center - t * e) > level + 1e-12):
                break
            t *= 2.0
        else:
            raise DomainSamplingFailure(
                f"sublevel set appears unbounded along coordinate {i}")
        halfwidth[i] = t
    return DomainSpec.box(center - halfwidth, center + halfwidth,
                          predicate=below)


def estimate_lipschitz_sublevel(oracle: FunctionOracle, x0,
                                samples: int = 2000, seed: int = 0) -> Estimate:
    """Gradient Lipschitz constant on the sublevel set of h(x0); safe at 1.1x.

    Takes the largest difference quotient |g(x)-g(y)| / |x-y| over all
    pairs of sampled sublevel points (x0 included, so an x0 outside the
    domain raises DomainExit before any sampling).  An x0 at the known
    minimum value raises InsufficientSamples, also before any sampling.
    """
    if samples < 2:
        raise InvalidParameter("need at least 2 samples")
    x0 = as_point(x0, oracle.dim)
    check_start(oracle.domain, x0)
    level = float(oracle.value(x0))
    if oracle.known_minimizer is not None and level <= oracle.minimum_value():
        raise InsufficientSamples(
            "x0 attains the minimum value, so its sublevel set holds no "
            "second point to sample")
    pts = sample_points(_sublevel_region(oracle, x0, level), oracle.dim,
                        samples, seed)
    pts = np.concatenate([x0[None, :], pts])
    grads = np.asarray(oracle.grad(pts))
    bad = np.flatnonzero(~np.isfinite(grads).all(axis=-1))
    if bad.size:
        raise NumericalBlowup(int(bad[0]), "non-finite gradient at sampled "
                              f"sublevel point {pts[bad[0]].tolist()}")
    L = _largest_ratio(np.stack([pts.T, grads.T]))
    return Estimate(L, L * SAFETY_LIPSCHITZ, samples)


def _largest_ratio(XG) -> float:
    """Largest |g(x) - g(y)| / |x - y| over all pairs of the samples stacked
    as columns of ``XG``; pairs closer than 1e-12 count as 0."""
    n, side, best, start = XG.shape[2], int(_PAIR_BUDGET ** 0.5) + 1, 0.0, 0
    while start < n:
        end = min(n, start + max(1, _PAIR_BUDGET // (start + side)))
        best, start = max(best, _block_ratio(XG, start, end)), end
    return best


def _block_ratio(XG, start, end) -> float:
    """The largest ratio between samples ``start:end`` and samples ``:end``;
    its three temporaries are freed before the next block is allocated."""
    sq, diff = np.zeros((2, end - start, end)), np.empty((end - start, end))
    for s, A in zip(sq, XG):
        for a in A:
            s += np.square(np.subtract(a[start:end, None], a[:end], out=diff),
                           out=diff)
    dist, gdist = np.sqrt(sq, out=sq)
    dist[dist < 1e-12] = np.inf
    return float(np.divide(gdist, dist, out=gdist).max())


def empirical_modulus(oracle: FunctionOracle, samples: int = 20000,
                      seed: int = 0) -> Estimate:
    """Largest gamma compatible with the sampled strong-quasiconvexity
    inequalities of ``verify.PROPERTIES``.

    At a sampled (x, y, lam) with x != y the margin falls linearly in gamma
    and is zero at its value for gamma = 0 over the penalty per unit of
    gamma.  The estimate is the minimum of that gamma over the sample,
    clamped at zero.  It can only overestimate the true modulus; the safe
    value is deflated 0.95x.
    """
    if samples < 1:
        raise InvalidParameter("need at least 1 sample")
    X, Y, LAM = sample_pairs(oracle.domain, oracle.dim, samples, 1, seed)
    LAM *= _LAMBDA_RANGE[1] - _LAMBDA_RANGE[0]
    LAM += _LAMBDA_RANGE[0]
    valid, best = 0, np.inf
    for s in _blocks(oracle, X, Y, LAM):
        keep = s.d2 >= 1e-12
        if keep.any():
            valid += int(np.count_nonzero(keep))
            lhs, rhs = PROPERTIES["strong_quasiconvexity"].inequality(s, 0.0)
            ratio = ((lhs - rhs) / _penalty(s, 1.0))[:, 0]
            # np.minimum, unlike min(), keeps a NaN ratio
            best = np.minimum(best, ratio[keep].min())
    if valid < 10:
        raise InsufficientSamples("fewer than 10 distinct sampled pairs")
    gamma = max(float(best), 0.0)
    return Estimate(gamma, gamma * SAFETY_MODULUS, samples)


def estimate_kappa(oracle: FunctionOracle, traj) -> Estimate:
    """Smallest ratio <grad h(x), x - x_bar> / (h(x) - h*) over the states
    of a run (x_bar the oracle's minimizer, h* its value); safe at 0.95x.
    States closer than 1e-12 to the optimal value are skipped.
    """
    gaps = traj.h_values - oracle.minimum_value()
    valid = gaps > 1e-12
    if not np.any(valid):
        raise InsufficientSamples("no trajectory samples above the optimal value")
    X = traj.states[valid]
    grads = np.asarray(oracle.grad(X))
    inner = np.sum(grads * (X - oracle.known_minimizer), axis=-1)
    kappa = float((inner / gaps[valid]).min())
    return Estimate(kappa, kappa * SAFETY_KAPPA, len(traj))


def reference_minimizer(oracle: FunctionOracle, x0, seed: int = 0) -> np.ndarray:
    """Long conservative gradient run used when no minimizer is known.

    Step 1/(2 L-hat) with L-hat estimated from ``seed`` on the initial
    sublevel set; stops at a gradient norm of 1e-12 or after 10^6
    iterations and returns the best iterate found.  Raises
    StagnationFailure if the best value stops improving for 10^4
    consecutive iterations.
    """
    x = as_point(x0, oracle.dim)
    L_hat = estimate_lipschitz_sublevel(oracle, x, REFERENCE_SAMPLES, seed=seed)
    beta = 0.5 / L_hat.safe
    best_x, best_h = x.copy(), float(oracle.value(x))
    ref_h = best_h  # value at the last decrease visible above roundoff
    since_improvement = 0
    for _ in range(1_000_000):
        g = np.asarray(oracle.grad(x))
        if float(np.linalg.norm(g)) <= 1e-12:
            break
        x = x - beta * g
        h = float(oracle.value(x))
        if h < best_h:
            best_x, best_h = x.copy(), h
        if h < ref_h - 1e-15 * (1.0 + abs(ref_h)):
            ref_h = h
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= 10_000:
                raise StagnationFailure(
                    "no decrease over 10000 consecutive iterations")
    return best_x
