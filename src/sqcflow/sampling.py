"""Seeded, nested sample streams over domains.

All randomness is drawn as one sequential stream of uniforms from a
counter-based generator (Philox), one fixed-width row per sample.  The
stream position after n rows does not depend on chunking, so a run with a
larger budget reproduces the smaller run's samples as a prefix.  That
makes refinement monotone (min/max estimates only improve) and keeps every
report reproducible from its seed.

Rows map onto the domain's base region by construction; only the
domain's vectorized predicate (and an optional ``accept`` mask) can
reject a candidate.  Sampling fails once 1000 consecutive candidates
before the last one needed are rejected, counted exactly across chunk
boundaries, so neither the samples nor the failure depend on chunking.
"""

from __future__ import annotations

import numpy as np

from .core import DomainSamplingFailure, DomainSpec, InvalidParameter

# Sampling window used for unbounded domains.
DEFAULT_HALFWIDTH = 3.0

_CHUNK = 4096
_MAX_CONSECUTIVE_REJECTS = 1000

# Acklam's rational approximation of the standard normal quantile: central
# region |p - 1/2| <= 1/2 - _P_LOW, tails beyond it.
_P_LOW = 0.02425
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01, 1.0)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00, 1.0)


def inverse_normal_cdf(p) -> np.ndarray:
    """Standard normal quantile for p in ]0, 1[, relative error below 1.2e-9."""
    p = np.asarray(p, dtype=np.float64)
    out = np.empty_like(p)
    tail_p = np.minimum(p, 1.0 - p)
    tail = tail_p < _P_LOW
    q = p[~tail] - 0.5
    r = q * q
    out[~tail] = np.polyval(_A, r) * q / np.polyval(_B, r)
    s = np.sqrt(-2.0 * np.log(tail_p[tail]))
    lower = np.polyval(_C, s) / np.polyval(_D, s)
    out[tail] = np.where(p[tail] < 0.5, lower, -lower)
    return out


class NestedSampler:
    """Sequential uniform row source with a reproducible prefix property."""

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))

    def rows(self, n: int, width: int) -> np.ndarray:
        u = self._gen.random((n, width))
        # the normal quantile is infinite at 0; keep uniforms strictly inside (0, 1)
        return np.clip(u, 1e-15, 1.0 - 1e-15)


def point_width(domain: DomainSpec, dim: int) -> int:
    """Uniform draws consumed per point for the given domain kind."""
    if domain.kind == "ball":
        return dim + 1
    return dim


def points_from_rows(domain: DomainSpec, dim: int, rows: np.ndarray) -> np.ndarray:
    """Map uniform rows to points in the domain's base region.

    Box and all-space map affinely; balls use a Gaussian direction (via the
    normal inverse CDF) and a volume-correct radial factor, so no draws are
    wasted on rejection.  The optional predicate is NOT applied here.
    """
    if domain.kind == "box":
        lo, hi = domain.lower, domain.upper
        return lo + rows[:, :dim] * (hi - lo)
    if domain.kind == "all_space":
        return -DEFAULT_HALFWIDTH + rows[:, :dim] * (2.0 * DEFAULT_HALFWIDTH)
    if domain.kind == "ball":
        g = inverse_normal_cdf(rows[:, :dim])
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        r = domain.radius * rows[:, dim:dim + 1] ** (1.0 / dim)
        return domain.center + r * (g / norms)
    raise InvalidParameter(f"unknown domain kind {domain.kind!r}")


def _first_accepted(keep: np.ndarray, need: int, run: int) -> tuple[np.ndarray, int]:
    """Indices of the first ``need`` accepted candidates of a chunk.

    Also returns the reject run left open at the chunk's end (0 once
    ``need`` candidates are found).  ``run`` is the open run carried in
    from earlier chunks.  Every reject run before the need-th accept is
    measured exactly; later candidates are not looked at.
    """
    idx = np.flatnonzero(keep)[:need]
    open_end = [keep.shape[0]] if idx.size < need else []
    # run lengths between boundaries; a virtual accept before the carried
    # run starts the first one
    runs = np.diff(np.concatenate(([-1 - run], idx, open_end))) - 1
    longest = int(runs.max())
    if longest >= _MAX_CONSECUTIVE_REJECTS:
        raise DomainSamplingFailure(
            f"{longest} consecutive candidates rejected; "
            "domain appears unreachable by the sampler")
    return idx, int(runs[-1]) if open_end else 0


def _accepted(n: int, width: int, sampler: NestedSampler, draw) -> list:
    """The first ``n`` accepted candidates of the row stream.

    ``draw(rows)`` maps a chunk of rows, one candidate each, to a tuple of
    arrays aligned with the rows and the candidates' accept mask.  Returns
    those arrays' accepted rows, each written into an array of ``n`` rows
    allocated once, so the sample never exists twice.
    """
    out, got, run = None, 0, 0
    while got < n:
        arrays, keep = draw(sampler.rows(min(_CHUNK, max(n - got, 64)), width))
        idx, run = _first_accepted(keep, n - got, run)
        if out is None:
            out = [np.empty((n,) + a.shape[1:], a.dtype) for a in arrays]
        for full, a in zip(out, arrays):
            full[got:got + idx.size] = a[idx]
        got += idx.size
    return out


def sample_points(domain: DomainSpec, dim: int, n: int,
                  sampler: NestedSampler,
                  accept=None) -> np.ndarray:
    """Draw n points from the domain, rejecting on predicate and ``accept``.

    ``accept`` is an optional vectorized (n, dim) -> bool mask used e.g. for
    sublevel-set restriction.  Raises DomainSamplingFailure after 1000
    consecutive rejected candidates.
    """
    def draw(rows):
        X = points_from_rows(domain, dim, rows)
        keep = domain.predicate_mask(X)
        if accept is not None:
            keep = keep & np.asarray(accept(X), dtype=bool)
        return (X,), keep

    return _accepted(n, point_width(domain, dim), sampler, draw)[0]


def sample_pairs(domain: DomainSpec, dim: int, pairs: int, n_lambdas: int,
                 sampler: NestedSampler,
                 lam_range: tuple[float, float] = (0.0, 1.0)):
    """Draw (x, y, lambda...) triples; both points must lie in the domain.

    Returns arrays X (pairs, dim), Y (pairs, dim), LAM (pairs, n_lambdas).
    One row of the stream covers one candidate triple, so rejection keeps
    the nested-prefix property.
    """
    w = point_width(domain, dim)
    lo, span = lam_range[0], lam_range[1] - lam_range[0]

    def draw(rows):
        X = points_from_rows(domain, dim, rows[:, :w])
        Y = points_from_rows(domain, dim, rows[:, w:2 * w])
        keep = domain.predicate_mask(X) & domain.predicate_mask(Y)
        return (X, Y, lo + span * rows[:, 2 * w:]), keep

    return tuple(_accepted(pairs, 2 * w + n_lambdas, sampler, draw))
