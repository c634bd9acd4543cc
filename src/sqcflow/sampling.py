"""Seeded, nested sample streams over domains.

Every seeded draw in the package comes from this module: one sequential
stream of uniforms keyed by a seed, one fixed-width row per sample.  The
stream position after n rows does not depend on chunking, so a run with
a larger budget reproduces the smaller run's samples as a prefix.  That
makes refinement monotone (min/max estimates only improve) and keeps
every report reproducible from its seed.

The generator is Philox4x64-10 (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC 2011), computed here in vectorised ``np.uint64``
arithmetic; its words are those of ``numpy.random.Philox(key=seed mod
2**64)``, which this module does not import.  The key is ``(seed mod
2**64, 0)``.  Block b of the stream is the 10-round encryption of the
counter ``(b + 1, 0, 0, 0)`` and holds words 4b to 4b + 3, so word j is
computed directly from the key and j.  Word w gives the uniform
``(w >> 11) * 2**-53``, as ``numpy.random.Generator.random`` does, and
rows take consecutive uniforms in row-major order.

Rows map onto the domain's base region by construction; only the
domain's vectorized predicate can reject a candidate.  Sampling fails
once 1000 consecutive candidates before the last one needed are
rejected, counted exactly across chunk boundaries, so neither the
samples nor the failure depend on chunking.
"""

from __future__ import annotations

import numpy as np

from .core import DomainSamplingFailure, DomainSpec, InvalidParameter

# Sampling window used for unbounded domains.
DEFAULT_HALFWIDTH = 3.0

_CHUNK = 4096
_MAX_CONSECUTIVE_REJECTS = 1000

# Philox4x64-10: the two round multipliers, the Weyl constants that bump
# the key between rounds, and the words generated per pass, which bounds
# the generator's temporaries at about 512 KiB.
_MASK64 = (1 << 64) - 1
_MULT = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_WORDS = 1 << 14
# uint64 operands only: numpy 1.x would promote uint64 with a Python int
# to float64
_LO32, _32, _11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)
_MULT_LO, _MULT_HI = _MULT & _LO32, _MULT >> _32

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


def _round_keys(key: int) -> np.ndarray:
    """The key of each round, shape (rounds, 2, 1): round r adds r times
    the Weyl constants to ``(key, 0)``, modulo 2**64."""
    return np.array([[[(key + r * _WEYL[0]) & _MASK64],
                      [r * _WEYL[1] & _MASK64]] for r in range(_ROUNDS)],
                    np.uint64)


def _philox_words(key: int, first: int, count: int) -> np.ndarray:
    """Words ``first`` to ``first + count - 1`` of the Philox4x64-10 stream.

    A round multiplies counter words 0 and 2 into 128-bit products, whose
    high words are built from 32-bit halves (the low words wrap in
    uint64), and gives ``(hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0)``.  The
    counter is held as words (0, 2) and (1, 3) of every block, and each
    round works in place on four more arrays of that shape.
    """
    block = first // 4
    blocks = (first + count + 3) // 4 - block
    x, y = np.zeros((2, 2, blocks), np.uint64)
    x[0] = np.arange(block + 1, block + 1 + blocks, dtype=np.uint64)
    lo, hi, t, u = np.empty((4, 2, blocks), np.uint64)
    for k in _round_keys(key):
        np.bitwise_and(x, _LO32, out=lo)
        np.right_shift(x, _32, out=hi)
        np.multiply(_MULT_LO, lo, out=t)
        t >>= _32
        t += np.multiply(_MULT_LO, hi, out=u)   # < 2**64: no carry is lost
        np.bitwise_and(t, _LO32, out=u)
        lo *= _MULT_HI
        u += lo
        hi *= _MULT_HI
        t >>= _32
        hi += t
        u >>= _32
        hi += u
        np.multiply(_MULT, x, out=lo)
        np.bitwise_xor(hi[::-1], y, out=x)
        x ^= k
        y, lo = lo[::-1], y
    words = np.empty((blocks, 4), np.uint64)
    words[:, 0::2], words[:, 1::2] = x.T, y.T
    skip = first - 4 * block
    return words.reshape(-1)[skip:skip + count]


class NestedSampler:
    """Sequential uniform row source with a reproducible prefix property.

    Its whole state is the Philox key and the position of the next word.
    """

    def __init__(self, seed: int):
        self._key, self._position = int(seed) & _MASK64, 0

    def rows(self, n: int, width: int) -> np.ndarray:
        u = np.empty(n * width)
        for start in range(0, u.size, _WORDS):
            part = u[start:start + _WORDS]
            words = _philox_words(self._key, self._position + start, part.size)
            words >>= _11
            np.multiply(words, 2.0 ** -53, out=part)
        self._position += u.size
        # the normal quantile is infinite at 0; keep uniforms strictly inside (0, 1)
        return np.clip(u, 1e-15, 1.0 - 1e-15, out=u).reshape(n, width)


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


def _accepted(n: int, width: int, seed: int, draw) -> list:
    """The first ``n`` accepted candidates of the row stream of ``seed``.

    ``draw(rows)`` maps a chunk of rows, one candidate each, to a tuple of
    arrays aligned with the rows and the candidates' accept mask.  Returns
    those arrays' accepted rows, each written into an array of ``n`` rows
    allocated once, so the sample never exists twice.
    """
    sampler, out, got, run = NestedSampler(seed), None, 0, 0
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
                  seed: int) -> np.ndarray:
    """Draw n points from the domain, rejecting on its predicate (a
    sublevel set is a domain whose predicate reads h).  Raises
    DomainSamplingFailure after 1000 consecutive rejected candidates.
    """
    def draw(rows):
        X = points_from_rows(domain, dim, rows)
        return (X,), domain.predicate_mask(X)

    return _accepted(n, point_width(domain, dim), seed, draw)[0]


def sample_pairs(domain: DomainSpec, dim: int, pairs: int, n_lambdas: int,
                 seed: int):
    """Draw (x, y, lambda...) triples; both points must lie in the domain.

    Returns arrays X (pairs, dim), Y (pairs, dim), LAM (pairs, n_lambdas),
    the weights uniform on ]0, 1[.  One row of the stream covers one
    candidate triple, so rejection keeps the nested-prefix property.
    """
    w = point_width(domain, dim)

    def draw(rows):
        X = points_from_rows(domain, dim, rows[:, :w])
        Y = points_from_rows(domain, dim, rows[:, w:2 * w])
        keep = domain.predicate_mask(X) & domain.predicate_mask(Y)
        # a copy: a view would keep this chunk of rows alive into the next
        return (X, Y, rows[:, 2 * w:].copy()), keep

    return tuple(_accepted(pairs, 2 * w + n_lambdas, seed, draw))
