"""Seeded randomised quasi-Monte-Carlo integration over metric balls.

Determinism contract: every estimate is a pure function of (region, integrand,
SampleConfig).  Every uniform draw of the package comes from one lattice
engine, _lattice_chunks: R >= 32 rank-1 lattices of N points in the unit
square or cube (R >= 256 on surfaces), each moved by its own random shift and folded by the
baker's map (Cranley and Patterson 1976; Hickernell 2002).  Chunks pack
whole lattices, chunk i drawing its shifts from a stream seeded by
(seed, i), and partial results are reduced in chunk order.  Running chunks
in parallel therefore reproduces the serial result bit for bit; the worker
count comes from the HEISKIT_WORKERS environment variable (default 1).  One
chunk map owns that thread pool; it runs integrate_ball, the gap pass of
oscillation, domains.surface_sample and the shell samples of
riesz.testing_scan.  The metric ball is the one volume sampler, mapped from
3-D lattices in cylinder coordinates; where the gap pass reads only (x, y)
it maps 2-D lattices onto the ball's disc alone.  An estimate is the mean
of the R lattice means, and its stderr is their spread.  Every mean and
stderr in the package comes from one replicate accumulator:
_replicate_moments and _merge_moments, or _masked_estimate where only
some draws are kept.
"""

from __future__ import annotations

import math
import os
from concurrent import futures
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import Ball, mul

__all__ = [
    "SampleConfig",
    "Estimate",
    "NonFiniteIntegrandError",
    "integrate_ball",
]

CHUNK = 1 << 16

# The multiplier a of the 3-D Korobov lattice {j (1, a, a^2) / N mod 1} for
# every Fibonacci N up to _KOROBOV_MAX: a minimises the figure of merit
# P2 = mean_j prod_k (1 + 2 pi^2 B2({j z_k / N})) - 1, B2(x) = x^2 - x + 1/6,
# over every a < N (Sloan and Joe 1994), the smallest a within 1e-12 of the
# minimum, since equivalent lattices such as those of a and N - a tie up to
# rounding.  tests/test_quadrature.py repeats the search.
_KOROBOV = {1: 0, 2: 1, 3: 1, 5: 2, 8: 2, 13: 2, 21: 3, 34: 12, 55: 19, 89: 23, 144: 22, 233: 33, 377: 32,
            610: 238, 987: 456, 1597: 477}
_KOROBOV_MAX = 1597

# The least lattice count of a ball sample.  A z-score on the stderr of R
# lattice means follows a t distribution with R - 1 degrees of freedom, and
# P(|t_31| > 6) = 1.2e-6.
_BALL_REPS = 32

_MASK63 = (1 << 63) - 1


def _mix(seed: int, k: int) -> int:
    """Derive a child stream seed from (seed, k); splitmix-style hash."""
    h = ((seed + 1) * 0x9E3779B97F4A7C15 + (k + 1) * 0xBF58476D1CE4E5B9) & _MASK63
    h ^= h >> 31
    return (h * 0x94D049BB133111EB) & _MASK63


class NonFiniteIntegrandError(ValueError):
    """Integrand returned nan/inf; carries a diagnostic point."""

    def __init__(self, point: np.ndarray, value: float):
        self.point = point
        self.value = value
        super().__init__(f"non-finite integrand value {value!r} at point {point.tolist()}")


@dataclass(frozen=True)
class SampleConfig:
    """How to draw integration nodes.

    n:    sample count (>= 1).
    seed: non-negative integer; fully determines the node stream.
    """

    n: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sample count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def child(self, k: int) -> "SampleConfig":
        """Independent sub-stream config for the k-th nested estimate."""
        return replace(self, seed=_mix(self.seed, k))


@dataclass(frozen=True)
class Estimate:
    """A numerical integral with its statistical error.

    n counts the independent replicates behind the estimate, the shifted
    lattices (of single points when few are drawn).  stderr is the
    sample standard deviation of the replicate means divided by sqrt(n),
    times the volume normalisation.  value and stderr may also be
    arrays of per-component estimates sharing one n, as in the profile
    that oscillation.perimeter_profile returns.
    """

    value: float
    stderr: float
    n: int

    def __post_init__(self):
        if np.any(np.less(self.stderr, 0.0)):
            raise ValueError("stderr must be >= 0")


def _workers() -> int:
    """The HEISKIT_WORKERS thread count: a positive integer, 1 when unset."""
    raw = os.environ.get("HEISKIT_WORKERS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"HEISKIT_WORKERS must be a positive integer, got {raw!r}")
    return int(raw)


# (make_chunk, chunks): make_chunk(first, count) builds the nodes of one chunk
_Chunks = tuple[Callable[[int, int], np.ndarray], list[tuple[int, int]]]


def _disc(u: np.ndarray, radius: float) -> None:
    """Map (u[0], u[1]) in the unit square, in place, to (x, y) on the disc |z| <= radius.

    Polar coordinates: radius r*sqrt(u) makes the areal density uniform, and
    v is the angle's fraction of a turn.
    """
    rad, ang = u[0], u[1]
    np.sqrt(rad, out=rad)
    rad *= radius
    ang *= 2.0 * math.pi
    x = np.cos(ang)
    x *= rad
    np.sin(ang, out=ang)
    ang *= rad
    rad[...] = x


def _fibonacci(limit: int) -> tuple[int, int]:
    """(F_k, F_(k-1)), F_k the largest Fibonacci number <= limit (1 when limit < 2)."""
    size, step = 1, 1
    while size + step <= limit:
        size, step = size + step, size
    return size, step


def _lattice_shape(d: int, n: int, reps: int) -> tuple[int, int]:
    """(R, N) of the lattices behind n draws in d = 2 or 3 dimensions.

    N is the largest Fibonacci number up to n // reps and up to CHUNK for
    d = 2 or _KOROBOV_MAX for d = 3, so R = n // N >= reps lattices (n of
    one point each when n < 2 reps).
    """
    size = _fibonacci(min(n // reps, CHUNK if d == 2 else _KOROBOV_MAX))[0]
    return n // size, size


def _lattice_chunks(d: int, shape: tuple[int, int], seed: int) -> _Chunks:
    """(make_chunk, chunks) of R randomly shifted, folded rank-1 lattices of
    N points in the unit cube [0, 1]^d, shape = (R, N) of _lattice_shape.

    The base lattice is {j z / N mod 1 : j < N}: the Fibonacci lattice
    z = (1, F_(k-1)) for d = 2, the Korobov lattice z = (1, a, a^2 mod N)
    of _KOROBOV for d = 3.  Each lattice is shifted mod 1 by its own
    uniform draw and folded by the baker's map u -> 1 - |2u - 1|, which
    keeps every point uniform (Cranley and Patterson 1976; Hickernell
    2002).  chunks are (first lattice, count) pairs, CHUNK // N lattices to
    a chunk; make_chunk(first, count) returns their (d, count, N)
    coordinates, the shifts drawn from (seed, chunk), so the bits do not
    depend on the worker count.
    """
    reps, size = shape
    if d == 2:
        gens = (1, _fibonacci(size)[1])
    else:
        a = _KOROBOV[size]
        gens = (1, a, a * a % size)
    j = np.arange(size)
    lattice = np.stack([j * z % size for z in gens])[:, None, :] / size
    per = CHUNK // size

    def make(first: int, count: int) -> np.ndarray:
        u = lattice + np.random.default_rng([seed, first // per]).random((d, count, 1))
        # the fold of u mod 1 is twice the distance from u to the nearest
        # integer, which skips the costly float modulo
        u -= np.rint(u)
        np.abs(u, out=u)
        u *= 2.0
        return u

    return make, [(first, min(per, reps - first)) for first in range(0, reps, per)]


def _map_chunks(make_chunk: Callable[[int, int], object], chunks: list[tuple[int, int]], fn: Callable) -> list:
    """fn(make_chunk(*chunk)) for every chunk, in chunk order.

    The chunks run on a pool of HEISKIT_WORKERS threads; each result depends
    on its own chunk only, so the list is the same for every worker count.
    """

    def one(job: tuple[int, int]):
        return fn(make_chunk(*job))

    workers = _workers()
    if workers > 1 and len(chunks) > 1:
        with futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, chunks))
    return [one(c) for c in chunks]


def _ball_chunks(ball: Ball, cfg: SampleConfig) -> _Chunks:
    """(make_chunk, chunks) of uniform points of the ball, as (lattices, N, 3)
    arrays of _BALL_REPS or more 3-D lattices (see _lattice_chunks) in
    cylinder coordinates.

    The ball B(0, r) is the cylinder {|z| <= r} x {|t| <= r^2/4}: the first
    two coordinates map to the disc (see _disc) and the third to t.  Left
    translations have unit Jacobian, so translating a uniform sample of
    B(0, r) by the center yields a uniform sample of B(center, r).
    """
    make_unit, chunks = _lattice_chunks(3, _lattice_shape(3, cfg.n, _BALL_REPS), cfg.seed)

    def make(first: int, count: int) -> np.ndarray:
        u = make_unit(first, count)
        _disc(u, ball.radius)
        u[2] -= 0.5
        u[2] *= 0.5 * ball.radius**2
        return mul(ball.center, np.moveaxis(u, 0, -1))

    return make, chunks


def _disc_chunks(ball: Ball, cfg: SampleConfig) -> _Chunks:
    """(make_chunk, chunks) of points uniform on the ball's disc, as
    (lattices, N, 2) arrays of _BALL_REPS or more 2-D lattices (see
    _lattice_chunks).

    Mapped by _disc, the R * N <= n points are (x, y) of uniform points of
    the ball, since a left translation moves (x, y) by the center's (x, y).
    """
    make_unit, chunks = _lattice_chunks(2, _lattice_shape(2, cfg.n, _BALL_REPS), cfg.seed)

    def make(first: int, count: int) -> np.ndarray:
        u = make_unit(first, count)
        _disc(u, ball.radius)
        u[0] += ball.center[0]
        u[1] += ball.center[1]
        return np.moveaxis(u, 0, -1)

    return make, chunks


def _moments(vals: np.ndarray, n: Optional[int] = None) -> tuple:
    """(mean, M2, n) of the values along the last axis of vals.

    M2 is the sum of squared deviations |v - mean|^2, so vals may be real or
    complex; a leading axis of components gets one mean and one M2 each.  A
    total count n >= vals.shape[-1] adds n - vals.shape[-1] values that are
    exactly zero, without forming them.
    """
    zeros = 0 if n is None else n - vals.shape[-1]
    n = vals.shape[-1] + zeros
    mean = vals.sum(axis=-1) / n
    dev = vals - np.expand_dims(mean, -1)
    if np.iscomplexobj(dev):
        dev = dev.view(float)  # interleaved real and imaginary parts
    dev *= dev
    return mean, dev.sum(axis=-1) + zeros * (mean.real**2 + mean.imag**2), n


def _replicate_moments(vals: np.ndarray, shape: tuple[int, int], ref: float = 0.0) -> tuple:
    """(mean, M2, R, ref): the moments about ref of the means of R replicates of N draws, shape = (R, N).

    The last axis of vals holds every draw, replicate by replicate.  Taking
    the means about a value of the draws, such as the first, keeps their
    rounding at the scale of the spread rather than of the values, so
    adding a constant to vals does not move M2.  vals may be real or
    complex and a leading axis of components gets one mean and one M2
    each, as in _moments; _merge_moments takes the tuples of several chunks.
    """
    return (*_moments((vals - ref).reshape(vals.shape[:-1] + shape).mean(axis=-1)), ref)


def _masked_estimate(vals: np.ndarray, rep: np.ndarray, shape: tuple[int, int], scale: float) -> Estimate:
    """scale times the mean of R replicate means of N draws, shape = (R, N),
    with the stderr of their spread, from the kept draws alone.

    The last axis of vals holds the kept draws in draw order and rep the
    replicate of each, so rep does not decrease; every other draw counts as
    a zero of its replicate.
    """
    reps, size = shape
    means = np.zeros(vals.shape[:-1] + (reps,), dtype=vals.dtype)
    starts = np.flatnonzero(np.diff(rep, prepend=-1))  # the first kept draw of each replicate
    means[..., rep[starts]] = np.add.reduceat(vals, starts, axis=-1) / size
    return _estimate_from_moments(*_moments(means), scale)


def _merge_moments(parts: list[tuple]) -> tuple:
    """Merge the (mean, M2, n, ref) of _replicate_moments, in list order, into one (mean, M2, n).

    The pairwise update of Chan, Golub and LeVeque does not cancel when the
    mean is large against the spread.  It works about the first part's
    reference, so ref_i - ref_0, the difference of two values of one
    integrand, is the only term that sees their magnitude.  Means and M2
    may be arrays of per-component moments sharing one n.
    """
    mean, m2, n, ref = parts[0]
    for pmean, pm2, pn, pref in parts[1:]:
        delta = (pmean - mean) + (pref - ref)
        total = n + pn
        mean = mean + delta * pn / total
        m2 = m2 + pm2 + delta * delta * n * pn / total
        n = total
    return ref + mean, m2, n


def _estimate_from_moments(mean, m2, n: int, volume: float) -> Estimate:
    """volume * mean with stderr volume * sqrt(M2 / (n - 1) / n); one value has M2 = 0."""
    return Estimate(volume * mean, volume * np.sqrt(m2 / max(n - 1, 1) / n), n)


def integrate_ball(f: Callable[[np.ndarray], np.ndarray], ball: Ball, cfg: SampleConfig) -> Estimate:
    """Estimate of the Lebesgue integral of f over the ball.

    f must be bounded on the ball and vectorised: it receives an (m, 3)
    array of points and returns (m,) real values.  Normalisation uses the
    exact volume (pi/2) r^4; the stderr is the spread of the R lattice
    means, each taken about the first value of its chunk.  Non-finite
    integrand values abort with the offending point.
    """

    def moments(pts: np.ndarray) -> tuple:
        flat = pts.reshape(-1, 3)
        vals = np.asarray(f(flat), dtype=float)
        if vals.shape != (len(flat),):
            raise ValueError("integrand must map (m, 3) points to (m,) values")
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmax(~np.isfinite(vals)))
            raise NonFiniteIntegrandError(flat[bad], float(vals[bad]))
        return _replicate_moments(vals, pts.shape[:2], ref=vals[0])

    return _estimate_from_moments(*_merge_moments(_map_chunks(*_ball_chunks(ball, cfg), moments)), ball.volume)
