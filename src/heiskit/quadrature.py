"""Seeded randomised quasi-Monte-Carlo integration over metric balls.

Determinism contract: every estimate is a pure function of (region, integrand,
SampleConfig).  Every uniform draw of the package comes from one lattice
map, _lattice_map: R >= 32 rank-1 lattices of N points in the unit square
or cube (R >= 256 on surfaces), each moved by its own random shift and
folded by the baker's map (Cranley and Patterson 1976; Hickernell 2002).
Chunks pack whole lattices, chunk i drawing its shifts from a stream
seeded by (seed, i), and the caller's function of each chunk is returned
in chunk order.  Running chunks in parallel therefore reproduces the serial
result bit for bit; the worker count comes from the HEISKIT_WORKERS
environment variable (default 1).  The lattice map runs integrate_ball, the
gap pass of oscillation, domains.surface_sample and the shell samples of
riesz.testing_scan.  The metric ball is the one volume sampler, mapped from
3-D lattices in cylinder coordinates (_ball_points); where the gap pass
reads only (x, y) it maps 2-D lattices onto the ball's disc alone
(_disc_points).  Each chunk reduces its draws to one mean per lattice, and
one function, _lattice_estimate, turns the R lattice means into every
estimate of the package: their mean, with their spread as its stderr
(_masked_estimate forms the means where only some draws are kept).
"""

from __future__ import annotations

import math
import os
from concurrent import futures
from dataclasses import dataclass, replace
from typing import Callable

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
    lattices (of single points when few are drawn).  value is the mean of
    the n lattice means and stderr their sample standard deviation divided
    by sqrt(n), both times the volume normalisation (see
    _lattice_estimate).  value and stderr may also be arrays of
    per-component estimates sharing one n, as in the profile that
    oscillation.perimeter_profile returns.
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


def _lattice_map(d: int, shape: tuple[int, int], seed: int, fn: Callable[[np.ndarray, int], object]) -> list:
    """fn(u, first) for every chunk of R randomly shifted, folded rank-1
    lattices of N points in the unit cube [0, 1]^d, shape = (R, N) of
    _lattice_shape, in chunk order.

    The base lattice is {j z / N mod 1 : j < N}: the Fibonacci lattice
    z = (1, F_(k-1)) for d = 2, the Korobov lattice z = (1, a, a^2 mod N)
    of _KOROBOV for d = 3.  Each lattice is shifted mod 1 by its own
    uniform draw and folded by the baker's map u -> 1 - |2u - 1|, which
    keeps every point uniform (Cranley and Patterson 1976; Hickernell
    2002).  A chunk packs CHUNK // N whole lattices: u holds their
    (d, count, N) coordinates and first is the index of its first lattice.
    Its shifts are drawn from (seed, chunk), and the chunks run on a pool of
    HEISKIT_WORKERS threads, so the list does not depend on the worker count.
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

    def chunk(first: int) -> np.ndarray:
        u = lattice + np.random.default_rng([seed, first // per]).random((d, min(per, reps - first), 1))
        # the fold of u mod 1 is twice the distance from u to the nearest
        # integer, which skips the costly float modulo
        u -= np.rint(u)
        np.abs(u, out=u)
        u *= 2.0
        return u

    def one(first: int):
        return fn(chunk(first), first)  # fn holds the one reference, so it may free the chunk

    firsts = range(0, reps, per)
    workers = _workers()
    if workers > 1 and len(firsts) > 1:
        with futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, firsts))
    return [one(first) for first in firsts]


def _ball_points(u: np.ndarray, ball: Ball) -> np.ndarray:
    """The (count, N, 3) uniform points of the ball that a (3, count, N)
    chunk of _lattice_map maps to, in cylinder coordinates; u is reused.

    The ball B(0, r) is the cylinder {|z| <= r} x {|t| <= r^2/4}: the first
    two coordinates map to the disc (see _disc) and the third to t.  Left
    translations have unit Jacobian, so translating a uniform sample of
    B(0, r) by the center yields a uniform sample of B(center, r).
    """
    _disc(u, ball.radius)
    u[2] -= 0.5
    u[2] *= 0.5 * ball.radius**2
    return mul(ball.center, np.moveaxis(u, 0, -1))


def _disc_points(u: np.ndarray, ball: Ball) -> np.ndarray:
    """The (count, N, 2) points uniform on the ball's disc that a (2, count, N)
    chunk of _lattice_map maps to (see _disc); u is reused.

    They are the (x, y) of uniform points of the ball, since a left
    translation moves (x, y) by the center's (x, y).
    """
    _disc(u, ball.radius)
    u[0] += ball.center[0]
    u[1] += ball.center[1]
    return np.moveaxis(u, 0, -1)


def _moments(vals: np.ndarray) -> tuple:
    """(mean, M2, n) of the n values along the last axis of vals.

    M2 is the sum of squared deviations |v - mean|^2, so vals may be real or
    complex; a leading axis of components gets one mean and one M2 each.
    """
    n = vals.shape[-1]
    mean = vals.sum(axis=-1) / n
    dev = vals - np.expand_dims(mean, -1)
    if np.iscomplexobj(dev):
        dev = dev.view(float)  # interleaved real and imaginary parts
    dev *= dev
    return mean, dev.sum(axis=-1), n


def _lattice_estimate(means: np.ndarray, scale: float, ref: float = 0.0) -> Estimate:
    """scale * (ref + the mean of the R lattice means along the last axis of
    means, which are taken about ref), with the stderr of their spread.

    Taking the means about a value of the draws, such as the first, keeps
    their rounding at the scale of the spread rather than of the values, so
    adding a constant to the integrand does not move the stderr.  means may
    be real or complex with a leading axis of components (see _moments);
    one lattice has stderr 0.
    """
    mean, m2, reps = _moments(means)
    return Estimate(scale * (ref + mean), scale * np.sqrt(m2 / max(reps - 1, 1) / reps), reps)


def _masked_estimate(vals: np.ndarray, rep: np.ndarray, shape: tuple[int, int], scale: float) -> Estimate:
    """scale times the mean of R lattice means of N draws, shape = (R, N),
    with the stderr of their spread, from the kept draws alone.

    The last axis of vals holds the kept draws in draw order and rep the
    lattice of each, so rep does not decrease; every other draw counts as
    a zero of its lattice.
    """
    reps, size = shape
    means = np.zeros(vals.shape[:-1] + (reps,), dtype=vals.dtype)
    starts = np.flatnonzero(np.diff(rep, prepend=-1))  # the first kept draw of each lattice
    means[..., rep[starts]] = np.add.reduceat(vals, starts, axis=-1) / size
    return _lattice_estimate(means, scale)


def integrate_ball(f: Callable[[np.ndarray], np.ndarray], ball: Ball, cfg: SampleConfig) -> Estimate:
    """Estimate of the Lebesgue integral of f over the ball.

    f must be bounded on the ball and vectorised: it receives an (m, 3)
    array of points and returns (m,) real values.  Normalisation uses the
    exact volume (pi/2) r^4; the stderr is the spread of the R lattice
    means, each taken about the first value of its chunk.  Non-finite
    integrand values abort with the offending point.
    """

    def means(u: np.ndarray, first: int) -> tuple:
        pts = _ball_points(u, ball)
        del u  # so the integrand's temporaries may reuse its memory
        flat = pts.reshape(-1, 3)
        vals = np.asarray(f(flat), dtype=float)
        if vals.shape != (len(flat),):
            raise ValueError("integrand must map (m, 3) points to (m,) values")
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmax(~np.isfinite(vals)))
            raise NonFiniteIntegrandError(flat[bad], float(vals[bad]))
        return vals[0], (vals - vals[0]).reshape(pts.shape[:2]).mean(axis=-1)

    # each chunk's lattice means about its first value, moved to the first chunk's
    parts = _lattice_map(3, _lattice_shape(3, cfg.n, _BALL_REPS), cfg.seed, means)
    ref = parts[0][0]
    return _lattice_estimate(np.concatenate([m + (r - ref) for r, m in parts]), ball.volume, ref)
