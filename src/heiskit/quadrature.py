"""Seeded Monte-Carlo integration over metric balls.

Determinism contract: every estimate is a pure function of (region, integrand,
SampleConfig).  Samples are generated in fixed-size chunks, chunk i drawing
from an independent stream seeded by (seed, i), and partial results are
reduced in chunk order.  Running chunks in parallel therefore reproduces the
serial result bit for bit; the worker count comes from the HEISKIT_WORKERS
environment variable (default 1).  One chunk map owns that thread pool; it
runs integrate_ball, the gap pass of oscillation and domains.surface_sample.
The metric ball is the one volume sampler.  Where the gap pass reads only
(x, y) it draws the ball's disc alone: the first two of each node's three
draws, so that stream agrees with the ball's in (x, y) bit for bit.  Every
mean and stderr in the package comes from one accumulator: _moments,
_merge_moments and _estimate_from_moments.
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

    stderr is the sample standard deviation of the integrand divided by
    sqrt(n), times the volume normalisation.  value and stderr may also be
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


def _mc_chunks(n: int) -> list[tuple[int, int]]:
    """(chunk index, chunk size) pairs covering n samples."""
    return [(i, min(CHUNK, n - i * CHUNK)) for i in range(-(-n // CHUNK))]


def _disc_chunk(rng: np.random.Generator, m: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of m points uniform w.r.t. area on the disc |z| <= radius.

    Polar coordinates: radius r*sqrt(u) makes the areal density uniform.
    These are the first two of the cylinder's three draws.
    """
    u = rng.random(m)
    ang = rng.random(m) * (2.0 * math.pi)
    rad = radius * np.sqrt(u)
    return rad * np.cos(ang), rad * np.sin(ang)


def _cylinder_chunk(rng: np.random.Generator, m: int, radius: float) -> np.ndarray:
    """m points uniform w.r.t. Lebesgue measure on B(0, radius).

    The ball is the cylinder {|z| <= r} x {|t| <= r^2/4}, so no rejection is
    needed: draw the disc part (see _disc_chunk) and the t part uniformly on
    the slab.  Draw order (u, angle, t) is fixed; changing it would silently
    change every seeded result.
    """
    x, y = _disc_chunk(rng, m, radius)
    tt = (rng.random(m) - 0.5) * (0.5 * radius**2)
    return np.stack((x, y, tt), axis=-1)


# (make_chunk, chunks): make_chunk(i, size) builds the nodes of chunk i
_Chunks = tuple[Callable[[int, int], np.ndarray], list[tuple[int, int]]]


def _map_chunks(make_chunk: Callable[[int, int], object], chunks: list[tuple[int, int]], fn: Callable) -> list:
    """fn(make_chunk(i, size)) for every chunk, in chunk order.

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
    """(make_chunk, chunks) of the ball's nodes, left-translated to its center.

    Left translations have unit Jacobian, so translating a uniform sample of
    B(0, r) by the center yields a uniform sample of B(center, r).
    """

    def make(i: int, size: int) -> np.ndarray:
        return mul(ball.center, _cylinder_chunk(np.random.default_rng([cfg.seed, i]), size, ball.radius))

    return make, _mc_chunks(cfg.n)


def _disc_chunks(ball: Ball, cfg: SampleConfig) -> _Chunks:
    """(make_chunk, chunks) of the (x, y) of the ball's nodes, as (m, 2) arrays.

    The same stream as _ball_chunks without its t draws: a left translation
    moves (x, y) by the center's (x, y), exactly as mul adds them.
    """
    cx, cy = ball.center[0], ball.center[1]

    def make(i: int, size: int) -> np.ndarray:
        x, y = _disc_chunk(np.random.default_rng([cfg.seed, i]), size, ball.radius)
        return np.stack((cx + x, cy + y), axis=-1)

    return make, _mc_chunks(cfg.n)


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


def _reduce_uniform(
    make_chunk: Callable[[int, int], np.ndarray],
    chunks: list[tuple[int, int]],
    f: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, float, int]:
    """(mean, M2, n) of f over the chunks, merged by :func:`_merge_moments`."""

    def moments(pts: np.ndarray) -> tuple[float, float, int]:
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape != (len(pts),):
            raise ValueError("integrand must map (m, 3) points to (m,) values")
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmax(~np.isfinite(vals)))
            raise NonFiniteIntegrandError(pts[bad], float(vals[bad]))
        return _moments(vals)

    return _merge_moments(_map_chunks(make_chunk, chunks, moments))


def _merge_moments(parts: list[tuple]) -> tuple:
    """Merge per-chunk (mean, M2, n) in list order into one (mean, M2, n).

    The pairwise update of Chan, Golub and LeVeque does not cancel when the
    mean is large against the spread; means and M2 may be arrays of
    per-component moments sharing one n.
    """
    mean, m2, n = parts[0]
    for pmean, pm2, pn in parts[1:]:
        delta = pmean - mean
        total = n + pn
        mean = mean + delta * pn / total
        m2 = m2 + pm2 + delta * delta * n * pn / total
        n = total
    return mean, m2, n


def _estimate_from_moments(mean, m2, n: int, volume: float) -> Estimate:
    """volume * mean with stderr volume * sqrt(M2 / (n - 1) / n); one value has M2 = 0."""
    return Estimate(volume * mean, volume * np.sqrt(m2 / max(n - 1, 1) / n), n)


def integrate_ball(f: Callable[[np.ndarray], np.ndarray], ball: Ball, cfg: SampleConfig) -> Estimate:
    """Estimate of the Lebesgue integral of f over the ball.

    f must be bounded on the ball and vectorised: it receives an (m, 3)
    array of points and returns (m,) real values.  Normalisation uses the
    exact volume (pi/2) r^4.  Non-finite integrand values abort with the
    offending point.
    """
    return _estimate_from_moments(*_reduce_uniform(*_ball_chunks(ball, cfg), f), ball.volume)
