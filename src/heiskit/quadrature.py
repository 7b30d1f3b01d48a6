"""Seeded Monte-Carlo and stratified-grid integration over metric balls and boxes.

Determinism contract: every estimate is a pure function of (region, integrand,
SampleConfig).  Samples are generated in fixed-size chunks, chunk i drawing
from an independent stream seeded by (seed, i), and partial results are
reduced in chunk order.  Running chunks in parallel therefore reproduces the
serial result bit for bit; the worker count comes from the HEISKIT_WORKERS
environment variable (default 1).  One chunk map owns that thread pool; it
runs integrate_ball, integrate_box, oscillation.osc,
oscillation.perimeter_profile and domains.surface_sample.
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
    "integrate_box",
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

    n:      requested sample count (>= 1); stratified-grid mode rounds up
            to the nearest cube.
    seed:   non-negative integer; fully determines the node stream.
    method: "monte-carlo" or "stratified-grid".
    """

    n: int = 200_000
    seed: int = 0
    method: str = "monte-carlo"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sample count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.method not in ("monte-carlo", "stratified-grid"):
            raise ValueError(f"unknown sampling method {self.method!r}")

    def child(self, k: int) -> "SampleConfig":
        """Independent sub-stream config for the k-th nested estimate."""
        return replace(self, seed=_mix(self.seed, k))


@dataclass(frozen=True)
class Estimate:
    """A numerical integral with its statistical error.

    stderr is sample standard deviation of the integrand divided by sqrt(n)
    (times the volume normalisation) in monte-carlo mode, and 0 for
    deterministic grid evaluations.
    """

    value: float
    stderr: float
    n: int

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValueError("stderr must be >= 0")


def _workers() -> int:
    try:
        return max(1, int(os.environ.get("HEISKIT_WORKERS", "1")))
    except ValueError:
        return 1


def _mc_chunks(n: int) -> list[tuple[int, int]]:
    """(chunk index, chunk size) pairs covering n samples."""
    out = []
    i = 0
    remaining = n
    while remaining > 0:
        size = min(CHUNK, remaining)
        out.append((i, size))
        remaining -= size
        i += 1
    return out


def _cylinder_chunk(rng: np.random.Generator, m: int, radius: float) -> np.ndarray:
    """m points uniform w.r.t. Lebesgue measure on B(0, radius).

    The ball is the cylinder {|z| <= r} x {|t| <= r^2/4}, so no rejection is
    needed: draw the disc part in polar coordinates (radius r*sqrt(u) makes
    the areal density uniform) and the t part uniformly on the slab.   Draw
    order (u, angle, t) is fixed; changing it would silently change every
    seeded result.
    """
    u = rng.random(m)
    ang = rng.random(m) * (2.0 * math.pi)
    tt = (rng.random(m) - 0.5) * (0.5 * radius**2)
    rad = radius * np.sqrt(u)
    return np.stack((rad * np.cos(ang), rad * np.sin(ang), tt), axis=-1)


def _grid_axes(n: int) -> int:
    return max(1, math.ceil(round(n ** (1.0 / 3.0), 9)))


def _cylinder_grid(k: int, radius: float) -> np.ndarray:
    """Midpoint grid with k^3 nodes, equidistributed in ball measure.

    The map (u, a, v) -> (r sqrt(u) cos a, r sqrt(u) sin a, v) pushes the
    uniform measure on [0,1] x [0,2pi] x [-r^2/4, r^2/4] to the uniform
    measure on the cylinder, so equal box cells get equal ball measure.
    """
    mid = (np.arange(k) + 0.5) / k
    u, a, v = np.meshgrid(mid, mid * 2.0 * math.pi, (mid - 0.5) * 0.5 * radius**2, indexing="ij")
    rad = radius * np.sqrt(u.ravel())
    return np.stack((rad * np.cos(a.ravel()), rad * np.sin(a.ravel()), v.ravel()), axis=-1)


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


def _grid_chunks(grid: np.ndarray) -> _Chunks:
    """(make_chunk, chunks) slicing a precomputed node grid."""
    return (lambda i, size: grid[i * CHUNK : i * CHUNK + size]), _mc_chunks(len(grid))


def _ball_chunks(ball: Ball, cfg: SampleConfig) -> _Chunks:
    """(make_chunk, chunks) of the ball's nodes, left-translated to its center.

    Left translations have unit Jacobian, so translating a uniform sample of
    B(0, r) by the center yields a uniform sample of B(center, r).
    """
    if cfg.method == "stratified-grid":
        local, chunks = _grid_chunks(_cylinder_grid(_grid_axes(cfg.n), ball.radius))
    else:
        def local(i: int, size: int) -> np.ndarray:
            return _cylinder_chunk(np.random.default_rng([cfg.seed, i]), size, ball.radius)

        chunks = _mc_chunks(cfg.n)
    return (lambda i, size: mul(ball.center, local(i, size))), chunks


def _box_chunks(lo: np.ndarray, span: np.ndarray, cfg: SampleConfig) -> _Chunks:
    """(make_chunk, chunks) of uniform nodes in the box lo + [0, span]."""
    if cfg.method == "stratified-grid":
        k = _grid_axes(cfg.n)
        mid = (np.arange(k) + 0.5) / k
        g = np.stack([m.ravel() for m in np.meshgrid(mid, mid, mid, indexing="ij")], axis=-1)
        return _grid_chunks(lo + g * span)

    def make(i: int, size: int) -> np.ndarray:
        rng = np.random.default_rng([cfg.seed, i])
        return lo + rng.random((size, 3)) * span

    return make, _mc_chunks(cfg.n)


def _moments(vals: np.ndarray) -> tuple[float, float, int]:
    """(mean, M2, n) of one array, M2 being the sum of squared deviations."""
    mean = float(vals.mean())
    dev = vals - mean
    dev *= dev
    return mean, float(dev.sum()), len(vals)


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


def _estimate_from_moments(mean: float, m2: float, n: int, volume: float, deterministic: bool) -> Estimate:
    if deterministic or n < 2:
        return Estimate(volume * mean, 0.0, n)
    return Estimate(volume * mean, volume * math.sqrt(m2 / (n - 1) / n), n)


def integrate_ball(f: Callable[[np.ndarray], np.ndarray], ball: Ball, cfg: SampleConfig) -> Estimate:
    """Estimate of the Lebesgue integral of f over the ball.

    f must be bounded on the ball and vectorised: it receives an (m, 3)
    array of points and returns (m,) real values.  Normalisation uses the
    exact volume (pi/2) r^4.  Non-finite integrand values abort with the
    offending point.
    """
    deterministic = cfg.method == "stratified-grid"
    return _estimate_from_moments(*_reduce_uniform(*_ball_chunks(ball, cfg), f), ball.volume, deterministic)


def integrate_box(
    f: Callable[[np.ndarray], np.ndarray],
    bounds: tuple[tuple[float, float], tuple[float, float], tuple[float, float]],
    cfg: SampleConfig,
) -> Estimate:
    """Estimate of the integral of f over a coordinate box.

    bounds is ((x0, x1), (y0, y1), (t0, t1)).
    """
    (x0, x1), (y0, y1), (t0, t1) = [(float(a), float(b)) for a, b in bounds]
    if not (x0 < x1 and y0 < y1 and t0 < t1):
        raise ValueError("box bounds must be increasing in every coordinate")
    lo = np.array([x0, y0, t0])
    span = np.array([x1 - x0, y1 - y0, t1 - t0])
    volume = float(np.prod(span))
    deterministic = cfg.method == "stratified-grid"
    return _estimate_from_moments(*_reduce_uniform(*_box_chunks(lo, span, cfg), f), volume, deterministic)
