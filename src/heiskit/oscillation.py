"""Vertical perimeter, vertical oscillation, and derived scale functionals.

The vertical perimeter of a set Omega relative to a window U at scale s is
the Lebesgue measure, within U, of the points whose membership in Omega
changes under the vertical shift p -> p * (0, 0, s^2).  The oscillation
coefficient of a ball averages the perimeter over shift scales s in (0, r]
and normalises by r^4, which makes it invariant under left translations and
dilations of the whole configuration.  The average is one rule throughout:
the midpoint rule on _S_NODES = 16 nodes in s, so osc, perimeter_profile,
dini_integral and every experiment give one number per (ball, cfg).  One
pass over a ball sample yields the gap moments at every node and at their
per-point average; perimeter_profile is the one entry point to it and
returns the profile with osc, which osc and the osc-scan experiment read.
vertical_perimeter reads the same pass at a single node.

The pass takes one of two paths, chosen by the domain.  A domain with a
crossing (every built-in family, see domains) crosses each vertical line at
most once, at t = T, so the gap at shift s is 1 on the line exactly for t in
[T - s^2, T): each sample point contributes the exact mean of its gap over
the ball's vertical fibre through it, and no indicator is evaluated.  This
conditions the t coordinate away: the pass draws only the (x, y) of the
ball's nodes, the estimand is the same and the variance smaller.  It draws
them as R >= 32 independently shifted and folded Fibonacci lattices (see
quadrature), and each estimate is the mean of the R lattice means with the
stderr of their spread; where every fibre gives the same number (a slab and
a ball centred on the t-axis) that stderr is 0.  It means the 16-node sum
is exact up to rounding, not the s-average: on the slab that sum is 5.1e-4
below the integral pi/6 (the exact s-average is ROADMAP direction 1).  Any
other oracle takes the sampled path, which draws the full ball sample, as
3-D lattices, and evaluates the indicator at every point and every shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import Ball, as_points
from .quadrature import Estimate, SampleConfig, _ball_chunks, _disc_chunks, _estimate_from_moments
from .quadrature import _map_chunks, _merge_moments, _replicate_moments

__all__ = [
    "ScaleGrid",
    "vertical_perimeter",
    "perimeter_profile",
    "osc",
    "LpPerimeter",
    "lp_vertical_perimeter",
    "DiniProfile",
    "dini_integral",
]

# midpoint nodes in s of the oscillation coefficient's average
_S_NODES = 16


@dataclass(frozen=True)
class ScaleGrid:
    """Geometric grid s_k = s_min * 2^(k / per_octave), truncated at s_max.

    Discretises logarithmic integrals ds/s and dr/r with node weight
    log(2)/per_octave.
    """

    s_min: float
    s_max: float
    per_octave: int = 4

    def __post_init__(self):
        if not (0.0 < self.s_min < self.s_max < math.inf):
            raise ValueError("scale grid needs 0 < s_min < s_max < inf")
        if self.per_octave < 1:
            raise ValueError("per_octave must be >= 1")

    def scales(self) -> np.ndarray:
        n = int(math.floor(self.per_octave * math.log2(self.s_max / self.s_min) + 1e-9)) + 1
        return self.s_min * 2.0 ** (np.arange(n) / self.per_octave)

    @property
    def dlog(self) -> float:
        return math.log(2.0) / self.per_octave


def _gaps(omega, ball: Ball, pts: np.ndarray, mids) -> Iterator[np.ndarray]:
    """|chi(p) - chi(p * (0, 0, s^2))| at the ball's sample points, for each
    node s in turn; with a crossing, its mean over each point's fibre, read
    from the points' (x, y) alone (pts may then be (..., 2))."""
    crossing = getattr(omega, "crossing", None)
    if crossing is None:
        base = omega.indicator(pts)
        for s in mids:
            # p * (0, 0, s^2) = (x, y, t + s^2): right translation by a vertical
            # element is a plain Euclidean shift in t.
            shifted = pts.copy()
            shifted[..., 2] += s * s
            yield np.abs(base - omega.indicator(shifted))
        return
    # B(c, r) = c * B(0, r), so its fibre over (x, y) is [t_c - r^2/4,
    # t_c + r^2/4] with t_c = c_t + (c_x y - x c_y)/2; the gap is 1 on it
    # exactly for t in [T - s^2, T).
    # in place where an array is not read again, which bounds the pool
    # threads' memory and keeps every bit of the plain expressions
    x, y = pts[..., 0], pts[..., 1]
    cx, cy, ct = ball.center
    tc = cx * y
    tc -= x * cy
    tc *= 0.5
    tc += ct
    length = 0.5 * ball.radius**2
    cross = crossing(x, y)
    lo = tc - 0.5 * length
    tc += 0.5 * length
    hi = np.minimum(cross, tc, out=tc)
    for s in mids:
        gap = cross - s * s
        np.maximum(gap, lo, out=gap)
        np.subtract(hi, gap, out=gap)
        np.maximum(0.0, gap, out=gap)
        gap /= length
        yield gap


def _perimeters(omega, ball: Ball, nodes, cfg: SampleConfig) -> Estimate:
    """v(ball)(s) at every node s and, last, their average over the nodes,
    as arrays of correlated estimates from one pass over one ball sample of
    shifted lattices; a domain with a crossing draws only the sample's
    (x, y).  Each chunk's leading axis holds its lattices, and the moments
    are those of one mean per lattice.  The gaps lie in [0, 1], so the
    means are taken about 0."""
    sample = _ball_chunks if getattr(omega, "crossing", None) is None else _disc_chunks

    def moments(pts):
        shape = pts.shape[:2]
        parts, total = [], 0
        for d in _gaps(omega, ball, pts, nodes):
            parts.append(_replicate_moments(d.ravel(), shape))
            total += d
        means, m2s, reps, _ = zip(*parts, _replicate_moments((total / len(nodes)).ravel(), shape))
        return np.array(means), np.array(m2s), reps[0], 0.0

    return _estimate_from_moments(*_merge_moments(_map_chunks(*sample(ball, cfg), moments)), ball.volume)


def vertical_perimeter(omega, window: Ball, s: float, cfg: SampleConfig) -> Estimate:
    """Measure in the window of {chi(p) != chi(p * (0, 0, s^2))}.

    The value lies in [0, vol(window)]; it vanishes identically for sets
    that are unions of vertical lines.
    """
    if s <= 0.0:
        raise ValueError("shift scale must be positive")
    est = _perimeters(omega, window, (s,), cfg)
    return Estimate(float(est.value[0]), float(est.stderr[0]), est.n)


def perimeter_profile(omega, ball: Ball, cfg: SampleConfig) -> tuple[np.ndarray, Estimate, Estimate]:
    """Per-scale perimeter v(ball)(s_j) / r^4 at the _S_NODES midpoint nodes
    s_j in (0, r], and the oscillation coefficient, their average.

    One shared point sample serves every node and the average, so the
    entries are correlated but each carries its own Monte-Carlo stderr; the
    average's is that of the node average over the sample's replicates.
    Returns (the nodes, the profile with array value and stderr, osc).
    """
    r = ball.radius
    mids = (np.arange(_S_NODES) + 0.5) * (r / _S_NODES)
    est = _perimeters(omega, ball, mids, cfg)
    value, stderr = est.value / r**4, est.stderr / r**4
    return mids, Estimate(value[:-1], stderr[:-1], est.n), Estimate(float(value[-1]), float(stderr[-1]), est.n)


def osc(omega, ball: Ball, cfg: SampleConfig) -> Estimate:
    """Oscillation coefficient: average over s in (0, r] of v(ball)(s)/r^4.

    The average is the _S_NODES-node midpoint rule in s of perimeter_profile
    (the perimeter is bounded and continuous in s for indicator oracles);
    the stderr is that of the node average and leaves out the rule's bias,
    so a stderr of 0 means the node sum is exact up to rounding.  The
    estimate is bounded by pi/2 by construction, since the integrand never
    exceeds the unit indicator difference.
    """
    return perimeter_profile(omega, ball, cfg)[2]


@dataclass(frozen=True)
class LpPerimeter:
    """Grid value of the L^p vertical perimeter plus its coarse tail bound.

    value approximates ( integral over [s_min, s_max] of (v(s)/s)^p ds/s )^(1/p);
    tail_bound bounds the missing s > s_max part using v <= vol(window).
    Per-scale perimeters (independent sub-streams per scale) are kept for
    cross-checks.
    """

    value: float
    stderr: float
    n: int
    tail_bound: float
    scales: np.ndarray
    v_values: np.ndarray


def lp_vertical_perimeter(
    omega, window: Ball, p_exp: float, grid: ScaleGrid, cfg: SampleConfig
) -> LpPerimeter:
    """Discretised L^p norm (in ds/s) of s -> v(window)(s)/s over the grid."""
    p_exp = float(p_exp)
    if p_exp < 1.0:
        raise ValueError("p exponent must be >= 1")
    scales = grid.scales()
    ests = [vertical_perimeter(omega, window, s, cfg.child(k)) for k, s in enumerate(scales)]
    vals, errs = np.array([e.value for e in ests]), np.array([e.stderr for e in ests])
    ratios = vals / scales
    total = float(np.sum(ratios**p_exp) * grid.dlog)
    value = total ** (1.0 / p_exp)
    # First-order error propagation through the p-norm; the per-scale
    # estimates use independent sub-streams, so add in quadrature.
    if value > 0.0:
        grads = value ** (1.0 - p_exp) * ratios ** (p_exp - 1.0) * grid.dlog / scales
        stderr = float(np.sqrt(np.sum((grads * errs) ** 2)))
    else:
        stderr = float(np.sqrt(np.sum((errs / scales) ** 2)) * grid.dlog ** (1.0 / p_exp))
    tail = window.volume * (grid.s_max ** -1.0) * p_exp ** (-1.0 / p_exp)
    return LpPerimeter(
        value=value,
        stderr=stderr,
        n=int(cfg.n) * len(scales),
        tail_bound=tail,
        scales=scales,
        v_values=vals,
    )


@dataclass(frozen=True)
class DiniProfile:
    """Truncated logarithmic integral of the oscillation over ball radii.

    replicates is the R behind each radius's osc stderr (see Estimate.n).
    """

    value: float
    stderr: float
    radii: np.ndarray
    osc_values: np.ndarray
    osc_stderrs: np.ndarray
    dlog: float
    replicates: int

    def log_profile(self) -> list[tuple[float, float]]:
        """(log r, log osc) pairs, dropping non-positive entries."""
        return [(math.log(r), math.log(v)) for r, v in zip(self.radii, self.osc_values) if v > 0.0]


def dini_integral(omega, p0, grid: ScaleGrid, cfg: SampleConfig) -> DiniProfile:
    """Geometric-grid sum of osc(B(p0, r_k)) * dlog r, with the profile kept;
    osc at radius r_k reads the sub-stream cfg.child(k).

    The profile is what decay-slope fits consume; the sum itself is the
    truncated version of the logarithmic Dini integral and is monotone
    nondecreasing in the grid span since every term is nonnegative.
    """
    p0 = as_points(p0)
    radii = grid.scales()
    ests = [osc(omega, Ball(p0, r), cfg.child(k)) for k, r in enumerate(radii)]
    vals, errs = np.array([e.value for e in ests]), np.array([e.stderr for e in ests])
    total = float(np.sum(vals) * grid.dlog)
    stderr = float(np.sqrt(np.sum(errs**2)) * grid.dlog)
    return DiniProfile(total, stderr, radii, vals, errs, grid.dlog, ests[0].n)
