"""Vertical beta numbers: best approximation of a set by vertical planes.

The metric distance from p = (x, y, t) to the vertical plane with normal
angle theta and offset c is |x cos(theta) + y sin(theta) - c|.  Rotations
about the t-axis and left translations are isometries that map vertical
planes to vertical planes, so it suffices that dist(p, W) = |x| for the
(y, t)-plane W.  For w = (0, b, c') in W, d(p, w) = box_norm(w^-1 * p) =
max(|(x, y - b)|, ...) >= |x|, with equality at b = y, c' = t + x y / 2,
where the t-part of w^-1 * p vanishes: p lies at parameter x on the
horizontal line s -> w * (s, 0, 0), an isometric copy of the real line.
So the distance depends only on the (x, y) part, and a plane fit is a
weighted fit of a line to the projected points.
p = inf and p = 2 are solved exactly: half the least width of the points,
attained across an edge of their convex hull (by quickhull) and found by
rotating calipers (Houle-Toussaint 1988), and the line through the
weighted mean along the least-variance direction.
Other p search 180 normal angles over [0, pi), the smallest angle winning
ties, then refine the best by golden-section search within one grid step;
per angle the offset is the weighted median min{v : W(a <= v) >= W/2} for
p = 1 and a golden-section search of the convex objective otherwise.  The
exact L^1 optimum, a line through two sample points (Martini-Schoebel
1998), costs O(m^2); the grid value is at or above it.
Only the value is meant for assertions, not which optimal plane wins.

The perimeter majorant and the Carleson scan share one loop over local
balls: 12 surface points q of a window and a ladder of radii r, each ball
B(q, scale r) with its own surface sample of samples // 50 points and a
coarse 60-angle beta_1 fit without refinement.  Every sample size comes
from the caller's SampleConfig: the window sample (and osc_beta_compare's)
draws n.  A local sample covers the ball's sheared parameter region
(domains.region_for_ball), of area 2 rho^3 (1 + pad)^2 wherever the ball
sits, so every local ball keeps 0.38 to 0.48 of its draws at the
benchmark's perimeter-beta and carleson settings (seed 1001): a median of
820 to 910 in-ball points at samples = 100,000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Ball, VerticalPlane, as_points
from .domains import IntrinsicGraph, WeightedSample, region_for_ball, surface_sample
from .oscillation import LpPerimeter, ScaleGrid, lp_vertical_perimeter, osc
from .quadrature import Estimate, SampleConfig

__all__ = [
    "BetaResult",
    "EmptyBallError",
    "beta_inf",
    "beta_p",
    "OscBetaComparison",
    "osc_beta_compare",
    "PerimeterBetaBound",
    "perimeter_beta_bound",
    "CarlesonScan",
    "carleson_scan",
]

# Comparison constant of the paper: a ball's oscillation and vertical
# perimeter are majorised by beta numbers of the ball enlarged by this factor.
_ENLARGEMENT = 24.0

# Plane fits decimate larger in-ball samples to this many points.
_MAX_FIT_POINTS = 30_000

# Grid angles of beta_p's search, which refines the best, and of the
# coarse search of the local-ball loop, which does not.
_ANGLES = 180
_COARSE_ANGLES = 60

# The local-ball loop: window points kept, and the divisor of the sample
# count that sizes each local sample (see the module docstring).
_N_OUTER = 12
_LOCAL_DIVISOR = 50

# Octaves of radii below the window radius in the Carleson scan.
_CARLESON_OCTAVES = 6


class EmptyBallError(ValueError):
    """A sample has no points inside the ball, so there is nothing to fit."""


@dataclass(frozen=True)
class BetaResult:
    value: float
    plane: VerticalPlane
    p_exp: float  # math.inf for the sup-based number
    n_in_ball: int  # sample points in the ball the plane was fitted to


def _in_ball(sample: WeightedSample, ball: Ball) -> tuple[np.ndarray, np.ndarray]:
    mask = sample.in_ball(ball)
    if not np.any(mask):
        raise EmptyBallError("no sample points in the ball")
    return sample.points[mask], sample.weights[mask]


def _outer_points(g: IntrinsicGraph, ball: Ball, n: int, seed: int):
    """About _N_OUTER in-ball points of a surface sample, by a fixed stride,
    with weights scaled up to stand in for the whole in-ball population."""
    sample = surface_sample(g, region_for_ball(ball), n, seed=seed)
    idx = np.flatnonzero(sample.in_ball(ball))
    if len(idx) == 0:
        raise EmptyBallError("no surface points in the window")
    sel = idx[:: max(1, len(idx) // _N_OUTER)][:_N_OUTER]
    return sample.points[sel], sample.weights[sel] * (len(idx) / len(sel))


def _thin(points: np.ndarray, weights: np.ndarray, max_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight-preserving decimation by a fixed stride; unbiased and seed-free."""
    n = len(points)
    if n <= max_points:
        return points, weights
    stride = math.ceil(n / max_points)
    return points[::stride], weights[::stride] * (n / len(points[::stride]))


def _golden(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """(x, fn(x)) at the better inner point of a golden-section search on
    [lo, hi], once the bracket is narrower than tol; fn unimodal there."""
    r = (math.sqrt(5.0) - 1.0) / 2.0  # the inverse golden ratio
    c, d = hi - r * (hi - lo), lo + r * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > tol:
        if fc <= fd:  # a minimum lies in [lo, d]
            hi, d, fd = d, c, fc
            c = hi - r * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + r * (hi - lo)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def _offset_solve(a: np.ndarray, w: np.ndarray, p_exp: float) -> tuple[float, float]:
    """Best offset and the attained sum(w * |a - c|^p) for one direction.

    For p = 1 the offset is the weighted median min{v : W(a <= v) >= W/2}, a
    value, so the order a sort gives tied projections does not matter.
    """
    if p_exp == 1.0:
        order = np.argsort(a)
        cw = np.cumsum(w[order])
        c = float(a[order[min(int(np.searchsorted(cw, 0.5 * cw[-1])), len(a) - 1)]])
        return c, float(np.abs(a - c) @ w)
    lo, hi = float(a.min()), float(a.max())
    if lo == hi:
        return lo, 0.0
    return _golden(lambda c: float(np.sum(w * np.abs(a - c) ** p_exp)), lo, hi, 1e-10 * max(1.0, hi - lo))


def _direction_objective(z: np.ndarray, w: np.ndarray, theta: float, p_exp: float) -> tuple[float, float]:
    a = z[:, 0] * math.cos(theta) + z[:, 1] * math.sin(theta)
    return _offset_solve(a, w, p_exp)


def _plane_search(z: np.ndarray, w: np.ndarray, p_exp: float, coarse: bool) -> tuple[float, float, float]:
    """(theta, offset, raw objective) minimising the directional fit: the best
    of _ANGLES grid angles, refined, or of _COARSE_ANGLES when coarse."""
    m = _COARSE_ANGLES if coarse else _ANGLES
    thetas = np.arange(m) * (math.pi / m)
    objs = np.empty(m)
    offs = np.empty(m)
    for i, th in enumerate(thetas):
        offs[i], objs[i] = _direction_objective(z, w, th, p_exp)
    best = int(np.argmin(objs))  # first minimum: smallest-theta tie break
    theta, offset, obj = float(thetas[best]), float(offs[best]), float(objs[best])
    if not coarse:
        step = math.pi / m
        th, val = _golden(lambda th: _direction_objective(z, w, th, p_exp)[1], theta - step, theta + step, 1e-9)
        if val < obj:
            theta = th
            offset, obj = _direction_objective(z, w, theta, p_exp)
    return theta, offset, obj


def _unit(normal: np.ndarray) -> tuple[float, np.ndarray]:
    """The angle in [0, pi) of a normal's line, and that line's unit normal."""
    theta = math.atan2(normal[1], normal[0]) % math.pi
    return theta, np.array([math.cos(theta), math.sin(theta)])


def _l2_plane(z: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """(theta, offset, sum(w d^2)) of the weighted least-squares plane."""
    mean = w @ z / w.sum()
    d = z - mean
    theta, normal = _unit(np.linalg.eigh((d * w[:, None]).T @ d)[1][:, 0])  # eigenvalues ascend
    return theta, float(mean @ normal), float(w @ (d @ normal) ** 2)


def _hull(z: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of the points z, counter-clockwise from
    the lowest leftmost: two for a collinear set, one for coincident points.
    Quickhull: the farthest point f strictly right of a chord p -> q is a
    vertex, and p -> f and f -> q are split in turn, from a stack."""
    order = np.lexsort((z[:, 1], z[:, 0]))
    a, b = z[order[0]], z[order[-1]]
    stack, out = [(b, a, z), (a, b, z)], []
    while stack:
        p, q, pts = stack.pop()
        cross = (q[0] - p[0]) * (pts[:, 1] - p[1]) - (q[1] - p[1]) * (pts[:, 0] - p[0])
        right = cross < 0
        if right.any():
            f, pts = pts[np.argmin(cross)], pts[right]
            stack += [(f, q, pts), (p, f, pts)]
        else:
            out.append(p)
    return np.array(out[:1] if np.array_equal(a, b) else out)


def _linf_plane(z: np.ndarray) -> tuple[float, float, float]:
    """(theta, offset, half width) of the plane with the least largest distance."""
    v = _hull(z)
    theta, normal = 0.0, np.array([1.0, 0.0])  # coincident points: any plane through them
    if len(v) > 1:
        # Rotating calipers: the least width is across a hull edge, and the
        # vertex farthest inside from edge i starts the first edge turned by
        # pi or more from it.  The counter-clockwise edges of the hull turn
        # monotonically, so one sorted search finds every such vertex.
        e = np.roll(v, -1, axis=0) - v
        turn = np.arctan2(e[:, 1], e[:, 0])
        turn = (turn - turn[0]) % (2 * math.pi)
        far = v[np.searchsorted(np.concatenate((turn, turn + 2 * math.pi)), turn + math.pi) % len(v)] - v
        widths = (e[:, 0] * far[:, 1] - e[:, 1] * far[:, 0]) / np.hypot(e[:, 0], e[:, 1])
        k = int(np.argmin(widths))
        theta, normal = _unit(np.array([-e[k, 1], e[k, 0]]))
    a = z @ normal
    lo, hi = float(a.min()), float(a.max())
    return theta, 0.5 * (lo + hi), 0.5 * (hi - lo)


def beta_inf(sample: WeightedSample, ball: Ball) -> BetaResult:
    """Sup-based vertical beta number of the sampled set inside the ball (exact)."""
    pts, _ = _in_ball(sample, ball)
    theta, offset, half_width = _linf_plane(pts[:, :2])
    return BetaResult(half_width / ball.radius, VerticalPlane(theta, offset), math.inf, len(pts))


def _fit(sample: WeightedSample, ball: Ball, p_exp: float, normalization: str, coarse: bool) -> BetaResult:
    """beta_p for a finite p >= 1, by the full or the coarse angle search;
    p = 2 is solved exactly and searches no angles."""
    pts, w = _in_ball(sample, ball)
    if float(w.sum()) <= 0.0:
        raise ValueError("zero total weight in the ball")
    n_in_ball = len(pts)
    pts, w = _thin(pts, w, _MAX_FIT_POINTS)
    r = ball.radius
    if p_exp == 2.0:
        theta, offset, obj = _l2_plane(pts[:, :2], w)
    else:
        theta, offset, obj = _plane_search(pts[:, :2], w, p_exp, coarse)
    den = r**3 if normalization == "r3" else float(w.sum())
    value = (obj / (r**p_exp) / den) ** (1.0 / p_exp)
    return BetaResult(value, VerticalPlane(theta, offset), p_exp, n_in_ball)


def beta_p(sample: WeightedSample, ball: Ball, p_exp: float, normalization: str = "r3") -> BetaResult:
    """L^p vertical beta number over the weighted sample inside the ball.

    normalization "r3" divides the p-th moment by r^3 (the regular-measure
    convention); "mass" divides by the total in-ball weight, which turns the
    number into a weighted power mean and makes the family exactly monotone
    in p on a fixed sample.  p = 2 is solved exactly; p = inf is beta_inf.
    """
    p_exp = float(p_exp)
    if not 1.0 <= p_exp < math.inf:
        raise ValueError("p exponent must be finite and >= 1; use beta_inf for p = inf")
    if normalization not in ("r3", "mass"):
        raise ValueError(f"unknown normalization {normalization!r}")
    return _fit(sample, ball, p_exp, normalization, False)


def _check_local_scan(p_exp: float, cfg: SampleConfig) -> None:
    """The settings the local-ball loop needs, checked before any draw."""
    if not 1.0 <= p_exp < math.inf:
        raise ValueError("p exponent must be >= 1 and finite")
    if cfg.n < _LOCAL_DIVISOR:
        raise ValueError(f"sample count must be >= {_LOCAL_DIVISOR}; local balls draw n // {_LOCAL_DIVISOR}")


def _local_betas(g: IntrinsicGraph, window: Ball, cfg: SampleConfig, seeds: tuple[int, int],
                 radii, scale: float, p_exp: float, dlog: float):
    """(weight, sum over k of beta_1(B(q, scale r_k))^p_exp dlog) for each
    outer surface point q of the window, in order.

    Each beta ball gets its own local sample so that small scales stay
    resolved; seeds are derived deterministically per (q, r): child(seeds[0])
    draws the window sample, child(seeds[1] + j len(radii) + k) the k-th ball
    around the j-th point.
    """
    outer, weights = _outer_points(g, window, cfg.n, cfg.child(seeds[0]).seed)
    for j, q in enumerate(outer):
        inner = 0.0
        for k, r in enumerate(radii):
            bball = Ball(q, scale * r)
            seed = cfg.child(seeds[1] + j * len(radii) + k).seed
            local = surface_sample(g, region_for_ball(bball), cfg.n // _LOCAL_DIVISOR, seed=seed)
            inner += _fit(local, bball, 1.0, "r3", True).value ** p_exp * dlog
        yield weights[j], inner


@dataclass(frozen=True)
class OscBetaComparison:
    osc: Estimate
    beta1: BetaResult
    ratio: float


def osc_beta_compare(g: IntrinsicGraph, ball: Ball, cfg: SampleConfig) -> OscBetaComparison:
    """Oscillation of the ball against the L^1 beta number of the enlarged ball.

    The ball is enlarged by the comparison constant 24, the oscillation is
    osc(g, ball, cfg), and both sides draw cfg.n samples.  The ratio is
    defined as 0 when both quantities vanish (flat configurations).
    """
    osc_est = osc(g, ball, cfg)
    big = Ball(ball.center, _ENLARGEMENT * ball.radius)
    sample = surface_sample(g, region_for_ball(big), cfg.n, seed=cfg.child(7).seed)
    b1 = beta_p(sample, big, 1.0)
    if b1.value == 0.0:
        ratio = 0.0 if osc_est.value == 0.0 else math.inf
    else:
        ratio = osc_est.value / b1.value
    return OscBetaComparison(osc=osc_est, beta1=b1, ratio=ratio)


@dataclass(frozen=True)
class PerimeterBetaBound:
    lhs: LpPerimeter
    rhs: float
    bulk_term: float
    beta_term: float
    ratio: float


def perimeter_beta_bound(
    g: IntrinsicGraph, window: Ball, p_exp: float, grid: ScaleGrid, cfg: SampleConfig
) -> PerimeterBetaBound:
    """L^p vertical perimeter of the window against its beta-number majorant.

    lhs integrates (v(window)(s)/s)^p over the scale grid.  rhs is R^3
    plus the surface integral over the enlarged window of the p-th root of
    the inner logarithmic integral of beta_1^p: as in the paper's bound,
    p-th powers of the L^1-based beta numbers.  The inner radii are the
    grid scales clipped to the window radius, scaled up by the enlargement
    24 inside each beta ball.  The outer surface integral is evaluated on a deterministic
    decimation of the sampled points.  p < 1, p = inf and fewer than 50
    samples raise ValueError.
    """
    _check_local_scan(p_exp, cfg)
    R = window.radius
    inner_radii = np.asarray([r for r in grid.scales() if r <= R * (1 + 1e-12)])
    if len(inner_radii) == 0:
        raise ValueError("scale grid has no nodes at or below the window radius")
    lhs = lp_vertical_perimeter(g, window, p_exp, grid, cfg)

    # Unbiased surface quadrature over a decimation of the enlarged window
    big = Ball(window.center, _ENLARGEMENT * R)
    betas = _local_betas(g, big, cfg, (11, 100), inner_radii, _ENLARGEMENT, p_exp, grid.dlog)
    beta_term = 0.0
    for weight, inner in betas:
        beta_term += weight * inner ** (1.0 / p_exp)

    bulk = R**3
    rhs = bulk + beta_term
    return PerimeterBetaBound(
        lhs=lhs,
        rhs=rhs,
        bulk_term=bulk,
        beta_term=beta_term,
        ratio=lhs.value / rhs if rhs > 0 else math.inf,
    )


@dataclass(frozen=True)
class CarlesonScan:
    ratio: float


def carleson_scan(g: IntrinsicGraph, p0, R: float, p_exp: float, cfg: SampleConfig) -> CarlesonScan:
    """Empirical packing ratio of a scale-square double integral against R^3.

    Integrates beta_1(B(q, r))^p over surface points q in B(p0, R) and radii
    r in a grid of one node per octave over six octaves up to R.  Inner
    balls carry their own local surface samples so that every octave stays
    resolved.  The scan reports the ratio only; no pass/fail judgement is
    attached, since admissible exponents are an open matter.  p < 1,
    p = inf and fewer than 50 samples raise ValueError.
    """
    _check_local_scan(p_exp, cfg)
    R = float(R)
    grid = ScaleGrid(R * 2.0**-_CARLESON_OCTAVES, R, 1)
    window = Ball(as_points(p0), R)
    total = 0.0
    for weight, inner in _local_betas(g, window, cfg, (13, 1000), grid.scales(), 1.0, p_exp, grid.dlog):
        total += weight * inner
    return CarlesonScan(ratio=total / R**3)
