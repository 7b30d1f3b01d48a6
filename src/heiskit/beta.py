"""Vertical beta numbers: best approximation of a set by vertical planes.

The distance from a point to a vertical plane depends only on its (x, y)
part, so a plane fit is a weighted fit of a line to the projected points.
p = inf and p = 2 are solved exactly: half the least width of the points,
attained across an edge of their convex hull and found by rotating
calipers (Houle-Toussaint 1988), and the line through the weighted mean
along the least-variance direction.
Other p search a grid of normal angles over [0, pi), the smallest angle
winning ties, then may refine the best; per angle the offset is the
weighted median min{v : W(a <= v) >= W/2} for p = 1 and a bounded convex
1-d solve otherwise.  The exact L^1 optimum, a line through two sample
points (Martini-Schoebel 1998), costs O(m^2); the grid value is at or above
it.  Only the value is meant for assertions, not which optimal plane wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.spatial import ConvexHull, QhullError

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


def _outer_points(g: IntrinsicGraph, ball: Ball, n: int, seed: int, n_outer: int):
    """About n_outer in-ball points of a surface sample, by a fixed stride,
    with weights scaled up to stand in for the whole in-ball population."""
    sample = surface_sample(g, region_for_ball(ball), n, seed=seed)
    idx = np.flatnonzero(sample.in_ball(ball))
    if len(idx) == 0:
        raise EmptyBallError("no surface points in the window")
    sel = idx[:: max(1, len(idx) // n_outer)][:n_outer]
    return sample.points[sel], sample.weights[sel] * (len(idx) / len(sel))


def _thin(points: np.ndarray, weights: np.ndarray, max_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight-preserving decimation by a fixed stride; unbiased and seed-free."""
    n = len(points)
    if n <= max_points:
        return points, weights
    stride = math.ceil(n / max_points)
    return points[::stride], weights[::stride] * (n / len(points[::stride]))


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
    res = minimize_scalar(
        lambda c: float(np.sum(w * np.abs(a - c) ** p_exp)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-10 * max(1.0, hi - lo)},
    )
    c = float(res.x)
    return c, float(np.sum(w * np.abs(a - c) ** p_exp))


def _direction_objective(z: np.ndarray, w: np.ndarray, theta: float, p_exp: float) -> tuple[float, float]:
    a = z[:, 0] * math.cos(theta) + z[:, 1] * math.sin(theta)
    return _offset_solve(a, w, p_exp)


def _plane_search(
    z: np.ndarray, w: np.ndarray, p_exp: float, theta_nodes: int, refine: bool
) -> tuple[float, float, float]:
    """(theta, offset, raw objective) minimising the directional fit."""
    thetas = np.arange(theta_nodes) * (math.pi / theta_nodes)
    objs = np.empty(theta_nodes)
    offs = np.empty(theta_nodes)
    for i, th in enumerate(thetas):
        offs[i], objs[i] = _direction_objective(z, w, th, p_exp)
    best = int(np.argmin(objs))  # first minimum: smallest-theta tie break
    theta, offset, obj = float(thetas[best]), float(offs[best]), float(objs[best])
    if refine and theta_nodes > 2:
        step = math.pi / theta_nodes
        res = minimize_scalar(
            lambda th: _direction_objective(z, w, th, p_exp)[1],
            bounds=(theta - step, theta + step),
            method="bounded",
            options={"xatol": 1e-9},
        )
        if res.fun < obj:
            theta = float(res.x)
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


def _linf_plane(z: np.ndarray) -> tuple[float, float, float]:
    """(theta, offset, half width) of the plane with the least largest distance."""
    try:
        v = z[ConvexHull(z).vertices]
    except QhullError:  # fewer than 3 points, or all on one line
        d = z[np.argmax(np.sum((z - z[0]) ** 2, axis=1))] - z[0]
        theta, normal = _unit(np.array([-d[1], d[0]]) if np.any(d) else np.array([1.0, 0.0]))
    else:
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


def beta_p(
    sample: WeightedSample,
    ball: Ball,
    p_exp: float,
    normalization: str = "r3",
    theta_nodes: int = 180,
    refine: bool = True,
) -> BetaResult:
    """L^p vertical beta number over the weighted sample inside the ball.

    normalization "r3" divides the p-th moment by r^3 (the regular-measure
    convention); "mass" divides by the total in-ball weight, which turns the
    number into a weighted power mean and makes the family exactly monotone
    in p on a fixed sample.  p = 2 is solved exactly and ignores theta_nodes
    and refine; p = inf is beta_inf.
    """
    p_exp = float(p_exp)
    if not 1.0 <= p_exp < math.inf:
        raise ValueError("p exponent must be finite and >= 1; use beta_inf for p = inf")
    if normalization not in ("r3", "mass"):
        raise ValueError(f"unknown normalization {normalization!r}")
    pts, w = _in_ball(sample, ball)
    if float(w.sum()) <= 0.0:
        raise ValueError("zero total weight in the ball")
    n_in_ball = len(pts)
    pts, w = _thin(pts, w, _MAX_FIT_POINTS)
    r = ball.radius
    if p_exp == 2.0:
        theta, offset, obj = _l2_plane(pts[:, :2], w)
    else:
        theta, offset, obj = _plane_search(pts[:, :2], w, p_exp, theta_nodes, refine)
    den = r**3 if normalization == "r3" else float(w.sum())
    value = (obj / (r**p_exp) / den) ** (1.0 / p_exp)
    return BetaResult(value, VerticalPlane(theta, offset), p_exp, n_in_ball)


@dataclass(frozen=True)
class OscBetaComparison:
    osc: Estimate
    beta1: BetaResult
    ratio: float


def osc_beta_compare(
    g: IntrinsicGraph,
    ball: Ball,
    cfg: SampleConfig,
    beta_n: int = 200_000,
) -> OscBetaComparison:
    """Oscillation of the ball against the L^1 beta number of the enlarged ball.

    The ball is enlarged by the comparison constant 24 and the oscillation
    uses 16 shift nodes.  The ratio is defined as 0 when both quantities
    vanish (flat configurations).
    """
    osc_est = osc(g, ball, cfg, s_nodes=16)
    big = Ball(ball.center, _ENLARGEMENT * ball.radius)
    sample = surface_sample(g, region_for_ball(big), beta_n, seed=cfg.child(7).seed)
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
    inner_radii: np.ndarray


def perimeter_beta_bound(
    g: IntrinsicGraph,
    window: Ball,
    p_exp: float,
    grid: ScaleGrid,
    cfg: SampleConfig,
    n_outer: int = 12,
    beta_n: int = 100_000,
    inner_n: int = 20_000,
    theta_nodes: int = 60,
) -> PerimeterBetaBound:
    """L^p vertical perimeter of the window against its beta-number majorant.

    lhs integrates (v(window)(s)/s)^p over the scale grid.  rhs is
    R^3 plus the surface integral over the enlarged window of the inner
    logarithmic beta integral; the inner radii are the grid scales clipped
    to the window radius, scaled up by the enlargement 24 inside each beta
    ball.  The outer surface integral is evaluated on a deterministic
    decimation of the sampled points.
    """
    R = window.radius
    p0 = window.center
    lhs = lp_vertical_perimeter(g, window, p_exp, grid, cfg)

    inner_radii = np.asarray([r for r in grid.scales() if r <= R * (1 + 1e-12)])
    if len(inner_radii) == 0:
        raise ValueError("scale grid has no nodes at or below the window radius")
    # Unbiased surface quadrature over a decimation of the enlarged window
    outer, weights = _outer_points(g, Ball(p0, _ENLARGEMENT * R), beta_n, cfg.child(11).seed, n_outer)

    beta_term = 0.0
    for j, q in enumerate(outer):
        inner = 0.0
        for k, r in enumerate(inner_radii):
            # Each beta ball gets its own local sample so that small scales
            # stay resolved; seeds are derived deterministically per (q, r).
            bball = Ball(q, _ENLARGEMENT * r)
            local = surface_sample(
                g,
                region_for_ball(bball),
                inner_n,
                seed=cfg.child(100 + j * len(inner_radii) + k).seed,
            )
            b = beta_p(local, bball, p_exp, theta_nodes=theta_nodes, refine=False)
            inner += b.value**p_exp * grid.dlog
        beta_term += weights[j] * inner ** (1.0 / p_exp)

    bulk = R**3
    rhs = bulk + beta_term
    return PerimeterBetaBound(
        lhs=lhs,
        rhs=rhs,
        bulk_term=bulk,
        beta_term=beta_term,
        ratio=lhs.value / rhs if rhs > 0 else math.inf,
        inner_radii=inner_radii,
    )


@dataclass(frozen=True)
class CarlesonScan:
    ratio: float
    double_integral: float
    radii: np.ndarray
    n_outer: int


def carleson_scan(
    g: IntrinsicGraph,
    p0,
    R: float,
    p_exp: float,
    cfg: SampleConfig,
    octaves: int = 6,
    n_outer: int = 12,
    outer_n: int = 100_000,
    inner_n: int = 20_000,
    theta_nodes: int = 60,
) -> CarlesonScan:
    """Empirical packing ratio of a scale-square double integral against R^3.

    Integrates beta_1(B(q, r))^p over surface points q in B(p0, R) and radii
    r in a grid of one node per octave up to R.  Inner balls carry their own
    local surface samples so that every octave stays resolved.  The scan
    reports the ratio only; no pass/fail judgement is attached, since
    admissible exponents are an open matter.  p < 1 raises ValueError.
    """
    if not p_exp >= 1.0:
        raise ValueError("p exponent must be >= 1")
    p0 = as_points(p0)
    R = float(R)
    grid = ScaleGrid(R * 2.0**-octaves, R, 1)
    radii = grid.scales()

    outer, weights = _outer_points(g, Ball(p0, R), outer_n, cfg.child(13).seed, n_outer)

    total = 0.0
    for j, q in enumerate(outer):
        inner = 0.0
        for k, r in enumerate(radii):
            bball = Ball(q, r)
            seed = cfg.child(1000 + j * len(radii) + k).seed
            local = surface_sample(g, region_for_ball(bball), inner_n, seed=seed)
            val = beta_p(local, bball, 1.0, theta_nodes=theta_nodes, refine=False).value
            inner += val**p_exp * grid.dlog
        total += weights[j] * inner

    return CarlesonScan(
        ratio=total / R**3,
        double_integral=total,
        radii=radii,
        n_outer=len(outer),
    )
