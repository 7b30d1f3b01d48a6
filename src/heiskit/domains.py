"""Measurable sets as indicator oracles and intrinsic Lipschitz graphs.

A domain oracle is just a deterministic, vectorised indicator function with a
label.  Intrinsic graphs are given by a parametrising function phi(y, t) over
the canonical vertical plane (the (y, t)-plane); their super-graphs are the
open sets {x > phi(proj_vertical(x, y, t))}; a graph carries phi and a label.

Both may also carry a crossing: crossing(x, y) is the t at which the vertical
line over (x, y) crosses the boundary, +-inf where it never does.  Only a set
whose every vertical line crosses the boundary at most once has one; the
vertical perimeter then integrates each line in closed form (see
oscillation).  Every built-in family has it: the slab at its threshold, flat
and lift graphs nowhere (phi does not depend on t), and the Hoelder graph
where phi(y, t + x y / 2) = x; complement keeps it and transform maps it.
Surface sampling realises the graph surface measure up to one global
multiplicative constant via the area formula weight sqrt(1 + grad^2), and
keeps the intrinsic gradient behind each weight, from which _unit_normal
forms the unit normal where a caller reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import core
from .core import Ball, as_points, dist, embed_vertical, inv, mul, proj_vertical
from .quadrature import SampleConfig, _lattice_chunks, _lattice_shape, _map_chunks

__all__ = [
    "DomainOracle",
    "IntrinsicGraph",
    "WeightedSample",
    "Rect",
    "graph_map",
    "intrinsic_gradient",
    "surface_sample",
    "region_for_ball",
    "flat",
    "euclidean_lift",
    "vertical_holder",
    "slab",
    "parse_domain",
    "complement",
    "transform",
]


@dataclass
class DomainOracle:
    """A measurable set, exposed through its indicator function.

    indicator maps an (..., 3) point array to {0, 1} values (any dtype that
    casts to float) and must be deterministic.  crossing, if set, is the
    fibre crossing of the module docstring; it is assigned after
    construction, so DomainOracle(indicator, label) stays the whole
    constructor (the benchmark's tracer wraps it).
    """

    indicator: Callable[[np.ndarray], np.ndarray]
    label: str
    crossing: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = field(default=None, init=False)

    def __call__(self, p) -> np.ndarray:
        return np.asarray(self.indicator(as_points(p)), dtype=float)


def _oracle(indicator, label: str, crossing) -> DomainOracle:
    omega = DomainOracle(indicator, label)
    omega.crossing = crossing
    return omega


def complement(omega: DomainOracle) -> DomainOracle:
    return _oracle(lambda p: 1.0 - np.asarray(omega.indicator(p), dtype=float),
                   f"complement({omega.label})", omega.crossing)


def transform(omega: DomainOracle, q=None, lam: float = 1.0) -> DomainOracle:
    """Oracle of the transformed set dilate(lam, q * Omega)."""
    q = core.point(0.0, 0.0, 0.0) if q is None else as_points(q)
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("dilation factor must be positive")
    qi = inv(q)

    def indicator(p):
        return omega.indicator(mul(qi, core.dilate(1.0 / lam, p)))

    crossing = None
    if omega.crossing is not None:
        qx, qy, qt = (float(v) for v in q)

        def crossing(x, y):
            # the line over (x, y) maps onto the line over (x/lam - qx,
            # y/lam - qy), its t moving to t/lam^2 - qt - (qx y - x qy)/(2 lam)
            inner = omega.crossing(x / lam - qx, y / lam - qy)
            return lam * lam * (inner + qt + (qx * y - x * qy) / (2.0 * lam))

    return _oracle(indicator, f"moved({omega.label})", crossing)


@dataclass
class IntrinsicGraph:
    """Graph data for phi: (y, t) -> x over the canonical vertical plane.

    phi must be vectorised (arrays in, array out); crossing, if given, is
    the fibre crossing of the module docstring.
    """

    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str = "graph"
    crossing: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def indicator(self, p) -> np.ndarray:
        """Super-graph indicator; the graph itself (x == phi) is excluded."""
        p = as_points(p)
        w = proj_vertical(p)
        return (p[..., 0] > self.phi(w[..., 0], w[..., 1])).astype(float)

    def __call__(self, p) -> np.ndarray:
        return self.indicator(p)


def graph_map(g: IntrinsicGraph, w) -> np.ndarray:
    """Graph point (0, y, t) * (phi(y, t), 0, 0) for plane coordinates w."""
    w = np.asarray(w, dtype=float)
    val = np.asarray(g.phi(w[..., 0], w[..., 1]), dtype=float)
    zeros = np.zeros_like(val)
    return mul(embed_vertical(w), np.stack((val, zeros, zeros), axis=-1))


def intrinsic_gradient(g: IntrinsicGraph, w) -> np.ndarray:
    """Gradient of phi along its own graph flow, d_y phi + phi * d_t phi.

    Central differences with step h = 1e-5 in y; the t step is scaled by
    max(1, |phi|) and Richardson-extrapolated, since the flow moves in t at
    speed phi.
    """
    h = 1e-5
    w = np.asarray(w, dtype=float)
    y, t = w[..., 0], w[..., 1]
    val = np.asarray(g.phi(y, t), dtype=float)
    dy = (g.phi(y + h, t) - g.phi(y - h, t)) / (2.0 * h)
    ht = h * np.maximum(1.0, np.abs(val))
    d1 = (g.phi(y, t + ht) - g.phi(y, t - ht)) / (2.0 * ht)
    d2 = (g.phi(y, t + 0.5 * ht) - g.phi(y, t - 0.5 * ht)) / ht
    out = dy + val * (4.0 * d2 - d1) / 3.0
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(out)))[0]
        raise ValueError(f"non-finite graph values near plane point index {bad.tolist()}")
    return out


def _area_factor(grad: np.ndarray) -> np.ndarray:
    """Area-formula density sqrt(1 + grad^2) of the intrinsic gradient."""
    return np.sqrt(1.0 + grad * grad)


def _unit_normal(grad: np.ndarray) -> np.ndarray:
    """Unit complex normal (1 - i grad) / sqrt(1 + grad^2) from the intrinsic gradient."""
    den = _area_factor(grad)
    return (1.0 / den) + 1j * (-grad / den)


@dataclass(frozen=True)
class Rect:
    """Parallelogram in the (y, t) parameter plane: y0 <= y <= y1 and
    t0 <= t - slope (y - ym) <= t1, ym the middle of [y0, y1].

    slope 0 is the axis-parallel rectangle.  The shear by slope has unit
    Jacobian, so the area is (y1 - y0)(t1 - t0) whatever the slope.
    """

    y0: float
    y1: float
    t0: float
    t1: float
    slope: float = 0.0

    def __post_init__(self):
        if not (self.y0 < self.y1 and self.t0 < self.t1):
            raise ValueError("rectangle must have positive extent")

    @property
    def area(self) -> float:
        return (self.y1 - self.y0) * (self.t1 - self.t0)

    def shear(self, y: np.ndarray) -> np.ndarray:
        """The t offset slope (y - ym) of the region at parameter y."""
        return self.slope * (y - 0.5 * (self.y0 + self.y1))

    def contains_w(self, w: np.ndarray) -> np.ndarray:
        """Membership mask for (..., 2) plane coordinates."""
        w = np.asarray(w, dtype=float)
        y = w[..., 0]
        t = w[..., 1] - self.shear(y)
        return (y >= self.y0) & (y <= self.y1) & (t >= self.t0) & (t <= self.t1)


# Relative slack of region_for_ball on each side, against boundary effects.
_PAD = 0.05


def region_for_ball(ball: Ball) -> Rect:
    """Parallelogram covering the vertical projections of every point of the ball.

    For q in B(c, rho) write q = c * m with box_norm(m) <= rho.  Then the
    (y, t)-plane projection satisfies y - c_y = m_y and

        t_w = (c_t + c_x c_y / 2) + m_t + c_x m_y + m_x m_y / 2,

    so |t_w - t_w(c) - c_x (y - c_y)| <= rho^2/4 + rho^2/4: the c_x m_y
    term is a shear of slope c_x.  The bound is exact, and the region's
    area 2 rho^3 (1 + _PAD)^2 does not depend on c; the pad only adds
    slack against boundary effects downstream.
    """
    cx, cy, ct = (float(v) for v in ball.center)
    rho = ball.radius
    dt = 0.5 * rho**2
    wt = ct + 0.5 * cx * cy
    py = _PAD * rho
    pt = _PAD * dt
    return Rect(cy - rho - py, cy + rho + py, wt - dt - pt, wt + dt + pt, cx)


@dataclass
class WeightedSample:
    """Monte-Carlo realisation of the graph surface measure over a region.

    points are the graph points Phi(w_i); weights are
    sqrt(1 + grad(w_i)^2) * area(region) / n, n the count drawn, so that
    sums of weights approximate the surface measure of the sampled region
    up to one global constant shared by all samples.  grad, when present, is
    the intrinsic gradient behind each weight; callers that need the unit
    normal form it from grad on the samples they use.  The n draws are
    shape = (R, N): R = replicates lattices of N points, one after another,
    so draw j belongs to lattice j // N.
    """

    w: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    region: Optional[Rect]
    seed: int
    grad: Optional[np.ndarray] = None
    replicates: int = 1

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def shape(self) -> tuple[int, int]:
        return self.replicates, self.n // self.replicates

    def in_ball(self, ball: Ball) -> np.ndarray:
        return dist(self.points, ball.center) <= ball.radius


# The least lattice count of a surface sample.  A z-score on the stderr of R
# lattice means follows a t distribution with R - 1 degrees of freedom: at
# R = 32 its tail beyond 3 is 1.8 times the normal one, at 256 1.07 times.
# testing_scan's checks take the worst of hundreds of such z-scores.
_SURFACE_REPS = 256


def surface_sample(g: IntrinsicGraph, region: Rect, n: int, seed: int) -> WeightedSample:
    """Seeded uniform sample of the region, pushed to the graph with area weights.

    The parameters are R >= _SURFACE_REPS shifted, folded Fibonacci lattices
    of N points each, R * N <= n (see quadrature._lattice_chunks), mapped
    affinely onto the parallelogram; a sum over the sample estimates the
    surface integral, and the spread of the R lattice sums gives its
    stderr.  Chunks of whole lattices keyed by (seed, chunk) keep the
    result byte-identical regardless of how the chunks are scheduled.  The
    gradient behind each weight is kept, so the unit normal never needs it
    computed again.
    """
    SampleConfig(n, seed)  # the same checks of n and seed
    reps, size = shape = _lattice_shape(2, n, _SURFACE_REPS)
    make_unit, chunks = _lattice_chunks(2, shape, seed)

    def draw(first: int, count: int) -> np.ndarray:
        y, t = make_unit(first, count).reshape(2, -1)
        y *= region.y1 - region.y0
        y += region.y0
        t *= region.t1 - region.t0
        t += region.t0
        t += region.shear(y)
        return np.stack((y, t), axis=-1)

    def push(w: np.ndarray) -> tuple[np.ndarray, ...]:
        grad = intrinsic_gradient(g, w)
        return w, graph_map(g, w), _area_factor(grad) * (region.area / (reps * size)), grad

    w, points, weights, grad = (np.concatenate(part) for part in zip(*_map_chunks(draw, chunks, push)))
    return WeightedSample(w=w, points=points, weights=weights, region=region, seed=seed, grad=grad,
                          replicates=reps)


# ---------------------------------------------------------------------------
# Built-in families


def _constant_crossing(value: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Crossing at the same t over every (x, y); inf for no crossing at all."""

    def crossing(x, y):
        return np.full(np.broadcast(x, y).shape, value)

    return crossing


def flat(theta: float = 0.0, offset: float = 0.0) -> IntrinsicGraph:
    """Vertical half-space bounded by the plane with normal angle theta.

    Representable as a graph over the canonical frame only when the plane is
    not parallel to the x-axis; rotate the configuration otherwise.
    """
    plane = core.VerticalPlane(theta, offset)
    c = math.cos(plane.theta)
    if abs(c) < 1e-9:
        raise ValueError("plane normal orthogonal to the x-axis; rotate the frame first")
    s = math.sin(plane.theta)
    a = -s / c
    b = plane.offset / c

    def phi(y, t):
        return a * np.asarray(y, dtype=float) + b

    return IntrinsicGraph(phi, label=f"flat:theta={plane.theta:g},offset={plane.offset:g}",
                          crossing=_constant_crossing(math.inf))


_PHI0: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "zero": lambda y: np.zeros_like(np.asarray(y, dtype=float)),
    "abs": np.abs,
    "sin": np.sin,
}


def euclidean_lift(phi0: str, scale: float = 1.0) -> IntrinsicGraph:
    """Graph constant along vertical lines: phi(y, t) = scale * phi0(y).

    phi0 names one of the profiles {zero, abs, sin}, all 1-Lipschitz.
    """
    if phi0 not in _PHI0:
        raise ValueError(f"unknown lift profile {phi0!r}; known: {sorted(_PHI0)}")
    fn = _PHI0[phi0]
    scale = float(scale)

    def phi(y, t):
        return scale * np.asarray(fn(np.asarray(y, dtype=float)), dtype=float)

    return IntrinsicGraph(phi, label=f"lift:phi0={phi0},scale={scale:g}", crossing=_constant_crossing(math.inf))


def vertical_holder(H: float, tau: float) -> IntrinsicGraph:
    """Odd profile in t with two-regime vertical Hoelder control.

    phi(y, t) = H * 2^(-(1+tau)/2) * sgn(t) * |t|^((1+tau)/2)  for |t| <= 1
    and exponent (1-tau)/2 for |t| > 1.  The amplitude factor makes the
    asserted Hoelder constants exact: for an odd power profile with exponent
    a, opposite-sign pairs reach 2^(1-a) times the same-sign constant, so the
    raw |t|^a profile would exceed H.  With the factor, difference quotients
    stay below H * 2^(-tau) at small gaps and exactly H at large gaps.
    """
    H = float(H)
    tau = float(tau)
    if H < 1.0:
        raise ValueError("Hoelder constant must be >= 1")
    if not (0.0 < tau <= 1.0):
        raise ValueError("Hoelder exponent offset tau must lie in (0, 1]")
    a = 0.5 * (1.0 + tau)
    b = 0.5 * (1.0 - tau)
    amp = H * 2.0 ** (-a)

    def phi(y, t):
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        small = at <= 1.0
        mag = np.where(small, at**a, at**b)
        out = amp * np.sign(t) * mag
        return np.broadcast_to(out, np.broadcast(np.asarray(y, float), t).shape).copy()

    def crossing(x, y):
        # phi increases in its t argument w = t + x y / 2 and equals x at
        # w = sgn(x) g(|x| / amp), g inverting the two powers; at tau = 1
        # (b = 0) phi never exceeds amp, so |x| > amp is never crossed
        x = np.asarray(x, dtype=float)
        u = np.abs(x) / amp
        with np.errstate(over="ignore"):
            g = np.where(u <= 1.0, u ** (1.0 / a), u ** (1.0 / b) if b > 0.0 else math.inf)
        return np.sign(x) * g - 0.5 * x * np.asarray(y, dtype=float)

    return IntrinsicGraph(phi, label=f"holder:H={H:g},tau={tau:g}", crossing=crossing)


def slab(threshold: float = 0.0) -> DomainOracle:
    """Horizontal slab {t > threshold}; maximal vertical oscillation test set."""
    threshold = float(threshold)

    def indicator(p):
        return (as_points(p)[..., 2] > threshold).astype(float)

    return _oracle(indicator, f"slab:t>{threshold:g}", _constant_crossing(threshold))


def parse_domain(spec: str):
    """Parse the CLI domain mini-language.

    Examples: ``flat:theta=0,offset=0``; ``lift:phi0=abs,scale=0.5``;
    ``holder:H=1,tau=0.5``; ``slab:t>0``.  Returns an IntrinsicGraph for the
    graph families and a DomainOracle for slabs.
    """
    spec = spec.strip()
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name == "slab":
        body = rest.strip().replace(" ", "")
        if not body.startswith("t>"):
            raise ValueError(f"slab spec must look like 'slab:t>0', got {spec!r}")
        return slab(float(body[2:]) if body[2:] else 0.0)

    params: dict[str, str] = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"malformed domain parameter {item!r} in {spec!r}")
            params[key.strip().lower()] = value.strip()

    def pop_float(key: str, default: float) -> float:
        return float(params.pop(key)) if key in params else default

    if name == "flat":
        theta = pop_float("theta", 0.0)
        offset = pop_float("offset", 0.0)
    elif name == "lift":
        profile = params.pop("phi0", "abs")
        scale = pop_float("scale", 1.0)
    elif name == "holder":
        H = pop_float("h", 1.0)
        tau = pop_float("tau", 0.5)
    else:
        raise ValueError(f"unknown domain family {name!r} in {spec!r}")
    if params:
        raise ValueError(f"unknown domain parameters {sorted(params)} in {spec!r}")

    if name == "flat":
        return flat(theta, offset)
    if name == "lift":
        return euclidean_lift(profile, scale=scale)
    return vertical_holder(H, tau)
