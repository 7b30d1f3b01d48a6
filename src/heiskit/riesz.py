"""Explicit convolution kernels, smooth bumps, and truncated transforms on graphs.

The fundamental solution of the horizontal Laplacian is G = koranyi^-2 (the
multiplicative constant is fixed to 1 here; every comparison check in
this package is ratio-based, so the convention cancels).  The complex kernel
is K = XG - i YG for the left-invariant horizontal fields
X = d_x - (y/2) d_t and Y = d_y + (x/2) d_t; right-invariant analogues carry
a 't' suffix.  All closed forms below were derived by hand from G and are
validated against finite differences in the test suite; the invariants
experiment checks, by central differences along the frames, that G is
harmonic for the left and right horizontal Laplacians and that the left
and right horizontal divergences differ by the t-derivative of the torsion
term.  testing_scan is the one sum of K and Kstar against a sampled graph
measure, at each point a mixture of a uniform and a shell sample: it
multiplies both kernels by the smooth exterior cutoff at every truncation
scale.  divergence_check integrates the divergence of a bump field over the
field's support ball, the one volume sampler of quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Ball, as_points, dilate, inv, koranyi_norm, mul, point, proj_vertical
from .domains import (IntrinsicGraph, Rect, _unit_normal, graph_map, intrinsic_gradient, region_for_ball,
                      surface_sample)
from .quadrature import (Estimate, SampleConfig, _estimate_from_moments, _map_chunks, _mc_chunks, _moments,
                         integrate_ball)

__all__ = [
    "KERNEL_DEGREES",
    "SingularityError",
    "SparseSampleWarning",
    "eval_kernel",
    "inversion_identity_residual",
    "directional_derivative",
    "horizontal_divergence",
    "left_right_divergence_residual",
    "harmonicity_residual",
    "BumpSpec",
    "bump",
    "TestingScan",
    "testing_scan",
    "VectorField",
    "bump_field",
    "DivergenceCheck",
    "divergence_check",
]


class SingularityError(ValueError):
    """Kernel evaluated at the group origin."""


# Homogeneity degree under dilations: eval(dilate(lam, p)) = lam^deg * eval(p).
KERNEL_DEGREES: dict[str, int] = {
    "G": -2,
    "K": -3,
    "Kstar": -3,
    "XG": -3,
    "YG": -3,
    "XtG": -3,
    "YtG": -3,
    "Ktilde": -2,
    "Khat": -2,
    "dtG": -4,
    "dtKtilde": -4,
    "dtKhat": -4,
}


def _parts(p):
    p = as_points(p)
    x, y, t = p[..., 0], p[..., 1], p[..., 2]
    z2 = x * x + y * y
    n4 = z2 * z2 + 16.0 * t * t  # koranyi norm to the fourth power
    if np.any(n4 == 0.0):
        raise SingularityError("kernel evaluated at the origin")
    return x, y, t, z2, n4


def _kernel_pair(p, kernels=("K", "Kstar")) -> tuple[np.ndarray, ...]:
    """K and Kstar = K(p^-1), or only the kernels named, from shared terms:
    with A = 2 x z^2, B = 8 y t, C = 2 y z^2, D = 8 x t, K = (B - A) + i (C + D)
    and Kstar = (A + B) + i (D - C), both times koranyi^-6."""
    x, y, t, z2, n4 = _parts(p)
    a, b, c, d = 2.0 * x * z2, 8.0 * y * t, 2.0 * y * z2, 8.0 * x * t
    m = n4**-1.5
    return tuple(((b - a) + 1j * (c + d) if k == "K" else (a + b) + 1j * (d - c)) * m for k in kernels)


def eval_kernel(kernel_id: str, p) -> np.ndarray:
    """Closed-form kernel evaluation; complex for K and Kstar, real otherwise.

    'dtG' is the -4-homogeneous companion kernel 16 t / koranyi^6 of the
    fundamental solution (for the c = 1 convention the literal t-derivative
    of G is its negative; every use here is through absolute bounds and
    homogeneity, which do not see the sign).
    """
    if kernel_id not in KERNEL_DEGREES:
        raise KeyError(f"unknown kernel id {kernel_id!r}; known: {sorted(KERNEL_DEGREES)}")
    if kernel_id in ("K", "Kstar"):
        return _kernel_pair(p, (kernel_id,))[0]
    x, y, t, z2, n4 = _parts(p)
    if kernel_id == "G":
        return n4**-0.5
    if kernel_id == "XG":
        return (-2.0 * x * z2 + 8.0 * y * t) * n4**-1.5
    if kernel_id == "YG":
        return (-2.0 * y * z2 - 8.0 * x * t) * n4**-1.5
    if kernel_id == "XtG":
        return (-2.0 * x * z2 - 8.0 * y * t) * n4**-1.5
    if kernel_id == "YtG":
        return (-2.0 * y * z2 + 8.0 * x * t) * n4**-1.5
    if kernel_id == "Ktilde":
        return 8.0 * t * z2 * n4**-1.5
    if kernel_id == "Khat":
        return 2.0 * z2 * z2 * n4**-1.5
    if kernel_id == "dtG":
        return 16.0 * t * n4**-1.5
    if kernel_id == "dtKtilde":
        return 8.0 * z2 * (z2 * z2 - 32.0 * t * t) * n4**-2.5
    return -96.0 * z2 * z2 * t * n4**-2.5  # dtKhat


def inversion_identity_residual(q) -> np.ndarray:
    """Relative residual of K(q^-1) = -XtG(q) + i YtG(q).

    Both sides are closed forms, so the residual is pure rounding noise.
    """
    lhs = eval_kernel("K", inv(q))
    rhs = -eval_kernel("XtG", q) + 1j * eval_kernel("YtG", q)
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    return np.abs(lhs - rhs) / np.where(scale > 0.0, scale, 1.0)


# ---------------------------------------------------------------------------
# Finite differences along the invariant frames

_FRAME_DIRS = {
    "X": lambda p: np.stack((np.ones_like(p[..., 0]), np.zeros_like(p[..., 0]), -0.5 * p[..., 1]), -1),
    "Y": lambda p: np.stack((np.zeros_like(p[..., 0]), np.ones_like(p[..., 0]), 0.5 * p[..., 0]), -1),
    "Xt": lambda p: np.stack((np.ones_like(p[..., 0]), np.zeros_like(p[..., 0]), 0.5 * p[..., 1]), -1),
    "Yt": lambda p: np.stack((np.zeros_like(p[..., 0]), np.ones_like(p[..., 0]), -0.5 * p[..., 0]), -1),
    "T": lambda p: np.stack((np.zeros_like(p[..., 0]), np.zeros_like(p[..., 0]), np.ones_like(p[..., 0])), -1),
}


def directional_derivative(f: Callable[[np.ndarray], np.ndarray], frame: str, p, h: float) -> np.ndarray:
    """Central difference of f along an invariant frame field, O(h^2)."""
    p = as_points(p)
    e = _FRAME_DIRS[frame](p)
    return (np.asarray(f(p + h * e)) - np.asarray(f(p - h * e))) / (2.0 * h)


def horizontal_divergence(V: Callable[[np.ndarray], np.ndarray], p, h: float = 1e-4) -> np.ndarray:
    """X V1 + Y V2 by central differences."""
    v1 = lambda q: np.asarray(V(q))[..., 0]
    v2 = lambda q: np.asarray(V(q))[..., 1]
    return directional_derivative(v1, "X", p, h) + directional_derivative(v2, "Y", p, h)


def left_right_divergence_residual(
    V: Callable[[np.ndarray], np.ndarray], p, h: float = 1e-4
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of div V = div~ V + d_t(-y V1 + x V2) and their gap.

    Everything is evaluated by central differences, so the gap decays at
    rate O(h^2) for smooth fields.
    """
    p = as_points(p)
    lhs = horizontal_divergence(V, p, h)
    v1 = lambda q: np.asarray(V(q))[..., 0]
    v2 = lambda q: np.asarray(V(q))[..., 1]

    def torsion(q):
        vals = np.asarray(V(q))
        return -q[..., 1] * vals[..., 0] + q[..., 0] * vals[..., 1]

    # the right divergence Xt V1 + Yt V2, then the torsion term
    rhs = (directional_derivative(v1, "Xt", p, h) + directional_derivative(v2, "Yt", p, h)
           + directional_derivative(torsion, "T", p, h))
    return lhs, rhs, np.abs(lhs - rhs)


def harmonicity_residual(q, h: float, right: bool = False) -> np.ndarray:
    """|XXG + YYG| (or the right-frame analogue) by finite differences.

    Each frame direction is constant along its own straight line (moving
    along X never changes y, along Y never changes x), so the repeated
    derivative is exactly the second derivative along that line and the
    3-point stencil applies.  G is harmonic off the origin for both
    horizontal Laplacians, so the residual is pure truncation error and
    decays like h^2; callers should keep h well below the norm of q.
    """
    frames = ("Xt", "Yt") if right else ("X", "Y")
    q = as_points(q)
    G = lambda p: eval_kernel("G", p)
    total = None
    for fr in frames:
        e = _FRAME_DIRS[fr](q)
        second = (G(q + h * e) - 2.0 * G(q) + G(q - h * e)) / (h * h)
        total = second if total is None else total + second
    return np.abs(total)


# ---------------------------------------------------------------------------
# Smooth bumps

_SQRT2_4 = 2.0**0.25  # ratio bound between the koranyi and box norms


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


@dataclass(frozen=True)
class BumpSpec:
    """A smooth radial profile in the Koranyi norm of the rescaled argument.

    kind "psi_ball": 1 on the koranyi ball of radius 2^(1/4)/2, 0 outside
    radius 1 (after centering at `center` and dilating by 1/radius).  Because
    box <= koranyi <= 2^(1/4) box, this is squeezed between the indicator of
    the half metric ball and the full metric ball.

    kind "phi_eps_exterior": 0 on the koranyi ball of radius 2^(1/4), 1
    outside radius 2, squeezed between the indicators of the complements of
    the double metric ball and the single one.  `radius` plays the role of
    the truncation scale and `center` defaults to the origin.

    The quintic smoothstep profile is C^2 and the koranyi radius is smooth
    away from the origin, which never meets a transition shell.
    """

    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 1.0
    kind: str = "psi_ball"

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("bump radius must be positive")
        if self.kind not in ("psi_ball", "phi_eps_exterior"):
            raise ValueError(f"unknown bump kind {self.kind!r}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def _edges(self) -> tuple[float, float]:
        if self.kind == "psi_ball":
            return (_SQRT2_4 / 2.0, 1.0)  # plateau edge, support edge
        return (_SQRT2_4, 2.0)  # zero edge, plateau edge


def _profile(spec: BumpSpec, u: np.ndarray) -> np.ndarray:
    a, b = spec._edges
    if spec.kind == "psi_ball":
        return np.where(u <= a, 1.0, _smoothstep((b - u) / (b - a)))
    return np.where(u <= a, 0.0, _smoothstep((u - a) / (b - a)))


def bump(spec: BumpSpec, p) -> np.ndarray:
    """Evaluate the bump; sandwich inequalities hold pointwise by construction."""
    m = dilate(1.0 / spec.radius, mul(inv(point(*spec.center)), p))
    return _profile(spec, koranyi_norm(m))


# ---------------------------------------------------------------------------
# Truncated transforms on graph measures


class SparseSampleWarning(UserWarning):
    """Surface draws are sparse at a truncation radius: testing_scan warns
    when its draws per unit area at nu = 2 eps, n / |Rg| + n h_p(2 eps), fall
    below 16 / eps^2, i.e. when their mean spacing there exceeds eps / 4."""


@dataclass(frozen=True)
class TestingScanRow:
    ball_center: tuple[float, float, float]
    ball_radius: float
    eps: float
    p: tuple[float, float, float]
    op: complex
    op_stderr: float
    adj: complex
    adj_stderr: float


@dataclass(frozen=True)
class TestingScan:
    """The rows, ball by ball, and for each ball the count of its uniform
    draws where f is not 0; a ball whose count is 0 is degenerate and has
    no rows."""

    rows: list[TestingScanRow]
    support_draws: list[int]


class _Shell:
    """The shell sample of n draws around p, and the mixture's draw density.

    On the parameter plane p's sheared quasi-norm is nu(w) = max(|dy|,
    sqrt(2 |dtau|)), dy = y - y_p, dtau = t - t_p - x_p dy, (y_p, t_p) the
    projection of p; {nu <= rho} is the unpadded region_for_ball(B(p, rho)),
    of area 2 rho^3.  A draw takes rho log-uniform on [rho0, rho1] and (a, b)
    uniform on the unit nu-ball [-1, 1] x [-1/2, 1/2] and dilates (a, b)
    onto the nu-sphere of radius rho, so its density is h(w) = 1 / (6 L nu^3)
    on [rho0, rho1], L = log(rho1 / rho0).  rho1 is the largest nu over the
    region's corners (nu is a maximum of convex functions), at least 2 rho0.
    """

    def __init__(self, p: np.ndarray, region: Rect, n: int, rho0: float, seed: int):
        (self.y, self.t), self.slope = proj_vertical(p), p[0]
        self.uniform_density, self.n, self.rho0, self.seed = n / region.area, n, rho0, seed
        ys = np.array([region.y0, region.y0, region.y1, region.y1])
        corners = np.stack((ys, np.array([region.t0, region.t1] * 2) + region.shear(ys)), -1)
        self.rho1 = max(float(np.max(self.nu(corners))), 2.0 * rho0)
        self.log_ratio = math.log(self.rho1 / rho0)

    def nu(self, w: np.ndarray) -> np.ndarray:
        dy = w[..., 0] - self.y
        return np.maximum(np.abs(dy), np.sqrt(2.0 * np.abs(w[..., 1] - self.t - self.slope * dy)))

    def density(self, nu) -> np.ndarray:
        """Draws per unit area of both samples in the region, n / |Rg| + n h, at nu."""
        h = 1.0 / (6.0 * self.log_ratio * np.maximum(nu, self.rho0) ** 3)
        return self.uniform_density + self.n * np.where((nu >= self.rho0) & (nu <= self.rho1), h, 0.0)

    def draw(self, i: int, size: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, i])  # chunk i's own stream
        rho = self.rho0 * np.exp(self.log_ratio * rng.random(size))
        a = 2.0 * rng.random(size) - 1.0
        b = rng.random(size) - 0.5
        s = rho / np.maximum(np.abs(a), np.sqrt(2.0 * np.abs(b)))
        return np.stack((self.y + s * a, self.t + self.slope * s * a + s * s * b), -1)


def testing_scan(
    g: IntrinsicGraph,
    balls: Sequence[Ball],
    eps_grid: Sequence[float],
    points: Sequence,
    n: int = 400_000,
    seed: int = 0,
) -> TestingScan:
    """Table of smooth-truncated transforms of accretive ball bumps.

    For each ball the test function f is the interior bump times the unit
    graph normal; it vanishes off the ball's parallelogram Rg =
    region_for_ball(ball).  At each evaluation point p the surface integral
    is a defensive mixture of two samples of n draws: a uniform sample of
    Rg, shared by every point, and p's shell sample (see _Shell), drawn
    through the chunk map.  Each draw w of either sample is weighted by the
    balance heuristic, area factor / (n / |Rg| + n h_p(w)): the uniform half
    covers Rg, so the sum is unbiased, and near p the -3-homogeneous kernel
    times the weight stays bounded.  The shell starts at half the radius
    below which every cutoff vanishes.  Only draws where f and some cutoff
    are not 0 reach the kernel (shell draws off Rg are dropped before they
    are pushed to the graph), and the zeros left out enter each sample's
    stderr in closed form.  An empty eps grid, or an eps that is not
    positive and finite, raises ValueError.
    """
    rows, support_draws = [], []
    eps_grid = [float(e) for e in eps_grid]
    # the shell starts at a fraction of the smallest eps, so it must be > 0
    # for log(rho1 / rho0); an infinite eps truncates everything away
    if not eps_grid or not all(0.0 < e < math.inf for e in eps_grid):
        raise ValueError(f"eps grid must be non-empty with every eps positive and finite, got {eps_grid}")
    pts = [as_points(p) for p in points]
    eps_floor = _SQRT2_4 * min(eps_grid)  # below this radius every cutoff vanishes
    for bi, ball in enumerate(balls):
        region = region_for_ball(ball)
        psi = BumpSpec(center=tuple(ball.center), radius=ball.radius, kind="psi_ball")
        uniform = surface_sample(g, region, n, seed=_scan_seed(seed, 2 * bi))
        w_u, q_u, fa_u = _bump_samples(psi, uniform.w, uniform.points, uniform.grad)
        support_draws.append(len(w_u))
        if not len(w_u):
            continue
        for pi, p in enumerate(pts):
            shell = _Shell(p, region, n, 0.5 * eps_floor, _scan_seed(seed, 1000 + bi * len(pts) + pi))

            def push(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                w = w[region.contains_w(w)]
                w, q, fa = _bump_samples(psi, w, graph_map(g, w), intrinsic_gradient(g, w))
                return _kernel_terms(p, q, fa / shell.density(shell.nu(w)), eps_floor)

            # each sample as (koranyi norm, (K, Kstar) times f * weight) of its kept draws
            strata = [
                _kernel_terms(p, q_u, fa_u / shell.density(shell.nu(w_u)), eps_floor),
                tuple(np.concatenate(part, axis=-1) for part in zip(*_map_chunks(shell.draw, _mc_chunks(n), push))),
            ]
            for eps in eps_grid:
                density = float(shell.density(2.0 * eps))
                if density < 16.0 / eps**2:
                    warnings.warn(f"surface draw density {density:.3g} at 2 eps is below 16/eps^2 = "
                                  f"{16.0 / eps**2:.3g}", SparseSampleWarning, stacklevel=2)
                spec = BumpSpec(radius=eps, kind="phi_eps_exterior")
                total, var = np.zeros(2, dtype=complex), np.zeros(2)  # (op, adj)
                for kor, base in strata:
                    terms = base * _profile(spec, kor / eps)
                    total += terms.sum(axis=-1)
                    # the sample's sum is n times its mean, left-out draws being zeros
                    var += _estimate_from_moments(*_moments(terms, n), n).stderr ** 2
                rows.append(TestingScanRow(
                    ball_center=tuple(float(c) for c in ball.center), ball_radius=ball.radius, eps=eps,
                    p=tuple(float(c) for c in p), op=complex(total[0]), op_stderr=math.sqrt(var[0]),
                    adj=complex(total[1]), adj_stderr=math.sqrt(var[1])))
    return TestingScan(rows=rows, support_draws=support_draws)


def _bump_samples(psi: BumpSpec, w: np.ndarray, points: np.ndarray, grad: np.ndarray):
    """(w, graph points, f * area factor = psi * (1 - i grad)) where f = psi * unit normal is not 0."""
    fvals = bump(psi, points)
    nz = fvals != 0.0
    return w[nz], points[nz], fvals[nz] * (1.0 - 1j * grad[nz])


def _kernel_terms(p: np.ndarray, q: np.ndarray, fw: np.ndarray, eps_floor: float):
    """(koranyi norm, (K, Kstar) times fw) of q^-1 p at the draws where it exceeds eps_floor."""
    m = mul(inv(q), p)
    kor = koranyi_norm(m)
    near = kor > eps_floor
    return kor[near], np.stack(_kernel_pair(m[near])) * fw[near]


def _scan_seed(seed: int, k: int) -> int:
    return SampleConfig(n=1, seed=seed).child(k).seed


# ---------------------------------------------------------------------------
# Divergence theorem check


@dataclass(frozen=True)
class VectorField:
    """Smooth horizontal 2-vector field that vanishes off its support ball."""

    fn: Callable[[np.ndarray], np.ndarray]
    support: Ball
    label: str = "field"

    def __call__(self, p) -> np.ndarray:
        return np.asarray(self.fn(as_points(p)), dtype=float)


def bump_field(center, radius: float, coeffs: tuple[float, float], label: str = "") -> VectorField:
    """Smooth field (a1 psi, a2 psi) built from an interior ball bump."""
    spec = BumpSpec(center=tuple(float(c) for c in as_points(center)), radius=float(radius))
    a1, a2 = (float(c) for c in coeffs)

    def fn(p):
        val = bump(spec, p)
        return np.stack((a1 * val, a2 * val), axis=-1)

    return VectorField(fn, Ball(as_points(center), float(radius)), label or f"bump{coeffs}")


@dataclass(frozen=True)
class DivergenceCheck:
    lhs: Estimate
    rhs: Estimate
    c_hat: float
    flagged: bool


def divergence_check(
    g: IntrinsicGraph,
    V: VectorField,
    cfg: SampleConfig,
) -> DivergenceCheck:
    """Ratio estimate of -int_Omega div V dp against the graph flux of V.

    The volume side integrates chi_Omega div V over the support ball of V,
    off which div V vanishes; for a bump field that is the box-norm ball
    containing the bump's Koranyi ball, since box <= koranyi.  The flux side
    uses the area-formula surface sample with the inward horizontal normal;
    the ratio c_hat estimates the proportionality constant between the two
    sides, which is a property of the measure normalisation and not of the
    field.  A near-zero flux makes the ratio ill-conditioned and is flagged
    instead of reported as a value.
    """

    def integrand(pts):
        return g.indicator(pts) * horizontal_divergence(V, pts)

    lhs_raw = integrate_ball(integrand, V.support, cfg)
    lhs = Estimate(-lhs_raw.value, lhs_raw.stderr, lhs_raw.n)

    region = region_for_ball(V.support)
    sample = surface_sample(g, region, cfg.n, cfg.child(1).seed)
    vals = V(sample.points)
    nz = np.any(vals != 0.0, axis=-1)  # the flux vanishes off the field's support
    nu = _unit_normal(sample.grad[nz])
    flux = (vals[nz, 0] * nu.real + vals[nz, 1] * nu.imag) * sample.weights[nz]
    # the weights carry area / n, so n times the mean flux over all n samples is the estimate
    rhs = _estimate_from_moments(*_moments(flux, sample.n), sample.n)

    flagged = abs(rhs.value) < max(5.0 * rhs.stderr, 1e-12)
    c_hat = math.nan if flagged else lhs.value / rhs.value
    return DivergenceCheck(lhs=lhs, rhs=rhs, c_hat=c_hat, flagged=flagged)
