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
from .domains import (IntrinsicGraph, Rect, _unit_normal, graph_map, intrinsic_gradient,
                      region_for_ball, surface_sample)
from .quadrature import Estimate, SampleConfig, _lattice_chunks, _map_chunks, _masked_estimate, integrate_ball

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
    when its draws per unit area at nu = 2 eps, m / |Rg| + m h_p(2 eps) for
    m = R * N draws of each sample, fall below 16 / eps^2, i.e. when their
    mean spacing there exceeds eps / 4."""


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
    no rows.  replicates is the R of the uniform and the shell samples, the
    lattices behind every stderr (0 when there is no ball)."""

    rows: list[TestingScanRow]
    support_draws: list[int]
    replicates: int


class _Shell:
    """The shell sample of m = R * N draws around p, and the mixture's draw density.

    On the parameter plane p's sheared quasi-norm is nu(w) = max(|dy|,
    sqrt(2 |dtau|)), dy = y - y_p, dtau = t - t_p - x_p dy, (y_p, t_p) the
    projection of p; {nu <= rho} is the unpadded region_for_ball(B(p, rho)),
    of area 2 rho^3.  A draw maps a point (u1, u2) of the unit square to rho
    = rho0 e^(L u1), log-uniform on [rho0, rho1] with L = log(rho1 / rho0),
    and to the point at arclength 6 u2 along the boundary of the unit
    nu-ball [-1, 1] x [-1/2, 1/2], which it dilates onto the nu-sphere of
    radius rho.  Dilated back, uniform (a, b) on the unit nu-ball is uniform
    in that arclength, so the density is that of a uniform point of the
    ball dilated to radius rho: h(w) = 1 / (6 L nu^3) on [rho0, rho1].  rho1
    is the largest nu over the region's corners (nu is a maximum of convex
    functions), at least 2 rho0.
    """

    def __init__(self, p: np.ndarray, region: Rect, m: int, rho0: float):
        (self.y, self.t), self.slope = proj_vertical(p), p[0]
        self.uniform_density, self.m, self.rho0 = m / region.area, m, rho0
        ys = np.array([region.y0, region.y0, region.y1, region.y1])
        corners = np.stack((ys, np.array([region.t0, region.t1] * 2) + region.shear(ys)), -1)
        self.rho1 = max(float(np.max(self.nu(corners))), 2.0 * rho0)
        self.log_ratio = math.log(self.rho1 / rho0)

    def nu(self, w: np.ndarray) -> np.ndarray:
        dy = w[..., 0] - self.y
        return np.maximum(np.abs(dy), np.sqrt(2.0 * np.abs(w[..., 1] - self.t - self.slope * dy)))

    def density(self, nu) -> np.ndarray:
        """Draws per unit area of both samples in the region, m / |Rg| + m h, at nu."""
        h = 1.0 / (6.0 * self.log_ratio * np.maximum(nu, self.rho0) ** 3)
        return self.uniform_density + self.m * np.where((nu >= self.rho0) & (nu <= self.rho1), h, 0.0)

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Plane points (..., 2) of the unit-square points u = (u1, u2) of shape (2, ...)."""
        rho = self.rho0 * np.exp(self.log_ratio * u[0])
        arc = 6.0 * u[1]  # from (1, -1/2) counter-clockwise
        a = np.clip(np.abs(arc - 3.5) - 1.5, -1.0, 1.0) * rho
        b = np.clip(1.5 - np.abs(arc - 2.0), -0.5, 0.5) * (rho * rho)
        return np.stack((self.y + a, self.t + self.slope * a + b), -1)


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
    is a defensive mixture of two samples of m = R * N <= n draws, each
    the R shifted, folded lattices of N points of a surface sample (see
    domains.surface_sample): a uniform sample of Rg, shared by every point,
    and p's shell sample (see _Shell), drawn through the chunk map on
    lattices of the same shape.  Each draw w of either sample is weighted
    by the balance heuristic, area factor / (m / |Rg| + m h_p(w)): the
    uniform half covers Rg, so the sum is unbiased, and near p the
    -3-homogeneous kernel times the weight stays bounded.  The shell
    starts at half the radius below which every cutoff vanishes.  Only draws
    where f and some cutoff are not 0 reach the kernel (shell draws off Rg
    are dropped before they are pushed to the graph); each kept draw keeps
    the index of its lattice, the left-out draws count as zeros of theirs,
    and each sample's stderr is the spread of its R lattice sums.  The two
    samples are independent, so their variances add.  An empty eps grid, or
    an eps that is not positive and finite, raises ValueError.
    """
    rows, support_draws, replicates = [], [], 0
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
        shape, replicates = uniform.shape, uniform.replicates  # (R, N), shared by the shell samples
        w_u, q_u, fa_u, rep_u = _bump_samples(psi, uniform.w, uniform.points, uniform.grad,
                                              np.arange(uniform.n) // shape[1])
        support_draws.append(len(w_u))
        if not len(w_u):
            continue
        for pi, p in enumerate(pts):
            shell = _Shell(p, region, uniform.n, 0.5 * eps_floor)
            shell_seed = _scan_seed(seed, 1000 + bi * len(pts) + pi)
            make_unit, chunks = _lattice_chunks(2, shape, shell_seed)

            def terms(first: int, count: int) -> tuple[np.ndarray, ...]:
                # one step from lattices to kernel terms, so no full-size draw outlives its filter
                w = shell.draw(make_unit(first, count)).reshape(-1, 2)
                inside = np.flatnonzero(region.contains_w(w))
                w, rep = w[inside], first + inside // shape[1]
                w, q, fa, rep = _bump_samples(psi, w, graph_map(g, w), intrinsic_gradient(g, w), rep)
                return _kernel_terms(p, q, fa / shell.density(shell.nu(w)), eps_floor, rep)

            # each sample as (koranyi norm, (K, Kstar) times f * weight, lattice) of its kept draws
            strata = [
                _kernel_terms(p, q_u, fa_u / shell.density(shell.nu(w_u)), eps_floor, rep_u),
                tuple(np.concatenate(part, axis=-1) for part in zip(*_map_chunks(terms, chunks, lambda t: t))),
            ]
            for eps in eps_grid:
                density = float(shell.density(2.0 * eps))
                if density < 16.0 / eps**2:
                    warnings.warn(f"surface draw density {density:.3g} at 2 eps is below 16/eps^2 = "
                                  f"{16.0 / eps**2:.3g}", SparseSampleWarning, stacklevel=2)
                spec = BumpSpec(radius=eps, kind="phi_eps_exterior")
                total, var = np.zeros(2, dtype=complex), np.zeros(2)  # (op, adj)
                for kor, base, rep in strata:
                    terms = base * _profile(spec, kor / eps)
                    # the sample's sum is R * N times the mean of its lattice means
                    est = _masked_estimate(terms, rep, shape, uniform.n)
                    total += est.value
                    var += est.stderr**2
                rows.append(TestingScanRow(
                    ball_center=tuple(float(c) for c in ball.center), ball_radius=ball.radius, eps=eps,
                    p=tuple(float(c) for c in p), op=complex(total[0]), op_stderr=math.sqrt(var[0]),
                    adj=complex(total[1]), adj_stderr=math.sqrt(var[1])))
    return TestingScan(rows=rows, support_draws=support_draws, replicates=replicates)


def _bump_samples(psi: BumpSpec, w: np.ndarray, points: np.ndarray, grad: np.ndarray, rep: np.ndarray):
    """(w, graph points, f * area factor = psi * (1 - i grad), lattice) where f = psi * unit normal is not 0."""
    fvals = bump(psi, points)
    nz = fvals != 0.0
    return w[nz], points[nz], fvals[nz] * (1.0 - 1j * grad[nz]), rep[nz]


def _kernel_terms(p: np.ndarray, q: np.ndarray, fw: np.ndarray, eps_floor: float, rep: np.ndarray):
    """(koranyi norm, (K, Kstar) times fw, lattice) of q^-1 p at the draws where it exceeds eps_floor."""
    m = mul(inv(q), p)
    kor = koranyi_norm(m)
    near = kor > eps_floor
    return kor[near], np.stack(_kernel_pair(m[near])) * fw[near], rep[near]


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
    field.  Both sides are lattice estimates, 3-D lattices on the ball and
    2-D lattices on the parameter region: each Estimate has n = R and the
    stderr of its R lattice means, the flux draws off the field's support
    counting as zeros of theirs.  A near-zero flux makes the ratio
    ill-conditioned and is flagged instead of reported as a value.
    """

    def integrand(pts):
        return g.indicator(pts) * horizontal_divergence(V, pts)

    lhs_raw = integrate_ball(integrand, V.support, cfg)
    lhs = Estimate(-lhs_raw.value, lhs_raw.stderr, lhs_raw.n)

    region = region_for_ball(V.support)
    sample = surface_sample(g, region, cfg.n, cfg.child(1).seed)
    vals = V(sample.points)
    nz = np.flatnonzero(np.any(vals != 0.0, axis=-1))  # the flux vanishes off the field's support
    nu = _unit_normal(sample.grad[nz])
    flux = (vals[nz, 0] * nu.real + vals[nz, 1] * nu.imag) * sample.weights[nz]
    # the weights carry area / (R N), so R N times the mean lattice mean is the estimate
    rhs = _masked_estimate(flux, nz // sample.shape[1], sample.shape, sample.n)

    flagged = abs(rhs.value) < max(5.0 * rhs.stderr, 1e-12)
    c_hat = math.nan if flagged else lhs.value / rhs.value
    return DivergenceCheck(lhs=lhs, rhs=rhs, c_hat=c_hat, flagged=flagged)
