"""Exact algebraic and metric primitives of the first Heisenberg group.

Points are numpy arrays of shape ``(..., 3)`` holding coordinates
``(x, y, t)``; every operation broadcasts over leading axes, so a single
point ``(3,)`` and a batch ``(n, 3)`` go through the same code path.
All functions are pure closed-form arithmetic with no tolerance knobs.
The distance to a vertical plane is derived where the plane fits use it,
in :mod:`heiskit.beta`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "point",
    "as_points",
    "mul",
    "inv",
    "dilate",
    "box_norm",
    "koranyi_norm",
    "dist",
    "rotate",
    "proj_vertical",
    "embed_vertical",
    "VerticalPlane",
    "Ball",
]


def point(x: float, y: float, t: float) -> np.ndarray:
    """Build a single point (x, y, t) as a float array."""
    return np.array([x, y, t], dtype=float)


def as_points(p) -> np.ndarray:
    """Coerce to a float array of points, validating the coordinate axis."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError(f"points must have shape (..., 3), got {p.shape}")
    return p


def mul(p, q) -> np.ndarray:
    """Group product p * q = (x+x', y+y', t+t' + (x y' - x' y)/2)."""
    p = as_points(p)
    q = as_points(q)
    x, y, t = p[..., 0], p[..., 1], p[..., 2]
    u, v, s = q[..., 0], q[..., 1], q[..., 2]
    return np.stack((x + u, y + v, t + s + 0.5 * (x * v - u * y)), axis=-1)


def inv(p) -> np.ndarray:
    """Group inverse, (-x, -y, -t)."""
    return -as_points(p)


def dilate(lam, p) -> np.ndarray:
    """Anisotropic dilation (lam x, lam y, lam^2 t); lam must be > 0."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
        raise ValueError("dilation factor must be a positive finite number")
    p = as_points(p)
    return np.stack(
        (lam * p[..., 0], lam * p[..., 1], lam**2 * p[..., 2]), axis=-1
    )


def box_norm(p) -> np.ndarray:
    """Homogeneous norm max(|(x, y)|, 2 sqrt(|t|)); balls of the induced
    left-invariant metric are exact Euclidean cylinders."""
    p = as_points(p)
    return np.maximum(
        np.hypot(p[..., 0], p[..., 1]), 2.0 * np.sqrt(np.abs(p[..., 2]))
    )


def koranyi_norm(p) -> np.ndarray:
    """Koranyi norm ((x^2 + y^2)^2 + 16 t^2)^(1/4)."""
    p = as_points(p)
    z2 = p[..., 0] ** 2 + p[..., 1] ** 2
    return (z2**2 + 16.0 * p[..., 2] ** 2) ** 0.25


def dist(p, q) -> np.ndarray:
    """Left-invariant distance d(p, q) = box_norm(q^-1 * p)."""
    return box_norm(mul(inv(q), p))


def rotate(theta, p) -> np.ndarray:
    """Rotation about the t-axis; a group automorphism and an isometry.

    R_theta(x, y, t) = (x cos th + y sin th, -x sin th + y cos th, t).
    """
    theta = np.asarray(theta, dtype=float)
    p = as_points(p)
    c, s = np.cos(theta), np.sin(theta)
    x, y = p[..., 0], p[..., 1]
    return np.stack((x * c + y * s, -x * s + y * c, p[..., 2]), axis=-1)


def proj_vertical(p) -> np.ndarray:
    """Vertical projection onto the (y, t)-plane subgroup, as (y, t + x y / 2).

    The canonical frame is used throughout: the vertical subgroup is the
    (y, t)-plane and its horizontal complement is the x-axis.  Other
    vertical planes are handled by pre-rotating with :func:`rotate`.
    """
    p = as_points(p)
    return np.stack(
        (p[..., 1], p[..., 2] + 0.5 * p[..., 0] * p[..., 1]), axis=-1
    )


def embed_vertical(w) -> np.ndarray:
    """Embed plane coordinates (y, t) as the group element (0, y, t)."""
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != 2:
        raise ValueError(f"plane coordinates must have shape (..., 2), got {w.shape}")
    zeros = np.zeros(w.shape[:-1])
    return np.stack((zeros, w[..., 0], w[..., 1]), axis=-1)


@dataclass(frozen=True)
class VerticalPlane:
    """A vertical plane, i.e. a left coset of a vertical subgroup.

    Parametrised by the angle of its horizontal unit normal and the signed
    offset of the coset along that normal: the plane is the point set
    ``{(x, y, t) : x cos(theta) + y sin(theta) = offset}``.  The pair
    (theta, offset) is normalised so that theta lies in [0, pi); the
    representation with theta + pi corresponds to flipping the sign of the
    offset.  The orientation convention (which side is "positive") is a
    choice of this library, not forced by the geometry.
    """

    theta: float
    offset: float

    def __post_init__(self):
        th = float(self.theta)
        off = float(self.offset)
        k = math.floor(th / math.pi)
        th -= k * math.pi
        if th >= math.pi:  # guard against rounding at the boundary
            th -= math.pi
            k += 1
        if k % 2:
            off = -off
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "offset", off)

    @property
    def normal(self) -> np.ndarray:
        return np.array([math.cos(self.theta), math.sin(self.theta)])


@dataclass
class Ball:
    """Metric ball B(center, radius) of the box norm.

    B(0, r) is the Euclidean cylinder {|(x, y)| <= r} x {|t| <= r^2/4};
    a general ball is its left translate by the center.  The Lebesgue
    volume is (pi/2) r^4 independently of the center.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = as_points(self.center)
        if self.center.shape != (3,):
            raise ValueError("ball center must be a single point")
        if not np.all(np.isfinite(self.center)):
            raise ValueError("ball center must be finite")
        self.radius = float(self.radius)
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("ball radius must be positive and finite")

    @property
    def volume(self) -> float:
        return 0.5 * math.pi * self.radius**4

    def contains(self, p) -> np.ndarray:
        return dist(p, self.center) <= self.radius
