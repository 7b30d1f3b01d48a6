import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heiskit import core

# magnitudes below 1e-100 collapse to exact zero: subnormal arithmetic loses
# relative precision and has no geometric content here
coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(
    lambda x: 0.0 if abs(x) < 1e-100 else x
)
pts = st.tuples(coord, coord, coord).map(lambda c: core.point(*c))
pos = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)


def test_mul_known_value():
    np.testing.assert_allclose(
        core.mul(core.point(1, 0, 0), core.point(0, 1, 0)), [1, 1, 0.5]
    )


def test_identity_element():
    p = core.point(0.3, -1.2, 0.7)
    np.testing.assert_array_equal(core.mul(p, core.point(0, 0, 0)), p)
    np.testing.assert_array_equal(core.mul(core.point(0, 0, 0), p), p)


@given(pts, pts, pts)
@settings(deadline=None, max_examples=200, derandomize=True)
def test_associativity(p, q, s):
    a = core.mul(core.mul(p, q), s)
    b = core.mul(p, core.mul(q, s))
    np.testing.assert_allclose(a, b, atol=1e-12)


@given(pts)
@settings(deadline=None, max_examples=200, derandomize=True)
def test_inverse(p):
    np.testing.assert_allclose(core.mul(p, core.inv(p)), [0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(core.mul(core.inv(p), p), [0, 0, 0], atol=1e-12)


def test_inv_closed_form():
    np.testing.assert_array_equal(core.inv(core.point(1, 2, 3)), [-1, -2, -3])
    np.testing.assert_array_equal(core.inv(core.point(0, 0, 0)), [0, 0, 0])


def test_dilate_values():
    np.testing.assert_allclose(core.dilate(2.0, core.point(1, 1, 1)), [2, 2, 4])
    p = core.point(0.3, -0.7, 1.9)
    np.testing.assert_array_equal(core.dilate(1.0, p), p)
    np.testing.assert_allclose(core.dilate(1 / 3.0, core.dilate(3.0, p)), p, atol=1e-12)


def test_dilate_rejects_nonpositive():
    with pytest.raises(ValueError):
        core.dilate(0.0, core.point(1, 0, 0))
    with pytest.raises(ValueError):
        core.dilate(-2.0, core.point(1, 0, 0))


def test_norm_values():
    assert core.box_norm(core.point(3, 4, 0)) == 5.0
    assert core.box_norm(core.point(0, 0, 1)) == 2.0
    assert core.koranyi_norm(core.point(1, 0, 0)) == 1.0
    assert core.koranyi_norm(core.point(0, 0, 1)) == 2.0
    assert core.dist(core.point(1, 2, 3), core.point(1, 2, 3)) == 0.0


@given(pts, st.floats(min_value=0.1, max_value=10.0))
@settings(deadline=None, max_examples=200, derandomize=True)
def test_norm_homogeneity(p, lam):
    q = core.dilate(lam, p)
    np.testing.assert_allclose(core.box_norm(q), lam * core.box_norm(p), rtol=1e-12)
    np.testing.assert_allclose(core.koranyi_norm(q), lam * core.koranyi_norm(p), rtol=1e-12)


def squared_gauge(q):
    """box_norm(q)^2 = max(|z|^2, 4|t|): Lipschitz in the coordinates, unlike
    box_norm, whose 2 sqrt|t| turns an input rounding of 1e-16 in t into 2e-8."""
    return np.maximum(q[..., 0] ** 2 + q[..., 1] ** 2, 4.0 * np.abs(q[..., 2]))


@given(pts, pts, pts)
@example(core.point(0, 0, 1), core.point(0, 0, 0), core.point(0, 0, 1e-12))
@settings(deadline=None, max_examples=200, derandomize=True)
def test_left_invariance_and_metric_axioms(p, q1, q2):
    # left invariance, compared on the squared gauge of q2^-1 q1.  With
    # coordinates in [-3, 3], (p q2)^-1 (p q1) has |x|, |y| <= 12 and
    # |t| <= 66; counting roundings puts x, y within 24 u and t within about
    # 320 u of exact (u = 2^-53), so the squared gauges differ by < 3e-13
    direct = squared_gauge(core.mul(core.inv(q2), q1))
    moved = squared_gauge(core.mul(core.inv(core.mul(p, q2)), core.mul(p, q1)))
    np.testing.assert_allclose(moved, direct, rtol=0.0, atol=1e-12)
    d = core.dist(q1, q2)
    np.testing.assert_allclose(core.dist(q2, q1), d, atol=1e-12)
    assert core.dist(q1, q2) <= core.dist(q1, p) + core.dist(p, q2) + 1e-12


def test_norm_equivalence():
    rng = np.random.default_rng(0)
    p = rng.uniform(-2, 2, (1000, 3))
    bn, kn = core.box_norm(p), core.koranyi_norm(p)
    assert np.all(bn <= kn + 1e-12)
    assert np.all(kn <= 2**0.25 * bn + 1e-12)


def test_rotation():
    np.testing.assert_allclose(
        core.rotate(math.pi / 2, core.point(1, 0, 0)), [0, -1, 0], atol=1e-12
    )
    p = core.point(0.3, 0.4, -0.2)
    np.testing.assert_array_equal(core.rotate(0.0, p), p)
    # fixes the t-axis and is a group automorphism
    np.testing.assert_allclose(core.rotate(1.2, core.point(0, 0, 0.7)), [0, 0, 0.7], atol=1e-15)
    rng = np.random.default_rng(1)
    a, b = rng.uniform(-2, 2, (2, 500, 3))
    th = rng.uniform(0, 2 * math.pi, 500)
    np.testing.assert_allclose(
        core.rotate(th, core.mul(a, b)), core.mul(core.rotate(th, a), core.rotate(th, b)), atol=1e-12
    )
    np.testing.assert_allclose(
        core.dist(core.rotate(th, a), core.rotate(th, b)), core.dist(a, b), rtol=1e-12, atol=1e-12
    )


def test_projections():
    np.testing.assert_allclose(core.proj_vertical(core.point(2, 3, 0)), [3, 3])
    w = core.proj_vertical(core.point(0, 1.5, -0.4))
    np.testing.assert_allclose(w, [1.5, -0.4])


@given(pts)
@settings(deadline=None, max_examples=200, derandomize=True)
def test_projection_recomposition(p):
    # p splits as w * (x, 0, 0) with w in the (y, t)-plane
    w = core.embed_vertical(core.proj_vertical(p))
    np.testing.assert_allclose(core.mul(w, core.point(p[0], 0, 0)), p, atol=1e-12)


def plane_distance(p, plane):
    """The closed-form metric distance to a vertical plane (see heiskit.beta)."""
    return np.abs(np.asarray(p)[..., :2] @ plane.normal - plane.offset)


def test_plane_normalization():
    pl = core.VerticalPlane(math.pi + 0.3, 1.5)
    assert 0 <= pl.theta < math.pi
    np.testing.assert_allclose(pl.theta, 0.3)
    np.testing.assert_allclose(pl.offset, -1.5)
    same = core.VerticalPlane(0.3, -1.5)
    rng = np.random.default_rng(2)
    probes = rng.uniform(-2, 2, (100, 3))
    np.testing.assert_allclose(
        plane_distance(probes, pl), plane_distance(probes, same)
    )


def test_dist_to_plane_values():
    yt_plane = core.VerticalPlane(0.0, 0.0)
    assert plane_distance(core.point(2, 0, 0), yt_plane) == 2.0
    on_plane = core.point(0, 1.3, -2.0)
    assert plane_distance(on_plane, yt_plane) == 0.0


def test_dist_to_plane_invariant_under_plane_translations():
    rng = np.random.default_rng(3)
    p = rng.uniform(-2, 2, (200, 3))
    w = core.embed_vertical(rng.uniform(-2, 2, (200, 2)))
    np.testing.assert_allclose(
        plane_distance(core.mul(w, p), core.VerticalPlane(0.0, 0.0)),
        plane_distance(p, core.VerticalPlane(0.0, 0.0)),
        atol=1e-12,
    )


def test_dist_to_plane_matches_grid_minimisation():
    # coset points of the plane with normal angle th and offset c:
    # (c cos th - b sin th, c sin th + b cos th, tau) over (b, tau)
    plane = core.VerticalPlane(0.7, 0.4)
    cth, sth = math.cos(plane.theta), math.sin(plane.theta)
    rng = np.random.default_rng(4)
    for p in rng.uniform(-1.5, 1.5, (5, 3)):
        closed = plane_distance(p, plane)

        def min_over_tau(bs, taus):
            # distance to the coset points (z(b), tau); at fixed b it is
            # monotone in the t-part, so the per-b argmin over the tau grid
            # localises the cusp for the next, finer grid
            q = np.empty((len(bs), len(taus), 3))
            q[..., 0] = (plane.offset * cth - bs * sth)[:, None]
            q[..., 1] = (plane.offset * sth + bs * cth)[:, None]
            q[..., 2] = taus[None, :]
            d = core.dist(np.broadcast_to(p, q.shape), q)
            j = np.argmin(d, axis=1)
            return d[np.arange(len(bs)), j], taus[j]

        bs = np.linspace(-3.0, 3.0, 6001)
        d_b, tau_b = min_over_tau(bs, np.linspace(-8.0, 8.0, 2001))
        for width, k in ((2e-2, 401), (2e-4, 401), (2e-6, 401)):
            offs = np.linspace(-width, width, k)
            q = np.empty((len(bs), k, 3))
            q[..., 0] = (plane.offset * cth - bs * sth)[:, None]
            q[..., 1] = (plane.offset * sth + bs * cth)[:, None]
            q[..., 2] = tau_b[:, None] + offs[None, :]
            d = core.dist(np.broadcast_to(p, q.shape), q)
            j = np.argmin(d, axis=1)
            d_b = d[np.arange(len(bs)), j]
            tau_b = q[np.arange(len(bs)), j, 2]
        best = float(d_b.min())
        assert abs(best - closed) <= 1e-3


def test_ball_geometry():
    ball = core.Ball(core.point(0, 0, 0), 1.5)
    assert ball.volume == pytest.approx(0.5 * math.pi * 1.5**4)
    rng = np.random.default_rng(5)
    probes = rng.uniform(-2, 2, (5000, 3))
    in_cyl = (np.hypot(probes[:, 0], probes[:, 1]) <= 1.5) & (np.abs(probes[:, 2]) <= 1.5**2 / 4)
    np.testing.assert_array_equal(ball.contains(probes), in_cyl)


def test_ball_validation():
    with pytest.raises(ValueError):
        core.Ball(core.point(0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        core.Ball(np.zeros((2, 3)), 1.0)
    for bad in (core.point(math.nan, 0, 0), core.point(0, 0, math.inf), core.point(0, -math.inf, 0)):
        with pytest.raises(ValueError, match="center must be finite"):
            core.Ball(bad, 1.0)
