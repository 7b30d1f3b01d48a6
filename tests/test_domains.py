import math
import os
from unittest import mock

import numpy as np
import pytest

from heiskit import core, domains
from heiskit.quadrature import _masked_estimate


def normal(g, w):
    """Unit normal of the graph at plane points w, from a fresh gradient."""
    return domains._unit_normal(domains.intrinsic_gradient(g, w))


def density_ratios(g, p, radii, n, seed):
    """Surface-measure density ratios (r, mu(B(p, r))/r^3, stderr) from one
    surface sample over the region of the largest ball."""
    sample = domains.surface_sample(g, domains.region_for_ball(core.Ball(p, max(radii))), n, seed)
    d = core.dist(sample.points, p)
    out = []
    for r in radii:
        # the weight sum is R N times the mean lattice mean, draws off the ball counting as zeros
        keep = np.flatnonzero(d <= r)
        est = _masked_estimate(sample.weights[keep], keep // sample.shape[1], sample.shape, sample.n)
        out.append((r, float(est.value) / r**3, float(est.stderr) / r**3))
    return out


def intrinsic_lipschitz_ratio(g, region, n_pairs=10_000, seed=0):
    """Empirical intrinsic Lipschitz ratio over random pairs in the region.

    Reports max |x-part| / box_norm(vertical part) of Phi(w')^-1 * Phi(w);
    a finite stable value is evidence (not proof) of intrinsic Lipschitz
    regularity.
    """
    rng = np.random.default_rng([seed, 0])
    span_y = region.y1 - region.y0
    span_t = region.t1 - region.t0
    w1 = np.stack(
        (region.y0 + rng.random(n_pairs) * span_y, region.t0 + rng.random(n_pairs) * span_t),
        axis=-1,
    )
    w2 = np.stack(
        (region.y0 + rng.random(n_pairs) * span_y, region.t0 + rng.random(n_pairs) * span_t),
        axis=-1,
    )
    m = core.mul(core.inv(domains.graph_map(g, w2)), domains.graph_map(g, w1))
    num = np.abs(m[..., 0])
    den = core.box_norm(core.embed_vertical(core.proj_vertical(m)))
    ok = den > 1e-12
    if not np.any(ok):
        return 0.0
    return float(np.max(num[ok] / den[ok]))


def test_graph_map_flat():
    g = domains.flat(0.0, 0.0)
    np.testing.assert_allclose(domains.graph_map(g, np.array([1.7, -0.3])), [0, 1.7, -0.3])


def test_graph_map_constant_one():
    one = domains.IntrinsicGraph(lambda y, t: np.ones_like(np.asarray(y, float)), label="one")
    # frozen from the group law: (0, 2, 0) * (1, 0, 0) = (1, 2, -1)
    np.testing.assert_allclose(domains.graph_map(one, np.array([2.0, 0.0])), [1, 2, -1])
    np.testing.assert_allclose(
        domains.graph_map(one, np.array([2.0, 0.0])),
        core.mul(core.point(0, 2, 0), core.point(1, 0, 0)),
    )


def test_boundary_excluded_from_supergraph():
    g = domains.euclidean_lift("abs", scale=0.5)
    w = np.array([[0.4, 1.0], [-1.2, 0.3]])
    on_graph = domains.graph_map(g, w)
    assert np.all(g.indicator(on_graph) == 0.0)


def test_super_sub_graph_complementarity():
    g = domains.euclidean_lift("sin", scale=0.7)
    rng = np.random.default_rng(0)
    p = rng.uniform(-2, 2, (5000, 3))
    w = core.proj_vertical(p)
    below = (p[:, 0] < g.phi(w[:, 0], w[:, 1])).astype(float)  # the strict sub-graph
    total = g.indicator(p) + below
    on_graph = p[:, 0] == g.phi(w[:, 0], w[:, 1])
    assert np.all(total[~on_graph] == 1.0)


def test_intrinsic_gradient_examples():
    const = domains.IntrinsicGraph(lambda y, t: np.full(np.broadcast(y, t).shape, 2.5), label="c")
    assert domains.intrinsic_gradient(const, np.array([0.3, 0.8])) == pytest.approx(0.0, abs=1e-8)

    alpha = 0.7
    lin = domains.IntrinsicGraph(lambda y, t: alpha * np.asarray(y, float), label="lin")
    assert domains.intrinsic_gradient(lin, np.array([1.0, -2.0])) == pytest.approx(alpha, abs=1e-8)

    ramp = domains.IntrinsicGraph(lambda y, t: np.asarray(t, float) + 0 * np.asarray(y, float), label="t")
    assert domains.intrinsic_gradient(ramp, np.array([0.0, 2.0])) == pytest.approx(2.0, abs=1e-6)


def test_intrinsic_gradient_matches_flow_quotient():
    # difference quotient of phi along the integral curve of (d_y + phi d_t)
    g = domains.IntrinsicGraph(
        lambda y, t: 0.5 * np.sin(np.asarray(y, float)) + 0.2 * np.asarray(t, float) ** 2,
        label="smooth",
    )
    h = 1e-5
    for w in ([0.3, 0.4], [-1.0, 0.2], [0.0, 0.0]):
        y, t = w
        grad = domains.intrinsic_gradient(g, np.array(w))

        def flow(s, steps=64):
            yy, tt = y, t
            ds = s / steps
            for _ in range(steps):  # midpoint rule along the graph flow
                k = float(g.phi(yy + 0.5 * ds, tt + 0.5 * ds * float(g.phi(yy, tt))))
                yy, tt = yy + ds, tt + ds * k
            return float(g.phi(yy, tt))

        quotient = (flow(h) - flow(-h)) / (2 * h)
        assert grad == pytest.approx(quotient, abs=1e-4)


def test_normal_examples():
    flat = domains.flat(0.0, 0.0)
    nu = normal(flat, np.array([0.3, -0.7]))
    assert nu == pytest.approx(1.0 + 0.0j)

    lin = domains.IntrinsicGraph(lambda y, t: np.asarray(y, float), label="slope1")
    nu1 = normal(lin, np.array([0.0, 0.0]))
    assert nu1.real == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert nu1.imag == pytest.approx(-1 / math.sqrt(2), abs=1e-6)

    g = domains.euclidean_lift("sin", scale=0.8)
    rng = np.random.default_rng(1)
    w = rng.uniform(-2, 2, (100, 2))
    np.testing.assert_allclose(np.abs(normal(g, w)), 1.0, rtol=1e-12)


def test_surface_sample_weights_and_determinism():
    g = domains.flat(0.0, 0.0)
    rect = domains.Rect(-1.0, 1.0, 0.0, 3.0)
    s = domains.surface_sample(g, rect, 10_000, seed=3)
    assert s.weights.sum() == pytest.approx(rect.area)  # unit density for a flat graph
    s2 = domains.surface_sample(g, rect, 10_000, seed=3)
    assert np.array_equal(s.points, s2.points) and np.array_equal(s.weights, s2.weights)
    assert not np.array_equal(
        s.points, domains.surface_sample(g, rect, 10_000, seed=4).points
    )


def test_surface_sample_parallel_and_normals():
    # three chunks: the pool must keep chunk order; the normal formed from
    # the stored gradient on a masked subset is the one from a fresh
    # gradient there, bit for bit
    rect = domains.Rect(-1.0, 1.0, -0.5, 0.5)
    for g in (domains.euclidean_lift("sin", scale=0.5), domains.vertical_holder(1.0, 0.5)):
        serial = domains.surface_sample(g, rect, 150_000, seed=9)
        with mock.patch.dict(os.environ, {"HEISKIT_WORKERS": "4"}):
            parallel = domains.surface_sample(g, rect, 150_000, seed=9)
        for name in ("w", "points", "weights", "grad"):
            np.testing.assert_array_equal(getattr(serial, name), getattr(parallel, name))
        keep = serial.w[:, 0] > 0.3
        nu = domains._unit_normal(serial.grad[keep])
        np.testing.assert_array_equal(nu, normal(g, serial.w[keep]))


def test_surface_sample_additivity():
    g = domains.euclidean_lift("abs", scale=0.5)
    ball = core.Ball(core.point(0, 0, 0), 0.9)
    whole = domains.Rect(-1.0, 1.0, -0.8, 0.8)
    left = domains.Rect(-1.0, 0.0, -0.8, 0.8)
    right = domains.Rect(0.0, 1.0, -0.8, 0.8)

    def measure(rect, seed):
        s = domains.surface_sample(g, rect, 100_000, seed)
        inside = s.weights * s.in_ball(ball)
        total = float(inside.sum())
        se = float(np.std(inside * s.n, ddof=1) / math.sqrt(s.n))
        return total, se

    m, se = measure(whole, 5)
    ml, sel = measure(left, 6)
    mr, ser = measure(right, 7)
    assert abs(m - (ml + mr)) <= 3 * math.hypot(se, math.hypot(sel, ser))


def unpadded(region):
    """The region without its pad: same centre and slope, half-extents / (1 + pad)."""
    k = 1.0 + domains._PAD
    ym, tm = 0.5 * (region.y0 + region.y1), 0.5 * (region.t0 + region.t1)
    hy, ht = 0.5 * (region.y1 - region.y0) / k, 0.5 * (region.t1 - region.t0) / k
    return domains.Rect(ym - hy, ym + hy, tm - ht, tm + ht, region.slope)


def test_region_for_ball_covers_projections():
    rng = np.random.default_rng(2)
    for _ in range(5):
        center = rng.uniform(-2, 2, 3)
        ball = core.Ball(center, float(rng.uniform(0.3, 2.0)))
        rect = unpadded(domains.region_for_ball(ball))
        m = rng.uniform(-1, 1, (20_000, 3))
        m *= (ball.radius / np.maximum(core.box_norm(m), 1e-9))[:, None] * rng.uniform(
            0, 1, 20_000
        )[:, None]
        pts = core.mul(center, m)
        pts = pts[core.dist(pts, center) <= ball.radius]
        w = core.proj_vertical(pts)
        assert np.all(rect.contains_w(w))


@pytest.mark.parametrize("cx", [0.0, 0.3, -0.7, 1.5, -1.5])
def test_region_for_ball_area_does_not_depend_on_the_centre(cx):
    # the c_x part of the projection's t-extent is a shear of slope c_x
    for rho in (0.125, 1.0, 3.0):
        region = domains.region_for_ball(core.Ball(core.point(cx, 0.4, -0.2), rho))
        assert region.slope == cx
        assert region.area == pytest.approx(2.0 * rho**3 * (1.0 + domains._PAD) ** 2, rel=1e-12)


def test_sheared_sample_matches_plain_box_monte_carlo():
    # the in-ball surface mass of a sheared region's sample against plain
    # Monte Carlo over the region's upright bounding box, drawn here with its
    # own seed; seven normal deviates all within 4 fail together with
    # probability 4e-4
    lift, holder = domains.euclidean_lift("abs", scale=0.5), domains.vertical_holder(1.0, 0.5)
    cases = [
        (lift, (0.6, 0.1), 0.25),
        (lift, (-1.2, 0.3), 1.0),
        (lift, (3.0, 0.0), 0.5),  # c_x = 1.5
        (lift, (-3.0, -0.2), 0.125),
        (holder, (0.4, 0.5), 0.5),
        (holder, (-0.8, -2.0), 1.0),  # c_x = -0.71
        (holder, (1.0, 0.2), 0.25),
    ]
    n = 40_000
    zs = []
    for i, (g, w, r) in enumerate(cases):
        center = domains.graph_map(g, np.array(w))
        ball = core.Ball(center, r)
        region = domains.region_for_ball(ball)
        assert region.slope != 0.0
        s = domains.surface_sample(g, region, n, seed=40 + i)
        sheared = s.weights * s.in_ball(ball) * s.n  # s.n = R N <= n draws
        h = 0.5 * abs(region.slope) * (region.y1 - region.y0)
        y0, y1, t0, t1 = region.y0, region.y1, region.t0 - h, region.t1 + h
        rng = np.random.default_rng([77, i])
        wb = np.stack((rng.uniform(y0, y1, n), rng.uniform(t0, t1, n)), -1)
        inside = core.dist(domains.graph_map(g, wb), center) <= r
        box = (y1 - y0) * (t1 - t0) * domains._area_factor(domains.intrinsic_gradient(g, wb)) * inside
        se = math.hypot(sheared.std(ddof=1) / math.sqrt(s.n), box.std(ddof=1) / math.sqrt(n))
        zs.append((sheared.mean() - box.mean()) / se)
    assert max(abs(z) for z in zs) <= 4.0, zs


def test_regularity_flat_ratio_constant():
    g = domains.flat(0.0, 0.0)
    rows = density_ratios(g, core.point(0, 0, 0), [0.25, 0.5, 1.0], n=100_000, seed=2)
    for r, ratio, se in rows:
        assert abs(ratio - 1.0) <= 3 * se  # plane density is exactly r^3 in these weights
    for (_, r1, e1), (_, r2, e2) in zip(rows, rows[1:]):
        assert abs(r1 - r2) <= 3 * math.hypot(e1, e2)


def test_regularity_stderr_matches_one_pass():
    g = domains.euclidean_lift("abs", scale=0.5)
    p = core.point(0.1, 0.2, 0.0)
    rows = density_ratios(g, p, [0.25, 1.0], n=50_000, seed=4)
    sample = domains.surface_sample(g, domains.region_for_ball(core.Ball(p, 1.0)), 50_000, 4)
    d = core.dist(sample.points, p)
    for r, ratio, se in rows:
        # R times the mean and the stderr of the R explicit lattice sums
        sums = (sample.weights * (d <= r)).reshape(sample.shape).sum(axis=1)
        reps = len(sums)
        assert ratio == pytest.approx(reps * sums.mean() / r**3, rel=1e-12)
        assert se == pytest.approx(reps * np.std(sums, ddof=1) / math.sqrt(reps) / r**3, rel=1e-12)


def test_regularity_doubling():
    g = domains.euclidean_lift("abs", scale=0.5)
    rows = density_ratios(g, core.point(0, 0, 0), [0.5, 1.0], n=100_000, seed=3)
    ratios = [v for _, v, _ in rows]
    assert all(0 < v < math.inf for v in ratios)
    assert max(ratios) / min(ratios) <= 8.0


def test_lift_constant_along_vertical_lines():
    g = domains.euclidean_lift("abs", scale=0.5)
    rng = np.random.default_rng(4)
    p = rng.uniform(-2, 2, (2000, 3))
    shifted = p.copy()
    shifted[:, 2] = rng.uniform(-5, 5, 2000)
    np.testing.assert_array_equal(g.indicator(p), g.indicator(shifted))


def test_vertical_holder_quotients():
    for tau in (0.25, 0.5, 1.0):
        H = 1.5
        g = domains.vertical_holder(H, tau)
        rng = np.random.default_rng(int(tau * 100))
        y = rng.uniform(-1, 1, 10_000)
        t1 = rng.uniform(-3, 3, 10_000)
        t2 = rng.uniform(-3, 3, 10_000)
        gap = np.abs(t1 - t2)
        small = (gap <= 1.0) & (gap > 0)
        large = gap > 1.0
        qs = np.abs(g.phi(y[small], t1[small]) - g.phi(y[small], t2[small]))
        qs /= gap[small] ** ((1 + tau) / 2)
        ql = np.abs(g.phi(y[large], t1[large]) - g.phi(y[large], t2[large]))
        ql /= gap[large] ** ((1 - tau) / 2)
        assert qs.max() <= 1.01 * H
        assert ql.max() <= 1.01 * H


def test_vertical_holder_validation_and_oddness():
    with pytest.raises(ValueError):
        domains.vertical_holder(0.5, 0.5)
    with pytest.raises(ValueError):
        domains.vertical_holder(1.0, 0.0)
    g = domains.vertical_holder(2.0, 0.5)
    t = np.linspace(-3, 3, 101)
    np.testing.assert_allclose(g.phi(0.0, -t), -g.phi(0.0, t), atol=1e-15)


def test_intrinsic_lipschitz_ratio_reported():
    g = domains.vertical_holder(1.0, 0.5)
    rect = domains.Rect(-2, 2, -2, 2)
    ratio = intrinsic_lipschitz_ratio(g, rect, 5000, seed=1)
    assert 0 < ratio < 10.0


def test_flat_family():
    g = domains.flat(0.3, 0.4)
    plane = core.VerticalPlane(0.3, 0.4)
    rng = np.random.default_rng(6)
    p = rng.uniform(-2, 2, (2000, 3))
    side = (p[:, 0] * math.cos(0.3) + p[:, 1] * math.sin(0.3) > 0.4).astype(float)
    np.testing.assert_array_equal(g.indicator(p), side)
    # graph points lie on the plane
    w = rng.uniform(-2, 2, (200, 2))
    on_plane = domains.graph_map(g, w)[:, :2] @ plane.normal - plane.offset
    np.testing.assert_allclose(on_plane, 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        domains.flat(math.pi / 2, 0.0)


def test_transform_and_complement():
    g = domains.slab(0.0)
    moved = domains.transform(g, core.point(0.3, -0.2, 0.5), 2.0)
    rng = np.random.default_rng(7)
    p = rng.uniform(-2, 2, (1000, 3))
    expected = g.indicator(core.mul(core.inv(core.point(0.3, -0.2, 0.5)), core.dilate(0.5, p)))
    np.testing.assert_array_equal(moved.indicator(p), expected)
    comp = domains.complement(g)
    np.testing.assert_array_equal(comp.indicator(p), 1.0 - g.indicator(p))


def test_parse_domain():
    g = domains.parse_domain("flat:theta=0,offset=0")
    assert isinstance(g, domains.IntrinsicGraph)
    g2 = domains.parse_domain("lift:phi0=abs,scale=0.5")
    assert g2.phi(np.array([-2.0]), np.array([0.0]))[0] == pytest.approx(1.0)
    g3 = domains.parse_domain("holder:H=1,tau=0.5")
    assert g3.label == "holder:H=1,tau=0.5"
    s = domains.parse_domain("slab:t>0")
    assert s.indicator(core.point(0, 0, 1)) == 1.0

    for bad in ("mystery:a=1", "flat:bogus=3", "slab:x>0", "lift:phi0=nope"):
        with pytest.raises(ValueError):
            domains.parse_domain(bad)
