import itertools
import math

import numpy as np
import pytest

from heiskit import beta, core, domains
from heiskit.oscillation import ScaleGrid
from heiskit.quadrature import SampleConfig


def make_sample(points, weights=None):
    points = np.asarray(points, dtype=float)
    n = len(points)
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    return domains.WeightedSample(
        w=points[:, 1:], points=points, weights=w, region=None, seed=0
    )


def plane_cloud(x, n=2000, y_span=1.0, t_span=0.25, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.uniform(-y_span, y_span, n)
    t = rng.uniform(-t_span, t_span, n)
    return np.stack((np.full(n, float(x)), y, t), -1)


BALL = core.Ball(core.point(0, 0, 0), 1.0)


def test_single_plane_recovers_zero():
    s = make_sample(plane_cloud(0.0))
    assert beta.beta_inf(s, BALL).value <= 1e-6
    assert beta.beta_p(s, BALL, 1.0).value <= 1e-6


def test_shifted_plane_absorbed_by_offset():
    s = make_sample(plane_cloud(0.1))
    res = beta.beta_inf(s, BALL)
    assert res.value <= 1e-6
    assert res.plane.offset == pytest.approx(0.1, abs=1e-6)


def test_two_plane_chebyshev_value():
    pts = np.concatenate([plane_cloud(0.0, seed=1), plane_cloud(0.2, seed=2)])
    s = make_sample(pts)
    res = beta.beta_inf(s, BALL)
    assert res.value == pytest.approx(0.1, rel=1e-3)


def test_two_plane_l1_value_wide_window():
    # y-extent 10 makes tilting the plane worthless, so the weighted-median
    # oracle value (mass-normalised mean distance 0.1, over radius 10) is the
    # optimum up to 5e-5 relative
    ball = core.Ball(core.point(0, 0, 0), 10.0)
    ys = np.linspace(-9.9, 9.9, 120)
    ts = np.linspace(-20.0, 20.0, 40)
    Y, T = np.meshgrid(ys, ts, indexing="ij")
    half = np.stack((np.zeros_like(Y).ravel(), Y.ravel(), T.ravel()), -1)
    pts = np.concatenate([half, half + [0.2, 0, 0]])
    s = make_sample(pts)
    res = beta.beta_p(s, ball, 1.0, normalization="mass")
    # brute force over offsets at the grid angles only
    zs = pts[:, 0]
    brute = min(
        float(np.mean(np.abs(zs - c))) for c in np.linspace(-0.05, 0.25, 2001)
    ) / ball.radius
    assert brute == pytest.approx(0.1 / ball.radius, rel=1e-9)
    assert res.value == pytest.approx(brute, rel=1e-3)


def test_optimizer_matches_dense_brute_force():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(400, 3)) * [0.4, 0.7, 0.3]
    w = rng.uniform(0.5, 1.5, 400)
    ball = core.Ball(core.point(0, 0, 0), 2.0)
    res = beta.beta_p(make_sample(pts, w), ball, 1.0, normalization="mass")

    inside = core.dist(pts, ball.center) <= ball.radius
    zs, ws = pts[inside, :2], w[inside]
    best = math.inf
    for th in np.linspace(0, math.pi, 721, endpoint=False):
        a = zs[:, 0] * math.cos(th) + zs[:, 1] * math.sin(th)
        for c in np.linspace(a.min(), a.max(), 801):
            best = min(best, float(np.sum(ws * np.abs(a - c))))
    brute = best / ws.sum() / ball.radius
    assert res.value <= brute * (1 + 1e-6)
    assert res.value == pytest.approx(brute, rel=1e-3)


def test_monotone_in_p_on_mass_normalisation():
    for k in range(100):
        rng = np.random.default_rng(1000 + k)
        pts = rng.normal(size=(150, 3)) * [0.3, 0.5, 0.2]
        w = rng.uniform(0.5, 2.0, 150)
        s = make_sample(pts, w)
        ball = core.Ball(core.point(0, 0, 0), 2.0)
        b1 = beta.beta_p(s, ball, 1.0, normalization="mass").value
        b2 = beta.beta_p(s, ball, 2.0, normalization="mass").value
        bi = beta.beta_inf(s, ball).value
        assert b1 <= b2 * (1 + 1e-6) + 1e-12
        assert b2 <= bi * (1 + 1e-6) + 1e-12


def test_scale_invariance():
    pts = np.concatenate([plane_cloud(0.0, seed=3), plane_cloud(0.2, seed=4)])
    s = make_sample(pts)
    base = beta.beta_p(s, BALL, 1.0).value
    lam = 3.0
    dil = domains.WeightedSample(
        w=None,
        points=core.dilate(lam, pts),
        weights=np.full(len(pts), 1.0 / len(pts)) * lam**3,
        region=None,
        seed=0,
    )
    scaled = beta.beta_p(dil, core.Ball(core.point(0, 0, 0), lam), 1.0).value
    assert scaled == pytest.approx(base, rel=1e-9)


def test_beta_error_paths():
    s = make_sample(plane_cloud(0.0, n=50))
    far = core.Ball(core.point(50, 0, 0), 0.5)
    with pytest.raises(beta.EmptyBallError):
        beta.beta_inf(s, far)
    with pytest.raises(beta.EmptyBallError):
        beta.beta_p(s, far, 1.0)
    with pytest.raises(ValueError):
        beta.beta_p(s, BALL, 0.5)
    with pytest.raises(ValueError):
        beta.beta_p(s, BALL, math.inf)
    with pytest.raises(ValueError):
        beta.beta_p(s, BALL, 1.0, normalization="bogus")


def l1_reference(z, w, theta):
    """Per-angle weighted median by a stable argsort, and its L1 objective."""
    a = z[:, 0] * math.cos(theta) + z[:, 1] * math.sin(theta)
    order = np.argsort(a, kind="stable")
    cw = np.cumsum(w[order])
    c = a[order[min(int(np.searchsorted(cw, 0.5 * cw[-1])), len(a) - 1)]]
    return float(np.sum(w * np.abs(a - c)))


@pytest.mark.parametrize("m, nodes, ties", [
    (1, 180, False), (2, 180, False), (7, 180, True), (500, 180, True),
    (5000, 180, False), (70_000, 6, True),
])
def test_l1_fit_matches_per_angle_reference(m, nodes, ties):
    # one and two points, tied projections from rounded coordinates, and
    # m above 2^16
    rng = np.random.default_rng(m)
    z = rng.normal(size=(m, 2)) * [0.3, 0.5]
    if ties:
        z = np.round(z, 1)
    w = rng.uniform(0.5, 2.0, m)
    thetas = np.arange(nodes) * (math.pi / nodes)
    objs = [beta._direction_objective(z, w, th, 1.0)[1] for th in thetas]
    ref = [l1_reference(z, w, th) for th in thetas]
    np.testing.assert_allclose(objs, ref, rtol=1e-12, atol=0.0)


def test_beta2_matches_dense_angle_grid():
    # n(theta)^T C n(theta) is lambda_min + (lambda_max - lambda_min)
    # sin^2(theta - theta*), so the best of k grid angles exceeds the exact
    # optimum by at most trace(C) sin^2(pi / 2k)
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(300, 3)) * [0.3, 0.5, 0.2] + [0.1, -0.2, 0.0]
    w = rng.uniform(0.5, 2.0, 300)
    ball = core.Ball(core.point(0, 0, 0), 10.0)
    res = beta.beta_p(make_sample(pts, w), ball, 2.0, normalization="mass")
    k = 3600
    th = np.arange(k) * (math.pi / k)
    a = np.cos(th)[:, None] * pts[:, 0] + np.sin(th)[:, None] * pts[:, 1]
    c = a @ w / w.sum()
    objs = (a - c[:, None]) ** 2 @ w
    exact = (res.value * ball.radius) ** 2 * w.sum()  # sum w d^2 at the reported plane
    d = pts[:, :2] - w @ pts[:, :2] / w.sum()
    slack = float(w @ np.sum(d * d, axis=1)) * math.sin(math.pi / (2 * k)) ** 2
    assert exact <= objs.min() * (1 + 1e-12)
    assert objs.min() <= exact + slack
    a_best = pts[:, 0] * math.cos(res.plane.theta) + pts[:, 1] * math.sin(res.plane.theta)
    assert res.plane.offset == pytest.approx(float(a_best @ w / w.sum()), abs=1e-12)


def pair_width(z):
    """Least width of the points across any line through two of them."""
    best = math.inf
    for i, j in itertools.combinations(range(len(z)), 2):
        d = z[j] - z[i]
        a = z @ (np.array([-d[1], d[0]]) / math.hypot(d[0], d[1]))
        best = min(best, float(a.max() - a.min()))
    return best


@pytest.mark.parametrize("seed", range(12))
def test_beta_inf_matches_all_pairs(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 40))
    pts = rng.normal(size=(m, 3)) * [0.3, 0.5, 0.2]
    ball = core.Ball(core.point(0, 0, 0), 10.0)
    res = beta.beta_inf(make_sample(pts), ball)
    assert res.value == pytest.approx(0.5 * pair_width(pts[:, :2]) / ball.radius, rel=1e-12)
    # the reported plane attains the value
    dist = np.abs(pts[:, :2] @ res.plane.normal - res.plane.offset)
    assert float(dist.max()) == pytest.approx(res.value * ball.radius, rel=1e-12)


def test_beta_inf_exact_zero_on_collinear_points():
    s = make_sample(plane_cloud(0.3, n=30_000, seed=22))
    res = beta.beta_inf(s, BALL)
    assert res.value == 0.0
    assert (res.plane.theta, res.plane.offset) == (0.0, 0.3)


def hull_edge_width(v):
    """Least width of points given in order along a circle arc, across the
    edges of their hull: the chords between neighbours and the closing one."""
    best = math.inf
    for d in np.vstack((np.diff(v, axis=0), v[:1] - v[-1:])):
        a = v @ (np.array([-d[1], d[0]]) / math.hypot(d[0], d[1]))
        best = min(best, float(a.max() - a.min()))
    return best


def test_beta_inf_on_convex_arc():
    # every point of an arc is a hull vertex
    ball = core.Ball(core.point(0, 0, 0), 10.0)
    t = np.linspace(0.0, 0.5 * math.pi, 50_001)  # t = pi/4 is a node
    pts = np.stack((np.cos(t), np.sin(t), np.zeros_like(t)), axis=-1)
    res = beta.beta_inf(make_sample(pts), ball)
    # least width: across the closing chord, to the point at t = pi/4
    assert res.value == pytest.approx(0.5 * (1 - math.sqrt(0.5)) / ball.radius, rel=1e-12)
    rng = np.random.default_rng(23)
    sub = pts[rng.choice(len(pts), 40, replace=False)]
    sub_value = beta.beta_inf(make_sample(sub), ball).value
    assert sub_value == pytest.approx(0.5 * pair_width(sub[:, :2]) / ball.radius, rel=1e-12)
    t = np.sort(rng.uniform(0.0, 1.3 * math.pi, 2000))
    arc = np.stack((np.cos(t), np.sin(t), np.zeros_like(t)), axis=-1)
    arc_value = beta.beta_inf(make_sample(arc), ball).value
    assert arc_value == pytest.approx(0.5 * hull_edge_width(arc[:, :2]) / ball.radius, rel=1e-12)


def l1_line_oracle(z, w):
    """Least weighted L1 distance to a line; an optimal line passes through
    two of the points (Martini-Schoebel)."""
    best = math.inf
    for i, j in itertools.combinations(range(len(z)), 2):
        d = z[j] - z[i]
        normal = np.array([-d[1], d[0]]) / math.hypot(d[0], d[1])
        best = min(best, float(np.sum(w * np.abs((z - z[i]) @ normal))))
    return best


@pytest.mark.parametrize("seed", range(20))
def test_beta1_within_grid_bound_of_two_point_oracle(seed):
    # the optimum is within pi/360 of one of the 180 grid angles, and the
    # objective moves by at most sum w |z - centre| per radian
    rng = np.random.default_rng([seed, 11])
    pts = rng.normal(size=(12, 3)) * [0.3, 0.5, 0.1]
    w = rng.uniform(0.5, 2.0, 12)
    ball = core.Ball(core.point(0, 0, 0), 4.0)
    got = beta.beta_p(make_sample(pts, w), ball, 1.0, normalization="mass").value
    z = pts[:, :2]
    norm = ball.radius * float(w.sum())
    oracle = l1_line_oracle(z, w) / norm
    centre = np.median(z, axis=0)
    slack = float(np.sum(w * np.hypot(*(z - centre).T))) * (math.pi / 360.0) / norm
    assert oracle * (1.0 - 1e-9) <= got <= oracle + slack


def test_general_p_offset_solve_is_convex_consistent():
    s = make_sample(plane_cloud(0.05, n=500, seed=5))
    v3 = beta.beta_p(s, BALL, 3.0, normalization="mass").value
    assert v3 <= 1e-5  # single plane still recovered for non-special p


@pytest.mark.parametrize("p_exp", [1.5, 3.0])
def test_offset_solve_matches_bounded_brent(p_exp):
    # the golden-section offset against scipy's bounded Brent search at the
    # same xatol.  Brent stops within 2 (sqrt(eps) |c| + xatol / 3) of the
    # minimum, and a sum known to about 1e-14 relative pins the minimum only
    # to sqrt(2e-14 f / f'') where its second derivative is f''
    from scipy.optimize import minimize_scalar

    for seed in range(5):
        rng = np.random.default_rng([seed, 3])
        a = rng.normal(size=500) * 0.4 + 0.2
        w = rng.uniform(0.5, 2.0, 500)
        xatol = 1e-10 * max(1.0, float(np.ptp(a)))
        ref = minimize_scalar(lambda c: float(np.sum(w * np.abs(a - c) ** p_exp)), bounds=(a.min(), a.max()),
                              method="bounded", options={"xatol": xatol})
        c, obj = beta._offset_solve(a, w, p_exp)
        curv = p_exp * (p_exp - 1) * float(np.sum(w * np.abs(a - ref.x) ** (p_exp - 2)))
        brent = 2 * (math.sqrt(np.finfo(float).eps) * abs(ref.x) + xatol / 3)
        assert abs(c - ref.x) <= brent + xatol + math.sqrt(2e-14 * ref.fun / curv)
        assert obj <= ref.fun * (1 + 1e-14)


def signed_area(v):
    return 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))


def test_hull_matches_qhull():
    # the same vertices as scipy's Qhull, counter-clockwise, on random sets
    # and on 20,000 points of a circle, every one a vertex
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(17)
    sets = [rng.normal(size=(n, 2)) * rng.uniform(0.1, 3.0, 2) for n in [3, 4, 500, *rng.integers(3, 501, 40)]]
    th = rng.permutation(20_000) * (2 * math.pi / 20_000)
    sets.append(np.stack((np.cos(th), np.sin(th)), -1))
    for z in sets:
        v, ref = beta._hull(z), z[ConvexHull(z).vertices]
        assert len(v) == len(ref) and {tuple(p) for p in v} == {tuple(p) for p in ref}
        assert signed_area(v) > 0
    assert len(v) == 20_000


def test_hull_of_degenerate_sets():
    # Qhull rejects these: a collinear set keeps its two ends, in the order
    # of (x, y), and coincident points keep one
    sample = domains.surface_sample(domains.flat(0.0, 0.0), domains.region_for_ball(BALL), 5000, seed=3)
    z = sample.points[sample.in_ball(BALL)][:, :2]
    assert len(z) > 1000 and not np.any(z[:, 0])
    assert np.array_equal(beta._hull(z), [z[np.argmin(z[:, 1])], z[np.argmax(z[:, 1])]])
    assert np.array_equal(beta._hull(z[[7, 3]]), z[[7, 3]] if z[7, 1] < z[3, 1] else z[[3, 7]])
    assert np.array_equal(beta._hull(np.tile([0.3, -0.2], (5, 1))), [[0.3, -0.2]])


def test_beta_inf_of_degenerate_sets_is_zero():
    for pts in (plane_cloud(0.3, n=200), np.tile([0.3, -0.2, 0.1], (5, 1))):
        res = beta.beta_inf(make_sample(pts), BALL)
        assert res.value == 0.0 and res.plane == core.VerticalPlane(0.0, 0.3)


def test_osc_beta_compare_flat():
    g = domains.flat(0.0, 0.0)
    res = beta.osc_beta_compare(g, BALL, SampleConfig(n=50_000, seed=2))
    assert res.osc.value == 0.0
    assert res.beta1.value <= 1e-6
    assert res.ratio == 0.0


def test_osc_beta_compare_lift():
    # vertical-line-invariant graphs have zero vertical oscillation while the
    # plane-fit side stays positive; the ratio is finite (zero)
    g = domains.euclidean_lift("abs", scale=0.5)
    res = beta.osc_beta_compare(g, BALL, SampleConfig(n=50_000, seed=3))
    assert res.osc.value == 0.0
    assert res.beta1.value > 0.01
    assert math.isfinite(res.ratio)


def holder_like(c):
    def phi(y, t):
        t = np.asarray(t, float)
        out = c * np.sign(t) * np.sqrt(np.abs(t))
        return np.broadcast_to(out, np.broadcast(np.asarray(y, float), t).shape).copy()

    return domains.IntrinsicGraph(phi, label=f"vroot:c={c:g}")


def test_osc_beta_compare_positive_and_dilation_stable():
    g = holder_like(0.5)
    cfg = SampleConfig(n=60_000, seed=4)
    res = beta.osc_beta_compare(g, BALL, cfg)
    assert res.osc.value > 0 and res.beta1.value > 0 and math.isfinite(res.ratio)
    # the profile is invariant under intrinsic dilations, so a dilated ball
    # on the same graph gives the same ratio up to noise
    res2 = beta.osc_beta_compare(g, core.Ball(core.point(0, 0, 0), 2.0), cfg.child(5))
    assert res2.ratio == pytest.approx(res.ratio, rel=0.35)


def test_perimeter_beta_bound_flat():
    g = domains.flat(0.0, 0.0)
    grid = ScaleGrid(0.125, 1.0, 1)
    res = beta.perimeter_beta_bound(
        g, BALL, 1.0, grid, SampleConfig(n=30_000, seed=5),
    )
    assert res.lhs.value == 0.0
    assert res.beta_term <= 1e-4 * res.bulk_term
    assert res.rhs == pytest.approx(res.bulk_term, rel=1e-3)


@pytest.mark.parametrize("p_exp", [2.0, 4.0])
def test_perimeter_beta_fits_beta1_at_every_p(monkeypatch, p_exp):
    # the paper majorises the L^p vertical perimeter by p-th powers of the
    # L^1-based beta numbers, so every local fit is beta_1 whatever p is
    fits = []
    real = beta._fit

    def spy(sample, ball, fit_p, normalization, coarse):
        fits.append(fit_p)
        return real(sample, ball, fit_p, normalization, coarse)

    monkeypatch.setattr(beta, "_fit", spy)
    grid = ScaleGrid(0.25, 1.0, 1)
    res = beta.perimeter_beta_bound(domains.vertical_holder(1.0, 0.5), BALL, p_exp, grid,
                                    SampleConfig(n=5_000, seed=3))
    assert fits == [1.0] * (beta._N_OUTER * len(grid.scales()))
    assert res.beta_term > 0


def test_carleson_scan_flat_and_translation():
    g = domains.flat(0.0, 0.0)
    scan = beta.carleson_scan(
        g, core.point(0, 0, 0), 1.0, 1.0, SampleConfig(n=20_000, seed=6),
    )
    assert scan.ratio <= 1e-6

    gh = holder_like(0.5)
    base = beta.carleson_scan(
        gh, core.point(0, 0, 0), 1.0, 1.0, SampleConfig(n=20_000, seed=7),
    )
    # translate the whole configuration by a vertical-plane element: the
    # graph moves by a plain parameter shift
    b, c = 0.4, -0.3
    shifted = domains.IntrinsicGraph(
        lambda y, t: gh.phi(np.asarray(y, float) - b, np.asarray(t, float) - c),
        label="shifted",
    )
    p0 = core.mul(core.point(0, b, c), core.point(0, 0, 0))
    moved = beta.carleson_scan(
        shifted, p0, 1.0, 1.0, SampleConfig(n=20_000, seed=8),
    )
    assert moved.ratio == pytest.approx(base.ratio, rel=0.35)
    assert base.ratio > 0


@pytest.mark.parametrize("p_exp", [0.0, -1.0])
def test_carleson_scan_rejects_p_below_one(p_exp):
    # on the flat graph every beta number is 0: 0^0 = 1 would report a
    # ratio, 0^-1 would divide by zero
    with pytest.raises(ValueError, match="p exponent must be >= 1"):
        beta.carleson_scan(domains.flat(0.0, 0.0), core.point(0, 0, 0), 1.0, p_exp,
                           SampleConfig(n=1000, seed=0))


def test_carleson_scan_lift_stable_across_window():
    # the lift profile is a cone, so the packing ratio is window-independent
    g = domains.euclidean_lift("abs", scale=0.5)
    ratios = []
    for k, R in enumerate((0.5, 1.0, 2.0)):
        scan = beta.carleson_scan(
            g, core.point(0, 0, 0), R, 1.0, SampleConfig(n=20_000, seed=30 + k),
        )
        ratios.append(scan.ratio)
    assert all(0 < r < math.inf for r in ratios)
    assert max(ratios) / min(ratios) <= 2.0


def test_local_beta_scans_are_pinned():
    # the window sample draws n and every local ball n // 50 points over its
    # sheared parameter region, as shifted, folded lattices (single points
    # below 512 draws); these are the values of the scans, bit for bit.
    # Plain Monte-Carlo draws gave carleson 0.011487449243739673 and
    # beta_term 618.5251413014882, z = -2.37 and +3.17 from these against
    # the seed-to-seed spread of the lattice version (60 and 40 seeds), whose
    # means agree with those of plain draws to z = +0.95 and +0.07.  The
    # perimeter side (lhs) is that of the fibre-exact gap pass over shifted,
    # folded Fibonacci lattices: scrambled Sobol nets gave 0.8771782295689298
    # +- 0.00044582291971284344, z = +0.57 from it, plain Monte Carlo over the
    # fibres 0.8803149318096449 +- 0.004748087327155103, and the sampled
    # pass 0.8806702545710343 +- 0.010118046990410788.  The ratio is lhs / rhs.
    g = domains.vertical_holder(1.0, 0.5)
    cfg = SampleConfig(n=20_000, seed=41)
    assert beta.carleson_scan(g, core.point(0, 0, 0), 1.0, 2.0, cfg).ratio == 0.008623914053958497
    res = beta.perimeter_beta_bound(g, BALL, 1.0, ScaleGrid(0.125, 1.0, 1), cfg.child(1))
    assert (res.lhs.value, res.lhs.stderr) == (0.8775312746763423, 0.00043468195459617193)
    assert (res.beta_term, res.rhs, res.ratio) == (1197.2039843297116, 1198.2039843297116, 0.000732372188836647)

