import math
import warnings

import numpy as np
import pytest

from heiskit import core, domains, riesz
from heiskit.quadrature import SampleConfig
from test_oscillation import bump_dt, bump_dt_sup

RNG = np.random.default_rng(123)


def random_points(n, low=-2.0, high=2.0, min_norm=1e-2):
    p = RNG.uniform(low, high, (n, 3))
    return p[core.koranyi_norm(p) > min_norm]


def test_kernel_values():
    assert riesz.eval_kernel("dtG", core.point(0, 0, 1)) == pytest.approx(16 / 2**6)
    assert riesz.eval_kernel("Ktilde", core.point(1, 0, 0)) == 0.0
    assert riesz.eval_kernel("G", core.point(1, 0, 0)) == pytest.approx(1.0)
    assert riesz.eval_kernel("Khat", core.point(1, 0, 0)) == pytest.approx(2.0)


def test_kernel_homogeneity():
    p = random_points(500)
    lam = RNG.uniform(0.25, 4.0, len(p))
    for kid, deg in riesz.KERNEL_DEGREES.items():
        a = riesz.eval_kernel(kid, core.dilate(lam, p))
        b = lam**deg * riesz.eval_kernel(kid, p)
        scale = np.maximum(np.abs(a), np.abs(b))
        ok = scale > 0
        assert np.max(np.abs(a - b)[ok] / scale[ok]) <= 1e-10, kid


def test_kernel_errors():
    with pytest.raises(riesz.SingularityError):
        riesz.eval_kernel("K", core.point(0, 0, 0))
    with pytest.raises(KeyError):
        riesz.eval_kernel("nope", core.point(1, 0, 0))


def test_kernel_pair_matches_its_definitions():
    p = random_points(2000)
    k, ks = riesz._kernel_pair(p)

    def close(a, b):
        return np.max(np.abs(a - b) / np.abs(b)) <= 1e-15

    assert close(k, riesz.eval_kernel("XG", p) - 1j * riesz.eval_kernel("YG", p))
    assert close(ks, riesz._kernel_pair(core.inv(p))[0])
    # eval_kernel reads the same pair, and the pair keeps the operand order
    # of the separate closed forms, so the bits agree
    np.testing.assert_array_equal(riesz.eval_kernel("K", p), k)
    np.testing.assert_array_equal(riesz.eval_kernel("Kstar", p), ks)
    x, y, t = p[:, 0], p[:, 1], p[:, 2]
    z2 = x * x + y * y
    m = (z2 * z2 + 16.0 * t * t) ** -1.5
    np.testing.assert_array_equal(k, ((-2.0 * x * z2 + 8.0 * y * t) + 1j * (2.0 * y * z2 + 8.0 * x * t)) * m)
    np.testing.assert_array_equal(ks, ((2.0 * x * z2 + 8.0 * y * t) + 1j * (-2.0 * y * z2 + 8.0 * x * t)) * m)


def test_inversion_identity():
    for q in (core.point(1, 0, 0), core.point(0, 1, 1)):
        assert riesz.inversion_identity_residual(q) <= 1e-10
    p = random_points(100)
    assert np.max(riesz.inversion_identity_residual(p)) <= 1e-10
    # both sides are -3-homogeneous, so the relative residual is scale-free
    r0 = riesz.inversion_identity_residual(core.point(0.3, -0.7, 0.2))
    r1 = riesz.inversion_identity_residual(core.dilate(5.0, core.point(0.3, -0.7, 0.2)))
    assert abs(r0 - r1) <= 1e-10


def test_first_derivative_closed_forms_match_fd():
    G = lambda p: riesz.eval_kernel("G", p)
    pts = random_points(200, min_norm=0.5)
    h = 1e-5
    for frame, kid in (("X", "XG"), ("Y", "YG"), ("Xt", "XtG"), ("Yt", "YtG")):
        fd = riesz.directional_derivative(G, frame, pts, h)
        closed = riesz.eval_kernel(kid, pts)
        assert np.max(np.abs(fd - closed)) <= 1e-6


def test_left_right_divergence():
    const = lambda p: np.stack((np.full(p.shape[:-1], 0.7), np.full(p.shape[:-1], -0.3)), -1)
    lhs, rhs, res = riesz.left_right_divergence_residual(const, core.point(0.5, 1.0, -0.2), 1e-4)
    assert abs(lhs) <= 1e-10 and abs(rhs) <= 1e-10

    # linear-in-t field: both sides equal -y/2 exactly under central differences
    vt = lambda p: np.stack((p[..., 2], np.zeros(p.shape[:-1])), -1)
    lhs, rhs, res = riesz.left_right_divergence_residual(vt, core.point(1, 2, 3), 1e-4)
    assert lhs == pytest.approx(-1.0, abs=1e-9)
    assert res <= 1e-6

    smooth = lambda p: np.stack((np.sin(p[..., 2]) * p[..., 0] ** 2, np.cos(p[..., 0] * p[..., 1])), -1)
    res_h = [riesz.left_right_divergence_residual(smooth, core.point(1, 2, 3), h)[2] for h in (1e-2, 5e-3)]
    assert 3.0 <= res_h[0] / res_h[1] <= 5.0


def test_harmonicity():
    assert riesz.harmonicity_residual(core.point(1, 0, 0), 1e-3) <= 1e-4
    assert riesz.harmonicity_residual(core.point(0, 0, 1), 1e-3) <= 1e-4
    assert riesz.harmonicity_residual(core.point(0, 0, 1), 1e-3, right=True) <= 1e-4
    # truncation order 2 in h
    r = [float(riesz.harmonicity_residual(core.point(0.7, -0.4, 0.3), h)) for h in (1e-2, 5e-3)]
    assert 3.4 <= r[0] / r[1] <= 4.6
    # homogeneity: second derivatives drop 4 orders under dilation at fixed
    # relative step
    lam = 3.0
    base = float(riesz.harmonicity_residual(core.point(1, 0.5, 0.2), 1e-2))
    scaled = float(riesz.harmonicity_residual(core.dilate(lam, core.point(1, 0.5, 0.2)), lam * 1e-2))
    assert scaled == pytest.approx(base / lam**4, rel=1e-3)


def test_bump_sandwich_and_values():
    spec = riesz.BumpSpec(center=(0.2, -0.1, 0.3), radius=0.8)
    assert riesz.bump(spec, core.point(0.2, -0.1, 0.3)) == 1.0
    probes = RNG.uniform(-1.5, 2.0, (50_000, 3))
    v = riesz.bump(spec, probes)
    d = core.dist(probes, core.point(0.2, -0.1, 0.3))
    assert np.all(v[d <= 0.4] == 1.0)
    assert np.all(v[d >= 0.8] == 0.0)
    assert np.all((0.0 <= v) & (v <= 1.0))


def test_exterior_cutoff_sandwich():
    spec = riesz.BumpSpec(radius=0.5, kind="phi_eps_exterior")
    probes = RNG.uniform(-2.0, 2.0, (50_000, 3))
    v = riesz.bump(spec, probes)
    bn = core.box_norm(probes)
    assert np.all(v[bn <= 0.5] == 0.0)
    assert np.all(v[bn >= 1.0] == 1.0)


def test_bump_dt_scaling_and_sup():
    sups = []
    for r in (0.25, 1.0, 4.0):
        spec = riesz.BumpSpec(radius=r)
        probes = core.dilate(r, RNG.uniform(-1.2, 1.2, (100_000, 3)))
        emp = float(np.max(np.abs(bump_dt(spec, probes))))
        bound = bump_dt_sup(spec)
        assert emp <= bound * (1 + 1e-9)
        sups.append(bound * r * r)
    assert max(sups) - min(sups) <= 1e-9 * max(sups)  # exact r^-2 scaling


def test_bump_dt_matches_fd():
    spec = riesz.BumpSpec(center=(0.1, 0.0, -0.2), radius=1.3)
    pts = RNG.uniform(-1.0, 1.0, (500, 3))
    h = 1e-6
    up = pts.copy()
    up[:, 2] += h
    dn = pts.copy()
    dn[:, 2] -= h
    fd = (riesz.bump(spec, up) - riesz.bump(spec, dn)) / (2 * h)
    assert np.max(np.abs(fd - bump_dt(spec, pts))) <= 1e-6


def test_partition_of_exterior_cutoff():
    N = 4
    pts = random_points(5000, min_norm=1e-3)
    total = np.zeros(len(pts))
    cutoff = lambda eps: riesz.bump(riesz.BumpSpec(radius=eps, kind="phi_eps_exterior"), pts)
    for j in range(-9, N + 1):
        # the exterior cutoff at scale 2^-j minus the one at 2^-j+1
        piece = cutoff(2.0**-j) - cutoff(2.0 ** (-j + 1))
        bn = core.box_norm(pts)
        outside = (bn <= 2.0**-j) | (bn >= 2.0 ** (-j + 2))
        assert np.all(piece[outside] == 0.0)  # supported on the dyadic annulus
        total += piece
    target = riesz.bump(riesz.BumpSpec(radius=2.0**-N, kind="phi_eps_exterior"), pts)
    assert np.max(np.abs(total - target)) <= 4 * np.spacing(1.0)


def test_flat_centered_symmetry_cancels():
    g = domains.flat(0.0, 0.0)
    ball = core.Ball(core.point(0, 0, 0), 1.0)
    scan = riesz.testing_scan(g, [ball], [0.5, 0.25], [ball.center], n=200_000, seed=3)
    for row in scan.rows:
        assert abs(row.op) <= 3 * row.op_stderr
        assert abs(row.adj) <= 3 * row.adj_stderr


@pytest.mark.parametrize("eps_grid", [[], [0.0], [-0.5], [0.5, 0.0], [0.5, math.inf]])
def test_testing_scan_rejects_nonpositive_eps_before_sampling(monkeypatch, eps_grid):
    # the patch ladder doubles from 8 * min(eps) up to 2R: at eps <= 0 it
    # never ends; an infinite eps cuts every kernel away and reads as 0
    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(riesz, "surface_sample", no_draw)
    ball = core.Ball(core.point(0, 0, 0), 1.0)
    with pytest.raises(ValueError, match="eps grid"):
        riesz.testing_scan(domains.flat(0.0, 0.0), [ball], eps_grid, [ball.center], n=1000)


def test_adjoint_bilinear_identity():
    g = domains.euclidean_lift("abs", scale=0.5)
    rect = domains.Rect(-1.0, 1.0, -1.0, 1.0)
    sample = domains.surface_sample(g, rect, 600, seed=6)
    fvals = RNG.standard_normal(sample.n) + 1j * RNG.standard_normal(sample.n)
    gvals = RNG.standard_normal(sample.n) + 1j * RNG.standard_normal(sample.n)
    eps = 0.3

    m_all = core.mul(core.inv(sample.points[:, None, :]), sample.points[None, :, :])
    keep = core.box_norm(m_all) >= eps
    np.fill_diagonal(keep, False)
    # nudge masked entries off the origin so the kernel can be evaluated,
    # then zero them out
    safe = m_all + (~keep)[..., None] * np.array([1e-3, 0.0, 0.0])
    kern = np.where(keep, riesz.eval_kernel("K", safe), 0)
    # pairing <u, v> = sum u_i v_i w_i without conjugation
    lhs = np.sum(
        np.sum(kern * (fvals * sample.weights)[:, None], axis=0) * gvals * sample.weights
    )
    # the adjoint side, point by point, with the reflected kernel
    # Kstar(m) = K(m^-1) at m = q_j^-1 p_i, the sharp truncation as above
    rhs_op = np.zeros(sample.n, dtype=complex)
    for i in range(sample.n):
        m = core.mul(core.inv(sample.points), sample.points[i])
        active = core.box_norm(m) >= eps
        kern = riesz.eval_kernel("Kstar", m[active])
        rhs_op[i] = np.sum(kern * gvals[active] * sample.weights[active])
    rhs = np.sum(fvals * sample.weights * rhs_op)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_divergence_check_flat_oracle():
    g = domains.flat(0.0, 0.0)
    V = riesz.bump_field(core.point(0, 0, 0), 1.0, (1.0, 0.0))
    res = riesz.divergence_check(g, V, SampleConfig(n=300_000, seed=7))
    # along the x-axis, -int over {x > 0} of d_x psi equals the x = 0 slice
    # integral of psi; the y/t shear term integrates to zero along lines
    ys = np.linspace(-1.3, 1.3, 1201)
    ts = np.linspace(-0.6, 0.6, 1201)
    Y, T = np.meshgrid(ys, ts, indexing="ij")
    slice_pts = np.stack((np.zeros_like(Y), Y, T), -1)
    vals = riesz.bump(riesz.BumpSpec(center=(0, 0, 0), radius=1.0), slice_pts.reshape(-1, 3))
    oracle = float(vals.sum()) * (ys[1] - ys[0]) * (ts[1] - ts[0])
    assert abs(res.lhs.value - oracle) <= 3 * res.lhs.stderr + 1e-3
    assert res.c_hat == pytest.approx(1.0, abs=0.05)
    assert not res.flagged


def test_divergence_check_zero_field_flagged():
    g = domains.flat(0.0, 0.0)
    zero = riesz.VectorField(lambda p: np.zeros(p.shape[:-1] + (2,)), core.Ball(core.point(0, 0, 0), 1.0))
    res = riesz.divergence_check(g, zero, SampleConfig(n=5_000, seed=8))
    assert res.flagged and math.isnan(res.c_hat)


def test_divergence_lhs_matches_plain_box_monte_carlo():
    # the support-ball integral against plain Monte Carlo over the exact
    # coordinate box of each field's support ball, with its own seed; ten
    # normal deviates all within 4 fail together with probability 6e-4
    fields = [
        ((0, 0, 0), 1.0, (1.0, 0.0)),
        ((0.2, -0.1, 0.1), 0.8, (0.8, 0.4)),
        ((-0.3, 0.2, 0.0), 1.2, (1.0, -0.5)),
        ((0.1, 0.3, -0.2), 0.9, (0.6, 0.2)),
        ((0, -0.2, 0.2), 1.1, (1.0, 0.3)),
    ]
    n = 100_000
    zs = []
    for gi, g in enumerate([domains.flat(0.0, 0.0), domains.euclidean_lift("abs", scale=0.5)]):
        for fi, (center, r, coeffs) in enumerate(fields):
            V = riesz.bump_field(core.point(*center), r, coeffs)
            res = riesz.divergence_check(g, V, SampleConfig(n=n, seed=300 + 10 * gi + fi))
            cx, cy, ct = center
            half = np.array([r, r, 0.25 * r * r + 0.5 * r * math.hypot(cx, cy)])
            pts = np.asarray(center) + half * np.random.default_rng([77, gi, fi]).uniform(-1.0, 1.0, (n, 3))
            vals = -g.indicator(pts) * riesz.horizontal_divergence(V, pts)
            volume = float(np.prod(2.0 * half))
            ref, ref_se = volume * vals.mean(), volume * vals.std(ddof=1) / math.sqrt(n)
            zs.append((res.lhs.value - ref) / math.hypot(res.lhs.stderr, ref_se))
    assert max(abs(z) for z in zs) <= 4.0, zs


def test_divergence_check_field_independent():
    g = domains.euclidean_lift("abs", scale=0.5)
    cs = []
    for k, (center, radius, coeffs) in enumerate(
        [((0, 0, 0), 1.0, (1.0, 0.0)), ((0.2, -0.1, 0.1), 0.8, (0.4, 1.0))]
    ):
        V = riesz.bump_field(core.point(*center), radius, coeffs)
        res = riesz.divergence_check(g, V, SampleConfig(n=300_000, seed=20 + k))
        cs.append(res.c_hat)
    assert abs(cs[0] - cs[1]) / abs(cs[0]) <= 0.05


def dense_testing_scan(g, balls, eps_grid, points, n, seed, patch_factor=8.0):
    """Reference for testing_scan: every stratum is drawn and every sample
    goes through the kernel, the cutoff and the variances, zeros included."""
    rows = []
    eps_grid = [float(e) for e in eps_grid]
    pts = [core.as_points(p) for p in points]
    rho = patch_factor * min(eps_grid)
    eps_floor = 2.0**0.25 * min(eps_grid)
    for bi, ball in enumerate(balls):
        region = domains.region_for_ball(ball)
        coarse = domains.surface_sample(g, region, n, seed=riesz._scan_seed(seed, 2 * bi))
        psi = riesz.BumpSpec(center=tuple(ball.center), radius=ball.radius, kind="psi_ball")
        f_coarse = riesz.bump(psi, coarse.points) * domains._unit_normal(domains.intrinsic_gradient(g, coarse.w))
        for pi, p in enumerate(pts):
            tag = 1000 + 16 * (bi * len(pts) + pi)
            ladder = []
            r_k = rho
            while r_k < 2.0 * ball.radius:
                ladder.append(r_k)
                r_k *= 2.0
            patches = [domains.region_for_ball(core.Ball(p, r_k)) for r_k in ladder]
            layers = []
            for k, patch in enumerate(patches):
                sample_k = domains.surface_sample(g, patch, n, seed=riesz._scan_seed(seed, tag + k))
                mask = None if k == 0 else ~patches[k - 1].contains_w(sample_k.w)
                nu = domains._unit_normal(domains.intrinsic_gradient(g, sample_k.w))
                layers.append((sample_k, riesz.bump(psi, sample_k.points) * nu, mask))
            layers.append((coarse, f_coarse, ~patches[-1].contains_w(coarse.w) if patches else None))
            strata = []
            spacings = []
            for sample, fvals, mask in layers:
                m = core.mul(core.inv(sample.points), p)
                kor = core.koranyi_norm(m)
                active = kor > eps_floor
                if mask is not None:
                    active &= mask
                kern_k = np.zeros(len(m), dtype=complex)
                kern_s = np.zeros(len(m), dtype=complex)
                if np.any(active):
                    kern_k[active] = riesz.eval_kernel("K", m[active])
                    kern_s[active] = riesz.eval_kernel("Kstar", m[active])
                base = np.where(active, fvals * sample.weights, 0.0)
                strata.append((kor, kern_k * base, kern_s * base))
                spacings.append(math.sqrt(sample.region.area / sample.n))
            for eps in eps_grid:
                spacing = spacings[-1]
                for k, r_k in enumerate(ladder):
                    if 2.0 * eps <= r_k:
                        spacing = spacings[k]
                        break
                if spacing > eps / 4.0:
                    warnings.warn(
                        f"surface sample spacing {spacing:.3g} exceeds eps/4 = {eps / 4.0:.3g}",
                        riesz.SparseSampleWarning,
                    )
                spec = riesz.BumpSpec(radius=eps, kind="phi_eps_exterior")
                op = adj = 0j
                op_var = adj_var = 0.0
                for kor, base_k, base_s in strata:
                    tw = riesz._profile(spec, kor / eps)
                    ck = base_k * tw
                    cs = base_s * tw
                    nn = len(ck)
                    op += complex(ck.sum())
                    adj += complex(cs.sum())
                    if nn > 1:
                        op_var += np.var(ck.real, ddof=1) * nn + np.var(ck.imag, ddof=1) * nn
                        adj_var += np.var(cs.real, ddof=1) * nn + np.var(cs.imag, ddof=1) * nn
                rows.append((eps, op, math.sqrt(op_var), adj, math.sqrt(adj_var)))
    return rows


def _scan_and_warnings(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, [str(w.message) for w in caught if issubclass(w.category, riesz.SparseSampleWarning)]


def _lift_far_field_points(g):
    # the riesz-test CLI grid: every point lies outside or at the edge of
    # the bumps' supports, so most ladder patches miss them
    w = np.array([(y, t) for t in np.linspace(-2.0, 2.0, 2) for y in np.linspace(-2.0, 2.0, 5)])
    return domains.graph_map(g, w)


def _edge_points(g, ball, top):
    """Two graph points whose ladder patch of radius top only just meets the
    ball's parallelogram: one reaches from above into the parallelogram's
    pad, where the bump is 0, the other from the side into a thin slice of
    its support.  Each patch is sheared by its own point's x, not the ball's."""
    region = domains.region_for_ball(ball)
    cy = 0.5 * (region.y0 + region.y1)
    pad_t = 0.5 * (region.t1 - region.t0) * domains._PAD / (1.0 + domains._PAD)
    patch = lambda y, t: domains.region_for_ball(core.Ball(domains.graph_map(g, np.array([y, t])), top))
    # over the patch's y-range the two slopes part by at most |c_x - p_x| * half the range
    base = patch(cy, 0.0)
    tilt = abs(region.slope - base.slope) * 0.5 * (base.y1 - base.y0)
    above = (cy, region.t1 - 0.5 * pad_t + tilt + 0.5 * (base.t1 - base.t0))
    # the support's point of largest y, from a parameter grid over the bounding box
    h = 0.5 * abs(region.slope) * (region.y1 - region.y0)
    Y, T = np.meshgrid(np.linspace(region.y0, region.y1, 801), np.linspace(region.t0 - h, region.t1 + h, 801))
    grid = np.stack((Y.ravel(), T.ravel()), -1)
    psi = riesz.BumpSpec(center=tuple(ball.center), radius=ball.radius)
    inside = grid[riesz.bump(psi, domains.graph_map(g, grid)) > 0.0]
    edge = inside[np.argmax(inside[:, 0])]
    side_y = edge[0] - 0.03 + 0.5 * (base.y1 - base.y0)
    side_slope = patch(side_y, 0.0).slope
    side = (side_y, edge[1] + side_slope * (side_y - edge[0]))
    # the upper patch meets the parallelogram but none of its points lies
    # below the pad; the side patch holds support points near its left edge
    above_patch, side_patch = patch(*above), patch(*side)
    Ya, Ta = np.meshgrid(np.linspace(above_patch.y0, above_patch.y1, 401),
                         np.linspace(above_patch.t0, above_patch.t1, 401))
    wa = np.stack((Ya.ravel(), Ta.ravel() + above_patch.shear(Ya.ravel())), -1)
    assert above_patch.meets(region) and np.any(region.contains_w(wa))
    below_pad = domains.Rect(region.y0, region.y1, region.t0, region.t1 - pad_t, region.slope)
    assert not np.any(below_pad.contains_w(wa))
    assert np.any(side_patch.contains_w(inside))
    assert region.y1 - side_patch.y0 < 0.1 * (side_patch.y1 - side_patch.y0)
    return domains.graph_map(g, np.array([above, side]))


@pytest.mark.parametrize("case", ["lift-far-field", "flat-centred", "edge-overlap", "sparse"])
def test_testing_scan_matches_dense_reference(case):
    eps_grid = [2.0**-k for k in range(1, 5)]
    if case in ("lift-far-field", "sparse"):
        g = domains.euclidean_lift("abs", scale=0.5)
        balls = [core.Ball(core.point(0, 0, 0), r) for r in (0.5, 1.0, 2.0)]
        points, seed = _lift_far_field_points(g), 11
        # at 100 samples the spacing warnings fire, those of skipped strata too
        n = 20_000 if case == "lift-far-field" else 100
    elif case == "flat-centred":
        g = domains.flat(0.0, 0.0)
        p = domains.graph_map(g, np.array([[0.3, -0.2]]))[0]
        balls = [core.Ball(p, r) for r in (0.5, 1.0)]
        points, n, seed = [p], 30_000, 12
    else:
        # eps down to 1/16 makes the ladder 0.5, 1; the top patch has radius 1
        g = domains.euclidean_lift("abs", scale=0.5)
        ball = core.Ball(core.point(0.3, 0.2, 0.0), 1.0)
        balls, n, seed = [ball], 40_000, 13
        points = _edge_points(g, ball, 1.0)
    scan, got_warn = _scan_and_warnings(riesz.testing_scan, g, balls, eps_grid, points, n=n, seed=seed)
    ref, ref_warn = _scan_and_warnings(dense_testing_scan, g, balls, eps_grid, points, n, seed)
    assert got_warn == ref_warn
    assert bool(got_warn) == (case == "sparse")
    assert len(scan.rows) == len(ref)
    nonzero = 0
    for row, (eps, op, op_se, adj, adj_se) in zip(scan.rows, ref):
        assert row.eps == eps
        for a, b in ((row.op, op), (row.adj, adj), (row.op_stderr, op_se), (row.adj_stderr, adj_se)):
            assert abs(a - b) <= 1e-12 * abs(b), (case, eps, a, b)
        nonzero += op != 0
    assert nonzero > 0  # the comparison is not between two tables of zeros
