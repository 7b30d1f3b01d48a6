import math
import statistics
import warnings

import numpy as np
import pytest

from heiskit import core, domains, quadrature, riesz
from heiskit.quadrature import SampleConfig, _lattice_chunks, _lattice_shape, _masked_estimate
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
    # the shell sample starts at a fraction of min(eps): at eps <= 0 its
    # log(rho1 / rho0) is undefined; an infinite eps cuts every kernel away
    # and reads as 0
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


def plain_surface_sample(g, region, n, seed):
    """n independent uniform draws of the region pushed to the graph with
    area weights: the plain Monte-Carlo reference of domains.surface_sample."""
    rng = np.random.default_rng(seed)
    y = region.y0 + rng.random(n) * (region.y1 - region.y0)
    w = np.stack((y, region.t0 + rng.random(n) * (region.t1 - region.t0) + region.shear(y)), axis=-1)
    grad = domains.intrinsic_gradient(g, w)
    return domains.WeightedSample(w=w, points=domains.graph_map(g, w), region=region, seed=seed, grad=grad,
                                  weights=domains._area_factor(grad) * (region.area / n))


def dense_testing_scan(g, balls, eps_grid, points, n, seed):
    """Reference for testing_scan by another design, a stratified ladder of
    plain Monte-Carlo samples: around each point the parallelograms
    region_for_ball gives B(p, r_k), r_k doubling from 8 min(eps) up to 2R,
    are nested; stratum k samples patch k minus patch k - 1 and a sample of
    the ball's parallelogram covers the rest.  Every stratum is drawn and
    every sample goes through the kernel, the cutoff and the variances,
    zeros included."""
    rows = []
    eps_grid = [float(e) for e in eps_grid]
    pts = [core.as_points(p) for p in points]
    eps_floor = 2.0**0.25 * min(eps_grid)
    for bi, ball in enumerate(balls):
        region = domains.region_for_ball(ball)
        coarse = plain_surface_sample(g, region, n, riesz._scan_seed(seed, 2 * bi))
        psi = riesz.BumpSpec(center=tuple(ball.center), radius=ball.radius, kind="psi_ball")
        f_coarse = riesz.bump(psi, coarse.points) * domains._unit_normal(domains.intrinsic_gradient(g, coarse.w))
        for pi, p in enumerate(pts):
            tag = 1000 + 16 * (bi * len(pts) + pi)
            ladder = []
            r_k = 8.0 * min(eps_grid)
            while r_k < 2.0 * ball.radius:
                ladder.append(r_k)
                r_k *= 2.0
            patches = [domains.region_for_ball(core.Ball(p, r_k)) for r_k in ladder]
            layers = []
            for k, patch in enumerate(patches):
                sample_k = plain_surface_sample(g, patch, n, riesz._scan_seed(seed, tag + k))
                mask = None if k == 0 else ~patches[k - 1].contains_w(sample_k.w)
                nu = domains._unit_normal(domains.intrinsic_gradient(g, sample_k.w))
                layers.append((sample_k, riesz.bump(psi, sample_k.points) * nu, mask))
            layers.append((coarse, f_coarse, ~patches[-1].contains_w(coarse.w) if patches else None))
            strata = []
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
            for eps in eps_grid:
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


def _lift_far_field_points(g):
    # the riesz-test CLI grid: every point lies outside or at the edge of
    # the bumps' supports
    w = np.array([(y, t) for t in np.linspace(-2.0, 2.0, 2) for y in np.linspace(-2.0, 2.0, 5)])
    return domains.graph_map(g, w)


@pytest.mark.parametrize("case", ["lift-far-field", "flat-centred", "outside-edge", "sparse"])
def test_testing_scan_matches_dense_reference(case):
    eps_grid = [2.0**-k for k in range(1, 5)]
    if case in ("lift-far-field", "sparse"):
        g = domains.euclidean_lift("abs", scale=0.5)
        balls = [core.Ball(core.point(0, 0, 0), r) for r in (0.5, 1.0, 2.0)]
        points, seed = _lift_far_field_points(g), 11
        # at 100 draws the sparse-sample warnings fire, at 20,000 none does
        n = 20_000 if case == "lift-far-field" else 100
    elif case == "flat-centred":
        g = domains.flat(0.0, 0.0)
        p = domains.graph_map(g, np.array([[0.3, -0.2]]))[0]
        balls = [core.Ball(p, r) for r in (0.5, 1.0)]
        points, n, seed = [p], 30_000, 12
    else:
        # a graph point whose parameter lies just past the y1 edge of the
        # ball's parallelogram, halfway up it: part of its shell is dropped
        g = domains.euclidean_lift("abs", scale=0.5)
        ball = core.Ball(core.point(0.3, 0.2, 0.0), 1.0)
        region = domains.region_for_ball(ball)
        y = region.y1 + 0.02
        w = np.array([[y, 0.5 * (region.t0 + region.t1) + region.shear(y)]])
        assert not region.contains_w(w)[0]
        balls, points, n, seed = [ball], domains.graph_map(g, w), 40_000, 13
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan = riesz.testing_scan(g, balls, eps_grid, points, n=n, seed=seed)
    assert any(issubclass(w.category, riesz.SparseSampleWarning) for w in caught) == (case == "sparse")
    # the reference draws from other seeds, so the two estimates are independent
    ref = dense_testing_scan(g, balls, eps_grid, points, n, seed + 100)
    assert len(scan.rows) == len(ref)
    # each complex z-score's tail is at most one normal deviate's, 2 Phi(-k);
    # over 2 * len(ref) of them a correct scan fails with probability <= 1e-3
    k = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / (4 * len(ref)))
    nonzero = 0
    for row, (eps, op, op_se, adj, adj_se) in zip(scan.rows, ref):
        assert row.eps == eps
        for a, b, se in ((row.op, op, math.hypot(row.op_stderr, op_se)),
                         (row.adj, adj, math.hypot(row.adj_stderr, adj_se))):
            assert abs(a - b) <= k * se, (case, eps, a, b, se)
        nonzero += row.op != 0
    assert nonzero > 0  # the comparison is not between two tables of zeros


def lattice_points(n, seed):
    """The unit-square points of a surface sample's lattices for (n, seed), as one (2, R, N) array."""
    make, chunks = _lattice_chunks(2, _lattice_shape(2, n, domains._SURFACE_REPS), seed)
    return np.concatenate([make(*chunk) for chunk in chunks], axis=1)


def test_shell_mixture_weights_are_exact():
    # with f = 1 the balance-heuristic mixture estimates the parallelogram's
    # area without bias, for a point inside it and one outside; each sample's
    # stderr is the spread of its lattice sums, draws off the region zeros
    region = domains.Rect(-0.7, 0.9, -0.4, 0.5, slope=0.6)
    n = 50_000
    uniform = domains.surface_sample(domains.flat(0.0, 0.0), region, n, seed=21)
    for j, p in enumerate([core.point(0.4, 0.3, 0.1), core.point(-1.0, 1.2, 0.8)]):
        shell = riesz._Shell(p, region, uniform.n, 0.01)
        drawn = shell.draw(lattice_points(n, 22 + j)).reshape(-1, 2)
        total, var = 0.0, 0.0
        for w in (uniform.w, drawn):
            keep = np.flatnonzero(region.contains_w(w))
            vals = 1.0 / shell.density(shell.nu(w[keep]))
            est = _masked_estimate(vals, keep // uniform.shape[1], uniform.shape, uniform.n)
            total += est.value
            var += est.stderr**2
        assert abs(total - region.area) <= 4.0 * math.sqrt(var), (j, total, region.area, var)


def test_shell_radius_is_log_uniform():
    region = domains.region_for_ball(core.Ball(core.point(0.2, 0.1, 0.0), 1.0))
    n = 100_000
    shell = riesz._Shell(core.point(0.5, -0.3, 0.2), region, n, 0.003)
    nu = shell.nu(shell.draw(lattice_points(n, 23))).ravel()
    assert np.all((nu >= shell.rho0 * (1 - 1e-12)) & (nu <= shell.rho1 * (1 + 1e-12)))
    # octaves from rho0, the last one cut at rho1; each count is at most
    # binomial, the lattice stratifying rho
    edges = shell.rho0 * 2.0 ** np.arange(math.floor(math.log2(shell.rho1 / shell.rho0)) + 1)
    edges = np.append(edges, shell.rho1)
    counts = np.histogram(nu, bins=edges)[0]
    probs = np.diff(np.log(edges)) / shell.log_ratio
    m = len(nu)
    assert len(counts) >= 8
    assert np.all(np.abs(counts - m * probs) <= 4.0 * np.sqrt(m * probs * (1 - probs))), (counts, m * probs)


def shell_coordinates(shell, w):
    """(nu, arclength) of plane points w about the shell's point: w dilated
    back onto the boundary of the unit nu-ball [-1, 1] x [-1/2, 1/2], the
    arclength counted from (1, -1/2) counter-clockwise."""
    nu = shell.nu(w)
    dy = w[..., 0] - shell.y
    a, b = dy / nu, (w[..., 1] - shell.t - shell.slope * dy) / nu**2
    vertical = np.abs(a) >= np.sqrt(2.0 * np.abs(b))
    arc = np.where(vertical, np.where(a > 0, b + 0.5, 3.5 - b), np.where(b > 0, 2.0 - a, a + 5.0))
    return nu, arc


def test_two_uniform_shell_draw_matches_the_three_uniform_draw():
    # the shell maps (u1, u2) to nu = rho0 e^(L u1) and arclength 6 u2, and
    # that is the law of the draw that dilated a uniform point of the unit
    # nu-ball onto the sphere of a log-uniform radius: the two samples agree
    # in both coordinates (two-sample Kolmogorov-Smirnov, each p > 1e-3)
    from scipy import stats

    region = domains.region_for_ball(core.Ball(core.point(0.2, 0.1, 0.0), 1.0))
    shell = riesz._Shell(core.point(0.5, -0.3, 0.2), region, 40_000, 0.003)
    u = lattice_points(40_000, 24)
    nu, arc = shell_coordinates(shell, shell.draw(u))
    # nu and the arclength round at 1e-16 of the coordinates, about 1e-10 of nu^2 >= 9e-6
    np.testing.assert_allclose(nu, shell.rho0 * np.exp(shell.log_ratio * u[0]), rtol=1e-9)
    assert np.max(np.abs((arc - 6.0 * u[1] + 3.0) % 6.0 - 3.0)) <= 1e-9

    rng = np.random.default_rng(25)
    m = nu.size
    rho = shell.rho0 * np.exp(shell.log_ratio * rng.random(m))
    a, b = 2.0 * rng.random(m) - 1.0, rng.random(m) - 0.5
    s = rho / np.maximum(np.abs(a), np.sqrt(2.0 * np.abs(b)))
    old = np.stack((shell.y + s * a, shell.t + shell.slope * s * a + s * s * b), -1)
    for new, ref in zip((nu.ravel(), arc.ravel()), shell_coordinates(shell, old)):
        assert stats.ks_2samp(new, ref).pvalue > 1e-3


def plain_row(g, ball, eps, p, n, seed):
    """T f(p) and T* f(p) at one eps with their stderrs, by plain Monte Carlo
    over the ball's parallelogram: the sum of f * kernel * cutoff * weight."""
    sample = plain_surface_sample(g, domains.region_for_ball(ball), n, seed)
    psi = riesz.BumpSpec(center=tuple(ball.center), radius=ball.radius)
    m = core.mul(core.inv(sample.points), p)
    cutoff = riesz.bump(riesz.BumpSpec(radius=eps, kind="phi_eps_exterior"), m)
    fw = riesz.bump(psi, sample.points) * domains._unit_normal(sample.grad) * sample.weights * cutoff
    active = cutoff != 0.0
    terms = np.zeros((2, n), dtype=complex)
    terms[:, active] = np.stack(riesz._kernel_pair(m[active])) * fw[active] * n
    return [(t.mean(), math.sqrt((t.real.var(ddof=1) + t.imag.var(ddof=1)) / n)) for t in terms]


def test_lattice_estimates_match_plain_monte_carlo():
    # one testing_scan row and the divergence flux against plain Monte Carlo
    # with its own seed, within 3 combined sigma (the volume side has its
    # own test above)
    g = domains.euclidean_lift("abs", scale=0.5)
    ball = core.Ball(core.point(0.1, 0.2, 0.0), 0.5)
    p = domains.graph_map(g, np.array([0.6, 0.3]))
    scan = riesz.testing_scan(g, [ball], [0.25], [p], n=50_000, seed=30)
    (row,) = scan.rows
    for got, se, (ref, ref_se) in zip((row.op, row.adj), (row.op_stderr, row.adj_stderr),
                                      plain_row(g, ball, 0.25, p, 400_000, 31)):
        assert abs(got - ref) <= 3.0 * math.hypot(se, ref_se), (got, ref, se, ref_se)
        assert 0.0 < se < ref_se

    V = riesz.bump_field(core.point(-0.3, 0.2, 0.0), 1.2, (1.0, -0.5))
    res = riesz.divergence_check(g, V, SampleConfig(n=60_000, seed=32))
    assert (res.lhs.n, res.rhs.n) == (37, 257)
    sample = plain_surface_sample(g, domains.region_for_ball(V.support), 400_000, 33)
    vals, nu = V(sample.points), domains._unit_normal(sample.grad)
    flux = (vals[:, 0] * nu.real + vals[:, 1] * nu.imag) * sample.weights * sample.n
    ref, ref_se = flux.mean(), flux.std(ddof=1) / math.sqrt(sample.n)
    assert abs(res.rhs.value - ref) <= 3.0 * math.hypot(res.rhs.stderr, ref_se)


def test_riesz_stderrs_cover_the_seed_to_seed_spread():
    # as for the gap pass: R lattice means at n = 4,096, 46 on the ball and
    # 315 on the surface, give z-scores against a far finer estimate that
    # follow a t distribution with at least 45 degrees of freedom (a
    # testing_scan row adds two such variances, which only adds degrees of
    # freedom); over 100 seeds each quantity may miss 3 combined sigma as
    # often as the binomial tail allows at a false-failure rate of 5e-4
    from scipy import stats

    g = domains.euclidean_lift("abs", scale=0.5)
    ball = core.Ball(core.point(0.1, 0.2, 0.0), 0.5)
    p = domains.graph_map(g, np.array([0.3, 0.1]))
    V = riesz.bump_field(core.point(0.2, -0.1, 0.1), 0.8, (0.8, 0.4))
    chi = lambda q: g.indicator(q) * (1.0 + q[:, 0] * q[:, 1] + q[:, 2])

    def quantities(n, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", riesz.SparseSampleWarning)
            (row,) = riesz.testing_scan(g, [ball], [0.125], [p], n=n, seed=seed).rows
        div = riesz.divergence_check(g, V, SampleConfig(n=n, seed=seed))
        vol = quadrature.integrate_ball(chi, ball, SampleConfig(n=n, seed=seed))
        return [(row.op.real, row.op_stderr), (row.adj.imag, row.adj_stderr), (div.lhs.value, div.lhs.stderr),
                (div.rhs.value, div.rhs.stderr), (vol.value, vol.stderr)]

    fine = quantities(1 << 20, 1)
    seeds = range(100, 200)
    runs = [quantities(4096, seed) for seed in seeds]
    allowed = stats.binom.isf(5e-4, len(seeds), 2 * stats.t.sf(3.0, 45))
    for k, (ref, ref_se) in enumerate(fine):
        misses = sum(abs(run[k][0] - ref) > 3 * math.hypot(run[k][1], ref_se) for run in runs)
        assert misses <= allowed, (k, misses, allowed, ref)
