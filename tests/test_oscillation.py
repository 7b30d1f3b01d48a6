import math
from dataclasses import dataclass

import numpy as np
import pytest

from heiskit import core, domains, riesz
from heiskit.oscillation import (
    ScaleGrid,
    _gaps,
    dini_integral,
    lp_vertical_perimeter,
    osc,
    perimeter_profile,
    vertical_perimeter,
)
from heiskit.quadrature import Estimate, SampleConfig, _ball_chunks, _map_chunks, integrate_ball

BALL = core.Ball(core.point(0, 0, 0), 1.0)
SLAB = domains.slab(0.0)
FLAT = domains.flat(0.0, 0.0)
CFG = SampleConfig(n=100_000, seed=21)

_BUILT_IN = [
    SLAB,
    domains.slab(-0.3),
    *(domains.vertical_holder(1.0, tau) for tau in (0.25, 0.5, 1.0)),
    domains.vertical_holder(3.0, 0.5),
    FLAT,
    domains.flat(0.4, 0.2),
    domains.euclidean_lift("abs", scale=0.5),
    domains.euclidean_lift("sin", scale=1.0),
]
_MOVED = [domains.transform(d, core.point(0.4, -0.3, 0.2), 1.7) for d in _BUILT_IN]
# every built-in family, moved, complemented and both
FAMILIES = _BUILT_IN + _MOVED + [domains.complement(d) for d in _BUILT_IN + _MOVED]


def sampled(dom):
    """The same set without its crossing, so the gap pass samples t."""
    return domains.DomainOracle(dom.indicator, dom.label)


def test_scale_grid():
    g = ScaleGrid(0.25, 2.0, 1)
    np.testing.assert_allclose(g.scales(), [0.25, 0.5, 1.0, 2.0])
    assert g.dlog == pytest.approx(math.log(2))
    with pytest.raises(ValueError):
        ScaleGrid(1.0, 0.5, 1)
    with pytest.raises(ValueError):
        ScaleGrid(0.1, 1.0, 0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ScaleGrid(0.1, bad, 1)


@pytest.mark.parametrize("dom", FAMILIES, ids=lambda d: d.label)
def test_crossing_classifies_points_as_the_indicator(dom):
    # along the vertical line over (x, y) the indicator changes between t
    # and t + h exactly when the line's crossing lies in (t, t + h]
    rng = np.random.default_rng(31)
    p = rng.uniform(-2.0, 2.0, (20_000, 3))
    h = rng.uniform(0.0, 3.0, 20_000)
    cross = dom.crossing(p[:, 0], p[:, 1])
    shifted = p.copy()
    shifted[:, 2] += h
    changes = dom.indicator(p) != dom.indicator(shifted)
    np.testing.assert_array_equal(changes, (cross > p[:, 2]) & (cross <= p[:, 2] + h))
    assert changes.any() or np.all(np.isinf(cross))


def _agree(a, b):
    return abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


@pytest.mark.parametrize("dom", FAMILIES, ids=lambda d: d.label)
def test_fibre_path_matches_sampled_path(dom):
    ball = core.Ball(core.point(0.3, -0.2, 0.1), 0.8)
    a = osc(dom, ball, SampleConfig(n=40_000, seed=61), s_nodes=8)
    b = osc(sampled(dom), ball, SampleConfig(n=40_000, seed=62), s_nodes=8)
    assert _agree(a, b), (a, b)
    a = vertical_perimeter(dom, ball, 0.5, SampleConfig(n=40_000, seed=63))
    b = vertical_perimeter(sampled(dom), ball, 0.5, SampleConfig(n=40_000, seed=64))
    assert _agree(a, b), (a, b)


def test_fibre_path_matches_sampled_path_on_moved_domains():
    # the moved domains and balls of the oscillation-invariance criterion
    rng = np.random.default_rng(1004)
    doms = [SLAB, domains.vertical_holder(1.0, 0.5), domains.vertical_holder(1.0, 1.0)]
    for i in range(20):
        lam = float(np.exp(rng.uniform(-0.7, 0.7)))
        q = rng.uniform(-1, 1, 3)
        moved = domains.transform(doms[i % 3], q, lam)
        ball = core.Ball(core.dilate(lam, q), lam)
        a = osc(moved, ball, SampleConfig(n=40_000, seed=5000 + i), s_nodes=12)
        b = osc(sampled(moved), ball, SampleConfig(n=40_000, seed=6000 + i), s_nodes=12)
        assert _agree(a, b), (i, a, b)
        a = vertical_perimeter(moved, ball, 0.5 * lam, SampleConfig(n=40_000, seed=7000 + i))
        b = vertical_perimeter(sampled(moved), ball, 0.5 * lam, SampleConfig(n=40_000, seed=8000 + i))
        assert _agree(a, b), (i, a, b)


def test_vertical_perimeter_flat_vanishes():
    est = vertical_perimeter(FLAT, BALL, 0.3, CFG)
    assert est.value == 0.0 and est.stderr == 0.0


def test_vertical_perimeter_slab_value():
    est = vertical_perimeter(SLAB, BALL, 0.25, CFG)
    assert abs(est.value - math.pi / 16) <= 3 * est.stderr
    assert 0.0 <= est.value <= BALL.volume


def test_vertical_perimeter_monotone_in_window():
    s = 0.3
    small = vertical_perimeter(SLAB, core.Ball(BALL.center, 0.5), s, CFG)
    big = vertical_perimeter(SLAB, BALL, s, CFG.child(1))
    assert small.value <= big.value + 3 * math.hypot(small.stderr, big.stderr)


def test_vertical_perimeter_validation():
    with pytest.raises(ValueError):
        vertical_perimeter(SLAB, BALL, 0.0, CFG)


def test_osc_values():
    assert osc(FLAT, BALL, CFG).value == 0.0
    est = osc(SLAB, BALL, CFG, s_nodes=32)
    assert abs(est.value - math.pi / 6) <= max(3 * est.stderr, 1e-2)
    with pytest.raises(ValueError):
        osc(SLAB, BALL, CFG, s_nodes=4)


def test_osc_uniform_bound():
    for dom in (SLAB, domains.vertical_holder(3.0, 0.5)):
        for r in (0.25, 1.0, 4.0):
            est = osc(dom, core.Ball(core.point(0.1, -0.2, 0.05), r), SampleConfig(n=20_000, seed=5))
            assert 0.0 <= est.value <= math.pi / 2


def test_osc_complement_symmetry():
    dom = domains.vertical_holder(1.0, 0.5)
    a = osc(dom, BALL, SampleConfig(n=100_000, seed=8), s_nodes=16)
    b = osc(domains.complement(dom), BALL, SampleConfig(n=100_000, seed=9), s_nodes=16)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)
    # pointwise the integrands coincide, so equal seeds give equal bits
    c = osc(domains.complement(dom), BALL, SampleConfig(n=100_000, seed=8), s_nodes=16)
    assert a == c


def test_osc_invariance_under_dilation_and_translation():
    dom = SLAB
    q = core.point(0.4, -0.3, 0.2)
    lam = 1.7
    a = osc(dom, BALL, SampleConfig(n=150_000, seed=10), s_nodes=16)
    moved = domains.transform(dom, q, lam)
    center = core.dilate(lam, core.mul(q, BALL.center))
    b = osc(moved, core.Ball(center, lam * BALL.radius), SampleConfig(n=150_000, seed=11), s_nodes=16)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


def test_osc_approximate_monotonicity():
    # B(p, r) inside B(p, 2r): the scale factor 2 costs at most 2^5 = 32
    dom = domains.vertical_holder(1.0, 1.0)
    for seed, r in ((1, 0.5), (2, 1.0)):
        small = osc(dom, core.Ball(core.point(0, 0, 0), r), SampleConfig(n=60_000, seed=seed), s_nodes=16)
        big = osc(dom, core.Ball(core.point(0, 0, 0), 2 * r), SampleConfig(n=60_000, seed=seed + 50), s_nodes=16)
        assert small.value <= 32.0 * big.value + 6 * math.hypot(small.stderr, big.stderr)


def test_perimeter_profile_matches_single_scale():
    mids, prof, _ = perimeter_profile(SLAB, BALL, CFG, s_nodes=8)
    vals, errs = prof.value, prof.stderr
    k = 3
    single = vertical_perimeter(SLAB, BALL, mids[k], SampleConfig(n=100_000, seed=77))
    assert abs(vals[k] - single.value / BALL.radius**4) <= 3 * math.hypot(errs[k], single.stderr)


def test_one_pass_serves_profile_osc_and_single_scale():
    # on one config, osc is the mean of the profile and vertical_perimeter
    # at a node is r^4 times the profile there
    dom = domains.vertical_holder(1.0, 0.5)
    ball = core.Ball(core.point(0.2, -0.1, 0.05), 0.7)
    cfg = SampleConfig(n=150_000, seed=6)
    mids, prof, prof_osc = perimeter_profile(dom, ball, cfg, s_nodes=16)
    vals, errs = prof.value, prof.stderr
    est = osc(dom, ball, cfg, s_nodes=16)
    assert est == prof_osc
    assert est.value == pytest.approx(vals.mean(), rel=1e-12)
    assert 0.0 < est.stderr <= errs.max()
    for j in (0, 7, 15):
        single = vertical_perimeter(dom, ball, mids[j], cfg)
        assert single.value == pytest.approx(ball.radius**4 * vals[j], rel=1e-12)
        assert single.stderr == pytest.approx(ball.radius**4 * errs[j], rel=1e-12)


def test_perimeter_profile_moments_match_one_pass():
    # three uneven chunks merged in order, against np.mean / np.std over the
    # concatenated stream of the same nodes
    dom = sampled(domains.vertical_holder(1.0, 0.5))
    cfg = SampleConfig(n=150_000, seed=5)
    mids, prof, _ = perimeter_profile(dom, BALL, cfg, s_nodes=4)
    vals, errs = prof.value, prof.stderr
    pts = np.concatenate(_map_chunks(*_ball_chunks(BALL, cfg), lambda p: p))
    base = dom.indicator(pts)
    scale = BALL.volume / BALL.radius**4
    for s, v, e in zip(mids, vals, errs):
        d = np.abs(base - dom.indicator(pts + [0.0, 0.0, s * s]))
        assert v == pytest.approx(scale * d.mean(), rel=1e-12)
        assert e == pytest.approx(scale * np.std(d, ddof=1) / math.sqrt(len(d)), rel=1e-12)
        assert v > 0.0


def test_fibre_profile_moments_match_one_pass():
    # the fibre fractions of the concatenated stream: their mean and std
    # are the merged chunk moments, and at a few points each is the mean of
    # the indicator gap over midpoint nodes of the point's fibre in the
    # ball, which errs by at most one node at each of its two jumps
    dom = domains.vertical_holder(1.0, 0.5)
    ball = core.Ball(core.point(0.2, -0.1, 0.05), 0.7)
    cfg = SampleConfig(n=150_000, seed=5)
    mids, prof, _ = perimeter_profile(dom, ball, cfg, s_nodes=4)
    pts = np.concatenate(_map_chunks(*_ball_chunks(ball, cfg), lambda p: p))
    scale = ball.volume / ball.radius**4
    fractions = list(_gaps(dom, ball, pts, mids))
    for d, v, e in zip(fractions, prof.value, prof.stderr):
        assert v == pytest.approx(scale * d.mean(), rel=1e-12)
        assert e == pytest.approx(scale * np.std(d, ddof=1) / math.sqrt(len(d)), rel=1e-12)
        assert v > 0.0

    k = 4096
    nodes = (np.arange(k) + 0.5) / k - 0.5  # fibre offsets in units of r^2/2
    cx, cy, _ = ball.center
    for i in range(0, 150_000, 1500):
        x, y, _ = pts[i]
        middle = core.mul(ball.center, core.point(x - cx, y - cy, 0.0))
        line = middle + np.outer(nodes * 0.5 * ball.radius**2, [0.0, 0.0, 1.0])
        assert ball.contains(line).all()
        for s, d in zip(mids, fractions):
            gap = np.abs(dom.indicator(line) - dom.indicator(line + [0.0, 0.0, s * s]))
            assert abs(d[i] - gap.mean()) <= 2.0 / k


@pytest.mark.parametrize("s_nodes", [0, -3])
def test_perimeter_profile_rejects_no_nodes(s_nodes):
    with pytest.raises(ValueError, match="scale node"):
        perimeter_profile(SLAB, BALL, CFG, s_nodes=s_nodes)


def test_lp_vertical_perimeter():
    grid = ScaleGrid(0.0625, 1.0, 2)
    flat = lp_vertical_perimeter(FLAT, BALL, 1.0, grid, CFG)
    assert flat.value == 0.0

    res = lp_vertical_perimeter(SLAB, BALL, 1.0, grid, CFG)
    direct = float(np.sum(res.v_values / res.scales) * grid.dlog)
    assert res.value == pytest.approx(direct, rel=1e-12)
    assert res.tail_bound == pytest.approx(BALL.volume / grid.s_max)

    small = lp_vertical_perimeter(SLAB, core.Ball(BALL.center, 0.5), 1.0, grid, CFG.child(2))
    assert small.value <= res.value + 3 * math.hypot(small.stderr, res.stderr)

    with pytest.raises(ValueError):
        lp_vertical_perimeter(SLAB, BALL, 0.5, grid, CFG)


def test_dini_integral():
    grid = ScaleGrid(0.25, 4.0, 1)
    flat = dini_integral(FLAT, core.point(0, 0, 0), grid, CFG)
    assert flat.value == 0.0

    dom = domains.vertical_holder(1.0, 1.0)
    cfg = SampleConfig(n=40_000, seed=3)
    short = dini_integral(dom, core.point(0, 0, 0), ScaleGrid(0.5, 2.0, 1), cfg)
    long = dini_integral(dom, core.point(0, 0, 0), ScaleGrid(0.25, 4.0, 1), cfg)
    assert short.value <= long.value + 3 * math.hypot(short.stderr, long.stderr)
    assert np.all(long.osc_values >= 0.0)


def _smoothstep_d(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 30.0 * u * u * (1.0 - u) ** 2, 0.0)


def _profile_d(spec, u):
    """Derivative in u of the radial profile riesz._profile."""
    a, b = spec._edges
    if spec.kind == "psi_ball":
        return -_smoothstep_d((b - u) / (b - a)) / (b - a)
    return _smoothstep_d((u - a) / (b - a)) / (b - a)


def bump_dt(spec, p):
    """Closed-form t-derivative of the bump.

    With u the koranyi radius of the rescaled argument m, du/dt = 8 m_t /
    (u^3 radius^2); the derivative lives on the transition shell only, so the
    u = 0 singularity of the radius is never touched.
    """
    m = core.dilate(1.0 / spec.radius, core.mul(core.inv(core.point(*spec.center)), p))
    u = core.koranyi_norm(m)
    a, b = spec._edges
    shell = (u > a) & (u < b)
    du = np.where(shell, _profile_d(spec, u), 0.0)
    u_safe = np.where(shell, u, 1.0)
    return du * 8.0 * m[..., 2] / (u_safe**3 * spec.radius**2)


def bump_dt_sup(spec):
    """Tight upper bound for sup |dt bump|.

    On the shell, |dt bump| = |P'(u)| 8 |m_t| / (u^3 r^2) and |m_t| <= u^2/4
    with equality on the t-axis, so the sup equals max_u 2 |P'(u)| / (u r^2);
    the 1-d maximum is resolved on a fine grid.
    """
    a, b = spec._edges
    u = np.linspace(a, b, 20_001)
    vals = 2.0 * np.abs(_profile_d(spec, u)) / u
    return float(vals.max() / spec.radius**2)


@dataclass(frozen=True)
class DtBoundResult:
    lhs: Estimate
    dt_sup: float
    osc_big: Estimate
    bound: float
    ratio: float


def dt_bound_check(omega, ball, psi, cfg):
    """Both sides of the t-derivative bound for bumps supported in the ball.

    lhs = | r^-4 * integral over Omega of dt(psi) |, rhs building blocks are
    the closed-form sup of |dt psi| and the oscillation of the ten-fold ball.
    The support of psi is probe-checked against the ball.
    """
    if not isinstance(psi, riesz.BumpSpec):
        raise TypeError("psi must be a bump specification")
    if psi.kind != "psi_ball":
        raise ValueError("the t-derivative bound applies to interior ball bumps")
    if not np.allclose(psi.center, ball.center) or psi.radius > ball.radius * (1 + 1e-12):
        raise ValueError("bump support must sit inside the integration ball")
    # probe the sandwich: psi vanishes on a shell just outside its ball
    probe = ball.center + np.array([[1.0001 * psi.radius, 0.0, 0.0]])
    if float(riesz.bump(psi, probe)[0]) != 0.0:
        raise ValueError("bump support leaks outside its declared ball")

    r = ball.radius

    def f(pts):
        return omega.indicator(pts) * bump_dt(psi, pts)

    inner = integrate_ball(f, ball, cfg)
    lhs = Estimate(abs(inner.value) / r**4, inner.stderr / r**4, inner.n)
    dt_sup = bump_dt_sup(psi)
    big = osc(omega, core.Ball(ball.center, 10.0 * r), cfg.child(10), s_nodes=16)
    bound = dt_sup * big.value
    if bound == 0.0:
        # degenerate configurations: call the ratio 0 when the left side is
        # a statistical zero, infinite when it is significantly nonzero
        ratio = 0.0 if lhs.value <= 3.0 * lhs.stderr else math.inf
    else:
        ratio = lhs.value / bound
    return DtBoundResult(lhs=lhs, dt_sup=dt_sup, osc_big=big, bound=bound, ratio=ratio)


def test_dt_bound_flat():
    psi = riesz.BumpSpec(center=(0, 0, 0), radius=1.0, kind="psi_ball")
    res = dt_bound_check(FLAT, BALL, psi, CFG)
    assert res.lhs.value <= 3 * res.lhs.stderr
    assert res.bound == 0.0
    assert res.ratio == 0.0


def test_dt_bound_slab_matches_line_integration():
    # along each vertical line the t-derivative integrates to -psi at the
    # crossing, so the slab integral is minus the t = 0 slice integral
    psi = riesz.BumpSpec(center=(0, 0, 0), radius=1.0, kind="psi_ball")
    res = dt_bound_check(SLAB, BALL, psi, SampleConfig(n=400_000, seed=13))
    u = (np.arange(4096) + 0.5) / 4096  # midpoint nodes on [0, 1]
    slice_integral = 2 * math.pi * float(np.sum(riesz._profile(psi, u) * u)) / 4096
    assert abs(res.lhs.value - slice_integral) <= 3 * res.lhs.stderr
    assert res.ratio <= 50.0


def test_dt_bound_ratio_bound_on_families():
    psi = riesz.BumpSpec(center=(0, 0, 0), radius=0.5, kind="psi_ball")
    ball = core.Ball(core.point(0, 0, 0), 0.5)
    for dom in (SLAB, domains.vertical_holder(1.0, 0.5)):
        res = dt_bound_check(dom, ball, psi, SampleConfig(n=100_000, seed=17))
        assert res.ratio <= 50.0


def test_dt_bound_support_guard():
    psi = riesz.BumpSpec(center=(0, 0, 0), radius=2.0, kind="psi_ball")
    with pytest.raises(ValueError):
        dt_bound_check(SLAB, BALL, psi, CFG)
    with pytest.raises(ValueError):
        dt_bound_check(SLAB, BALL, riesz.BumpSpec(radius=1.0, kind="phi_eps_exterior"), CFG)
