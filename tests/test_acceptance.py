"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantities.  Tolerances and calibrated
constants are pinned here; seeds are fixed, so every run reproduces the
same numbers bit for bit.
"""

import math
import os
import time
import warnings
from unittest import mock

import numpy as np

from heiskit import beta, cli, core, domains, oscillation, riesz
from heiskit.quadrature import SampleConfig

# calibrated once on the built-in family suite and frozen
K_BETA = 30.0          # oscillation vs beta comparison, enlargement 24
K_PERIMETER = 0.005    # perimeter vs beta majorant


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_algebra_metric_suite():
    t0 = time.monotonic()
    n = 10_000
    rng = np.random.default_rng(1001)
    P = rng.uniform(-2, 2, (n, 3))
    Q = rng.uniform(-2, 2, (n, 3))
    S = rng.uniform(-2, 2, (n, 3))
    lam = rng.uniform(0.2, 5.0, n)

    def relerr(a, b):
        num = np.abs(a - b)
        if a.ndim > 1:
            num = num.max(axis=-1)
            sc = np.maximum(np.abs(a).max(axis=-1), np.abs(b).max(axis=-1))
        else:
            sc = np.maximum(np.abs(a), np.abs(b))
        return float(np.max(num / np.maximum(sc, 1.0)))

    errs = {
        "associativity": relerr(core.mul(core.mul(P, Q), S), core.mul(P, core.mul(Q, S))),
        "inverse": float(np.max(np.abs(core.mul(P, core.inv(P))))),
        "left invariance": relerr(core.dist(core.mul(S, P), core.mul(S, Q)), core.dist(P, Q)),
        "box homogeneity": relerr(core.box_norm(core.dilate(lam, P)), lam * core.box_norm(P)),
        "koranyi homogeneity": relerr(
            core.koranyi_norm(core.dilate(lam, P)), lam * core.koranyi_norm(P)
        ),
    }
    elapsed = time.monotonic() - t0
    worst = max(errs.values())
    report(
        1,
        "algebra/metric suite",
        worst <= 1e-12 and elapsed < 5.0,
        f"max rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_kernel_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(1002)
    p = rng.uniform(-2, 2, (1000, 3))
    p = p[core.koranyi_norm(p) > 1e-2]
    lam = rng.uniform(0.25, 4.0, len(p))
    worst_hom = 0.0
    for kid, deg in riesz.KERNEL_DEGREES.items():
        a = riesz.eval_kernel(kid, core.dilate(lam, p))
        b = lam**deg * riesz.eval_kernel(kid, p)
        sc = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        worst_hom = max(worst_hom, float(np.max(np.abs(a - b) / sc)))

    ident = float(np.max(riesz.inversion_identity_residual(p[:100])))

    orders = []
    # probe points where the leading truncation coefficient is well away
    # from zero, so the order measurement is clean
    for q in (core.point(1, 0, 0), core.point(0, 0, 1), core.point(0.7, -0.4, 0.3)):
        res = [float(riesz.harmonicity_residual(q, h)) for h in (1e-2, 5e-3, 2.5e-3)]
        orders += [math.log2(res[0] / res[1]), math.log2(res[1] / res[2])]
    elapsed = time.monotonic() - t0
    ok = (
        worst_hom <= 1e-10
        and ident <= 1e-10
        and all(1.8 <= o <= 2.2 for o in orders)
        and elapsed < 30.0
    )
    report(
        2,
        "kernel suite",
        ok,
        f"hom {worst_hom:.2e}, identity {ident:.2e}, orders {[round(o, 3) for o in orders]}, {elapsed:.1f} s",
    )


def test_criterion_3_closed_form_oscillation_oracles():
    t0 = time.monotonic()
    ball = core.Ball(core.point(0, 0, 0), 1.0)
    cfg = SampleConfig(n=200_000, seed=1003)

    flat = oscillation.osc(domains.flat(0.0, 0.0), core.Ball(core.point(0.2, -0.1, 0.4), 0.7), cfg)
    slab = domains.slab(0.0)
    o = oscillation.osc(slab, ball, cfg, s_nodes=32)
    v = oscillation.vertical_perimeter(slab, ball, 0.25, cfg.child(1))
    elapsed = time.monotonic() - t0

    ok = (
        flat.value == 0.0
        and flat.stderr == 0.0
        and abs(o.value - math.pi / 6) <= max(3 * o.stderr, 1e-2)
        and abs(v.value - math.pi / 16) <= max(3 * v.stderr, 1e-2)
        and elapsed < 60.0
    )
    report(
        3,
        "closed-form oscillation oracles",
        ok,
        f"flat {flat.value}, osc {o.value:.5f} (pi/6 {math.pi/6:.5f}), "
        f"v {v.value:.5f} (pi/16 {math.pi/16:.5f}), {elapsed:.1f} s",
    )


def test_criterion_4_oscillation_invariance():
    rng = np.random.default_rng(1004)
    doms = [
        domains.slab(0.0),
        domains.vertical_holder(1.0, 0.5),
        domains.vertical_holder(1.0, 1.0),
    ]
    agree = 0
    cases = 0
    for i in range(20):
        dom = doms[i % 3]
        lam = float(np.exp(rng.uniform(-0.7, 0.7)))
        q = rng.uniform(-1, 1, 3)
        a = oscillation.osc(
            dom, core.Ball(core.point(0, 0, 0), 1.0), SampleConfig(n=60_000, seed=2000 + i), s_nodes=12
        )
        moved = domains.transform(dom, q, lam)
        center = core.dilate(lam, core.mul(q, core.point(0, 0, 0)))
        b = oscillation.osc(
            moved, core.Ball(center, lam), SampleConfig(n=60_000, seed=3000 + i), s_nodes=12
        )
        comb = math.hypot(a.stderr, b.stderr)
        cases += 1
        # the slab's fibre values are exact, their stderr only rounding
        if abs(a.value - b.value) <= 3 * comb + 1e-12 * max(1.0, abs(a.value)):
            agree += 1
    report(4, "oscillation invariance", agree >= 19, f"{agree}/{cases} within 3 combined stderr")


def test_criterion_5_hoelder_decay_slopes():
    t0 = time.monotonic()
    results = {}
    ok = True
    for tau in (0.25, 0.5, 1.0):
        dom = domains.vertical_holder(1.0, tau)

        def profile(kmin, kmax, tag):
            pts = []
            for j, k in enumerate(range(kmin, kmax + 1)):
                r = 2.0**k
                est = oscillation.osc(
                    dom,
                    core.Ball(core.point(0, 0, 0), r),
                    SampleConfig(n=100_000, seed=4000 + tag * 100 + j),
                    s_nodes=12,
                )
                if est.value > 0:
                    pts.append((math.log(r), math.log(est.value)))
            return pts

        below = cli.fit_decay(profile(-6, -1, int(tau * 8)), trim=True).slope_below
        above = cli.fit_decay(profile(1, 6, int(tau * 8) + 1), trim=True).slope_above
        results[tau] = (below, above)
        ok &= (tau - 0.3) <= below <= (tau + 0.4)
        ok &= (-tau - 0.4) <= above <= (-tau + 0.3)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 600.0
    report(
        5,
        "Hoelder oscillation decay",
        ok,
        "; ".join(
            f"tau={t}: below {b:.3f} above {a:.3f}" for t, (b, a) in results.items()
        )
        + f", {elapsed:.0f} s",
    )


def test_criterion_6_osc_vs_beta():
    graphs = [
        domains.flat(0.0, 0.0),
        domains.euclidean_lift("abs", scale=0.5),
        domains.euclidean_lift("abs", scale=1.0),
        domains.vertical_holder(1.0, 0.5),
        domains.vertical_holder(1.0, 1.0),
    ]
    p0 = core.point(0, 0, 0)
    ok = True
    worst = 0.0
    for gi, g in enumerate(graphs):
        for k, r in enumerate((0.5, 1.0, 2.0)):
            cfg = SampleConfig(n=200_000, seed=5000 + 10 * gi + k)
            _, prof, _ = oscillation.perimeter_profile(g, core.Ball(p0, r), cfg, s_nodes=16)
            i = int(np.argmax(prof.value))
            vmax, emax = float(prof.value[i]), float(prof.stderr[i])
            big = core.Ball(p0, 24.0 * r)
            sample = domains.surface_sample(
                g, domains.region_for_ball(big), 200_000, seed=cfg.child(3).seed
            )
            b1 = beta.beta_p(sample, big, 1.0)
            bound = K_BETA * b1.value + 3.0 * emax
            if g.label.startswith("flat"):
                ok &= vmax == 0.0 and b1.value <= 1e-6
            else:
                ok &= vmax <= bound
                if b1.value > 0:
                    worst = max(worst, vmax / b1.value)
    report(
        6,
        "oscillation vs beta comparison",
        ok,
        f"max observed ratio {worst:.1f} vs frozen K_beta {K_BETA}",
    )


def test_criterion_7_divergence_theorem():
    t0 = time.monotonic()
    fields = [
        riesz.bump_field(core.point(0, 0, 0), 1.0, (1.0, 0.0), label="axial"),
        riesz.bump_field(core.point(0.2, -0.1, 0.1), 0.8, (0.8, 0.4), label="mixed"),
        riesz.bump_field(core.point(-0.3, 0.2, 0.0), 1.2, (1.0, -0.5), label="skew"),
        riesz.bump_field(core.point(0.1, 0.3, -0.2), 0.9, (0.6, 0.2), label="small"),
        riesz.bump_field(core.point(0, -0.2, 0.2), 1.1, (1.0, 0.3), label="wide"),
    ]
    graphs = [domains.flat(0.0, 0.0), domains.euclidean_lift("abs", scale=0.5)]
    ok = True
    spreads = []
    for gi, g in enumerate(graphs):
        cs = []
        for fi, V in enumerate(fields):
            res = riesz.divergence_check(g, V, SampleConfig(n=400_000, seed=6000 + 10 * gi + fi))
            ok &= not res.flagged
            cs.append(res.c_hat)
        spread = (max(cs) - min(cs)) / abs(np.mean(cs))
        spreads.append(spread)
        ok &= spread <= 0.05
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    report(
        7,
        "divergence theorem constant",
        ok,
        f"spreads {[f'{s:.3f}' for s in spreads]}, {elapsed:.0f} s",
    )


def test_criterion_8_testing_conditions():
    t0 = time.monotonic()
    eps_grid = [2.0**-k for k in range(1, 7)]
    # probe points cluster where the lift graph actually bends; far from the
    # crease the surface is an exact plane and the transform is identically
    # zero, which says nothing about epsilon trends
    ys = np.linspace(-0.4, 0.4, 5)
    ts = np.linspace(-2.0, 2.0, 2)
    w = np.array([(y, t) for t in ts for y in ys])

    ok = True
    detail = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", riesz.SparseSampleWarning)

        flat = domains.flat(0.0, 0.0)
        worst_z = 0.0
        for j, p in enumerate(domains.graph_map(flat, w)):
            balls = [core.Ball(p, r) for r in (0.5, 1.0, 2.0)]
            scan = riesz.testing_scan(flat, balls, eps_grid, [p], n=400_000, seed=7000 + j)
            for row in scan.rows:
                worst_z = max(
                    worst_z,
                    abs(row.op) / max(row.op_stderr, 1e-300),
                    abs(row.adj) / max(row.adj_stderr, 1e-300),
                )
        ok &= worst_z <= 3.0
        detail.append(f"flat worst z {worst_z:.2f}")

        lift = domains.euclidean_lift("abs", scale=0.5)
        op_abs, adj_abs = [], []
        for j, p in enumerate(domains.graph_map(lift, w)):
            balls = [core.Ball(p, r) for r in (0.5, 1.0, 2.0)]
            scan = riesz.testing_scan(lift, balls, eps_grid, [p], n=400_000, seed=7100 + j)
            op_abs += [abs(r.op) for r in scan.rows]
            adj_abs += [abs(r.adj) for r in scan.rows]
        r_op = max(op_abs) / float(np.median(op_abs))
        r_adj = max(adj_abs) / float(np.median(adj_abs))
        ok &= r_op <= 10.0 and r_adj <= 10.0
        detail.append(f"lift max/median op {r_op:.2f} adj {r_adj:.2f}")

    elapsed = time.monotonic() - t0
    ok &= elapsed < 900.0
    report(8, "Riesz testing conditions", ok, "; ".join(detail) + f", {elapsed:.0f} s")


def test_criterion_9_beta_optimizer_soundness():
    rng = np.random.default_rng(1009)

    def sample_of(points, weights=None):
        points = np.asarray(points, float)
        n = len(points)
        wts = np.full(n, 1.0 / n) if weights is None else weights
        return domains.WeightedSample(
            w=points[:, 1:], points=points, weights=wts, region=None, seed=0
        )

    ball = core.Ball(core.point(0, 0, 0), 1.0)
    y = rng.uniform(-1, 1, 3000)
    t = rng.uniform(-0.25, 0.25, 3000)
    single = np.stack((np.full(3000, 0.1), y, t), -1)
    ok = beta.beta_inf(sample_of(single), ball).value <= 1e-6

    two = np.concatenate([single * [0, 1, 1], single * [0, 1, 1] + [0.2, 0, 0]])
    got = beta.beta_inf(sample_of(two), ball).value
    ok &= abs(got - 0.1) <= 1e-3 * 0.1

    wide = core.Ball(core.point(0, 0, 0), 10.0)
    ys = np.linspace(-9.9, 9.9, 120)
    tss = np.linspace(-20.0, 20.0, 40)
    Y, T = np.meshgrid(ys, tss, indexing="ij")
    half = np.stack((np.zeros_like(Y).ravel(), Y.ravel(), T.ravel()), -1)
    pts2 = np.concatenate([half, half + [0.2, 0, 0]])
    res = beta.beta_p(sample_of(pts2), wide, 1.0, normalization="mass")
    oracle = 0.1 / wide.radius  # weighted-median brute force over offsets
    ok &= abs(res.value - oracle) <= 1e-3 * oracle

    mono_bad = 0
    for k in range(100):
        r = np.random.default_rng(9000 + k)
        pp = r.normal(size=(150, 3)) * [0.3, 0.5, 0.2]
        ww = r.uniform(0.5, 2.0, 150)
        s = sample_of(pp, ww)
        b = core.Ball(core.point(0, 0, 0), 2.0)
        v1 = beta.beta_p(s, b, 1.0, normalization="mass").value
        v2 = beta.beta_p(s, b, 2.0, normalization="mass").value
        vi = beta.beta_inf(s, b).value
        if not (v1 <= v2 * (1 + 1e-6) + 1e-12 and v2 <= vi * (1 + 1e-6) + 1e-12):
            mono_bad += 1
    ok &= mono_bad == 0
    report(
        9,
        "beta optimizer soundness",
        ok,
        f"two-plane sup {got:.5f}, L1 {res.value:.6f} vs {oracle:.6f}, monotonicity violations {mono_bad}",
    )


def _root_graph(c, extra_lift=0.0, label=""):
    def phi(y, t):
        t = np.asarray(t, float)
        out = c * np.sign(t) * np.sqrt(np.abs(t)) + extra_lift * np.abs(np.asarray(y, float))
        return np.broadcast_to(out, np.broadcast(np.asarray(y, float), t).shape).copy()

    return domains.IntrinsicGraph(phi, label=label or f"vroot:c={c:g}")


def test_criterion_10_perimeter_vs_beta():
    t0 = time.monotonic()
    # intrinsically dilation-invariant graphs: both sides of the bound scale
    # exactly, so the ratio is constant across R up to Monte-Carlo noise
    graphs = [
        _root_graph(0.25),
        _root_graph(0.5),
        _root_graph(0.25, extra_lift=0.5, label="lift+vroot"),
    ]
    ok = True
    detail = []
    for gi, g in enumerate(graphs):
        ratios = []
        for k, R in enumerate((0.5, 1.0, 2.0)):
            cfg = SampleConfig(n=100_000, seed=8000 + 10 * gi + k)
            grid = oscillation.ScaleGrid(R / 64, R, 2)
            res = beta.perimeter_beta_bound(g, core.Ball(core.point(0, 0, 0), R), 1.0, grid, cfg)
            ok &= res.lhs.value <= K_PERIMETER * res.rhs
            ratios.append(res.ratio)
        stability = max(ratios) / min(ratios)
        ok &= stability <= 2.0
        detail.append(f"{g.label}: ratios {[f'{r:.2e}' for r in ratios]} stability {stability:.2f}")
    elapsed = time.monotonic() - t0
    report(10, "perimeter vs beta bound", ok, "; ".join(detail) + f", {elapsed:.0f} s")


def test_criterion_11_determinism(tmp_path):
    configs = [
        ["osc-scan", "--domain", "holder:H=1,tau=0.5", "--radius", "1",
         "--samples", "30000", "--seed", "5"],
        ["beta-scan", "--domain", "lift:phi0=abs,scale=0.5", "--radius", "1",
         "--samples", "20000", "--seed", "6"],
        ["dini", "--domain", "slab:t>0", "--scales", "2^-2:2^2:1",
         "--samples", "20000", "--seed", "7"],
        ["riesz-test", "--domain", "flat:theta=0,offset=0", "--radius", "0.5",
         "--samples", "20000", "--seed", "8", "--eps-grid", "2^-1..2^-2"],
    ]
    ok = True
    for i, args in enumerate(configs):
        a = tmp_path / f"a{i}.csv"
        b = tmp_path / f"b{i}.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        with mock.patch.dict(os.environ, {"HEISKIT_WORKERS": "8"}):
            assert cli.main(args + ["--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    report(11, "byte-identical reruns under parallelism", ok, f"{len(configs)} experiments")
