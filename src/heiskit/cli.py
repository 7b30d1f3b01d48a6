"""Reproducible experiment runner.

Every experiment is a pure function of its configuration: outputs (CSV or
JSON) are byte-identical across reruns, including under parallel chunk
execution.  Config files are flat key/value text with one section per
experiment; unknown keys are rejected.  Every setting is both a flag and a
config key (the flag is the key with '-' for '_'), and both are read by one
parser, so a run from flags and the same run from its config file have the
same config hash.  Exit codes: 0 success, 1 a built-in assertion failed or
a numerical failure (a ball without sample points, a non-finite integrand,
a kernel singularity), 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__, beta, core, domains, oscillation, riesz
from .quadrature import NonFiniteIntegrandError, SampleConfig, _moments

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "DecayFit",
    "fit_decay",
    "run",
    "main",
]

class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Value parsing for the compact flag syntax


def _parse_number(tok: str) -> float:
    """Accept plain floats and power tokens like 2^-4."""
    tok = tok.strip()
    if "^" in tok:
        base, _, exp = tok.partition("^")
        try:
            return float(base) ** float(exp)
        except OverflowError:
            raise ConfigError(f"{tok!r} overflows a float") from None
    return float(tok)


def _positive(value: float) -> float:
    """A radius, eps or scale bound: positive and finite, else a config error."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ConfigError(f"must be positive and finite, got {value!r}")
    return value


def _parse_list(text: str) -> tuple[float, ...]:
    """Comma list or an octave range 'a..b' (doubling or halving) of
    positive finite values."""
    text = text.strip()
    if not text:
        return ()
    if ".." in text:
        a, _, b = text.partition("..")
        start, stop = _positive(_parse_number(a)), _positive(_parse_number(b))
        ratio = 2.0 if stop >= start else 0.5
        vals = [start]
        guard = 0
        while (vals[-1] < stop * (1 - 1e-12)) if ratio > 1 else (vals[-1] > stop * (1 + 1e-12)):
            vals.append(vals[-1] * ratio)
            guard += 1
            if guard > 200:
                raise ConfigError(f"range {text!r} spans too many octaves")
        return tuple(vals)
    return tuple(_positive(_parse_number(tok)) for tok in text.split(","))


def _parse_center(text: str) -> tuple[float, float, float]:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) != 3:
        raise ConfigError(f"needs three coordinates, got {text!r}")
    coords = tuple(float(p) for p in parts)
    if not all(math.isfinite(c) for c in coords):
        raise ConfigError(f"coordinates must be finite, got {text!r}")
    return coords  # type: ignore[return-value]


def _parse_scales(text: str) -> tuple[float, float, int]:
    parts = text.replace(" ", "").split(":")
    if len(parts) != 3:
        raise ConfigError(f"must look like smin:smax:per_octave, got {text!r}")
    smin, smax = _positive(_parse_number(parts[0])), _positive(_parse_number(parts[1]))
    per = int(parts[2])
    if not smin < smax or per < 1:
        raise ConfigError(f"invalid scale grid {text!r}")
    return smin, smax, per


def _fmt_floats(vals) -> str:
    return ",".join(repr(float(v)) for v in vals)


# Every experiment setting, declared once: (config key, ExperimentConfig
# field, text parser, canonical formatter, CLI metavar).
_SETTINGS = (
    ("domain", "domain", str.strip, str, "family:key=value,..."),
    ("center", "center", _parse_center, _fmt_floats, "x,y,t"),
    ("radius", "radius", lambda text: _positive(float(text)), repr, "r"),
    ("radii", "radii", _parse_list, _fmt_floats, "a,b,... or a..b"),
    ("samples", "samples", int, str, "n"),
    ("seed", "seed", int, str, "n"),
    ("scales", "scales", _parse_scales, lambda s: f"{s[0]!r}:{s[1]!r}:{s[2]}", "smin:smax:per_octave"),
    ("p_exp", "p_exp", float, repr, "p"),
    ("eps_grid", "eps_grid", _parse_list, _fmt_floats, "a,b,... or a..b"),
    ("out", "out", str.strip, str, "path"),
    ("format", "fmt", str.strip, str, "csv|json"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment run."""

    experiment: str
    domain: str = "flat:theta=0,offset=0"
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 1.0
    radii: tuple[float, ...] = ()
    samples: int = 200_000
    seed: int = 0
    scales: tuple[float, float, int] = (0.0625, 4.0, 2)
    p_exp: float = 1.0
    eps_grid: tuple[float, ...] = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)
    out: str = ""
    fmt: str = "csv"

    def __post_init__(self):
        if self.experiment not in _RUNNERS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; known: {tuple(_RUNNERS)}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if self.samples < 1 or self.seed < 0:
            raise ConfigError("samples must be >= 1 and seed >= 0")

    # -- canonical text form (lossless round trip) --------------------------

    def to_text(self) -> str:
        lines = [f"[{self.experiment}]"]
        lines += [f"{key} = {fmt(getattr(self, field))}" for key, field, _, fmt, _ in _SETTINGS]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_section(cls, name: str, section) -> "ExperimentConfig":
        """The config of experiment `name` from raw text values by key; the
        settings left out keep their defaults."""
        unknown = set(section) - {key for key, *_ in _SETTINGS}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)} in [{name}]")
        kwargs = {}
        for key, field, parse, _, _ in _SETTINGS:
            if key in section:
                try:
                    kwargs[field] = parse(section[key])
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from exc
        return cls(name, **kwargs)

    @property
    def config_hash(self) -> str:
        # the output path is not part of the experiment identity
        canonical = dataclasses.replace(self, out="")
        return hashlib.sha256(canonical.to_text().encode()).hexdigest()[:12]


def configs_from_text(text: str) -> list[ExperimentConfig]:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    out = []
    for name in parser.sections():
        out.append(ExperimentConfig.from_section(name, parser[name]))
    if not out:
        raise ConfigError("config file defines no experiment sections")
    return out


# ---------------------------------------------------------------------------
# Decay-slope fitting


@dataclass(frozen=True)
class DecayFit:
    slope_below: float
    slope_above: float
    r2_below: float
    r2_above: float

    @property
    def r2(self) -> float:
        vals = [v for v in (self.r2_below, self.r2_above) if not math.isnan(v)]
        return min(vals) if vals else math.nan


def _line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    if len(xs) < 2 or float(np.ptp(xs)) == 0.0:
        return math.nan, math.nan
    slope, icept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + icept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(_moments(ys)[1])
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def fit_decay(profile, trim: bool = True) -> DecayFit:
    """Least-squares slopes of a (log r, log value) profile on each side of r = 1.

    Zero or non-finite entries are dropped (their slope is undefined, not 0).
    With trim=True the extreme octave at each end is excluded as truncation
    contamination.
    """
    pts = [(float(a), float(b)) for a, b in profile if math.isfinite(a) and math.isfinite(b)]
    if trim and len(pts) >= 3:
        pts = sorted(pts)
        pts = pts[1:-1]
    xs = np.array([a for a, _ in pts])
    ys = np.array([b for _, b in pts])
    below = xs <= 1e-12
    above = xs >= -1e-12
    slope_b, r2_b = _line_fit(xs[below], ys[below])
    slope_a, r2_a = _line_fit(xs[above], ys[above])
    return DecayFit(slope_b, slope_a, r2_b, r2_a)


# ---------------------------------------------------------------------------
# Individual experiments: each returns (columns, rows, summary, ok)


def _radii(cfg: ExperimentConfig) -> tuple[float, ...]:
    return cfg.radii if cfg.radii else (cfg.radius,)


def _graph(cfg: ExperimentConfig) -> domains.IntrinsicGraph:
    dom = domains.parse_domain(cfg.domain)
    if not isinstance(dom, domains.IntrinsicGraph):
        raise ConfigError(f"experiment {cfg.experiment!r} needs a graph domain, got {cfg.domain!r}")
    return dom


def _sample_cfg(cfg: ExperimentConfig) -> SampleConfig:
    return SampleConfig(n=cfg.samples, seed=cfg.seed)


def _exp_invariants(cfg: ExperimentConfig):
    n = 10_000
    rng = np.random.default_rng([cfg.seed, 424242])
    P = rng.uniform(-2.0, 2.0, (n, 3))
    Q = rng.uniform(-2.0, 2.0, (n, 3))
    S = rng.uniform(-2.0, 2.0, (n, 3))
    lam = rng.uniform(0.2, 5.0, n)
    theta = rng.uniform(0.0, 2 * math.pi, n)

    def relerr(a, b):
        num = np.abs(a - b)
        if a.ndim > 1:
            num = num.max(axis=-1)
            sc = np.maximum(np.abs(a).max(axis=-1), np.abs(b).max(axis=-1))
        else:
            sc = np.maximum(np.abs(a), np.abs(b))
        return float(np.max(num / np.maximum(sc, 1.0)))

    checks = []
    checks.append(("group associativity", n,
                   relerr(core.mul(core.mul(P, Q), S), core.mul(P, core.mul(Q, S))), 1e-12))
    checks.append(("group inverse", n,
                   float(np.max(np.abs(core.mul(P, core.inv(P))))), 1e-12))
    checks.append(("left invariance of the metric", n,
                   relerr(core.dist(core.mul(S, P), core.mul(S, Q)), core.dist(P, Q)), 1e-12))
    checks.append(("dilation homogeneity of the box norm", n,
                   relerr(core.box_norm(core.dilate(lam, P)), lam * core.box_norm(P)), 1e-12))
    checks.append(("dilation homogeneity of the koranyi norm", n,
                   relerr(core.koranyi_norm(core.dilate(lam, P)), lam * core.koranyi_norm(P)), 1e-12))
    checks.append(("rotation isometry", n,
                   relerr(core.dist(core.rotate(theta, P), core.rotate(theta, Q)), core.dist(P, Q)), 1e-12))
    checks.append(("metric symmetry", n, relerr(core.dist(P, Q), core.dist(Q, P)), 1e-12))
    tri = core.dist(P, Q) - (core.dist(P, S) + core.dist(S, Q))
    checks.append(("triangle inequality", n, float(np.max(tri)), 1e-12))

    kp = rng.uniform(-2.0, 2.0, (500, 3))
    kp = kp[core.koranyi_norm(kp) > 1e-3]
    lamk = rng.uniform(0.25, 4.0, len(kp))
    for kid, deg in sorted(riesz.KERNEL_DEGREES.items()):
        a = riesz.eval_kernel(kid, core.dilate(lamk, kp))
        b = lamk**deg * riesz.eval_kernel(kid, kp)
        sc = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        checks.append((f"kernel homogeneity {kid}", len(kp), float(np.max(np.abs(a - b) / sc)), 1e-10))
    checks.append(("kernel inversion identity", len(kp),
                   float(np.max(riesz.inversion_identity_residual(kp))), 1e-10))

    eps = np.finfo(float).eps
    # G = koranyi^-2 is 1 on the unit Koranyi sphere and harmonic off the
    # origin for both horizontal Laplacians.  Per frame the 3-point stencil
    # errs by h^2/12 times the fourth derivative of G along the frame line,
    # below 320 within h of the sphere (312 at most on a 2001 x 721 grid of
    # it), and by the rounding of its three G values: each is within 15 eps
    # (6 operations, and coordinates within 1.2 eps at |grad G| <= 4), so
    # 64 eps over h^2 with the stencil weights 1, 2, 1.  Two frames add both.
    h = 1e-3
    ks = core.dilate(1.0 / core.koranyi_norm(kp), kp)
    harm = max(float(np.max(riesz.harmonicity_residual(ks, h, right=right))) for right in (False, True))
    checks.append(("harmonicity of G in the left and right frames", len(ks), harm,
                   2.0 * (h * h / 12.0 * 320.0 + 64.0 * eps / (h * h))))
    # For V = (sin(t + y), cos(t - x)) at |x|, |y| <= 2 the third derivative
    # along each frame line is at most 1 for the X, Y, Xt and Yt terms and
    # |x| + |y| <= 4 for the t-derivative of the torsion -y V1 + x V2, so the
    # central differences err by h^2/6 (1 + 1 + 1 + 1 + 4) in all.  Each
    # value of size M (1, or 4 for the torsion) with slope at most M rounds
    # to within 5 M eps (2 M eps of arithmetic, 3 M eps from coordinates up
    # to 3), so each difference to within 5 M eps over h: 40 eps over h.
    h = 1e-4
    field = lambda p: np.stack((np.sin(p[..., 2] + p[..., 1]), np.cos(p[..., 2] - p[..., 0])), axis=-1)
    div = float(np.max(riesz.left_right_divergence_residual(field, kp, h)[2]))
    checks.append(("left/right divergence identity", len(kp), div, 8.0 * h * h / 6.0 + 40.0 * eps / h))

    columns = ["check", "instances", "max_err", "tol", "passed"]
    rows = []
    ok = True
    failures = []
    for name, count, err, tol in checks:
        passed = bool(err <= tol)
        ok &= passed
        if not passed:
            failures.append(f"violated invariant: {name} (max err {err:.3g} > tol {tol:g})")
        rows.append((name, count, err, tol, passed))
    summary = {"checks": len(checks), "failures": failures}
    return columns, rows, summary, ok


_OSC_COLUMNS = ["domain_label", "cx", "cy", "ct", "r", "s", "estimate", "stderr", "n", "seed"]


def _exp_osc_scan(cfg: ExperimentConfig):
    dom = domains.parse_domain(cfg.domain)
    scfg = _sample_cfg(cfg)
    cx, cy, ct = cfg.center
    rows = []
    ok = True
    failures = []
    for k, r in enumerate(_radii(cfg)):
        ball = core.Ball(core.point(*cfg.center), r)
        child = scfg.child(k)
        mids, prof, est = oscillation.perimeter_profile(dom, ball, child, 16)
        for s, v, e in zip([*mids, None], [*prof.value, est.value], [*prof.stderr, est.stderr]):
            rows.append((dom.label, cx, cy, ct, r, s, float(v), float(e), child.n, child.seed))
        if est.value > 0.5 * math.pi + 5 * est.stderr + 1e-12:
            ok = False
            failures.append(f"violated invariant: oscillation upper bound at r={r:g}")
    summary = {"radii": list(_radii(cfg)), "failures": failures}
    return _OSC_COLUMNS, rows, summary, ok


_BETA_COLUMNS = ["domain_label", "cx", "cy", "ct", "r", "p_exp", "beta", "theta", "offset", "n", "seed"]


def _exp_beta_scan(cfg: ExperimentConfig):
    g = _graph(cfg)
    scfg = _sample_cfg(cfg)
    cx, cy, ct = cfg.center
    rows = []
    ok = True
    failures = []
    for k, r in enumerate(_radii(cfg)):
        ball = core.Ball(core.point(*cfg.center), r)
        seed = scfg.child(k).seed
        sample = domains.surface_sample(g, domains.region_for_ball(ball), cfg.samples, seed)
        inside = int(np.count_nonzero(sample.in_ball(ball)))
        if inside < 3:
            ok = False
            failures.append(f"violated invariant: {inside} sample points in the ball at r={r:g}, need 3")
            continue
        bp = beta.beta_p(sample, ball, cfg.p_exp)
        binf = beta.beta_inf(sample, ball)
        rows.append((g.label, cx, cy, ct, r, cfg.p_exp, bp.value, bp.plane.theta, bp.plane.offset,
                     cfg.samples, seed))
        rows.append((g.label, cx, cy, ct, r, math.inf, binf.value, binf.plane.theta,
                     binf.plane.offset, cfg.samples, seed))
        if not (bp.value >= 0 and math.isfinite(bp.value) and math.isfinite(binf.value)):
            ok = False
            failures.append(f"violated invariant: beta number finite and nonnegative at r={r:g}")
    summary = {"radii": list(_radii(cfg)), "failures": failures}
    return _BETA_COLUMNS, rows, summary, ok


def _exp_osc_vs_beta(cfg: ExperimentConfig):
    g = _graph(cfg)
    scfg = _sample_cfg(cfg)
    cx, cy, ct = cfg.center
    columns = ["domain_label", "cx", "cy", "ct", "r", "osc", "osc_stderr", "beta1",
               "theta", "offset", "ratio", "n", "seed"]
    rows = []
    ratios = []
    ok = True
    failures = []
    for k, r in enumerate(_radii(cfg)):
        ball = core.Ball(core.point(*cfg.center), r)
        comp = beta.osc_beta_compare(g, ball, scfg.child(k))
        inside = comp.beta1.n_in_ball
        if inside < 3:
            ok = False
            failures.append(f"violated invariant: {inside} sample points in the ball of the beta fit "
                            f"at r={r:g}, need 3")
            continue
        rows.append((g.label, cx, cy, ct, r, comp.osc.value, comp.osc.stderr, comp.beta1.value,
                     comp.beta1.plane.theta, comp.beta1.plane.offset, comp.ratio,
                     cfg.samples, scfg.child(k).seed))
        if math.isfinite(comp.ratio):
            ratios.append(comp.ratio)
    summary = {"max_ratio": max(ratios) if ratios else 0.0, "failures": failures}
    return columns, rows, summary, ok


def _exp_dini(cfg: ExperimentConfig):
    dom = domains.parse_domain(cfg.domain)
    scfg = _sample_cfg(cfg)
    cx, cy, ct = cfg.center
    smin, smax, per = cfg.scales
    grid = oscillation.ScaleGrid(smin, smax, per)
    prof = oscillation.dini_integral(dom, core.point(*cfg.center), grid, scfg)
    rows = []
    for r, v, e in zip(prof.radii, prof.osc_values, prof.osc_stderrs):
        rows.append((dom.label, cx, cy, ct, float(r), None, float(v), float(e), cfg.samples, cfg.seed))
    fit = fit_decay(prof.log_profile())
    # crude geometric tail estimates from the fitted slopes; reported, not summed
    tail_below = (prof.osc_values[0] / fit.slope_below
                  if math.isfinite(fit.slope_below) and fit.slope_below > 0 else math.inf)
    tail_above = (prof.osc_values[-1] / -fit.slope_above
                  if math.isfinite(fit.slope_above) and fit.slope_above < 0 else math.inf)
    summary = {
        "dini_sum": prof.value,
        "dini_stderr": prof.stderr,
        "slope_below_1": fit.slope_below,
        "slope_above_1": fit.slope_above,
        "r2_below": fit.r2_below,
        "r2_above": fit.r2_above,
        "tail_estimate_below": tail_below,
        "tail_estimate_above": tail_above,
        "failures": [],
    }
    return _OSC_COLUMNS, rows, summary, True


_RIESZ_COLUMNS = ["graph", "ball_center", "ball_radius", "eps", "point",
                  "re", "im", "re_adj", "im_adj", "stderr", "n", "seed"]


def _fmt_point(p) -> str:
    return ":".join(repr(float(v)) for v in p)


def _exp_riesz_test(cfg: ExperimentConfig):
    g = _graph(cfg)
    ys = np.linspace(-2.0, 2.0, 5)
    ts = np.linspace(-2.0, 2.0, 2)
    w = np.array([(y, t) for t in ts for y in ys])
    points = domains.graph_map(g, w)
    balls = [core.Ball(core.point(*cfg.center), r) for r in _radii(cfg)]
    scan = riesz.testing_scan(g, balls, cfg.eps_grid, points, n=cfg.samples, seed=cfg.seed)
    rows = []
    for row in scan.rows:
        rows.append((g.label, _fmt_point(row.ball_center), row.ball_radius, row.eps,
                     _fmt_point(row.p), row.op.real, row.op.imag, row.adj.real, row.adj.imag,
                     max(row.op_stderr, row.adj_stderr), cfg.samples, cfg.seed))
    summary = {
        "sup_op": scan.sup(False),
        "sup_adj": scan.sup(True),
        "median_op": scan.median_abs(False),
        "median_adj": scan.median_abs(True),
        "failures": [],
    }
    return _RIESZ_COLUMNS, rows, summary, True


def _exp_carleson(cfg: ExperimentConfig):
    g = _graph(cfg)
    scfg = _sample_cfg(cfg)
    columns = ["domain_label", "R", "p_exp", "coefficient", "ratio", "n", "seed"]
    rows = []
    for k, R in enumerate(_radii(cfg)):
        scan = beta.carleson_scan(g, core.point(*cfg.center), R, cfg.p_exp, scfg.child(k))
        rows.append((g.label, R, cfg.p_exp, "beta", scan.ratio, cfg.samples, cfg.seed))
    summary = {"ratios": [r[4] for r in rows], "failures": []}
    return columns, rows, summary, True


def _exp_perimeter_beta(cfg: ExperimentConfig):
    g = _graph(cfg)
    scfg = _sample_cfg(cfg)
    smin, smax, per = cfg.scales
    columns = ["domain_label", "R", "p_exp", "lhs", "lhs_stderr", "rhs", "bulk_term",
               "beta_term", "ratio", "n", "seed"]
    rows = []
    for k, R in enumerate(_radii(cfg)):
        grid = oscillation.ScaleGrid(min(smin, R / 8), max(smax, R), per)
        res = beta.perimeter_beta_bound(g, core.Ball(core.point(*cfg.center), R),
                                        cfg.p_exp, grid, scfg.child(k))
        rows.append((g.label, R, cfg.p_exp, res.lhs.value, res.lhs.stderr, res.rhs,
                     res.bulk_term, res.beta_term, res.ratio, cfg.samples, cfg.seed))
    summary = {"ratios": [r[8] for r in rows], "failures": []}
    return columns, rows, summary, True


_RUNNERS = {
    "invariants": _exp_invariants,
    "osc-scan": _exp_osc_scan,
    "beta-scan": _exp_beta_scan,
    "osc-vs-beta": _exp_osc_vs_beta,
    "dini": _exp_dini,
    "riesz-test": _exp_riesz_test,
    "carleson": _exp_carleson,
    "perimeter-beta": _exp_perimeter_beta,
}


# ---------------------------------------------------------------------------
# Output rendering


def _render_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def render_csv(cfg: ExperimentConfig, columns, rows) -> str:
    buf = io.StringIO()
    buf.write(f"# heiskit={__version__} config={cfg.config_hash} seed={cfg.seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_render_cell(v) for v in row])
    return buf.getvalue()


def render_json(cfg: ExperimentConfig, columns, rows, summary) -> str:
    def clean(v):
        if v is None:
            return None
        if isinstance(v, (np.integer,)):
            return int(v)
        if isinstance(v, (np.floating, float)):
            v = float(v)
            return {"inf": "inf", "-inf": "-inf", "nan": "nan"}.get(repr(v), v) if not math.isfinite(v) else v
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        if isinstance(v, (bool, int, str)):
            return v
        return str(v)

    payload = {
        "version": __version__,
        "config": cfg.config_hash,
        "seed": cfg.seed,
        "columns": list(columns),
        "rows": [[clean(v) for v in row] for row in rows],
        "summary": clean(summary),
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; writes the artifact and prints a summary line."""
    columns, rows, summary, ok = _RUNNERS[cfg.experiment](cfg)
    summary = dict(summary)
    summary["passed"] = bool(ok)
    if cfg.fmt == "csv":
        text = render_csv(cfg, columns, rows)
    else:
        text = render_json(cfg, columns, rows, summary)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for msg in summary.get("failures", []):
        print(msg, file=sys.stderr)
    status = {"experiment": cfg.experiment, "out": cfg.out or "-",
              "config": cfg.config_hash, "summary": summary}
    print(json.dumps(status, sort_keys=True, default=str), file=sys.stderr)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="heiskit", description=__doc__)
    parser.add_argument("--config", help="run every experiment section of a config file, in place of an experiment")
    sub = parser.add_subparsers(dest="experiment")
    for name in _RUNNERS:
        p = sub.add_parser(name)
        for key, _, _, _, metavar in _SETTINGS:
            p.add_argument("--" + key.replace("_", "-"), metavar=metavar)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            if args.experiment:
                raise ConfigError(f"--config runs its file's sections; drop the experiment {args.experiment!r}")
            with open(args.config) as fh:
                cfgs = configs_from_text(fh.read())
            return max(run(c) for c in cfgs)
        if not args.experiment:
            parser.print_help(sys.stderr)
            return 2
        given = {key: getattr(args, key) for key, *_ in _SETTINGS if getattr(args, key) is not None}
        return run(ExperimentConfig.from_section(args.experiment, given))
    except (beta.EmptyBallError, NonFiniteIntegrandError, riesz.SingularityError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
