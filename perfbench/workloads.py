"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one caller in one process runs one round of
operations after another, each call waiting for the previous one.  Every
round runs the same operations with sample seeds derived from the workload
seed and the round number.  An operation is a CLI call, made through
``heiskit.cli.main`` with the argv a user would type, or a call of a public
library function; it fails when its output does not pass the check written
next to it.  The checks use closed forms, brute force or exact properties,
never a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import statistics
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from heiskit import beta, cli, core, domains, quadrature, riesz
from heiskit.quadrature import SampleConfig

# Sizes of the operations.  They set how long one round takes.
OSC_SAMPLES = 100_000
BETA_SAMPLES = 30_000
PERIMETER_SCALES = "2^-3:2^1:1"
RIESZ_SAMPLES = 50_000
FLAT_SCAN_POINTS = 2
DIVERGENCE_SAMPLES = 60_000
ORACLE_POINTS = 12

# A Monte-Carlo estimate passes when it is within Z_TOL reported standard
# errors of its exact value; a normal deviate exceeds 6 with probability 2e-9.
Z_TOL = 6.0

EPS_GRID = [2.0**-k for k in range(1, 7)]
LIFT = "lift:phi0=abs,scale=0.5"
HOLDER = "holder:H=1,tau=0.5"
FLAT = "flat:theta=0,offset=0"
SLAB = "slab:t>0"

# Vertical-divergence fields of the acceptance suite's divergence criterion.
FIELDS = [
    (core.point(0, 0, 0), 1.0, (1.0, 0.0), "axial"),
    (core.point(0.2, -0.1, 0.1), 0.8, (0.8, 0.4), "mixed"),
    (core.point(-0.3, 0.2, 0.0), 1.2, (1.0, -0.5), "skew"),
    (core.point(0.1, 0.3, -0.2), 0.9, (0.6, 0.2), "small"),
    (core.point(0, -0.2, 0.2), 1.1, (1.0, 0.3), "wide"),
]


@dataclass
class Outcome:
    """What an operation produced: whether its check passed, why not, and
    the (value, stderr) pairs of its headline Monte-Carlo estimates."""

    ok: bool
    detail: str = ""
    headline: list = field(default_factory=list)


@dataclass
class Op:
    stage: str
    label: str
    run: Callable[[], Outcome]
    known_fault: bool = False


def _fail_unless(ok: bool, detail: str, headline=()) -> Outcome:
    return Outcome(bool(ok), "" if ok else detail, list(headline))


class Runner:
    """Runs CLI experiments in this process and reads back their outputs."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self._names = itertools.count()

    def cli(self, *argv: str, fmt: str = "csv", workers: str | None = None):
        """(exit code, output text) of one ``heiskit`` command line."""
        path = os.path.join(self.outdir, f"out{next(self._names)}.{fmt}")
        args = list(argv) + ["--out", path] + (["--format", "json"] if fmt == "json" else [])
        saved = os.environ.get("HEISKIT_WORKERS")
        if workers is not None:
            os.environ["HEISKIT_WORKERS"] = workers
        try:
            with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore", riesz.SparseSampleWarning)
                code = cli.main(args)
        finally:
            if saved is None:
                os.environ.pop("HEISKIT_WORKERS", None)
            else:
                os.environ["HEISKIT_WORKERS"] = saved
        text = ""
        if os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
            os.remove(path)
        return code, text


def cli_op(runner: Runner, check: Callable[[str], Outcome], *argv: str, fmt: str = "csv"):
    """An operation that runs one command line and checks its output."""

    def run() -> Outcome:
        code, text = runner.cli(*argv, fmt=fmt)
        return check(text) if code == 0 else Outcome(False, f"{argv[0]} exited with {code}")

    return run


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


# ---------------------------------------------------------------------------
# osc-dini


def slab_perimeter(s: float, r: float) -> float:
    """v(B(0, r))(s) / r^4 for the slab {t > 0}: the shift by s^2 changes
    membership on t in (-s^2, 0], which meets the ball's t-range
    [-r^2/4, r^2/4] in length min(s^2, r^2/4), over the disc of area pi r^2."""
    return math.pi * min(s * s, r * r / 4.0) / (r * r)


def slab_osc(nodes: int) -> float:
    """Midpoint-node oscillation of the slab at any ball centred on {t = 0}:
    (pi / N) sum_j min(u_j^2, 1/4) with u_j = (j + 1/2) / N."""
    return math.pi / nodes * sum(min(((j + 0.5) / nodes) ** 2, 0.25) for j in range(nodes))


def _within(value: float, exact: float, se: float) -> bool:
    return abs(value - exact) <= Z_TOL * se + 1e-12 * max(1.0, abs(exact))


def check_slab_scan(text: str) -> Outcome:
    closed = slab_osc(16)  # osc-scan uses 16 scale nodes
    headline = []
    bad = []
    for row in csv_rows(text):
        r, v, se = float(row["r"]), float(row["estimate"]), float(row["stderr"])
        if row["s"]:
            exact = slab_perimeter(float(row["s"]), r)
        else:
            exact = closed
            headline.append((v, se))
        if not _within(v, exact, se):
            bad.append(f"r={r:g} s={row['s'] or 'osc'}: {v} vs {exact} +- {se}")
    return _fail_unless(not bad and len(headline) == 7, f"slab osc-scan: {bad[:3]}", headline)


def check_holder_scan(text: str) -> Outcome:
    headline = []
    bad = []
    for row in csv_rows(text):
        v = float(row["estimate"])
        if not 0.0 <= v <= 0.5 * math.pi:
            bad.append(f"r={row['r']} s={row['s'] or 'osc'}: {v} outside [0, pi/2]")
        if not row["s"]:
            headline.append((v, float(row["stderr"])))
    return _fail_unless(not bad and len(headline) == 7, f"holder osc-scan: {bad[:3]}", headline)


def check_flat_scan(text: str) -> Outcome:
    rows = csv_rows(text)
    bad = [row for row in rows if float(row["estimate"]) != 0.0 or float(row["stderr"]) != 0.0]
    return _fail_unless(rows and not bad, f"flat osc-scan not exactly 0: {bad[:2]}")


def check_slab_dini(text: str) -> Outcome:
    out = json.loads(text)
    rows = out["rows"]
    closed = slab_osc(16)  # dini_integral's default scale nodes
    dlog = math.log(2.0)  # one node per octave
    expected = closed * len(rows) * dlog
    total, se = out["summary"]["dini_sum"], out["summary"]["dini_stderr"]
    bad = [r for r in rows if not _within(r[6], closed, r[7])]
    ok = len(rows) == 7 and not bad and _within(total, expected, se)
    return _fail_unless(ok, f"slab dini {total} vs {expected} +- {se}; rows off {bad[:2]}", [(total, se)])


def check_holder_dini(text: str, tau: float = 0.5) -> Outcome:
    out = json.loads(text)["summary"]
    slope = out["slope_below_1"]
    # the decay band of the Hoelder acceptance criterion
    ok = tau - 0.3 <= slope <= tau + 0.4
    return _fail_unless(ok, f"holder dini slope below 1 {slope} outside [{tau - 0.3}, {tau + 0.4}]",
                        [(out["dini_sum"], out["dini_stderr"])])


def offset_invariance() -> Outcome:
    """Adding a constant to an integrand leaves its variance unchanged.

    Rounding f + 1e8 moves each value by at most half an ulp of 1e8, so the
    sample standard deviation moves by at most that much; the bound allows
    16 ulp for the accumulation.  Inputs are fixed, not seeded by the run.
    """
    ball = core.Ball(core.point(0.3, -0.2, 0.1), 0.5)
    cfg = SampleConfig(n=1 << 16, seed=0)

    def f(p):
        return p[:, 0] ** 2 + p[:, 2]

    a = quadrature.integrate_ball(f, ball, cfg)
    b = quadrature.integrate_ball(lambda p: f(p) + 1e8, ball, cfg)
    tol = 16.0 * math.ulp(1e8) * ball.volume / math.sqrt(cfg.n)
    return _fail_unless(abs(a.stderr - b.stderr) <= tol,
                        f"integrate_ball stderr {a.stderr:.6g} for f but {b.stderr:.6g} for f + 1e8")


def osc_dini(runner: Runner, seed: int) -> list[Op]:
    common = ("--samples", str(OSC_SAMPLES), "--seed", str(seed))
    slab = ("osc-scan", "--domain", SLAB, "--radii", "2^-3..2^3") + common
    slab_csv = {}

    def slab_scan(text):
        slab_csv["text"] = text
        return check_slab_scan(text)

    def serial_rerun():
        code, text = runner.cli(*slab, workers="1")
        return _fail_unless(code == 0 and text == slab_csv.get("text"),
                            "slab osc-scan CSV differs between HEISKIT_WORKERS=2 and 1")

    return [
        Op("osc_scan", "osc-scan slab", cli_op(runner, slab_scan, *slab)),
        Op("osc_scan", "osc-scan holder", cli_op(runner, check_holder_scan, "osc-scan", "--domain", HOLDER,
                                                 "--radii", "2^-3..2^3", *common)),
        Op("osc_scan", "osc-scan flat", cli_op(runner, check_flat_scan, "osc-scan", "--domain", FLAT,
                                               "--radius", "1", *common)),
        Op("osc_scan", "osc-scan slab, 1 worker", serial_rerun),
        Op("dini", "dini slab", cli_op(runner, check_slab_dini, "dini", "--domain", SLAB,
                                       "--scales", "2^-3:2^3:1", *common, fmt="json")),
        Op("dini", "dini holder", cli_op(runner, check_holder_dini, "dini", "--domain", HOLDER,
                                         "--scales", "2^-3:2^3:1", *common, fmt="json")),
        Op("quadrature", "integrate_ball offset invariance", offset_invariance, known_fault=True),
    ]


# ---------------------------------------------------------------------------
# beta-fit


def lift_beta_inf(scale: float) -> float:
    """beta_inf of the lift x = scale |y| in any ball centred at the origin.

    The in-ball points project onto the V {(scale |y|, y) : |(x, y)| <= r},
    a triangle whose shortest altitude, onto its long side, is the x-extent
    scale r / sqrt(1 + scale^2); half of it over r is the beta number.
    """
    return scale / (2.0 * math.sqrt(1.0 + scale * scale))


def check_lift_beta(text: str, samples: int = BETA_SAMPLES) -> Outcome:
    """The sample's points lie in the exact V, so beta_inf never exceeds its
    exact value.  It falls short by the gaps at the V's tips and crease, a sum
    of two exponentials with mean 1/M each for M in-ball points; M is 0.4 n
    for these balls, and 30/M bounds the shortfall except with probability
    below 1e-11."""
    exact = lift_beta_inf(0.5)
    tol = 30.0 / (0.4 * samples)
    bad = []
    rows = csv_rows(text)
    for row in rows:
        v = float(row["beta"])
        if row["p_exp"] == "inf":
            if not exact * (1.0 - tol) <= v <= exact * (1.0 + 1e-9):
                bad.append(f"r={row['r']}: beta_inf {v} vs {exact}")
        elif not (math.isfinite(v) and v >= 0.0):
            bad.append(f"r={row['r']}: beta_1 {v}")
    return _fail_unless(len(rows) == 6 and not bad, f"lift beta-scan: {bad}")


def check_flat_beta(text: str) -> Outcome:
    rows = csv_rows(text)
    bad = [row["beta"] for row in rows if not float(row["beta"]) <= 1e-6]
    return _fail_unless(len(rows) == 2 and not bad, f"flat beta numbers {bad} above 1e-6")


def l1_line_oracle(z: np.ndarray, w: np.ndarray) -> float:
    """Least weighted L1 distance of the points z to a line, by brute force:
    some optimal line passes through two of the points (Martini-Schoebel)."""
    best = math.inf
    for i, j in itertools.combinations(range(len(z)), 2):
        d = z[j] - z[i]
        norm = math.hypot(d[0], d[1])
        if norm > 0.0:
            normal = np.array([-d[1], d[0]]) / norm
            best = min(best, float(np.sum(w * np.abs((z - z[i]) @ normal))))
    return best


def beta1_oracle(seed: int) -> Outcome:
    """beta_1 of a small weighted sample against the brute-force optimum.

    beta_p searches 180 angles and refines the best; the optimum is within
    pi/360 of a grid angle, and the objective moves by at most
    L = sum w |z - median| per radian, so beta_1 lies in
    [oracle, oracle + L pi/360] (in units of r and total weight)."""
    rng = np.random.default_rng([seed, 11])
    pts = rng.normal(size=(ORACLE_POINTS, 3)) * [0.3, 0.5, 0.1]
    w = rng.uniform(0.5, 2.0, ORACLE_POINTS)
    sample = domains.WeightedSample(w=pts[:, 1:], points=pts, weights=w, region=None, seed=seed)
    ball = core.Ball(core.point(0, 0, 0), 4.0)
    got = beta.beta_p(sample, ball, 1.0, normalization="mass").value
    z = pts[:, :2]
    norm = ball.radius * float(w.sum())
    oracle = l1_line_oracle(z, w) / norm
    centre = np.array([np.median(z[:, 0]), np.median(z[:, 1])])
    slack = float(np.sum(w * np.hypot(*(z - centre).T))) * (math.pi / 360.0) / norm
    ok = oracle * (1.0 - 1e-9) <= got <= oracle + slack
    return _fail_unless(ok, f"beta_1 {got} outside [{oracle}, {oracle + slack}]")


def check_perimeter(text: str) -> Outcome:
    out = json.loads(text)
    row = dict(zip(out["columns"], out["rows"][0]))
    # the frozen majorant constant of the acceptance suite
    return _fail_unless(row["lhs"] <= 0.005 * row["rhs"],
                        f"perimeter-beta lhs {row['lhs']} > 0.005 rhs {row['rhs']}",
                        [(row["lhs"], row["lhs_stderr"])])


def check_carleson(text: str) -> Outcome:
    ratio = float(csv_rows(text)[0]["ratio"])
    # balls that meet the crease have positive beta numbers
    return _fail_unless(math.isfinite(ratio) and ratio > 0.0, f"carleson ratio {ratio}")


def beta_fit(runner: Runner, seed: int) -> list[Op]:
    s = str(seed)
    scan = ("beta-scan", "--p-exp", "1", "--samples", str(BETA_SAMPLES), "--seed", s)
    return [
        Op("beta_scan", "beta-scan lift", cli_op(runner, check_lift_beta, *scan, "--domain", LIFT,
                                                 "--radii", "0.5,1,2")),
        Op("beta_scan", "beta-scan flat", cli_op(runner, check_flat_beta, *scan, "--domain", FLAT,
                                                 "--radius", "1")),
        Op("beta_scan", "beta_1 brute-force oracle", functools.partial(beta1_oracle, seed)),
        Op("perimeter_beta", "perimeter-beta holder",
           cli_op(runner, check_perimeter, "perimeter-beta", "--domain", HOLDER, "--scales", PERIMETER_SCALES,
                  "--samples", str(OSC_SAMPLES), "--seed", s, fmt="json")),
        Op("carleson", "carleson lift",
           cli_op(runner, check_carleson, "carleson", "--domain", LIFT, "--radius", "1", "--p-exp", "4",
                  "--samples", str(OSC_SAMPLES), "--seed", s)),
    ]


# ---------------------------------------------------------------------------
# riesz-testing


def check_lift_scan(text: str) -> Outcome:
    """Per ball and evaluation point, max/median over eps of |T f| is at most
    10, as in the testing-condition acceptance criterion.  The headline rows
    are those at the largest eps off the line y = 0; on it |T f| is within a
    few stderr of 0, so its relative error would only add noise."""
    rows = csv_rows(text)
    groups: dict = {}
    headline = []
    for row in rows:
        op = abs(complex(float(row["re"]), float(row["im"])))
        adj = abs(complex(float(row["re_adj"]), float(row["im_adj"])))
        groups.setdefault((row["ball_radius"], row["point"]), []).append((op, adj))
        if float(row["eps"]) == max(EPS_GRID) and float(row["point"].split(":")[1]) != 0.0:
            headline.append((op, float(row["stderr"])))
    bad = []
    for key, vals in groups.items():
        for series in zip(*vals):
            med = statistics.median(series)
            if not (med > 0.0 and max(series) <= 10.0 * med):
                bad.append(key)
    ok = len(rows) == 180 and not bad
    return _fail_unless(ok, f"lift riesz-test max/median over eps above 10 at {bad[:3]}", headline)


def flat_centred_scan(seed: int) -> Outcome:
    """Balls centred on the flat graph: about the centre, the real part of K
    is odd in t and the imaginary part odd in y, while the bump, the cutoff
    and the plane's measure are even in both, so T f = 0.  Every row must be
    within Z_TOL stderr of 0 (an exact 0 +- 0 row passes)."""
    g = domains.flat(0.0, 0.0)
    rng = np.random.default_rng([seed, 13])
    w = np.column_stack((rng.uniform(-1, 1, FLAT_SCAN_POINTS), rng.uniform(-1, 1, FLAT_SCAN_POINTS)))
    bad = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", riesz.SparseSampleWarning)
        for j, p in enumerate(domains.graph_map(g, w)):
            balls = [core.Ball(p, r) for r in (0.5, 1.0, 2.0)]
            scan = riesz.testing_scan(g, balls, EPS_GRID, [p], n=RIESZ_SAMPLES, seed=seed * 16 + j)
            for row in scan.rows:
                if abs(row.op) > Z_TOL * row.op_stderr or abs(row.adj) > Z_TOL * row.adj_stderr:
                    bad.append((row.ball_radius, row.eps, abs(row.op), row.op_stderr))
    return _fail_unless(not bad, f"flat centred scan off 0: {bad[:3]}")


def divergence(g, field_spec, seed: int) -> Outcome:
    """c_hat is 1 by the area-formula normalisation; its stderr propagates
    the two sides' stderrs to first order."""
    center, radius, coeffs, label = field_spec
    V = riesz.bump_field(center, radius, coeffs, label=label)
    res = riesz.divergence_check(g, V, SampleConfig(n=DIVERGENCE_SAMPLES, seed=seed))
    if res.flagged:
        return Outcome(False, f"divergence {label} on {g.label}: flux flagged as zero")
    se = abs(res.c_hat) * math.hypot(res.lhs.stderr / res.lhs.value, res.rhs.stderr / res.rhs.value)
    return _fail_unless(_within(res.c_hat, 1.0, se), f"c_hat {res.c_hat} +- {se} on {g.label} {label}",
                        [(res.c_hat, se)])


def check_invariants(text: str) -> Outcome:
    rows = csv_rows(text)
    return _fail_unless(rows and all(row["passed"] == "true" for row in rows),
                        f"invariants failed: {[row['check'] for row in rows if row['passed'] != 'true']}")


def riesz_testing(runner: Runner, seed: int) -> list[Op]:
    ops = [
        Op("riesz_test", "riesz-test lift",
           cli_op(runner, check_lift_scan, "riesz-test", "--domain", LIFT, "--radii", "0.5,1,2",
                  "--samples", str(RIESZ_SAMPLES), "--seed", str(seed))),
        Op("riesz_test", "testing_scan flat, centred balls", functools.partial(flat_centred_scan, seed)),
    ]
    graphs = [domains.flat(0.0, 0.0), domains.euclidean_lift("abs", scale=0.5)]
    for gi, g in enumerate(graphs):
        for fi, spec in enumerate(FIELDS):
            ops.append(Op("divergence", f"divergence {g.label} {spec[3]}",
                          functools.partial(divergence, g, spec, seed * 16 + 5 * gi + fi)))
    ops.append(Op("invariants", "invariants", cli_op(runner, check_invariants, "invariants", "--seed", str(seed))))
    return ops


WORKLOADS = {
    "osc-dini": osc_dini,
    "beta-fit": beta_fit,
    "riesz-testing": riesz_testing,
}
