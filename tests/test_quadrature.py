import math
import os
from unittest import mock

import numpy as np
import pytest

from heiskit import core
from heiskit.quadrature import (
    Estimate,
    NonFiniteIntegrandError,
    SampleConfig,
    _BALL_REPS,
    _KOROBOV,
    _ball_points,
    _lattice_estimate,
    _lattice_map,
    _lattice_shape,
    _masked_estimate,
    _moments,
    _workers,
    integrate_ball,
)

BALL = core.Ball(core.point(0, 0, 0), 1.0)
CFG = SampleConfig(n=200_000, seed=11)


def collect(ball, cfg):
    """The ball's nodes, lattice after lattice, as one (R * N, 3) array."""
    chunks = _lattice_map(3, _lattice_shape(3, cfg.n, _BALL_REPS), cfg.seed, lambda u, first: _ball_points(u, ball))
    return np.concatenate(chunks).reshape(-1, 3)


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(n=0)
    with pytest.raises(ValueError):
        SampleConfig(seed=-1)


def test_child_streams_differ():
    assert CFG.child(0).seed != CFG.child(1).seed != CFG.seed


def test_sample_stream_is_deterministic():
    a = collect(BALL, CFG)
    b = collect(BALL, CFG)
    assert np.array_equal(a, b)
    c = collect(BALL, SampleConfig(n=CFG.n, seed=12))
    assert not np.array_equal(a, c)


def test_samples_lie_in_ball_and_fill_it():
    ball = core.Ball(core.point(0.4, -0.7, 0.3), 1.3)
    pts = collect(ball, SampleConfig(n=100_000, seed=2))
    assert np.all(core.dist(pts, ball.center) <= ball.radius * (1 + 1e-12))
    # uniformity probe: the half-radius ball carries measure 1/16
    frac = float(np.mean(core.dist(pts, ball.center) <= ball.radius / 2))
    se = math.sqrt(frac * (1 - frac) / len(pts))
    assert abs(frac - 1 / 16) <= 3 * se + 1e-4


def test_volume_and_indicator_oracles():
    est = integrate_ball(lambda p: np.ones(len(p)), BALL, CFG)
    assert est.value == pytest.approx(math.pi / 2)
    assert est.stderr == 0.0

    half = integrate_ball(lambda p: (p[:, 0] > 0).astype(float), BALL, CFG)
    assert abs(half.value - math.pi / 4) <= 3 * half.stderr

    slab = integrate_ball(lambda p: (p[:, 2] > 0).astype(float), BALL, CFG)
    assert abs(slab.value - math.pi / 4) <= 3 * slab.stderr

    odd = integrate_ball(lambda p: p[:, 0] * np.abs(p[:, 1]), BALL, CFG)
    assert abs(odd.value) <= 3 * odd.stderr


def test_translation_invariance_of_volume():
    rng = np.random.default_rng(7)
    for k in range(3):
        center = rng.uniform(-2, 2, 3)
        ball = core.Ball(center, 0.8)
        inner = core.Ball(center, 0.4)
        est = integrate_ball(lambda p: inner.contains(p).astype(float), ball, SampleConfig(n=100_000, seed=k))
        assert abs(est.value - inner.volume) <= 3 * est.stderr + 1e-4


def test_stderr_scaling():
    # at a fixed lattice size N = 1597 the stderr is the spread of R lattice
    # means over sqrt(R), so doubling R divides it by sqrt(2); each spread,
    # over 399 or 799 degrees of freedom, errs by about 1 / sqrt(2 (R - 1)),
    # 3.5 % and 2.5 %, so 15 % is over 3 sigma of their ratio
    f = lambda p: (p[:, 0] + p[:, 2] > 0.1).astype(float)
    a = integrate_ball(f, BALL, SampleConfig(n=400 * 1597, seed=3))
    b = integrate_ball(f, BALL, SampleConfig(n=800 * 1597, seed=4))
    assert (a.n, b.n) == (400, 800)
    ratio = a.stderr / b.stderr
    assert math.sqrt(2) * 0.85 <= ratio <= math.sqrt(2) * 1.15


def p2_merit(size, a):
    """The P2 figure of merit of the Korobov lattice (1, a, a^2) of size points, term by term."""
    total = 0.0
    for j in range(size):
        term = 1.0
        for z in (1, a, a * a):
            x = j * z % size / size
            term *= 1.0 + 2.0 * math.pi**2 * (x * x - x + 1.0 / 6.0)
        total += term
    return total / size - 1.0


def p2_search(size):
    """The multiplier of least P2 over every a < size, the smallest within 1e-12 of the minimum."""

    def factor(z):
        x = z % size / size
        return 1.0 + 2.0 * math.pi**2 * (x * x - x + 1.0 / 6.0)

    j = np.arange(size)
    merits = np.concatenate([(factor(j) * factor(j * a) * factor(j * (a * a % size))).mean(axis=1)
                             for a in np.array_split(np.arange(1, size)[:, None], max(1, size // 64))])
    return 1 + int(np.flatnonzero(merits <= merits.min() * (1.0 + 1e-12))[0])


def test_korobov_multiplier_minimises_p2():
    # every tabled multiplier against the full search, and the vectorised
    # search against a term-by-term sum over every multiplier for small N;
    # equivalent lattices tie up to rounding (22 and 26 at N = 144)
    sizes = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597]
    assert sorted(_KOROBOV) == [1] + sizes
    assert {size: p2_search(size) for size in sizes} == {size: _KOROBOV[size] for size in sizes}
    for size in (8, 55, 144):
        merits = np.array([p2_merit(size, a) for a in range(1, size)])
        assert p2_search(size) == 1 + int(np.flatnonzero(merits <= merits.min() * (1 + 1e-12))[0])


@pytest.mark.parametrize(
    "n, size, reps", [(150_000, 1597, 93), (40_000, 987, 40), (5_000, 144, 34), (100, 3, 33), (7, 1, 7)]
)
def test_ball_lattices_are_shifted_folded_korobov_lattices(n, size, reps):
    # R = n // N lattices of N points, N the largest Fibonacci number up to
    # n // 32 and 1,597; each is the fold u -> 1 - |2u - 1| of the base
    # lattice {j (1, a, a^2) / N mod 1} shifted mod 1 by one of the two
    # shifts whose fold is its first point, no two sharing a shift, and
    # mapped to the ball in cylinder coordinates; the chunks come in order,
    # each with the index of its first lattice
    shape = _lattice_shape(3, n, 32)
    chunks = _lattice_map(3, shape, 5, lambda u, first: (first, u))
    assert [first for first, _ in chunks] == list(range(0, reps, chunks[0][1].shape[1]))
    cube = np.concatenate([u for _, u in chunks], axis=1)
    assert shape == (reps, size) and cube.shape == (3, reps, size)
    assert len(np.unique(cube[:, :, 0], axis=1).T) == reps
    a = _KOROBOV[size]
    j = np.arange(size)
    for got, z in zip(cube, (1, a, a * a % size)):
        base = j * z % size / size
        first = got[:, :1]
        misses = [np.abs(1.0 - np.abs(2.0 * ((base + shift) % 1.0) - 1.0) - got).max(axis=1)
                  for shift in (first / 2, 1.0 - first / 2)]
        assert np.minimum(*misses).max() <= 1e-12
    ball = core.Ball(core.point(0.4, -0.7, 0.3), 1.3)
    pts = collect(ball, SampleConfig(n=n, seed=5)).reshape(reps, size, 3)
    m = core.mul(core.inv(ball.center), pts)
    rad, ang = np.hypot(m[..., 0], m[..., 1]), np.arctan2(m[..., 1], m[..., 0]) / (2.0 * math.pi)
    np.testing.assert_allclose(rad, ball.radius * np.sqrt(cube[0]), rtol=1e-12, atol=1e-12)
    assert np.max(np.abs((ang - cube[1] + 0.5) % 1.0 - 0.5)) <= 1e-12
    np.testing.assert_allclose(m[..., 2], (cube[2] - 0.5) * 0.5 * ball.radius**2, atol=1e-12)


def plain_ball(ball, n, seed):
    """n independent uniform points of the ball: the plain Monte-Carlo reference."""
    rng = np.random.default_rng(seed)
    rad, ang = ball.radius * np.sqrt(rng.random(n)), 2.0 * math.pi * rng.random(n)
    t = (rng.random(n) - 0.5) * (0.5 * ball.radius**2)
    return core.mul(ball.center, np.stack((rad * np.cos(ang), rad * np.sin(ang), t), axis=-1))


def test_integrate_ball_matches_plain_monte_carlo():
    # a discontinuous integrand, a smooth weight on a Hoelder graph's
    # super-graph, against plain Monte Carlo with its own seed: within 3
    # combined sigma
    from heiskit import domains

    g = domains.vertical_holder(1.0, 0.5)
    ball = core.Ball(core.point(0.2, -0.1, 0.05), 0.8)
    f = lambda p: g.indicator(p) * (1.0 + p[:, 0] * p[:, 1] + p[:, 2])
    est = integrate_ball(f, ball, SampleConfig(n=100_000, seed=8))
    vals = f(plain_ball(ball, 400_000, 9))
    ref, ref_se = ball.volume * vals.mean(), ball.volume * vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(est.value - ref) <= 3.0 * math.hypot(est.stderr, ref_se)
    assert est.n == 62 and 0.0 < est.stderr < ref_se


def test_parallel_execution_bitwise_identical():
    f = lambda p: np.abs(p[:, 0]) + (p[:, 2] > 0)
    serial = integrate_ball(f, BALL, CFG)
    with mock.patch.dict(os.environ, {"HEISKIT_WORKERS": "4"}):
        parallel = integrate_ball(f, BALL, CFG)
    assert serial == parallel  # dataclass equality: bit-for-bit values


def test_stderr_unchanged_by_large_offset():
    # a constant does not change the variance; rounding f + 1e8 moves each
    # value by at most half an ulp of 1e8, and 16 ulp covers the reduction.
    # Four chunks of lattices, the last one short, joined about the first
    # chunk's first value, match the mean and spread of the R = 130 lattice
    # means of one pass.
    ball = core.Ball(core.point(0.3, -0.2, 0.1), 0.5)
    cfg = SampleConfig(n=130 * 1597 + 1000, seed=0)
    f = lambda p: p[:, 0] ** 2 + p[:, 2]
    a = integrate_ball(f, ball, cfg)
    b = integrate_ball(lambda p: f(p) + 1e8, ball, cfg)
    assert abs(a.stderr - b.stderr) <= 16.0 * math.ulp(1e8) * ball.volume / math.sqrt(cfg.n)
    # these means round at 1e-16 of f, which is up to 1e-12 of their spread
    means = f(collect(ball, cfg)).reshape(a.n, -1).mean(axis=1)
    assert a.n == 130
    assert a.value == pytest.approx(ball.volume * means.mean(), rel=1e-12)
    assert a.stderr == pytest.approx(ball.volume * np.std(means, ddof=1) / math.sqrt(a.n), rel=1e-9)


def test_nonfinite_integrand_reports_point():
    def bad(p):
        v = np.ones(len(p))
        v[p[:, 0] > 0.5] = np.nan
        return v

    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate_ball(bad, BALL, SampleConfig(n=10_000, seed=1))
    assert err.value.point[0] > 0.5
    # raised on a pool thread, it still reaches the caller
    with mock.patch.dict(os.environ, {"HEISKIT_WORKERS": "4"}):
        with pytest.raises(NonFiniteIntegrandError) as err:
            integrate_ball(bad, BALL, SampleConfig(n=150_000, seed=1))
    assert err.value.point[0] > 0.5


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(1.0, -0.5, 10)


@pytest.mark.parametrize("kind", ["real", "complex", "components"])
def test_moments_match_textbook(kind):
    # the mean and the sum of squared deviations |v - mean|^2, per component
    rng = np.random.default_rng(3)
    shape = (3, 1000) if kind == "components" else (1000,)
    vals = 5.0 + rng.standard_normal(shape)
    if kind != "real":
        vals = vals + 1j * (rng.standard_normal(shape) - 2.0)
    mean, m2, count = _moments(vals)
    assert count == 1000
    np.testing.assert_allclose(mean, vals.mean(axis=-1), rtol=1e-12)
    np.testing.assert_allclose(m2, 1000 * (vals.real.var(axis=-1) + vals.imag.var(axis=-1)), rtol=1e-12)
    se = _lattice_estimate(vals, 2.0).stderr
    np.testing.assert_allclose(se, 2.0 * np.sqrt(m2 / 999 / 1000), rtol=1e-12)


def test_one_value_has_zero_stderr():
    est = _lattice_estimate(np.array([2.5]), 3.0)
    assert (est.value, est.stderr, est.n) == (7.5, 0.0, 1)
    # one lattice whose draws were all left out
    est = _masked_estimate(np.zeros(0), np.zeros(0, dtype=int), (1, 4), 1.0)
    assert (est.value, est.stderr, est.n) == (0.0, 0.0, 1)


@pytest.mark.parametrize("raw", ["abc", "0", "-2", ""])
def test_workers_variable_validated(raw):
    with mock.patch.dict(os.environ, {"HEISKIT_WORKERS": raw}):
        with pytest.raises(ValueError, match="HEISKIT_WORKERS"):
            _workers()
    with mock.patch.dict(os.environ, {"HEISKIT_WORKERS": "3"}):
        assert _workers() == 3
    with mock.patch.dict(os.environ):
        os.environ.pop("HEISKIT_WORKERS", None)
        assert _workers() == 1
