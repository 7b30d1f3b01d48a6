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
    _ball_chunks,
    _estimate_from_moments,
    _map_chunks,
    _moments,
    _workers,
    integrate_ball,
)

BALL = core.Ball(core.point(0, 0, 0), 1.0)
CFG = SampleConfig(n=200_000, seed=11)


def collect(ball, cfg):
    return np.concatenate(_map_chunks(*_ball_chunks(ball, cfg), lambda pts: pts))


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
    f = lambda p: (p[:, 2] > 0).astype(float)
    a = integrate_ball(f, BALL, SampleConfig(n=50_000, seed=3))
    b = integrate_ball(f, BALL, SampleConfig(n=100_000, seed=4))
    ratio = a.stderr / b.stderr
    assert math.sqrt(2) * 0.85 <= ratio <= math.sqrt(2) * 1.15


def test_parallel_execution_bitwise_identical():
    f = lambda p: np.abs(p[:, 0]) + (p[:, 2] > 0)
    serial = integrate_ball(f, BALL, CFG)
    with mock.patch.dict(os.environ, {"HEISKIT_WORKERS": "4"}):
        parallel = integrate_ball(f, BALL, CFG)
    assert serial == parallel  # dataclass equality: bit-for-bit values


def test_stderr_unchanged_by_large_offset():
    # a constant does not change the variance; rounding f + 1e8 moves each
    # value by at most half an ulp of 1e8, and 16 ulp covers the reduction.
    # Four chunks of uneven size, merged, match the one-pass sample variance.
    ball = core.Ball(core.point(0.3, -0.2, 0.1), 0.5)
    cfg = SampleConfig(n=3 * (1 << 16) + 1000, seed=0)
    f = lambda p: p[:, 0] ** 2 + p[:, 2]
    a = integrate_ball(f, ball, cfg)
    b = integrate_ball(lambda p: f(p) + 1e8, ball, cfg)
    assert abs(a.stderr - b.stderr) <= 16.0 * math.ulp(1e8) * ball.volume / math.sqrt(cfg.n)
    vals = f(collect(ball, cfg))
    assert a.stderr == pytest.approx(ball.volume * math.sqrt(np.var(vals, ddof=1) / len(vals)), rel=1e-12)


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
def test_moments_with_implicit_zeros(kind):
    # m values and n - m zeros left out match the zero-padded array
    rng = np.random.default_rng(3)
    m, n = 1000, 4096
    shape = (3, m) if kind == "components" else (m,)
    vals = 5.0 + rng.standard_normal(shape)
    if kind != "real":
        vals = vals + 1j * (rng.standard_normal(shape) - 2.0)
    padded = np.concatenate((vals, np.zeros(shape[:-1] + (n - m,), dtype=vals.dtype)), axis=-1)
    mean, m2, count = _moments(vals, n)
    ref_mean, ref_m2, ref_count = _moments(padded)
    assert count == ref_count == n
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-12)
    np.testing.assert_allclose(m2, ref_m2, rtol=1e-12)
    # and the padded moments are the textbook ones
    np.testing.assert_allclose(ref_mean, padded.mean(axis=-1), rtol=1e-12)
    np.testing.assert_allclose(ref_m2, n * (padded.real.var(axis=-1) + padded.imag.var(axis=-1)), rtol=1e-12)
    se = _estimate_from_moments(mean, m2, n, 2.0).stderr
    np.testing.assert_allclose(se, 2.0 * np.sqrt(ref_m2 / (n - 1) / n), rtol=1e-12)


def test_one_value_has_zero_stderr():
    est = _estimate_from_moments(*_moments(np.array([2.5])), 3.0)
    assert est.value == 7.5 and est.stderr == 0.0
    est = _estimate_from_moments(*_moments(np.zeros(0), 1), 1.0)
    assert est.value == 0.0 and est.stderr == 0.0


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
