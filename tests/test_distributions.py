"""Tests for the distribution toolkit: moments vs samples, cdf/pdf sanity,
hazard classification, phase-type fitting, stochastic orders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    Bernoulli,
    Deterministic,
    DiscreteDistribution,
    Empirical,
    Erlang,
    Exponential,
    Geometric,
    HazardClass,
    HyperExponential,
    LogNormal,
    Pareto,
    PhaseType,
    TwoPoint,
    Uniform,
    Weibull,
    classify_hazard,
    dominates_hr,
    dominates_lr,
    dominates_st,
    equilibrium_mean,
    fit_two_moments,
    is_stochastically_ordered_family,
)

RNG = np.random.default_rng(0)

ALL_DISTS = [
    Exponential(1.3),
    Erlang(3, 2.0),
    HyperExponential([0.3, 0.7], [0.5, 4.0]),
    Deterministic(2.5),
    Uniform(1.0, 3.0),
    Weibull(2.0, 1.0),
    Weibull(0.7, 1.0),
    LogNormal(0.1, 0.6),
    Pareto(3.5, 1.0),
    TwoPoint(1.0, 10.0, 0.8),
    DiscreteDistribution([1.0, 2.0, 5.0], [0.2, 0.5, 0.3]),
    Geometric(0.4),
    Bernoulli(0.3),
]


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d)[:40])
def test_sample_mean_matches_analytic(dist):
    xs = np.asarray(dist.sample(RNG, size=60_000), dtype=float)
    se = dist.std / math.sqrt(len(xs)) if math.isfinite(dist.variance) else dist.mean * 0.05
    assert xs.mean() == pytest.approx(dist.mean, abs=6 * se + 1e-9)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d)[:40])
def test_sample_variance_matches_analytic(dist):
    if not math.isfinite(dist.variance):
        pytest.skip("infinite variance")
    xs = np.asarray(dist.sample(RNG, size=60_000), dtype=float)
    assert xs.var() == pytest.approx(dist.variance, rel=0.15, abs=1e-9)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d)[:40])
def test_cdf_monotone_and_limits(dist):
    xs = np.linspace(0.0, max(dist.mean, 1.0) * 20, 200)
    F = np.asarray(dist.cdf(xs), dtype=float)
    assert np.all(np.diff(F) >= -1e-12)
    assert F[0] >= 0.0 and F[-1] <= 1.0 + 1e-12
    assert float(dist.cdf(-1.0)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d)[:40])
def test_cdf_matches_empirical(dist):
    xs = np.asarray(dist.sample(RNG, size=30_000), dtype=float)
    q = dist.mean
    emp = float(np.mean(xs <= q))
    assert emp == pytest.approx(float(dist.cdf(q)), abs=0.02)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d)[:40])
def test_scalar_sample_is_float(dist):
    x = dist.sample_one(RNG)
    assert isinstance(x, float)
    assert x >= 0.0


class TestExponential:
    def test_memoryless_mean_residual(self):
        d = Exponential(2.0)
        assert d.mean_residual(5.0) == pytest.approx(0.5)

    def test_from_mean(self):
        assert Exponential.from_mean(4.0).rate == pytest.approx(0.25)

    def test_scv_is_one(self):
        assert Exponential(3.0).scv == pytest.approx(1.0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Exponential(0.0)


class TestErlang:
    def test_scv(self):
        assert Erlang(4, 1.0).scv == pytest.approx(0.25)

    def test_from_mean(self):
        d = Erlang.from_mean(3.0, k=5)
        assert d.mean == pytest.approx(3.0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            Erlang(0, 1.0)


class TestHyperExponential:
    def test_balanced_fit(self):
        d = HyperExponential.balanced_from_mean_scv(2.0, 4.0)
        assert d.mean == pytest.approx(2.0)
        assert d.scv == pytest.approx(4.0, rel=1e-9)

    def test_scv_below_one_rejected(self):
        with pytest.raises(ValueError):
            HyperExponential.balanced_from_mean_scv(1.0, 0.5)

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            HyperExponential([0.5, 0.4], [1.0, 2.0])

    @settings(max_examples=30, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 5), min_size=1, max_size=5).filter(any),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scalar_draw_equals_numpy_choice(self, weights, seed):
        # scalar draws bisect a cached cdf; they must pick the phases
        # `rng.choice(n, p=probs)` picks and consume the same stream
        probs = np.array(weights, dtype=float) / sum(weights)
        d = HyperExponential(probs, np.arange(1.0, len(probs) + 1.0))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            i = a.choice(len(d.probs), p=d.probs)
            want = a.exponential(1.0 / d.rates[i])
            assert np.float64(d.sample(b)).tobytes() == np.float64(want).tobytes()
        assert a.bit_generator.state == b.bit_generator.state


class TestTwoPoint:
    def test_support(self):
        assert TwoPoint(1.0, 9.0, 0.5).support() == (1.0, 9.0)

    def test_moments(self):
        d = TwoPoint(0.0, 10.0, 0.9)
        assert d.mean == pytest.approx(1.0)
        assert d.variance == pytest.approx(10.0 - 1.0)

    def test_cdf_steps(self):
        d = TwoPoint(1.0, 5.0, 0.3)
        assert float(d.cdf(0.5)) == 0.0
        assert float(d.cdf(2.0)) == pytest.approx(0.3)
        assert float(d.cdf(6.0)) == 1.0


class TestDiscrete:
    def test_pmf(self):
        d = DiscreteDistribution([1, 2], [0.4, 0.6])
        assert d.pmf(2) == pytest.approx(0.6)
        assert d.pmf(3) == 0.0

    def test_empirical_roundtrip(self):
        obs = [1.0, 1.0, 2.0, 3.0]
        e = Empirical(obs)
        assert e.mean == pytest.approx(np.mean(obs))
        assert e.n_observations == 4

    def test_empirical_rejects_empty(self):
        with pytest.raises(ValueError):
            Empirical([])

    def test_negative_support_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])


class TestPareto:
    def test_infinite_moments(self):
        assert math.isinf(Pareto(0.9).mean)
        assert math.isinf(Pareto(1.5).variance)

    def test_finite_mean(self):
        assert Pareto(3.0, 1.0).mean == pytest.approx(1.5)


class TestHazard:
    def test_exponential_constant(self):
        assert classify_hazard(Exponential(1.0)) == HazardClass.CONSTANT

    def test_erlang_ihr(self):
        assert classify_hazard(Erlang(3, 1.0)) == HazardClass.IHR

    def test_hyperexponential_dhr(self):
        d = HyperExponential([0.5, 0.5], [0.5, 5.0])
        assert classify_hazard(d) == HazardClass.DHR

    def test_weibull_shape_controls_class(self):
        assert classify_hazard(Weibull(2.0, 1.0)) == HazardClass.IHR
        assert classify_hazard(Weibull(0.5, 1.0)) == HazardClass.DHR

    def test_deterministic_ihr(self):
        assert classify_hazard(Deterministic(1.0)) == HazardClass.IHR

    def test_lognormal_non_monotone(self):
        assert classify_hazard(LogNormal(0.0, 1.2)) == HazardClass.NON_MONOTONE

    def test_equilibrium_mean(self):
        # exponential: E[S^2]/(2 E[S]) = mean
        assert equilibrium_mean(Exponential(2.0)) == pytest.approx(0.5)
        assert equilibrium_mean(Deterministic(2.0)) == pytest.approx(1.0)


class TestOrdering:
    def test_exponential_st_order(self):
        assert dominates_st(Exponential(0.5), Exponential(2.0))
        assert not dominates_st(Exponential(2.0), Exponential(0.5))

    def test_hr_order_exponentials(self):
        assert dominates_hr(Exponential(0.5), Exponential(2.0))

    def test_lr_order_exponentials(self):
        assert dominates_lr(Exponential(0.5), Exponential(2.0))

    def test_family_ordered(self):
        fam = [Exponential(r) for r in (0.5, 1.0, 2.0, 4.0)]
        assert is_stochastically_ordered_family(fam)

    def test_family_not_ordered(self):
        # crossing cdfs: deterministic 1 vs uniform [0, 2.4]
        fam = [Deterministic(1.0), Uniform(0.0 + 1e-9, 2.4)]
        assert not is_stochastically_ordered_family(fam)


class TestPhaseType:
    def test_exponential_as_ph(self):
        ph = PhaseType([1.0], [[-2.0]])
        assert ph.mean == pytest.approx(0.5)
        assert ph.variance == pytest.approx(0.25)

    def test_erlang_as_ph(self):
        S = np.array([[-3.0, 3.0], [0.0, -3.0]])
        ph = PhaseType([1.0, 0.0], S)
        ref = Erlang(2, 3.0)
        assert ph.mean == pytest.approx(ref.mean)
        assert ph.variance == pytest.approx(ref.variance)
        xs = np.array([0.3, 1.0, 2.0])
        assert np.allclose(ph.cdf(xs), ref.cdf(xs), atol=1e-9)

    def test_ph_sampling(self):
        S = np.array([[-3.0, 3.0], [0.0, -3.0]])
        ph = PhaseType([1.0, 0.0], S)
        xs = ph.sample(np.random.default_rng(0), size=20_000)
        assert np.mean(xs) == pytest.approx(ph.mean, rel=0.05)

    def test_invalid_subgenerator(self):
        with pytest.raises(ValueError):
            PhaseType([1.0], [[1.0]])  # positive diagonal

    @pytest.mark.parametrize("scv", [0.2, 0.5, 1.0, 2.0, 5.0])
    def test_fit_two_moments(self, scv):
        d = fit_two_moments(2.0, scv)
        assert d.mean == pytest.approx(2.0, rel=1e-9)
        if scv >= 1.0:
            assert d.scv == pytest.approx(scv, rel=1e-9)
        else:
            assert d.scv <= scv + 0.35  # Erlang grid approximates from below

    @given(st.floats(0.1, 10.0), st.floats(1.0, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_fit_exact_above_one_property(self, mean, scv):
        d = fit_two_moments(mean, scv)
        assert d.mean == pytest.approx(mean, rel=1e-8)
        assert d.scv == pytest.approx(scv, rel=1e-6)
