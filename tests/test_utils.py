"""Tests for repro.utils: RNG streams, statistics, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    BatchMeans,
    ConfidenceInterval,
    RandomStreams,
    RunningStats,
    as_generator,
    canonical_json,
    check_nonnegative,
    check_positive,
    check_probability,
    check_probability_matrix,
    check_substochastic_matrix,
    jsonable,
    mean_confidence_interval,
    spawn_generators,
    summarize_rows,
)


class TestRng:
    def test_as_generator_from_int_is_reproducible(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.allclose(a, b)

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_spawn_generators_independent(self):
        gens = spawn_generators(7, 3)
        draws = [g.random(4) for g in gens]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_spawn_reproducible(self):
        a = [g.random() for g in spawn_generators(1, 4)]
        b = [g.random() for g in spawn_generators(1, 4)]
        assert a == b

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_streams_same_name_same_generator(self):
        s = RandomStreams(seed=3)
        assert s.get("arrivals") is s.get("arrivals")

    def test_streams_name_order_independent(self):
        s1 = RandomStreams(seed=3)
        _ = s1.get("a")
        x1 = s1.get("b").random()
        s2 = RandomStreams(seed=3)
        x2 = s2.get("b").random()  # requested first this time
        assert x1 == x2

    def test_streams_names(self):
        s = RandomStreams(seed=0)
        s.get("x")
        s.get("y")
        assert set(s.names()) == {"x", "y"}


class TestRunningStats:
    def test_mean_variance_match_numpy(self):
        xs = np.random.default_rng(0).normal(3.0, 2.0, size=500)
        rs = RunningStats()
        rs.extend(xs)
        assert rs.count == 500
        assert rs.mean == pytest.approx(xs.mean(), rel=1e-12)
        assert rs.variance == pytest.approx(xs.var(), rel=1e-9)
        assert rs.sample_variance == pytest.approx(xs.var(ddof=1), rel=1e-9)

    def test_weighted_mean(self):
        rs = RunningStats()
        rs.push(1.0, weight=1.0)
        rs.push(3.0, weight=3.0)
        assert rs.mean == pytest.approx(2.5)

    def test_zero_weight_ignored(self):
        rs = RunningStats()
        rs.push(5.0)
        rs.push(100.0, weight=0.0)
        assert rs.mean == pytest.approx(5.0)

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            RunningStats().push(1.0, weight=-1.0)

    def test_min_max(self):
        rs = RunningStats()
        rs.extend([3.0, -1.0, 7.0])
        assert rs.minimum == -1.0
        assert rs.maximum == 7.0

    def test_empty_is_nan(self):
        rs = RunningStats()
        assert math.isnan(rs.mean)
        assert math.isnan(rs.variance)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_property(self, xs):
        rs = RunningStats()
        rs.extend(xs)
        assert rs.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-6)


class TestConfidenceInterval:
    def test_interval_contains_true_mean_usually(self):
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(100):
            samples = rng.normal(10.0, 2.0, size=30)
            ci = mean_confidence_interval(samples, level=0.95)
            hits += ci.contains(10.0)
        assert hits >= 85  # ~95 expected

    def test_single_sample_infinite_width(self):
        ci = mean_confidence_interval([4.0])
        assert ci.mean == 4.0
        assert math.isinf(ci.half_width)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], level=1.5)

    def test_bounds(self):
        ci = mean_confidence_interval([1.0, 2.0, 3.0])
        assert ci.lower < ci.mean < ci.upper
        assert ci.mean == pytest.approx(2.0)

    def test_relative_half_width(self):
        ci = mean_confidence_interval([9.0, 11.0])
        assert ci.relative_half_width == pytest.approx(ci.half_width / 10.0)

    def test_relative_half_width_zero_mean(self):
        # regression: 0 ± 0 (a deterministic zero metric) used to report
        # inf, making relative-precision targets unsatisfiable; the 0/0
        # case is defined as 0, while a real spread around 0 stays inf
        degenerate = ConfidenceInterval(mean=0.0, half_width=0.0, level=0.95, n=5)
        assert degenerate.relative_half_width == 0.0
        spread = ConfidenceInterval(mean=0.0, half_width=0.3, level=0.95, n=5)
        assert math.isinf(spread.relative_half_width)


class TestSummarizeRows:
    def test_full_columns_match_mean_confidence_interval(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(5.0, 2.0, size=12)
        agg = summarize_rows([{"x": float(v)} for v in xs], level=0.9)
        ci = mean_confidence_interval(xs, level=0.9)
        got = agg.interval("x")
        assert got.mean == pytest.approx(ci.mean, rel=1e-12)
        assert got.half_width == pytest.approx(ci.half_width, rel=1e-12)
        assert got.n == 12

    def test_partial_column_uses_its_own_count(self):
        rows = [{"x": 1.0, "y": 4.0}, {"x": 2.0}, {"x": 3.0, "y": 6.0}]
        agg = summarize_rows(rows)
        assert tuple(agg.counts) == (3, 2)
        y = agg.interval("y")
        ref = mean_confidence_interval([4.0, 6.0])
        assert y.n == 2
        assert y.mean == pytest.approx(5.0)
        assert y.half_width == pytest.approx(ref.half_width, rel=1e-12)
        assert agg.minimum[agg.index("y")] == 4.0
        assert agg.maximum[agg.index("y")] == 6.0

    def test_single_observation_column_is_infinite(self):
        agg = summarize_rows([{"x": 1.0, "y": 2.0}, {"x": 3.0}])
        j = agg.index("y")
        assert agg.counts[j] == 1
        assert math.isinf(agg.half_width[j])
        assert agg.std[j] == 0.0

    def test_relative_half_width_rules(self):
        rows = [{"zero": 0.0, "pos": 10.0}, {"zero": 0.0, "pos": 12.0}]
        rel = summarize_rows(rows).relative_half_width
        agg = summarize_rows(rows)
        assert rel[agg.index("zero")] == 0.0  # 0/0 → 0
        assert rel[agg.index("pos")] > 0

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError, match="level"):
            summarize_rows([{"x": 1.0}], level=1.0)

    def test_empty_rows(self):
        agg = summarize_rows([])
        assert agg.names == ()
        assert agg.matrix.shape == (0, 0)


class TestStudentTQuantile:
    """``repro.utils.stats`` takes Student-t quantiles from
    ``scipy.special.stdtrit`` so that importing it does not load
    ``scipy.stats``; every interval must stay bit-for-bit what
    ``scipy.stats.t.ppf`` gave."""

    DFS = np.array([*range(1, 400), 1000, 100_000])
    QUANTILES = [0.5 + level / 2 for level in (0.8, 0.9, 0.95, 0.99)] + [
        0.999,
        0.9995,
        0.99999,
        1e-4,
    ]

    @pytest.mark.parametrize("q", QUANTILES)
    def test_stdtrit_is_t_ppf_bitwise(self, q):
        from scipy import stats as sps
        from scipy.special import stdtrit

        # scalar df, as in mean_confidence_interval
        for df in self.DFS.tolist():
            assert float(stdtrit(df, q)).hex() == float(sps.t.ppf(q, df=df)).hex()
        # integer-array df, as in summarize_rows
        assert stdtrit(self.DFS, q).tobytes() == sps.t.ppf(q, df=self.DFS).tobytes()

    @pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99])
    def test_intervals_use_the_t_ppf_quantile(self, level):
        from scipy import stats as sps

        rng = np.random.default_rng(3)
        rows = [{"x": float(v)} for v in rng.normal(size=40)]
        for k, row in enumerate(rows):
            row.update({f"c{j}": float(k) ** 0.5 for j in range(2, 9) if k < j})
        agg = summarize_rows(rows, level=level)
        for name in agg.names:
            j = agg.index(name)
            n = int(agg.counts[j])
            t = sps.t.ppf(0.5 + level / 2, df=n - 1)
            assert agg.half_width[j] == t * agg.std[j] / np.sqrt(n)
            xs = [row[name] for row in rows if name in row]
            ci = mean_confidence_interval(xs, level=level)
            s = float(np.std(xs, ddof=1))
            assert ci.half_width == float(t) * s / math.sqrt(n)



class TestTQuantileTable:
    """At levels 0.90, 0.95 and 0.99 with every df in 1..999,
    ``_t_quantile`` reads ``src/repro/utils/stdtrit_<level>.f8``; anywhere
    else it calls ``stdtrit``.  Both paths must give the installed
    ``stdtrit``'s bits.  If a scipy upgrade changes ``stdtrit``, this
    fails (and the perfbench pins move too); regenerate the tables from
    the repository root with::

        python -c "import numpy as np; from scipy.special import stdtrit; [stdtrit(np.arange(1, 1000), 0.5 + l / 2).astype('<f8').tofile(f'src/repro/utils/stdtrit_{l:.2f}.f8') for l in (0.90, 0.95, 0.99)]"
    """

    DFS = np.arange(1, 1000)

    @pytest.mark.parametrize("level", [0.90, 0.95, 0.99])
    def test_every_entry_is_stdtrits_bits(self, level, monkeypatch):
        from scipy import special

        from repro.utils import stats

        q = 0.5 + level / 2
        expected = special.stdtrit(self.DFS, q)
        scalars = [special.stdtrit(df, q) for df in self.DFS.tolist()]
        table = stats._t_table(stats._T_TABLES[q])
        assert table.dtype == np.float64 and table.shape == (999,)
        assert table.tobytes() == expected.tobytes()
        # the table answers without stdtrit, for an array df as in
        # summarize_rows and a scalar df as in mean_confidence_interval
        monkeypatch.setattr(special, "stdtrit", None)
        assert stats._t_quantile(self.DFS, q).tobytes() == expected.tobytes()
        for df, t in zip(self.DFS.tolist(), scalars):
            assert float(stats._t_quantile(df, q)).hex() == float(t).hex()

    @pytest.mark.parametrize(
        "df, q",
        [
            (1000, 0.975),
            (100_000, 0.995),
            (np.array([5, 999, 1000]), 0.95),
            (np.array([2, 7]), 0.5 + 0.8 / 2),
            (4, 0.5 + 0.8 / 2),
            (4, np.nextafter(0.975, 1.0)),
            (np.array([3, 4]), np.nextafter(0.995, 0.0)),
        ],
    )
    def test_untabulated_cases_are_stdtrits_bits(self, df, q):
        from scipy.special import stdtrit

        from repro.utils import stats

        expected = stdtrit(df, q)
        assert np.asarray(stats._t_quantile(df, q)).tobytes() == (
            np.asarray(expected).tobytes()
        )

    def test_intervals_at_the_table_edge(self):
        from scipy.special import stdtrit

        xs = np.random.default_rng(5).normal(size=1001)
        for n in (1000, 1001):
            ci = mean_confidence_interval(xs[:n])
            t = float(stdtrit(n - 1, 0.975))
            s = float(np.std(xs[:n], ddof=1))
            assert ci.half_width == t * s / math.sqrt(n)


class TestSerialization:
    def test_jsonable_normalises_numpy_and_tuples(self):
        value = {"a": np.int64(2), "b": (np.float64(1.5), 2), "c": np.arange(3)}
        assert jsonable(value) == {"a": 2, "b": [1.5, 2], "c": [0, 1, 2]}

    def test_canonical_json_is_order_free(self):
        assert canonical_json({"b": 1, "a": (2, 3)}) == canonical_json(
            {"a": [2, 3], "b": 1}
        )

    def test_canonical_json_rejects_unserialisable(self):
        with pytest.raises(TypeError):
            canonical_json({"fn": object()})


class TestBatchMeans:
    def test_iid_interval_covers_mean(self):
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(20):
            bm = BatchMeans(n_batches=10, warmup_fraction=0.0)
            bm.extend(rng.normal(5.0, 1.0, size=2000))
            hits += bm.confidence_interval().contains(5.0)
        assert hits >= 16  # ~19 expected at the 95% level

    def test_warmup_discarded(self):
        bm = BatchMeans(n_batches=2, warmup_fraction=0.5)
        bm.extend([1000.0] * 50 + [1.0] * 50)
        assert bm.confidence_interval().mean == pytest.approx(1.0)

    def test_too_few_observations_raises(self):
        bm = BatchMeans(n_batches=10)
        bm.extend([1.0, 2.0])
        with pytest.raises(ValueError):
            bm.batch_means()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BatchMeans(n_batches=1)
        with pytest.raises(ValueError):
            BatchMeans(warmup_fraction=1.0)


class TestValidation:
    def test_check_positive(self):
        assert check_positive(2.0, "x") == 2.0
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_check_nonnegative(self):
        assert check_nonnegative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_nonnegative(-1.0, "x")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "p")

    def test_probability_matrix(self):
        P = np.array([[0.5, 0.5], [0.0, 1.0]])
        assert check_probability_matrix(P) is not None
        with pytest.raises(ValueError):
            check_probability_matrix(np.array([[0.5, 0.6], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            check_probability_matrix(np.ones((2, 3)))

    def test_substochastic_matrix(self):
        P = np.array([[0.2, 0.3], [0.0, 0.0]])
        assert check_substochastic_matrix(P) is not None
        with pytest.raises(ValueError):
            check_substochastic_matrix(np.array([[0.9, 0.6], [0.0, 0.0]]))
