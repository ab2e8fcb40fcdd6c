"""Simulator: generating-model correctness, substreams, noise identities.

The literal evaluators below integrate over the common refinement of the
timeline and baseline grids, recomputing at-risk sets from the definition,
so they share no code with the prefix-sum implementations they check.
"""

import json
import re
import types

import numpy as np
import pytest

from hazlasso import (
    ConfigError,
    StepFunction,
    build_gram,
    build_timeline,
    default_config,
    linear_dictionary,
)
from hazlasso.simulate import (
    AdministrativeCensoring,
    ExponentialCensoring,
    GaussianCovariates,
    RademacherCovariates,
    SimulationConfig,
    UniformCensoring,
    _TOPUP_TAG,
    config_from_dict,
    drawn_columns,
    load_config,
    noise_terms,
    simulate,
    simulate_batch,
)


def small_config(**overrides):
    base = dict(
        n=40,
        d=2,
        beta0=[0.4, -0.2],
        baseline=StepFunction.constant(2.0),
        covariates=GaussianCovariates(rho=0.0, clip=2.0),
        censoring=UniformCensoring(c_max=2.5),
        seed=123,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def literal_variation(truth, values, timeline):
    """Definition of the predictable variation, one refined interval at a time."""
    grid = np.unique(np.concatenate([timeline.breakpoints, truth.baseline.breakpoints]))
    z = truth.dataset.times
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        at_risk = z >= b
        if not at_risk.any():
            continue
        centered = values[at_risk] - values[at_risk].mean()
        alpha = truth.baseline(0.5 * (a + b)) + truth.h0[at_risk]
        total += float(np.sum(centered**2 * alpha)) * (b - a)
    return total / truth.dataset.n


def literal_noise(truth, phi, timeline):
    """Event sums minus the literally integrated compensator."""
    z, status = truth.dataset.times, truth.dataset.status
    grid = np.unique(np.concatenate([timeline.breakpoints, truth.baseline.breakpoints]))
    out = np.zeros(phi.shape[1])
    for i in np.flatnonzero(status):
        at_risk = z >= z[i]
        out += phi[i] - phi[at_risk].mean(axis=0)
    for a, b in zip(grid[:-1], grid[1:]):
        at_risk = z >= b
        if not at_risk.any():
            continue
        centered = phi[at_risk] - phi[at_risk].mean(axis=0)
        alpha = truth.baseline(0.5 * (a + b)) + truth.h0[at_risk]
        out -= (b - a) * centered.T @ alpha
    return out / truth.dataset.n


class TestCovariateModels:
    def test_gaussian_shape_clip_and_correlation(self):
        model = GaussianCovariates(rho=0.5, clip=2.0)
        noise = np.empty((4000, 3))
        model.noise(np.random.default_rng(1), noise)
        x = model.rows(noise)
        assert x.shape == (4000, 3)
        assert np.abs(x).max() <= 2.0
        r = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(r - 0.5) < 0.1  # clipping attenuates a little

    @pytest.mark.parametrize("rho", [0.0, 0.3, -0.6, 0.9, 0.99])
    def test_ar1_factor_for_m_columns_is_the_leading_block_of_the_factor_for_d(self, rho):
        # column j of a draw reads only the normals of columns 0..j, so m
        # columns drawn alone have the law of the first m of d
        model = GaussianCovariates(rho=rho)
        full = model._factor(50)
        for m in (1, 3, 17, 50):
            if full is None:  # rho = 0 has no factor: the identity
                assert model._factor(m) is None
            else:
                np.testing.assert_allclose(model._factor(m), full[:m, :m], rtol=0, atol=1e-13)
            assert model.leading_columns(m, 50) == m
        assert RademacherCovariates().leading_columns(3, 50) == 3

    def test_drawn_columns_reach_the_support_of_beta0(self):
        cfg = default_config()  # beta0 is nonzero on columns 0, 1 and 2 of 50
        assert [drawn_columns(cfg, c) for c in (1, 3, 4, 50)] == [3, 3, 4, 50]
        assert drawn_columns(small_config(beta0=[0.0, 0.0]), 1) == 1

    def test_a_kind_without_a_triangular_factor_draws_every_column(self):
        class Mixed(GaussianCovariates):
            def leading_columns(self, m, d):
                return d

        cfg = small_config(n=20, d=6, beta0=[0.5, 0, 0, 0, 0, 0], covariates=Mixed(rho=0.4))
        keys = [[5, rep] for rep in range(3)]
        assert drawn_columns(cfg, 1) == 6
        narrowed, full = simulate_batch(cfg, keys, columns=1), simulate_batch(cfg, keys)
        np.testing.assert_array_equal(narrowed.dataset.covariates, full.dataset.covariates)
        np.testing.assert_array_equal(narrowed.dataset.times, full.dataset.times)

    def test_rademacher_values(self):
        noise = np.empty((100, 2))
        RademacherCovariates().noise(np.random.default_rng(2), noise)
        x = RademacherCovariates().rows(noise)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_censoring_supports(self):
        rng = np.random.default_rng(3)
        u = UniformCensoring(c_max=2.5).draw(rng, 500)
        assert u.min() >= 0.0 and u.max() <= 2.5
        e = ExponentialCensoring(rate=1.5).draw(rng, 500)
        assert e.min() > 0.0
        a = AdministrativeCensoring().draw(rng, 5)
        assert np.all(np.isinf(a))


class TestStreamLayout:
    """One generator per replication: the support noise, the event and
    censoring times, then the other columns, column by column."""

    @pytest.mark.parametrize(
        "covariates",
        [GaussianCovariates(rho=0.5, clip=2.5), GaussianCovariates(), RademacherCovariates()],
        ids=["gaussian-clipped", "gaussian-independent", "rademacher"],
    )
    def test_a_narrowed_draw_is_a_prefix_of_the_full_draw(self, covariates):
        beta0 = np.zeros(30)
        beta0[[0, 2]] = [0.8, -0.4]
        cfg = small_config(n=50, d=30, beta0=beta0, covariates=covariates, seed=6)
        keys = [[6, rep] for rep in range(5)]
        full = simulate_batch(cfg, keys)
        for columns in (1, 3, 7):
            narrow = simulate_batch(cfg, keys, columns=columns)
            m = drawn_columns(cfg, columns)
            assert narrow.dataset.covariates.shape == (5, 50, m)
            for got, want in [
                (narrow.h0, full.h0),
                (narrow.dataset.times, full.dataset.times),
                (narrow.dataset.status, full.dataset.status),
                (narrow.dataset.covariates[..., :3], full.dataset.covariates[..., :3]),
                (narrow.redraws, full.redraws),
            ]:
                assert got.tobytes() == want.tobytes()
            np.testing.assert_allclose(
                narrow.dataset.covariates, full.dataset.covariates[..., :m], rtol=0, atol=1e-13
            )

    def test_a_short_first_block_tops_up_from_its_own_substream(self):
        # about 40% of rows make the hazard negative here, past the default
        # limit; a probe that read 0 sizes the first block at n rows, so
        # every replication falls short and draws on from key + [tag]
        n, floor = 30, 0.5
        cfg = small_config(
            n=n, d=3, beta0=[2.0, 0.0, 0.0], baseline=StepFunction.constant(floor),
            covariates=GaussianCovariates(), max_negative_prob=0.5,
        )
        cfg._probe = 0.0
        keys = [[5, rep] for rep in range(4)]
        batch, again = simulate_batch(cfg, keys), simulate_batch(cfg, keys)
        assert batch.dataset.covariates.tobytes() == again.dataset.covariates.tobytes()
        assert np.all(floor + batch.h0 >= 0.0)
        for r, key in enumerate(keys):
            one = simulate(cfg, seed=key)
            assert one.dataset.covariates.tobytes() == batch[r].dataset.covariates.tobytes()
            assert one.dataset.times.tobytes() == batch[r].dataset.times.tobytes()
            # the first block's kept rows, then the top-up stream's, in order
            first = np.random.default_rng(key).standard_normal(n)
            more = np.random.default_rng(key + [_TOPUP_TAG]).standard_normal(20 * n)
            kept_first = first[2.0 * first >= -floor]
            assert kept_first.size < n
            kept_more = np.flatnonzero(2.0 * more >= -floor)[: n - kept_first.size]
            want = np.concatenate([kept_first, more[kept_more]])
            assert batch.dataset.covariates[r, :, 0].tobytes() == want.tobytes()
            assert batch.redraws[r] == n - kept_first.size + kept_more[-1] + 1 - kept_more.size


class TestConfigValidation:
    def test_dimension_checks(self):
        with pytest.raises(ConfigError, match="n >= 1"):
            small_config(n=0)
        with pytest.raises(ConfigError, match="length d"):
            small_config(beta0=[1.0, 2.0, 3.0])

    def test_baseline_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            small_config(baseline=StepFunction(np.array([0.0, 1.0]), np.array([-1.0])))

    def test_negative_prob_bounds(self):
        with pytest.raises(ConfigError, match="max_negative_prob"):
            small_config(max_negative_prob=0.0)


class TestSimulate:
    def test_package_attribute_is_the_module(self):
        # the package must not shadow its submodule with the function
        import hazlasso
        import hazlasso.simulate

        assert isinstance(hazlasso.simulate, types.ModuleType)
        assert callable(hazlasso.simulate.simulate)
        assert callable(hazlasso.simulate.default_config)
        assert "simulate" not in hazlasso.__all__

    def test_deterministic_in_config_seed(self):
        a = simulate(small_config())
        b = simulate(small_config())
        np.testing.assert_array_equal(a.dataset.times, b.dataset.times)
        np.testing.assert_array_equal(a.dataset.status, b.dataset.status)
        np.testing.assert_array_equal(a.dataset.covariates, b.dataset.covariates)
        c = simulate(small_config(), seed=999)
        assert not np.array_equal(a.dataset.times, c.dataset.times)

    def test_sequence_seeds_are_distinct_replications(self):
        cfg = small_config()
        reps = [simulate(cfg, seed=[7, r]) for r in range(3)]
        assert reps[0].seed == (7, 0)
        assert not np.array_equal(reps[0].dataset.times, reps[1].dataset.times)

    def test_basic_invariants(self):
        truth = simulate(small_config(n=150))
        ds = truth.dataset
        assert np.all((ds.times > 0) & (ds.times <= 1))
        np.testing.assert_allclose(truth.h0, ds.covariates @ truth.beta0, rtol=1e-15)
        counts = truth.event_counts
        assert counts["events"] == int(ds.status.sum())
        assert counts["events"] + counts["censored"] == ds.n
        assert counts["administrative"] <= counts["censored"]
        assert truth.redraws >= 0
        assert 0.0 <= truth.negative_prob <= 1.0

    def test_zero_hazard_means_no_events(self):
        cfg = small_config(
            beta0=[0.0, 0.0],
            baseline=StepFunction.constant(0.0),
            censoring=AdministrativeCensoring(),
        )
        truth = simulate(cfg)
        assert truth.event_counts["events"] == 0
        np.testing.assert_array_equal(truth.dataset.times, 1.0)

    def test_administrative_censoring_ends_at_horizon(self):
        truth = simulate(small_config(censoring=AdministrativeCensoring()))
        censored = ~truth.dataset.status
        np.testing.assert_array_equal(truth.dataset.times[censored], 1.0)

    def test_negative_hazard_rejection_names_the_rate(self):
        cfg = small_config(beta0=[3.0, 3.0], baseline=StepFunction.constant(0.1))
        with pytest.raises(ConfigError, match="negative"):
            simulate(cfg)

    def test_redraws_keep_hazard_nonnegative(self):
        # ~11% of rows draw h0 < -1 here, below the 20% rejection cutoff
        cfg = small_config(n=200, beta0=[0.8, 0.0], baseline=StepFunction.constant(1.0))
        truth = simulate(cfg)
        assert np.all(truth.h0 >= -truth.baseline.values.min())
        assert truth.redraws > 0  # this configuration does reject some rows

    def test_censoring_substream_does_not_touch_covariates(self):
        a = simulate(small_config(censoring=UniformCensoring(c_max=2.5)))
        b = simulate(small_config(censoring=AdministrativeCensoring()))
        np.testing.assert_array_equal(a.dataset.covariates, b.dataset.covariates)

    def test_default_config_shape(self):
        cfg = default_config()
        assert (cfg.n, cfg.d) == (200, 50)
        truth = simulate(cfg)
        # roughly 30% censoring by design; allow a wide band
        frac = truth.event_counts["censored"] / cfg.n
        assert 0.1 < frac < 0.5


class TestConfigIO:
    def test_minimal_dict(self):
        cfg = config_from_dict({"n": 10, "d": 2})
        assert cfg.n == 10 and cfg.d == 2
        np.testing.assert_array_equal(cfg.beta0, [0.0, 0.0])
        assert cfg.censoring.kind == "administrative"
        # null leaves an optional option unset
        covariates = {"kind": "gaussian", "rho": 0.2, "clip": None}
        assert config_from_dict({"n": 10, "d": 2, "covariates": covariates}).covariates.clip is None

    def test_sparse_beta0(self):
        cfg = config_from_dict({"n": 5, "d": 4, "beta0": {"indices": [1, 3], "values": [2.0, -1.0]}})
        np.testing.assert_array_equal(cfg.beta0, [0.0, 2.0, 0.0, -1.0])

    @pytest.mark.parametrize(
        "section, spec, key",
        [
            ("beta0", {"indices": [0], "values": [1.0], "scale": 10}, "scale"),
            ("baseline", {"breakpoints": [0, 1], "values": [2.0], "kind": "weibull"}, "kind"),
        ],
    )
    def test_unknown_keys_inside_a_section_are_refused(self, section, spec, key):
        # a misspelt or unsupported option is refused, not dropped
        with pytest.raises(ConfigError, match=f"unknown {section} key '{key}'"):
            config_from_dict({"n": 5, "d": 3, section: spec})

    def test_error_messages_name_the_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"n": 5, "d": 1, "bogus": 1})
        with pytest.raises(ConfigError, match="'n'"):
            config_from_dict({"d": 1})
        with pytest.raises(ConfigError, match="covariates.kind"):
            config_from_dict({"n": 5, "d": 1, "covariates": {"kind": "cauchy"}})
        with pytest.raises(ConfigError, match="baseline"):
            config_from_dict({"n": 5, "d": 1, "baseline": {"breakpoints": [0.0], "values": []}})
        with pytest.raises(ConfigError, match="beta0"):
            config_from_dict({"n": 5, "d": 2, "beta0": {"indices": [9], "values": [1.0]}})

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"n": 200.7}, "n must be an integer, got 200.7"),
            ({"n": True}, "n must be an integer, got True"),
            ({"n": "20"}, "n must be an integer, got '20'"),
            ({"seed": 2.9}, "seed must be an integer, got 2.9"),
            ({"seed": -4}, "seed must be a nonnegative integer, got -4"),
            ({"beta0": {"indices": [-1], "values": [1.0]}},
             "beta0 indices must be integers in [0, 4), got -1"),
            ({"beta0": {"indices": [1, 1], "values": [1.0, 2.0]}},
             "beta0 indices must not repeat, got [1, 1]"),
            ({"beta0": {"indices": [1.7], "values": [1.0]}},
             "beta0 indices must be integers in [0, 4), got 1.7"),
            ({"beta0": {"indices": [0, 2], "values": [1.5]}},
             "beta0 values must be a list of one value per index (2), got [1.5]"),
            ({"beta0": {"indices": [0, 2], "values": 1.5}},
             "beta0 values must be a list of one value per index (2), got 1.5"),
            ({"max_negative_prob": True}, "max_negative_prob must be a number, got True"),
            ({"max_negative_prob": "0.5"}, "max_negative_prob must be a number, got '0.5'"),
            ({"beta0": ["1.5", True, 0, 0]},
             "beta0 must be a list of numbers, got ['1.5', True, 0, 0]"),
            ({"beta0": {"indices": [0], "values": ["2"]}},
             "beta0 values must be a list of numbers, got ['2']"),
            ({"baseline": {"breakpoints": [0.0, 1.0], "values": [True]}},
             "baseline values must be a list of numbers, got [True]"),
            ({"baseline": {"breakpoints": ["0", True], "values": [1.0]}},
             "baseline breakpoints must be a list of numbers, got ['0', True]"),
            ({"covariates": {"kind": "gaussian", "rho": False}},
             "covariates.rho must be a number, got False"),
            ({"covariates": {"kind": "gaussian", "rho": "0.3"}},
             "covariates.rho must be a number, got '0.3'"),
            ({"covariates": {"kind": "gaussian", "rho": None}},
             "covariates.rho must be a number, got None"),
            ({"censoring": {"kind": "uniform", "c_max": True}},
             "censoring.c_max must be a number, got True"),
        ],
        ids=["n-float", "n-bool", "n-string", "seed-float", "seed-negative", "index-negative",
             "index-repeated", "index-float", "values-short", "values-scalar",
             "max-negative-prob-bool", "max-negative-prob-string", "beta0-string-and-bool",
             "values-string",
             "baseline-values-bool", "baseline-breakpoints-string-and-bool", "rho-bool",
             "rho-string", "rho-null", "c-max-bool"],
    )
    def test_integers_and_indices_are_refused_not_coerced(self, change, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            config_from_dict({"n": 5, "d": 4, **change})

    def test_load_config_file_round_trip(self, tmp_path):
        raw = {
            "n": 25,
            "d": 3,
            "beta0": [0.5, 0.0, -0.5],
            "baseline": {"breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 3.0]},
            "covariates": {"kind": "rademacher"},
            "censoring": {"kind": "exponential", "rate": 2.0},
            "seed": 77,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(str(path))
        assert cfg.n == 25 and cfg.seed == 77
        assert cfg.covariates.kind == "rademacher"
        assert cfg.censoring.rate == 2.0
        np.testing.assert_array_equal(cfg.baseline.values, [1.0, 3.0])

    def test_load_config_default_literal(self):
        cfg = load_config("default")
        assert (cfg.n, cfg.d, cfg.seed) == (200, 50, 20260814)

    def test_load_config_errors_carry_the_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match="nope.json"):
            load_config(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(bad))


class TestBaselineIntegrals:
    def test_constant_baseline(self):
        truth = simulate(small_config())
        tl = build_timeline(truth.dataset)
        out = tl.interval_integrals(StepFunction.constant(2.0))
        np.testing.assert_allclose(out, 2.0 * tl.lengths, rtol=1e-14)

    def test_misaligned_breakpoints_sum_to_total_mass(self):
        truth = simulate(small_config())
        tl = build_timeline(truth.dataset)
        base = StepFunction(np.array([0.0, 1 / 3, 1.0]), np.array([3.0, 0.5]))
        out = tl.interval_integrals(base)
        total = 3.0 / 3.0 + 0.5 * 2.0 / 3.0
        np.testing.assert_allclose(out.sum(), total, rtol=1e-14)
        # each entry is the integral over its own interval
        for k in range(len(tl.lengths)):
            a, b = tl.breakpoints[k], tl.breakpoints[k + 1]
            grid = np.unique(np.clip(base.breakpoints, a, b))
            mids = 0.5 * (grid[:-1] + grid[1:])
            np.testing.assert_allclose(out[k], np.sum(base(mids) * np.diff(grid)), atol=1e-14)


class TestPredictableVariation:
    def test_constant_column_has_zero_variation(self):
        truth = simulate(small_config())
        tl = build_timeline(truth.dataset)
        assert noise_terms(truth, np.full(truth.dataset.n, 3.0), tl)[2] <= 1e-14

    def test_matches_literal_integration(self):
        rng = np.random.default_rng(20)
        for seed in range(5):
            truth = simulate(small_config(n=30, seed=500 + seed))
            tl = build_timeline(truth.dataset)
            v = rng.normal(size=30)
            got = noise_terms(truth, v, tl)[2]
            want = literal_variation(truth, v, tl)
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_micro_closed_form(self, micro_dataset):
        # with baseline 1 and h0 = 0 the variation is just the empirical
        # squared norm, 1/8 on the micro instance
        truth = simulate(small_config(n=2, beta0=[0.0, 0.0], baseline=StepFunction.constant(1.0)))
        truth.h0 = np.zeros(2)
        tl = build_timeline(micro_dataset)
        v = micro_dataset.covariates[:, 0]
        np.testing.assert_allclose(noise_terms(truth, v, tl)[2], 0.125, rtol=1e-14)


class TestNoiseVector:
    def test_matches_literal_integration(self):
        for seed in range(5):
            truth = simulate(small_config(n=25, seed=600 + seed))
            dic = linear_dictionary(truth.dataset)
            tl = build_timeline(truth.dataset)
            got = noise_terms(truth, dic.values, tl)[0]
            want = literal_noise(truth, dic.values, tl)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_event_vector_decomposition(self):
        # hn splits into the signal inner products plus the martingale noise
        for seed in range(5):
            truth = simulate(small_config(n=60, seed=700 + seed))
            dic = linear_dictionary(truth.dataset)
            system = build_gram(truth.dataset, dic)
            tl = system.timeline
            signal = tl.cross_moment(tl.centered(dic.values), tl.centered(truth.h0))[:, 0]
            noise = noise_terms(truth, dic.values, tl)[0]
            scale = np.abs(system.vector).max() + 1e-12
            np.testing.assert_allclose(signal + noise, system.vector, rtol=0, atol=1e-10 * scale)

    def test_mean_zero_over_replications(self):
        # terminal value of a mean-zero martingale: the MC average stays
        # within 3 standard errors of 0
        cfg = small_config(n=50)
        draws = []
        for rep in range(200):
            truth = simulate(cfg, seed=[31, rep])
            dic = linear_dictionary(truth.dataset)
            draws.append(noise_terms(truth, dic.values, build_timeline(truth.dataset))[0][0])
        draws = np.asarray(draws)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean()) <= 3.0 * se
