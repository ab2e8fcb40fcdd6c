"""Deviation-bound constants, the empirical bound, and the MC harness.

Reference values were frozen from a 50-digit mpmath evaluation of the
closed forms:

    general loglog at (vhat=1, r=1, x=1, n=100)   = 2.0360057814362042
    preset c2 = 2 sqrt(56/3) + 2/3               = 9.3076542645438136
    preset c3 = 8 + pi^2 / log(2)^2              = 28.542288455223820
    bound at (vhat=0, r=1, x=1, n=100)           = c2 / 50
                                                 = 0.18615308529087627
    (the loglog ratio there is exactly e/2, clamped to zero)
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

from hazlasso import (
    BernsteinConstants,
    ConfigError,
    StepFunction,
    bound_empirical,
    build_timeline,
    classical_bound,
    compute_weights,
    half_range,
    linear_dictionary,
    noise_process_terminal,
    run_mc,
    wilson_interval,
)
from hazlasso import bernstein
from hazlasso.bernstein import (
    PAPER_NUMERIC,
    PAPER_NUMERIC_PRINTED_C3,
    WILSON_Z,
    _margin_quantile,
    _mc_chunk,
    loglog_correction,
    zeta,
)
from hazlasso.gram import build_gram
from hazlasso.simulate import (
    AdministrativeCensoring,
    GaussianCovariates,
    RademacherCovariates,
    _negative_probability,
    noise_terms,
    simulate,
    simulate_batch,
)

from test_simulate import small_config

LOGLOG_GENERAL_REFERENCE = 2.0360057814362042
PRESET_C2 = 9.3076542645438136
PRESET_C3 = 28.542288455223820
PRESET_BOUND_REFERENCE = 0.18615308529087627


def zero_noise_replications(cfg, reps: int) -> int:
    """Replications of ``run_mc(cfg, 0, ..., reps)`` that it keeps (column
    0 not constant) and whose Z is exactly 0, from the draws it makes."""
    abs_z, _, _, r = _mc_chunk(cfg, 0, cfg.seed, range(reps))
    return int(np.sum((abs_z == 0.0) & (r > 0)))


class TestZeta:
    def test_exact_at_two(self):
        assert zeta(2.0) == math.pi**2 / 6.0

    def test_series_values(self):
        np.testing.assert_allclose(zeta(3.0), 1.2020569031595943, rtol=1e-12)
        np.testing.assert_allclose(zeta(4.0), math.pi**4 / 90.0, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError, match="s > 1"):
            zeta(1.0)


class TestConstants:
    def test_preset_triple(self):
        c = PAPER_NUMERIC
        assert (c.c_ell, c.epsilon) == (2.0, 1.0)
        assert c.c0 == 56.0 / (3.0 * math.e)
        assert c.stated_c3 == 28.55

    def test_derived_constants_frozen(self):
        c = PAPER_NUMERIC
        assert c.c1 == 2.0 * math.sqrt(2.0)
        np.testing.assert_allclose(c.c2, PRESET_C2, rtol=1e-15)
        np.testing.assert_allclose(c.c3, PRESET_C3, rtol=1e-15)
        assert c.mc_c3 == 28.55

    def test_published_ceilings_hold(self):
        assert PAPER_NUMERIC.c2 <= 9.31
        assert PAPER_NUMERIC.c3 <= 28.55

    def test_printed_variant_is_reported_not_used(self):
        np.testing.assert_allclose(PAPER_NUMERIC_PRINTED_C3, PRESET_C3 + 4.0, rtol=1e-15)
        desc = PAPER_NUMERIC.describe()
        assert desc["c3_printed_variant"] == PAPER_NUMERIC_PRINTED_C3
        assert desc["c3_used_for_bounds"] == 28.55
        custom = BernsteinConstants(c_ell=2.0, epsilon=0.5)
        assert "c3_printed_variant" not in custom.describe()

    def test_tail_probability(self):
        np.testing.assert_allclose(
            PAPER_NUMERIC.tail_probability(5.0), 28.55 * math.exp(-5.0), rtol=1e-15
        )
        exact = BernsteinConstants()
        np.testing.assert_allclose(exact.tail_probability(5.0), exact.c3 * math.exp(-5.0))

    def test_parameter_validation(self):
        with pytest.raises(ConfigError, match="c_ell"):
            BernsteinConstants(c_ell=1.0)
        with pytest.raises(ConfigError, match="epsilon"):
            BernsteinConstants(epsilon=0.0)
        with pytest.raises(ConfigError, match="c0"):
            BernsteinConstants(c0=-1.0)
        with pytest.raises(ConfigError, match="e\\*c0"):
            BernsteinConstants(c0=3.0)  # e*3 < 2*(7/3)*2


class TestLoglogCorrection:
    def test_frozen_reference(self):
        got = loglog_correction(1.0, 1.0, 1.0, 100, PAPER_NUMERIC)
        np.testing.assert_allclose(got, LOGLOG_GENERAL_REFERENCE, rtol=1e-14)

    def test_clamp_at_e(self):
        # vanishing vhat leaves the ratio at exactly e/2, inside the clamp
        assert loglog_correction(0.0, 1.0, 1.0, 100, PAPER_NUMERIC) == 0.0

    def test_dead_column(self):
        assert loglog_correction(0.0, 0.0, 1.0, 100, PAPER_NUMERIC) == 0.0

    def test_monotone_in_x(self):
        vals = [loglog_correction(1.0, 1.0, x, 50, PAPER_NUMERIC) for x in (0.5, 1.0, 2.0, 8.0)]
        assert np.all(np.diff(vals) >= 0.0)

    def test_arrays_broadcast(self):
        out = loglog_correction(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0, 100, PAPER_NUMERIC)
        np.testing.assert_allclose(out, [LOGLOG_GENERAL_REFERENCE, 0.0], rtol=1e-14)
        assert isinstance(loglog_correction(1.0, 1.0, 1.0, 100, PAPER_NUMERIC), float)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            loglog_correction(1.0, 1.0, 0.0, 100, PAPER_NUMERIC)
        with pytest.raises(ValueError, match="n must"):
            loglog_correction(1.0, 1.0, 1.0, 0, PAPER_NUMERIC)
        with pytest.raises(ValueError, match="nonnegative"):
            loglog_correction(-1.0, 1.0, 1.0, 100, PAPER_NUMERIC)


class TestHalfRange:
    def test_examples(self):
        values = np.array([[-3.0, 1.0], [2.0, -1.0]])
        np.testing.assert_array_equal(half_range(values), [2.5, 1.0])

    def test_single_row(self):
        # one record is a constant column
        np.testing.assert_array_equal(half_range(np.array([[-0.5]])), [0.0])

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(20, 4))
        perm = rng.permutation(20)
        np.testing.assert_array_equal(half_range(values), half_range(values[perm]))

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(10, 3))
        np.testing.assert_allclose(half_range(-2.5 * values), 2.5 * half_range(values), rtol=1e-15)

    def test_shift_invariant_and_zero_on_constant_columns(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(12, 3))
        for c in (-1e3, 0.1, 1e4):
            np.testing.assert_allclose(half_range(values + c), half_range(values), rtol=1e-11)
        for c in (0.0, 1e-3, 1.0 / 3.0, 1e4 + 0.1, -1e8):
            assert half_range(np.full((7, 1), c)).tolist() == [0.0]

    def test_batch_is_per_replication(self):
        values = np.random.default_rng(6).normal(size=(3, 9, 2))
        got = half_range(values)
        assert got.shape == (3, 2)
        for r in range(3):
            np.testing.assert_array_equal(got[r], half_range(values[r]))


class TestBoundEmpirical:
    def test_frozen_reference(self):
        got = bound_empirical(0.0, 1.0, 1.0, 100)
        np.testing.assert_allclose(got, PRESET_BOUND_REFERENCE, rtol=1e-15)
        np.testing.assert_allclose(got, PAPER_NUMERIC.c2 / 50.0, rtol=1e-15)

    def test_zero_sup_degenerates_to_zero(self):
        assert bound_empirical(0.0, 0.0, 3.0, 100) == 0.0

    def test_monotone_in_x(self):
        xs = (0.5, 1.0, 2.0, 5.0, 9.0)
        vals = [bound_empirical(0.7, 1.2, x, 80) for x in xs]
        assert np.all(np.diff(vals) > 0.0)

    def test_exact_column_scaling(self):
        # rescaling the column by c multiplies (vhat, r) by (c^2, |c|) and
        # the bound by |c|; the loglog ratio is scale-free
        c = 3.0
        base = bound_empirical(0.7, 1.2, 2.0, 80)
        scaled = bound_empirical(c**2 * 0.7, c * 1.2, 2.0, 80)
        np.testing.assert_allclose(scaled, c * base, rtol=1e-14)

    def test_classical_bound_closed_form(self):
        np.testing.assert_allclose(
            classical_bound(1.0, 2.0, 100),
            math.sqrt(2.0 * 2.0 / 100.0) + 2.0 / 300.0,
            rtol=1e-15,
        )
        with pytest.raises(ValueError, match="positive"):
            classical_bound(1.0, 0.0, 100)
        with pytest.raises(ValueError, match="nonnegative"):
            classical_bound(-1.0, 1.0, 100)

    def test_classical_bound_array_is_the_scalar_form_per_element(self):
        v = np.array([0.0, 1e-300, 0.125, 1.0, 7.5, 1e6])
        for x in (0.5, 2.0, 6.0):
            got = classical_bound(v, x, 200)
            assert got.shape == v.shape
            assert got.tolist() == [classical_bound(float(vi), x, 200) for vi in v]
        with pytest.raises(ValueError, match="nonnegative"):
            classical_bound(np.array([1.0, -1e-12]), 1.0, 100)
        with pytest.raises(ValueError, match="positive"):
            classical_bound(v, 0.0, 100)


class TestWilsonInterval:
    def test_against_scipy(self):
        for k, n in [(0, 10), (5, 100), (37, 200), (200, 200)]:
            low, high = wilson_interval(k, n)
            ci = stats.binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
            np.testing.assert_allclose([low, high], [ci.low, ci.high], rtol=0, atol=1e-10)

    def test_edges(self):
        low, high = wilson_interval(0, 50)
        assert low <= 1e-12 and 0.0 < high < 0.2
        low, high = wilson_interval(50, 50)
        assert high >= 1.0 - 1e-12 and low > 0.8

    def test_validation(self):
        with pytest.raises(ValueError, match="trial"):
            wilson_interval(0, 0)
        with pytest.raises(ValueError, match="successes"):
            wilson_interval(5, 4)


class TestNoiseProcessTerminal:
    def _micro_truth(self, micro_dataset):
        truth = simulate(small_config(n=2, beta0=[0.0, 0.0], baseline=StepFunction.constant(1.0)))
        truth.dataset = micro_dataset
        truth.h0 = np.zeros(2)
        return truth

    def test_micro_values(self, micro_dataset):
        truth = self._micro_truth(micro_dataset)
        tl = build_timeline(micro_dataset)
        z, vhat, var = noise_process_terminal(truth, micro_dataset.covariates[:, 0], tl)
        # with h0 = 0 the signal vanishes, so Z is the event vector itself
        np.testing.assert_allclose(z, -0.25, rtol=0, atol=1e-14)
        np.testing.assert_allclose(vhat, 0.125, rtol=0, atol=1e-15)
        np.testing.assert_allclose(var, 0.125, rtol=0, atol=1e-15)

    def test_vhat_matches_weights_module(self):
        truth = simulate(small_config(n=60))
        dic = linear_dictionary(truth.dataset)
        system = build_gram(truth.dataset, dic)
        by_weights = compute_weights(system).vhat
        for j in range(dic.M):
            _, vhat, _ = noise_process_terminal(truth, dic.values[:, j], system.timeline)
            np.testing.assert_allclose(vhat, by_weights[j], rtol=1e-12)

    def test_z_matches_noise_vector(self):
        for seed in range(3):
            truth = simulate(small_config(n=50, seed=800 + seed))
            dic = linear_dictionary(truth.dataset)
            tl = build_timeline(truth.dataset)
            full = noise_terms(truth, dic.values, tl)[0]
            for j in range(dic.M):
                z, _, _ = noise_process_terminal(truth, dic.values[:, j], tl)
                assert abs(z - full[j]) <= 1e-10 * (abs(full[j]) + 1.0)

    def test_no_events_no_hazard(self):
        cfg = small_config(
            beta0=[0.0, 0.0],
            baseline=StepFunction.constant(0.0),
            censoring=AdministrativeCensoring(),
        )
        truth = simulate(cfg)
        tl = build_timeline(truth.dataset)
        z, vhat, var = noise_process_terminal(truth, truth.dataset.covariates[:, 0], tl)
        assert (z, vhat, var) == (0.0, 0.0, 0.0)


class TestRunMC:
    def test_smoke_run_structure(self):
        cfg = small_config(n=40)
        report = run_mc(cfg, column=0, x_grid=[1.0, 3.0, 5.0], replications=60, seed=4)
        assert isinstance(report, dict)
        assert report["excluded_degenerate"] == 0
        freqs = [row["frequency"] for row in report["rows"]]
        assert np.all(np.diff(freqs) <= 0.0)  # violation sets are nested in x
        for row in report["rows"]:
            assert row["wilson_low"] <= row["frequency"] <= row["wilson_high"]
            assert row["margin_min"] <= row["margin_median"] <= row["margin_q90"]
        # tail bound above 1 can never fail
        trivial = [row for row in report["rows"] if row["tail_bound"] >= 1.0]
        assert trivial and all(row["passed"] for row in trivial)
        payload = json.dumps(report)
        assert "c3_printed_variant" in payload

    def test_margin_quantiles_are_never_nan(self):
        # Rademacher covariates with a zero model and rare events: at the
        # first seed from 9 where several replications have Z exactly 0
        # (elsewhere Z can be a roundoff residual of about 1e-18), so
        # several margin ratios are inf
        for seed in range(9, 29):
            cfg = small_config(
                n=12, beta0=[0.0, 0.0], baseline=StepFunction.constant(0.05),
                covariates=RademacherCovariates(), censoring=AdministrativeCensoring(), seed=seed,
            )
            if zero_noise_replications(cfg, 14) >= 2:
                break
        assert zero_noise_replications(cfg, 14) >= 2
        report = run_mc(cfg, 0, [0.5, 2.0], 14)
        assert "NaN" not in json.dumps(report)
        for row in report["rows"]:
            margins = [row[k] for k in ("margin_min", "margin_q10", "margin_median", "margin_q90")]
            assert not any(math.isnan(m) for m in margins)
            assert margins == sorted(margins)
            assert row["margin_q90"] == math.inf

    def test_constant_column_replications_are_excluded(self):
        # n = 3 Rademacher draws give a constant column in about a quarter of
        # the replications; there r = 0 and Z = 0, and such a replication
        # would count 0 >= 0 as a violation, so the harness drops it
        cfg = small_config(n=3, covariates=RademacherCovariates(), seed=2)
        reps = 40
        report = run_mc(cfg, 0, [1.0], reps)
        constant = sum(
            np.ptp(simulate(cfg, seed=[cfg.seed, rep]).dataset.covariates[:, 0]) == 0.0
            for rep in range(reps)
        )
        assert 0 < constant < reps
        assert report["excluded_degenerate"] == constant
        assert report["rows"][0]["violations"] <= reps - constant

    @pytest.mark.parametrize(
        "ratio, q, want",
        [
            ([1.0, 2.0, math.inf, math.inf], 0.9, math.inf),  # between two infs
            ([1.0, 2.0, math.inf], 0.9, math.inf),  # inf carries weight 0.8
            ([1.0, 2.0, math.inf], 0.6, math.inf),  # inf carries weight 0.2
            ([1.0, 2.0, math.inf], 0.5, 2.0),  # inf carries weight 0
            ([1.0, math.inf, math.inf], 0.5, math.inf),
            ([3.0, 1.0, math.inf, 2.0], 0.5, 2.5),
        ],
    )
    def test_margin_quantile_next_to_infinite_ratios(self, ratio, q, want):
        assert _margin_quantile(np.array(ratio), q) == want

    def test_margin_quantile_is_numpy_on_finite_ratios(self):
        ratio = np.random.default_rng(2).exponential(size=37)
        for q in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert _margin_quantile(ratio, q) == float(np.quantile(ratio, q))

    def test_deterministic_in_seed(self):
        cfg = small_config(n=30)
        a = run_mc(cfg, 0, [2.0], 25, seed=9)
        b = run_mc(cfg, 0, [2.0], 25, seed=9)
        assert a["rows"] == b["rows"]

    def test_validation(self):
        cfg = small_config()
        with pytest.raises(ConfigError, match="x grid"):
            run_mc(cfg, 0, [], 10)
        with pytest.raises(ConfigError, match="replication"):
            run_mc(cfg, 0, [1.0], 0)
        with pytest.raises(ConfigError, match="column"):
            run_mc(cfg, 5, [1.0], 10)


class TestNarrowedDraws:
    """``run_mc`` draws only the leading covariate columns it reads."""

    @pytest.mark.parametrize(
        "covariates, column",
        [(GaussianCovariates(rho=0.5, clip=2.5), 0), (GaussianCovariates(rho=0.9), 4),
         (RademacherCovariates(), 1)],
        ids=["gaussian-clipped", "gaussian-past-the-support", "rademacher"],
    )
    def test_report_equals_the_report_on_the_config_narrowed_by_hand(self, covariates, column):
        beta0 = np.zeros(30)
        beta0[[0, 2]] = [0.8, -0.4]
        wide = small_config(n=50, d=30, beta0=beta0, covariates=covariates, seed=6)
        m = max(column, 2) + 1
        narrow = dataclasses.replace(wide, d=m, beta0=beta0[:m])
        reports = [json.dumps(run_mc(cfg, column, [1.0, 3.0], 70)) for cfg in (wide, narrow)]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("column", [0, 2])
    def test_a_support_column_reports_alike_narrowed_and_with_every_column_drawn(
        self, column, monkeypatch
    ):
        beta0 = np.zeros(30)
        beta0[[0, 2]] = [0.8, -0.4]
        cfg = small_config(
            n=50, d=30, beta0=beta0, covariates=GaussianCovariates(rho=0.5, clip=2.5), seed=6
        )
        narrowed = json.dumps(run_mc(cfg, column, [1.0, 3.0], 70))
        monkeypatch.setattr(
            bernstein, "simulate_batch", lambda config, keys, columns: simulate_batch(config, keys)
        )
        assert json.dumps(run_mc(cfg, column, [1.0, 3.0], 70)) == narrowed

    def test_the_negative_hazard_probe_judges_the_full_config(self):
        # the probe draws only the columns h0 reads, so a config narrowed
        # to them probes exactly like the full one, and both refuse alike
        beta0 = np.zeros(20)
        beta0[0] = 1.0
        full = small_config(
            n=30, d=20, beta0=beta0, baseline=StepFunction.constant(0.5),
            covariates=GaussianCovariates(rho=0.3, clip=3.0), seed=4,
        )
        p_full = _negative_probability(full)
        p_narrow = _negative_probability(dataclasses.replace(full, d=1, beta0=beta0[:1]))
        assert p_full == p_narrow
        for limit in (p_full - 0.001, p_full, p_full + 0.001):
            cfg = dataclasses.replace(full, max_negative_prob=limit)
            refused = []
            for run in (lambda: simulate(cfg), lambda: run_mc(cfg, 0, [1.0], 5)):
                try:
                    run()
                except ConfigError as exc:
                    assert "max_negative_prob" in str(exc)
                    refused.append(True)
                else:
                    refused.append(False)
            assert refused == [limit < p_full] * 2
