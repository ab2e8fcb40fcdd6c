"""The leading replication axis: a batch of R datasets is R batches of one.

The Monte Carlo harnesses push chunks of replications through
the batched pipeline (simulate, timeline, noise terms, Gram, weights). A
replication's numbers must not depend on the batch it lands in, so the
reports cannot depend on the chunk length. The configs drawn here include
administrative censoring (ties at 1), Rademacher covariates and a model
whose replications often have no events at all.
"""

import ctypes
import dataclasses
import json
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hazlasso._chunks as chunking
from hazlasso import bernstein, oracle
from hazlasso import (
    ConfigError,
    DataValidationError,
    StepFunction,
    SurvivalDataset,
    build_gram,
    build_timeline,
    compute_weights,
    linear_dictionary,
    mu3_bracket,
    run_mc,
    run_oracle_mc,
    simulate_batch,
)
from hazlasso.simulate import (
    AdministrativeCensoring,
    ExponentialCensoring,
    GaussianCovariates,
    RademacherCovariates,
    SimulationConfig,
    UniformCensoring,
    default_config,
    noise_terms,
    simulate,
)

SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def rare_events_config(n=6, seed=3):
    """A hazard so low that most replications observe no event."""
    return SimulationConfig(
        n=n,
        d=2,
        beta0=[0.0, 0.0],
        baseline=StepFunction.constant(0.2),
        covariates=GaussianCovariates(rho=0.0),
        censoring=AdministrativeCensoring(),
        seed=seed,
    )


@st.composite
def configs(draw):
    n = draw(st.integers(5, 30))
    d = draw(st.integers(2, 4))
    if draw(st.booleans()):
        covariates = RademacherCovariates()
    else:
        covariates = GaussianCovariates(
            rho=draw(st.sampled_from([0.0, 0.3, 0.8])), clip=draw(st.sampled_from([None, 2.0]))
        )
    censoring = draw(
        st.sampled_from(
            [AdministrativeCensoring(), UniformCensoring(c_max=1.5), ExponentialCensoring(rate=2.0)]
        )
    )
    if draw(st.booleans()):
        baseline = StepFunction.constant(draw(st.sampled_from([0.05, 2.0])))
    else:
        baseline = StepFunction(np.array([0.0, 0.4, 1.0]), np.array([1.0, 3.0]))
    beta0 = np.zeros(d)
    beta0[0] = draw(st.sampled_from([0.0, 0.6, -0.6]))
    return SimulationConfig(
        n=n, d=d, beta0=beta0, baseline=baseline, covariates=covariates,
        censoring=censoring, seed=draw(st.integers(0, 10_000)), max_negative_prob=1.0,
    )


def assert_close(got, want, rtol=1e-12):
    """Within rtol relative to the largest magnitude in ``want``."""
    want = np.asarray(want)
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


def pipeline(truth):
    timeline = build_timeline(truth.dataset)
    dictionary = linear_dictionary(truth.dataset)
    system = build_gram(truth.dataset, dictionary, timeline)
    weights = compute_weights(system, 3.0)
    noise = noise_terms(truth, dictionary.values, timeline)
    return system, weights, noise


@pytest.mark.filterwarnings("ignore:constant dictionary column")  # drawn small or binary
@settings(max_examples=40, **SETTINGS)
@given(config=configs(), reps=st.integers(1, 6))
def test_batch_equals_batches_of_one(config, reps):
    keys = [[config.seed, rep] for rep in range(reps)]
    batch = simulate_batch(config, keys)
    system, weights, (z, vhat, var) = pipeline(batch)
    np.testing.assert_array_equal(system.matrix, np.swapaxes(system.matrix, -1, -2))
    for r, key in enumerate(keys):
        one = simulate(config, seed=key)
        got = batch[r]
        assert got.dataset.times.tobytes() == one.dataset.times.tobytes()
        assert got.dataset.status.tobytes() == one.dataset.status.tobytes()
        assert got.dataset.covariates.tobytes() == one.dataset.covariates.tobytes()
        assert got.h0.tobytes() == one.h0.tobytes()
        assert got.redraws == one.redraws
        assert got.event_counts == one.event_counts
        system1, weights1, (z1, vhat1, var1) = pipeline(one)
        assert_close(system.matrix[r], system1.matrix)
        assert_close(system.vector[r], system1.vector)
        assert_close(system.vhat[r], system1.vhat)
        # max and min are exact, so replication r's half-range is bit for bit
        np.testing.assert_array_equal(system[r].half_range, system1.half_range)
        assert_close(weights.w[r], weights1.w)
        for batched, single in ((z, z1), (vhat, vhat1), (var, var1)):
            assert_close(batched[r], single)


def test_rare_events_config_has_empty_replications():
    # the model the properties below lean on for the no-event case, at the
    # first base seed from 3 whose 8 replications have both kinds
    for seed in range(3, 23):
        truth = simulate_batch(rare_events_config(), [[seed, rep] for rep in range(8)])
        events = truth.event_counts["events"]
        if (events == 0).any() and (events > 0).any():
            break
    assert (events == 0).any() and (events > 0).any()
    system, weights, (z, vhat, var) = pipeline(truth)
    empty = events == 0
    assert np.all(system.vector[empty] == 0.0) and np.all(vhat[empty] == 0.0)
    assert np.all(np.isfinite(weights.w)) and np.all(np.isfinite(z))


def reports(config, reps):
    bernstein = run_mc(config, column=0, x_grid=[0.5, 2.0], replications=reps)
    slow = run_oracle_mc(config, x=1.0, replications=max(1, reps // 3), mu3_budget=16)
    whitened = run_oracle_mc(config, x=1.0, replications=max(1, reps // 3), identity_gram=True)
    return [json.dumps(r, sort_keys=True) for r in (bernstein, slow, whitened)]


def harness_configs():
    """Configs the oracle harness can run: whitening needs a regular Gram."""
    return st.one_of(
        configs().filter(lambda c: c.n >= 3 * c.d),
        st.just(rare_events_config(n=12)),
    )


def set_chunk_length(monkeypatch, length: int) -> list:
    """Give both harnesses chunks of ``length``; the returned list collects
    the chunk lengths of every harness run, one list per run."""
    monkeypatch.setattr(bernstein, "chunk_length", lambda config, column: length)
    monkeypatch.setattr(oracle, "CHUNK", length)
    runs = []

    def spy(count, size):
        parts = chunking.chunks(count, size)
        runs.append([len(part) for part in parts])
        return parts

    for module in (bernstein, oracle):
        monkeypatch.setattr(module, "chunks", spy)
    return runs


def assert_chunked(runs: list, length: int):
    for lengths in runs:
        assert lengths[:-1] == [length] * (len(lengths) - 1) and 0 < lengths[-1] <= length


@settings(max_examples=12, **SETTINGS)
@given(config=harness_configs(), reps=st.integers(2, 14))
@example(config=rare_events_config(n=12), reps=14)
def test_reports_do_not_depend_on_the_chunk_length(config, reps, monkeypatch):
    results = []
    for chunk in (1, 7, reps + 1):
        runs = set_chunk_length(monkeypatch, chunk)
        try:
            results.append(reports(config, reps))
        except ConfigError as exc:  # a model the harness refuses is refused at every length
            results.append(repr(exc))
        else:
            assert len(runs) == 3
        assert_chunked(runs, chunk)
    assert results[0] == results[1] == results[2]


def correlated_config():
    """The default 200 x 50 model at rho = 0.9, where b* leaves the cone in
    a few replications in a hundred."""
    return dataclasses.replace(
        default_config(seed=5), covariates=GaussianCovariates(rho=0.9, clip=3.0)
    )


def wide_config():
    """More columns than records, so every replication's Gram is singular."""
    beta0 = np.zeros(40)
    beta0[:3] = [1.0, 1.0, -0.5]
    return SimulationConfig(
        n=30, d=40, beta0=beta0, baseline=StepFunction.constant(2.0),
        covariates=GaussianCovariates(rho=0.3, clip=3.0), censoring=UniformCensoring(c_max=2.5),
        seed=7,
    )


@pytest.mark.parametrize("config, reps", [(correlated_config(), 34), (wide_config(), 10)],
                         ids=["correlated", "wide"])
def test_harness_mu3_column_is_one_bracket_per_replication(config, reps):
    budget = 64
    # the correlated model at the first seed from 5 where some replication
    # has b* outside the cone
    for seed in range(config.seed, config.seed + 20):
        config = dataclasses.replace(config, seed=seed)
        report = run_oracle_mc(config, x=5.0, replications=reps, mu3_budget=budget)
        if config.d > config.n or any(r["mu3_label"] == "indicative" for r in report["rows"]):
            break
    methods = set()
    for rep, row in enumerate(report["rows"]):
        truth = simulate(config, seed=[config.seed, rep])
        dictionary = linear_dictionary(truth.dataset)
        system = build_gram(truth.dataset, dictionary)
        weights = compute_weights(system, 5.0)
        found = mu3_bracket(system, weights, config.beta0, budget, [config.seed, rep, 55])
        assert (row["mu3"], row["mu3_upper"], row["mu3_label"]) == (
            found.mu3_lower, found.mu3_upper, found.label
        )
        methods.add(found.method)
    if config.d > config.n:  # the singular fallback: no closed form, the search bounds below
        assert all(row["mu3_upper"] == np.inf for row in report["rows"])
        assert methods == {"random-cone-sampling"}
    else:  # b* projected onto the cone, against the search
        assert "indicative" in [row["mu3_label"] for row in report["rows"]]
        assert "closed-form" in methods and len(methods) > 1


def test_chunks_cover_every_replication_once():
    assert [list(c) for c in chunking.chunks(10, 4)] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert [list(c) for c in chunking.chunks(3, 32)] == [[0, 1, 2]]
    assert chunking.chunks(0, 4) == []


def test_chunk_length_of_each_harness():
    """From n and the covariate columns a Bernstein chunk draws: 32
    replications at the default and for a narrow draw at a larger size, 8
    when the draw is wide at that size; 8 in every oracle chunk."""
    default = default_config()
    large = dataclasses.replace(default, n=2000, d=200, beta0=np.zeros(200))
    assert bernstein.chunk_length(default, 0) == bernstein.chunk_length(default, 49) == 32
    assert bernstein.chunk_length(large, 0) == 32
    assert bernstein.chunk_length(large, 199) == 8
    assert oracle.CHUNK == 8


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def test_keeping_chunk_memory_twice_is_harmless():
    first = chunking._keep_chunk_memory()
    assert chunking._keep_chunk_memory() == first
    chunking._keep_chunk_memory.cache_clear()  # the settings again, from scratch
    assert chunking._keep_chunk_memory() == first


def test_keeping_chunk_memory_without_mallopt_does_nothing(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    chunking._keep_chunk_memory.cache_clear()
    try:
        assert chunking._keep_chunk_memory() is False
        # a harness still runs, with malloc's settings left as they were
        assert run_mc(default_config(), 0, [4.0], 8)["replications"] == 8
    finally:
        chunking._keep_chunk_memory.cache_clear()


@pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
def test_a_repeated_oracle_run_reuses_its_chunk_memory():
    # the arrays of a chunk come back from malloc, not from the kernel page
    # by page; without the setting this run takes about 2500 minor faults
    import resource  # POSIX only, like mallopt

    config = default_config()
    run_oracle_mc(config, replications=16, identity_gram=True)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_oracle_mc(config, replications=16, identity_gram=True)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_single_dataset_is_a_batch_of_one():
    config = rare_events_config(n=9)
    one = simulate(config, seed=[3, 2])
    assert one.dataset.times.shape == (9,) and one.h0.shape == (9,)
    assert isinstance(one.redraws, int) and isinstance(one.event_counts["events"], int)
    system, weights, (z, vhat, var) = pipeline(one)
    assert system.matrix.shape == (2, 2) and weights.w.shape == (2,) and z.shape == (2,)


def test_batched_dataset_names_the_replication():
    times = np.full((2, 3), 0.5)
    times[1, 2] = np.nan
    with pytest.raises(DataValidationError, match="replication 1, record 2"):
        SurvivalDataset(times=times, status=np.ones((2, 3), bool), covariates=np.zeros((2, 3, 1)))
