"""Tests for the surrogate-assisted multi-fidelity GA (repro.dvfs.surrogate).

The contract under test is the NeuroScalar-style split: the ridge
surrogate may shape *where* the GA looks, but every score that leaves
:func:`run_search` — and the returned strategy in particular — comes from
the analytical Eq. (17) oracle.  Alongside that bitwise guarantee the
suite pins the oracle-evaluation accounting, the holdout-R^2 fallback,
and the serving/fingerprint plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fidelity
from repro.core.config import OptimizerConfig
from repro.core.optimizer import EnergyOptimizer
from repro.dvfs.ga import GaConfig, run_search
from repro.dvfs.scoring import StrategyScorer
from repro.dvfs.surrogate import SurrogateConfig, fit_surrogate
from repro.errors import StrategyError
from repro.workloads import generate

#: Small but non-trivial search used throughout; large enough that the
#: surrogate's holdout R^2 clears the default floor on every seed below.
GA = GaConfig(population_size=48, iterations=40, seed=0)
SURROGATE = SurrogateConfig(enabled=True)
#: Gate that always passes/fails regardless of fit quality.
ALWAYS_PASS = SurrogateConfig(enabled=True, r2_floor=-1e9)
ALWAYS_FAIL = SurrogateConfig(enabled=True, r2_floor=2.0)


def _pipeline(workload: str):
    trace = generate(workload, scale=0.02)
    config = OptimizerConfig()
    optimizer = EnergyOptimizer(config)
    bundle = optimizer.profile(trace)
    models = optimizer.build_models(bundle)
    candidates = optimizer.preprocess(bundle)
    scorer = StrategyScorer(
        trace=trace,
        stages=candidates.stages,
        perf_model=models.performance,
        power_table=models.power,
        freqs_mhz=config.npu.frequencies.points,
        performance_loss_target=config.performance_loss_target,
        objective=config.objective,
    )
    return config, candidates, scorer


@pytest.fixture(scope="module")
def gpt3():
    return _pipeline("gpt3")


@pytest.fixture(scope="module")
def llama2():
    return _pipeline("llama2_inference")


class TestSurrogateConfig:
    def test_defaults_disabled(self):
        assert SurrogateConfig().enabled is False
        assert OptimizerConfig().surrogate.enabled is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train_size": 7},
            {"holdout_size": 3},
            {"ridge_lambda": -0.1},
            {"explore_multiplier": 0},
            {"oracle_top_k": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(StrategyError):
            SurrogateConfig(**kwargs)

    def test_with_surrogate_bool_and_instance(self):
        base = OptimizerConfig()
        on = base.with_surrogate()
        assert on.surrogate.enabled is True
        assert base.surrogate.enabled is False  # original untouched
        custom = base.with_surrogate(SurrogateConfig(enabled=True, oracle_top_k=8))
        assert custom.surrogate.oracle_top_k == 8

    def test_surrogate_changes_fingerprint(self):
        from repro.serve.fingerprint import config_fingerprint

        base = OptimizerConfig()
        assert config_fingerprint(base) != config_fingerprint(
            base.with_surrogate()
        )

    def test_kill_switch_not_fingerprinted(self):
        from repro.serve.fingerprint import config_fingerprint

        config = OptimizerConfig().with_surrogate()
        before = config_fingerprint(config)
        with fidelity.reference("engine", "cold_path"):
            assert config_fingerprint(config) == before


class TestOracleGuarantee:
    """Satellite: best_genes must score exactly what the oracle says."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_best_score_is_oracle_bitwise(self, gpt3, seed):
        config, candidates, scorer = gpt3
        result = run_search(
            scorer,
            candidates.stages,
            config.npu.frequencies.points,
            GaConfig(population_size=32, iterations=12, seed=seed),
            surrogate=ALWAYS_PASS,
        )
        assert result.surrogate_used is True
        oracle = float(scorer.score(result.best_genes[None, :])[0])
        assert oracle == result.best_score

    def test_history_is_monotone_oracle_prefix(self, gpt3):
        config, candidates, scorer = gpt3
        result = run_search(
            scorer,
            candidates.stages,
            config.npu.frequencies.points,
            GA,
            surrogate=SURROGATE,
        )
        history = np.asarray(result.history)
        assert np.all(np.diff(history) >= 0.0)
        assert result.best_score == history[-1]


class TestQuality:
    """Satellite: within 1% of the exact GA on seeds 0-4, both workloads."""

    @pytest.mark.parametrize("workload", ["gpt3", "llama2"])
    def test_within_one_percent_seeds_0_to_4(self, workload, request):
        config, candidates, scorer = request.getfixturevalue(workload)
        freqs = config.npu.frequencies.points
        for seed in range(5):
            ga = GaConfig(population_size=48, iterations=40, seed=seed)
            exact = run_search(scorer, candidates.stages, freqs, ga)
            surr = run_search(
                scorer, candidates.stages, freqs, ga, surrogate=SURROGATE
            )
            assert surr.surrogate_used, f"gate fell back on seed {seed}"
            assert surr.surrogate_r2 is not None
            assert surr.surrogate_r2 >= SURROGATE.r2_floor
            if surr.best_genes.tobytes() != exact.best_genes.tobytes():
                ratio = surr.best_score / exact.best_score
                assert ratio >= 0.99, f"seed {seed}: ratio {ratio:.5f}"


class TestGateFallback:
    def test_failed_gate_matches_exact_plus_fit_rows(self, gpt3):
        config, candidates, scorer = gpt3
        freqs = config.npu.frequencies.points
        exact = run_search(scorer, candidates.stages, freqs, GA)
        fallen = run_search(
            scorer, candidates.stages, freqs, GA, surrogate=ALWAYS_FAIL
        )
        assert fallen.surrogate_used is False
        assert fallen.surrogate_r2 is None
        assert fallen.best_genes.tobytes() == exact.best_genes.tobytes()
        assert fallen.best_score == exact.best_score
        assert fallen.history == exact.history
        fit_rows = ALWAYS_FAIL.train_size + ALWAYS_FAIL.holdout_size
        assert fallen.evaluations == exact.evaluations + fit_rows

    def test_fit_surrogate_returns_none_below_floor(self, gpt3):
        _, _, scorer = gpt3
        rng = np.random.default_rng(0)
        model, evaluations = fit_surrogate(scorer, ALWAYS_FAIL, rng)
        assert model is None
        assert evaluations == ALWAYS_FAIL.train_size + ALWAYS_FAIL.holdout_size

    def test_fit_surrogate_passes_default_floor(self, gpt3):
        _, _, scorer = gpt3
        model, _ = fit_surrogate(scorer, SURROGATE, np.random.default_rng(0))
        assert model is not None
        assert model.holdout_r2 >= SURROGATE.r2_floor
        assert model.stage_count == scorer.stage_count


class TestEvaluationAccounting:
    """Satellite: GaResult.evaluations counts oracle calls only."""

    def test_exact_formula(self, gpt3):
        config, candidates, scorer = gpt3
        freqs = config.npu.frequencies.points
        for elite in (0, 2, 5):
            ga = GaConfig(
                population_size=24, iterations=10, seed=0, elite_count=elite
            )
            result = run_search(scorer, candidates.stages, freqs, ga)
            assert result.generations == ga.iterations
            assert result.evaluations == ga.population_size + (
                result.generations * (ga.population_size - elite)
            )

    def test_exact_formula_under_patience(self, gpt3):
        config, candidates, scorer = gpt3
        freqs = config.npu.frequencies.points
        ga = GaConfig(
            population_size=24, iterations=400, seed=0, patience=5
        )
        result = run_search(scorer, candidates.stages, freqs, ga)
        assert result.generations < ga.iterations  # patience actually fired
        assert result.evaluations == ga.population_size + (
            result.generations * (ga.population_size - ga.elite_count)
        )

    def test_surrogate_formula(self, gpt3):
        config, candidates, scorer = gpt3
        freqs = config.npu.frequencies.points
        surrogate = SurrogateConfig(
            enabled=True, r2_floor=-1e9, explore_multiplier=3, oracle_top_k=5
        )
        ga = GaConfig(population_size=24, iterations=10, seed=0)
        result = run_search(
            scorer, candidates.stages, freqs, ga, surrogate=surrogate
        )
        assert result.surrogate_used is True
        fit_rows = surrogate.train_size + surrogate.holdout_size
        final_population = ga.population_size * surrogate.explore_multiplier
        assert result.evaluations == (
            fit_rows
            + surrogate.oracle_top_k * (result.generations + 1)
            + final_population
        )

    def test_surrogate_needs_far_fewer_oracle_calls(self, gpt3):
        config, candidates, scorer = gpt3
        freqs = config.npu.frequencies.points
        exact = run_search(scorer, candidates.stages, freqs, GA)
        surr = run_search(
            scorer, candidates.stages, freqs, GA, surrogate=SURROGATE
        )
        assert surr.surrogate_used is True
        assert surr.evaluations < exact.evaluations / 2


class TestSurrogateModel:
    def test_score_matches_table_gather_with_exact_doubling(self, gpt3):
        _, _, scorer = gpt3
        model, _ = fit_surrogate(
            scorer, ALWAYS_PASS, np.random.default_rng(3)
        )
        rng = np.random.default_rng(7)
        population = rng.integers(
            0, scorer.frequency_count, size=(32, scorer.stage_count)
        )
        rows = np.arange(population.shape[1])[None, :]
        base = model.weights[rows, population].sum(axis=1) + model.bias
        times = model.time_us[rows, population].sum(axis=1)
        meets = times <= model.time_lower_bound_us
        expected = np.where(meets, 2.0 * base, base)
        assert np.array_equal(model.score(population), expected)
        # The feasibility test uses the *exact* time table, never a fit.
        tables = scorer.stage_tables()
        assert np.array_equal(model.time_us, tables.time_us)
        assert model.time_lower_bound_us == scorer.time_lower_bound_us


class TestServingIntegration:
    def test_service_counts_surrogate_runs(self, tmp_path):
        from repro.serve.service import StrategyService
        from repro.serve.store import StrategyStore

        trace = generate("bert", scale=0.02)
        config = OptimizerConfig(
            ga=GaConfig(population_size=16, iterations=6, seed=0)
        ).with_surrogate(
            SurrogateConfig(
                enabled=True, train_size=32, holdout_size=16, r2_floor=-1e9
            )
        )
        with StrategyService(
            config=config, store=StrategyStore(tmp_path)
        ) as service:
            first = service.request(trace)
            second = service.request(trace)
            stats = service.stats
            assert first.source == "computed"
            assert second.source in ("memory", "disk")
            assert stats.ga_runs == 1
            assert stats.surrogate_runs == 1
            rows = {row["counter"]: row["value"] for row in stats.rows()}
            assert rows["surrogate_runs"] == 1

    def test_exact_service_reports_zero_surrogate_runs(self, tmp_path):
        from repro.serve.service import StrategyService
        from repro.serve.store import StrategyStore

        trace = generate("bert", scale=0.02)
        config = OptimizerConfig(
            ga=GaConfig(population_size=16, iterations=6, seed=0)
        )
        with StrategyService(
            config=config, store=StrategyStore(tmp_path)
        ) as service:
            service.request(trace)
            assert service.stats.surrogate_runs == 0

    def test_cli_flags_parse(self):
        from repro.serve.cli import build_bench_parser, build_parser

        warm = build_parser().parse_args(["--surrogate", "gpt3"])
        assert warm.surrogate is True
        bench = build_bench_parser().parse_args(
            ["--requests", "10", "--surrogate"]
        )
        assert bench.surrogate is True
