"""Tests for the async serving gateway (repro.serve.gateway)."""

from __future__ import annotations

import asyncio

import pytest

from repro.core import OptimizerConfig
from repro.dvfs import GaConfig
from repro.errors import Overloaded, ServeError
from repro.serve import (
    AsyncGateway,
    GatewayConfig,
    StrategyService,
    StrategyStore,
    TokenBucket,
)
from repro.serve.service import ServeResult, ServiceStats
from repro.workloads import build_trace
from tests.conftest import make_compute_op

TINY_GA = GaConfig(population_size=10, iterations=8, seed=0, patience=5)


@pytest.fixture(scope="module")
def tiny_config():
    return OptimizerConfig(ga=TINY_GA, seed=0)


def _trace(tag: str, cycles: float = 100_000.0):
    return build_trace(
        f"gw_{tag}", [make_compute_op(name=f"{tag}_op", core_cycles=cycles)]
    )


def _service(tmp_path, config, name="store"):
    return StrategyService(config=config, store=StrategyStore(tmp_path / name))


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert not bucket.try_take(0.5)
        assert bucket.try_take(1.5)

    def test_capacity_capped_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        assert bucket.try_take(0.0)
        # A long idle period refills at most one token.
        assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)

    def test_non_monotonic_now_is_safe(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(5.0)
        # Clock going backwards never mints tokens.
        assert not bucket.try_take(4.0)
        assert bucket.try_take(6.5)


class TestGatewayConfig:
    def test_defaults_valid(self):
        config = GatewayConfig()
        assert config.max_queue_depth >= 1
        assert config.dispatchers >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            {"dispatchers": 0},
            {"rate_per_source": -1.0},
            {"burst_per_source": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ServeError):
            GatewayConfig(**kwargs)

    def test_effective_burst_defaults_to_rate(self):
        assert GatewayConfig(rate_per_source=50.0).effective_burst == 50.0
        assert GatewayConfig(
            rate_per_source=50.0, burst_per_source=7.0
        ).effective_burst == 7.0


class TestAsyncGateway:
    def test_unstarted_gateway_rejects(self, tmp_path, tiny_config):
        with _service(tmp_path, tiny_config) as service:
            gateway = AsyncGateway(service)
            with pytest.raises(ServeError):
                gateway.submit_nowait(_trace("unstarted"))

    def test_hit_resolves_synchronously(self, tmp_path, tiny_config):
        trace = _trace("hot")
        with _service(tmp_path, tiny_config) as service:
            service.request(trace)  # warm the store

            async def run():
                async with AsyncGateway(service) as gateway:
                    outcome = gateway.submit_nowait(trace)
                    assert isinstance(outcome, ServeResult)
                    assert outcome.source == "memory"
                    return gateway.stats

            stats = asyncio.run(run())
        assert stats.memory_hits == 1
        assert stats.ga_runs == 0

    def test_miss_matches_serial_service(self, tmp_path, tiny_config):
        """Determinism bar: gateway strategies are byte-identical to a
        serial StrategyService run of the same trace."""
        trace = _trace("identical")

        async def run(service):
            async with AsyncGateway(service) as gateway:
                return await gateway.submit(trace)

        with _service(tmp_path, tiny_config, "gw") as service:
            via_gateway = asyncio.run(run(service))
        with _service(tmp_path, tiny_config, "serial") as serial:
            reference = serial.request(trace)
        assert via_gateway.source == "computed"
        assert (
            via_gateway.strategy.to_json() == reference.strategy.to_json()
        )
        # ... and the committed store records carry the same bytes.
        gw_record = (
            StrategyStore(tmp_path / "gw")
            .path_for(via_gateway.fingerprint)
            .read_text(encoding="utf-8")
        )
        serial_record = (
            StrategyStore(tmp_path / "serial")
            .path_for(reference.fingerprint)
            .read_text(encoding="utf-8")
        )
        assert gw_record == serial_record

    def test_miss_counts_trimmed_generations_like_service(self, tmp_path):
        """One GA-run accounting path: the gateway's counters match the
        service's commit, early-stopped generations included."""
        config = OptimizerConfig(
            ga=GaConfig(population_size=10, iterations=40, seed=0)
        ).with_patience(2)

        async def run(service):
            async with AsyncGateway(service) as gateway:
                await gateway.submit(_trace("trimmed"))
                return gateway.stats

        with _service(tmp_path, config) as service:
            stats = asyncio.run(run(service))
        assert stats.ga_runs == service.stats.ga_runs == 1
        assert stats.ga_generations == service.stats.ga_generations
        assert (
            stats.ga_generations_trimmed
            == service.stats.ga_generations_trimmed
            > 0
        )

    def test_coalescing_one_ga_run_many_waiters(self, tmp_path, tiny_config):
        """N concurrent submissions of one cold fingerprint run the GA
        exactly once and all receive the identical strategy."""
        trace = _trace("coalesce")
        waiters = 8

        async def run(service):
            async with AsyncGateway(service) as gateway:
                outcomes = [
                    gateway.submit_nowait(trace) for _ in range(waiters)
                ]
                assert gateway.inflight == 1
                results = await asyncio.gather(*outcomes)
                return results, gateway.stats

        with _service(tmp_path, tiny_config) as service:
            results, stats = asyncio.run(run(service))
        assert stats.ga_runs == 1
        sources = sorted(result.source for result in results)
        assert sources.count("computed") == 1
        assert sources.count("coalesced") == waiters - 1
        documents = {result.strategy.to_json() for result in results}
        assert len(documents) == 1

    def test_queue_full_sheds_typed(self, tmp_path, tiny_config):
        config = GatewayConfig(max_queue_depth=1, dispatchers=1)
        traces = [_trace(f"qf{i}", cycles=90_000.0 + i) for i in range(3)]

        async def run(service):
            async with AsyncGateway(service, config) as gateway:
                # Submitted back-to-back with no suspension point: the
                # dispatcher never gets the loop, so the queue fills.
                first = gateway.submit_nowait(traces[0])
                with pytest.raises(Overloaded) as excinfo:
                    for trace in traces[1:]:
                        gateway.submit_nowait(trace)
                assert excinfo.value.reason == "queue_full"
                await first
                return gateway.stats

        with _service(tmp_path, tiny_config) as service:
            stats = asyncio.run(run(service))
        assert stats.shed >= 1
        assert stats.shed_rate > 0.0

    def test_rate_limit_sheds_on_virtual_clock(self, tmp_path, tiny_config):
        trace = _trace("ratelimited")
        config = GatewayConfig(rate_per_source=1.0, burst_per_source=1.0)

        async def run(service):
            async with AsyncGateway(service, config) as gateway:
                assert isinstance(
                    gateway.submit_nowait(trace, source="a", now=0.0),
                    ServeResult,
                )
                with pytest.raises(Overloaded) as excinfo:
                    gateway.submit_nowait(trace, source="a", now=0.1)
                assert excinfo.value.reason == "rate_limited"
                # An independent source has its own bucket.
                assert isinstance(
                    gateway.submit_nowait(trace, source="b", now=0.1),
                    ServeResult,
                )
                # ... and the original source recovers after a refill.
                assert isinstance(
                    gateway.submit_nowait(trace, source="a", now=1.2),
                    ServeResult,
                )
                return gateway.stats

        with _service(tmp_path, tiny_config) as service:
            service.request(trace)  # warm: hits resolve synchronously
            stats = asyncio.run(run(service))
        assert stats.shed == 1
        assert stats.requests == 3

    def test_drain_rejects_new_finishes_admitted(self, tmp_path, tiny_config):
        cold = _trace("drain_cold")
        late = _trace("drain_late", cycles=123_456.0)

        async def run(service):
            async with AsyncGateway(service) as gateway:
                admitted = gateway.submit_nowait(cold)
                drain = asyncio.create_task(gateway.drain())
                await asyncio.sleep(0)  # let drain flip the flag
                assert gateway.draining
                with pytest.raises(Overloaded) as excinfo:
                    gateway.submit_nowait(late)
                assert excinfo.value.reason == "draining"
                result = await admitted
                await drain
                return result

        with _service(tmp_path, tiny_config) as service:
            result = asyncio.run(run(service))
        # The admitted request survived the drain and was committed.
        assert result.source == "computed"
        assert service.store.get(result.fingerprint) is not None


class TestServiceStatsZeroSafety:
    def test_all_aggregates_defined_at_zero(self):
        stats = ServiceStats()
        assert stats.hit_rate == 0.0
        assert stats.shed_rate == 0.0
        assert stats.mean_latency_seconds == 0.0
        assert stats.offered == 0
        assert {row["counter"] for row in stats.rows()} >= {
            "requests",
            "shed",
            "hit_rate",
            "shed_rate",
        }

    def test_shed_only_traffic(self):
        stats = ServiceStats()
        for _ in range(5):
            stats.record_shed()
        assert stats.offered == 5
        assert stats.shed_rate == 1.0
        assert stats.hit_rate == 0.0

    def test_source_counts_always_complete(self):
        assert set(ServiceStats().source_counts()) == {
            "memory",
            "hot",
            "disk",
            "coalesced",
            "computed",
            "shed",
        }
