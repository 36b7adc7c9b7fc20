"""Benchmark: async wave prefetch over a remote store vs the sync path.

The streaming campaign mode overlaps store round trips with compute: while
wave N evaluates, a background thread already issues wave N+1's batched
``mget``.  Against a remote store every synchronous wave pays its lookup
round trip *before* any evaluation starts, so on a cold cache the
streamed path must win wall clock — by at least
:data:`PREFETCH_SPEEDUP_FLOOR` here, with the round-trip cost made
deterministic by a latency-injecting wrapper around the real
:class:`~repro.store.RemoteBackend` (the store service itself runs live;
only the wire latency is simulated, as LAN loopback is too fast to show
the WAN effect the overlap exists for).

The second claim is that overlap changes *when* requests happen, never
*what* is stored: after a cold streamed campaign, a repeat run — sync or
streamed — is served 100% from the remote store.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping, Sequence, Tuple

import pytest

from repro.core.exploration import RSPDesignSpaceExplorer
from repro.core.rsp_params import enumerate_design_space
from repro.core.stalls import CriticalOpIssue, ScheduleProfile
from repro.engine.cache import EvaluationCache
from repro.engine.executor import run_exploration
from repro.engine.stream import AsyncPrefetcher
from repro.service import StoreServer
from repro.store import RemoteBackend, ShardedJsonlBackend, StoreBackend
from repro.utils.tabulate import format_table

#: Simulated one-way wire latency per store request, seconds.
WIRE_LATENCY = 0.02
#: Cold streamed campaign must beat the cold sync campaign by this factor.
PREFETCH_SPEEDUP_FLOOR = 1.2


class WanBackend(StoreBackend):
    """A backend wrapper charging a fixed latency per request.

    Models the WAN round trip the prefetcher exists to hide; everything
    else — encoding, the live HTTP server, the JSONL store behind it —
    stays real.
    """

    name = "wan"

    def __init__(self, inner: StoreBackend, latency: float) -> None:
        self.inner = inner
        self.latency = latency
        self.requests = 0

    def _pay(self) -> None:
        self.requests += 1
        time.sleep(self.latency)

    def contains(self, namespace: str, key: str) -> bool:
        self._pay()
        return self.inner.contains(namespace, key)

    def get(self, namespace: str, key: str) -> Tuple[bool, Any]:
        self._pay()
        return self.inner.get(namespace, key)

    def put(self, namespace: str, key: str, value: Any) -> None:
        self._pay()
        self.inner.put(namespace, key, value)

    def get_many(self, namespace: str, keys: Sequence[str]) -> Dict[str, Any]:
        self._pay()
        return self.inner.get_many(namespace, keys)

    def put_many(self, namespace: str, records: Mapping[str, Any]) -> int:
        self._pay()
        return self.inner.put_many(namespace, records)

    def delete(self, namespace: str, key: str) -> bool:
        self._pay()
        return self.inner.delete(namespace, key)

    def scan(self, namespace=None):
        self._pay()
        yield from self.inner.scan(namespace)

    def stats(self):
        return self.inner.stats()

    def compact(self):
        return self.inner.compact()


def synthetic_profiles() -> dict:
    issues = [
        CriticalOpIssue(cycle=cycle, row=index % 8, col=index // 8, iteration=index,
                        has_immediate_dependent=True)
        for cycle in range(4)
        for index in range(16)
    ]
    heavy = ScheduleProfile(kernel="heavy", length=12, critical_issues=tuple(issues),
                            rows=8, cols=8)
    light = ScheduleProfile(kernel="light", length=20, critical_issues=(), rows=8, cols=8)
    return {"heavy": heavy, "light": light}


@pytest.fixture()
def server(tmp_path):
    with StoreServer(
        ShardedJsonlBackend(tmp_path / "service.jsonl", num_shards=4)
    ) as live:
        yield live


def campaign(server, grid, explorer, namespace, prefetcher=None):
    remote = RemoteBackend(server.url, strict=True)
    cache = EvaluationCache(
        backend=WanBackend(remote, WIRE_LATENCY), namespace=namespace
    )
    started = time.perf_counter()
    outcome = run_exploration(
        explorer,
        candidates=grid,
        chunk_size=8,
        cache=cache,
        prefetcher=prefetcher,
    )
    seconds = time.perf_counter() - started
    remote.close()
    return outcome, seconds


def test_async_prefetch_overlaps_remote_round_trips(server, bench_metrics):
    explorer = RSPDesignSpaceExplorer(synthetic_profiles())
    grid = enumerate_design_space(
        max_rows_shared=7, max_cols_shared=7, stage_options=(1, 2, 3, 4)
    )
    assert len(grid) >= 200

    # Cold cache, synchronous waves: every wave serialises its mget.
    sync_cold, sync_seconds = campaign(server, grid, explorer, "sync")

    # Cold cache, streamed waves: wave N+1's mget rides behind wave N.
    with AsyncPrefetcher() as prefetcher:
        stream_cold, stream_seconds = campaign(
            server, grid, explorer, "stream", prefetcher=prefetcher
        )

    # Warm repeats in both modes: the overlap changed nothing durable.
    warm_sync, warm_sync_seconds = campaign(server, grid, explorer, "stream")
    with AsyncPrefetcher() as prefetcher:
        warm_stream, warm_stream_seconds = campaign(
            server, grid, explorer, "stream", prefetcher=prefetcher
        )

    speedup = sync_seconds / stream_seconds
    rows = [
        ["sync cold", sync_cold.stats.evaluated, sync_cold.stats.cache_hits,
         round(sync_seconds, 3)],
        ["stream cold", stream_cold.stats.evaluated, stream_cold.stats.cache_hits,
         round(stream_seconds, 3)],
        ["sync warm", warm_sync.stats.evaluated, warm_sync.stats.cache_hits,
         round(warm_sync_seconds, 3)],
        ["stream warm", warm_stream.stats.evaluated, warm_stream.stats.cache_hits,
         round(warm_stream_seconds, 3)],
    ]
    print()
    print(
        format_table(
            rows,
            headers=["configuration", "evaluated", "hits", "seconds"],
            title=f"wave prefetch over a {WIRE_LATENCY * 1000:.0f} ms store link, "
            f"{len(grid)} candidates",
        )
    )
    print(f"cold stream speedup: {speedup:.2f}x (floor {PREFETCH_SPEEDUP_FLOOR}x)")
    bench_metrics["prefetch_speedup"] = round(speedup, 3)
    bench_metrics["sync_cold_seconds"] = round(sync_seconds, 3)
    bench_metrics["stream_cold_seconds"] = round(stream_seconds, 3)

    # Identical outcomes, faster wall clock.
    assert stream_cold.result.selected.parameters == sync_cold.result.selected.parameters
    assert [e.parameters for e in stream_cold.result.pareto] == [
        e.parameters for e in sync_cold.result.pareto
    ]
    assert speedup >= PREFETCH_SPEEDUP_FLOOR, (
        f"streamed cold campaign only {speedup:.2f}x faster than the sync "
        f"path (floor {PREFETCH_SPEEDUP_FLOOR}x)"
    )

    # Repeat runs are 100% warm in both modes: nothing was lost to overlap.
    for warm in (warm_sync, warm_stream):
        assert warm.stats.evaluated == 0
        assert warm.stats.cache_misses == 0
        assert warm.stats.cache_hit_rate == 1.0
