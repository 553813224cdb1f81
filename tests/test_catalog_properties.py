"""Catalog property tests: invariants under random op sequences.

Example-based tests pin specific behaviours; these pin the *laws* the
catalog must obey no matter what order operations arrive in, under
both eviction policies:

* ``bytes_in_memory`` always equals the sum of live entries' sizes;
* the byte budget is never exceeded after an operation returns;
* the memory tier never holds duplicate keys, and a key chosen as an
  eviction victim is actually gone when the operation returns;
* GDSF never evicts the (unique) highest-priority resident entry —
  its victim is always a minimum-priority one.

The concurrent variant hammers one catalog from many threads while
observers read its stats, then checks counter conservation: no hit,
miss, build, or build-second is ever lost.  Budget dials match
``test_service_stress.py`` (``REPRO_SOAK_*``); the heavy run carries
the ``soak`` marker.
"""

import os
import random
import threading

import pytest

from repro.graph.generators import rmat
from repro.service import GdsfPolicy, GraphCatalog
from tests.catalog_cells import CountedBuilder

SOAK_THREADS = int(os.environ.get("REPRO_SOAK_THREADS", "4"))
SOAK_REQUESTS = int(os.environ.get("REPRO_SOAK_REQUESTS", "40"))
SOAK_SEED = int(os.environ.get("REPRO_SOAK_SEED", "20180324"))

POLICIES = ("lru", "gdsf")


def build_cells(count):
    """Prepared-graph builders with varied sizes and costs: symmetrised
    forms of weighted and unweighted graphs."""
    return [
        CountedBuilder(
            rmat(60 + 40 * (i % 3), 300 + 200 * i, seed=300 + i,
                 weight_range=(1, 9) if i % 2 == 0 else None),
        )
        for i in range(count)
    ]


def prebuild(cells):
    """key -> (cell, artifact) via a throwaway probe catalog."""
    probe = GraphCatalog()
    built = {}
    for cell in cells:
        artifact, _ = probe.get_for_key(cell.key, cell)
        built[artifact.key] = (cell, artifact)
    return built


def spy_on_victims(catalog):
    """Record every eviction decision (and, for GDSF, the price board).

    Wraps the live policy's ``select_victim``; each pick appends
    ``(victim_key, priorities_or_None)`` where priorities snapshot
    every resident key's priority *at selection time* (before
    ``record_evict`` moves the clock).
    """
    policy = catalog.eviction_policy()
    original = policy.select_victim
    picks = []

    def spying(entries):
        victim = original(entries)
        if isinstance(policy, GdsfPolicy):
            picks.append(
                (victim, {key: policy.priority_of(key) for key in entries})
            )
        else:
            picks.append((victim, None))
        return victim

    policy.select_victim = spying
    return picks


class TestRandomOpSequences:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", (1, 7, 2018))
    def test_invariants_hold_after_every_op(self, policy, seed, tmp_path):
        rng = random.Random(seed)
        artifacts = prebuild(build_cells(6))
        keys = list(artifacts)
        budget = int(
            sum(artifact.nbytes() for _, artifact in artifacts.values()) * 0.6
        )
        max_entries = 4
        catalog = GraphCatalog(
            memory_budget_bytes=budget,
            spill_dir=str(tmp_path),
            max_entries=max_entries,
            policy=policy,
        )
        picks = spy_on_victims(catalog)

        for _ in range(150):
            del picks[:]
            key = rng.choice(keys)
            cell, artifact = artifacts[key]
            roll = rng.random()
            if roll < 0.45:
                catalog.get_for_key(key, cell)
            elif roll < 0.70:
                catalog.put(key, artifact)
            elif roll < 0.90:
                catalog.hydrate(key)
            elif roll < 0.97:
                # repeated access: drives frequency (GDSF) / recency (LRU).
                # A fresh insert can be its own min-priority victim and
                # return via the disk tier on the second call, so only
                # the last call's eviction decisions are judged below.
                catalog.get_for_key(key, cell)
                del picks[:]
                catalog.get_for_key(key, cell)
            else:
                catalog.clear()

            resident = catalog.keys()
            # no duplicate keys, count cap respected
            assert len(resident) == len(set(resident))
            assert len(resident) <= max_entries
            # exact byte accounting against the live entries
            live_bytes = 0
            for resident_key in resident:
                entry = catalog.peek(resident_key)
                assert entry is not None
                live_bytes += entry.nbytes()
            assert catalog.stats.bytes_in_memory == live_bytes
            assert catalog.stats.bytes_in_memory <= budget
            # every victim this op chose is really gone...
            for victim, priorities in picks:
                assert victim not in resident
                if priorities is None or len(priorities) < 2:
                    continue
                # ...and GDSF only ever sacrifices a minimum-priority
                # entry — never the (unique) highest-priority one.
                victim_priority = priorities[victim]
                assert victim_priority == min(priorities.values())
                top = max(priorities.values())
                if victim_priority != top:
                    best = max(priorities, key=priorities.get)
                    assert victim != best

    @pytest.mark.parametrize("policy", POLICIES)
    def test_stats_conserved_single_threaded(self, policy, tmp_path):
        artifacts = prebuild(build_cells(4))
        catalog = GraphCatalog(
            memory_budget_bytes=64 * 1024 * 1024,
            spill_dir=str(tmp_path),
            policy=policy,
        )
        rng = random.Random(99)
        lookups = 0
        for _ in range(60):
            cell, _ = artifacts[rng.choice(list(artifacts))]
            catalog.get_for_key(cell.key, cell)
            lookups += 1
        assert catalog.stats.hits + catalog.stats.misses == lookups
        assert catalog.stats.builds == len(artifacts)


@pytest.mark.soak
class TestConcurrentHammer:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_stats_conservation_under_threads(self, policy):
        cells = build_cells(5)
        artifacts = prebuild(cells)
        budget = int(
            sum(artifact.nbytes() for _, artifact in artifacts.values()) * 0.7
        )
        catalog = GraphCatalog(memory_budget_bytes=budget, policy=policy)
        universe = [
            (key, cell) for key, (cell, _) in artifacts.items()
        ]
        build_lock = threading.Lock()
        built_seconds = []
        stop = threading.Event()
        observer_failures = []

        def observer():
            # Mixed-policy stats observers: exercise every read face
            # the metrics layer uses while writers churn the tier.
            while not stop.is_set():
                try:
                    repr(catalog)
                    snapshot = catalog.keys()
                    assert len(snapshot) == len(set(snapshot))
                    assert catalog.stats.bytes_in_memory >= 0
                    assert catalog.eviction_policy().name == policy
                except AssertionError as exc:  # pragma: no cover
                    observer_failures.append(str(exc))
                    return

        def hammer(index):
            rng = random.Random(SOAK_SEED + index)
            for _ in range(SOAK_REQUESTS):
                key, cell = rng.choice(universe)

                def builder(cell=cell):
                    artifact = cell()
                    with build_lock:
                        built_seconds.append(artifact.build_seconds)
                    return artifact

                artifact, origin = catalog.get_for_key(key, builder)
                assert artifact.key == key
                assert origin in ("memory", "built")

        hammers = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(SOAK_THREADS)
        ]
        observers = [threading.Thread(target=observer) for _ in range(2)]
        for thread in observers + hammers:
            thread.start()
        for thread in hammers:
            thread.join()
        stop.set()
        for thread in observers:
            thread.join()

        assert not observer_failures
        stats = catalog.stats
        total_calls = SOAK_THREADS * SOAK_REQUESTS
        # every lookup is counted exactly once: no lost updates
        assert stats.hits + stats.misses == total_calls
        # every build was observed by exactly one builder invocation
        assert stats.builds == len(built_seconds)
        assert stats.seconds_building == pytest.approx(sum(built_seconds))
        # final state is internally consistent
        live_bytes = sum(
            catalog.peek(key).nbytes() for key in catalog.keys()
        )
        assert stats.bytes_in_memory == live_bytes
        assert stats.bytes_in_memory <= budget
