"""Seeded LAYER002: a shard's private catalog, its slice overlays and
per-shard step counters grow back beside the raw slice it steps."""

from dataclasses import dataclass, field
from typing import Dict, List

SHARD_CATALOG_BYTES = 64 * 1024 * 1024


@dataclass
class ShardRunStats:
    supersteps: int = 0
    per_shard_steps: Dict[int, int] = field(default_factory=dict)
    cache_origins: List[str] = field(default_factory=list)


class LocalShard:
    def _scheduler_for(self, kind, degree_bound):
        return None


def count(stats):
    return {f"shard{i}_steps": n for i, n in stats.per_shard_steps.items()}
