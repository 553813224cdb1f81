"""Seeded LAYER002: the catalog grows its tiers back — an eviction
policy, a spill directory written through, and origins that say
whether a request was served from memory or disk."""

from collections import OrderedDict


class LruPolicy:
    def select_victim(self, entries):
        return next(iter(entries))


class GraphCatalog:
    def __init__(self, memory_budget_bytes, *, spill_dir=None, write_through=False):
        self.spill_dir = spill_dir
        self.write_through = write_through
        self._entries = OrderedDict()


def served_from_cache(origins):
    return all(origin in ("memory", "disk") for origin in origins)
