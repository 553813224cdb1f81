"""Seeded LAYER002: a second single-engine batch path beside the
place chain.  Only the whole word fires: the ``shard_fallbacks``
metrics key below stays legal."""

COUNTERS = ("shard_fallbacks",)


def _run_batch_single(batch):
    return batch
