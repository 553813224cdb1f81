"""Seeded LAYER002: PageRank's flattened launch and its scatter step
grow back beside the gather that replaced them."""

import numpy as np

FLAT_LIMIT = 2**31


class KernelBackend:
    def try_rank_launch(self, walk, targets):
        return self.function("rank_launch")

    def try_rank_step(self, rank, inv_deg, launch, scratch):
        src, dst = launch
        np.add.at(scratch, dst, rank[src] * inv_deg[src])
        return self.function("rank_step")
