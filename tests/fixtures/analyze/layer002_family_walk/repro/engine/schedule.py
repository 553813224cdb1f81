"""Seeded LAYER002: the coalesced family walk and its ADD superstep
grow back beside the row walk that replaced them."""

from typing import NamedTuple, Optional

import numpy as np

REDUCE_ADD = 2


class WalkLayout(NamedTuple):
    offsets: np.ndarray
    family_starts: Optional[np.ndarray] = None


class VirtualScheduler:
    def walk_layout(self):
        return WalkLayout(self.graph.offsets, self.virtual.first_virtual)
