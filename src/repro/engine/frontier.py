"""Active-set (worklist) representation with sparse/dense switching.

The worklist optimization (§5) tracks which nodes must be processed
next iteration.  Real engines switch representation by occupancy —
Ligra popularised the heuristic: a short list of node ids (sparse)
while the frontier is small, a boolean bitmap (dense) once it covers
a meaningful fraction of the graph, because at that point the bitmap
is both smaller and cheaper to build than a sorted id list.

:class:`Frontier` encapsulates that switch; the push engine threads
it through the BSP loop and reports how many iterations ran dense.

The lane-parallel engine schedules the *union* of its ``S`` per-lane
active sets through the same class (one edge walk serves every lane);
which lanes are still live is counted by its superstep.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import EngineError
from repro.graph.csr import NODE_DTYPE

#: default occupancy above which the dense representation wins.
DENSE_THRESHOLD = 1.0 / 16.0


class Frontier:
    """A set of active node ids over ``0..num_nodes``.

    Immutable value semantics: constructors return new frontiers.
    Whichever representation is active, :meth:`ids` always yields the
    sorted id array the schedulers consume.
    """

    __slots__ = ("num_nodes", "_ids", "_mask", "dense_threshold")

    def __init__(
        self,
        num_nodes: int,
        *,
        ids: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
        dense_threshold: float = DENSE_THRESHOLD,
    ) -> None:
        if (ids is None) == (mask is None):
            raise EngineError("provide exactly one of ids or mask")
        if not 0.0 < dense_threshold <= 1.0:
            raise EngineError("dense_threshold must be in (0, 1]")
        self.num_nodes = int(num_nodes)
        self.dense_threshold = float(dense_threshold)
        self._ids = None
        self._mask = None
        if ids is not None:
            ids = np.asarray(ids, dtype=NODE_DTYPE)
            if len(ids) > 1 and not (ids[1:] > ids[:-1]).all():
                # hash-based np.unique (numpy >= 2.3) costs ~20x a
                # sort; the engines hand back strictly increasing ids
                ids = np.unique(ids)
            if len(ids) and (ids[0] < 0 or ids[-1] >= num_nodes):
                raise EngineError("frontier ids out of range")
            self._ids = ids
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (num_nodes,):
                raise EngineError("frontier mask has wrong shape")
            self._mask = mask.copy()
        self._maybe_switch()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_ids(cls, num_nodes: int, ids, **kwargs) -> "Frontier":
        """Sparse constructor (duplicates are collapsed)."""
        return cls(num_nodes, ids=np.asarray(ids), **kwargs)

    @classmethod
    def from_mask(cls, num_nodes: int, mask, **kwargs) -> "Frontier":
        """Dense constructor."""
        return cls(num_nodes, mask=np.asarray(mask), **kwargs)

    @classmethod
    def all_nodes(cls, num_nodes: int, **kwargs) -> "Frontier":
        """The full frontier (iteration 0 of CC, every PR iteration)."""
        return cls(num_nodes, mask=np.ones(num_nodes, dtype=bool), **kwargs)

    @classmethod
    def empty(cls, num_nodes: int, **kwargs) -> "Frontier":
        return cls(num_nodes, ids=np.zeros(0, dtype=NODE_DTYPE), **kwargs)

    # ------------------------------------------------------------------
    # Representation
    # ------------------------------------------------------------------
    @property
    def is_dense(self) -> bool:
        """Whether the bitmap representation is active."""
        return self._mask is not None

    def _maybe_switch(self) -> None:
        if self.num_nodes == 0:
            if self._mask is not None:
                self._ids = np.zeros(0, dtype=NODE_DTYPE)
                self._mask = None
            return
        occupancy = self.size / self.num_nodes
        if self._ids is not None and occupancy >= self.dense_threshold:
            mask = np.zeros(self.num_nodes, dtype=bool)
            mask[self._ids] = True
            self._mask = mask  # ids stay cached for :meth:`ids`
        elif self._mask is not None and occupancy < self.dense_threshold:
            self._ids, self._mask = np.flatnonzero(self._mask).astype(NODE_DTYPE), None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of active nodes."""
        if self._ids is not None:
            return len(self._ids)
        return int(self._mask.sum())

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def ids(self) -> np.ndarray:
        """Sorted active ids (what schedulers consume)."""
        if self._ids is not None:
            return self._ids
        return np.flatnonzero(self._mask).astype(NODE_DTYPE)

    def mask(self) -> np.ndarray:
        """Boolean membership mask."""
        if self._mask is not None:
            return self._mask.copy()
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[self._ids] = True
        return mask

    def contains(self, node: int) -> bool:
        if self._mask is not None:
            return bool(self._mask[node])
        return bool(np.any(self._ids == node))

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def union(self, other: "Frontier") -> "Frontier":
        if self.num_nodes != other.num_nodes:
            raise EngineError("frontier size mismatch")
        if self.is_dense or other.is_dense:
            return Frontier(self.num_nodes, mask=self.mask() | other.mask(),
                            dense_threshold=self.dense_threshold)
        merged = np.union1d(self.ids(), other.ids())
        return Frontier(self.num_nodes, ids=merged,
                        dense_threshold=self.dense_threshold)

    def __repr__(self) -> str:
        kind = "dense" if self.is_dense else "sparse"
        return f"Frontier({self.size}/{self.num_nodes}, {kind})"

