"""Immutable compressed-sparse-row (CSR) graph.

The CSR layout is the one virtualised by Tigr (Figure 10 of the
paper): a ``node`` array of edge offsets, an ``edge`` array of
destination node ids, and an optional parallel ``weight`` array.  All
arrays are numpy arrays; the graph object never mutates them after
construction, which lets transformations and virtual overlays share
the underlying storage safely.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphError

#: dtype used for node ids and edge offsets throughout the library.
NODE_DTYPE = np.int64
#: dtype used for edge weights.
WEIGHT_DTYPE = np.float64


class CSRGraph:
    """A directed graph in compressed-sparse-row form.

    Parameters
    ----------
    offsets:
        ``int64`` array of length ``num_nodes + 1``; the outgoing edges
        of node ``v`` occupy ``targets[offsets[v]:offsets[v + 1]]``.
    targets:
        ``int64`` array of destination node ids, length ``num_edges``.
    weights:
        Optional ``float64`` array parallel to ``targets``.  ``None``
        for unweighted graphs.
    validate:
        When true (the default) the constructor checks structural
        invariants and raises :class:`~repro.errors.GraphError` on
        violation.  Internal callers that construct provably valid
        arrays pass ``False`` to skip the cost.

    Notes
    -----
    Undirected graphs are represented, as in the paper, as directed
    graphs with both edge directions present
    (see :func:`repro.graph.builder.to_undirected`).
    """

    __slots__ = ("_offsets", "_targets", "_weights", "_fingerprint", "_unweighted")

    def __init__(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        weights: Optional[np.ndarray] = None,
        *,
        validate: bool = True,
    ) -> None:
        offsets = np.ascontiguousarray(offsets, dtype=NODE_DTYPE)
        targets = np.ascontiguousarray(targets, dtype=NODE_DTYPE)
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=WEIGHT_DTYPE)
        if validate:
            _validate_csr(offsets, targets, weights)
        self._offsets = offsets
        self._targets = targets
        self._weights = weights
        self._fingerprint: Optional[str] = None
        self._unweighted: Optional["CSRGraph"] = None
        # Freeze the backing arrays: CSRGraph is an immutable value type.
        self._offsets.setflags(write=False)
        self._targets.setflags(write=False)
        if self._weights is not None:
            self._weights.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self._offsets) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E|``."""
        return len(self._targets)

    @property
    def offsets(self) -> np.ndarray:
        """The ``node`` array: edge offsets, length ``num_nodes + 1``."""
        return self._offsets

    @property
    def targets(self) -> np.ndarray:
        """The ``edge`` array: destination ids, length ``num_edges``."""
        return self._targets

    @property
    def weights(self) -> Optional[np.ndarray]:
        """Edge weights parallel to :attr:`targets`, or ``None``."""
        return self._weights

    @property
    def is_weighted(self) -> bool:
        """Whether the graph carries an edge-weight array."""
        return self._weights is not None

    # ------------------------------------------------------------------
    # Degree queries
    # ------------------------------------------------------------------
    def out_degree(self, node: int) -> int:
        """Outdegree of a single node."""
        self._check_node(node)
        return int(self._offsets[node + 1] - self._offsets[node])

    def out_degrees(self) -> np.ndarray:
        """Array of all outdegrees (length ``num_nodes``)."""
        return np.diff(self._offsets)

    def in_degrees(self) -> np.ndarray:
        """Array of all indegrees (length ``num_nodes``)."""
        return np.bincount(self._targets, minlength=self.num_nodes).astype(NODE_DTYPE)

    def max_out_degree(self) -> int:
        """The maximum outdegree (``d_max`` in Table 3)."""
        if self.num_nodes == 0:
            return 0
        return int(self.out_degrees().max(initial=0))

    # ------------------------------------------------------------------
    # Neighborhood queries
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> np.ndarray:
        """Destination ids of ``node``'s outgoing edges (a view)."""
        self._check_node(node)
        return self._targets[self._offsets[node] : self._offsets[node + 1]]

    def edge_weights_of(self, node: int) -> Optional[np.ndarray]:
        """Weights of ``node``'s outgoing edges (a view), or ``None``."""
        self._check_node(node)
        if self._weights is None:
            return None
        return self._weights[self._offsets[node] : self._offsets[node + 1]]

    def edge_range(self, node: int) -> Tuple[int, int]:
        """``(start, end)`` slice of ``node``'s edges in the edge array."""
        self._check_node(node)
        return int(self._offsets[node]), int(self._offsets[node + 1])

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether a directed edge ``src -> dst`` exists."""
        return bool(np.any(self.neighbors(src) == dst))

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Yield every directed edge as ``(src, dst)``."""
        sources = self.edge_sources()
        for src, dst in zip(sources, self._targets):
            yield int(src), int(dst)

    def edge_sources(self) -> np.ndarray:
        """Source id of every edge slot (the COO row array)."""
        return np.repeat(np.arange(self.num_nodes, dtype=NODE_DTYPE), self.out_degrees())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """The transpose graph (every edge flipped).

        Pull-based engines propagate along incoming edges; they run on
        the reverse graph so the CSR neighbor lists enumerate in-edges.
        Edge weights follow their edges.
        """
        sources = self.edge_sources()
        order = np.argsort(self._targets, kind="stable")
        rev_targets = sources[order]
        rev_offsets = np.zeros(self.num_nodes + 1, dtype=NODE_DTYPE)
        np.cumsum(
            np.bincount(self._targets, minlength=self.num_nodes),
            out=rev_offsets[1:],
        )
        rev_weights = None if self._weights is None else self._weights[order]
        return CSRGraph(rev_offsets, rev_targets, rev_weights, validate=False)

    def with_weights(self, weights: np.ndarray) -> "CSRGraph":
        """A copy of this graph carrying the given edge weights."""
        weights = np.asarray(weights, dtype=WEIGHT_DTYPE)
        if weights.shape != (self.num_edges,):
            raise GraphError(
                f"weight array has shape {weights.shape}, expected ({self.num_edges},)"
            )
        return CSRGraph(self._offsets, self._targets, weights, validate=False)

    def without_weights(self) -> "CSRGraph":
        """``self`` when unweighted, else one view sharing its arrays, made
        on first call and memoised so its :meth:`fingerprint` is hashed once
        (two racing first calls may each make one); a graph never changes."""
        if self._weights is not None and self._unweighted is None:
            self._unweighted = CSRGraph(self._offsets, self._targets, validate=False)
        return self if self._weights is None else self._unweighted

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Coordinate form ``(sources, targets, weights)``."""
        return self.edge_sources(), self._targets.copy(), (
            None if self._weights is None else self._weights.copy()
        )

    # ------------------------------------------------------------------
    # Size accounting (used by the memory-footprint models)
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Bytes consumed by the CSR arrays (offsets + targets + weights)."""
        total = self._offsets.nbytes + self._targets.nbytes
        if self._weights is not None:
            total += self._weights.nbytes
        return total

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of the graph (hex SHA-256).

        Two graphs with identical offsets, targets and weights share a
        fingerprint across processes and sessions, which is what lets
        the serving layer (:mod:`repro.service`) key transform
        artifacts on graph *content* rather than object identity.
        The digest covers the array shapes, the raw CSR bytes, and
        whether a weight array is present; it is computed once and
        cached (the backing arrays are frozen at construction).
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(
                f"csr:v1:{self.num_nodes}:{self.num_edges}:"
                f"{int(self.is_weighted)}".encode("ascii")
            )
            digest.update(self._offsets.tobytes())
            digest.update(self._targets.tobytes())
            if self._weights is not None:
                digest.update(self._weights.tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if self.num_nodes != other.num_nodes or self.num_edges != other.num_edges:
            return False
        if not np.array_equal(self._offsets, other._offsets):
            return False
        if not np.array_equal(self._targets, other._targets):
            return False
        if (self._weights is None) != (other._weights is None):
            return False
        if self._weights is not None and not np.array_equal(self._weights, other._weights):
            return False
        return True

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        kind = "weighted" if self.is_weighted else "unweighted"
        return (
            f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, {kind})"
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")


def _validate_csr(
    offsets: np.ndarray, targets: np.ndarray, weights: Optional[np.ndarray]
) -> None:
    """Check the structural invariants of a CSR triple."""
    if offsets.ndim != 1 or len(offsets) < 1:
        raise GraphError("offsets must be a 1-D array of length >= 1")
    if offsets[0] != 0:
        raise GraphError(f"offsets[0] must be 0, got {offsets[0]}")
    if np.any(np.diff(offsets) < 0):
        raise GraphError("offsets must be non-decreasing")
    if offsets[-1] != len(targets):
        raise GraphError(
            f"offsets[-1] ({offsets[-1]}) must equal the number of edges ({len(targets)})"
        )
    num_nodes = len(offsets) - 1
    if len(targets) and (targets.min() < 0 or targets.max() >= num_nodes):
        raise GraphError(
            f"edge targets must lie in [0, {num_nodes}); "
            f"found range [{targets.min()}, {targets.max()}]"
        )
    if weights is not None and weights.shape != targets.shape:
        raise GraphError(
            f"weights shape {weights.shape} does not match targets shape {targets.shape}"
        )
