"""Typed transform artifacts: what the catalog caches and spills.

A catalog artifact is one finished UDT
:class:`~repro.core.types.TransformResult`, or one prepared input
graph, of one concrete graph — wrapped with exactly the metadata the
cache needs: a content-addressed key, a byte size for budget
accounting, and a lossless ``.npz`` round-trip so artifacts evicted
from memory can be reloaded from disk *without redoing any build
work* (the point of the cache: both are pure overhead on a warm
path).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.core.types import TransformResult, TransformStats
from repro.core.weights import DumbWeight
from repro.errors import ServiceError
from repro.graph.csr import CSRGraph, NODE_DTYPE

#: artifact kinds the catalog understands.  ``udt`` is the one
#: transform a plan caches; ``none`` is never cached (there is nothing
#: to reuse).  ``prepared`` is not a paper transform: it is a
#: per-algorithm prepared input graph (symmetrised for CC,
#: weight-stripped for the unweighted analytics) whose O(|E|)
#: construction is worth amortising under the same byte budget.
TRANSFORM_KINDS = ("udt", "prepared")


@dataclass(frozen=True)
class ArtifactKey:
    """Content-addressed identity of one transform artifact.

    Two requests that agree on all four fields are served by the same
    artifact, no matter which ``CSRGraph`` *object* they carried: the
    graph contributes its content fingerprint, not its identity.
    ``dumb_weight`` is part of a UDT key because the weights UDT puts on
    introduced edges differ between path and bottleneck analytics.
    """

    graph_fingerprint: str
    kind: str  # "udt" | "prepared"
    degree_bound: int
    dumb_weight: str = "none"  # DumbWeight.value for udt, a recipe for prepared

    def __post_init__(self) -> None:
        if self.kind not in TRANSFORM_KINDS:
            raise ServiceError(
                f"unknown transform kind {self.kind!r}; known: {TRANSFORM_KINDS}"
            )

    @staticmethod
    def for_transform(
        graph: CSRGraph,
        kind: str,
        degree_bound: int,
        dumb_weight: DumbWeight = DumbWeight.NONE,
    ) -> "ArtifactKey":
        return ArtifactKey(
            graph.fingerprint(), kind, int(degree_bound), dumb_weight.value
        )

    @staticmethod
    def for_prepared(
        graph: CSRGraph, *, symmetrize: bool, weighted: bool
    ) -> "ArtifactKey":
        """Key of a prepared input graph (``kind="prepared"``).

        Preparation has no degree bound or dumb weight; the
        ``dumb_weight`` slot carries the preparation recipe instead so
        symmetrised and weight-stripped variants of one graph get
        distinct entries (and distinct spill files).
        """
        recipe = (
            ("sym" if symmetrize else "dir")
            + ("-w" if weighted else "-unw")
        )
        return ArtifactKey(graph.fingerprint(), "prepared", 0, recipe)

    def filename(self) -> str:
        """Filesystem-safe spill file name for this key."""
        return (
            f"{self.graph_fingerprint[:20]}-{self.kind}"
            f"-k{self.degree_bound}-{self.dumb_weight}.npz"
        )


@dataclass(frozen=True)
class TransformArtifact:
    """One cached artifact plus its cache accounting.

    ``payload`` is the library-native object an engine consumes
    directly: a :class:`TransformResult` for ``udt`` keys and a plain
    :class:`CSRGraph` for ``prepared`` keys.  ``build_seconds`` records
    what the artifact cost to construct — it is what every cache hit
    saves, and the catalog aggregates it into ``seconds_saved``.
    """

    key: ArtifactKey
    payload: Union[TransformResult, CSRGraph]
    build_seconds: float

    def nbytes(self) -> int:
        """Bytes this artifact holds *beyond* the input graph.

        UDT owns a full transformed CSR plus provenance arrays; a
        prepared graph is charged its full CSR (symmetrisation builds
        fresh arrays).  This is the quantity the catalog's byte budget
        meters.
        """
        if isinstance(self.payload, CSRGraph):
            return int(self.payload.nbytes())
        return int(
            self.payload.graph.nbytes()
            + self.payload.node_origin.nbytes
            + self.payload.new_edge_mask.nbytes
        )

    # ------------------------------------------------------------------
    # Disk spill round-trip
    # ------------------------------------------------------------------
    def save_npz(self, path: str) -> None:
        """Spill this artifact to a compressed numpy archive.

        The archive stores the *derived* arrays, not a recipe: loading
        reconstructs the payload without rerunning Algorithm 1 or the
        preparation.  Writes go through a temporary file + rename so a
        crashed spill never leaves a truncated archive for a later
        process to trip on.
        """
        meta = np.asarray(
            [self.key.degree_bound, _KIND_CODES[self.key.kind]], dtype=np.int64
        )
        payload = {
            "meta": meta,
            "fingerprint": np.frombuffer(
                self.key.graph_fingerprint.encode("ascii"), dtype=np.uint8
            ),
            "dumb_weight": np.frombuffer(
                self.key.dumb_weight.encode("ascii"), dtype=np.uint8
            ),
            "build_seconds": np.asarray([self.build_seconds]),
        }
        if isinstance(self.payload, CSRGraph):
            payload.update(
                offsets=self.payload.offsets, targets=self.payload.targets
            )
            if self.payload.weights is not None:
                payload["weights"] = self.payload.weights
        else:
            result = self.payload
            stats = result.stats
            payload.update(
                offsets=result.graph.offsets,
                targets=result.graph.targets,
                node_origin=result.node_origin,
                new_edge_mask=result.new_edge_mask,
                scalars=np.asarray(
                    [
                        result.num_original_nodes,
                        stats.degree_bound,
                        stats.num_families,
                        stats.new_nodes,
                        stats.new_edges,
                        stats.max_degree_after,
                        stats.max_family_hops,
                    ],
                    dtype=np.int64,
                ),
            )
            if result.graph.weights is not None:
                payload["weights"] = result.graph.weights
        # savez appends ".npz" to names without it; keep the suffix so
        # the temp path we write is the temp path we rename.
        tmp = f"{path}.tmp-{os.getpid()}.npz"
        try:
            np.savez_compressed(tmp, **payload)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


def load_artifact(path: str) -> TransformArtifact:
    """Reload an artifact spilled by :meth:`TransformArtifact.save_npz`."""
    with np.load(path) as archive:
        degree_bound, kind_code = (int(v) for v in archive["meta"])
        kind = _KIND_NAMES[kind_code]
        key = ArtifactKey(
            graph_fingerprint=bytes(archive["fingerprint"]).decode("ascii"),
            kind=kind,
            degree_bound=degree_bound,
            dumb_weight=bytes(archive["dumb_weight"]).decode("ascii"),
        )
        build_seconds = float(archive["build_seconds"][0])
        weights = archive["weights"] if "weights" in archive.files else None
        if kind == "prepared":
            payload: Union[TransformResult, CSRGraph] = CSRGraph(
                archive["offsets"], archive["targets"], weights, validate=False
            )
        else:
            scalars = archive["scalars"]
            graph = CSRGraph(
                archive["offsets"], archive["targets"], weights, validate=False
            )
            stats = TransformStats(
                degree_bound=int(scalars[1]),
                num_families=int(scalars[2]),
                new_nodes=int(scalars[3]),
                new_edges=int(scalars[4]),
                max_degree_after=int(scalars[5]),
                max_family_hops=int(scalars[6]),
            )
            payload = TransformResult(
                graph=graph,
                node_origin=np.ascontiguousarray(archive["node_origin"], NODE_DTYPE),
                new_edge_mask=np.ascontiguousarray(archive["new_edge_mask"], bool),
                num_original_nodes=int(scalars[0]),
                stats=stats,
            )
    return TransformArtifact(key=key, payload=payload, build_seconds=build_seconds)


#: archive kind codes; 1 and 2 named the retired serving overlays, so a
#: stale overlay spill reads as an unknown kind (a miss, never a payload).
_KIND_CODES = {"udt": 0, "prepared": 3}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}
