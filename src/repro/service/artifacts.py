"""Typed catalog artifacts: what the catalog caches and spills.

A catalog artifact is one prepared input graph of one concrete graph
— wrapped with exactly the metadata the cache needs: a
content-addressed key, a byte size for budget accounting, and a
lossless ``.npz`` round-trip so artifacts evicted from memory can be
reloaded from disk *without redoing any build work* (the point of the
cache: preparation is pure overhead on a warm path).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
import numpy as np

from repro.graph.csr import CSRGraph

#: an archive's ``meta`` row: a retired degree-bound slot and the code
#: of a prepared graph.  Codes 0-2 named the retired udt transform and
#: serving overlays, so a stale spill of theirs reads as a miss.
_META = (0, 3)


@dataclass(frozen=True)
class ArtifactKey:
    """Content-addressed identity of one prepared graph.

    Two requests that agree on both fields are served by the same
    artifact, no matter which ``CSRGraph`` *object* they carried: the
    graph contributes its content fingerprint, not its identity.
    """

    graph_fingerprint: str
    recipe: str  # e.g. "sym-unw": symmetrised, weights stripped

    @staticmethod
    def for_prepared(
        graph: CSRGraph, *, symmetrize: bool, weighted: bool
    ) -> "ArtifactKey":
        """Key of ``graph`` prepared by one recipe, so symmetrised and
        weight-stripped variants of one graph get distinct entries (and
        distinct spill files)."""
        recipe = (
            ("sym" if symmetrize else "dir")
            + ("-w" if weighted else "-unw")
        )
        return ArtifactKey(graph.fingerprint(), recipe)

    def filename(self) -> str:
        """Filesystem-safe spill file name for this key (the ``-k0``
        slot keeps existing spill directories readable)."""
        return f"{self.graph_fingerprint[:20]}-prepared-k0-{self.recipe}.npz"


@dataclass(frozen=True)
class TransformArtifact:
    """One cached artifact plus its cache accounting.

    ``payload`` is the prepared :class:`CSRGraph` an engine consumes
    directly.  ``build_seconds`` records what the artifact cost to
    construct — it is what every cache hit saves, and the catalog
    aggregates it into ``seconds_saved``.
    """

    key: ArtifactKey
    payload: CSRGraph
    build_seconds: float

    def nbytes(self) -> int:
        """Bytes the catalog's byte budget meters for this artifact.

        A prepared graph is charged its full CSR (symmetrisation
        builds fresh arrays).
        """
        return int(self.payload.nbytes())

    # ------------------------------------------------------------------
    # Disk spill round-trip
    # ------------------------------------------------------------------
    def save_npz(self, path: str) -> None:
        """Spill this artifact to a compressed numpy archive.

        The archive stores the *derived* arrays, not a recipe: loading
        reconstructs the payload without rerunning the preparation.
        Writes go through a temporary file + rename so a crashed spill
        never leaves a truncated archive for a later process to trip
        on.
        """
        payload = {
            "meta": np.asarray(_META, dtype=np.int64),
            "fingerprint": np.frombuffer(
                self.key.graph_fingerprint.encode("ascii"), dtype=np.uint8
            ),
            # the recipe, under the name existing spills use
            "dumb_weight": np.frombuffer(
                self.key.recipe.encode("ascii"), dtype=np.uint8
            ),
            "build_seconds": np.asarray([self.build_seconds]),
            "offsets": self.payload.offsets,
            "targets": self.payload.targets,
        }
        if self.payload.weights is not None:
            payload["weights"] = self.payload.weights
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
    """Reload an artifact spilled by :meth:`TransformArtifact.save_npz`.

    An archive of a retired kind raises ``KeyError``, which the
    catalog reads as a miss.
    """
    with np.load(path) as archive:
        if tuple(int(v) for v in archive["meta"]) != _META:
            raise KeyError(f"{path} holds no prepared graph")
        key = ArtifactKey(
            graph_fingerprint=bytes(archive["fingerprint"]).decode("ascii"),
            recipe=bytes(archive["dumb_weight"]).decode("ascii"),
        )
        build_seconds = float(archive["build_seconds"][0])
        weights = archive["weights"] if "weights" in archive.files else None
        payload = CSRGraph(
            archive["offsets"], archive["targets"], weights, validate=False
        )
    return TransformArtifact(key=key, payload=payload, build_seconds=build_seconds)
