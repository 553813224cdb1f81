"""Tigr's core contribution: split transformations, physical and virtual.

Physical transformations (:mod:`repro.core.splits`,
:mod:`repro.core.udt`) rewrite the graph structure — they split every
node whose outdegree exceeds a bound *K* into a *family* of nodes with
degree ≤ *K* (§3 of the paper).  Virtual transformation
(:mod:`repro.core.virtual`) instead overlays a virtual node array on
the untouched CSR (§4), optionally with edge-array coalescing (§4.4).
The §4 on-the-fly mapping design is :mod:`repro.core.dynamic`.
"""

from repro.core.splits import clique_transform, circular_transform, star_transform
from repro.core.types import TransformResult, TransformStats
from repro.core.udt import udt_transform
from repro.core.virtual import VirtualGraph, virtual_transform
from repro.core.weights import DumbWeight

__all__ = [
    "TransformResult",
    "TransformStats",
    "DumbWeight",
    "udt_transform",
    "clique_transform",
    "circular_transform",
    "star_transform",
    "VirtualGraph",
    "virtual_transform",
    "SplitProperties",
    "predict_properties",
    "check_split_transformation",
    "family_members",
    "verify_degree_bound",
    "verify_distance_preservation",
    "verify_path_preservation",
    "verify_widest_path_preservation",
]


def __getattr__(name: str):
    # the split-property predictions and checks (§3's theorems) load on
    # first use: the serving tier imports this package for its transforms
    if name in ("SplitProperties", "predict_properties"):
        from repro.core import analysis

        return getattr(analysis, name)
    if name in ("check_split_transformation", "family_members",
                "verify_degree_bound", "verify_distance_preservation",
                "verify_path_preservation", "verify_widest_path_preservation"):
        from repro.core import properties

        return getattr(properties, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
