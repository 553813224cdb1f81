"""Graph substrate: CSR storage, builders, I/O, generators, statistics.

This subpackage is the physical-layer foundation of the Tigr
reproduction.  Everything above it (transformations, engines,
baselines) operates on :class:`~repro.graph.csr.CSRGraph`, an immutable
compressed-sparse-row representation backed by numpy arrays — the same
representation Figure 10 of the paper virtualises.
"""

from importlib import import_module

from repro.graph.builder import (
    from_edge_list,
    from_arrays,
    to_undirected,
    relabel,
    remove_self_loops,
    deduplicate_edges,
)
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS, DatasetSpec, load_dataset
from repro.graph.generators import (
    barabasi_albert,
    configuration_power_law,
    erdos_renyi,
    grid_2d,
    regular_ring,
    rmat,
    star,
    path_graph,
    complete_graph,
    watts_strogatz,
)
from repro.graph.io import load_edge_list, save_edge_list, load_npz, save_npz

#: exports that load their module on first use: the serving tier
#: imports this package for storage, builders, npz I/O and datasets
_ON_FIRST_USE = {
    "formats": ("load_metis", "load_mtx", "save_metis", "save_mtx"),
    "interop": ("from_networkx", "from_scipy", "to_networkx", "to_scipy_csr"),
    "reorder": ("bfs_ordered", "degree_sorted"),
    "validate": ("ValidationReport", "validation_report"),
    "stats": ("DegreeStats", "degree_stats", "estimate_diameter", "gini_coefficient"),
    "subgraph": ("Subgraph", "ego_network", "induced_subgraph", "traversal_subgraph"),
}


def __getattr__(name: str):
    for module, names in _ON_FIRST_USE.items():
        if name in names:
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CSRGraph",
    "from_edge_list",
    "from_arrays",
    "to_undirected",
    "relabel",
    "remove_self_loops",
    "deduplicate_edges",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
    "barabasi_albert",
    "configuration_power_law",
    "erdos_renyi",
    "grid_2d",
    "regular_ring",
    "rmat",
    "star",
    "path_graph",
    "complete_graph",
    "watts_strogatz",
    "load_edge_list",
    "save_edge_list",
    "load_npz",
    "save_npz",
    "load_mtx",
    "save_mtx",
    "load_metis",
    "save_metis",
    "to_networkx",
    "from_networkx",
    "to_scipy_csr",
    "from_scipy",
    "bfs_ordered",
    "degree_sorted",
    "ValidationReport",
    "validation_report",
    "DegreeStats",
    "degree_stats",
    "estimate_diameter",
    "gini_coefficient",
    "Subgraph",
    "induced_subgraph",
    "ego_network",
    "traversal_subgraph",
]
