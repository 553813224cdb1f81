"""Seeded LAYER002: the serving tier builds, spills and prices a
virtual overlay again for the plans that now serve the raw CSR."""

from repro.core.virtual import VirtualGraph, virtual_transform

VIRTUAL_SECONDS_PER_NODE = 5e-8
VIRTUAL_SECONDS_PER_EDGE = 2e-9


def build(graph, degree_bound, kind):
    return virtual_transform(graph, degree_bound, coalesced=kind == "virtual+")


def _rebuild_virtual(physical, degree_bound):
    virtual = VirtualGraph.__new__(VirtualGraph)
    virtual.physical = physical
    virtual.degree_bound = int(degree_bound)
    return virtual
