"""Seeded LAYER002: the serving tier builds, caches and projects a UDT
again, and degrades a plan when the deadline cannot fund the build."""

from repro.core.types import TransformResult
from repro.core.udt import udt_transform

UDT_SECONDS_PER_EDGE = 2e-8


def estimate_build_seconds(graph):
    return graph.num_edges * UDT_SECONDS_PER_EDGE


def degrade_for_deadline(plan, graph, remaining_s):
    return "none" if estimate_build_seconds(graph) > remaining_s else plan


def get_or_build(graph, degree_bound):
    result = udt_transform(graph, degree_bound)
    assert isinstance(result, TransformResult)
    return result
