"""Seeded LAYER002: a batch carries its transform name past admission
again — a batch planner, a kind table and a transform stage."""

TRANSFORM_KINDS = ("prepared",)
_KIND_CODES = {"prepared": 3}


def plan_batch(catalog, graph, algorithm, *, transform, degree_bound):
    return catalog, graph, algorithm, transform, degree_bound


def timings(outcome):
    return {"transform_s": outcome.transform_s}
