"""Seeded LAYER002: an analytic takes the warp model as a parameter
again instead of running on a scheduler the model attached to."""


def sssp(graph, source, simulator):
    return graph, source
