"""Seeded LAYER002: a weight-stripped view enters the catalog again,
under its own recipe, as though stripping weights built something."""


def reshapes(graph, spec):
    return spec.symmetrize or (not spec.weighted and graph.weights is not None)


def for_prepared(graph, *, symmetrize, weighted):
    return ("sym" if symmetrize else "dir") + ("-w" if weighted else "-unw")


STALE_VIEW_SPILL = "prepared-k0-dir-unw.npz"
