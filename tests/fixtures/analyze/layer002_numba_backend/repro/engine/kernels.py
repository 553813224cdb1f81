"""Seeded LAYER002: a retired kernel backend (matched ignoring case)
and an in-tree Python transliteration of a C unit."""


class NumbaBackend:
    name = "jit"


def _push_step_kernel(values, targets):
    return values
