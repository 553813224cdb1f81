"""Seeded LAYER002: the plug-in registry and the hand-written ctypes
table that one C prototype per kernel replaced."""

_C_FUNCTIONS = {"push_step": ("push_step", None, [])}
_BACKENDS = {}


def register_backend(backend):
    _BACKENDS[backend.name] = backend
