"""Seeded LAYER001: a top-level module no layer-map prefix declares."""

PLUGINS = ()
