"""Internal: the method models' import path for
:func:`repro.algorithms.run_algorithm`."""

from repro.algorithms import run_algorithm

__all__ = ["run_algorithm"]
