"""Method interface and shared algorithm plumbing for the evaluation."""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.algorithms import (  # noqa: F401  (re-exported)
    ALGORITHMS,
    AlgorithmSpec,
    prepare_graph,
)
from repro.errors import EngineError
from repro.gpu.config import GPUConfig
from repro.gpu.metrics import RunMetrics
from repro.graph.csr import CSRGraph


@dataclass
class MethodResult:
    """Outcome of running one method on one (algorithm, dataset) cell."""

    method: str
    algorithm: str
    #: values over the *original* node ids (projected back for
    #: physical transforms); None when the run OOMed.
    values: Optional[np.ndarray]
    #: simulated kernel time (the Table 4 number).
    time_ms: float
    metrics: Optional[RunMetrics]
    #: True when the simulated device could not fit the working set.
    oom: bool = False
    #: host-side preprocessing wall-clock (transform construction).
    transform_seconds: float = 0.0
    #: modelled device footprint in bytes.
    footprint_bytes: int = 0
    notes: Dict[str, float] = field(default_factory=dict)

    @property
    def display_time(self) -> str:
        """Table 4 cell text: a time or ``OOM``."""
        return "OOM" if self.oom else f"{self.time_ms:.3f}"


class Method(ABC):
    """One row of Table 2: a framework model.

    Subclasses implement :meth:`_execute`; the public :meth:`run`
    handles graph preparation, the memory check, and OOM reporting.
    """

    #: short name used in tables (``"Tigr-V+"`` etc.).
    name: str = "method"

    @abstractmethod
    def supports(self, algorithm: str) -> bool:
        """Whether the framework ships this graph primitive.

        The paper's Table 4 has missing cells for exactly this reason
        (MW and CuSha lack BC; Gunrock lacks SSWP).
        """

    @abstractmethod
    def footprint(self, graph: CSRGraph, algorithm: str) -> int:
        """Modelled device memory footprint in bytes."""

    @abstractmethod
    def _execute(
        self,
        graph: CSRGraph,
        algorithm: str,
        source: Optional[int],
        config: GPUConfig,
    ) -> MethodResult:
        """Run semantics + cost simulation on a prepared graph."""

    def run(
        self,
        graph: CSRGraph,
        algorithm: str,
        source: Optional[int] = None,
        *,
        config: Optional[GPUConfig] = None,
    ) -> MethodResult:
        """Run one Table 4 cell.

        ``graph`` is the raw (weighted) dataset; preparation per
        :func:`prepare_graph` happens here.  Returns an OOM result
        instead of raising when the footprint exceeds device memory.
        """
        spec = ALGORITHMS.get(algorithm)
        if spec is None:
            raise EngineError(
                f"unknown algorithm {algorithm!r}; known: {sorted(ALGORITHMS)}"
            )
        if not self.supports(algorithm):
            raise EngineError(f"{self.name} does not implement {algorithm}")
        if spec.needs_source and source is None:
            raise EngineError(f"{algorithm} requires a source node")
        config = config or GPUConfig()
        prepared = prepare_graph(graph, algorithm)
        required = self.footprint(prepared, algorithm)
        if required > config.device_memory_bytes:
            return MethodResult(
                method=self.name, algorithm=algorithm, values=None,
                time_ms=float("inf"), metrics=None, oom=True,
                footprint_bytes=required,
            )
        start = time.perf_counter()
        result = self._execute(prepared, algorithm, source, config)
        result.notes.setdefault("host_seconds", time.perf_counter() - start)
        result.footprint_bytes = required
        return result
