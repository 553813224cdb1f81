"""Kernel backends and cost-model tests.

For each JIT backend available on this machine this module asserts
bitwise equality with the numpy baseline on every engine (push,
lanes, adaptive) and every certified program family — and that the
fused path actually *engaged*, so a silently-declining backend cannot
pass as "equal" — and runs the spec loops of
``tests/kernel_reference.py`` through the same hooks, in lockstep.
It pins that every kernel is declared once, by its C prototype.  The
cost model's strategy decisions are pinned here too, as a table.
"""

from __future__ import annotations

import ctypes
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import prepare_graph
from repro.algorithms.bc import BCStep, bc
from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components, weak_components
from repro.algorithms.multi_source import multi_source_distances
from repro.algorithms.pagerank import pagerank
from repro.algorithms.reference import reference_connected_components
from repro.algorithms.programs import (
    BFSProgram,
    CCProgram,
    PageRankProgram,
    SSSPProgram,
    SSWPProgram,
)
from repro.algorithms.sssp import sssp
from repro.algorithms.sswp import sswp
from repro.engine import costmodel, kernels
from repro.engine.adaptive import AdaptiveOptions, run_adaptive
from repro.engine.frontier import Frontier
from repro.engine.pull import run_pull
from repro.core.udt import udt_transform
from repro.core.virtual import virtual_transform
from repro.engine.push import (
    EngineOptions,
    LaneStep,
    PushStep,
    run_push,
    run_push_lanes,
)
from repro.engine.rank import RankStep, inverse_out_degrees
from repro.engine.schedule import (
    EdgeParallelScheduler,
    MaxWarpScheduler,
    NodeScheduler,
    VirtualScheduler,
    WarpSegmentationScheduler,
)
from repro.errors import EngineError
from repro.gpu.simulator import GPUSimulator
from repro.graph.builder import from_arrays, from_edge_list, to_undirected
from repro.graph.generators import (
    complete_graph,
    path_graph,
    regular_ring,
    rmat,
    star,
)
from repro.service import AnalyticsService, QueryRequest, ShardSet, replay_trace
from tests import kernel_reference
from tests.kernel_reference import LOOPS, ReferenceBackend
from tests.test_udt import graphs as generator_graphs

TRACES = Path(__file__).parent / "traces"

#: JIT backends this machine can actually run; parametrizing over the
#: list keeps the suite green on boxes with no compiler.
JITS = kernels.jit_backends()


@pytest.fixture
def graph():
    return rmat(600, 4_000, seed=5, weight_range=(1.0, 8.0))


def _values(algorithm, graph, backend):
    options = EngineOptions(kernel_backend=backend)
    if algorithm == "bfs":
        return bfs(graph.without_weights(), 0, options=options).values
    if algorithm == "sssp":
        return sssp(graph, 0, options=options).values
    if algorithm == "sswp":
        return sswp(graph, 0, options=options).values
    if algorithm == "cc":
        return connected_components(graph, options=options).values
    if algorithm == "pr":
        return pagerank(graph, max_iterations=15, options=options).values
    if algorithm == "bc":
        return bc(graph.without_weights(), 0, options=options).centrality
    raise AssertionError(algorithm)


class TestRegistry:
    def test_core_backends_registered(self):
        assert set(kernels.registered_backends()) == {"numpy", "cjit"}

    def test_unknown_backend_fails_loudly(self):
        with pytest.raises(EngineError, match="unknown kernel backend"):
            kernels.get_backend("simd-unproven")
        with pytest.raises(EngineError, match="unknown kernel backend"):
            kernels.resolve_backend("simd-unproven")

    def test_numpy_backend_declines_everything(self, graph):
        # it has no kernels: every hook declines before its gate, and
        # no launch of any analytic is counted
        backend = kernels.get_backend("numpy")
        options = EngineOptions(kernel_backend="numpy")
        for algorithm in ("bfs", "sssp", "sswp", "cc", "pr", "bc"):
            assert np.isfinite(_values(algorithm, graph, "numpy")).any()
        for weighted in (True, False):
            multi_source_distances(graph, [0, 3], weighted=weighted,
                                   mode="lanes", options=options)
        run_pull(NodeScheduler(graph.reverse()), SSSPProgram(), graph, 0,
                 options=options)
        assert (backend.engaged, backend.declined) == (0, 0)

    def test_unavailable_backend_degrades_to_numpy(self, monkeypatch):
        class MissingBackend(kernels.KernelBackend):
            name = "missing-for-test"
            jit = True

            def is_available(self):
                return False

            def availability_note(self):
                return "simulated absence"

        monkeypatch.setitem(
            kernels._REGISTRY, "missing-for-test", MissingBackend()
        )
        monkeypatch.setattr(kernels, "_warned_unavailable", set())
        with pytest.warns(RuntimeWarning, match="simulated absence"):
            backend = kernels.resolve_backend("missing-for-test")
        assert backend.name == "numpy"
        # the warning fires once, not per launch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.resolve_backend("missing-for-test").name == "numpy"

    def test_auto_under_the_threshold_probes_for_no_compiler(self, monkeypatch):
        # no unit loaded yet: an availability check would scan PATH for
        # a compiler that a graph under JIT_MIN_EDGES never uses
        probes = []
        find_cc = kernels._find_cc
        monkeypatch.setattr(
            kernels, "_find_cc", lambda: probes.append(1) or find_cc())
        monkeypatch.setattr(kernels.get_backend("cjit"), "_functions", {})
        assert kernels.resolve_backend("auto", edges=100).name == "numpy"
        assert probes == []

    def test_env_var_drives_default_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert kernels.resolve_backend(None, edges=10**9).name == "numpy"


class TestSpecFor:
    def test_certified_programs_map_to_specs(self):
        for program, relax, reduce in (
            (BFSProgram(), kernels.RELAX_ADDITIVE, kernels.REDUCE_MIN),
            (SSSPProgram(), kernels.RELAX_ADDITIVE, kernels.REDUCE_MIN),
            (SSWPProgram(), kernels.RELAX_WIDEST, kernels.REDUCE_MAX),
            (CCProgram(), kernels.RELAX_PROPAGATION, kernels.REDUCE_MIN),
        ):
            spec = kernels.spec_for(program)
            assert spec is not None
            assert spec.relax == relax
            assert spec.reduce == reduce

    def test_program_with_custom_hooks_is_refused(self):
        class FilteredSSSP(SSSPProgram):
            def filter_pushes(self, candidates, src_values):
                return candidates < 3.0

        assert kernels.spec_for(FilteredSSSP()) is None


class TestUnavailableJit:
    """A requested JIT backend that cannot run must degrade, not crash;
    a name that is not registered at all must fail loudly."""

    def test_engines_fall_back_when_cjit_requested_but_absent(
        self, graph, monkeypatch
    ):
        backend = kernels.CJitBackend()
        monkeypatch.setattr(backend, "is_available", lambda: False)
        monkeypatch.setitem(kernels._REGISTRY, "cjit", backend)
        monkeypatch.setattr(kernels, "_warned_unavailable", set())
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            values = _values("sssp", graph, "cjit")
        baseline = _values("sssp", graph, "numpy")
        np.testing.assert_array_equal(values, baseline)
        assert backend.engaged == 0
        # the warning fires once, not per run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _values("sssp", graph, "cjit")

    def test_retired_backend_name_fails_loudly(self, graph, monkeypatch, capsys):
        # a name old configs may still carry: it is a typo like any other
        with pytest.raises(EngineError, match="known: auto, cjit, numpy"):
            _values("sssp", graph, "numba")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
        with pytest.raises(EngineError, match="known: auto, cjit, numpy"):
            sssp(graph, 0)
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        from repro.__main__ import main

        assert main(["query", "bfs", "pokec", "--scale", "0.1",
                     "--source", "0", "--kernel-backend", "numba"]) == 2
        assert "known: auto, cjit, numpy" in capsys.readouterr().err


@pytest.mark.skipif(not JITS, reason="no JIT kernel backend available")
class TestJitParity:
    """Bitwise parity of every available JIT backend with numpy."""

    @pytest.mark.parametrize("backend", JITS)
    @pytest.mark.parametrize(
        "algorithm", ["bfs", "sssp", "sswp", "cc", "pr", "bc"]
    )
    def test_push_parity_per_algorithm(self, graph, backend, algorithm):
        engaged_before = kernels.get_backend(backend).engaged
        jit_values = _values(algorithm, graph, backend)
        assert kernels.get_backend(backend).engaged > engaged_before
        np.testing.assert_array_equal(
            _values(algorithm, graph, "numpy"), jit_values
        )

    @pytest.mark.parametrize("backend", JITS)
    def test_lanes_parity_generic_and_bitpacked(self, graph, backend):
        sources = [0, 3, 7, 11]
        for weighted in (True, False):
            target = graph if weighted else graph.without_weights()
            engaged_before = kernels.get_backend(backend).engaged
            base = multi_source_distances(
                target, sources, weighted=weighted, mode="lanes",
                options=EngineOptions(kernel_backend="numpy"),
            )
            jit = multi_source_distances(
                target, sources, weighted=weighted, mode="lanes",
                options=EngineOptions(kernel_backend=backend),
            )
            assert kernels.get_backend(backend).engaged > engaged_before
            np.testing.assert_array_equal(base, jit)

    @pytest.mark.parametrize("backend", JITS)
    def test_adaptive_parity_including_direction_trace(self, graph, backend):
        hop = graph.without_weights()
        base = run_adaptive(
            hop, BFSProgram(), 0,
            options=AdaptiveOptions(kernel_backend="numpy"),
        )
        jit = run_adaptive(
            hop, BFSProgram(), 0,
            options=AdaptiveOptions(kernel_backend=backend),
        )
        np.testing.assert_array_equal(base.values, jit.values)
        # the backend must not perturb the push/pull schedule either
        assert base.push_iterations == jit.push_iterations
        assert base.pull_iterations == jit.pull_iterations

    @pytest.mark.parametrize("backend", JITS)
    def test_sync_relaxation_blocks_decline_but_match(self, graph, backend):
        # read aliases write under sync relaxation; the fused kernels
        # must decline and the buffered numpy path still runs
        options = EngineOptions(
            kernel_backend=backend, sync_relaxation_blocks=4
        )
        base = run_push(
            NodeScheduler(graph), SSSPProgram(), 0,
            options=EngineOptions(sync_relaxation_blocks=4,
                                  kernel_backend="numpy"),
        )
        jit = run_push(NodeScheduler(graph), SSSPProgram(), 0, options=options)
        np.testing.assert_array_equal(base.values, jit.values)

    @pytest.mark.parametrize("backend", JITS)
    def test_golden_trace_replays_digest_clean_under_jit(
        self, backend, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        report = replay_trace(str(TRACES / "mixed.jsonl"), workers=2)
        assert report.digests_checked == report.requests_submitted
        assert report.ok, "\n".join(str(m) for m in report.mismatches)


# ----------------------------------------------------------------------
# The compiled push superstep vs the numpy fallback
# ----------------------------------------------------------------------
STEP_KS = (1, 2, 3, 10)
STEP_PROGRAMS = {
    "bfs": BFSProgram, "sssp": SSSPProgram,
    "sswp": SSWPProgram, "cc": CCProgram,
}
SCHEDULER_KINDS = ("node", "virtual", "virtual+", "maxwarp", "edge")


#: the generator-graph strategy UDT's differential suite draws from
#: (empty, edgeless, regular, rmat, multi-edge, self-loop, power-law,
#: one-way star), plus two-way stars so a walk also leaves the hub
step_graphs = st.one_of(
    generator_graphs(),
    st.builds(
        lambda leaves, seed: star(
            leaves, bidirectional=True, weight_range=(1, 9), seed=seed
        ),
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=0, max_value=2**16),
    ),
)


def _scheduler(kind, graph, k):
    if kind == "node":
        return NodeScheduler(graph)
    if kind == "edge":
        return EdgeParallelScheduler(graph)
    if kind == "maxwarp":
        return MaxWarpScheduler(graph, k)
    return VirtualScheduler(
        virtual_transform(graph, k, coalesced=kind == "virtual+")
    )


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _pinned_step(scheduler, program, backend):
    step = PushStep(scheduler, program, EngineOptions(kernel_backend=backend))
    assert step.backend.name == backend
    return step


#: the spec kernels, each superstep's oracle: a compiled MIN/MAX step
#: relaxes in place, so only its fixpoint is the numpy body's
SPEC = ReferenceBackend()


def _spec_twin(step_class, scheduler, program, *args, backend):
    """A ``step_class`` built as ``backend`` builds it (walk, scratch),
    its launches run by the spec kernels."""
    twin = step_class(scheduler, program, *args,
                      EngineOptions(kernel_backend=backend))
    assert twin.backend.jit
    twin.backend = SPEC
    return twin


def _launches_of(*backends):
    """(engaged, declined) of each backend."""
    return np.array([[b.engaged, b.declined] for b in backends])


def _launches(step):
    """(engaged, declined) of the spec and of ``step``'s backend."""
    return _launches_of(SPEC, step.backend)


class _PerSuperstep(kernels.KernelBackend):
    """``fused``'s kernels with every ``*_run`` declined: the loop over
    its compiled supersteps that a run replaces."""

    jit = True

    def __init__(self, fused):
        super().__init__()
        self.fused = fused
        self.name = f"{fused.name}-per-superstep"

    def function(self, name):
        return None if name.endswith("_run") else self.fused.function(name)


def _same_route(step, before):
    """Since ``before``, the spec twin ran compiled exactly where
    ``step`` did (a decline on both sides runs the numpy body twice)."""
    spec, other = _launches(step) - before
    assert spec.tolist() == other.tolist()


def _lockstep(scheduler, program, source, step, *, max_steps=10_000):
    """Run ``step`` and its spec twin side by side from the same state;
    every superstep must agree on changed ids, edges and values, bit
    for bit.  Returns how many supersteps ran."""
    n = scheduler.graph.num_nodes
    ref = _spec_twin(PushStep, scheduler, program, backend=step.backend.name)
    before = _launches(step)
    out = program.initial_values(n, source)
    read = out.copy()
    other_out, other_read = out.copy(), out.copy()
    active = np.unique(program.initial_frontier(n, source))
    steps = 0
    while len(active) and steps < max_steps:
        steps += 1
        changed, edges = ref(out, read, active)
        other_changed, other_edges = step(other_out, other_read, active)
        assert _same_bits(changed, other_changed)
        assert edges == other_edges
        assert _same_bits(out, other_out)
        read[changed] = out[changed]
        other_read[changed] = other_out[changed]
        active = changed
    _same_route(step, before)
    return steps


def _same_fixpoint(sync, other):
    """``sync`` ran the synchronous numpy body, ``other`` a JIT one:
    the same values bit for bit, the same verdict, and never more
    supersteps (an in-place step can only get there sooner)."""
    assert _same_bits(sync.values, other.values)
    assert sync.converged == other.converged
    assert other.num_iterations <= sync.num_iterations
    assert sync.num_lanes == other.num_lanes


def _sync_and(backend, run, *args):
    """``run(*args)`` on the numpy body, then on ``backend``."""
    return [run(*args, options=EngineOptions(kernel_backend=name))
            for name in ("numpy", backend)]


@pytest.fixture
def reference_backend(monkeypatch):
    """The spec kernels (``tests/kernel_reference.py``) registered as
    backend ``"reference"`` for one test: covers the loops the C units
    transliterate and their marshalling through the production hooks
    and gates."""
    backend = ReferenceBackend()
    monkeypatch.setitem(kernels._REGISTRY, backend.name, backend)
    return backend


@pytest.mark.skipif(not JITS, reason="no JIT kernel backend available")
class TestPushStepDifferential:
    """The compiled superstep against the spec every superstep, and
    against the numpy fallback at the fixpoint — bit for bit."""

    @pytest.mark.parametrize("backend", JITS)
    @given(
        graph=step_graphs,
        k=st.sampled_from(STEP_KS),
        kind=st.sampled_from(SCHEDULER_KINDS),
        algorithm=st.sampled_from(sorted(STEP_PROGRAMS)),
        source=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_superstep_matches(
        self, backend, graph, k, kind, algorithm, source
    ):
        program = STEP_PROGRAMS[algorithm]()
        if graph.num_nodes == 0 or (
            program.needs_weights and graph.weights is None
        ):
            return
        source = None if algorithm == "cc" else source % graph.num_nodes
        scheduler = _scheduler(kind, graph, k)
        jit = kernels.get_backend(backend)
        engaged, declined = jit.engaged, jit.declined
        steps = _lockstep(
            scheduler, program, source,
            _pinned_step(scheduler, program, backend),
        )
        # a silent decline would compare numpy with itself
        assert jit.engaged - engaged == steps
        assert jit.declined == declined

        sync, other = _sync_and(backend, run_push, scheduler, program, source)
        _same_fixpoint(sync, other)
        assert other.num_iterations == steps

    @pytest.mark.parametrize("backend", JITS)
    @pytest.mark.parametrize("k", STEP_KS)
    @pytest.mark.parametrize("kind", ["virtual", "virtual+", "maxwarp"])
    def test_star_at_family_boundaries(self, backend, k, kind):
        for d in sorted({max(k - 1, 0), k, k + 1, 2 * k, 2 * k + 1}):
            graph = star(d, bidirectional=True, weight_range=(1, 9), seed=d)
            scheduler = _scheduler(kind, graph, k)
            for program in (SSSPProgram(), SSWPProgram(), CCProgram()):
                source = None if program.name == "cc" else 0
                step = _pinned_step(scheduler, program, backend)
                assert _lockstep(scheduler, program, source, step) > 0

    @pytest.mark.parametrize("backend", JITS)
    @pytest.mark.parametrize("kind", SCHEDULER_KINDS)
    def test_add_reduction_step_declines(self, graph, backend, kind):
        # the compiled superstep folds MIN or MAX only: an all-nodes
        # PageRank-shaped ADD step is offered, declined (counted) and
        # runs the numpy body
        program = PageRankProgram()
        assert kernels.spec_for(program) is None
        scheduler = _scheduler(kind, graph, 3)
        jit = kernels.get_backend(backend)
        start = np.random.default_rng(3).random(graph.num_nodes)
        outs = []
        for name in ("numpy", backend):
            step = PushStep(
                scheduler, program, EngineOptions(kernel_backend=name)
            )
            engaged, declined = jit.engaged, jit.declined
            out, read = start.copy(), start.copy()
            changed, edges = step(out, read, scheduler.all_nodes())
            assert step.run(out, read, Frontier.from_ids(0, []),
                            EngineOptions()) is None
            outs.append((out, changed, edges))
        assert (jit.engaged, jit.declined) == (engaged, declined + 1)
        assert _same_bits(outs[0][0], outs[1][0])
        assert _same_bits(outs[0][1], outs[1][1])
        assert outs[0][2] == outs[1][2] == graph.num_edges

    @pytest.mark.parametrize("backend", JITS)
    def test_declines_are_counted_and_fall_back(self, graph, backend):
        jit = kernels.get_backend(backend)
        options = EngineOptions(kernel_backend=backend)
        baseline = run_push(
            NodeScheduler(graph), SSSPProgram(), 0,
            options=EngineOptions(kernel_backend="numpy"),
        )
        for scheduler, opts in (
            # threads span nodes: no walk layout
            (WarpSegmentationScheduler(graph), options),
            # later blocks re-read the write array
            (NodeScheduler(graph),
             EngineOptions(kernel_backend=backend, sync_relaxation_blocks=3)),
        ):
            engaged, declined = jit.engaged, jit.declined
            result = run_push(scheduler, SSSPProgram(), 0, options=opts)
            assert jit.engaged == engaged
            assert jit.declined - declined == result.num_iterations
            assert _same_bits(result.values, baseline.values)

    @pytest.mark.parametrize("backend", JITS)
    def test_out_of_range_ids_never_reach_the_kernel(self, graph, backend):
        step = PushStep(
            NodeScheduler(graph), SSSPProgram(),
            EngineOptions(kernel_backend=backend),
        )
        out = SSSPProgram().initial_values(graph.num_nodes, 0)
        with pytest.raises(IndexError):
            step(out, out.copy(), np.asarray([graph.num_nodes], dtype=np.int64))

    def test_reference_kernel_matches_numpy(self, reference_backend):
        # the spec the C unit transliterates, through the same hook,
        # reaches the synchronous body's fixpoint
        graph = rmat(40, 300, seed=9, weight_range=(1.0, 8.0), dedup=False)
        for kind in SCHEDULER_KINDS:
            scheduler = _scheduler(kind, graph, 3)
            for program in (SSSPProgram(), SSWPProgram(), CCProgram()):
                source = None if program.name == "cc" else 0
                sync, spec = _sync_and("reference", run_push, scheduler,
                                       program, source)
                _same_fixpoint(sync, spec)
                # the spec run is the compiled one, counter for counter
                _same_run(spec, run_push(
                    scheduler, program, source,
                    options=EngineOptions(kernel_backend=JITS[0])))
        assert reference_backend.engaged > 0
        assert reference_backend.declined == 0


# ----------------------------------------------------------------------
# The compiled lane superstep vs its numpy bodies
# ----------------------------------------------------------------------
LANE_WIDTHS = (1, 2, 63, 64, 65)
RESULT_COUNTERS = ("num_iterations", "edges_processed", "dense_iterations",
                   "lane_iterations", "num_lanes", "converged")


def _same_run(a, b):
    """Two runs of one superstep sequence: values bit for bit, and
    every counter."""
    assert _same_bits(a.values, b.values)
    for field in RESULT_COUNTERS:
        assert getattr(a, field) == getattr(b, field), field


def _lane_sources(graph, width, seed):
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, graph.num_nodes, size=width)]


def _lane_lockstep(scheduler, program, sources, backend, *, max_steps=10_000):
    """Step a ``backend`` LaneStep and its spec twin side by side;
    every superstep must agree on changed ids, edges, live lanes and
    the whole value matrix.  Returns ``(supersteps, the other step)``."""
    ref = _spec_twin(LaneStep, scheduler, program, sources, backend=backend)
    other = LaneStep(scheduler, program, sources,
                     EngineOptions(kernel_backend=backend))
    assert other.backend.name == backend
    before = _launches(other)
    n = scheduler.graph.num_nodes
    active = np.unique(program.initial_lane_frontier(n, sources))
    steps = 0
    while len(active) and steps < max_steps:
        steps += 1
        changed, edges, live = ref(active)
        other_changed, other_edges, other_live = other(active)
        assert _same_bits(changed, other_changed)
        assert (edges, live) == (other_edges, other_live)
        assert _same_bits(ref.values, other.values)
        active = changed
    _same_route(other, before)
    return steps, other


@pytest.mark.skipif(not JITS, reason="no JIT kernel backend available")
class TestLaneStepDifferential:
    """The compiled lane superstep against the spec every superstep,
    against its numpy bodies at the fixpoint, and every column against
    the scalar engine — bit for bit."""

    @pytest.mark.parametrize("backend", JITS)
    @given(
        graph=step_graphs,
        k=st.sampled_from(STEP_KS),
        kind=st.sampled_from(SCHEDULER_KINDS),
        algorithm=st.sampled_from(sorted(STEP_PROGRAMS) + ["hops"]),
        width=st.sampled_from(LANE_WIDTHS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_superstep_matches(
        self, backend, graph, k, kind, algorithm, width, seed
    ):
        if algorithm == "hops":  # bfs, bit-packed: needs no weights
            algorithm, graph = "bfs", graph.without_weights()
        program = STEP_PROGRAMS[algorithm]()
        if graph.num_nodes == 0 or (
            program.needs_weights and graph.weights is None
        ):
            return
        scheduler = _scheduler(kind, graph, k)
        sources = _lane_sources(graph, width, seed)
        jit = kernels.get_backend(backend)
        engaged, declined = jit.engaged, jit.declined
        steps, step = _lane_lockstep(scheduler, program, sources, backend)
        # bit masks wider than one word are the numpy body's; every
        # other superstep must have run compiled, or the comparison
        # above was numpy against itself
        if step.hops and width > 64:
            assert (jit.engaged, jit.declined) == (engaged, declined + steps)
        else:
            assert (jit.engaged, jit.declined) == (engaged + steps, declined)

        results = _sync_and(backend, run_push_lanes, scheduler, program, sources)
        _same_fixpoint(*results)
        if step.hops:  # level-synchronous: every counter is numpy's
            for field in RESULT_COUNTERS:
                assert getattr(results[0], field) == getattr(results[1], field)
        assert results[1].num_iterations == steps
        for lane in {0, width // 2, width - 1}:
            scalar = run_push(
                scheduler, program,
                None if algorithm == "cc" else sources[lane],
                options=EngineOptions(kernel_backend=backend),
            )
            assert _same_bits(
                np.ascontiguousarray(results[1].values[:, lane]), scalar.values
            )
        if algorithm in ("bfs", "sssp"):
            # through the front door: 65 sources are two lane blocks
            rows = multi_source_distances(
                scheduler, sources, weighted=algorithm == "sssp",
                mode="lanes", options=EngineOptions(kernel_backend=backend),
            )
            assert _same_bits(rows, np.ascontiguousarray(results[1].values.T))

    @pytest.mark.parametrize("backend", JITS)
    @pytest.mark.parametrize("k", STEP_KS)
    @pytest.mark.parametrize("kind", ["virtual", "virtual+", "maxwarp"])
    def test_star_at_family_boundaries(self, backend, k, kind):
        for d in sorted({max(k - 1, 0), k, k + 1, 2 * k, 2 * k + 1}):
            graph = star(d, bidirectional=True, weight_range=(1, 9), seed=d)
            scheduler = _scheduler(kind, graph, k)
            sources = [0, d, d // 2]
            for program in (SSSPProgram(), SSWPProgram(), CCProgram()):
                steps, _ = _lane_lockstep(scheduler, program, sources, backend)
                assert steps > 0

    def test_reference_kernels_match_numpy(self, reference_backend):
        # the specs the two lane units transliterate, through the hooks,
        # reach the numpy bodies' fixpoint (the hop level, every counter)
        graph = rmat(40, 300, seed=9, weight_range=(1.0, 8.0), dedup=False)
        sources = [0, 7, 7, 31]
        jit = EngineOptions(kernel_backend=JITS[0])
        for kind in SCHEDULER_KINDS:
            scheduler = _scheduler(kind, graph, 3)
            for program in (SSSPProgram(), SSWPProgram(), CCProgram()):
                sync, spec = _sync_and("reference", run_push_lanes, scheduler,
                                       program, sources)
                _same_fixpoint(sync, spec)
                _same_run(spec, run_push_lanes(scheduler, program, sources,
                                               options=jit))
        hop_scheduler = NodeScheduler(graph.without_weights())
        assert LaneStep(hop_scheduler, BFSProgram(), sources,
                        EngineOptions(kernel_backend="reference")).hops
        sync, spec = _sync_and("reference", run_push_lanes, hop_scheduler,
                               BFSProgram(), sources)
        _same_fixpoint(sync, spec)
        _same_run(sync, spec)
        _same_run(spec, run_push_lanes(hop_scheduler, BFSProgram(), sources,
                                       options=jit))
        assert reference_backend.engaged > 0
        assert reference_backend.declined == 0

    @pytest.mark.parametrize("backend", JITS)
    def test_declines_are_counted_and_fall_back(self, graph, backend):
        jit = kernels.get_backend(backend)
        sources = [0, 3, 7, 11]
        for target, program in (
            (graph, SSSPProgram()), (graph.without_weights(), BFSProgram()),
        ):
            baseline = run_push_lanes(
                NodeScheduler(target), program, sources,
                options=EngineOptions(kernel_backend="numpy"),
            )
            for scheduler, blocks in (
                (WarpSegmentationScheduler(target), 1),  # no walk layout
                (NodeScheduler(target), 3),  # later blocks re-read `out`
            ):
                engaged, declined = jit.engaged, jit.declined
                result = run_push_lanes(
                    scheduler, program, sources,
                    options=EngineOptions(kernel_backend=backend,
                                          sync_relaxation_blocks=blocks),
                )
                assert jit.engaged == engaged
                assert jit.declined - declined == result.num_iterations
                assert _same_bits(result.values, baseline.values)

    @pytest.mark.parametrize("backend", JITS)
    def test_bad_arguments_never_reach_the_kernels(self, graph, backend):
        jit = kernels.get_backend(backend)
        n = graph.num_nodes
        options = EngineOptions(kernel_backend=backend)
        step = LaneStep(NodeScheduler(graph), SSSPProgram(), [0, 3], options)
        targets, weights = graph.targets, graph.weights
        active = np.zeros(1, dtype=np.int64)

        def lanes(out, read, active=active, scratch=step.scratch):
            return jit.try_lane_step(step.spec, out, read, active, step.offsets,
                                     targets, weights, scratch)

        out, read = step.values, step.read
        declined = jit.declined
        bad_live = step.scratch[:2] + (np.zeros(3, dtype=np.uint8),)
        for refused in (
            lanes(out, out),  # aliased: sync relaxation's numpy order
            lanes(out.astype(np.float32), read),
            lanes(out.T, read.T),  # lane-major: not the compiled layout
            lanes(out, read, active=np.asarray([n], dtype=np.int64)),
            lanes(out, read, active=np.asarray([-1], dtype=np.int64)),
            lanes(out, read, active=active.astype(np.int32)),
            lanes(out, read, scratch=bad_live),
        ):
            assert refused is None
        assert jit.declined == declined + 7
        assert lanes(out, read) is not None

        hop = LaneStep(NodeScheduler(graph.without_weights()), BFSProgram(),
                       [0, 3], options)
        assert hop.hops
        frontier, new, visited = hop.words

        def hops(new, frontier, visited, values=hop.values, active=active):
            return jit.try_hop_step(new, frontier, visited, values, 1.0,
                                    active, hop.offsets, targets, hop.scratch)

        declined = jit.declined
        for refused in (
            hops(frontier, frontier, visited),
            hops(new, frontier, frontier),
            hops(new.astype(np.int64), frontier, visited),
            hops(new, frontier, visited, values=np.zeros((n, 65))),
            hops(new, frontier, visited, values=np.zeros((n + 1, 2))),
            hops(new, frontier, visited,
                 active=np.asarray([n], dtype=np.int64)),
        ):
            assert refused is None
        assert jit.declined == declined + 6
        assert hops(new, frontier, visited) is not None

    @pytest.mark.parametrize("backend", JITS)
    def test_concurrent_steps_share_no_scratch(self, graph, backend):
        import sys
        import threading

        options = EngineOptions(kernel_backend=backend)
        cases = [
            (NodeScheduler(target), program, _lane_sources(graph, 24, seed))
            for seed, (target, program) in enumerate((
                (graph, SSSPProgram()), (graph.without_weights(), BFSProgram()),
                (graph, SSWPProgram()), (graph, SSSPProgram()),
            ))
        ]
        expected = [
            run_push_lanes(*case, options=options).values for case in cases
        ]
        failures = []

        def hammer(index):
            for _ in range(15):
                values = run_push_lanes(*cases[index], options=options).values
                if not _same_bits(values, expected[index]):
                    failures.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=hammer, args=(i % len(cases),))
                for i in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not failures

    def test_host_without_a_working_compiler_falls_back(
        self, graph, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        broken = kernels.CJitBackend()
        monkeypatch.setitem(kernels._REGISTRY, "cjit", broken)
        sources = [0, 3, 7, 11]
        for target, program in (
            (graph, SSSPProgram()), (graph.without_weights(), BFSProgram()),
        ):
            baseline = run_push_lanes(
                NodeScheduler(target), program, sources,
                options=EngineOptions(kernel_backend="numpy"),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = run_push_lanes(
                    NodeScheduler(target), program, sources,
                    options=EngineOptions(kernel_backend="cjit"),
                )
            assert _same_bits(result.values, baseline.values)
            for field in RESULT_COUNTERS:
                assert getattr(result, field) == getattr(baseline, field)
        assert broken.engaged == 0 and broken.declined > 0
        assert "compile failed" in broken.availability_note()


# ----------------------------------------------------------------------
# In-place MIN/MAX: the synchronous fixpoint on every route
# ----------------------------------------------------------------------
def _served(service, request):
    """``(values, shard supersteps)`` of one request that took the
    scatter-gather route."""
    before = service.metrics.summary()
    result = service.run(request)
    after = service.metrics.summary()
    assert result.ok and not result.degraded, result.error
    assert after["sharded_batches"] == before["sharded_batches"] + 1
    (values,) = result.values.values()
    return values, after["shard_supersteps"] - before["shard_supersteps"]


@st.composite
def fixpoint_cases(draw):
    """``(K, graph)``: the lockstep graphs, a star whose hub's degree
    sits at a family boundary of K, or a graph big enough that pushing
    improved values early saves whole supersteps."""
    k = draw(st.sampled_from(STEP_KS))
    seed = st.integers(min_value=0, max_value=2**16)
    graph = draw(st.one_of(
        step_graphs,
        st.builds(
            lambda d, seed: star(d, bidirectional=True, weight_range=(1, 9),
                                 seed=seed),
            st.sampled_from(sorted({max(k - 1, 0), k, k + 1, 2 * k, 2 * k + 1})),
            seed,
        ),
        st.builds(
            lambda seed: rmat(256, 2048, seed=seed, weight_range=(1, 9)), seed
        ),
    ))
    return k, graph


@pytest.mark.skipif(not JITS, reason="no JIT kernel backend available")
class TestInPlaceFixpoint:
    """A compiled MIN/MAX superstep pushes values improved earlier in
    the same superstep.  The fixpoint is unique, so every route that
    runs it — the scalar engine, the lanes, each shard's slice — must
    reach the synchronous numpy values bit for bit, and in at most as
    many supersteps.  A whole compiled run is the loop over its
    compiled supersteps, counter for counter."""

    @pytest.mark.parametrize("backend", JITS)
    @given(
        case=fixpoint_cases(),
        kind=st.sampled_from(SCHEDULER_KINDS),
        algorithm=st.sampled_from(sorted(STEP_PROGRAMS)),
        width=st.sampled_from((1, 63, 64, 65)),
        shards=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_route_reaches_the_sync_fixpoint(
        self, backend, case, kind, algorithm, width, shards, seed
    ):
        k, graph = case
        program = STEP_PROGRAMS[algorithm]()
        if graph.num_nodes == 0 or (
            program.needs_weights and graph.weights is None
        ):
            return
        scheduler = _scheduler(kind, graph, k)
        sources = _lane_sources(graph, width, seed)
        source = None if algorithm == "cc" else sources[0]
        jit = kernels.get_backend(backend)
        engaged = jit.engaged
        _same_fixpoint(*_sync_and(backend, run_push, scheduler, program, source))
        _same_fixpoint(*_sync_and(backend, run_push_lanes, scheduler, program,
                                  sources))
        assert jit.engaged > engaged  # else numpy met itself

        with AnalyticsService(shards=shards, workers=1,
                              backend="threads") as service:
            (want, sync_steps), (got, jit_steps) = (
                _served(service, QueryRequest(
                    algorithm, graph, sources=() if source is None else (source,),
                    transform=kind if kind.startswith("virtual") else "none",
                    degree_bound=k, options=EngineOptions(kernel_backend=name),
                ))
                for name in ("numpy", backend)
            )
        assert _same_bits(want, got)
        assert jit_steps <= sync_steps

    @pytest.mark.parametrize("backend", JITS)
    @pytest.mark.parametrize("kind", SCHEDULER_KINDS)
    @pytest.mark.parametrize("algorithm", sorted(STEP_PROGRAMS))
    @pytest.mark.parametrize("width", (1, 2, 63, 64))
    @pytest.mark.parametrize("dense_threshold", (1.0, 1 / 16, 1e-9))
    def test_fused_runs_equal_the_per_superstep_loop(
        self, graph, monkeypatch, backend, kind, algorithm, width,
        dense_threshold,
    ):
        # the scalar run, the float lanes and (bfs) the hop lanes as one
        # compiled call each, against the loop over the same compiled
        # steps: every threshold sends the next frontier through the
        # sort, the mark scan, or both
        jit = kernels.get_backend(backend)
        loop = _PerSuperstep(jit)
        monkeypatch.setitem(kernels._REGISTRY, loop.name, loop)
        target = graph.without_weights() if algorithm == "bfs" else graph
        scheduler = _scheduler(kind, target, 3)
        program = STEP_PROGRAMS[algorithm]()
        hub = int(np.argmax(target.out_degrees()))
        sources = [hub] + _lane_sources(target, width - 1, width)
        sources[-1] = hub  # from width 2 on, a duplicated lane
        exhausted = False
        for run, start in ((run_push, None if algorithm == "cc" else hub),
                           (run_push_lanes, sources)):
            for max_iterations in (100_000, 2):
                before = _launches_of(jit, loop)
                fused, stepped = (run(scheduler, program, start,
                                      options=EngineOptions(
                                          kernel_backend=name,
                                          dense_threshold=dense_threshold,
                                          max_iterations=max_iterations,
                                          require_convergence=False))
                                  for name in (backend, loop.name))
                _same_run(fused, stepped)
                # one engaged call, against a declined run and a step
                # per superstep
                assert (_launches_of(jit, loop) - before).tolist() == [
                    [1, 0], [stepped.num_iterations, 1]]
                exhausted |= not fused.converged
        assert exhausted

    @pytest.mark.parametrize("backend", JITS)
    def test_a_run_leaves_the_loops_state(self, backend):
        # a one-way star: the hub's superstep changes all 4 leaves of 5
        # nodes, exactly the threshold, so the last frontier is dense
        scheduler = NodeScheduler(star(4, weight_range=(1, 9), seed=1))
        options = EngineOptions(kernel_backend=backend, dense_threshold=4 / 5)
        step = PushStep(scheduler, SSSPProgram(), options)
        values = SSSPProgram().initial_values(5, 0)
        read = values.copy()
        frontier = Frontier.from_ids(5, [0], dense_threshold=4 / 5)
        assert step.run(values, read, frontier, options) == (True, 2, 4, 1, 2)
        assert _same_bits(read, values)  # committed, as the loop commits


# ----------------------------------------------------------------------
# The ADD-reduction runs (Brandes' two phases, PageRank's loop) and the
# shards' rank gather vs their numpy bodies
# ----------------------------------------------------------------------
#: K also takes the graph's own maximum degree (no node splits)
ADD_KS = STEP_KS + ("d_max",)
BC_COUNTERS = ("num_iterations", "edges_processed", "converged")
#: lengths whose pairwise sums reach every branch of numpy's tree: none,
#: the plain loop, eight accumulators with a remainder, a split into
#: 64 + 65, and an odd length split twice over
SUM_LENGTHS = (0, 5, 13, 100, 129, 301)


def _tree_branches(n):
    """The branches numpy's pairwise ``add.reduce`` takes on ``n``
    float64s (no, or only the plain loop below 8 elements)."""
    if n < 8:
        return {"loop"} if n else set()
    if n <= 128:
        return {"blocks+rest" if n % 8 else "blocks"}
    half = n // 2 - (n // 2) % 8
    return {"split"} | _tree_branches(half) | _tree_branches(n - half)


def _add_scheduler(kind, graph, k):
    if k == "d_max":
        k = max(1, int(graph.out_degrees().max(initial=1)))
    return _scheduler(kind, graph, min(k, 32) if kind == "maxwarp" else k)


@st.composite
def rank_graphs(draw):
    """A multigraph of ``n`` nodes of which ``dangling`` have no out-edge,
    both from :data:`SUM_LENGTHS` (the two sums' lengths), the rest with
    zipf-skewed outdegrees (hubs split at K = 8)."""
    n = draw(st.sampled_from(SUM_LENGTHS[1:]))
    dangling = draw(st.sampled_from([d for d in SUM_LENGTHS if d <= n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    live = rng.permutation(n)[dangling:]
    src = np.repeat(live, rng.zipf(2.0, len(live)).clip(max=40))
    dst = rng.integers(0, n, len(src))
    return from_edge_list(list(zip(src.tolist(), dst.tolist())), num_nodes=n)


#: node counts around a chunk of eight rows: none, one, a part chunk, one
#: whole chunk, one row more, and sixteen chunks and a row
GATHER_NS = (0, 1, 7, 8, 9, 129)


def _gather_graph(n, shape):
    """``n`` nodes: no edge (``"dangling"``), or ``"skewed"``: three
    random out-edges a node into the lower half (multi-edges among
    them), a self-loop on every third node, and three edges from every
    node into the last, a hub whose in-degree dwarfs the rest's; the
    upper half's other nodes have in-degree 0."""
    if shape == "dangling":
        return from_edge_list([], num_nodes=n)
    nodes = np.arange(n)
    rng = np.random.default_rng(n)
    src = np.concatenate([np.repeat(nodes, 3), nodes[::3], np.repeat(nodes, 3)])
    dst = np.concatenate([rng.integers(0, max(n // 2, 1), 3 * n), nodes[::3],
                          np.full(3 * n, n - 1)])
    return from_edge_list(list(zip(src.tolist(), dst.tolist())), num_nodes=n)


def _with_isolated(graph):
    """``graph`` plus one node no edge touches (the last id)."""
    n = graph.num_nodes
    src = np.repeat(np.arange(n), graph.out_degrees())
    return from_edge_list(list(zip(src.tolist(), graph.targets.tolist())),
                          num_nodes=n + 1)


def _bc_source(graph, which):
    """The hub (most out-edges), a leaf (reached, fewest out-edges) or
    the isolated last node of a :func:`_with_isolated` graph."""
    degrees = graph.out_degrees()
    if which == "hub":
        return int(np.argmax(degrees))
    if which == "isolated":
        return graph.num_nodes - 1
    reached = np.zeros(graph.num_nodes, dtype=bool)
    reached[graph.targets] = True
    candidates = np.flatnonzero(reached) if reached.any() else np.arange(
        graph.num_nodes)
    return int(candidates[np.argmin(degrees[candidates])])


def _same_bc(a, b):
    return (
        _same_bits(a.centrality, b.centrality) and _same_bits(a.sigma, b.sigma)
        and _same_bits(a.levels, b.levels)
        and all(getattr(a, f) == getattr(b, f) for f in BC_COUNTERS)
    )


def _bc_runs(scheduler, source, backend, **options):
    """bc from ``source`` on the numpy body and as ``backend``'s one
    call: equal to the bit, counter for counter."""
    jit = kernels.get_backend(backend)
    engaged, declined = jit.engaged, jit.declined
    want, got = (bc(scheduler, source, options=EngineOptions(
        kernel_backend=name, **options)) for name in ("numpy", backend))
    assert _same_bc(want, got)
    # a silent decline would compare numpy with itself
    assert (jit.engaged, jit.declined) == (engaged + 1, declined)
    return got


def _pr_runs(scheduler, backend, max_iterations=12):
    """PageRank on the numpy body and as ``backend``'s layout plus one
    run: equal to the bit, counter for counter."""
    jit = kernels.get_backend(backend)
    engaged, declined = jit.engaged, jit.declined
    want, got = (pagerank(scheduler, max_iterations=max_iterations,
                          options=EngineOptions(kernel_backend=name))
                 for name in ("numpy", backend))
    assert _same_bits(want.values, got.values)
    for field in BC_COUNTERS:
        assert getattr(want, field) == getattr(got, field)
    assert (jit.engaged, jit.declined) == (engaged + 2, declined)
    return got


def _rank_gathers(scheduler, backend, iterations=4):
    """A numpy-bodied and a ``backend`` RankStep's gather (a shard's
    half of an iteration) side by side, bit for bit every iteration.
    Returns the ``backend`` step."""
    graph = scheduler.graph
    n = graph.num_nodes
    inv_deg = inverse_out_degrees(graph)
    ref, other = (
        RankStep(scheduler, inv_deg, kernel_backend=name)
        for name in ("numpy", backend)
    )
    assert other.backend.name == backend
    rank = np.full(n, 1.0 / max(n, 1))
    for _ in range(iterations):
        assert _same_bits(ref.gather(rank), other.gather(rank))
        if not n:
            break  # no rank update on no nodes
        out = np.empty(n)
        ref(rank, out)
        rank = out
    return other


@pytest.mark.skipif(not JITS, reason="no JIT kernel backend available")
class TestAddRunDifferential:
    """The compiled Brandes and PageRank runs against their numpy
    bodies, bit for bit: both ADD, so every route must fold each row in
    CSR order on every layout, each bc level its sorted frontier, and
    each PageRank sum numpy's pairwise tree."""

    @pytest.mark.parametrize("backend", JITS)
    @given(
        graph=step_graphs,
        k=st.sampled_from(ADD_KS),
        kind=st.sampled_from(SCHEDULER_KINDS),
        which=st.sampled_from(("hub", "leaf", "isolated")),
        max_iterations=st.sampled_from((1, 2, 3, None)),
        dense_threshold=st.sampled_from((1.0, 1 / 16, 1e-9)),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_bc_run_matches(self, backend, graph, k, kind, which,
                                  max_iterations, dense_threshold):
        # every threshold sends the found levels through the sort, the
        # mark scan, or both
        graph = graph.without_weights()
        if which == "isolated":
            graph = _with_isolated(graph)
        if graph.num_nodes == 0:
            return
        bound = {} if max_iterations is None else {
            "max_iterations": max_iterations}
        got = _bc_runs(_add_scheduler(kind, graph, k),
                       _bc_source(graph, which), backend,
                       dense_threshold=dense_threshold, **bound)
        if which == "isolated":
            assert got.num_iterations == 1 and got.edges_processed == 0

    @pytest.mark.parametrize("backend", JITS)
    @given(
        graph=step_graphs,
        k=st.sampled_from(ADD_KS),
        kind=st.sampled_from(SCHEDULER_KINDS),
        max_iterations=st.sampled_from((1, 2, 3, 100_000)),
        dense_threshold=st.sampled_from((1.0, 1 / 16, 1e-9)),
    )
    @settings(max_examples=100, deadline=None)
    def test_each_level_is_sorted_into_order(self, backend, graph, k, kind,
                                             max_iterations, dense_threshold):
        # path counts are integers, exact in any order up to 2**53, so
        # the values alone cannot see a level walked unsorted: read the
        # levels bc_run leaves in `order`, ascending ids within each
        graph = graph.without_weights()
        if graph.num_nodes == 0:
            return
        hub = _bc_source(graph, "hub")
        step = BCStep(_add_scheduler(kind, graph, k), hub,
                      EngineOptions(kernel_backend=backend))
        order = np.full(graph.num_nodes, -1, dtype=np.int64)
        assert kernels.get_backend(backend).try_bc_run(
            step.levels, step.sigma, step.delta, order, hub,
            step.scheduler.offsets, graph.targets, max_iterations,
            dense_threshold) is not None
        reached = np.flatnonzero(step.levels >= 0)
        by_level = reached[np.argsort(step.levels[reached], kind="stable")]
        assert order[:len(reached)].tolist() == by_level.tolist()

    @pytest.mark.parametrize("backend", JITS)
    @given(
        graph=rank_graphs(),
        k=st.sampled_from((1, 8)),
        kind=st.sampled_from(SCHEDULER_KINDS),
        max_iterations=st.sampled_from((0, 1, 2, 1000)),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_pagerank_run_matches(self, backend, graph, k, kind,
                                        max_iterations):
        got = _pr_runs(_scheduler(kind, graph, k), backend, max_iterations)
        assert got.converged or max_iterations < 1000

    def test_the_drawn_lengths_reach_every_branch(self):
        branches = {"loop", "blocks", "blocks+rest", "split"}
        assert set().union(*map(_tree_branches, SUM_LENGTHS)) == branches
        assert set().union(*map(_tree_branches, kernels._PROBE_SIZES)) == (
            branches)
        assert 129 in SUM_LENGTHS and any(
            n > 256 and n % 2 for n in SUM_LENGTHS)

    @pytest.mark.parametrize("backend", JITS)
    @given(
        graph=step_graphs,
        k=st.sampled_from(ADD_KS),
        kind=st.sampled_from(SCHEDULER_KINDS),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_shard_gather_matches(self, backend, graph, k, kind):
        if graph.num_nodes == 0:
            return
        scheduler = _add_scheduler(kind, graph, k)
        jit = kernels.get_backend(backend)
        engaged, declined = jit.engaged, jit.declined
        _rank_gathers(scheduler, backend, iterations=4)
        # the layout, then one gather per iteration
        assert (jit.engaged, jit.declined) == (engaged + 5, declined)

    @pytest.mark.parametrize("backend", JITS)
    @pytest.mark.parametrize("n", GATHER_NS)
    @pytest.mark.parametrize("shape", ["skewed", "dangling"])
    @pytest.mark.parametrize("transform", ["none", "udt"])
    def test_every_gather_route_matches(self, backend, n, shape, transform):
        # the whole run to convergence and a shard's gathers on every
        # walkable scheduler (the virtual ones over the plain graph), at
        # each K; an empty graph has no run (pagerank returns first)
        graph = _gather_graph(n, shape)
        for k in (1, 2, 8):
            if transform == "udt":
                graph = udt_transform(_gather_graph(n, shape), max(k, 2)).graph
            for kind in SCHEDULER_KINDS:
                scheduler = _scheduler(kind, graph, k)
                if graph.num_nodes:
                    assert _pr_runs(scheduler, backend, 1000).converged
                step = _rank_gathers(scheduler, backend)
                assert step.layout is not None
                assert len(step.dangling) == (n if shape == "dangling" else 0)

    @pytest.mark.parametrize("backend", JITS)
    @pytest.mark.parametrize("k", STEP_KS)
    @pytest.mark.parametrize("kind", ["virtual", "virtual+", "maxwarp"])
    def test_star_at_family_boundaries(self, backend, k, kind):
        for d in sorted({max(k - 1, 0), k, k + 1, 2 * k, 2 * k + 1}):
            scheduler = _scheduler(kind, star(d, bidirectional=True), k)
            assert _bc_runs(scheduler, 0, backend).num_iterations > 0
            _pr_runs(scheduler, backend)
            _rank_gathers(scheduler, backend)

    @pytest.mark.parametrize("backend", JITS)
    def test_degenerate_graphs(self, backend):
        options = EngineOptions(kernel_backend=backend)
        empty = pagerank(from_edge_list([]), options=options)
        assert empty.converged and len(empty.values) == 0
        for graph in (
            from_edge_list([], num_nodes=5),  # isolated source, all dangling
            from_edge_list([(0, 1), (1, 2), (2, 0)]),  # no dangling node
            from_edge_list([(0, 0), (0, 1), (0, 1), (1, 1)]),  # loops, multi
        ):
            for kind in SCHEDULER_KINDS:
                scheduler = _scheduler(kind, graph, 2)
                assert _bc_runs(scheduler, 0, backend).num_iterations > 0
                _pr_runs(scheduler, backend)
                step = _rank_gathers(scheduler, backend)
                assert len(step.dangling) in (0, graph.num_nodes - 1,
                                              graph.num_nodes)

    @pytest.mark.parametrize("backend", JITS)
    def test_unindexable_sizes_decline(self, graph, backend, monkeypatch):
        # a padding id past int32: the layout declines and every
        # iteration runs numpy (the sizes are mocked, not allocated)
        jit = kernels.get_backend(backend)
        baseline = pagerank(graph, max_iterations=6,
                            options=EngineOptions(kernel_backend="numpy"))
        for limit in (graph.num_nodes - 1, graph.num_nodes):
            monkeypatch.setattr(kernels, "ID_LIMIT", limit)
            engaged, declined = jit.engaged, jit.declined
            result = pagerank(graph, max_iterations=6,
                              options=EngineOptions(kernel_backend=backend))
            assert (jit.engaged, jit.declined) == (engaged, declined + 1)
            assert _same_bits(result.values, baseline.values)
        monkeypatch.setattr(kernels, "ID_LIMIT", graph.num_nodes + 1)
        engaged = jit.engaged
        pagerank(graph, max_iterations=6,
                 options=EngineOptions(kernel_backend=backend))
        assert jit.engaged == engaged + 2  # the layout and the run

    @pytest.mark.parametrize("backend", JITS)
    def test_numpy_routes_report_the_same_counters(self, graph, backend):
        # warp segmentation and attached schedulers decline (counted);
        # bounded runs stop at the same level on both bodies
        jit = kernels.get_backend(backend)
        hop = graph.without_weights()
        for target, simulated, bound in (
            (WarpSegmentationScheduler(hop), False, 100_000),
            (NodeScheduler(hop), True, 100_000),
            (NodeScheduler(hop), False, 2),
        ):
            runs = []
            for name in ("numpy", backend):
                engaged, declined = jit.engaged, jit.declined
                options = EngineOptions(kernel_backend=name,
                                        max_iterations=bound)
                sims = (GPUSimulator(), GPUSimulator())
                bc_on, pr_on = (sim.attach(target) if simulated else target
                                for sim in sims)
                runs.append((
                    bc(bc_on, 0, options=options),
                    pagerank(pr_on, max_iterations=min(bound, 8),
                             options=options),
                    [sim.metrics for sim in sims],
                ))
                if name == backend and bound > 2:
                    # the bc run and the rank layout, each once
                    assert (jit.engaged, jit.declined) == (engaged,
                                                           declined + 2)
            (ref_bc, ref_pr, ref_m), (jit_bc, jit_pr, jit_m) = runs
            assert _same_bc(ref_bc, jit_bc)
            assert _same_bits(ref_pr.values, jit_pr.values)
            for field in BC_COUNTERS:
                assert getattr(ref_pr, field) == getattr(jit_pr, field)
            if simulated:
                assert ref_m == jit_m
        assert ref_bc.num_iterations == 3  # two forward levels, one back

    @pytest.mark.parametrize("backend", JITS)
    def test_bad_arguments_never_reach_the_kernels(self, graph, backend):
        jit = kernels.get_backend(backend)
        hop = graph.without_weights()
        n = hop.num_nodes
        options = EngineOptions(kernel_backend=backend)
        step = BCStep(NodeScheduler(hop), 0, options)
        targets, offsets = hop.targets, step.scheduler.offsets
        order = np.empty(n, dtype=np.int64)
        levels, sigma, delta = step.levels, step.sigma, step.delta
        fixpoint = (100, 1 / 16)
        declined = jit.declined
        for refused in (
            jit.try_bc_run(levels.astype(np.int32), sigma, delta, order, 0,
                           offsets, targets, *fixpoint),
            jit.try_bc_run(levels, sigma[:-1], delta, order, 0, offsets,
                           targets, *fixpoint),
            jit.try_bc_run(levels, sigma, sigma, order, 0, offsets, targets,
                           *fixpoint),
            jit.try_bc_run(levels, sigma, delta.astype(np.float32), order, 0,
                           offsets, targets, *fixpoint),
            jit.try_bc_run(levels, sigma, delta, order[:-1], 0, offsets,
                           targets, *fixpoint),
            jit.try_bc_run(levels, sigma, delta, levels, 0, offsets, targets,
                           *fixpoint),
            jit.try_bc_run(levels, sigma, delta, order, n, offsets, targets,
                           *fixpoint),
            jit.try_bc_run(levels, sigma, delta, order, -1, offsets, targets,
                           *fixpoint),
            jit.try_bc_run(levels, sigma, delta, order, 0, None, targets,
                           *fixpoint),
            jit.try_bc_run(levels, sigma, delta, order, 0,
                           offsets.astype(np.int32), targets, *fixpoint),
        ):
            assert refused is None
        assert jit.declined == declined + 10
        assert jit.try_bc_run(levels, sigma, delta, order, 0, offsets, targets,
                              *fixpoint) is not None

        pr_step = RankStep(NodeScheduler(hop), inverse_out_degrees(hop),
                           kernel_backend=backend)
        layout, scratch = pr_step.layout, pr_step.scratch
        perm, chunk, cols = layout
        x, contrib = scratch
        rank, spare = np.full(n, 1.0 / n), np.empty(n)
        inv_deg, dangling = pr_step.inv_deg, pr_step.dangling
        declined = jit.declined
        assert jit.try_rank_layout(None, hop.targets) is None
        assert jit.try_rank_layout(hop.offsets, hop.targets[:-1]) is None
        for refused in (
            jit.try_rank_gather(rank, inv_deg, None, scratch),
            jit.try_rank_gather(rank, inv_deg, layout, (x, rank)),
            jit.try_rank_gather(rank, inv_deg, layout, (x[:-1], contrib)),
            jit.try_rank_gather(rank[:-1], inv_deg, layout, scratch),
            jit.try_rank_gather(rank.astype(np.float32), inv_deg, layout,
                                scratch),
            jit.try_rank_gather(rank, inv_deg,
                                (perm.astype(np.int64), chunk, cols), scratch),
            jit.try_rank_gather(rank, inv_deg, (perm[:-1], chunk, cols),
                                scratch),
            jit.try_rank_gather(rank, inv_deg, (perm, chunk[:-1], cols),
                                scratch),
            jit.try_rank_gather(rank, inv_deg, (perm, chunk,
                                                cols.astype(np.int64)), scratch),
        ):
            assert refused is False
        for refused in (
            jit.try_rank_run(rank, rank, inv_deg, dangling, layout, scratch,
                             0.85, 1e-10, 8),
            jit.try_rank_run(rank, contrib, inv_deg, dangling, layout,
                             scratch, 0.85, 1e-10, 8),
            jit.try_rank_run(rank, spare[:-1], inv_deg, dangling, layout,
                             scratch, 0.85, 1e-10, 8),
            jit.try_rank_run(rank, spare, inv_deg, dangling.astype(np.int32),
                             layout, scratch, 0.85, 1e-10, 8),
            jit.try_rank_run(rank, spare, inv_deg, np.asarray([n]), layout,
                             scratch, 0.85, 1e-10, 8),
            jit.try_rank_run(rank, spare, inv_deg, np.arange(n + 1), layout,
                             scratch, 0.85, 1e-10, 8),
            jit.try_rank_run(rank, spare, inv_deg, dangling, None, scratch,
                             0.85, 1e-10, 8),
            jit.try_rank_run(rank, spare, inv_deg, dangling, layout,
                             (x, spare), 0.85, 1e-10, 8),
        ):
            assert refused is None
        assert jit.declined == declined + 19
        assert jit.try_rank_gather(rank, inv_deg, layout, scratch)
        assert jit.try_rank_run(rank, spare, inv_deg, dangling, layout,
                                scratch, 0.85, 1e-10, 8) is not None

    def test_reference_kernels_match_numpy(self, reference_backend):
        # the specs the bc and rank units transliterate, through the hooks
        graph = rmat(40, 300, seed=9, dedup=False)
        for kind in SCHEDULER_KINDS:
            scheduler = _scheduler(kind, graph, 3)
            hub = int(np.argmax(graph.out_degrees()))
            for threshold in (1.0, 1e-9):
                _bc_runs(scheduler, hub, "reference",
                         dense_threshold=threshold)
            _pr_runs(scheduler, "reference")
            _rank_gathers(scheduler, "reference")
        assert reference_backend.engaged > 0
        assert reference_backend.declined == 0

    def test_a_foreign_summation_tree_declines_to_numpy(
        self, reference_backend, graph, monkeypatch
    ):
        # the gate probes the compiled sums once, against this numpy: a
        # left-to-right sum rounds apart, so the run declines (counted)
        # and the numpy body answers
        def sequential(a, n):
            total = 0.0
            for i in range(n):
                total += a[i]
            return total

        monkeypatch.setattr(kernel_reference, "_pairwise", sequential)
        baseline = pagerank(graph, max_iterations=6,
                            options=EngineOptions(kernel_backend="numpy"))
        for _ in range(2):  # probed once, declined every run
            result = pagerank(graph, max_iterations=6,
                              options=EngineOptions(kernel_backend="reference"))
            assert _same_bits(result.values, baseline.values)
        assert reference_backend._numpy_sums is False
        # two layouts engaged, two runs declined
        assert (reference_backend.engaged, reference_backend.declined) == (2, 2)


@st.composite
def symmetrize_graphs(draw):
    """A generator graph (none for n = 0; n = 1; multi-edges and
    self-loops; both directions; a hub), its rows shuffled, then what
    a symmetrise must fold drawn on top: self-loops, repeated edges,
    reversed edges, a hub whose out-row and in-row overlap, isolated
    nodes; weighted or not."""
    kind = draw(st.sampled_from(
        ("empty", "single", "rmat", "star", "complete", "path", "ring")))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    base = {
        "empty": lambda: from_edge_list([], num_nodes=0),
        "single": lambda: path_graph(1),
        "rmat": lambda: rmat(40, 300, seed=seed, dedup=False),
        "star": lambda: star(int(rng.integers(0, 30)), bidirectional=True),
        "complete": lambda: complete_graph(6),
        "path": lambda: path_graph(20),
        "ring": lambda: regular_ring(25, 3),
    }[kind]()
    src, dst, _ = base.to_coo()
    n = base.num_nodes
    extras = draw(st.sets(st.sampled_from(
        ("loops", "repeats", "reversed", "hub", "isolated"))))
    if n and "loops" in extras:
        loops = rng.integers(0, n, 5)
        src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
    if len(src) and "repeats" in extras:
        again = rng.integers(0, len(src), len(src) // 3 + 1)
        src, dst = np.concatenate([src, src[again]]), np.concatenate([dst, dst[again]])
    if len(src) and "reversed" in extras:
        back = rng.integers(0, len(src), len(src) // 2 + 1)
        src, dst = np.concatenate([src, dst[back]]), np.concatenate([dst, src[back]])
    if n and "hub" in extras:
        hub, outs = int(rng.integers(0, n)), rng.integers(0, n, 12)
        ins = np.concatenate([outs[::2], rng.integers(0, n, 6)])
        src = np.concatenate([src, np.full(len(outs), hub), ins])
        dst = np.concatenate([dst, outs, np.full(len(ins), hub)])
    n += 3 * ("isolated" in extras)
    order = rng.permutation(len(src))
    weights = rng.uniform(1, 9, len(src)) if draw(st.booleans()) else None
    return from_arrays(src[order], dst[order], weights, num_nodes=n)


def _prepared_cc(graph, backend):
    """``prepare_graph(graph, "cc")`` with ``backend`` as the one the
    environment names, and the backend's ``(engaged, declined)`` moves."""
    jit = kernels.get_backend(backend)
    before = jit.engaged, jit.declined
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_KERNEL_BACKEND", backend)
        prepared = prepare_graph(graph, "cc")
    return prepared, (jit.engaged - before[0], jit.declined - before[1])


def _same_csr(got, want):
    np.testing.assert_array_equal(got.offsets, want.offsets)
    np.testing.assert_array_equal(got.targets, want.targets)
    assert got.fingerprint() == want.fingerprint()
    # exactly sized, owning its bytes
    assert got.nbytes() == want.nbytes() and got.targets.base is None


class TestSymmetrize:
    """cc's prepared graph from the compiled ``symmetrize`` against
    ``to_undirected``, the numpy spec, byte for byte: the prepared
    graph's fingerprint keys every artifact built on it."""

    @given(graph=symmetrize_graphs())
    @settings(max_examples=200, deadline=None)
    def test_every_backend_prepares_to_undirecteds_bytes(self, graph):
        want = to_undirected(graph).without_weights()
        reference = ReferenceBackend()
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(kernels._REGISTRY, reference.name, reference)
            for backend in ("numpy", *JITS, reference.name):
                got, moved = _prepared_cc(graph, backend)
                _same_csr(got, want)
                jit = kernels.get_backend(backend).jit
                assert moved == ((1, 0) if jit else (0, 0)), backend

    def test_to_undirected_has_two_row_orders(self):
        # a weighted input's rows ascend; an unweighted one keeps its
        # out-row's order, then the in-neighbours not in it, ascending
        graph = from_arrays([0, 0, 0, 2, 1], [2, 1, 2, 0, 0], num_nodes=3)
        unweighted = to_undirected(graph)
        assert unweighted.targets[:2].tolist() == [2, 1]
        weighted = to_undirected(from_arrays(graph.edge_sources(), graph.targets,
                                             np.ones(5), num_nodes=3))
        assert weighted.targets[:2].tolist() == [1, 2]

    @pytest.mark.skipif(not JITS, reason="no JIT kernel backend available")
    @pytest.mark.parametrize("dataset,scale", [
        ("livejournal", 0.5), ("orkut", 0.25), ("twitter", 0.15),
        ("sinaweibo", 0.5)])
    def test_ledger_graphs_and_their_unweighted_twins(self, dataset, scale):
        from repro.graph.datasets import load_dataset

        graph = load_dataset(dataset, scale=scale)
        for twin in (graph, graph.without_weights()):
            want = to_undirected(twin).without_weights()
            for backend in ("numpy", *JITS):
                _same_csr(_prepared_cc(twin, backend)[0], want)

    def test_no_compiler_declines_once_and_runs_the_spec(
        self, tmp_path, monkeypatch
    ):
        graph = rmat(40, 300, seed=3, dedup=False, weight_range=(1, 9))
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        broken = kernels.CJitBackend()
        monkeypatch.setitem(kernels._REGISTRY, "cjit", broken)
        with pytest.warns(RuntimeWarning, match="cjit backend disabled"):
            got, moved = _prepared_cc(graph, "cjit")
        assert moved == (0, 1)
        _same_csr(got, to_undirected(graph).without_weights())

    def test_a_layout_whose_in_degree_outgrows_n(self, reference_backend):
        # five parallel edges into node 1 of two: the first layout has
        # no room for in-degree 5, the second has, in the same launch
        graph = from_edge_list([(0, 1)] * 5 + [(1, 0)], num_nodes=2)
        layouts = []
        for backend in (reference_backend, *map(kernels.get_backend, JITS)):
            engaged = backend.engaged
            layouts.append(backend.try_rank_layout(graph.offsets, graph.targets))
            assert backend.engaged == engaged + 1
        for layout in layouts:
            for got, want in zip(layout, layouts[0]):
                np.testing.assert_array_equal(got, want)
        perm, chunk, cols = layouts[0]
        assert perm.tolist() == [1, 0] and cols.tolist() == (
            [0, 1] + [2] * 6 + [0, 2] + [2] * 6 + [0, 2] + [2] * 6
            + [0, 2] + [2] * 6 + [0, 2] + [2] * 6)
        assert len(cols) == chunk[-1]


@st.composite
def component_graphs(draw):
    """Directed multigraphs for the union-find: ``symmetrize_graphs``'
    (empty, one node, self-loops, multi-edges, hubs, isolated nodes) or
    a sparse scatter of many small components, then maybe an isolated
    hub (a star of fresh nodes, its spokes pointing either way, touching
    nothing else); weighted or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        base = draw(symmetrize_graphs())
        (src, dst, _), n = base.to_coo(), base.num_nodes
    else:
        n = int(rng.integers(0, 60))
        src, dst = rng.integers(0, max(n, 1), (2, int(rng.integers(0, n + 1))))
    if draw(st.booleans()):
        leaves = np.arange(n + 1, n + 2 + int(rng.integers(0, 12)))
        out = rng.random(len(leaves)) < 0.5
        src = np.concatenate([src, np.where(out, n, leaves)])
        dst = np.concatenate([dst, np.where(out, leaves, n)])
        n += len(leaves) + 1
    weights = rng.uniform(1, 9, len(src)) if draw(st.booleans()) else None
    return from_arrays(src, dst, weights, num_nodes=n)


class TestComponents:
    """cc by union-find over the CSR as it is: the compiled
    ``components``, its spec loop, the numpy decline path (propagation
    over the symmetrised graph), the reference union-find and the
    sharded fold at 1-4 shards label each node with its component's
    least id, bitwise in float64."""

    @given(graph=component_graphs())
    @settings(max_examples=150, deadline=None)
    def test_every_path_labels_bitwise(self, graph):
        want = reference_connected_components(graph).astype(np.float64).tobytes()
        reference = ReferenceBackend()
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(kernels._REGISTRY, reference.name, reference)
            for backend in ("numpy", *JITS, reference.name):
                jit = kernels.get_backend(backend)
                before = jit.engaged, jit.declined
                got = weak_components(
                    graph, options=EngineOptions(kernel_backend=backend))
                assert got.dtype == np.float64 and got.tobytes() == want, backend
                moved = (jit.engaged - before[0], jit.declined - before[1])
                assert moved == ((1, 0) if jit.jit else (0, 0)), backend
        for shards in range(1, 5):
            shardset = ShardSet.build(graph.without_weights(), shards)
            try:
                for backend in ("numpy", *JITS):
                    got = shardset.run_components(kernel_backend=backend)[-1]
                    assert got.tobytes() == want, (shards, backend)
            finally:
                shardset.close()

    @pytest.mark.skipif(not JITS, reason="no JIT kernel backend available")
    @pytest.mark.parametrize("dataset,scale", [
        ("livejournal", 0.5), ("orkut", 0.25), ("twitter", 0.15),
        ("sinaweibo", 0.5)])
    def test_ledger_graphs_match_propagation(self, dataset, scale):
        from repro.graph.datasets import load_dataset

        graph = load_dataset(dataset, scale=scale)
        want = connected_components(prepare_graph(graph, "cc"),
                                    options=EngineOptions(kernel_backend="numpy"))
        for backend in JITS:
            got = weak_components(graph, options=EngineOptions(kernel_backend=backend))
            assert got.tobytes() == want.values.tobytes(), backend

    @pytest.mark.skipif(not JITS, reason="no JIT kernel backend available")
    @pytest.mark.parametrize("dataset,scale", [
        ("livejournal", 0.5), ("orkut", 0.25), ("twitter", 0.15),
        ("sinaweibo", 0.5)])
    def test_a_numpy_pin_launches_nothing_compiled(self, dataset, scale, monkeypatch):
        # the decline path symmetrises with the backend weak_components
        # resolved, not with $REPRO_KERNEL_BACKEND's or auto's
        from repro.graph.datasets import load_dataset

        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        graph = load_dataset(dataset, scale=scale)
        jits = [kernels.get_backend(name) for name in JITS]
        before = [jit.engaged for jit in jits]
        got = weak_components(graph, options=EngineOptions(kernel_backend="numpy"))
        assert [jit.engaged for jit in jits] == before
        for name in JITS:
            compiled = weak_components(graph, options=EngineOptions(kernel_backend=name))
            assert np.array_equal(got, compiled), name


@pytest.mark.skipif(
    not kernels.get_backend("cjit").is_available(), reason="no C compiler"
)
class TestCompileOnFirstCall:
    @pytest.fixture
    def backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        fresh = kernels.CJitBackend()
        monkeypatch.setitem(kernels._REGISTRY, "cjit", fresh)
        return fresh

    @staticmethod
    def _units(tmp_path):
        return sorted(
            lib.name.split("-")[1] for lib in (tmp_path / "kernels").glob("*.so")
        )

    def test_a_boot_compiles_only_what_its_traffic_calls(
        self, graph, backend, tmp_path
    ):
        assert not (tmp_path / "kernels").exists()  # importing compiles nothing
        _values("bfs", graph, "cjit")
        assert self._units(tmp_path) == ["push_step"]
        bfs_only = backend.compile_seconds
        assert bfs_only > 0
        _values("sssp", graph, "cjit")  # same kernel: nothing new
        assert backend.compile_seconds == bfs_only
        _values("bc", graph, "cjit")
        _values("pr", graph, "cjit")
        assert self._units(tmp_path) == ["bc", "push_step", "rank"]
        # cumulative over the kernels this process compiled
        assert backend.compile_seconds > bfs_only
        # a second process finds them all in the cache
        again = kernels.CJitBackend()
        for name in ("push_step", "bc_run", "rank_run"):
            assert again.function(name) is not None
        assert again.compile_seconds == 0

    def test_a_racing_compile_cannot_truncate_what_cc_reads(
        self, graph, backend, monkeypatch
    ):
        # another process booting on the same cache dir compiles the same
        # unit: it opens the shared source name for writing just before
        # this process's compiler reads its source
        run = subprocess.run

        def racing(command, **kwargs):
            library = command[command.index("-o") + 1]
            open(library[:library.index(".so")] + ".c", "w").close()
            return run(command, **kwargs)

        monkeypatch.setattr(kernels.subprocess, "run", racing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "cjit backend disabled"
            values = _values("sssp", graph, "cjit")
        assert _same_bits(values, _values("sssp", graph, "numpy"))
        assert backend.engaged > 0 and backend.declined == 0

    def test_every_function_belongs_to_a_unit(self):
        assert {proto.unit for proto in kernels._PROTOTYPES.values()} == set(
            kernels._C_UNITS
        )

    def test_corrupt_cached_library_is_rebuilt(
        self, graph, backend, tmp_path, monkeypatch
    ):
        baseline = _values("sssp", graph, "numpy")
        assert backend.function("push_step") is not None
        (built,) = (tmp_path / "kernels").glob("*.so")
        # the same name under another cache dir, torn mid-write (never
        # truncate a library this process has mapped)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "torn"))
        torn = tmp_path / "torn" / "kernels" / built.name
        torn.parent.mkdir(parents=True)
        torn.write_bytes(built.read_bytes()[:100])
        survivor = kernels.CJitBackend()
        monkeypatch.setitem(kernels._REGISTRY, "cjit", survivor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "cjit backend disabled"
            values = _values("sssp", graph, "cjit")
        assert _same_bits(values, baseline)
        assert survivor.engaged > 0 and survivor.declined == 0
        assert survivor.compile_seconds > 0  # rebuilt, once
        assert survivor.is_available()
        assert torn.stat().st_size == built.stat().st_size


_PTR, _I64, _I32, _F64 = (
    ctypes.c_void_p, ctypes.c_int64, ctypes.c_int, ctypes.c_double)
_STEP_ARGS = [_PTR] * 3 + [_I64] + [_PTR] * 6 + [_I32] * 3
#: what a ``*_run`` adds to its step's arguments: n, max_iterations
#: and the dense threshold
_RUN_ARGS = [_I64, _I64, _F64]

#: C function -> (compile unit, restype, argtypes), as the ctypes table
#: declared them by hand before they were parsed from the C text.
HAND_COUNTED = {
    "push_step": ("push_step", _I64, _STEP_ARGS),
    "push_lanes_step": ("push_lanes_step", _I64, _STEP_ARGS + [_I64, _PTR]),
    "hop_step": ("hop_step", _I64,
                 [_PTR] * 4 + [_I64, _F64, _PTR, _I64] + [_PTR] * 5),
    "push_run": ("push_step", _I64, _STEP_ARGS + _RUN_ARGS),
    "push_lanes_run": ("push_lanes_step", _I64,
                       _STEP_ARGS + [_I64, _PTR] + _RUN_ARGS),
    "hop_run": ("hop_step", _I64,
                [_PTR] * 4 + [_I64, _F64, _PTR, _I64] + [_PTR] * 5 + _RUN_ARGS),
    "bc_run": ("bc", None,
               [_PTR] * 4 + [_I64] + [_PTR] * 2 + [_I64, _I64, _F64, _PTR]),
    "rank_layout": ("rank", _I64, [_PTR] * 2 + [_I64] * 2 + [_PTR] * 5),
    "rank_gather": ("rank", None, [_PTR] * 7 + [_I64]),
    "rank_run": ("rank", _F64, [_PTR] * 8 + [_I64] + [_PTR, _I64]
                 + [_F64] * 2 + [_I64, _PTR]),
    "symmetrize": ("symmetrize", _I64, [_PTR] * 2 + [_I64, _I32] + [_PTR] * 7),
    "components": ("components", None, [_PTR] * 2 + [_I64] + [_PTR] * 2),
}


class TestOneDeclaration:
    """A kernel is declared once, by its C prototype, and served by
    one hook: the ctypes signature is parsed from the C text, and the
    spec loop takes the same arguments the C function does."""

    def test_signatures_are_parsed_from_the_c_text(self):
        parsed = {name: (proto.unit, proto.restype, proto.argtypes)
                  for name, proto in kernels._PROTOTYPES.items()}
        assert parsed == HAND_COUNTED

    def test_spec_loops_take_the_c_arguments(self):
        assert set(LOOPS) == set(kernels._PROTOTYPES)
        for name, proto in kernels._PROTOTYPES.items():
            params = list(inspect.signature(LOOPS[name]).parameters)
            assert params == proto.params, name

    def test_every_hook_is_written_once(self):
        hooks = {name for name in vars(kernels.KernelBackend)
                 if name.startswith("try_")}
        assert len(hooks) == len(kernels._PROTOTYPES)
        for backend in (kernels.CJitBackend, ReferenceBackend):
            assert not hooks & set(vars(backend))
        # the spec module writes loops, never a hook of its own
        assert not [name for name in vars(kernel_reference)
                    if name.startswith("try_")]


class TestRowWalk:
    """The one walk order: every kernel walks each active node's CSR
    row in order, in place of a walkable scheduler's ``batch()``; an
    unwalkable scheduler's steps hold no rows and decline."""

    @pytest.mark.parametrize("kind", SCHEDULER_KINDS)
    @pytest.mark.parametrize("k", STEP_KS)
    def test_a_batch_covers_exactly_the_rows(self, graph, kind, k):
        # what lets a kernel walk the rows instead: each launch holds
        # the active rows' edges, once each, owned by their row's node
        scheduler = _scheduler(kind, graph, k)
        assert scheduler.walkable
        active = np.arange(0, graph.num_nodes, 3, dtype=np.int64)
        rows = NodeScheduler(graph).batch(active)
        batch = scheduler.batch(active)
        order = np.argsort(batch.edge_indices(), kind="stable")
        np.testing.assert_array_equal(
            batch.edge_indices()[order], rows.edge_indices())
        np.testing.assert_array_equal(
            batch.sources_per_edge()[order], rows.sources_per_edge())

    @pytest.mark.parametrize("kind", SCHEDULER_KINDS)
    def test_every_step_walks_the_graphs_rows(self, graph, kind):
        # bc and PageRank hand the kernels scheduler.offsets as it is
        scheduler = _scheduler(kind, graph, 3)
        assert scheduler.offsets is graph.offsets
        options = EngineOptions(kernel_backend=JITS[0] if JITS else "numpy")
        for step in (
            PushStep(scheduler, SSSPProgram(), options),
            PushStep(scheduler, PageRankProgram(), options),
            LaneStep(scheduler, SSSPProgram(), [0, 1], options),
        ):
            assert step.offsets is graph.offsets

    @pytest.mark.parametrize("backend", JITS)
    def test_unwalkable_schedulers_decline(self, graph, backend):
        hop = graph.without_weights()
        hub = int(np.argmax(hop.out_degrees()))
        jit = kernels.get_backend(backend)
        want = bc(hop, hub, options=EngineOptions(kernel_backend="numpy"))
        for scheduler in (WarpSegmentationScheduler(hop),
                          GPUSimulator().attach(hop)):
            assert not scheduler.walkable and scheduler.offsets is None
            options = EngineOptions(kernel_backend=backend)
            assert PushStep(scheduler, BFSProgram(), options).offsets is None
            assert RankStep(scheduler, inverse_out_degrees(hop),
                            kernel_backend=backend).layout is None
            engaged, declined = jit.engaged, jit.declined
            assert _same_bc(bc(scheduler, hub, options=options), want)
            assert (jit.engaged, jit.declined) == (engaged, declined + 1)


class TestEngagementCounters:
    def test_concurrent_hooks_lose_no_counts(self):
        import sys
        import threading

        class Half(kernels.KernelBackend):
            jit = True

            @kernels._counted
            def try_push_step(self, spec, *rest):
                return spec  # True = engaged, False = declined

        backend = Half()
        per_thread, threads = 4000, 8

        def hammer():
            for i in range(per_thread):
                backend.try_push_step(i % 2 == 0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert backend.engaged == backend.declined == per_thread * threads // 2

    @pytest.mark.skipif(not JITS, reason="no JIT kernel backend available")
    def test_engagement_names_the_backend_that_ran(self, graph):
        _values("sssp", graph, JITS[0])
        name, engaged, declined = kernels.engagement()
        assert name in JITS and engaged > 0 and declined >= 0

    def test_flags_are_part_of_the_library_digest(self, tmp_path, monkeypatch):
        if not kernels.get_backend("cjit").is_available():
            pytest.skip("no C compiler")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        plain, debug = kernels.CJitBackend(), kernels.CJitBackend()
        debug.CFLAGS = kernels.CJitBackend.CFLAGS + ("-g",)
        assert plain.function("push_step") is not None
        assert debug.function("push_step") is not None
        libs = sorted((tmp_path / "kernels").glob("*.so"))
        assert len(libs) == 2  # a flag change never reuses a stale .so
        assert "-O2" in kernels.CJitBackend.CFLAGS
        # a fused multiply-add rounds once where numpy rounds twice
        assert "-ffp-contract=off" in kernels.CJitBackend.CFLAGS




#: edge counts and source counts the decision table sweeps
TABLE_EDGES = (0, 50, 4_095, 4_096, 10**5, 2_723_809, 2_723_810, 10**7)
TABLE_SOURCES = (0, 1, 2, 3, 4, 63, 64, 65, 200)
_LOOP, _LANES = "." * 8, "L" * 8

#: ``choose_multisource_mode`` per (family, max_lanes): one string per
#: source count, one character per edge count (``L`` lanes, ``.`` loop);
#: ``pr`` is not a lane family and prices as sssp
DECISIONS = {
    ("bfs", 1): (_LOOP,) * 9,
    ("bfs", 2): (_LOOP, _LOOP, "LLLLLL..", "LLLL....", "LLLLLL..",
                 "LLLLL...", "LLLLLL..", "LLLLL...", "LLLLLL.."),
    ("bfs", 4): (_LOOP, _LOOP, "LLLLLL..") + (_LANES,) * 6,
    ("bfs", 64): (_LOOP, _LOOP, "LLLLLL..") + (_LANES,) * 6,
    ("sssp", 1): (_LOOP, _LOOP) + ("....LLLL",) * 7,
    ("sssp", 2): (_LOOP, _LOOP) + (_LANES,) * 7,
    ("sssp", 4): (_LOOP, _LOOP) + (_LANES,) * 7,
    ("sssp", 64): (_LOOP, _LOOP) + (_LANES,) * 7,
}
DECISIONS.update({("pr", lanes): row for (family, lanes), row
                  in list(DECISIONS.items()) if family == "sssp"})

#: what ``auto`` resolves to at 0 / 4 095 / 4 096 / 10^7 edges
AUTO_BACKEND_EDGES = (0, 4_095, 4_096, 10**7)
AUTO_BACKENDS = {True: ["numpy", "numpy", "cjit", "cjit"],
                 False: ["numpy"] * 4}

#: ``route="auto"``'s break-even at 2 / 3 / 4 shards
BREAK_EVEN = [208_208, 234_234, 277_610]

#: a ``calibration.json`` from a host where lanes lose to the loop at
#: every width, numpy outruns cjit and scatter is slow; the CI
#: http-smoke job boots a server over it too
SLOW_LANES_CALIBRATION = (
    Path(__file__).parent / "fixtures" / "calibration-slow-lanes.json")


def _mode_row(family, lanes, sources):
    return "".join(
        "L" if costmodel.choose_multisource_mode(
            algorithm=family, num_sources=sources, num_edges=m,
            max_lanes=lanes,
        ) == "lanes" else "."
        for m in TABLE_EDGES
    )


class TestDecisionTable:
    """Every strategy decision, pinned: the reference rates are
    constants, so these may only move with a deliberate refit."""

    @pytest.mark.parametrize("family, lanes", sorted(DECISIONS))
    def test_multisource_modes(self, family, lanes):
        rows = tuple(_mode_row(family, lanes, s) for s in TABLE_SOURCES)
        assert rows == DECISIONS[family, lanes]

    def test_named_crossovers(self):
        def mode(family, sources, edges, lanes=64):
            return costmodel.choose_multisource_mode(
                algorithm=family, num_sources=sources, num_edges=edges,
                max_lanes=lanes)

        assert [mode("bfs", 2, m) for m in (2_723_809, 2_723_810)] == [
            "lanes", "loop"]
        assert mode("bfs", 3, 10**7, lanes=2) == "loop"
        assert mode("coloring", 2, 10**7) == mode("sssp", 2, 10**7)

    @pytest.mark.parametrize("compiler", [True, False])
    def test_auto_backend(self, compiler, monkeypatch):
        if compiler and not kernels.get_backend("cjit").is_available():
            pytest.skip("no C compiler")
        if not compiler:
            monkeypatch.setattr(
                kernels.CJitBackend, "is_available", lambda self: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy without a warning
            picked = [kernels.resolve_backend("auto", edges=m).name
                      for m in AUTO_BACKEND_EDGES]
        assert picked == AUTO_BACKENDS[compiler]

    def test_sharded_break_even(self):
        from repro.service.routing import RoutingPolicy

        policy = RoutingPolicy(route="auto")
        assert [policy.min_sharded_edges(s) for s in (2, 3, 4)] == BREAK_EVEN
        assert policy.min_sharded_edges(1) == 0

    def test_a_planted_calibration_file_changes_no_decision(self, tmp_path):
        # a fresh process over a cache dir holding a profile that would
        # flip all three decisions reads none of it
        (tmp_path / "calibration.json").write_text(
            SLOW_LANES_CALIBRATION.read_text())
        probe = (
            "import json\n"
            "from repro.algorithms.multi_source import resolve_multisource_mode\n"
            "from repro.engine import kernels\n"
            "from repro.service.routing import RoutingPolicy\n"
            "print(json.dumps([\n"
            "    [resolve_multisource_mode(algorithm=f, num_sources=s,\n"
            "                              num_edges=m)\n"
            "     for f in ('bfs', 'sssp') for s in (2, 3, 64)\n"
            "     for m in (50, 10**5, 10**7)],\n"
            "    kernels.resolve_backend('auto', edges=10**7).name,\n"
            "    [RoutingPolicy(route='auto').min_sharded_edges(s)\n"
            "     for s in (2, 3, 4)]]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   REPRO_CACHE_DIR=str(tmp_path))
        env.pop("REPRO_KERNEL_BACKEND", None)
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        modes, backend, break_even = json.loads(proc.stdout)
        assert modes == [
            costmodel.choose_multisource_mode(
                algorithm=f, num_sources=s, num_edges=m)
            for f in ("bfs", "sssp") for s in (2, 3, 64)
            for m in (50, 10**5, 10**7)
        ]
        assert "lanes" in modes
        assert backend == ("cjit" if "cjit" in kernels.available_backends()
                           else "numpy")
        assert break_even == BREAK_EVEN


class TestCostModelPredictions:
    BIG = 1_000_000  # edges: firmly in the per-edge-dominated regime
    TINY = 50  # edges: firmly in the overhead-dominated regime

    def test_loop_cost_is_monotone_in_sources(self):
        costs = [
            costmodel.multisource_cost(
                "loop", algorithm="bfs", num_sources=s, num_edges=self.BIG
            )
            for s in (1, 2, 4, 8, 16)
        ]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]

    def test_lanes_cost_is_monotone_in_sources_and_edges(self):
        by_sources = [
            costmodel.multisource_cost(
                "lanes", algorithm="bfs", num_sources=s, num_edges=self.BIG
            )
            for s in (2, 16, 64, 65, 256)
        ]
        assert by_sources == sorted(by_sources)
        by_edges = [
            costmodel.multisource_cost(
                "lanes", algorithm="bfs", num_sources=8, num_edges=m
            )
            for m in (10**3, 10**5, 10**7)
        ]
        assert by_edges == sorted(by_edges)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown multisource mode"):
            costmodel.multisource_cost(
                "warp", algorithm="bfs", num_sources=2, num_edges=10
            )

    def test_single_source_always_loops(self):
        for m in (self.TINY, self.BIG):
            assert costmodel.choose_multisource_mode(
                algorithm="sssp", num_sources=1, num_edges=m
            ) == "loop"

    def test_tiny_graphs_collapse_to_lanes(self):
        # the service's batch-collapse behavior: on overhead-dominated
        # graphs one lane pass replaces S whole runs
        for algorithm in costmodel.LANE_FITS:
            assert costmodel.choose_multisource_mode(
                algorithm=algorithm, num_sources=3, num_edges=self.TINY
            ) == "lanes"

    def test_sssp_lanes_win_at_scale(self):
        # since the lane engine has a compiled superstep one more float
        # lane costs about half a scalar pass: lanes from two sources up
        for s in (2, 4, 16, 64, 256):
            assert costmodel.choose_multisource_mode(
                algorithm="sssp", num_sources=s, num_edges=self.BIG
            ) == "lanes"

    def test_a_lane_engine_slower_than_the_loop_is_never_picked(
        self, monkeypatch
    ):
        monkeypatch.setitem(costmodel.LANE_FITS, "sssp",
                            costmodel.LaneFit(8.86e-09, 1e-12, 1.14e-08))
        for s in (2, 16, 256):
            assert costmodel.choose_multisource_mode(
                algorithm="sssp", num_sources=s, num_edges=self.BIG
            ) == "loop"

    def test_bfs_lanes_win_wide_batches_at_scale(self):
        # a bit-packed lane is nearly free; the union walk's fixed cost
        # is paid back within the first few sources
        for s in (4, 16, 64):
            assert costmodel.choose_multisource_mode(
                algorithm="bfs", num_sources=s, num_edges=self.BIG
            ) == "lanes"

    def test_backend_choice_respects_size_and_availability(self):
        small = costmodel.JIT_MIN_EDGES - 1
        assert costmodel.choose_kernel_backend(
            edges=small, candidates=lambda: ("cjit", "numpy")
        ) == "numpy"
        assert costmodel.choose_kernel_backend(
            edges=self.BIG, candidates=lambda: ("cjit", "numpy")
        ) == "cjit"
        assert costmodel.choose_kernel_backend(
            edges=self.BIG, candidates=lambda: ("numpy",)
        ) == "numpy"
