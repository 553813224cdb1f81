"""The warp model observes a run through the scheduler it attaches to.

``GPUSimulator.attach(target)`` wraps a scheduler: the engine announces
each numpy-body launch (``Scheduler.launched``) and the simulator costs
it.  Every route must announce exactly one launch per superstep, and
an attached scheduler has no walk, so a compiled step declines (the
run stays on the synchronous numpy bodies the paper's numbers assume).
"""

import numpy as np
import pytest

from repro.algorithms import bc, pagerank, sssp
from repro.algorithms.bc import bc_lanes
from repro.algorithms.programs import BFSProgram, SSSPProgram
from repro.core.virtual import virtual_transform
from repro.engine import kernels
from repro.engine.adaptive import AdaptiveOptions, run_adaptive
from repro.engine.pull import run_pull
from repro.engine.push import EngineOptions, run_push, run_push_lanes
from repro.engine.schedule import NodeScheduler, Scheduler, VirtualScheduler
from repro.gpu.simulator import AttachedScheduler, GPUSimulator

BACKENDS = ["numpy", *kernels.jit_backends()]
SOURCES = [0, 3, 17]


@pytest.fixture(params=["node", "virtual+"])
def scheduler(request, powerlaw_graph):
    if request.param == "node":
        return NodeScheduler(powerlaw_graph)
    return VirtualScheduler(virtual_transform(powerlaw_graph, 4, coalesced=True))


def test_attach_resolves_any_target_and_hides_the_walk(powerlaw_graph):
    sim = GPUSimulator()
    for target in (powerlaw_graph, virtual_transform(powerlaw_graph, 4),
                   NodeScheduler(powerlaw_graph)):
        attached = sim.attach(target)
        assert isinstance(attached, AttachedScheduler)
        assert isinstance(attached, Scheduler)
        assert attached.graph is powerlaw_graph
        assert not attached.walkable
    active = np.array([0, 5], dtype=np.int64)
    inner = NodeScheduler(powerlaw_graph)
    attached = sim.attach(inner)
    assert np.array_equal(attached.all_nodes(), inner.all_nodes())
    batch = attached.batch(active)
    assert np.array_equal(batch.counts, inner.batch(active).counts)
    assert sim.metrics.num_iterations == 0  # batch() alone costs nothing
    attached.launched(batch)
    assert sim.metrics.num_iterations == 1
    assert sim.metrics.total_edges_processed == batch.total_edges


@pytest.mark.parametrize("backend", BACKENDS)
class TestOneLaunchPerSuperstep:
    def test_run_push(self, scheduler, backend):
        options = EngineOptions(kernel_backend=backend)
        sim = GPUSimulator()
        result = run_push(sim.attach(scheduler), SSSPProgram(), SOURCES[0],
                          options=options)
        assert sim.metrics.num_iterations == result.num_iterations
        assert sim.metrics.total_edges_processed == result.edges_processed
        plain = run_push(scheduler, SSSPProgram(), SOURCES[0],
                         options=EngineOptions(kernel_backend="numpy"))
        assert result.values.tobytes() == plain.values.tobytes()
        assert result.num_iterations == plain.num_iterations

    @pytest.mark.parametrize("weighted", [True, False], ids=["float", "hop"])
    def test_run_push_lanes(self, scheduler, backend, weighted):
        options = EngineOptions(kernel_backend=backend)
        target = scheduler if weighted else NodeScheduler(
            scheduler.graph.without_weights()
        )
        program = SSSPProgram() if weighted else BFSProgram()
        sim = GPUSimulator()
        result = run_push_lanes(sim.attach(target), program, SOURCES,
                                options=options)
        assert sim.metrics.num_iterations == result.num_iterations
        assert sim.metrics.total_edges_processed == result.edges_processed

    def test_bc(self, scheduler, backend):
        options = EngineOptions(kernel_backend=backend)
        sim = GPUSimulator()
        result = bc(sim.attach(scheduler), SOURCES[0], options=options)
        assert sim.metrics.num_iterations == result.num_iterations
        assert sim.metrics.total_edges_processed == result.edges_processed

    def test_bc_lanes(self, scheduler, backend):
        options = EngineOptions(kernel_backend=backend)
        sim = GPUSimulator()
        bc_lanes(sim.attach(scheduler), SOURCES, options=options)
        # the union frontier is as deep as the deepest lane
        deepest = max(bc(scheduler, s, options=options).num_iterations
                      for s in SOURCES)
        assert sim.metrics.num_iterations == deepest

    def test_pagerank_records_its_cached_launch_every_iteration(
        self, scheduler, backend
    ):
        options = EngineOptions(kernel_backend=backend)
        sim = GPUSimulator()
        result = pagerank(sim.attach(scheduler), max_iterations=7,
                          options=options)
        assert sim.metrics.num_iterations == result.num_iterations == 7
        per_iteration = {it.edges_processed for it in sim.metrics.iterations}
        assert per_iteration == {scheduler.graph.num_edges}

    def test_run_pull(self, powerlaw_graph, hub_source, backend):
        options = EngineOptions(kernel_backend=backend)
        sim = GPUSimulator()
        result = run_pull(sim.attach(powerlaw_graph.reverse()), SSSPProgram(),
                          powerlaw_graph, hub_source, options=options)
        assert sim.metrics.num_iterations == result.num_iterations
        assert sim.metrics.total_edges_processed == result.edges_processed

    def test_both_halves_of_run_adaptive(self, powerlaw_graph, hub_source,
                                         backend):
        reverse = powerlaw_graph.reverse()
        push_sim, pull_sim = GPUSimulator(), GPUSimulator()
        result = run_adaptive(
            powerlaw_graph, SSSPProgram(), hub_source, reverse=reverse,
            options=AdaptiveOptions(kernel_backend=backend),
            push_scheduler=push_sim.attach(powerlaw_graph),
            pull_scheduler=pull_sim.attach(reverse),
        )
        assert result.push_iterations > 0 and result.pull_iterations > 0
        assert push_sim.metrics.num_iterations == result.push_iterations
        assert pull_sim.metrics.num_iterations == result.pull_iterations
        assert (push_sim.metrics.total_edges_processed
                + pull_sim.metrics.total_edges_processed
                == result.edges_processed)


@pytest.mark.parametrize("backend", kernels.jit_backends())
def test_a_compiled_step_declines_under_attachment(scheduler, backend):
    jit = kernels.get_backend(backend)
    options = EngineOptions(kernel_backend=backend)
    hop = NodeScheduler(scheduler.graph.without_weights())
    routes = [
        lambda on: run_push(on(scheduler), SSSPProgram(), SOURCES[0],
                            options=options),
        lambda on: run_push_lanes(on(scheduler), SSSPProgram(), SOURCES,
                                  options=options),
        lambda on: run_push_lanes(on(hop), BFSProgram(), SOURCES,
                                  options=options),
        lambda on: bc(on(scheduler), SOURCES[0], options=options),
        lambda on: pagerank(on(scheduler), max_iterations=5, options=options),
        lambda on: sssp(on(scheduler), SOURCES[0], options=options),
    ]
    for route in routes:
        engaged, declined = jit.engaged, jit.declined
        route(lambda target: GPUSimulator().attach(target))
        assert jit.engaged == engaged
        assert jit.declined > declined
        # the same route unattached does engage: the gate is the walk
        route(lambda target: target)
        assert jit.engaged > engaged
