"""The declared layer map (LAYER001-003).  Serving amortises Tigr's
transforms (§6.5); the paper's warp model, baselines and pull engines
stay out of its boot.  Exemptions live in this table, never in a pragma."""

from __future__ import annotations

import ast
import re
from collections import namedtuple
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analyze.astutils import module_name_for
from repro.analyze.report import Finding

#: module prefix -> layer, longest prefix wins; the bare ``repro`` names
#: the package ``__init__`` alone, so a new top-level module is undeclared.
LAYERS: Dict[str, str] = {
    **dict.fromkeys(("repro", "repro.errors", "repro.indexing", "repro.core", "repro.graph",
                     "repro.engine", "repro.algorithms", "repro.multigpu", "repro.service"),
                    "serving"),
    **dict.fromkeys(("repro.gpu", "repro.baselines", "repro.bench", "repro.multigpu.engine",
                     "repro.multigpu.config", "repro.engine.pull", "repro.engine.adaptive",
                     "repro.core.dynamic", "repro.algorithms.hardwired"), "paper"),
    "repro.analyze": "tooling", "repro.__main__": "tooling",
}

#: (importer, imported) edges no import adds, at any depth; a side is a
#: layer or a module prefix.
FORBIDDEN = (("serving", "paper"), ("repro.engine", "repro.gpu"),
             ("repro.algorithms", "repro.gpu"))

#: (importer, imported) prefixes exempt from FORBIDDEN; an importer may
#: name a function, so each exemption is one lazy accessor.
ALLOWED = (("repro.run", "repro.gpu.simulator"),
           ("repro.multigpu.__getattr__", "repro.multigpu.engine"),
           ("repro.multigpu.__getattr__", "repro.multigpu.config"),
           ("repro.algorithms.hardwired", "repro.gpu"))

#: a ``grep -E`` pattern matched per line (per parameter name if ``parameter``) in
#: modules under ``scope`` bar ``exclude``; ``docs`` adds docs/*.md (check_doc_links.py).
Retired = namedtuple("Retired", "pattern flags scope exclude docs parameter",
                     defaults=(0, ("repro",), (), False, False))

RETIRED = (
    # one counter table; no dead probe or start-method knob
    *(Retired(p, docs=True) for p in (
        r"def [a-z_]+_observed", "QueryRecord", "pull_per_edge_s", "MP_CONTEXT")),
    # one service, one fallback switch (grep -w: `shard_fallbacks` stays)
    *(Retired(rf"\b{w}\b", docs=True) for w in (
        "process_fallback", "shard_fallback", "_make_queue", "_run_batch_single",
        "_ShardRouteMiss")),
    # a kernel is a C unit and a numpy body: no numba, no Python copy
    Retired("numba", re.I), Retired(r"def _[a-z_]+_kernel\(", re.I),
    # one hook per kernel: no hand ctypes table, no plug-in registry
    *(Retired(p) for p in ("_C_FUNCTIONS", "KERNEL_BACKEND_EXPECTATIONS", "register_backend")),
    # a process worker is a local shard host: one frame, one host loop
    *(Retired(p, docs=True) for p in ("_ProcessBackend", "ProcessPoolExecutor", "pickl", "base64")),
    *(Retired(rf"\b{w}\b") for w in (
        "BrokenProcessPool", "BatchReply", "worker_init", "worker_ping", "_WORKER_[A-Z]+",
        "run_batch_spec", "_encode_array", "_decode_array", "_to_wire", "_from_wire")),
    # one set of reference rates: no on-disk profile, no calibrate command
    *(Retired(rf"\b{w}\b", docs=True) for w in (
        "CalibrationProfile", "BUILTIN_PROFILE", "run_overhead_s", "jit_min_edges",
        r"calibration\.json", "repro calibrate")),
    *(Retired(rf"\b{w}\b") for w in (
        "PROFILE_VERSION", "PROFILE_FILENAME", "profile_path", "(save|load|get|set)_profile",
        "run_calibration", "calibrate_and_save", "_best_of", "_micro_medges",
        "crossover_sources", "cmd_calibrate")),
    Retired(r"\b(to|from)_dict\b", scope=("repro.engine.costmodel",)),
    # PageRank gathers by destination: no flat launch, no scatter kernel
    Retired(r"rank_launch|\b(try_)?rank_step\b|\bFLAT_LIMIT\b"),
    # one walk order, each CSR row in order: no family walk, no ADD superstep
    *(Retired(rf"\b{w}\b", docs=True) for w in (
        "WalkLayout", "family_starts", "walk_layout", "REDUCE_ADD")),
    # a batch runs as run_sources_on_target + fan_out_per_request, no wrapper
    Retired(r"\brun_batch_on_target\b", docs=True),
    # serving builds nothing: no pre-warm pass, warm-plan file or forecaster
    *(Retired(rf"\b{w}\b", docs=True) for w in (
        "WarmPlan", "WarmEntry", "WARM_PLAN_VERSION", "forecast_traces?", "(save|load)_plan",
        "resolve_plan_graphs", "repro forecast", "prewarm[-_]top", "Prewarmer",
        "note_prewarm", "prewarm_(built|hits)", "prewarm-(from-trace|wait)", "prepared_key")),
    # a shard is a slice and a superstep: no shard catalog, overlay or step rows
    *(Retired(rf"\b{w}\b", docs=True) for w in (
        "SHARD_CATALOG_BYTES", "_scheduler_for", "cache_origins", "per_shard_steps")),
    Retired(r"shard(\{i\}|[0-9]+)_steps", docs=True),
    # virtual[+] plan `none`: the serving tier builds, spills and prices no overlay
    *(Retired(rf"\b{w}\b", docs=True) for w in (
        "_rebuild_virtual", "VIRTUAL_SECONDS_PER_(NODE|EDGE)")),
    Retired(r"\b(virtual_transform|VirtualGraph)\b", scope=("repro.service",)),
    # udt plans `none` too: no UDT artifact, and no deadline degrades a plan
    *(Retired(rf"\b{w}\b", docs=True) for w in (
        "estimate_build_seconds", "degrade_for_deadline", "UDT_SECONDS_PER_EDGE")),
    Retired(r"\b(udt_transform|TransformResult|get_or_build(_with_origin)?|for_transform)\b",
            scope=("repro.service",)),
    # serving caches no artifact: no weight-stripped view in the catalog
    Retired(r"\bdir-unw\b", docs=True),
    *(Retired(rf"\b{w}\b") for w in ("reshapes", "for_prepared")),
    # a transform name stops at admission: no batch planner, kind table or stage
    *(Retired(rf"\b{w}\b", docs=True) for w in ("plan_batch", "TRANSFORM_KINDS", "_KIND_CODES")),
    Retired(r"\btransform_s\b", scope=("repro.service",)),
    # the front door admits in one step: no middleware onion, no gather helper
    *(Retired(rf"\b{w}\b", docs=True, scope=("repro.service",)) for w in (
        "Middleware", "RequestShaper", "TokenAuth", "RateLimit", "gather_results")),
    # one thread serves a connection end to end: no asyncio bridge, no awaitable ticket
    *(Retired(rf"\b{w}\b", docs=True) for w in (
        "submit_batch_async", "as_resolved", "aresult", r"api\.bridge")),
    # the warp model attaches to a scheduler: no `simulator` parameter
    Retired("^simulator$", scope=("repro.engine", "repro.algorithms"),
            exclude=("repro.algorithms.hardwired",), parameter=True),
)

#: line caps: a tuple of roots caps their module-level import closure
#: (parent packages included), a module name caps that file alone.
BUDGETS: Dict[object, int] = {
    ("repro.service", "repro.service.api"): 13_546,
    "repro.service.metrics": 200,
}


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def layer_of(module: str) -> Optional[str]:
    keys = [k for k in LAYERS if module == k or (k != "repro" and _under(module, k))]
    return LAYERS[max(keys, key=len)] if keys else None


def imports(source, module: str) -> Iterator[Tuple[int, str, str, bool]]:
    """``(line, name, importer, lazy)`` per import outside ``if TYPE_CHECKING:``;
    the importer is ``module`` or its enclosing function (``lazy``)."""
    parts = module.split(".")[:None if source.path.endswith("__init__.py") else -1]

    def walk(node, owner, lazy):
        children = ast.iter_child_nodes(node)
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            children = node.orelse
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner, lazy = f"{owner}.{node.name}", lazy or not isinstance(node, ast.ClassDef)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            base = ""
            if isinstance(node, ast.ImportFrom):
                relative = parts[:len(parts) + 1 - node.level] if node.level else []
                base = ".".join(relative + [node.module or ""]).strip(".") + "."
            yield from ((node.lineno, base + a.name, owner, lazy) for a in node.names)
        for child in children:
            yield from walk(child, owner, lazy)

    return walk(source.tree, module, False)


def modules_of(sources) -> Dict[str, object]:
    return {n: s for s in sources if _under(n := module_name_for(s.path), "repro")}


def closure(modules: Dict[str, object], roots) -> Set[str]:
    """The modules importing ``roots`` loads: module-level imports only."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen and name in modules:
            seen.add(name)
            parts = name.split(".")
            todo += [".".join(parts[:i]) for i in range(1, len(parts))]
            todo += [t if t in modules else t.rpartition(".")[0]
                     for _, t, _, lazy in imports(modules[name], name) if not lazy]
    return seen


def check_layers(context) -> List[Finding]:
    modules, found = modules_of(context.sources), []

    def side(name: str, layer_or_prefix: str) -> bool:
        return layer_or_prefix == layer_of(name) or _under(name, layer_or_prefix)

    for name, source in sorted(modules.items()):
        params = [(a.lineno, a.arg) for a in ast.walk(source.tree) if isinstance(a, ast.arg)]
        if layer_of(name) is None:
            found.append(("LAYER001", name, 1, f"module {name} matches no prefix in LAYERS"))
        for line, target, owner, _ in imports(source, name):
            edge = next((e for e in FORBIDDEN if side(name, e[0]) and side(target, e[1])), None)
            if edge and not any(_under(owner, a) and _under(target, b) for a, b in ALLOWED):
                found.append(("LAYER001", name, line,
                              f"{owner} imports {target}: {edge[0]} -> {edge[1]} is FORBIDDEN"))
        for entry in RETIRED:
            if name != __name__ and any(_under(name, s) for s in entry.scope) and not any(
                    _under(name, s) for s in entry.exclude):
                regex = re.compile(entry.pattern, entry.flags)
                hits = params if entry.parameter else enumerate(source.lines, 1)
                found += [("LAYER002", name, number, f"/{entry.pattern}/ is RETIRED")
                          for number, text in hits if regex.search(text)]
    for key, budget in BUDGETS.items():
        roots = key if isinstance(key, tuple) else (key,)
        if all(root in modules for root in roots):
            counted = closure(modules, roots) if isinstance(key, tuple) else roots
            lines = sum(modules[m].text.count("\n") for m in counted)
            if lines > budget:
                found.append(("LAYER003", roots[0], 1, f"{' + '.join(roots)} is {lines} "
                              f"lines, over its {budget} in BUDGETS"))
    return [Finding.make(rule, modules[name].path, line, f"{message} (layers.py)")
            for rule, name, line, message in found]
