"""Rules for the threaded service tier (ROUTE001, LOCK004).

* every route handler's module maps typed errors through
  :func:`repro.service.api.protocol.error_response` (ROUTE001), so a
  failure reaches its client as a protocol error, not a dropped
  connection;
* :class:`ServiceMetrics` internals are mutated only by its own
  lock-guarded methods (LOCK004) — connection and dispatcher threads
  share them.

Typing questions are answered by the shared
:class:`repro.analyze.callgraph.CallGraph`.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analyze.astutils import MUTATING_METHODS, SourceFile, dotted_name
from repro.analyze.callgraph import CallGraph, FunctionInfo, iter_own_nodes
from repro.analyze.report import Finding

#: exception names (tails) that count as the service's typed taxonomy.
_TAXONOMY_NAMES = {"TigrError", "ServiceError", "BadRequest", "Exception"}

#: route-table names whose dict values register handlers.
_ROUTE_TABLE_NAMES = {"_routes", "routes", "ROUTES", "_ROUTES"}

#: classes whose internal state is lock-guarded (LOCK004): every
#: mutation must go through their own methods.
_GUARDED_CLASSES = {"ServiceMetrics"}


def check_concurrency(context) -> List[Finding]:
    """Run ROUTE001 and LOCK004 over the shared analysis context."""
    return [
        *_check_handler_error_mapping(context.sources),
        *_check_guarded_mutations(context.callgraph),
    ]


# ----------------------------------------------------------------------
# ROUTE001 — route handler without typed-error mapping
# ----------------------------------------------------------------------
def _module_has_error_mapping(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        names = _exception_names(node.type)
        if not names & _TAXONOMY_NAMES:
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and dotted_name(sub.func).rsplit(".", 1)[-1]
                == "error_response"
            ):
                return True
    return False


def _exception_names(node: Optional[ast.AST]) -> Set[str]:
    if node is None:
        return {"Exception"}  # bare except catches the taxonomy too
    if isinstance(node, ast.Tuple):
        names: Set[str] = set()
        for element in node.elts:
            names |= _exception_names(element)
        return names
    name = dotted_name(node)
    return {name.rsplit(".", 1)[-1]} if "?" not in name else set()


def _registered_handlers(tree: ast.Module) -> Set[str]:
    handlers: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or not isinstance(
            node.value, ast.Dict
        ):
            continue
        for target in node.targets:
            tail = (
                target.attr
                if isinstance(target, ast.Attribute)
                else target.id if isinstance(target, ast.Name) else None
            )
            if tail not in _ROUTE_TABLE_NAMES:
                continue
            for value in node.value.values:
                if isinstance(value, ast.Attribute):
                    handlers.add(value.attr)
                elif isinstance(value, ast.Name):
                    handlers.add(value.id)
    return handlers


def _check_handler_error_mapping(sources: List[SourceFile]) -> List[Finding]:
    findings: List[Finding] = []
    for source in sources:
        handlers = _registered_handlers(source.tree)
        if not handlers:
            continue
        if _module_has_error_mapping(source.tree):
            continue
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name in handlers
            ):
                findings.append(
                    Finding.make(
                        "ROUTE001", source.path, node.lineno,
                        f"route handler `{node.name}` is registered "
                        f"in a module with no typed-error mapping: add an "
                        f"`except (BadRequest, TigrError)` that returns "
                        f"`error_response(exc)` so failures reach clients "
                        f"as protocol errors, not dropped connections",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# LOCK004 — guarded-state mutation outside its class
# ----------------------------------------------------------------------
def _guarded_owner(
    expr: ast.AST, fn: FunctionInfo, graph: CallGraph
) -> Optional[str]:
    """Class tail if ``expr`` reaches into ServiceMetrics state."""
    node = expr
    while True:
        if isinstance(node, (ast.Name, ast.Attribute)):
            if not (isinstance(node, ast.Name) and node.id == "self"):
                token = (
                    graph.type_of(node, fn.scope)
                    if fn.scope is not None
                    else None
                )
                if token is not None:
                    tail = token.rsplit(".", 1)[-1]
                    if tail in _GUARDED_CLASSES:
                        return tail
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
            continue
        return None


def _mutated_objects(node: ast.AST) -> Iterator[ast.AST]:
    """Objects whose state a statement mutates (attr/item/owner)."""
    targets: List[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATING_METHODS
    ):
        yield node.func.value
        return
    for target in targets:
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            yield target.value


def _check_guarded_mutations(graph: CallGraph) -> List[Finding]:
    findings: List[Finding] = []
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        for node in iter_own_nodes(fn.node):
            for owner in _mutated_objects(node):
                tail = _guarded_owner(owner, fn, graph)
                if tail is None:
                    continue
                findings.append(
                    Finding.make(
                        "LOCK004", fn.path, node.lineno,
                        f"`{dotted_name(owner)}` ({tail}) state is "
                        f"mutated outside its lock-guarded methods; "
                        f"call the owning class's methods instead of "
                        f"reaching into its state",
                    )
                )
    return findings
