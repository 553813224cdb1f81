"""Lock-discipline lint for classes with ``threading`` locks.

The serving layer (PR 1) introduced shared mutable state guarded by
``with self._lock:`` blocks across the executor, metrics, and
batching.  The invariant this checker enforces is *consistency*: an
attribute that is ever mutated under one of the class's locks is part
of that lock's protected state, so every other mutation (error), every
read-modify-write (error), and every bare read (warning) of it must
also hold the lock.

``__init__`` is exempt — construction happens before the object is
shared, which is also why the guarded set is *learned* from the
post-construction methods rather than from ``__init__``'s wholesale
attribute initialization.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

from repro.analyze.astutils import (
    MUTATING_METHODS,
    SourceFile,
    call_name,
    iter_class_functions,
    self_attribute_name,
)
from repro.analyze.report import Finding

#: constructors whose result marks an attribute as a lock.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


def check_locks(context) -> List[Finding]:
    findings: List[Finding] = []
    for source in context.sources:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(_check_class(source, node))
    return findings


@dataclass(frozen=True)
class _Access:
    """One attribute touch: where, what, and how."""

    attr: str
    line: int
    kind: str  # "write" | "rmw" | "read"
    guarded: bool
    method: str


def _check_class(source: SourceFile, cls: ast.ClassDef) -> List[Finding]:
    lock_attrs = _lock_attributes(cls)
    if not lock_attrs:
        return []

    accesses: List[_Access] = []
    for method_name, func in iter_class_functions(cls):
        if method_name == "__init__":
            continue
        accesses.extend(_collect_accesses(func, method_name, lock_attrs))

    guarded: Set[str] = {
        access.attr
        for access in accesses
        if access.guarded and access.kind in ("write", "rmw")
    }
    if not guarded:
        return []

    findings = []
    for access in accesses:
        if access.guarded or access.attr not in guarded:
            continue
        if access.kind == "write":
            findings.append(Finding.make(
                "LOCK001", source.path, access.line,
                f"{cls.name}.{access.method}: attribute "
                f"`self.{access.attr}` is mutated without holding the "
                f"lock that guards it elsewhere",
            ))
        elif access.kind == "rmw":
            findings.append(Finding.make(
                "LOCK002", source.path, access.line,
                f"{cls.name}.{access.method}: read-modify-write of "
                f"lock-guarded attribute `self.{access.attr}` outside "
                f"the lock (lost-update race)",
            ))
        else:
            findings.append(Finding.make(
                "LOCK003", source.path, access.line,
                f"{cls.name}.{access.method}: reads lock-guarded "
                f"attribute `self.{access.attr}` without the lock",
            ))
    return findings


def _lock_attributes(cls: ast.ClassDef) -> Set[str]:
    """Attributes assigned a ``threading.Lock()``-style object."""
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        factory = call_name(node.value).rsplit(".", 1)[-1]
        if factory not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            attr = self_attribute_name(target)
            # `self._lock = Lock()` guards; a lock stored *inside* a
            # container (`self._building[key] = Lock()`) is a value,
            # not a guard attribute.
            if attr is not None and isinstance(target, ast.Attribute):
                locks.add(attr)
    return locks


def _collect_accesses(
    func: ast.AST, method: str, lock_attrs: Set[str]
) -> List[_Access]:
    accesses: List[_Access] = []
    for child in ast.iter_child_nodes(func):
        for node, guarded in _walk_with_guard(child, lock_attrs, False):
            accesses.extend(
                _Access(attr, getattr(node, "lineno", 0), kind, guarded, method)
                for attr, kind in _accesses_of(node)
            )
    return accesses


def _walk_with_guard(
    node: ast.AST, lock_attrs: Set[str], guarded: bool
) -> Iterator[Tuple[ast.AST, bool]]:
    """Yield ``node`` and its descendants with lock-held state.

    ``with self.<lock>:`` raises the guard for the body (including
    nested ``with`` statements — a lock acquired around a per-key
    build lock still guards the inner block).
    """
    if isinstance(node, ast.With):
        holds = guarded or any(
            self_attribute_name(item.context_expr) in lock_attrs
            for item in node.items
        )
        for item in node.items:
            yield from _walk_with_guard(item.context_expr, lock_attrs, guarded)
        for stmt in node.body:
            yield from _walk_with_guard(stmt, lock_attrs, holds)
        return
    yield node, guarded
    for child in ast.iter_child_nodes(node):
        yield from _walk_with_guard(child, lock_attrs, guarded)


def _accesses_of(node: ast.AST) -> List[Tuple[str, str]]:
    """(attr, kind) pairs contributed by one AST node (non-recursive)."""
    out: List[Tuple[str, str]] = []
    if isinstance(node, ast.Assign):
        for target in node.targets:
            attr = _written_attr(target)
            if attr is not None:
                out.append((attr, "write"))
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        attr = _written_attr(node.target)
        if attr is not None:
            out.append((attr, "write"))
    elif isinstance(node, ast.AugAssign):
        attr = _written_attr(node.target)
        if attr is not None:
            out.append((attr, "rmw"))
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            attr = self_attribute_name(target)
            if attr is not None:
                out.append((attr, "write"))
    elif isinstance(node, ast.Call):
        attr = _mutating_receiver(node)
        if attr is not None:
            out.append((attr, "write"))
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            out.append((node.attr, "read"))
    return out


def _written_attr(target: ast.AST) -> Optional[str]:
    """Self-attribute written by an assignment target, if any."""
    if isinstance(target, (ast.Attribute, ast.Subscript)):
        return self_attribute_name(target)
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            attr = _written_attr(element)
            if attr is not None:
                return attr
    return None


def _mutating_receiver(call: ast.Call) -> Optional[str]:
    """`self.X` when the call is `self.X....mutator(...)`."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
        return self_attribute_name(func.value)
    return None
