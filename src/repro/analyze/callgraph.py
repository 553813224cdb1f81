"""Project-wide call graph over the analyzer's parsed sources.

Built once per run (lazily, on the shared :class:`AnalysisContext`)
and consumed by every rule pass that needs more than single-function
syntax — today the concurrency pack, tomorrow anything that reasons
about reachability.

The graph is purely syntactic, like the rest of :mod:`repro.analyze`:
nothing is imported from the scanned files.  Resolution is therefore
best-effort and deliberately conservative — an edge is recorded only
when the target is unambiguous:

* module-level functions and classes, resolved through each module's
  import table (including ``import x as y`` aliases and relative
  imports);
* ``self.method()`` through the enclosing class (and scanned bases);
* attribute and parameter *types*: ``self._queue = queue.Queue(...)``
  or ``service: AnalyticsService`` let later calls through those names
  resolve to methods (internal) or to normalized external targets
  such as ``queue.Queue.put`` — string annotations and
  ``Optional[...]`` wrappers are unwrapped;
* nested ``def``s, with lexical scoping for closed-over bindings.

Anything else — ``getattr``, callables held in containers, lambda
bodies (deferred execution) — produces *no* edge, so downstream rules
err toward silence rather than noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analyze.astutils import SourceFile, dotted_name, module_name_for

#: typing wrappers whose subscript is transparent for type inference.
_TRANSPARENT_WRAPPERS = {"Optional", "Final", "ClassVar", "Annotated"}

#: subscripted typing containers that hide their element type.
_OPAQUE_CONTAINERS = {
    "List", "Dict", "Set", "FrozenSet", "Tuple", "Sequence", "Iterable",
    "Iterator", "Mapping", "MutableMapping", "Callable", "Union",
    "Awaitable", "Coroutine", "Generator", "AsyncIterator", "Type",
    "list", "dict", "set", "frozenset", "tuple", "type",
}


@dataclass
class CallSite:
    """One call expression inside a function body."""

    name: str                      #: dotted target as written in source
    line: int
    col: int
    node: ast.Call
    resolved: Optional[str] = None  #: qualname of a scanned function
    external: Optional[str] = None  #: normalized external target

    @property
    def target(self) -> Optional[str]:
        return self.resolved or self.external


@dataclass
class FunctionInfo:
    """One scanned ``def`` / ``async def`` (module, method, or nested)."""

    qualname: str
    module: str
    name: str
    path: str
    node: ast.AST
    line: int
    cls: Optional[str] = None       #: owning class qualname
    parent: Optional[str] = None    #: enclosing function qualname
    calls: List[CallSite] = field(default_factory=list)
    scope: Optional["_Scope"] = None


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    #: ``self.X`` attribute name -> type token (class qualname for
    #: scanned classes, dotted constructor name for external ones).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    path: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, str] = field(default_factory=dict)


class _Scope:
    """Lexical scope chain: module -> (class) -> function -> nested."""

    def __init__(
        self,
        module: ModuleInfo,
        cls: Optional[str] = None,
        parent: Optional["_Scope"] = None,
    ) -> None:
        self.module = module
        self.cls = cls
        self.parent = parent
        self.types: Dict[str, str] = {}       # name -> type token
        self.local_funcs: Dict[str, str] = {}  # nested def -> qualname

    def lookup_type(self, name: str) -> Optional[str]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.types:
                return scope.types[name]
            scope = scope.parent
        return None

    def lookup_func(self, name: str) -> Optional[str]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.local_funcs:
                return scope.local_funcs[name]
            scope = scope.parent
        return None


def iter_own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body, *excluding* nested def/lambda bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class CallGraph:
    """Resolved intra-package call edges over a set of sources."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self._module_of_path: Dict[str, ModuleInfo] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def build(cls, sources: Sequence[SourceFile]) -> "CallGraph":
        graph = cls()
        entries: List[Tuple[SourceFile, ModuleInfo]] = []
        for source in sources:
            module = graph._register_module(source)
            entries.append((source, module))
        for source, module in entries:
            graph._collect_attr_types(module)
        for source, module in entries:
            graph._resolve_module(source, module)
        return graph

    def _register_module(self, source: SourceFile) -> ModuleInfo:
        name = module_name_for(source.path)
        if name in self.modules:  # stem collision between loose files
            name = f"{name}@{len(self.modules)}"
        module = ModuleInfo(name=name, path=source.path)
        self.modules[name] = module
        self._module_of_path[source.path] = module
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = name.split(".")
                    anchor = parts[: -node.level] if node.level <= len(parts) else []
                    base = ".".join(anchor + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(node, name, module, source, cls=None,
                                        parent=None)
            elif isinstance(node, ast.ClassDef):
                self._register_class(node, module, source)
        return module

    def _register_class(
        self, node: ast.ClassDef, module: ModuleInfo, source: SourceFile
    ) -> None:
        qualname = f"{module.name}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            module=module.name,
            name=node.name,
            node=node,
            bases=[dotted_name(b) for b in node.bases],
        )
        self.classes[qualname] = info
        module.classes[node.name] = qualname
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._register_function(
                    child, f"{qualname}", module, source, cls=qualname,
                    parent=None,
                )
                info.methods[child.name] = fn.qualname

    def _register_function(
        self,
        node: ast.AST,
        prefix: str,
        module: ModuleInfo,
        source: SourceFile,
        cls: Optional[str],
        parent: Optional[str],
    ) -> FunctionInfo:
        qualname = f"{prefix}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=module.name,
            name=node.name,
            path=source.path,
            node=node,
            line=node.lineno,
            cls=cls,
            parent=parent,
        )
        self.functions[qualname] = info
        if parent is None and cls is None:
            module.functions[node.name] = qualname
        for stmt in node.body:
            self._register_nested(stmt, qualname, module, source, cls)
        return info

    def _register_nested(
        self,
        stmt: ast.AST,
        prefix: str,
        module: ModuleInfo,
        source: SourceFile,
        cls: Optional[str],
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested_prefix = f"{prefix}.<locals>"
            qualname = f"{nested_prefix}.{stmt.name}"
            if qualname not in self.functions:
                info = FunctionInfo(
                    qualname=qualname,
                    module=module.name,
                    name=stmt.name,
                    path=source.path,
                    node=stmt,
                    line=stmt.lineno,
                    cls=cls,
                    parent=prefix,
                )
                self.functions[qualname] = info
            for sub in stmt.body:
                self._register_nested(sub, qualname, module, source, cls)
            return
        for child in ast.iter_child_nodes(stmt):
            self._register_nested(child, prefix, module, source, cls)

    # -- type tokens ----------------------------------------------------
    def _expand(self, module: ModuleInfo, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        target = module.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def annotation_token(
        self, node: Optional[ast.AST], module: ModuleInfo
    ) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value.split("[")[0].strip().strip("'\"")
            if not text or not all(
                part.isidentifier() for part in text.split(".")
            ):
                return None
            return self._finish_annotation(text, module)
        if isinstance(node, ast.Subscript):
            head = dotted_name(node.value).rsplit(".", 1)[-1]
            if head in _TRANSPARENT_WRAPPERS:
                inner = node.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                return self.annotation_token(inner, module)
            if head in _OPAQUE_CONTAINERS:
                return None
            return self.annotation_token(node.value, module)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left = self.annotation_token(node.left, module)
            if left is not None:
                return left
            return self.annotation_token(node.right, module)
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = dotted_name(node)
            if "?" in dotted:
                return None
            return self._finish_annotation(dotted, module)
        return None

    def _finish_annotation(
        self, dotted: str, module: ModuleInfo
    ) -> Optional[str]:
        tail = dotted.rsplit(".", 1)[-1]
        if tail in _TRANSPARENT_WRAPPERS or tail in ("Any", "None", "object"):
            return None
        if tail in _OPAQUE_CONTAINERS:
            return None
        if dotted in module.classes:
            return module.classes[dotted]
        expanded = self._expand(module, dotted)
        if expanded in self.classes:
            return expanded
        # an imported-but-unscanned class keeps its qualified name as an
        # external token (``queue.Queue``, ``threading.Lock``)
        return expanded

    def type_of(self, node: ast.AST, scope: _Scope) -> Optional[str]:
        """Best-effort type token of an expression in ``scope``."""
        if isinstance(node, ast.Name):
            if node.id == "self" and scope.cls:
                return scope.cls
            return scope.lookup_type(node.id)
        if isinstance(node, ast.Attribute):
            base = self.type_of(node.value, scope)
            if base and base in self.classes:
                owner = self._class_with_attr(base, node.attr)
                if owner is not None:
                    return owner.attr_types[node.attr]
            return None
        if isinstance(node, ast.Call):
            return self._call_type_token(node, scope)
        return None

    def _class_with_attr(
        self, cls_qual: str, attr: str
    ) -> Optional[ClassInfo]:
        for info in self._mro(cls_qual):
            if attr in info.attr_types:
                return info
        return None

    def _mro(self, cls_qual: str) -> Iterator[ClassInfo]:
        seen = set()
        stack = [cls_qual]
        while stack:
            qual = stack.pop(0)
            if qual in seen or qual not in self.classes:
                continue
            seen.add(qual)
            info = self.classes[qual]
            yield info
            module = self.modules.get(info.module)
            for base in info.bases:
                if module is None:
                    continue
                expanded = self._expand(module, base)
                if expanded in self.classes:
                    stack.append(expanded)
                elif base in module.classes:
                    stack.append(module.classes[base])

    def _call_type_token(
        self, call: ast.Call, scope: _Scope
    ) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            module = scope.module
            if name in module.classes:
                return module.classes[name]
            expanded = module.imports.get(name)
            if expanded is not None:
                if expanded in self.classes:
                    return expanded
                if expanded.rsplit(".", 1)[-1] not in _OPAQUE_CONTAINERS:
                    return expanded
            return None
        if isinstance(func, ast.Attribute):
            dotted = dotted_name(func)
            head = dotted.split(".")[0]
            if (
                "?" not in dotted
                and "(" not in dotted
                and head in scope.module.imports
            ):
                expanded = self._expand(scope.module, dotted)
                if expanded in self.classes:
                    return expanded
                return expanded
            receiver = self.type_of(func.value, scope)
            if receiver is not None and receiver not in self.classes:
                return f"{receiver}.{func.attr}"
        return None

    # -- resolution -----------------------------------------------------
    def _collect_attr_types(self, module: ModuleInfo) -> None:
        for cls_name, cls_qual in module.classes.items():
            info = self.classes[cls_qual]
            scope = _Scope(module, cls=cls_qual)
            for method_qual in info.methods.values():
                method = self.functions[method_qual]
                params = self._param_tokens(method.node, module)
                for node in iter_own_nodes(method.node):
                    target: Optional[ast.AST] = None
                    value: Optional[ast.AST] = None
                    annotation: Optional[ast.AST] = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                        annotation = node.annotation
                    if (
                        not isinstance(target, ast.Attribute)
                        or not isinstance(target.value, ast.Name)
                        or target.value.id != "self"
                    ):
                        continue
                    attr = target.attr
                    if attr in info.attr_types:
                        continue
                    token = self.annotation_token(annotation, module)
                    if token is None and isinstance(value, ast.Call):
                        token = self._call_type_token(value, scope)
                    if token is None and isinstance(value, ast.Name):
                        token = params.get(value.id)
                    if token is not None:
                        info.attr_types[attr] = token

    def _param_tokens(
        self, func: ast.AST, module: ModuleInfo
    ) -> Dict[str, str]:
        tokens: Dict[str, str] = {}
        args = func.args
        for arg in (
            list(getattr(args, "posonlyargs", []))
            + list(args.args)
            + list(args.kwonlyargs)
        ):
            token = self.annotation_token(arg.annotation, module)
            if token is not None:
                tokens[arg.arg] = token
        return tokens

    def _resolve_module(
        self, source: SourceFile, module: ModuleInfo
    ) -> None:
        module_scope = _Scope(module)
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}.{node.name}"
                self._resolve_function(qualname, module_scope)
            elif isinstance(node, ast.ClassDef):
                cls_qual = module.classes.get(node.name)
                if cls_qual is None:
                    continue
                cls_scope = _Scope(module, cls=cls_qual, parent=module_scope)
                for method_qual in self.classes[cls_qual].methods.values():
                    self._resolve_function(method_qual, cls_scope)

    def _resolve_function(self, qualname: str, parent_scope: _Scope) -> None:
        info = self.functions.get(qualname)
        if info is None:
            return
        scope = _Scope(parent_scope.module, cls=info.cls, parent=parent_scope)
        info.scope = scope
        scope.types.update(self._param_tokens(info.node, scope.module))

        nested: List[ast.AST] = []
        for stmt in info.node.body:
            for child in ast.walk(stmt):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner = self._nearest_registered(qualname, child)
                    if owner == qualname:
                        nested.append(child)
        for child in nested:
            scope.local_funcs[child.name] = (
                f"{qualname}.<locals>.{child.name}"
            )

        self._collect_bindings(info, scope)
        self._collect_calls(info, scope)
        for child in nested:
            self._resolve_function(
                f"{qualname}.<locals>.{child.name}", scope
            )

    def _nearest_registered(self, qualname: str, node: ast.AST) -> str:
        # a def directly in this function's body belongs to it; defs
        # nested deeper belong to an inner function and are resolved in
        # that function's pass
        direct = f"{qualname}.<locals>.{getattr(node, 'name', '')}"
        if direct in self.functions:
            owner = self.functions[direct]
            if owner.parent == qualname:
                return qualname
        return ""

    def _collect_bindings(self, info: FunctionInfo, scope: _Scope) -> None:
        for node in iter_own_nodes(info.node):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            annotation: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                annotation = node.annotation
            elif isinstance(node, ast.withitem) and node.optional_vars:
                target, value = node.optional_vars, node.context_expr
            if not isinstance(target, ast.Name):
                continue
            token = self.annotation_token(annotation, scope.module)
            if token is None and value is not None:
                token = self.type_of(value, scope)
            if token is not None:
                scope.types[target.id] = token

    def _collect_calls(self, info: FunctionInfo, scope: _Scope) -> None:
        for node in iter_own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved, external = self._resolve_call(node, scope)
            info.calls.append(
                CallSite(
                    name=dotted_name(node.func),
                    line=node.lineno,
                    col=node.col_offset,
                    node=node,
                    resolved=resolved,
                    external=external,
                )
            )
        info.calls.sort(key=lambda site: (site.line, site.col))

    def _lookup_qualified(self, qualified: str) -> Optional[str]:
        if qualified in self.functions:
            return qualified
        prefix, _, method = qualified.rpartition(".")
        if prefix in self.classes:
            return self._lookup_method(prefix, method)
        return None

    def _lookup_method(self, cls_qual: str, name: str) -> Optional[str]:
        for info in self._mro(cls_qual):
            if name in info.methods:
                return info.methods[name]
        return None

    def _resolve_call(
        self, call: ast.Call, scope: _Scope
    ) -> Tuple[Optional[str], Optional[str]]:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            local = scope.lookup_func(name)
            if local is not None:
                return local, None
            module = scope.module
            if name in module.functions:
                return module.functions[name], None
            if name in module.classes:
                return self._lookup_method(module.classes[name], "__init__"), None
            expanded = module.imports.get(name)
            if expanded is not None:
                internal = self._lookup_qualified(expanded)
                if internal is not None:
                    return internal, None
                if expanded in self.classes:
                    return self._lookup_method(expanded, "__init__"), None
                return None, expanded
            if scope.lookup_type(name) is not None:
                return None, None  # calling a typed local value
            return None, name  # builtin or unknown bare name
        if isinstance(func, ast.Attribute):
            dotted = dotted_name(func)
            head = dotted.split(".")[0]
            if (
                "?" not in dotted
                and "(" not in dotted
                and head in scope.module.imports
                and scope.lookup_type(head) is None
            ):
                expanded = self._expand(scope.module, dotted)
                internal = self._lookup_qualified(expanded)
                if internal is not None:
                    return internal, None
                prefix = expanded.rsplit(".", 1)[0]
                if prefix in self.classes:
                    return None, None  # unknown method on a scanned class
                return None, expanded
            receiver = self.type_of(func.value, scope)
            if receiver is not None:
                if receiver in self.classes:
                    method = self._lookup_method(receiver, func.attr)
                    if method is not None:
                        return method, None
                    return None, None
                return None, f"{receiver}.{func.attr}"
        return None, None
