"""Project call-graph builder: the base layer of interprocedural checks.

Builds a static call graph over a set of parsed files (the same
:class:`~repro.check.engine.FileContext` objects the lint engine uses).
Nodes are *functions* — module-level defs, methods, nested defs, plus a
synthetic ``<module>`` node per module for import-time calls.  Edges are
*call sites*, each with the file/line of the call and a kind:

``direct``
    A call resolved to a project function: plain names, imported names
    (through any alias, including lazy function-level imports and
    one-hop re-exports through package ``__init__`` modules), and
    constructor calls (resolved to ``Class.__init__`` when defined).
``method``
    A method call resolved through lightweight receiver typing:
    ``self.m()``, ``self.attr.m()`` where ``attr`` was assigned a
    project class instance in any method, and ``x.m()`` where ``x``
    was bound to a project-class construction in the same function.
    Single-inheritance MRO within the project is honoured.
``external``
    A call whose target lives outside the scanned tree, kept with its
    dotted origin (``time.sleep``, ``subprocess.run``, builtin
    ``open``) — these are the *sinks* the analyzers match on.
``dynamic``
    An attribute call whose receiver could not be typed; recorded as
    ``<dyn>.name`` so name-keyed sink matching stays possible.
``executor`` / ``spawn``
    A function *reference* handed to ``loop.run_in_executor`` /
    ``executor.submit`` / a ``Thread``/``Process`` ``target=``.  The
    callee runs, but *not* in the caller's execution context — the
    async-reachability analyzer deliberately does not traverse these.
``registry``
    A declared dynamic-dispatch edge from the facts table
    (:data:`repro.check.facts.DISPATCH_EDGES`): table-driven dispatch
    (the ordering registry, pool worker entry) that no static resolver
    can see.

Bodies of nested ``def``\\ s get their own nodes; ``lambda`` bodies are
skipped entirely (a lambda handed to ``run_in_executor`` must not leak
its calls into the enclosing coroutine).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.check.astutil import ImportMap, collect_imports, dotted_name
from repro.check.engine import FileContext

__all__ = [
    "CallNode",
    "CallEdge",
    "CallGraph",
    "build_callgraph",
]

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: callee prefix for attribute calls with an untyped receiver
DYNAMIC_PREFIX = "<dyn>"

#: methods that hand a function reference to another execution context
_EXECUTOR_METHODS = {"run_in_executor": 1, "submit": 0, "call_soon_threadsafe": 0}

#: constructors whose ``target=`` keyword is an entry point elsewhere
_SPAWN_CTORS = {"threading.Thread", "multiprocessing.Process"}


@dataclass(frozen=True)
class CallNode:
    """One function (or module body) in the graph."""

    qualname: str
    module: str
    path: str
    line: int
    is_async: bool
    kind: str  # "function" | "method" | "module"


@dataclass(frozen=True)
class CallEdge:
    """One call site: *caller* invokes *callee* at ``path:line``."""

    caller: str
    callee: str
    path: str
    line: int
    col: int
    kind: str


@dataclass
class _ClassInfo:
    qualname: str
    methods: Dict[str, str] = field(default_factory=dict)
    base_names: List[str] = field(default_factory=list)


@dataclass
class _FuncInfo:
    qualname: str
    node: FuncDef
    ctx: FileContext
    module: str
    cls: Optional[str]  # enclosing class qualname
    nested: Dict[str, str] = field(default_factory=dict)


class CallGraph:
    """The built graph plus the symbol tables analyzers lean on."""

    def __init__(self) -> None:
        self.nodes: Dict[str, CallNode] = {}
        self.edges: List[CallEdge] = []
        self._out: Dict[str, List[CallEdge]] = {}
        self._in: Dict[str, List[CallEdge]] = {}
        #: qualname -> (FileContext, ast def node) for project functions
        self.functions: Dict[str, Tuple[FileContext, FuncDef]] = {}
        #: class qualname -> method-name -> method qualname (MRO-resolved)
        self.class_methods: Dict[str, Dict[str, str]] = {}
        #: dispatch facts that failed to bind to a known node
        self.unbound_facts: List[Tuple[str, str]] = []

    # -- queries ---------------------------------------------------------
    def out_edges(self, qualname: str) -> List[CallEdge]:
        return self._out.get(qualname, [])

    def in_edges(self, qualname: str) -> List[CallEdge]:
        return self._in.get(qualname, [])

    def add_edge(self, edge: CallEdge) -> None:
        self.edges.append(edge)
        self._out.setdefault(edge.caller, []).append(edge)
        self._in.setdefault(edge.callee, []).append(edge)

    def async_nodes(self) -> List[CallNode]:
        return [n for n in self.nodes.values() if n.is_async]


class _Builder:
    def __init__(self, ctxs: Sequence[FileContext]):
        self.ctxs = [ctx for ctx in ctxs if ctx.module is not None]
        self.graph = CallGraph()
        self.modules: Dict[str, FileContext] = {}
        #: module -> top-level name -> qualname (functions and classes)
        self.modsyms: Dict[str, Dict[str, str]] = {}
        #: module -> local alias -> dotted project origin (re-export hop)
        self.forwards: Dict[str, Dict[str, str]] = {}
        self.classes: Dict[str, _ClassInfo] = {}
        self.funcs: Dict[str, _FuncInfo] = {}
        self.imports: Dict[str, ImportMap] = {}
        #: (class qualname, attr) -> class qualname of the instance held
        self.attr_types: Dict[Tuple[str, str], str] = {}

    # -- pass 1: symbols -------------------------------------------------
    def collect(self) -> None:
        for ctx in self.ctxs:
            module = ctx.module
            assert module is not None
            self.modules[module] = ctx
            self.modsyms[module] = {}
            self.imports[module] = collect_imports(ctx.tree)
            self.forwards[module] = {
                name: origin
                for name, origin in self.imports[module].aliases.items()
                if origin.startswith("repro.")
            }
            self._add_node(
                f"{module}.<module>", module, ctx, 1, False, "module"
            )
            body = getattr(ctx.tree, "body", [])
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._register_function(ctx, module, stmt, module, None)
                elif isinstance(stmt, ast.ClassDef):
                    self._register_class(ctx, module, stmt)
        self._resolve_bases()
        self._infer_attr_types()

    def _add_node(
        self,
        qualname: str,
        module: str,
        ctx: FileContext,
        line: int,
        is_async: bool,
        kind: str,
    ) -> None:
        self.graph.nodes[qualname] = CallNode(
            qualname=qualname,
            module=module,
            path=ctx.rel,
            line=line,
            is_async=is_async,
            kind=kind,
        )

    def _register_function(
        self,
        ctx: FileContext,
        module: str,
        node: FuncDef,
        prefix: str,
        cls: Optional[str],
    ) -> _FuncInfo:
        qualname = f"{prefix}.{node.name}"
        info = _FuncInfo(
            qualname=qualname, node=node, ctx=ctx, module=module, cls=cls
        )
        self.funcs[qualname] = info
        self.graph.functions[qualname] = (ctx, node)
        self._add_node(
            qualname,
            module,
            ctx,
            int(node.lineno),
            isinstance(node, ast.AsyncFunctionDef),
            "method" if cls is not None else "function",
        )
        if cls is None and prefix == module:
            self.modsyms[module][node.name] = qualname
        # Nested defs become their own nodes, one level of <locals> per hop.
        for child in _immediate_defs(node):
            nested = self._register_function(
                ctx, module, child, f"{qualname}.<locals>", cls
            )
            info.nested[child.name] = nested.qualname
        return info

    def _register_class(
        self, ctx: FileContext, module: str, node: ast.ClassDef
    ) -> None:
        qualname = f"{module}.{node.name}"
        self.modsyms[module][node.name] = qualname
        info = _ClassInfo(qualname=qualname)
        for base in node.bases:
            name = dotted_name(base)
            if name is not None:
                info.base_names.append(name)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = self._register_function(
                    ctx, module, stmt, qualname, qualname
                )
                info.methods[stmt.name] = func.qualname
        self.classes[qualname] = info

    def _resolve_bases(self) -> None:
        """Fold base-class methods into each class's lookup table (a
        simple depth-first MRO within the project, cycle-guarded)."""
        resolved: Dict[str, Dict[str, str]] = {}

        def methods_of(cq: str, seen: Set[str]) -> Dict[str, str]:
            if cq in resolved:
                return resolved[cq]
            if cq in seen or cq not in self.classes:
                return {}
            seen.add(cq)
            info = self.classes[cq]
            table: Dict[str, str] = {}
            for base_name in info.base_names:
                base_q = self._resolve_class_name(info, base_name)
                if base_q is not None:
                    table.update(methods_of(base_q, seen))
            table.update(info.methods)
            resolved[cq] = table
            return table

        for cq in self.classes:
            self.graph.class_methods[cq] = dict(methods_of(cq, set()))

    def _resolve_class_name(
        self, info: _ClassInfo, name: str
    ) -> Optional[str]:
        module = info.qualname.rsplit(".", 1)[0]
        local = self.modsyms.get(module, {}).get(name.split(".")[0])
        if local is not None and local in self.classes:
            return local
        imports = self.imports.get(module)
        if imports is None:
            return None
        head, _, rest = name.partition(".")
        origin = imports.aliases.get(head)
        if origin is None:
            return None
        dotted = f"{origin}.{rest}" if rest else origin
        target = self.resolve_dotted(dotted)
        if target is not None and target in self.classes:
            return target
        return None

    def _infer_attr_types(self) -> None:
        """``self.attr = ProjectClass(...)`` anywhere in a class binds the
        attr's receiver type for ``self.attr.method()`` resolution."""
        for func in self.funcs.values():
            if func.cls is None:
                continue
            for stmt in _body_nodes(func.node):
                if not isinstance(stmt, ast.Assign):
                    continue
                if not isinstance(stmt.value, ast.Call):
                    continue
                target_cls = self._class_of_call(func, stmt.value)
                if target_cls is None:
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self.attr_types.setdefault(
                            (func.cls, target.attr), target_cls
                        )

    def _class_of_call(
        self, func: _FuncInfo, call: ast.Call
    ) -> Optional[str]:
        """The project class *call* constructs, if any."""
        resolved = self._resolve_callable(func, call.func)
        if resolved is None:
            return None
        target, _kind = resolved
        if target in self.classes:
            return target
        return None

    # -- dotted-name resolution ------------------------------------------
    def resolve_dotted(self, dotted: str, _depth: int = 0) -> Optional[str]:
        """Map a dotted origin to a project qualname (function, class, or
        ``Class.method``), following one-hop re-exports through package
        ``__init__`` aliases."""
        if _depth > 4:
            return None
        best: Optional[str] = None
        for module in self.modules:
            if dotted == module or dotted.startswith(module + "."):
                if best is None or len(module) > len(best):
                    best = module
        if best is None:
            return None
        rest = dotted[len(best) + 1:].split(".") if dotted != best else []
        if not rest:
            return None
        symbols = self.modsyms[best]
        sym = symbols.get(rest[0])
        if sym is None:
            forward = self.forwards[best].get(rest[0])
            if forward is not None:
                tail = ".".join([forward] + rest[1:])
                return self.resolve_dotted(tail, _depth + 1)
            return None
        if len(rest) == 1:
            return sym
        if sym in self.classes and len(rest) == 2:
            return self.graph.class_methods.get(sym, {}).get(rest[1])
        return None

    # -- pass 2: edges ---------------------------------------------------
    def link(self) -> None:
        for func in list(self.funcs.values()):
            env = self._local_instances(func)
            for node in _body_nodes(func.node):
                if isinstance(node, ast.Call):
                    self._link_call(func, node, env)
        # Module-level calls hang off the synthetic <module> node.
        for module, ctx in self.modules.items():
            fake = _FuncInfo(
                qualname=f"{module}.<module>",
                node=ast.parse("pass").body[0],  # type: ignore[arg-type]
                ctx=ctx,
                module=module,
                cls=None,
            )
            for node in _module_level_calls(ctx.tree):
                self._link_call(fake, node, {})

    def _local_instances(self, func: _FuncInfo) -> Dict[str, Optional[str]]:
        """Names bound to project-class constructions in this body; a
        rebind to anything else kills the entry (shadow-safe)."""
        env: Dict[str, Optional[str]] = {}
        for node in _body_nodes(func.node):
            if not isinstance(node, ast.Assign):
                continue
            names = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if not names:
                continue
            bound: Optional[str] = None
            if isinstance(node.value, ast.Call):
                bound = self._class_of_call(func, node.value)
            for name in names:
                if name in env and env[name] != bound:
                    env[name] = None
                else:
                    env[name] = bound
        return env

    def _link_call(
        self,
        func: _FuncInfo,
        call: ast.Call,
        env: Dict[str, Optional[str]],
    ) -> None:
        self._link_reference_args(func, call, env)
        resolved = self._resolve_callable(func, call.func, env)
        if resolved is None:
            # Attribute call on an untyped receiver: keep the method name.
            if isinstance(call.func, ast.Attribute):
                self._emit(func, call, f"{DYNAMIC_PREFIX}.{call.func.attr}", "dynamic")
            return
        target, kind = resolved
        if target in self.classes:
            init = self.graph.class_methods.get(target, {}).get("__init__")
            if init is None:
                return
            target, kind = init, "direct"
        self._emit(func, call, target, kind)

    def _link_reference_args(
        self,
        func: _FuncInfo,
        call: ast.Call,
        env: Dict[str, Optional[str]],
    ) -> None:
        """Record executor/spawn edges for function references handed to
        another execution context."""
        ref: Optional[ast.AST] = None
        kind = ""
        if isinstance(call.func, ast.Attribute):
            pos = _EXECUTOR_METHODS.get(call.func.attr)
            if pos is not None and len(call.args) > pos:
                ref, kind = call.args[pos], "executor"
        dotted = self.imports[func.module].resolve(call.func)
        if dotted in _SPAWN_CTORS:
            for kw in call.keywords:
                if kw.arg == "target":
                    ref, kind = kw.value, "spawn"
        if ref is None:
            return
        resolved = self._resolve_callable(func, ref, env)
        if resolved is not None:
            target, _k = resolved
            if target in self.classes:
                return
            self._emit(func, call, target, kind)

    def _resolve_callable(
        self,
        func: _FuncInfo,
        ref: ast.AST,
        env: Optional[Dict[str, Optional[str]]] = None,
    ) -> Optional[Tuple[str, str]]:
        env = env or {}
        imports = self.imports[func.module]
        if isinstance(ref, ast.Name):
            if ref.id in func.nested:
                return func.nested[ref.id], "direct"
            if env.get(ref.id) is not None:
                return None  # a local instance, not a callable name
            local = self.modsyms[func.module].get(ref.id)
            if local is not None:
                return local, "direct"
            origin = imports.aliases.get(ref.id)
            if origin is not None:
                project = self.resolve_dotted(origin)
                if project is not None:
                    return project, "direct"
                return origin, "external"
            if ref.id == "open":
                return "open", "external"
            return None
        if isinstance(ref, ast.Attribute):
            dotted = imports.resolve(ref)
            if dotted is not None:
                project = self.resolve_dotted(dotted)
                if project is not None:
                    return project, "direct"
                return dotted, "external"
            receiver = ref.value
            # self.method(...)
            if (
                isinstance(receiver, ast.Name)
                and receiver.id == "self"
                and func.cls is not None
            ):
                method = self.graph.class_methods.get(func.cls, {}).get(ref.attr)
                if method is not None:
                    return method, "method"
                return None
            # self.attr.method(...)
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and func.cls is not None
            ):
                held = self.attr_types.get((func.cls, receiver.attr))
                if held is not None:
                    method = self.graph.class_methods.get(held, {}).get(ref.attr)
                    if method is not None:
                        return method, "method"
                return None
            # local_instance.method(...)
            if isinstance(receiver, ast.Name):
                held = env.get(receiver.id)
                if held:
                    method = self.graph.class_methods.get(held, {}).get(ref.attr)
                    if method is not None:
                        return method, "method"
            return None
        return None

    def _emit(
        self, func: _FuncInfo, call: ast.Call, callee: str, kind: str
    ) -> None:
        self.graph.add_edge(
            CallEdge(
                caller=func.qualname,
                callee=callee,
                path=func.ctx.rel,
                line=int(call.lineno),
                col=int(call.col_offset) + 1,
                kind=kind,
            )
        )

    # -- facts -----------------------------------------------------------
    def apply_facts(self) -> None:
        from repro.check.facts import DISPATCH_EDGES

        for caller, callee, _note in DISPATCH_EDGES:
            if caller in self.graph.nodes and callee in self.graph.nodes:
                ctx = self.funcs[callee].ctx if callee in self.funcs else None
                node = self.graph.nodes[callee]
                self.graph.add_edge(
                    CallEdge(
                        caller=caller,
                        callee=callee,
                        path=node.path if ctx is None else ctx.rel,
                        line=node.line,
                        col=1,
                        kind="registry",
                    )
                )
            else:
                self.graph.unbound_facts.append((caller, callee))


def _immediate_defs(node: FuncDef) -> List[FuncDef]:
    """Function defs one nesting level below *node* (not class bodies)."""
    found: List[FuncDef] = []
    stack: List[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(current)
            continue
        if isinstance(current, (ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(current))
    return found


def _body_nodes(node: FuncDef) -> Iterable[ast.AST]:
    """Every node executed *in the body of* *node* itself: nested def /
    lambda bodies are excluded (they execute in their own context)."""
    stack: List[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def _module_level_calls(tree: ast.AST) -> Iterable[ast.Call]:
    stack: List[ast.AST] = list(getattr(tree, "body", []))
    while stack:
        current = stack.pop()
        if isinstance(
            current,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))


def build_callgraph(ctxs: Sequence[FileContext]) -> CallGraph:
    """Build the project call graph over the parsed *ctxs*."""
    builder = _Builder(ctxs)
    builder.collect()
    builder.link()
    builder.apply_facts()
    return builder.graph
