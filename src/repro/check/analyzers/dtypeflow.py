"""Dtype-flow: index domains stay int64, from construction to use.

Every CSR/entry-pool index array in this codebase is int64 by contract
(``graph/csr.py``, ``rabbit/native.py``): int32 silently overflows past
2**31 slots at production scale, platform-``int`` is 32-bit on some
targets, and float arrays sneak in through true division and then get
used as indices with value-dependent rounding.  The rule checks the
numeric-core packages at both ends of a value's life.

**Construction sites**, module level included:

* explicit 32-bit or platform-dependent integer dtypes — ``np.int32``/
  ``uint32``/``int16``/``uint16``, ``dtype=int``, ``.astype(int)``;
* index-named bindings (``indptr``, ``indices``, ``perm``, ``offsets``,
  ...) whose value infers to float — ``np.zeros(n)`` without a dtype,
  an explicit float dtype, a true division;
* ``np.arange`` under true division (``/`` yields float64; index
  arithmetic must use ``//`` or exact ceil-division).

**Uses**: the engine propagates inferred ndarray/scalar dtypes through
assignments, returns, and calls, and flags the index position a bad
value reaches, however far from its construction::

    def _midpoint(lo, hi):
        return (lo + hi) / 2          # float, silently

    def bisect(arr, lo, hi):
        mid = _midpoint(lo, hi)
        return arr[mid]               # flagged here, with the flow chain

Inference is a deliberately small abstract domain — ``int64``,
``int32``, ``float``, unknown — seeded by numpy constructors
(``zeros``/``ones``/``empty``/``full`` default to float64;
``arange``/``argsort`` are integral; ``astype``/``dtype=`` map
explicitly; ``dtype=int`` is platform-dependent and treated as int32),
closed under arithmetic (true division is always float, any float
operand poisons the result), and propagated interprocedurally via
fixpoint function summaries: each function's return dtype, and which of
its parameters it uses as indices (directly or by passing them on to an
index-using callee).

Use findings land on the indexing expression (the sink) with the
value's origin and call chain in ``Finding.trace``.  Findings are only
reported in the numeric-core packages; origins may come from anywhere
in the tree.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.check.astutil import ImportMap, collect_imports, dotted_name
from repro.check.callgraph import CallEdge, FuncDef
from repro.check.engine import FileContext, Finding, Rule, register_rule
from repro.check.interproc import ProjectState, project_state

__all__ = ["DtypeFlow"]

#: packages whose index discipline the rule enforces
_NUMERIC_CORE = (
    "repro/graph/",
    "repro/rabbit/",
    "repro/order/",
    "repro/community/",
    "repro/analysis/",
    "repro/cache/",
    "repro/metrics/",
    "repro/parallel/",
)

#: resolved dtype spellings -> abstract dtype
_DTYPE_NAMES: Dict[str, str] = {
    "numpy.int64": "int64",
    "numpy.intp": "int64",
    "numpy.uint64": "int64",
    "numpy.int32": "int32",
    "numpy.uint32": "int32",
    "numpy.int16": "int32",
    "numpy.uint16": "int32",
    "numpy.float64": "float",
    "numpy.float32": "float",
    "numpy.float16": "float",
    "numpy.bool_": "bool",
}

#: constructors that default to float64 without a dtype argument
_FLOAT_DEFAULT_CTORS = {
    "numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full",
}

#: constructors that are integral without a dtype argument
_INT_DEFAULT_CTORS = {
    "numpy.arange", "numpy.argsort", "numpy.argmin", "numpy.argmax",
    "numpy.searchsorted", "numpy.bincount", "numpy.flatnonzero",
    "numpy.repeat",
}

#: name fragments that mark a binding as index-valued
_INDEX_TOKENS = (
    "indptr", "indices", "index", "offsets", "offset",
    "perm", "permutation", "ordering",
)

#: receiver methods that preserve the receiver's element dtype
_PRESERVING_METHODS = {
    "copy", "ravel", "reshape", "sum", "min", "max", "cumsum", "take",
    "flatten", "view",
}


class _Value:
    """An abstract value: dtype plus a human-readable origin."""

    __slots__ = ("dtype", "origin")

    def __init__(self, dtype: str, origin: str):
        self.dtype = dtype
        self.origin = origin


class _Scope:
    """A body values are inferred in: a function, or a module's top level
    (class bodies included)."""

    __slots__ = ("qualname", "ctx", "body")

    def __init__(self, qualname: str, ctx: FileContext, body: List[ast.stmt]):
        self.qualname = qualname
        self.ctx = ctx
        self.body = body


class _FuncFacts(_Scope):
    """Per-function summary used by the interprocedural fixpoint."""

    __slots__ = ("node", "params", "index_params", "index_sites", "returns")

    def __init__(
        self, qualname: str, ctx: FileContext, node: FuncDef, is_method: bool
    ):
        super().__init__(qualname, ctx, node.body)
        self.node = node
        args = [a.arg for a in node.args.posonlyargs + node.args.args]
        if is_method and args and args[0] in ("self", "cls"):
            args = args[1:]
        self.params: List[str] = args
        #: params this function uses as an index (fixpoint-grown)
        self.index_params: Set[str] = set()
        #: param -> first direct indexing site (line, col) in this body
        self.index_sites: Dict[str, Tuple[int, int]] = {}
        #: return summary (None = unknown / mixed)
        self.returns: Optional[_Value] = None


def _dtype_spec(call: ast.Call) -> Optional[ast.expr]:
    """The dtype *call* names: its ``dtype=`` keyword, or the argument of
    ``.astype(...)``."""
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    if isinstance(call.func, ast.Attribute) and call.func.attr == "astype":
        return call.args[0] if call.args else None
    return None


def _is_arange(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = dotted_name(node.func)
    return func is not None and func.rsplit(".", 1)[-1] == "arange"


def _body_nodes(fnode: FuncDef) -> Iterator[ast.AST]:
    stack: List[ast.AST] = list(fnode.body)
    while stack:
        current = stack.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def _ordered_statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements in source order, descending into compound bodies but
    not into nested function/lambda definitions."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield stmt
        for attr in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, attr, None)
            if sub:
                yield from _ordered_statements(sub)
        for handler in getattr(stmt, "handlers", []):
            yield from _ordered_statements(handler.body)


class _Engine:
    """The shared inference engine: summaries + per-function envs."""

    def __init__(self, state: ProjectState, ctxs: Sequence[FileContext]):
        self.state = state
        self.facts: Dict[str, _FuncFacts] = {}
        self.imports: Dict[str, ImportMap] = {
            ctx.rel: collect_imports(ctx.tree)
            for ctx in ctxs
            if ctx.module is not None
        }
        #: (caller, line, col) -> resolved project edge
        self.edge_at: Dict[Tuple[str, int, int], CallEdge] = {}
        for qualname, (ctx, fnode) in state.graph.functions.items():
            node = state.graph.nodes[qualname]
            self.facts[qualname] = _FuncFacts(
                qualname, ctx, fnode, is_method=node.kind == "method"
            )
        for edge in state.graph.edges:
            if edge.kind in ("direct", "method") and edge.callee in self.facts:
                self.edge_at.setdefault(
                    (edge.caller, edge.line, edge.col), edge
                )

    # -- index-parameter fixpoint ----------------------------------------
    def compute_index_params(self) -> None:
        for facts in self.facts.values():
            params = set(facts.params)
            for node in _body_nodes(facts.node):
                if not isinstance(node, ast.Subscript):
                    continue
                index = node.slice
                if isinstance(index, ast.Name) and index.id in params:
                    facts.index_params.add(index.id)
                    facts.index_sites.setdefault(
                        index.id,
                        (int(node.lineno), int(node.col_offset) + 1),
                    )
        for _ in range(10):
            changed = False
            for facts in self.facts.values():
                for node in _body_nodes(facts.node):
                    if not isinstance(node, ast.Call):
                        continue
                    edge = self.edge_at.get(
                        (
                            facts.qualname,
                            int(node.lineno),
                            int(node.col_offset) + 1,
                        )
                    )
                    if edge is None:
                        continue
                    callee = self.facts.get(edge.callee)
                    if callee is None:
                        continue
                    for pos, arg in enumerate(node.args):
                        if not isinstance(arg, ast.Name):
                            continue
                        if arg.id not in facts.params:
                            continue
                        if pos >= len(callee.params):
                            continue
                        if callee.params[pos] in callee.index_params:
                            if arg.id not in facts.index_params:
                                facts.index_params.add(arg.id)
                                site = callee.index_sites.get(
                                    callee.params[pos]
                                )
                                if site is not None:
                                    facts.index_sites.setdefault(arg.id, site)
                                changed = True
            if not changed:
                break

    # -- return-summary fixpoint -----------------------------------------
    def compute_returns(self) -> None:
        for _ in range(4):
            changed = False
            for facts in self.facts.values():
                env = self.local_env(facts)
                summary = self._return_summary(facts, env)
                old = facts.returns
                if (summary is None) != (old is None) or (
                    summary is not None
                    and old is not None
                    and summary.dtype != old.dtype
                ):
                    facts.returns = summary
                    changed = True
            if not changed:
                break

    def _return_summary(
        self, facts: _FuncFacts, env: Dict[str, Optional[_Value]]
    ) -> Optional[_Value]:
        result: Optional[_Value] = None
        for node in _body_nodes(facts.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = self.infer(facts, node.value, env)
            if value is None:
                return None
            if result is not None and result.dtype != value.dtype:
                return None
            result = value
        return result

    # -- local environments ----------------------------------------------
    def local_env(self, scope: _Scope) -> Dict[str, Optional[_Value]]:
        """Name -> abstract value, built in source order; a re-bind to a
        different dtype kills the entry."""
        env: Dict[str, Optional[_Value]] = {}
        for stmt in _ordered_statements(scope.body):
            target: Optional[ast.expr] = None
            value_expr: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value_expr = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value_expr = stmt.target, stmt.value
            elif isinstance(stmt, ast.AugAssign):
                # x /= 2 makes x float; other aug-ops keep the old value
                if isinstance(stmt.op, ast.Div) and isinstance(
                    stmt.target, ast.Name
                ):
                    env[stmt.target.id] = _Value(
                        "float",
                        f"true division at {scope.ctx.rel}:{stmt.lineno}",
                    )
                continue
            if target is None or not isinstance(target, ast.Name):
                continue
            assert value_expr is not None
            value = self.infer(scope, value_expr, env)
            if target.id in env and env[target.id] is not None:
                old = env[target.id]
                if value is None or (old is not None and old.dtype != value.dtype):
                    env[target.id] = None
                    continue
            env[target.id] = value
        return env

    # -- expression inference --------------------------------------------
    def infer(
        self,
        scope: _Scope,
        expr: ast.expr,
        env: Dict[str, Optional[_Value]],
    ) -> Optional[_Value]:
        imports = self.imports[scope.ctx.rel]
        where = f"{scope.ctx.rel}:{int(getattr(expr, 'lineno', 0))}"
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.UnaryOp):
            return self.infer(scope, expr.operand, env)
        if isinstance(expr, ast.BinOp):
            left = self.infer(scope, expr.left, env)
            right = self.infer(scope, expr.right, env)
            if isinstance(expr.op, ast.Div):
                return _Value("float", f"true division at {where}")
            dtypes = [v.dtype for v in (left, right) if v is not None]
            if "float" in dtypes:
                origin = next(
                    v.origin for v in (left, right)
                    if v is not None and v.dtype == "float"
                )
                return _Value("float", origin)
            if "int32" in dtypes:
                origin = next(
                    v.origin for v in (left, right)
                    if v is not None and v.dtype == "int32"
                )
                return _Value("int32", origin)
            if (
                left is not None
                and right is not None
                and left.dtype == "int64"
                and right.dtype == "int64"
            ):
                return _Value("int64", left.origin)
            return None
        if isinstance(expr, ast.Call):
            return self._infer_call(scope, expr, env, imports, where)
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool):
                return None
            if isinstance(expr.value, int):
                return _Value("int64", f"int literal at {where}")
            if isinstance(expr.value, float):
                return _Value("float", f"float literal at {where}")
            return None
        return None

    def _infer_call(
        self,
        scope: _Scope,
        call: ast.Call,
        env: Dict[str, Optional[_Value]],
        imports: ImportMap,
        where: str,
    ) -> Optional[_Value]:
        func = call.func
        spec = _dtype_spec(call)
        dtype_kw = None if spec is None else self._dtype_of_node(spec, imports)
        # x.astype(T) / x.copy() / x.sum() ...
        if isinstance(func, ast.Attribute):
            if func.attr == "astype" and dtype_kw is not None:
                return _Value(dtype_kw, f"astype at {where}")
            if func.attr in _PRESERVING_METHODS and isinstance(
                func.value, ast.Name
            ):
                receiver = env.get(func.value.id)
                if receiver is not None:
                    return _Value(receiver.dtype, receiver.origin)
        resolved = imports.resolve(func)
        if resolved is not None:
            if resolved in _FLOAT_DEFAULT_CTORS:
                return _Value(
                    dtype_kw or "float",
                    f"{resolved.replace('numpy', 'np')}(...) at {where}"
                    + ("" if dtype_kw else " (float64 by default)"),
                )
            if resolved in _INT_DEFAULT_CTORS:
                return _Value(
                    dtype_kw or "int64",
                    f"{resolved.replace('numpy', 'np')}(...) at {where}",
                )
            if dtype_kw is not None:
                return _Value(dtype_kw, f"dtype= at {where}")
        # project call: use the callee's return summary
        edge = self.edge_at.get(
            (scope.qualname, int(call.lineno), int(call.col_offset) + 1)
        )
        if edge is not None:
            callee = self.facts.get(edge.callee)
            if callee is not None and callee.returns is not None:
                ret = callee.returns
                return _Value(
                    ret.dtype,
                    f"{ret.origin}, returned by "
                    f"{edge.callee.rsplit('.', 1)[-1]}()",
                )
        return None

    def _dtype_of_node(
        self, node: ast.expr, imports: ImportMap
    ) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id == "int":
                return "int32"  # platform-dependent: 32-bit on some targets
            if node.id == "float":
                return "float"
            if node.id == "bool":
                return "bool"  # boolean masks index legitimately
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value.lstrip("<>=")
            return _DTYPE_NAMES.get(f"numpy.{text}")
        resolved = imports.resolve(node)
        if resolved is not None:
            return _DTYPE_NAMES.get(resolved)
        name = dotted_name(node)
        if name is not None:
            return _DTYPE_NAMES.get(f"numpy.{name.rsplit('.', 1)[-1]}")
        return None


class DtypeFlow(Rule):
    id = "dtype-flow"
    rationale = (
        "Index arrays are int64 by contract, from construction to use: "
        "int32 or platform-int indices overflow at production scale and "
        "differ across platforms, and a float value (true division, a "
        "float64-default constructor) used as an index rounds "
        "value-dependently and caps exact integers at 2**53."
    )
    project_wide = True

    def check_project(self, ctxs: Sequence[FileContext]) -> Iterator[Finding]:
        state = project_state(ctxs)
        engine = _Engine(state, ctxs)
        engine.compute_index_params()
        engine.compute_returns()
        envs = {q: engine.local_env(f) for q, f in engine.facts.items()}
        for ctx in ctxs:
            if ctx.module is not None and self._in_core(ctx.rel):
                yield from self._check_constructions(engine, envs, ctx, ctx.module)
        seen: Set[Tuple[str, int, int]] = set()
        for qualname in sorted(engine.facts):
            facts = engine.facts[qualname]
            yield from self._check_function(engine, facts, envs[qualname], seen)

    def _in_core(self, rel: str) -> bool:
        return any(fragment in rel for fragment in _NUMERIC_CORE)

    def _check_constructions(
        self,
        engine: _Engine,
        envs: Dict[str, Dict[str, Optional[_Value]]],
        ctx: FileContext,
        module: str,
    ) -> Iterator[Finding]:
        """Bad index dtypes where values are made, anywhere in the file."""
        imports = engine.imports[ctx.rel]
        top = _Scope(f"{module}.<module>", ctx, getattr(ctx.tree, "body", []))
        # Statements outside any function body read module-level names.
        outside = (top, engine.local_env(top))
        #: id(statement) -> the function it runs in and that function's env
        bound: Dict[int, Tuple[_Scope, Dict[str, Optional[_Value]]]] = {}
        for qualname, facts in engine.facts.items():
            if facts.ctx is ctx:
                for stmt in _ordered_statements(facts.body):
                    bound[id(stmt)] = (facts, envs[qualname])
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                if engine._dtype_of_node(node, imports) == "int32":
                    yield ctx.finding(
                        self.id,
                        node,
                        f"{dotted_name(node)} in index code; index arrays "
                        "are int64 by contract",
                    )
            elif isinstance(node, ast.Call):
                spec = _dtype_spec(node)
                if (
                    spec is not None
                    and not isinstance(spec, ast.Attribute)  # flagged above
                    and engine._dtype_of_node(spec, imports) == "int32"
                ):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"dtype {ast.unparse(spec)} is 32-bit or "
                        "platform-dependent; index arrays are int64 by "
                        "contract — use np.int64 explicitly",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if any(_is_arange(sub) for sub in ast.walk(node)):
                    yield ctx.finding(
                        self.id,
                        node,
                        "np.arange under true division `/` produces a "
                        "float64 array; index arithmetic must use `//` "
                        "(or exact ceil-division -(-a // b))",
                    )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                scope, env = bound.get(id(node), outside)
                yield from self._check_binding(engine, node, scope, env)

    def _check_binding(
        self,
        engine: _Engine,
        node: ast.Assign | ast.AnnAssign,
        scope: _Scope,
        env: Dict[str, Optional[_Value]],
    ) -> Iterator[Finding]:
        """An index-named binding whose value infers to float."""
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [
            t.id
            for t in targets
            if isinstance(t, ast.Name)
            and any(token in t.id.lower() for token in _INDEX_TOKENS)
        ]
        if not names or node.value is None:
            return
        value = engine.infer(scope, node.value, env)
        if value is not None and value.dtype == "float":
            yield scope.ctx.finding(
                self.id,
                node,
                f"index-named {names[0]!r} is bound to a float value "
                f"({value.origin}); index arrays are int64 by contract — "
                "pass dtype=np.int64",
            )

    def _check_function(
        self,
        engine: _Engine,
        facts: _FuncFacts,
        env: Dict[str, Optional[_Value]],
        seen: Set[Tuple[str, int, int]],
    ) -> Iterator[Finding]:
        for node in _body_nodes(facts.node):
            if isinstance(node, ast.Subscript) and self._in_core(facts.ctx.rel):
                value = engine.infer(facts, node.slice, env)
                if value is not None and value.dtype in ("float", "int32"):
                    key = (
                        facts.ctx.rel,
                        int(node.lineno),
                        int(node.col_offset) + 1,
                    )
                    if key in seen:
                        continue
                    seen.add(key)
                    yield facts.ctx.finding(
                        self.id,
                        node,
                        f"{value.dtype} value used as an index "
                        f"({value.origin}); index domains are int64 by "
                        "contract — use `//` (or exact ceil-division) and "
                        "int64 dtypes end to end",
                        trace=(
                            value.origin,
                            f"used as index at {facts.ctx.rel}:{node.lineno}",
                        ),
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(engine, facts, env, node, seen)

    def _check_call(
        self,
        engine: _Engine,
        facts: _FuncFacts,
        env: Dict[str, Optional[_Value]],
        call: ast.Call,
        seen: Set[Tuple[str, int, int]],
    ) -> Iterator[Finding]:
        edge = engine.edge_at.get(
            (facts.qualname, int(call.lineno), int(call.col_offset) + 1)
        )
        if edge is None:
            return
        callee = engine.facts.get(edge.callee)
        if callee is None or not self._in_core(callee.ctx.rel):
            return
        for pos, arg in enumerate(call.args):
            if pos >= len(callee.params):
                break
            param = callee.params[pos]
            if param not in callee.index_params:
                continue
            value = engine.infer(facts, arg, env)
            if value is None or value.dtype not in ("float", "int32"):
                continue
            site = callee.index_sites.get(param)
            if site is None:
                continue
            key = (callee.ctx.rel, site[0], site[1])
            if key in seen:
                continue
            seen.add(key)
            yield callee.ctx.finding_at(
                self.id,
                site[0],
                f"parameter {param!r} of "
                f"{edge.callee.rsplit('.', 1)[-1]}() is used as an index "
                f"but receives a {value.dtype} value from "
                f"{facts.qualname} ({value.origin}); keep index arguments "
                "int64 end to end",
                col=site[1],
                trace=(
                    value.origin,
                    f"passed as {param!r} to {edge.callee} by "
                    f"{facts.qualname} at {facts.ctx.rel}:{call.lineno}",
                    f"used as index at {callee.ctx.rel}:{site[0]}",
                ),
            )


register_rule(DtypeFlow())
