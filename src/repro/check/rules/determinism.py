"""Determinism rules.

Reordering results must be bit-identical across runs: the ``fastseq``
engine's whole value is dendrogram/permutation equality with the dict
engine, and Faldu et al. show how silently nondeterministic orderings
invalidate reordering evaluations.  Three rules guard the usual leaks:

* ``unsorted-set-iteration`` — iterating a ``set`` (literal, ``set()``
  call, comprehension, or ``.keys()`` algebra) has arbitrary order; any
  such iteration feeding an ordering must go through ``sorted()``.
  (Dict iteration is insertion-ordered in CPython and is relied on
  deliberately — it is *not* flagged.)
* ``unseeded-rng`` — no module-global RNG (``np.random.*``, stdlib
  ``random.*``) and no ``default_rng`` that can see ``None``: no
  argument, a literal ``None``, or a parameter that defaults to ``None``
  (directly, or through a call in the same module); randomness must come
  from an explicitly seeded generator.
* ``wall-clock-in-result-path`` — result-producing packages must not
  read wall clocks; timing belongs to the ``obs`` layer.
"""

from __future__ import annotations

import ast
from itertools import takewhile
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.check.astutil import collect_imports, dotted_name
from repro.check.engine import FileContext, Finding, Rule, register_rule

__all__ = ["UnsortedSetIteration", "UnseededRng", "WallClockInResultPath"]

#: numpy.random module-global sampling functions (legacy global state).
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "RandomState"}

#: stdlib ``random`` module-level functions backed by the global RNG.
_STDLIB_RANDOM = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "sample", "shuffle", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "paretovariate",
    "getrandbits", "randbytes",
}

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


def _is_set_valued(node: ast.AST) -> bool:
    """Conservatively recognise expressions that are definitely sets."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = dotted_name(node.func)
        if func in ("set", "frozenset"):
            return True
        # dict.keys() algebra below needs the method name only.
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
    ):
        return _is_set_valued(node.left) or _is_set_valued(node.right) or (
            _is_keys_call(node.left) and _is_keys_call(node.right)
        )
    return False


def _is_keys_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
    )


class UnsortedSetIteration(Rule):
    id = "unsorted-set-iteration"
    rationale = (
        "Set iteration order depends on hash seeding and insertion "
        "history; any ordering derived from it is not replayable.  Wrap "
        "the iterable in sorted()."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        iters = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
        for expr in iters:
            if _is_set_valued(expr):
                yield ctx.finding(
                    self.id,
                    expr,
                    "iteration over a set has nondeterministic order; "
                    "wrap it in sorted(...)",
                )


_Function = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_none(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _calls_in(tree: ast.AST) -> List[Tuple[Optional[ast.AST], ast.Call]]:
    """Every call in *tree* with its innermost enclosing function
    (``None`` at module level)."""
    calls: List[Tuple[Optional[ast.AST], ast.Call]] = []

    def visit(node: ast.AST, func: Optional[ast.AST]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                calls.append((func, child))
            visit(child, child if isinstance(child, _Function) else func)

    visit(tree, None)
    return calls


def _none_default_params(func) -> Set[str]:
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    return {
        arg.arg
        for arg, default in [
            *zip(defaulted, args.defaults),
            *zip(args.kwonlyargs, args.kw_defaults),
        ]
        if _is_none(default)
    }


def _rebound_before(func, name: str, line: int) -> bool:
    return any(
        isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)
        and node.id == name
        and node.lineno < line
        for node in ast.walk(func)
    )


class _MaybeNone:
    """Which parameters of a module's functions can hold ``None``: those
    defaulting to ``None``, and, to a fixpoint, those a call in the same
    module (to a module-level function, by name) passes a literal
    ``None`` or such a parameter.  A parameter rebound before the use is
    no longer the parameter."""

    def __init__(self, tree: ast.AST, calls) -> None:
        self.params: Dict[int, Set[str]] = {
            id(node): _none_default_params(node)
            for node in ast.walk(tree)
            if isinstance(node, _Function)
        }
        module_funcs = {
            node.name: node
            for node in getattr(tree, "body", [])
            if isinstance(node, _Function)
        }
        changed = True
        while changed:
            changed = False
            for caller, call in calls:
                if not isinstance(call.func, ast.Name):
                    continue
                callee = module_funcs.get(call.func.id)
                if callee is None:
                    continue
                args = callee.args
                positional = [a.arg for a in (*args.posonlyargs, *args.args)]
                passed = [
                    *zip(positional, takewhile(
                        lambda v: not isinstance(v, ast.Starred), call.args
                    )),
                    *((kw.arg, kw.value) for kw in call.keywords if kw.arg),
                ]
                held = self.params[id(callee)]
                for name, value in passed:
                    if name not in held and self.holds(value, caller):
                        held.add(name)
                        changed = True

    def holds(self, node: ast.AST, func: Optional[ast.AST]) -> bool:
        """Whether *node*, evaluated in *func*, can be ``None``."""
        if _is_none(node):
            return True
        return (
            func is not None
            and isinstance(node, ast.Name)
            and node.id in self.params[id(func)]
            and not _rebound_before(func, node.id, node.lineno)
        )


class UnseededRng(Rule):
    id = "unseeded-rng"
    rationale = (
        "Module-global RNGs make every run different; all randomness "
        "must come from a generator seeded by the caller so experiments "
        "and schedules replay exactly."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = collect_imports(ctx.tree)
        calls = _calls_in(ctx.tree)
        maybe_none = _MaybeNone(ctx.tree, calls)
        for func, node in calls:
            resolved = imports.resolve(node.func)
            if resolved is None:
                continue
            message: Optional[str] = None
            if resolved.startswith("numpy.random."):
                tail = resolved.rsplit(".", 1)[1]
                seed = node.args[0] if node.args else next(
                    (kw.value for kw in node.keywords if kw.arg == "seed"),
                    None,
                )
                if tail == "default_rng" and not node.args and not node.keywords:
                    message = (
                        "default_rng() without a seed is entropy-seeded; "
                        "thread an explicit seed through"
                    )
                elif (
                    tail == "default_rng"
                    and seed is not None
                    and maybe_none.holds(seed, func)
                ):
                    message = (
                        f"default_rng({ast.unparse(seed)}) can receive None, "
                        "which seeds from OS entropy; default the seed to a "
                        "fixed value (e.g. 0)"
                    )
                elif tail not in _NP_RANDOM_OK:
                    message = (
                        f"np.random.{tail}() uses numpy's global RNG; "
                        "use a seeded np.random.default_rng(seed)"
                    )
            elif (
                resolved.startswith("random.")
                and resolved.rsplit(".", 1)[1] in _STDLIB_RANDOM
            ):
                message = (
                    f"{resolved}() uses the process-global stdlib RNG; "
                    "use a seeded random.Random(seed) or numpy generator"
                )
            if message is not None:
                yield ctx.finding(self.id, node, message)


class WallClockInResultPath(Rule):
    id = "wall-clock-in-result-path"
    rationale = (
        "Orderings, dendrograms, and analysis results must be pure "
        "functions of (graph, seed); clocks belong to the obs layer so "
        "results never depend on when or how fast they ran."
    )
    scope = (
        "repro/graph/",
        "repro/rabbit/",
        "repro/order/",
        "repro/community/",
        "repro/analysis/",
        "repro/cache/",
        "repro/metrics/",
        "repro/parallel/",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = collect_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved in _WALL_CLOCK:
                yield ctx.finding(
                    self.id,
                    node,
                    f"{resolved}() read on a result path; move timing to "
                    "repro.obs spans/metrics",
                )


register_rule(UnsortedSetIteration())
register_rule(UnseededRng())
register_rule(WallClockInResultPath())
