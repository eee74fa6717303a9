"""Index-dtype discipline rules.

Every CSR/entry-pool index array in this codebase is int64 by contract
(``graph/csr.py``, ``rabbit/native.py``): int32 silently overflows past
2**31 slots at production scale, platform-``int`` is 32-bit on some
targets, and float arrays sneak in through true division and then get
used as indices with value-dependent rounding.  Two rules:

* ``int32-index`` — no 32-bit or platform-dependent integer dtypes
  (``np.int32``/``np.uint32``, ``dtype=int``, ``astype(int)``) in the
  numeric core.
* ``float-index-array`` — no float-valued arrays bound to index-ish
  names (``indptr``, ``indices``, ``perm``, ``offsets``, ...), and no
  ``np.arange`` fed through true division (``/`` yields float64; index
  arithmetic must use ``//`` or exact ceil-division).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.check.astutil import ImportMap, collect_imports, dotted_name
from repro.check.engine import FileContext, Finding, Rule, register_rule

__all__ = ["Int32Index", "FloatIndexArray"]

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

_BAD_INT_DTYPES = {"numpy.int32", "numpy.uint32", "numpy.int16", "numpy.uint16"}

#: name fragments that mark an array as index-valued
_INDEX_TOKENS = (
    "indptr", "indices", "index", "offsets", "offset",
    "perm", "permutation", "ordering",
)

_FLOAT_DTYPES = {"numpy.float64", "numpy.float32", "numpy.float16", "float"}

#: np constructors that default to float64 when dtype is omitted
_FLOAT_DEFAULT_CTORS = {
    "numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full",
}


def _dtype_argument(node: ast.Call) -> Optional[ast.AST]:
    for kw in node.keywords:
        if kw.arg == "dtype":
            return kw.value
    return None


class Int32Index(Rule):
    id = "int32-index"
    rationale = (
        "Index arrays are int64 by contract; 32-bit (or platform-int) "
        "indices overflow at production scale and differ across "
        "platforms, breaking bit-identical reproducibility."
    )
    scope = _NUMERIC_CORE

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = collect_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                resolved = imports.resolve(node)
                if resolved is not None and resolved in _BAD_INT_DTYPES:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"{resolved.replace('numpy', 'np')} in CSR/entry-pool "
                        "code; index arrays are int64 by contract",
                    )
            elif isinstance(node, ast.Call):
                dtype = _dtype_argument(node)
                is_int_builtin = (
                    isinstance(dtype, ast.Name) and dtype.id == "int"
                )
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == "int"
                ):
                    is_int_builtin = True
                if is_int_builtin:
                    yield ctx.finding(
                        self.id,
                        node,
                        "dtype `int` is platform-dependent (32-bit on "
                        "some targets); use np.int64 explicitly",
                    )


def _contains_arange(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = dotted_name(sub.func)
            if func is not None and func.split(".")[-1] == "arange":
                return True
    return False


class FloatIndexArray(Rule):
    id = "float-index-array"
    rationale = (
        "A float64 array feeding index arithmetic rounds "
        "value-dependently and caps exact integers at 2**53; index "
        "domains must stay integral end to end."
    )
    scope = _NUMERIC_CORE

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = collect_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                yield from self._check_assign(ctx, imports, node)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if _contains_arange(node.left) or _contains_arange(node.right):
                    yield ctx.finding(
                        self.id,
                        node,
                        "np.arange under true division `/` produces a "
                        "float64 array; index arithmetic must use `//` "
                        "(or exact ceil-division -(-a // b))",
                    )

    def _check_assign(
        self, ctx: FileContext, imports: ImportMap, node: ast.Assign
    ) -> Iterator[Finding]:
        names = [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ]
        if not any(
            token in name.lower() for name in names for token in _INDEX_TOKENS
        ):
            return
        value = node.value
        if not isinstance(value, ast.Call):
            return
        ctor = imports.resolve(value.func)
        if ctor not in _FLOAT_DEFAULT_CTORS:
            return
        dtype = _dtype_argument(value)
        if dtype is None:
            yield ctx.finding(
                self.id,
                node,
                f"index-named array {names[0]!r} built by "
                f"{ctor.replace('numpy', 'np')} without dtype defaults "
                "to float64; pass dtype=np.int64",
            )
            return
        dtype_name = dotted_name(dtype)
        if dtype_name is not None:
            resolved = imports.resolve(dtype)
            if resolved in _FLOAT_DTYPES or dtype_name == "float":
                yield ctx.finding(
                    self.id,
                    node,
                    f"index-named array {names[0]!r} declared with a "
                    "float dtype; index arrays are int64 by contract",
                )


register_rule(Int32Index())
register_rule(FloatIndexArray())
