"""The project-specific invariants ``repro-lint`` enforces.

Each rule guards a contract the PermDNN stack is built on (see
``docs/STATIC_ANALYSIS.md`` for the full table with rationale and
examples).  Codes are stable: tests, ``# noqa`` comments, and CI reports
refer to them.

| Code   | Invariant                                                    |
| ------ | ------------------------------------------------------------ |
| RPR001 | plan/value private state is mutated only inside ``core/``     |
| RPR002 | nn/hw/serve matmuls on PD state go through the PD kernel      |
| RPR003 | CSR index arrays carry an explicit, never-int64 dtype         |
| RPR004 | ``SystemExit`` is raised only by ``repro.cli``                |
| RPR005 | no bare ``except:`` and no silently-swallowed exceptions      |
| RPR006 | ``np.empty`` buffers in kernels are unconditionally filled    |
| RPR007 | serving/serialization never copies aliased parameter storage  |
| RPR008 | read-only buffer flags are lifted only by core/ and debug/    |
| RPR009 | buffer allocations in the core/kernel.py kernel pin a dtype   |
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.framework import (
    FileContext,
    Finding,
    Rule,
    call_keyword,
    dotted_name,
    name_hints,
    register,
    statements_with_conditionality,
    walk_functions,
)

# Private attributes making up a matrix's cached-plan/value state.  The
# only sanctioned mutation points live in ``src/repro/core/`` (the
# constructors, the ``data`` property setter, ``like``, ...).
_PRIVATE_STATE_ATTRS = frozenset(
    {"_plan", "_data", "_coo_cache", "_ks", "_shape",
     "_value_dtype", "_fixed_point"}
)

# Identifier fragments that mark an expression as (probably) structured
# PD-matrix state.  Heuristic by design; false positives carry a noqa.
_MATRIX_HINTS = frozenset({"matrix", "bpd", "plane", "shard", "shards"})

_NUMPY_CONSTRUCTORS = frozenset(
    {"zeros", "empty", "arange", "array", "asarray", "full", "ones"}
)

# Names an index-array variable can take on a CSR path.
_CSR_INDEX_NAMES = ("indptr", "indices")


def _is_csr_index_name(name: str) -> bool:
    lowered = name.lower()
    return any(
        lowered == token or lowered.endswith(f"_{token}")
        for token in _CSR_INDEX_NAMES
    )


def _matrix_like(node: ast.AST) -> bool:
    hints = name_hints(node)
    return any(
        hint in _MATRIX_HINTS or hint.endswith("matrix") for hint in hints
    )


def _is_np_call(node: ast.AST, *names: str) -> bool:
    """True when ``node`` is ``np.<name>(...)`` / ``numpy.<name>(...)``."""
    if not isinstance(node, ast.Call):
        return False
    dotted = dotted_name(node.func)
    if dotted is None:
        return False
    return any(dotted in (f"np.{n}", f"numpy.{n}") for n in names)


@register
class PrivateStateMutationRule(Rule):
    """RPR001: `_plan`/`_data` (and friends) are mutated only in core/."""

    code = "RPR001"
    name = "private-state-mutation"
    invariant = (
        "index-plan and value-storage private attributes (`_plan`, `_data`, "
        "`_coo_cache`, `_ks`, `_shape`) are assigned only inside "
        "`src/repro/core/`"
    )
    rationale = (
        "a matrix's structure is fixed when it is built, so its plan is "
        "never invalidated; an ad-hoc `obj._plan = None` or "
        "`obj._data = arr` elsewhere silently breaks the cache and aliasing "
        "contracts"
    )
    exempt = ("src/repro/core/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                # unwrap starred/tuple targets
                parts = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for part in parts:
                    inner = part
                    if isinstance(inner, ast.Starred):
                        inner = inner.value
                    if isinstance(inner, ast.Subscript):
                        inner = inner.value
                    if (
                        isinstance(inner, ast.Attribute)
                        and inner.attr in _PRIVATE_STATE_ATTRS
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"mutation of private matrix state "
                            f"`.{inner.attr}` outside core/ -- a plan is "
                            f"never invalidated; assign values through the "
                            f"`data` property or build a new matrix",
                        )


@register
class BackendBypassRule(Rule):
    """RPR002: PD products in nn/hw/serve go through the PD kernel."""

    code = "RPR002"
    name = "backend-bypass"
    invariant = (
        "nn/, hw/ and serve/ never multiply structured-matrix state with "
        "raw `@`, `np.dot`/`np.matmul`, or `scipy.sparse` products; "
        "serve/ additionally bans *every* raw `@` and the matmul-shaped "
        "numpy reductions (`einsum`/`tensordot`/`inner`/`vdot`)"
    )
    rationale = (
        "every PD product must go through the matrix's products "
        "(`repro.core.kernel`) so the COO views over the plan's int32 "
        "coordinates and the plan cache apply uniformly; raw products "
        "silently fork the execution path.  Served "
        "stages are held to the strict form: everything a stage multiplies "
        "is shard state by construction, so name heuristics would only "
        "hide bypasses"
    )
    scope = (
        "src/repro/nn/",
        "src/repro/hw/",
        "src/repro/serve/",
        "src/repro/compress/",
    )
    # The baseline simulators (EIE, CirCNN) model *other accelerators'*
    # storage formats -- bypassing the PD kernel is their entire point.
    exempt = ("src/repro/hw/baselines/",)

    # Under these prefixes, every `@` product and matmul-shaped numpy
    # reduction is a finding -- no matrix-likeness heuristic.
    _STRICT_PREFIXES = ("src/repro/serve/",)
    _STRICT_NP_REDUCTIONS = ("einsum", "tensordot", "inner", "vdot")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        strict = any(
            ctx.rel.startswith(prefix) for prefix in self._STRICT_PREFIXES
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("scipy"):
                        yield self.finding(
                            ctx, node,
                            "scipy import outside core/ -- sparse products "
                            "belong to the PD kernel",
                        )
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").startswith("scipy"):
                    yield self.finding(
                        ctx, node,
                        "scipy import outside core/ -- sparse products "
                        "belong to the PD kernel",
                    )
            elif _is_np_call(node, "dot", "matmul"):
                yield self.finding(
                    ctx, node,
                    "raw np.dot/np.matmul -- structured products must "
                    "go through the PD kernel",
                )
            elif strict and _is_np_call(node, *self._STRICT_NP_REDUCTIONS):
                yield self.finding(
                    ctx, node,
                    "matmul-shaped numpy reduction in serve/ -- served "
                    "stages drive the engine (the PD kernel), never "
                    "multiply on the host",
                )
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.MatMult
            ):
                if strict:
                    yield self.finding(
                        ctx, node,
                        "raw `@` product in serve/ -- served stages drive "
                        "the engine (the PD kernel), never multiply "
                        "on the host",
                    )
                elif _matrix_like(node.left) or _matrix_like(node.right):
                    yield self.finding(
                        ctx, node,
                        "raw `@` product on structured-matrix state -- use "
                        "`.matmat`/`.rmatmat`/`.matvec` (the PD kernel)",
                    )


@register
class CsrIndexDtypeRule(Rule):
    """RPR003: CSR index arrays get an explicit dtype and never int64."""

    code = "RPR003"
    name = "csr-index-dtype"
    invariant = (
        "arrays named `indptr`/`indices` are constructed with an explicit "
        "dtype expression and never hard-coded to int64 (or cast to it)"
    )
    rationale = (
        "the CSR skeletons are int32 whenever dimensions permit (half the "
        "index memory traffic of int64); an untyped or int64 construction "
        "silently doubles spmm index bytes"
    )
    scope = ("src/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            names = [
                target.id
                for target in node.targets
                if isinstance(target, ast.Name) and _is_csr_index_name(target.id)
            ]
            if not names:
                continue
            value = node.value
            # foo.astype(np.int64) / .astype(int)
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "astype"
                and value.args
                and self._is_int64_literal(value.args[0])
            ):
                yield self.finding(
                    ctx, node,
                    f"`{names[0]}` cast to a hard-coded wide integer dtype "
                    f"-- CSR index arrays stay int32 when dimensions fit",
                )
                continue
            if _is_np_call(value, *_NUMPY_CONSTRUCTORS):
                dtype = call_keyword(value, "dtype")
                if dtype is None:
                    yield self.finding(
                        ctx, node,
                        f"`{names[0]}` constructed without an explicit "
                        f"dtype -- CSR index arrays must state their index "
                        f"type (int32 when dimensions fit)",
                    )
                elif self._is_int64_literal(dtype):
                    yield self.finding(
                        ctx, node,
                        f"`{names[0]}` hard-coded to int64 -- CSR index "
                        f"arrays stay int32 when dimensions fit",
                    )

    @staticmethod
    def _is_int64_literal(node: ast.expr) -> bool:
        dotted = dotted_name(node)
        if dotted in ("np.int64", "numpy.int64", "int"):
            return True
        return isinstance(node, ast.Constant) and node.value == "int64"


@register
class SystemExitRule(Rule):
    """RPR004: only ``repro.cli`` turns errors into ``SystemExit``."""

    code = "RPR004"
    name = "systemexit-outside-cli"
    invariant = (
        "`raise SystemExit` / `sys.exit()` appear only in `src/repro/cli.py`"
    )
    rationale = (
        "library code raises typed exceptions so it stays usable as a "
        "library; only the CLI boundary converts them for terminal users"
    )
    scope = ("src/repro/",)
    exempt = ("src/repro/cli.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if dotted_name(exc) == "SystemExit":
                    yield self.finding(
                        ctx, node,
                        "raise SystemExit outside cli.py -- raise a typed "
                        "library exception instead",
                    )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted in ("sys.exit", "exit", "quit"):
                    yield self.finding(
                        ctx, node,
                        f"`{dotted}()` outside cli.py -- library code must "
                        f"not terminate the process",
                    )


@register
class ExceptionSwallowRule(Rule):
    """RPR005: no bare ``except:`` and no broad handlers that only pass."""

    code = "RPR005"
    name = "exception-swallow"
    invariant = (
        "no bare `except:`; no `except Exception`/`BaseException` handler "
        "whose entire body is `pass`"
    )
    rationale = (
        "a swallowed exception hides broken invariants (the aliasing and "
        "plan contracts fail silently); handlers must be typed and act"
    )

    _BROAD = ("Exception", "BaseException")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare `except:` -- catch a typed exception",
                )
                continue
            if self._is_broad(node.type) and self._only_passes(node.body):
                yield self.finding(
                    ctx, node,
                    "broad exception handler silently swallows the error "
                    "-- narrow the type or handle it",
                )

    def _is_broad(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(elt) for elt in node.elts)
        return dotted_name(node) in self._BROAD

    @staticmethod
    def _only_passes(body: list[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in body
        )


@register
class EmptyPartialWriteRule(Rule):
    """RPR006: ``np.empty`` kernels buffers must be unconditionally filled."""

    code = "RPR006"
    name = "empty-partial-write"
    invariant = (
        "an `np.empty`/`np.empty_like` buffer in kernel code is filled by "
        "at least one unconditional write (or handed to a kernel call) "
        "before it can escape"
    )
    rationale = (
        "uninitialized memory behind an `if` is a heisenbug: results "
        "contain garbage exactly when the guard fails; kernels must write "
        "every slot or start from zeros"
    )
    scope = (
        "src/repro/core/kernel.py",
        "src/repro/hw/engine.py",
        "src/repro/serve/",
        "src/repro/nn/layers/",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in walk_functions(ctx.tree):
            yield from self._check_block(ctx, func.body)

    def _check_block(self, ctx, body: list[ast.stmt]) -> Iterator[Finding]:
        """Check one statement block; conditionality is judged *relative*
        to the ``np.empty`` assignment's own block, so an allocation and
        its loop-fill living together inside an ``else`` branch are fine.
        """
        for idx, stmt in enumerate(body):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and _is_np_call(stmt.value, "empty", "empty_like")
            ):
                target = stmt.targets[0].id
                suffix = list(
                    statements_with_conditionality(body[idx + 1:])
                )
                if not self._unconditionally_filled(target, suffix):
                    yield self.finding(
                        ctx, stmt,
                        f"`{target}` = np.empty(...) is never "
                        f"unconditionally filled -- a guarded partial write "
                        f"leaks uninitialized memory; write every slot or "
                        f"use np.zeros",
                    )
            # Recurse into nested blocks (but not nested functions, which
            # check() visits on its own).
            for child_body in self._child_blocks(stmt):
                yield from self._check_block(ctx, child_body)

    @staticmethod
    def _child_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return []
        blocks = []
        for attr in ("body", "orelse", "finalbody"):
            child = getattr(stmt, attr, None)
            if child:
                blocks.append(child)
        for handler in getattr(stmt, "handlers", []) or []:
            blocks.append(handler.body)
        return blocks

    @staticmethod
    def _unconditionally_filled(target: str, entries) -> bool:
        for stmt, conditional in entries:
            if conditional:
                continue
            # target[...] = ... / target[...] += ...
            stores = []
            if isinstance(stmt, ast.Assign):
                stores = stmt.targets
            elif isinstance(stmt, ast.AugAssign):
                stores = [stmt.target]
            for store in stores:
                if (
                    isinstance(store, ast.Subscript)
                    and isinstance(store.value, ast.Name)
                    and store.value.id == target
                ):
                    return True
            # handed to a kernel call that fills it (out= style)
            if isinstance(stmt, (ast.Expr, ast.Assign)):
                value = stmt.value
                if isinstance(value, ast.Call):
                    operands = list(value.args) + [
                        kw.value for kw in value.keywords
                    ]
                    if any(
                        isinstance(arg, ast.Name) and arg.id == target
                        for arg in operands
                    ):
                        return True
        return False


@register
class AliasBreakingCopyRule(Rule):
    """RPR007: serving/serialization keep parameter storage aliased."""

    code = "RPR007"
    name = "alias-breaking-copy"
    invariant = (
        "serve/ and nn/serialization.py never call `.copy()`, "
        "`.flatten()`, `np.copy`, `np.ascontiguousarray` or "
        "`.reshape(-1)` on parameter/shard storage"
    )
    rationale = (
        "the serving stack's zero-copy story (live weight updates visible "
        "to every shard engine) rests on `data` staying a view of parent "
        "storage; one silent copy decouples the weights being served from "
        "the weights being trained"
    )
    scope = ("src/repro/serve/", "src/repro/nn/serialization.py")

    _COPY_METHODS = ("copy", "flatten")
    _STORAGE_HINTS = frozenset({"data", "value", "_data"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                method = node.func.attr
                receiver = node.func.value
                if method in self._COPY_METHODS and self._is_storage(receiver):
                    yield self.finding(
                        ctx, node,
                        f"`.{method}()` on parameter/shard storage breaks "
                        f"the aliasing contract -- keep a view",
                    )
                elif method == "reshape" and self._is_storage(receiver):
                    if self._is_flattening(node):
                        yield self.finding(
                            ctx, node,
                            "`.reshape(-1)` on parameter/shard storage may "
                            "silently copy non-contiguous views -- keep the "
                            "(mb, nb, p) layout or use `.ravel()` plus an "
                            "explicit contiguity check",
                        )
            if _is_np_call(node, "copy", "ascontiguousarray"):
                if node.args and self._is_storage(node.args[0]):
                    yield self.finding(
                        ctx, node,
                        "numpy copy of parameter/shard storage breaks the "
                        "aliasing contract -- keep a view",
                    )

    def _is_storage(self, node: ast.AST) -> bool:
        hints = name_hints(node)
        if hints & self._STORAGE_HINTS:
            return True
        return any("shard" in hint or "param" in hint for hint in hints)

    @staticmethod
    def _is_flattening(node: ast.Call) -> bool:
        args = node.args
        if len(args) == 1 and isinstance(args[0], ast.Tuple):
            args = args[0].elts
        return (
            len(args) == 1
            and isinstance(args[0], ast.UnaryOp)
            and isinstance(args[0].op, ast.USub)
            and isinstance(args[0].operand, ast.Constant)
            and args[0].operand.value == 1
        )


@register
class SetflagsUnfreezeRule(Rule):
    """RPR008: read-only buffers are unfrozen only by debug/."""

    code = "RPR008"
    name = "setflags-unfreeze"
    invariant = (
        "`setflags(write=True)` / `flags.writeable = True` appear only in "
        "`src/repro/debug/`"
    )
    rationale = (
        "plan arrays and sanitizer-frozen buffers are read-only on "
        "purpose; lifting the flag anywhere but the sanitizer's own "
        "restore defeats both the shared-plan immutability and the "
        "aliasing sanitizer (no core path writes a frozen buffer)"
    )
    exempt = ("src/repro/debug/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setflags"
            ):
                write = call_keyword(node, "write")
                if (
                    isinstance(write, ast.Constant) and bool(write.value)
                ):
                    yield self.finding(
                        ctx, node,
                        "setflags(write=True) outside debug/ unfreezes a "
                        "shared read-only buffer",
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "writeable"
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr == "flags"
                        and isinstance(node.value, ast.Constant)
                        and bool(node.value.value)
                    ):
                        yield self.finding(
                            ctx, node,
                            "flags.writeable = True outside debug/ "
                            "unfreezes a shared read-only buffer",
                        )


@register
class DtypelessAllocationRule(Rule):
    """RPR009: kernel buffer allocations always pin an explicit dtype."""

    code = "RPR009"
    name = "dtypeless-allocation"
    invariant = (
        "`np.zeros`/`np.empty`/`np.ones`/`np.full` in the kernel module "
        "`src/repro/core/kernel.py` always pass a `dtype`"
    )
    rationale = (
        "a dtype-less allocation defaults to float64, which silently "
        "upcasts float32/int16 value storage the first time a kernel "
        "writes into it; `*_like` constructors inherit the source dtype "
        "and stay exempt"
    )
    scope = ("src/repro/core/kernel.py",)

    # Positional index where `dtype` lands per constructor signature:
    # zeros/empty/ones take (shape, dtype, ...); full takes
    # (shape, fill_value, dtype, ...).
    _ALLOCATORS = {"zeros": 1, "empty": 1, "ones": 1, "full": 2}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not _is_np_call(node, *self._ALLOCATORS):
                continue
            name = dotted_name(node.func)
            assert name is not None  # _is_np_call resolved it
            dtype_pos = self._ALLOCATORS[name.rpartition(".")[2]]
            if (
                call_keyword(node, "dtype") is None
                and len(node.args) <= dtype_pos
            ):
                yield self.finding(
                    ctx, node,
                    f"`{name}(...)` without `dtype=` allocates float64 and "
                    "silently upcasts reduced-precision value storage -- "
                    "pass the kernel's compute dtype explicitly",
                )
