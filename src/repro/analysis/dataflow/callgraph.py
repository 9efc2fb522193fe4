"""Module-level call graph with concurrent worker-entry-point roots.

Call resolution is deliberately name-based and best-effort (documented
in DESIGN.md §7 as a soundness limit): a call is linked when the callee
can be identified as

* a nested ``def`` in an enclosing scope, a module-level function, or
  an imported program function (``from m import f`` / ``m.f``);
* ``self.method()`` / ``cls.method()`` against the enclosing class;
* ``obj.method()`` when exactly one class in the whole program defines
  ``method`` (the unique-method heuristic — skipped for common
  container verbs so ``list.append`` never links to a class method).

Roots are the places concurrency starts: the first argument of any
``.map(...)``/``.submit(...)`` call, ``initializer=`` keywords on pool
constructors, ``target=`` keywords on ``threading.Thread``, anything
listed under ``concurrency-roots`` in ``[tool.repro-analysis]``, and —
one level of indirection — functions passed into a *spawn-through*
parameter (a parameter the callee itself hands to ``.map``/``.submit``),
so a worker handed to a generic ``run_chunks(fn, …)`` helper is found.
Every root is treated as running on at least two concurrent workers:
pool targets are replicated by construction, and a single spawned
thread still runs concurrently with its spawner.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.config import AnalysisConfig
from repro.analysis.dataflow.program import FunctionInfo, ModuleInfo, Program

__all__ = ["CallGraph", "RootInfo", "build_call_graph", "resolve_call"]

#: Method names too generic for the unique-method heuristic — linking
#: ``something.get()`` to an arbitrary class method would be noise.
_COMMON_METHODS = frozenset(
    {
        "get", "put", "add", "append", "extend", "insert", "remove", "pop",
        "clear", "update", "keys", "values", "items", "copy", "close",
        "open", "read", "write", "join", "start", "run", "send", "recv",
        "acquire", "release", "wait", "notify", "notify_all", "submit",
        "map", "shutdown", "result", "done", "cancel", "set", "is_set",
        "format", "split", "strip", "encode", "decode", "sort", "reverse",
        "validate", "check", "info", "to_dict", "to_json",
    }
)

_SPAWN_METHODS = frozenset({"map", "submit"})
_SPAWN_KEYWORDS = frozenset({"initializer", "target"})


@dataclass(frozen=True)
class RootInfo:
    """One concurrent entry point plus how it was recognized."""

    function: FunctionInfo
    reason: str
    site_line: int


@dataclass
class CallGraph:
    program: Program
    #: caller ref -> [(call node, callee info)]
    edges: Dict[str, List[Tuple[ast.Call, FunctionInfo]]]
    roots: List[RootInfo]

    def callees(
        self, function: FunctionInfo
    ) -> List[Tuple[ast.Call, FunctionInfo]]:
        return self.edges.get(function.ref, [])


def _import_target(
    program: Program, module: ModuleInfo, dotted: str
) -> Optional[FunctionInfo]:
    """Resolve ``pkg.mod.func`` (or ``pkg.mod`` + attr) to a function."""
    if ":" in dotted:
        return program.functions.get(dotted)
    head, _, tail = dotted.rpartition(".")
    target_module = program.modules.get(head)
    if target_module is not None and tail in target_module.toplevel:
        return target_module.toplevel[tail]
    return None


def resolve_call(
    program: Program,
    caller: Optional[FunctionInfo],
    module: ModuleInfo,
    func: ast.AST,
) -> Optional[FunctionInfo]:
    """Best-effort resolution of a callee expression to a program function."""
    if isinstance(func, ast.Name):
        scope = caller
        while scope is not None:
            if func.id in scope.children:
                return scope.children[func.id]
            scope = scope.parent
        if func.id in module.toplevel:
            return module.toplevel[func.id]
        dotted = module.imports.get(func.id)
        if dotted is not None:
            return _import_target(program, module, dotted)
        return None
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            if value.id in ("self", "cls") and caller is not None:
                cls = caller.cls
                if cls is None and caller.parent is not None:
                    cls = caller.parent.cls
                if cls is not None:
                    method = module.classes.get(cls, {}).get(func.attr)
                    if method is not None:
                        return method
            dotted = module.imports.get(value.id)
            if dotted is not None:
                resolved = _import_target(
                    program, module, f"{dotted}.{func.attr}"
                )
                if resolved is not None:
                    return resolved
        if func.attr not in _COMMON_METHODS:
            candidates = program.method_index.get(func.attr, [])
            if len(candidates) == 1:
                return candidates[0]
    return None


def _spawn_param_indices(function: FunctionInfo) -> Set[int]:
    """Positional indices of params this function hands to a pool."""
    params = function.positional_params()
    if not params:
        return set()
    index_of = {name: i for i, name in enumerate(params)}
    spawned: Set[int] = set()
    for node in ast.walk(function.node):
        if not isinstance(node, ast.Call):
            continue
        targets: List[ast.AST] = []
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SPAWN_METHODS
            and node.args
        ):
            targets.append(node.args[0])
        targets.extend(
            kw.value for kw in node.keywords if kw.arg in _SPAWN_KEYWORDS
        )
        for target in targets:
            if isinstance(target, ast.Name) and target.id in index_of:
                spawned.add(index_of[target.id])
    return spawned


def _iter_calls_with_scope(
    module: ModuleInfo,
) -> Iterator[Tuple[Optional[FunctionInfo], ast.Call]]:
    """Every Call in the module, paired with its enclosing function."""

    def walk(node: ast.AST, scope: Optional[FunctionInfo]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                inner = _info_for_node(module, child) or scope
            if isinstance(child, ast.Call):
                yield inner, child
            yield from walk(child, inner)

    yield from walk(module.source.tree, None)


def _info_for_node(
    module: ModuleInfo, node: ast.AST
) -> Optional[FunctionInfo]:
    for info in module.functions.values():
        if info.node is node:
            return info
    return None


def _resolve_worker_arg(
    program: Program,
    scope: Optional[FunctionInfo],
    module: ModuleInfo,
    target: ast.AST,
) -> Optional[FunctionInfo]:
    if isinstance(target, ast.Lambda):
        return _info_for_node(module, target)
    if isinstance(target, (ast.Name, ast.Attribute)):
        return resolve_call(program, scope, module, target)
    return None


def build_call_graph(
    program: Program, config: AnalysisConfig
) -> CallGraph:
    edges: Dict[str, List[Tuple[ast.Call, FunctionInfo]]] = {}
    roots: Dict[str, RootInfo] = {}

    def add_root(info: Optional[FunctionInfo], reason: str, line: int) -> None:
        if info is not None and info.ref not in roots:
            roots[info.ref] = RootInfo(
                function=info, reason=reason, site_line=line
            )

    # Pass 1: call edges, direct roots.
    for module in program.modules.values():
        for scope, call in _iter_calls_with_scope(module):
            callee = resolve_call(program, scope, module, call.func)
            if callee is not None and scope is not None:
                edges.setdefault(scope.ref, []).append((call, callee))
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _SPAWN_METHODS
                and call.args
            ):
                worker = _resolve_worker_arg(
                    program, scope, module, call.args[0]
                )
                add_root(
                    worker, f"passed to .{call.func.attr}()", call.lineno
                )
            for kw in call.keywords:
                if kw.arg in _SPAWN_KEYWORDS:
                    worker = _resolve_worker_arg(
                        program, scope, module, kw.value
                    )
                    add_root(worker, f"{kw.arg}= entry point", call.lineno)

    # Pass 2: spawn-through parameters, to a fixpoint — a function whose
    # parameter reaches .map/.submit makes *its* callers' function-valued
    # arguments at that position worker roots too.
    spawn_params: Dict[str, Set[int]] = {
        ref: _spawn_param_indices(info)
        for ref, info in program.functions.items()
        if _spawn_param_indices(info)
    }
    changed = True
    while changed:
        changed = False
        for module in program.modules.values():
            for scope, call in _iter_calls_with_scope(module):
                callee = resolve_call(program, scope, module, call.func)
                if callee is None or callee.ref not in spawn_params:
                    continue
                indices = spawn_params[callee.ref]
                params = callee.positional_params()
                # Method calls bind self implicitly: shift caller args.
                offset = (
                    1
                    if callee.cls is not None
                    and params
                    and params[0] in ("self", "cls")
                    and not (
                        isinstance(call.func, ast.Name)
                        or isinstance(call.func, ast.Attribute)
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id
                        in module.imports
                    )
                    else 0
                )
                for index in indices:
                    arg_pos = index - offset
                    if not 0 <= arg_pos < len(call.args):
                        continue
                    arg = call.args[arg_pos]
                    worker = _resolve_worker_arg(program, scope, module, arg)
                    if worker is not None and worker.ref not in roots:
                        add_root(
                            worker,
                            f"flows into spawn-through parameter of "
                            f"{callee.qualname}()",
                            call.lineno,
                        )
                        changed = True
                    if (
                        scope is not None
                        and isinstance(arg, ast.Name)
                        and arg.id in scope.positional_params()
                    ):
                        mine = spawn_params.setdefault(scope.ref, set())
                        pos = scope.positional_params().index(arg.id)
                        if pos not in mine:
                            mine.add(pos)
                            changed = True

    # Pass 3: configured extra roots (module:qualname or qualname suffix).
    for entry in config.concurrency_roots:
        for ref, info in program.functions.items():
            if ref == entry or ref.endswith(entry) or info.qualname == entry:
                add_root(info, "configured concurrency root", info.node.lineno)

    ordered = sorted(roots.values(), key=lambda r: r.function.ref)
    return CallGraph(program=program, edges=edges, roots=ordered)
