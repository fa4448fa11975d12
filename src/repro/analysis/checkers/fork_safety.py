"""Fork-safety rules for the forked workers of the campaign and the service.

The ordering contract of ``campaign/scheduler.py``'s ``Worker``, which the
campaign pool and the service daemon both fork: build each worker's
multiprocessing pipe first, fork the worker, and only then start any
thread.  A thread alive at fork time is duplicated into every child as
a corpse — its locks may be held forever and its target never runs — and an
mp pipe or queue created *after* the fork never reaches the child at all,
because fork-inherited objects are copies frozen at fork time.  Both
mistakes pass every single-process test and only deadlock or drop results
under real workers, so they are checked statically here.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, register_checker

#: Thread-spawning constructors (module-qualified via the import table).
_THREAD_CONSTRUCTORS = frozenset({"threading.Thread", "threading.Timer"})

#: Multiprocessing communication primitives the forked workers must inherit.
_MP_PRIMITIVES = frozenset({
    "Queue", "JoinableQueue", "SimpleQueue", "Event", "Lock", "RLock",
    "Semaphore", "BoundedSemaphore", "Condition", "Barrier", "Pipe",
    "Value", "Array",
})

#: Receiver names treated as a multiprocessing context object
#: (``context.Queue()`` where ``context = multiprocessing.get_context(...)``).
_CONTEXT_NAMES = frozenset({"context", "_context", "ctx", "mp_context"})


def _enclosing_function(source, node: ast.AST) -> ast.AST | None:
    current = source.parent(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = source.parent(current)
    return None


def _receiver_name(node: ast.expr) -> str | None:
    """The trailing identifier of a call receiver (``self._context`` -> ``_context``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_mp_primitive(source, node: ast.Call) -> bool:
    dotted = source.dotted_name(node.func)
    if dotted is not None and dotted.startswith("multiprocessing."):
        return dotted.rsplit(".", 1)[-1] in _MP_PRIMITIVES
    if isinstance(node.func, ast.Attribute) \
            and node.func.attr in _MP_PRIMITIVES:
        receiver = _receiver_name(node.func.value)
        return receiver in _CONTEXT_NAMES
    return False


@register_checker
class ThreadBeforeFork(Checker):
    """Thread constructed at import time or in __init__, before workers fork.

    The service constructs its objects, forks its workers inside
    ``start()``, and starts its dispatcher threads afterwards; a campaign
    pool forks its workers inside ``run()``.  A ``threading.Thread`` (or
    ``Timer``) built at module scope or inside an ``__init__`` therefore
    exists *before* the fork, and every forked
    worker inherits a dead copy of it — holding whatever locks it held at
    fork time, never running its target.  That manifests as a worker that
    hangs on its first pipe or lock operation, only under real workers.
    Plain ``threading.Lock``/``Event`` objects are fine in ``__init__``
    (an unheld lock copies harmlessly); it is live *threads* that must not
    predate the fork.

    Fix by deferring thread construction to ``start()`` (after the workers
    are forked), the pattern ``service/daemon.py`` follows.
    """

    rule_id = "fork-thread-early"
    zones = ("campaign", "service")

    def check(self, source) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = source.dotted_name(node.func)
            if dotted not in _THREAD_CONSTRUCTORS:
                continue
            scope = _enclosing_function(source, node)
            if scope is None:
                where = "at module scope"
            elif scope.name == "__init__":
                where = "in __init__"
            else:
                continue
            yield Finding(
                path=source.display, line=node.lineno, rule=self.rule_id,
                message=f"{dotted} constructed {where}, before the worker "
                        "pool forks; build threads in start() after the "
                        "fork")


@register_checker
class MpAfterFork(Checker):
    """Multiprocessing primitive created after construction; workers never see it.

    A forked worker inherits the pipes, queues and locks that existed when
    it forked — anything created later lives only in the parent, so a job
    sent on a post-fork channel is silently never consumed.  Mp primitives
    (``Pipe``, ``Queue``, ``Event``, ... from the ``multiprocessing`` module
    or a ``get_context(...)`` context object) must be created at module
    scope or in ``__init__``, before the fork.

    Fix by moving the primitive's construction into the ``__init__`` that
    forks, as ``campaign/scheduler.py``'s ``Worker`` does: its ``__init__``
    creates the worker's pipe, then forks the worker that reads it.
    """

    rule_id = "fork-mp-late"
    zones = ("campaign", "service")

    def check(self, source) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) \
                    or not _is_mp_primitive(source, node):
                continue
            scope = _enclosing_function(source, node)
            if scope is None or scope.name == "__init__":
                continue
            name = (node.func.attr if isinstance(node.func, ast.Attribute)
                    else ast.unparse(node.func))
            yield Finding(
                path=source.display, line=node.lineno, rule=self.rule_id,
                message=f"multiprocessing {name} created in "
                        f"{scope.name}(), after workers may have forked; "
                        "create it in __init__ so the pool inherits it")
