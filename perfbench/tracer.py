"""Outside-in span tracing of the repro package's layer boundaries.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the public functions and methods listed in :data:`SPANS` with
wrappers that record one span per call (name, start, end, parent span,
request id) plus a few counters; :meth:`Tracer.uninstall` puts the originals
back.  A function imported by name into another module
(``generate_start_points`` into ``core/optimizer/dosa.py``, ``write_atomic``
into the store and the daemon) is patched in every loaded ``repro`` module
that holds it, so the wrapper is what each caller looks up.

Spans live in memory.  A span's self time is its duration minus the
durations of its child spans; per-thread stacks give the parent links.  The
request id of a span is inherited from its parent unless the call names one
(the daemon's scheduler span and a pool worker's job span both carry the
service job id, which links the worker's span to its daemon-side parent).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: ``(span name, module, attribute path)`` of every timed public call.  The
#: span name is ``<layer>.<call>``.
SPANS = (
    ("autodiff.forward", "repro.autodiff.tape", "Tape.forward"),
    ("autodiff.backward", "repro.autodiff.tape", "Tape.backward"),
    ("autodiff.adam", "repro.autodiff.optim", "Adam.step"),
    ("optimizer.startpoints", "repro.core.optimizer.startpoints",
     "generate_start_points"),
    ("optimizer.startpoints", "repro.core.optimizer.startpoints",
     "predicted_edp_of_mappings"),
    ("dmodel.ordering_reselect", "repro.core.dmodel.loss",
     "best_ordering_per_layer"),
    ("dmodel.rounding_walk", "repro.core.dmodel.factors",
     "MultiStartFactors.rounded_mapping_sets"),
    ("mapping.cosa", "repro.mapping.cosa", "cosa_mapping"),
    ("mapping.hardware_derivation", "repro.mapping.constraints",
     "minimal_hardware_for_mappings"),
    ("mapping.random_mapper", "repro.mapping.random_mapper",
     "random_mapping_for_hardware"),
    ("mapping.random_mapper", "repro.mapping.random_mapper", "random_mapping"),
    ("eval.engine", "repro.eval.engine", "EvaluationEngine.evaluate_many"),
    ("eval.engine", "repro.eval.engine", "EvaluationEngine.evaluate_pairs"),
    ("eval.engine", "repro.eval.engine",
     "EvaluationEngine.evaluate_network_sets"),
    ("eval.batch", "repro.eval.batch", "evaluate_mappings_batched"),
    ("eval.batch", "repro.eval.batch", "evaluate_mapping_spec_pairs"),
    ("search.gp_fit", "repro.search.gp", "GaussianProcessRegressor.fit"),
    ("search.gp_predict", "repro.search.gp",
     "GaussianProcessRegressor.predict"),
    ("search.spend", "repro.search.api", "SearchSession.spend"),
    ("campaign.store_open", "repro.campaign.store", "ResultStore.__init__"),
    ("campaign.store_append", "repro.campaign.store", "ResultStore.append"),
    ("campaign.spill_append", "repro.campaign.store",
     "ResultStore.append_cache_segment"),
    ("campaign.spill_load", "repro.campaign.store",
     "ResultStore.load_cache_segments"),
    ("campaign.job_compute", "repro.campaign.scheduler", "execute_job"),
    ("campaign.scheduler", "repro.campaign.scheduler", "CampaignScheduler.run"),
    # The pool worker's entry point: the per-job boundary inside a worker,
    # where its spans are flushed (workers leave through os._exit, which
    # skips atexit).
    ("campaign.worker_job", "repro.campaign.scheduler", "_pool_run_job"),
    ("utils.atomic_write", "repro.utils.atomic", "write_atomic"),
)


class Span:
    __slots__ = ("name", "parent", "request", "start", "end", "child")

    def __init__(self, name: str, parent: "Span | None", request: str | None,
                 start: float) -> None:
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start
        #: Summed duration of this span's direct children.
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with per-thread parent stacks and counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Graph size (``Tape.num_nodes``) right after each trace.
        self.tape_nodes: list[int] = []
        #: Where pool workers flush their spans after each job (``None``
        #: outside the served workload).
        self.flush_dir: Path | None = None
        self._owner = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.counters = defaultdict(float)
            self.tape_nodes = []
            self._owner = os.getpid()

    def count(self, name: str, delta: float = 1) -> None:
        with self._lock:
            self.counters[name] += delta

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, hook=None):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``hook(args, kwargs)`` runs before the call and returns
        ``(request, after)``: the request id the call serves (``None``
        inherits the parent's) and an optional ``after(result)`` run once the
        span closed, to update counters.
        """
        tracer = self

        # ``wraps`` keeps ``__module__``/``__qualname__``, so the wrapped pool
        # entry point still pickles by reference into the worker.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request, after = hook(args, kwargs) if hook else (None, None)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if request is None and parent is not None:
                request = parent.request
            span = Span(name, parent, request, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.duration
                with tracer._lock:
                    tracer.spans.append(span)
            if after is not None:
                after(result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Patch every call in :data:`SPANS` wherever callers look it up."""
        if self._patches:
            return
        for name, module_name, path in SPANS:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attribute)
            wrapper = self.wrap(name, original, _HOOKS.get(path))
            owners = [owner] if owner_name else [
                loaded for loaded in list(sys.modules.values())
                if getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, attribute, None) is original]
            for target in owners:
                self._patches.append((target, attribute, original))
                setattr(target, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Spans (parents as list indices), counters and graph sizes."""
        with self._lock:
            spans, counters = list(self.spans), dict(self.counters)
            nodes = list(self.tape_nodes)
        index = {id(span): position for position, span in enumerate(spans)}
        return {
            "pid": os.getpid(),
            "spans": [[s.name, index.get(id(s.parent)), s.request, s.start,
                       s.end, s.child] for s in spans],
            "counters": counters,
            "tape_nodes": nodes,
        }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.snapshot()))


TRACER = Tracer()


# --------------------------------------------------------------------------- #
# Per-call hooks: ``path -> hook(args, kwargs) -> (request, after)``
# --------------------------------------------------------------------------- #
def _counting(name: str):
    def hook(args, kwargs):
        return None, lambda result: TRACER.count(name)
    return hook


def _tape_forward(args, kwargs):
    tape = args[0]
    retrace = not tape.recorded

    def after(result) -> None:
        if retrace:
            TRACER.count("autodiff.retraces")
            with TRACER._lock:
                TRACER.tape_nodes.append(tape.num_nodes)
        loss = float(np.asarray(result.data).reshape(-1)[0])
        if not np.isfinite(loss) or loss <= 0:
            TRACER.count("autodiff.bad_loss_steps")
    return None, after


#: Gradients at least this large overflow Adam's squared-gradient moment.
_SQUARE_OVERFLOW = float(np.sqrt(np.finfo(np.float64).max))


def _adam_step(args, kwargs):
    grads = [p.grad for p in args[0].parameters if p.grad is not None]
    TRACER.count("autodiff.gd_steps")
    if not all(np.isfinite(grad).all() for grad in grads):
        TRACER.count("autodiff.nonfinite_grad_steps")
    if any(np.abs(grad).max() >= _SQUARE_OVERFLOW for grad in grads):
        TRACER.count("autodiff.adam_overflow_steps")
    return None, None


def _engine_call(args, kwargs):
    stats = args[0].stats
    hits, misses = stats.hits, stats.misses

    def after(result) -> None:
        TRACER.count("eval.hits", stats.hits - hits)
        TRACER.count("eval.misses", stats.misses - misses)
    return None, after


def _sized(name: str):
    def hook(args, kwargs):
        return None, lambda result: TRACER.count(name, len(result))
    return hook


def _random_mapper(args, kwargs):
    def after(result) -> None:
        TRACER.count("mapping.random_mapper_calls")
        if result is not None:
            TRACER.count("mapping.random_mapper_feasible")
    return None, after


def _spend(args, kwargs):
    count = args[1] if len(args) > 1 else kwargs.get("count", 1)
    return None, lambda result: TRACER.count("search.samples", count)


def _scheduler_run(args, kwargs):
    return getattr(args[0].progress, "tag", None), None


def _worker_job(args, kwargs):
    if os.getpid() != TRACER._owner:
        TRACER.reset()  # first job in a forked worker: drop the parent's spans
    progress = args[5] if len(args) > 5 else kwargs.get("progress")
    tag = getattr(progress, "tag", None)

    def after(result) -> None:
        if TRACER.flush_dir is not None:
            TRACER.dump(TRACER.flush_dir / f"worker-{os.getpid()}-{tag}.json")
        TRACER.reset()
    return tag, after


_HOOKS = {
    "Tape.forward": _tape_forward,
    "Adam.step": _adam_step,
    "generate_start_points": _sized("optimizer.start_points"),
    "predicted_edp_of_mappings": _counting("optimizer.start_draws"),
    "MultiStartFactors.rounded_mapping_sets": _counting("dmodel.rounding_points"),
    "random_mapping_for_hardware": _random_mapper,
    "random_mapping": _counting("mapping.random_draws"),
    "EvaluationEngine.evaluate_many": _engine_call,
    "EvaluationEngine.evaluate_pairs": _engine_call,
    "evaluate_mappings_batched": _sized("eval.batch_mappings"),
    "evaluate_mapping_spec_pairs": _sized("eval.batch_mappings"),
    "SearchSession.spend": _spend,
    "CampaignScheduler.run": _scheduler_run,
    "_pool_run_job": _worker_job,
    "write_atomic": _counting("utils.atomic_writes"),
}
