"""Per-layer metrics: the catalogue and their computation from traced spans.

Times are self times (a span's duration minus its child spans), summed per
layer call and divided by ``per``: one round of searches for ``offline``,
one job for ``served``.  Two exceptions, both per job:
``campaign.job_compute_s`` is the inclusive time of ``execute_job`` (the
search the job runs, so ``service.overhead_*`` = run − compute), and
``campaign.scheduler_s`` counts the daemon's ``CampaignScheduler.run`` minus
the time its pool worker spent on the job, plus the worker's own job glue.
A layer the workload never enters reads 0.
"""

from __future__ import annotations

from collections import defaultdict

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("autodiff.forward_s", "s"),
    ("autodiff.backward_s", "s"),
    ("autodiff.adam_s", "s"),
    ("autodiff.gd_steps_per_s", "1/s"),
    ("autodiff.retraces", "count"),
    ("autodiff.tape_nodes", "count"),
    ("autodiff.bad_loss_steps", "count"),
    ("autodiff.nonfinite_grad_steps", "count"),
    ("autodiff.adam_overflow_steps", "count"),
    ("optimizer.startpoints_s", "s"),
    ("optimizer.startpoint_accept_ratio", "1"),
    ("optimizer.descent_gain", "1"),
    ("optimizer.descent_gain_min", "1"),
    ("dmodel.ordering_reselect_s", "s"),
    ("dmodel.rounding_walk_s", "s"),
    ("dmodel.rounding_points", "count"),
    ("mapping.cosa_s", "s"),
    ("mapping.hardware_derivation_s", "s"),
    ("mapping.random_mapper_s", "s"),
    ("mapping.random_mapper_calls", "count"),
    ("mapping.random_mapper_feasible_ratio", "1"),
    ("eval.engine_s", "s"),
    ("eval.batch_s", "s"),
    ("eval.requests", "count"),
    ("eval.batch_mappings", "count"),
    ("eval.cache_hit_ratio", "1"),
    ("search.gp_fit_s", "s"),
    ("search.gp_predict_s", "s"),
    ("search.spend_s", "s"),
    ("search.samples", "count"),
    ("campaign.store_open_s", "s"),
    ("campaign.store_append_s", "s"),
    ("campaign.spill_append_s", "s"),
    ("campaign.spill_load_s", "s"),
    ("campaign.job_compute_s", "s"),
    ("campaign.scheduler_s", "s"),
    ("utils.atomic_writes_per_job", "count"),
    ("utils.atomic_write_s", "s"),
    ("service.jobs", "count"),
    ("service.submit_p50_s", "s"),
    ("service.submit_p95_s", "s"),
    ("service.queue_wait_p50_s", "s"),
    ("service.queue_wait_p95_s", "s"),
    ("service.run_p50_s", "s"),
    ("service.run_p95_s", "s"),
    ("service.overhead_p50_s", "s"),
    ("service.overhead_p95_s", "s"),
    ("service.deliver_p50_s", "s"),
    ("service.deliver_p95_s", "s"),
    ("service.result_fetch_p50_s", "s"),
    ("service.result_fetch_p95_s", "s"),
    ("service.cache_hit_ratio", "1"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead", "1"),
)

#: Span name -> metric holding the span's summed self time.
SELF_TIME = {
    "autodiff.forward": "autodiff.forward_s",
    "autodiff.backward": "autodiff.backward_s",
    "autodiff.adam": "autodiff.adam_s",
    "optimizer.startpoints": "optimizer.startpoints_s",
    "dmodel.ordering_reselect": "dmodel.ordering_reselect_s",
    "dmodel.rounding_walk": "dmodel.rounding_walk_s",
    "mapping.cosa": "mapping.cosa_s",
    "mapping.hardware_derivation": "mapping.hardware_derivation_s",
    "mapping.random_mapper": "mapping.random_mapper_s",
    "eval.engine": "eval.engine_s",
    "eval.batch": "eval.batch_s",
    "search.gp_fit": "search.gp_fit_s",
    "search.gp_predict": "search.gp_predict_s",
    "search.spend": "search.spend_s",
    "campaign.store_open": "campaign.store_open_s",
    "campaign.store_append": "campaign.store_append_s",
    "campaign.spill_append": "campaign.spill_append_s",
    "campaign.spill_load": "campaign.spill_load_s",
    "utils.atomic_write": "utils.atomic_write_s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def from_snapshots(snapshots: list[dict], per: int) -> dict[str, float]:
    """Per-layer values from tracer snapshots (see ``Tracer.snapshot``).

    The offline root span ``bench.search`` and, in a pool worker,
    ``campaign.job_compute`` leave as self time only what no traced layer
    covers; that residue is ``bench.unattributed_s``.
    """
    self_time: dict[str, float] = defaultdict(float)
    duration: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    nodes: list[int] = []
    for snapshot in snapshots:
        for name, _parent, _request, start, end, child in snapshot["spans"]:
            duration[name] += end - start
            self_time[name] += end - start - child
        for name, value in snapshot["counters"].items():
            counters[name] += value
        nodes.extend(snapshot["tape_nodes"])

    values = {metric: self_time[span] / per for span, metric in SELF_TIME.items()}
    descent = (self_time["autodiff.forward"] + self_time["autodiff.backward"]
               + self_time["autodiff.adam"])
    hits, misses = counters["eval.hits"], counters["eval.misses"]
    values.update({
        "autodiff.gd_steps_per_s": _ratio(counters["autodiff.gd_steps"], descent),
        "autodiff.retraces": counters["autodiff.retraces"] / per,
        "autodiff.tape_nodes": _ratio(sum(nodes), len(nodes)),
        "autodiff.bad_loss_steps": counters["autodiff.bad_loss_steps"] / per,
        "autodiff.nonfinite_grad_steps":
            counters["autodiff.nonfinite_grad_steps"] / per,
        "autodiff.adam_overflow_steps":
            counters["autodiff.adam_overflow_steps"] / per,
        "optimizer.startpoint_accept_ratio": _ratio(
            counters["optimizer.start_points"], counters["optimizer.start_draws"]),
        "dmodel.rounding_points": counters["dmodel.rounding_points"] / per,
        "mapping.random_mapper_calls":
            counters["mapping.random_mapper_calls"] / per,
        "mapping.random_mapper_feasible_ratio": _ratio(
            counters["mapping.random_mapper_feasible"],
            counters["mapping.random_draws"]),
        "eval.requests": (hits + misses) / per,
        "eval.batch_mappings": counters["eval.batch_mappings"] / per,
        "eval.cache_hit_ratio": _ratio(hits, hits + misses),
        "search.samples": counters["search.samples"] / per,
        "campaign.job_compute_s": duration["campaign.job_compute"] / per,
        "campaign.scheduler_s": (self_time["campaign.scheduler"]
                                 - duration["campaign.worker_job"]
                                 + self_time["campaign.worker_job"]) / per,
        "utils.atomic_writes_per_job": counters["utils.atomic_writes"] / per,
        "bench.unattributed_s": (self_time["bench.search"]
                                 + self_time["campaign.job_compute"]) / per,
    })
    return values


def report(values: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric with its unit (0 for a layer never entered)."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}
