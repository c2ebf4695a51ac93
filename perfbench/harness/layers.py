"""Which public calls of the program are timed, and the per-layer metrics.

:func:`install` wraps the calls listed in ``perfbench/README.md`` (one
span each, billed to the layer named after its module) and
:func:`layer_metrics` turns the recorded spans and counters into the
``per_layer`` metrics of ``BENCHMARK.json``.  Only the benchmark process
is traced: a forked pool worker inherits the wrapped classes but records
nothing, so on ``sha_2workers`` the worker-side layers are untraced.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

from .tracing import Patches, Recorder, busy_times, layer_table

#: Rows of the layer table, in call-depth order (``other`` is added last).
LAYERS = (
    "serve",
    "bandit",
    "engine.core",
    "engine.executors",
    "engine.cache",
    "engine.journal",
    "datasets",
    "core.grouping",
    "core.evaluator",
    "core.folds",
    "learners.batched",
    "learners.mlp",
    "core.scoring",
)

#: Layers whose calls happen inside pool workers on ``sha_2workers``.
WORKER_SIDE = ("core.evaluator", "core.folds", "learners.batched", "learners.mlp", "core.scoring")


def _fold_flops(jobs: Iterable[Tuple[Any, Any, Any]]) -> float:
    """Computed FLOPs of fitted MLP folds: 6 x rows x weights x epochs.

    Forward (2) plus backward (4) floating-point operations per weight per row per
    epoch; biases, activations and the loss are left out.  A count derived
    from shapes, not a measurement.
    """
    total = 0.0
    for model, X, _ in jobs:
        weights = sum(int(c.shape[0]) * int(c.shape[1]) for c in getattr(model, "coefs_", ()))
        total += 6.0 * X.shape[0] * weights * int(getattr(model, "n_iter_", 0))
    return total


def install(recorder: Recorder) -> Patches:
    """Wrap every timed call; the caller restores them with ``restore()``."""
    import repro.bandit.base as bandit_base
    import repro.core.evaluator as evaluator_mod
    import repro.datasets as datasets_mod
    import repro.serve.jobs as jobs_mod
    import repro.serve.server as server_mod
    from repro.core.folds import GeneralSpecialFolds
    from repro.engine.cache import EvaluationCache
    from repro.engine.core import TrialEngine
    from repro.engine.executors import ParallelExecutor, SerialExecutor
    from repro.engine.journal import RunJournal
    from repro.learners.mlp import MLPClassifier
    from repro.serve.client import ServeClient
    from repro.serve.registry import JobRegistry
    from repro.serve.scheduler import FairShareScheduler

    patches = Patches(recorder)

    def trials(rec, args, kwargs, result):
        rec.count("bandit.trials", len(result.trials))

    def evaluated(n):
        def hook(rec, args, kwargs, result):
            rec.keep("evaluator", id(args[0]), args[0])
            rec.count("core.evaluator.trials", n(args, result))

        return hook

    def batched_folds(rec, args, kwargs, result):
        rec.count("learners.batched.folds", result.folds)
        rec.count("learners.batched.batched_folds", result.batched_folds)
        rec.count("learners.batched.flop", _fold_flops(args[0]))

    def batched_trials(rec, args, kwargs, result):
        mega = result[1]
        rec.count("learners.batched.folds", mega.folds)
        rec.count("learners.batched.batched_folds", mega.batched_folds)
        rec.count("learners.batched.flop", sum(_fold_flops(jobs) for jobs in args[0]))

    def engine_seen(rec, args, kwargs, result):
        rec.keep("engine", id(args[0]), args[0])

    def cache_get(rec, args, kwargs, result):
        if result is not None:
            rec.count("engine.cache.hits")

    def queued(rec, args, kwargs, result):
        rec.keep("queued_at", args[1].job_id, rec.clock())

    def dispatched(rec, args, kwargs, result):
        if result is not None:
            queued_at = rec.objects["queued_at"].get(result.job_id)
            if queued_at is not None:
                rec.sample("serve.scheduler.queue_wait_s", rec.clock() - queued_at)

    patches.function([datasets_mod, jobs_mod], "load_dataset", "load_dataset", "datasets")
    patches.function([evaluator_mod], "generate_groups", "generate_groups", "core.grouping")
    patches.method(
        evaluator_mod.SubsetCVEvaluator, "evaluate", "SubsetCVEvaluator.evaluate", "core.evaluator",
        after=evaluated(lambda args, result: 1),
    )
    patches.method(
        evaluator_mod.SubsetCVEvaluator, "evaluate_many", "SubsetCVEvaluator.evaluate_many",
        "core.evaluator", after=evaluated(lambda args, result: len(result[0])),
    )
    patches.method(GeneralSpecialFolds, "split", "GeneralSpecialFolds.split", "core.folds", consume=True)
    patches.function(
        [evaluator_mod], "fit_mlp_folds", "fit_mlp_folds", "learners.batched", after=batched_folds
    )
    patches.function(
        [evaluator_mod], "fit_mlp_trials", "fit_mlp_trials", "learners.batched", after=batched_trials
    )
    patches.method(MLPClassifier, "fit", "MLPClassifier.fit", "learners.mlp")
    patches.function([evaluator_mod], "ucb_score", "ucb_score", "core.scoring")
    patches.method(bandit_base.BaseSearcher, "fit", "BaseSearcher.fit", "bandit", after=trials)
    patches.method(TrialEngine, "submit", "TrialEngine.submit", "engine.core", after=engine_seen)
    patches.method(TrialEngine, "wait_one", "TrialEngine.wait_one", "engine.core")
    patches.method(TrialEngine, "run_batch", "TrialEngine.run_batch", "engine.core")
    patches.method(EvaluationCache, "get", "EvaluationCache.get", "engine.cache", after=cache_get)
    patches.method(EvaluationCache, "put", "EvaluationCache.put", "engine.cache")
    patches.method(ParallelExecutor, "submit", "ParallelExecutor.submit", "engine.executors")
    patches.method(ParallelExecutor, "wait_one", "ParallelExecutor.wait_one", "engine.executors")
    patches.method(ParallelExecutor, "flush_batch", "ParallelExecutor.flush_batch", "engine.executors")
    patches.method(SerialExecutor, "flush_batch", "SerialExecutor.flush_batch", "engine.executors")
    patches.method(RunJournal, "append", "RunJournal.append", "engine.journal")
    patches.method(ServeClient, "submit", "ServeClient.submit", "serve", group="serve.http")
    patches.method(ServeClient, "job", "ServeClient.job", "serve", group="serve.http")
    patches.method(
        FairShareScheduler, "submit", "FairShareScheduler.submit", "serve",
        group="serve.scheduler", after=queued,
    )
    patches.method(
        FairShareScheduler, "next_job", "FairShareScheduler.next_job", "serve",
        group="serve.scheduler", after=dispatched,
    )
    patches.method(JobRegistry, "persist", "JobRegistry.persist", "serve", group="serve.registry")
    patches.function([server_mod], "execute_job", "execute_job", "serve", group="serve.jobs")
    return patches


#: Per-layer metric name -> unit, as ``BENCHMARK.json`` lists them.
PER_LAYER = {
    "datasets.busy_s": "s",
    "core.grouping.calls": "count",
    "core.grouping.busy_s": "s",
    "core.evaluator.trials": "count",
    "core.evaluator.busy_s": "s",
    "core.evaluator.self_s": "s",
    "core.evaluator.plan_hit_ratio": "ratio",
    "core.folds.calls": "count",
    "core.folds.busy_s": "s",
    "learners.batched.calls": "count",
    "learners.batched.folds": "count",
    "learners.batched.busy_s": "s",
    "learners.batched.occupancy": "ratio",
    "learners.batched.gflop_computed": "GFLOP",
    "learners.batched.gflop_per_s": "GFLOP/s",
    "learners.mlp.calls": "count",
    "learners.mlp.busy_s": "s",
    "core.scoring.calls": "count",
    "core.scoring.busy_s": "s",
    "bandit.trials": "count",
    "bandit.busy_s": "s",
    "engine.core.submitted": "count",
    "engine.core.executed": "count",
    "engine.core.retries": "count",
    "engine.core.failures": "count",
    "engine.core.self_s": "s",
    "engine.cache.gets": "count",
    "engine.cache.puts": "count",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.busy_s": "s",
    "engine.executors.submits": "count",
    "engine.executors.flushes": "count",
    "engine.executors.busy_s": "s",
    "engine.executors.wait_s": "s",
    "engine.journal.appends": "count",
    "engine.journal.busy_s": "s",
    "serve.http.requests": "count",
    "serve.http.busy_s": "s",
    "serve.http.refused": "count",
    "serve.scheduler.queue_wait_s": "s",
    "serve.registry.persists": "count",
    "serve.registry.busy_s": "s",
    "serve.jobs.busy_s": "s",
    "trace.overhead": "ratio",
    "trace.other_s": "s",
    "trace.sum_error": "ratio",
    "crosscheck.mismatches": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def engine_totals(recorder: Recorder) -> Dict[str, float]:
    """Sum of ``EngineStats.as_dict()`` over every engine seen while tracing."""
    totals: Dict[str, float] = {}
    for engine in recorder.objects["engine"].values():
        for key, value in engine.stats.as_dict().items():
            if key not in ("schema_version", "hit_rate"):
                totals[key] = totals.get(key, 0) + value
    return totals


def layer_metrics(
    recorder: Recorder, window: Tuple[float, float]
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics and the layer table over ``window``.

    Counts come from the wrapped calls; ``engine.core.executed``,
    ``.retries`` and ``.failures`` are the engines' own counters, which
    the benchmark cannot observe from outside.  ``trace.overhead`` and
    ``crosscheck.mismatches`` are filled in by the workload.
    """
    spans = [s for s in recorder.spans if s.end > window[0] and s.start < window[1]]
    table = layer_table(spans, window, LAYERS)
    table["worker_side_untraced"] = pooled(recorder)
    busy = busy_times(spans, window)
    selfs = table["rows"]
    calls = recorder.counts
    counts = lambda name: float(calls.get(name, 0))  # noqa: E731
    engines = engine_totals(recorder)
    evaluators = recorder.objects["evaluator"].values()
    plan_hits = sum(e.plan_cache_hits for e in evaluators)
    plan_lookups = plan_hits + sum(e.plan_cache_misses for e in evaluators)
    gflop = counts("learners.batched.flop") / 1e9
    waits = recorder.values.get("serve.scheduler.queue_wait_s", [])
    http = counts("ServeClient.submit") + counts("ServeClient.job")
    metrics = {
        "datasets.busy_s": busy.get("datasets", 0.0),
        "core.grouping.calls": counts("generate_groups"),
        "core.grouping.busy_s": busy.get("core.grouping", 0.0),
        "core.evaluator.trials": counts("core.evaluator.trials"),
        "core.evaluator.busy_s": busy.get("core.evaluator", 0.0),
        "core.evaluator.self_s": selfs["core.evaluator"],
        "core.evaluator.plan_hit_ratio": _ratio(plan_hits, plan_lookups),
        "core.folds.calls": counts("GeneralSpecialFolds.split"),
        "core.folds.busy_s": busy.get("core.folds", 0.0),
        "learners.batched.calls": counts("fit_mlp_folds") + counts("fit_mlp_trials"),
        "learners.batched.folds": counts("learners.batched.folds"),
        "learners.batched.busy_s": busy.get("learners.batched", 0.0),
        "learners.batched.occupancy": _ratio(
            counts("learners.batched.batched_folds"), counts("learners.batched.folds")
        ),
        "learners.batched.gflop_computed": gflop,
        "learners.batched.gflop_per_s": _ratio(gflop, busy.get("learners.batched", 0.0)),
        "learners.mlp.calls": counts("MLPClassifier.fit"),
        "learners.mlp.busy_s": busy.get("learners.mlp", 0.0),
        "core.scoring.calls": counts("ucb_score"),
        "core.scoring.busy_s": busy.get("core.scoring", 0.0),
        "bandit.trials": counts("bandit.trials"),
        "bandit.busy_s": busy.get("bandit", 0.0),
        "engine.core.submitted": counts("TrialEngine.submit"),
        "engine.core.executed": float(engines.get("executed", 0)),
        "engine.core.retries": float(engines.get("retries", 0)),
        "engine.core.failures": float(engines.get("failures", 0)),
        "engine.core.self_s": selfs["engine.core"],
        "engine.cache.gets": counts("EvaluationCache.get"),
        "engine.cache.puts": counts("EvaluationCache.put"),
        "engine.cache.hit_ratio": _ratio(counts("engine.cache.hits"), counts("EvaluationCache.get")),
        "engine.cache.busy_s": busy.get("engine.cache", 0.0),
        "engine.executors.submits": counts("ParallelExecutor.submit"),
        "engine.executors.flushes": counts("ParallelExecutor.flush_batch")
        + counts("SerialExecutor.flush_batch"),
        "engine.executors.busy_s": busy.get("engine.executors", 0.0),
        "engine.executors.wait_s": sum(
            s.end - s.start for s in spans if s.name == "ParallelExecutor.wait_one"
        ),
        "engine.journal.appends": counts("RunJournal.append"),
        "engine.journal.busy_s": busy.get("engine.journal", 0.0),
        "serve.http.requests": http,
        "serve.http.busy_s": busy.get("serve.http", 0.0),
        "serve.http.refused": 0.0,
        "serve.scheduler.queue_wait_s": sorted(waits)[len(waits) // 2] if waits else 0.0,
        "serve.registry.persists": counts("JobRegistry.persist"),
        "serve.registry.busy_s": busy.get("serve.registry", 0.0),
        "serve.jobs.busy_s": busy.get("serve.jobs", 0.0),
        "trace.overhead": 0.0,
        "trace.other_s": table["other_s"],
        "trace.sum_error": table["sum_error"],
        "crosscheck.mismatches": 0.0,
    }
    return metrics, table


def pooled(recorder: Recorder) -> bool:
    """Whether a traced engine ran its trials on a process pool."""
    from repro.engine.executors import ParallelExecutor

    return any(isinstance(e.executor, ParallelExecutor) for e in recorder.objects["engine"].values())


def crosscheck(recorder: Recorder) -> Dict[str, Tuple[float, float]]:
    """Benchmark-side call counts against the program's own counters.

    Returns ``name -> (benchmark count, program count)`` for every pair
    that should agree; empty when no engine ran (the default inline path
    keeps no engine counters).  With a process pool the evaluators run in
    the workers, so the parent's evaluator counters are not compared.
    """
    if not recorder.objects["engine"]:
        return {}
    engines = engine_totals(recorder)
    pairs = {
        "cache hits: EvaluationCache.get vs EngineStats.cache_hits": (
            recorder.counts.get("engine.cache.hits", 0), engines.get("cache_hits", 0)
        ),
        "submits: TrialEngine.submit vs EngineStats.submitted": (
            recorder.counts.get("TrialEngine.submit", 0), engines.get("submitted", 0)
        ),
    }
    if pooled(recorder):
        pairs["executions: ParallelExecutor.submit vs EngineStats.executed"] = (
            recorder.counts.get("ParallelExecutor.submit", 0), engines.get("executed", 0)
        )
    else:
        evaluators = recorder.objects["evaluator"].values()
        pairs["plan lookups: evaluator.plan_cache_hits+misses vs EngineStats"] = (
            sum(e.plan_cache_hits + e.plan_cache_misses for e in evaluators),
            engines.get("plan_cache_hits", 0) + engines.get("plan_cache_misses", 0),
        )
    return {name: (float(a), float(b)) for name, (a, b) in pairs.items()}
