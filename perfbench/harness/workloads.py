"""The workloads: inputs made from the seed, timed jobs, correctness checks.

Every workload runs a sequence of *jobs*.  A job is one tuning request
answered with an incumbent: a search plus the refit ``optimize()`` does.
A *cold* job computes everything; a *duplicate* asks for a result that
was already computed once.  Each workload also sets itself up several
times, because ``setup_s`` is the median of those set-ups.

With ``trace`` on, the workload runs one untraced round and then one
round with the layer calls wrapped (:mod:`.layers`); the per-layer
metrics come from the traced round and ``trace.overhead`` compares the
two.
"""

from __future__ import annotations

import itertools
import math
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from . import layers
from .machine import cpu_seconds, peak_rss_mb
from .stats import basket_mean, median, tail, trimmed_mean
from .tracing import Recorder, sums_to_wall

clock = time.perf_counter

#: Daemon start-ups timed before and again after the serve_closed_loop burst;
#: ``setup_s`` is the median of all of them.
DAEMON_SETUP_SAMPLES = 20

#: End-to-end metric name -> unit, as ``BENCHMARK.json`` lists them.
END_TO_END = {
    "setup_s": "s",
    "search_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "cold_job_p50_s": "s",
    "dup_job_p50_s": "s",
    "job_tail_s": "s",
}

#: Floors on the mean held-out test score of a run's incumbents, below the
#: lowest values measured (README, "Correctness checks").  The australian
#: test splits have 28 and 41 rows, so one incumbent's accuracy scatters
#: from 0.29 to 0.90; these floors catch a broken model, not a weak one.
TEST_SCORE_FLOOR = {"hbplus_serial": 0.60, "sha_2workers": 0.25, "serve_closed_loop": 0.30}


@dataclass
class Job:
    kind: str  # "cold" or "dup"
    latency_s: float
    search_s: float
    input: int  # which of the run's inputs the job asked about


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setups: List[float] = field(default_factory=list)
    jobs: List[Job] = field(default_factory=list)
    search_s: float = math.nan
    dup_job_s: float = math.nan
    job_tail_s: float = math.nan
    timed_s: float = 0.0
    cpu_s: float = 0.0
    trials: int = 0
    failed_trials: int = 0
    refused: int = 0
    failed_jobs: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    crosscheck: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)
    layer_metrics: Optional[Dict[str, float]] = None
    layer_table: Optional[Dict[str, Any]] = None
    spans: Optional[List[Dict[str, Any]]] = None

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(passed)

    @property
    def attempted(self) -> int:
        return self.trials + len(self.jobs) + self.refused + self.failed_jobs + len(self.checks)

    @property
    def failed(self) -> int:
        bad_checks = sum(1 for ok in self.checks.values() if not ok)
        return self.failed_trials + self.refused + self.failed_jobs + bad_checks

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": median(self.setups),
            "search_s": self.search_s,
            "cpu_s": self.cpu_s / len(self.jobs),
            "peak_rss_mb": peak_rss_mb(),
            "jobs_per_s": len(self.jobs) / self.timed_s,
            "cold_job_p50_s": median([j.latency_s for j in self.jobs if j.kind == "cold"]),
            "dup_job_p50_s": self.dup_job_s,
            "job_tail_s": self.job_tail_s,
        }


def _finish_trace(outcome: Outcome, recorder: Recorder, window) -> None:
    metrics, table = layers.layer_metrics(recorder, window)
    outcome.crosscheck.update(layers.crosscheck(recorder))
    metrics["crosscheck.mismatches"] = float(
        sum(1 for a, b in outcome.crosscheck.values() if a != b)
    )
    metrics["serve.http.refused"] = float(outcome.refused)
    outcome.layer_metrics = metrics
    outcome.layer_table = table
    outcome.spans = [s.as_dict() for s in recorder.spans]
    outcome.check("layer table sums to wall time", sums_to_wall(table))


def _scorer_value(metric: str, model, X, y) -> float:
    from repro.core import make_scorer

    return float(make_scorer(metric)(model, X, y))


def _non_finite(result) -> int:
    return sum(1 for t in result.trials if not math.isfinite(float(t.result.score)))


# -- in-process searches (hbplus_serial, sha_2workers) -------------------------


@dataclass
class Problem:
    dataset: Any
    space: Any
    searcher: Any
    engine: Any
    seed: int


def round_seed(seed: int, i: int) -> int:
    """Seed of a run's input ``i``: distinct per input, disjoint across benchmark seeds."""
    return seed * 1000 + i


def _build(method, dataset, scale, hps, max_iter, seed, engine_factory) -> Problem:
    """What ``repro tune`` builds before its first trial: data, grouping, evaluator, searcher, engine."""
    from repro.core import MLPModelFactory, make_searcher
    from repro.datasets import load_dataset
    from repro.experiments import paper_search_space

    data = load_dataset(dataset, scale=scale, random_state=seed)
    task = "regression" if data.task == "regression" else "classification"
    space = paper_search_space(hps)
    engine = engine_factory() if engine_factory is not None else None
    searcher = make_searcher(
        method,
        space,
        data.X_train,
        data.y_train,
        metric=data.metric,
        task=task,
        model_factory=MLPModelFactory(task=task, max_iter=max_iter),
        random_state=seed,
        engine=engine,
    )
    return Problem(data, space, searcher, engine, seed)


def _search(problem: Problem, refit: bool = True):
    """One job as ``optimize()`` runs it: the search, then the refit."""
    start = clock()
    result = problem.searcher.fit(configurations=problem.space.grid(), n_configurations=None)
    model = None
    if refit:
        evaluator = problem.searcher.evaluator
        model = evaluator.fit_full(result.best_config, random_state=problem.seed)
        evaluator.scorer(model, evaluator.X, evaluator.y)
    return clock() - start, result, model


def _in_process(
    name: str,
    spec: Dict[str, Any],
    seed: int,
    seconds: float,
    trace: bool,
    engine_factory: Optional[Callable[[], Any]] = None,
    dups: int = 1,
    *,
    basket: int,
    setups_per_round: int,
) -> Outcome:
    """Rounds of set-up, a cold job, ``dups`` duplicates and teardown.

    A run asks about a fixed basket of ``basket`` inputs, input ``i`` made
    from ``round_seed(seed, i)``, and round ``r`` runs input
    ``r % basket``.  The run stops only after a whole pass over the
    basket, the first after which another pass would overrun
    ``seconds``.  So every input weighs the same, and a slower program
    measures the same inputs as a faster one, only fewer times.
    ``search_s`` is the mean over the basket of each input's median
    search: a search's cost depends on which configurations its data
    promotes, and the mean over several inputs moves less from seed to
    seed than one input does.  ``job_tail_s`` is the slowest input's
    median cold latency: a run has too few jobs for a percentile with
    ten samples beyond it to fall among the cold ones.
    ``dup_job_s`` is the trimmed mean of the duplicates' latencies: a
    round's duplicates run back to back within one phase of the host's
    speed, so their median would jump between the host's speeds (see
    :func:`.stats.trimmed_mean`).

    A cold job's latency is what a ``repro tune`` call waits for: its
    round's set-up, the search and the refit.  With an engine a
    duplicate re-runs the search on the same engine, so its cache serves
    every trial; it is timed without the refit, which no path caches and
    whose cost depends on the winning solver (lbfgs refits take ten times
    as long as adam ones), so the duplicate measures the cache read path.
    Without an engine the duplicate is the same request on a fresh
    set-up: the default path keeps no cache, so it is computed again.
    Every duplicate's incumbent must equal its round's cold one.

    A round times ``setups_per_round`` set-ups; all but the last are
    torn down at once.  A traced run runs input 0 twice, untraced and
    then traced, so the overhead compares like with like.
    """
    from repro.serve import incumbent_fingerprint

    outcome = Outcome()
    floor = TEST_SCORE_FLOOR[name]
    scores: List[float] = []

    def timed_build(i: int) -> Problem:
        start = clock()
        problem = _build(seed=round_seed(seed, i), engine_factory=engine_factory, **spec)
        outcome.setups.append(clock() - start)
        return problem

    def close(problem: Problem) -> None:
        if problem.engine is not None:
            outcome.failed_trials += problem.engine.stats.failures
            problem.engine.shutdown()

    def job(problem: Problem, kind: str, i: int) -> str:
        refit = kind == "cold" or problem.engine is None
        elapsed, result, model = _search(problem, refit=refit)
        setup = outcome.setups[-1] if refit else 0.0
        outcome.jobs.append(Job(kind, setup + elapsed, elapsed, i))
        outcome.trials += result.n_trials
        if problem.engine is None:
            outcome.failed_trials += _non_finite(result)
        if kind == "cold":
            data = problem.dataset
            scores.append(_scorer_value(data.metric, model, data.X_test, data.y_test))
        return incumbent_fingerprint(result)

    deadline = clock() + seconds
    recorder = window = None
    searches: Dict[int, List[float]] = {}
    latencies: Dict[int, List[float]] = {}
    fingerprints: Dict[int, str] = {}
    r = 0
    pass_start = clock()
    while True:
        i = 0 if trace else r % basket
        traced = trace and r == 1
        for _ in range(setups_per_round - 1):
            close(timed_build(i))
        problem = timed_build(i)
        patches = None
        if traced:
            recorder = Recorder()
            patches = layers.install(recorder)
        start, cpu0 = clock(), cpu_seconds()
        try:
            fingerprint = job(problem, "cold", i)
            searches.setdefault(i, []).append(outcome.jobs[-1].search_s)
            latencies.setdefault(i, []).append(outcome.jobs[-1].latency_s)
            outcome.check(
                "every round of an input finds the same incumbent",
                fingerprints.setdefault(i, fingerprint) == fingerprint,
            )
            for _ in range(dups):
                if problem.engine is None:
                    problem = timed_build(i)
                outcome.check(
                    "duplicate fingerprints equal the cold one",
                    job(problem, "dup", i) == fingerprint,
                )
        finally:
            close(problem)
            if patches is not None:
                patches.restore()
        end = clock()
        outcome.timed_s += end - start
        outcome.cpu_s += cpu_seconds() - cpu0
        if traced:
            window = (start, end)
        r += 1
        if trace:
            if r == 2:
                break
        elif r % basket == 0:
            if end + (end - pass_start) > deadline:
                break
            pass_start = end

    outcome.search_s = basket_mean(searches)
    outcome.dup_job_s = trimmed_mean([j.latency_s for j in outcome.jobs if j.kind == "dup"])
    outcome.job_tail_s = max(median(runs) for runs in latencies.values())
    outcome.notes["inputs"] = {round_seed(seed, i): len(runs) for i, runs in searches.items()}
    outcome.notes["fingerprints"] = fingerprints
    outcome.notes["test_scores"] = scores
    outcome.check(f"mean test score >= {floor}", sum(scores) / len(scores) >= floor)
    if trace:
        _finish_trace(outcome, recorder, window)
        first, second = searches[0]
        outcome.layer_metrics["trace.overhead"] = second / first - 1.0
    return outcome


def hbplus_serial(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """HB+ on the satimage analogue through ``optimize()``'s default (inline) path."""
    spec = dict(method="hb+", dataset="satimage", scale=0.5, hps=4, max_iter=30)
    return _in_process("hbplus_serial", spec, seed, seconds, trace, basket=2, setups_per_round=3)


def sha_2workers(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """Vanilla SHA on australian with the engine ``repro tune --n-workers 2 --cache`` builds.

    After the timed rounds the same search runs once on a serial engine;
    its incumbent must be bitwise equal to the pool's.
    """
    from repro.engine import ParallelExecutor, SerialExecutor, TrialEngine
    from repro.serve import incumbent_fingerprint

    spec = dict(method="sha", dataset="australian", scale=0.3, hps=4, max_iter=5)
    outcome = _in_process(
        "sha_2workers",
        spec,
        seed,
        seconds,
        trace,
        lambda: TrialEngine(executor=ParallelExecutor(n_workers=2), cache=True, max_retries=1),
        dups=5,
        basket=4,
        setups_per_round=20,
    )
    twin = _build(
        seed=round_seed(seed, 0),
        engine_factory=lambda: TrialEngine(executor=SerialExecutor(), cache=True, max_retries=1),
        **spec,
    )
    try:
        _, result, _ = _search(twin)
    finally:
        twin.engine.shutdown()
    outcome.check(
        "fingerprint equals the serial-engine twin",
        incumbent_fingerprint(result) == outcome.notes["fingerprints"][0],
    )
    return outcome


# -- serve_closed_loop -----------------------------------------------------------

#: Every job's spec but its tenant and seed (refit on, so a twin has a model to test).
SERVE_SPEC = dict(dataset="australian", method="sha+", hps=2, scale=0.2, max_iter=8, refit=True)


def job_seeds(seed: int) -> Iterator[int]:
    """Seeds of the burst's specs: distinct per job, disjoint across benchmark seeds."""
    return itertools.count(seed * 100_000)


def _start_daemon(root: Path):
    """Construct and start a daemon, then wait until ``/readyz`` says ready."""
    from repro.serve import ServeClient, ServeDaemon, ServeError

    daemon = ServeDaemon(root=root, port=0, n_workers=2).start()
    client = ServeClient(daemon.address)
    deadline = clock() + 30.0
    while True:
        try:
            if client.readyz().get("ready"):
                break
        except ServeError:
            pass
        if clock() > deadline:
            raise RuntimeError("daemon never became ready")
        time.sleep(0.001)
    client.close()
    return daemon


def _stop_daemon(daemon) -> None:
    daemon.drain(timeout=60.0)
    daemon.stop()


def _daemon_setups(workdir: Path, tag: str, outcome: Outcome, keep_last: bool):
    """Time ``DAEMON_SETUP_SAMPLES`` start-ups, each daemon under its own root.

    Every daemon is started before any is stopped, so no stop competes
    with a timed start.  A stop waits up to half a second for the HTTP
    loop, so the daemons not kept are stopped on parallel threads, all
    joined before return.
    """
    daemons = []
    for i in range(DAEMON_SETUP_SAMPLES):
        start = clock()
        daemons.append(_start_daemon(workdir / f"serve-{tag}-{i}"))
        outcome.setups.append(clock() - start)
    kept = daemons.pop() if keep_last else None
    stoppers = [threading.Thread(target=_stop_daemon, args=(daemon,)) for daemon in daemons]
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join(timeout=90.0)
        if stopper.is_alive():
            raise RuntimeError("a daemon did not stop")
    return kept


def _burst(address: str, seeds: Iterator[int], seconds: float, outcome: Outcome, records: Dict):
    """Two closed-loop clients: ``alpha`` submits cold jobs one after another
    until ``seconds`` pass; ``beta`` resubmits each spec once its ``alpha``
    twin is done, so every duplicate is read from the shared cache.

    Returns the burst's wall time.
    """
    from repro.serve import ServeClient, ServeError

    twins: "queue.Queue[Optional[int]]" = queue.Queue()
    lock = threading.Lock()
    errors: List[Exception] = []

    def run(client, tenant: str, job_seed: int, kind: str) -> Optional[Dict[str, Any]]:
        try:
            accepted = client.submit(tenant=tenant, seed=job_seed, **SERVE_SPEC)
        except ServeError as exc:
            if exc.status in (429, 503):
                with lock:
                    outcome.refused += 1
                return None
            raise
        record = client.wait(accepted["job_id"], timeout=120.0)
        with lock:
            records[(tenant, job_seed)] = record
            if record.get("state") == "done":
                latency = float(record["finished_at"]) - float(record["created_at"])
                outcome.jobs.append(Job(kind, latency, _run_time(record), job_seed))
            else:
                outcome.failed_jobs += 1
        return record

    def alpha() -> None:
        try:
            with ServeClient(address) as client:
                end = clock() + seconds
                while clock() < end:
                    job_seed = next(seeds)
                    record = run(client, "alpha", job_seed, "cold")
                    if record is not None and record.get("state") == "done":
                        twins.put(job_seed)
        except Exception as exc:  # re-raised by the main thread
            errors.append(exc)
        finally:
            twins.put(None)

    def beta() -> None:
        try:
            with ServeClient(address) as client:
                while True:
                    job_seed = twins.get(timeout=180.0)
                    if job_seed is None:
                        return
                    run(client, "beta", job_seed, "dup")
        except Exception as exc:  # re-raised by the main thread
            errors.append(exc)

    start = clock()
    threads = [
        threading.Thread(target=alpha, name="bench-alpha"),
        threading.Thread(target=beta, name="bench-beta"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170.0)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    if errors:
        raise errors[0]
    return clock() - start


def _run_time(record: Dict[str, Any]) -> float:
    """In-daemon run time of a job: dataset load, grouping, search, refit, writes."""
    return float(record["finished_at"]) - float(record["started_at"])


def serve_closed_loop(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """An in-process daemon with 2 job threads, driven over HTTP by 2 clients."""
    from repro.datasets import load_dataset
    from repro.serve import JobSpec, ServeClient, incumbent_fingerprint, run_job_local

    outcome = Outcome()
    floor = TEST_SCORE_FLOOR["serve_closed_loop"]
    daemon = _daemon_setups(workdir, "before", outcome, keep_last=True)
    seeds = job_seeds(seed)
    records: Dict[Tuple[str, int], Dict[str, Any]] = {}
    recorder = patches = window = None
    try:
        if trace:
            half = seconds / 2.0
            wall_plain = _burst(daemon.address, seeds, half, outcome, records)
            plain_jobs = len(outcome.jobs)
            recorder = Recorder()
            patches = layers.install(recorder)
            start = clock()
            try:
                wall_traced = _burst(daemon.address, seeds, half, outcome, records)
            finally:
                patches.restore()
            window = (start, start + wall_traced)
            traced_jobs = len(outcome.jobs) - plain_jobs
            overhead = (wall_traced / traced_jobs) / (wall_plain / plain_jobs) - 1.0
            outcome.timed_s = wall_plain + wall_traced
        else:
            cpu0 = cpu_seconds()
            outcome.timed_s = _burst(daemon.address, seeds, seconds, outcome, records)
            outcome.cpu_s = cpu_seconds() - cpu0
        with ServeClient(daemon.address) as client:
            stats = client.stats()
        _daemon_setups(workdir, "after", outcome, keep_last=False)
    finally:
        _stop_daemon(daemon)

    outcome.search_s = median([j.search_s for j in outcome.jobs if j.kind == "cold"])
    outcome.dup_job_s = median([j.latency_s for j in outcome.jobs if j.kind == "dup"])
    outcome.job_tail_s, percentile, n = tail([j.latency_s for j in outcome.jobs])
    outcome.notes["job_tail"] = {"percentile": percentile, "samples": n}
    done = [r for r in records.values() if r.get("state") == "done"]
    outcome.check("every job done", len(done) == len(records) and outcome.refused == 0)
    outcome.crosscheck["done jobs: client vs /stats jobs.done"] = (
        float(len(done)), float(stats["jobs"].get("done", 0))
    )
    outcome.crosscheck["cache hits: job engine_stats vs /stats shared_cache.hits"] = (
        float(sum(r.get("engine_stats", {}).get("cache_hits", 0) for r in records.values())),
        float(stats["shared_cache"]["hits"]),
    )
    outcome.trials = sum(int(r.get("engine_stats", {}).get("submitted", 0)) for r in records.values())
    outcome.failed_trials = sum(int(r.get("engine_stats", {}).get("failures", 0)) for r in records.values())

    paired = sorted(s for (tenant, s) in records if tenant == "beta")
    fp = lambda tenant, s: (records[(tenant, s)].get("incumbent") or {}).get("fingerprint")  # noqa: E731
    outcome.check("alpha and beta fingerprints equal", all(fp("alpha", s) == fp("beta", s) for s in paired))
    scores: List[float] = []
    for job_seed in paired[:LOCAL_TWINS]:
        spec = JobSpec(tenant="local", seed=job_seed, **SERVE_SPEC)
        local = run_job_local(spec)
        outcome.check(
            "run_job_local fingerprint equals the daemon's",
            incumbent_fingerprint(local.result) == fp("alpha", job_seed),
        )
        data = load_dataset(spec.dataset, scale=spec.scale, random_state=spec.seed)
        scores.append(_scorer_value(data.metric, local.model, data.X_test, data.y_test))
    outcome.notes["test_scores"] = scores
    outcome.check(
        f"mean test score of the local twins >= {floor}",
        bool(scores) and sum(scores) / len(scores) >= floor,
    )
    outcome.notes["stats"] = stats
    if trace:
        _finish_trace(outcome, recorder, window)
        outcome.layer_metrics["trace.overhead"] = overhead
    return outcome


#: Specs whose daemon result is re-run through ``run_job_local`` after the burst.
LOCAL_TWINS = 3

WORKLOADS = {
    "hbplus_serial": hbplus_serial,
    "sha_2workers": sha_2workers,
    "serve_closed_loop": serve_closed_loop,
}
