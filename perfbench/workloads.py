"""The benchmark workloads: what each sets up, what one op is, and what
one pass over the ops observes.

An op's *outcome* holds the fields checked against ``reference.json``
(recorded on the commit that introduced this benchmark); its *extra*
holds counters that feed metrics but are not part of the oracle.

Inputs are fixed per workload so that every output can be checked
exactly; ``--seed`` orders the ops within each pass (see ``run.py``).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.catalog.cache import clear_default_cache
from repro.catalog.profiler import profile_table
from repro.catalog.refinement import refine_catalog
from repro.catalog.streaming import profile_table_streaming
from repro.datasets.registry import load_dataset
from repro.execpool.pool import get_pool, shutdown_pool
from repro.experiments.common import prepare_dataset, run_catdb, run_grid
from repro.generation.generator import GenerationReport
from repro.llm import build_client
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.session import run_session
from repro.prompt.builder import build_prompt_plan
from repro.runner import JobGraph
from repro.table.io_csv import read_csv, write_csv
from repro.table.column import Column
from repro.table.table import Table

from arith import digest
from probe import Recorder

__all__ = ["OpResult", "Workload", "WORKLOADS", "observed"]

GRID_WORKERS = 2
GRID_EXEC_TIMEOUT = 30.0
SETUP_REPEATS = 3


@dataclass
class OpResult:
    """What one op produced, and what it cost."""

    key: str
    dataset: str
    seed: int
    variant: str
    seconds: float
    outcome: dict[str, Any] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    error: str = ""


def observed(
    ledger_path: str | None, fn: Callable[..., Any], *args: Any, **kwargs: Any
) -> tuple[Any, MetricsRegistry]:
    """Run ``fn`` under a fresh program metrics registry and return its
    result with the registry.

    With a ``ledger_path`` the call also runs in a forced program run
    session, so the program's own spans (``execute.pipeline``,
    ``llm.call``, ...) land in that ledger; nested ``run_session`` calls
    inside ``fn`` reuse it.  Without one the program's tracer stays off.
    """
    with run_session(
        "perfbench.op", force=ledger_path is not None, ledger_path=ledger_path
    ):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            return fn(*args, **kwargs), registry
        finally:
            set_metrics(previous)


def _counter(registry: MetricsRegistry, name: str) -> float:
    """Sum of a counter over all its label sets."""
    counters = registry.snapshot()["counters"]
    return sum(v for k, v in counters.items() if k == name or k.startswith(name + "{"))


def _llm_counts(registry: MetricsRegistry) -> dict[str, int]:
    return {
        "tokens": int(_counter(registry, "llm.tokens_prompt") + _counter(registry, "llm.tokens_completion")),
        "llm_calls": int(_counter(registry, "llm.calls")),
    }


def _md5(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def _generate_outcome(
    report: GenerationReport, registry: MetricsRegistry, task_type: str
) -> tuple[dict[str, Any], dict[str, float]]:
    outcome = {
        "success": report.success,
        "fallback": report.fallback_used,
        **_llm_counts(registry),
        "primary": report.primary_metric_for(task_type),
        "code_md5": _md5(report.code),
        "execute_runs": int(_counter(registry, "execute.runs")),
    }
    extra = {
        "timeouts": _counter(registry, "execute.timeouts"),
        "kills": _counter(registry, "execpool.kills"),
        "exec_skipped": _counter(registry, "static.exec_skipped"),
        "repair_rounds": report.fix_attempts,
        "static_fixes": report.static_fixes,
        "kb_fixes": report.kb_fixes,
        "llm_fixes": report.llm_fixes,
    }
    return outcome, extra


class Workload:
    """One named set of ops; ``setup`` may be repeated, the last one wins."""

    name = ""
    exec_mode = "inproc"

    def __init__(self, recorder: Recorder, work_dir: str) -> None:
        self.recorder = recorder
        self.work_dir = work_dir
        # set for traced passes: where program run sessions record spans
        self.ledger_path: str | None = None
        # train splits handed to ops whole; anything else an executor
        # sees is the generator's row sample
        self.full_tables: dict[int, Table] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, order: Callable[[list], list]) -> list[OpResult]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def is_full_split(self, table: Table) -> bool:
        return self.full_tables.get(id(table)) is table

    def pool_spawns(self) -> int:
        """Pool workers spawned so far (0 for in-process workloads)."""
        return get_pool().stats["spawns"] if self.exec_mode == "pool" else 0


class _OpListWorkload(Workload):
    """A workload whose pass runs a list of independent ops in turn."""

    def ops(self) -> list[tuple[str, str, int, str, Callable[[], tuple[dict, dict]]]]:
        raise NotImplementedError

    def run_pass(self, order: Callable[[list], list]) -> list[OpResult]:
        results = []
        for key, dataset, seed, variant, fn in order(self.ops()):
            start = time.perf_counter()
            try:
                with self.recorder.span("bench", "op", key=key):
                    outcome, extra = fn()
                error = ""
            except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op
                outcome, extra, error = {}, {}, f"{type(exc).__name__}: {exc}"
            results.append(OpResult(
                key, dataset, seed, variant, time.perf_counter() - start,
                outcome, extra, error,
            ))
        return results


class GenExec(_OpListWorkload):
    """Single-prompt CatDB (gpt-4o) in-process; nearly all of its time is
    executing the generated forest pipelines."""

    name = "gen-exec"

    llm = "gpt-4o"
    beta = 1
    # bike_sharing's 280-row train split is above the generator's
    # 250-row validation sample, so its final run sees more rows than
    # the validations (execute.full_s vs execute.sample_s); eu_it's
    # 83-row split is validated whole
    cases = (("eu_it", 120, 0), ("bike_sharing", 400, 0))

    def setup(self) -> None:
        self.prepared = {}
        self.full_tables = {}
        for dataset, n, seed in self.cases:
            prepared = prepare_dataset(dataset, seed=seed, n=n)
            self.prepared[(dataset, seed)] = prepared
            self.full_tables[id(prepared.train)] = prepared.train

    def _run(self, dataset: str, seed: int) -> tuple[dict, dict]:
        prepared = self.prepared[(dataset, seed)]
        report, registry = observed(
            self.ledger_path, run_catdb, prepared, llm_name=self.llm, beta=self.beta,
            seed=seed, exec_mode=self.exec_mode,
        )
        return _generate_outcome(report, registry, prepared.task_type)

    def ops(self):
        variant = f"{self.llm}/b{self.beta}/{self.exec_mode}"
        return [
            (f"{d}:{s}", d, s, variant, partial(self._run, d, s))
            for d, _, s in self.cases
        ]


class Catalog(_OpListWorkload):
    """Batch profile + refine + prompt plan on wide tables and an 8-table
    join, and streaming profile of a tall CSV; no pipeline runs."""

    name = "catalog"
    exec_mode = "none"
    wide = (("volkert", 500), ("kdd98", 400), ("gas_drift", 500), ("financial", 150))
    tall = ("walking", 10_000)
    chunk_rows = 2_500
    seed = 0

    def setup(self) -> None:
        self.tables = {}
        for dataset, n in self.wide:
            bundle = load_dataset(dataset, seed=self.seed, n=n)
            self.tables[dataset] = (bundle.unified, bundle.target, bundle.task_type)
        dataset, n = self.tall
        bundle = load_dataset(dataset, seed=self.seed, n=n)
        self.tall_path = os.path.join(self.work_dir, f"{dataset}_tall.csv")
        write_csv(bundle.unified, self.tall_path)
        self.tall_target = (bundle.target, bundle.task_type)
        clear_default_cache()
        batch = profile_table(
            read_csv(self.tall_path), target=bundle.target,
            task_type=bundle.task_type, seed=self.seed,
        )
        self.tall_exact = exact_fields(batch)

    def _profile_refine(self, dataset: str) -> tuple[dict, dict]:
        table, target, task_type = self.tables[dataset]
        clear_default_cache()

        def work() -> tuple[str, str, str]:
            catalog = profile_table(table, target=target, task_type=task_type, seed=self.seed)
            catalog_md5 = digest(catalog.to_dict())
            llm = build_client("gpt-4o", seed=self.seed)
            refined = refine_catalog(table, catalog, llm).catalog
            plan = build_prompt_plan(refined, beta=1)
            return catalog_md5, digest(refined.to_dict()), _md5(plan.single.text)

        (catalog_md5, refined_md5, plan_md5), registry = observed(self.ledger_path, work)
        outcome = {
            "catalog_md5": catalog_md5, "refined_md5": refined_md5,
            "plan_md5": plan_md5, **_llm_counts(registry),
        }
        return outcome, {}

    def _stream(self) -> tuple[dict, dict]:
        target, task_type = self.tall_target
        clear_default_cache()
        catalog, registry = observed(
            self.ledger_path, profile_table_streaming, self.tall_path, target=target,
            task_type=task_type, chunk_rows=self.chunk_rows, seed=self.seed,
            file_path=os.path.basename(self.tall_path),
        )
        outcome = {
            "catalog_md5": digest(catalog.to_dict()),
            "exact_fields_match_batch": exact_fields(catalog) == self.tall_exact,
            **_llm_counts(registry),
        }
        return outcome, {}

    def ops(self):
        ops = [
            (f"{d}:{self.seed}", d, self.seed, "profile+refine+plan",
             partial(self._profile_refine, d))
            for d, _ in self.wide
        ]
        ops.append((f"{self.tall[0]}-tall:{self.seed}", self.tall[0], self.seed,
                    f"streaming/{self.chunk_rows}", self._stream))
        return ops


def exact_fields(catalog: Any) -> dict[str, Any]:
    """Catalog fields the streaming profiler must reproduce exactly."""
    return {
        "n_rows": catalog.info.n_rows,
        "columns": [
            (p.name, p.data_type, p.missing_count) for p in catalog.profiles()
        ],
    }


_WARMUP_CODE = (
    "import time\n"
    "def run_pipeline(train, test):\n"
    "    time.sleep(0.05)\n"
    "    return {'model': 'warmup'}\n"
)


class GridPool(Workload):
    """A paper-style grid on the scheduler with pooled execution."""

    name = "grid-pool"
    exec_mode = "pool"
    datasets = (("diabetes", 200), ("utility", 200))
    llms = ("gpt-4o", "llama3.1-70b")
    betas = (1, 2)
    # one iteration keeps a pass near 4 s, so a run holds enough passes
    # for steady medians; iteration 0 is where diabetes' cells repair
    iterations = (0,)
    seed = 0

    def __init__(self, recorder: Recorder, work_dir: str) -> None:
        super().__init__(recorder, work_dir)
        self._lock = threading.Lock()
        # prepare-node finish times: when each dataset's cells became ready
        self._ready: dict[str, float] = {}

    def setup(self) -> None:
        shutdown_pool()
        pool = get_pool()
        tiny = Table([Column("x", [1.0, 2.0])], name="warmup")
        # concurrent executions, so every worker the grid uses is spawned
        with ThreadPoolExecutor(GRID_WORKERS) as threads:
            futures = [
                threads.submit(pool.execute, _WARMUP_CODE, tiny, tiny)
                for _ in range(GRID_WORKERS)
            ]
            for future in futures:
                if not future.result().success:
                    raise RuntimeError(f"pool warm-up failed: {future.result().error}")

    def teardown(self) -> None:
        shutdown_pool()

    def cells(self) -> list[tuple[str, str, int, int]]:
        return [
            (d, llm, beta, it)
            for d, _ in self.datasets
            for llm in self.llms
            for beta in self.betas
            for it in self.iterations
        ]

    def _prepare(self, dataset: str, n: int) -> Any:
        prepared = prepare_dataset(dataset, seed=self.seed, n=n)
        with self._lock:
            self.full_tables[id(prepared.train)] = prepared.train
            self._ready[dataset] = time.perf_counter()
        return prepared

    def _cell(self, dataset, llm, beta, iteration, exec_mode, exec_timeout, prepared):
        start = time.perf_counter()
        with self.recorder.span("runner", "cell"):
            report, registry = observed(
                self.ledger_path, run_catdb, prepared, llm_name=llm, beta=beta,
                iteration=iteration, seed=self.seed,
                exec_mode=exec_mode, exec_timeout=exec_timeout,
            )
        end = time.perf_counter()
        outcome, extra = _generate_outcome(report, registry, prepared.task_type)
        return {"outcome": outcome, "extra": extra, "start": start, "end": end}

    def build_graph(self, exec_mode: str, exec_timeout: float | None) -> JobGraph:
        graph = JobGraph()
        for dataset, n in self.datasets:
            graph.add(f"prepare:{dataset}", partial(self._prepare, dataset, n))
        for dataset, llm, beta, it in self.cells():
            graph.add(
                f"cell:{dataset}:{llm}:b{beta}:i{it}",
                partial(self._cell, dataset, llm, beta, it, exec_mode, exec_timeout),
                deps=(f"prepare:{dataset}",),
                config={"dataset": dataset, "llm": llm, "beta": beta,
                        "iteration": it, "seed": self.seed},
                seed=self.seed,
            )
        return graph

    def run_grid_pass(self, workers: int, exec_mode: str, exec_timeout: float | None) -> list[OpResult]:
        self._ready = {}
        self.full_tables = {}
        graph = self.build_graph(exec_mode, exec_timeout)
        with self.recorder.span("runner", "run_grid") as span:
            if span is not None:
                self.recorder.thread_root = span.span_id
            results = run_grid(graph, workers=workers)
            self.recorder.thread_root = None
        rows = []
        for job in graph.cells():
            config = job.config
            result = results[job.job_id]
            variant = f"{config['llm']}/b{config['beta']}/i{config['iteration']}/{exec_mode}"
            if result.ok:
                value = result.value
                extra = dict(value["extra"])
                extra["wait_s"] = value["start"] - self._ready[config["dataset"]]
                rows.append(OpResult(
                    job.job_id, config["dataset"], self.seed, variant,
                    value["end"] - value["start"], value["outcome"], extra,
                ))
            else:
                rows.append(OpResult(
                    job.job_id, config["dataset"], self.seed, variant,
                    result.seconds, error=f"{result.status}: {result.error}",
                ))
        return rows

    def run_pass(self, order: Callable[[list], list]) -> list[OpResult]:
        # the grid runs in definition order: the scheduler's FIFO over
        # that order is part of what the workload measures
        return self.run_grid_pass(GRID_WORKERS, self.exec_mode, GRID_EXEC_TIMEOUT)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (GenExec, Catalog, GridPool)
}
