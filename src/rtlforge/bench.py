"""Benchmark harness: run pipelines over a problem set, verify against golden
testbenches, compute pass@k, and emit reports.

pass@k uses exact big-integer binomials with a single final division:

    pass@k = 1 - C(n - c, k) / C(n, k)

where n is the number of independent runs for a problem and c the number of
passing runs. The aggregate is the mean over problems. Reports are written as
``report.json`` (full), ``report.csv`` (task_id,n,c_p,pass_at_1), and
``scores_by_round.csv`` (task_id,run_index,round,score) with deterministic
byte content so reruns diff clean.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Optional

from .errors import EngineError
from .gateway import MAX_COMPLETIONS
from .golden import evaluate_golden
from .pipeline import EngineRuntime, RunConfig, RunOutcome, WorkdirAllocator, run_pipeline
from .problems import Problem

__all__ = [
    "DomainError",
    "TrialRecord",
    "ProblemStats",
    "BenchReport",
    "pass_at_k",
    "evaluate_golden",
    "run_bench",
    "check_report_paths",
    "emit_report",
]


# The report's files under the output directory: the full report, the
# per-problem table and the per-round scores.
REPORT_FILES = ("report.json", "report.csv", "scores_by_round.csv")


class DomainError(EngineError):
    """pass@k arguments outside 0 <= c <= n, 1 <= k <= n."""


def pass_at_k(n: int, c: int, k: int) -> float:
    """Expected success when drawing k of n runs, c of which passed. Exact."""
    if not (0 <= c <= n):
        raise DomainError(f"need 0 <= c <= n, got c={c}, n={n}")
    if not (1 <= k <= n):
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    value = 1 - Fraction(comb(n - c, k), comb(n, k))
    return float(value)


@dataclass
class TrialRecord:
    task_id: str
    run_index: int
    passed_golden: bool
    engine_score_history: list[float] = field(default_factory=list)
    llm_calls: int = 0
    wall_time: float = 0.0
    status: str = "error"


@dataclass(frozen=True)
class ProblemStats:
    task_id: str
    n: int
    c_p: int
    pass_at_1: float


@dataclass
class BenchReport:
    problems: list[ProblemStats]
    aggregate_pass_at_1: float
    config: dict = field(default_factory=dict)


def best_score_per_round(outcome: RunOutcome) -> list[float]:
    """Flatten a run's score history to the best selected score per round."""
    return [max(scores) if scores else 0.0 for _, scores in outcome.score_history]


def run_trial(
    problem: Problem, run_index: int, config: RunConfig, runtime: EngineRuntime
) -> TrialRecord:
    """One pipeline run plus the official golden verification.

    ``passed_golden`` is decided by the unmodified golden testbench when one
    exists, run in the transcript's ``sim/golden``. A vanilla run has already
    run that bench there, so its status is the verdict, as it is for a
    problem without a golden bench.
    """
    start = time.monotonic()
    outcome = run_pipeline(problem, config, runtime)
    if problem.golden_testbench and outcome.best is not None and config.agent_mode != "vanilla":
        workdir = WorkdirAllocator(Path(runtime.transcript_dir) / "sim").acquire("golden")
        passed = evaluate_golden(
            outcome.best.source,
            problem.golden_testbench,
            runtime.sim_runner,
            workdir,
            problem.reference_solution,
        ).passed
    else:
        passed = outcome.status == "solved"
    return TrialRecord(
        task_id=problem.task_id,
        run_index=run_index,
        passed_golden=passed,
        engine_score_history=best_score_per_round(outcome),
        llm_calls=outcome.llm_calls,
        wall_time=time.monotonic() - start,
        status=outcome.status,
    )


def run_bench(
    problems: list[Problem],
    config: RunConfig,
    runtime_factory: Callable[[str, int], EngineRuntime],
    n_runs: int = 1,
    workers: int = 1,
    records_sink: Optional[list[TrialRecord]] = None,
) -> list[TrialRecord]:
    """All problems x n_runs independent pipelines, ``workers`` at a time.

    A seeded config gives run ``j`` of each problem the seed ``seed + j *
    MAX_COMPLETIONS``, so its runs draw independently, as pass@k assumes. A
    fan-out request's sub-call ``i`` adds ``i`` to its run's seed, so the
    seeds of one run never reach the next run's.

    The record of every job that finished is appended to ``records_sink``
    in job order once the pool has ended. On an interrupt the jobs not yet
    started are cancelled and the running ones end first, so the sink holds
    a partial report's records when the interrupt is re-raised.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    jobs = [(p, j) for p in problems for j in range(n_runs)]
    records = records_sink if records_sink is not None else []

    def one(job) -> TrialRecord:
        problem, j = job
        runtime = runtime_factory(problem.task_id, j)
        seed = None if config.seed is None else config.seed + j * MAX_COMPLETIONS
        try:
            return run_trial(problem, j, replace(config, seed=seed), runtime)
        except EngineError as exc:
            return TrialRecord(
                task_id=problem.task_id,
                run_index=j,
                passed_golden=False,
                status=f"error: {exc}",
            )

    futures = []
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(one, job) for job in jobs]
            try:
                for future in futures:
                    future.result()
            except KeyboardInterrupt:
                for future in futures:
                    future.cancel()
                raise
    finally:
        records.extend(
            f.result() for f in futures if f.done() and not f.cancelled() and f.exception() is None
        )
    return records


def _stats(records: list[TrialRecord]) -> list[ProblemStats]:
    by_task: dict[str, list[TrialRecord]] = {}
    for record in records:
        by_task.setdefault(record.task_id, []).append(record)
    stats = []
    for task_id in sorted(by_task):
        runs = by_task[task_id]
        n = len(runs)
        c = sum(1 for r in runs if r.passed_golden)
        stats.append(ProblemStats(task_id=task_id, n=n, c_p=c, pass_at_1=pass_at_k(n, c, 1)))
    return stats


def check_report_paths(out_dir: Path) -> None:
    """EngineError naming the first of the ``REPORT_FILES`` under ``out_dir``
    that exists and is not a regular file, which ``emit_report`` could not
    write."""
    for path in (out_dir / name for name in REPORT_FILES):
        if path.exists() and not path.is_file():
            raise EngineError(f"cannot write report {path}: not a regular file")


def emit_report(
    records: list[TrialRecord],
    out_dir: str | Path,
    config_echo: Optional[dict] = None,
) -> BenchReport:
    """Write the ``REPORT_FILES`` under ``out_dir``; returns the report."""
    if not records:
        raise ValueError("no trial records to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = _stats(records)
    aggregate = sum(s.pass_at_1 for s in stats) / len(stats)
    report = BenchReport(problems=stats, aggregate_pass_at_1=aggregate, config=config_echo or {})

    payload = {
        "aggregate_pass_at_1": aggregate,
        "config": report.config,
        "problems": [
            {"task_id": s.task_id, "n": s.n, "c_p": s.c_p, "pass_at_1": s.pass_at_1}
            for s in stats
        ],
        "runs": [
            {
                "task_id": r.task_id,
                "run_index": r.run_index,
                "passed_golden": r.passed_golden,
                "status": r.status,
                "llm_calls": r.llm_calls,
                "score_history": r.engine_score_history,
            }
            for r in sorted(records, key=lambda r: (r.task_id, r.run_index))
        ],
    }
    json_path, csv_path, rounds_path = (out_dir / name for name in REPORT_FILES)
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_id", "n", "c_p", "pass_at_1"])
        for s in stats:
            writer.writerow([s.task_id, s.n, s.c_p, repr(s.pass_at_1)])

    with rounds_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_id", "run_index", "round", "score"])
        for r in sorted(records, key=lambda r: (r.task_id, r.run_index)):
            for round_index, score in enumerate(r.engine_score_history):
                writer.writerow([r.task_id, r.run_index, round_index, repr(score)])

    return report

