"""Five-step pipeline: testbench, initial RTL, arbitration, high-temperature
candidate sampling with mismatch scoring, and windowed debug rounds.

Control flow per run:

1. Generate the checkpoint-logging testbench (golden bench folded in when
   available).
2. Generate one low-temperature RTL shot and simulate it; a perfect score
   ends the run immediately.
3. Otherwise the judge arbitrates: a faulty testbench is regenerated (at most
   ``max_tb_regens`` times, invalidating any scores) and step 2 restarts; a
   faulty RTL proceeds.
4. Sample ``pool_size`` candidates at the configured temperature profile,
   repair their syntax concurrently, simulate them all, score each as
   1 - mismatches/checks, select the top-K.
5. Debug rounds: for every selected candidate, hand the debug agent the
   waveform window at its earliest mismatch; the trials run concurrently,
   and their ids and events follow slot order. Per lineage the better of
   {trial, original} survives (ties prefer the trial). Repeat until a score
   hits 1 or the round budget is spent.

Steps 4 and 5 fan out on one executor per run with ``sim_workers`` workers,
or one in single-agent mode, whose roles share one conversation.

Every simulation runs in its own directory under the transcript dir and
every decision is appended to ``events.jsonl``. Once a testbench exists, the
syntax probe of a DUT is its joint compile-and-simulate with that testbench;
the cached result is what scoring reads later, so a clean DUT is compiled
once. Only a DUT that fails the joint compile gets the standalone probe,
whose diagnostics go back to the agent.
"""

from __future__ import annotations

import json
import shutil
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable, Optional, Protocol

from . import checkpoints
from .agents import (
    AgentTeam, NoCodeBlock, PromptLibrary, SyntaxChecker, SyntaxUnfixable, map_in_order
)
from .checkpoints import CheckTrace, Score, TraceError
from .errors import EngineError
from .gateway import Backend, RetryPolicy, DEFAULT_RETRY, SamplingParams
from .golden import GoldenCriterion, DEFAULT_CRITERION, evaluate_golden
from .problems import Problem
from .simbridge import Diagnostic, SimRun, VerilogSource


class LineageMismatch(EngineError):
    """A debug trial is paired with a candidate it was not derived from."""


@dataclass(frozen=True)
class TempProfile:
    name: str
    temperature: float
    top_p: float
    default_pool_size: int


HIGH_TEMP = TempProfile("high", 0.85, 0.95, 20)
LOW_TEMP = TempProfile("low", 0.0, 0.01, 1)
PROFILES = {"high": HIGH_TEMP, "low": LOW_TEMP}

AGENT_MODES = ("multi", "single", "vanilla")


@dataclass
class RunConfig:
    """Knobs of one pipeline run; ``pool_size=None`` follows the profile."""

    pool_size: Optional[int] = None
    top_k: int = 3
    max_debug_rounds: int = 10
    window_len: int = 8
    syntax_fix_cap: int = 5
    temp_profile: str = "high"
    agent_mode: str = "multi"
    max_tb_regens: int = 2
    sim_timeout: float = 30.0
    max_tokens: int = 4096
    seed: Optional[int] = None
    scrub: bool = False
    fanout_sampling: bool = False
    sim_workers: int = 8
    tb_prompt_limit: Optional[int] = None
    role_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.temp_profile not in PROFILES:
            raise ValueError(f"unknown temperature profile: {self.temp_profile!r}")
        if self.agent_mode not in AGENT_MODES:
            raise ValueError(f"unknown agent mode: {self.agent_mode!r}")
        if self.pool_size is None:
            self.pool_size = PROFILES[self.temp_profile].default_pool_size
        if not (1 <= self.pool_size <= 64):
            raise ValueError("pool_size must be in [1, 64]")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.top_k = min(self.top_k, self.pool_size)
        if self.max_debug_rounds < 0:
            raise ValueError("max_debug_rounds must be >= 0")
        if self.max_tb_regens < 0:
            raise ValueError("max_tb_regens must be >= 0")
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")
        if self.sim_workers < 1:
            raise ValueError("sim_workers must be >= 1")

    @property
    def profile(self) -> TempProfile:
        return PROFILES[self.temp_profile]

    def params(
        self, temperature: float = LOW_TEMP.temperature, top_p: float = LOW_TEMP.top_p
    ) -> SamplingParams:
        """One call's sampling parameters; sampling sets ``n_completions``."""
        return SamplingParams(
            temperature=temperature,
            top_p=top_p,
            n_completions=1,
            max_tokens=self.max_tokens,
            seed=self.seed,
        )

    def echo(self) -> dict:
        data = asdict(self)
        data["temperature"] = self.profile.temperature
        data["top_p"] = self.profile.top_p
        return data


def max_llm_calls(config: RunConfig) -> int:
    """Closed-form upper bound on LLM calls a run can issue."""
    if config.agent_mode == "vanilla":
        return 1
    s = config.syntax_fix_cap
    epochs = 1 + config.max_tb_regens
    per_epoch = (1 + s) + (1 + s) + 1  # testbench + fixes, initial RTL + fixes, judge
    sampling = config.pool_size * (1 + s)
    debugging = config.max_debug_rounds * config.top_k * (1 + s)
    return epochs * per_epoch + sampling + debugging


# ---------------------------------------------------------------------------
# Pool model


@dataclass
class Candidate:
    id: int
    source: VerilogSource
    score: Optional[Score] = None
    trace: Optional[CheckTrace] = None
    lineage: Optional[int] = None  # parent id when produced by a debug trial
    round: int = 0


@dataclass
class CandidatePool:
    all: list[Candidate] = field(default_factory=list)
    selected: list[int] = field(default_factory=list)
    round: int = 0

    def by_id(self, cid: int) -> Candidate:
        for c in self.all:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def selected_candidates(self) -> list[Candidate]:
        return [self.by_id(cid) for cid in self.selected]


@dataclass
class RunOutcome:
    status: str  # "solved" | "budget_exhausted" | "tb_regen_exhausted" | "error"
    best: Optional[Candidate]
    score_history: list[tuple[int, list[float]]]
    testbench: Optional[VerilogSource]
    transcript_dir: Path
    llm_calls: int = 0
    error: Optional[str] = None


def select_top_k(pool: CandidatePool, k: int) -> list[int]:
    """Ids of the K highest-scoring candidates; ties break to the lower id.

    Maximizing the summed score of a size-K subset reduces to per-candidate
    top-K; when the pool is smaller than K, everything is selected.
    """
    if not pool.all:
        raise ValueError("cannot select from an empty pool")
    if k < 1:
        raise ValueError("k must be >= 1")
    scored = sorted(pool.all, key=lambda c: (-(c.score.value if c.score else 0.0), c.id))
    return [c.id for c in scored[:k]]


def update_selection(
    selected: list[Candidate], trials: list[Optional[Candidate]]
) -> list[Candidate]:
    """Per lineage, keep the better of {original, trial}; ties keep the trial."""
    if len(selected) != len(trials):
        raise LineageMismatch("selection and trial lists differ in length")
    survivors = []
    for original, trial in zip(selected, trials):
        if trial is None:
            survivors.append(original)
            continue
        if trial.lineage != original.id:
            raise LineageMismatch(
                f"trial {trial.id} has lineage {trial.lineage}, expected {original.id}"
            )
        orig_score = original.score.value if original.score else 0.0
        trial_score = trial.score.value if trial.score else 0.0
        survivors.append(trial if trial_score >= orig_score else original)
    return survivors


def should_terminate(pool: CandidatePool, config: RunConfig) -> tuple[bool, Optional[str]]:
    """Stop when any selected score is 1, or the round budget is spent."""
    for candidate in pool.selected_candidates():
        if candidate.score is not None and candidate.score.value == 1.0:
            return True, "solved"
    if pool.round >= config.max_debug_rounds:
        return True, "budget"
    return False, None


# ---------------------------------------------------------------------------
# Runtime wiring


class SimRunner(Protocol):
    def run(self, sources: list[VerilogSource], workdir: str | Path) -> SimRun: ...


@dataclass
class EngineRuntime:
    """Everything a run needs besides the problem and the config."""

    backend: Backend
    sim_runner: SimRunner
    syntax_checker: SyntaxChecker
    templates: PromptLibrary = field(default_factory=PromptLibrary)
    model_id: str = "default"
    transcript_dir: Path = Path("out")
    retry: RetryPolicy = DEFAULT_RETRY
    golden_criterion: GoldenCriterion = DEFAULT_CRITERION


class EventLog:
    """Append-only JSON Lines event stream; deterministic (no timestamps)."""

    def __init__(self, path: Path):
        self.path = path
        self.events: list[dict] = []
        self._lock = threading.Lock()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("", encoding="utf-8")

    def emit(self, event: dict) -> None:
        with self._lock:
            self.events.append(event)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(event, sort_keys=True) + "\n")


class WorkdirAllocator:
    """Hands out fresh ``<root>/<label>/attempt_<k>`` dirs, thread-safe.

    Leftovers from an earlier run into the same output directory are skipped
    rather than reused, so reruns stay auditable and never collide.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def acquire(self, label: str) -> Path:
        with self._lock:
            k = self._counts.get(label, 0)
            while True:
                path = self.root / label / f"attempt_{k}"
                if not path.exists() or not any(path.iterdir()):
                    break
                k += 1
            self._counts[label] = k + 1
            path.mkdir(parents=True, exist_ok=True)
        return path


def _normalize_code(code: str) -> str:
    return "\n".join(line.rstrip() for line in code.strip().splitlines())


@dataclass(frozen=True)
class SimEval:
    """One simulate-and-parse outcome for a candidate."""

    score: Score
    trace: Optional[CheckTrace]
    status: str  # "ok" | "sentinel" | sim status | "trace_error"
    detail: str = ""
    sim: Optional[SimRun] = None


class _SimCache:
    """Simulates each distinct normalized source once per testbench epoch.

    Single-flight: the first caller for a source simulates it; callers that
    arrive while it runs wait for its result, or get its exception. A
    simulation that raises is not cached, so a later caller tries again.
    """

    def __init__(self, runner: SimRunner, testbench: VerilogSource, allocator, scrub: bool):
        self.runner = runner
        self.testbench = testbench
        self.allocator = allocator
        self.scrub = scrub
        self._results: dict[str, Future[SimEval]] = {}
        self._lock = threading.Lock()

    def evaluate(self, source: VerilogSource, label: str) -> SimEval:
        if source.sentinel:
            return SimEval(Score.unsimulatable(), None, "sentinel")
        key = _normalize_code(source.code)
        with self._lock:
            future = self._results.get(key)
            owner = future is None
            if owner:
                future = self._results[key] = Future()
        if not owner:
            return future.result()
        try:
            result = self._simulate(source, label)
        except BaseException as exc:
            with self._lock:
                del self._results[key]
            future.set_exception(exc)
            raise
        future.set_result(result)
        return result

    def _simulate(self, source: VerilogSource, label: str) -> SimEval:
        workdir = self.allocator.acquire(label)
        sim = self.runner.run([source, self.testbench], workdir)
        if sim.status != "ok":
            result = SimEval(Score.unsimulatable(), None, sim.status, sim=sim)
        else:
            try:
                trace = checkpoints.parse_trace(sim.stdout)
                result = SimEval(checkpoints.score(trace), trace, "ok", sim=sim)
            except TraceError as exc:
                result = SimEval(
                    Score.unsimulatable(), None, "trace_error", detail=str(exc), sim=sim
                )
            if self.scrub:
                shutil.rmtree(workdir, ignore_errors=True)
        return result


# ---------------------------------------------------------------------------
# The pipeline


def run_pipeline(problem: Problem, config: RunConfig, runtime: EngineRuntime) -> RunOutcome:
    """Execute the full pipeline for one problem; never raises for in-band
    failures (returns status="error" with a partial transcript instead)."""
    transcript = Path(runtime.transcript_dir)
    transcript.mkdir(parents=True, exist_ok=True)
    events = EventLog(transcript / "events.jsonl")
    events.emit(
        {
            "event": "run_start",
            "task": problem.task_id,
            "mode": config.agent_mode,
            "profile": config.temp_profile,
            "pool_size": config.pool_size,
            "top_k": config.top_k,
        }
    )
    # No task on this executor may queue work on it and wait for that work:
    # at one worker the run would deadlock.
    workers = 1 if config.agent_mode == "single" else config.sim_workers
    try:
        with ThreadPoolExecutor(max_workers=workers) as executor:
            outcome = _run(problem, config, runtime, events, executor.map)
    except EngineError as exc:
        events.emit({"event": "outcome", "status": "error", "error": str(exc)})
        return RunOutcome(
            status="error",
            best=None,
            score_history=[],
            testbench=None,
            transcript_dir=transcript,
            error=str(exc),
        )
    events.emit(
        {
            "event": "outcome",
            "status": outcome.status,
            "best_id": outcome.best.id if outcome.best else None,
            "best_score": outcome.best.score.value
            if outcome.best and outcome.best.score
            else None,
        }
    )
    if outcome.best is not None:
        (transcript / "best.v").write_text(outcome.best.source.code, encoding="utf-8")
    return outcome


def _run(
    problem: Problem, config: RunConfig, runtime: EngineRuntime, events: EventLog, map_fn: Callable
) -> RunOutcome:
    transcript = Path(runtime.transcript_dir)
    allocator = WorkdirAllocator(transcript / "sim")
    cache: Optional[_SimCache] = None  # the current epoch's, once a testbench exists

    def check_syntax(source: VerilogSource, label: str) -> list[Diagnostic]:
        if source.kind == "dut" and cache is not None:
            if cache.evaluate(source, label).status != "compile_failed":
                return []
        return runtime.syntax_checker(source, allocator.acquire(label))

    team = AgentTeam(
        backend=runtime.backend,
        templates=runtime.templates,
        syntax_checker=check_syntax,
        model_id=runtime.model_id,
        mode="single" if config.agent_mode == "single" else "multi",
        base_params=config.params(),
        role_params={
            role: config.params(
                o.get("temperature", LOW_TEMP.temperature), o.get("top_p", LOW_TEMP.top_p)
            )
            for role, o in config.role_overrides.items()
        },
        syntax_fix_cap=config.syntax_fix_cap,
        retry=runtime.retry,
        event_sink=events.emit,
        fanout_sampling=config.fanout_sampling,
        tb_prompt_limit=config.tb_prompt_limit,
    )
    spec_text = problem.spec_text()

    if config.agent_mode == "vanilla":
        return _run_vanilla(problem, spec_text, config, runtime, events, team, allocator)

    next_id = 0

    def take_id() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    # Steps 1-3 with bounded testbench regeneration.
    regens = 0
    epoch = 0
    feedback: Optional[str] = None
    testbench: Optional[VerilogSource] = None
    initial: Optional[Candidate] = None
    while True:
        events.emit({"event": "step", "step": 1, "epoch": epoch})
        testbench = team.generate_testbench(
            spec_text,
            problem.golden_testbench,
            epoch=epoch,
            feedback=feedback,
            previous=testbench,
        )
        events.emit({"event": "step", "step": 2, "epoch": epoch})
        cache = _SimCache(runtime.sim_runner, testbench, allocator, config.scrub)
        rtl = team.generate_rtl(spec_text, testbench, epoch=epoch)
        initial = Candidate(id=take_id(), source=rtl)
        evaluation = cache.evaluate(initial.source, f"initial_e{epoch}")
        initial.score, initial.trace = evaluation.score, evaluation.trace
        events.emit(
            {
                "event": "sim",
                "label": f"initial_e{epoch}",
                "status": evaluation.status,
                "score": initial.score.value,
            }
        )
        if initial.score.value == 1.0:
            return RunOutcome(
                status="solved",
                best=initial,
                score_history=[(0, [1.0])],
                testbench=testbench,
                transcript_dir=transcript,
                llm_calls=team.llm_calls,
            )

        # Step 3: route the failure.
        events.emit({"event": "step", "step": 3, "epoch": epoch})
        if initial.trace is not None:
            verdict = team.judge(spec_text, testbench, initial.trace, epoch, config.window_len)
            regenerate = verdict.decision == "testbench_faulty"
            feedback = verdict.rationale or verdict.decision
        else:
            # No trace to arbitrate over: compile failures pointing into the
            # testbench, runtime failures, timeouts, and protocol violations
            # all implicate the testbench contract; DUT-side compile errors
            # implicate the RTL.
            regenerate, feedback = _route_without_trace(evaluation, events)
        if regenerate:
            regens += 1
            events.emit({"event": "tb_regen", "count": regens, "epoch": epoch})
            if regens > config.max_tb_regens:
                return RunOutcome(
                    status="tb_regen_exhausted",
                    best=initial,
                    score_history=[(0, [initial.score.value])],
                    testbench=testbench,
                    transcript_dir=transcript,
                    llm_calls=team.llm_calls,
                )
            events.emit({"event": "pool_invalidated", "epoch": epoch})
            epoch += 1
            continue
        break

    # Step 4: high-temperature sampling, scoring, top-K selection.
    events.emit({"event": "step", "step": 4, "epoch": epoch})
    sources = team.sample_rtl_candidates(
        spec_text,
        testbench,
        config.pool_size,
        config.params(config.profile.temperature, config.profile.top_p),
        epoch=epoch,
        map_fn=map_fn,
    )
    pool = CandidatePool(round=0)
    for source in sources:
        pool.all.append(Candidate(id=take_id(), source=source))
    _score_candidates(
        pool.all, cache, label_fn=lambda c, i=epoch: f"sample_e{i}_c{c.id}"
    )
    for candidate in pool.all:
        events.emit(
            {
                "event": "candidate",
                "id": candidate.id,
                "score": candidate.score.value if candidate.score else 0.0,
                "sentinel": candidate.source.sentinel,
            }
        )
    pool.selected = select_top_k(pool, config.top_k)
    events.emit({"event": "selection", "ids": pool.selected})
    history: list[tuple[int, list[float]]] = [
        (0, [c.score.value if c.score else 0.0 for c in pool.selected_candidates()])
    ]
    events.emit({"event": "round_scores", "round": 0, "scores": history[0][1]})

    # Step 5: debug rounds.
    roots = {cid: cid for cid in pool.selected}
    while True:
        done, reason = should_terminate(pool, config)
        if done:
            break
        round_index = pool.round + 1
        events.emit({"event": "step", "step": 5, "round": round_index})
        selected = pool.selected_candidates()
        trials = _debug_round(
            team, selected, roots, testbench, config, cache, events, round_index, take_id, map_fn
        )
        survivors = update_selection(selected, trials)
        for old, new in zip(selected, survivors):
            if new.id != old.id:
                roots[new.id] = roots.pop(old.id)
                pool.all.append(new)
        pool.selected = [c.id for c in survivors]
        pool.round = round_index
        scores = [c.score.value if c.score else 0.0 for c in survivors]
        history.append((round_index, scores))
        events.emit({"event": "round_scores", "round": round_index, "scores": scores})

    best = max(
        pool.selected_candidates(),
        key=lambda c: (c.score.value if c.score else 0.0, -c.id),
    )
    status = "solved" if reason == "solved" else "budget_exhausted"
    return RunOutcome(
        status=status,
        best=best,
        score_history=history,
        testbench=testbench,
        transcript_dir=transcript,
        llm_calls=team.llm_calls,
    )


def _route_without_trace(evaluation: SimEval, events: EventLog) -> tuple[bool, str]:
    """Failure routing when no trace exists; returns (regenerate?, feedback)."""
    if evaluation.status == "compile_failed":
        diags = evaluation.sim.diagnostics if evaluation.sim else ()
        tb_side = any(
            d.severity == "error" and Path(d.file).name.startswith("tb") for d in diags
        )
        events.emit(
            {"event": "route", "reason": "compile_failed", "testbench_implicated": tb_side}
        )
        if tb_side:
            detail = "; ".join(d.render() for d in diags[:5])
            return True, f"testbench failed to compile with the RTL: {detail}"
        return False, "joint compilation failed on the RTL side"
    reason = f"simulation did not produce a valid checkpoint log ({evaluation.status})"
    if evaluation.detail:
        reason += f": {evaluation.detail}"
    events.emit({"event": "route", "reason": evaluation.status})
    return True, reason


def _score_candidates(candidates, cache: _SimCache, label_fn) -> None:
    """Score from the cache: each candidate's syntax probe already simulated it."""
    for candidate in candidates:
        evaluation = cache.evaluate(candidate.source, label_fn(candidate))
        candidate.score, candidate.trace = evaluation.score, evaluation.trace


def _debug_round(
    team: AgentTeam,
    selected: list[Candidate],
    roots: dict[int, int],
    testbench: VerilogSource,
    config: RunConfig,
    cache: _SimCache,
    events: EventLog,
    round_index: int,
    take_id: Callable[[], int],
    map_fn: Callable,
) -> list[Optional[Candidate]]:
    """One trial per selected candidate; slots without a usable trace skip."""

    def make_trial(candidate: Candidate, emit: Callable[[dict], None]) -> Optional[VerilogSource]:
        if candidate.trace is None or candidate.score is None:
            emit({"event": "trial_skipped", "round": round_index, "id": candidate.id})
            return None
        anchor = checkpoints.earliest_mismatch(candidate.trace)
        if anchor is None:
            return None
        window = checkpoints.extract_window(candidate.trace, anchor, config.window_len)
        try:
            return team.debug_trial(
                candidate.source,
                window,
                testbench,
                round_index=round_index,
                root_id=roots[candidate.id],
                emit=emit,
            )
        except (SyntaxUnfixable, NoCodeBlock) as exc:
            # A trial that cannot even be repaired is discarded; the lineage
            # keeps its current candidate and stays monotone.
            emit(
                {
                    "event": "trial_failed",
                    "round": round_index,
                    "id": candidate.id,
                    "reason": type(exc).__name__,
                }
            )
            return None

    sources = map_in_order(map_fn, make_trial, selected, events.emit)
    trials = [
        None
        if source is None
        else Candidate(id=take_id(), source=source, lineage=candidate.id, round=round_index)
        for candidate, source in zip(selected, sources)
    ]
    live = [t for t in trials if t is not None]
    _score_candidates(
        live, cache, label_fn=lambda c: f"debug_r{round_index}_c{c.lineage}"
    )
    for t in live:
        events.emit(
            {
                "event": "trial",
                "round": round_index,
                "lineage": t.lineage,
                "id": t.id,
                "score": t.score.value if t.score else 0.0,
            }
        )
    return trials


def _run_vanilla(
    problem: Problem,
    spec_text: str,
    config: RunConfig,
    runtime: EngineRuntime,
    events: EventLog,
    team: AgentTeam,
    allocator: WorkdirAllocator,
) -> RunOutcome:
    """One-pass baseline: a single generation, verified only against the
    golden bench when one exists."""
    rtl = team.generate_rtl_vanilla(spec_text)
    candidate = Candidate(id=0, source=rtl)
    transcript = Path(runtime.transcript_dir)
    if problem.golden_testbench:
        result = evaluate_golden(
            rtl,
            problem.golden_testbench,
            runtime.sim_runner,
            allocator.acquire("golden"),
            runtime.golden_criterion,
        )
        events.emit({"event": "golden", "passed": result.passed, "reason": result.reason})
        passed = result.passed
        candidate.score = (
            Score(1.0)
            if passed
            else (Score(0.0) if result.sim and result.sim.status == "ok" else Score.unsimulatable())
        )
        status = "solved" if passed else "budget_exhausted"
        history = [(0, [candidate.score.value])]
    else:
        status = "budget_exhausted"
        history = []
    return RunOutcome(
        status=status,
        best=candidate,
        score_history=history,
        testbench=None,
        transcript_dir=transcript,
        llm_calls=team.llm_calls,
    )
