"""Five-step pipeline: testbench, initial RTL, arbitration, high-temperature
candidate sampling with mismatch scoring, and windowed debug rounds.

Control flow per run:

1. Generate the checkpoint-logging testbench (golden bench folded in when
   available).
2. Generate one low-temperature RTL shot and simulate it; a perfect score
   ends the run immediately.
3. Otherwise the judge arbitrates: a faulty testbench is regenerated (at most
   ``max_tb_regens`` times, invalidating any scores) and step 2 restarts; a
   faulty RTL proceeds, as does one whose reply held no usable source or whose
   syntax repair failed (it scores 0, and no judge is asked). A testbench
   reply with no usable source, or whose syntax repair failed, counts as a
   faulty testbench without a step 2.
4. Sample ``pool_size`` candidates at the configured temperature profile,
   repair their syntax concurrently, simulate them all, score each as
   1 - mismatches/checks, select the top-K.
5. Debug rounds: for every selected candidate, hand the debug agent the
   waveform window at its earliest mismatch; the trials run concurrently,
   and their ids and events follow slot order. Per lineage the better of
   {trial, original} survives (ties prefer the trial). Repeat until a score
   hits 1 or the round budget is spent. The state is the selected list, one
   candidate per slot, plus the round index; each slot's lineage root is
   the id it was selected with in step 4 and never changes. In multi mode
   step 5 starts before step 4's stragglers settle; ``_Run.speculate``
   states the rule.

``run_pipeline`` builds the event log and one ``_Run``, which holds the
run's state (team, workdir allocator, the epoch's simulation cache, candidate
ids) and runs the steps as its methods; the ``RunOutcome`` is built in
``run_pipeline`` alone. Steps 4 and 5 fan out on one executor per run with
one worker per sample, or one in single-agent mode, whose roles share one
conversation. Each fan-out is one ``_Batch``: its events and its error come
out only after all of its calls have ended, in call order.

Every simulation gets its own flat workdir name under ``<transcript>/sim/``
(``sim/rtl_gen.samplefix.e0.c3.check0.a0``), which only a toolchain that
writes files creates, and every decision is appended to ``events.jsonl``
through one open handle. Once a testbench exists, the
syntax probe of a DUT is its joint compile-and-simulate with that testbench;
the cached result is what scoring reads later, so each distinct DUT is
compiled once. A failed joint compile sends its errors that name the DUT's
file back to the agent. Only testbenches get the standalone probe.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable, Iterable, Optional, Protocol

from . import checkpoints
from .agents import (
    SYNTAX_FIX_CAP, AgentTeam, NoCodeBlock, PromptLibrary, SyntaxUnfixable, unbuildable
)
from .checkpoints import DEFAULT_WINDOW_LEN, CheckRecord, CheckTrace, Score, TraceError
from .errors import EngineError
from .gateway import DEFAULT_MAX_TOKENS, MAX_COMPLETIONS, Backend, SamplingParams
from .golden import evaluate_golden
from .problems import Problem
from .simbridge import DEFAULT_SIM_TIMEOUT, Diagnostic, SimRun, VerilogSource, named_kind


class LineageMismatch(EngineError):
    """A debug trial is paired with a candidate it was not derived from."""


@dataclass(frozen=True)
class TempProfile:
    temperature: float
    top_p: float
    default_pool_size: int


HIGH_TEMP = TempProfile(0.85, 0.95, 20)
LOW_TEMP = TempProfile(0.0, 0.01, 1)
PROFILES = {"high": HIGH_TEMP, "low": LOW_TEMP}

AGENT_MODES = ("multi", "single", "vanilla")


@dataclass
class RunConfig:
    """Knobs of one pipeline run; ``pool_size=None`` follows the profile."""

    pool_size: Optional[int] = None
    top_k: int = 3
    max_debug_rounds: int = 10
    window_len: int = DEFAULT_WINDOW_LEN
    temp_profile: str = "high"
    agent_mode: str = "multi"
    max_tb_regens: int = 2
    sim_timeout: float = DEFAULT_SIM_TIMEOUT
    max_tokens: int = DEFAULT_MAX_TOKENS
    seed: Optional[int] = None
    fanout_sampling: bool = False

    def __post_init__(self):
        if self.temp_profile not in PROFILES:
            raise ValueError(f"unknown temperature profile: {self.temp_profile!r}")
        if self.agent_mode not in AGENT_MODES:
            raise ValueError(f"unknown agent mode: {self.agent_mode!r}")
        if self.pool_size is None:
            self.pool_size = PROFILES[self.temp_profile].default_pool_size
        for name in ("pool_size", "top_k", "max_debug_rounds", "window_len", "max_tb_regens",
                     "max_tokens"):
            if type(getattr(self, name)) is not int:  # a bool is no count
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.seed is not None and type(self.seed) is not int:
            raise ValueError(f"seed must be an int or None, got {self.seed!r}")
        if not isinstance(self.fanout_sampling, bool):
            raise ValueError(f"fanout_sampling must be a bool, got {self.fanout_sampling!r}")
        if not (1 <= self.pool_size <= MAX_COMPLETIONS):
            raise ValueError(f"pool_size must be in [1, {MAX_COMPLETIONS}]")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.top_k = min(self.top_k, self.pool_size)
        if self.max_debug_rounds < 0:
            raise ValueError("max_debug_rounds must be >= 0")
        if self.max_tb_regens < 0:
            raise ValueError("max_tb_regens must be >= 0")
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")
        # A bool is no timeout; NaN fails both comparisons.
        if type(self.sim_timeout) not in (int, float) or not 0 < self.sim_timeout < math.inf:
            raise ValueError(f"sim_timeout must be finite and > 0, got {self.sim_timeout!r}")
        self.params()  # SamplingParams checks max_tokens

    @property
    def profile(self) -> TempProfile:
        return PROFILES[self.temp_profile]

    def params(
        self, temperature: float = LOW_TEMP.temperature, top_p: float = LOW_TEMP.top_p
    ) -> SamplingParams:
        """One call's sampling parameters; sampling sets ``n_completions``."""
        return SamplingParams(temperature, top_p, max_tokens=self.max_tokens, seed=self.seed)

    def echo(self) -> dict:
        data = asdict(self)
        data["temperature"] = self.profile.temperature
        data["top_p"] = self.profile.top_p
        return data


def max_llm_calls(config: RunConfig) -> int:
    """Closed-form upper bound on LLM calls a run can issue.

    In multi mode it also counts what step 5 may ask and then discard (see
    ``_Run.speculate``): the debug rounds of a displaced speculation, at most
    ``SYNTAX_FIX_CAP - 1`` of them, since round ``SYNTAX_FIX_CAP`` waits for
    every sample to settle; and one lead trial.
    """
    if config.agent_mode == "vanilla":
        return 1
    s = SYNTAX_FIX_CAP
    epochs = 1 + config.max_tb_regens
    per_epoch = (1 + s) + (1 + s) + 1  # testbench + fixes, initial RTL + fixes, judge
    sampling = config.pool_size * (1 + s)
    trials = config.max_debug_rounds * config.top_k
    if config.agent_mode == "multi":
        trials += min(config.max_debug_rounds, s - 1) * config.top_k
        trials += min(config.max_debug_rounds, 1)  # the lead
    return epochs * per_epoch + sampling + trials * (1 + s)


# ---------------------------------------------------------------------------
# Candidates and selection


@dataclass
class Candidate:
    """A DUT with its score and trace; only a vanilla run without a golden
    bench leaves ``score`` unset."""

    id: int
    source: VerilogSource
    score: Optional[Score] = None
    trace: Optional[CheckTrace] = None
    lineage: Optional[int] = None  # parent id when produced by a debug trial
    round: int = 0


@dataclass
class RunOutcome:
    status: str  # "solved" | "budget_exhausted" | "tb_regen_exhausted" | "error"
    best: Optional[Candidate]
    score_history: list[tuple[int, list[float]]]
    testbench: Optional[VerilogSource]
    llm_calls: int = 0
    error: Optional[str] = None


def select_top_k(candidates: list[Candidate], k: int) -> list[Candidate]:
    """The K highest-scoring candidates; ties break to the lower id.

    Maximizing the summed score of a size-K subset reduces to per-candidate
    top-K; when there are fewer than K candidates, all are selected.
    """
    if not candidates:
        raise ValueError("cannot select from an empty pool")
    if k < 1:
        raise ValueError("k must be >= 1")
    return sorted(candidates, key=lambda c: (-c.score.value, c.id))[:k]


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
        survivors.append(trial if trial.score.value >= original.score.value else original)
    return survivors


def should_terminate(
    selected: list[Candidate], round_index: int, config: RunConfig
) -> tuple[bool, Optional[str]]:
    """Stop when any selected score is 1, or the round budget is spent."""
    if any(c.score.value == 1.0 for c in selected):
        return True, "solved"
    if round_index >= config.max_debug_rounds:
        return True, "budget"
    return False, None


# ---------------------------------------------------------------------------
# Runtime wiring


class SimRunner(Protocol):
    def run(self, sources: list[VerilogSource], workdir: str | Path) -> SimRun: ...


WorkdirChecker = Callable[[VerilogSource, Path], list[Diagnostic]]  # _Probe wraps it


@dataclass
class EngineRuntime:
    """Everything a run needs besides the problem and the config."""

    backend: Backend
    sim_runner: SimRunner
    syntax_checker: WorkdirChecker
    templates: PromptLibrary = field(default_factory=PromptLibrary)
    model_id: str = "default"
    transcript_dir: Path = Path("out")


class EventLog:
    """Append-only JSON Lines event stream; deterministic (no timestamps).

    The file is opened once; each event is one line, written and flushed
    under the lock, so it is readable as soon as ``emit`` returns. The run
    closes the log when it ends.
    """

    def __init__(self, path: Path):
        self.path = path
        self._lock = threading.Lock()
        self._fh = path.open("w", encoding="utf-8")

    def emit(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True) + "\n"
        with self._lock:
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._fh.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _flat_name(label: str) -> str:
    """``label`` as one path component: ``/`` becomes ``.``; ``%`` and ``.``
    are percent-escaped first, so distinct labels never share a name."""
    return label.replace("%", "%25").replace(".", "%2E").replace("/", ".")


class WorkdirAllocator:
    """Hands out fresh flat workdir paths ``<root>/<label>.a<k>``, thread-safe.

    ``k`` counts each label's workdirs from 0; a ``/`` in the label becomes
    ``.`` (``rtl_gen/init0/check0`` -> ``rtl_gen.init0.check0.a0``). The
    allocator creates nothing: the seam that writes into a workdir creates
    it, so an in-process toolchain touches no disk. The root is listed once,
    at the first call, and every name already there is skipped, so a rerun
    into the same output directory never reuses an earlier run's workdir.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self._counts: dict[str, int] = {}
        self._taken: Optional[set[str]] = None
        self._lock = threading.Lock()

    def acquire(self, label: str) -> Path:
        stem = _flat_name(label)
        with self._lock:
            if self._taken is None:
                try:
                    self._taken = set(os.listdir(self.root))
                except FileNotFoundError:
                    self._taken = set()
            k = self._counts.get(label, 0)
            while f"{stem}.a{k}" in self._taken:
                k += 1
            self._counts[label] = k + 1
        return self.root / f"{stem}.a{k}"


def _normalize_code(code: str) -> str:
    return "\n".join(line.rstrip() for line in code.strip().splitlines())


@dataclass(frozen=True)
class SimEval:
    """One simulate-and-parse outcome for a candidate."""

    score: Score
    trace: Optional[CheckTrace]
    status: str  # "ok" | "sentinel" | sim status | "trace_error"
    detail: str = ""
    diagnostics: tuple[Diagnostic, ...] = ()  # the simulation's, after the parse


class _SimCache:
    """Simulates each distinct normalized source once per testbench epoch.

    Single-flight: the first caller for a source simulates it; callers that
    arrive while it runs wait for its result, or get its exception. A
    simulation that raises is not cached, so a later caller tries again.

    Every candidate of an epoch runs the same stimulus, so their traces
    share most CHECK lines; the epoch's traces are parsed through one memo
    of those lines (``checkpoints.parse_trace``'s ``lines``) and share their
    records.
    """

    def __init__(self, runner: SimRunner, testbench: VerilogSource, allocator):
        self.runner = runner
        self.testbench = testbench
        self.allocator = allocator
        self._results: dict[str, Future[SimEval]] = {}
        self._lines: dict[str, CheckRecord] = {}
        self._lock = threading.Lock()

    def evaluate(self, source: VerilogSource, label: str) -> SimEval:
        if source.sentinel:
            return SimEval(Score(0.0), None, "sentinel")
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
        sim = self.runner.run([source, self.testbench], self.allocator.acquire(label))
        if sim.status != "ok":
            return SimEval(Score(0.0), None, sim.status, "", sim.diagnostics)
        try:
            trace = checkpoints.parse_trace(sim.stdout, lines=self._lines)
            return SimEval(checkpoints.score(trace), trace, "ok", "", sim.diagnostics)
        except TraceError as exc:
            return SimEval(Score(0.0), None, "trace_error", str(exc), sim.diagnostics)


class _Batch:
    """``fn(item, emit, failed)`` for each of ``items``, run concurrently on
    ``submit``. ``emit`` is the call's event sink; ``failed(k)`` reports
    that the call's check ``k`` left it broken (check 0 probes the source
    before any fix, check k follows fix attempt k), which ``settled`` waits
    on (step 4's samples), and returns whether the call goes on.

    One rule: the batch's events go to ``sink``, in item order, and its first
    error (in item order) is raised, only after every call in the batch has
    ended. So neither the log nor the error depends on which call ends first.

    ``failed(k)`` holds a call that failed attempt ``k`` (below
    ``SYNTAX_FIX_CAP``) until ``decide(k)`` or ``release``: whoever makes a
    batch whose calls report failures must reach one of them. Check 0 is
    decided from the start, so ``failed(0)`` never waits. A call that
    failed attempt ``stop`` or later stops; ``release(stop)`` sets it once,
    together with the decision that stop marks. Step 5's trials never
    report a failure, so nothing decides for them.
    """

    def __init__(self, fn: Callable, items: Iterable, submit: Callable, sink: Callable):
        items = list(items)
        self.sink = sink
        self.failed = [-1] * len(items)  # the last check each call failed so far
        self.logs: list[list[dict]] = [[] for _ in items]
        self.decided = 0  # fix attempts whose decision is made
        self.stop = math.inf
        self._cond = cond = threading.Condition()

        def wake(_future: Future) -> None:
            with cond:
                cond.notify_all()

        self.futures: list[Future] = []
        for i, item in enumerate(items):
            future = submit(fn, item, self.logs[i].append, functools.partial(self._fail, i))
            future.add_done_callback(wake)
            self.futures.append(future)

    def _fail(self, i: int, attempt: int) -> bool:
        with self._cond:
            self.failed[i] = attempt
            self._cond.notify_all()
            if attempt < SYNTAX_FIX_CAP:
                self._cond.wait_for(lambda: self.decided >= attempt)
            return attempt < self.stop

    def decide(self, attempt: int) -> None:
        """Let the calls that failed ``attempt`` start their next attempt."""
        with self._cond:
            self.decided = attempt
            self._cond.notify_all()

    def release(self, stop: float = math.inf) -> None:
        """Decide every attempt: the calls that failed attempt ``stop`` or
        later stop, the others go on."""
        with self._cond:
            self.decided, self.stop = math.inf, stop
            self._cond.notify_all()

    def settled(self, check: int) -> list:
        """The results of the calls whose last failed check is below
        ``check``, in item order, once each of them has ended; [] if one of
        them raised. ``settled(0)`` holds the calls that passed check 0,
        ``settled(r)`` those that failed fewer than r fix attempts.

        A call still running after failing check ``check`` can only end
        later, with as many failures, so the list depends on the calls'
        outcomes alone.
        """
        futures, failed = self.futures, self.failed
        with self._cond:
            self._cond.wait_for(
                lambda: all(f.done() for f, k in zip(futures, failed) if k < check)
            )
            counted = [f for f, k in zip(futures, failed) if k < check]
        if any(f.exception() is not None for f in counted):
            return []
        return [f.result() for f in counted]

    def results(self) -> list:
        """Every call's result, in item order, once all have ended and their
        events are logged; raises the first call's error instead, if one raised."""
        wait(self.futures)
        for log in self.logs:
            for event in log:
                self.sink(event)
        error = next((f.exception() for f in self.futures if f.exception() is not None), None)
        if error is None:
            return [f.result() for f in self.futures]
        # The error's traceback holds this frame: drop every path from the
        # frame back to the error, so the run is freed without the cyclic collector.
        self.futures = []
        try:
            raise error
        finally:
            error = None


@dataclass
class _Lineages:
    """Step 5's state: the selected list, one candidate per slot; each slot's
    lineage root, the id it was selected with in step 4; the score history,
    whose last entry is the current round; whether step 5 restarted after a
    discarded speculation."""

    selected: list[Candidate]
    roots: list[int]
    history: list[tuple[int, list[float]]]
    restart: bool = False

    @property
    def round(self) -> int:
        return self.history[-1][0]


# A slot's debug trial, with its evaluation; None when the slot has no trace
# or the trial could not be repaired.
_Trial = Optional[tuple[VerilogSource, SimEval]]


class _Lead:
    """Round 1's trial of one step-4 sample, submitted before round 1 starts
    (see ``_Run.speculate``). Its events are held until the first round 1
    takes it or it is discarded."""

    def __init__(self, candidate: Candidate, trial: Callable, submit: Callable):
        self.root = candidate.id
        self.events: list[dict] = []
        self.future: Optional[Future] = submit(
            trial, (candidate, candidate.id), self.events.append, None
        )

    def solves(self) -> bool:
        """Wait for the trial; whether it scores 1 (a trial that raised does not)."""
        if self.future.exception() is not None:
            return False
        result: _Trial = self.future.result()
        return result is not None and result[1].score.value == 1.0

    def offer(self, lineages: _Lineages, emit: Callable[[dict], None]) -> Optional["_Lead"]:
        """The lead, if the first round 1 of ``lineages`` uses it: its root
        is selected and the round is no restart. Else it is discarded here."""
        if self.root in lineages.roots and not lineages.restart:
            return self
        self.discard(emit)
        return None

    def take(self, emit: Callable[[dict], None]) -> Future:
        """Wait for the trial, pass its held events to ``emit`` and hand over
        its future."""
        wait([self.future])
        for event in self.events:
            emit(event)
        future, self.future = self.future, None
        return future

    def discard(self, emit: Callable[[dict], None]) -> None:
        """Log the held events and one ``lead_discarded`` event; then raise
        the trial's error, if it raised."""
        error = self.take(emit).exception()
        emit({"event": "lead_discarded", "id": self.root})
        if error is not None:
            # As in ``_Batch.results``: no path from this frame to the error.
            try:
                raise error
            finally:
                error = None


# ---------------------------------------------------------------------------
# The pipeline

# What each of a run's paths ends with: (status, best, score history, testbench).
_Result = tuple[str, Optional[Candidate], list[tuple[int, list[float]]], Optional[VerilogSource]]


def run_pipeline(problem: Problem, config: RunConfig, runtime: EngineRuntime) -> RunOutcome:
    """Execute the full pipeline for one problem; never raises for in-band
    failures (returns status="error" with a partial transcript instead)."""
    transcript = Path(runtime.transcript_dir)
    transcript.mkdir(parents=True, exist_ok=True)
    with EventLog(transcript / "events.jsonl") as events:
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
        run = _Run(problem, config, runtime, events)
        # No task on this executor may queue work on it and wait for that work:
        # at one worker the run would deadlock. A sample waiting for a step-5
        # decision holds its worker, and a round starts only once top-K
        # samples have ended, so one worker per sample leaves room for its trials.
        # The lead trial is queued only after its own sample has ended, and
        # round 1's other trials only after the lead has, so it needs no more.
        workers = 1 if config.agent_mode == "single" else config.pool_size
        try:
            with ThreadPoolExecutor(max_workers=workers) as executor:
                status, best, history, testbench = run.execute(executor)
        except EngineError as exc:
            events.emit({"event": "outcome", "status": "error", "error": str(exc)})
            calls = run.team.llm_calls if run.team else 0
            return RunOutcome("error", None, [], None, llm_calls=calls, error=str(exc))
        events.emit(
            {
                "event": "outcome",
                "status": status,
                "best_id": best.id if best else None,
                "best_score": best.score.value if best and best.score else None,
            }
        )
        if best is not None:
            (transcript / "best.v").write_text(best.source.code, encoding="utf-8")
        return RunOutcome(status, best, history, testbench, run.team.llm_calls)


class _Probe:
    """The team's syntax checker: testbenches get the standalone probe, a DUT
    the verdict of its joint run in the epoch's cache.

    It holds no reference back to the run, so the run's state stays acyclic
    and is freed as soon as the run ends, without the cyclic collector.
    """

    def __init__(self, checker: WorkdirChecker, allocator: WorkdirAllocator):
        self.checker = checker
        self.allocator = allocator
        self.cache: Optional[_SimCache] = None  # the current epoch's

    def __call__(self, source: VerilogSource, label: str) -> list[Diagnostic]:
        if source.kind == "testbench":
            return self.checker(source, self.allocator.acquire(label))
        # DUTs are generated only after the epoch's testbench and cache exist.
        evaluation = self.cache.evaluate(source, label)
        failed = evaluation.diagnostics if evaluation.status == "compile_failed" else ()
        return [d for d in failed if d.severity == "error" and named_kind(d) == "dut"]


class _Run:
    """One run's state: the team, the workdir allocator, the current epoch's
    cache and the candidate ids, which follow creation order."""

    def __init__(
        self, problem: Problem, config: RunConfig, runtime: EngineRuntime, events: EventLog
    ):
        self.problem = problem
        self.config = config
        self.runtime = runtime
        self.emit = events.emit
        self.allocator = WorkdirAllocator(Path(runtime.transcript_dir) / "sim")
        self.probe = _Probe(runtime.syntax_checker, self.allocator)  # holds the epoch's cache
        self.ids = itertools.count()
        self.team: Optional[AgentTeam] = None

    def execute(self, executor: ThreadPoolExecutor) -> _Result:
        """Build the team, then run the baseline or steps 1-5; steps 4 and 5
        fan out on ``executor``."""
        self.submit = executor.submit
        self.team = AgentTeam(
            backend=self.runtime.backend,
            templates=self.runtime.templates,
            syntax_checker=self.probe,
            model_id=self.runtime.model_id,
            params=self.config.params(),
            mode="single" if self.config.agent_mode == "single" else "multi",
            event_sink=self.emit,
            fanout_sampling=self.config.fanout_sampling,
        )
        self.spec = self.problem.spec_text()
        return self.vanilla() if self.config.agent_mode == "vanilla" else self.steps()

    def steps(self) -> _Result:
        """Steps 1-3, each epoch with a new testbench, then steps 4 and 5."""
        config, team = self.config, self.team
        feedback: Optional[str] = None
        testbench: Optional[VerilogSource] = None
        initial: Optional[Candidate] = None
        for epoch in range(config.max_tb_regens + 1):
            self.emit({"event": "step", "step": 1, "epoch": epoch})
            try:
                testbench = team.generate_testbench(
                    self.spec,
                    self.problem.golden_testbench,
                    epoch=epoch,
                    feedback=feedback,
                    previous=testbench,
                )
            except (SyntaxUnfixable, NoCodeBlock) as exc:
                # A testbench the agent cannot deliver counts as a faulty one.
                self.emit({"event": "route", "reason": type(exc).__name__})
                feedback = str(exc)
            else:
                initial, evaluation = self.first_shot(testbench, epoch)
                if initial.score.value == 1.0:
                    return "solved", initial, [(0, [1.0])], testbench
                # Step 3: route the failure.
                self.emit({"event": "step", "step": 3, "epoch": epoch})
                if initial.trace is not None:
                    verdict = team.judge(
                        self.spec, testbench, initial.trace, epoch, config.window_len
                    )
                    regenerate = verdict.decision == "testbench_faulty"
                    feedback = verdict.rationale or verdict.decision
                else:
                    # No trace to arbitrate over: compile failures pointing
                    # into the testbench, runtime failures, timeouts, and
                    # protocol violations all implicate the testbench
                    # contract; other compile failures (DUT-side errors
                    # already went through syntax repair), and an RTL that
                    # repair could not fix, proceed.
                    regenerate, feedback = _route_without_trace(evaluation, self.emit)
                if not regenerate:
                    return self.refine(testbench, epoch)
            self.emit({"event": "tb_regen", "count": epoch + 1, "epoch": epoch})
            if epoch < config.max_tb_regens:
                self.emit({"event": "pool_invalidated", "epoch": epoch})
        history = [(0, [initial.score.value])] if initial else []
        return "tb_regen_exhausted", initial, history, testbench

    def first_shot(self, testbench: VerilogSource, epoch: int) -> tuple[Candidate, SimEval]:
        """Step 2: open the epoch's cache, then score one low-temperature RTL shot."""
        self.emit({"event": "step", "step": 2, "epoch": epoch})
        self.probe.cache = _SimCache(self.runtime.sim_runner, testbench, self.allocator)
        try:
            rtl = self.team.generate_rtl(self.spec, testbench, epoch=epoch)
        except (SyntaxUnfixable, NoCodeBlock):
            rtl = unbuildable(f"initial RTL e{epoch}")  # scores 0; step 3 moves on
        label = f"initial_e{epoch}"
        evaluation = self.probe.cache.evaluate(rtl, label)
        initial = Candidate(next(self.ids), rtl, evaluation.score, evaluation.trace)
        status, score = evaluation.status, initial.score.value
        self.emit({"event": "sim", "label": label, "status": status, "score": score})
        return initial, evaluation

    def refine(self, testbench: VerilogSource, epoch: int) -> _Result:
        """Step 4: sample, score and select the top-K; step 5: debug rounds
        over the selected slots, whose lineage roots are their step-4 ids.
        Step 5 may start before every sample has settled (``speculate``).
        The samples are one batch, whose events and error come out only after
        every sample has ended; then the candidates are logged, and only then
        the speculative rounds' events."""
        config = self.config
        self.emit({"event": "step", "step": 4, "epoch": epoch})
        replies = self.team.sample_rtl_candidates(
            self.spec,
            testbench,
            config.pool_size,
            config.params(config.profile.temperature, config.profile.top_p),
            epoch=epoch,
        )
        ids = [next(self.ids) for _ in replies]

        def repair(
            i: int, emit: Callable[[dict], None], failed: Callable[[int], bool]
        ) -> Candidate:
            source = self.team.repair_sample(replies[i], i, epoch, emit, failed)
            # A cache hit: the sample's syntax probe already simulated it.
            evaluation = self.probe.cache.evaluate(source, f"sample_e{epoch}_c{ids[i]}")
            return Candidate(ids[i], source, evaluation.score, evaluation.trace)

        samples = _Batch(repair, range(len(replies)), self.submit, self.emit)
        speculated: list[dict] = []  # the speculative rounds' events
        candidates: list[Candidate] = []
        lead: Optional[_Lead] = None  # a lead no speculative round took
        try:
            try:
                lineages, lead = self.speculate(samples, testbench, speculated.append)
            finally:
                # Even after a speculative round failed, every sample ends
                # first: a sample's error takes precedence, as without
                # speculation.
                candidates = samples.results()
        except BaseException:
            if lead is not None:
                lead.take(speculated.append)  # its calls are logged; the error stands
            raise
        finally:  # after a sample's failure, the candidate list is empty
            for c in candidates:
                score, sentinel = c.score.value, c.source.sentinel
                self.emit({"event": "candidate", "id": c.id, "score": score, "sentinel": sentinel})
            for event in speculated:
                self.emit(event)
        selected = select_top_k(candidates, config.top_k)
        # A speculative solve ends the run on its own rounds, as a perfect
        # score does in step 2; other rounds stand only on the true top-K.
        restart = (
            lineages is not None
            and samples.stop == math.inf
            and lineages.roots != [c.id for c in selected]
        )
        if restart:
            self.emit(
                {"event": "speculation_discarded", "ids": lineages.roots, "rounds": lineages.round}
            )
            lineages = None
        if lineages is None:
            lineages = self.select(selected, self.emit, restart)
        while True:
            done, reason = should_terminate(lineages.selected, lineages.round, config)
            if done:
                break
            if lead is not None:
                lead = lead.offer(lineages, self.emit)
            self.debug_round(lineages, testbench, self.emit, lead)
            lead = None
        if lead is not None:  # no round 1 ran
            lead.discard(self.emit)
        best = max(lineages.selected, key=lambda c: (c.score.value, -c.id))
        status = "solved" if reason == "solved" else "budget_exhausted"
        return status, best, lineages.history, testbench

    def speculate(
        self, samples: _Batch, testbench: VerilogSource, emit: Callable[[dict], None]
    ) -> tuple[Optional[_Lineages], Optional[_Lead]]:
        """Step-5 rounds on a provisional top-K while stragglers still repair;
        returns their lineages (None if no round ran) and the lead if no
        round took it.

        Multi mode only, and only when at least top-K samples settled by
        their first fix attempt and some did not: the provisional top-K is
        picked from those. Round r starts once round r-1 has not terminated
        and every sample still repairing has failed fix attempt r, and only
        if the top-K of the samples that settled by then is still the
        provisional one. A sample that fails its last attempt settles as a
        sentinel, so round ``SYNTAX_FIX_CAP`` always waits for every sample.
        If a counted sample raised, no further round starts.

        The lead: once every sample has ended or failed its probe (check 0),
        none raised and some failed it, the best sample that passed it
        starts its round-1 trial at once, alongside the others' first fix,
        if it scores below 1 and has a trace (multi mode, and only with a
        round budget). The first round 1, speculative or not, waits for it
        before it asks anything else. If the lead's root is selected and the
        round is no ``.restart``, the lead is that slot's trial; if it also
        scores 1, it solves the run and no other slot asks for a trial.
        Otherwise, or when no round 1 runs, the lead is discarded: its
        events are logged, then one ``lead_discarded`` event. A lead that
        raises fails its round, or the run where it is discarded.

        The samples are paced against these decisions, which is what lets a
        solve stop them: one that failed attempt r waits, before attempt r+1,
        until round r-1 has ended without solving the run (for r = 1, until
        round 1 starts, after the lead). If a sample settled by attempt 1
        scores 1, or the lead, or round r-1 does, every sample that fails
        attempt r or later stops there (the lead at r = 1). Any other end
        lets the waiting samples repair freely. So a sample waits on a
        slower round, never on another sample after its first attempt.
        Every decision rests on repair outcomes and round scores, never on
        timing, so a replay issues the same requests as its recording. Each
        round's trials are one batch, whose events (to ``emit``) and error
        come out only after all of its trials have ended.

        Once every sample has settled, ``refine`` keeps the rounds if one
        solved the run or the true top-K is the provisional one. Else one
        ``speculation_discarded`` event follows them, and step 5 starts again
        from round 1 on the true top-K, in debug conversations and with
        request tags marked ``.restart``. A speculative round that raises
        still waits for every sample, whose error comes first.
        """
        config, lineages, lead, stop = self.config, None, None, math.inf
        try:
            if config.agent_mode != "multi":
                return None, None
            clean = samples.settled(0)
            if config.max_debug_rounds and 0 < len(clean) < len(samples.futures):
                best = select_top_k(clean, 1)[0]
                if best.score.value < 1 and best.trace is not None:
                    trial = functools.partial(self.trial, testbench, 1, False)
                    lead = _Lead(best, trial, self.submit)
            for attempt in range(1, SYNTAX_FIX_CAP):
                pool = samples.settled(attempt)
                if len(pool) == len(samples.futures):
                    break  # no straggler left
                top = select_top_k(pool, config.top_k) if pool else []
                if lineages is None:
                    done, reason = should_terminate(top, 0, config)
                    if reason == "solved":  # a settled sample scores 1
                        stop = attempt
                    if done or len(pool) < config.top_k:
                        break  # or too few samples to pick from
                    lineages = self.select(top, emit)
                    if lead is not None:
                        lead = lead.offer(lineages, emit)
                    if lead is not None and lead.solves():
                        stop = attempt
                    else:
                        samples.decide(attempt)  # the next fix attempts start with round 1
                elif [c.id for c in top] != lineages.roots:
                    break  # a straggler displaced the provisional top-K
                self.debug_round(lineages, testbench, emit, lead)
                lead = None
                done, reason = should_terminate(lineages.selected, lineages.round, config)
                if reason == "solved":
                    stop = min(stop, attempt + 1)
                if done:
                    break
                samples.decide(attempt + 1)  # no sample stops at its next attempt
        finally:
            samples.release(stop)  # no sample waits on a decision any more
        return lineages, lead

    def select(
        self, selected: list[Candidate], emit: Callable[[dict], None], restart: bool = False
    ) -> _Lineages:
        """Open step 5 on ``selected``: round 0 of its lineages; ``restart``
        after a discarded speculation."""
        emit({"event": "selection", "ids": [c.id for c in selected]})
        scores = [c.score.value for c in selected]
        emit({"event": "round_scores", "round": 0, "scores": scores})
        return _Lineages(selected, [c.id for c in selected], [(0, scores)], restart)

    def trial(
        self,
        testbench: VerilogSource,
        round_index: int,
        restart: bool,
        slot: tuple[Candidate, int],
        emit: Callable[[dict], None],
        _failed: Optional[Callable],
    ) -> _Trial:
        """Round ``round_index``'s trial of one slot: its candidate and
        lineage root. ``_failed`` is the batch's, which no trial calls."""
        candidate, root = slot
        if candidate.trace is None:
            emit({"event": "trial_skipped", "round": round_index, "id": candidate.id})
            return None
        anchor = checkpoints.earliest_mismatch(candidate.trace)  # it scores < 1, so one exists
        window = checkpoints.extract_window(candidate.trace, anchor, self.config.window_len)
        try:
            source = self.team.debug_trial(
                candidate.source,
                window,
                testbench,
                round_index=round_index,
                root_id=root,
                restart=restart,
                emit=emit,
            )
        except (SyntaxUnfixable, NoCodeBlock) as exc:
            # A trial that cannot even be repaired is discarded; the
            # lineage keeps its current candidate and stays monotone.
            emit(
                {
                    "event": "trial_failed",
                    "round": round_index,
                    "id": candidate.id,
                    "reason": type(exc).__name__,
                }
            )
            return None
        # A cache hit: the trial's syntax probe already simulated it.
        return source, self.probe.cache.evaluate(source, f"debug_r{round_index}_c{candidate.id}")

    def debug_round(
        self,
        lineages: _Lineages,
        testbench: VerilogSource,
        emit: Callable[[dict], None],
        lead: Optional[_Lead] = None,
    ) -> None:
        """The next round: one trial per selected slot, slots without a usable
        trace skip; per lineage the better of {trial, original} survives.
        ``lead``, from ``_Lead.offer``, is round 1's trial of its root's slot;
        if it scores 1, no other slot asks for a trial."""
        round_index = lineages.round + 1
        emit({"event": "step", "step": 5, "round": round_index})
        slots = list(zip(lineages.selected, lineages.roots))
        if lead is not None and lead.solves():
            slots = [slot for slot in slots if slot[1] == lead.root]

        def submit(fn: Callable, slot: tuple[Candidate, int], emit, failed) -> Future:
            if lead is not None and slot[1] == lead.root:
                return lead.take(emit)
            return self.submit(fn, slot, emit, failed)

        trial = functools.partial(self.trial, testbench, round_index, lineages.restart)
        made = _Batch(trial, slots, submit, emit).results()
        by_root: dict[int, _Trial] = {root: result for (_, root), result in zip(slots, made)}
        trials: list[Optional[Candidate]] = []
        for original, root in zip(lineages.selected, lineages.roots):
            result = by_root.get(root)
            if result is None:
                trials.append(None)
                continue
            source, evaluation = result
            trial = Candidate(
                next(self.ids), source, evaluation.score, evaluation.trace, original.id, round_index
            )
            trials.append(trial)
            emit(
                {
                    "event": "trial",
                    "round": round_index,
                    "lineage": trial.lineage,
                    "id": trial.id,
                    "score": trial.score.value,
                }
            )
        lineages.selected = update_selection(lineages.selected, trials)
        scores = [c.score.value for c in lineages.selected]
        lineages.history.append((round_index, scores))
        emit({"event": "round_scores", "round": round_index, "scores": scores})

    def vanilla(self) -> _Result:
        """One-pass baseline: a single generation, verified only against the
        golden bench when one exists."""
        rtl = self.team.generate_rtl_vanilla(self.spec)
        candidate = Candidate(next(self.ids), rtl)
        golden = self.problem.golden_testbench
        if not golden:
            return "budget_exhausted", candidate, [], None
        workdir = self.allocator.acquire("golden")
        result = evaluate_golden(rtl, golden, self.runtime.sim_runner, workdir)
        self.emit({"event": "golden", "passed": result.passed, "reason": result.reason})
        candidate.score = Score(1.0 if result.passed else 0.0)
        status = "solved" if result.passed else "budget_exhausted"
        return status, candidate, [(0, [candidate.score.value])], None


def _route_without_trace(
    evaluation: SimEval, emit: Callable[[dict], None]
) -> tuple[bool, str]:
    """Failure routing when no trace exists; returns (regenerate?, feedback)."""
    if evaluation.status in ("compile_failed", "sentinel"):
        diags = evaluation.diagnostics
        tb_side = any(d.severity == "error" and named_kind(d) == "testbench" for d in diags)
        emit({"event": "route", "reason": "compile_failed", "testbench_implicated": tb_side})
        if tb_side:
            detail = "; ".join(d.render() for d in diags[:5])
            return True, f"testbench failed to compile with the RTL: {detail}"
        return False, "joint compilation failed on the RTL side"
    reason = f"simulation did not produce a valid checkpoint log ({evaluation.status})"
    if evaluation.detail:
        reason += f": {evaluation.detail}"
    emit({"event": "route", "reason": evaluation.status})
    return True, reason
