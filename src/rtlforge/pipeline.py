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
   faulty testbench without a step 2. In multi mode step 4's sampling
   request goes out with the judge's; a faulty testbench discards it.
4. Sample ``pool_size`` candidates at the configured temperature profile,
   repair their syntax concurrently, simulate them all, score each as
   1 - mismatches/checks, select the top-K.
5. Debug rounds: for every selected candidate, hand the debug agent the
   waveform window at its earliest mismatch; the trials run concurrently,
   and their ids and events follow slot order. Per lineage the better of
   {trial, original} survives (ties prefer the trial). Repeat until a score
   hits 1 or the round budget is spent. The state is the selected list, one
   candidate per slot, plus the round index; each slot's lineage root is
   the id it was selected with in step 4 and never changes.

``_Plan`` states the rule of steps 4 and 5, in multi mode with step 5
starting before step 4's stragglers settle.

``run_pipeline`` builds the event log and one ``_Run``, which holds the
run's state (team, workdir allocator, simulation cache, candidate ids) and
runs the steps as its methods; each of the run's paths ends in its
``RunOutcome``, to which ``run_pipeline`` adds the LLM call count before it
logs the outcome and writes ``best.v``. ``_Run.refine`` runs ``_Plan``'s
tasks of steps 4 and 5 on an executor it builds, with one worker per sample,
or one in single-agent mode, whose roles share one conversation.

Every check gets its own flat workdir under ``<transcript>/sim/``, named
once by its label (``sim/rtl_gen.samplefix.e0.c3.check0``), which only a
toolchain that writes files creates; a run first removes the ``sim/`` and
``best.v`` that an earlier run into the same transcript left. Every
decision is appended to ``events.jsonl`` through one open handle. Once a
testbench exists, the syntax probe of a DUT is its joint compile-and-simulate
with that testbench; the cached result is what scoring reads later, so each
distinct DUT is compiled once. A failed joint compile sends its errors that
name the DUT's file back to the agent. Only testbenches get the standalone
probe.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import shutil
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable, Iterator, Optional, Protocol

from . import checkpoints
from .agents import (
    SYNTAX_FIX_CAP, AgentTeam, JudgeVerdict, NoCodeBlock, PromptLibrary, Repair, SyntaxUnfixable,
    unbuildable,
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

# The run's counts, each with its least value.
_COUNTS = (("pool_size", 1), ("top_k", 1), ("window_len", 1), ("max_debug_rounds", 0),
           ("max_tb_regens", 0), ("max_tokens", 1))


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
        for name, least in _COUNTS:
            value = getattr(self, name)
            if type(value) is not int or value < least:  # a bool is no count
                raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
        if self.seed is not None and type(self.seed) is not int:
            raise ValueError(f"seed must be an int or None, got {self.seed!r}")
        if not isinstance(self.fanout_sampling, bool):
            raise ValueError(f"fanout_sampling must be a bool, got {self.fanout_sampling!r}")
        if self.pool_size > MAX_COMPLETIONS:
            raise ValueError(f"pool_size must be in [1, {MAX_COMPLETIONS}]")
        self.top_k = min(self.top_k, self.pool_size)
        # A bool is no timeout; NaN fails both comparisons.
        if type(self.sim_timeout) not in (int, float) or not 0 < self.sim_timeout < math.inf:
            raise ValueError(f"sim_timeout must be finite and > 0, got {self.sim_timeout!r}")

    @property
    def profile(self) -> TempProfile:
        return PROFILES[self.temp_profile]

    def params(self, profile: TempProfile = LOW_TEMP, n: int = 1) -> SamplingParams:
        """The sampling parameters of each of the run's calls: ``n``
        completions at ``profile``'s temperature and top_p, with the run's
        token cap and seed. Step 4's sampling asks for ``pool_size`` at the
        run's profile; every other call for one at ``LOW_TEMP``."""
        return SamplingParams(profile.temperature, profile.top_p, n, self.max_tokens, self.seed)

    def echo(self) -> dict:
        data = asdict(self)
        data["temperature"] = self.profile.temperature
        data["top_p"] = self.profile.top_p
        return data


def max_llm_calls(config: RunConfig) -> int:
    """Closed-form upper bound on LLM calls a run can issue.

    In multi mode it also counts what may be asked and then discarded: the
    sampling request sent with each judge (see ``_Run.judge``), which a
    ``testbench_faulty`` verdict discards, ``pool_size`` calls under fan-out
    sampling, in every epoch but one that samples for step 4; and in step 5
    (see ``_Plan``), the debug rounds of a displaced speculation, at most
    ``SYNTAX_FIX_CAP - 1`` of them, since round ``SYNTAX_FIX_CAP`` waits for
    every sample to end, and one lead trial.
    """
    if config.agent_mode == "vanilla":
        return 1
    s = SYNTAX_FIX_CAP
    epochs = 1 + config.max_tb_regens
    per_epoch = (1 + s) + (1 + s) + 1  # testbench + fixes, initial RTL + fixes, judge
    sampling = config.pool_size * (1 + s)
    trials = config.max_debug_rounds * config.top_k
    if config.agent_mode == "multi":
        sampling += config.max_tb_regens * config.pool_size  # discarded speculations
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


WorkdirChecker = Callable[[VerilogSource, Path], list[Diagnostic]]  # _SimCache wraps it


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
    """Names a check's workdir ``<root>/<flat label>``: a ``/`` in the label
    becomes ``.`` (``rtl_gen/init0/check0`` -> ``rtl_gen.init0.check0``).

    A run names each workdir once, and ``run_pipeline`` removes the ``sim/``
    an earlier run left, so no name is taken twice. The allocator creates
    nothing: the seam that writes into a workdir creates it, so an in-process
    toolchain touches no disk.
    """

    def __init__(self, root: Path):
        self.root = Path(root)

    def acquire(self, label: str) -> Path:
        return self.root / _flat_name(label)


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
    """A run's front to the toolchain, and its team's syntax checker.

    ``open`` starts a testbench epoch; within it, each distinct normalized
    source is simulated once with the epoch's testbench. Single-flight: the
    first caller for a source simulates it; callers that arrive while it
    runs wait for its result, or get its exception. A simulation that
    raises is not cached, so a later caller tries again.

    Every candidate of an epoch runs the same stimulus, so their traces
    share most CHECK lines; the epoch's traces are parsed through one memo
    of those lines (``checkpoints.parse_trace``'s ``lines``) and share their
    records.

    As the syntax checker, it gives a testbench the standalone check and a
    DUT the verdict of its joint run in the epoch. It holds no reference
    back to the run, so the run's state stays acyclic and is freed as soon
    as the run ends, without the cyclic collector.
    """

    def __init__(self, runner: SimRunner, checker: WorkdirChecker, allocator: WorkdirAllocator):
        self.runner = runner
        self.checker = checker
        self.allocator = allocator
        self._lock = threading.Lock()

    def open(self, testbench: VerilogSource) -> None:
        """Start the epoch of ``testbench``, with no results and no memo."""
        self.testbench = testbench
        self._results: dict[str, Future[SimEval]] = {}
        self._lines: dict[str, CheckRecord] = {}

    def __call__(self, source: VerilogSource, label: str) -> list[Diagnostic]:
        if source.kind == "testbench":
            return self.checker(source, self.allocator.acquire(label))
        # DUTs are generated only after the epoch's testbench exists.
        evaluation = self.evaluate(source, label)
        failed = evaluation.diagnostics if evaluation.status == "compile_failed" else ()
        return [d for d in failed if d.severity == "error" and named_kind(d) == "dut"]

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


# A slot's debug trial, with its evaluation; None when the slot has no trace
# or the trial could not be repaired.
_Trial = Optional[tuple[VerilogSource, SimEval]]

RAISED = object()  # the outcome of a task that raised; the run loop keeps its error


class _Plan:
    """Steps 4 and 5 as one rule over task outcomes, with no threads, futures
    or locks; ``_Run.refine`` runs it.

    ``sample_ids`` are the samples' candidate ids; ``ids`` yields the ids of
    trial candidates. ``start`` and ``feed`` return the tasks to run, as
    (key, candidate):
    ``("sample", i)``, sample i's next attempt; ``("trial", r, root,
    restart)``, round r's trial of the slot whose lineage root is ``root``
    on ``candidate``, the lead's (below) among them. ``feed`` takes
    one task's outcome with its events: for a sample, the check k it failed
    or its candidate; for a trial, its ``_Trial``; ``RAISED`` for a task
    that raised. ``log`` collects the events in the order the run writes
    them. Once the rule ends, ``result`` holds (status, best, score
    history), or ``error`` the key of the task whose error ends the run.
    Every decision rests on outcomes alone, never on which task ends first,
    so a replay issues its recording's requests.

    Step 4: a sample's first attempt probes it (check 0), each later one
    asks for fix k and checks it (check k), until it passes a check and
    ends as a candidate. One that fails check ``SYNTAX_FIX_CAP`` ends as a
    flagged sentinel. In single-agent mode, whose turns share one
    conversation, the samples run one after another in item order. In
    multi mode they run at once, and step 5 starts before they all end:

    * The lead: once every sample has ended or failed its probe, none that
      ended raised and some failed it, the best sample that passed it
      starts its round-1 trial, if it scores below 1 and has a trace (only
      with a round budget).
    * Round r < ``SYNTAX_FIX_CAP`` on a provisional top-K starts once every
      sample has ended or failed check r, and round r-1 has ended without
      ending step 5. Round 1 needs at least top-K samples ended by then and
      some not, none of them scoring 1, and selects the top-K of those;
      round r > 1 needs that top-K unchanged. If a sample ended by then
      raised, no round starts.
    * Pacing: a sample that failed check 1 asks for its next fix once round
      1 starts, one that failed check r > 1 once round r-1 has ended; so
      after its first fix, what lets a waiting sample go on is a round's
      end, or the end of the speculation. If a sample ended by fix 1 scores
      1, or the lead does, every sample that fails check 1 or later stops
      there as a sentinel; if round r-1 does, every one that fails check r
      or later. When no further speculative round can start, the samples
      go on freely.

    The first round 1 waits for the lead before it asks anything else. If
    the lead's root is selected, the lead is that slot's trial; if it also
    scores 1, no other slot asks for a trial. Otherwise, or when no round 1
    runs, the lead is discarded: its events are logged, then one
    ``lead_discarded`` event.

    Step 5, once every sample has ended: the speculative rounds stand if
    one solved the run or the true top-K is the provisional one. Else one
    ``speculation_discarded`` event follows them, and step 5 restarts from
    round 1 on the true top-K, with trials marked ``.restart``. Rounds go on
    until a score hits 1 or the round budget is spent.

    The log: each sample's events in item order once every sample has
    ended, one ``candidate`` event per sample, the speculative rounds'
    events, then the later rounds'. A round's trials' events follow slot
    order, once all of them have ended. The error: the first sample in
    item order that raised, once every sample has ended; else the first
    trial of a round in slot order that raised, once the round's trials
    have ended, or a discarded lead that raised. After an error in a
    speculative round, the samples go on freely, and the run ends once
    every one has.
    """

    def __init__(self, config: RunConfig, sample_ids: list[int], ids: Iterator[int]):
        self.config, self.sample_ids, self.ids = config, sample_ids, ids
        self.multi = config.agent_mode == "multi"
        self.fails = [-1] * len(sample_ids)  # the last check each sample failed
        self.ended: list = [None] * len(sample_ids)  # each sample's candidate, or RAISED
        self.logs: list[list[dict]] = [[] for _ in sample_ids]  # each sample's events
        self.parked: list[int] = []  # samples waiting for a decision
        self.decided = 0 if self.multi else math.inf  # failed check k <= decided: go on
        self.stop = math.inf  # failed check k >= stop: stop
        self.trials: dict[tuple, tuple] = {}  # each ended trial's (outcome, events)
        self.roots: Optional[list[int]] = None  # step 5's lineage roots, once it opens
        self.lead: Optional[tuple] = None  # the key of a lead trial no round has taken
        self.actions: list[tuple] = []
        self.log: list[dict] = []
        self.result: Optional[tuple] = None
        self.error: Optional[tuple] = None
        self.flow = self.rule()

    def start(self) -> list[tuple]:
        """The first tasks: every sample's probe, or sample 0's in single mode."""
        next(self.flow)
        return [(("sample", i), None) for i in range(len(self.sample_ids) if self.multi else 1)]

    def feed(self, key: tuple, outcome, events: list[dict]) -> list[tuple]:
        """Record one task's outcome and events; returns the tasks to start."""
        if key[0] != "sample":
            self.trials[key] = (outcome, events)
        else:
            i = key[1]
            self.logs[i] += events
            if isinstance(outcome, int):
                self.fails[i] = outcome
                self.pace(i)
            else:
                self.ended[i] = outcome
            if not self.multi and self.ended[i] is not None and i + 1 < len(self.sample_ids):
                self.actions.append((("sample", i + 1), None))  # single mode: the next sample
        next(self.flow, None)
        actions, self.actions = self.actions, []
        return actions

    def until(self, ready: Callable[[], object]):
        """Waits for outcomes until ``ready()`` returns other than None, and
        returns that; the rule's one wait."""
        while (value := ready()) is None:
            yield
        return value

    def pace(self, i: int) -> None:
        """Sample i, which failed check ``fails[i]``, stops as a sentinel,
        asks for its next fix, or waits for a decision."""
        k = self.fails[i]
        if k >= min(self.stop, SYNTAX_FIX_CAP):
            self.ended[i] = Candidate(self.sample_ids[i], unbuildable(f"sample {i}"), Score(0.0))
        elif k <= self.decided:
            self.actions.append((("sample", i), None))
        else:
            self.parked.append(i)

    def decide(self, attempt: float) -> None:
        """The samples that failed check ``attempt`` or earlier go on, unless
        ``stop`` stops them."""
        self.decided = attempt
        parked, self.parked = sorted(self.parked), []
        for i in parked:
            self.pace(i)

    def settled(self, check: float) -> Optional[list[Candidate]]:
        """The candidates of the samples whose last failed check is below
        ``check``, in item order, once each of them has ended; [] if one of
        them raised. A sample that failed ``check`` can only end later, so
        the list depends on outcomes alone."""
        counted = [c for c, k in zip(self.ended, self.fails) if k < check]
        if any(c is None for c in counted):
            return None
        return [] if any(c is RAISED for c in counted) else counted

    def rule(self):
        """The rule above, resumed after every outcome."""
        config, n = self.config, len(self.sample_ids)
        held: list[dict] = []  # the speculative rounds' events
        if self.multi:
            clean = yield from self.until(lambda: self.settled(0))
            if config.max_debug_rounds and 0 < len(clean) < n:
                best = select_top_k(clean, 1)[0]
                if best.score.value < 1 and best.trace is not None:
                    self.lead = ("trial", 1, best.id, False)
                    self.actions.append((self.lead, best))
            for attempt in range(1, SYNTAX_FIX_CAP):
                pool = yield from self.until(lambda: self.settled(attempt))
                if len(pool) == n:
                    break  # no straggler left
                top = select_top_k(pool, config.top_k) if pool else []
                if self.roots is None:
                    done, reason = should_terminate(top, 0, config)
                    if reason == "solved":  # an ended sample scores 1
                        self.stop = attempt
                    if done or len(pool) < config.top_k:
                        break
                    yield from self.select(top, held)
                elif [c.id for c in top] != self.roots:
                    break  # a straggler displaced the provisional top-K
                if self.error is None:
                    yield from self.debug_round(held)
                if self.error is not None:
                    break
                done, reason = should_terminate(self.selected, self.history[-1][0], config)
                if reason == "solved":
                    self.stop = min(self.stop, attempt + 1)
                if done:
                    break
                self.decide(attempt + 1)
            self.decide(math.inf)
        yield from self.until(lambda: self.settled(math.inf))
        self.log += [event for events in self.logs for event in events]
        failed = next((("sample", i) for i, c in enumerate(self.ended) if c is RAISED), None)
        if failed is None:
            for c in self.ended:
                score, sentinel = c.score.value, c.source.sentinel
                self.log.append(
                    {"event": "candidate", "id": c.id, "score": score, "sentinel": sentinel}
                )
        elif self.lead is not None:  # its calls are logged; the sample's error stands
            held += (yield from self.until(lambda: self.trials.pop(self.lead, None)))[1]
        self.log += held
        self.error = failed or self.error
        if self.error is not None:
            return
        selected = select_top_k(self.ended, config.top_k)
        # A speculative solve ends the run on its own rounds, as a perfect
        # score does in step 2; other rounds stand only on the true top-K.
        restart = self.roots not in (None, [c.id for c in selected]) and self.stop == math.inf
        if restart:
            rounds = self.history[-1][0]
            self.log.append({"event": "speculation_discarded", "ids": self.roots, "rounds": rounds})
        if restart or self.roots is None:
            yield from self.select(selected, self.log, restart)
        while self.error is None:
            done, reason = should_terminate(self.selected, self.history[-1][0], config)
            if done:
                best = max(self.selected, key=lambda c: (c.score.value, -c.id))
                status = "solved" if reason == "solved" else "budget_exhausted"
                self.result = status, best, self.history
                return
            yield from self.debug_round(self.log)

    def select(self, selected: list[Candidate], log: list[dict], restart: bool = False):
        """Open step 5 on ``selected``: round 0 of its lineages; ``restart``
        after a discarded speculation. Step 5's state is the selected list,
        one candidate per slot; each slot's lineage root, the id it was
        selected with in step 4; the score history, whose last entry is the
        current round; and ``restart``. The lead stays for round 1 if its
        root is selected and step 5 goes on; else it is discarded once it
        has ended, and its error, if it raised, ends the run."""
        self.selected, self.roots, self.restart = selected, [c.id for c in selected], restart
        log.append({"event": "selection", "ids": self.roots})
        scores = [c.score.value for c in selected]
        log.append({"event": "round_scores", "round": 0, "scores": scores})
        self.history = [(0, scores)]
        if self.lead is None or self.lead[2] in self.roots and 1.0 not in scores:
            return
        outcome, events = yield from self.until(lambda: self.trials.pop(self.lead, None))
        log += events
        log.append({"event": "lead_discarded", "id": self.lead[2]})
        if outcome is RAISED:
            self.error = self.lead
        self.lead = None

    def debug_round(self, log: list[dict]):
        """The next round: one trial per selected slot; per lineage the better
        of {trial, original} survives. A lead is round 1's trial of its
        root's slot; if it scores 1, no other slot asks for a trial. A
        speculative round 1 lets the samples that failed check 1 go on once
        the lead has ended, or stops them if it solved the run. ``error``
        becomes the key of the first trial in slot order that raised."""
        round_index = self.history[-1][0] + 1
        log.append({"event": "step", "step": 5, "round": round_index})
        slots = list(zip(self.selected, self.roots))
        keys = [("trial", round_index, root, self.restart) for root in self.roots]
        solved = False
        if self.lead is not None:  # among the keys, since a lead is round 1's
            outcome = (yield from self.until(lambda: self.trials.get(self.lead)))[0]
            solved = outcome is not None and outcome is not RAISED and outcome[1].score.value == 1
        if solved:
            slots, keys = [slots[keys.index(self.lead)]], [self.lead]
        if self.decided == 0:  # a speculative round 1, which the stragglers wait on
            self.stop = 1 if solved else math.inf
            self.decide(1)
        self.actions += [(key, c) for key, (c, _) in zip(keys, slots) if key != self.lead]
        self.lead = None
        yield from self.until(lambda: all(key in self.trials for key in keys) or None)
        outcomes = [self.trials.pop(key) for key in keys]
        for _, events in outcomes:
            log += events
        raised = [key for key, (outcome, _) in zip(keys, outcomes) if outcome is RAISED]
        if raised:
            self.error = raised[0]
            return
        trials: list[Optional[Candidate]] = [None] * len(self.roots)
        for (original, root), (outcome, _) in zip(slots, outcomes):
            if outcome is None:
                continue
            source, evaluation = outcome
            trial = Candidate(
                next(self.ids), source, evaluation.score, evaluation.trace, original.id, round_index
            )
            trials[self.roots.index(root)] = trial
            log.append(
                {
                    "event": "trial",
                    "round": round_index,
                    "lineage": trial.lineage,
                    "id": trial.id,
                    "score": trial.score.value,
                }
            )
        self.selected = update_selection(self.selected, trials)
        scores = [c.score.value for c in self.selected]
        self.history.append((round_index, scores))
        log.append({"event": "round_scores", "round": round_index, "scores": scores})


# A function of its own, not part of ``_Run.refine``: its locals (the last
# future, ``done`` and ``pending``) end with its frame. In ``refine``'s frame,
# which the traceback of the error ``refine`` raises holds, they would tie
# that error, the futures and the run into a cycle that only the cyclic
# collector frees.
def _drive(plan: _Plan, submit: Callable, task: Callable, emit: Callable[[dict], None]):
    """Run ``plan`` to its end: start each of its tasks as ``task(key,
    candidate, emit)`` on ``submit``, feed each outcome back as its task
    ends, and pass the plan's events to ``emit`` as it logs them. Returns
    the errors of the tasks that raised, by key."""
    actions, pending, errors = plan.start(), {}, {}
    while True:
        for key, candidate in actions:
            events: list[dict] = []
            pending[submit(task, key, candidate, events.append)] = key, events
        for event in plan.log:
            emit(event)
        plan.log.clear()
        if not pending:
            return errors
        done, _ = wait(pending, return_when=FIRST_COMPLETED)
        actions = []
        for future in done:
            key, events = pending.pop(future)
            if future.exception() is not None:
                errors[key] = future.exception()
            actions += plan.feed(key, RAISED if key in errors else future.result(), events)


# ---------------------------------------------------------------------------
# The pipeline

def run_pipeline(problem: Problem, config: RunConfig, runtime: EngineRuntime) -> RunOutcome:
    """Execute the full pipeline for one problem; never raises for in-band
    failures (returns status="error" with a partial transcript instead)."""
    transcript = Path(runtime.transcript_dir)
    transcript.mkdir(parents=True, exist_ok=True)
    # A rerun keeps no earlier best.v or workdir. A sim that is no directory
    # raises OSError, which names the str path as an unusable best.v does.
    (transcript / "best.v").unlink(missing_ok=True)
    with contextlib.suppress(FileNotFoundError):
        shutil.rmtree(str(transcript / "sim"))
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
        try:
            outcome = run.execute()
        except EngineError as exc:
            events.emit({"event": "outcome", "status": "error", "error": str(exc)})
            calls = run.team.llm_calls if run.team else 0
            return RunOutcome("error", None, [], None, llm_calls=calls, error=str(exc))
        outcome.llm_calls, best = run.team.llm_calls, outcome.best
        events.emit(
            {
                "event": "outcome",
                "status": outcome.status,
                "best_id": best.id if best else None,
                "best_score": best.score.value if best and best.score else None,
            }
        )
        if best is not None:
            (transcript / "best.v").write_text(best.source.code, encoding="utf-8")
        return outcome


class _Run:
    """One run's state: the team, the workdir allocator, the simulation cache
    and the candidate ids, which follow creation order."""

    def __init__(
        self, problem: Problem, config: RunConfig, runtime: EngineRuntime, events: EventLog
    ):
        self.problem = problem
        self.config = config
        self.runtime = runtime
        self.emit = events.emit
        self.allocator = WorkdirAllocator(Path(runtime.transcript_dir) / "sim")
        self.cache = _SimCache(runtime.sim_runner, runtime.syntax_checker, self.allocator)
        self.ids = itertools.count()
        self.team: Optional[AgentTeam] = None

    def execute(self) -> RunOutcome:
        """Build the team, then run the baseline or steps 1-5."""
        self.team = AgentTeam(
            backend=self.runtime.backend,
            templates=self.runtime.templates,
            syntax_checker=self.cache,
            model_id=self.runtime.model_id,
            params=self.config.params(),
            mode="single" if self.config.agent_mode == "single" else "multi",
            event_sink=self.emit,
            fanout_sampling=self.config.fanout_sampling,
        )
        self.spec = self.problem.spec_text()
        return self.vanilla() if self.config.agent_mode == "vanilla" else self.steps()

    def steps(self) -> RunOutcome:
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
                    return RunOutcome("solved", initial, [(0, [1.0])], testbench)
                # Step 3: route the failure.
                self.emit({"event": "step", "step": 3, "epoch": epoch})
                sampled: list[Future] = []
                if initial.trace is not None:
                    verdict, sampled = self.judge(testbench, initial.trace, epoch)
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
                    return self.refine(testbench, epoch, sampled)
            self.emit({"event": "tb_regen", "count": epoch + 1, "epoch": epoch})
            if epoch < config.max_tb_regens:
                self.emit({"event": "pool_invalidated", "epoch": epoch})
        history = [(0, [initial.score.value])] if initial else []
        return RunOutcome("tb_regen_exhausted", initial, history, testbench)

    def first_shot(self, testbench: VerilogSource, epoch: int) -> tuple[Candidate, SimEval]:
        """Step 2: open the epoch's cache, then score one low-temperature RTL shot."""
        self.emit({"event": "step", "step": 2, "epoch": epoch})
        self.cache.open(testbench)
        try:
            rtl = self.team.generate_rtl(self.spec, testbench, epoch=epoch)
        except (SyntaxUnfixable, NoCodeBlock):
            rtl = unbuildable(f"initial RTL e{epoch}")  # scores 0; step 3 moves on
        label = f"initial_e{epoch}"
        evaluation = self.cache.evaluate(rtl, label)
        initial = Candidate(next(self.ids), rtl, evaluation.score, evaluation.trace)
        status, score = evaluation.status, initial.score.value
        self.emit({"event": "sim", "label": label, "status": status, "score": score})
        return initial, evaluation

    def judge(
        self, testbench: VerilogSource, trace: CheckTrace, epoch: int
    ) -> tuple[JudgeVerdict, list[Future]]:
        """Step 3's judge, and in multi mode step 4's sampling request with
        it: the request reads only ``conv-rtl_gen``, which step 2 left as
        step 4 reads it, so it goes out just before the judge's, on a worker
        of its own. Returns the verdict and, on ``rtl_faulty``, the ended
        request's future in a list, for ``refine``; the future holds the
        replies and the request's events, which wait for ``step 4``.

        On ``testbench_faulty``, or a judge that raises, the request is
        discarded once it has ended: it is logged and counted as sent, with
        its ``llm_call`` event then ``sampling_discarded``, whatever its
        reply. Single mode asks the judge alone: its shared conversation
        puts the sampling turn after the judge's."""
        config, team = self.config, self.team
        if config.agent_mode != "multi":
            return team.judge(self.spec, testbench, trace, epoch, config.window_len), []
        params = config.params(config.profile, config.pool_size)
        events: list[dict] = []

        def sample() -> tuple[list[str], list[dict]]:
            return team.sample_rtl_candidates(
                self.spec, testbench, params, epoch, events.append
            ), events

        verdict = None
        with ThreadPoolExecutor(max_workers=1) as executor:
            sampling = executor.submit(sample)
            try:
                verdict = team.judge(self.spec, testbench, trace, epoch, config.window_len)
            finally:
                if verdict is None or verdict.decision == "testbench_faulty":
                    if sampling.exception() is not None:  # waits for the request
                        team.sampling_sent(params, epoch, events.append)
                    for event in events:
                        self.emit(event)
                    self.emit({"event": "sampling_discarded", "epoch": epoch})
        return verdict, [sampling] if verdict.decision == "rtl_faulty" else []

    def refine(self, testbench: VerilogSource, epoch: int, sampled: list[Future]) -> RunOutcome:
        """Step 4: sample, repair and score the pool; step 5: debug rounds on
        its top-K. ``sampled`` holds the sampling request that ``judge``
        sent, if any. ``_Plan`` states the rule; here its tasks run on an
        executor and each outcome goes back to it."""
        config = self.config
        self.emit({"event": "step", "step": 4, "epoch": epoch})
        if sampled:
            # Popped, not named: a local holding the future would hold the
            # error it raises, which holds this frame in its traceback.
            replies, events = sampled.pop().result()
            for event in events:
                self.emit(event)
        else:
            replies = self.team.sample_rtl_candidates(
                self.spec, testbench, config.params(config.profile, config.pool_size), epoch
            )
        ids = [next(self.ids) for _ in replies]
        states: list = list(replies)  # each sample's reply, its Repair, then its source

        def task(key: tuple, candidate: Optional[Candidate], emit: Callable[[dict], None]):
            if key[0] != "sample":
                return self.trial(testbench, key, candidate, emit)
            i = key[1]
            state = states[i] = self.team.repair_sample(states[i], i, epoch, emit)
            if isinstance(state, Repair):
                return state.k
            # A cache hit: the sample's syntax probe already simulated it.
            evaluation = self.cache.evaluate(state, f"sample_e{epoch}_c{ids[i]}")
            return Candidate(ids[i], state, evaluation.score, evaluation.trace)

        plan = _Plan(config, ids, self.ids)
        # No task waits on another, so any worker count ends. With one worker
        # per sample no task waits for a worker either: each sample has at
        # most one task running, and a round's trials start only once top-K
        # samples have ended (the lead, once one has).
        workers = 1 if config.agent_mode == "single" else config.pool_size
        with ThreadPoolExecutor(max_workers=workers) as executor:
            errors = _drive(plan, executor.submit, task, self.emit)
        if plan.error is not None:
            # No local holds the error, so the run is freed without the
            # cyclic collector.
            raise errors.pop(plan.error)
        return RunOutcome(*plan.result, testbench)

    def trial(
        self,
        testbench: VerilogSource,
        key: tuple,
        candidate: Candidate,
        emit: Callable[[dict], None],
    ) -> _Trial:
        """The debug trial a ``_Plan`` key names, on the slot holding
        ``candidate``: round r's trial of lineage root ``root``."""
        round_index, root, restart = key[1:]
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
        return source, self.cache.evaluate(source, f"debug_r{round_index}_c{candidate.id}")

    def vanilla(self) -> RunOutcome:
        """One-pass baseline: a single generation, verified only against the
        golden bench when one exists."""
        rtl = self.team.generate_rtl_vanilla(self.spec)
        candidate = Candidate(next(self.ids), rtl)
        golden = self.problem.golden_testbench
        if not golden:
            return RunOutcome("budget_exhausted", candidate, [], None)
        workdir = self.allocator.acquire("golden")
        reference = self.problem.reference_solution
        result = evaluate_golden(rtl, golden, self.runtime.sim_runner, workdir, reference)
        self.emit({"event": "golden", "passed": result.passed, "reason": result.reason})
        candidate.score = Score(1.0 if result.passed else 0.0)
        status = "solved" if result.passed else "budget_exhausted"
        return RunOutcome(status, candidate, [(0, [candidate.score.value])], None)


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
    # A crash or timeout has no detail; the simulator's stderr says why.
    details = [evaluation.detail] if evaluation.detail else []
    details += [d.render() for d in evaluation.diagnostics[:5]]
    reason = f"simulation did not produce a valid checkpoint log ({evaluation.status})"
    if details:
        reason += ": " + "; ".join(details)
    emit({"event": "route", "reason": evaluation.status})
    return True, reason
