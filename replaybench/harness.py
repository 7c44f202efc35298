"""Record once, replay many times, and check every replay against the recording.

``prepare`` builds a workload's inputs and toolchain; ``record`` runs the
scripted model through ``CassetteRecorder`` on the in-process toolchain and
keeps each run's artifacts; ``run_pass`` replays every (problem, run) through
``bench.run_bench`` and ``bench.emit_report`` on the paper defaults, as the
CLI's ``bench`` command wires them; ``gate`` compares a pass with the
recording.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from rtlforge import bench
from rtlforge.agents import PromptLibrary
from rtlforge.gateway import CassetteRecorder, NamespacedBackend, ReplayBackend, ReplayMiss
from rtlforge.pipeline import EngineRuntime, RunConfig, max_llm_calls
from rtlforge.simbridge import (
    Diagnostic,
    SimRun,
    ToolchainConfig,
    ToolchainSimRunner,
    ToolchainSyntaxChecker,
    parse_diagnostics,
)

import scenario
import stubtool

CONFIG = RunConfig()  # paper defaults: pool 20, top-K 3, 10 rounds, window 8, fix cap 5


_gc_clock = threading.local()


def _time_gc(phase: str, info: dict) -> None:
    """Add each collection's CPU to the running total of the thread that ran it."""
    now = time.thread_time()
    if phase == "start":
        _gc_clock.start = now
    else:
        _gc_clock.total = getattr(_gc_clock, "total", 0.0) + now - _gc_clock.start


gc.callbacks.append(_time_gc)


def _thread_cpu() -> float:
    """This thread's CPU, less the garbage collections it ran.

    A collection walks the whole heap, most of it the orchestrator's, and runs
    in whichever thread happens to allocate past the threshold; counting it
    where it lands would move a random share of it into the stub's figure.
    """
    return time.thread_time() - getattr(_gc_clock, "total", 0.0)


def _errors(stderr: str) -> list[Diagnostic]:
    """What ``simbridge.compile_sources`` makes of a failing compiler's stderr."""
    return [d for d in parse_diagnostics(stderr) if d.severity == "error"] or [
        Diagnostic(file="", line=None, message="compiler exited with status 1")
    ]


class InProcessToolchain:
    """In-process twin of the subprocess stub: same diagnostics, same stdout.

    Serves as both the ``sim_runner`` and the ``syntax_checker`` seam. It
    counts its compiles and simulations and the thread CPU they take (less
    garbage collection), so in-process workloads report stub toolchain work
    like the subprocess one.
    """

    def __init__(self):
        self.compiles = 0
        self.simulations = 0
        self.cpu_s = 0.0
        self._lock = threading.Lock()

    def _account(self, kind: str, cpu: float) -> None:
        with self._lock:
            setattr(self, kind, getattr(self, kind) + 1)
            self.cpu_s += cpu

    def compile(self, files):
        start = _thread_cpu()
        result = stubtool.compile_files(files)
        self._account("compiles", _thread_cpu() - start)
        return result

    def simulate(self, artifact: str):
        start = _thread_cpu()
        result = stubtool.simulate_artifact(artifact)
        self._account("simulations", _thread_cpu() - start)
        return result

    def run(self, sources, workdir) -> SimRun:
        names = stubtool.source_names([s.kind for s in sources])
        ok, stderr, artifact = self.compile([(n, s.code) for n, s in zip(names, sources)])
        if not ok:
            return SimRun(status="compile_failed", stdout="", diagnostics=tuple(_errors(stderr)))
        code, stdout, stderr = self.simulate(artifact)
        return SimRun(
            status="ok" if code == 0 else "runtime_failed",
            stdout=stdout,
            diagnostics=tuple(parse_diagnostics(stderr)),
        )

    def __call__(self, source, workdir) -> list[Diagnostic]:
        name = stubtool.source_names([source.kind])[0]
        ok, stderr, _ = self.compile([(name, source.code)])
        return [] if ok else _errors(stderr)


@dataclass
class Workspace:
    name: str
    seed: int
    root: Path
    shape: scenario.Shape
    tasks: list
    inproc: InProcessToolchain = field(default_factory=InProcessToolchain)
    scripts: Optional[tuple[str, str, str, str]] = None  # subprocess stub paths

    @property
    def problems(self):
        return [t.problem for t in self.tasks]

    def seams(self, toolchain: str):
        """(sim_runner, syntax_checker) for one run, as the CLI builds them."""
        if toolchain == "inprocess":
            return self.inproc, self.inproc
        compiler, vvp, _, _ = self.scripts
        tool = ToolchainConfig(compiler_path=compiler, vvp_path=vvp, sim_timeout=CONFIG.sim_timeout)
        return ToolchainSimRunner(tool), ToolchainSyntaxChecker(tool)

    def launches(self, toolchain: str) -> tuple[int, int, float]:
        """(compiler launches, simulator launches, in-process stub CPU) so far."""
        if toolchain == "inprocess":
            return self.inproc.compiles, self.inproc.simulations, self.inproc.cpu_s
        _, _, cc, vc = self.scripts
        return stubtool.launches(cc), stubtool.launches(vc), self.inproc.cpu_s


def prepare(name: str, seed: int, root: Path) -> Workspace:
    shape = scenario.WORKLOADS[name]
    root.mkdir(parents=True, exist_ok=True)
    ws = Workspace(name, seed, root, shape, scenario.build_tasks(name, seed))
    if shape.toolchain == "subprocess":
        ws.scripts = stubtool.write_scripts(root / "bin")
    return ws


# ---------------------------------------------------------------------------
# Replay client


class ReplayClient:
    """The replay backend plus a fixed modelled delay; records misses."""

    def __init__(self, inner, delay_s: float = 0.0):
        self.inner = inner
        self.delay_s = delay_s
        self.missed: list[str] = []

    def complete(self, request):
        if self.delay_s:
            time.sleep(self.delay_s)
        try:
            return self.inner.complete(request)
        except ReplayMiss as exc:
            self.missed.append(exc.tag)
            raise


# ---------------------------------------------------------------------------
# One pass: every (problem, run) once, then the report


@dataclass
class RunArtifacts:
    status: str
    llm_calls: int
    passed_golden: bool
    round_scores: list
    best_score: Optional[float]
    events: bytes
    best_v: Optional[bytes]


def _artifacts(record, transcript: Path) -> RunArtifacts:
    events = (transcript / "events.jsonl").read_bytes()
    parsed = [json.loads(line) for line in events.splitlines()]
    best = transcript / "best.v"
    return RunArtifacts(
        status=record.status,
        llm_calls=record.llm_calls,
        passed_golden=record.passed_golden,
        round_scores=[(e["round"], e["scores"]) for e in parsed if e["event"] == "round_scores"],
        best_score=next((e.get("best_score") for e in parsed if e["event"] == "outcome"), None),
        events=events,
        best_v=best.read_bytes() if best.exists() else None,
    )


@dataclass
class PassResult:
    wall_s: float
    run_s: list[float]
    self_user_s: float
    self_sys_s: float
    child_cpu_s: float
    stub_cpu_s: float
    compiles: int
    simulations: int
    pass_at_1: float
    artifacts: dict  # (task_id, run_index) -> RunArtifacts

    @property
    def runs(self) -> int:
        return len(self.run_s)


def _cpu() -> tuple[float, float, float]:
    """(user, system) CPU of this process and CPU of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime, own.ru_stime, children.ru_utime + children.ru_stime


def run_pass(
    ws: Workspace,
    backend,
    out_dir: Path,
    toolchain: Optional[str] = None,
    seams: Optional[Callable] = None,
    span: Callable = lambda name: contextlib.nullcontext(),
) -> PassResult:
    """Run every (problem, run) through ``bench.run_bench`` and report.

    ``toolchain`` overrides the workload's toolchain form (the recording pass
    always runs in-process). ``seams`` may wrap each runtime's (backend,
    sim_runner, syntax_checker, templates); ``span`` times the harness's own
    calls. Both serve tracing.
    """
    toolchain = toolchain or ws.shape.toolchain

    def runtime_factory(task_id: str, run_index: int) -> EngineRuntime:
        parts = (
            NamespacedBackend(backend, f"{task_id}/run{run_index}/"),
            *ws.seams(toolchain),
            PromptLibrary(),
        )
        if seams is not None:
            parts = seams(*parts)
        return EngineRuntime(
            backend=parts[0],
            sim_runner=parts[1],
            syntax_checker=parts[2],
            templates=parts[3],
            transcript_dir=out_dir / "runs" / task_id / f"run{run_index}",
        )

    compiles0, sims0, stub0 = ws.launches(toolchain)
    user0, sys0, child0 = _cpu()
    start = time.perf_counter()
    with span("bench.run"):
        records = bench.run_bench(
            ws.problems,
            CONFIG,
            runtime_factory,
            n_runs=ws.shape.runs_per_problem,
            workers=ws.shape.workers,
        )
    with span("bench.report"):
        report = bench.emit_report(records, out_dir, config_echo=CONFIG.echo())
    wall = time.perf_counter() - start
    user1, sys1, child1 = _cpu()
    compiles1, sims1, stub1 = ws.launches(toolchain)
    artifacts = {
        (r.task_id, r.run_index): _artifacts(r, out_dir / "runs" / r.task_id / f"run{r.run_index}")
        for r in records
    }
    return PassResult(
        wall_s=wall,
        run_s=[r.wall_time for r in records],
        self_user_s=user1 - user0,
        self_sys_s=sys1 - sys0,
        child_cpu_s=child1 - child0,
        stub_cpu_s=stub1 - stub0,
        compiles=compiles1 - compiles0,
        simulations=sims1 - sims0,
        pass_at_1=report.aggregate_pass_at_1,
        artifacts=artifacts,
    )


# ---------------------------------------------------------------------------
# Recording and the correctness gate


@dataclass
class Recording:
    cassette: Path
    result: PassResult


def record(ws: Workspace, cassette: Path) -> Recording:
    """Record every (problem, run) from the scripted model on the in-process twin."""
    cassette.unlink(missing_ok=True)
    recorder = CassetteRecorder(scenario.ScriptedModel(ws.tasks), cassette)
    result = run_pass(ws, recorder, ws.root / "recording", toolchain="inprocess")
    broken = [
        f"{task} run {j}: {a.status}"
        for (task, j), a in result.artifacts.items()
        if a.status.startswith("error")
    ]
    if broken:
        # A replay that errors the same way would otherwise pass the gate.
        raise RuntimeError(f"recording pass failed: {broken}")
    return Recording(cassette, result)


def load(ws: Workspace, recording: Recording) -> ReplayClient:
    return ReplayClient(ReplayBackend(recording.cassette), ws.shape.llm_delay_s)


@dataclass
class GateResult:
    attempted: int
    failed: int
    identical: int  # byte-identical artifacts (events.jsonl, best.v)
    artifacts: int
    problems: list[str]


def gate(recording: Recording, result: PassResult, missed: list[str]) -> GateResult:
    """Compare each replayed run with its recording; list every deviation."""
    bound = max_llm_calls(CONFIG)
    problems: list[str] = []
    failed = identical = 0
    expected = recording.result.artifacts
    for key in sorted(expected):
        want, got = expected[key], result.artifacts.get(key)
        prefix = f"{key[0]}/run{key[1]}/"
        errs = []
        if got is None:
            errs.append("run missing")
        else:
            if any(tag.startswith(prefix) for tag in missed):
                errs.append("ReplayMiss")
            for name in ("status", "round_scores", "best_score", "llm_calls", "passed_golden"):
                if getattr(got, name) != getattr(want, name):
                    errs.append(
                        f"{name}: {getattr(got, name)!r} != recorded {getattr(want, name)!r}"
                    )
            if got.llm_calls > bound:
                errs.append(f"llm_calls {got.llm_calls} > bound {bound}")
            identical += (got.events == want.events) + (got.best_v == want.best_v)
        if errs:
            failed += 1
            problems.append(f"{key[0]} run {key[1]}: " + "; ".join(errs))
    if result.pass_at_1 != recording.result.pass_at_1:
        failed = max(failed, 1)
        problems.append(
            f"pass_at_1 {result.pass_at_1!r} != recorded {recording.result.pass_at_1!r}"
        )
    return GateResult(len(expected), failed, identical, 2 * len(expected), problems)
