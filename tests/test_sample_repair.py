"""Step 4 with a testbench in place: a DUT's syntax probe is its joint
compile-and-simulate with the epoch's testbench (cached for scoring), whose
DUT-file errors are the repair diagnostics; the standalone probe sees only the
testbench, and the samples are repaired concurrently without changing the
event log."""

import json
import sys
import threading
import time
from pathlib import Path

from rtlforge.pipeline import EngineRuntime, RunConfig, run_pipeline
from rtlforge.simbridge import Diagnostic

from fixtures import fenced, stub_counter_problem, stub_dut, stub_tb
from toolstub import ScriptedBackend, StubSimRunner, StubSyntaxChecker

GOOD_TB = fenced(stub_tb())
GLITCH_RTL = fenced(stub_dut("counter16:glitch@9"))
RTL_FAULTY = "Expected values follow the spec.\nVERDICT: rtl_faulty"
PREAMBLE = {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": GLITCH_RTL, "judge/e0": RTL_FAULTY}


class RecordingSimRunner(StubSimRunner):
    """Stub runner that also records (workdir, status) of every run."""

    def __init__(self):
        super().__init__()
        self.runs: list[tuple[Path, str]] = []

    def run(self, sources, workdir):
        sim = super().run(sources, workdir)
        with self._lock:
            self.runs.append((Path(workdir), sim.status))
        return sim


class StandaloneChecker(StubSyntaxChecker):
    """Standalone probe whose diagnostics name their origin."""

    def __init__(self):
        super().__init__()
        self.workdirs: list[Path] = []

    def __call__(self, source, workdir):
        diagnostics = super().__call__(source, workdir)
        with self._lock:
            self.workdirs.append(Path(workdir))
        return [Diagnostic(file="standalone.v", line=d.line, message=d.message) for d in diagnostics]


def run(templates, transcript, script, config, sim_runner=None, checker=None):
    runtime = EngineRuntime(
        backend=ScriptedBackend(script),
        sim_runner=sim_runner or StubSimRunner(),
        syntax_checker=checker or StubSyntaxChecker(),
        templates=templates,
        transcript_dir=transcript,
    )
    return run_pipeline(stub_counter_problem(), config, runtime), runtime


def test_clean_sample_costs_one_joint_run_and_no_standalone_check(templates, tmp_path):
    samples = [fenced(stub_dut(f"score:{m}:16", name=f"cand{m}")) for m in (1, 2, 3)]
    config = RunConfig(pool_size=3, top_k=1, max_debug_rounds=0)
    runner, checker = RecordingSimRunner(), StandaloneChecker()
    outcome, _ = run(
        templates,
        tmp_path / "run",
        {**PREAMBLE, "rtl_gen/sample/e0": samples},
        config,
        runner,
        checker,
    )
    assert outcome.status == "budget_exhausted"
    assert outcome.best.score.value == 15 / 16
    assert runner.calls == 1 + 3  # initial RTL + one per sample; scoring reads the cache
    assert checker.calls == 1  # the testbench only
    sim_root = tmp_path / "run" / "sim"
    sample_dirs = sorted(str(w.relative_to(sim_root)) for w, _ in runner.runs[1:])
    assert sample_dirs == [f"rtl_gen.samplefix.e0.c{i}.check0" for i in range(3)]


def test_broken_sample_gets_the_joint_diagnostics(templates, tmp_path):
    script = {
        **PREAMBLE,
        "rtl_gen/sample/e0": [
            fenced(stub_dut("score:1:16", name="cand0", err_line=3)),
            fenced(stub_dut("score:2:16", name="cand1")),
        ],
        "rtl_gen/samplefix/e0/c0/fix1": fenced(stub_dut("score:1:16", name="cand0")),
    }
    config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=0)
    runner, checker = RecordingSimRunner(), StandaloneChecker()
    outcome, runtime = run(templates, tmp_path / "run", script, config, runner, checker)
    assert outcome.best.score.value == 15 / 16

    sim_root = tmp_path / "run" / "sim"
    probe = sim_root / "rtl_gen.samplefix.e0.c0.check0"
    assert [(w, status) for w, status in runner.runs if w == probe] == [
        (probe, "compile_failed")
    ]
    assert checker.calls == 1  # the testbench only
    assert checker.workdirs == [sim_root / "testbench_gen.gen0.check0"]
    assert runner.calls == 1 + 3  # initial, broken sample, its repair, clean sample

    fix_request = next(
        r for r in runtime.backend.requests if r.tag == "rtl_gen/samplefix/e0/c0/fix1"
    )
    prompt = fix_request.messages[-1].content
    assert "dut.v:3: error: syntax error near marker" in prompt
    assert "standalone.v" not in prompt


class SlowRepairScript:
    """Sample i needs 1 + i % 3 repairs and has i + ``mismatches`` mismatching
    checkpoints out of 16; lower indices answer more slowly, or more quickly
    unless ``slowest_first``.

    Records the highest number of repair calls in flight at once.
    """

    def __init__(self, pool: int, slowest_first: bool = True, mismatches: int = 0):
        self.pool = pool
        self.slowest_first = slowest_first
        self.mismatches = mismatches
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def __call__(self, request):
        if request.tag == "rtl_gen/sample/e0":
            return [
                fenced(stub_dut(self.score(i), name=f"cand{i}", err_line=3))
                for i in range(self.pool)
            ]
        if "/samplefix/" not in request.tag:
            return PREAMBLE[request.tag]
        sample, fix = request.tag.split("/")[-2:]
        i, k = int(sample[1:]), int(fix[3:])
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(0.01 * (self.pool - i if self.slowest_first else i + 1))
        with self._lock:
            self.in_flight -= 1
        err_line = 0 if k == 1 + i % 3 else 3 + k
        return fenced(stub_dut(self.score(i), name=f"cand{i}", err_line=err_line))

    def score(self, i: int) -> str:
        return f"score:{i + self.mismatches}:16"


def concurrent_repair_runs(templates, tmp_path, pool: int, mismatches: int) -> dict:
    """Both reply orders of ``SlowRepairScript``: (events, LLM calls, most
    repairs in flight) for each value of ``slowest_first``."""
    runs = {}
    for slowest_first in (False, True):
        script = SlowRepairScript(pool, slowest_first, mismatches)
        config = RunConfig(pool_size=pool, top_k=1, max_debug_rounds=0)
        transcript = tmp_path / f"slowest_first_{slowest_first}"
        outcome, _ = run(templates, transcript, script, config)
        events = (transcript / "events.jsonl").read_bytes()
        runs[slowest_first] = (events, outcome.llm_calls, script.max_in_flight)
    assert runs[False][0] == runs[True][0]
    assert runs[False][2] > 1
    assert runs[True][2] > 1
    return runs


def sample_fix_tags(events: bytes) -> list[str]:
    return [
        e["tag"]
        for e in map(json.loads, events.decode().splitlines())
        if e["event"] == "llm_call" and "/samplefix/" in e["tag"]
    ]


def test_concurrent_repair_event_log_independent_of_reply_order(templates, tmp_path):
    pool = 6
    runs = concurrent_repair_runs(templates, tmp_path, pool, mismatches=1)
    assert runs[False][1] == runs[True][1] == 3 + 1 + sum(1 + i % 3 for i in range(pool))
    assert sample_fix_tags(runs[True][0]) == [
        f"rtl_gen/samplefix/e0/c{i}/fix{k}" for i in range(pool) for k in range(1, 2 + i % 3)
    ]


def test_concurrent_repair_stops_at_a_perfect_first_fix(templates, tmp_path):
    """Sample 0 settles at its first fix with a perfect score, which solves
    the run: every sample still broken after its first fix stops there, in
    either reply order."""
    pool = 6
    runs = concurrent_repair_runs(templates, tmp_path, pool, mismatches=0)
    assert runs[False][1] == runs[True][1] == 3 + 1 + pool
    assert sample_fix_tags(runs[True][0]) == [
        f"rtl_gen/samplefix/e0/c{i}/fix1" for i in range(pool)
    ]


def test_single_agent_mode_repairs_in_order(templates, tmp_path):
    script = SlowRepairScript(4)
    config = RunConfig(pool_size=4, top_k=1, max_debug_rounds=0, agent_mode="single")
    run(templates, tmp_path / "run", script, config)
    assert script.max_in_flight == 1


def test_stress_duplicate_samples_simulated_once(templates, tmp_path):
    """Many more repair threads than cores (one per sample), a tiny switch
    interval, and a pool of five distinct samples repeated: every distinct
    source simulates once."""
    clean = [fenced(stub_dut(f"score:{m}:16", name="dup")) for m in (1, 2, 3)]
    broken = [fenced(stub_dut("score:1:16", name="dup", err_line=e)) for e in (3, 4)]
    distinct = clean + broken
    script = {
        **PREAMBLE,
        "rtl_gen/sample/e0": [distinct[i % len(distinct)] for i in range(64)],
        **{f"rtl_gen/samplefix/e0/c{i}/fix1": clean[0] for i in range(64)},
    }
    config = RunConfig(pool_size=64, top_k=3, max_debug_rounds=0)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(5):
            result = []
            worker = threading.Thread(
                target=lambda: result.append(
                    run(templates, tmp_path / f"run{attempt}", script, config)
                )
            )
            worker.start()
            worker.join(timeout=120)
            assert not worker.is_alive()
            outcome, runtime = result[0]
            assert outcome.status == "budget_exhausted"
            assert runtime.sim_runner.calls == 1 + len(distinct)  # initial + distinct samples
            assert runtime.syntax_checker.calls == 1  # the testbench only
    finally:
        sys.setswitchinterval(previous)
