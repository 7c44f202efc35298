"""Step 5 on the run executor: debug trials run concurrently, yet their ids
and events follow slot order, so the event log does not depend on which
trial answers first."""

import json
import sys
import threading
import time
from pathlib import Path

from rtlforge.gateway import BackendError
from rtlforge.pipeline import EngineRuntime, RunConfig, run_pipeline

from fixtures import fenced, stub_counter_problem, stub_dut, stub_tb
from toolstub import ScriptedBackend, StubSimRunner, StubSyntaxChecker

PREAMBLE = {
    "testbench_gen/gen0": fenced(stub_tb()),
    "rtl_gen/init0": fenced(stub_dut("counter16:glitch@9")),
    "judge/e0": "Expected values follow the spec.\nVERDICT: rtl_faulty",
}


class SlowDebugScript:
    """Samples 1-3 have 1-3 mismatches, so slot i holds root i + 1. Each debug
    trial keeps its lineage's score (a tie, so the trial survives); lower
    root ids answer more slowly, or more quickly unless ``slowest_first``.
    With ``failing``, root 1's round-1 trial fails at once, and every other
    trial needs one syntax fix. Records the most debug calls in flight."""

    def __init__(self, slowest_first: bool = True, failing: bool = False):
        self.slowest_first = slowest_first
        self.failing = failing
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def __call__(self, request):
        if request.tag == "rtl_gen/sample/e0":
            return [fenced(stub_dut(f"score:{m}:16", name=f"cand{m}")) for m in (1, 2, 3)]
        if not request.tag.startswith("debug/"):
            return PREAMBLE[request.tag]
        round_index, root = (int(part[1:]) for part in request.tag.split("/")[1:3])
        if self.failing and (round_index, root) == (1, 1):
            raise BackendError("trial lost")
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(0.02 * (4 - root if self.slowest_first else root))
        with self._lock:
            self.in_flight -= 1
        broken = self.failing and not request.tag.endswith("/fix1")
        return fenced(
            stub_dut(f"score:{root}:16", name=f"r{round_index}c{root}", err_line=3 * broken)
        )


def run(templates, transcript, slowest_first=True, runner=None, failing=False, **config):
    script = SlowDebugScript(slowest_first, failing)
    runtime = EngineRuntime(
        backend=ScriptedBackend(script),
        sim_runner=runner or StubSimRunner(),
        syntax_checker=StubSyntaxChecker(),
        templates=templates,
        transcript_dir=transcript,
    )
    config = RunConfig(pool_size=3, top_k=3, max_debug_rounds=2, **config)
    outcome = run_pipeline(stub_counter_problem(), config, runtime)
    events = [json.loads(line) for line in (transcript / "events.jsonl").read_text().splitlines()]
    return outcome, events, script


def test_trial_ids_follow_slot_order(templates, tmp_path):
    outcome, events, script = run(templates, tmp_path / "run")
    assert outcome.status == "budget_exhausted"
    assert script.max_in_flight > 1
    trials = [e for e in events if e["event"] == "trial"]
    assert [[e["id"] for e in trials if e["round"] == r] for r in (1, 2)] == [
        [4, 5, 6],
        [7, 8, 9],
    ]
    assert [e["lineage"] for e in trials] == [1, 2, 3, 4, 5, 6]
    tags = [e["tag"] for e in events if e["event"] == "llm_call" and e["role"] == "debug"]
    assert tags == [f"debug/r{r}/c{c}" for r in (1, 2) for c in (1, 2, 3)]


def test_event_log_independent_of_reply_order(templates, tmp_path):
    """Slots answer in either order and the run writes the same log. When
    ``failing``, slot 1's trial fails at once while slots 2 and 3 still ask
    for a reply and a fix each: the run ends as an error only after both
    have ended, and logs their calls in slot order."""
    for failing in (False, True):
        artifacts = {}
        for slowest_first in (False, True):
            transcript = tmp_path / f"failing_{failing}" / f"slowest_first_{slowest_first}"
            outcome, events, script = run(templates, transcript, slowest_first, failing=failing)
            assert script.max_in_flight > 1
            assert outcome.llm_calls == sum(e["event"] == "llm_call" for e in events)
            best = transcript / "best.v"
            artifacts[slowest_first] = (
                (transcript / "events.jsonl").read_bytes(),
                best.read_bytes() if best.exists() else None,
                outcome.llm_calls,
            )
            if failing:
                assert outcome.status == "error" and "trial lost" in outcome.error
                tags = [e["tag"] for e in events if e.get("role") == "debug"]
                assert tags == [f"debug/r1/c{c}{fix}" for c in (2, 3) for fix in ("", "/fix1")]
        assert artifacts[False] == artifacts[True], f"failing={failing}"


def test_run_logs_in_item_order_after_every_call_under_contention(templates, tmp_path):
    """64 samples, one worker each, and a short switch interval; each sample
    asks for two fixes. The samples' events reach the log in item order and,
    when samples 31 and 5 fail their second fix, sample 5's error ends the
    run, only once every call has ended and been logged."""
    pool = 64

    def script(request):
        if request.tag == "rtl_gen/sample/e0":
            return [fenced(stub_dut("score:1:16", name=f"c{i}", err_line=3)) for i in range(pool)]
        if request.tag not in PREAMBLE:
            sample, fix = request.tag.split("/")[-2:]
            if fix == "fix2" and int(sample[1:]) in failing:
                raise BackendError(f"{sample} lost")
            return fenced(stub_dut("score:1:16", name=sample, err_line=3 * (fix == "fix1")))
        return PREAMBLE[request.tag]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for failing in (set(), {31, 5}):
            backend = ScriptedBackend(script)
            runtime = EngineRuntime(
                backend=backend,
                sim_runner=StubSimRunner(),
                syntax_checker=StubSyntaxChecker(),
                templates=templates,
                transcript_dir=tmp_path / f"failing_{len(failing)}",
            )
            config = RunConfig(pool_size=pool, top_k=3, max_debug_rounds=0)
            result = []
            worker = threading.Thread(
                target=lambda: result.append(run_pipeline(stub_counter_problem(), config, runtime))
            )
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive(), "the run did not end"
            outcome = result[0]
            log = (runtime.transcript_dir / "events.jsonl").read_text().splitlines()
            events = [json.loads(line) for line in log]
            if failing:
                assert outcome.status == "error" and outcome.error.endswith("c5 lost")
            else:
                assert outcome.status == "budget_exhausted"
            assert len(backend.requests) == 3 + 1 + 2 * pool
            fixes = [e["tag"] for e in events if "/samplefix/" in e.get("tag", "")]
            assert fixes == [
                f"rtl_gen/samplefix/e0/c{i}/fix{k}"
                for i in range(pool)
                for k in (1, 2)
                if k == 1 or i not in failing
            ]
            assert outcome.llm_calls == sum(e["event"] == "llm_call" for e in events)
    finally:
        sys.setswitchinterval(interval)


def test_single_agent_mode_keeps_one_trial_in_flight(templates, tmp_path):
    outcome, events, script = run(templates, tmp_path / "run", agent_mode="single")
    assert outcome.status == "budget_exhausted"
    assert sum(e["event"] == "trial" for e in events) == 6
    assert script.max_in_flight == 1


class WorkdirRecordingRunner(StubSimRunner):
    """Stub runner that records the workdir of every simulation."""

    def __init__(self):
        super().__init__()
        self.workdirs: list[Path] = []

    def run(self, sources, workdir):
        self.workdirs.append(Path(workdir))
        return super().run(sources, workdir)


def test_scoring_reads_only_probe_simulations(templates, tmp_path):
    """Every candidate and trial is scored from its syntax probe's cached
    simulation, so the runner is never handed a workdir of a scoring label
    (``initial_e0``, ``sample_e0_c5``, ``debug_r1_c2``)."""
    runner = WorkdirRecordingRunner()
    outcome, events, _ = run(templates, tmp_path / "run", runner=runner)
    assert outcome.status == "budget_exhausted"
    assert sum(e["event"] == "trial" for e in events) == 6
    names = [w.name for w in runner.workdirs]
    assert all(w.parent == tmp_path / "run" / "sim" for w in runner.workdirs)
    # The initial RTL, 3 samples and 6 trials, each simulated once, by its probe.
    assert len(names) == 10 and len(set(names)) == 10
    assert all(n.startswith(("rtl_gen.init0.", "rtl_gen.samplefix.", "debug.")) for n in names)
    assert sum(n.startswith("debug.") for n in names) == 6
