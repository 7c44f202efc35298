"""Step 5 on the run executor: debug trials run concurrently, yet their ids
and events follow slot order, so the event log does not depend on which
trial answers first."""

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from rtlforge.gateway import BackendError
from rtlforge.pipeline import EngineRuntime, RunConfig, _Batch, run_pipeline

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


def test_batch_logs_in_item_order_after_every_call_under_contention():
    """More workers than cores and a short switch interval: each batch's
    events reach the sink in item order, and its first error in item order
    is raised, only once every call has ended."""

    def call(item, emit, failed):
        for k in range(50):
            emit({"item": item, "k": k})
        failed(1)
        ended.append(item)
        if item in (31, 5):
            raise ValueError(str(item))
        return 2 * item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as executor:
            for items, error in ((range(0, 64, 2), None), (range(64), "5")):
                ended, sink = [], []
                batch = _Batch(call, items, executor.submit, sink.append)
                batch.release()  # no call waits on a decision
                if error is None:
                    assert batch.settled(1) == [] and batch.results() == [2 * i for i in items]
                else:
                    with pytest.raises(ValueError, match=f"^{error}$"):
                        batch.results()
                assert sorted(ended) == list(items)
                assert sink == [{"item": i, "k": k} for i in items for k in range(50)]
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
