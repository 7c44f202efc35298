"""Step 5 on the run executor: debug trials run concurrently, yet their ids
and events follow slot order, so the event log is the same at any worker
count."""

import json
import threading
import time

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
    root ids answer more slowly. Records the most debug calls in flight."""

    def __init__(self):
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def __call__(self, request):
        if request.tag == "rtl_gen/sample/e0":
            return [fenced(stub_dut(f"score:{m}:16", name=f"cand{m}")) for m in (1, 2, 3)]
        if not request.tag.startswith("debug/"):
            return PREAMBLE[request.tag]
        round_index, root = (int(part[1:]) for part in request.tag.split("/")[1:])
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(0.02 * (4 - root))
        with self._lock:
            self.in_flight -= 1
        return fenced(stub_dut(f"score:{root}:16", name=f"r{round_index}c{root}"))


def run(templates, transcript, **config):
    script = SlowDebugScript()
    runtime = EngineRuntime(
        backend=ScriptedBackend(script),
        sim_runner=StubSimRunner(),
        syntax_checker=StubSyntaxChecker(),
        templates=templates,
        transcript_dir=transcript,
    )
    config = RunConfig(pool_size=3, top_k=3, max_debug_rounds=2, **config)
    outcome = run_pipeline(stub_counter_problem(), config, runtime)
    events = [json.loads(line) for line in (transcript / "events.jsonl").read_text().splitlines()]
    return outcome, events, script


def test_trial_ids_follow_slot_order(templates, tmp_path):
    outcome, events, script = run(templates, tmp_path / "run", sim_workers=8)
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


def test_event_log_independent_of_worker_count(templates, tmp_path):
    artifacts = {}
    for workers in (1, 8):
        transcript = tmp_path / f"w{workers}"
        outcome, _, _ = run(templates, transcript, sim_workers=workers)
        artifacts[workers] = (
            (transcript / "events.jsonl").read_bytes(),
            (transcript / "best.v").read_bytes(),
            outcome.llm_calls,
        )
    assert artifacts[1] == artifacts[8]


def test_single_agent_mode_keeps_one_trial_in_flight(templates, tmp_path):
    outcome, events, script = run(
        templates, tmp_path / "run", sim_workers=8, agent_mode="single"
    )
    assert outcome.status == "budget_exhausted"
    assert sum(e["event"] == "trial" for e in events) == 6
    assert script.max_in_flight == 1
