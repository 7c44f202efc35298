"""Step 4's sampling request sent while the judge decides (multi mode): an
``rtl_faulty`` verdict takes its replies, so the transcript is that of a
sequential run; ``testbench_faulty`` or a judge that raises discards it,
logged and counted as sent."""

import gc
import json
import threading
import time

import pytest

from rtlforge.agents import AgentTeam
from rtlforge.pipeline import EngineRuntime, RunConfig, _SimCache, max_llm_calls, run_pipeline

from fixtures import fenced, stub_counter_problem, stub_dut, stub_tb
from toolstub import ScriptedBackend, StubSimRunner, StubSyntaxChecker

GOOD_TB = fenced(stub_tb())
CLEAN_RTL = fenced(stub_dut("counter16"))
GLITCH_RTL = fenced(stub_dut("counter16:glitch@9"))
RTL_FAULTY = "Expected values follow the spec.\nVERDICT: rtl_faulty"
TB_FAULTY = "The bench misdrives rst.\nVERDICT: testbench_faulty"
SAMPLES = [fenced(stub_dut(f"score:{m}:16", name=f"cand{m}")) for m in (1, 2)]
STEPS_1_2 = {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": GLITCH_RTL}
# Epoch 0's judge blames the testbench; epoch 1's initial RTL solves the run.
REGEN = {
    **STEPS_1_2,
    "judge/e0": TB_FAULTY,
    "rtl_gen/sample/e0": SAMPLES,
    "testbench_gen/gen1": fenced(stub_tb(name="counter4_tb2")),
    "rtl_gen/init1": CLEAN_RTL,
}
SAMPLE_CALL = {
    "conv": "conv-rtl_gen", "event": "llm_call", "n": 2, "role": "rtl_gen",
    "tag": "rtl_gen/sample/e0",
}


def run(script, tmp_path, templates, backend_type=ScriptedBackend, **config):
    backend = backend_type(script)
    runtime = EngineRuntime(
        backend=backend,
        sim_runner=StubSimRunner(),
        syntax_checker=StubSyntaxChecker(),
        templates=templates,
        transcript_dir=tmp_path,
    )
    outcome = run_pipeline(stub_counter_problem(), RunConfig(pool_size=2, **config), runtime)
    events = [json.loads(line) for line in (tmp_path / "events.jsonl").read_text().splitlines()]
    return outcome, backend, events


def test_discarded_speculation_is_logged_as_sent(templates, tmp_path):
    outcome, backend, events = run(REGEN, tmp_path, templates)
    assert outcome.status == "solved"
    verdict = events.index({"event": "verdict", "decision": "testbench_faulty", "epoch": 0})
    assert events[verdict + 1 : verdict + 4] == [
        SAMPLE_CALL,
        {"event": "sampling_discarded", "epoch": 0},
        {"event": "tb_regen", "count": 1, "epoch": 0},
    ]
    assert outcome.llm_calls == sum(e["event"] == "llm_call" for e in events) == 6
    assert outcome.llm_calls == len(backend.requests)
    # Epoch 1's initial RTL sees step 2 of epoch 0 and no sampling turn.
    init1 = next(r for r in backend.requests if r.tag == "rtl_gen/init1")
    assert [m.role for m in init1.messages] == ["system", "user", "assistant", "user"]
    assert init1.messages[2].content == GLITCH_RTL


def test_discarded_speculation_that_raised_is_logged_as_sent(templates, tmp_path):
    script = {tag: reply for tag, reply in REGEN.items() if tag != "rtl_gen/sample/e0"}
    outcome, backend, events = run(script, tmp_path, templates)
    assert outcome.status == "solved"
    assert events[events.index({"event": "sampling_discarded", "epoch": 0}) - 1] == SAMPLE_CALL
    assert outcome.llm_calls == sum(e["event"] == "llm_call" for e in events) == 6


def test_discarded_fanout_speculation_counts_each_sub_call(templates, tmp_path):
    script = {**REGEN, **{f"rtl_gen/sample/e0.{i}": reply for i, reply in enumerate(SAMPLES)}}
    outcome, backend, events = run(script, tmp_path, templates, fanout_sampling=True)
    assert outcome.status == "solved"
    assert SAMPLE_CALL in events
    assert outcome.llm_calls == len(backend.requests) == 7


def run_uncollected(script, tmp_path, templates):
    """``run`` with the cyclic collector off; also returns the teams and
    caches that outlive the run."""
    gc.collect()
    gc.disable()
    try:
        outcome, backend, events = run(script, tmp_path, templates)
        alive = [o for o in gc.get_objects() if isinstance(o, (AgentTeam, _SimCache))]
    finally:
        gc.enable()
    return outcome, backend, events, alive


def test_judge_that_raises_ends_the_run_with_no_thread_left(templates, tmp_path):
    """The run ends in the judge's error, and nothing of it outlives it: no
    thread, and with the cyclic collector off, no team or cache."""
    script = {**STEPS_1_2, "judge/e0": "Hard to say.", "rtl_gen/sample/e0": SAMPLES}
    before = set(threading.enumerate())
    outcome, backend, events, alive = run_uncollected(script, tmp_path, templates)
    assert set(threading.enumerate()) - before == set()
    assert alive == []
    assert outcome.status == "error" and "VERDICT" in outcome.error
    assert [e["event"] for e in events[-3:]] == ["llm_call", "sampling_discarded", "outcome"]
    assert events[-1] == {"event": "outcome", "status": "error", "error": outcome.error}
    assert outcome.llm_calls == sum(e["event"] == "llm_call" for e in events) == 4
    assert outcome.llm_calls <= max_llm_calls(RunConfig(pool_size=2))


def test_taken_sampling_error_ends_the_run_as_a_sequential_one_did(templates, tmp_path):
    """A sampling request that raised, taken on ``rtl_faulty``: the run ends
    in its error with no ``llm_call`` for it, and with the cyclic collector
    off nothing of the run outlives it."""
    script = {**STEPS_1_2, "judge/e0": RTL_FAULTY}  # no sampling reply
    outcome, backend, events, alive = run_uncollected(script, tmp_path, templates)
    assert alive == []
    assert outcome.status == "error" and "rtl_gen/sample/e0" in outcome.error
    assert [e["event"] for e in events[-3:]] == ["verdict", "step", "outcome"]
    assert outcome.llm_calls == sum(e["event"] == "llm_call" for e in events) == 3
    assert len(backend.requests) == 4


class _Timed(ScriptedBackend):
    """Each judge and sampling reply takes 0.1 s; records when each started
    and ended."""

    def __init__(self, script):
        super().__init__(script)
        self.spans: dict[str, tuple[float, float]] = {}

    def complete(self, request):
        start = time.monotonic()
        if request.tag in ("judge/e0", "rtl_gen/sample/e0"):
            time.sleep(0.1)
        try:
            return super().complete(request)
        finally:
            self.spans[request.tag] = (start, time.monotonic())


@pytest.mark.parametrize("mode, overlap", [("multi", True), ("single", False)])
def test_sampling_goes_out_with_the_judge_in_multi_mode_only(templates, tmp_path, mode, overlap):
    script = {
        **STEPS_1_2,
        "judge/e0": RTL_FAULTY,
        "rtl_gen/sample/e0": SAMPLES,
        "debug/r1/c1": fenced(stub_dut("counter16", name="fixed")),
    }
    outcome, backend, _ = run(
        script, tmp_path, templates, _Timed, top_k=1, max_debug_rounds=1, agent_mode=mode
    )
    assert outcome.status == "solved"
    judge, sample = backend.spans["judge/e0"], backend.spans["rtl_gen/sample/e0"]
    assert (sample[0] < judge[1]) is overlap
