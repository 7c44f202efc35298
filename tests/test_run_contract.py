"""The outcome contract of any scripted run, and a finished run's state freed
without the cyclic garbage collector."""

import gc
import json
import re
import time
import zlib
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from rtlforge.agents import SYNTAX_FIX_CAP, AgentTeam
from rtlforge.gateway import BackendError
from rtlforge.pipeline import (
    EngineRuntime, RunConfig, WorkdirAllocator, _SimCache, max_llm_calls, run_pipeline
)

from fixtures import fenced, stub_counter_problem, stub_dut, stub_tb
from toolstub import ScriptedBackend, StubSimRunner, StubSyntaxChecker

STATUSES = {"solved", "budget_exhausted", "tb_regen_exhausted", "error"}
KINDS = (
    "clean",
    "broken_then_fixed",
    "broken_twice_then_fixed",
    "never_fixed",
    "no_fence",
    "no_module",
    "rtl_faulty",
    "testbench_faulty",
    "no_verdict",
    "missing",
)
BEHAVIORS = (
    "counter16",
    "counter16:glitch@9",
    "score:1:16",
    "score:4:16",
    "nochecks",
    "crash",
    "jointfail_tb",
    "jointfail_dut",
)
# Drawn behaviors lean to the correct counter, so samples and debug trials
# that solve the run, and stop stragglers, are drawn too.
DRAWN_BEHAVIORS = ("counter16",) * 3 + BEHAVIORS
# Behaviors with a trace that score below 1: a clean sample with one can lead.
TRACED_BELOW_1 = ("counter16:glitch@9", "score:1:16", "score:4:16")
# Repairs a reply of each broken kind needs; a never-fixed one outlasts the cap.
FIXES_NEEDED = {
    "broken_then_fixed": 1,
    "broken_twice_then_fixed": 2,
    "never_fixed": SYNTAX_FIX_CAP + 1,
}
GOOD_TB = fenced(stub_tb())
CLEAN_RTL = fenced(stub_dut("counter16"))
GLITCH_RTL = fenced(stub_dut("counter16:glitch@9"))
RTL_FAULTY = "Expected values follow the spec.\nVERDICT: rtl_faulty"
# Per role, the step 1-3 reply that leads on to sampling.
PROCEED = {"testbench_gen": GOOD_TB, "rtl_gen": GLITCH_RTL, "judge": RTL_FAULTY}
# Steps 1-3 draw their kinds from these, three in four times "proceed".
EARLY_KINDS = ("proceed",) * (3 * len(KINDS)) + KINDS
_EARLY_RE = re.compile(r"^(testbench_gen/gen|rtl_gen/init|judge/e)\d+$")
_FIX_RE = re.compile(r"^(?P<parent>.*)/fix(?P<k>\d+)$")
_SAMPLEFIX_RE = re.compile(r"^rtl_gen/samplefix/(?P<epoch>e\d+)/c(?P<i>\d+)$")
_SAMPLE_RE = re.compile(r"^rtl_gen/sample/e\d+#(?P<i>\d+)$")


class Script:
    """Replies by tag: each tag's kind (and a DUT's behavior) is picked from
    the drawn lists by a hash of the tag, so a tag always gets the same reply
    whichever thread asks first. The first requests of steps 1-3 pick from
    ``early``; the samples, every repair and the debug trials from ``late``.
    The first repair of a ``broken_then_fixed`` reply is clean, and the
    second of a ``broken_twice_then_fixed`` one, so stragglers that settle
    late, and may displace step 5's provisional top-K, are drawn too; no
    repair of a ``never_fixed`` reply is clean, so stragglers that a
    speculative solve stops are drawn as well. Sample i < len(``samples``)
    has the (kind, behavior) ``samples[i]`` instead."""

    def __init__(
        self, early: list[str], late: list[str], behaviors: list[str], samples: tuple = ()
    ):
        self.early = early
        self.late = late
        self.behaviors = behaviors
        self.samples = samples

    def pick(self, options, key: str):
        return options[zlib.crc32(key.encode()) % len(options)]

    def pinned(self, key: str) -> Optional[tuple[str, str]]:
        """The (kind, behavior) of the sample ``key`` asks for, if pinned."""
        sample = _SAMPLE_RE.match(key)
        if sample and int(sample["i"]) < len(self.samples):
            return self.samples[int(sample["i"])]
        return None

    def kind(self, key: str) -> str:
        fix = _FIX_RE.match(key)
        if fix:
            parent = fix["parent"]
            sample = _SAMPLEFIX_RE.match(parent)
            if sample:
                parent = f"rtl_gen/sample/{sample['epoch']}#{sample['i']}"
            fixes = FIXES_NEEDED.get(self.kind(parent))
            if fixes is not None and int(fix["k"]) <= fixes:
                return "clean" if int(fix["k"]) == fixes else "broken_then_fixed"
        if self.pinned(key):
            return self.pinned(key)[0]
        return self.pick(self.early if _EARLY_RE.match(key) else self.late, key)

    def reply(self, key: str) -> str:
        kind = self.kind(key)
        if kind == "proceed":
            return PROCEED[key.split("/")[0]]
        if kind == "missing":
            raise BackendError(f"no scripted reply for {key!r}")
        if kind == "clean" or kind in FIXES_NEEDED:
            err = 0 if kind == "clean" else 3
            if key.startswith("testbench_gen/"):
                return fenced(stub_tb() + (f"//ERR:{err}:bad port list\n" if err else ""))
            behavior = self.pinned(key)[1] if self.pinned(key) else self.pick(self.behaviors, key)
            return fenced(stub_dut(behavior, err_line=err))
        return {
            "no_fence": "sorry, no code",
            "no_module": fenced("assign y = 1;\n"),
            "rtl_faulty": RTL_FAULTY,
            "testbench_faulty": "The bench misdrives rst.\nVERDICT: testbench_faulty",
            "no_verdict": "Hard to say which side is wrong.",
        }[kind]

    def __call__(self, request) -> list[str]:
        n = request.params.n_completions
        if n == 1:
            return [self.reply(request.tag)]
        return [self.reply(f"{request.tag}#{i}") for i in range(n)]


@st.composite
def scripted_runs(draw):
    pool = draw(st.integers(1, 4))
    config = RunConfig(
        pool_size=pool,
        top_k=draw(st.integers(1, pool)),
        max_debug_rounds=draw(st.integers(0, 2)),
        max_tb_regens=draw(st.integers(0, 2)),
        agent_mode=draw(st.sampled_from(["multi", "single"])),
    )
    early = draw(st.lists(st.sampled_from(EARLY_KINDS), min_size=1, max_size=6))
    late = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=12))
    behaviors = draw(st.lists(st.sampled_from(DRAWN_BEHAVIORS), min_size=1, max_size=4))
    # Half the runs pin their first two samples: one passes its probe with a
    # trace and a score below 1, the other fails it, so a lead trial starts.
    samples = ()
    if draw(st.booleans()):
        leader = ("clean", draw(st.sampled_from(TRACED_BELOW_1)))
        straggler = (draw(st.sampled_from(list(FIXES_NEEDED))), draw(st.sampled_from(BEHAVIORS)))
        samples = (leader, straggler)
    return config, Script(early, late, behaviors, samples)


def stub_runtime(script, templates, transcript) -> EngineRuntime:
    return EngineRuntime(
        backend=ScriptedBackend(script),
        sim_runner=StubSimRunner(),
        syntax_checker=StubSyntaxChecker(),
        templates=templates,
        transcript_dir=transcript,
    )


# A speculative solve that stops a never-fixed straggler is rare among drawn
# runs, so two such runs are pinned: a settled sample scores 1 (it stops
# after fix 1), and round 1 solves (after fix 2). Two runs whose lead trial
# solves, and is discarded, are pinned too.
@settings(max_examples=50, deadline=None)
@given(run=scripted_runs())
@example(
    run=(
        RunConfig(pool_size=3, top_k=1, max_debug_rounds=2),
        Script(*[["clean", "never_fixed", "rtl_faulty"]] * 2, ["score:1:16", "counter16"]),
    )
)
@example(
    run=(
        RunConfig(pool_size=2, top_k=1, max_debug_rounds=2),
        Script(
            *[["never_fixed", "clean", "broken_then_fixed", "rtl_faulty"]] * 2,
            ["score:1:16", "counter16"],
        ),
    )
)
@example(
    run=(
        RunConfig(pool_size=3, top_k=2, max_debug_rounds=1),
        Script(
            *[["broken_then_fixed", "rtl_faulty", "clean"]] * 2,
            ["counter16", "counter16:glitch@9"],
        ),
    )
)
@example(
    run=(
        RunConfig(pool_size=3, top_k=2, max_debug_rounds=1),
        Script(
            *[["rtl_faulty", "clean", "rtl_faulty", "broken_twice_then_fixed"]] * 2,
            ["score:1:16", "score:1:16", "counter16"],
        ),
    )
)
def test_any_scripted_run_keeps_the_outcome_contract(run, templates, tmp_path_factory):
    config, script = run
    transcript = tmp_path_factory.mktemp("run")
    outcome = run_pipeline(stub_counter_problem(), config, stub_runtime(script, templates, transcript))
    events = [json.loads(line) for line in (transcript / "events.jsonl").read_text().splitlines()]
    assert outcome.status in STATUSES
    assert events[-1]["event"] == "outcome"
    assert events[-1]["status"] == outcome.status
    assert outcome.llm_calls == sum(e["event"] == "llm_call" for e in events)
    assert outcome.llm_calls <= max_llm_calls(config)


@settings(max_examples=50, deadline=None)
@given(run=scripted_runs())
def test_any_scripted_run_acquires_each_workdir_label_once(run, templates, tmp_path_factory):
    """No run names a workdir twice, so a label alone names its workdir."""
    config, script = run
    labels = []
    acquire = WorkdirAllocator.acquire

    def recorded(self, label):
        labels.append(label)
        return acquire(self, label)

    runtime = stub_runtime(script, templates, tmp_path_factory.mktemp("run"))
    with mock.patch.object(WorkdirAllocator, "acquire", recorded):
        run_pipeline(stub_counter_problem(), config, runtime)
    assert len(set(labels)) == len(labels), labels


TO_SAMPLING = {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": GLITCH_RTL, "judge/e0": RTL_FAULTY}
SAMPLES = [fenced(stub_dut(f"score:{m}:16", name=f"cand{m}")) for m in (1, 2)]


def test_finished_runs_leave_no_team_or_cache(templates, tmp_path):
    """With the cyclic collector off, nothing of a run outlives it: a solved,
    a budget-exhausted, and an errored run whose failure came from an executor
    thread."""
    runs = {
        "solved": {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL},
        "budget_exhausted": {
            **TO_SAMPLING,
            "rtl_gen/sample/e0": SAMPLES,
            "debug/r1/c1": fenced(stub_dut("score:1:16", name="trial")),
        },
        "error": {**TO_SAMPLING, "rtl_gen/sample/e0": SAMPLES},  # no debug reply
    }
    config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=1)
    gc.collect()
    gc.disable()
    try:
        for status, script in runs.items():
            runtime = stub_runtime(script, templates, tmp_path / status)
            assert run_pipeline(stub_counter_problem(), config, runtime).status == status
            alive = [o for o in gc.get_objects() if isinstance(o, (AgentTeam, _SimCache))]
            assert alive == [], status
    finally:
        gc.enable()


def test_calls_still_running_after_a_failure_are_logged(templates, tmp_path):
    """Sample 0's repair fails while sample 1's is still asking for fixes:
    every call sample 1 makes after the failure still gets its event."""
    broken = [fenced(stub_dut("score:1:16", err_line=3)), fenced(stub_dut("score:2:16", err_line=3))]

    def script(request):
        if request.tag == "rtl_gen/sample/e0":
            return broken
        if request.tag == "rtl_gen/samplefix/e0/c0/fix1":
            time.sleep(0.05)
            raise BackendError("no reply")
        if request.tag.startswith("rtl_gen/samplefix/e0/c1/"):
            time.sleep(0.03)
            return [broken[1]]
        return [TO_SAMPLING[request.tag]]

    outcome = run_pipeline(
        stub_counter_problem(), RunConfig(pool_size=2), stub_runtime(script, templates, tmp_path)
    )
    events = [json.loads(line) for line in (tmp_path / "events.jsonl").read_text().splitlines()]
    assert outcome.status == "error"
    assert outcome.llm_calls == 3 + 1 + 5  # steps 1-3, the sampling call, sample 1's fixes
    assert outcome.llm_calls == sum(e["event"] == "llm_call" for e in events)
    assert events[-1]["event"] == "outcome"


@pytest.mark.parametrize("tag", ["testbench_gen/gen0", "judge/e0"])
def test_an_empty_completion_ends_the_run_in_band(tag, templates, tmp_path):
    """A reply of "" (a live endpoint may send one, a cassette may hold one)
    is rejected by the gateway: the run ends with status "error"."""
    replies = {**TO_SAMPLING, tag: ""}
    runtime = stub_runtime(lambda request: [replies[request.tag]], templates, tmp_path)
    outcome = run_pipeline(stub_counter_problem(), RunConfig(pool_size=2), runtime)
    assert outcome.status == "error" and "empty completion" in outcome.error
    events = [json.loads(line) for line in (tmp_path / "events.jsonl").read_text().splitlines()]
    assert events[-1] == {"event": "outcome", "status": "error", "error": outcome.error}
