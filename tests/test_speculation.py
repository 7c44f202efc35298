"""Step 5 overlapping step-4 stragglers: debug rounds start on a provisional
top-K while a sample is still being repaired. Timing changes no artifact; a
straggler that enters the top-K discards the speculative rounds."""

import gc
import json
import threading
import time

import pytest

from rtlforge.agents import SYNTAX_FIX_CAP, AgentTeam
from rtlforge.checkpoints import Score
from rtlforge.cassette import verify_cassette
from rtlforge.gateway import (
    BackendError, CassetteRecorder, LlmResponse, ReplayBackend, request_digest, request_key
)
from rtlforge import pipeline
from rtlforge.pipeline import (
    Candidate, EngineRuntime, RunConfig, _SimCache, max_llm_calls, run_pipeline, select_top_k
)

from fixtures import fenced, stub_counter_problem, stub_dut, stub_tb
from toolstub import StubSimRunner, StubSyntaxChecker

PREAMBLE = {
    "testbench_gen/gen0": fenced(stub_tb()),
    "rtl_gen/init0": fenced(stub_dut("counter16:glitch@9")),
    "judge/e0": "Expected values follow the spec.\nVERDICT: rtl_faulty",
}
TRIAL = fenced(stub_dut("score:6:16", name="trial"))  # worse than every sample
SOLVING_TRIAL = fenced(stub_dut("score:0:16", name="trial"))
NEVER = SYNTAX_FIX_CAP + 1  # fixes a sample that never compiles would need


class TimedScript:
    """Backend for a pool of samples with the given mismatch counts (of 16
    checks), where sample i needs ``fixes[i]`` syntax fixes. ``delay(tag)``
    sets how long each reply takes; every debug trial replies ``trial``.
    Records each request and when it started and returned."""

    def __init__(self, mismatches, fixes, delay=lambda tag: 0.0, trial=TRIAL):
        self.mismatches = mismatches
        self.fixes = fixes
        self.delay = delay
        self.trial = trial
        self.requests = []
        self.times: list[tuple[str, float, float]] = []  # (tag, start, end)
        self._lock = threading.Lock()

    def sample(self, i: int, err_line: int = 0) -> str:
        behavior = f"score:{self.mismatches[i]}:16"
        return fenced(stub_dut(behavior, name=f"cand{i}", err_line=err_line))

    def reply(self, tag: str) -> list[str]:
        if tag == "rtl_gen/sample/e0":
            return [self.sample(i, 3 if self.fixes[i] else 0) for i in range(len(self.fixes))]
        if "/samplefix/" in tag:
            sample, fix = tag.split("/")[-2:]
            i, k = int(sample[1:]), int(fix[3:])
            return [self.sample(i, 0 if k == self.fixes[i] else 3 + k)]
        if tag.startswith("debug/"):
            return [self.trial]
        return [PREAMBLE[tag]]

    def complete(self, request):
        start = time.monotonic()
        time.sleep(self.delay(request.tag))
        texts = self.reply(request.tag)
        with self._lock:
            self.requests.append(request)
            self.times.append((request.tag, start, time.monotonic()))
        return LlmResponse(completions=tuple(texts))


def slow_fixes(tag: str) -> float:
    return 0.05 if "/samplefix/" in tag else 0.0


def slow_trials(tag: str) -> float:
    return 0.05 if tag.startswith("debug/") else 0.0


def run(templates, transcript, backend, config):
    runtime = EngineRuntime(
        backend=backend,
        sim_runner=StubSimRunner(),
        syntax_checker=StubSyntaxChecker(),
        templates=templates,
        transcript_dir=transcript,
    )
    outcome = run_pipeline(stub_counter_problem(), config, runtime)
    events = [json.loads(line) for line in (transcript / "events.jsonl").read_text().splitlines()]
    return outcome, events


def test_timing_changes_no_artifact_and_step5_overlaps_the_straggler(templates, tmp_path):
    """Sample 3 needs three fixes. Slow fixes let rounds 1 and 2 run while it
    repairs; slow debug trials let it settle first. Either way the run writes
    the same events and asks the same requests."""
    config = RunConfig(pool_size=4, top_k=2, max_debug_rounds=3)
    schedules = {
        "slow_fixes": lambda tag: 0.15 if "/samplefix/" in tag else 0.0,
        "slow_trials": slow_trials,
    }
    runs = {}
    for name, delay in schedules.items():
        backend = TimedScript([3, 4, 5, 12], [0, 0, 0, 3], delay)
        outcome, _ = run(templates, tmp_path / name, backend, config)
        events = (tmp_path / name / "events.jsonl").read_bytes()
        keys = sorted(request_key(r) for r in backend.requests)
        runs[name] = (events, keys, outcome.llm_calls, backend.times)

    (events, keys, calls, times), other = runs["slow_fixes"], runs["slow_trials"]
    assert events == other[0]
    assert keys == other[1]
    assert calls == other[2] == 3 + 1 + 3 + 3 * 2
    assert b"speculation_discarded" not in events

    first_trial = min(start for tag, start, _ in times if tag.startswith("debug/r1/"))
    last_fix = max(end for tag, _, end in times if "/samplefix/" in tag)
    assert first_trial < last_fix


def test_displacing_straggler_restarts_step5_on_the_true_top_k(templates, tmp_path):
    """Sample 3 settles at its second fix with the best score: round 1 ran on
    the provisional top-K {1, 2}, is discarded, and step 5 restarts on {4, 1}."""
    config = RunConfig(pool_size=4, top_k=2, max_debug_rounds=2)
    backend = TimedScript([3, 4, 5, 1], [0, 0, 0, 2], slow_fixes)
    gc.collect()
    gc.disable()
    try:
        outcome, events = run(templates, tmp_path / "run", backend, config)
        alive = [o for o in gc.get_objects() if isinstance(o, (AgentTeam, _SimCache))]
    finally:
        gc.enable()
    assert alive == []

    pool = [
        Candidate(e["id"], None, Score(e["score"])) for e in events if e["event"] == "candidate"
    ]
    true_ids = [c.id for c in select_top_k(pool, config.top_k)]
    assert true_ids == [4, 1]
    assert [e["ids"] for e in events if e["event"] == "selection"] == [[1, 2], true_ids]
    discarded = [e for e in events if e["event"] == "speculation_discarded"]
    assert discarded == [{"event": "speculation_discarded", "ids": [1, 2], "rounds": 1}]
    assert outcome.best.id == 4

    # The discarded round's two calls count: steps 1-3, sampling, two fixes,
    # the discarded round, then two rounds on the true top-K.
    assert outcome.llm_calls == sum(e["event"] == "llm_call" for e in events)
    assert outcome.llm_calls == 3 + 1 + 2 + 2 + 2 * 2 <= max_llm_calls(config)

    # The restarted lineage of root 1 carries none of the discarded turns.
    def turns(tag):
        return [len(r.messages) for r in backend.requests if r.tag == tag]

    # The restarted rounds' tags carry a mark, so a cassette keys the
    # discarded and the restarted round 1 of root 1 apart.
    assert turns("debug/r1/c1") == [2]  # discarded: system + user
    assert turns("debug/r1/c1.restart") == [2]  # restarted, the same two turns
    assert turns("debug/r2/c1.restart") == [4]  # one earlier exchange, the restarted round's
    assert turns("debug/r1/c2") == [2]
    assert turns("debug/r1/c4.restart") == [2]
    assert not any(r.tag.startswith("debug/r2/c2") for r in backend.requests)


class DriftingScript(TimedScript):
    """A model that answers a prompt it has seen before differently: the
    second time, its debug trial improves on the candidate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen: set[str] = set()

    def complete(self, request):
        if request.tag.startswith("debug/") and "/fix" not in request.tag:
            digest = request_digest(request)
            with self._lock:
                again = digest in self.seen
                self.seen.add(digest)
            if again:
                return LlmResponse(completions=(fenced(stub_dut("score:2:16", name="better")),))
        return super().complete(request)


def test_displaced_speculation_records_a_cassette_that_replays_byte_for_byte(
    templates, tmp_path
):
    """The discarded and the restarted round 1 of root 1 ask the same
    conversation, and the live model answers them differently. The
    recording keys them apart, and its replay writes the same log."""
    config = RunConfig(pool_size=4, top_k=2, max_debug_rounds=2)
    cassette = tmp_path / "cassette.jsonl"
    recorder = CassetteRecorder(DriftingScript([3, 4, 5, 1], [0, 0, 0, 2], slow_fixes), cassette)
    recorded, events = run(templates, tmp_path / "recording", recorder, config)
    recorder.close()
    assert any(e["event"] == "speculation_discarded" for e in events)
    problems, keys = verify_cassette(cassette)
    assert problems == []
    assert keys == recorded.llm_calls

    replayed, _ = run(templates, tmp_path / "replay", ReplayBackend(cassette), config)
    log = (tmp_path / "recording" / "events.jsonl").read_bytes()
    assert (tmp_path / "replay" / "events.jsonl").read_bytes() == log
    assert b'"score": 0.875' in log  # the restarted trial's drifted answer
    assert (replayed.status, replayed.llm_calls) == (recorded.status, recorded.llm_calls)


class FailingTags(TimedScript):
    """``failures`` maps a tag to the error message its request fails with."""

    def __init__(self, failures, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failures = failures

    def reply(self, tag):
        if tag in self.failures:
            raise BackendError(self.failures[tag])
        return super().reply(tag)


@pytest.mark.parametrize(
    "failures, error",
    [
        ({"debug/r1/c1": "trial lost"}, "trial lost"),
        # The straggler's error wins, as it would had round 1 waited for it.
        ({"debug/r1/c1": "trial lost", "rtl_gen/samplefix/e0/c2/fix2": "no reply"}, "no reply"),
    ],
)
def test_failed_speculative_round_waits_for_the_stragglers(templates, tmp_path, failures, error):
    """The lead, ``debug/r1/c1``, fails while sample 2 makes its first fix;
    speculative round 1, which it belongs to, fails with it while sample 2
    still repairs (slow fixes), or after sample 2 has ended (slow trials).
    Either way the run waits for every sample before it ends as an error,
    logs every call and each candidate before step 5, writes the same log,
    and nothing of the run outlives it."""
    config = RunConfig(pool_size=3, top_k=2, max_debug_rounds=2)
    schedules = {
        "slow_fixes": slow_fixes,
        "slow_trials": slow_trials,
    }
    logs = {}
    for name, delay in schedules.items():
        backend = FailingTags(failures, [3, 4, 5], [0, 0, 3], delay)
        gc.collect()
        gc.disable()
        try:
            outcome, events = run(templates, tmp_path / name, backend, config)
            alive = [o for o in gc.get_objects() if isinstance(o, (AgentTeam, _SimCache))]
        finally:
            gc.enable()
        assert alive == []
        assert outcome.status == "error" and error in outcome.error
        assert outcome.llm_calls == sum(e["event"] == "llm_call" for e in events)
        assert events[-1]["event"] == "outcome"
        kinds = [e["event"] for e in events]
        fixes = [e["tag"] for e in events if "/samplefix/" in e.get("tag", "")]
        if "rtl_gen/samplefix/e0/c2/fix2" in failures:
            assert "candidate" not in kinds
            assert fixes == ["rtl_gen/samplefix/e0/c2/fix1"]
        else:
            assert kinds.count("candidate") == 3
            last_candidate = max(i for i, k in enumerate(kinds) if k == "candidate")
            assert kinds.index("selection") > last_candidate
            assert fixes == [f"rtl_gen/samplefix/e0/c2/fix{k}" for k in (1, 2, 3)]
        logs[name] = ((tmp_path / name / "events.jsonl").read_bytes(), outcome.llm_calls)
    assert logs["slow_fixes"] == logs["slow_trials"]


def test_too_few_early_samples_run_no_speculative_round(templates, tmp_path):
    """Only one of three samples settles at once, fewer than top-K = 2: round 1
    waits for every sample. Only that sample's trial, the lead, starts early."""
    config = RunConfig(pool_size=3, top_k=2, max_debug_rounds=1)
    backend = TimedScript([3, 4, 5], [0, 2, 2], slow_fixes)
    outcome, events = run(templates, tmp_path / "run", backend, config)
    assert outcome.status == "budget_exhausted"
    last_fix = max(end for tag, _, end in backend.times if "/samplefix/" in tag)
    early = [tag for tag, start, _ in backend.times if "debug/" in tag and start < last_fix]
    assert early in ([], ["debug/r1/c1"])
    assert not any(e["event"] == "speculation_discarded" for e in events)


def test_failed_straggler_during_speculation_ends_the_run_in_band(templates, tmp_path):
    """The straggler's backend fails after a speculative round started: the
    run ends as an error, every call made is logged, and nothing of the run
    outlives it."""

    class FailingFix(TimedScript):
        def reply(self, tag):
            if tag == "rtl_gen/samplefix/e0/c2/fix2":
                raise BackendError("no reply")
            return super().reply(tag)

    config = RunConfig(pool_size=3, top_k=2, max_debug_rounds=2)
    backend = FailingFix([3, 4, 5], [0, 0, 3], slow_fixes)
    gc.collect()
    gc.disable()
    try:
        outcome, events = run(templates, tmp_path / "run", backend, config)
        alive = [o for o in gc.get_objects() if isinstance(o, (AgentTeam, _SimCache))]
    finally:
        gc.enable()
    assert alive == []
    assert outcome.status == "error" and "no reply" in outcome.error
    assert outcome.llm_calls == 3 + 1 + 1 + 2  # steps 1-3, sampling, a fix, round 1
    assert outcome.llm_calls == sum(e["event"] == "llm_call" for e in events)
    assert events[-1]["event"] == "outcome"


def test_speculative_solve_stops_the_straggler(templates, tmp_path):
    """Sample 3 never compiles, and round 1's lead trial, which ran while it
    repaired, solves the run: its first failed fix is its last. Whether its
    fixes or the trials answer slowly, the run writes the same log and asks
    the same requests, and nothing of the run outlives it."""
    config = RunConfig(pool_size=4, top_k=2, max_debug_rounds=3)
    runs = {}
    for name, delay in (("slow_fixes", slow_fixes), ("slow_trials", slow_trials)):
        backend = TimedScript([3, 4, 5, 12], [0, 0, 0, NEVER], delay, SOLVING_TRIAL)
        gc.collect()
        gc.disable()
        try:
            outcome, events = run(templates, tmp_path / name, backend, config)
            alive = [o for o in gc.get_objects() if isinstance(o, (AgentTeam, _SimCache))]
        finally:
            gc.enable()
        assert alive == []
        assert outcome.status == "solved"
        fixes = [e["tag"] for e in events if "/samplefix/" in e.get("tag", "")]
        assert fixes == ["rtl_gen/samplefix/e0/c3/fix1"]
        straggler = next(e for e in events if e["event"] == "candidate" and e["id"] == 4)
        assert straggler["sentinel"] is True
        assert [e["round"] for e in events if e["event"] == "round_scores"] == [0, 1]
        keys = sorted(request_key(r) for r in backend.requests)
        runs[name] = ((tmp_path / name / "events.jsonl").read_bytes(), keys, outcome.llm_calls)
    assert runs["slow_fixes"] == runs["slow_trials"]
    assert runs["slow_fixes"][2] == 3 + 1 + 1 + 1  # steps 1-3, sampling, a fix, the lead


class SecondSlotSolves(TimedScript):
    """Round 1's trial of root 2 solves the run; the lead's, of root 1, does not."""

    def reply(self, tag):
        return [SOLVING_TRIAL] if tag == "debug/r1/c2" else super().reply(tag)


def test_speculative_solve_is_not_displaced(templates, tmp_path):
    """Sample 3 settles at its second fix with the best score while round 1
    on the provisional top-K solves the run, through a trial other than the
    lead's: the run ends on round 1, with no second selection and nothing
    discarded."""
    config = RunConfig(pool_size=4, top_k=2, max_debug_rounds=2)
    backend = SecondSlotSolves([3, 4, 5, 1], [0, 0, 0, 2], slow_fixes)
    outcome, events = run(templates, tmp_path / "run", backend, config)
    assert outcome.status == "solved"
    assert outcome.score_history[-1][0] == 1
    assert outcome.best.lineage == 2
    assert [e["ids"] for e in events if e["event"] == "selection"] == [[1, 2]]
    assert not any(e["event"] == "speculation_discarded" for e in events)
    assert any(e["event"] == "candidate" and e["id"] == 4 and e["score"] == 15 / 16 for e in events)
    assert outcome.llm_calls == 3 + 1 + 2 + 2


def test_more_waiting_stragglers_than_old_worker_count_do_not_starve(templates, tmp_path):
    """Ten of twelve samples need three fixes each, and each waits for step
    5's decision after every failed fix. The run still ends, with the same
    log whether the fixes or the trials answer slowly."""
    config = RunConfig(pool_size=12, top_k=2, max_debug_rounds=3)
    logs = {}
    for name, delay in (("slow_fixes", slow_fixes), ("slow_trials", slow_trials)):
        backend = TimedScript([1, 2, *range(4, 14)], [0, 0, *[3] * 10], delay)
        result = []
        worker = threading.Thread(
            target=lambda: result.append(run(templates, tmp_path / name, backend, config)),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), f"{name}: the run did not end"
        outcome, events = result[0]
        assert outcome.status == "budget_exhausted"
        assert outcome.llm_calls == 3 + 1 + 10 * 3 + 3 * 2
        logs[name] = (tmp_path / name / "events.jsonl").read_bytes()
    assert logs["slow_fixes"] == logs["slow_trials"]


def test_perfect_sample_stops_the_stragglers_with_fewer_than_k_settled(templates, tmp_path):
    """Only sample 0 settles at once, fewer than top-K = 2, but it scores 1:
    no round is needed, so the stragglers stop after their first fix."""
    config = RunConfig(pool_size=3, top_k=2, max_debug_rounds=1)
    backend = TimedScript([0, 4, 5], [0, NEVER, NEVER], slow_fixes)
    outcome, events = run(templates, tmp_path / "run", backend, config)
    assert outcome.status == "solved"
    fixes = [e["tag"] for e in events if "/samplefix/" in e.get("tag", "")]
    assert fixes == ["rtl_gen/samplefix/e0/c1/fix1", "rtl_gen/samplefix/e0/c2/fix1"]
    assert outcome.llm_calls == 3 + 1 + 2  # steps 1-3, sampling, two fixes


def test_a_straggler_waits_on_rounds_not_on_other_stragglers(templates, tmp_path):
    """Samples 2 and 3 never compile, and sample 3's fixes answer slowly.
    Once round 1 has ended without solving the run, sample 2 asks for its
    third fix without waiting for sample 3 to fail its second. The log is
    the one the run writes when the trials are the slow replies."""
    config = RunConfig(pool_size=4, top_k=2, max_debug_rounds=3)
    schedules = {
        "slow_straggler": lambda tag: 0.15 if "/samplefix/e0/c3/" in tag else 0.0,
        "slow_trials": slow_trials,
    }
    runs = {}
    for name, delay in schedules.items():
        backend = TimedScript([3, 4, 5, 12], [0, 0, NEVER, NEVER], delay)
        outcome, _ = run(templates, tmp_path / name, backend, config)
        assert outcome.status == "budget_exhausted"
        log = (tmp_path / name / "events.jsonl").read_bytes()
        runs[name] = (log, {tag: (start, end) for tag, start, end in backend.times})
    assert runs["slow_straggler"][0] == runs["slow_trials"][0]
    times = runs["slow_straggler"][1]
    assert times["rtl_gen/samplefix/e0/c2/fix3"][0] < times["rtl_gen/samplefix/e0/c3/fix2"][1]


# ---------------------------------------------------------------------------
# The lead: round 1's trial of the best sample that passed its probe, asked
# while the samples that failed it make their first fix.


@pytest.fixture
def leads(monkeypatch):
    """The lineage roots of the lead trials the runs' plans start."""
    roots = []
    feed = pipeline._Plan.feed

    def recording_feed(plan, *args):
        actions = feed(plan, *args)
        roots.extend(key[2] for key, _ in actions if key == plan.lead)
        return actions

    monkeypatch.setattr(pipeline._Plan, "feed", recording_feed)
    return roots


def debug_tags(backend):
    return sorted(r.tag for r in backend.requests if r.tag.startswith("debug/"))


def test_a_solving_lead_ends_the_run_without_other_trials_or_second_fixes(
    templates, tmp_path, leads
):
    """Sample 2 needs two fixes; the lead, sample 0's trial, solves the run.
    Round 1 asks for no other trial and sample 2 for no second fix, whether
    the fixes or the trials answer slowly; nothing of the run outlives it."""
    config = RunConfig(pool_size=3, top_k=2, max_debug_rounds=2)
    runs = {}
    for name, delay in (("slow_fixes", slow_fixes), ("slow_trials", slow_trials)):
        backend = TimedScript([3, 4, 12], [0, 0, 2], delay, SOLVING_TRIAL)
        gc.collect()
        gc.disable()
        try:
            outcome, events = run(templates, tmp_path / name, backend, config)
            alive = [o for o in gc.get_objects() if isinstance(o, (AgentTeam, _SimCache))]
        finally:
            gc.enable()
        assert alive == []
        assert outcome.status == "solved" and outcome.best.lineage == 1
        assert debug_tags(backend) == ["debug/r1/c1"]
        fixes = [e["tag"] for e in events if "/samplefix/" in e.get("tag", "")]
        assert fixes == ["rtl_gen/samplefix/e0/c2/fix1"]
        assert [e["lineage"] for e in events if e["event"] == "trial"] == [1]
        assert outcome.score_history == [(0, [13 / 16, 12 / 16]), (1, [1.0, 12 / 16])]
        keys = sorted(request_key(r) for r in backend.requests)
        runs[name] = ((tmp_path / name / "events.jsonl").read_bytes(), keys, outcome.llm_calls)
    assert runs["slow_fixes"] == runs["slow_trials"]
    assert runs["slow_fixes"][2] == 3 + 1 + 1 + 1  # steps 1-3, sampling, a fix, the lead
    assert leads == [1, 1]


def test_a_lead_that_does_not_solve_is_round_1s_trial_of_its_slot(templates, tmp_path, leads):
    """The lead starts before the straggler's first fix has returned, and
    round 1 uses it as root 1's trial: the run asks round 1 once per slot
    and writes the same log whichever replies are slow."""
    config = RunConfig(pool_size=4, top_k=2, max_debug_rounds=2)
    runs = {}
    for name, delay in (("slow_fixes", slow_fixes), ("slow_trials", slow_trials)):
        backend = TimedScript([3, 4, 5, 12], [0, 0, 0, 2], delay)
        outcome, events = run(templates, tmp_path / name, backend, config)
        assert outcome.status == "budget_exhausted"
        assert debug_tags(backend) == ["debug/r1/c1", "debug/r1/c2", "debug/r2/c1", "debug/r2/c2"]
        assert not any(e["event"] == "lead_discarded" for e in events)
        runs[name] = ((tmp_path / name / "events.jsonl").read_bytes(), outcome.llm_calls, backend)
    assert runs["slow_fixes"][:2] == runs["slow_trials"][:2]
    assert runs["slow_fixes"][1] == 3 + 1 + 2 + 2 * 2
    times = {tag: (start, end) for tag, start, end in runs["slow_fixes"][2].times}
    assert times["debug/r1/c1"][0] < times["rtl_gen/samplefix/e0/c3/fix1"][1]
    assert leads == [1, 1]


class FailingLead(TimedScript):
    def reply(self, tag):
        if tag == "debug/r1/c1":
            raise BackendError("lead lost")
        return super().reply(tag)


@pytest.mark.parametrize(
    "script, mismatches, fixes, status",
    [
        # Sample 1 settles at its first fix with the better score: top-1 is
        # root 2 while sample 2 still repairs.
        (TimedScript, [5, 1, 12], [0, 1, 2], "budget_exhausted"),
        # Sample 1 settles at its first fix with a perfect score: no round 1.
        (TimedScript, [5, 0, 12], [0, 1, 2], "solved"),
        # No straggler is left after the first fixes; top-1 is root 2.
        (TimedScript, [5, 1, 12], [0, 1, 1], "budget_exhausted"),
        # The discarded lead failed: the run ends as an error.
        (FailingLead, [5, 1, 12], [0, 1, 2], "error"),
    ],
)
def test_a_lead_whose_root_is_not_selected_is_discarded(
    templates, tmp_path, leads, script, mismatches, fixes, status
):
    """The lead, root 1's trial, is discarded: its events are logged, then one
    ``lead_discarded`` event. Its call counts, within the bound, and the run
    writes the same log whichever replies are slow."""
    config = RunConfig(pool_size=3, top_k=1, max_debug_rounds=1)
    logs = {}
    for name, delay in (("slow_fixes", slow_fixes), ("slow_trials", slow_trials)):
        backend = script(mismatches, fixes, delay)
        gc.collect()
        gc.disable()
        try:
            outcome, events = run(templates, tmp_path / name, backend, config)
            alive = [o for o in gc.get_objects() if isinstance(o, (AgentTeam, _SimCache))]
        finally:
            gc.enable()
        assert alive == []
        assert outcome.status == status
        discarded = [e for e in events if e["event"] == "lead_discarded"]
        assert discarded == [{"event": "lead_discarded", "id": 1}]
        assert events[-1]["event"] == "outcome"
        calls = [e["tag"] for e in events if e["event"] == "llm_call"]
        assert outcome.llm_calls == len(calls) <= max_llm_calls(config)
        held = events[events.index(discarded[0]) - 1]  # the lead's call, if it returned
        if script is FailingLead:
            assert "lead lost" in outcome.error and held["event"] != "llm_call"
        else:
            assert held["tag"] == "debug/r1/c1"
        assert all(e["lineage"] != 1 for e in events if e["event"] == "trial")
        logs[name] = (tmp_path / name / "events.jsonl").read_bytes()
    assert logs["slow_fixes"] == logs["slow_trials"]
    assert leads == [1, 1]


def test_a_lead_no_round_took_is_logged_when_a_sample_fails(templates, tmp_path, leads):
    """Too few samples settle for a speculative round, so the lead waits for
    round 1; then a straggler's second fix fails. The run ends as an error
    with the lead's call logged before the outcome, whichever replies are
    slow, and nothing of the run outlives it."""

    class FailingFix(TimedScript):
        def reply(self, tag):
            if tag == "rtl_gen/samplefix/e0/c1/fix2":
                raise BackendError("no reply")
            return super().reply(tag)

    config = RunConfig(pool_size=3, top_k=2, max_debug_rounds=1)
    logs = {}
    for name, delay in (("slow_fixes", slow_fixes), ("slow_trials", slow_trials)):
        backend = FailingFix([3, 4, 5], [0, 2, 2], delay)
        gc.collect()
        gc.disable()
        try:
            outcome, events = run(templates, tmp_path / name, backend, config)
            alive = [o for o in gc.get_objects() if isinstance(o, (AgentTeam, _SimCache))]
        finally:
            gc.enable()
        assert alive == []
        assert outcome.status == "error" and "no reply" in outcome.error
        calls = [e["tag"] for e in events if e["event"] == "llm_call"]
        assert "debug/r1/c1" in calls and outcome.llm_calls == len(calls)
        assert events[-1]["event"] == "outcome"
        logs[name] = (tmp_path / name / "events.jsonl").read_bytes()
    assert logs["slow_fixes"] == logs["slow_trials"]
    assert leads == [1, 1]


@pytest.mark.parametrize(
    "config, fixes",
    [
        (RunConfig(pool_size=3, top_k=2, max_debug_rounds=1, agent_mode="single"), [0, 0, 2]),
        (RunConfig(pool_size=3, top_k=2, max_debug_rounds=0), [0, 0, 2]),
        (RunConfig(pool_size=3, top_k=2, max_debug_rounds=1), [0, 0, 0]),
    ],
    ids=["single_mode", "no_round_budget", "no_straggler"],
)
def test_no_lead_without_a_straggler_a_round_budget_or_multi_mode(
    templates, tmp_path, leads, config, fixes
):
    """Single mode, a run without debug rounds, and a pool in which every
    sample passes its probe start no lead."""
    backend = TimedScript([3, 4, 5], fixes)
    outcome, events = run(templates, tmp_path / "run", backend, config)
    assert outcome.status == "budget_exhausted"
    assert leads == []
    assert not any(e["event"] == "lead_discarded" for e in events)
