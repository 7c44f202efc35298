import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from rtlforge import checkpoints, pipeline
from rtlforge.checkpoints import Score, extract_window, parse_trace, render_window
from rtlforge.gateway import MAX_COMPLETIONS, CassetteRecorder, ReplayBackend
from rtlforge.pipeline import (
    HIGH_TEMP,
    Candidate,
    EngineRuntime,
    LineageMismatch,
    RunConfig,
    WorkdirAllocator,
    max_llm_calls,
    run_pipeline,
    select_top_k,
    should_terminate,
    update_selection,
)
from rtlforge.simbridge import ToolchainSimRunner, ToolchainSyntaxChecker, VerilogSource

from fixtures import fenced, stub_counter_problem, stub_dut, stub_tb
from toolstub import ScriptedBackend, StubSimRunner, StubSyntaxChecker, synth_counter_trace


def make_pool(scores):
    return [
        Candidate(
            id=i,
            source=VerilogSource(kind="dut", top_module=f"c{i}", code=f"// c{i}\nmodule m; endmodule"),
            score=Score(value),
        )
        for i, value in enumerate(scores)
    ]


class TestSelectTopK:
    def test_tie_breaks_to_lower_id(self):
        pool = make_pool([0.2, 0.9, 0.9, 0.1])
        assert [c.id for c in select_top_k(pool, 2)] == [1, 2]

    def test_k_equals_pool(self):
        pool = make_pool([0.3, 0.1, 0.7])
        assert sorted(c.id for c in select_top_k(pool, 3)) == [0, 1, 2]

    def test_k_larger_than_pool_returns_all(self):
        pool = make_pool([0.3, 0.1])
        assert sorted(c.id for c in select_top_k(pool, 5)) == [0, 1]

    def test_matches_bruteforce_subset_maximization(self):
        rng = random.Random(2024)
        for _ in range(500):
            n = rng.randint(1, 12)
            k = rng.randint(1, min(5, n))
            exact = [Fraction(rng.randint(0, 10), 10) for _ in range(n)]
            pool = make_pool([float(f) for f in exact])
            chosen = [c.id for c in select_top_k(pool, k)]
            assert len(chosen) == k
            best_sum = max(
                sum(exact[i] for i in subset)
                for subset in itertools.combinations(range(n), k)
            )
            assert sum(exact[i] for i in chosen) == best_sum
            # with a unique optimum the exact subset must match
            optima = [
                set(subset)
                for subset in itertools.combinations(range(n), k)
                if sum(exact[i] for i in subset) == best_sum
            ]
            if len(optima) == 1:
                assert set(chosen) == optima[0]


def trial_for(original, value, trial_id=100):
    return Candidate(
        id=trial_id,
        source=original.source,
        score=Score(value),
        lineage=original.id,
        round=original.round + 1,
    )


class TestUpdateSelection:
    def test_trial_wins_when_better(self):
        pool = make_pool([0.6])
        original = pool[0]
        survivors = update_selection([original], [trial_for(original, 0.9)])
        assert survivors[0].score.value == 0.9

    def test_original_kept_when_trial_regresses(self):
        pool = make_pool([0.6])
        original = pool[0]
        survivors = update_selection([original], [trial_for(original, 0.4)])
        assert survivors[0] is original

    def test_trial_wins_ties(self):
        pool = make_pool([0.7])
        original = pool[0]
        trial = trial_for(original, 0.7)
        survivors = update_selection([original], [trial])
        assert survivors[0] is trial

    def test_lineage_mismatch(self):
        pool = make_pool([0.5, 0.5])
        stray = trial_for(pool[1], 0.9)
        with pytest.raises(LineageMismatch):
            update_selection([pool[0]], [stray])

    def test_none_keeps_original(self):
        pool = make_pool([0.5])
        assert update_selection([pool[0]], [None])[0] is pool[0]


class TestShouldTerminate:
    def test_solved_at_round_zero(self):
        done, reason = should_terminate(make_pool([0.4, 1.0]), 0, RunConfig())
        assert (done, reason) == (True, "solved")

    def test_budget_at_limit(self):
        config = RunConfig(max_debug_rounds=3)
        done, reason = should_terminate(make_pool([0.4]), 3, config)
        assert (done, reason) == (True, "budget")

    def test_continue_below_limit(self):
        config = RunConfig(max_debug_rounds=3)
        done, reason = should_terminate(make_pool([0.4]), 2, config)
        assert (done, reason) == (False, None)


class TestWorkdirAllocator:
    def test_flat_names_are_injective(self, tmp_path):
        allocator = WorkdirAllocator(tmp_path / "sim")
        labels = ["a/b", "a.b", "a%2Eb", "a/b.a0", "a/.b", "a./b", "a", "a.a0"]
        names = [allocator.acquire(label).name for label in labels]
        assert len(set(names)) == len(labels)
        assert all("/" not in name for name in names)

    def test_a_label_names_its_workdir(self, tmp_path):
        allocator = WorkdirAllocator(tmp_path / "sim")
        assert allocator.acquire("a/check0") == tmp_path / "sim" / "a.check0"
        assert not (tmp_path / "sim").exists()  # the allocator only names workdirs


class TestProbe:
    """The team's syntax probe on a DUT, over the subprocess stub toolchain."""

    @pytest.mark.parametrize("module", ["counter", "warning_led"])
    def test_error_naming_any_module_is_kept(self, tmp_path, stub_tool_config, module):
        probe = pipeline._SimCache(
            ToolchainSimRunner(stub_tool_config),
            ToolchainSyntaxChecker(stub_tool_config),
            WorkdirAllocator(tmp_path / "sim"),
        )
        probe.open(VerilogSource(kind="testbench", top_module="counter4_tb", code=stub_tb()))
        message = f"Unknown module type: {module}"
        code = f"//ERR:2:{message}\n" + stub_dut("score:0:16")
        diagnostics = probe(VerilogSource(kind="dut", top_module="counter4", code=code), "s0")
        assert [(d.file, d.line, d.message) for d in diagnostics] == [("dut.v", 2, message)]


class TestRunConfig:
    def test_pool_size_follows_profile(self):
        assert RunConfig(temp_profile="high").pool_size == 20
        assert RunConfig(temp_profile="low").pool_size == 1

    def test_top_k_clamped_to_pool(self):
        assert RunConfig(pool_size=2, top_k=3).top_k == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(pool_size=0)
        with pytest.raises(ValueError):
            RunConfig(temp_profile="warm")
        with pytest.raises(ValueError):
            RunConfig(max_debug_rounds=-1)
        with pytest.raises(ValueError):
            RunConfig(max_tokens=0)
        with pytest.raises(ValueError):
            RunConfig(sim_timeout=0)
        with pytest.raises(ValueError):
            RunConfig(sim_timeout=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("pool_size", 2.5), ("top_k", True), ("window_len", "8"), ("max_tokens", 1.0),
         ("fanout_sampling", "no"), ("fanout_sampling", 1), ("sim_timeout", float("nan")),
         ("sim_timeout", float("inf")), ("sim_timeout", True), ("seed", True), ("seed", 1.5),
         ("seed", "7")],
    )
    def test_mistyped_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, least",
        [("pool_size", 1), ("top_k", 1), ("window_len", 1), ("max_debug_rounds", 0),
         ("max_tb_regens", 0), ("max_tokens", 1)],
    )
    def test_each_count_is_an_int_at_least_its_least(self, field, least):
        for value in (True, float(least), least - 1):
            with pytest.raises(ValueError) as err:
                RunConfig(**{field: value})
            assert str(err.value) == f"{field} must be an int >= {least}, got {value!r}"
        assert getattr(RunConfig(**{field: least}), field) == least

    def test_pool_size_above_the_completion_cap_is_refused(self):
        assert RunConfig(pool_size=MAX_COMPLETIONS).pool_size == MAX_COMPLETIONS
        with pytest.raises(ValueError, match="pool_size"):
            RunConfig(pool_size=MAX_COMPLETIONS + 1)

    def test_fractional_sim_timeout_is_accepted(self):
        assert RunConfig(sim_timeout=0.5).sim_timeout == 0.5

    def test_echo_carries_profile_numbers(self):
        echo = RunConfig(temp_profile="low").echo()
        assert echo["temperature"] == 0.0 and echo["top_p"] == 0.01


# ---------------------------------------------------------------------------
# Full pipeline runs over the in-process stub toolchain


GOOD_TB = fenced(stub_tb())
CLEAN_RTL = fenced(stub_dut("counter16"))
GLITCH_RTL = fenced(stub_dut("counter16:glitch@9"))
RTL_FAULTY = "Expected values follow the spec.\nVERDICT: rtl_faulty"
TB_FAULTY = "The bench misdrives rst.\nVERDICT: testbench_faulty"


def run(script, config=None, make_runtime=None, problem=None):
    runtime, backend = make_runtime(script)
    outcome = run_pipeline(
        problem or stub_counter_problem(), config or RunConfig(), runtime
    )
    return outcome, backend, runtime


def events_of(runtime):
    path = runtime.transcript_dir / "events.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestEarlyExit:
    def test_solved_at_step_two(self, make_runtime):
        script = {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL}
        outcome, backend, runtime = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"
        assert outcome.best.score.value == 1.0
        assert outcome.llm_calls == 2  # testbench + RTL, nothing else
        assert outcome.score_history == [(0, [1.0])]
        steps = [e["step"] for e in events_of(runtime) if e["event"] == "step"]
        assert 4 not in steps  # pool never created
        assert (runtime.transcript_dir / "best.v").exists()


class TestJudgeRouting:
    def test_faulty_testbench_regenerated_once_then_solved(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": TB_FAULTY,
            "testbench_gen/gen1": fenced(stub_tb(name="counter4_tb2")),
            "rtl_gen/init1": CLEAN_RTL,
        }
        outcome, backend, runtime = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"
        regen_events = [e for e in events_of(runtime) if e["event"] == "tb_regen"]
        assert len(regen_events) == 1
        assert outcome.testbench.top_module == "counter4_tb2"
        # regeneration prompt carries the judge's rationale
        regen_request = [r for r in backend.requests if r.tag == "testbench_gen/gen1"][0]
        assert "misdrives rst" in regen_request.messages[-1].content

    def test_regen_budget_exhausts(self, make_runtime):
        script = {}
        for epoch in range(3):
            script[f"testbench_gen/gen{epoch}"] = GOOD_TB
            script[f"rtl_gen/init{epoch}"] = GLITCH_RTL
            script[f"judge/e{epoch}"] = TB_FAULTY
        outcome, backend, runtime = run(
            script, config=RunConfig(max_tb_regens=2), make_runtime=make_runtime
        )
        assert outcome.status == "tb_regen_exhausted"
        regen_events = [e for e in events_of(runtime) if e["event"] == "tb_regen"]
        assert len(regen_events) == 3  # third attempt hits the bound
        assert len([r for r in backend.requests if r.tag.startswith("testbench_gen")]) == 3
        assert outcome.best is not None  # best effort still reported

    # A testbench reply with no fence, one with no module, and one whose
    # syntax repair fails: (replies, exception, its message, calls made).
    UNDELIVERABLE_TB = {
        "no_fence": (
            {"testbench_gen/gen0": "sorry, no code"},
            "NoCodeBlock",
            "reply contains no fenced code block",
            1,
        ),
        "no_module": (
            {"testbench_gen/gen0": fenced("assign y = 1;\n")},
            "NoCodeBlock",
            "source declares no module",
            1,
        ),
        "unfixable": (
            {
                "testbench_gen/gen0": fenced(stub_tb() + "//ERR:3:bad port list\n"),
                **{
                    f"testbench_gen/gen0/fix{k}": fenced(stub_tb() + f"//ERR:{k}:bad\n")
                    for k in range(1, 6)
                },
            },
            "SyntaxUnfixable",
            "syntax not fixed after 5 repair iterations: tb.v:5: error: bad",
            6,
        ),
    }

    @pytest.mark.parametrize("case", list(UNDELIVERABLE_TB))
    def test_undeliverable_testbench_is_regenerated(self, make_runtime, case):
        replies, reason, feedback, calls = self.UNDELIVERABLE_TB[case]
        script = {**replies, "testbench_gen/gen1": GOOD_TB, "rtl_gen/init1": CLEAN_RTL}
        outcome, backend, runtime = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"
        assert outcome.llm_calls == len(backend.requests) == calls + 2
        events = events_of(runtime)
        assert {"event": "route", "reason": reason} in events
        assert {"event": "tb_regen", "count": 1, "epoch": 0} in events
        assert not any(e.get("label") == "initial_e0" for e in events)  # no step 2 at epoch 0
        regen = next(r for r in backend.requests if r.tag == "testbench_gen/gen1")
        assert feedback in regen.messages[-1].content

    @pytest.mark.parametrize("case", list(UNDELIVERABLE_TB))
    def test_undeliverable_testbench_exhausts_the_regen_budget(self, make_runtime, case):
        replies, _, _, calls = self.UNDELIVERABLE_TB[case]
        config = RunConfig(max_tb_regens=0)
        outcome, backend, runtime = run(replies, config=config, make_runtime=make_runtime)
        assert outcome.status == "tb_regen_exhausted"
        assert outcome.best is None and outcome.score_history == []
        assert outcome.llm_calls == len(backend.requests) == calls
        events = events_of(runtime)
        assert sum(e["event"] == "llm_call" for e in events) == calls
        assert events[-1] == {
            "event": "outcome", "status": "tb_regen_exhausted", "best_id": None, "best_score": None
        }

    def test_judge_excerpt_follows_window_len(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": TB_FAULTY,
        }
        config = RunConfig(window_len=3, max_tb_regens=0)
        _, backend, _ = run(script, config=config, make_runtime=make_runtime)
        prompt = next(r for r in backend.requests if r.tag == "judge/e0").messages[-1].content
        trace = parse_trace(synth_counter_trace(glitch_at=9))
        assert render_window(extract_window(trace, 9, 3)) in prompt
        assert render_window(extract_window(trace, 9, 8)) not in prompt

    def test_pool_invalidated_event_on_regen(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": TB_FAULTY,
            "testbench_gen/gen1": GOOD_TB,
            "rtl_gen/init1": CLEAN_RTL,
        }
        _, _, runtime = run(script, make_runtime=make_runtime)
        assert any(e["event"] == "pool_invalidated" for e in events_of(runtime))

    def test_trace_protocol_violation_triggers_regen_without_judge(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": fenced(stub_dut("nochecks")),
            "testbench_gen/gen1": GOOD_TB,
            "rtl_gen/init1": CLEAN_RTL,
        }
        outcome, backend, runtime = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"
        assert not any(r.tag.startswith("judge") for r in backend.requests)
        assert any(e["event"] == "tb_regen" for e in events_of(runtime))

    def test_bad_summary_triggers_regen(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": fenced(stub_dut("badsummary")),
            "testbench_gen/gen1": GOOD_TB,
            "rtl_gen/init1": CLEAN_RTL,
        }
        outcome, _, _ = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"

    def test_unreadable_summary_integer_triggers_regen(self, make_runtime):
        # A SUMMARY integer past int()'s digit limit once left run_pipeline
        # as a ValueError traceback.
        tb = stub_tb(emits={"huge": "CHECK time=0 in:a=0 dut:y=1 exp:y=1 status=MATCH"})
        tb += f"//TB_EMIT:huge|SUMMARY total={'1' * 5000} mismatches=0 first_mismatch=none\n"
        script = {
            "testbench_gen/gen0": fenced(tb),
            "rtl_gen/init0": fenced(stub_dut("huge")),
            "testbench_gen/gen1": GOOD_TB,
            "rtl_gen/init1": CLEAN_RTL,
        }
        outcome, backend, runtime = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"
        assert not any(r.tag.startswith("judge") for r in backend.requests)
        assert any(e["event"] == "tb_regen" for e in events_of(runtime))

    def test_timeout_triggers_regen(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": fenced(stub_dut("hang")),
            "testbench_gen/gen1": GOOD_TB,
            "rtl_gen/init1": CLEAN_RTL,
        }
        outcome, _, _ = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"

    def test_output_limit_triggers_regen(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": fenced(stub_dut("flood")),
            "testbench_gen/gen1": GOOD_TB,
            "rtl_gen/init1": CLEAN_RTL,
        }
        outcome, backend, runtime = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"
        assert not any(r.tag.startswith("judge") for r in backend.requests)
        assert {"event": "route", "reason": "output_limit"} in events_of(runtime)

    def test_a_sample_past_the_output_cap_scores_0(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": [
                fenced(stub_dut("flood", name="c0")),
                fenced(stub_dut("score:1:16", name="c1")),
            ],
        }
        config = RunConfig(pool_size=2, top_k=2, max_debug_rounds=0)
        outcome, _, _ = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "budget_exhausted"
        assert outcome.score_history == [(0, [15 / 16, 0.0])]

    def test_crash_feedback_carries_the_simulator_diagnostics(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": fenced(stub_dut("crash")),
            "testbench_gen/gen1": GOOD_TB,
            "rtl_gen/init1": CLEAN_RTL,
        }
        outcome, backend, runtime = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"
        assert {"event": "route", "reason": "runtime_failed"} in events_of(runtime)
        regen = next(r for r in backend.requests if r.tag == "testbench_gen/gen1")
        feedback = "(runtime_failed): <toolchain>: error: simulator crashed"
        assert feedback in regen.messages[-1].content

    def test_tb_side_compile_failure_regenerates(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": fenced(stub_dut("jointfail_tb")),
            "testbench_gen/gen1": GOOD_TB,
            "rtl_gen/init1": CLEAN_RTL,
        }
        outcome, backend, _ = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"
        assert not any(r.tag.startswith("judge") for r in backend.requests)

    def test_dut_side_compile_failure_is_repaired(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": fenced(stub_dut("jointfail_dut")),
            "rtl_gen/init0/fix1": CLEAN_RTL,
        }
        outcome, backend, runtime = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"
        assert [r.tag for r in backend.requests] == [
            "testbench_gen/gen0", "rtl_gen/init0", "rtl_gen/init0/fix1"
        ]
        fix_prompt = backend.requests[-1].messages[-1].content
        assert "dut.v:2: error: unknown module" in fix_prompt
        assert runtime.syntax_checker.calls == 1  # the testbench only
        assert runtime.sim_runner.calls == 2  # the failed joint run and the repaired DUT's

    def test_unattributed_compile_failure_proceeds_to_sampling(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": fenced(stub_dut("jointfail_nofile")),
            "rtl_gen/sample/e0": [CLEAN_RTL, CLEAN_RTL.replace("counter4", "counter4b")],
        }
        config = RunConfig(pool_size=2, top_k=1)
        outcome, backend, runtime = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "solved"
        events = events_of(runtime)
        assert {"event": "route", "reason": "compile_failed", "testbench_implicated": False} in events
        assert 4 in [e["step"] for e in events if e["event"] == "step"]
        assert not any(r.tag.startswith(("judge", "rtl_gen/init0/fix")) for r in backend.requests)


    def test_unrepairable_initial_rtl_proceeds_to_sampling(self, make_runtime):
        broken = fenced(stub_dut("jointfail_dut"))
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": broken,
            **{f"rtl_gen/init0/fix{k}": broken for k in range(1, 6)},
            "rtl_gen/sample/e0": [CLEAN_RTL, CLEAN_RTL.replace("counter4", "counter4b")],
        }
        config = RunConfig(pool_size=2, top_k=1)
        outcome, backend, runtime = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "solved"
        events = events_of(runtime)
        sim = {"event": "sim", "label": "initial_e0", "status": "sentinel", "score": 0.0}
        assert sim in events
        assert {"event": "route", "reason": "compile_failed", "testbench_implicated": False} in events
        assert 4 in [e["step"] for e in events if e["event"] == "step"]
        assert not any(e["event"] == "tb_regen" for e in events)
        assert not any(r.tag.startswith(("judge", "testbench_gen/gen1")) for r in backend.requests)
        assert outcome.llm_calls == len(backend.requests) == 8
        assert outcome.llm_calls <= max_llm_calls(config)

    @pytest.mark.parametrize(
        "reply",
        ["sorry, no code", fenced("assign y = 1;\n")],
        ids=["no_fence", "no_module"],
    )
    def test_initial_rtl_without_usable_source_proceeds_to_sampling(
        self, make_runtime, reply
    ):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": reply,
            "rtl_gen/sample/e0": [CLEAN_RTL],
        }
        config = RunConfig(pool_size=1, top_k=1)
        outcome, backend, runtime = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "solved"
        sim = {"event": "sim", "label": "initial_e0", "status": "sentinel", "score": 0.0}
        assert sim in events_of(runtime)
        assert [r.tag for r in backend.requests] == [
            "testbench_gen/gen0", "rtl_gen/init0", "rtl_gen/sample/e0"
        ]
        assert outcome.llm_calls == 3


class TestSamplingAndDebug:
    @pytest.mark.parametrize("fanout", [False, True], ids=["multi", "fanout"])
    def test_sampling_request_carries_the_configs_params(self, make_runtime, fanout):
        """Step 4 asks at the run's profile for ``pool_size`` completions,
        fan-out as that many one-completion calls, sub-call i with the run's
        seed + i; every other call asks for one at the low-temperature
        profile; all with the run's cap and seed."""
        samples = [CLEAN_RTL, CLEAN_RTL.replace("counter4", "counter4b")]
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": samples,
            **{f"rtl_gen/sample/e0.{i}": [text] for i, text in enumerate(samples)},
        }
        config = RunConfig(pool_size=2, top_k=1, seed=7, max_tokens=123, fanout_sampling=fanout)
        outcome, backend, _ = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "solved"
        n = 1 if fanout else config.pool_size  # a fan-out sub-call asks for one
        tags = [f"rtl_gen/sample/e0.{i}" for i in range(2)] if fanout else ["rtl_gen/sample/e0"]
        sampling = {r.tag: r.params for r in backend.requests if r.tag in tags}
        assert [sampling[tag] for tag in tags] == [
            dataclasses.replace(config.params(HIGH_TEMP, n), seed=7 + i) for i in range(len(tags))
        ]
        assert sampling[tags[0]].seed == 7 and sampling[tags[0]].max_tokens == 123
        others = [r.params for r in backend.requests if r.tag not in tags]
        assert others == [config.params()] * 3

    def test_hand_simulated_pool_scenario(self, make_runtime):
        """c=4 scoring {0.5, 0.75, 0.75, 0.25}, K=2; round 1 fixes one 0.75
        lineage and regresses the other. Hand-derived expectations:
        selected ids [2, 3], history [(0, [0.75, 0.75]), (1, [1.0, 0.75])],
        best is the trial whose lineage is candidate 2."""
        samples = [
            fenced(stub_dut("score:8:16", name="cand0")),   # 0.5   -> id 1
            fenced(stub_dut("score:4:16", name="cand1")),   # 0.75  -> id 2
            fenced(stub_dut("score:4:16", name="cand2")),   # 0.75  -> id 3
            fenced(stub_dut("score:12:16", name="cand3")),  # 0.25  -> id 4
        ]
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": samples,
            "debug/r1/c2": fenced(stub_dut("score:0:16", name="fixed")),
            "debug/r1/c3": fenced(stub_dut("score:12:16", name="worse")),
        }
        config = RunConfig(pool_size=4, top_k=2, max_debug_rounds=5)
        outcome, backend, runtime = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "solved"
        assert outcome.score_history == [(0, [0.75, 0.75]), (1, [1.0, 0.75])]
        assert outcome.best.score.value == 1.0
        assert outcome.best.lineage == 2  # points at a 0.75 candidate
        assert outcome.best.source.top_module == "fixed"
        selection = [e for e in events_of(runtime) if e["event"] == "selection"][0]
        assert selection["ids"] == [2, 3]

    def test_solved_directly_from_pool(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": [
                fenced(stub_dut("score:2:16", name="meh")),
                fenced(stub_dut("score:0:16", name="perfect")),
            ],
        }
        config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=5)
        outcome, backend, _ = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "solved"
        assert outcome.best.source.top_module == "perfect"
        assert not any(r.tag.startswith("debug") for r in backend.requests)

    def test_zero_debug_rounds_budget(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": [fenced(stub_dut("score:2:16"))],
        }
        config = RunConfig(pool_size=1, top_k=1, max_debug_rounds=0)
        outcome, backend, _ = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "budget_exhausted"
        assert not any(r.tag.startswith("debug") for r in backend.requests)
        assert outcome.best.score.value == 0.875

    def test_sentinel_candidates_skip_trials(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": ["no code at all", fenced(stub_dut("score:4:16"))],
            "debug/r1/c2": fenced(stub_dut("score:0:16", name="fixed")),
        }
        config = RunConfig(pool_size=2, top_k=2, max_debug_rounds=2)
        outcome, _, runtime = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "solved"
        skipped = [e for e in events_of(runtime) if e["event"] == "trial_skipped"]
        assert len(skipped) == 1

    def test_debug_reply_without_a_module_fails_the_trial(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": [fenced(stub_dut("score:2:16"))],
            "debug/r1/c1": fenced("assign y = 1;\n"),
        }
        config = RunConfig(pool_size=1, top_k=1, max_debug_rounds=1)
        outcome, _, runtime = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "budget_exhausted"
        assert outcome.score_history == [(0, [0.875]), (1, [0.875])]
        failed = {"event": "trial_failed", "round": 1, "id": 1, "reason": "NoCodeBlock"}
        assert failed in events_of(runtime)

    def test_duplicate_sources_simulated_once(self, make_runtime):
        same = fenced(stub_dut("score:4:16", name="dup"))
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": [same, same, same],
            "debug/r1/c1": fenced(stub_dut("score:0:16", name="fixed")),
        }
        config = RunConfig(pool_size=3, top_k=1, max_debug_rounds=2)
        runtime, backend = make_runtime(script)
        outcome = run_pipeline(stub_counter_problem(), config, runtime)
        assert outcome.status == "solved"
        sim_calls = runtime.sim_runner.calls
        # initial + one shared sample sim + one trial sim
        assert sim_calls == 3

    def test_epoch_traces_share_records_and_regeneration_empties_the_memo(
        self, make_runtime, monkeypatch
    ):
        parses = []  # (memo, its size before the parse, trace)
        parse = checkpoints.parse_trace

        def spy(stdout, lines=None):
            size = len(lines)
            trace = parse(stdout, lines)
            parses.append((lines, size, trace))
            return trace

        monkeypatch.setattr(checkpoints, "parse_trace", spy)
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": TB_FAULTY,
            "testbench_gen/gen1": GOOD_TB,
            "rtl_gen/init1": GLITCH_RTL,
            "judge/e1": RTL_FAULTY,
            "rtl_gen/sample/e1": [
                fenced(stub_dut("counter16:glitch@3", name="a")),
                fenced(stub_dut("counter16:glitch@12", name="b")),
            ],
        }
        config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=0)
        outcome, _, _ = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "budget_exhausted"
        (memo0, size0, _), (memo1, size1, _), (_, _, a), (_, _, b) = parses
        # The regenerated testbench starts an epoch with an empty memo, though
        # its initial RTL prints the very lines the first epoch parsed.
        assert memo1 is not memo0 and size0 == size1 == 0
        assert all(memo is memo1 for memo, _, _ in parses[1:])
        shared = [t for t in range(16) if t not in (3, 12)]
        assert all(a.records[t] is b.records[t] for t in shared)
        assert a.records[3] is not b.records[3] and a.records[12] is not b.records[12]
        assert (a.mismatches, b.mismatches) == (1, 1)


class TestCallBudget:
    def test_llm_calls_bounded_by_closed_form(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": [
                fenced(stub_dut(f"score:{i + 1}:16", name=f"cand{i}")) for i in range(4)
            ],
        }
        for round_index in range(1, 11):
            for root in (1, 2):
                script[f"debug/r{round_index}/c{root}"] = fenced(
                    stub_dut("score:1:16", name=f"t{round_index}_{root}")
                )
        config = RunConfig(pool_size=4, top_k=2, max_debug_rounds=10)
        outcome, backend, _ = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "budget_exhausted"
        assert outcome.llm_calls == len(backend.requests)
        assert outcome.llm_calls <= max_llm_calls(config)

    @pytest.mark.parametrize("mode", ["multi", "single"])
    def test_worst_case_reaches_the_bound_exactly(self, make_runtime, mode):
        """Every testbench, initial RTL and sample compiles at its fifth fix,
        and the judge regenerates the testbench until the last epoch; in
        multi mode each regeneration discards the sampling request sent
        with the judge's."""
        config = RunConfig(pool_size=1, max_debug_rounds=0, agent_mode=mode)
        regens = config.max_tb_regens
        tb_broken = fenced(stub_tb() + "//ERR:3:bad port list\n")
        rtl_broken = fenced(stub_dut("counter16:glitch@9", err_line=3))
        script = {}
        for parent, broken, clean in (
            *[(f"testbench_gen/gen{e}", tb_broken, GOOD_TB) for e in range(regens + 1)],
            *[(f"rtl_gen/init{e}", rtl_broken, GLITCH_RTL) for e in range(regens + 1)],
            (f"rtl_gen/samplefix/e{regens}/c0", rtl_broken, GLITCH_RTL),
        ):
            script[parent] = broken
            script.update({f"{parent}/fix{k}": broken for k in range(1, 5)})
            script[f"{parent}/fix5"] = clean
        for epoch in range(regens + 1):
            script[f"judge/e{epoch}"] = TB_FAULTY if epoch < regens else RTL_FAULTY
            script[f"rtl_gen/sample/e{epoch}"] = rtl_broken
        outcome, backend, runtime = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "budget_exhausted"
        discarded = regens if mode == "multi" else 0
        assert outcome.llm_calls == len(backend.requests) == (1 + regens) * 13 + discarded + 6
        assert outcome.llm_calls == max_llm_calls(config)
        assert sum(e["event"] == "sampling_discarded" for e in events_of(runtime)) == discarded

    def test_error_outcome_counts_the_calls_made(self, make_runtime):
        broken = fenced(stub_dut("jointfail_dut"))
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": broken,
            **{f"rtl_gen/init0/fix{k}": broken for k in range(1, 6)},
        }  # no sampling reply: the run fails after seven calls
        outcome, backend, runtime = run(script, make_runtime=make_runtime)
        assert outcome.status == "error"
        assert outcome.llm_calls == 7
        llm_events = [e for e in events_of(runtime) if e["event"] == "llm_call"]
        assert len(llm_events) == 7

    def test_early_exit_exactly_two_calls(self, make_runtime):
        script = {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL}
        outcome, backend, _ = run(script, make_runtime=make_runtime)
        assert len(backend.requests) == 2
        assert outcome.llm_calls == 2


class TestMonotonicity:
    def _scenario(self, rng):
        c = rng.randint(2, 6)
        k = rng.randint(1, min(3, c))
        rounds = rng.randint(0, 4)
        sample_scores = [rng.randint(0, 10) for _ in range(c)]  # mismatches of 10
        trial_scores = {}  # (round, root_id) -> mismatches
        return c, k, rounds, sample_scores, trial_scores

    def test_selected_scores_never_regress(self, make_runtime):
        rng = random.Random(777)
        for case in range(40):
            c, k, rounds, sample_m, trial_m = self._scenario(rng)
            script = {
                "testbench_gen/gen0": GOOD_TB,
                "rtl_gen/init0": GLITCH_RTL,
                "judge/e0": RTL_FAULTY,
                "rtl_gen/sample/e0": [
                    fenced(stub_dut(f"score:{m}:10", name=f"cand{i}_{m}"))
                    for i, m in enumerate(sample_m)
                ],
            }
            # ids: initial=0, samples 1..c
            order = sorted(range(c), key=lambda i: (sample_m[i], i))
            roots = [i + 1 for i in order[:k]]
            for round_index in range(1, rounds + 1):
                for root in roots:
                    m = rng.randint(0, 10)  # regress, stagnate, improve
                    trial_m[(round_index, root)] = m
                    script[f"debug/r{round_index}/c{root}"] = fenced(
                        stub_dut(f"score:{m}:10", name=f"t{round_index}_{root}_{m}")
                    )
            config = RunConfig(pool_size=c, top_k=k, max_debug_rounds=rounds)
            runtime, _ = make_runtime(script, subdir=f"mono{case}")
            outcome = run_pipeline(stub_counter_problem(), config, runtime)

            # independent oracle: per-slot running max of scripted scores
            expected = [[1 - sample_m[i] / 10 for i in order[:k]]]
            halted = any(v == 1.0 for v in expected[0])
            for round_index in range(1, rounds + 1):
                if halted:
                    break
                prev = expected[-1]
                nxt = []
                for j, root in enumerate(roots):
                    trial = 1 - trial_m[(round_index, root)] / 10
                    nxt.append(max(prev[j], trial))
                expected.append(nxt)
                halted = any(v == 1.0 for v in nxt)

            got = [scores for _, scores in outcome.score_history]
            assert got == [pytest.approx(e) for e in expected]
            for j in range(k):
                series = [scores[j] for scores in got]
                assert series == sorted(series)  # non-decreasing per lineage
            # halt exactness: solved iff a 1.0 appeared, else ran all rounds
            if any(v == 1.0 for v in got[-1]):
                assert outcome.status == "solved"
            else:
                assert outcome.status == "budget_exhausted"
                assert len(got) - 1 == rounds


class _OpenedLogs(pipeline.EventLog):
    """An event log that keeps every instance and checks, after each emit,
    that the event's line is already in the file."""

    logs: list = []

    def __init__(self, path):
        super().__init__(path)
        self.logs.append(self)

    def emit(self, event):
        super().emit(event)
        lines = self.path.read_text(encoding="utf-8").splitlines()
        assert json.dumps(event, sort_keys=True) in lines


class TestTranscriptFiles:
    @pytest.fixture
    def logs(self, monkeypatch):
        monkeypatch.setattr(pipeline, "EventLog", _OpenedLogs)
        monkeypatch.setattr(_OpenedLogs, "logs", [])
        return _OpenedLogs.logs

    def test_event_log_closed_after_solved_run(self, make_runtime, logs):
        script = {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL}
        outcome, _, runtime = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"
        assert len(logs) == 1 and logs[0]._fh.closed
        assert events_of(runtime)[-1]["event"] == "outcome"

    def test_event_log_closed_after_error_run(self, make_runtime, logs):
        outcome, _, runtime = run({}, make_runtime=make_runtime)  # no reply for any tag
        assert outcome.status == "error"
        assert len(logs) == 1 and logs[0]._fh.closed
        assert events_of(runtime)[-1] == {
            "event": "outcome", "status": "error", "error": outcome.error
        }

    def test_each_event_readable_once_emitted(self, make_runtime, logs):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": [fenced(stub_dut(f"score:{m}:16", name=f"c{m}")) for m in (1, 2)],
            "debug/r1/c1": fenced(stub_dut("score:0:16", name="fixed")),
        }
        config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=2)
        outcome, _, runtime = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "solved"
        assert len(events_of(runtime)) > 10  # every one checked by _OpenedLogs.emit

    def test_in_process_run_creates_no_workdir(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": [fenced(stub_dut(f"score:{m}:16", name=f"c{m}")) for m in (1, 2)],
            "debug/r1/c1": fenced(stub_dut("score:1:16", name="same")),
        }
        config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=1)
        outcome, _, runtime = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "budget_exhausted"
        assert sorted(p.name for p in runtime.transcript_dir.iterdir()) == [
            "best.v", "events.jsonl"
        ]

    def test_subprocess_toolchain_gets_fresh_flat_workdirs(
        self, tmp_path, templates, stub_tool_config
    ):
        script = {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL}
        runtime = EngineRuntime(
            backend=ScriptedBackend(script),
            sim_runner=ToolchainSimRunner(stub_tool_config),
            syntax_checker=ToolchainSyntaxChecker(stub_tool_config),
            templates=templates,
            transcript_dir=tmp_path / "run",
        )
        assert run_pipeline(stub_counter_problem(), RunConfig(), runtime).status == "solved"
        sim = tmp_path / "run" / "sim"
        workdirs = {p.name: sorted(f.name for f in p.iterdir()) for p in sim.iterdir()}
        assert workdirs == {
            "testbench_gen.gen0.check0": ["sim.vvp", "tb.v"],
            "rtl_gen.init0.check0": ["dut.v", "sim.vvp", "tb.v"],
        }

    def test_a_rerun_leaves_only_its_own_workdirs(self, tmp_path, templates, stub_tool_config):
        """Two runs into one transcript: the second removes the first's
        sim/ tree, and its workdirs are named by their labels alone."""

        def rerun(script):
            runtime = EngineRuntime(
                backend=ScriptedBackend(script),
                sim_runner=ToolchainSimRunner(stub_tool_config),
                syntax_checker=ToolchainSyntaxChecker(stub_tool_config),
                templates=templates,
                transcript_dir=tmp_path / "run",
            )
            return run_pipeline(stub_counter_problem(), RunConfig(pool_size=2), runtime)

        first = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": fenced(stub_dut("crash")),
            "testbench_gen/gen1": GOOD_TB,
            "rtl_gen/init1": CLEAN_RTL,
        }
        assert rerun(first).status == "solved"
        sim = tmp_path / "run" / "sim"
        assert "rtl_gen.init1.check0" in {p.name for p in sim.iterdir()}
        (sim / "stray.txt").write_text("left by hand\n")
        assert rerun({"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL}).status == "solved"
        assert sorted(p.name for p in sim.iterdir()) == [
            "rtl_gen.init0.check0", "testbench_gen.gen0.check0"
        ]

    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_a_sim_that_is_no_directory_is_refused(self, tmp_path, make_runtime, kind):
        """A sim/ that cannot be removed as a tree raises OSError before the
        first request, and nothing it points at is touched."""
        runtime, backend = make_runtime({"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL})
        runtime.transcript_dir.mkdir()
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "dut.v").write_text("// kept\n")
        sim = runtime.transcript_dir / "sim"
        if kind == "file":
            sim.write_text("not a directory\n")
        else:
            sim.symlink_to(kept, target_is_directory=True)
        with pytest.raises(OSError):
            run_pipeline(stub_counter_problem(), RunConfig(), runtime)
        assert backend.requests == []
        assert (kept / "dut.v").read_text() == "// kept\n"


class TestDeterministicReplay:
    def test_record_then_replay_identical(self, make_runtime, tmp_path, templates):
        samples = [
            fenced(stub_dut("score:8:16", name="cand0")),
            fenced(stub_dut("score:4:16", name="cand1")),
        ]
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": RTL_FAULTY,
            "rtl_gen/sample/e0": samples,
            "debug/r1/c2": fenced(stub_dut("score:0:16", name="fixed")),
        }
        config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=3)
        cassette = tmp_path / "run.jsonl"

        recorder = CassetteRecorder(ScriptedBackend(script), cassette)
        recorded_runtime = EngineRuntime(
            backend=recorder,
            sim_runner=StubSimRunner(),
            syntax_checker=StubSyntaxChecker(),
            templates=templates,
            transcript_dir=tmp_path / "rec",
        )
        recorded = run_pipeline(stub_counter_problem(), config, recorded_runtime)
        recorder.close()

        def replay(subdir):
            runtime = EngineRuntime(
                backend=ReplayBackend(cassette),
                sim_runner=StubSimRunner(),
                syntax_checker=StubSyntaxChecker(),
                templates=templates,
                transcript_dir=tmp_path / subdir,
            )
            return run_pipeline(stub_counter_problem(), config, runtime)

        first, second = replay("r1"), replay("r2")
        for outcome in (first, second):
            assert outcome.status == recorded.status == "solved"
            assert outcome.score_history == recorded.score_history
            assert outcome.best.source.code == recorded.best.source.code
        events1 = (tmp_path / "r1" / "events.jsonl").read_bytes()
        events2 = (tmp_path / "r2" / "events.jsonl").read_bytes()
        assert events1 == events2


class TestModes:
    def test_single_mode_shares_conversation_id(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": CLEAN_RTL,
        }
        config = RunConfig(agent_mode="single")
        outcome, _, runtime = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "solved"
        convs = {e["conv"] for e in events_of(runtime) if e["event"] == "llm_call"}
        assert convs == {"conv-shared"}

    def test_vanilla_passing_golden(self, make_runtime):
        script = {"rtl_gen/vanilla": CLEAN_RTL}
        config = RunConfig(agent_mode="vanilla")
        problem = stub_counter_problem(with_golden=True)
        outcome, backend, _ = run(
            script, config=config, make_runtime=make_runtime, problem=problem
        )
        assert outcome.status == "solved"
        assert outcome.best.score.value == 1.0
        assert outcome.llm_calls == 1
        assert outcome.testbench is None

    def test_vanilla_failing_golden(self, make_runtime):
        script = {"rtl_gen/vanilla": GLITCH_RTL}
        config = RunConfig(agent_mode="vanilla")
        problem = stub_counter_problem(with_golden=True)
        outcome, _, _ = run(
            script, config=config, make_runtime=make_runtime, problem=problem
        )
        assert outcome.status == "budget_exhausted"
        assert outcome.best.score.value == 0.0

    def test_error_outcome_on_replay_miss(self, make_runtime):
        script = {"testbench_gen/gen0": GOOD_TB}  # RTL reply missing
        outcome, _, runtime = run(script, make_runtime=make_runtime)
        assert outcome.status == "error"
        assert outcome.error
        events = events_of(runtime)
        assert events[-1]["status"] == "error"  # partial transcript persisted
