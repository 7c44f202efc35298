import itertools
import json
import random
from fractions import Fraction

import pytest

from rtlforge.checkpoints import Score, extract_window, parse_trace, render_window
from rtlforge.gateway import CassetteRecorder, ReplayBackend
from rtlforge.pipeline import (
    Candidate,
    CandidatePool,
    EngineRuntime,
    LineageMismatch,
    RunConfig,
    max_llm_calls,
    run_pipeline,
    select_top_k,
    should_terminate,
    update_selection,
)
from rtlforge.simbridge import VerilogSource

from fixtures import fenced, stub_counter_problem, stub_dut, stub_tb
from toolstub import ScriptedBackend, StubSimRunner, StubSyntaxChecker, synth_counter_trace


def make_pool(scores, round=0, selected=None):
    pool = CandidatePool(round=round)
    for i, value in enumerate(scores):
        pool.all.append(
            Candidate(
                id=i,
                source=VerilogSource(kind="dut", top_module=f"c{i}", code=f"// c{i}\nmodule m; endmodule"),
                score=Score(value),
            )
        )
    pool.selected = selected if selected is not None else [c.id for c in pool.all]
    return pool


class TestSelectTopK:
    def test_tie_breaks_to_lower_id(self):
        pool = make_pool([0.2, 0.9, 0.9, 0.1])
        assert select_top_k(pool, 2) == [1, 2]

    def test_k_equals_pool(self):
        pool = make_pool([0.3, 0.1, 0.7])
        assert sorted(select_top_k(pool, 3)) == [0, 1, 2]

    def test_k_larger_than_pool_returns_all(self):
        pool = make_pool([0.3, 0.1])
        assert sorted(select_top_k(pool, 5)) == [0, 1]

    def test_matches_bruteforce_subset_maximization(self):
        rng = random.Random(2024)
        for _ in range(500):
            n = rng.randint(1, 12)
            k = rng.randint(1, min(5, n))
            exact = [Fraction(rng.randint(0, 10), 10) for _ in range(n)]
            pool = make_pool([float(f) for f in exact])
            chosen = select_top_k(pool, k)
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
        original = pool.all[0]
        survivors = update_selection([original], [trial_for(original, 0.9)])
        assert survivors[0].score.value == 0.9

    def test_original_kept_when_trial_regresses(self):
        pool = make_pool([0.6])
        original = pool.all[0]
        survivors = update_selection([original], [trial_for(original, 0.4)])
        assert survivors[0] is original

    def test_trial_wins_ties(self):
        pool = make_pool([0.7])
        original = pool.all[0]
        trial = trial_for(original, 0.7)
        survivors = update_selection([original], [trial])
        assert survivors[0] is trial

    def test_lineage_mismatch(self):
        pool = make_pool([0.5, 0.5])
        stray = trial_for(pool.all[1], 0.9)
        with pytest.raises(LineageMismatch):
            update_selection([pool.all[0]], [stray])

    def test_none_keeps_original(self):
        pool = make_pool([0.5])
        assert update_selection([pool.all[0]], [None])[0] is pool.all[0]


class TestShouldTerminate:
    def test_solved_at_round_zero(self):
        done, reason = should_terminate(make_pool([0.4, 1.0]), RunConfig())
        assert (done, reason) == (True, "solved")

    def test_budget_at_limit(self):
        config = RunConfig(max_debug_rounds=3)
        done, reason = should_terminate(make_pool([0.4], round=3), config)
        assert (done, reason) == (True, "budget")

    def test_continue_below_limit(self):
        config = RunConfig(max_debug_rounds=3)
        done, reason = should_terminate(make_pool([0.4], round=2), config)
        assert (done, reason) == (False, None)


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
            RunConfig(sim_workers=0)

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

    def test_timeout_triggers_regen(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": fenced(stub_dut("hang")),
            "testbench_gen/gen1": GOOD_TB,
            "rtl_gen/init1": CLEAN_RTL,
        }
        outcome, _, _ = run(script, make_runtime=make_runtime)
        assert outcome.status == "solved"

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

    def test_dut_side_compile_failure_proceeds_to_sampling(self, make_runtime):
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": fenced(stub_dut("jointfail_dut")),
            "rtl_gen/sample/e0": [CLEAN_RTL, CLEAN_RTL.replace("counter4", "counter4b")],
        }
        config = RunConfig(pool_size=2, top_k=1)
        outcome, _, runtime = run(script, config=config, make_runtime=make_runtime)
        assert outcome.status == "solved"
        steps = [e["step"] for e in events_of(runtime) if e["event"] == "step"]
        assert 4 in steps


class TestSamplingAndDebug:
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

        recorded_runtime = EngineRuntime(
            backend=CassetteRecorder(ScriptedBackend(script), cassette),
            sim_runner=StubSimRunner(),
            syntax_checker=StubSyntaxChecker(),
            templates=templates,
            transcript_dir=tmp_path / "rec",
        )
        recorded = run_pipeline(stub_counter_problem(), config, recorded_runtime)

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
