import dataclasses
from importlib import resources

import pytest

from rtlforge import agents
from rtlforge.agents import (
    AgentTeam,
    NoCodeBlock,
    PromptError,
    PromptLibrary,
    Repair,
    SYNTAX_FIX_CAP,
    SyntaxUnfixable,
    VerdictUnparseable,
    extract_code_block,
    parse_module_name,
    parse_verdict,
    unbuildable,
)
from rtlforge.checkpoints import extract_window, parse_trace
from rtlforge.gateway import SamplingParams
from rtlforge.simbridge import VerilogSource

from fixtures import fenced, stub_dut, stub_tb
from toolstub import ScriptedBackend, StubSyntaxChecker, synth_counter_trace

LOW = SamplingParams(temperature=0.0, top_p=0.01)

# The built-in set as the package holds it: every <role>/<task>.txt.
PROMPTS = resources.files("rtlforge") / "prompts"
BUILTIN_TEMPLATES = sorted(f"{role.name}/{ref.name}" for role in PROMPTS.iterdir()
                           for ref in role.iterdir())


@pytest.fixture
def prompts_copy(tmp_path):
    """A copy of the built-in prompt set."""
    root = tmp_path / "prompts"
    for name in BUILTIN_TEMPLATES:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes((PROMPTS / name).read_bytes())
    return root


def make_team(script, mode="multi", templates=None, sink=None):
    backend = ScriptedBackend(script)
    team = AgentTeam(
        backend=backend,
        templates=templates or PromptLibrary(),
        syntax_checker=StubSyntaxChecker(),
        params=LOW,
        mode=mode,
        event_sink=sink,
    )
    return team, backend


class TestExtraction:
    def test_single_fence(self):
        assert extract_code_block("text\n```verilog\nmodule m;\nendmodule\n```\n") == (
            "module m;\nendmodule"
        )

    def test_no_fence(self):
        with pytest.raises(NoCodeBlock):
            extract_code_block("no code here, sorry")

    def test_last_fence_wins(self):
        reply = (
            "first try:\n```verilog\nmodule draft; endmodule\n```\n"
            "final answer:\n```verilog\nmodule final_version; endmodule\n```\n"
        )
        assert "final_version" in extract_code_block(reply)
        assert "draft" not in extract_code_block(reply)

    def test_module_name(self):
        assert parse_module_name("// hi\nmodule  counter4 (input clk);\nendmodule") == "counter4"

    def test_module_name_prefers_requested(self):
        code = "module helper; endmodule\nmodule top_module; endmodule\n"
        assert parse_module_name(code, preferred="top_module") == "top_module"
        assert parse_module_name(code) == "helper"


class TestVerdictParsing:
    def test_testbench_faulty(self):
        verdict = parse_verdict("The bench drives rst wrong.\nVERDICT: testbench_faulty")
        assert verdict.decision == "testbench_faulty"
        assert "rst" in verdict.rationale

    def test_rtl_faulty(self):
        assert parse_verdict("VERDICT: rtl_faulty").decision == "rtl_faulty"

    def test_free_prose_rejected(self):
        with pytest.raises(VerdictUnparseable):
            parse_verdict("I think the testbench is probably wrong but who knows.")

    def test_verdict_must_be_final_line(self):
        with pytest.raises(VerdictUnparseable):
            parse_verdict("VERDICT: rtl_faulty\nactually let me reconsider...")


class TestPromptLibrary:
    def test_render_binds_placeholders(self, templates):
        text = templates.render(
            "rtl_gen", "generate", spec="SPEC_TEXT_HERE", testbench="TB_TEXT_HERE"
        )
        assert "SPEC_TEXT_HERE" in text and "TB_TEXT_HERE" in text
        assert "{{" not in text

    def test_unbound_placeholder_rejected(self, templates):
        with pytest.raises(PromptError):
            templates.render("rtl_gen", "generate", spec="only spec")

    def test_missing_template(self, templates):
        with pytest.raises(PromptError):
            templates.text("rtl_gen", "no_such_task")

    def test_testbench_system_prompt_carries_log_grammar(self, templates):
        text = templates.text("testbench_gen", "system")
        assert "CHECK time=<t>" in text
        assert "SUMMARY total=<tc> mismatches=<m> first_mismatch=<t|none>" in text
        assert "$finish" in text

    def test_judge_system_prompt_carries_verdict_tokens(self, templates):
        text = templates.text("judge", "system")
        assert "VERDICT: rtl_faulty" in text
        assert "VERDICT: testbench_faulty" in text

    def test_single_mode_system_prompt_covers_all_duties(self, templates):
        text = templates.text("single", "system")
        assert "CHECK time=<t>" in text and "VERDICT:" in text

    def test_substituted_code_not_rescanned(self, prompts_copy):
        (prompts_copy / "rtl_gen" / "vanilla.txt").write_text("code:\n{{rtl}}\n", encoding="utf-8")
        lib = PromptLibrary(prompts_copy)
        rendered = lib.render("rtl_gen", "vanilla", rtl="assign y = {{2{a}}, b};")
        assert "{{2{a}}" in rendered

    @pytest.mark.parametrize("name", BUILTIN_TEMPLATES)
    def test_a_root_lacking_a_template_is_refused_by_name(self, prompts_copy, name):
        (prompts_copy / name).unlink()
        with pytest.raises(PromptError, match=f"prompt template not found: .*{name}$"):
            PromptLibrary(prompts_copy)

    def test_a_template_that_is_not_utf8_is_refused_by_name(self, prompts_copy):
        (prompts_copy / "judge" / "system.txt").write_bytes(b"VERDICT caf\xe9\n")
        with pytest.raises(PromptError, match="cannot read prompt template .*judge/system.txt"):
            PromptLibrary(prompts_copy)

    def test_the_built_in_set_is_read_once_per_process(self, monkeypatch):
        PromptLibrary()

        def no_read(*args):
            raise AssertionError("template read again")

        monkeypatch.setattr(agents, "read_text", no_read)
        assert "VERDICT: rtl_faulty" in PromptLibrary().text("judge", "system")


class TestGenerateTestbench:
    def test_extracts_fenced_block(self):
        team, _ = make_team({"testbench_gen/gen0": fenced(stub_tb())})
        source = team.generate_testbench("build a counter", None)
        assert source.kind == "testbench"
        assert source.top_module == "counter4_tb"

    def test_no_code_block(self):
        team, _ = make_team({"testbench_gen/gen0": "I cannot write that."})
        with pytest.raises(NoCodeBlock):
            team.generate_testbench("build a counter", None)

    def test_golden_text_lands_verbatim_in_prompt(self):
        team, backend = make_team({"testbench_gen/gen0": fenced(stub_tb())})
        golden = "// very specific golden bench 0xDEADBEEF\nmodule g; endmodule"
        team.generate_testbench("spec text", golden)
        prompt = backend.requests[0].messages[-1].content
        assert golden in prompt

    def test_regeneration_uses_feedback(self):
        team, backend = make_team(
            {
                "testbench_gen/gen0": fenced(stub_tb()),
                "testbench_gen/gen1": fenced(stub_tb(name="counter4_tb2")),
            }
        )
        first = team.generate_testbench("spec text", None)
        second = team.generate_testbench(
            "spec text", None, epoch=1, feedback="expected values are wrong", previous=first
        )
        assert second.top_module == "counter4_tb2"
        prompt = backend.requests[-1].messages[-1].content
        assert "expected values are wrong" in prompt
        assert first.code in prompt


class TestGenerateRtl:
    def test_last_fence_taken(self):
        reply = fenced(stub_dut("score:1:4", name="draft")) + fenced(stub_dut("score:0:4"))
        team, _ = make_team({"rtl_gen/init0": reply})
        tb = VerilogSource(kind="testbench", top_module="t", code=stub_tb())
        source = team.generate_rtl("spec", tb)
        assert source.top_module == "counter4"

    def test_broken_then_fixed_makes_two_calls(self):
        team, backend = make_team(
            {
                "rtl_gen/init0": fenced(stub_dut("score:0:4", err_line=2)),
                "rtl_gen/init0/fix1": fenced(stub_dut("score:0:4")),
            }
        )
        tb = VerilogSource(kind="testbench", top_module="t", code=stub_tb())
        source = team.generate_rtl("spec", tb)
        assert "//ERR:" not in source.code
        assert len(backend.requests) == 2


class TestFixSyntax:
    def test_clean_source_zero_llm_calls(self):
        team, backend = make_team({})
        clean = VerilogSource(kind="dut", top_module="counter4", code=stub_dut("score:0:4"))
        fixed = team.fix_syntax(clean, team.conversation("rtl_gen"), "anytag")
        assert fixed is clean
        assert backend.requests == []

    def test_broken_broken_clean(self):
        team, backend = make_team(
            {
                "t/fix1": fenced(stub_dut("score:0:4", err_line=5)),
                "t/fix2": fenced(stub_dut("score:0:4")),
            }
        )
        broken = VerilogSource(
            kind="dut", top_module="counter4", code=stub_dut("score:0:4", err_line=1)
        )
        fixed = team.fix_syntax(broken, team.conversation("rtl_gen"), "t")
        assert "//ERR:" not in fixed.code
        assert len(backend.requests) == 2

    def test_always_broken_stops_after_exactly_five(self):
        script = {
            f"t/fix{k}": fenced(stub_dut("score:0:4", err_line=k)) for k in range(1, 10)
        }
        team, backend = make_team(script)
        broken = VerilogSource(
            kind="dut", top_module="counter4", code=stub_dut("score:0:4", err_line=1)
        )
        with pytest.raises(SyntaxUnfixable, match="after 5 repair iterations"):
            team.fix_syntax(broken, team.conversation("rtl_gen"), "t")
        fix_calls = [r for r in backend.requests if "/fix" in r.tag]
        assert len(fix_calls) == 5  # never 4, never 6

    def test_unfixable_message_names_the_cap_that_ran(self, monkeypatch):
        # The loop and the message both read the module constant, so a
        # lowered cap must show up in both the call count and the text.
        monkeypatch.setattr(agents, "SYNTAX_FIX_CAP", 2)
        script = {f"t/fix{k}": fenced(stub_dut("score:0:4", err_line=k)) for k in range(1, 4)}
        team, backend = make_team(script)
        broken = VerilogSource(
            kind="dut", top_module="counter4", code=stub_dut("score:0:4", err_line=1)
        )
        with pytest.raises(SyntaxUnfixable, match="after 2 repair iterations"):
            team.fix_syntax(broken, team.conversation("rtl_gen"), "t")
        assert len(backend.requests) == 2

    def test_fenceless_reply_counts_as_failed_iteration(self):
        script = {f"t/fix{k}": "no code, rambling instead" for k in range(1, 6)}
        team, backend = make_team(script)
        broken = VerilogSource(
            kind="dut", top_module="counter4", code=stub_dut("score:0:4", err_line=1)
        )
        with pytest.raises(SyntaxUnfixable):
            team.fix_syntax(broken, team.conversation("rtl_gen"), "t")
        assert len(backend.requests) == 5


class TestSampling:
    def _sample(self, team, count):
        """Step 4 as a run does it: one sampling request, then each reply
        through its own repair loop, one attempt at a time; a sample still
        broken at the cap becomes a sentinel."""
        tb = VerilogSource(kind="testbench", top_module="t", code=stub_tb())
        params = dataclasses.replace(team.params, n_completions=count)
        replies = team.sample_rtl_candidates("spec", tb, params)
        out = []
        for i, reply in enumerate(replies):
            state = team.repair_sample(reply, i)
            while isinstance(state, Repair) and state.k < SYNTAX_FIX_CAP:
                state = team.repair_sample(state, i)
            out.append(unbuildable(f"sample {i}") if isinstance(state, Repair) else state)
        return out

    def test_singleton(self):
        team, _ = make_team({"rtl_gen/sample/e0": [fenced(stub_dut("score:0:4"))]})
        out = self._sample(team, 1)
        assert len(out) == 1

    def test_twenty_in_recorded_order(self):
        replies = [fenced(stub_dut(f"score:{i}:20", name=f"cand{i}")) for i in range(20)]
        team, _ = make_team({"rtl_gen/sample/e0": replies})
        out = self._sample(team, 20)
        assert [s.top_module for s in out] == [f"cand{i}" for i in range(20)]

    def test_unfixable_becomes_flagged_sentinel(self):
        replies = [
            fenced(stub_dut("score:0:4")),
            "no code at all",
            fenced(stub_dut("score:0:4", name="ok2")),
        ]
        team, _ = make_team({"rtl_gen/sample/e0": replies})
        out = self._sample(team, 3)
        assert len(out) == 3
        assert not out[0].sentinel and not out[2].sentinel
        assert out[1].sentinel

    def test_unfixable_after_repairs_becomes_sentinel(self):
        script = {"rtl_gen/sample/e0": [fenced(stub_dut("score:0:4", err_line=1))]}
        script.update(
            {
                f"rtl_gen/samplefix/e0/c0/fix{k}": fenced(stub_dut("score:0:4", err_line=k))
                for k in range(1, 6)
            }
        )
        team, _ = make_team(script)
        out = self._sample(team, 1)
        assert out[0].sentinel

    @pytest.mark.parametrize("count", [1, 2, 7, 64])
    def test_output_length_always_count(self, count):
        replies = [fenced(stub_dut("score:0:4")) for _ in range(count)]
        team, _ = make_team({"rtl_gen/sample/e0": replies})
        out = self._sample(team, count)
        assert len(out) == count


class TestTestbenchPromptLimit:
    def test_full_text_by_default(self):
        team, backend = make_team({"rtl_gen/init0": fenced(stub_dut("score:0:4"))})
        tb = VerilogSource(kind="testbench", top_module="t", code=stub_tb())
        team.generate_rtl("spec", tb)
        assert tb.code in backend.requests[0].messages[-1].content


class TestJudgeAndDebug:
    def _trace(self):
        return parse_trace(synth_counter_trace(glitch_at=9))

    def test_judge_parses_verdict(self):
        team, backend = make_team(
            {"judge/e0": "The trace follows the spec.\nVERDICT: rtl_faulty"}
        )
        tb = VerilogSource(kind="testbench", top_module="t", code=stub_tb())
        verdict = team.judge("spec words", tb, self._trace())
        assert verdict.decision == "rtl_faulty"
        prompt = backend.requests[0].messages[-1].content
        assert "spec words" in prompt and stub_tb() in prompt
        assert "MISMATCH" in prompt  # rendered excerpt present

    def test_judge_unparseable(self):
        team, _ = make_team({"judge/e0": "hard to say"})
        tb = VerilogSource(kind="testbench", top_module="t", code=stub_tb())
        with pytest.raises(VerdictUnparseable):
            team.judge("spec", tb, self._trace())

    def test_debug_prompt_contains_first_mismatch_row(self):
        team, backend = make_team({"debug/r1/c3": fenced(stub_dut("score:0:16"))})
        trace = self._trace()
        window = extract_window(trace, 9, 8)
        candidate = VerilogSource(
            kind="dut", top_module="counter4", code=stub_dut("counter16:glitch@9")
        )
        tb = VerilogSource(kind="testbench", top_module="t", code=stub_tb())
        team.debug_trial(candidate, window, tb, round_index=1, root_id=3)
        prompt = backend.requests[0].messages[-1].content
        from rtlforge.checkpoints import render_window

        assert render_window(window) in prompt
        mismatch_row = render_window(window).splitlines()[-1]
        assert "4'b1000" in mismatch_row and "4'b1001" in mismatch_row

    def test_debug_reply_identical_to_input_allowed(self):
        code = stub_dut("counter16:glitch@9")
        team, _ = make_team({"debug/r1/c0": fenced(code)})
        trace = self._trace()
        window = extract_window(trace, 9, 8)
        candidate = VerilogSource(kind="dut", top_module="counter4", code=code)
        tb = VerilogSource(kind="testbench", top_module="t", code=stub_tb())
        out = team.debug_trial(candidate, window, tb, round_index=1, root_id=0)
        assert out.code == code.strip("\n") or out.code == code

    @pytest.mark.parametrize("mode", ["multi", "single"])
    def test_debug_syntax_fix_asks_with_the_debug_prompt(self, mode):
        templates = PromptLibrary()
        team, backend = make_team(
            {
                "debug/r1/c0": fenced(stub_dut("counter16", err_line=1)),
                "debug/r1/c0/fix1": fenced(stub_dut("counter16")),
            },
            mode=mode,
        )
        window = extract_window(self._trace(), 9, 8)
        candidate = VerilogSource(
            kind="dut", top_module="counter4", code=stub_dut("counter16:glitch@9")
        )
        tb = VerilogSource(kind="testbench", top_module="t", code=stub_tb())
        team.debug_trial(candidate, window, tb, round_index=1, root_id=0)
        fix = backend.requests[-1]
        assert fix.tag == "debug/r1/c0/fix1"
        first_line = {role: templates.text(role, "fix_syntax").splitlines()[0]
                      for role in ("debug", "rtl_gen")}
        assert fix.messages[-1].content.startswith(first_line["debug"])
        assert first_line["rtl_gen"] not in fix.messages[-1].content

    def test_debug_thread_retained_across_rounds(self):
        team, backend = make_team(
            {
                "debug/r1/c0": fenced(stub_dut("counter16:glitch@9")),
                "debug/r2/c0": fenced(stub_dut("counter16")),
            }
        )
        trace = self._trace()
        window = extract_window(trace, 9, 8)
        candidate = VerilogSource(
            kind="dut", top_module="counter4", code=stub_dut("counter16:glitch@9")
        )
        tb = VerilogSource(kind="testbench", top_module="t", code=stub_tb())
        team.debug_trial(candidate, window, tb, round_index=1, root_id=0)
        team.debug_trial(candidate, window, tb, round_index=2, root_id=0)
        second = backend.requests[-1]
        # round-2 request carries the round-1 exchange in its history
        assert len(second.messages) == 4  # system, user r1, assistant r1, user r2
        assert team.conversation("debug", "conv-debug-c0").conv_id == "conv-debug-c0"


class TestHistoryIsolation:
    def _run_all_roles(self, mode):
        script = {
            "testbench_gen/gen0": fenced(stub_tb()) + "\nTB_MARKER_XYZ",
            "rtl_gen/init0": fenced(stub_dut("counter16:glitch@9")) + "\nRTL_MARKER_XYZ",
            "judge/e0": "JUDGE_MARKER_XYZ\nVERDICT: rtl_faulty",
        }
        team, backend = make_team(script, mode=mode)
        tb = team.generate_testbench("spec", None)
        team.generate_rtl("spec", tb)
        trace = parse_trace(synth_counter_trace(glitch_at=9))
        team.judge("spec", tb, trace)
        return team, backend

    def test_multi_mode_histories_never_mix(self):
        _, backend = self._run_all_roles("multi")
        judge_request = [r for r in backend.requests if r.tag.startswith("judge")][0]
        assistant_texts = [m.content for m in judge_request.messages if m.role == "assistant"]
        # the judge's conversation holds no other role's replies
        assert assistant_texts == []
        rtl_request = [r for r in backend.requests if r.tag.startswith("rtl_gen")][0]
        assert all(
            "TB_MARKER_XYZ" not in m.content
            for m in rtl_request.messages
            if m.role == "assistant"
        )

    def test_single_mode_shares_one_history(self):
        team, backend = self._run_all_roles("single")
        judge_request = [r for r in backend.requests if r.tag.startswith("judge")][0]
        assistant_texts = [m.content for m in judge_request.messages if m.role == "assistant"]
        assert any("TB_MARKER_XYZ" in t for t in assistant_texts)
        assert any("RTL_MARKER_XYZ" in t for t in assistant_texts)
        assert team.conversation("judge") is team.conversation("rtl_gen")
