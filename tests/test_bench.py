import itertools
import json
import random
from pathlib import Path

import pytest

from rtlforge.bench import (
    DomainError,
    TrialRecord,
    emit_report,
    pass_at_k,
    run_bench,
    run_trial,
)
from rtlforge.agents import module_names
from rtlforge.gateway import MAX_COMPLETIONS
from rtlforge.golden import GoldenResult, evaluate_golden
from rtlforge.pipeline import EngineRuntime, RunConfig
from rtlforge.problems import DuplicateTaskId, ParseError, Problem, load_problems
from rtlforge.simbridge import (
    Diagnostic, SimRun, ToolchainMissing, ToolchainSimRunner, ToolchainSyntaxChecker, VerilogSource
)

from fixtures import fenced, stub_dut, stub_golden_tb, stub_tb
from toolstub import ScriptedBackend, StubSimRunner, StubSyntaxChecker


class TestLoadProblems:
    def test_jsonl_field_for_field(self, tmp_path):
        path = tmp_path / "set.jsonl"
        rows = [
            {
                "task_id": "t1",
                "spec": "a counter",
                "golden_testbench": "module g; endmodule",
                "module_interface": "module t1(input clk);",
                "extra_field": "ignored",
            },
            {"task_id": "t2", "spec": "a mux"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        problems = load_problems(path)
        assert len(problems) == 2
        assert problems[0].task_id == "t1"
        assert problems[0].spec == "a counter"
        assert problems[0].golden_testbench == "module g; endmodule"
        assert problems[0].module_interface == "module t1(input clk);"
        assert problems[1].golden_testbench is None

    def test_duplicate_task_id(self, tmp_path):
        path = tmp_path / "set.jsonl"
        row = json.dumps({"task_id": "dup", "spec": "x"})
        path.write_text(row + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(DuplicateTaskId) as err:
            load_problems(path)
        assert "dup" in str(err.value)

    def test_missing_spec_names_line(self, tmp_path):
        path = tmp_path / "set.jsonl"
        path.write_text(
            json.dumps({"task_id": "a", "spec": "ok"})
            + "\n"
            + json.dumps({"task_id": "b"})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_problems(path)
        assert err.value.line == 2

    def test_v1_missing_spec_names_the_keys_tried(self, tmp_path):
        path = tmp_path / "set.jsonl"
        path.write_text(json.dumps({"task_id": "a", "description": ""}) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_problems(path, "verilogeval-v1")
        assert str(err.value) == (
            "line 1: missing required field 'detail_description' or 'description' or 'spec'"
        )
        with pytest.raises(ParseError, match="^line 1: missing required field 'spec'$"):
            load_problems(path, "jsonl")

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "set.jsonl"
        path.write_text("{broken\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_problems(path)

    def test_flat_dir_adapter(self, tmp_path):
        d = tmp_path / "dataset"
        d.mkdir()
        (d / "Prob001_counter_prompt.txt").write_text("build a counter", encoding="utf-8")
        (d / "Prob001_counter_test.sv").write_text("module tb; endmodule", encoding="utf-8")
        (d / "Prob001_counter_ref.sv").write_text("module counter; endmodule", encoding="utf-8")
        (d / "Prob002_mux_prompt.txt").write_text("build a mux", encoding="utf-8")
        problems = load_problems(d, "verilogeval-v2")
        assert [p.task_id for p in problems] == ["Prob001_counter", "Prob002_mux"]
        assert problems[0].golden_testbench == "module tb; endmodule"
        assert problems[0].reference_solution == "module counter; endmodule"
        assert problems[1].golden_testbench is None

    def test_humaneval_style_adapter(self, tmp_path):
        path = tmp_path / "set.jsonl"
        path.write_text(
            json.dumps(
                {
                    "task_id": "shift4",
                    "detail_description": "a shift register",
                    "prompt": "module shift4(...);",
                    "test": "module tb; endmodule",
                    "canonical_solution": "module shift4; endmodule",
                }
            )
            + "\n",
            encoding="utf-8",
        )
        problems = load_problems(path, "verilogeval-v1")
        assert problems[0].spec == "a shift register"
        assert problems[0].module_interface == "module shift4(...);"
        assert problems[0].golden_testbench == "module tb; endmodule"

    @pytest.mark.parametrize("dataset_format", ["jsonl", "verilogeval-v1"])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("[1, 2]", "must be a JSON object"),
            ('{"task_id": "t", "spec": "s", "golden_testbench": 5, "test": 5}', "must be a string"),
            ('{"task_id": 0, "spec": "s"}', "field 'task_id' must be a string"),
            ('{"task_id": 7, "spec": {"a": 1}}', "field 'task_id' must be a string"),
            ('{"task_id": "t", "spec": {"a": 1}}', "field 'spec' must be a string"),
            ('{"task_id": "t", "spec": "  \\n "}', "missing required field"),
        ],
    )
    def test_bad_line_names_its_number(self, tmp_path, dataset_format, row, message):
        path = tmp_path / "set.jsonl"
        good = json.dumps({"task_id": "ok", "spec": "a counter"})
        path.write_text(good + "\n\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message) as err:
            load_problems(path, dataset_format)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "dataset_format, name",
        [
            ("jsonl", "."),
            ("jsonl", "latin1.jsonl"),
            ("verilogeval-v1", "."),
            ("verilogeval-v1", "latin1.jsonl"),
            ("verilogeval-v2", "flat"),
        ],
    )
    def test_unreadable_path(self, tmp_path, dataset_format, name):
        latin1 = b'{"task_id": "caf\xe9"}\n'
        (tmp_path / "latin1.jsonl").write_bytes(latin1)
        (tmp_path / "flat").mkdir()
        (tmp_path / "flat" / "t_prompt.txt").write_bytes(latin1)
        with pytest.raises(ParseError, match="cannot read dataset"):
            load_problems(tmp_path / name, dataset_format)

    @pytest.mark.parametrize(
        "dataset_format, name, text",
        [("jsonl", "set.jsonl", ""), ("verilogeval-v1", "set.jsonl", "\n  \n\t\n"),
         ("verilogeval-v2", "flat", None)],
        ids=["empty_file", "blank_lines", "empty_dir"],
    )
    def test_set_without_problems_is_refused(self, tmp_path, dataset_format, name, text):
        path = tmp_path / name
        if text is None:
            path.mkdir()
        else:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_problems(path, dataset_format)
        assert str(err.value) == f"no problems in dataset {path}"

    def test_blank_spec_is_no_spec(self, tmp_path):
        path = tmp_path / "set.jsonl"
        path.write_text(json.dumps({"task_id": "a", "spec": " \n\t"}) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="^line 1: missing required field 'spec'$"):
            load_problems(path)
        row = {"task_id": "b", "detail_description": " \n", "description": "a mux"}
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        assert load_problems(path, "verilogeval-v1")[0].spec == "a mux"  # the first non-blank
        with pytest.raises(ValueError, match="spec must be non-empty"):
            Problem("t", " \n\t")

    def test_blank_golden_bench_is_no_bench(self, tmp_path):
        rows = [
            {"task_id": "a", "spec": "a counter", "golden_testbench": "\n"},
            {"task_id": "b", "detail_description": "a mux", "test": " \t\n"},
        ]
        (tmp_path / "set.jsonl").write_text(json.dumps(rows[0]) + "\n", encoding="utf-8")
        (tmp_path / "he.jsonl").write_text(json.dumps(rows[1]) + "\n", encoding="utf-8")
        flat = tmp_path / "flat"
        flat.mkdir()
        (flat / "c_prompt.txt").write_text("a latch", encoding="utf-8")
        (flat / "c_test.sv").write_text("\n", encoding="utf-8")
        problems = [
            *load_problems(tmp_path / "set.jsonl"),
            *load_problems(tmp_path / "he.jsonl", "verilogeval-v1"),
            *load_problems(flat, "verilogeval-v2"),
            Problem(task_id="d", spec="an adder", golden_testbench="  "),
        ]
        assert [p.golden_testbench for p in problems] == [None] * 4

    @pytest.mark.parametrize("dataset_format", ["jsonl", "verilogeval-v1"])
    @pytest.mark.parametrize(
        "task_id", ["/tmp/x", "../../x", "a/../../x", "..", "a/.", "./a", "a//b", "a/", "."]
    )
    def test_task_id_outside_the_run_directory_is_refused(
        self, tmp_path, dataset_format, task_id
    ):
        path = tmp_path / "set.jsonl"
        rows = [{"task_id": "a/b", "spec": "a counter"}, {"task_id": task_id, "spec": "a mux"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="task_id") as err:
            load_problems(path, dataset_format)
        assert err.value.line == 2
        path.write_text(json.dumps(rows[0]) + "\n", encoding="utf-8")
        assert [p.task_id for p in load_problems(path, dataset_format)] == ["a/b"]

    @pytest.mark.parametrize("name", ["..", "", "."])
    def test_flat_dir_task_id_is_checked(self, tmp_path, name):
        (tmp_path / "ok_prompt.txt").write_text("build a counter", encoding="utf-8")
        (tmp_path / f"{name}_prompt.txt").write_text("build a mux", encoding="utf-8")
        with pytest.raises(ParseError, match="task_id") as err:
            load_problems(tmp_path, "verilogeval-v2")
        assert str(tmp_path / f"{name}_prompt.txt") in str(err.value)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            load_problems(path, "csv")


class TestPassAtK:
    def test_all_pass(self):
        assert pass_at_k(20, 20, 1) == 1.0

    def test_half_pass_k1(self):
        assert pass_at_k(20, 10, 1) == 0.5

    def test_five_two_two(self):
        # enumerate all C(5,2)=10 run pairs; 7 contain at least one passer
        assert pass_at_k(5, 2, 2) == 0.7

    def test_matches_bruteforce_enumeration_small_n(self):
        for n in range(1, 9):
            for c in range(n + 1):
                runs = [True] * c + [False] * (n - c)
                for k in range(1, n + 1):
                    subsets = list(itertools.combinations(range(n), k))
                    hits = sum(1 for s in subsets if any(runs[i] for i in s))
                    assert pass_at_k(n, c, k) == pytest.approx(hits / len(subsets), abs=1e-12)

    def test_k1_is_exactly_c_over_n(self):
        for n in range(1, 101):
            for c in range(n + 1):
                assert pass_at_k(n, c, 1) == c / n

    def test_monotone_in_c_and_k(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 30)
            k = rng.randint(1, n)
            c = rng.randint(0, n - 1)
            assert pass_at_k(n, c, k) <= pass_at_k(n, c + 1, k)
            if k < n:
                assert pass_at_k(n, c, k) <= pass_at_k(n, c, k + 1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pass_at_k(5, 6, 1)
        with pytest.raises(DomainError):
            pass_at_k(5, 2, 0)
        with pytest.raises(DomainError):
            pass_at_k(5, 2, 6)
        with pytest.raises(DomainError):
            pass_at_k(5, -1, 1)


class TestEvaluateGolden:
    def _golden(self):
        return stub_golden_tb()

    def test_reference_passes(self, tmp_path):
        rtl = VerilogSource(kind="dut", top_module="counter4", code=stub_dut("counter16"))
        result = evaluate_golden(rtl, self._golden(), StubSimRunner(), tmp_path / "g")
        assert result.passed

    def test_mutant_fails_with_mismatch(self, tmp_path):
        rtl = VerilogSource(
            kind="dut", top_module="counter4", code=stub_dut("counter16:glitch@9")
        )
        result = evaluate_golden(rtl, self._golden(), StubSimRunner(), tmp_path / "g")
        assert not result.passed
        assert "mismatch" in result.reason.lower()

    def test_non_compiling_fails(self, tmp_path):
        rtl = VerilogSource(
            kind="dut", top_module="counter4", code=stub_dut("counter16", err_line=3)
        )
        result = evaluate_golden(rtl, self._golden(), StubSimRunner(), tmp_path / "g")
        assert not result.passed
        assert "compile" in result.reason

    def test_output_past_the_cap_fails(self, tmp_path):
        """A run cut at the output cap fails, though what it printed holds
        the passing banner."""
        rtl = VerilogSource(kind="dut", top_module="counter4", code=stub_dut("flood"))
        runner = StubSimRunner()
        sim = runner.run([rtl, VerilogSource("testbench", "g", self._golden())], tmp_path)
        assert (sim.status, "Mismatches: 0" in sim.stdout) == ("output_limit", True)
        result = evaluate_golden(rtl, self._golden(), runner, tmp_path / "g")
        assert result == GoldenResult(False, "golden simulation status: output_limit")

    def test_golden_timeout_fails(self, tmp_path):
        rtl = VerilogSource(kind="dut", top_module="counter4", code=stub_dut("hang"))
        result = evaluate_golden(rtl, self._golden(), StubSimRunner(), tmp_path / "g")
        assert result == GoldenResult(False, "golden simulation timed out")

    def test_sentinel_fails(self, tmp_path):
        rtl = VerilogSource(kind="dut", top_module="x", code="// nope", sentinel=True)
        result = evaluate_golden(rtl, self._golden(), StubSimRunner(), tmp_path / "g")
        assert not result.passed

    def test_no_banner_fails(self, tmp_path):
        golden = "module g;\n//TB_EMIT:counter16|Simulation finished quietly\nendmodule\n"
        rtl = VerilogSource(kind="dut", top_module="counter4", code=stub_dut("counter16"))
        result = evaluate_golden(rtl, golden, StubSimRunner(), tmp_path / "g")
        assert not result.passed

    def test_fail_banner_wins_over_pass_banner(self, tmp_path):
        golden = (
            "module g;\n"
            "//TB_EMIT:counter16|Mismatches: 0 in 16 samples\n"
            "//TB_EMIT:counter16|Mismatches: 12 in 16 samples\n"
            "endmodule\n"
        )
        rtl = VerilogSource(kind="dut", top_module="counter4", code=stub_dut("counter16"))
        result = evaluate_golden(rtl, golden, StubSimRunner(), tmp_path / "g")
        assert not result.passed and "mismatches" in result.reason


def record(task, run_index, passed, history=(1.0,)):
    return TrialRecord(
        task_id=task,
        run_index=run_index,
        passed_golden=passed,
        engine_score_history=list(history),
        llm_calls=2,
        wall_time=0.1,
        status="solved" if passed else "budget_exhausted",
    )


class TestEmitReport:
    def test_singleton(self, tmp_path):
        report = emit_report([record("t1", 0, True)], tmp_path)
        assert report.aggregate_pass_at_1 == 1.0
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "task_id,n,c_p,pass_at_1"
        assert len(lines) == 2

    def test_mean_over_problems(self, tmp_path):
        records = [record("t1", 0, True), record("t2", 0, False)]
        report = emit_report(records, tmp_path)
        assert report.aggregate_pass_at_1 == 0.5

    def test_scores_by_round_rows(self, tmp_path):
        records = [record("t1", 0, True, history=[0.5, 0.75, 1.0])]
        emit_report(records, tmp_path)
        rows = (tmp_path / "scores_by_round.csv").read_text().strip().splitlines()
        assert rows[0] == "task_id,run_index,round,score"
        assert rows[1:] == ["t1,0,0,0.5", "t1,0,1,0.75", "t1,0,2,1.0"]

    def test_round_trip(self, tmp_path):
        records = [
            record("t1", 0, True),
            record("t1", 1, False),
            record("t2", 0, True),
        ]
        report = emit_report(records, tmp_path, config_echo={"pool_size": 4})
        loaded = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert loaded["aggregate_pass_at_1"] == report.aggregate_pass_at_1
        assert [(p["task_id"], p["n"], p["c_p"], p["pass_at_1"]) for p in loaded["problems"]] == [
            (p.task_id, p.n, p.c_p, p.pass_at_1) for p in report.problems
        ]
        assert loaded["config"] == {"pool_size": 4}

    def test_aggregate_is_mean_of_per_problem_values(self, tmp_path):
        rng = random.Random(11)
        records = []
        for t in range(6):
            for j in range(4):
                records.append(record(f"t{t}", j, rng.random() < 0.5))
        report = emit_report(records, tmp_path)
        mean = sum(p.pass_at_1 for p in report.problems) / len(report.problems)
        assert report.aggregate_pass_at_1 == mean

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path)


class TestRunBench:
    def _problems(self):
        return [
            Problem(
                task_id="easy",
                spec="a counter",
                module_interface="module counter4(input clk, input rst, output reg [3:0] q);",
                golden_testbench=stub_golden_tb(),
            ),
            Problem(
                task_id="hard",
                spec="another counter",
                module_interface="module counter4(input clk, input rst, output reg [3:0] q);",
                golden_testbench=stub_golden_tb(),
            ),
        ]

    def _script(self, request):
        tag = request.tag
        if "testbench_gen" in tag:
            return [fenced(stub_tb())]
        if "rtl_gen/init0" in tag:
            if tag.startswith("easy/"):
                return [fenced(stub_dut("counter16"))]
            return [fenced(stub_dut("counter16:glitch@9"))]
        if "judge" in tag:
            return ["VERDICT: rtl_faulty"]
        if "rtl_gen/sample" in tag:
            return [fenced(stub_dut("counter16:glitch@9", name="cand"))]
        if "debug" in tag:
            return [fenced(stub_dut("counter16:glitch@9", name="trial"))]
        raise AssertionError(f"unexpected tag {tag}")

    def test_two_problems_two_runs(self, tmp_path, templates):
        backend = ScriptedBackend(self._script)

        def factory(task_id, run_index):
            from rtlforge.gateway import NamespacedBackend

            return EngineRuntime(
                backend=NamespacedBackend(backend, f"{task_id}/run{run_index}/"),
                sim_runner=StubSimRunner(),
                syntax_checker=StubSyntaxChecker(),
                templates=templates,
                transcript_dir=tmp_path / task_id / str(run_index),
            )

        config = RunConfig(pool_size=1, top_k=1, max_debug_rounds=1)
        records = run_bench(self._problems(), config, factory, n_runs=2)
        assert len(records) == 4
        easy = [r for r in records if r.task_id == "easy"]
        hard = [r for r in records if r.task_id == "hard"]
        assert all(r.passed_golden for r in easy)
        assert not any(r.passed_golden for r in hard)
        report = emit_report(records, tmp_path / "out")
        assert report.aggregate_pass_at_1 == 0.5
        by_task = {p.task_id: p for p in report.problems}
        assert by_task["easy"].n == 2 and by_task["easy"].c_p == 2

    @pytest.mark.parametrize("seed, expected", [(7, {0: 7, 1: 7 + MAX_COMPLETIONS}),
                                                (None, {0: None, 1: None})])
    def test_each_run_samples_with_its_own_seed(self, tmp_path, templates, seed, expected):
        """Run j of a seeded bench sends seed + j * MAX_COMPLETIONS, so pass@k
        counts independent draws; every request of a run carries its seed."""
        backend = ScriptedBackend(self._script)

        def factory(task_id, run_index):
            from rtlforge.gateway import NamespacedBackend

            return EngineRuntime(
                backend=NamespacedBackend(backend, f"{task_id}/run{run_index}/"),
                sim_runner=StubSimRunner(),
                syntax_checker=StubSyntaxChecker(),
                templates=templates,
                transcript_dir=tmp_path / task_id / str(run_index),
            )

        config = RunConfig(pool_size=1, top_k=1, max_debug_rounds=1, seed=seed)
        run_bench(self._problems()[:1], config, factory, n_runs=2)
        seeds = {(int(r.tag.split("/")[1][len("run"):]), r.params.seed) for r in backend.requests}
        assert seeds == set(expected.items())

    def test_interrupt_preserves_partial_records(self, tmp_path, templates):
        def script(request):
            if request.tag.startswith("hard/"):
                raise KeyboardInterrupt
            return self._script(request)

        backend = ScriptedBackend(script)

        def factory(task_id, run_index):
            from rtlforge.gateway import NamespacedBackend

            return EngineRuntime(
                backend=NamespacedBackend(backend, f"{task_id}/run{run_index}/"),
                sim_runner=StubSimRunner(),
                syntax_checker=StubSyntaxChecker(),
                templates=templates,
                transcript_dir=tmp_path / task_id / str(run_index),
            )

        config = RunConfig(pool_size=1, top_k=1, max_debug_rounds=1)
        sink = []
        with pytest.raises(KeyboardInterrupt):
            run_bench(self._problems(), config, factory, n_runs=1, records_sink=sink)
        assert len(sink) == 1 and sink[0].task_id == "easy"
        emit_report(sink, tmp_path / "partial")  # partial report still valid

    @pytest.mark.parametrize("behavior, passed", [("counter16", True), ("counter16:glitch@9", False)])
    def test_vanilla_trial_simulates_golden_once(self, tmp_path, templates, behavior, passed):
        backend = ScriptedBackend({"rtl_gen/vanilla": fenced(stub_dut(behavior))})
        workdirs = []

        class RecordingRunner(StubSimRunner):
            def run(self, sources, workdir):
                workdirs.append(workdir)
                return super().run(sources, workdir)

        runner = RecordingRunner()

        def factory(task_id, run_index):
            return EngineRuntime(
                backend=backend,
                sim_runner=runner,
                syntax_checker=StubSyntaxChecker(),
                templates=templates,
                transcript_dir=tmp_path / task_id,
            )

        config = RunConfig(agent_mode="vanilla")
        records = run_bench(self._problems()[:1], config, factory)
        assert [r.passed_golden for r in records] == [passed]
        assert [w.relative_to(tmp_path) for w in workdirs] == [Path("easy/sim/golden")]
        assert not (tmp_path / "easy" / "golden_check").exists()

    def test_multi_trial_runs_golden_in_sim_golden(self, tmp_path, templates, stub_tool_config):
        """With a toolchain that writes files, the golden check of a multi
        run is the workdir ``sim/golden``, beside the run's own checks."""
        script = {
            "testbench_gen/gen0": fenced(stub_tb()),
            "rtl_gen/init0": fenced(stub_dut("counter16")),
        }

        def factory(task_id, run_index):
            return EngineRuntime(
                backend=ScriptedBackend(script),
                sim_runner=ToolchainSimRunner(stub_tool_config),
                syntax_checker=ToolchainSyntaxChecker(stub_tool_config),
                templates=templates,
                transcript_dir=tmp_path / task_id,
            )

        records = run_bench(self._problems()[:1], RunConfig(pool_size=1), factory)
        assert [(r.status, r.passed_golden) for r in records] == [("solved", True)]
        sim = tmp_path / "easy" / "sim"
        assert sorted(p.name for p in sim.iterdir()) == [
            "golden", "rtl_gen.init0.check0", "testbench_gen.gen0.check0"
        ]
        assert sorted(p.name for p in (sim / "golden").iterdir()) == ["dut.v", "sim.vvp", "tb.v"]
        assert not (tmp_path / "easy" / "golden_check").exists()

    @pytest.mark.parametrize("mode", ["vanilla", "multi"])
    def test_blank_golden_bench_runs_as_none(self, tmp_path, templates, mode):
        def script(request):
            if "rtl_gen/vanilla" in request.tag:
                return [fenced(stub_dut("counter16"))]
            return self._script(request)

        backend = ScriptedBackend(script)

        def factory(task_id, run_index):
            return EngineRuntime(
                backend=backend,
                sim_runner=StubSimRunner(),
                syntax_checker=StubSyntaxChecker(),
                templates=templates,
                transcript_dir=tmp_path / task_id / str(run_index),
            )

        problem = Problem(task_id="blank", spec="a counter", golden_testbench="\n")
        config = RunConfig(pool_size=1, top_k=1, max_debug_rounds=1, agent_mode=mode)
        records = run_bench([problem], config, factory)
        assert [r.status for r in records] == ["budget_exhausted"]
        assert not records[0].passed_golden
        assert not (tmp_path / "blank" / "0" / "golden_check").exists()

    def test_engine_error_recorded_as_attempted(self, tmp_path, templates):
        backend = ScriptedBackend({})  # every tag missing -> BackendError

        def factory(task_id, run_index):
            return EngineRuntime(
                backend=backend,
                sim_runner=StubSimRunner(),
                syntax_checker=StubSyntaxChecker(),
                templates=templates,
                transcript_dir=tmp_path / task_id / str(run_index),
            )

        config = RunConfig(pool_size=1, top_k=1)
        records = run_bench(self._problems()[:1], config, factory, n_runs=1)
        assert len(records) == 1
        assert not records[0].passed_golden
        assert records[0].status in ("error", "budget_exhausted") or records[0].status.startswith("error")


    def test_golden_check_without_a_toolchain_is_an_error_record(self, tmp_path, templates):
        """The run solves at step 2; the golden check's simulator cannot be
        launched, and the job's record says so instead of raising."""

        class NoGoldenSimulator(StubSimRunner):
            def run(self, sources, workdir):
                if any("golden_tb" in s.top_module for s in sources):
                    raise ToolchainMissing("cannot launch simulator vvp: not found")
                return super().run(sources, workdir)

        script = {
            "testbench_gen/gen0": fenced(stub_tb()),
            "rtl_gen/init0": fenced(stub_dut("counter16")),
        }

        def factory(task_id, run_index):
            return EngineRuntime(
                backend=ScriptedBackend(script),
                sim_runner=NoGoldenSimulator(),
                syntax_checker=StubSyntaxChecker(),
                templates=templates,
                transcript_dir=tmp_path / task_id / str(run_index),
            )

        problem = Problem(task_id="counter4", spec="a counter", golden_testbench=stub_golden_tb())
        records = run_bench([problem], RunConfig(pool_size=1), factory)
        assert [(r.status, r.passed_golden) for r in records] == [
            ("error: cannot launch simulator vvp: not found", False)
        ]


class TestGoldenReference:
    """VerilogEval v2's golden bench instantiates ``RefModule``, which only
    the task's ``_ref.sv`` declares."""

    REF = "module RefModule(input clk, input rst, output reg [3:0] q);\n// REF_MARKER\nendmodule\n"

    def _golden(self):
        return stub_golden_tb().replace(
            "endmodule", "  RefModule ref0(.clk(1'b0), .rst(1'b0), .q());\nendmodule"
        )

    def _v2_problem(self, tmp_path):
        d = tmp_path / "dataset"
        d.mkdir()
        (d / "Prob001_counter_prompt.txt").write_text("a counter", encoding="utf-8")
        (d / "Prob001_counter_test.sv").write_text(self._golden(), encoding="utf-8")
        (d / "Prob001_counter_ref.sv").write_text(self.REF, encoding="utf-8")
        return load_problems(d, "verilogeval-v2")[0]

    class Recorder(StubSimRunner):
        def __init__(self):
            super().__init__()
            self.golden_sources = []

        def run(self, sources, workdir):
            if "golden" in str(workdir):
                self.golden_sources.append([s.code for s in sources])
            return super().run(sources, workdir)

    @pytest.mark.parametrize(
        "reference, rtl_name, compiled",
        [
            (REF, "counter4", True),
            ("  always @(posedge clk) q <= q + 1;\nendmodule\n", "counter4", False),  # a v1 body
            (stub_dut("counter16"), "counter4", False),  # a reference of the DUT's own module
            (None, "counter4", False),
            # The bench names counter4, the candidate declares top_module: the
            # reference of counter4 must not stand in for the candidate.
            (stub_dut("counter16"), "top_module", False),
            (REF, "top_module", False),
        ],
        ids=["v2_ref", "v1_body", "same_name", "none", "other_name", "other_name_v2_ref"],
    )
    def test_reference_compiled_only_when_the_bench_needs_it(
        self, tmp_path, reference, rtl_name, compiled
    ):
        rtl = VerilogSource(kind="dut", top_module=rtl_name, code=stub_dut("counter16", rtl_name))
        runner = self.Recorder()
        evaluate_golden(rtl, self._golden(), runner, tmp_path / "golden", reference)
        expected = [rtl.code, self._golden()] + ([reference] if compiled else [])
        assert runner.golden_sources == [expected]

    class DuplicateRejecting(StubSimRunner):
        """Fails the compile, as iverilog does, when two sources declare one module."""

        def run(self, sources, workdir):
            names = [name for s in sources for name in module_names(s.code)]
            if len(names) != len(set(names)):
                error = Diagnostic(file="", line=None, message="module declared twice")
                return SimRun(status="compile_failed", stdout="", diagnostics=(error,))
            return super().run(sources, workdir)

    def test_rtl_declaring_the_reference_module_cannot_grade_itself(self, tmp_path):
        """RTL that brings its own ``RefModule`` still gets the reference
        beside it, and the duplicate module fails the check."""
        code = stub_dut("counter16") + self.REF
        rtl = VerilogSource(kind="dut", top_module="counter4", code=code)
        runner = self.DuplicateRejecting()
        result = evaluate_golden(rtl, self._golden(), runner, tmp_path / "golden", self.REF)
        assert result == GoldenResult(False, "compile failed against golden testbench")

    @pytest.mark.parametrize("mode", ["multi", "vanilla"])
    def test_v2_reference_reaches_the_golden_run_only(self, tmp_path, templates, mode):
        problem = self._v2_problem(tmp_path)
        assert problem.reference_solution == self.REF

        def script(request):
            if "rtl_gen/vanilla" in request.tag or "rtl_gen/init0" in request.tag:
                return [fenced(stub_dut("counter16"))]
            if "testbench_gen" in request.tag:
                return [fenced(stub_tb())]
            raise AssertionError(f"unexpected tag {request.tag}")

        backend = ScriptedBackend(script)
        runner = self.Recorder()
        runtime = EngineRuntime(
            backend=backend,
            sim_runner=runner,
            syntax_checker=StubSyntaxChecker(),
            templates=templates,
            transcript_dir=tmp_path / "run",
        )
        config = RunConfig(pool_size=1, top_k=1, max_debug_rounds=1, agent_mode=mode)
        trial = run_trial(problem, 0, config, runtime)
        assert trial.passed_golden
        assert len(runner.golden_sources) == 1 and self.REF in runner.golden_sources[0]
        assert backend.requests
        assert not any(
            "REF_MARKER" in m.content for r in backend.requests for m in r.messages
        )
