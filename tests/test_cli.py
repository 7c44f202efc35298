import json
import shutil
import threading
from contextlib import closing
from pathlib import Path

import pytest

from rtlforge import agents, simbridge
from rtlforge.bench import REPORT_FILES
from rtlforge.cli import _RUN_FLAGS, main
from rtlforge.gateway import CassetteRecorder, NamespacedBackend
from rtlforge.pipeline import EngineRuntime, RunConfig, run_pipeline
from rtlforge.bench import run_bench

from fixtures import (
    COUNTER_INTERFACE,
    COUNTER_SPEC,
    fenced,
    stub_counter_problem,
    stub_dut,
    stub_golden_tb,
    stub_tb,
)
from toolstub import ScriptedBackend, StubSimRunner, StubSyntaxChecker, write_stub_toolchain

GOOD_TB = fenced(stub_tb())
CLEAN_RTL = fenced(stub_dut("counter16"))
GLITCH_RTL = fenced(stub_dut("counter16:glitch@9"))


def record_generate_cassette(path, script, config, templates):
    """Produce a cassette by running the pipeline API exactly as the CLI will."""
    with closing(CassetteRecorder(ScriptedBackend(script), path)) as recorder:
        runtime = EngineRuntime(
            backend=recorder,
            sim_runner=StubSimRunner(),
            syntax_checker=StubSyntaxChecker(),
            templates=templates,
            transcript_dir=path.parent / "record_run",
        )
        return run_pipeline(stub_counter_problem(), config, runtime)


def record_bench_cassette(path, script, config, problems, templates, runs=1):
    recorder = CassetteRecorder(ScriptedBackend(script), path)

    def factory(task_id, run_index):
        return EngineRuntime(
            backend=NamespacedBackend(recorder, f"{task_id}/run{run_index}/"),
            sim_runner=StubSimRunner(),
            syntax_checker=StubSyntaxChecker(),
            templates=templates,
            transcript_dir=path.parent / "record_bench" / task_id / str(run_index),
        )

    with closing(recorder):
        return run_bench(problems, config, factory, n_runs=runs)


@pytest.fixture
def spec_files(tmp_path):
    spec = tmp_path / "counter4.txt"
    spec.write_text(COUNTER_SPEC, encoding="utf-8")
    iface = tmp_path / "counter4_ifc.txt"
    iface.write_text(COUNTER_INTERFACE, encoding="utf-8")
    return spec, iface


def cli(args, stub_toolchain):
    compiler, vvp = stub_toolchain
    return main(args + ["--compiler-path", compiler, "--vvp-path", vvp])


class TestHelp:
    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for command in ("generate", "bench", "inspect-trace", "replay-verify"):
            assert command in out

    @pytest.mark.parametrize("command", ["generate", "bench"])
    def test_every_run_flag_documented(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for flag in _RUN_FLAGS:
            assert flag in out, f"{flag} missing from {command} --help"
        assert "--fanout-sampling" in out and "--scrub" not in out


class TestGenerate:
    def test_replay_solves_and_writes_final(
        self, tmp_path, spec_files, stub_toolchain, templates, capsys
    ):
        spec, iface = spec_files
        cassette = tmp_path / "solve.jsonl"
        config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=2)
        outcome = record_generate_cassette(
            cassette,
            {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL},
            config,
            templates,
        )
        assert outcome.status == "solved"
        out = tmp_path / "cli_out"
        code = cli(
            [
                "generate", str(spec),
                "--task-id", "counter4",
                "--module-interface", str(iface),
                "--out", str(out),
                "--backend", "replay",
                "--cassette", str(cassette),
                "--pool-size", "2", "--top-k", "1", "--max-debug-rounds", "2",
            ],
            stub_toolchain,
        )
        assert code == 0
        assert (out / "final.v").exists()
        assert "DUT_BEHAVIOR:counter16" in (out / "final.v").read_text()
        summary = json.loads((out / "outcome.json").read_text())
        assert summary["status"] == "solved"
        assert summary["config"]["pool_size"] == 2

    def test_record_closes_its_cassette(
        self, tmp_path, spec_files, stub_toolchain, monkeypatch
    ):
        from rtlforge import cli as cli_module

        recorders = []

        class Recorder(CassetteRecorder):
            def __init__(self, inner, path):
                super().__init__(inner, path)
                recorders.append(self)

        script = {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL}
        monkeypatch.setattr(cli_module, "HttpBackend", lambda **_: ScriptedBackend(script))
        monkeypatch.setattr(cli_module, "CassetteRecorder", Recorder)
        spec, _ = spec_files
        cassette = tmp_path / "rec.jsonl"
        args = ["generate", str(spec), "--out", str(tmp_path / "out"),
                "--backend", "record", "--cassette", str(cassette)]
        assert cli(args, stub_toolchain) == 0
        assert len(recorders) == 1 and recorders[0]._fh.closed
        assert main(["replay-verify", str(cassette)]) == 0

    def test_replay_reruns_byte_identical_outputs(
        self, tmp_path, spec_files, stub_toolchain, templates
    ):
        spec, iface = spec_files
        cassette = tmp_path / "solve.jsonl"
        config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=2)
        record_generate_cassette(
            cassette,
            {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL},
            config,
            templates,
        )
        outs = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            assert (
                cli(
                    ["generate", str(spec), "--task-id", "counter4",
                     "--module-interface", str(iface), "--out", str(out),
                     "--backend", "replay", "--cassette", str(cassette),
                     "--pool-size", "2", "--top-k", "1", "--max-debug-rounds", "2"],
                    stub_toolchain,
                )
                == 0
            )
            outs.append(out)
        assert (outs[0] / "final.v").read_bytes() == (outs[1] / "final.v").read_bytes()
        assert (outs[0] / "outcome.json").read_bytes() == (outs[1] / "outcome.json").read_bytes()
        assert (outs[0] / "run" / "events.jsonl").read_bytes() == (
            outs[1] / "run" / "events.jsonl"
        ).read_bytes()

    def test_budget_exhausted_exit_two_with_best_effort(
        self, tmp_path, spec_files, stub_toolchain, templates
    ):
        spec, iface = spec_files
        cassette = tmp_path / "budget.jsonl"
        config = RunConfig(pool_size=1, top_k=1, max_debug_rounds=1)
        script = {
            "testbench_gen/gen0": GOOD_TB,
            "rtl_gen/init0": GLITCH_RTL,
            "judge/e0": "VERDICT: rtl_faulty",
            "rtl_gen/sample/e0": [fenced(stub_dut("counter16:glitch@9", name="cand"))],
            "debug/r1/c1": fenced(stub_dut("counter16:glitch@9", name="retry")),
        }
        outcome = record_generate_cassette(cassette, script, config, templates)
        assert outcome.status == "budget_exhausted"
        out = tmp_path / "cli_out"
        code = cli(
            [
                "generate", str(spec),
                "--task-id", "counter4",
                "--module-interface", str(iface),
                "--out", str(out),
                "--backend", "replay",
                "--cassette", str(cassette),
                "--pool-size", "1", "--top-k", "1", "--max-debug-rounds", "1",
            ],
            stub_toolchain,
        )
        assert code == 2
        assert (out / "final.v").exists()  # best-effort RTL still written

    def test_rerun_without_a_best_leaves_no_earlier_rtl(
        self, tmp_path, spec_files, stub_toolchain, templates
    ):
        """A solved run, then a rerun into the same --out that ends in a
        replay miss: no final.v or best.v of the first run is left."""
        spec, iface = spec_files
        cassette = tmp_path / "solve.jsonl"
        config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=2)
        script = {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL}
        record_generate_cassette(cassette, script, config, templates)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "cli_out"
        codes = [
            cli(
                ["generate", str(spec), "--task-id", "counter4",
                 "--module-interface", str(iface), "--out", str(out),
                 "--backend", "replay", "--cassette", str(tape),
                 "--pool-size", "2", "--top-k", "1", "--max-debug-rounds", "2"],
                stub_toolchain,
            )
            for tape in (cassette, empty)
        ]
        assert codes == [0, 1]
        assert json.loads((out / "outcome.json").read_text())["status"] == "error"
        assert not (out / "final.v").exists()
        assert not (out / "run" / "best.v").exists()

    def test_a_sim_that_is_a_file_ends_with_one_error_line(
        self, tmp_path, spec_files, stub_toolchain, templates, capsys
    ):
        """A rerun removes the earlier run's sim/ tree; a sim that is a file
        cannot be, and ends the command before the run's first request."""
        spec, iface = spec_files
        cassette = tmp_path / "solve.jsonl"
        config = RunConfig(pool_size=2, top_k=1, max_debug_rounds=2)
        script = {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL}
        record_generate_cassette(cassette, script, config, templates)
        out = tmp_path / "cli_out"
        (out / "run").mkdir(parents=True)
        (out / "run" / "sim").write_text("not a directory\n", encoding="utf-8")
        code = cli(
            ["generate", str(spec), "--task-id", "counter4",
             "--module-interface", str(iface), "--out", str(out),
             "--backend", "replay", "--cassette", str(cassette),
             "--pool-size", "2", "--top-k", "1", "--max-debug-rounds", "2"],
            stub_toolchain,
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.endswith(f": '{out / 'run' / 'sim'}'\n")
        assert err.count("\n") == 1
        assert (out / "run" / "sim").read_text(encoding="utf-8") == "not a directory\n"
        assert not (out / "run" / "events.jsonl").exists()

    def test_missing_spec_file_exit_one(self, tmp_path, stub_toolchain, capsys):
        code = cli(
            ["generate", str(tmp_path / "nope.txt"), "--backend", "replay",
             "--cassette", str(tmp_path / "c.jsonl")],
            stub_toolchain,
        )
        assert code == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_config_file_precedence(
        self, tmp_path, spec_files, stub_toolchain, templates
    ):
        spec, iface = spec_files
        cassette = tmp_path / "solve.jsonl"
        config = RunConfig(pool_size=7, top_k=5, max_debug_rounds=2)
        record_generate_cassette(
            cassette,
            {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL},
            config,
            templates,
        )
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps({"pool_size": 7, "top_k": 5, "max_debug_rounds": 2}),
            encoding="utf-8",
        )
        out1 = tmp_path / "o1"
        assert (
            cli(
                ["generate", str(spec), "--task-id", "counter4",
                 "--module-interface", str(iface), "--out", str(out1),
                 "--backend", "replay", "--cassette", str(cassette),
                 "--config", str(cfg_file)],
                stub_toolchain,
            )
            == 0
        )
        echo = json.loads((out1 / "outcome.json").read_text())["config"]
        assert echo["top_k"] == 5 and echo["pool_size"] == 7  # file beats defaults

        out2 = tmp_path / "o2"
        assert (
            cli(
                ["generate", str(spec), "--task-id", "counter4",
                 "--module-interface", str(iface), "--out", str(out2),
                 "--backend", "replay", "--cassette", str(cassette),
                 "--config", str(cfg_file), "--top-k", "2"],
                stub_toolchain,
            )
            == 0
        )
        echo = json.loads((out2 / "outcome.json").read_text())["config"]
        assert echo["top_k"] == 2  # flag beats file

    def test_unknown_config_key_rejected(self, tmp_path, spec_files, stub_toolchain, capsys):
        spec, _ = spec_files
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"pool_sizes": 7}), encoding="utf-8")
        code = cli(
            ["generate", str(spec), "--config", str(cfg_file), "--backend", "replay",
             "--cassette", str(tmp_path / "c.jsonl")],
            stub_toolchain,
        )
        assert code == 1
        assert "pool_sizes" in capsys.readouterr().err


def _bench_dataset(tmp_path):
    rows = [
        {
            "task_id": "counter_easy",
            "spec": COUNTER_SPEC,
            "module_interface": COUNTER_INTERFACE,
            "golden_testbench": stub_golden_tb(),
        },
        {
            "task_id": "counter_hard",
            "spec": COUNTER_SPEC + " Make it glitch-free.",
            "module_interface": COUNTER_INTERFACE,
            "golden_testbench": stub_golden_tb(),
        },
    ]
    path = tmp_path / "set.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    from rtlforge.problems import load_problems

    return path, load_problems(path)


def _bench_script(request):
    tag = request.tag
    if "testbench_gen" in tag:
        return [GOOD_TB]
    if "rtl_gen/init0" in tag:
        return [CLEAN_RTL if tag.startswith("counter_easy/") else GLITCH_RTL]
    if "judge" in tag:
        return ["VERDICT: rtl_faulty"]
    if "rtl_gen/sample" in tag:
        return [fenced(stub_dut("counter16:glitch@9", name="cand"))]
    if "debug" in tag:
        return [fenced(stub_dut("counter16:glitch@9", name="trial"))]
    raise AssertionError(f"unexpected tag {tag}")


BENCH_CONFIG = dict(pool_size=1, top_k=1, max_debug_rounds=1)
BENCH_FLAGS = ["--pool-size", "1", "--top-k", "1", "--max-debug-rounds", "1"]


class TestBench:
    def _record(self, tmp_path, templates, mode="multi"):
        dataset, problems = _bench_dataset(tmp_path)
        cassette = tmp_path / "bench.jsonl"
        config = RunConfig(agent_mode=mode, **BENCH_CONFIG)
        record_bench_cassette(cassette, _bench_script, config, problems, templates)
        return dataset, cassette

    def test_report_rows_and_exit_zero(self, tmp_path, stub_toolchain, templates, capsys):
        dataset, cassette = self._record(tmp_path, templates)
        out = tmp_path / "bench_out"
        code = cli(
            ["bench", str(dataset), "--out", str(out), "--backend", "replay",
             "--cassette", str(cassette)] + BENCH_FLAGS,
            stub_toolchain,
        )
        assert code == 0  # all problems attempted, even though one failed
        rows = (out / "report.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 problems
        report = json.loads((out / "report.json").read_text())
        assert report["aggregate_pass_at_1"] == 0.5

    def test_replay_reruns_byte_identical(self, tmp_path, stub_toolchain, templates):
        dataset, cassette = self._record(tmp_path, templates)
        outputs = []
        for name in ("b1", "b2"):
            out = tmp_path / name
            assert (
                cli(
                    ["bench", str(dataset), "--out", str(out), "--backend", "replay",
                     "--cassette", str(cassette)] + BENCH_FLAGS,
                    stub_toolchain,
                )
                == 0
            )
            outputs.append(out)
        for filename in ("report.csv", "scores_by_round.csv"):
            assert (outputs[0] / filename).read_bytes() == (outputs[1] / filename).read_bytes()

    def test_single_mode_shares_conversation_id(self, tmp_path, stub_toolchain, templates):
        dataset, problems = _bench_dataset(tmp_path)
        cassette = tmp_path / "single.jsonl"
        config = RunConfig(agent_mode="single", **BENCH_CONFIG)
        record_bench_cassette(cassette, _bench_script, config, problems[:1], templates)
        single_dataset = tmp_path / "one.jsonl"
        single_dataset.write_text(
            dataset.read_text().splitlines()[0] + "\n", encoding="utf-8"
        )
        out = tmp_path / "single_out"
        code = cli(
            ["bench", str(single_dataset), "--out", str(out), "--backend", "replay",
             "--cassette", str(cassette), "--mode", "single"] + BENCH_FLAGS,
            stub_toolchain,
        )
        assert code == 0
        events_path = out / "runs" / "counter_easy" / "run0" / "events.jsonl"
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        convs = {e["conv"] for e in events if e["event"] == "llm_call"}
        assert convs == {"conv-shared"}

    def test_concurrent_runs_share_the_toolchain_slots(self, tmp_path, templates, monkeypatch):
        """Four pipelines at once never have more live compiler and simulator
        processes than the process-wide toolchain slots."""
        slots = 2
        monkeypatch.setattr(simbridge, "TOOLCHAIN_SLOTS", threading.BoundedSemaphore(slots))
        log = tmp_path / "launches.txt"
        toolchain = write_stub_toolchain(tmp_path / "bin", launch_log=log)
        dataset, problems = _bench_dataset(tmp_path)
        cassette = tmp_path / "bench.jsonl"

        def script(request):  # four distinct samples, each compiled and simulated
            if "rtl_gen/sample" in request.tag:
                return [fenced(stub_dut("counter16:glitch@9", name=f"cand{i}")) for i in range(4)]
            return _bench_script(request)

        config = RunConfig(pool_size=4, top_k=2, max_debug_rounds=1)
        record_bench_cassette(cassette, script, config, problems, templates, runs=2)
        code = cli(
            ["bench", str(dataset), "--out", str(tmp_path / "out"), "--backend", "replay",
             "--cassette", str(cassette), "--runs", "2", "--workers", "4",
             "--pool-size", "4", "--top-k", "2", "--max-debug-rounds", "1"],
            toolchain,
        )
        assert code == 0
        spans = [[float(t) for t in line.split()] for line in log.read_text().splitlines()]
        # At equal times an end sorts before a start: touching spans do not overlap.
        edges = sorted([(end, -1) for _, end in spans] + [(start, 1) for start, _ in spans])
        live = peak = 0
        for _, step in edges:
            live += step
            peak = max(peak, live)
        assert 1 < peak <= slots

    @pytest.mark.parametrize(
        "interrupted_run, message",
        [(1, "interrupted; partial report for 2 runs written"),
         (0, "interrupted before any run completed")],
    )
    def test_interrupt_writes_a_partial_report(
        self, tmp_path, monkeypatch, capsys, interrupted_run, message
    ):
        """The interrupted job of three ends the bench with 130 and a report
        of every run that finished. Job 1, on two workers, raises once job 2
        has started, so job 2 finishes after the interrupt and is reported.
        In job 0's case every job raises, so whichever jobs the one worker
        takes before the cancel, none finishes and no report is written."""
        from rtlforge import bench

        third_started = threading.Event()

        def trial(problem, run_index, config, runtime):
            if run_index == 2:
                third_started.set()
            if interrupted_run == 0:
                raise KeyboardInterrupt
            if run_index == interrupted_run:
                assert third_started.wait(30)
                raise KeyboardInterrupt
            return bench.TrialRecord(problem.task_id, run_index, True, status="solved")

        monkeypatch.setattr(bench, "run_trial", trial)
        dataset, _ = _bench_dataset(tmp_path)
        one_problem = tmp_path / "one.jsonl"
        one_problem.write_text(dataset.read_text().splitlines()[0] + "\n", encoding="utf-8")
        cassette = tmp_path / "empty.jsonl"
        cassette.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["bench", str(one_problem), "--out", str(out), "--runs", "3",
                "--workers", str(1 + interrupted_run),
                "--backend", "replay", "--cassette", str(cassette)]
        assert main(argv) == 130
        assert message in capsys.readouterr().err
        if interrupted_run:
            runs = json.loads((out / "report.json").read_text())["runs"]
            assert [(r["task_id"], r["run_index"]) for r in runs] == [
                ("counter_easy", 0), ("counter_easy", 2)
            ]
        else:
            assert not (out / "report.json").exists()

    def test_each_setting_echoed_once(self, tmp_path, spec_files, stub_toolchain, templates):
        dataset, cassette = self._record(tmp_path, templates, mode="single")
        flags = ["--backend", "replay", "--cassette", str(cassette), "--mode", "single",
                 *BENCH_FLAGS]
        bench = ["bench", str(dataset), "--out", str(tmp_path / "b"), *flags]
        assert cli(bench, stub_toolchain) == 0
        # No generate request is on the bench's cassette: the run ends in an error.
        generate = ["generate", str(spec_files[0]), "--out", str(tmp_path / "g"), *flags]
        assert cli(generate, stub_toolchain) == 1
        for path in (tmp_path / "b" / "report.json", tmp_path / "g" / "outcome.json"):
            echo = json.loads(path.read_text())["config"]
            assert echo["mode"] == "single" and "agent_mode" not in echo
            assert echo["pool_size"] == 1 and echo["temperature"] == 0.85

    def test_low_profile_echoed_in_report(self, tmp_path, stub_toolchain, templates):
        dataset, cassette = self._record(tmp_path, templates)
        out = tmp_path / "low_out"
        code = cli(
            ["bench", str(dataset), "--out", str(out), "--backend", "replay",
             "--cassette", str(cassette), "--temp-profile", "low"] + BENCH_FLAGS,
            stub_toolchain,
        )
        assert code == 0
        config_echo = json.loads((out / "report.json").read_text())["config"]
        assert config_echo["temperature"] == 0.0
        assert config_echo["top_p"] == 0.01

    @pytest.mark.parametrize("name", REPORT_FILES)
    def test_unusable_report_path_refused_before_the_first_run(
        self, tmp_path, stub_toolchain, monkeypatch, capsys, name
    ):
        from rtlforge import cli as cli_module

        backend = ScriptedBackend(_bench_script)
        monkeypatch.setattr(cli_module, "HttpBackend", lambda **_: backend)
        dataset, _ = _bench_dataset(tmp_path)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert cli(["bench", str(dataset), "--out", str(out)] + BENCH_FLAGS, stub_toolchain) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write report {out / name}: not a regular file\n"
        assert backend.requests == [] and not (out / "runs").exists()


class TestPromptsDir:
    MESSAGES = {
        "missing": "prompt template not found: {path}",
        "not_utf8": "cannot read prompt template {path}: ",
    }

    @pytest.mark.parametrize("command", ["generate", "bench"])
    @pytest.mark.parametrize("defect", MESSAGES)
    def test_bad_template_ends_the_command_before_the_first_request(
        self, tmp_path, spec_files, monkeypatch, capsys, command, defect
    ):
        """A prompts dir that lacks ``debug/trial.txt``, the template of step
        5, or holds one that is not UTF-8, ends the command with one error
        line naming the file before the backend sees a request."""
        from rtlforge import cli as cli_module

        backend = ScriptedBackend(_bench_script)
        monkeypatch.setattr(cli_module, "HttpBackend", lambda **_: backend)
        prompts = tmp_path / "prompts"
        shutil.copytree(Path(agents.__file__).parent / "prompts", prompts)
        trial = prompts / "debug" / "trial.txt"
        if defect == "missing":
            trial.unlink()
        else:
            trial.write_bytes(b"caf\xe9 {{rtl}}\n")
        target = spec_files[0] if command == "generate" else _bench_dataset(tmp_path)[0]
        argv = [command, str(target), "--out", str(tmp_path / "out"), "--prompts-dir", str(prompts)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + self.MESSAGES[defect].format(path=trial))
        assert err.count("\n") == 1 and "Traceback" not in err
        assert backend.requests == []


class TestBadRunValues:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["generate", "{spec}", "--top-k", "0"], "top_k"),
            (["generate", "{spec}", "--config", "{bogus_mode}"], "bogus"),
            (["generate", "{spec}", "--config", "{text_top_k}"], "invalid run configuration"),
            (["bench", "{dataset}", "--runs", "0"], "runs"),
            (["inspect-trace", "{glitch_log}", "--window-len", "0"], "window_len"),
            (["generate", "{missing}"], "spec file not found: "),
            (["generate", "{spec}", "--golden-tb", "{missing}"], "golden testbench not found"),
            (["generate", "{spec}", "--module-interface", "{tmp}"], "cannot read module interface"),
            (["generate", "{spec}", "--config", "{five}"], "must hold a JSON object"),
            (["generate", "{spec}", "--config", "{not_json}"], "cannot read config file"),
            (["bench", "{dataset}", "--config", "{scrub}"], "unknown config keys: ['scrub']"),
            (["inspect-trace", "{latin1_log}"], "cannot read simulation log"),
            (["bench", "{tmp}"], "cannot read dataset"),
            (["replay-verify", "{tmp}"], "cannot read cassette"),
            (["replay-verify", "{bom_cassette}"], "cannot read cassette"),
            (["generate", "{spec}", "--cassette", "{bom_cassette}"], "cannot read cassette"),
            (["generate", "{empty_spec}"], "spec must be non-empty"),
            (["bench", "{dataset}", "--config", "{text_runs}"], "runs must be int"),
            (["bench", "{dataset}", "--config", "{text_workers}"], "workers must be int"),
            (["generate", "{spec}", "--config", "{float_pool}"], "pool_size must be int"),
            (["generate", "{spec}", "--config", "{text_fanout}"], "fanout_sampling"),
            (["bench", "{dataset}", "--config", "{spaced_backend}"], "backend must be one of"),
            (["bench", "{dataset}", "--config", "{golden_pattern}"], "unknown config keys"),
            (["bench", "{dataset}", "--workers", "0"], "workers must be >= 1"),
            (["bench", "{dataset}", "--workers", "-3"], "workers must be >= 1"),
            (["generate", "{spec}", "--out", "{five}"], "cannot create output directory"),
            (["bench", "{dataset}", "--out", "{five}"], "cannot create output directory"),
            (["bench", "{empty_dataset}"], "no problems in dataset"),
            (["generate", "{blank_spec}"], "spec must be non-empty"),
            (["generate", "{spec}", "--out", "{gen_out}"], "gen_out/run"),
            (["bench", "{dataset}", "--out", "{bench_out}"], "bench_out/runs"),
            (["bench", "{dataset}", "--out", "{report_out}"], "report_out/report.json"),
        ],
    )
    def test_error_line_and_exit_one(self, tmp_path, spec_files, capsys, argv, named):
        from toolstub import synth_counter_trace

        bogus_mode = tmp_path / "cfg.json"
        bogus_mode.write_text(json.dumps({"mode": "bogus"}), encoding="utf-8")
        text_top_k = tmp_path / "text.json"
        text_top_k.write_text(json.dumps({"top_k": "3"}), encoding="utf-8")
        five = tmp_path / "five.json"
        five.write_text("5", encoding="utf-8")
        not_json = tmp_path / "not.json"
        not_json.write_text("{top_k: 3}", encoding="utf-8")
        scrub = tmp_path / "scrub.json"
        scrub.write_text(json.dumps({"scrub": True}), encoding="utf-8")
        latin1_log = tmp_path / "latin1.log"
        latin1_log.write_bytes(b"CHECK caf\xe9\n")
        glitch_log = tmp_path / "sim.log"
        glitch_log.write_text(synth_counter_trace(glitch_at=9), encoding="utf-8")
        cassette = tmp_path / "empty.jsonl"
        cassette.write_text("", encoding="utf-8")
        bom_cassette = tmp_path / "bom.jsonl"
        bom_cassette.write_bytes(b"\xff\xfe")
        empty_spec = tmp_path / "empty.txt"
        empty_spec.write_text("", encoding="utf-8")
        empty_dataset = tmp_path / "empty_set.jsonl"
        empty_dataset.write_text("", encoding="utf-8")
        blank_spec = tmp_path / "blank.txt"
        blank_spec.write_text(" \n\t\n", encoding="utf-8")
        # Output directories with a file where a run directory goes, or a
        # directory where the report goes.
        for out_dir, blocker in [("gen_out", "run"), ("bench_out", "runs")]:
            (tmp_path / out_dir).mkdir()
            (tmp_path / out_dir / blocker).write_text("", encoding="utf-8")
        (tmp_path / "report_out" / "report.json").mkdir(parents=True)
        configs = {
            "text_runs": {"runs": "2"},
            "text_workers": {"workers": "2"},
            "float_pool": {"pool_size": 2.5},
            "text_fanout": {"fanout_sampling": "no"},
            "spaced_backend": {"backend": "replay "},
            "golden_pattern": {"golden_pass_pattern": "PASS"},
        }
        for name, cfg in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
        paths = {
            "spec": spec_files[0],
            "bogus_mode": bogus_mode,
            "text_top_k": text_top_k,
            "dataset": _bench_dataset(tmp_path)[0],
            "glitch_log": glitch_log,
            "missing": tmp_path / "missing.v",
            "tmp": tmp_path,
            "five": five,
            "not_json": not_json,
            "scrub": scrub,
            "latin1_log": latin1_log,
            "bom_cassette": bom_cassette,
            "empty_spec": empty_spec,
            "empty_dataset": empty_dataset,
            "blank_spec": blank_spec,
            **{name: tmp_path / name for name in ("gen_out", "bench_out", "report_out")},
            **{name: tmp_path / f"{name}.json" for name in configs},
        }
        argv = [arg.format(**paths) for arg in argv]
        if argv[0] in ("generate", "bench"):
            # Ahead of the case's own flags, which win.
            argv[1:1] = ["--out", str(tmp_path / "out"), "--backend", "replay",
                         "--cassette", str(cassette)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err


class TestInspectTrace:
    def test_prints_summary_and_window(self, tmp_path, capsys):
        from toolstub import synth_counter_trace

        trace_file = tmp_path / "sim.log"
        trace_file.write_text(synth_counter_trace(glitch_at=9), encoding="utf-8")
        assert main(["inspect-trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "checks:        16" in out
        assert "mismatches:    1" in out
        assert "first mismatch: 9" in out
        assert "4'b1000" in out  # rendered window row

    def test_no_checks_exit_one(self, tmp_path, capsys):
        trace_file = tmp_path / "sim.log"
        trace_file.write_text("nothing here\n", encoding="utf-8")
        assert main(["inspect-trace", str(trace_file)]) == 1
        assert "CHECK" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["inspect-trace", str(tmp_path / "absent.log")]) == 1


class TestReplayVerify:
    def test_clean_cassette(self, tmp_path, templates, capsys):
        cassette = tmp_path / "ok.jsonl"
        record_generate_cassette(
            cassette,
            {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL},
            RunConfig(pool_size=1, top_k=1),
            templates,
        )
        assert main(["replay-verify", str(cassette)]) == 0
        assert "cassette ok" in capsys.readouterr().out

    def test_corrupted_cassette(self, tmp_path, templates, capsys):
        cassette = tmp_path / "bad.jsonl"
        record_generate_cassette(
            cassette,
            {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL},
            RunConfig(pool_size=1, top_k=1),
            templates,
        )
        lines = cassette.read_text().splitlines()
        cassette.write_text("\n".join(lines + [lines[0]]) + "\n", encoding="utf-8")
        assert main(["replay-verify", str(cassette)]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_truncated_tail_reported_by_line_number(self, tmp_path, templates, capsys):
        cassette = tmp_path / "cut.jsonl"
        record_generate_cassette(
            cassette,
            {"testbench_gen/gen0": GOOD_TB, "rtl_gen/init0": CLEAN_RTL},
            RunConfig(pool_size=1, top_k=1),
            templates,
        )
        lines = cassette.read_text().splitlines(keepends=True)
        assert len(lines) == 2
        cassette.write_text(lines[0] + lines[1][:40], encoding="utf-8")  # a cut append
        assert main(["replay-verify", str(cassette)]) == 1
        assert "cassette line 2: truncated final line" in capsys.readouterr().err

    def test_missing_cassette(self, tmp_path):
        assert main(["replay-verify", str(tmp_path / "ghost.jsonl")]) == 1
