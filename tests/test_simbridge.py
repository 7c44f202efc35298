import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from rtlforge import simbridge
from rtlforge.simbridge import (
    Diagnostic,
    ToolchainConfig,
    ToolchainMissing,
    VerilogSource,
    check_syntax,
    compile_sources,
    parse_diagnostics,
    run_sim,
    simulate,
    toolchain_available,
)

from conftest import requires_toolchain
from fixtures import (
    REAL_COUNTER_DUT,
    REAL_COUNTER_TB,
    stub_dut,
    stub_tb,
)


def live_members(group: int) -> list[int]:
    """The pids of process group ``group`` that have not exited."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process exited while the directory was listed
        if int(fields[2]) == group and fields[0] != "Z":
            pids.append(int(stat.parent.name))
    return pids


def dut(behavior="score:0:16", err_line=0):
    return VerilogSource(
        kind="dut", top_module="counter4", code=stub_dut(behavior, err_line=err_line)
    )


def tb(**kwargs):
    return VerilogSource(kind="testbench", top_module="counter4_tb", code=stub_tb(**kwargs))


class TestVerilogSource:
    def test_valid(self):
        source = VerilogSource(kind="dut", top_module="top_module", code="module m; endmodule")
        assert not source.sentinel

    @pytest.mark.parametrize("name", ["1bad", "has space", "", "semi;colon"])
    def test_bad_identifier(self, name):
        with pytest.raises(ValueError):
            VerilogSource(kind="dut", top_module=name, code="x")

    def test_empty_code(self):
        with pytest.raises(ValueError):
            VerilogSource(kind="dut", top_module="m", code="")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            VerilogSource(kind="program", top_module="m", code="x")


class TestParseDiagnostics:
    def test_file_line_message(self):
        diags = parse_diagnostics("dut.v:3: syntax error\ntb.v:17: error: giving up\n")
        assert diags[0] == Diagnostic(file="dut.v", line=3, message="syntax error")
        assert diags[1].file == "tb.v" and diags[1].line == 17

    def test_unparseable_kept_verbatim(self):
        diags = parse_diagnostics("I give up.\n")
        assert diags[0].line is None
        assert diags[0].message == "I give up."

    def test_warning_severity(self):
        diags = parse_diagnostics("dut.v:5: warning: implicit wire\n")
        assert diags[0].severity == "warning"

    @pytest.mark.parametrize(
        "line, severity",
        [
            ("dut.v:4: error: Unknown module type: warning_led", "error"),
            ("dut.v:4: Unknown module type: warning_led", "error"),
            ("dut.v:5: Warning: implicit wire", "warning"),
            ("warning: some modules have no timescale", "warning"),
            ("I give up on warning_led.", "error"),
        ],
    )
    def test_warning_only_when_the_message_starts_with_it(self, line, severity):
        assert [d.severity for d in parse_diagnostics(line + "\n")] == [severity]

    def test_blank_lines_skipped(self):
        assert parse_diagnostics("\n\n") == []


class TestCompile:
    def test_success_produces_artifact(self, tmp_path, stub_tool_config):
        assert compile_sources([dut(), tb()], tmp_path / "w", stub_tool_config) == ()
        assert (tmp_path / "w" / "sim.vvp").exists()

    def test_failure_carries_all_diagnostics(self, tmp_path, stub_tool_config):
        broken = VerilogSource(
            kind="dut",
            top_module="counter4",
            code="//ERR:3:syntax error\n//ERR:9:unexpected endmodule\nmodule counter4; endmodule\n",
        )
        errors = compile_sources([broken, tb()], tmp_path / "w", stub_tool_config)
        lines = [d.line for d in errors]
        assert lines[:2] == [3, 9]  # every parseable error, not just the first
        assert all(d.severity == "error" and d.message for d in errors)
        # trailing unparseable stderr is kept verbatim rather than dropped
        assert any(d.line is None and "give up" in d.message for d in errors)
        assert not (tmp_path / "w" / "sim.vvp").exists()

    def test_empty_sources_rejected(self, tmp_path, stub_tool_config):
        with pytest.raises(ValueError):
            compile_sources([], tmp_path / "w", stub_tool_config)

    def test_nonempty_workdir_rejected(self, tmp_path, stub_tool_config):
        work = tmp_path / "w"
        work.mkdir()
        (work / "junk.txt").write_text("x", encoding="utf-8")
        with pytest.raises(ValueError):
            compile_sources([dut()], work, stub_tool_config)

    def test_sentinel_rejected(self, tmp_path, stub_tool_config):
        sentinel = VerilogSource(kind="dut", top_module="x", code="// nope", sentinel=True)
        with pytest.raises(ValueError):
            compile_sources([sentinel], tmp_path / "w", stub_tool_config)

    @pytest.mark.parametrize("existing", [False, True])
    def test_absent_or_empty_workdir_taken(self, tmp_path, stub_tool_config, existing):
        """An absent workdir is made with its missing parents; an empty one is used."""
        work = tmp_path / "a" / "b" / "w"
        if existing:
            work.mkdir(parents=True)
        assert compile_sources([dut(), tb()], work, stub_tool_config) == ()
        assert sorted(p.name for p in work.iterdir()) == ["dut.v", "sim.vvp", "tb.v"]

    def test_each_binary_resolved_once_per_config(self, tmp_path, stub_tool_config, monkeypatch):
        calls = []
        resolve = simbridge._resolve

        def counted(path, *args):
            calls.append(path)
            return resolve(path, *args)

        monkeypatch.setattr(simbridge, "_resolve", counted)
        for i in range(3):
            assert run_sim([dut(), tb()], tmp_path / f"w{i}", stub_tool_config).status == "ok"
            assert check_syntax(dut(), tmp_path / f"s{i}", stub_tool_config) == []
        assert calls == [stub_tool_config.compiler_path, stub_tool_config.vvp_path]

    def test_failed_resolution_is_not_kept(self, tmp_path, stub_toolchain):
        compiler = tmp_path / "late-iverilog"
        config = ToolchainConfig(compiler_path=str(compiler))
        with pytest.raises(ToolchainMissing):
            config.compiler
        shutil.copy(stub_toolchain[0], compiler)
        assert config.compiler == str(compiler.resolve())

    def test_compiler_deleted_after_first_launch(self, tmp_path, stub_toolchain):
        compiler = tmp_path / "doomed-iverilog"
        shutil.copy(stub_toolchain[0], compiler)
        config = ToolchainConfig(compiler_path=str(compiler))
        assert compile_sources([dut(), tb()], tmp_path / "w0", config) == ()
        compiler.unlink()
        with pytest.raises(ToolchainMissing, match="cannot launch compiler"):
            compile_sources([dut(), tb()], tmp_path / "w1", config)

    @pytest.mark.parametrize(
        "script, message",
        [
            ("echo 'dut.v:1: warning: implicit wire' >&2\nexit 3", "compiler exited with status 3"),
            ("exit 0", "compiler exited with status 0"),  # built no runnable
            ("sleep 3", "compiler timed out after 0.3 seconds"),
        ],
        ids=["status", "no_runnable", "timeout"],
    )
    def test_failure_without_a_parseable_error(self, tmp_path, monkeypatch, script, message):
        """A failed compile with no error line returns one line saying why."""
        compiler = tmp_path / "fake-iverilog"
        compiler.write_text(f"#!/bin/sh\n{script}\n", encoding="utf-8")
        compiler.chmod(0o755)
        monkeypatch.setattr(simbridge, "TIMEOUT_GRACE", 0.0)
        config = ToolchainConfig(compiler_path=str(compiler), sim_timeout=0.3)
        errors = compile_sources([dut()], tmp_path / "w", config)
        assert errors == (Diagnostic(file="", line=None, message=message),)

    def test_endless_compiler_output_is_one_diagnostic(self, tmp_path, monkeypatch):
        compiler = tmp_path / "flooding-iverilog"
        compiler.write_text("#!/bin/sh\nwhile :; do echo 'dut.v:1: error' >&2; done\n")
        compiler.chmod(0o755)
        monkeypatch.setattr(simbridge, "OUTPUT_CAP", 4096)
        config = ToolchainConfig(compiler_path=str(compiler), sim_timeout=10.0)
        start = time.monotonic()
        errors = compile_sources([dut()], tmp_path / "w", config)
        assert time.monotonic() - start < 2.0
        assert errors == (
            Diagnostic(file="", line=None, message="compiler printed more than 4096 bytes"),
        )

    def test_toolchain_missing(self, tmp_path):
        config = ToolchainConfig(compiler_path="/nonexistent/iverilog")
        with pytest.raises(ToolchainMissing):
            compile_sources([dut()], tmp_path / "w", config)

    def test_missing_binaries_name_their_setting(self):
        config = ToolchainConfig(compiler_path="/nonexistent/iverilog", vvp_path="/nonexistent/vvp")
        with pytest.raises(ToolchainMissing) as err:
            config.compiler
        assert str(err.value) == "Verilog compiler not found (set compiler_path or install iverilog)"
        with pytest.raises(ToolchainMissing) as err:
            config.vvp
        assert str(err.value) == "simulation runtime not found (set vvp_path or install vvp)"


class TestSimulate:
    def test_ok_captures_stdout(self, tmp_path, stub_tool_config):
        run = run_sim([dut("score:2:8"), tb()], tmp_path / "w", config=stub_tool_config)
        assert run.status == "ok"
        assert "SUMMARY total=8 mismatches=2" in run.stdout

    def test_timeout_enforced(self, tmp_path, stub_toolchain):
        compiler, vvp = stub_toolchain
        config = ToolchainConfig(compiler_path=compiler, vvp_path=vvp, sim_timeout=1.0)
        start = time.monotonic()
        run = run_sim([dut("hang"), tb()], tmp_path / "w", config=config)
        elapsed = time.monotonic() - start
        assert run.status == "timed_out"
        assert run.wall_time >= 1.0
        assert elapsed < 1.0 + 2.0  # timeout + grace

    def test_output_that_is_not_utf8_is_decoded(self, tmp_path):
        """A simulator printing byte 0xFF (``$display("%c", 8'hff)``) still
        gives a run, with the byte replaced; both streams read as text mode
        reads them: carriage returns become newlines, UTF-8 stays intact."""
        vvp = tmp_path / "ff-vvp"
        out = "printf 'a\\r\\nb\\rc\\377\\342\\202\\254\\n'"
        vvp.write_text(f"#!/bin/sh\n{out}\n{out} >&2\n", encoding="utf-8")
        vvp.chmod(0o755)
        config = ToolchainConfig(vvp_path=str(vvp))
        run = simulate(tmp_path, config)
        assert run.status == "ok"
        assert run.stdout == "a\nb\nc\ufffd\u20ac\n"
        assert [d.message for d in run.diagnostics] == ["a", "b", "c\ufffd\u20ac"]
        text_mode = subprocess.run(
            [str(vvp)], capture_output=True, encoding="utf-8", errors="replace"
        )
        assert run.stdout == text_mode.stdout
        assert run.diagnostics == tuple(parse_diagnostics(text_mode.stderr))

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process groups from /proc")
    def test_timeout_kills_the_tools_children(self, tmp_path):
        """A simulator whose child outlives it: the child holds the output
        pipes, yet the timeout returns on time and ends the whole group."""
        vvp = tmp_path / "forking-vvp"
        vvp.write_text("#!/bin/sh\necho $$ > group\nsleep 3 &\nsleep 3\n", encoding="utf-8")
        vvp.chmod(0o755)
        config = ToolchainConfig(vvp_path=str(vvp), sim_timeout=0.5)
        start = time.monotonic()
        run = simulate(tmp_path, config)
        elapsed = time.monotonic() - start
        assert run.status == "timed_out"
        assert elapsed < 2.0
        group = int((tmp_path / "group").read_text())
        deadline = time.monotonic() + 2.0
        while live_members(group) and time.monotonic() < deadline:
            time.sleep(0.02)  # SIGKILL is delivered asynchronously
        assert live_members(group) == []

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process groups from /proc")
    def test_interrupt_kills_the_tools_group(self, tmp_path, monkeypatch):
        """The tool's group does not get the terminal's SIGINT, so a
        KeyboardInterrupt in the wait ends the group before it propagates."""
        vvp = tmp_path / "forking-vvp"
        vvp.write_text("#!/bin/sh\necho $$ > group\nsleep 3 &\nsleep 3\n", encoding="utf-8")
        vvp.chmod(0o755)
        group_file = tmp_path / "group"

        def interrupted(outputs, deadline):
            wait = time.monotonic() + 2.0
            while not (group_file.exists() and group_file.read_text().strip()):
                assert time.monotonic() < wait, "the tool never started"
                time.sleep(0.02)
            raise KeyboardInterrupt

        monkeypatch.setattr(simbridge, "_read_pipes", interrupted)
        config = ToolchainConfig(vvp_path=str(vvp), sim_timeout=10.0)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            simulate(tmp_path, config)
        assert time.monotonic() - start < 2.5
        group = int(group_file.read_text())
        deadline = time.monotonic() + 2.0
        while live_members(group) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live_members(group) == []

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process groups from /proc")
    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    def test_endless_output_ends_at_the_cap(self, tmp_path, monkeypatch, stream):
        """A simulator that prints without end, with a child in its group:
        once a stream passes the cap the group is killed, well inside the
        timeout, and the run keeps at most the cap of that stream."""
        vvp = tmp_path / "flooding-vvp"
        redirect = " >&2" if stream == "stderr" else ""
        script = f"#!/bin/sh\necho $$ > group\nsleep 30 &\nwhile :; do echo CHECK{redirect}; done\n"
        vvp.write_text(script, encoding="utf-8")
        vvp.chmod(0o755)
        monkeypatch.setattr(simbridge, "OUTPUT_CAP", 4096)
        config = ToolchainConfig(vvp_path=str(vvp), sim_timeout=10.0)
        start = time.monotonic()
        run = simulate(tmp_path, config)
        assert time.monotonic() - start < 2.0
        assert run.status == "output_limit"
        kept = run.stdout if stream == "stdout" else "\n".join(d.message for d in run.diagnostics)
        assert kept.startswith("CHECK\nCHECK") and len(kept) <= 4096
        group = int((tmp_path / "group").read_text())
        deadline = time.monotonic() + 2.0
        while live_members(group) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live_members(group) == []

    def test_endless_stub_simulation_ends_as_output_limit(
        self, tmp_path, stub_tool_config, monkeypatch
    ):
        monkeypatch.setattr(simbridge, "OUTPUT_CAP", 1 << 16)
        run = run_sim([dut("flood"), tb()], tmp_path / "w", config=stub_tool_config)
        assert run.status == "output_limit"
        assert len(run.stdout) == 1 << 16
        assert run.wall_time < stub_tool_config.sim_timeout

    def test_runtime_failure(self, tmp_path, stub_tool_config):
        run = run_sim([dut("crash"), tb()], tmp_path / "w", config=stub_tool_config)
        assert run.status == "runtime_failed"
        assert run.diagnostics

    def test_nonzero_exit_with_empty_stderr_says_so(self, tmp_path):
        vvp = tmp_path / "quiet-vvp"
        vvp.write_text("#!/bin/sh\necho partial\nexit 4\n", encoding="utf-8")
        vvp.chmod(0o755)
        run = simulate(tmp_path, ToolchainConfig(vvp_path=str(vvp)))
        assert (run.status, run.stdout) == ("runtime_failed", "partial\n")
        assert run.diagnostics == (
            Diagnostic(file="", line=None, message="simulator exited with status 4"),
        )

    def test_deleted_artifact_is_runtime_failure(self, tmp_path, stub_tool_config):
        work = tmp_path / "w"
        assert compile_sources([dut(), tb()], work, stub_tool_config) == ()
        (work / "sim.vvp").unlink()
        run = simulate(work, config=stub_tool_config)
        assert run.status == "runtime_failed"

    def test_wall_time_excludes_the_wait_for_a_slot(self, tmp_path, monkeypatch):
        """Four 70 ms simulations on one slot run one after another; each
        reports its own run time, not its time in the queue."""
        vvp = tmp_path / "sleepy-vvp"
        vvp.write_text("#!/bin/sh\nsleep 0.07\n", encoding="utf-8")
        vvp.chmod(0o755)
        config = ToolchainConfig(vvp_path=str(vvp))
        monkeypatch.setattr(simbridge, "TOOLCHAIN_SLOTS", threading.BoundedSemaphore(1))

        def one(i: int) -> float:
            work = tmp_path / f"w{i}"
            work.mkdir()
            run = simulate(work, config=config)
            assert run.status == "ok"
            return run.wall_time

        lone = one(0)
        with ThreadPoolExecutor(max_workers=4) as pool:
            walls = list(pool.map(one, range(1, 5)))
        assert all(wall < 2 * lone for wall in walls), (lone, walls)


class TestToolchainSlots:
    def test_slots_count_the_cpus_of_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert simbridge.usable_cpus() == 1

    def test_without_an_affinity_mask_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert simbridge.usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simbridge.usable_cpus() == 4

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks")
    def test_a_one_cpu_mask_gives_one_slot(self):
        """A process pinned to one CPU before the import holds one slot."""
        code = (
            "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from rtlforge import simbridge; print(simbridge.TOOLCHAIN_SLOTS._value)"
        )
        src = str(Path(simbridge.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr


class TestRunSim:
    def test_compile_failure_short_circuits(self, tmp_path, stub_tool_config):
        run = run_sim(
            [dut(err_line=3), tb()], tmp_path / "w", config=stub_tool_config
        )
        assert run.status == "compile_failed"
        assert run.stdout == ""
        assert any(d.severity == "error" for d in run.diagnostics)

    def test_broken_testbench_diagnostics_name_tb_file(self, tmp_path, stub_tool_config):
        bad_tb = VerilogSource(
            kind="testbench",
            top_module="t",
            code="//ERR:5:bad task\nmodule t; endmodule\n",
        )
        run = run_sim([dut(), bad_tb], tmp_path / "w", config=stub_tool_config)
        assert run.status == "compile_failed"
        assert any(d.file.startswith("tb") for d in run.diagnostics)

    def test_isolation_concurrent_matches_serial(self, tmp_path, stub_tool_config):
        sources = [
            ([dut(f"score:{i % 5}:16"), tb()], tmp_path / f"serial{i}") for i in range(16)
        ]
        serial = [
            run_sim(srcs, work, config=stub_tool_config).stdout for srcs, work in sources
        ]

        def one(i):
            srcs, _ = sources[i]
            return run_sim(srcs, tmp_path / f"conc{i}", config=stub_tool_config).stdout

        with ThreadPoolExecutor(max_workers=16) as pool:
            concurrent = list(pool.map(one, range(16)))
        assert concurrent == serial

    def test_every_compile_failed_has_error_diagnostic(self, tmp_path, stub_tool_config):
        for i, code in enumerate(
            ["//ERR:1:boom\nmodule m; endmodule", "//ERR:2:\nmodule m; endmodule"]
        ):
            bad = VerilogSource(kind="dut", top_module="m", code=code)
            run = run_sim([bad, tb()], tmp_path / f"w{i}", config=stub_tool_config)
            assert run.status == "compile_failed"
            assert any(d.severity == "error" and d.message for d in run.diagnostics)


class TestCheckSyntax:
    def test_clean_source(self, tmp_path, stub_tool_config):
        assert check_syntax(dut(), tmp_path / "w", stub_tool_config) == []

    def test_broken_source_diagnostics(self, tmp_path, stub_tool_config):
        diags = check_syntax(dut(err_line=7), tmp_path / "w", stub_tool_config)
        assert diags and diags[0].line == 7

    def test_testbench_alone_is_checkable(self, tmp_path, stub_tool_config):
        # No DUT on disk: unresolved instantiation must not fail the check.
        assert check_syntax(tb(), tmp_path / "w", stub_tool_config) == []


# ---------------------------------------------------------------------------
# Real toolchain (skipped when iverilog/vvp are not installed)


@requires_toolchain
class TestRealToolchain:
    def test_available(self):
        assert toolchain_available()

    def test_minimal_pair_compiles_and_runs(self, tmp_path):
        dut_src = VerilogSource(kind="dut", top_module="counter4", code=REAL_COUNTER_DUT)
        tb_src = VerilogSource(kind="testbench", top_module="counter4_tb", code=REAL_COUNTER_TB)
        run = run_sim([dut_src, tb_src], tmp_path / "w", ToolchainConfig())
        assert run.status == "ok"
        assert "SUMMARY total=16 mismatches=0 first_mismatch=none" in run.stdout

    def test_missing_semicolon_line_reported(self, tmp_path):
        code = "module broken(input a, output y);\n  wire t\n  assign y = a;\nendmodule\n"
        bad = VerilogSource(kind="dut", top_module="broken", code=code)
        errors = compile_sources([bad], tmp_path / "w", ToolchainConfig())
        assert any(d.line == 3 for d in errors)

    def test_forever_loop_times_out(self, tmp_path):
        tb_src = VerilogSource(
            kind="testbench",
            top_module="spin_tb",
            code="module spin_tb;\n  reg clk = 0;\n  always #1 clk = ~clk;\n  initial begin end\nendmodule\n",
        )
        config = ToolchainConfig(sim_timeout=2.0)
        start = time.monotonic()
        run = run_sim([tb_src], tmp_path / "w", config=config)
        assert run.status == "timed_out"
        assert run.wall_time >= 2.0
        assert time.monotonic() - start < 5.0

    def test_testbench_alone_syntax_checkable(self, tmp_path):
        tb_src = VerilogSource(kind="testbench", top_module="counter4_tb", code=REAL_COUNTER_TB)
        assert check_syntax(tb_src, tmp_path / "w", ToolchainConfig()) == []
