"""Stub Verilog toolchain for tests.

The engine drives two external binaries; these stubs emulate them from
markers embedded in the sources, so every control-flow path is exercisable
without a real simulator:

  //ERR:<line>:<message>     compile error reported at that line
  //DUT_BEHAVIOR:<key>       simulation behavior of the DUT
  //TB_EMIT:<key>|<payload>  canned stdout line, selected by the DUT's key

Built-in behavior keys (no TB_EMIT needed):

  score:<m>:<tc>        checkpoint trace with m mismatches out of tc checks
                        (the mismatches sit at the tail, earliest = tc - m)
  counter16             clean 16-check 4-bit counter trace
  counter16:glitch@<t>  same but the output is wrong at check <t>
  nochecks              output with no CHECK lines at all
  badsummary            trace whose SUMMARY contradicts its records
  hang                  never terminates (subprocess) / timed_out (in-process)
  flood                 prints without end (subprocess) / output_limit (in-process)
  crash                 nonzero simulator exit
  jointfail_tb          joint compile fails with diagnostics in the tb file
  jointfail_dut         joint compile fails with diagnostics in the dut file
  jointfail_nofile      joint compile fails with a diagnostic naming no file

The same logic (``stubcore``) backs an in-process SimRunner (fast pipeline
tests) and two generated scripts (subprocess bridge and CLI tests).
"""

from __future__ import annotations

import re
import stat
import sys
import threading
from pathlib import Path
from typing import Optional

from rtlforge.gateway import BackendError, LlmRequest, LlmResponse
from rtlforge.simbridge import Diagnostic, SimRun, VerilogSource, source_names

from stubcore import behavior_of, error_markers, stdout_for
from stubcore import synth_counter_trace  # noqa: F401  (tests import it from here)

_PREFIX_RE = re.compile(r"^[^/]+/run\d+/")


def error_diagnostics(text: str, filename: str) -> list[Diagnostic]:
    return [
        Diagnostic(file=filename, line=line, message=message)
        for line, message in error_markers(text)
    ]


class StubSimRunner:
    """In-process stand-in for the toolchain-backed simulation seam."""

    def __init__(self, timeout: float = 30.0):
        self.timeout = timeout
        self.calls = 0
        self._lock = threading.Lock()

    def run(self, sources: list[VerilogSource], workdir) -> SimRun:
        with self._lock:
            self.calls += 1
        # Like an in-process toolchain, it reads the sources, not the workdir,
        # which it never creates.
        diagnostics: list[Diagnostic] = []
        for source, name in zip(sources, source_names(sources)):
            diagnostics.extend(error_diagnostics(source.code, name))
        if diagnostics:
            return SimRun(status="compile_failed", stdout="", diagnostics=tuple(diagnostics))
        dut_text = "\n".join(s.code for s in sources if s.kind == "dut")
        all_text = "\n".join(s.code for s in sources)
        key = behavior_of(dut_text)
        if key == "jointfail_tb":
            return SimRun(
                status="compile_failed",
                stdout="",
                diagnostics=(Diagnostic(file="tb.v", line=4, message="port mismatch"),),
            )
        if key == "jointfail_dut":
            return SimRun(
                status="compile_failed",
                stdout="",
                diagnostics=(Diagnostic(file="dut.v", line=2, message="unknown module"),),
            )
        if key == "jointfail_nofile":
            return SimRun(
                status="compile_failed",
                stdout="",
                diagnostics=(Diagnostic(file="", line=None, message="compiler timed out"),),
            )
        if key == "hang":
            return SimRun(status="timed_out", stdout="", wall_time=self.timeout)
        if key == "flood":
            return SimRun(status="output_limit", stdout=stdout_for(all_text, "counter16"))
        if key == "crash":
            return SimRun(
                status="runtime_failed",
                stdout="",
                diagnostics=(Diagnostic(file="", line=None, message="simulator crashed"),),
            )
        return SimRun(status="ok", stdout=stdout_for(all_text, key), wall_time=0.01)


class StubSyntaxChecker:
    """In-process syntax checker honoring the //ERR marker convention."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, source: VerilogSource, workdir) -> list[Diagnostic]:
        with self._lock:
            self.calls += 1
        name = "tb.v" if source.kind == "testbench" else "dut.v"
        return error_diagnostics(source.code, name)


class ScriptedBackend:
    """Gateway backend returning scripted completions keyed by request tag.

    ``script`` maps tag -> list of completion texts (the list length must
    cover n_completions) or is a callable request -> list[str]. Bench-style
    run-namespace prefixes are stripped before dict lookup.
    """

    def __init__(self, script):
        self.script = script
        self.requests: list[LlmRequest] = []
        self._lock = threading.Lock()

    def complete(self, request: LlmRequest) -> LlmResponse:
        with self._lock:
            self.requests.append(request)
        if callable(self.script):
            texts = self.script(request)
        else:
            texts = self.script.get(request.tag)
            if texts is None:
                texts = self.script.get(_PREFIX_RE.sub("", request.tag))
            if texts is None:
                raise BackendError(f"no scripted reply for tag {request.tag!r}")
        if isinstance(texts, str):
            texts = [texts]
        return LlmResponse(completions=tuple(texts))


# ---------------------------------------------------------------------------
# Subprocess stubs


# The scripts run with cwd set to a simulation workdir and whatever
# environment the suite had, so they run on the suite's interpreter in
# isolated mode without ``site`` and find ``stubcore`` by absolute path.
# With a launch log, each launch lasts at least 50 ms, as a real tool's
# would, and appends one "<start> <end>" line of time.monotonic(), a clock
# all processes share.
_STUB_SCRIPT = '''#!{python} -IS
import sys
import time
sys.path.insert(0, {tests_dir!r})
from stubcore import {main}
start = time.monotonic()
code = {main}()
if {log!r}:
    time.sleep(0.05)
    with open({log!r}, "a", encoding="utf-8") as f:
        f.write(f"{{start}} {{time.monotonic()}}\\n")
sys.exit(code)
'''


def write_stub_toolchain(bindir: Path, launch_log: Optional[Path] = None) -> tuple[str, str]:
    """Materialize executable stub compiler/vvp scripts; returns their paths."""
    bindir = Path(bindir)
    bindir.mkdir(parents=True, exist_ok=True)
    paths = {
        "python": sys.executable,
        "tests_dir": str(Path(__file__).resolve().parent),
        "log": str(launch_log) if launch_log else "",
    }
    compiler = bindir / "stub-iverilog"
    vvp = bindir / "stub-vvp"
    compiler.write_text(
        _STUB_SCRIPT.format(main="subprocess_compiler_main", **paths), encoding="utf-8"
    )
    vvp.write_text(_STUB_SCRIPT.format(main="subprocess_vvp_main", **paths), encoding="utf-8")
    for script in (compiler, vvp):
        script.chmod(script.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return str(compiler), str(vvp)
