"""Verilog toolchain driver: compile and simulate in isolated workdirs.

Wraps two external binaries (an ``iverilog``-style compiler and a ``vvp``
style runtime) behind plain values: a compile returns its error
diagnostics, none when it built the workdir's ``sim.vvp``, and a simulation
of that workdir returns a SimRun. Only a binary that cannot be found or
launched raises (ToolchainMissing). Each function takes the caller's
ToolchainConfig; only the entry points (``ToolchainSimRunner``,
``ToolchainSyntaxChecker``, ``toolchain_available``) build the default one.
Binary paths come from the config with PATH lookup as fallback, resolved
once per config on first use: a binary swapped on disk later in the run is
not looked up again, and a config built per call would resolve both again.
Every run happens in its own working directory so concurrent simulations
never interfere. The compiler's stdout is discarded; its stderr and both of
the simulator's streams are captured, up to ``OUTPUT_CAP`` bytes each.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
import selectors
import shutil
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import EngineError

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")
DEFAULT_SIM_TIMEOUT = 30.0  # seconds one simulation may run
TIMEOUT_GRACE = 2.0
COMPILE_ARGS = ("-g2012",)  # language standard passed to every compile
RUNNABLE = "sim.vvp"  # what a compile builds in its workdir and a simulation runs
# Bytes of each output stream one launch may print; a tool that prints more
# is killed and its run ends as "output_limit". The longest trace of the
# replay benchmark's workloads is 243 KB.
OUTPUT_CAP = 8 << 20


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count (4 when unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 4


# Toolchain slots: one per usable CPU, held by every compile and simulation of
# the process, however many runs and ToolchainConfigs share it.
TOOLCHAIN_SLOTS = threading.BoundedSemaphore(usable_cpus())


class ToolchainMissing(EngineError):
    """Compiler or simulator binary cannot be found."""


@dataclass(frozen=True)
class VerilogSource:
    """A unit of Verilog text: the DUT or a testbench.

    ``sentinel`` marks a placeholder for a candidate whose syntax could not
    be repaired; sentinels are never handed to the toolchain and score 0.
    """

    kind: str  # "dut" | "testbench"
    top_module: str
    code: str
    sentinel: bool = False

    def __post_init__(self):
        if self.kind not in ("dut", "testbench"):
            raise ValueError(f"invalid source kind: {self.kind!r}")
        if not self.code:
            raise ValueError("source code must be non-empty")
        if not _IDENT_RE.match(self.top_module):
            raise ValueError(f"invalid top module name: {self.top_module!r}")


@dataclass(frozen=True)
class Diagnostic:
    file: str
    line: Optional[int]  # None when the toolchain line was unparseable
    message: str
    severity: str = "error"  # "error" | "warning"

    def __post_init__(self):
        if not self.message:
            raise ValueError("diagnostic message must be non-empty")

    def render(self) -> str:
        loc = f"{self.file}:{self.line}" if self.line is not None else (self.file or "<toolchain>")
        return f"{loc}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class SimRun:
    status: str  # "ok" | "compile_failed" | "runtime_failed" | "timed_out" | "output_limit"
    stdout: str
    diagnostics: tuple[Diagnostic, ...] = ()
    wall_time: float = 0.0


@dataclass(frozen=True)
class ToolchainConfig:
    """Where the compiler and simulator binaries are, and how long one
    simulation may run; each compile gets ``TIMEOUT_GRACE`` more seconds.

    Each binary is resolved to an absolute path once per config, on first
    use of ``compiler`` or ``vvp``, and kept: a binary swapped on disk later
    in the run is not looked up again, and one deleted fails its next launch
    with ToolchainMissing. A failed resolution is not kept, so the next use
    looks again.
    """

    compiler_path: Optional[str] = None
    vvp_path: Optional[str] = None
    sim_timeout: float = DEFAULT_SIM_TIMEOUT

    @functools.cached_property
    def compiler(self) -> str:
        return _resolve(self.compiler_path, "Verilog compiler", "compiler_path", "iverilog")

    @functools.cached_property
    def vvp(self) -> str:
        return _resolve(self.vvp_path, "simulation runtime", "vvp_path", "vvp")


def _resolve(path: Optional[str], what: str, setting: str, binary: str) -> str:
    """Absolute path of ``path``, else of ``binary`` on PATH: the process
    launches with cwd set to its workdir."""
    path = path or shutil.which(binary)
    if not path or not Path(path).exists():
        raise ToolchainMissing(f"{what} not found (set {setting} or install {binary})")
    return str(Path(path).resolve())


def toolchain_available(config: Optional[ToolchainConfig] = None) -> bool:
    config = config or ToolchainConfig()
    try:
        return bool(config.compiler and config.vvp)
    except ToolchainMissing:
        return False


_DIAG_RE = re.compile(r"^(?P<file>[^:\s][^:]*?):(?P<line>\d+):\s*(?P<msg>.+)$")


def parse_diagnostics(stderr: str) -> list[Diagnostic]:
    """Line-oriented parse of ``file:line: message`` toolchain stderr.

    Unparseable lines are kept verbatim (line=None) so no information the
    repair loop could use is ever dropped. A line is a warning when its
    message (the text after ``file:line:``, else the whole line) starts
    with "warning"; a "warning" elsewhere, such as in a quoted identifier
    (``Unknown module type: warning_led``), leaves it an error.
    """
    diagnostics: list[Diagnostic] = []
    for raw in stderr.splitlines():
        line = raw.strip()
        if not line:
            continue
        m = _DIAG_RE.match(line)
        if m:
            msg = m.group("msg").strip()
            diagnostics.append(
                Diagnostic(
                    file=m.group("file"),
                    line=int(m.group("line")),
                    message=msg or line,
                    severity=_severity(msg),
                )
            )
        else:
            diagnostics.append(
                Diagnostic(file="", line=None, message=line, severity=_severity(line))
            )
    return diagnostics


def _severity(message: str) -> str:
    return "warning" if message.lower().startswith("warning") else "error"


_FILE_STEMS = {"dut": "dut", "testbench": "tb"}
_SOURCE_FILE_RE = re.compile(r"^(dut|tb)\d*\.v$")


def named_kind(diagnostic: Diagnostic) -> Optional[str]:
    """Kind of the source ("dut" or "testbench") whose ``write_sources`` file
    a diagnostic names; None when it names no such file."""
    m = _SOURCE_FILE_RE.match(Path(diagnostic.file).name)
    return None if m is None else ("dut" if m.group(1) == "dut" else "testbench")


def source_names(sources: list[VerilogSource]) -> list[str]:
    """File names ``dut.v``, ``dut1.v``, ... or ``tb.v``, ``tb1.v``, ... in order."""
    counts: dict[str, int] = {}
    names = []
    for source in sources:
        stem = _FILE_STEMS[source.kind]
        n = counts[stem] = counts.get(stem, -1) + 1
        names.append(f"{stem}{n or ''}.v")
    return names


def write_sources(sources: list[VerilogSource], workdir: Path) -> list[Path]:
    """Write each source to its ``source_names`` file in ``workdir``, as UTF-8."""
    paths = [workdir / name for name in source_names(sources)]
    for source, path in zip(sources, paths):
        path.write_bytes(source.code.encode("utf-8"))
    return paths


def _decode(output: Optional[bytes]) -> str:
    """``output`` as text mode's ``communicate`` gives it: UTF-8 with
    undecodable bytes replaced, and CRLF and CR read as LF."""
    if not output:
        return ""
    return output.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")


def _launch(
    cmd: list[str], cwd: Path, timeout: float, capture_stdout: bool = True
) -> tuple[int | str, str, str, float]:
    """Run ``cmd`` in ``cwd`` on a toolchain slot, killing it after ``timeout``.

    Returns (exit status, or "timed_out" or "output_limit"; stdout; stderr;
    seconds). The clock starts once the slot is held, so the seconds exclude
    the wait. Without ``capture_stdout`` the tool's stdout goes to the null
    device and reads as "". The pipes are read as bytes, at most
    ``OUTPUT_CAP`` of each (``_read_pipes``), and each is decoded once by
    ``_decode``: a design may print any byte (``$display("%c", 8'hff)``).
    Raises OSError when the binary cannot be launched.

    The tool runs in its own process group, and a timeout or the output cap
    kills the whole group: ``iverilog`` runs ``ivlpp`` and ``ivl`` as
    children, which hold the output pipes until they end. So the terminal's
    signals (Ctrl-C, a hangup) no longer reach the tools, and any other way
    out of the wait, such as a KeyboardInterrupt, kills the group too before
    it propagates.
    """
    with TOOLCHAIN_SLOTS:
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            cwd=cwd,
            stdout=subprocess.PIPE if capture_stdout else subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        outputs = {pipe: bytearray() for pipe in (proc.stdout, proc.stderr) if pipe}
        status: int | str = "timed_out"  # what a raise leaves, so the group is killed
        try:
            deadline = start + timeout
            status = _read_pipes(outputs, deadline) or proc.wait(deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            pass
        finally:
            if isinstance(status, str):
                # Until it is reaped, the leader keeps the group alive to be killed.
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            for pipe in outputs:
                pipe.close()
        stdout, stderr = (outputs.get(pipe) for pipe in (proc.stdout, proc.stderr))
        return status, _decode(stdout), _decode(stderr), time.monotonic() - start


def _read_pipes(outputs: dict, deadline: float) -> Optional[str]:
    """Read each pipe into its buffer, waking on data or end of file, until
    every pipe has ended (None); "timed_out" at ``deadline``, or
    "output_limit" once a pipe has printed more than ``OUTPUT_CAP`` bytes,
    of which its buffer keeps the first ``OUTPUT_CAP``."""
    with selectors.PollSelector() as selector:
        for pipe in outputs:
            selector.register(pipe, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return "timed_out"
            for key, _ in selector.select(remaining):
                chunk = os.read(key.fd, 32768)
                if not chunk:
                    selector.unregister(key.fileobj)
                    continue
                buffer = outputs[key.fileobj]
                buffer += chunk
                if len(buffer) > OUTPUT_CAP:
                    del buffer[OUTPUT_CAP:]
                    return "output_limit"
    return None


def compile_sources(
    sources: list[VerilogSource],
    workdir: str | Path,
    config: ToolchainConfig,
    ignore_missing: bool = False,
) -> tuple[Diagnostic, ...]:
    """Compile sources into ``workdir``'s ``RUNNABLE`` with ``config``'s
    compiler; returns the compile's error diagnostics, empty when it was
    built.

    ``workdir`` must be empty or absent: this is where a run's workdir is
    created, with its parents, since the pipeline's allocator only names it.
    A failed compile returns every parseable error, else one line naming the
    timeout, the output cap or the exit status. Raises ToolchainMissing when
    no compiler can be resolved or launched. ``ignore_missing`` tells the
    compiler to treat unresolved module instantiations as black boxes (used
    to syntax-check a testbench before any DUT exists).
    """
    if not sources:
        raise ValueError("no sources to compile")
    if any(s.sentinel for s in sources):
        raise ValueError("sentinel sources are not compilable")
    compiler = config.compiler
    workdir = Path(workdir)
    try:
        os.mkdir(workdir)
    except FileNotFoundError:
        workdir.mkdir(parents=True)
    except FileExistsError:
        if os.listdir(workdir):
            raise ValueError(f"workdir is not empty: {workdir}") from None
    paths = write_sources(sources, workdir)
    cmd = [compiler, *COMPILE_ARGS]
    if ignore_missing:
        cmd.append("-i")
    cmd += ["-o", RUNNABLE, *[p.name for p in paths]]
    timeout = config.sim_timeout + TIMEOUT_GRACE
    try:
        status, _, stderr, _ = _launch(cmd, workdir, timeout, capture_stdout=False)
    except OSError as exc:
        raise ToolchainMissing(f"cannot launch compiler {cmd[0]}: {exc}") from exc
    if status == "timed_out":
        message = f"compiler timed out after {timeout} seconds"
        return (Diagnostic(file="", line=None, message=message),)
    if status == "output_limit":
        message = f"compiler printed more than {OUTPUT_CAP} bytes"
        return (Diagnostic(file="", line=None, message=message),)
    if status == 0 and (workdir / RUNNABLE).exists():
        return ()
    errors = tuple(d for d in parse_diagnostics(stderr) if d.severity == "error")
    exit_line = Diagnostic(file="", line=None, message=f"compiler exited with status {status}")
    return errors or (exit_line,)


def simulate(workdir: str | Path, config: ToolchainConfig) -> SimRun:
    """Run ``workdir``'s compiled ``RUNNABLE`` on ``config``'s simulator;
    capture its output; kill it after ``config.sim_timeout`` seconds
    ("timed_out") or once a stream passes ``OUTPUT_CAP`` bytes
    ("output_limit", with the first ``OUTPUT_CAP`` bytes of each stream).

    A runnable that is missing or crashes gives a "runtime_failed" SimRun.
    ``wall_time`` is the simulator's own run time, not the wait for a slot.
    """
    timeout = config.sim_timeout
    vvp = config.vvp
    try:
        status, stdout, stderr, wall = _launch([vvp, RUNNABLE], Path(workdir), timeout)
    except OSError as exc:
        raise ToolchainMissing(f"cannot launch simulator {vvp}: {exc}") from exc
    diagnostics = parse_diagnostics(stderr)
    if status == "timed_out":
        return SimRun(status, stdout, tuple(diagnostics), max(wall, timeout))
    if status == "output_limit":
        return SimRun(status, stdout, tuple(diagnostics), wall)
    if status != 0:
        diagnostics = diagnostics or [
            Diagnostic(file="", line=None, message=f"simulator exited with status {status}")
        ]
        return SimRun("runtime_failed", stdout, tuple(diagnostics), wall)
    return SimRun("ok", stdout, tuple(diagnostics), wall)


def run_sim(
    sources: list[VerilogSource],
    workdir: str | Path,
    config: ToolchainConfig,
) -> SimRun:
    """Compile then simulate with ``config``'s binaries, under its time
    limits; compile failure short-circuits simulation."""
    errors = compile_sources(sources, workdir, config)
    if errors:
        return SimRun(status="compile_failed", stdout="", diagnostics=errors)
    return simulate(workdir, config)


def check_syntax(
    source: VerilogSource,
    workdir: str | Path,
    config: ToolchainConfig,
) -> list[Diagnostic]:
    """Compile a single source with ``config``'s compiler, missing modules
    ignored.

    Returns error diagnostics (empty list = syntactically clean). This is the
    probe behind the bounded syntax-repair loop; testbenches are checkable
    before any DUT exists because unresolved instantiations are tolerated.
    """
    return list(compile_sources([source], workdir, config, ignore_missing=True))


class ToolchainSimRunner:
    """Production simulation seam: writes sources, compiles, simulates."""

    def __init__(self, config: Optional[ToolchainConfig] = None):
        self.config = config or ToolchainConfig()

    def run(self, sources: list[VerilogSource], workdir: str | Path) -> SimRun:
        return run_sim(sources, workdir, config=self.config)


class ToolchainSyntaxChecker:
    """Production syntax-check seam backed by the toolchain."""

    def __init__(self, config: Optional[ToolchainConfig] = None):
        self.config = config or ToolchainConfig()

    def __call__(self, source: VerilogSource, workdir: str | Path) -> list[Diagnostic]:
        return check_syntax(source, workdir, self.config)
