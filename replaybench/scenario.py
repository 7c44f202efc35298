"""Seeded workload inputs and the scripted model that answers them.

A workload is a fixed *shape* (which control-flow paths its problems take,
trace length, testbench size, toolchain form, bench workers, modelled LLM
delay) filled in from ``--seed``: module names, stimulus, fault positions,
which samples need syntax repair and which are duplicates. The shape is the
same for every seed, so figures from different seeds compare; the seed
changes every byte the engine sees.

The scripted model is the "LLM" of the recording pass. It answers each
request from its tag and the code in the prompt, the way a model would:

* a debug trial fixes the earliest fault (the one the waveform window shows);
* a syntax fix removes the ``BENCH-ERR`` line, except in a sample marked
  ``BENCH-STUBBORN``, which never compiles and ends as a sentinel;
* the judge blames the testbench only on the regeneration path.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Optional

from rtlforge.gateway import BackendError, LlmRequest, LlmResponse
from rtlforge.problems import Problem

import stubtool

POOL_SIZE = 20  # RunConfig's paper default; the sample plan fills it
DEBUG_ERR_ROUNDS = (3, 7)  # every trial of these debug rounds needs one syntax fix


@dataclass(frozen=True)
class Shape:
    """Fixed structure of a workload; only the seed varies between runs."""

    kinds: tuple[str, ...]  # one problem per entry, see ``_task``
    runs_per_problem: int
    workers: int
    toolchain: str  # "subprocess" | "inprocess"
    checks: int  # CHECK lines per engine-testbench simulation
    outs: int  # output signals per check
    golden_checks: int  # checks the golden bench covers (a prefix)
    tb_rows: int  # stimulus-table rows; sets the testbench size
    llm_delay_s: float = 0.0  # added to every replayed LLM call


WORKLOADS = {
    # Process launches dominate: every syntax check, compile and simulation
    # is a subprocess; traces and prompts are small; no LLM delay.
    "paper_subproc": Shape(
        kinds=("exhaust_pass", "exhaust_fail"),
        runs_per_problem=1,
        workers=1,
        toolchain="subprocess",
        checks=64,
        outs=2,
        golden_checks=32,
        tb_rows=40,
    ),
    # Same control flow, in-process toolchain; long multi-signal traces and
    # a ~20 KB testbench put parsing, scoring, hashing and rendering on top.
    # One problem: a run already parses ~100k checks.
    "long_trace": Shape(
        kinds=("exhaust_pass",),
        runs_per_problem=1,
        workers=1,
        toolchain="inprocess",
        checks=2000,
        outs=3,
        golden_checks=1000,
        tb_rows=760,
    ),
    # Many short bench runs on 2 workers with a modelled per-call LLM delay:
    # the critical path is a chain of round trips plus per-run fixed costs.
    "llm_latency_bench": Shape(
        kinds=(
            "step2",
            "step2",
            "regen",
            "debug1",
            "debug3",
            "debug5",
            "exhaust_fail",
        ),
        runs_per_problem=2,
        workers=2,
        toolchain="inprocess",
        checks=48,
        outs=2,
        golden_checks=24,
        tb_rows=40,
        llm_delay_s=0.05,
    ),
}

_NOUNS = ("alu", "fifo", "arbiter", "shifter", "counter", "crc", "decoder", "mac", "uart", "pwm")
_WIDTHS = (8, 4, 16, 1, 12, 2)


@dataclass
class SamplePlan:
    faults: tuple[int, ...]
    fixes: int = 0  # syntax fixes needed; -1 = never compiles
    dup_of: Optional[int] = None


@dataclass
class Task:
    problem: Problem
    kind: str
    module: str
    stims: tuple[str, ...]  # BENCH-STIM marker per testbench epoch
    tb_rows: tuple[str, ...]
    initial_faults: tuple[tuple[int, ...], ...]  # per epoch
    samples: list[SamplePlan] = field(default_factory=list)
    outs: int = 2


def _faults(rng: random.Random, shape: Shape, early: int, late: int) -> tuple[int, ...]:
    g, n = shape.golden_checks, shape.checks
    return tuple(sorted(rng.sample(range(g), early) + rng.sample(range(g, n), late)))


def _samples(rng: random.Random, shape: Shape, kind: str) -> list[SamplePlan]:
    """Twenty samples: 4 need one fix, 1 never compiles, 3 duplicate others."""
    if kind == "exhaust_pass":
        # Few early (golden-visible) faults: debugging clears them, the late
        # ones outlast the 10 rounds.
        plans = [
            _faults(rng, shape, rng.randint(3, 6), rng.randint(8, 11)) for _ in range(POOL_SIZE)
        ]
    elif kind == "exhaust_fail":
        plans = [
            _faults(rng, shape, rng.randint(11, 14), rng.randint(0, 2)) for _ in range(POOL_SIZE)
        ]
    else:  # debug<k>
        k = int(kind[len("debug"):])
        plans = [_faults(rng, shape, rng.randint(k + 1, k + 6), 0) for _ in range(POOL_SIZE)]
    samples = [SamplePlan(faults=f) for f in plans]
    order = rng.sample(range(POOL_SIZE), POOL_SIZE)
    samples[order[0]].fixes = -1
    for i in order[1:5]:
        samples[i].fixes = 1
    for dup, src in zip(order[5:8], order[8:11]):
        samples[dup] = SamplePlan(faults=samples[src].faults, dup_of=src)
    if kind.startswith("debug"):
        # One plain sample has k faults, so debug round k solves the run.
        samples[order[-1]].faults = _faults(rng, shape, k, 0)
    return samples


def _task(workload: str, seed: int, index: int, kind: str, shape: Shape) -> Task:
    rng = random.Random(f"{workload}/{seed}/{index}")
    module = f"{rng.choice(_NOUNS)}{index}"
    epochs = 2 if kind == "regen" else 1
    stims = tuple(
        f"seed={rng.getrandbits(31)} checks={shape.checks} ins=2 outs={shape.outs}"
        for _ in range(epochs)
    )
    tb_rows = tuple(f"    stim[{r}] = 16'h{rng.getrandbits(16):04x};" for r in range(shape.tb_rows))
    if kind == "step2":
        initial = ((),)
    elif kind == "regen":
        initial = (_faults(rng, shape, 2, 2), ())
    else:
        initial = (_faults(rng, shape, 2, 14),)
    ports = ", ".join(
        ["input clk", "input rst", "input [7:0] i0", "input [7:0] i1"]
        + [f"output [{_WIDTHS[j] - 1}:0] o{j}" for j in range(shape.outs)]
    )
    spec = (
        f"Design module {module}. On every rising clock edge it samples the two "
        f"8-bit inputs i0 and i1 and updates {shape.outs} registered outputs. "
        "A synchronous active-high reset clears all state. Each output is a "
        "fixed function of the accumulated state and the current inputs, as "
        "tabulated by the reference model; outputs are never left undriven "
        f"after reset. Seed tag {rng.getrandbits(24):06x}."
    )
    golden = (
        "`timescale 1ns/1ps\n"
        f"module {module}_golden_tb;\n"
        f"  // BENCH-GOLDEN checks={shape.golden_checks}\n"
        "  integer errors = 0;\n"
        "  integer total = 0;\n"
        "  initial begin\n"
        f'    $display("Mismatches: %0d in %0d samples", errors, total);\n'
        "    $finish;\n"
        "  end\n"
        "endmodule\n"
    )
    task = Task(
        problem=Problem(
            task_id=f"{module}_{kind}",
            spec=spec,
            golden_testbench=golden,
            module_interface=f"module {module}({ports});",
        ),
        kind=kind,
        module=module,
        stims=stims,
        tb_rows=tb_rows,
        initial_faults=initial,
        outs=shape.outs,
    )
    if kind not in ("step2", "regen"):
        task.samples = _samples(rng, shape, kind)
    return task


def build_tasks(workload: str, seed: int) -> list[Task]:
    shape = WORKLOADS[workload]
    return [_task(workload, seed, i, kind, shape) for i, kind in enumerate(shape.kinds)]


# ---------------------------------------------------------------------------
# Verilog text


def dut_code(task: Task, faults, note: str, err: bool = False, stubborn: bool = False) -> str:
    lines = [f"module {task.module}("]
    lines.append("  input clk, input rst, input [7:0] i0, input [7:0] i1,")
    outs = [f"  output [{_WIDTHS[j] - 1}:0] o{j}" for j in range(task.outs)]
    lines.append(",\n".join(outs))
    lines.append(");")
    lines.append(f"  // BENCH-FAULTS {','.join(map(str, faults)) or 'none'}")
    lines.append(f"  // {note}")
    if stubborn:
        lines.append("  // BENCH-STUBBORN")
    if err:
        lines.append("  // BENCH-ERR expected ';' before 'assign'")
    lines.append("  reg [15:0] acc;")
    lines.append("  always @(posedge clk)")
    lines.append("    acc <= rst ? 16'd0 : acc + {i0, i1};")
    for j in range(task.outs):
        w = _WIDTHS[j]
        lines.append(f"  assign o{j} = acc[{w - 1}:0] ^ {{{w}{{i{j % 2}[{j % 8}]}}}};")
    lines.append("endmodule")
    return "\n".join(lines)


def tb_code(task: Task, epoch: int) -> str:
    ports = ", ".join(
        [".clk(clk)", ".rst(rst)", ".i0(i0)", ".i1(i1)"]
        + [f".o{j}(o{j})" for j in range(task.outs)]
    )
    wires = "\n".join(f"  wire [{_WIDTHS[j] - 1}:0] o{j};" for j in range(task.outs))
    return "\n".join(
        [
            "`timescale 1ns/1ps",
            f"module {task.module}_tb;",
            f"  // BENCH-STIM {task.stims[epoch]}",
            "  reg clk = 0;",
            "  reg rst = 1;",
            "  reg [7:0] i0, i1;",
            wires,
            "  integer t = 0;",
            "  integer mismatches = 0;",
            f"  reg [15:0] stim [0:{len(task.tb_rows) - 1}];",
            f"  {task.module} dut({ports});",
            "  always #5 clk = ~clk;",
            "  initial begin",
            *task.tb_rows,
            "  end",
            "  initial begin",
            "    @(posedge clk) rst = 0;",
            '    $display("CHECK time=%0d in:i0=8\'h%h,i1=8\'h%h dut:... exp:...", t, i0, i1);',
            '    $display("SUMMARY total=%0d mismatches=%0d first_mismatch=none", t, mismatches);',
            "    $finish;",
            "  end",
            "endmodule",
        ]
    )


def _fence(code: str, preface: str = "Here is the complete module.") -> str:
    return f"{preface}\n```verilog\n{code}\n```\n"


_PREFIX_RE = re.compile(r"^([^/]+)/run\d+/(.*)$")
_FIX_RE = re.compile(r"/fix(\d+)$")


def _section(text: str, start: str, end: Optional[str] = None) -> str:
    body = text.split(start, 1)[1]
    return body.split(end, 1)[0] if end else body


class ScriptedModel:
    """Deterministic gateway backend for the recording pass."""

    def __init__(self, tasks: list[Task]):
        self.tasks = {t.problem.task_id: t for t in tasks}

    def complete(self, request: LlmRequest) -> LlmResponse:
        m = _PREFIX_RE.match(request.tag)
        if m is None or m.group(1) not in self.tasks:
            raise BackendError(f"scripted model: unknown tag {request.tag!r}")
        task, tag = self.tasks[m.group(1)], m.group(2)
        prompt = request.messages[-1].content
        n = request.params.n_completions
        return LlmResponse(completions=tuple(self._reply(task, tag, prompt, n)))

    def _reply(self, task: Task, tag: str, prompt: str, n: int) -> list[str]:
        fix = _FIX_RE.search(tag)
        if fix:
            code = _section(prompt, "\nSource:\n").strip("\n")
            if "BENCH-STUBBORN" in code:
                return [_fence(code + f"\n// attempt {fix.group(1)}", "Fixed the declaration.")]
            kept = [ln for ln in code.split("\n") if "BENCH-ERR" not in ln]
            return [_fence("\n".join(kept), "Fixed the syntax error.")]
        role, _, rest = tag.partition("/")
        if role == "testbench_gen":
            return [_fence(tb_code(task, int(rest[len("gen"):])), "Here is the testbench.")]
        if role == "judge":
            epoch = int(rest[1:])
            if task.kind == "regen" and epoch == 0:
                return ["The expected values at the first mismatch contradict the reset "
                        "behaviour in the specification.\nVERDICT: testbench_faulty"]
            return ["The expected values follow from the specification; the RTL diverges "
                    "at the first mismatch.\nVERDICT: rtl_faulty"]
        if role == "rtl_gen" and rest.startswith("init"):
            epoch = int(rest[len("init"):])
            return [_fence(dut_code(task, task.initial_faults[epoch], f"initial e{epoch}"))]
        if role == "rtl_gen" and rest.startswith("sample/"):
            replies = []
            for i, plan in enumerate(task.samples[:n]):
                src = i if plan.dup_of is None else plan.dup_of
                replies.append(
                    _fence(
                        dut_code(
                            task,
                            plan.faults,
                            f"sample {src}",
                            err=plan.fixes != 0,
                            stubborn=plan.fixes < 0,
                        )
                    )
                )
            return replies
        if role == "debug":
            round_s, root_s = rest.split("/")
            rnd = int(round_s[1:])
            code = _section(prompt, "Current RTL:\n", "\n\nTestbench:\n")
            faults = stubtool.faults_of(code)[1:]
            note = f"debug round {rnd} lineage {root_s[1:]}"
            return [_fence(dut_code(task, faults, note, err=rnd in DEBUG_ERR_ROUNDS))]
        raise BackendError(f"scripted model: unhandled tag {tag!r}")
