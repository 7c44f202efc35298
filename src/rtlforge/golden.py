"""Verification against an unmodified benchmark-supplied golden testbench.

The golden bench is never edited; pass/fail is read from the banner every
VerilogEval golden bench prints, ``Mismatches: <n> in <m> samples``. A
nonzero count fails, a zero count passes, and a fail line wins over a pass
line. Anything other than a clean run with a passing banner is a fail.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .agents import parse_module_name, AgentError
from .simbridge import VerilogSource

PASS_RE = re.compile(r"Mismatches:\s*0\b")
FAIL_RE = re.compile(r"Mismatches:\s*[1-9][0-9]*")


@dataclass(frozen=True)
class GoldenResult:
    passed: bool
    reason: str


def evaluate_golden(
    rtl: VerilogSource, golden_testbench: str, sim_runner, workdir: str | Path
) -> GoldenResult:
    """Compile the RTL with the golden bench and read its mismatch banner."""
    if not golden_testbench.strip():
        raise ValueError("golden testbench text is empty")
    if rtl.sentinel:
        return GoldenResult(False, "candidate is an unbuildable sentinel")
    try:
        top = parse_module_name(golden_testbench)
    except AgentError:
        top = "golden_tb"
    bench = VerilogSource(kind="testbench", top_module=top, code=golden_testbench)
    sim = sim_runner.run([rtl, bench], workdir)
    if sim.status == "compile_failed":
        return GoldenResult(False, "compile failed against golden testbench")
    if sim.status == "timed_out":
        return GoldenResult(False, "golden simulation timed out")
    if sim.status != "ok":
        return GoldenResult(False, f"golden simulation status: {sim.status}")
    if FAIL_RE.search(sim.stdout):
        return GoldenResult(False, "golden testbench reported mismatches")
    if PASS_RE.search(sim.stdout):
        return GoldenResult(True, "golden testbench reported zero mismatches")
    return GoldenResult(False, "golden testbench printed no pass banner")
