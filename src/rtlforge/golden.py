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
from typing import Optional

from .agents import module_names
from .simbridge import VerilogSource

PASS_RE = re.compile(r"Mismatches:\s*0\b")
FAIL_RE = re.compile(r"Mismatches:\s*[1-9][0-9]*")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


@dataclass(frozen=True)
class GoldenResult:
    passed: bool
    reason: str


def evaluate_golden(
    rtl: VerilogSource,
    golden_testbench: str,
    sim_runner,
    workdir: str | Path,
    reference: Optional[str] = None,
) -> GoldenResult:
    """Compile the RTL with the golden bench and read its mismatch banner.

    The problem's ``reference`` is compiled with them only when the bench
    names the RTL's own module and the reference declares a module that the
    bench names and does not declare, other than the RTL's top module, as
    VerilogEval v2's ``RefModule``. A v1 body, a reference of the DUT's own
    module, or any reference beside RTL whose module the bench does not name
    stays out, so the reference never stands in for the DUT. RTL that also
    declares the reference's module gets the reference beside it all the
    same, and the compile rejects the duplicate module: the RTL cannot grade
    itself against its own ``RefModule``.
    """
    if not golden_testbench.strip():
        raise ValueError("golden testbench text is empty")
    if rtl.sentinel:
        return GoldenResult(False, "candidate is an unbuildable sentinel")
    declared = module_names(golden_testbench)
    top = (declared or ["golden_tb"])[0]
    sources = [rtl, VerilogSource(kind="testbench", top_module=top, code=golden_testbench)]
    named = set(_IDENT_RE.findall(golden_testbench)) - set(declared)
    extra = named - {rtl.top_module} if rtl.top_module in named else set()
    needed = [name for name in module_names(reference or "") if name in extra]
    if needed:
        sources.append(VerilogSource(kind="dut", top_module=needed[0], code=reference))
    sim = sim_runner.run(sources, workdir)
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
