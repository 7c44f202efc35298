"""Replay identity across code changes: one scripted run must reproduce the
checked-in ``events.jsonl`` and ``best.v`` byte for byte.

The run (pool 6, top-K 3, 3 debug rounds) covers a sentinel sample, two
identical samples, and debug trials that win, tie, regress, need a syntax
fix, repeat an earlier source, and fail outright. The request key
(``gateway.request_key``: tag plus digest of messages and sampling
parameters) of every LLM call is pinned too, sorted because concurrent
debug trials issue their requests in any order, for the multi-agent,
single-agent and fan-out sampling runs of the same script. To re-record
after an intended change of the transcript or of a prompt, run this file as
a script.
"""

from pathlib import Path

import pytest

from rtlforge.agents import PromptLibrary
from rtlforge.gateway import request_key
from rtlforge.pipeline import EngineRuntime, RunConfig, max_llm_calls, run_pipeline

from fixtures import fenced, stub_counter_problem, stub_dut, stub_tb
from toolstub import ScriptedBackend, StubSimRunner, StubSyntaxChecker

GOLDEN = Path(__file__).parent / "data" / "golden_run"
NO_CODE = "I could not produce a design for this."
TWIN = fenced(stub_dut("score:1:16", name="twin"))

SCRIPT = {
    "testbench_gen/gen0": fenced(stub_tb()),
    "rtl_gen/init0": fenced(stub_dut("counter16:glitch@9")),
    "judge/e0": "Expected values follow the spec.\nVERDICT: rtl_faulty",
    # ids 1-6; selection [3, 4, 1], so slots root at 3, 4 and 1.
    "rtl_gen/sample/e0": [
        fenced(stub_dut("score:2:16", name="s0")),
        NO_CODE,  # sentinel
        TWIN,
        TWIN,
        fenced(stub_dut("score:4:16", name="s4")),
        fenced(stub_dut("score:3:16", name="s5")),
    ],
    "debug/r1/c3": fenced(stub_dut("score:1:16", name="r1c3")),  # tie
    "debug/r1/c4": fenced(stub_dut("score:5:16", name="r1c4", err_line=1)),
    "debug/r1/c4/fix1": fenced(stub_dut("score:5:16", name="r1c4")),  # regress
    "debug/r1/c1": fenced(stub_dut("score:1:16", name="r1c1")),  # win
    "debug/r2/c3": NO_CODE,  # trial_failed
    "debug/r2/c4": fenced(stub_dut("score:2:16", name="r2c4")),  # regress
    "debug/r2/c1": fenced(stub_dut("score:1:16", name="r1c1")),  # tie, cached source
    "debug/r3/c3": fenced(stub_dut("score:0:16", name="r3c3")),  # win, solves
    "debug/r3/c4": TWIN,  # tie, cached source
    "debug/r3/c1": fenced(stub_dut("score:3:16", name="r3c1")),  # regress
}

# Fan-out sampling asks for sample i under its own tag ``<tag>.<i>``.
FANOUT_SCRIPT = {
    **SCRIPT,
    **{f"rtl_gen/sample/e0.{i}": reply for i, reply in enumerate(SCRIPT["rtl_gen/sample/e0"])},
}
MODES = {
    "multi": (dict(), SCRIPT),
    "single": (dict(agent_mode="single"), SCRIPT),
    "fanout": (dict(fanout_sampling=True), FANOUT_SCRIPT),
}


def run_golden(templates: PromptLibrary, transcript: Path, mode: str = "multi"):
    """The scripted run in ``mode``; returns (outcome, backend, config)."""
    overrides, script = MODES[mode]
    backend = ScriptedBackend(script)
    runtime = EngineRuntime(
        backend=backend,
        sim_runner=StubSimRunner(),
        syntax_checker=StubSyntaxChecker(),
        templates=templates,
        transcript_dir=transcript,
    )
    config = RunConfig(pool_size=6, top_k=3, max_debug_rounds=3, **overrides)
    return run_pipeline(stub_counter_problem(), config, runtime), backend, config


def request_keys(backend: ScriptedBackend) -> str:
    return "".join(f"{key}\n" for key in sorted(request_key(r) for r in backend.requests))


def test_run_reproduces_golden_transcript(templates, tmp_path):
    outcome, _, _ = run_golden(templates, tmp_path)
    assert outcome.status == "solved"
    for name in ("events.jsonl", "best.v"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("mode", sorted(MODES))
def test_requests_match_pinned_keys(templates, tmp_path, mode):
    _, backend, _ = run_golden(templates, tmp_path, mode)
    assert request_keys(backend) == (GOLDEN / f"requests_{mode}.txt").read_text("utf-8")


def test_fanout_sampling_matches_native_run(templates, tmp_path):
    native, _, _ = run_golden(templates, tmp_path / "native")
    fanout, backend, config = run_golden(templates, tmp_path / "fanout", "fanout")
    sample_tags = sorted(r.tag for r in backend.requests if r.tag.startswith("rtl_gen/sample/"))
    assert sample_tags == [f"rtl_gen/sample/e0.{i}" for i in range(config.pool_size)]
    for name in ("events.jsonl", "best.v"):
        assert (tmp_path / "fanout" / name).read_bytes() == (
            tmp_path / "native" / name
        ).read_bytes(), name
    assert fanout.llm_calls == native.llm_calls + config.pool_size - 1
    assert fanout.llm_calls <= max_llm_calls(config)


if __name__ == "__main__":
    import shutil
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for mode in MODES:
        with tempfile.TemporaryDirectory() as scratch:
            _, backend, _ = run_golden(PromptLibrary(), Path(scratch), mode)
            (GOLDEN / f"requests_{mode}.txt").write_text(request_keys(backend), "utf-8")
            if mode == "multi":
                for name in ("events.jsonl", "best.v"):
                    shutil.copyfile(Path(scratch) / name, GOLDEN / name)
