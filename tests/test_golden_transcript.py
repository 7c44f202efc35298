"""Replay identity across code changes: one scripted run must reproduce the
checked-in ``events.jsonl`` and ``best.v`` byte for byte.

The run (pool 6, top-K 3, 3 debug rounds) covers a sentinel sample, two
identical samples, and debug trials that win, tie, regress, need a syntax
fix, repeat an earlier source, and fail outright. To re-record after an
intended change of the transcript, run this file as a script.
"""

from pathlib import Path

from rtlforge.agents import PromptLibrary
from rtlforge.pipeline import EngineRuntime, RunConfig, run_pipeline

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


def run_golden(templates: PromptLibrary, transcript: Path):
    runtime = EngineRuntime(
        backend=ScriptedBackend(SCRIPT),
        sim_runner=StubSimRunner(),
        syntax_checker=StubSyntaxChecker(),
        templates=templates,
        transcript_dir=transcript,
    )
    config = RunConfig(pool_size=6, top_k=3, max_debug_rounds=3)
    return run_pipeline(stub_counter_problem(), config, runtime)


def test_run_reproduces_golden_transcript(templates, tmp_path):
    outcome = run_golden(templates, tmp_path)
    assert outcome.status == "solved"
    for name in ("events.jsonl", "best.v"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        run_golden(PromptLibrary(), Path(scratch))
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for name in ("events.jsonl", "best.v"):
            shutil.copyfile(Path(scratch) / name, GOLDEN / name)
