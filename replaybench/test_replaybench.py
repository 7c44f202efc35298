"""Tests of the replay benchmark itself, on tiny workloads.

    python3 -m pytest -q replaybench
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import scenario  # noqa: E402
import stubtool  # noqa: E402
import tracing  # noqa: E402
from rtlforge.cassette import CassetteError  # noqa: E402
from rtlforge.simbridge import (  # noqa: E402
    ToolchainConfig,
    ToolchainSimRunner,
    VerilogSource,
    check_syntax,
)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = scenario.Shape(
    kinds=("step2", "regen", "debug1"),
    runs_per_problem=1,
    workers=2,
    toolchain="inprocess",
    checks=32,
    outs=2,
    golden_checks=12,
    tb_rows=4,
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(scenario.WORKLOADS, "tiny", TINY)
    monkeypatch.setitem(
        scenario.WORKLOADS,
        "tiny_subproc",
        dataclasses.replace(TINY, kinds=("debug1",), toolchain="subprocess"),
    )


def _recorded(tmp_path, seed=5, name="tiny"):
    ws = harness.prepare(name, seed, tmp_path / f"ws{seed}")
    return ws, harness.record(ws, ws.root / "cassette.jsonl")


def _replay(ws, recording):
    client = harness.load(ws, recording)
    result = harness.run_pass(ws, client, ws.root / "replay")
    return harness.gate(recording, result, client.missed)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(tiny, capsys, trace, section):
    args = argparse.Namespace(workload="tiny", seed=3, seconds=0, trace=trace)
    result = run.run_workload(args)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    run._print("tiny", result, bool(trace))
    printed = capsys.readouterr().out.splitlines()
    line = json.loads(run._result_line(result, bool(trace)))
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(row.split()[1:2] == [name] and row.split()[3] == unit for row in printed), name


def test_traced_figures_cover_one_pass_each(tiny, tmp_path):
    ws, recording = _recorded(tmp_path)
    tracer = tracing.Tracer()
    passes = []
    for k in range(2):
        restore = tracing.instrument(tracer, ws.inproc)
        try:
            since = tracer.cursor()
            client = harness.load(ws, recording)
            result = harness.run_pass(
                ws, client, ws.root / f"t{k}", seams=tracing.seams(tracer), span=tracer.span
            )
        finally:
            restore()
        passes.append((result, (since, tracer.cursor())))
    per_run = sum(a.llm_calls for a in passes[0][0].artifacts.values()) / passes[0][0].runs
    calls = [tracing.summarize(tracer, span, r.runs, 0)["gateway.calls"] for r, span in passes]
    assert calls == [per_run, per_run]


def test_gate_trips_on_edited_completion(tiny, tmp_path):
    ws, recording = _recorded(tmp_path)
    lines = recording.cassette.read_text(encoding="utf-8").splitlines()
    edited = []
    for line in lines:
        entry = json.loads(line)
        if "/debug/r1/" in entry["tag"] and "/fix" not in entry["tag"]:
            entry["completions"] = [
                c.replace("BENCH-FAULTS none", "BENCH-FAULTS 1") for c in entry["completions"]
            ]
            line = json.dumps(entry)
        edited.append(line)
    assert edited != lines
    recording.cassette.write_text("\n".join(edited) + "\n", encoding="utf-8")
    verdict = _replay(ws, recording)
    assert verdict.failed >= 1
    assert any("status" in p or "round_scores" in p for p in verdict.problems)


def test_gate_trips_on_truncated_cassette(tiny, tmp_path):
    ws, recording = _recorded(tmp_path)
    lines = recording.cassette.read_text(encoding="utf-8").splitlines(keepends=True)
    recording.cassette.write_text("".join(lines[:-3]), encoding="utf-8")
    verdict = _replay(ws, recording)
    assert verdict.failed >= 1
    assert any("ReplayMiss" in p for p in verdict.problems)
    # A line cut in the middle makes the cassette unloadable.
    recording.cassette.write_text("".join(lines[:-1]) + lines[-1][:40], encoding="utf-8")
    with pytest.raises(CassetteError):
        harness.load(ws, recording)


def test_replay_matches_recording(tiny, tmp_path):
    ws, recording = _recorded(tmp_path)
    verdict = _replay(ws, recording)
    assert verdict.failed == 0, verdict.problems


def test_same_seed_same_cassette(tiny, tmp_path):
    def content(seed, sub):
        _, recording = _recorded(tmp_path / sub, seed)
        entries = [json.loads(line) for line in recording.cassette.read_text().splitlines()]
        return sorted((e["key"], tuple(e["completions"])) for e in entries)

    assert content(5, "a") == content(5, "b")
    assert content(5, "a") != content(6, "c")


def test_subprocess_stub_matches_in_process_twin(tiny, tmp_path):
    ws = harness.prepare("tiny_subproc", 4, tmp_path / "ws")
    compiler, vvp, compiler_count, vvp_count = ws.scripts
    tool = ToolchainConfig(compiler_path=compiler, vvp_path=vvp, sim_timeout=10.0)
    task = ws.tasks[0]
    broken = VerilogSource("dut", task.module, scenario.dut_code(task, (1, 3), "x", err=True))
    clean = VerilogSource("dut", task.module, scenario.dut_code(task, (1, 3), "x"))
    tb = VerilogSource("testbench", f"{task.module}_tb", scenario.tb_code(task, 0))
    diagnostics = check_syntax(broken, tmp_path / "c0", tool)
    assert diagnostics and diagnostics == ws.inproc(broken, None)
    sub = ToolchainSimRunner(tool).run([clean, tb], tmp_path / "s0")
    twin = ws.inproc.run([clean, tb], None)
    assert (sub.status, sub.stdout, sub.diagnostics) == (twin.status, twin.stdout, twin.diagnostics)
    assert "mismatches=2" in twin.stdout
    assert (stubtool.launches(compiler_count), stubtool.launches(vvp_count)) == (2, 1)
    # One in-process recording replays through the subprocess toolchain.
    recording = harness.record(ws, ws.root / "cassette.jsonl")
    assert _replay(ws, recording).failed == 0


def test_modelled_delay_and_layer_targets_recorded():
    notes = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    assert notes["llm_delay_s"] == {
        name: shape.llm_delay_s for name, shape in scenario.WORKLOADS.items() if shape.llm_delay_s
    }
    assert set(notes["layer_targets"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {*run.WORKLOADS, *run.EXTRA_WORKLOADS} == set(scenario.WORKLOADS)
