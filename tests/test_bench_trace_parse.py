"""Smoke test of the trace-parse benchmark command at a tiny size."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from rtlforge import checkpoints

ROOT = Path(__file__).resolve().parent.parent


def test_writes_micro_benchmark_json(tmp_path):
    out = tmp_path / "bench.json"
    cmd = [
        sys.executable, str(ROOT / "tools" / "bench_trace_parse.py"), "--out", str(out),
        "--checks", "20,50", "--repeats", "2", "--rounds", "2",
        "--baseline-src", str(ROOT / "src"),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert {"topic", "command", "machine", "micro"} <= set(result)
    micro = result["micro"]
    assert {"trace", "epoch", "repeats", "rounds", "change", "baseline", "speedup"} <= set(micro)
    for side in ("change", "baseline"):
        assert set(micro[side]) == {"src", "commit", "us_per_check", "epoch"}
        for stats in (*(micro[side]["us_per_check"][n] for n in ("20", "50")),
                      micro[side]["epoch"]["us_per_check"]):
            assert set(stats) == {"median", "q1", "q3", "min", "n"}
            assert stats["n"] == 4 and stats["median"] > 0
        # 20 candidates of one 64-check stimulus share most of their lines.
        assert 0.5 < micro[side]["epoch"]["memo_hit_rate"] < 1
    assert set(micro["speedup"]) == {"20", "50", "epoch"}
    assert "end_to_end" not in result


def test_epoch_case_parses_plainly_without_a_memo(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_trace_parse", ROOT / "tools" / "bench_trace_parse.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    parse = checkpoints.parse_trace
    monkeypatch.setattr(checkpoints, "parse_trace", lambda stdout: parse(stdout))
    samples, hit_rate = tool.time_epoch(repeats=2, seed=3)
    assert len(samples) == 2 and hit_rate is None
