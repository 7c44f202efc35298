"""Smoke test of the trace-parse benchmark command at a tiny size."""

import json
import subprocess
import sys
from pathlib import Path

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
    assert {"trace", "repeats", "rounds", "change", "baseline", "speedup"} <= set(micro)
    for side in ("change", "baseline"):
        assert set(micro[side]) == {"src", "commit", "us_per_check"}
        for n in ("20", "50"):
            stats = micro[side]["us_per_check"][n]
            assert set(stats) == {"median", "q1", "q3", "min", "n"}
            assert stats["n"] == 4 and stats["median"] > 0
    assert set(micro["speedup"]) == {"20", "50"}
    assert "end_to_end" not in result
