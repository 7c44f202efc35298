"""The replay benchmark's tracer patches rtlforge functions by name; a
function the pipeline no longer calls would keep its name patched and its
per-layer figure at 0. One tiny traced pass must record a span for every
patched name."""

import sys
from pathlib import Path

REPLAYBENCH = Path(__file__).resolve().parents[1] / "replaybench"
sys.path.insert(0, str(REPLAYBENCH))

import harness  # noqa: E402
import scenario  # noqa: E402
import tracing  # noqa: E402
from test_replaybench import TINY  # noqa: E402

# Runs only with --fanout-sampling, which no workload sets.
UNUSED = {"gateway.complete_fanout"}


class PinTracer(tracing.Tracer):
    """A tracer that remembers the name of every function it wraps."""

    def __init__(self):
        super().__init__()
        self.names: set[str] = set()

    def wrap(self, fn, name, **kwargs):
        self.names.add(name)
        return super().wrap(fn, name, **kwargs)


def test_every_patched_name_records_a_span(monkeypatch, tmp_path):
    monkeypatch.setitem(scenario.WORKLOADS, "tiny", TINY)
    ws = harness.prepare("tiny", 5, tmp_path / "ws")
    recording = harness.record(ws, ws.root / "cassette.jsonl")
    tracer = PinTracer()
    restore = tracing.instrument(tracer, ws.inproc)
    pinned = set(tracer.names)
    try:
        client = harness.load(ws, recording)
        harness.run_pass(ws, client, ws.root / "t0", seams=tracing.seams(tracer), span=tracer.span)
    finally:
        restore()
    recorded = {span[1] for span in tracer.spans}
    assert "agents.sample" in pinned
    assert sorted(pinned - UNUSED - recorded) == []
