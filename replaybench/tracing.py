"""Spans around rtlforge's layers, recorded from outside the program.

``instrument`` replaces functions where their callers look them up (module
globals and class attributes) with wrappers that record a span: name, start,
end, parent span and run id. Worker threads inherit the submitting thread's
span and run id through a context-carrying ``ThreadPoolExecutor``, so spans
in debug-trial and simulation threads hang under the run that started them.
Spans stay in memory until the benchmark writes them out.

Span names are ``<layer>.<what>``; a layer's self time is the time its spans
cover minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

from rtlforge import agents, bench, cassette, checkpoints, gateway, pipeline, simbridge

LAYERS = (
    "backend", "gateway", "cassette", "agents", "simbridge", "checkpoints", "pipeline", "bench"
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, run id)
        self.counts: dict[int, int] = {}  # span id -> items the call handled
        self.marks: list[tuple] = []  # (time, run id, event, step) of step/outcome events
        self.sims: list[tuple] = []  # (run id, testbench, normalized DUT) per simulation
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.parent, local.run = [], None, None
        return local

    def context(self) -> tuple:
        local = self._state()
        return (local.stack[-1] if local.stack else local.parent), local.run

    def carry(self, fn):
        """``fn`` bound to the calling thread's span and run, for a worker thread."""
        parent, run = self.context()

        def carried(*args, **kwargs):
            local = self._state()
            saved = local.stack, local.parent, local.run
            local.stack, local.parent, local.run = [], parent, run
            try:
                return fn(*args, **kwargs)
            finally:
                local.stack, local.parent, local.run = saved

        return carried

    def span(self, name, run=None) -> "_Span":
        """Context manager recording one span; ``run`` starts a new run id."""
        return _Span(self, name, run)

    def wrap(self, fn, name, count=None, run_of=None):
        """``fn`` recording one span per call.

        ``count(result)`` stores how many items the call handled; ``run_of``
        names the run that the call starts, from its arguments.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name, run_of(*args, **kwargs) if run_of else None) as sid:
                result = fn(*args, **kwargs)
                if count is not None:
                    self.counts[sid] = count(result)
                return result

        return traced

    def cursor(self) -> tuple[int, int, int]:
        return len(self.spans), len(self.marks), len(self.sims)

    def write(self, path) -> None:
        names = {s[0]: s[1] for s in self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "parent_name": names.get(parent),
                            "run": run,
                            "count": self.counts.get(sid),
                        }
                    )
                    + "\n"
                )


class _Span:
    __slots__ = ("tracer", "name", "run", "sid", "parent", "saved_run", "start")

    def __init__(self, tracer, name, run):
        self.tracer, self.name, self.run = tracer, name, run

    def __enter__(self) -> int:
        local = self.tracer._state()
        self.sid = next(self.tracer._ids)
        self.parent = local.stack[-1] if local.stack else local.parent
        self.saved_run = local.run
        if self.run is not None:
            local.run = self.run
        local.stack.append(self.sid)
        self.start = time.perf_counter()
        return self.sid

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        local = self.tracer._local
        local.stack.pop()
        run, local.run = local.run, self.saved_run
        self.tracer.spans.append((self.sid, self.name, self.start, end, self.parent, run))


def _trial_run(problem, run_index, *args, **kwargs) -> str:
    return f"{problem.task_id}/run{run_index}"


def instrument(tracer: Tracer, twin) -> callable:
    """Patch rtlforge's layer functions; returns the function that undoes it."""
    saved = []

    def patch(owner, attr, name, **kwargs):
        saved.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, **kwargs))

    patch(agents, "complete", "gateway.complete")
    patch(agents, "complete_fanout", "gateway.complete_fanout")
    patch(gateway, "request_digest", "gateway.digest")
    patch(cassette, "load_cassette", "cassette.load")
    for method, name in (
        ("generate_testbench", "agents.generate_testbench"),
        ("generate_rtl", "agents.generate_rtl"),
        ("sample_rtl_candidates", "agents.sample"),
        ("judge", "agents.judge"),
        ("debug_trial", "agents.debug_trial"),
        ("fix_syntax", "agents.fix_syntax"),
    ):
        patch(agents.AgentTeam, method, name)
    patch(agents, "render_window", "agents.render_window")
    patch(agents, "render_excerpt", "agents.render_excerpt")
    patch(simbridge, "compile_sources", "simbridge.compile")
    patch(simbridge, "simulate", "simbridge.simulate")
    patch(twin, "compile", "simbridge.compile")
    patch(twin, "simulate", "simbridge.simulate")
    patch(checkpoints, "parse_trace", "checkpoints.parse", count=lambda t: t.total_checks)
    patch(checkpoints, "score", "checkpoints.score")
    patch(checkpoints, "earliest_mismatch", "checkpoints.earliest_mismatch")
    patch(checkpoints, "extract_window", "checkpoints.extract_window")
    patch(bench, "run_pipeline", "pipeline.run")
    patch(pipeline, "select_top_k", "pipeline.select_top_k")
    patch(pipeline, "update_selection", "pipeline.update_selection")
    patch(pipeline.WorkdirAllocator, "acquire", "pipeline.workdir")
    patch(bench, "run_trial", "bench.trial", run_of=_trial_run)
    patch(bench, "evaluate_golden", "bench.golden")

    emit = pipeline.EventLog.emit

    def marking_emit(log, event):
        if event["event"] in ("step", "outcome"):
            mark = (time.perf_counter(), tracer.context()[1], event["event"], event.get("step"))
            tracer.marks.append(mark)
        return emit(log, event)

    saved.append((pipeline.EventLog, "emit", emit))
    pipeline.EventLog.emit = tracer.wrap(marking_emit, "pipeline.event")

    class CarryingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.carry(fn), *args, **kwargs)

    for module in (pipeline, gateway, bench):
        saved.append((module, "ThreadPoolExecutor", module.ThreadPoolExecutor))
        module.ThreadPoolExecutor = CarryingExecutor

    def restore():
        for owner, attr, original in reversed(saved):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore


_ABSENT = object()


def seams(tracer: Tracer):
    """Wrap a runtime's injected seams: (backend, sim_runner, syntax_checker, templates)."""

    def wrap(backend, sim_runner, syntax_checker, templates):
        run = sim_runner.run

        def recording_run(sources, workdir):
            tb = next(s.code for s in sources if s.kind == "testbench")
            if "BENCH-GOLDEN" not in tb:
                # Distinct as the pipeline's simulation cache keys sources.
                dut = next(s.code for s in sources if s.kind == "dut")
                tracer.sims.append((tracer.context()[1], tb, pipeline._normalize_code(dut)))
            return run(sources, workdir)

        templates.render = tracer.wrap(templates.render, "agents.render")
        return (
            SimpleNamespace(complete=tracer.wrap(backend.complete, "backend.complete")),
            SimpleNamespace(run=tracer.wrap(recording_run, "simbridge.sim_runner")),
            tracer.wrap(syntax_checker, "agents.syntax_check"),
            templates,
        )

    return wrap


# ---------------------------------------------------------------------------
# Per-layer figures


def _covered(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _, start, end, _, _ in spans
    }


def summarize(tracer: Tracer, span: tuple, runs: int, transcript_bytes: int) -> dict:
    """Per-layer figures of one traced pass, per pipeline run where counted.

    ``span`` is the pair of ``Tracer.cursor()`` values taken before and
    after the pass.
    """
    (s0, m0, q0), (s1, m1, q1) = span
    spans = tracer.spans[s0:s1]
    marks = tracer.marks[m0:m1]
    sims = tracer.sims[q0:q1]
    names = {s[0]: s[1] for s in spans}
    total = defaultdict(float)
    calls = defaultdict(int)
    for sid, name, start, end, _, _ in spans:
        total[name] += end - start
        calls[name] += 1
    per = lambda x: x / runs  # noqa: E731
    checks = sum(tracer.counts.get(s[0], 0) for s in spans if s[1] == "checkpoints.parse")
    window = sum(
        end - start
        for _, name, start, end, parent, _ in spans
        if name in ("checkpoints.earliest_mismatch", "checkpoints.extract_window")
        and not names.get(parent, "").startswith(("checkpoints.", "agents."))
    )
    steps = defaultdict(float)
    by_run = defaultdict(list)
    for mark in marks:
        by_run[mark[1]].append(mark)
    for run_marks in by_run.values():
        run_marks.sort()
        for (t, _, event, step), nxt in zip(run_marks, run_marks[1:]):
            if event == "step":
                steps[step] += nxt[0] - t
    self_s = self_times(spans)
    layer_self = defaultdict(float)
    for sid, name, *_ in spans:
        layer_self[name.split(".")[0]] += self_s[sid]
    all_self = sum(layer_self.values()) or 1.0
    figures = {
        "gateway.calls": per(calls["backend.complete"]),
        "gateway.backend_s": per(total["backend.complete"]),
        "gateway.digest_s": per(total["gateway.digest"]),
        "agents.render_s": per(
            total["agents.render"] + total["agents.render_window"] + total["agents.render_excerpt"]
        ),
        "agents.syntax_checks": per(calls["agents.syntax_check"]),
        "agents.syntax_check_s": per(total["agents.syntax_check"]),
        "agents.sample_phase_s": per(total["agents.sample"]),
        "agents.debug_trial_s": per(total["agents.debug_trial"]),
        "simbridge.compiles": per(calls["simbridge.compile"]),
        "simbridge.compile_s": per(total["simbridge.compile"]),
        "simbridge.simulations": per(calls["simbridge.simulate"]),
        "simbridge.simulate_s": per(total["simbridge.simulate"]),
        "checkpoints.parse_s": per(total["checkpoints.parse"]),
        "checkpoints.checks_parsed": per(checks),
        "checkpoints.parse_us_per_check": total["checkpoints.parse"] / max(checks, 1) * 1e6,
        "checkpoints.score_s": per(total["checkpoints.score"]),
        "checkpoints.window_s": per(window),
        **{f"pipeline.step{k}_s": per(steps[k]) for k in range(1, 6)},
        "pipeline.sims_per_distinct_source": len(sims) / max(len(set(sims)), 1),
        "pipeline.selection_s": per(
            total["pipeline.select_top_k"] + total["pipeline.update_selection"]
        ),
        "pipeline.events": per(calls["pipeline.event"]),
        "pipeline.event_s": per(total["pipeline.event"]),
        "pipeline.workdirs": per(calls["pipeline.workdir"]),
        "pipeline.transcript_bytes": per(transcript_bytes),
        "bench.golden_s": per(total["bench.golden"]),
        "bench.report_s": total["bench.report"],
    }
    for layer in LAYERS:
        figures[f"self_frac.{layer}"] = layer_self[layer] / all_self
    return figures


def cassette_load_s(tracer: Tracer) -> float:
    loads = [end - start for _, name, start, end, _, _ in tracer.spans if name == "cassette.load"]
    return statistics.median(loads)
