"""Offline replay benchmark for rtlforge.

    python3 replaybench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; rtlforge is imported from ``src/`` there.
For one workload the command

1. sets up: builds the workload's problems and scripted LLM replies from the
   seed, records them once to a cassette through ``CassetteRecorder`` on the
   in-process stub toolchain, and loads the cassette into ``ReplayBackend``.
   It sets up five times and reports the median as ``setup_s``;
2. replays every (problem, run) through ``bench.run_bench`` and
   ``bench.emit_report`` on the paper defaults, pass after pass, for
   ``--seconds`` (no pass starts that the last one's length says would end
   past it); each pass waits for the one before it (a closed loop), and the
   first pass is a warm-up that only the gate sees;
3. checks every replayed run against its recording (the correctness gate)
   and exits 1 if any deviates.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics, and
writes the spans to ``.replaybench/``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload, each in its own process: those
BENCHMARK.json declares and ``long_trace``, which it does not.

Toolchain figures come from the benchmark's stub compiler and simulator, not
from iverilog/vvp.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

# Workloads, metric names and units, as BENCHMARK.json declares them.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])
# Runs by name only: its minute of set-up leaves too little of the
# benchmark's time budget for runs long enough to keep the declared
# workloads' time figures steady.
EXTRA_WORKLOADS = ("long_trace",)
STUB = {"toolchain_cpu_s", "compiler_launches", "simulator_launches"}
# Printed beside the declared metrics; failed_frac is 0 on a correct run, so
# the result line carries it as ``attempted``/``failed`` instead.
EXTRA_UNITS = {"replay_identical_frac": "fraction", "failed_frac": "fraction"}


def _declared(per_layer: bool) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED["per_layer" if per_layer else "end_to_end"]}


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _setup(harness, workload: str, seed: int, work: Path):
    times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        ws = harness.prepare(workload, seed, work / f"setup{i}")
        recording = harness.record(ws, ws.root / "cassette.jsonl")
        client = harness.load(ws, recording)
        times.append(time.perf_counter() - start)
    return ws, recording, client, statistics.median(times)


def run_workload(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import rtlforge

    if not Path(rtlforge.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: rtlforge imported from {rtlforge.__file__}, not {ROOT / 'src'}")
    import harness
    import tracing

    import_s = time.perf_counter() - T0
    # Everything the runs write stays until the end: deleting thousands of
    # workdirs between passes makes the next pass's file-system calls slow
    # and erratic.
    work = ROOT / ".replaybench" / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ws, recording, client, setup_s = _setup(harness, args.workload, args.seed, work)
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, gates, walls = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        # The first pass warms the heap, thread stacks and file-system state
        # and counts only for the gate.
        warmup = harness.run_pass(ws, client, ws.root / "warmup")
        gates.append(harness.gate(recording, warmup, client.missed))
        i = 0
        while True:
            out = ws.root / f"pass{i}"
            if tracer is not None and i % 2 == 1:
                restore = tracing.instrument(tracer, ws.inproc)
                try:
                    since = tracer.cursor()
                    pass_client = harness.load(ws, recording)
                    result = harness.run_pass(
                        ws, pass_client, out, seams=tracing.seams(tracer), span=tracer.span
                    )
                finally:
                    restore()
                span = (since, tracer.cursor())
                traced.append((result, span, _tree_bytes(out / "runs")))
                missed = pass_client.missed
            else:
                seen = len(client.missed)
                result = harness.run_pass(ws, client, out)
                plain.append(result)
                missed = client.missed[seen:]
            gates.append(harness.gate(recording, result, missed))
            i += 1
            walls.append(result.wall_s)
            # Plain and traced passes alternate, so the longer of the last
            # two estimates the next one.
            next_end = time.perf_counter() + max(walls[-2:])
            if next_end >= deadline and i >= (2 if tracer else 1):
                break
        passes = [warmup] + plain + [r for r, _, _ in traced]
        print(
            f"{args.workload}: warm-up and {i} passes; wall, user and system CPU per run (s): "
            + " ".join(
                f"{p.wall_s:.3f},{p.self_user_s / p.runs:.3f},{p.self_sys_s / p.runs:.3f}"
                for p in passes
            ),
            file=sys.stderr,
        )
        attempted = sum(g.attempted for g in gates)
        failed = sum(g.failed for g in gates)
        for g in gates:
            for problem in g.problems:
                print(f"gate: {problem}", file=sys.stderr)
        if tracer is None:
            metrics = _end_to_end(plain, setup_s + import_s)
        else:
            metrics = _per_layer(tracing, tracer, plain, traced)
            tracer.write(ROOT / ".replaybench" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        # A race outcome, so it is a per-layer figure; printed in both modes.
        metrics["replay_identical_frac"] = sum(g.identical for g in gates) / sum(
            g.artifacts for g in gates
        )
        metrics["failed_frac"] = failed / attempted
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        _remove(work)


def _remove(work: Path) -> None:
    """Delete the work tree and commit the deletion before exiting.

    Without the directory fsync the file system finishes freeing thousands
    of workdirs during whatever runs next, such as the next benchmark run.
    """
    shutil.rmtree(work, ignore_errors=True)
    fd = os.open(work.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _end_to_end(passes, setup_s) -> dict:
    runs = sum(p.runs for p in passes)

    def per_run(f):
        # Over all measured passes: CPU speed drifts from pass to pass on a
        # shared host, and a total evens that out better than a median of
        # a handful of passes.
        return sum(f(p) for p in passes) / runs

    return {
        "setup_s": setup_s,
        "wall_s": statistics.median([p.wall_s for p in passes]),
        "run_s_p50": statistics.median([s for p in passes for s in p.run_s]),
        # User-mode CPU only: system time here swings with file-system state
        # left by earlier processes far more than with the program's work.
        "orchestrator_cpu_s": per_run(lambda p: p.self_user_s - p.stub_cpu_s),
        "toolchain_cpu_s": per_run(lambda p: p.child_cpu_s + p.stub_cpu_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "llm_calls": per_run(lambda p: sum(a.llm_calls for a in p.artifacts.values())),
        "compiler_launches": per_run(lambda p: p.compiles),
        "simulator_launches": per_run(lambda p: p.simulations),
        "pass_at_1": statistics.median([p.pass_at_1 for p in passes]),
    }


def _per_layer(tracing, tracer, plain, traced) -> dict:
    figures = [tracing.summarize(tracer, span, r.runs, nbytes) for r, span, nbytes in traced]
    metrics = {name: statistics.median([f[name] for f in figures]) for name in figures[0]}
    metrics["cassette.load_s"] = tracing.cassette_load_s(tracer)
    metrics["orchestrator_sys_cpu_s"] = statistics.median([p.self_sys_s / p.runs for p in plain])
    metrics["trace.overhead_frac"] = (
        statistics.median([r.wall_s for r, _, _ in traced])
        / statistics.median([p.wall_s for p in plain])
        - 1
    )
    return metrics


def _print(workload: str, result: dict, per_layer: bool) -> None:
    units = {**EXTRA_UNITS, **_declared(per_layer)}
    for name, value in result["metrics"].items():
        label = "  (stub toolchain)" if name in STUB or name.startswith("simbridge.") else ""
        print(f"{workload:18s} {name:36s} {value:16.6f} {units[name]}{label}")


def _result_line(result: dict, per_layer: bool) -> str:
    """The JSON line: end-to-end metrics untraced, per-layer metrics traced."""
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in _declared(per_layer).items()
    }
    counts = {k: result[k] for k in ("correct", "attempted", "failed")}
    return json.dumps({**counts, "metrics": metrics})


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (*WORKLOADS, *EXTRA_WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            merged["correct"] = False
            merged["failed"] += 1
            continue
        result = json.loads(lines[-1])
        for key in ("attempted", "failed"):
            merged[key] += result[key]
        merged["correct"] &= result["correct"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=(*WORKLOADS, *EXTRA_WORKLOADS, "all")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rtlforge" / "__init__.py").is_file():
        print(f"error: no rtlforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    _print(args.workload, result, bool(args.trace))
    print(_result_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
