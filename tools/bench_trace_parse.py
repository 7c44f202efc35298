"""Benchmark of checkpoint-trace parsing, with paired end-to-end replays.

    python3 tools/bench_trace_parse.py --out BENCH_trace_parse.json \
        [--src DIR] [--baseline-src DIR] [--checks 2000,20000] [--repeats 5] [--rounds 3] \
        [--e2e-root DIR --e2e-baseline-root DIR --seeds 301,302 --seconds 20 \
         --workloads paper_subproc,llm_latency_bench]

Micro-benchmark: times ``rtlforge.checkpoints.parse_trace`` on seeded stub
traces (3 inputs and 3 outputs per check, one check in 50 wrong) built by
``replaybench/stubtool.render_trace``. Each ``src/`` directory is timed in its
own interpreter, so ``--baseline-src`` can point at another checkout's
``src/`` and both are measured by this file's code; the sides alternate over
``--rounds`` processes each. A process parses each size once to warm up, then
``--repeats`` times; the figures are microseconds per check.

Epoch case: the 20 sample traces of one step-4 pool (one stimulus of 64
checks, 2 inputs and 2 outputs, a seeded fault set per candidate), parsed
``--repeats`` times as one testbench epoch parses them: through one fresh
line memo per repeat when ``parse_trace`` takes one (``lines``), plainly
otherwise, so a parent without the memo is measured by the same code. It
reports microseconds per check and the memo hit rate, the share of CHECK
lines answered from the memo.

End to end: with ``--e2e-root`` and ``--e2e-baseline-root`` (two checkouts),
runs ``tools/bench_pairs.py``'s alternating pairs of ``replaybench/run.py``
once per seed and workload, and records every run's metrics with their
medians and quartiles. Toolchain figures there come from the benchmark's
stub compiler and simulator, not from iverilog/vvp.

The checked-in ``BENCH_trace_parse.json`` was written from a directory holding
two clones, ``parent`` (the commit before the per-epoch line memo) and
``change``; its ``command`` field is the exact invocation.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from bench_pairs import commit_of, e2e, ints, summary  # noqa: E402
INPUTS, OUTPUTS, FAULT_EVERY = 3, 3, 50
# The epoch case: step 4's pool on paper_subproc's trace shape.
EPOCH_CANDIDATES, EPOCH_CHECKS, EPOCH_INPUTS, EPOCH_OUTPUTS = 20, 64, 2, 2


def render_trace(stim: str, faults: list[int]) -> str:
    sys.path.insert(0, str(ROOT / "replaybench"))
    import stubtool

    return stubtool.render_trace(stim, faults)


def stub_trace(checks: int, seed: int) -> tuple[str, int]:
    """Simulator stdout with ``checks`` checks and the number of them that are wrong."""
    faults = random.Random(seed).sample(range(checks), max(checks // FAULT_EVERY, 1))
    stim = f"seed={seed} checks={checks} ins={INPUTS} outs={OUTPUTS}"
    return render_trace(stim, faults), len(faults)


def epoch_traces(seed: int) -> list[tuple[str, int]]:
    """One epoch's sample traces, each with the number of its checks that are wrong."""
    rng = random.Random(seed)
    stim = f"seed={seed} checks={EPOCH_CHECKS} ins={EPOCH_INPUTS} outs={EPOCH_OUTPUTS}"
    traces = []
    for _ in range(EPOCH_CANDIDATES):
        faults = rng.sample(range(EPOCH_CHECKS), rng.randint(2, 16))
        traces.append((render_trace(stim, faults), len(faults)))
    return traces


def time_parse(checks: int, repeats: int, seed: int) -> list[float]:
    """Microseconds per check of each timed parse (run inside the worker)."""
    from rtlforge.checkpoints import parse_trace

    stdout, wrong = stub_trace(checks, seed)
    trace = parse_trace(stdout)
    if (trace.total_checks, trace.mismatches) != (checks, wrong):
        raise SystemExit(f"parse gave {trace.total_checks}/{trace.mismatches}, want {checks}/{wrong}")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        parse_trace(stdout)
        samples.append((time.perf_counter() - start) / checks * 1e6)
    return samples


def time_epoch(repeats: int, seed: int) -> tuple[list[float], float | None]:
    """Microseconds per check of each timed epoch parse, and the memo hit rate
    (None when ``parse_trace`` takes no memo). Runs inside the worker."""
    from rtlforge.checkpoints import parse_trace

    traces = epoch_traces(seed)
    checks = EPOCH_CANDIDATES * EPOCH_CHECKS
    takes_memo = "lines" in inspect.signature(parse_trace).parameters

    def parse_epoch() -> dict | None:
        memo = {} if takes_memo else None
        for stdout, _ in traces:
            if takes_memo:
                parse_trace(stdout, lines=memo)
            else:
                parse_trace(stdout)
        return memo

    for stdout, wrong in traces:
        trace = parse_trace(stdout)
        if (trace.total_checks, trace.mismatches) != (EPOCH_CHECKS, wrong):
            raise SystemExit(f"epoch parse gave {trace.total_checks}/{trace.mismatches}")
    memo = parse_epoch()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        parse_epoch()
        samples.append((time.perf_counter() - start) / checks * 1e6)
    return samples, None if memo is None else 1 - len(memo) / checks


def micro(srcs: dict[str, Path], sizes: list[int], repeats: int, rounds: int, seed: int) -> dict:
    """Time each ``src/`` in ``rounds`` worker processes, alternating the order."""
    samples = {side: {str(n): [] for n in sizes} for side in srcs}
    epoch = {side: [] for side in srcs}
    hit_rate = {}
    for i in range(rounds):
        for side in (list(srcs) if i % 2 == 0 else list(srcs)[::-1]):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
                   "--src", str(srcs[side]), "--checks", ",".join(map(str, sizes)),
                   "--repeats", str(repeats), "--seed", str(seed)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout)
            for n, values in result["sizes"].items():
                samples[side][n] += values
            epoch[side] += result["epoch"]
            hit_rate[side] = result["memo_hit_rate"]
    return {
        side: {
            "src": str(src),
            "commit": commit_of(src),
            "us_per_check": {n: summary(values) for n, values in samples[side].items()},
            "epoch": {"us_per_check": summary(epoch[side]), "memo_hit_rate": hit_rate[side]},
        }
        for side, src in srcs.items()
    }


def worker(args) -> int:
    sys.path.insert(0, str(Path(args.src).resolve()))
    sizes = {str(n): time_parse(n, args.repeats, args.seed) for n in args.checks}
    epoch, hit_rate = time_epoch(args.repeats, args.seed)
    print(json.dumps({"sizes": sizes, "epoch": epoch, "memo_hit_rate": hit_rate}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--baseline-src")
    parser.add_argument("--checks", type=ints, default=[2000, 20000])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--e2e-root")
    parser.add_argument("--e2e-baseline-root")
    parser.add_argument("--seeds", type=ints, default=[301, 302])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument(
        "--workloads", type=lambda s: s.split(","), default=["paper_subproc", "llm_latency_bench"]
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args)
    if args.out is None:
        parser.error("--out is required")
    if bool(args.e2e_root) != bool(args.e2e_baseline_root):
        parser.error("--e2e-root and --e2e-baseline-root go together")
    srcs = {"change": Path(args.src)}
    if args.baseline_src:
        srcs["baseline"] = Path(args.baseline_src)
    sides = micro(srcs, args.checks, args.repeats, args.rounds, args.seed)
    result = {
        "topic": "checkpoint-trace parsing (rtlforge.checkpoints.parse_trace)",
        "command": " ".join(["python3", sys.argv[0], *(sys.argv[1:] if argv is None else argv)]),
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}",
        "micro": {
            "trace": f"replaybench/stubtool.render_trace, ins={INPUTS} outs={OUTPUTS}, "
            f"one check in {FAULT_EVERY} wrong, seed {args.seed}",
            "epoch": f"{EPOCH_CANDIDATES} candidate traces of one stimulus, "
            f"checks={EPOCH_CHECKS} ins={EPOCH_INPUTS} outs={EPOCH_OUTPUTS}, "
            f"2-16 seeded faults each, seed {args.seed}",
            "repeats": args.repeats,
            "rounds": args.rounds,
            **sides,
        },
    }
    if "baseline" in sides:
        medians = {
            side: {
                **{n: stats["median"] for n, stats in sides[side]["us_per_check"].items()},
                "epoch": sides[side]["epoch"]["us_per_check"]["median"],
            }
            for side in ("baseline", "change")
        }
        result["micro"]["speedup"] = {
            n: medians["baseline"][n] / median for n, median in medians["change"].items()
        }
    if args.e2e_root:
        result["end_to_end"] = e2e(
            args.e2e_root, args.e2e_baseline_root, args.seeds, args.seconds, args.workloads
        )
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result["micro"].get("speedup", result["micro"]["change"]["us_per_check"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
