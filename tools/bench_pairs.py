"""Alternating pairs of end-to-end replays: one checkout against another.

    python3 tools/bench_pairs.py --root CHANGE --baseline-root PARENT \
        --seeds 1301,1302 --seconds 45 [--workloads paper_subproc,llm_latency_bench] \
        --out BENCH_replay.json

Runs ``replaybench/run.py`` of each checkout once per seed and workload,
alternating which side runs first, and records every run's end-to-end
metrics and gate failures. Per workload and metric it writes each side's
median and quartiles, the change's wins (pairs where it reads better, by the
direction BENCHMARK.json declares; ties count for neither), the parent's
IQR, and whether the change's median beats the parent's by more than that
IQR. It also gives a no-regression verdict against the metric's declared
bound, a fraction of the parent's median: ``regressed`` when the change's
median is worse by more than that fraction, ``unresolved`` when the
parent's IQR is wider than it, unless every change run reads better than
every parent run. Toolchain figures come from the benchmark's stub compiler
and simulator, not from iverilog/vvp.

Beside the declared metrics it records the orchestrator's system CPU per
run (``orchestrator_sys_cpu_s``, read from ``replaybench/run.py``'s stderr),
with a per-side summary and no verdict: BENCHMARK.json declares only user
CPU, so kernel work around a launch, such as making a workdir and writing
its sources, shows only here.

``tools/bench_trace_parse.py`` uses ``e2e`` for its end-to-end section.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The metrics kept from each end-to-end run, and which way is better.
BETTER = {m["name"]: m["better"] for m in DECLARED["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}  # a fraction of the median
E2E_METRICS = tuple(BETTER)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SYS_CPU = "orchestrator_sys_cpu_s"  # recorded and summarised, never judged
_CPU_LINE_RE = re.compile(r"wall, user and system CPU per run \(s\): (.*)$", re.MULTILINE)


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "n": len(values)}


def commit_of(path: Path) -> str:
    """HEAD of the checkout holding ``path``, marked when files under it differ."""
    git = ["git", "-C", str(path)]
    proc = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    if proc.returncode != 0:
        return "unknown"
    dirty = subprocess.run([*git, "diff", "--quiet", "HEAD", "--", "."]).returncode != 0
    return proc.stdout.strip() + ("+modified" if dirty else "")


def sys_cpu_per_run(stderr: str) -> Optional[float]:
    """The median, over the measured passes, of the system CPU per run: the
    third figure of each "wall,user,sys" triple in run.py's line ``wall,
    user and system CPU per run (s): ...``, whose first triple, the
    warm-up's, is left out. None when no line holds a measured pass."""
    match = _CPU_LINE_RE.search(stderr)
    triples = match.group(1).split()[1:] if match else []
    return statistics.median(float(t.split(",")[2]) for t in triples) if triples else None


def e2e_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "replaybench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        # A gate failure still ends in a result line; a crash does not.
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise SystemExit(f"{root}: replaybench {workload} seed {seed} exited with status "
                         f"{proc.returncode} and no result line; stderr ends:\n{tail}")
    run = {
        "seed": seed,
        "failed": result["failed"],
        **{name: result["metrics"][name]["value"] for name in E2E_METRICS},
    }
    sys_cpu = sys_cpu_per_run(proc.stderr)
    if sys_cpu is not None:
        run[SYS_CPU] = sys_cpu
    return run


def side_summary(runs: list[dict]) -> dict:
    """Each declared metric's summary over ``runs``, and the system CPU's
    over the runs that recorded it."""
    out = {m: summary([r[m] for r in runs]) for m in E2E_METRICS}
    sys_cpu = [r[SYS_CPU] for r in runs if SYS_CPU in r]
    if sys_cpu:
        out[SYS_CPU] = summary(sys_cpu)
    return out


def e2e(root: Path, baseline_root: Path, seeds: list[int], seconds: float,
        workloads: list[str]) -> dict:
    """Every run of both checkouts, with per-side summaries per workload."""
    roots = {"baseline": Path(baseline_root), "change": Path(root)}
    out = {
        "commits": {side: commit_of(path) for side, path in roots.items()},
        "seeds": seeds,
        "seconds": seconds,
        "toolchain": "stub (replaybench/stubtool.py), not iverilog/vvp",
        "workloads": {},
    }
    for workload in workloads:
        runs = {"baseline": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("baseline", "change") if i % 2 == 0 else ("change", "baseline")
            for side in order:
                runs[side].append(e2e_run(roots[side], workload, seed, seconds))
                print(f"{workload} seed {seed} {side}: {runs[side][-1]}", file=sys.stderr)
        out["workloads"][workload] = {
            "pairs": len(seeds),
            **{
                side: {
                    "summary": side_summary(rs),
                    "failed": sum(r["failed"] for r in rs),
                    "runs": rs,
                }
                for side, rs in runs.items()
            },
        }
    return out


def wins(runs: dict, metric: str) -> int:
    """Pairs in which the change reads strictly better than the baseline."""
    sign = 1 if BETTER[metric] == "lower" else -1
    return sum(
        sign * (c[metric] - b[metric]) < 0 for b, c in zip(runs["baseline"], runs["change"])
    )


def all_better(runs: dict, metric: str) -> bool:
    """Whether every change run reads strictly better than every parent run."""
    base, change = ([r[metric] for r in runs[side]] for side in ("baseline", "change"))
    if BETTER[metric] == "lower":
        return max(change) < min(base)
    return min(change) > max(base)


def compare(workload: dict) -> dict:
    """Per metric: medians, the change's wins, the parent's IQR, whether the
    change's median beats the parent's by more than that IQR, and the
    no-regression verdict against the declared bound."""
    runs = {side: workload[side]["runs"] for side in ("baseline", "change")}
    rows = {}
    for metric in E2E_METRICS:
        base, change = (workload[side]["summary"][metric] for side in ("baseline", "change"))
        iqr = base["q3"] - base["q1"]
        gain = base["median"] - change["median"]
        if BETTER[metric] == "higher":
            gain = -gain
        allowed = BOUND[metric] * abs(base["median"])
        rows[metric] = {
            "better": BETTER[metric],
            "baseline_median": base["median"],
            "change_median": change["median"],
            "baseline_iqr": iqr,
            "median_gain": gain,
            "change_wins": wins(runs, metric),
            "gain_exceeds_baseline_iqr": gain > iqr,
            "bound": BOUND[metric],
            "regressed": -gain > allowed,
            "unresolved": iqr > allowed and not all_better(runs, metric),
        }
    return rows


def ints(text: str) -> list[int]:
    return [int(item) for item in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True, help="checkout of the change")
    parser.add_argument("--baseline-root", required=True, help="checkout of its parent")
    parser.add_argument("--seeds", type=ints, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--workloads", type=lambda s: s.split(","), default=WORKLOADS)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    end_to_end = e2e(args.root, args.baseline_root, args.seeds, args.seconds, args.workloads)
    result = {
        "topic": "end-to-end replays, change against parent (replaybench/run.py)",
        "command": " ".join(["python3", sys.argv[0], *(sys.argv[1:] if argv is None else argv)]),
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}",
        "comparison": {
            name: {"pairs": w["pairs"], "metrics": compare(w)}
            for name, w in end_to_end["workloads"].items()
        },
        "end_to_end": end_to_end,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for name, rows in result["comparison"].items():
        for metric, row in rows["metrics"].items():
            print(f"{name:18s} {metric:20s} wins {row['change_wins']}/{rows['pairs']} "
                  f"median {row['baseline_median']:.4g} -> {row['change_median']:.4g} "
                  f"(parent IQR {row['baseline_iqr']:.3g}) "
                  f"regressed {row['regressed']} unresolved {row['unresolved']}")
        sides = [end_to_end["workloads"][name][side]["summary"] for side in ("baseline", "change")]
        if all(SYS_CPU in side for side in sides):
            base, change = (side[SYS_CPU]["median"] for side in sides)
            print(f"{name:18s} {SYS_CPU:20s} median {base:.4g} -> {change:.4g} "
                  "(not declared; no verdict)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
