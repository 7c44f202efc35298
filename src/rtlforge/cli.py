"""Command-line front end.

Commands:
  generate       run the pipeline on one specification file
  bench          run the harness over a problem set and write reports
  inspect-trace  parse a simulation log and show the first-mismatch window
  replay-verify  integrity-check a cassette file

Configuration precedence: flags > JSON config file > built-in defaults. The
effective configuration is echoed into every report. Exit codes for
``generate``: 0 solved, 2 budget exhausted, 1 error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

from . import checkpoints
from .bench import emit_report, load_problems, run_bench
from .cassette import verify_cassette
from .errors import EngineError
from .gateway import CassetteRecorder, HttpBackend, NamespacedBackend, ReplayBackend
from .golden import DEFAULT_CRITERION, GoldenCriterion
from .pipeline import EngineRuntime, RunConfig, run_pipeline
from .agents import PromptLibrary
from .problems import DATASET_FORMATS, Problem
from .simbridge import ToolchainConfig, ToolchainSimRunner, ToolchainSyntaxChecker

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2

CONFIG_DEFAULTS = {
    "backend": "live",
    "cassette": None,
    "base_url": "https://api.openai.com/v1",
    "auth_env": "RTLFORGE_API_KEY",
    "model": "default",
    "mode": "multi",
    "temp_profile": "high",
    "pool_size": None,
    "top_k": 3,
    "max_debug_rounds": 10,
    "window_len": 8,
    "max_tb_regens": 2,
    "sim_timeout": 30.0,
    "max_tokens": 4096,
    "seed": None,
    "scrub": False,
    "fanout_sampling": False,
    "sim_workers": 8,
    "tb_prompt_limit": None,
    "workers": 1,
    "runs": 1,
    "dataset_format": "jsonl",
    "prompts_dir": None,
    "compiler_path": None,
    "vvp_path": None,
    "golden_pass_pattern": DEFAULT_CRITERION.pass_pattern,
    "golden_fail_pattern": DEFAULT_CRITERION.fail_pattern,
    "role_overrides": {},
}

# Flag name -> config key for everything that shapes a run.
_RUN_FLAGS = {
    "--backend": "backend",
    "--cassette": "cassette",
    "--base-url": "base_url",
    "--auth-env": "auth_env",
    "--model": "model",
    "--mode": "mode",
    "--temp-profile": "temp_profile",
    "--pool-size": "pool_size",
    "--top-k": "top_k",
    "--max-debug-rounds": "max_debug_rounds",
    "--window-len": "window_len",
    "--max-tb-regens": "max_tb_regens",
    "--sim-timeout": "sim_timeout",
    "--max-tokens": "max_tokens",
    "--seed": "seed",
    "--sim-workers": "sim_workers",
    "--prompts-dir": "prompts_dir",
    "--compiler-path": "compiler_path",
    "--vvp-path": "vvp_path",
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--backend", choices=["live", "replay", "record"],
                        help="LLM backend mode (default: live)")
    parser.add_argument("--cassette", help="cassette path for replay/record backends")
    parser.add_argument("--base-url", help="chat-completions endpoint base URL")
    parser.add_argument("--auth-env", help="name of the env var holding the API credential")
    parser.add_argument("--model", help="model identifier sent to the endpoint")
    parser.add_argument("--mode", choices=["multi", "single", "vanilla"],
                        help="agent organization (default: multi)")
    parser.add_argument("--temp-profile", choices=["high", "low"],
                        help="sampling profile for the candidate pool (default: high)")
    parser.add_argument("--pool-size", type=int, help="candidate pool size (profile default)")
    parser.add_argument("--top-k", type=int, help="candidates kept for debugging (default: 3)")
    parser.add_argument("--max-debug-rounds", type=int, help="debug round budget (default: 10)")
    parser.add_argument("--window-len", type=int, help="waveform window length (default: 8)")
    parser.add_argument("--max-tb-regens", type=int,
                        help="testbench regeneration budget (default: 2)")
    parser.add_argument("--sim-timeout", type=float, help="simulation timeout seconds (default: 30)")
    parser.add_argument("--max-tokens", type=int, help="completion token cap (default: 4096)")
    parser.add_argument("--seed", type=int, help="sampling seed passed to the backend")
    parser.add_argument("--scrub", action="store_true", default=None,
                        help="delete workdirs of successful simulations")
    parser.add_argument("--fanout-sampling", action="store_true", default=None,
                        help="sample candidates via n single-completion calls")
    parser.add_argument("--sim-workers", type=int, help="concurrent simulations (default: 8)")
    parser.add_argument("--prompts-dir", help="directory of prompt templates (default: built-in)")
    parser.add_argument("--compiler-path", help="Verilog compiler binary (default: iverilog on PATH)")
    parser.add_argument("--vvp-path", help="simulation runtime binary (default: vvp on PATH)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtlforge",
        description="Generate simulation-verified Verilog RTL from natural-language specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="run the pipeline on one spec file")
    p_gen.add_argument("spec_file", help="text file with the natural-language specification")
    p_gen.add_argument("--out", default="out", help="output directory (default: out)")
    p_gen.add_argument("--task-id", default=None, help="problem name (default: spec file stem)")
    p_gen.add_argument("--golden-tb", help="optional golden testbench file")
    p_gen.add_argument("--module-interface", help="optional port declaration stub file")
    _add_run_flags(p_gen)

    p_bench = sub.add_parser("bench", help="run the harness over a problem set")
    p_bench.add_argument("dataset", help="problem set path")
    p_bench.add_argument("--dataset-format", choices=list(DATASET_FORMATS),
                         help="problem set layout (default: jsonl)")
    p_bench.add_argument("--runs", type=int, help="independent runs per problem (default: 1)")
    p_bench.add_argument("--workers", type=int, help="concurrent pipelines (default: 1)")
    p_bench.add_argument("--out", default="bench_out", help="output directory")
    p_bench.add_argument("--golden-pass-pattern", help="golden bench pass regex")
    p_bench.add_argument("--golden-fail-pattern", help="golden bench fail regex")
    _add_run_flags(p_bench)

    p_trace = sub.add_parser("inspect-trace", help="parse a checkpoint log")
    p_trace.add_argument("stdout_file", help="file holding simulation stdout")
    p_trace.add_argument("--window-len", type=int, default=8)

    p_verify = sub.add_parser("replay-verify", help="integrity-check a cassette")
    p_verify.add_argument("cassette_file")

    return parser


def merge_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags."""
    merged = dict(CONFIG_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise EngineError(f"cannot read config file {config_path}: {exc}") from exc
        unknown = set(file_cfg) - set(CONFIG_DEFAULTS)
        if unknown:
            raise EngineError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in CONFIG_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _run_config(cfg: dict) -> RunConfig:
    names = {f.name for f in dataclasses.fields(RunConfig)}
    return RunConfig(agent_mode=cfg["mode"], **{k: v for k, v in cfg.items() if k in names})


def _build_backend(cfg: dict):
    mode = cfg["backend"]
    if mode == "replay":
        if not cfg["cassette"]:
            raise EngineError("replay backend requires --cassette")
        return ReplayBackend(cfg["cassette"])
    live = HttpBackend(base_url=cfg["base_url"], auth_env=cfg["auth_env"])
    if mode == "record":
        if not cfg["cassette"]:
            raise EngineError("record backend requires --cassette")
        return CassetteRecorder(live, cfg["cassette"])
    return live


def _build_runtime(cfg: dict, backend, transcript_dir: Path) -> EngineRuntime:
    toolchain = ToolchainConfig(
        compiler_path=cfg["compiler_path"],
        vvp_path=cfg["vvp_path"],
        sim_timeout=cfg["sim_timeout"],
    )
    return EngineRuntime(
        backend=backend,
        sim_runner=ToolchainSimRunner(toolchain),
        syntax_checker=ToolchainSyntaxChecker(toolchain),
        templates=PromptLibrary(cfg["prompts_dir"]),
        model_id=cfg["model"],
        transcript_dir=transcript_dir,
        golden_criterion=GoldenCriterion(
            pass_pattern=cfg["golden_pass_pattern"],
            fail_pattern=cfg["golden_fail_pattern"],
        ),
    )


def _echo(cfg: dict, run_config: RunConfig) -> dict:
    echo = {k: v for k, v in cfg.items() if k != "role_overrides"}
    echo.update(run_config.echo())
    return echo


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    spec_path = Path(args.spec_file)
    if not spec_path.exists():
        print(f"error: spec file not found: {spec_path}", file=sys.stderr)
        return EXIT_ERROR
    problem = Problem(
        task_id=args.task_id or spec_path.stem,
        spec=spec_path.read_text(encoding="utf-8"),
        golden_testbench=Path(args.golden_tb).read_text(encoding="utf-8")
        if args.golden_tb
        else None,
        module_interface=Path(args.module_interface).read_text(encoding="utf-8")
        if args.module_interface
        else None,
    )
    run_config = _run_config(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    backend = _build_backend(cfg)
    runtime = _build_runtime(cfg, backend, out / "run")
    outcome = run_pipeline(problem, run_config, runtime)

    summary = {
        "task_id": problem.task_id,
        "status": outcome.status,
        "best_score": outcome.best.score.value if outcome.best and outcome.best.score else None,
        "score_history": outcome.score_history,
        "llm_calls": outcome.llm_calls,
        "config": _echo(cfg, run_config),
    }
    (out / "outcome.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if outcome.best is not None:
        (out / "final.v").write_text(outcome.best.source.code, encoding="utf-8")
    if outcome.status == "solved":
        print(f"solved: {out / 'final.v'}")
        return EXIT_OK
    if outcome.status in ("budget_exhausted", "tb_regen_exhausted"):
        print(f"budget exhausted ({outcome.status}); best effort written", file=sys.stderr)
        return EXIT_BUDGET
    print(f"error: {outcome.error}", file=sys.stderr)
    return EXIT_ERROR


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    problems = load_problems(args.dataset, cfg["dataset_format"])
    run_config = _run_config(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base_backend = _build_backend(cfg)
    criterion = GoldenCriterion(
        pass_pattern=cfg["golden_pass_pattern"], fail_pattern=cfg["golden_fail_pattern"]
    )

    def runtime_factory(task_id: str, run_index: int) -> EngineRuntime:
        backend = NamespacedBackend(base_backend, f"{task_id}/run{run_index}/")
        runtime = _build_runtime(cfg, backend, out / "runs" / task_id / f"run{run_index}")
        return runtime

    records = []
    try:
        run_bench(
            problems,
            run_config,
            runtime_factory,
            n_runs=cfg["runs"],
            criterion=criterion,
            workers=cfg["workers"],
            records_sink=records,
        )
    except KeyboardInterrupt:
        if records:
            emit_report(records, out, config_echo=_echo(cfg, run_config))
            print(f"interrupted; partial report for {len(records)} runs written", file=sys.stderr)
        else:
            print("interrupted before any run completed", file=sys.stderr)
        return 130
    report = emit_report(records, out, config_echo=_echo(cfg, run_config))
    print(
        f"{len(report.problems)} problems, aggregate pass@1 = {report.aggregate_pass_at_1:.4f}"
    )
    print(f"reports written under {out}")
    return EXIT_OK


def cmd_inspect_trace(args: argparse.Namespace) -> int:
    path = Path(args.stdout_file)
    if not path.exists():
        print(f"error: no such file: {path}", file=sys.stderr)
        return EXIT_ERROR
    trace = checkpoints.parse_trace(path.read_text(encoding="utf-8"))
    value = checkpoints.score(trace)
    first = checkpoints.earliest_mismatch(trace)
    print(f"checks:        {trace.total_checks}")
    print(f"mismatches:    {trace.mismatches}")
    print(f"score:         {value.value}")
    print(f"first mismatch: {'none' if first is None else first}")
    if first is not None:
        window = checkpoints.extract_window(trace, first, args.window_len)
        print()
        print(checkpoints.render_window(window))
    return EXIT_OK


def cmd_replay_verify(args: argparse.Namespace) -> int:
    problems = verify_cassette(args.cassette_file)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return EXIT_ERROR
    text = Path(args.cassette_file).read_text(encoding="utf-8")
    entries = sum(1 for line in text.splitlines() if line.strip())
    print(f"cassette ok: {entries} entries")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "inspect-trace":
            return cmd_inspect_trace(args)
        if args.command == "replay-verify":
            return cmd_replay_verify(args)
        parser.error(f"unknown command {args.command!r}")
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
