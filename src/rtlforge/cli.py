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
from .bench import check_report_paths, emit_report, run_bench
from .cassette import verify_cassette
from .errors import EngineError, read_text
from .gateway import CassetteRecorder, HttpBackend, NamespacedBackend, ReplayBackend
from .pipeline import AGENT_MODES, PROFILES, EngineRuntime, RunConfig, run_pipeline
from .agents import PromptLibrary
from .problems import DATASET_FORMATS, Problem, load_problems
from .simbridge import ToolchainConfig, ToolchainSimRunner, ToolchainSyntaxChecker

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2

# Config key -> the RunConfig field it sets.
_RUN_FIELDS = {
    "mode" if f.name == "agent_mode" else f.name: f for f in dataclasses.fields(RunConfig)
}

CONFIG_DEFAULTS = {
    "backend": "live",
    "cassette": None,
    "base_url": "https://api.openai.com/v1",
    "auth_env": "RTLFORGE_API_KEY",
    "model": "default",
    **{key: f.default for key, f in _RUN_FIELDS.items()},
    "workers": 1,
    "runs": 1,
    "dataset_format": "jsonl",
    "prompts_dir": None,
    "compiler_path": None,
    "vvp_path": None,
}

# Flags that shape a run; each sets the config key its name spells.
_RUN_FLAGS = {
    "--backend": dict(choices=["live", "replay", "record"], help="LLM backend mode"),
    "--cassette": dict(help="cassette path for replay/record backends"),
    "--base-url": dict(help="chat-completions endpoint base URL"),
    "--auth-env": dict(help="name of the env var holding the API credential"),
    "--model": dict(help="model identifier sent to the endpoint"),
    "--mode": dict(choices=list(AGENT_MODES), help="agent organization"),
    "--temp-profile": dict(choices=list(PROFILES), help="sampling profile for the candidate pool"),
    "--pool-size": dict(type=int, help="candidate pool size (profile default)"),
    "--top-k": dict(type=int, help="candidates kept for debugging"),
    "--max-debug-rounds": dict(type=int, help="debug round budget"),
    "--window-len": dict(type=int, help="waveform window length"),
    "--max-tb-regens": dict(type=int, help="testbench regeneration budget"),
    "--sim-timeout": dict(type=float, help="simulation timeout seconds"),
    "--max-tokens": dict(type=int, help="completion token cap"),
    "--seed": dict(type=int, help="sampling seed passed to the backend"),
    "--prompts-dir": dict(help="directory of prompt templates (default: built-in)"),
    "--compiler-path": dict(help="Verilog compiler binary (default: iverilog on PATH)"),
    "--vvp-path": dict(help="simulation runtime binary (default: vvp on PATH)"),
}

_BENCH_FLAGS = {
    "--dataset-format": dict(choices=list(DATASET_FORMATS), help="problem set layout"),
    "--runs": dict(type=int, help="independent runs per problem"),
    "--workers": dict(type=int, help="concurrent pipelines"),
}


def _key(flag: str) -> str:
    """The config key a flag sets: ``--pool-size`` -> ``pool_size``."""
    return flag[2:].replace("-", "_")


def _help(text: str, key: str) -> str:
    """``text`` plus the key's built-in default, where it has one."""
    default = CONFIG_DEFAULTS[key]
    return text if default is None else f"{text} (default: {default})"


def _add_flags(parser: argparse.ArgumentParser, flags: dict) -> None:
    for flag, spec in flags.items():
        parser.add_argument(flag, **{**spec, "help": _help(spec["help"], _key(flag))})


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override it)")
    _add_flags(parser, _RUN_FLAGS)
    parser.add_argument("--fanout-sampling", action="store_true", default=None,
                        help="sample candidates via n single-completion calls")


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
    _add_flags(p_bench, _BENCH_FLAGS)
    p_bench.add_argument("--out", default="bench_out", help="output directory")
    _add_run_flags(p_bench)

    p_trace = sub.add_parser("inspect-trace", help="parse a checkpoint log")
    p_trace.add_argument("stdout_file", help="file holding simulation stdout")
    p_trace.add_argument("--window-len", type=int, default=checkpoints.DEFAULT_WINDOW_LEN)

    p_verify = sub.add_parser("replay-verify", help="integrity-check a cassette")
    p_verify.add_argument("cassette_file")

    return parser


def _read_text(path: Optional[str], what: str) -> Optional[str]:
    """The text of the ``what`` file at ``path`` (``errors.read_text``), or None."""
    return None if path is None else read_text(Path(path), what)


def _out_dir(path: str) -> Path:
    """The output directory at ``path``, created; EngineError if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EngineError(f"cannot create output directory {out}: {exc.strerror or exc}") from exc
    return out


def merge_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags."""
    merged = dict(CONFIG_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_cfg = json.loads(_read_text(config_path, "config file"))
        except json.JSONDecodeError as exc:
            raise EngineError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise EngineError(f"config file {config_path} must hold a JSON object")
        unknown = set(file_cfg) - set(CONFIG_DEFAULTS)
        if unknown:
            raise EngineError(f"unknown config keys: {sorted(unknown)}")
        for flag, spec in {**_RUN_FLAGS, **_BENCH_FLAGS}.items():
            if _key(flag) in file_cfg:
                _check_file_value(_key(flag), file_cfg[_key(flag)], spec)
        merged.update(file_cfg)
    for key in CONFIG_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _check_file_value(key: str, value, spec: dict) -> None:
    """Hold a config-file value to its flag's type and choices (an int is a float)."""
    if value is None and CONFIG_DEFAULTS[key] is None:
        return
    kind, choices = spec.get("type", str), spec.get("choices")
    typed = isinstance(value, (int, float) if kind is float else kind)
    if isinstance(value, bool) or not typed or (choices and value not in choices):
        what = f"one of {choices}" if choices else kind.__name__
        raise EngineError(f"invalid run configuration: {key} must be {what}, got {value!r}")


def _run_config(cfg: dict) -> RunConfig:
    try:
        return RunConfig(**{f.name: cfg[key] for key, f in _RUN_FIELDS.items()})
    except (TypeError, ValueError) as exc:
        raise EngineError(f"invalid run configuration: {exc}") from exc


def _echo(cfg: dict, run_config: RunConfig) -> dict:
    """The effective settings, each once under its config key: the run's
    fields as the run holds them (a resolved pool size, a clamped top-K),
    with its profile's temperature and top_p."""
    run = run_config.echo()
    return {**cfg, **{key: run.pop(f.name) for key, f in _RUN_FIELDS.items()}, **run}


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


def _close_recording(backend) -> None:
    if isinstance(backend, CassetteRecorder):
        backend.close()


def _build_runtime(cfg: dict, run_config: RunConfig, backend) -> EngineRuntime:
    """What a command's runs share, built once per command: one toolchain
    config and its two seams, one prompt library (so a bad ``--prompts-dir``
    ends the command before its first request), the model id and
    ``backend``. Each run replaces the transcript directory, and a bench
    run the backend with its namespaced view."""
    toolchain = ToolchainConfig(
        compiler_path=cfg["compiler_path"],
        vvp_path=cfg["vvp_path"],
        sim_timeout=run_config.sim_timeout,
    )
    return EngineRuntime(
        backend=backend,
        sim_runner=ToolchainSimRunner(toolchain),
        syntax_checker=ToolchainSyntaxChecker(toolchain),
        templates=PromptLibrary(cfg["prompts_dir"]),
        model_id=cfg["model"],
    )


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    try:
        problem = Problem(
            task_id=args.task_id or Path(args.spec_file).stem,
            spec=_read_text(args.spec_file, "spec file"),
            golden_testbench=_read_text(args.golden_tb, "golden testbench"),
            module_interface=_read_text(args.module_interface, "module interface"),
        )
    except ValueError as exc:
        raise EngineError(f"invalid problem: {exc}") from exc
    run_config = _run_config(cfg)
    runtime = _build_runtime(cfg, run_config, _build_backend(cfg))
    out = _out_dir(args.out)
    runtime = dataclasses.replace(runtime, transcript_dir=out / "run")
    try:
        outcome = run_pipeline(problem, run_config, runtime)
    finally:
        _close_recording(runtime.backend)

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
    else:  # a rerun into this --out keeps no earlier run's final.v
        (out / "final.v").unlink(missing_ok=True)
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
    if cfg["runs"] < 1:
        raise EngineError("runs must be >= 1")
    if cfg["workers"] < 1:
        raise EngineError("workers must be >= 1")
    problems = load_problems(args.dataset, cfg["dataset_format"])
    run_config = _run_config(cfg)
    shared = _build_runtime(cfg, run_config, _build_backend(cfg))
    out = _out_dir(args.out)
    check_report_paths(out)  # now, not after every run has been spent
    echo = _echo(cfg, run_config)

    def runtime_factory(task_id: str, run_index: int) -> EngineRuntime:
        backend = NamespacedBackend(shared.backend, f"{task_id}/run{run_index}/")
        transcript_dir = out / "runs" / task_id / f"run{run_index}"
        return dataclasses.replace(shared, backend=backend, transcript_dir=transcript_dir)

    records = []
    try:
        run_bench(
            problems,
            run_config,
            runtime_factory,
            n_runs=cfg["runs"],
            workers=cfg["workers"],
            records_sink=records,
        )
    except KeyboardInterrupt:
        if records:
            emit_report(records, out, config_echo=echo)
            print(f"interrupted; partial report for {len(records)} runs written", file=sys.stderr)
        else:
            print("interrupted before any run completed", file=sys.stderr)
        return 130
    finally:
        _close_recording(shared.backend)
    report = emit_report(records, out, config_echo=echo)
    print(
        f"{len(report.problems)} problems, aggregate pass@1 = {report.aggregate_pass_at_1:.4f}"
    )
    print(f"reports written under {out}")
    return EXIT_OK


def cmd_inspect_trace(args: argparse.Namespace) -> int:
    if args.window_len < 1:
        raise EngineError("window_len must be >= 1")
    trace = checkpoints.parse_trace(_read_text(args.stdout_file, "simulation log"))
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
    problems, entries = verify_cassette(args.cassette_file)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_ERROR
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
    except (EngineError, OSError) as exc:  # OSError: an unusable path under --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
