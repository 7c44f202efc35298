"""rtlforge: natural-language hardware specs to simulation-verified Verilog.

Four specialized agent roles (testbench writer, RTL writer, judge, debugger)
collaborate through a five-step pipeline with high-temperature candidate
sampling, mismatch-based scoring, and checkpoint-window debugging. The LLM
backend is pluggable; a record/replay cassette backend makes the whole
control flow reproducible offline.
"""

from .checkpoints import (
    CheckRecord,
    CheckTrace,
    Score,
    WaveWindow,
    earliest_mismatch,
    extract_window,
    parse_trace,
    render_window,
    score,
)
from .gateway import (
    ChatMessage,
    HttpBackend,
    LlmRequest,
    LlmResponse,
    ReplayBackend,
    CassetteRecorder,
    SamplingParams,
    complete,
    complete_fanout,
)
from .pipeline import (
    Candidate,
    EngineRuntime,
    RunConfig,
    RunOutcome,
    run_pipeline,
    select_top_k,
    should_terminate,
    update_selection,
)
from .problems import Problem, load_problems
from .bench import pass_at_k, run_bench, emit_report
from .simbridge import SimRun, VerilogSource, run_sim

__version__ = "0.1.0"

__all__ = [
    "CheckRecord",
    "CheckTrace",
    "Score",
    "WaveWindow",
    "earliest_mismatch",
    "extract_window",
    "parse_trace",
    "render_window",
    "score",
    "ChatMessage",
    "HttpBackend",
    "LlmRequest",
    "LlmResponse",
    "ReplayBackend",
    "CassetteRecorder",
    "SamplingParams",
    "complete",
    "complete_fanout",
    "Candidate",
    "EngineRuntime",
    "RunConfig",
    "RunOutcome",
    "run_pipeline",
    "select_top_k",
    "should_terminate",
    "update_selection",
    "Problem",
    "load_problems",
    "pass_at_k",
    "run_bench",
    "emit_report",
    "SimRun",
    "VerilogSource",
    "run_sim",
    "__version__",
]
