"""The four agent roles, their conversations, and their prompt plumbing.

Each role (testbench_gen, rtl_gen, judge, debug) owns an independent
conversation history; the single-agent ablation mode routes every role
through one shared history instead. Prompt templates are versioned text
files under ``prompts/<role>/<task>.txt`` with ``{{name}}`` placeholders.

Every piece of Verilog an agent returns has been through the bounded
syntax-repair loop: compile, and if broken, send the diagnostics back to the
agent for a rewrite, at most five times.
"""

from __future__ import annotations

import dataclasses
import re
import threading
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Optional

from .checkpoints import (
    DEFAULT_WINDOW_LEN, CheckTrace, WaveWindow, render_excerpt, render_window
)
from .errors import EngineError
from .gateway import (
    Backend,
    ChatMessage,
    LlmRequest,
    RetryPolicy,
    DEFAULT_RETRY,
    SamplingParams,
    complete,
    complete_fanout,
)
from .simbridge import Diagnostic, VerilogSource

ROLES = ("testbench_gen", "rtl_gen", "judge", "debug")
SYNTAX_FIX_CAP = 5

# Callable seams the runtime injects: check one source, get error diagnostics
# back (empty list = clean). The label names the workdir for auditability.
SyntaxChecker = Callable[[VerilogSource, str], list[Diagnostic]]


class AgentError(EngineError):
    """Base class for agent-level failures."""


class NoCodeBlock(AgentError):
    """Agent reply contains no fenced code block."""


class SyntaxUnfixable(AgentError):
    """Syntax repair loop exhausted its iteration cap."""

    def __init__(self, diagnostics: list[Diagnostic], cap: int = SYNTAX_FIX_CAP):
        lines = "; ".join(d.render() for d in diagnostics[:3])
        super().__init__(f"syntax not fixed after {cap} repair iterations: {lines}")
        self.diagnostics = diagnostics


class VerdictUnparseable(AgentError):
    """Judge reply carries no VERDICT line."""


class PromptError(AgentError):
    """Template missing or a referenced placeholder is unbound."""


@dataclass
class Conversation:
    role: str
    conv_id: str
    system_prompt: str
    history: list[ChatMessage] = field(default_factory=list)

    def messages_with(self, user_text: str) -> tuple[ChatMessage, ...]:
        msgs = [ChatMessage("system", self.system_prompt)]
        msgs.extend(self.history)
        msgs.append(ChatMessage("user", user_text))
        return tuple(msgs)

    def record(self, user_text: str, reply: str) -> None:
        self.history.append(ChatMessage("user", user_text))
        self.history.append(ChatMessage("assistant", reply))


@dataclass(frozen=True)
class JudgeVerdict:
    decision: str  # "rtl_faulty" | "testbench_faulty"
    rationale: str


_PLACEHOLDER_RE = re.compile(r"\{\{([a-z_]+)\}\}")


class PromptLibrary:
    """Loads and renders prompt templates from ``<root>/<role>/<task>.txt``."""

    def __init__(self, root: Optional[str | Path] = None):
        if root is None:
            self._root = resources.files("rtlforge") / "prompts"
        else:
            self._root = Path(root)
        self._cache: dict[tuple[str, str], str] = {}

    def text(self, role: str, task: str) -> str:
        key = (role, task)
        if key not in self._cache:
            ref = self._root / role / f"{task}.txt"
            try:
                self._cache[key] = ref.read_text(encoding="utf-8")
            except (FileNotFoundError, OSError) as exc:
                raise PromptError(f"missing prompt template {role}/{task}.txt") from exc
        return self._cache[key]

    def render(self, role: str, task: str, **bindings: str) -> str:
        template = self.text(role, task)
        referenced = set(_PLACEHOLDER_RE.findall(template))
        unbound = referenced - set(bindings)
        if unbound:
            raise PromptError(
                f"template {role}/{task}.txt references unbound placeholders: {sorted(unbound)}"
            )
        return _PLACEHOLDER_RE.sub(lambda m: bindings[m.group(1)], template)


_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
_MODULE_RE = re.compile(r"^\s*module\s+([A-Za-z_][A-Za-z0-9_$]*)", re.MULTILINE)


def extract_code_block(reply: str) -> str:
    """Return the last fenced code block of a reply (models often restate a
    draft before finalizing)."""
    blocks = _FENCE_RE.findall(reply)
    if not blocks:
        raise NoCodeBlock("reply contains no fenced code block")
    return blocks[-1].strip("\n")


def parse_module_name(code: str, preferred: Optional[str] = None) -> str:
    """Name of the module the code declares; prefers ``preferred`` if declared."""
    names = _MODULE_RE.findall(code)
    if not names:
        raise AgentError("source declares no module")
    if preferred and preferred in names:
        return preferred
    return names[0]


_VERDICT_RE = re.compile(r"^\s*VERDICT:\s*(rtl_faulty|testbench_faulty)\s*$")


def parse_verdict(reply: str) -> JudgeVerdict:
    """Parse the mandatory final ``VERDICT: ...`` line of a judge reply."""
    lines = [ln for ln in reply.splitlines() if ln.strip()]
    if lines:
        m = _VERDICT_RE.match(lines[-1])
        if m:
            rationale = "\n".join(lines[:-1]).strip()
            return JudgeVerdict(decision=m.group(1), rationale=rationale)
    raise VerdictUnparseable("judge reply has no final VERDICT line")


def _diag_text(diagnostics: list[Diagnostic]) -> str:
    return "\n".join(d.render() for d in diagnostics)


def map_in_order(map_fn: Callable, fn: Callable, items: Iterable, sink: Callable) -> list:
    """``[fn(item, emit) for item in items]`` through ``map_fn``.

    ``map_fn`` must yield results in item order (the pipeline passes its run
    executor's ``map``). Each call's events are held back and passed to
    ``sink`` in item order once the map ends, even if a call raised, so the
    event log does not depend on which call finished first.
    """
    items = list(items)
    logs: list[list[dict]] = [[] for _ in items]
    try:
        return list(map_fn(lambda i: fn(items[i], logs[i].append), range(len(items))))
    finally:
        for events in logs:
            for event in events:
                sink(event)


class AgentTeam:
    """The four collaborating roles, wired to one gateway backend.

    ``mode`` selects how conversation histories are organized:

    * ``multi``  — one independent history per role, plus one debug thread
      per candidate lineage (the baseline configuration).
    * ``single`` — every role shares a single merged history.
    """

    def __init__(
        self,
        backend: Backend,
        templates: PromptLibrary,
        syntax_checker: SyntaxChecker,
        model_id: str = "default",
        mode: str = "multi",
        base_params: SamplingParams = SamplingParams(temperature=0.0, top_p=0.01),
        role_params: Optional[dict[str, SamplingParams]] = None,
        syntax_fix_cap: int = SYNTAX_FIX_CAP,
        retry: RetryPolicy = DEFAULT_RETRY,
        event_sink: Optional[Callable[[dict], None]] = None,
        fanout_sampling: bool = False,
        tb_prompt_limit: Optional[int] = None,
    ):
        if mode not in ("multi", "single"):
            raise ValueError(f"invalid agent mode: {mode!r}")
        self.backend = backend
        self.templates = templates
        self.syntax_checker = syntax_checker
        self.model_id = model_id
        self.mode = mode
        self.base_params = base_params
        self.role_params = role_params or {}
        self.syntax_fix_cap = syntax_fix_cap
        self.retry = retry
        self.event_sink = event_sink
        self.fanout_sampling = fanout_sampling
        self.tb_prompt_limit = tb_prompt_limit
        self.llm_calls = 0
        self._count_lock = threading.Lock()
        if mode == "single":
            shared = Conversation(
                role="single",
                conv_id="conv-shared",
                system_prompt=templates.text("single", "system"),
            )
            self._convs = {role: shared for role in ROLES}
        else:
            self._convs = {
                role: Conversation(
                    role=role,
                    conv_id=f"conv-{role}",
                    system_prompt=templates.text(role, "system"),
                )
                for role in ROLES
            }
        self._debug_threads: dict[int, Conversation] = {}

    # -- conversation plumbing ------------------------------------------------

    def conversation(self, role: str) -> Conversation:
        return self._convs[role]

    def debug_thread(self, root_id: int) -> Conversation:
        """Per-lineage debug conversation, retained across rounds."""
        if self.mode == "single":
            return self._convs["debug"]
        if root_id not in self._debug_threads:
            self._debug_threads[root_id] = Conversation(
                role="debug",
                conv_id=f"conv-debug-c{root_id}",
                system_prompt=self.templates.text("debug", "system"),
            )
        return self._debug_threads[root_id]

    def _ephemeral(self, role: str, conv_id: str) -> Conversation:
        if self.mode == "single":
            return self._convs[role]
        return Conversation(
            role=role,
            conv_id=conv_id,
            system_prompt=self.templates.text(role, "system"),
        )

    def _params_for(self, role: str) -> SamplingParams:
        return self.role_params.get(role, self.base_params)

    def _tb_text(self, testbench: VerilogSource) -> str:
        """Testbench text as bound into prompts; full by default, truncated
        when a character limit is configured."""
        code = testbench.code
        if self.tb_prompt_limit is not None and len(code) > self.tb_prompt_limit:
            return code[: self.tb_prompt_limit] + "\n// ... (testbench truncated)\n"
        return code

    def _emit(self, event: dict) -> None:
        if self.event_sink is not None:
            self.event_sink(event)

    def _request(
        self, conv: Conversation, user_text: str, tag: str, params: SamplingParams
    ) -> LlmRequest:
        return LlmRequest(
            model_id=self.model_id,
            messages=conv.messages_with(user_text),
            params=params,
            tag=tag,
        )

    def _chat(
        self,
        conv: Conversation,
        user_text: str,
        tag: str,
        params: Optional[SamplingParams] = None,
        emit: Optional[Callable[[dict], None]] = None,
    ) -> str:
        params = params or self._params_for(conv.role)
        request = self._request(conv, user_text, tag, params)
        response = complete(request, self.backend, self.retry)
        with self._count_lock:
            self.llm_calls += 1
        (emit or self._emit)(
            {"event": "llm_call", "tag": tag, "role": conv.role, "conv": conv.conv_id, "n": 1}
        )
        reply = response.completions[0]
        conv.record(user_text, reply)
        return reply

    def _chat_many(
        self, conv: Conversation, user_text: str, tag: str, params: SamplingParams
    ) -> list[str]:
        request = self._request(conv, user_text, tag, params)
        if self.fanout_sampling:
            response = complete_fanout(request, self.backend, self.retry)
            issued = params.n_completions
        else:
            response = complete(request, self.backend, self.retry)
            issued = 1
        with self._count_lock:
            self.llm_calls += issued
        self._emit(
            {
                "event": "llm_call",
                "tag": tag,
                "role": conv.role,
                "conv": conv.conv_id,
                "n": params.n_completions,
            }
        )
        # The sampling turn conditions only on (system, spec, testbench); in
        # single mode the shared history keeps one representative completion
        # so later turns still see that code was produced.
        if self.mode == "single":
            conv.record(user_text, response.completions[0])
        return list(response.completions)

    # -- syntax repair loop ---------------------------------------------------

    def fix_syntax(
        self,
        source: VerilogSource,
        conv: Conversation,
        parent_tag: str,
        emit: Optional[Callable[[dict], None]] = None,
    ) -> VerilogSource:
        """Compile; while broken, ask the owning agent to repair; cap 5 asks.

        A reply without a code fence counts as a failed iteration. Raises
        SyntaxUnfixable when the cap is reached with errors remaining.
        ``emit`` receives the loop's events instead of the team's sink.
        """
        if source.kind == "testbench":
            fix_role = "testbench_gen"
        elif conv.role == "debug":
            fix_role = "debug"
        else:
            fix_role = "rtl_gen"
        current = source
        diagnostics = self.syntax_checker(current, f"{parent_tag}/check0")
        if not diagnostics:
            return current
        for k in range(1, self.syntax_fix_cap + 1):
            reply = self._chat(
                conv,
                self.templates.render(
                    fix_role,
                    "fix_syntax",
                    diagnostics=_diag_text(diagnostics),
                    rtl=current.code,
                ),
                tag=f"{parent_tag}/fix{k}",
                emit=emit,
            )
            try:
                code = extract_code_block(reply)
                current = VerilogSource(
                    kind=source.kind,
                    top_module=parse_module_name(code, preferred=source.top_module),
                    code=code,
                )
            except AgentError:
                continue  # fence-less reply: a failed iteration
            diagnostics = self.syntax_checker(current, f"{parent_tag}/check{k}")
            if not diagnostics:
                return current
        raise SyntaxUnfixable(diagnostics, self.syntax_fix_cap)

    # -- role operations ------------------------------------------------------

    def generate_testbench(
        self,
        spec_text: str,
        golden_tb: Optional[str],
        epoch: int = 0,
        feedback: Optional[str] = None,
        previous: Optional[VerilogSource] = None,
    ) -> VerilogSource:
        """Step 1: produce the checkpoint-logging testbench (or regenerate it)."""
        if not spec_text:
            raise ValueError("specification text must be non-empty")
        conv = self._convs["testbench_gen"]
        if feedback is None:
            user = self.templates.render(
                "testbench_gen",
                "generate",
                spec=spec_text,
                golden_tb=golden_tb or "(none)",
            )
        else:
            user = self.templates.render(
                "testbench_gen",
                "regenerate",
                spec=spec_text,
                golden_tb=golden_tb or "(none)",
                testbench=previous.code if previous else "(unavailable)",
                feedback=feedback,
            )
        tag = f"testbench_gen/gen{epoch}"
        reply = self._chat(conv, user, tag=tag)
        code = extract_code_block(reply)
        source = VerilogSource(
            kind="testbench", top_module=parse_module_name(code), code=code
        )
        return self.fix_syntax(source, conv, parent_tag=tag)

    def generate_rtl(
        self, spec_text: str, testbench: VerilogSource, epoch: int = 0
    ) -> VerilogSource:
        """Step 2: single low-temperature RTL shot against the testbench."""
        conv = self._convs["rtl_gen"]
        user = self.templates.render(
            "rtl_gen", "generate", spec=spec_text, testbench=self._tb_text(testbench)
        )
        tag = f"rtl_gen/init{epoch}"
        reply = self._chat(conv, user, tag=tag)
        code = extract_code_block(reply)
        source = VerilogSource(kind="dut", top_module=parse_module_name(code), code=code)
        return self.fix_syntax(source, conv, parent_tag=tag)

    def generate_rtl_vanilla(self, spec_text: str) -> VerilogSource:
        """One-pass baseline: a single generation, no testbench, no repair."""
        conv = self._convs["rtl_gen"]
        reply = self._chat(
            conv,
            self.templates.render("rtl_gen", "vanilla", spec=spec_text),
            tag="rtl_gen/vanilla",
        )
        code = extract_code_block(reply)
        return VerilogSource(kind="dut", top_module=parse_module_name(code), code=code)

    def sample_rtl_candidates(
        self,
        spec_text: str,
        testbench: VerilogSource,
        count: int,
        params: SamplingParams,
        epoch: int = 0,
        map_fn: Callable[[Callable, Iterable], Iterable] = map,
    ) -> list[VerilogSource]:
        """Step 4 sampling: exactly ``count`` candidate sources.

        The prompt conditions only on the system prompt, the specification,
        and the testbench. Candidates whose syntax cannot be repaired are
        replaced by flagged sentinel sources so the pool keeps its size.

        Samples are repaired through ``map_in_order(map_fn, ...)``, so their
        repair events reach the event log in sample order.
        """
        if count < 1:
            raise ValueError("candidate count must be >= 1")
        conv = self._convs["rtl_gen"]
        user = self.templates.render(
            "rtl_gen", "generate", spec=spec_text, testbench=self._tb_text(testbench)
        )
        tag = f"rtl_gen/sample/e{epoch}"
        replies = self._chat_many(
            conv, user, tag=tag, params=dataclasses.replace(params, n_completions=count)
        )

        def repair(item: tuple[int, str], emit: Callable[[dict], None]) -> VerilogSource:
            i, reply = item
            try:
                code = extract_code_block(reply)
                source = VerilogSource(
                    kind="dut", top_module=parse_module_name(code), code=code
                )
                fix_conv = self._ephemeral("rtl_gen", f"conv-rtlfix-e{epoch}-c{i}")
                source = self.fix_syntax(
                    source,
                    fix_conv,
                    parent_tag=f"rtl_gen/samplefix/e{epoch}/c{i}",
                    emit=emit,
                )
            except AgentError:
                return VerilogSource(
                    kind="dut",
                    top_module="unbuildable",
                    code=f"// sample {i}: syntax repair failed; excluded from simulation\n",
                    sentinel=True,
                )
            return source

        return map_in_order(map_fn, repair, enumerate(replies), self._emit)

    def judge(
        self,
        spec_text: str,
        testbench: VerilogSource,
        trace: CheckTrace,
        epoch: int = 0,
        window_len: int = DEFAULT_WINDOW_LEN,
    ) -> JudgeVerdict:
        """Step 3: is the failure the RTL's fault or the testbench's?"""
        conv = self._convs["judge"]
        user = self.templates.render(
            "judge",
            "evaluate",
            spec=spec_text,
            testbench=self._tb_text(testbench),
            window=render_excerpt(trace, window_len),
        )
        reply = self._chat(conv, user, tag=f"judge/e{epoch}")
        verdict = parse_verdict(reply)
        self._emit({"event": "verdict", "decision": verdict.decision, "epoch": epoch})
        return verdict

    def debug_trial(
        self,
        candidate: VerilogSource,
        window: WaveWindow,
        testbench: VerilogSource,
        round_index: int,
        root_id: int,
        emit: Optional[Callable[[dict], None]] = None,
    ) -> VerilogSource:
        """Step 5: one repair attempt on a selected candidate; ``emit``
        receives its events instead of the team's sink."""
        if not window.records:
            raise ValueError("waveform window has no records")
        conv = self.debug_thread(root_id)
        user = self.templates.render(
            "debug",
            "trial",
            window=render_window(window),
            rtl=candidate.code,
            testbench=self._tb_text(testbench),
        )
        tag = f"debug/r{round_index}/c{root_id}"
        reply = self._chat(conv, user, tag=tag, emit=emit)
        code = extract_code_block(reply)
        source = VerilogSource(
            kind="dut",
            top_module=parse_module_name(code, preferred=candidate.top_module),
            code=code,
        )
        return self.fix_syntax(source, conv, parent_tag=tag, emit=emit)
