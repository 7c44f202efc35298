"""The four agent roles, their conversations, and their prompt plumbing.

Each role (testbench_gen, rtl_gen, judge, debug) owns an independent
conversation history; the single-agent ablation mode routes every role
through one shared history instead. Prompt templates are versioned text
files under ``prompts/<role>/<task>.txt`` with ``{{name}}`` placeholders; a
``PromptLibrary`` reads the whole set when it is built.

Every LLM request takes one path, ``AgentTeam._chat``: build the request
from a conversation plus one user turn, issue it (as n single-completion
calls when fan-out sampling asks for more than one completion), count the
calls, emit one ``llm_call`` event and record the turn in the conversation
(all but multi-mode step-4 sampling, whose turn no later request reads).

Every piece of Verilog an agent returns has been through the bounded
syntax-repair loop: compile, and if broken, send the diagnostics back to the
agent for a rewrite, at most five times.
"""

from __future__ import annotations

import functools
import re
import threading
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .checkpoints import (
    DEFAULT_WINDOW_LEN, CheckTrace, WaveWindow, render_excerpt, render_window
)
from .errors import EngineError, read_text
from .gateway import Backend, ChatMessage, LlmRequest, SamplingParams, complete, complete_fanout
from .simbridge import Diagnostic, VerilogSource

SYNTAX_FIX_CAP = 5

# Callable seams the runtime injects: check one source, get error diagnostics
# back (empty list = clean). The label names the workdir for auditability.
SyntaxChecker = Callable[[VerilogSource, str], list[Diagnostic]]


class AgentError(EngineError):
    """Base class for agent-level failures."""


class NoCodeBlock(AgentError):
    """Agent reply has no fenced code block, or its last one declares no module."""


class SyntaxUnfixable(AgentError):
    """Syntax repair loop exhausted its iteration cap."""

    def __init__(self, diagnostics: list[Diagnostic]):
        lines = "; ".join(d.render() for d in diagnostics[:3])
        super().__init__(f"syntax not fixed after {SYNTAX_FIX_CAP} repair iterations: {lines}")
        self.diagnostics = diagnostics


class VerdictUnparseable(AgentError):
    """Judge reply carries no VERDICT line."""


class PromptError(AgentError):
    """A template missing or unreadable, or a referenced placeholder unbound."""


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
_TEMPLATE = "prompt template"


@functools.cache
def _builtin_templates() -> dict[tuple[str, str], str]:
    """The built-in prompt set, ``(role, task) -> text``: every
    ``<role>/<task>.txt`` under the package's ``prompts/``, read once per
    process."""
    prompts = resources.files("rtlforge") / "prompts"
    return {
        (role.name, ref.name.removesuffix(".txt")): read_text(ref, _TEMPLATE, PromptError)
        for role in prompts.iterdir() if role.is_dir()
        for ref in role.iterdir() if ref.name.endswith(".txt")
    }


class PromptLibrary:
    """The prompt set, read and checked when the library is built, and its
    rendering.

    The set is every ``<role>/<task>.txt`` of the built-in ``prompts/``
    directory of the package, read once per process. ``root`` replaces
    their texts with the same files under ``root``: a root that lacks one
    of them, or holds one that is not UTF-8, raises PromptError naming the
    file, so a bad prompts directory ends a run before its first request.
    Files of ``root`` outside the built-in set are not read.
    """

    def __init__(self, root: Optional[str | Path] = None):
        self._texts = _builtin_templates()
        if root is not None:
            self._texts = {
                (role, task): read_text(Path(root, role, f"{task}.txt"), _TEMPLATE, PromptError)
                for role, task in sorted(self._texts)
            }

    def text(self, role: str, task: str) -> str:
        try:
            return self._texts[role, task]
        except KeyError:
            raise PromptError(f"missing prompt template {role}/{task}.txt") from None

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


def module_names(code: str) -> list[str]:
    """Names of the modules the code declares, in order."""
    return _MODULE_RE.findall(code)


def parse_module_name(code: str, preferred: Optional[str] = None) -> str:
    """Name of the module the code declares; prefers ``preferred`` if declared."""
    names = module_names(code)
    if not names:
        raise NoCodeBlock("source declares no module")
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


def unbuildable(what: str) -> VerilogSource:
    """Sentinel standing in for a DUT whose syntax could not be repaired."""
    return VerilogSource(
        kind="dut",
        top_module="unbuildable",
        code=f"// {what}: syntax repair failed; excluded from simulation\n",
        sentinel=True,
    )


class Repair(NamedTuple):
    """Where a source stands in its repair loop, whose turns join ``conv``
    under request tags ``<tag>/fix<k>``: after check ``k`` (check 0 probes
    the source as given, check k follows fix attempt k), ``current`` has
    ``diagnostics``, none once it is clean. ``source`` is the source as
    given, whose kind and module name every fix keeps. The fix prompt is
    the testbench's for a testbench, the debug role's under a ``debug/``
    tag (in either agent mode), else rtl_gen's."""

    source: VerilogSource
    current: VerilogSource
    diagnostics: list[Diagnostic]
    conv: Conversation
    tag: str
    k: int = 0


def _sampling_tag(epoch: int) -> str:
    return f"rtl_gen/sample/e{epoch}"


class AgentTeam:
    """The four collaborating roles, wired to one gateway backend.

    ``mode`` selects how conversation histories are organized:

    * ``multi``  — one independent history per role, plus one debug thread
      per candidate lineage and one repair thread per step-4 sample (the
      baseline configuration).
    * ``single`` — every role shares a single merged history.

    ``params`` are the sampling parameters of every call except step-4
    sampling, which passes its own.
    """

    def __init__(
        self,
        backend: Backend,
        templates: PromptLibrary,
        syntax_checker: SyntaxChecker,
        params: SamplingParams,
        model_id: str = "default",
        mode: str = "multi",
        event_sink: Optional[Callable[[dict], None]] = None,
        fanout_sampling: bool = False,
    ):
        if mode not in ("multi", "single"):
            raise ValueError(f"invalid agent mode: {mode!r}")
        self.backend = backend
        self.templates = templates
        self.syntax_checker = syntax_checker
        self.params = params
        self.model_id = model_id
        self.mode = mode
        self._emit = event_sink or (lambda event: None)
        self.fanout_sampling = fanout_sampling
        self.llm_calls = 0
        self._lock = threading.Lock()  # guards llm_calls and _convs
        self._convs: dict[str, Conversation] = {}

    def conversation(self, role: str, conv_id: Optional[str] = None) -> Conversation:
        """The history a turn of ``role`` joins, created on first use.

        Multi mode keys histories by ``conv_id`` (default ``conv-<role>``):
        ``conv-debug-c<root>`` per lineage (``.restart`` appended after a
        discarded speculation), ``conv-rtlfix-e<epoch>-c<i>`` per step-4
        sample. Single mode maps every call to ``conv-shared``.
        """
        if self.mode == "single":
            role, conv_id = "single", "conv-shared"
        conv_id = conv_id or f"conv-{role}"
        with self._lock:
            if conv_id not in self._convs:
                system = self.templates.text(role, "system")
                self._convs[conv_id] = Conversation(role, conv_id, system)
            return self._convs[conv_id]

    def _chat(
        self,
        conv: Conversation,
        user: str,
        tag: str,
        params: Optional[SamplingParams] = None,
        emit: Optional[Callable[[dict], None]] = None,
        record: bool = True,
    ) -> list[str]:
        """One request: ``conv``'s history plus ``user``. The turn is
        recorded in ``conv`` with its first completion, unless ``record`` is
        false; ``emit`` receives the event instead of the team's sink."""
        params = params or self.params
        request = LlmRequest(self.model_id, conv.messages_with(user), params, tag)
        fan_out = self.fanout_sampling and params.n_completions > 1
        response = (complete_fanout if fan_out else complete)(request, self.backend)
        self._log_call(conv, tag, params, emit)
        if record:
            conv.record(user, response.completions[0])
        return list(response.completions)

    def _log_call(
        self,
        conv: Conversation,
        tag: str,
        params: SamplingParams,
        emit: Optional[Callable[[dict], None]] = None,
    ) -> None:
        """Count one request, as n calls when fan-out sampling splits it,
        and emit its ``llm_call`` event (to ``emit`` instead of the team's
        sink)."""
        n = params.n_completions
        with self._lock:
            self.llm_calls += n if self.fanout_sampling and n > 1 else 1
        (emit or self._emit)(
            {"event": "llm_call", "tag": tag, "role": conv.role, "conv": conv.conv_id, "n": n}
        )

    def _source(self, reply: str, kind: str, preferred: Optional[str] = None) -> VerilogSource:
        """The reply's last code block as a source; raises NoCodeBlock when it
        has none or declares no module."""
        code = extract_code_block(reply)
        return VerilogSource(kind=kind, top_module=parse_module_name(code, preferred), code=code)

    def _turn(
        self,
        conv: Conversation,
        user: str,
        tag: str,
        kind: str,
        preferred: Optional[str] = None,
        emit: Optional[Callable[[dict], None]] = None,
    ) -> VerilogSource:
        """Ask, take the reply's code, and run it through the repair loop."""
        source = self._source(self._chat(conv, user, tag, emit=emit)[0], kind, preferred)
        return self.fix_syntax(source, conv, parent_tag=tag, emit=emit)

    # -- syntax repair loop ---------------------------------------------------

    def probe(self, source: VerilogSource, conv: Conversation, tag: str) -> Repair:
        """Check 0 of ``source``'s repair loop in ``conv``."""
        return Repair(source, source, self.syntax_checker(source, f"{tag}/check0"), conv, tag)

    def fix(self, repair: Repair, emit: Optional[Callable[[dict], None]] = None) -> Repair:
        """Fix attempt ``repair.k + 1``: ask the owning agent to repair the
        current source, then check the reply. A reply without a code fence
        is a failed attempt that leaves the source as it was. ``emit``
        receives the call's event instead of the team's sink."""
        source, k = repair.source, repair.k + 1
        if source.kind == "testbench":
            fix_role = "testbench_gen"
        elif repair.tag.startswith("debug/"):
            fix_role = "debug"
        else:
            fix_role = "rtl_gen"
        user = self.templates.render(
            fix_role,
            "fix_syntax",
            diagnostics="\n".join(d.render() for d in repair.diagnostics),
            rtl=repair.current.code,
        )
        reply = self._chat(repair.conv, user, f"{repair.tag}/fix{k}", emit=emit)[0]
        try:
            current = self._source(reply, source.kind, source.top_module)
        except AgentError:
            return repair._replace(k=k)
        diagnostics = self.syntax_checker(current, f"{repair.tag}/check{k}")
        return repair._replace(current=current, diagnostics=diagnostics, k=k)

    def fix_syntax(
        self,
        source: VerilogSource,
        conv: Conversation,
        parent_tag: str,
        emit: Optional[Callable[[dict], None]] = None,
    ) -> VerilogSource:
        """Probe; while broken, ask the owning agent to repair; cap 5 asks.

        The loop of the testbench, the initial RTL and the debug trials;
        step 4 takes a sample through it one attempt at a time
        (``repair_sample``). Raises SyntaxUnfixable when the cap is reached
        with errors remaining. ``emit`` receives the loop's events instead
        of the team's sink.
        """
        repair = self.probe(source, conv, parent_tag)
        while repair.diagnostics:
            if repair.k == SYNTAX_FIX_CAP:
                raise SyntaxUnfixable(repair.diagnostics)
            repair = self.fix(repair, emit)
        return repair.current

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
        # generate.txt leaves the testbench and the feedback unused.
        user = self.templates.render(
            "testbench_gen",
            "generate" if feedback is None else "regenerate",
            spec=spec_text,
            golden_tb=golden_tb or "(none)",
            testbench=previous.code if previous else "(unavailable)",
            feedback=feedback or "",
        )
        conv = self.conversation("testbench_gen")
        return self._turn(conv, user, f"testbench_gen/gen{epoch}", "testbench")

    def generate_rtl(
        self, spec_text: str, testbench: VerilogSource, epoch: int = 0
    ) -> VerilogSource:
        """Step 2: single low-temperature RTL shot against the testbench."""
        user = self.templates.render(
            "rtl_gen", "generate", spec=spec_text, testbench=testbench.code
        )
        return self._turn(self.conversation("rtl_gen"), user, f"rtl_gen/init{epoch}", "dut")

    def generate_rtl_vanilla(self, spec_text: str) -> VerilogSource:
        """One-pass baseline: a single generation, no testbench, no repair."""
        user = self.templates.render("rtl_gen", "vanilla", spec=spec_text)
        reply = self._chat(self.conversation("rtl_gen"), user, "rtl_gen/vanilla")[0]
        return self._source(reply, "dut")

    def sample_rtl_candidates(
        self,
        spec_text: str,
        testbench: VerilogSource,
        params: SamplingParams,
        epoch: int = 0,
        emit: Optional[Callable[[dict], None]] = None,
    ) -> list[str]:
        """Step 4's sampling request: ``params.n_completions`` completions at
        ``params``, which the run's config builds, not yet repaired; the
        pipeline takes each through ``repair_sample``. ``emit`` receives the
        call's event instead of the team's sink.

        The request is the rtl_gen conversation so far plus a user turn
        holding the specification and the testbench. In multi mode that
        history holds each epoch's initial-RTL turn and its syntax-fix turns
        (step 2), and nothing else reads or writes it until the next epoch's
        step 2; so the pipeline sends the request while the judge decides,
        and the turn is not recorded: a request the judge's verdict discards
        leaves ``conv-rtl_gen`` as step 2 left it. In single mode the history
        is every earlier turn of the shared conversation, and the turn is
        recorded with one representative completion, so later turns see that
        code was produced.
        """
        user = self.templates.render(
            "rtl_gen", "generate", spec=spec_text, testbench=testbench.code
        )
        conv = self.conversation("rtl_gen")
        single = self.mode == "single"
        return self._chat(conv, user, _sampling_tag(epoch), params, emit, record=single)

    def sampling_sent(
        self, params: SamplingParams, epoch: int, emit: Optional[Callable[[dict], None]] = None
    ) -> None:
        """Count and log epoch ``epoch``'s sampling request, which raised, as
        sent: a discarded speculative request is logged as sent whatever its
        reply was."""
        self._log_call(self.conversation("rtl_gen"), _sampling_tag(epoch), params, emit)

    def repair_sample(
        self,
        sample: str | Repair,
        index: int,
        epoch: int = 0,
        emit: Optional[Callable[[dict], None]] = None,
    ) -> Repair | VerilogSource:
        """One attempt of sample ``index``'s repair loop, in the sample's own
        repair conversation: given the sample's reply, its probe; given the
        ``Repair`` of a broken sample, its next fix attempt and check.
        Returns the ``Repair`` while the sample stays broken, else its
        source; a reply without usable source, or an attempt the agent
        cannot make, gives a flagged sentinel, so the pool keeps its size.
        Whether a broken sample goes on is the caller's decision. ``emit``
        receives the attempt's events."""
        try:
            if isinstance(sample, str):
                source = self._source(sample, "dut")
                conv = self.conversation("rtl_gen", f"conv-rtlfix-e{epoch}-c{index}")
                repair = self.probe(source, conv, f"rtl_gen/samplefix/e{epoch}/c{index}")
            else:
                repair = self.fix(sample, emit)
        except AgentError:
            return unbuildable(f"sample {index}")
        return repair if repair.diagnostics else repair.current

    def judge(
        self,
        spec_text: str,
        testbench: VerilogSource,
        trace: CheckTrace,
        epoch: int = 0,
        window_len: int = DEFAULT_WINDOW_LEN,
    ) -> JudgeVerdict:
        """Step 3: is the failure the RTL's fault or the testbench's?"""
        user = self.templates.render(
            "judge",
            "evaluate",
            spec=spec_text,
            testbench=testbench.code,
            window=render_excerpt(trace, window_len),
        )
        verdict = parse_verdict(self._chat(self.conversation("judge"), user, f"judge/e{epoch}")[0])
        self._emit({"event": "verdict", "decision": verdict.decision, "epoch": epoch})
        return verdict

    def debug_trial(
        self,
        candidate: VerilogSource,
        window: WaveWindow,
        testbench: VerilogSource,
        round_index: int,
        root_id: int,
        restart: bool = False,
        emit: Optional[Callable[[dict], None]] = None,
    ) -> VerilogSource:
        """Step 5: one repair attempt on a selected candidate, in its
        lineage's debug thread; ``emit`` receives its events instead of the
        team's sink.

        ``restart`` marks a round of step 5 run again after a discarded
        speculation: its conversation id and its tag end in ``.restart``. So
        the restarted lineage starts a fresh conversation, and a cassette
        keys its request apart from the discarded round's, which can be the
        same conversation word for word.
        """
        if not window.records:
            raise ValueError("waveform window has no records")
        user = self.templates.render(
            "debug",
            "trial",
            window=render_window(window),
            rtl=candidate.code,
            testbench=testbench.code,
        )
        mark = ".restart" if restart else ""
        conv = self.conversation("debug", f"conv-debug-c{root_id}{mark}")
        tag = f"debug/r{round_index}/c{root_id}{mark}"
        return self._turn(conv, user, tag, "dut", candidate.top_module, emit=emit)
