"""Provider-agnostic chat-completion gateway.

All agent traffic flows through ``complete`` / ``complete_fanout`` against a
pluggable backend:

* ``HttpBackend``     — live chat-completions JSON endpoint (messages array,
  temperature, top_p, n), credential read from an environment variable.
* ``ReplayBackend``   — deterministic offline replay from a cassette file.
* ``CassetteRecorder``— wraps any backend and records every reply.

Requests are keyed by ``cassette.replay_key(tag, request_digest)``, the one
spelling of the key. The digest is a SHA-256 over every field of each
message and of the sampling parameters, read from their dataclasses, so a
changed prompt template or parameter (a field added to either type
included) produces a loud ReplayMiss instead of a silently wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Optional, Protocol
from urllib.parse import urlsplit

from . import cassette as cassette_io
from .errors import EngineError

MAX_COMPLETIONS = 64
MAX_TEMPERATURE = 2.0
HTTP_TIMEOUT_S = 120.0  # connect and read timeout of each request, in seconds
DEFAULT_MAX_TOKENS = 4096  # completion token cap of a call
# LLM slots: requests in flight per process, shared by every HttpBackend;
# a fan-out pool has at most this many threads.
LLM_SLOTS = 8
_llm_slots = threading.BoundedSemaphore(LLM_SLOTS)


class GatewayError(EngineError):
    """Base class for gateway failures."""


class AuthError(GatewayError):
    """Credential missing or rejected by the endpoint."""


class BackendError(GatewayError):
    """Non-retryable backend failure (malformed response, 4xx, ...)."""


class TransientBackendError(GatewayError):
    """Retryable failure: transport error or HTTP 429/5xx.

    ``retry_after`` is the wait in seconds that the endpoint asked for, if any.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class RateLimitExhausted(GatewayError):
    """Retry budget exhausted on transient failures."""


class ReplayMiss(GatewayError):
    """Replay mode has no cassette entry for the request key."""

    def __init__(self, key: str, tag: str):
        super().__init__(
            f"no cassette entry for key {key!r} (tag {tag!r}); "
            "the prompt or sampling parameters differ from the recorded run"
        )
        self.key = key
        self.tag = tag


class ShortResponse(GatewayError):
    """Backend returned fewer completions than requested, or an empty one."""


class AggregateFailure(GatewayError):
    """One or more fan-out sub-calls failed permanently."""

    def __init__(self, failures: dict[int, Exception]):
        indices = sorted(failures)
        super().__init__(
            f"fan-out sub-calls failed at indices {indices}: {failures[indices[0]]}"
        )
        self.failures = failures


# ---------------------------------------------------------------------------
# Request / response types


@dataclass(frozen=True)
class ChatMessage:
    role: str  # "system" | "user" | "assistant"
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"invalid message role: {self.role!r}")
        if self.role in ("user", "assistant") and not self.content:
            raise ValueError(f"{self.role} message content must be non-empty")


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 0.0
    top_p: float = 1.0
    n_completions: int = 1
    max_tokens: int = DEFAULT_MAX_TOKENS
    seed: Optional[int] = None

    def __post_init__(self):
        if self.temperature < 0 or self.temperature > MAX_TEMPERATURE:
            raise ValueError(f"temperature must be in [0, {MAX_TEMPERATURE}]")
        if not (0 < self.top_p <= 1.0):
            raise ValueError("top_p must be in (0, 1]")
        if not (1 <= self.n_completions <= MAX_COMPLETIONS):
            raise ValueError(f"n_completions must be in [1, {MAX_COMPLETIONS}]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class LlmRequest:
    model_id: str
    messages: tuple[ChatMessage, ...]
    params: SamplingParams
    tag: str  # agent role + turn index; part of the replay key

    def __post_init__(self):
        if not self.messages:
            raise ValueError("request must carry at least one message")
        if not self.tag:
            raise ValueError("request tag must be non-empty")
        for i, msg in enumerate(self.messages):
            if msg.role == "system" and i != 0:
                raise ValueError("system message allowed only at position 0")


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be >= 0")

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(
            self.prompt_tokens + other.prompt_tokens,
            self.completion_tokens + other.completion_tokens,
        )


@dataclass(frozen=True)
class LlmResponse:
    completions: tuple[str, ...]
    attempts: int = 1
    usage: Usage = field(default_factory=Usage)


def request_digest(request: LlmRequest) -> str:
    """SHA-256 over every field of each message and of the sampling params,
    read from their dataclasses (the model id and the tag are not in it)."""
    canonical = json.dumps(
        {"messages": [vars(m) for m in request.messages], "params": vars(request.params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def request_key(request: LlmRequest) -> str:
    return cassette_io.replay_key(request.tag, request_digest(request))


# ---------------------------------------------------------------------------
# Backends


class Backend(Protocol):
    def complete(self, request: LlmRequest) -> LlmResponse: ...


class HttpBackend:
    """Live chat-completions endpoint speaking the common JSON HTTP shape.

    The credential comes from the environment variable named by ``auth_env``
    and is never written to disk. A base URL that is not
    ``http(s)://<host>...`` is refused here, before any request. All
    instances share ``LLM_SLOTS`` requests in flight, and each request times
    out after ``HTTP_TIMEOUT_S``.
    """

    def __init__(self, base_url: str, auth_env: str):
        url = urlsplit(base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise BackendError(f"base URL {base_url!r} is not an http(s)://<host> URL")
        if auth_env not in os.environ or not os.environ[auth_env]:
            raise AuthError(f"credential environment variable {auth_env!r} is not set")
        import urllib.request

        self.base_url = base_url.rstrip("/")
        self.auth_env = auth_env
        # Reads http_proxy and https_proxy now; no_proxy is read per request.
        # In place of urllib's error processor, one that hands back every
        # reply as it came: a non-2xx status raises no HTTPError (it is mapped
        # below), and no redirect is followed, since the new request would
        # carry the credential to whatever host the redirect names.
        keep_every_reply = urllib.request.HTTPErrorProcessor()
        keep_every_reply.http_response = keep_every_reply.https_response = lambda req, reply: reply
        self._opener = urllib.request.build_opener(keep_every_reply)

    def complete(self, request: LlmRequest) -> LlmResponse:
        import http.client
        import urllib.request

        payload = {
            "model": request.model_id,
            "messages": [vars(m) for m in request.messages],
            "temperature": request.params.temperature,
            "top_p": request.params.top_p,
            "n": request.params.n_completions,
            "max_tokens": request.params.max_tokens,
        }
        if request.params.seed is not None:
            payload["seed"] = request.params.seed
        headers = {
            "Authorization": f"Bearer {os.environ[self.auth_env]}",
            "Content-Type": "application/json",
        }
        http_request = urllib.request.Request(
            f"{self.base_url}/chat/completions", json.dumps(payload).encode(), headers
        )
        with _llm_slots:
            try:
                with self._opener.open(http_request, timeout=HTTP_TIMEOUT_S) as reply:
                    data = reply.read()
            except (OSError, http.client.HTTPException) as exc:
                raise TransientBackendError(f"transport error: {exc}") from exc
        status, text = reply.status, data.decode("utf-8", "replace")[:200]
        if status in (401, 403):
            raise AuthError(f"endpoint rejected credential (HTTP {status})")
        if status == 429 or status >= 500:
            raise TransientBackendError(f"HTTP {status}: {text}", retry_after_s(reply))
        if status != 200:
            raise BackendError(f"HTTP {status}: {text}")
        try:
            body = json.loads(data)
            choices = sorted(body["choices"], key=lambda c: c.get("index", 0))
            completions = tuple(str(c["message"]["content"] or "") for c in choices)
            usage_obj = body.get("usage") or {}
            usage = Usage(
                int(usage_obj.get("prompt_tokens", 0)),
                int(usage_obj.get("completion_tokens", 0)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed completion response: {exc}") from exc
        return LlmResponse(completions=completions, usage=usage)


def retry_after_s(reply) -> Optional[float]:
    """The delta-seconds ``Retry-After`` of an HTTP 429 reply (RFC 9110
    §10.2.3), or None; an HTTP-date is not honoured. Headers decode as
    latin-1, where ``"²".isdigit()`` holds too, so only ASCII digits count."""
    value = reply.headers.get("Retry-After", "").strip()
    seconds = reply.status == 429 and value.isascii() and value.isdigit()
    return float(value) if seconds else None


class ReplayBackend:
    """Serves completions from a cassette; read-only after load."""

    def __init__(self, path):
        self._entries = cassette_io.load_cassette(path)
        self.path = path

    def complete(self, request: LlmRequest) -> LlmResponse:
        key = request_key(request)
        entry = self._entries.get(key)
        if entry is None:
            raise ReplayMiss(key, request.tag)
        return LlmResponse(completions=entry.completions)


class CassetteRecorder:
    """Wraps a backend and appends every reply it returns to a cassette.

    Short and empty replies are recorded too, so a replay raises the same
    ``ShortResponse`` the recorded run did. The cassette is opened once, at
    the first reply; each entry is one line, written and flushed under the
    lock. ``close`` ends the recording.
    """

    def __init__(self, inner: Backend, path):
        self.inner = inner
        self.path = path
        self._fh = None
        self._lock = threading.Lock()

    def complete(self, request: LlmRequest) -> LlmResponse:
        response = self.inner.complete(request)
        digest = request_digest(request)
        entry = cassette_io.CassetteEntry(
            key=cassette_io.replay_key(request.tag, digest),
            tag=request.tag,
            request_digest=digest,
            completions=response.completions,
            recorded_at=datetime.now(timezone.utc).isoformat(),
        )
        line = entry.to_json() + "\n"
        with self._lock:
            if self._fh is None:
                self._fh = cassette_io.open_for_append(self.path)
            self._fh.write(line)
            self._fh.flush()
        return response

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()


class NamespacedBackend:
    """Prefixes every request tag; keeps per-run cassette namespaces apart."""

    def __init__(self, inner: Backend, prefix: str):
        self.inner = inner
        self.prefix = prefix

    def complete(self, request: LlmRequest) -> LlmResponse:
        return self.inner.complete(replace(request, tag=self.prefix + request.tag))


# ---------------------------------------------------------------------------
# Gateway operations


# Exponential backoff on transport errors and HTTP 429/5xx only, with full
# jitter: retry k sleeps a uniform draw in [0, RETRY_BASE_S * RETRY_FACTOR**k],
# so requests refused together do not retry together. A Retry-After from the
# endpoint is the least wait, and one longer than HTTP_TIMEOUT_S ends the
# retries; so does a failure of attempt RETRY_ATTEMPTS.
RETRY_BASE_S = 1.0
RETRY_FACTOR = 2.0
RETRY_ATTEMPTS = 5


def complete(request: LlmRequest, backend: Backend) -> LlmResponse:
    """Issue one completion request; retry transients; enforce cardinality.

    Returns exactly ``request.params.n_completions`` non-empty completions or
    raises ShortResponse. ``attempts`` counts every try including the successful one.
    """
    attempts = 0
    delay = RETRY_BASE_S
    while True:
        attempts += 1
        try:
            response = backend.complete(request)
        except TransientBackendError as exc:
            if attempts >= RETRY_ATTEMPTS:
                raise RateLimitExhausted(
                    f"gave up after {attempts} attempts: {exc}"
                ) from exc
            if (exc.retry_after or 0.0) > HTTP_TIMEOUT_S:
                raise RateLimitExhausted(
                    f"gave up after {attempts} attempts: the endpoint asked to wait "
                    f"{exc.retry_after:g} s, over the {HTTP_TIMEOUT_S:g} s limit"
                ) from exc
            time.sleep(max(random.uniform(0.0, delay), exc.retry_after or 0.0))
            delay *= RETRY_FACTOR
            continue
        got, wanted = len(response.completions), request.params.n_completions
        if got < wanted:
            rejection = f"backend returned {got} completions, requested {wanted}"
        elif not all(response.completions[:wanted]):
            rejection = "backend returned an empty completion"
        else:
            return LlmResponse(response.completions[:wanted], attempts, response.usage)
        raise ShortResponse(f"{rejection} (tag {request.tag!r})")


def complete_fanout(request: LlmRequest, backend: Backend) -> LlmResponse:
    """Multi-completion via n independent single-completion calls.

    Supports backends without native multi-completion. Sub-call i is tagged
    ``<tag>.<i>`` so each gets its own replay key, and a seeded request's
    sub-call i samples with ``seed + i``, so an endpoint that honours the
    seed draws n samples, not one sample n times; completion order is issue
    order; each sub-call retries independently.
    """
    n, seed = request.params.n_completions, request.params.seed
    if n == 1:
        return complete(request, backend)

    def one(i: int) -> LlmResponse:
        sub_seed = None if seed is None else seed + i
        sub_params = replace(request.params, n_completions=1, seed=sub_seed)
        sub = replace(request, params=sub_params, tag=f"{request.tag}.{i}")
        return complete(sub, backend)

    results: list[Optional[LlmResponse]] = [None] * n
    failures: dict[int, Exception] = {}
    with ThreadPoolExecutor(max_workers=min(LLM_SLOTS, n)) as pool:
        futures = {pool.submit(one, i): i for i in range(n)}
        for fut, i in futures.items():
            try:
                results[i] = fut.result()
            except GatewayError as exc:
                failures[i] = exc
    if failures:
        raise AggregateFailure(failures)
    completions = tuple(r.completions[0] for r in results)  # type: ignore[union-attr]
    attempts = sum(r.attempts for r in results)  # type: ignore[union-attr]
    usage = Usage()
    for r in results:
        usage = usage + r.usage  # type: ignore[union-attr]
    return LlmResponse(completions=completions, attempts=attempts, usage=usage)
