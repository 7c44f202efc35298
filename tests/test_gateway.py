import json
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from contextlib import closing
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest
from hypothesis import given, strategies as st

from rtlforge import gateway
from rtlforge.cassette import (
    CassetteEntry, CassetteError, load_cassette, verify_cassette,
)
from rtlforge.gateway import (
    AggregateFailure,
    AuthError,
    BackendError,
    CassetteRecorder,
    ChatMessage,
    HttpBackend,
    LlmRequest,
    LlmResponse,
    NamespacedBackend,
    RateLimitExhausted,
    ReplayBackend,
    ReplayMiss,
    SamplingParams,
    ShortResponse,
    TransientBackendError,
    complete,
    complete_fanout,
    request_digest,
    request_key,
)


@pytest.fixture
def no_sleep(monkeypatch):
    """Retries go on at once: a backoff sleeps for no time."""
    monkeypatch.setattr(gateway.time, "sleep", lambda seconds: None)


def make_request(tag="rtl_gen/0", content="write a counter", n=1, **params):
    return LlmRequest(
        model_id="test-model",
        messages=(
            ChatMessage("system", "you are terse"),
            ChatMessage("user", content),
        ),
        params=SamplingParams(n_completions=n, **params),
        tag=tag,
    )


def append_line(path, entry):
    with path.open("a", encoding="utf-8") as fh:
        fh.write(entry.to_json() + "\n")


def record_entry(path, request, completions):
    digest = request_digest(request)
    append_line(
        path,
        CassetteEntry(
            key=f"{request.tag}:{digest}",
            tag=request.tag,
            request_digest=digest,
            completions=tuple(completions),
            recorded_at="2026-01-01T00:00:00+00:00",
        ),
    )


class TestTypes:
    def test_empty_user_content_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage("user", "")

    def test_system_only_at_position_zero(self):
        with pytest.raises(ValueError):
            LlmRequest(
                model_id="m",
                messages=(ChatMessage("user", "hi"), ChatMessage("system", "late")),
                params=SamplingParams(),
                tag="t",
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": 2.5},
            {"temperature": -0.1},
            {"top_p": 0.0},
            {"top_p": 1.5},
            {"n_completions": 0},
            {"n_completions": 65},
            {"max_tokens": 0},
        ],
    )
    def test_params_validation(self, kwargs):
        with pytest.raises(ValueError):
            SamplingParams(**kwargs)

    def test_empty_tag_rejected(self):
        with pytest.raises(ValueError):
            make_request(tag="")


class TestReplay:
    def test_replay_returns_recorded_entry(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        request = make_request(tag="rtl_gen/0")
        record_entry(cassette, request, ["module top_module(); endmodule"])
        backend = ReplayBackend(cassette)
        response = complete(request, backend)
        assert response.completions == ("module top_module(); endmodule",)

    def test_cardinality_contract(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        request = make_request(tag="sample", n=3)
        record_entry(cassette, request, ["a", "b", "c"])
        response = complete(request, ReplayBackend(cassette))
        assert response.completions == ("a", "b", "c")

    def test_short_entry_raises(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        request = make_request(tag="sample", n=3)
        record_entry(cassette, request, ["a", "b"])
        with pytest.raises(ShortResponse):
            complete(request, ReplayBackend(cassette))

    def test_miss_on_changed_prompt(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        record_entry(cassette, make_request(content="original prompt"), ["x"])
        backend = ReplayBackend(cassette)
        with pytest.raises(ReplayMiss):
            complete(make_request(content="edited prompt"), backend)

    def test_miss_on_changed_params(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        record_entry(cassette, make_request(temperature=0.0), ["x"])
        with pytest.raises(ReplayMiss):
            complete(make_request(temperature=0.85), ReplayBackend(cassette))

    def test_replay_deterministic_across_runs(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        requests = [make_request(tag=f"t/{i}", content=f"prompt {i}") for i in range(10)]
        for i, request in enumerate(requests):
            record_entry(cassette, request, [f"reply {i}"])

        def run():
            backend = ReplayBackend(cassette)
            return [complete(r, backend).completions for r in requests]

        assert run() == run()

    def test_model_id_excluded_from_key(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        request = make_request()
        record_entry(cassette, request, ["x"])
        renamed = LlmRequest(
            model_id="other-model",
            messages=request.messages,
            params=request.params,
            tag=request.tag,
        )
        assert complete(renamed, ReplayBackend(cassette)).completions == ("x",)


class _ScriptedTransport:
    """Minimal backend for gateway-level tests."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        outcome = self.outcomes.pop(0) if self.outcomes else self.outcomes
        if isinstance(outcome, Exception):
            raise outcome
        return LlmResponse(completions=tuple(outcome))


class TestRetry:
    def test_transient_then_success(self, no_sleep):
        backend = _ScriptedTransport(
            [TransientBackendError("429"), TransientBackendError("429"), ["ok"]]
        )
        response = complete(make_request(), backend)
        assert response.attempts == 3
        assert response.completions == ("ok",)

    def test_exhaustion(self, no_sleep):
        backend = _ScriptedTransport([TransientBackendError("429")] * 10)
        with pytest.raises(RateLimitExhausted):
            complete(make_request(), backend)
        assert backend.calls == gateway.RETRY_ATTEMPTS

    def test_backoff_is_jittered_and_retry_after_is_its_floor(self, monkeypatch):
        """Retry k sleeps a uniform draw in [0, RETRY_BASE_S * RETRY_FACTOR**k],
        so requests refused together spread out; a Retry-After is never undercut."""
        draws = iter([0.25, 0.9, 0.0, 0.5])  # the fraction of each backoff drawn
        bounds, sleeps = [], []

        def uniform(low, high):
            bounds.append((low, high))
            return low + next(draws) * (high - low)

        monkeypatch.setattr(gateway.random, "uniform", uniform)
        monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
        refusals = [TransientBackendError("429"), TransientBackendError("429", retry_after=3.0),
                    TransientBackendError("503"), TransientBackendError("429", retry_after=1.0)]
        backend = _ScriptedTransport([*refusals, ["ok"]])
        assert complete(make_request(), backend).attempts == 5
        assert bounds == [(0.0, 1.0), (0.0, 2.0), (0.0, 4.0), (0.0, 8.0)]
        assert sleeps == [0.25, 3.0, 0.0, 4.0]  # the floor wins at retry 1, the draw at retry 3
        assert len(set(sleeps)) == len(sleeps)

    def test_non_transient_not_retried(self):
        backend = _ScriptedTransport([BackendError("bad request"), ["never"]])
        with pytest.raises(BackendError):
            complete(make_request(), backend)
        assert backend.calls == 1


class TestFanout:
    def test_degenerate_matches_complete(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        request = make_request(tag="solo", n=1)
        record_entry(cassette, request, ["only"])
        backend = ReplayBackend(cassette)
        assert (
            complete_fanout(request, backend).completions
            == complete(request, backend).completions
        )

    def test_counting_stub_returns_issue_order(self):
        lock = threading.Lock()
        counter = [0]

        class Counting:
            def complete(self, request):
                with lock:
                    value = counter[0]
                    counter[0] += 1
                return LlmResponse(completions=(str(value),))

        request = make_request(tag="fan", n=20)
        response = complete_fanout(request, Counting())
        assert len(response.completions) == 20
        assert sorted(int(c) for c in response.completions) == list(range(20))

    def test_subtags_are_indexed(self):
        seen = []

        class TagSpy:
            def complete(self, request):
                seen.append(request.tag)
                return LlmResponse(completions=("x",))

        complete_fanout(make_request(tag="fan", n=5), TagSpy())
        assert sorted(seen) == [f"fan.{i}" for i in range(5)]

    @pytest.mark.parametrize("seed, seeds", [(7, [7, 8, 9, 10]), (None, [None] * 4)])
    def test_sub_call_i_samples_with_seed_plus_i(self, seed, seeds):
        """Sub-calls send identical messages, so an endpoint that honours the
        seed would return one sample n times if they shared it."""
        seen = {}
        lock = threading.Lock()

        class SeedSpy:
            def complete(self, request):
                with lock:
                    seen[request.tag] = request.params
                return LlmResponse(completions=("x",))

        complete_fanout(make_request(tag="fan", n=4, seed=seed), SeedSpy())
        assert [seen[f"fan.{i}"].seed for i in range(4)] == seeds
        assert all(params.n_completions == 1 for params in seen.values())

    def test_partial_failure_names_index(self):
        class FailsAtThree:
            def complete(self, request):
                if request.tag.endswith(".3"):
                    raise BackendError("boom")
                return LlmResponse(completions=("x",))

        with pytest.raises(AggregateFailure) as err:
            complete_fanout(make_request(tag="fan", n=5), FailsAtThree())
        assert 3 in err.value.failures
        assert "3" in str(err.value)


class TestRecordReplay:
    def test_round_trip(self, tmp_path):
        cassette = tmp_path / "rec.jsonl"
        live = _ScriptedTransport([["alpha"], ["beta"]])
        r1 = make_request(tag="a/0", content="first")
        r2 = make_request(tag="a/1", content="second")
        with closing(CassetteRecorder(live, cassette)) as recorder:
            live_out = [complete(r1, recorder).completions, complete(r2, recorder).completions]
        replay = ReplayBackend(cassette)
        replay_out = [complete(r1, replay).completions, complete(r2, replay).completions]
        assert live_out == replay_out

    def test_namespacing_separates_runs(self, tmp_path):
        cassette = tmp_path / "rec.jsonl"
        request = make_request(tag="rtl_gen/init0")
        for run, text in enumerate(["first run", "second run"]):
            with closing(CassetteRecorder(_ScriptedTransport([[text]]), cassette)) as recorder:
                complete(request, NamespacedBackend(recorder, f"task/run{run}/"))
        for run, text in enumerate(["first run", "second run"]):
            replay = NamespacedBackend(ReplayBackend(cassette), f"task/run{run}/")
            assert complete(request, replay).completions == (text,)

    def test_recorder_skips_failed_calls(self, tmp_path, no_sleep):
        cassette = tmp_path / "rec.jsonl"
        recorder = CassetteRecorder(
            _ScriptedTransport([TransientBackendError("nope"), ["fine"]]), cassette
        )
        with closing(recorder):
            complete(make_request(), recorder)
        assert len(load_cassette(cassette)) == 1

    def test_recorder_opens_once_and_flushes_each_entry(self, tmp_path, monkeypatch):
        from rtlforge import cassette as cassette_io

        opened = []
        open_for_append = cassette_io.open_for_append
        monkeypatch.setattr(
            cassette_io, "open_for_append", lambda p: opened.append(p) or open_for_append(p)
        )
        cassette = tmp_path / "sub" / "rec.jsonl"
        recorder = CassetteRecorder(_ScriptedTransport([["a"], ["b"], ["c"]]), cassette)
        assert not cassette.exists()  # nothing is opened before the first reply
        for i in range(3):
            complete(make_request(tag=f"t/{i}"), recorder)
            assert len(load_cassette(cassette)) == i + 1  # readable once returned
        recorder.close()
        assert opened == [cassette]
        assert [e.tag for e in load_cassette(cassette).values()] == ["t/0", "t/1", "t/2"]

    @pytest.mark.parametrize("keep, tags", [(-20, ["t/0", "t/2"]), (10, ["t/2"])])
    def test_resume_cuts_a_partial_final_line(self, tmp_path, capsys, keep, tags):
        from rtlforge.cli import main

        cassette = tmp_path / "rec.jsonl"
        recorder = CassetteRecorder(_ScriptedTransport([["a"], ["b"]]), cassette)
        for i in range(2):
            complete(make_request(tag=f"t/{i}"), recorder)
        recorder.close()
        data = cassette.read_bytes()
        cassette.write_bytes(data[:keep])  # a crash in the middle of an append
        recorder = CassetteRecorder(_ScriptedTransport([["c"]]), cassette)
        complete(make_request(tag="t/2"), recorder)
        recorder.close()
        assert [e.tag for e in load_cassette(cassette).values()] == tags
        assert main(["replay-verify", str(cassette)]) == 0
        assert f"cassette ok: {len(tags)} entries" in capsys.readouterr().out

    def test_close_without_entries_creates_nothing(self, tmp_path):
        cassette = tmp_path / "rec.jsonl"
        CassetteRecorder(_ScriptedTransport([]), cassette).close()
        assert not cassette.exists()

    def test_recorder_keeps_short_replies(self, tmp_path):
        cassette = tmp_path / "rec.jsonl"
        recorder = CassetteRecorder(
            _ScriptedTransport([["fine"], [], ["one"], ["two", ""]]), cassette
        )
        with closing(recorder):
            complete(make_request(tag="a/0"), recorder)
            with pytest.raises(ShortResponse):
                complete(make_request(tag="a/1"), recorder)
            with pytest.raises(ShortResponse):
                complete(make_request(tag="a/2", n=2), recorder)
            with pytest.raises(ShortResponse, match="empty completion"):
                complete(make_request(tag="a/3", n=2), recorder)
        entries = list(load_cassette(cassette).values())
        assert [e.tag for e in entries] == ["a/0", "a/1", "a/2", "a/3"]
        assert [e.completions for e in entries] == [("fine",), (), ("one",), ("two", "")]

    @pytest.mark.parametrize("reply", [[], ["one"], ["one", ""]], ids=["none", "short", "empty"])
    def test_recorded_short_reply_replays_as_the_same_error(self, tmp_path, reply):
        cassette = tmp_path / "rec.jsonl"
        request = make_request(tag="rtl_gen/sample/e0", n=2)
        with closing(CassetteRecorder(_ScriptedTransport([reply]), cassette)) as recorder:
            with pytest.raises(ShortResponse) as live:
                complete(request, recorder)
        with pytest.raises(ShortResponse) as replayed:
            complete(request, ReplayBackend(cassette))
        assert str(replayed.value) == str(live.value)
        assert verify_cassette(cassette) == ([], 1)


# A value other than make_request's for each field of the request's types.
CHANGED = {
    "temperature": 0.5, "top_p": 0.5, "n_completions": 2, "max_tokens": 100, "seed": 7,
    "role": "assistant", "content": "write an adder",
}


@dataclass(frozen=True)
class _StopParams(SamplingParams):
    """Sampling parameters with one field the base type lacks."""

    stop: str = "endmodule"


def _change_param(name):
    return lambda r: replace(r, params=replace(r.params, **{name: CHANGED[name]}))


def _change_message(name):
    return lambda r: replace(
        r, messages=(r.messages[0], replace(r.messages[1], **{name: CHANGED[name]}))
    )


KEY_CHANGES = {
    **{f"params.{f.name}": _change_param(f.name) for f in fields(SamplingParams)},
    **{f"message.{f.name}": _change_message(f.name) for f in fields(ChatMessage)},
    "params.subclass_field": lambda r: replace(r, params=_StopParams(**vars(r.params))),
}


class TestKeying:
    @pytest.mark.parametrize("change", list(KEY_CHANGES.values()), ids=list(KEY_CHANGES))
    def test_every_field_enters_the_key(self, change):
        request = make_request()
        assert request_key(change(request)) != request_key(request)

    @given(
        a=st.text(min_size=1, max_size=60),
        b=st.text(min_size=1, max_size=60),
    )
    def test_distinct_prompts_never_collide(self, a, b):
        ra, rb = make_request(content=a), make_request(content=b)
        if a != b:
            assert request_key(ra) != request_key(rb)
        else:
            assert request_key(ra) == request_key(rb)

    def test_tag_part_of_key(self):
        assert request_key(make_request(tag="x")) != request_key(make_request(tag="y"))


class TestCassetteVerify:
    @pytest.mark.parametrize("name", [f.name for f in fields(CassetteEntry)])
    def test_line_without_a_field_is_refused_by_name(self, tmp_path, name):
        cassette = tmp_path / "c.jsonl"
        record_entry(cassette, make_request(tag="a"), ["x"])
        obj = json.loads(cassette.read_text(encoding="utf-8"))
        del obj[name]
        cassette.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(CassetteError, match=f"line 1: missing field '{name}'"):
            load_cassette(cassette)

    def test_clean_cassette(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        record_entry(cassette, make_request(tag="a"), ["x"])
        record_entry(cassette, make_request(tag="b"), ["y"])
        assert verify_cassette(cassette) == ([], 2)

    def test_bad_key_reported(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        append_line(
            cassette,
            CassetteEntry(
                key="wrong", tag="t", request_digest="d", completions=("x",),
                recorded_at="now",
            ),
        )
        problems, _ = verify_cassette(cassette)
        assert len(problems) == 1 and "does not match" in problems[0]

    def test_duplicates_reported(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        record_entry(cassette, make_request(tag="a"), ["x"])
        record_entry(cassette, make_request(tag="a"), ["y"])
        problems, _ = verify_cassette(cassette)
        assert any("duplicate" in p for p in problems)

    def test_invalid_json_reported(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        cassette.write_text("not json\n", encoding="utf-8")
        assert any("invalid JSON" in p for p in verify_cassette(cassette)[0])

    def test_truncated_final_line_reported_by_line_number(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        record_entry(cassette, make_request(tag="a"), ["x"])
        record_entry(cassette, make_request(tag="b"), ["y"])
        text = cassette.read_text(encoding="utf-8")
        cassette.write_text(text[: len(text) - 20], encoding="utf-8")  # an append cut short
        problems, _ = verify_cassette(cassette)
        assert len(problems) == 1
        assert problems[0].startswith("cassette line 2: truncated final line")
        with pytest.raises(CassetteError, match="line 2: truncated"):
            load_cassette(cassette)

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"text"', "null"])
    def test_non_object_line_is_named(self, tmp_path, line):
        cassette = tmp_path / "c.jsonl"
        record_entry(cassette, make_request(tag="a"), ["x"])
        with cassette.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(CassetteError, match="line 2: entry must be a JSON object"):
            load_cassette(cassette)
        assert verify_cassette(cassette)[0] == ["cassette line 2: entry must be a JSON object"]

    def test_bad_line_with_newline_is_invalid_json_even_last(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        record_entry(cassette, make_request(tag="a"), ["x"])
        with cassette.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "cut\n')
        with pytest.raises(CassetteError, match="line 2: invalid JSON"):
            load_cassette(cassette)


# ---------------------------------------------------------------------------
# Live HTTP backend against a local stub endpoint


class _StubHandler(BaseHTTPRequestHandler):
    script = []
    requests = []
    retry_after = None  # Retry-After header value of the next refusal
    payload = None  # body of every 200 reply, in place of the well-formed one
    location = None  # Location header of every non-200 reply

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        type(self).requests.append(
            {"body": body, "auth": self.headers.get("Authorization"), "path": self.path}
        )
        code = type(self).script.pop(0) if type(self).script else 200
        if code == "cut":  # a 200 reply that ends before its Content-Length
            self.send_response(200)
            self.send_header("Content-Length", "1000")
            self.end_headers()
            self.wfile.write(b'{"choices": [')
            return
        if code != 200:
            self.send_response(code)
            if type(self).location is not None:
                self.send_header("Location", type(self).location)
            if type(self).retry_after is not None:
                self.send_header("Retry-After", type(self).retry_after)
                type(self).retry_after = None  # on the first refusal only
            self.end_headers()
            return
        n = body.get("n", 1)
        payload = type(self).payload or {
            "choices": [
                {"index": i, "message": {"content": f"completion {i}"}} for i in range(n)
            ],
            "usage": {"prompt_tokens": 7, "completion_tokens": 13},
        }
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    _StubHandler.script = []
    _StubHandler.requests = []
    _StubHandler.retry_after = None
    _StubHandler.payload = None
    _StubHandler.location = None
    yield f"http://127.0.0.1:{server.server_address[1]}/v1"
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def test_missing_credential_env(self):
        os.environ.pop("RTLFORGE_TEST_KEY_MISSING", None)
        with pytest.raises(AuthError):
            HttpBackend("http://localhost:1", auth_env="RTLFORGE_TEST_KEY_MISSING")

    @pytest.mark.parametrize("base_url", ["api.example.com/v1", "ftp://h/v1", "http:///v1"])
    def test_base_url_without_http_host_refused_at_construction(self, monkeypatch, base_url):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        calls = []
        monkeypatch.setattr(gateway.time, "sleep", lambda s: calls.append("sleep"))
        with pytest.raises(BackendError, match="base URL"):
            HttpBackend(base_url, auth_env="RTLFORGE_TEST_KEY")
        assert calls == []

    def test_429_twice_then_success(self, stub_endpoint, monkeypatch, no_sleep):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        _StubHandler.script = [429, 429, 200]
        backend = HttpBackend(stub_endpoint, auth_env="RTLFORGE_TEST_KEY")
        response = complete(make_request(), backend)
        assert response.attempts == 3
        assert response.completions == ("completion 0",)
        assert response.usage.prompt_tokens == 7

    @pytest.mark.parametrize(
        "retry_after, slept",
        [("3", [3.0, 2.0]), ("0", [1.0, 2.0]), ("soon", [1.0, 2.0]), ("\u00b2", [1.0, 2.0])],
    )
    def test_429_retry_after_sets_the_least_wait(
        self, stub_endpoint, monkeypatch, retry_after, slept
    ):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        _StubHandler.script = [429, 429, 200]
        _StubHandler.retry_after = retry_after
        sleeps = []
        monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
        monkeypatch.setattr(gateway.random, "uniform", lambda low, high: high)  # no jitter
        backend = HttpBackend(stub_endpoint, auth_env="RTLFORGE_TEST_KEY")
        response = complete(make_request(), backend)
        assert response.attempts == 3
        # The first 429 carries Retry-After; the second does not.
        assert sleeps == slept

    @pytest.mark.parametrize("retry_after", ["86400", "9" * 20])
    def test_429_retry_after_beyond_the_request_timeout_gives_up(
        self, stub_endpoint, monkeypatch, retry_after
    ):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        _StubHandler.script = [429, 200]
        _StubHandler.retry_after = retry_after
        sleeps = []
        monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
        backend = HttpBackend(stub_endpoint, auth_env="RTLFORGE_TEST_KEY")
        with pytest.raises(RateLimitExhausted) as err:
            complete(make_request(), backend)
        assert f"wait {float(retry_after):g} s" in str(err.value)
        assert sleeps == [] and len(_StubHandler.requests) == 1

    def test_retry_after_on_5xx_is_ignored(self, stub_endpoint, monkeypatch):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        _StubHandler.script = [503]
        _StubHandler.retry_after = "7"
        backend = HttpBackend(stub_endpoint, auth_env="RTLFORGE_TEST_KEY")
        with pytest.raises(TransientBackendError) as err:
            backend.complete(make_request())
        assert err.value.retry_after is None

    def test_null_usage_counts_zero_tokens(self, stub_endpoint, monkeypatch):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        _StubHandler.payload = {
            "choices": [{"index": 0, "message": {"content": "ok"}}], "usage": None,
        }
        backend = HttpBackend(stub_endpoint, auth_env="RTLFORGE_TEST_KEY")
        response = backend.complete(make_request())
        assert response.completions == ("ok",) and response.usage.prompt_tokens == 0

    def test_null_content_is_an_empty_completion(self, stub_endpoint, monkeypatch):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        _StubHandler.payload = {"choices": [{"index": 0, "message": {"content": None}}]}
        backend = HttpBackend(stub_endpoint, auth_env="RTLFORGE_TEST_KEY")
        assert backend.complete(make_request()).completions == ("",)
        with pytest.raises(ShortResponse, match="empty completion"):
            complete(make_request(), backend)

    @pytest.mark.parametrize(
        "payload",
        [
            {"choices": [5]},
            {"choices": ["text"]},
            {"choices": [{"index": 0, "message": {"content": "ok"}}], "usage": 5},
            ["not", "an", "object"],
        ],
    )
    def test_malformed_reply_is_a_backend_error(self, stub_endpoint, monkeypatch, payload):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        _StubHandler.payload = payload
        backend = HttpBackend(stub_endpoint, auth_env="RTLFORGE_TEST_KEY")
        with pytest.raises(BackendError, match="malformed completion response"):
            backend.complete(make_request())

    def test_auth_rejected(self, stub_endpoint, monkeypatch):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        _StubHandler.script = [401]
        backend = HttpBackend(stub_endpoint, auth_env="RTLFORGE_TEST_KEY")
        with pytest.raises(AuthError):
            complete(make_request(), backend)

    def test_instances_share_eight_requests_in_flight(self, monkeypatch):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        lock = threading.Lock()
        in_flight = [0, 0]  # now, most

        class SlowHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                with lock:
                    in_flight[0] += 1
                    in_flight[1] = max(in_flight)
                time.sleep(0.05)
                with lock:
                    in_flight[0] -= 1
                data = json.dumps({"choices": [{"index": 0, "message": {"content": "ok"}}]})
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data.encode())

            def log_message(self, *args):
                pass

        with ThreadingHTTPServer(("127.0.0.1", 0), SlowHandler) as server:
            thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
            thread.start()
            url = f"http://127.0.0.1:{server.server_address[1]}/v1"
            backends = [HttpBackend(url, auth_env="RTLFORGE_TEST_KEY") for _ in range(2)]
            with ThreadPoolExecutor(max_workers=16) as pool:
                replies = list(
                    pool.map(lambda i: backends[i % 2].complete(make_request()), range(16))
                )
            server.shutdown()
        assert [r.completions for r in replies] == [("ok",)] * 16
        assert in_flight[1] <= 8

    def test_refused_connection_is_transient_and_retried(self, monkeypatch, no_sleep):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        with socket.socket() as probe:  # a loopback port that nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        backend = HttpBackend(f"http://127.0.0.1:{port}/v1", auth_env="RTLFORGE_TEST_KEY")
        with pytest.raises(TransientBackendError, match="transport error"):
            backend.complete(make_request())
        with pytest.raises(RateLimitExhausted, match=f"after {gateway.RETRY_ATTEMPTS} attempts"):
            complete(make_request(), backend)

    def test_reply_cut_mid_body_is_transient_and_retried(
        self, stub_endpoint, monkeypatch, no_sleep
    ):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        _StubHandler.script = ["cut", "cut", 200]
        backend = HttpBackend(stub_endpoint, auth_env="RTLFORGE_TEST_KEY")
        with pytest.raises(TransientBackendError, match="transport error"):
            backend.complete(make_request())
        response = complete(make_request(), backend)
        assert response.attempts == 2 and response.completions == ("completion 0",)

    def test_http_proxy_set_before_construction_carries_the_request(
        self, stub_endpoint, monkeypatch
    ):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", stub_endpoint.removesuffix("/v1"))
        resolve = socket.getaddrinfo

        def loopback_only(host, *args, **kwargs):  # the upstream host is never resolved
            if host != "127.0.0.1":
                raise OSError(f"lookup of {host!r} refused")
            return resolve(host, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", loopback_only)
        backend = HttpBackend("http://upstream.invalid/v1", auth_env="RTLFORGE_TEST_KEY")
        assert backend.complete(make_request()).completions == ("completion 0",)
        assert _StubHandler.requests[-1]["path"] == "http://upstream.invalid/v1/chat/completions"

    @pytest.mark.parametrize("code", [301, 302, 303, 307, 308])
    def test_redirect_is_refused_and_the_credential_stays_home(
        self, stub_endpoint, monkeypatch, code
    ):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        elsewhere_saw = []

        class Elsewhere(BaseHTTPRequestHandler):
            def do_GET(self):
                elsewhere_saw.append(self.headers.get("Authorization"))
                self.send_response(200)
                self.send_header("Content-Length", "0")
                self.end_headers()

            do_POST = do_GET

            def log_message(self, *args):
                pass

        with HTTPServer(("127.0.0.1", 0), Elsewhere) as elsewhere:
            thread = threading.Thread(target=elsewhere.serve_forever, args=(0.01,), daemon=True)
            thread.start()
            _StubHandler.script = [code]
            _StubHandler.location = f"http://127.0.0.1:{elsewhere.server_address[1]}/v1"
            backend = HttpBackend(stub_endpoint, auth_env="RTLFORGE_TEST_KEY")
            with pytest.raises(BackendError, match=f"HTTP {code}") as err:
                complete(make_request(), backend)
            elsewhere.shutdown()
        assert not isinstance(err.value, TransientBackendError)
        assert elsewhere_saw == [] and len(_StubHandler.requests) == 1

    def test_wire_shape(self, stub_endpoint, monkeypatch):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        backend = HttpBackend(stub_endpoint, auth_env="RTLFORGE_TEST_KEY")
        complete(make_request(n=2, temperature=0.85, top_p=0.95), backend)
        sent = _StubHandler.requests[-1]
        assert sent["auth"] == "Bearer sk-test"
        body = sent["body"]
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.85
        assert body["top_p"] == 0.95
        assert body["n"] == 2
        assert body["messages"][0]["role"] == "system"

    @pytest.mark.parametrize("seed", [None, 7])
    def test_seed_is_sent_only_when_set(self, stub_endpoint, monkeypatch, seed):
        monkeypatch.setenv("RTLFORGE_TEST_KEY", "sk-test")
        backend = HttpBackend(stub_endpoint, auth_env="RTLFORGE_TEST_KEY")
        complete(make_request(seed=seed), backend)
        body = _StubHandler.requests[-1]["body"]
        assert body.get("seed", None) == seed and ("seed" in body) == (seed is not None)
