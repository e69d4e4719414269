import json
import logging
import math
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radstyle.client
from radstyle.client import (ClientConfig, EchoReportTransport,
                             FixedReplyTransport, HttpTransport,
                             PayloadEncoder, TransportResponse, _backoff,
                             complete_batch)
from radstyle.errors import (ConfigError, InputError, ProtocolError,
                             RequestError, TransportError)
from radstyle.prompting import (INSTRUCTION, PromptChain, PromptMessage,
                                StylePair, build_prompt, wire_messages)

from conftest import completion_body, running_chat_server
from oracles import retry_oracle


def chain_for(text="no edema"):
    return build_prompt([StylePair("lungs clear", "Lungs are clear.")], text)


class ScriptedTransport:
    """Plays back a fixed list of responses/exceptions, records requests."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []

    def post(self, url, headers, payload, timeout):
        self.requests.append((url, headers, json.loads(payload), timeout))
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


def complete_one(chain, cfg, transport, sleep=lambda _: None):
    """The result of a one-chain, one-worker batch: a completion or the
    ``ClientError`` it ended with."""
    [result] = complete_batch([chain], cfg, 1, transport, sleep=sleep)
    return result


@pytest.fixture
def clock(monkeypatch):
    """A fake ``perf_counter`` for ``radstyle.client`` that only
    ``clock.sleep`` advances, recording each wait in ``clock.delays``. A
    batch sleeps until a retry is due, so each wait then equals its
    backoff exactly, and a retried latency is the sum of the waits."""
    now = [0.0]
    delays = []

    def sleep(seconds):
        delays.append(seconds)
        now[0] += seconds

    monkeypatch.setattr(radstyle.client, "time",
                        SimpleNamespace(perf_counter=lambda: now[0]))
    return SimpleNamespace(sleep=sleep, delays=delays)


def test_fixed_reply_and_wire_format():
    cfg = ClientConfig(model="test-model", temperature=0.5, max_tokens=99)
    result = complete_one(chain_for(), cfg,
                          FixedReplyTransport("A fine report."))
    assert result.text == "A fine report."
    assert result.attempts == 1
    assert result.usage == {"prompt_tokens": 0, "completion_tokens": 0}
    # The in-process transports keep no request log; a scripted one
    # shows what goes on the wire.
    transport = ScriptedTransport(
        [TransportResponse(200, completion_body("A fine report."))])
    result = complete_one(chain_for(), cfg, transport)
    assert result.text == "A fine report."
    assert result.attempts == 1
    _, _, sent, _ = transport.requests[0]
    assert sent["model"] == "test-model"
    assert sent["temperature"] == 0.5
    assert sent["max_tokens"] == 99
    roles = [m["role"] for m in sent["messages"]]
    assert roles == ["system", "user", "assistant", "user"]


def test_echo_transport_strips_instruction_and_maps():
    transport = EchoReportTransport({"no edema": "There is no edema."})
    result = complete_one(chain_for("no edema"), ClientConfig(), transport)
    assert result.text == "There is no edema."
    # Unmapped serializations echo back unchanged.
    result = complete_one(chain_for("maybe nodule"), ClientConfig(),
                          transport)
    assert result.text == "maybe nodule"
    assert INSTRUCTION not in result.text


def test_retries_on_429_and_5xx_with_backoff(clock):
    transport = ScriptedTransport([
        TransportResponse(429, "slow down"),
        TransportResponse(503, "unavailable"),
        TransportResponse(200, completion_body("ok")),
    ])
    delays = clock.delays
    result = complete_one(chain_for(), ClientConfig(max_retries=2),
                          transport, sleep=clock.sleep)
    assert result.text == "ok"
    assert result.attempts == 3
    assert len(delays) == 2
    # Exponential base 1s doubling, jitter multiplies by [1, 1.25).
    assert 1.0 <= delays[0] <= 1.25
    assert 2.0 <= delays[1] <= 2.5
    assert result.latency == sum(delays)


def test_transport_exception_retried():
    transport = ScriptedTransport([
        TransportError("connection reset"),
        TransportResponse(200, completion_body("recovered")),
    ])
    result = complete_one(chain_for(), ClientConfig(max_retries=1),
                          transport)
    assert result.text == "recovered"
    assert result.attempts == 2


def test_retries_exhausted_raises_last_error():
    transport = ScriptedTransport([TransportResponse(500, "boom")] * 3)
    error = complete_one(chain_for(), ClientConfig(max_retries=2),
                         transport)
    assert isinstance(error, RequestError)
    assert error.status == 500
    assert len(transport.requests) == 3


def test_client_4xx_fails_immediately():
    transport = ScriptedTransport([TransportResponse(404, "missing")])
    delays = []
    error = complete_one(chain_for(), ClientConfig(max_retries=5),
                         transport, sleep=delays.append)
    assert isinstance(error, RequestError)
    assert error.status == 404
    assert error.body == "missing"
    assert delays == []
    assert len(transport.requests) == 1


@pytest.mark.parametrize("body", [
    "not json",
    json.dumps({"choices": []}),
    json.dumps({"choices": [{"message": {}}]}),
    json.dumps({"choices": [{"message": {"content": 7}}]}),
])
def test_malformed_response_is_protocol_error(body):
    transport = ScriptedTransport([TransportResponse(200, body)])
    assert isinstance(complete_one(chain_for(), ClientConfig(), transport),
                      ProtocolError)


def test_missing_credential_env(monkeypatch):
    monkeypatch.delenv("DEMO_KEY_ENV", raising=False)
    cfg = ClientConfig(api_key_env="DEMO_KEY_ENV")
    with pytest.raises(InputError, match="DEMO_KEY_ENV"):
        complete_one(chain_for(), cfg, HttpTransport())


def test_http_transport_headers_and_key_never_logged(chat_server,
                                                     monkeypatch, caplog):
    monkeypatch.setenv("DEMO_KEY_ENV", "sk-verysecret")
    cfg = ClientConfig(endpoint=chat_server.url, api_key_env="DEMO_KEY_ENV",
                       model="test-model")
    with caplog.at_level(logging.DEBUG):
        result = complete_one(chain_for(), cfg, HttpTransport())
    assert result.text == "hi"
    [(path, headers, body)] = chat_server.received
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer sk-verysecret"
    assert headers["Content-Type"] == "application/json"
    assert body == PayloadEncoder(cfg)(chain_for())
    assert "sk-verysecret" not in caplog.text


def test_api_key_header_style(chat_server, monkeypatch):
    monkeypatch.setenv("DEMO_KEY_ENV", "k123")
    cfg = ClientConfig(endpoint=chat_server.url, api_key_env="DEMO_KEY_ENV",
                       auth_header="api-key")
    complete_one(chain_for(), cfg, HttpTransport())
    [(_, headers, _)] = chat_server.received
    assert headers["api-key"] == "k123"
    assert "Authorization" not in headers


def test_http_transport_wraps_connection_refused(no_proxy_env,
                                                 monkeypatch):
    with socket.socket() as sock:   # a loopback port nothing listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    monkeypatch.setenv("DEMO_KEY_ENV", "k")
    cfg = ClientConfig(endpoint=f"http://127.0.0.1:{port}/v1",
                       api_key_env="DEMO_KEY_ENV", max_retries=0)
    error = complete_one(chain_for(), cfg, HttpTransport())
    assert isinstance(error, TransportError)
    assert "refused" in str(error)


def test_the_largest_timeout_taken_is_one_a_socket_takes():
    """A config takes a timeout up to ``threading.TIMEOUT_MAX``, and a
    socket on this platform takes that timeout; 1e10 s, which a socket
    refused with ``OverflowError``, is refused at config load."""
    with socket.socket() as sock:
        sock.settimeout(threading.TIMEOUT_MAX)
    assert ClientConfig(timeout=threading.TIMEOUT_MAX).timeout == (
        threading.TIMEOUT_MAX)
    for too_long in (math.nextafter(threading.TIMEOUT_MAX, math.inf), 1e10):
        with pytest.raises(ConfigError, match=(
                r"^client timeout must be a number > 0 and at most \d+ "
                r"seconds, got ")):
            ClientConfig(timeout=too_long)


def test_http_transport_wraps_read_timeout(chat_server, monkeypatch):
    chat_server.stalled = True
    monkeypatch.setenv("DEMO_KEY_ENV", "k")
    cfg = ClientConfig(endpoint=chat_server.url, api_key_env="DEMO_KEY_ENV",
                       timeout=0.2, max_retries=0)
    start = time.perf_counter()
    error = complete_one(chain_for(), cfg, HttpTransport())
    assert isinstance(error, TransportError)
    assert "timed out" in str(error)
    assert time.perf_counter() - start < 5
    assert len(chat_server.received) == 1


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_http_transport_does_not_follow_redirects(chat_server, monkeypatch,
                                                  status):
    monkeypatch.setenv("DEMO_KEY_ENV", "sk-verysecret")
    cfg = ClientConfig(endpoint=chat_server.url, api_key_env="DEMO_KEY_ENV")
    with running_chat_server() as elsewhere:
        chat_server.replies.append(
            (status, "moved", {"Location": elsewhere.url}))
        error = complete_one(chain_for(), cfg, HttpTransport())
        assert elsewhere.received == []
    assert isinstance(error, RequestError)
    assert (error.status, error.body) == (status, "moved")
    assert len(chat_server.received) == 1


def test_http_transport_honours_environment_proxy(chat_server,
                                                  monkeypatch):
    monkeypatch.setenv("http_proxy", f"http://127.0.0.1:"
                                     f"{chat_server.server_port}")
    response = HttpTransport().post("http://127.0.0.1:1/v1", {}, "{}", 5.0)
    assert response.status == 200
    [(path, _, body)] = chat_server.received
    assert (path, body) == ("http://127.0.0.1:1/v1", "{}")


def test_complete_batch_alignment_and_error_capture():
    mapping = {f"s{i}": f"report {i}" for i in range(6)}

    class FlakyEcho(EchoReportTransport):
        def post(self, url, headers, payload, timeout):
            doc = json.loads(payload)
            last = doc["messages"][-1]["content"]
            if last.endswith("s3"):
                return TransportResponse(400, "bad request")
            return super().post(url, headers, payload, timeout)

    chains = [chain_for(f"s{i}") for i in range(6)]
    results = complete_batch(chains, ClientConfig(), parallelism=3,
                             transport=FlakyEcho(mapping),
                             sleep=lambda _: None)
    assert len(results) == 6
    for i, result in enumerate(results):
        if i == 3:
            assert isinstance(result, RequestError)
            assert result.status == 400
        else:
            assert result.text == f"report {i}"


def test_complete_batch_parallelism_validation():
    with pytest.raises(InputError):
        complete_batch([], ClientConfig(), parallelism=0,
                       transport=FixedReplyTransport("x"))
    assert complete_batch([], ClientConfig(), parallelism=2,
                          transport=FixedReplyTransport("x")) == []


# Message text that stresses JSON string escaping: quotes, backslashes,
# control characters, line separators, astral-plane characters.
_JSON_TEXT = st.text(
    alphabet=st.one_of(st.characters(),
                       st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\U0001f600')),
    max_size=12)


@st.composite
def chains_sharing_messages(draw):
    """K-shot chains whose contents come from one small set, so the same
    text recurs across chains and under different roles."""
    contents = draw(st.lists(_JSON_TEXT, min_size=1, max_size=4))
    text = st.sampled_from(contents)
    chains = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, 3))
        messages = [PromptMessage("system", draw(text))]
        for _ in range(k):
            messages.append(PromptMessage("user", draw(text)))
            messages.append(PromptMessage("assistant", draw(text)))
        messages.append(PromptMessage("user", draw(text)))
        chains.append(PromptChain(tuple(messages), k=k))
    return chains


@settings(max_examples=200, deadline=None)
@given(chains=chains_sharing_messages(), model=_JSON_TEXT,
       temperature=st.floats(allow_nan=False, allow_infinity=False),
       max_tokens=st.integers(1, 2**70))
def test_payload_encoder_matches_json_dumps(chains, model, temperature,
                                            max_tokens):
    cfg = ClientConfig(model=model, temperature=temperature,
                       max_tokens=max_tokens)
    encode = PayloadEncoder(cfg)   # one fragment cache for every chain
    for chain in chains + chains:
        assert encode(chain) == json.dumps({
            "model": cfg.model, "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
            "messages": wire_messages(chain)})


def echo_by_full_parse(mapping, payload):
    """``EchoReportTransport.post`` as a full parse of the body."""
    doc = json.loads(payload)
    users = [m for m in doc.get("messages", ()) if m.get("role") == "user"]
    if not users:
        return TransportResponse(400, '{"error": "no user message"}')
    content = users[-1].get("content", "")
    if content.startswith(INSTRUCTION + "\n"):
        content = content[len(INSTRUCTION) + 1:]
    text = mapping.get(content, content)
    return TransportResponse(200, json.dumps({
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": 0, "completion_tokens": 0}}))


# Text a naive scan of the body would take for message boundaries.
_TRAPS = ('{"role": "user", "content": ', ']}', '"}]}', '\\', '"',
          '\u00e9\u20ac', '\U0001f600', INSTRUCTION + "\n")
_ECHO_TEXT = st.lists(st.one_of(_JSON_TEXT, st.sampled_from(_TRAPS)),
                      max_size=4).map("".join)


@settings(max_examples=150, deadline=None)
@given(messages=st.lists(
           st.tuples(st.sampled_from(["system", "user", "assistant"]),
                     _ECHO_TEXT), max_size=6),
       last=st.none() | st.tuples(st.just("user"), _ECHO_TEXT),
       model=_ECHO_TEXT, mapped=st.sets(st.integers(0, 6)))
def test_echo_transport_reads_the_body_like_a_full_parse(
        messages, last, model, mapped):
    """Whatever the contents, and whether the last message is a user
    message or not, the reply to a ``PayloadEncoder`` body is the full
    parse's, byte for byte; a body with no user message gets a 400."""
    messages = messages + [last] if last else messages
    cfg = ClientConfig(model=model)
    # Any roles in any order: the encoder reads nothing but the messages.
    chain = SimpleNamespace(messages=tuple(
        PromptMessage(role, content) for role, content in messages))
    payload = PayloadEncoder(cfg)(chain)
    contents = [content for _, content in messages]
    stripped = [c[len(INSTRUCTION) + 1:]
                if c.startswith(INSTRUCTION + "\n") else c for c in contents]
    mapping = {stripped[i]: f"report {i}" for i in mapped
               if i < len(stripped)}
    assert (EchoReportTransport(mapping).post("u", {}, payload, 1.0)
            == echo_by_full_parse(mapping, payload))


class FailingEcho(EchoReportTransport):
    """Echo transport that answers chains ending in s3 with a 400, s4
    with a malformed body and s5 with a 503 every time."""

    def __init__(self, mapping):
        super().__init__(mapping)
        self.sent = []   # list.append is atomic, so workers may share it

    def post(self, url, headers, payload, timeout):
        last = json.loads(payload)["messages"][-1]["content"]
        self.sent.append(last.split("\n")[-1])
        if last.endswith("s3"):
            return TransportResponse(400, "bad request")
        if last.endswith("s4"):
            return TransportResponse(200, "not json")
        if last.endswith("s5"):
            return TransportResponse(503, "unavailable")
        return super().post(url, headers, payload, timeout)


@pytest.mark.parametrize("parallelism", [1, 2, 9])
def test_complete_batch_order_and_item_errors(parallelism):
    mapping = {f"s{i}": f"report {i}" for i in range(8)}
    chains = [chain_for(f"s{i}") for i in range(8)]
    transport = FailingEcho(mapping)
    results = complete_batch(chains, ClientConfig(max_retries=1),
                             parallelism=parallelism, transport=transport,
                             sleep=lambda _: None)
    assert len(results) == 8
    assert isinstance(results[3], RequestError)
    assert results[3].status == 400
    assert isinstance(results[4], ProtocolError)
    assert isinstance(results[5], RequestError)
    assert results[5].status == 503
    for i in (0, 1, 2, 6, 7):
        assert results[i].text == f"report {i}"
    assert len(transport.sent) == 9   # s5 is sent twice
    assert complete_batch([], ClientConfig(), parallelism=parallelism,
                          transport=transport) == []
    assert len(transport.sent) == 9


def test_complete_batch_under_frequent_thread_switches():
    mapping = {f"s{i}": f"report {i}" for i in range(300)}
    chains = [chain_for(f"s{i}") for i in range(300)]
    transport = FailingEcho(mapping)
    out = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: out.setdefault(
            "results", complete_batch(chains, ClientConfig(max_retries=0),
                                      parallelism=8, transport=transport)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    # Each chain is taken exactly once and its result lands at its index.
    assert sorted(transport.sent) == sorted(mapping)
    for i, result in enumerate(out["results"]):
        if i in (3, 4, 5):
            assert isinstance(result, ProtocolError if i == 4
                              else RequestError)
        else:
            assert result.text == f"report {i}"


def test_complete_batch_reraises_unexpected_errors():
    second_in_flight = threading.Event()

    class Broken:
        def __init__(self):
            self.sent = []

        def post(self, url, headers, payload, timeout):
            last = json.loads(payload)["messages"][-1]["content"]
            self.sent.append(last[-2:])
            if last.endswith("s0"):
                second_in_flight.wait(timeout=10)
                raise ValueError("bug in transport")
            second_in_flight.set()
            time.sleep(0.2)   # the other worker fails meanwhile
            return TransportResponse(200, completion_body("ok"))

    transport = Broken()
    chains = [chain_for(f"s{i}") for i in range(10)]
    with pytest.raises(ValueError, match="bug in transport"):
        complete_batch(chains, ClientConfig(), parallelism=2,
                       transport=transport, sleep=lambda _: None)
    # The worker still busy with s1 takes no further chain.
    assert sorted(transport.sent) == ["s0", "s1"]


def test_complete_batch_checks_credential_before_sending(monkeypatch):
    class CountingHttp(HttpTransport):
        sent = []

        def post(self, url, headers, payload, timeout):
            CountingHttp.sent.append(payload)
            return TransportResponse(200, completion_body("hi"))

    monkeypatch.delenv("DEMO_KEY_ENV", raising=False)
    cfg = ClientConfig(api_key_env="DEMO_KEY_ENV")
    chains = [chain_for(f"s{i}") for i in range(5)]
    with pytest.raises(InputError, match="DEMO_KEY_ENV"):
        complete_batch(chains, cfg, parallelism=2, transport=CountingHttp())
    assert CountingHttp.sent == []
    monkeypatch.setenv("DEMO_KEY_ENV", "k")
    results = complete_batch(chains, cfg, parallelism=2,
                             transport=CountingHttp())
    assert [r.text for r in results] == ["hi"] * 5
    assert len(CountingHttp.sent) == 5


def test_no_rng_built_without_a_retry(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("random.Random built without a retry")

    monkeypatch.setattr(random, "Random", no_rng)
    chains = [chain_for(f"s{i}") for i in range(6)]
    results = complete_batch(chains, ClientConfig(), parallelism=2,
                             transport=FixedReplyTransport("x"))
    assert [r.attempts for r in results] == [1] * 6


def test_retry_jitter_without_injected_rng(clock):
    transport = ScriptedTransport([
        TransportResponse(429, "slow down"),
        TransportError("connection reset"),
        TransportResponse(503, "unavailable"),
        TransportResponse(200, completion_body("ok")),
    ])
    delays = clock.delays
    result = complete_one(chain_for(), ClientConfig(max_retries=3),
                          transport, sleep=clock.sleep)
    assert result.attempts == 4
    assert len(delays) == 3
    for attempt, delay in enumerate(delays):
        backoff = 2.0 ** attempt
        assert backoff <= delay <= 1.25 * backoff
    assert result.latency == sum(delays)


def test_importing_the_cli_leaves_requests_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, radstyle.cli; "
         "print('requests' in sys.modules, 'urllib.request' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False False"


def test_retry_after_sets_the_least_delay(clock):
    transport = ScriptedTransport([
        TransportResponse(429, "slow down", retry_after=3.0),
        TransportResponse(200, completion_body("ok")),
    ])
    delays = clock.delays
    result = complete_one(chain_for(), ClientConfig(max_retries=1),
                          transport, sleep=clock.sleep)
    assert result.attempts == 2
    assert len(delays) == 1 and delays[0] >= 3.0
    assert result.latency == delays[0]


@pytest.mark.parametrize("header, expected", [
    ("3", 3.0), ("0.5", 0.5), (None, None), ("-1", None), ("nan", None),
    ("Wed, 21 Oct 2015 07:28:00 GMT", None),
])
def test_http_transport_reads_numeric_retry_after(chat_server, header,
                                                  expected):
    chat_server.replies.append(
        (429, "slow down", {} if header is None else {"Retry-After": header}))
    response = HttpTransport().post(chat_server.url, {}, "{}", 5.0)
    assert (response.status, response.body, response.retry_after) == (
        429, "slow down", expected)


def test_retry_after_is_bounded(caplog, clock):
    transport = ScriptedTransport([
        TransportResponse(429, "slow down", retry_after=86400.0),
        TransportResponse(200, completion_body("ok")),
    ])
    with caplog.at_level(logging.WARNING):
        result = complete_one(chain_for(), ClientConfig(max_retries=1),
                              transport, sleep=clock.sleep)
    assert result.attempts == 2
    assert clock.delays == [60.0]
    assert result.latency == 60.0
    assert "86400 s" in caplog.text and "60 s" in caplog.text


@pytest.mark.parametrize("attempts, doubled", [
    (1, 1.0), (2, 2.0), (6, 32.0), (7, 60.0), (20, 60.0), (2000, 60.0)])
def test_backoff_doubling_stops_at_the_cap(attempts, doubled):
    jitter = 1.0 + random.Random(0).uniform(0.0, 0.25)
    assert _backoff(TransportError("x"), attempts,
                    random.Random(0)) == doubled * jitter
    # A Retry-After still sets the least delay, up to the same cap.
    assert _backoff(RequestError(429, "", retry_after=50.0), attempts,
                    random.Random(0)) == max(doubled * jitter, 50.0)


# One scripted action per attempt; attempts past the script succeed.
_ACTIONS = st.sampled_from([200, 400, 429, 503, "transport", "malformed"])


class KeyedTransport:
    """Answers each chain by its final key word from a per-key script,
    counting sends per key and the most posts ever in flight at once."""

    def __init__(self, scripts, hold=0.0):
        self.scripts = scripts
        self.hold = hold
        self.lock = threading.Lock()
        self.sent = []
        self.in_flight = 0
        self.peak = 0

    def post(self, url, headers, payload, timeout):
        key = json.loads(payload)["messages"][-1]["content"].split()[-1]
        with self.lock:
            attempt = sum(k == key for k in self.sent)
            self.sent.append(key)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.hold)
            script = self.scripts[key]
            action = script[attempt] if attempt < len(script) else 200
            if action == "transport":
                raise TransportError("connection reset")
            if action == "malformed":
                return TransportResponse(200, "not json")
            if action == 200:
                return TransportResponse(200, completion_body(f"r-{key}"))
            return TransportResponse(action, "failed")
        finally:
            with self.lock:
                self.in_flight -= 1


def outcome(result):
    if isinstance(result, Exception):
        return type(result).__name__, getattr(result, "status", None)
    return result.text, result.attempts


@settings(max_examples=60, deadline=None)
@given(scripts=st.lists(st.lists(_ACTIONS, max_size=4), min_size=1,
                        max_size=8),
       parallelism=st.integers(1, 4), max_retries=st.integers(0, 3))
def test_complete_batch_matches_the_retry_model(scripts, parallelism,
                                                max_retries):
    scripts = {f"s{i}": script for i, script in enumerate(scripts)}
    chains = [chain_for(key) for key in scripts]
    cfg = ClientConfig(max_retries=max_retries)
    expected = {key: retry_oracle(script, max_retries, f"r-{key}")
                for key, script in scripts.items()}
    transport = KeyedTransport(scripts, hold=0.001)
    results = complete_batch(chains, cfg, parallelism=parallelism,
                             transport=transport, sleep=lambda _: None)
    assert [outcome(r) for r in results] == [
        result for result, _ in expected.values()]
    assert sorted(transport.sent) == sorted(
        key for key, (_, sends) in expected.items() for _ in range(sends))
    assert transport.peak <= parallelism


def test_retry_waits_behind_every_fresh_item():
    scripts = {f"s{i}": [503] if i == 0 else [] for i in range(6)}
    transport = KeyedTransport(scripts)
    results = complete_batch([chain_for(key) for key in scripts],
                             ClientConfig(max_retries=1), parallelism=1,
                             transport=transport, sleep=lambda _: None)
    assert transport.sent == ["s0", "s1", "s2", "s3", "s4", "s5", "s0"]
    assert [outcome(r) for r in results] == (
        [("r-s0", 2)] + [(f"r-s{i}", 1) for i in range(1, 6)])


def test_batch_retry_waits_out_its_backoff():
    sent_at = []

    class Timed(KeyedTransport):
        def post(self, url, headers, payload, timeout):
            sent_at.append(time.perf_counter())
            return super().post(url, headers, payload, timeout)

    transport = Timed({"s0": [503], "s1": []})
    results = complete_batch([chain_for("s0"), chain_for("s1")],
                             ClientConfig(max_retries=1), parallelism=2,
                             transport=transport)
    assert transport.sent.count("s0") == 2
    assert sent_at[-1] - sent_at[0] >= 1.0
    assert results[0].attempts == 2
    assert results[0].latency >= 1.0


def test_batch_stops_while_a_retry_waits():
    second_started = threading.Event()
    waiting = threading.Event()
    raised = threading.Event()

    class Stop(BaseException):
        pass

    class Transport(KeyedTransport):
        def post(self, url, headers, payload, timeout):
            key = json.loads(payload)["messages"][-1]["content"].split()[-1]
            self.sent.append(key)
            if key == "s0":
                second_started.wait(timeout=10)
                return TransportResponse(503, "unavailable")
            second_started.set()
            waiting.wait(timeout=10)   # until s0's worker sleeps on it
            raised.set()
            raise Stop()

    def sleep(seconds):
        waiting.set()
        raised.wait(timeout=10)
        time.sleep(0.2)   # the failing worker records its failure

    transport = Transport({})
    with pytest.raises(Stop):
        complete_batch([chain_for("s0"), chain_for("s1")],
                       ClientConfig(max_retries=1), parallelism=2,
                       transport=transport, sleep=sleep)
    assert waiting.is_set()
    assert sorted(transport.sent) == ["s0", "s1"]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_one_worker_batch_stops_at_an_interrupt(n):
    # One worker runs on the caller's thread. An interrupt at request n
    # reaches the caller, and nothing is sent after it, not even the
    # retry that s0's 503 left waiting.
    threads = []

    class Interrupting(KeyedTransport):
        def post(self, url, headers, payload, timeout):
            threads.append(threading.get_ident())
            if len(threads) == n:
                raise KeyboardInterrupt
            return super().post(url, headers, payload, timeout)

    scripts = {f"s{i}": [503] if i == 0 else [] for i in range(6)}
    transport = Interrupting(scripts)
    with pytest.raises(KeyboardInterrupt):
        complete_batch([chain_for(key) for key in scripts],
                       ClientConfig(max_retries=1), parallelism=1,
                       transport=transport, sleep=lambda _: None)
    assert threads == [threading.get_ident()] * n
    assert transport.sent == [f"s{i}" for i in range(n - 1)]


def test_an_interrupt_of_the_caller_stops_the_workers():
    # A Ctrl-C reaches the caller's thread while it waits for the
    # workers. They take no chain after it, and the batch re-raises it
    # only once every worker has finished.
    n, parallelism = 3, 2
    sent = []
    lock = threading.Lock()
    caller = threading.get_ident()

    class Interrupting:
        def post(self, url, headers, payload, timeout):
            with lock:
                sent.append(payload)
                count = len(sent)
            if count == n:
                signal.pthread_kill(caller, signal.SIGINT)
            time.sleep(0.02)
            return TransportResponse(200, completion_body("ok"))

    before = set(threading.enumerate())
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            complete_batch([chain_for(f"s{i}") for i in range(200)],
                           ClientConfig(), parallelism=parallelism,
                           transport=Interrupting(), sleep=lambda _: None)
        at_raise = len(sent)
    finally:
        signal.signal(signal.SIGINT, handler)
    workers = set(threading.enumerate()) - before
    for worker in workers:
        worker.join(timeout=10)
    assert not any(worker.is_alive() for worker in workers)
    assert n <= len(sent) == at_raise <= n + parallelism


def test_retry_heap_under_frequent_thread_switches():
    scripts = {f"s{i}": [503, "transport"] if i % 7 == 0 else
               [429] if i % 5 == 0 else [] for i in range(300)}
    transport = KeyedTransport(scripts)
    out = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: out.setdefault(
            "results", complete_batch(
                [chain_for(key) for key in scripts],
                ClientConfig(max_retries=2), parallelism=8,
                transport=transport, sleep=lambda _: None)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert transport.peak <= 8
    # Each retried item is pushed and taken once per retry, no more.
    for i, result in enumerate(out["results"]):
        sends = 3 if i % 7 == 0 else 2 if i % 5 == 0 else 1
        assert transport.sent.count(f"s{i}") == sends
        assert outcome(result) == (f"r-s{i}", sends)
