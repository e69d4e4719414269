import json
import logging
import random

import pytest

from radstyle.client import (ClientConfig, EchoReportTransport,
                             FixedReplyTransport, TransportResponse,
                             complete, complete_batch)
from radstyle.errors import (InputError, ProtocolError, RequestError,
                             TransportError)
from radstyle.prompting import INSTRUCTION, StylePair, build_prompt


def chain_for(text="no edema"):
    return build_prompt([StylePair("lungs clear", "Lungs are clear.")], text)


def completion_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}],
                       "usage": {"prompt_tokens": 3}})


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


def test_fixed_reply_and_wire_format():
    cfg = ClientConfig(model="test-model", temperature=0.5, max_tokens=99)
    result = complete(chain_for(), cfg,
                      transport=FixedReplyTransport("A fine report."))
    assert result.text == "A fine report."
    assert result.attempts == 1
    assert result.usage == {"prompt_tokens": 0, "completion_tokens": 0}
    # The in-process transports keep no request log; a scripted one
    # shows what goes on the wire.
    transport = ScriptedTransport(
        [TransportResponse(200, completion_body("A fine report."))])
    result = complete(chain_for(), cfg, transport=transport)
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
    result = complete(chain_for("no edema"), ClientConfig(),
                      transport=transport)
    assert result.text == "There is no edema."
    # Unmapped serializations echo back unchanged.
    result = complete(chain_for("maybe nodule"), ClientConfig(),
                      transport=transport)
    assert result.text == "maybe nodule"
    assert INSTRUCTION not in result.text


def test_retries_on_429_and_5xx_with_backoff():
    transport = ScriptedTransport([
        TransportResponse(429, "slow down"),
        TransportResponse(503, "unavailable"),
        TransportResponse(200, completion_body("ok")),
    ])
    delays = []
    result = complete(chain_for(), ClientConfig(max_retries=2),
                      transport=transport, sleep=delays.append,
                      rng=random.Random(0))
    assert result.text == "ok"
    assert result.attempts == 3
    assert len(delays) == 2
    # Exponential base 1s doubling, jitter multiplies by [1, 1.25).
    assert 1.0 <= delays[0] <= 1.25
    assert 2.0 <= delays[1] <= 2.5


def test_transport_exception_retried():
    transport = ScriptedTransport([
        TransportError("connection reset"),
        TransportResponse(200, completion_body("recovered")),
    ])
    result = complete(chain_for(), ClientConfig(max_retries=1),
                      transport=transport, sleep=lambda _: None)
    assert result.text == "recovered"
    assert result.attempts == 2


def test_retries_exhausted_raises_last_error():
    transport = ScriptedTransport([TransportResponse(500, "boom")] * 3)
    with pytest.raises(RequestError) as info:
        complete(chain_for(), ClientConfig(max_retries=2),
                 transport=transport, sleep=lambda _: None)
    assert info.value.status == 500
    assert len(transport.requests) == 3


def test_client_4xx_fails_immediately():
    transport = ScriptedTransport([TransportResponse(404, "missing")])
    delays = []
    with pytest.raises(RequestError) as info:
        complete(chain_for(), ClientConfig(max_retries=5),
                 transport=transport, sleep=delays.append)
    assert info.value.status == 404
    assert info.value.body == "missing"
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
    with pytest.raises(ProtocolError):
        complete(chain_for(), ClientConfig(), transport=transport)


def test_missing_credential_env(monkeypatch):
    monkeypatch.delenv("DEMO_KEY_ENV", raising=False)
    cfg = ClientConfig(api_key_env="DEMO_KEY_ENV")
    with pytest.raises(InputError, match="DEMO_KEY_ENV"):
        complete(chain_for(), cfg)


class FakeHttpResponse:
    def __init__(self, status_code, text):
        self.status_code = status_code
        self.text = text


def test_http_transport_headers_and_key_never_logged(monkeypatch, caplog):
    captured = {}

    def fake_post(url, headers=None, data=None, timeout=None):
        captured["headers"] = headers
        return FakeHttpResponse(200, completion_body("hi"))

    monkeypatch.setattr("radstyle.client.requests.post", fake_post)
    monkeypatch.setenv("DEMO_KEY_ENV", "sk-verysecret")
    cfg = ClientConfig(api_key_env="DEMO_KEY_ENV")
    with caplog.at_level(logging.DEBUG):
        result = complete(chain_for(), cfg)
    assert result.text == "hi"
    assert captured["headers"]["Authorization"] == "Bearer sk-verysecret"
    assert "sk-verysecret" not in caplog.text


def test_api_key_header_style(monkeypatch):
    captured = {}

    def fake_post(url, headers=None, data=None, timeout=None):
        captured["headers"] = headers
        return FakeHttpResponse(200, completion_body("hi"))

    monkeypatch.setattr("radstyle.client.requests.post", fake_post)
    monkeypatch.setenv("DEMO_KEY_ENV", "k123")
    cfg = ClientConfig(api_key_env="DEMO_KEY_ENV", auth_header="api-key")
    complete(chain_for(), cfg)
    assert captured["headers"]["api-key"] == "k123"
    assert "Bearer" not in captured["headers"]["api-key"]


def test_http_transport_wraps_requests_errors(monkeypatch):
    import requests

    def fake_post(url, headers=None, data=None, timeout=None):
        raise requests.ConnectionError("refused")

    monkeypatch.setattr("radstyle.client.requests.post", fake_post)
    monkeypatch.setenv("DEMO_KEY_ENV", "k")
    cfg = ClientConfig(api_key_env="DEMO_KEY_ENV", max_retries=0)
    with pytest.raises(TransportError, match="refused"):
        complete(chain_for(), cfg)


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
        complete_batch([], ClientConfig(), parallelism=0)
    assert complete_batch([], ClientConfig(), parallelism=2,
                          transport=FixedReplyTransport("x")) == []
