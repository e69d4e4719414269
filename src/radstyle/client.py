"""Chat-completion client with a pluggable transport.

The HTTP layer is isolated behind the Transport protocol so tests and
offline runs can substitute deterministic fakes. Retries cover rate
limits (429), server errors (5xx), and transport exceptions with
exponential backoff; other 4xx responses fail immediately. Credentials
are read from an environment variable at call time and never logged.
"""

from __future__ import annotations

import json
import logging
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import requests

from .errors import InputError, ProtocolError, RequestError, TransportError
from .prompting import INSTRUCTION, PromptChain, wire_messages

log = logging.getLogger(__name__)

_BACKOFF_BASE = 1.0
_BACKOFF_FACTOR = 2.0
_JITTER_SPAN = 0.25


@dataclass(frozen=True)
class ClientConfig:
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_tokens: int = 512
    timeout: float = 30.0
    max_retries: int = 2
    api_key_env: str = "OPENAI_API_KEY"
    auth_header: str = "Authorization"


@dataclass(frozen=True)
class TransportResponse:
    status: int
    body: str


class Transport(Protocol):
    def post(self, url: str, headers: dict[str, str], payload: str,
             timeout: float) -> TransportResponse: ...


class HttpTransport:
    """Real network transport over requests."""

    def post(self, url: str, headers: dict[str, str], payload: str,
             timeout: float) -> TransportResponse:
        try:
            resp = requests.post(url, headers=headers, data=payload,
                                 timeout=timeout)
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        return TransportResponse(resp.status_code, resp.text)


class FixedReplyTransport:
    """Returns the same completion text for every request."""

    def __init__(self, text: str) -> None:
        self.text = text

    def post(self, url: str, headers: dict[str, str], payload: str,
             timeout: float) -> TransportResponse:
        return TransportResponse(200, _completion_body(self.text))


class EchoReportTransport:
    """Maps the serialization in the final user message to a report.

    The mapping is keyed by serialization text. With an identity mapping
    (serialization -> its own reference report) this makes end-to-end
    runs fully deterministic without a network.
    """

    def __init__(self, mapping: dict[str, str] | None = None) -> None:
        self.mapping = mapping or {}

    def post(self, url: str, headers: dict[str, str], payload: str,
             timeout: float) -> TransportResponse:
        doc = json.loads(payload)
        users = [m for m in doc.get("messages", ())
                 if m.get("role") == "user"]
        if not users:
            return TransportResponse(400, '{"error": "no user message"}')
        content = users[-1].get("content", "")
        if content.startswith(INSTRUCTION + "\n"):
            content = content[len(INSTRUCTION) + 1:]
        text = self.mapping.get(content, content)
        return TransportResponse(200, _completion_body(text))


def _completion_body(text: str) -> str:
    return json.dumps({
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": 0, "completion_tokens": 0},
    })


@dataclass(frozen=True)
class CompletionResult:
    text: str
    usage: dict
    latency: float
    attempts: int


def _headers(cfg: ClientConfig) -> dict[str, str]:
    key = os.environ.get(cfg.api_key_env)
    if not key:
        raise InputError(
            f"credential environment variable {cfg.api_key_env} is not set")
    if cfg.auth_header.lower() == "authorization":
        value = f"Bearer {key}"
    else:
        value = key
    return {"Content-Type": "application/json", cfg.auth_header: value}


def _request_payload(chain: PromptChain, cfg: ClientConfig) -> str:
    return json.dumps({
        "model": cfg.model,
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
        "messages": wire_messages(chain),
    })


def _parse_completion(body: str) -> tuple[str, dict]:
    try:
        doc = json.loads(body)
        choices = doc["choices"]
        text = choices[0]["message"]["content"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed completion response: {exc}") from exc
    if not isinstance(text, str):
        raise ProtocolError("completion content is not a string")
    return text, doc.get("usage") or {}


def complete(chain: PromptChain, cfg: ClientConfig,
             transport: Transport | None = None,
             sleep: Callable[[float], None] = time.sleep,
             rng: random.Random | None = None) -> CompletionResult:
    """Run one chat completion, retrying transient failures.

    ``sleep`` and ``rng`` are injectable so retry schedules are testable
    without waiting.
    """
    if transport is None:
        transport = HttpTransport()
    needs_credential = isinstance(transport, HttpTransport)
    headers = _headers(cfg) if needs_credential else {
        "Content-Type": "application/json"}
    payload = _request_payload(chain, cfg)
    rng = rng or random.Random()
    start = time.perf_counter()
    attempts = 0
    last_error: Exception | None = None
    while attempts <= cfg.max_retries:
        attempts += 1
        try:
            resp = transport.post(cfg.endpoint, headers, payload, cfg.timeout)
        except TransportError as exc:
            last_error = exc
            log.debug("transport failure on attempt %d: %s", attempts, exc)
        else:
            if resp.status == 200:
                text, usage = _parse_completion(resp.body)
                latency = time.perf_counter() - start
                return CompletionResult(text, usage, latency, attempts)
            if resp.status == 429 or resp.status >= 500:
                last_error = RequestError(resp.status, resp.body)
                log.debug("retryable status %d on attempt %d",
                          resp.status, attempts)
            else:
                raise RequestError(resp.status, resp.body)
        if attempts <= cfg.max_retries:
            delay = _BACKOFF_BASE * _BACKOFF_FACTOR ** (attempts - 1)
            delay *= 1.0 + rng.uniform(0.0, _JITTER_SPAN)
            sleep(delay)
    assert last_error is not None
    raise last_error


def complete_batch(chains: Sequence[PromptChain], cfg: ClientConfig,
                   parallelism: int = 4,
                   transport: Transport | None = None,
                   sleep: Callable[[float], None] = time.sleep,
                   ) -> list[CompletionResult | Exception]:
    """Complete many chains with bounded parallelism.

    Results align with the input order; a failed item yields its
    exception instead of aborting the batch.
    """
    if parallelism < 1:
        raise InputError(f"parallelism must be positive, got {parallelism}")
    if transport is None:
        transport = HttpTransport()

    def run(chain: PromptChain) -> CompletionResult:
        return complete(chain, cfg, transport=transport, sleep=sleep)

    results: list[CompletionResult | Exception] = [None] * len(chains)  # type: ignore[list-item]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = {pool.submit(run, chain): i
                   for i, chain in enumerate(chains)}
        for future, i in futures.items():
            try:
                results[i] = future.result()
            except Exception as exc:
                results[i] = exc
    return results
