"""Chat-completion client with a pluggable transport.

The HTTP layer is isolated behind the Transport protocol so tests and
offline runs can substitute deterministic fakes. ``complete`` sends one
request; ``complete_batch`` holds the only retry loop. It retries rate
limits (429), server errors (5xx), and transport exceptions with
exponential backoff, never shorter than a numeric ``Retry-After``; other
4xx responses fail immediately. Credentials are read from an environment
variable before a batch sends its first request, and never logged.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence
from urllib.parse import urlsplit

from .errors import (ClientError, ConfigError, InputError, ProtocolError,
                     RequestError, TransportError)
from .prompting import INSTRUCTION, PromptChain

log = logging.getLogger(__name__)

_BACKOFF_BASE = 1.0
_BACKOFF_FACTOR = 2.0
_JITTER_SPAN = 0.25
# The longest wait before a retry, jitter aside: the doubling stops here,
# and a longer numeric Retry-After is cut to this.
_RETRY_AFTER_MAX = 60.0


def _is_http_url(value) -> bool:
    try:
        parts = urlsplit(value)
        parts.port   # raises ValueError on a bad port
    except (TypeError, ValueError, AttributeError):   # not a URL string
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


@dataclass(frozen=True)
class ClientConfig:
    """How generated reports are obtained: the ``client:`` section of a
    run config.

    mode "http" talks to a real endpoint; "identity-mock" echoes each
    study's reference report (offline pipeline checks); "fixed-mock"
    returns one canned report for everything (degenerate baseline).
    ``parallelism`` applies to mode "http": ``evaluate`` sends each shot
    row's requests with that many workers. The mocks never wait, so they
    answer on the calling thread.
    """

    mode: str = "identity-mock"
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_tokens: int = 512
    timeout: float = 30.0
    max_retries: int = 2
    api_key_env: str = "OPENAI_API_KEY"
    auth_header: str = "Authorization"
    parallelism: int = 4

    def __post_init__(self) -> None:
        if self.mode not in ("http", "identity-mock", "fixed-mock"):
            raise ConfigError(f"unknown client mode {self.mode!r}")
        if not _is_http_url(self.endpoint):
            raise ConfigError(f"client endpoint must be an http or https "
                              f"URL with a host, got {self.endpoint!r}")
        if not math.isfinite(self.temperature):
            raise ConfigError(f"client temperature must be a finite number, "
                              f"got {self.temperature!r}")
        if self.max_tokens < 1:
            raise ConfigError(f"client max_tokens must be an integer >= 1, "
                              f"got {self.max_tokens!r}")
        # a socket refuses a timeout above TIMEOUT_MAX; nan fails both
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ConfigError(f"client timeout must be a number > 0 and at "
                              f"most {threading.TIMEOUT_MAX:.0f} seconds, "
                              f"got {self.timeout!r}")
        if self.max_retries < 0:
            raise ConfigError(f"client max_retries must be an integer >= 0, "
                              f"got {self.max_retries!r}")
        if self.parallelism < 1:
            raise ConfigError(f"client parallelism must be an integer >= 1, "
                              f"got {self.parallelism!r}")


@dataclass(frozen=True)
class TransportResponse:
    status: int
    body: str
    retry_after: float | None = None   # seconds the server asks to wait


class Transport(Protocol):
    def post(self, url: str, headers: dict[str, str], payload: str,
             timeout: float) -> TransportResponse: ...


class HttpTransport:
    """Real network transport over the standard library's urllib.

    One opener serves every request; its default ``ProxyHandler`` honours
    ``HTTP(S)_PROXY`` and ``NO_PROXY``. Redirects are not followed: urllib
    would resend every header, the credential included, to whatever host
    a 3xx names, so a 3xx reply is returned like any other non-2xx one.
    urllib sends ``Connection: close``, so each request opens its own
    connection. ``urllib.request`` is imported here rather than with the
    module, so runs on the in-process transports never pay for loading it.
    """

    def __init__(self) -> None:
        import http.client
        import urllib.error
        import urllib.request

        class NoRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args, **kwargs):
                return None   # the 3xx goes on to raise HTTPError

        self._opener = urllib.request.build_opener(NoRedirect())
        self._request = urllib.request.Request
        self._http_error = urllib.error.HTTPError
        # URLError and socket timeouts are OSErrors
        self._failures = (OSError, http.client.HTTPException)

    def post(self, url: str, headers: dict[str, str], payload: str,
             timeout: float) -> TransportResponse:
        request = self._request(url, data=payload.encode("utf-8"),
                                headers=headers, method="POST")
        retry_after = None
        try:
            try:
                resp = self._opener.open(request, timeout=timeout)
            except self._http_error as exc:   # any reply outside 2xx
                resp = exc
                retry_after = _retry_after(exc.headers.get("Retry-After"))
            with resp:
                status, body = resp.status, resp.read()
        except self._failures as exc:
            raise TransportError(str(exc)) from exc
        return TransportResponse(status, body.decode("utf-8", "replace"),
                                 retry_after)


def _retry_after(value: str | None) -> float | None:
    """Seconds from a numeric ``Retry-After`` header; an HTTP-date or any
    other value is ignored."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


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
        content = _last_user_content(payload)
        if content is None:
            return TransportResponse(400, '{"error": "no user message"}')
        if content.startswith(INSTRUCTION + "\n"):
            content = content[len(INSTRUCTION) + 1:]
        text = self.mapping.get(content, content)
        return TransportResponse(200, _completion_body(text))


_DECODER = json.JSONDecoder()
_USER_MESSAGE = '{"role": "user", "content": '


def _last_user_content(payload: str) -> str | None:
    """The content of the last user message of a ``PayloadEncoder`` body,
    or None when it has none.

    The encoder writes each message as ``{"role": ..., "content": ...}``,
    and a JSON string never holds an unescaped quote, so the last user
    message starts at the body's last ``{"role": "user", "content": ``.
    Only that object is decoded. A body of any other shape is not read.
    """
    start = payload.rfind(_USER_MESSAGE)
    if start < 0:
        return None
    return _DECODER.raw_decode(payload, start)[0]["content"]


def _completion_body(text: str) -> str:
    """``json.dumps`` of a one-choice completion of ``text``, byte for
    byte, with only the text encoded per call."""
    return ('{"choices": [{"message": {"role": "assistant", "content": '
            + json.dumps(text)
            + '}}], "usage": {"prompt_tokens": 0, "completion_tokens": 0}}')


@dataclass(frozen=True)
class CompletionResult:
    text: str
    usage: dict
    latency: float
    attempts: int


# An HTTP field value (RFC 9110): tab, visible ASCII, space and Latin-1
# text; no other control character, CR and LF included.
_HEADER_TEXT = re.compile("[\t\x20-\x7e\x80-\xff]*")


def request_headers(cfg: ClientConfig,
                    transport: Transport) -> dict[str, str]:
    """Request headers; only the HTTP transport carries the credential,
    and an unset credential or one no header can carry raises
    ``InputError``."""
    if not isinstance(transport, HttpTransport):
        return {"Content-Type": "application/json"}
    key = os.environ.get(cfg.api_key_env)
    if not key:
        raise InputError(
            f"credential environment variable {cfg.api_key_env} is not set")
    if not _HEADER_TEXT.fullmatch(key):
        # The message never quotes the key: it is the credential.
        raise InputError(
            f"credential environment variable {cfg.api_key_env} holds a "
            f"character an HTTP header cannot carry")
    if cfg.auth_header.lower() == "authorization":
        value = f"Bearer {key}"
    else:
        value = key
    return {"Content-Type": "application/json", cfg.auth_header: value}


class PayloadEncoder:
    """Builds request bodies for one config from each message's
    ``wire_json``, which a message encodes once however many chains and
    batches share it.

    A body is byte-identical to ``json.dumps({"model": ..., "temperature":
    ..., "max_tokens": ..., "messages": wire_messages(chain)})``: that
    form's default separators put ``", "`` between list items, so the
    message texts are joined the same way.
    """

    def __init__(self, cfg: ClientConfig) -> None:
        head = json.dumps({"model": cfg.model,
                           "temperature": cfg.temperature,
                           "max_tokens": cfg.max_tokens, "messages": []})
        self._head = head[:-2]   # up to and including the "[" of messages

    def __call__(self, chain: PromptChain) -> str:
        return (self._head
                + ", ".join([m.wire_json for m in chain.messages]) + "]}")


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


def _retryable(exc: ClientError) -> bool:
    """Rate limits (429), server errors (5xx) and transport failures are
    worth another attempt; any other failure is final."""
    if isinstance(exc, RequestError):
        return exc.status == 429 or exc.status >= 500
    return isinstance(exc, TransportError)


def _backoff(exc: ClientError, attempts: int, rng: random.Random) -> float:
    """Seconds to wait after failed attempt number ``attempts``: doubling
    from 1 s up to ``_RETRY_AFTER_MAX``, with up to 25% jitter, and at
    least the server's ``Retry-After``, up to ``_RETRY_AFTER_MAX``."""
    # Past 64 doublings the cap has long been reached, and 2.0 ** 1024
    # would overflow a float.
    delay = min(_BACKOFF_BASE * _BACKOFF_FACTOR ** min(attempts - 1, 64),
                _RETRY_AFTER_MAX)
    delay *= 1.0 + rng.uniform(0.0, _JITTER_SPAN)
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is None:
        return delay
    used = max(delay, min(retry_after, _RETRY_AFTER_MAX))
    if retry_after > _RETRY_AFTER_MAX:
        log.warning("server asked to wait %g s before a retry; waiting "
                    "%.3g s", retry_after, used)
    return used


def complete(chain: PromptChain, cfg: ClientConfig, transport: Transport,
             headers: dict[str, str],
             encode: PayloadEncoder) -> tuple[str, dict]:
    """Send one chat completion request; return its reply's text, usage.

    A failed send, a status other than 200 or a reply that is no
    completion raises its ``ClientError``; whether to retry is
    ``complete_batch``'s decision.
    """
    resp = transport.post(cfg.endpoint, headers, encode(chain), cfg.timeout)
    if resp.status != 200:
        raise RequestError(resp.status, resp.body, resp.retry_after)
    return _parse_completion(resp.body)


def complete_batch(chains: Sequence[PromptChain], cfg: ClientConfig,
                   parallelism: int, transport: Transport,
                   sleep: Callable[[float], None] = time.sleep,
                   ) -> list[CompletionResult | ClientError]:
    """Complete many chains with ``parallelism`` workers: the client's
    only retry loop.

    One worker, or one chain, runs on the caller's thread; more start
    that many threads. Each worker sends one request at a time through
    ``complete``, so at most ``parallelism`` are in flight. A retryable
    failure does not hold its worker: the item goes on a heap keyed by
    the time its backoff ends, and the worker moves on. A worker sends a
    due retry first, then the next fresh chain; once no fresh chain is
    left, it takes the earliest retry and calls ``sleep`` only for what
    is left of its backoff. An item's result is built once, when it is
    final, with its latency measured from its first send. The credential
    is checked once, before any request is sent, and one
    ``PayloadEncoder`` serves the batch.

    Results align with the input order; an item that fails with a
    ``ClientError`` yields that exception instead of aborting the batch.
    Any other exception, on a worker or on the caller's thread (a Ctrl-C,
    say), stops the batch: workers send nothing more, and it is re-raised
    once they have all finished.
    """
    if parallelism < 1:
        raise InputError(f"parallelism must be positive, got {parallelism}")
    headers = request_headers(cfg, transport)
    encode = PayloadEncoder(cfg)
    results: list = [None] * len(chains)   # a result or error per chain
    fresh = iter(range(len(chains)))
    # (due, index, attempts so far, time of the first send) per retry
    retries: list[tuple[float, int, int, float]] = []
    lock = threading.Lock()
    failures: list[BaseException] = []
    rng: random.Random | None = None
    done = threading.Condition(lock)   # notified as each worker finishes
    finished = 0   # workers that have finished

    def take() -> tuple[float | None, int, int, float | None] | None:
        """A due retry, else the next fresh item, else the earliest
        retry; None once the batch is done or has failed."""
        with lock:
            if failures:
                return None
            if retries and retries[0][0] <= time.perf_counter():
                return heapq.heappop(retries)
            i = next(fresh, None)
            if i is not None:
                return None, i, 0, None
            return heapq.heappop(retries) if retries else None

    def send(due: float | None, i: int, attempts: int,
             first: float | None) -> None:
        nonlocal rng
        if due is None:
            first = time.perf_counter()
        elif (wait := due - time.perf_counter()) > 0:
            sleep(wait)
            if failures:
                return
        try:
            text, usage = complete(chains[i], cfg, transport, headers, encode)
        except ClientError as exc:
            attempts += 1
            if attempts > cfg.max_retries or not _retryable(exc):
                results[i] = exc
                return
            log.debug("retryable failure on attempt %d: %s", attempts, exc)
            with lock:
                if rng is None:
                    rng = random.Random()
                due = time.perf_counter() + _backoff(exc, attempts, rng)
                heapq.heappush(retries, (due, i, attempts, first))
            return
        latency = time.perf_counter() - first
        results[i] = CompletionResult(text, usage, latency, attempts + 1)

    def work() -> None:
        nonlocal finished
        try:
            while (item := take()) is not None:
                send(*item)
        except BaseException as exc:   # re-raised by the caller below
            with lock:
                failures.append(exc)
        finally:
            with done:
                finished += 1
                done.notify()

    n_workers = min(parallelism, len(chains))
    if n_workers == 1:
        work()
    else:
        # Not ``Thread.join``: on Python 3.11 a join that a signal
        # interrupts marks the thread stopped while it still runs.
        started = 0
        with done:
            try:
                for _ in range(n_workers):
                    threading.Thread(target=work).start()
                    started += 1
                done.wait_for(lambda: finished >= started)
            except BaseException as exc:   # stop the workers first
                failures.append(exc)
                done.wait_for(lambda: finished >= started)
                raise
    if failures:
        raise failures[0]
    return results
