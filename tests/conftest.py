"""Shared fixtures: a loopback chat-completions server."""

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

_PROXY_VARS = ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY",
               "no_proxy", "NO_PROXY")


def completion_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}],
                       "usage": {"prompt_tokens": 3}})


class ChatServer(ThreadingHTTPServer):
    """Serves on 127.0.0.1 and records every request that arrives.

    Each request takes the next reply from ``replies`` as (status, body,
    headers), where a callable body is called with the request's headers;
    once the script runs out it gets a 200 completion of "hi".
    While ``stalled`` is set, a request gets no reply until the fixture
    ends.
    """

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.received = []   # (path, headers, body) per request
        self.replies = []
        self.stalled = False
        self.release = threading.Event()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_port}/v1/chat/completions"

    def handle_error(self, request, client_address):
        pass   # a stalled client has hung up; nothing to report


class _ChatHandler(BaseHTTPRequestHandler):
    server: ChatServer

    def log_message(self, format, *args):   # keep stderr quiet
        pass

    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        server.received.append((self.path, self.headers,
                                body.decode("utf-8")))
        if server.stalled:
            server.release.wait(timeout=10)
        status, text, headers = (server.replies.pop(0) if server.replies
                                 else (200, completion_body("hi"), {}))
        if callable(text):
            text = text(self.headers)
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture
def no_proxy_env(monkeypatch):
    """Clear the proxy variables, so requests go straight to their host."""
    for name in _PROXY_VARS:
        monkeypatch.delenv(name, raising=False)


@contextlib.contextmanager
def running_chat_server():
    """A ``ChatServer`` serving on its own thread until the block ends."""
    server = ChatServer()
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()


@pytest.fixture
def chat_server(no_proxy_env):
    """A running ``ChatServer``, reached without a proxy."""
    with running_chat_server() as server:
        yield server
