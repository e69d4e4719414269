"""Mock chat-completions server for the end2end-remote workload.

Standard library only, run as its own process from the repository root:

    python3 -m perfbench.mock_server --dataset D --seed S --shots 0,5 --log LOG

It prints ``ready <port>`` once listening on 127.0.0.1, serves until its
standard input closes, then writes one JSON line per request to LOG:
arrival time, connection number, body digest, attempt and status.

Every reply comes after a fixed latency of 20 ms. A request's reply is
the reference report whose serialization the request's final user message
carries (the identity mapping), unless the fault schedule says
otherwise. The schedule is a pure function of the seed and the request
content (shot count and serialization, which fix the request body for a
given corpus), and the attempt number, so it repeats exactly whatever
the thread interleaving. Attempts are counted per body digest.

No more than ``PARALLELISM`` connections are served at once; further
accepted connections wait for a free worker.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socketserver
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler
from typing import Iterable, Sequence

from perfbench.workloads import PARALLELISM

LATENCY_S = 0.020
# Requests faulted per seed: REJECTED_COUNT get a non-retryable 400 on
# their first attempt; RATE_LIMITED_COUNT and SERVER_ERROR_COUNT get one
# 429 or 503 and then succeed on the client's retry.
REJECTED_COUNT = 4
RATE_LIMITED_COUNT = 2
SERVER_ERROR_COUNT = 1
OK = 200
# Status sequences by attempt, one per fault kind; later attempts get 200.
REJECTED = (400,)
RATE_LIMITED = (429,)
SERVER_ERROR = (503,)
RETRYABLE = {429, 500, 502, 503, 504}


def _rank(seed: int, k: int, serialization: str) -> str:
    return hashlib.sha256(f"{seed}:{k}:{serialization}".encode()).hexdigest()


def fault_schedule(seed: int, eval_serializations: Sequence[str],
                   shots: Iterable[int]) -> dict[tuple[int, str],
                                                 tuple[int, ...]]:
    """Status sequence by attempt for each faulted (shots, serialization).

    Faulted requests are the lowest-ranked by a seeded hash, so every
    seed faults the same number of requests. Retried faults are drawn
    from the first third of each batch: there the backoff sleep of one
    worker overlaps the other worker's queue, which keeps its cost the
    same wherever in that third it falls.
    """
    n = len(eval_serializations)
    keys = [(k, s) for k in shots for s in eval_serializations]
    ranked = sorted(keys, key=lambda key: _rank(seed, *key))
    early = set(eval_serializations[:n // 3])
    retried = [key for key in ranked if key[1] in early]
    n_retried = RATE_LIMITED_COUNT + SERVER_ERROR_COUNT
    if len(retried) < n_retried:
        raise ValueError("too few requests for the retried faults")
    plan: dict[tuple[int, str], tuple[int, ...]] = {}
    for i, key in enumerate(retried[:n_retried]):
        plan[key] = RATE_LIMITED if i < RATE_LIMITED_COUNT else SERVER_ERROR
    rest = [key for key in ranked if key not in plan]
    if len(rest) < REJECTED_COUNT:
        raise ValueError("too few requests for the rejected faults")
    for key in rest[:REJECTED_COUNT]:
        plan[key] = REJECTED
    return plan


def status_for(pattern: Sequence[int], attempt: int) -> int:
    return pattern[attempt - 1] if attempt <= len(pattern) else OK


def expected_outcome(pattern: Sequence[int],
                     max_retries: int) -> tuple[int, bool]:
    """(attempts the client makes, whether the item fails) for a status
    pattern, following the client's documented retry policy."""
    attempt = 0
    while attempt <= max_retries:
        attempt += 1
        status = status_for(pattern, attempt)
        if status == OK:
            return attempt, False
        if status not in RETRYABLE:
            return attempt, True
    return attempt, True


def request_id(k: int, serialization: str) -> str:
    """Short stable name for one (shots, serialization) request."""
    return hashlib.sha256(f"{k}\n{serialization}".encode()).hexdigest()[:16]


def request_key(body: dict) -> tuple[int, str]:
    """(shots, serialization) of a chat request: the example pairs sit
    between the system message and the final user message, and the final
    user message is the instruction line followed by the key words."""
    messages = body["messages"]
    content = messages[-1]["content"]
    serialization = content.split("\n", 1)[1] if "\n" in content else content
    return (len(messages) - 2) // 2, serialization


def load_identity(dataset_path: str) -> tuple[dict[str, str], list[str]]:
    """Serialization -> report for every study, and the eval studies'
    serializations in dataset order."""
    mapping: dict[str, str] = {}
    eval_serializations: list[str] = []
    with open(dataset_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                mapping[record["serialization"]] = record["report"]
                if record.get("split") == "test":
                    eval_serializations.append(record["serialization"])
    return mapping, eval_serializations


class MockServer(socketserver.TCPServer):
    allow_reuse_address = True

    def __init__(self, mapping, plan):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.mapping = mapping
        self.plan = plan
        self.started = time.perf_counter()
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}
        self.log: list[dict] = []
        self.connections = 0
        self.local = threading.local()
        self.pool = ThreadPoolExecutor(max_workers=PARALLELISM)

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
            conn = self.connections
        self.pool.submit(self._serve, request, client_address, conn)

    def _serve(self, request, client_address, conn):
        self.local.conn = conn
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def server_close(self):
        super().server_close()
        self.pool.shutdown(wait=True)


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive is allowed, so a client that reuses connections opens
    # fewer of them; the log records the connection of every request.
    protocol_version = "HTTP/1.1"
    server: MockServer

    def log_message(self, format, *args):   # keep stderr quiet
        pass

    def do_POST(self):
        server = self.server
        arrival = time.perf_counter() - server.started
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        digest = hashlib.sha256(body).hexdigest()
        authorized = bool(self.headers.get("Authorization"))
        with server.lock:
            attempt = server.attempts.get(digest, 0) + 1
            server.attempts[digest] = attempt
        try:
            k, serialization = request_key(json.loads(body))
        except (ValueError, KeyError, IndexError, TypeError):
            k, serialization, status = None, "", 400
        else:
            status = status_for(server.plan.get((k, serialization), ()),
                                attempt)
        if not authorized:
            status = 401
        time.sleep(LATENCY_S)
        if status == OK:
            text = server.mapping.get(serialization, serialization)
            payload = json.dumps({
                "choices": [{"message": {"role": "assistant",
                                         "content": text}}],
                "usage": {"prompt_tokens": 0, "completion_tokens": 0},
            }).encode()
        else:
            payload = json.dumps({"error": {"code": status}}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if status == 429:
            self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(payload)
        with server.lock:
            server.log.append({
                "arrival_s": round(arrival, 6), "conn": server.local.conn,
                "digest": digest[:16], "request": request_id(k, serialization),
                "attempt": attempt, "k": k,
                "status": status, "authorized": authorized})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shots", required=True,
                        help="comma-separated shot counts")
    parser.add_argument("--log", required=True)
    args = parser.parse_args(argv)

    mapping, eval_serializations = load_identity(args.dataset)
    shots = [int(k) for k in args.shots.split(",")]
    plan = fault_schedule(args.seed, eval_serializations, shots)
    server = MockServer(mapping, plan)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    print(f"ready {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        with open(args.log, "w", encoding="utf-8") as fh:
            for entry in server.log:
                fh.write(json.dumps(entry) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
