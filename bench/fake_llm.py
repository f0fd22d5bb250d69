"""Fake chat-completion endpoint for the LLM workload, run as its own process.

    python3 bench/fake_llm.py --plan plan.json

It binds 127.0.0.1 on a free port, prints the port on the first line of
standard output, and serves until terminated. The plan file holds:

* ``latency_s``: sleep before every successful reply (simulated model time);
* ``span_lines``: length of the fixed spans every segmentation reply lists;
* ``prose_keys``: sha256 of the utterances (one per line, joined by "\\n")
  of the transcripts whose segmentation reply is prose, not a JSON list;
* ``fail_period``/``fail_offset``: the k-th request body first seen since
  the last reset gets an immediate 503 when ``(k + offset) % period == 0``;
  a retry of the same body then succeeds.

Replies depend only on the prompt, so reports are byte-identical across
runs. Retrieval replies name the problem whose vocabulary covers the most
segment tokens (earliest problem on ties, "null" when none match). Each
connection is served on its own thread, so a client that overlaps requests
gains as it would against a real endpoint.

``GET /stats`` returns the counters; ``POST /reset`` zeroes them and forgets
which bodies were seen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_LINE = re.compile(r"^\d+ \S+: (.*)$", re.M)
_PROBLEM = re.compile(r"^Problem ID (\S+): (.*)$", re.M)
PROSE = ("The tutor and the students move between several problems here, "
         "so the segments are hard to tell apart.")


def transcript_key(utterances: list[str]) -> str:
    """Identity of a transcript as the endpoint sees it in a prompt."""
    return hashlib.sha256("\n".join(utterances).encode("utf-8")).hexdigest()


def _retrieval_answer(user: str) -> str:
    segment = user.split("Segment:\n", 1)[1].split("\n\nMath problems:\n", 1)[0]
    tokens = re.findall(r"[0-9a-z]+", segment.lower())
    best, best_pid = 0, "null"
    for pid, text in _PROBLEM.findall(user):
        vocab = set(re.findall(r"[0-9a-z]+", text.lower()))
        hits = sum(1 for t in tokens if t in vocab)
        if hits > best:
            best, best_pid = hits, pid
    return best_pid


class Endpoint:
    def __init__(self, plan: dict):
        self.latency_s = float(plan["latency_s"])
        self.span_lines = int(plan["span_lines"])
        self.prose_keys = set(plan["prose_keys"])
        self.fail_period = int(plan["fail_period"])
        self.fail_offset = int(plan["fail_offset"])
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._seen: set[str] = set()
            self.stats = {"requests": 0, "malformed_served": 0, "slept_s": 0.0}

    def first_attempt_fails(self, body: bytes) -> bool:
        key = hashlib.sha256(body).hexdigest()
        with self._lock:
            self.stats["requests"] += 1
            if key in self._seen:
                return False
            self._seen.add(key)
            return (len(self._seen) + self.fail_offset) % self.fail_period == 0

    def answer(self, user: str) -> str:
        if "Segment:\n" in user:
            text = _retrieval_answer(user)
        else:
            utterances = _LINE.findall(user)
            if transcript_key(utterances) in self.prose_keys:
                text = PROSE
                with self._lock:
                    self.stats["malformed_served"] += 1
            else:
                n, w = len(utterances), self.span_lines
                text = json.dumps([[s, min(s + w, n) - 1] for s in range(0, n, w)])
        time.sleep(self.latency_s)
        with self._lock:
            self.stats["slept_s"] += self.latency_s
        return text


def make_handler(endpoint: Endpoint):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # headers and body go out in separate writes; with Nagle on, each
        # reply would wait for the client's delayed ACK (~40 ms)
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _send(self, status: int, doc: dict) -> None:
            payload = json.dumps(doc).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self):  # noqa: N802 - stdlib name
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            with endpoint._lock:
                self._send(200, dict(endpoint.stats))

        def do_POST(self):  # noqa: N802 - stdlib name
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                endpoint.reset()
                self._send(200, {"ok": True})
                return
            if endpoint.first_attempt_fails(body):
                self._send(503, {"error": "overloaded, retry"})
                return
            try:
                doc = json.loads(body)
                system = doc["messages"][0]["content"]
                user = doc["messages"][1]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                self._send(400, {"error": "malformed request"})
                return
            text = endpoint.answer(user)
            self._send(200, {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": len(system.split()) + len(user.split()),
                          "completion_tokens": len(text.split())},
            })

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        endpoint = Endpoint(json.load(fh))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(endpoint))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
