"""Chat-completion clients: live HTTP, scripted, and record/replay.

The wire protocol is a JSON POST of {model, messages, temperature,
max_tokens}; the response must expose the generated text and token
counts. Both a flat {text, input_tokens, output_tokens} shape and the
common chat-completion shape (choices[0].message.content plus usage
counts) are accepted.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

logger = logging.getLogger(__name__)


class TransportError(RuntimeError):
    """Endpoint unreachable or returned a non-success status."""


class LLMConfigError(ValueError):
    """An endpoint config, price table or cassette file that cannot be used
    as written."""


def read_json_file(path: str | Path):
    """The JSON document in the UTF-8 file ``path``. A file that is missing,
    unreadable, not UTF-8 or not JSON is an ``LLMConfigError`` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise LLMConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    except json.JSONDecodeError as exc:
        raise LLMConfigError(f"{path}: not JSON: {exc}") from exc


# every request asks for up to MAX_TOKENS tokens at TEMPERATURE
MAX_TOKENS = 4096
TEMPERATURE = 0.0


@dataclass(frozen=True)
class ChatRequest:
    model: str
    system: str
    user: str

    def key(self) -> str:
        payload = json.dumps(
            {
                "model": self.model,
                "system": self.system,
                "user": self.user,
                "max_tokens": MAX_TOKENS,
                "temperature": TEMPERATURE,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ChatResponse:
    text: str
    input_tokens: int = 0
    output_tokens: int = 0


class ChatClient(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


CONFIG_KEYS = ("url", "api_key_env", "headers", "timeout_s", "max_attempts", "backoff_s")


@dataclass
class LLMEndpointConfig:
    url: str
    api_key: str | None = None
    headers: dict[str, str] = field(default_factory=dict)
    timeout_s: float = 120.0
    max_attempts: int = 3
    backoff_s: float = 1.0

    @staticmethod
    def from_file(path: str | Path) -> "LLMEndpointConfig":
        """Read a JSON object with the keys in ``CONFIG_KEYS``; only ``url``
        is required. ``api_key_env`` names the environment variable that
        holds the bearer key, and ``headers`` adds string-valued headers to
        every request. ``url`` must be a non-empty string, ``timeout_s`` a
        number > 0, ``max_attempts`` an integer >= 1 and ``backoff_s`` a
        number >= 0. Unknown keys and an unset key variable are errors."""
        doc = read_json_file(path)
        if not isinstance(doc, dict) or "url" not in doc:
            raise LLMConfigError(f"{path}: expected a JSON object with a 'url'")
        unknown = sorted(set(doc) - set(CONFIG_KEYS))
        if unknown:
            raise LLMConfigError(f"{path}: unknown keys {unknown}; accepted: {list(CONFIG_KEYS)}")
        api_key = None
        if "api_key_env" in doc:
            env = doc["api_key_env"]
            api_key = os.environ.get(env) if isinstance(env, str) else None
            if not api_key:
                raise LLMConfigError(f"{path}: api_key_env {env!r} names no set variable")
        headers = doc.get("headers", {})
        if not isinstance(headers, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in headers.items()
        ):
            raise LLMConfigError(f"{path}: headers must map strings to strings")

        def checked(key: str, default, ok, want: str):
            value = doc.get(key, default)
            if isinstance(value, bool) or not ok(value):
                raise LLMConfigError(f"{path}: {key!r} must be {want}, got {value!r}")
            return value

        def number(v) -> bool:
            return isinstance(v, (int, float)) and math.isfinite(v)

        return LLMEndpointConfig(
            url=checked("url", None, lambda v: isinstance(v, str) and v, "a non-empty string"),
            api_key=api_key,
            headers=dict(headers),
            timeout_s=float(checked("timeout_s", 120.0, lambda v: number(v) and v > 0,
                                    "a number > 0")),
            max_attempts=checked("max_attempts", 3, lambda v: isinstance(v, int) and v >= 1,
                                 "an integer >= 1"),
            backoff_s=float(checked("backoff_s", 1.0, lambda v: number(v) and v >= 0,
                                    "a number >= 0")),
        )


class HttpChatClient:
    """Live client with exponential backoff.

    Only transient failures are retried: connection errors, timeouts, 429
    and 5xx. A 429 or 503 that carries a delta-seconds ``Retry-After`` waits
    for the larger of it and the backoff. Any other 4xx, or a reply that is
    not a chat completion, raises ``TransportError`` at once. One client may
    serve several threads; they share its ``requests.Session``.
    """

    def __init__(self, config: LLMEndpointConfig, session=None):
        import requests

        self.config = config
        self._session = session or requests.Session()
        self._transient = (requests.ConnectionError, requests.Timeout)

    def complete(self, request: ChatRequest) -> ChatResponse:
        body = {
            "model": request.model,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        headers = {"Content-Type": "application/json", **self.config.headers}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        last_error: Exception | None = None
        retry_after = 0.0
        for attempt in range(self.config.max_attempts):
            if attempt:
                time.sleep(max(retry_after, self.config.backoff_s * 2 ** (attempt - 1)))
                retry_after = 0.0
            try:
                resp = self._session.post(
                    self.config.url, json=body, headers=headers,
                    timeout=self.config.timeout_s,
                )
            except self._transient as exc:
                last_error = exc
            else:
                if resp.status_code < 400:
                    try:
                        doc = resp.json()
                    except ValueError as exc:
                        raise TransportError(f"reply is not JSON: {resp.text[:200]}") from exc
                    return _parse_response(doc)
                last_error = TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
                if resp.status_code != 429 and resp.status_code < 500:
                    raise last_error
                if resp.status_code in (429, 503):
                    retry_after = _retry_after_s(resp.headers.get("Retry-After", ""))
            logger.warning("request attempt %d failed: %s", attempt + 1, last_error)
        raise TransportError(f"all {self.config.max_attempts} attempts failed") from last_error


def _retry_after_s(value: str) -> float:
    """Seconds named by a delta-seconds ``Retry-After``; 0 for anything else,
    an HTTP-date included, so the caller falls back to its backoff."""
    value = value.strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


def _parse_response(doc: dict) -> ChatResponse:
    try:
        if "text" in doc:
            return ChatResponse(
                text=str(doc["text"]),
                input_tokens=int(doc.get("input_tokens", 0)),
                output_tokens=int(doc.get("output_tokens", 0)),
            )
        text = doc["choices"][0]["message"]["content"]
        usage = doc.get("usage", {})
        return ChatResponse(
            text=str(text),
            input_tokens=int(usage.get("prompt_tokens", 0)),
            output_tokens=int(usage.get("completion_tokens", 0)),
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise TransportError(f"unrecognized response shape: {doc!r}") from exc


@dataclass
class ScriptedClient:
    """Answers from a fixed list or a callable; for tests and round-trips."""

    responder: object  # callable(ChatRequest) -> ChatResponse | str
    calls: list[ChatRequest] = field(default_factory=list)

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.calls.append(request)
        result = self.responder(request)  # type: ignore[operator]
        if isinstance(result, str):
            # rough token accounting for cost tests with scripted clients
            return ChatResponse(
                text=result,
                input_tokens=len(request.system.split()) + len(request.user.split()),
                output_tokens=len(result.split()),
            )
        return result


class CassetteClient:
    """Record/replay keyed by request hash so LLM runs are testable offline.

    With no inner client, a cache miss is a TransportError; with one, the
    miss is forwarded and the response recorded. Safe to share between
    threads: the cache and the file are guarded by one lock, which is not
    held while the inner client works. An existing cassette file that is
    not a JSON object is an ``LLMConfigError``.
    """

    def __init__(self, path: str | Path, inner: ChatClient | None = None):
        self.path = Path(path)
        self.inner = inner
        self._cache: dict[str, dict] = {}
        self._lock = threading.RLock()
        if self.path.exists():
            self._cache = read_json_file(self.path)
            if not isinstance(self._cache, dict):
                raise LLMConfigError(
                    f"{self.path}: a cassette is a JSON object mapping request keys to replies")

    def complete(self, request: ChatRequest) -> ChatResponse:
        key = request.key()
        with self._lock:
            rec = self._cache.get(key)
        if rec is None:
            if self.inner is None:
                raise TransportError(
                    f"no cassette entry for request {key[:12]} and no live client")
            response = self.inner.complete(request)
            with self._lock:
                # two threads that missed the same key both answer with the
                # first recording, as the replay will
                rec = self._cache.setdefault(key, {
                    "text": response.text,
                    "input_tokens": response.input_tokens,
                    "output_tokens": response.output_tokens,
                })
                self.save()
        return ChatResponse(
            text=rec["text"],
            input_tokens=int(rec.get("input_tokens", 0)),
            output_tokens=int(rec.get("output_tokens", 0)),
        )

    def save(self) -> None:
        """Write to a temporary file beside the cassette, then swap it in, so
        a write that fails part-way leaves the previous recording intact.
        Keys are sorted, so the file does not depend on the order in which
        concurrent misses were recorded."""
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
            try:
                tmp.write_text(json.dumps(self._cache, indent=2, sort_keys=True),
                               encoding="utf-8")
                os.replace(tmp, self.path)
            finally:
                tmp.unlink(missing_ok=True)
