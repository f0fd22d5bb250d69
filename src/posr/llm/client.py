"""Chat-completion clients: live HTTP, scripted, and record/replay.

The wire protocol is a JSON POST of {model, messages, temperature,
max_tokens}; the response must expose the generated text and token
counts. Both a flat {text, input_tokens, output_tokens} shape and the
common chat-completion shape (choices[0].message.content plus usage
counts) are accepted.
"""

from __future__ import annotations

import functools
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
from urllib.parse import unquote, urlsplit, urlunsplit

from ..corpus import read_json
from ..errors import InputError

logger = logging.getLogger(__name__)


class TransportError(RuntimeError):
    """Endpoint unreachable or returned a non-success status."""


class LLMConfigError(InputError):
    """An endpoint config, price table or cassette file that cannot be used
    as written."""


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


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _http_url(value) -> bool:
    """An http:// or https:// URL with a host and a valid port, in printable
    ASCII without spaces, so that every request can carry it."""
    if not (isinstance(value, str) and value.isascii() and value.isprintable()
            and " " not in value):
        return False
    try:
        parts = urlsplit(value)
        parts.port  # noqa: B018 - raises on a port that is not a number in range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


@dataclass
class LLMEndpointConfig:
    url: str
    api_key: str | None = None
    headers: dict[str, str] = field(default_factory=dict)
    timeout_s: float = 120.0
    max_attempts: int = 3
    backoff_s: float = 1.0

    def __post_init__(self) -> None:
        """``url`` must be an http:// or https:// URL with a host, ``headers``
        map strings to strings, ``timeout_s`` be a number > 0,
        ``max_attempts`` an integer >= 1 and ``backoff_s`` a number >= 0
        (``True`` and ``False`` are not numbers here); anything else is an
        ``LLMConfigError`` naming the field."""
        def check(key: str, ok, want: str) -> None:
            value = getattr(self, key)
            if not ok(value):
                raise LLMConfigError(f"{key!r} must be {want}, got {value!r}")

        check("url", _http_url, "an http:// or https:// URL with a host")
        check("headers", lambda v: isinstance(v, dict) and all(
            isinstance(k, str) and isinstance(x, str) for k, x in v.items()),
            "a map from strings to strings")
        check("timeout_s", lambda v: _number(v) and v > 0, "a number > 0")
        check("max_attempts", lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
              "an integer >= 1")
        check("backoff_s", lambda v: _number(v) and v >= 0, "a number >= 0")
        self.headers = dict(self.headers)
        self.timeout_s = float(self.timeout_s)
        self.backoff_s = float(self.backoff_s)

    @staticmethod
    def from_file(path: str | Path) -> "LLMEndpointConfig":
        """Read a JSON object with the keys in ``CONFIG_KEYS``; only ``url``
        is required. ``api_key_env`` names the environment variable that
        holds the bearer key, and ``headers`` adds string-valued headers to
        every request. Unknown keys, an unset key variable and any value
        ``__post_init__`` rejects are errors whose message starts with
        ``path``."""
        doc = read_json(path, LLMConfigError)
        if not isinstance(doc, dict) or "url" not in doc:
            raise LLMConfigError(f"{path}: expected a JSON object with a 'url'")
        unknown = sorted(set(doc) - set(CONFIG_KEYS))
        if unknown:
            raise LLMConfigError(f"{path}: unknown keys {unknown}; accepted: {list(CONFIG_KEYS)}")
        api_key = None
        if "api_key_env" in doc:
            env = doc.pop("api_key_env")
            api_key = os.environ.get(env) if isinstance(env, str) else None
            if not api_key:
                raise LLMConfigError(f"{path}: api_key_env {env!r} names no set variable")
        try:
            return LLMEndpointConfig(api_key=api_key, **doc)
        except LLMConfigError as exc:
            raise LLMConfigError(f"{path}: {exc}") from None


PRICE_KEYS = ("input_usd_per_1k", "output_usd_per_1k")


def load_prices(path: str | Path) -> dict:
    """The price table at ``path``: {model: {input_usd_per_1k,
    output_usd_per_1k}}, each price a finite number >= 0, not a boolean;
    anything else is an ``LLMConfigError`` whose message starts with
    ``path``."""
    prices = read_json(path, LLMConfigError)
    if not isinstance(prices, dict):
        raise LLMConfigError(f"{path}: expected a JSON object mapping models to prices")
    for model, entry in prices.items():
        if not (isinstance(entry, dict)
                and all(_number(entry.get(key)) and entry[key] >= 0 for key in PRICE_KEYS)):
            raise LLMConfigError(f"{path}: {model!r} needs numeric {' and '.join(PRICE_KEYS)}"
                                 ", each finite and >= 0")
    return prices


class HttpChatClient:
    """Live client on the standard library's ``http.client``, with
    exponential backoff.

    Each thread that calls ``complete`` keeps one connection of its own open
    between requests, so a pool of workers holds at most one connection per
    worker. It is closed when its thread ends, and closed and dropped after
    any transport error. A reused connection that the server closed while
    idle fails before a status line arrives; it is reopened and the request
    resent once, within the same attempt.

    Proxies (``http_proxy``, ``https_proxy``, ``all_proxy``, ``no_proxy``)
    and the CA bundle (``REQUESTS_CA_BUNDLE`` or ``CURL_CA_BUNDLE``, else the
    system's certificates) are read from the environment once, here. An
    https target behind a proxy is reached through a CONNECT tunnel, an http
    target by sending the proxy the absolute URL. Credentials in a proxy URL
    go out as ``Proxy-Authorization: Basic``, those in ``config.url`` as
    ``Authorization: Basic``. A proxy that is not http://, or a CA bundle
    that cannot be read, is an ``LLMConfigError``.

    Only transient failures are retried: connection errors, timeouts, 429
    and 5xx. A 429 or 503 that carries a delta-seconds ``Retry-After`` waits
    for the larger of it and the backoff. Any other status of 300 or more,
    or a reply that is not a chat completion, raises ``TransportError`` at
    once; redirects are not followed.
    """

    def __init__(self, config: LLMEndpointConfig):
        import http.client
        import ssl
        import urllib.request

        self.config = config
        self._transient = (OSError, http.client.HTTPException)
        self._local = threading.local()
        url = urlsplit(config.url)
        self._headers = {"Content-Type": "application/json", **config.headers}
        if config.api_key:
            self._headers["Authorization"] = f"Bearer {config.api_key}"
        if url.username is not None:
            self._headers["Authorization"] = _basic_auth(url)
        self._target = urlunsplit(("", "", url.path or "/", url.query, ""))
        host, port = url.hostname, url.port
        proxy = None
        if not urllib.request.proxy_bypass(host):
            proxies = urllib.request.getproxies()
            proxy = proxies.get(url.scheme) or proxies.get("all")
        tunnel = None
        if proxy:
            via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if via.scheme != "http" or not via.hostname:
                raise LLMConfigError(
                    f"proxy {proxy!r} for {config.url}: only http:// proxies are supported")
            auth = {} if via.username is None else {"Proxy-Authorization": _basic_auth(via)}
            if url.scheme == "https":
                tunnel = (host, port, auth)
            else:
                self._target = urlunsplit(
                    ("http", url.netloc.rpartition("@")[2], url.path or "/", url.query, ""))
                self._headers.update(auth)
            host, port = via.hostname, via.port or 80
        connection = http.client.HTTPConnection
        if url.scheme == "https":
            bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            try:
                context = ssl.create_default_context(cafile=bundle)
            except OSError as exc:
                raise LLMConfigError(f"CA bundle {bundle}: {exc}") from exc
            connection = functools.partial(http.client.HTTPSConnection, context=context)

        def connect():
            conn = connection(host, port, timeout=config.timeout_s)
            if tunnel:
                conn.set_tunnel(*tunnel)
            return conn
        self._connect = connect

    def complete(self, request: ChatRequest) -> ChatResponse:
        payload = json.dumps({
            "model": request.model,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }).encode("utf-8")
        last_error: Exception | None = None
        retry_after = 0.0
        for attempt in range(self.config.max_attempts):
            if attempt:
                time.sleep(max(retry_after, self.config.backoff_s * 2 ** (attempt - 1)))
                retry_after = 0.0
            try:
                status, retry_header, body = self._post(payload)
            except self._transient as exc:
                last_error = exc
            else:
                if status < 300:
                    try:
                        doc = json.loads(body)
                    except ValueError as exc:
                        raise TransportError(f"reply is not JSON: {_text(body)}") from exc
                    return _parse_response(doc)
                last_error = TransportError(f"HTTP {status}: {_text(body)}")
                if status != 429 and status < 500:
                    raise last_error
                if status in (429, 503):
                    retry_after = _retry_after_s(retry_header)
            logger.warning("request attempt %d failed: %s", attempt + 1, last_error)
        raise TransportError(f"all {self.config.max_attempts} attempts failed") from last_error

    def _post(self, payload: bytes) -> tuple[int, str, bytes]:
        """One attempt on this thread's connection: the status, the
        ``Retry-After`` header and the whole body, read in full so that the
        connection can carry the next request."""
        link = getattr(self._local, "link", None)
        if link is None:
            link = self._local.link = _Connection(self._connect())
        conn = link.conn
        try:
            reused = conn.sock is not None
            try:
                conn.request("POST", self._target, payload, self._headers)
                reply = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected is a ConnectionResetError
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._target, payload, self._headers)
                reply = conn.getresponse()
            return reply.status, reply.getheader("Retry-After", ""), reply.read()
        except BaseException:
            conn.close()
            del self._local.link
            raise


class _Connection:
    """Holds one thread's connection and closes it when dropped: when the
    thread ends, when the client is collected, or after a failure."""

    def __init__(self, conn):
        self.conn = conn

    def __del__(self):
        self.conn.close()


def _basic_auth(url) -> str:
    """The Basic credentials in the user info of the split URL ``url``."""
    import base64

    user = f"{unquote(url.username)}:{unquote(url.password or '')}"
    return "Basic " + base64.b64encode(user.encode("latin-1")).decode("ascii")


def _text(body: bytes) -> str:
    """The start of a reply body, for an error message."""
    return body.decode("utf-8", "replace")[:200]


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
    miss is forwarded and the response recorded. Each recording is appended
    as one JSON line ``[key, reply]`` to a journal beside the cassette
    (``<cassette>.journal``), so recording N misses writes O(N) bytes.
    ``close`` writes the sorted cassette once and removes the journal.
    Loading replays a journal left behind by a run that did not close, so a
    crash mid-recording keeps the earlier recordings; a torn last line, cut
    off by the crash, is dropped.

    Safe to share between threads: the cache and the files are guarded by
    one lock, which is not held while the inner client works. An existing
    cassette that is not a JSON object, or a journal line before the last
    that is not a recording, is an ``LLMConfigError``.
    """

    def __init__(self, path: str | Path, inner: ChatClient | None = None):
        self.path = Path(path)
        self.journal = self.path.with_name(f"{self.path.name}.journal")
        self.inner = inner
        self._cache: dict[str, dict] = {}
        self._lock = threading.RLock()
        self._journaled = False  # the journal holds recordings the cassette lacks
        if self.path.exists():
            self._cache = read_json(self.path, LLMConfigError)
            if not isinstance(self._cache, dict):
                raise LLMConfigError(
                    f"{self.path}: a cassette is a JSON object mapping request keys to replies")
        if self.journal.exists():
            self._replay_journal()

    def _replay_journal(self) -> None:
        try:
            data = self.journal.read_bytes()
            whole = data[:data.rfind(b"\n") + 1]
            if len(whole) < len(data):
                # the last append was cut short: drop it, so the next one starts a line
                os.truncate(self.journal, len(whole))
        except OSError as exc:
            raise LLMConfigError(f"{self.journal}: {exc.strerror or exc}") from exc
        for lineno, raw in enumerate(whole.splitlines(), 1):
            try:
                key, rec = json.loads(raw)
            except (ValueError, TypeError) as exc:
                raise LLMConfigError(
                    f"{self.journal}:{lineno}: not a [key, reply] recording: {exc}") from exc
            if not (isinstance(key, str) and isinstance(rec, dict)):
                raise LLMConfigError(f"{self.journal}:{lineno}: not a [key, reply] recording")
            self._cache.setdefault(key, rec)
        self._journaled = True  # close compacts it, even when it held nothing whole

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
                rec = self._cache.get(key)
                if rec is None:
                    rec = self._cache[key] = {
                        "text": response.text,
                        "input_tokens": response.input_tokens,
                        "output_tokens": response.output_tokens,
                    }
                    self._append(key, rec)
        return ChatResponse(
            text=rec["text"],
            input_tokens=int(rec.get("input_tokens", 0)),
            output_tokens=int(rec.get("output_tokens", 0)),
        )

    def _append(self, key: str, rec: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.journal, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([key, rec]) + "\n")
        self._journaled = True

    def save(self) -> None:
        """Write to a temporary file beside the cassette, then swap it in, so
        a write that fails part-way leaves the previous recording intact.
        Keys are sorted, so the file does not depend on the order in which
        concurrent misses were recorded. The journal, whose recordings the
        cassette now holds, is removed."""
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
            try:
                tmp.write_text(json.dumps(self._cache, indent=2, sort_keys=True),
                               encoding="utf-8")
                os.replace(tmp, self.path)
            finally:
                tmp.unlink(missing_ok=True)
            self.journal.unlink(missing_ok=True)
            self._journaled = False

    def close(self) -> None:
        """Compact: ``save`` when this client recorded a miss or found a
        journal, else nothing, so replaying a compacted cassette never
        writes."""
        with self._lock:
            if self._journaled:
                self.save()
