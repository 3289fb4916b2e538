"""Registry and mailbox as standalone HTTP services, plus clients with the
in-process call signatures.

The servers wrap the same objects the in-process path uses, so a client and
a direct reference see identical behavior: same validation order, same
errors, same state. One table of remote calls drives both sides: each entry
names an in-process method, and the server route and the client method are
both built from it. JSON carries the requests; bytes travel as hex.

`POST /batch` makes several calls in one round trip. The body is
`{"calls": [[path, request], ...]}`, each request being the body that
path takes alone. Every path is resolved before anything runs: an unknown
one, a nested `/batch`, or more than 4096 calls, is a 400
`BadRequest` and nothing runs. The calls run in order, each taking the
server lock for itself, so other clients' calls can run between them; the
reply is `{"result": [result, ...]}`. The first call that raises ends the
batch with the 400 body it would get alone (error type, detail, attrs);
the calls before it stay applied and the ones after it never run, as in
an in-process loop. Clients send a batch with `call_many`. With batched
set-up a `services` bench order makes 13 RPCs, where it made 33.

The transport is a keep-alive HTTP/1.1 subset: each message goes out in one
write with a `Content-Length` body; head lines stop at 64 KiB and fields at
100; `Expect: 100-continue` is answered before the body is read. A reply
closes the connection when the request asks (`Connection: close`, HTTP/1.0)
or its end is unknown (any `Transfer-Encoding`, a `Content-Length` that is
not plain digits, a head that cannot be parsed). A request that declares a
body over 16 MiB gets a 400 `BadRequest` and the connection closes before
any of the body is read; a reply that does is a `ServiceError` in the
client, which drops the connection unread. The server sends a 400
`BadRequest` in place of a reply over 16 MiB, whose calls have run; a
mailbox queue holds at most 4 MiB, so a retrieve always fits.

A request body nested deeper than the JSON decoder can read is a 400
`BadRequest`, like any body that is not JSON. A reply the client cannot use
is a `ServiceError` naming the path: a body that is not a JSON object or is
nested too deep to decode, a 200 without a `result`, a `/batch` result that
is not a list of one result per call, or a result its entry's codec cannot
decode, such as a plain result of another JSON type than the in-process
method returns. So a service that answers badly fails an order the way one
that has gone away does.

A service is one `ServiceHandle` on plain sockets: a listening socket, an
accept loop on its `thread`, and one thread per connection. The loop waits,
with no timeout, on the listening socket and a wake-up socket, never on a
timer, so an idle daemon does no work at all. An error no reply maps ends
its own connection unanswered and reaches `threading.excepthook`.
`ServiceHandle.close()` sends the wake-up and returns at once, having ended
every connection and joined every thread the service had.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import selectors
import socket
import threading
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable
from urllib.parse import urlsplit

from . import ledger as ledger_mod
from . import mailbox as mailbox_mod
from . import registry as registry_mod
from .identity import IdentityError, Signature
from .ledger import Ledger, LedgerError
from .mailbox import DepositResult, MailboxError, MailboxStore
from .registry import (
    AnameRecord,
    AnameState,
    FixtureDnsResolver,
    Registry,
    RegistryError,
    RegistryRecord,
)
from .wire import Envelope, WireError


class ServiceError(Exception):
    """Transport-level failure or an error the client cannot map back."""


# every exception class a server response may name, so the client can
# re-raise the same type the in-process call would have raised
def _error_classes() -> dict[str, type[Exception]]:
    table: dict[str, type[Exception]] = {}
    for module in (registry_mod, mailbox_mod, ledger_mod):
        for name in dir(module):
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                table[name] = obj
    return table


_ERROR_CLASSES = _error_classes()


# ---------------------------------------------------------------------------
# JSON codecs: (to JSON, from JSON) for each value that is not JSON as it is

_Codec = tuple[Callable[[Any], Any], Callable[[Any], Any]]

_AS_IS: _Codec = (lambda value: value, lambda data: data)
_HEX: _Codec = (bytes.hex, bytes.fromhex)
_SIGNATURE: _Codec = (Signature.hex, Signature.from_hex)
_ENVELOPE: _Codec = (
    lambda env: env.to_bytes().hex(),
    lambda data: Envelope.from_bytes(bytes.fromhex(data)),
)
_RECORD: _Codec = (
    lambda record: {
        **vars(record),
        "protocol_digests": sorted(d.hex() for d in record.protocol_digests),
        "metadata": dict(record.metadata),
    },
    lambda data: RegistryRecord(
        **{**data, "protocol_digests": frozenset(map(bytes.fromhex, data["protocol_digests"]))}
    ),
)
_ANAME: _Codec = (
    lambda record: {
        **vars(record), "challenge": record.challenge.hex(), "state": record.state.value
    },
    lambda data: AnameRecord(
        data["domain"],
        data["agent_address"],
        bytes.fromhex(data["challenge"]),
        AnameState(data["state"]),
        data["verified_at"],
    ),
)
_DEPOSIT: _Codec = (asdict, lambda data: DepositResult(**data))


def _checked(data: Any, *types: type) -> Any:
    """data, when its type is one of `types`; a bool is no int here."""
    if type(data) not in types:
        raise TypeError(f"{type(data).__name__} is not {' or '.join(t.__name__ for t in types)}")
    return data


def _plain(*types: type) -> _Codec:
    """A result that is JSON as it is, of a type the in-process method returns."""
    return (lambda value: value, lambda data: _checked(data, *types))


_INT, _NONE = _plain(int), _plain(type(None))
_COUNTS: _Codec = (  # queue sizes by address
    dict, lambda data: {key: _checked(size, int) for key, size in _checked(data, dict).items()}
)


def _optional(codec: _Codec) -> _Codec:
    to_json, from_json = codec
    return (
        lambda value: None if value is None else to_json(value),
        lambda data: None if data is None else from_json(data),
    )


def _list_of(codec: _Codec) -> _Codec:
    to_json, from_json = codec
    return (
        lambda values: [to_json(value) for value in values],
        lambda data: [from_json(item) for item in data],
    )


# argument name -> codec; every other argument travels as it is
_ARGUMENT_CODECS: dict[str, _Codec] = {
    "protocol_digests": _list_of(_HEX),
    "protocol_digest": _optional(_HEX),
    "metadata": _optional((dict, dict)),
    "signature": _SIGNATURE,
    "auth": _SIGNATURE,
    "env": _ENVELOPE,
}


@dataclass(frozen=True)
class _Rpc:
    """One remote call. `function` is the in-process method: the server runs
    the method of that name on `served[target]`, and the client method takes
    its signature. `held` names the arguments the server supplies itself
    from `served`; the client accepts and ignores them."""

    path: str
    target: str
    function: Callable
    result_codec: _Codec
    held: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        """The client method's name: the path with `/` as `_`."""
        return self.path.strip("/").replace("/", "_")

    def sent(self) -> list[str]:
        """The arguments that travel in the request, in signature order."""
        names = list(inspect.signature(self.function).parameters)[1:]  # less self
        return [name for name in names if name not in self.held]


_REGISTRY_RPCS = (
    _Rpc("/register", "registry", Registry.register, _INT, held=("ledger",)),
    _Rpc("/search", "registry", Registry.search, _list_of(_RECORD)),
    _Rpc("/resolve", "registry", Registry.resolve, _RECORD),
    _Rpc("/aname/claim", "registry", Registry.aname_claim, _HEX),
    _Rpc("/aname/verify", "registry", Registry.aname_verify, _ANAME, held=("resolver",)),
    _Rpc("/dns/publish", "resolver", FixtureDnsResolver.publish, _NONE),
    _Rpc("/resolve_domain", "registry", Registry.resolve_domain, _plain(str)),
    _Rpc("/domain_of", "registry", Registry.domain_of, _plain(str, type(None))),
)

_MAILBOX_RPCS = (
    _Rpc("/create_account", "store", MailboxStore.create_account, _NONE),
    _Rpc("/has_account", "store", MailboxStore.has_account, _plain(bool)),
    _Rpc("/next_nonce", "store", MailboxStore.next_nonce, _INT),
    _Rpc("/deposit", "store", MailboxStore.deposit, _DEPOSIT),
    _Rpc("/retrieve", "store", MailboxStore.retrieve, _list_of(_ENVELOPE)),
    _Rpc("/acknowledge", "store", MailboxStore.acknowledge, _INT),
    _Rpc("/stats", "store", MailboxStore.stats, _COUNTS),
)


def _route(rpc: _Rpc, served: dict[str, object], lock: threading.Lock) -> Callable[[dict], dict]:
    decoders = [(name, _ARGUMENT_CODECS.get(name, _AS_IS)[1]) for name in rpc.sent()]
    held = {name: served[name] for name in rpc.held}
    target, method_name = served[rpc.target], rpc.function.__name__
    to_json = rpc.result_codec[0]

    def route(request: dict) -> dict:
        arguments = {name: from_json(request[name]) for name, from_json in decoders}
        # looked up per call, so a method replaced on the class is the one run
        method = getattr(target, method_name)
        # the served objects are single-writer: one call at a time
        with lock:
            return {"result": to_json(method(**arguments, **held))}

    return route


# calls per `/batch`; a 100-courier set-up sends a few hundred in one
_MAX_BATCH_CALLS = 4096


def _with_batch(routes: dict[str, Callable[[dict], dict]]) -> dict[str, Callable[[dict], dict]]:
    """The routes plus `/batch`, which runs a list of calls to them."""

    def batch(request: dict) -> dict:
        # resolve every path first, so a bad one or one too many runs nothing
        calls = []
        for path, call in request["calls"]:
            if path not in routes:
                raise ValueError(f"no route {path!r} to batch")
            if len(calls) == _MAX_BATCH_CALLS:
                raise ValueError(f"a batch holds at most {_MAX_BATCH_CALLS} calls")
            calls.append((routes[path], call))
        # each call takes the lock for itself, so other clients can run
        # between them; the first call that raises ends the batch, and its
        # error is the batch's reply
        return {"result": [route(call)["result"] for route, call in calls]}

    return {**routes, "/batch": batch}


# ---------------------------------------------------------------------------
# HTTP/1.1 framing: Content-Length bodies only (RFC 9112 section 6)

_MAX_LINE = 65536  # bytes per start or header line
_MAX_HEADERS = 100
# bytes per request or reply body; a 100-courier set-up `/batch` is about 72 KB
_MAX_BODY = 16 * 1024 * 1024
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found"}


def _read_head(rfile) -> tuple[str, dict[str, str]] | None:
    """Read one message head: its start line and its header fields, names
    lower-cased and repeated fields joined with ", ". None at a clean end
    of stream; ValueError on anything malformed or over the limits."""
    start, headers = None, {}
    for _ in range(_MAX_HEADERS + 2):  # start line, fields, blank line
        line = rfile.readline(_MAX_LINE + 1)
        if not line and start is None:
            return None
        if len(line) > _MAX_LINE or not line.endswith(b"\n"):
            raise ValueError("line over 64 KiB or cut short")
        line = line.decode("latin-1").rstrip("\r\n")
        if start is None:
            start = line
        elif not line:
            return start, headers
        else:
            name, colon, value = line.partition(":")
            if not colon or not name or name != name.strip():
                raise ValueError(f"bad header line {line[:40]!r}")
            name, value = name.lower(), value.strip()
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
    raise ValueError(f"more than {_MAX_HEADERS} header fields")


def _body_length(headers: dict[str, str], default: str | None = None) -> int:
    """The declared body length. ValueError when the body's end is unknown
    (any Transfer-Encoding, or a Content-Length missing with no default or
    not plain digits, as two fields joined into one are not) or when it is
    over _MAX_BODY, so no caller reads a body it cannot hold."""
    value = headers.get("content-length", default)
    if "transfer-encoding" in headers or not (value and value.isascii() and value.isdigit()):
        raise ValueError(f"body not framed by one Content-Length: {value!r}")
    length = int(value)
    if length > _MAX_BODY:
        raise ValueError(f"body of {length} bytes is over {_MAX_BODY}")
    return length


# ---------------------------------------------------------------------------
# server: a listening socket, an accept loop, a thread per connection

def _serve_one(service: ServiceHandle, rfile, connection: socket.socket) -> bool:
    """Answer one request; False once the connection is to close."""
    try:
        head = _read_head(rfile)
        if head is None:
            return False
        start, headers = head
        method, path, version = start.split(" ")
        if not version.startswith("HTTP/1."):
            raise ValueError(f"unsupported version {version!r}")
        length = _body_length(headers, default="0")
    except ValueError as exc:
        # the request's end is unknown, so the connection cannot be reused
        return _reply(connection, 400, {"error": "BadRequest", "detail": str(exc)}, close=True)
    if headers.get("expect", "").lower() == "100-continue":
        connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
    # consume the body before any reply: on a keep-alive connection a
    # body left unread would be parsed as the next request
    body = rfile.read(length)
    if len(body) < length:
        return False
    close = version == "HTTP/1.0" or headers.get("connection", "").lower() == "close"
    return _reply(connection, *_answer(service, method, path, body), close=close)


def _answer(service: ServiceHandle, method: str, path: str, body: bytes) -> tuple[int, dict]:
    if method == "GET" and path == "/health":
        return 200, {"ok": True, "service": service.service_name}
    route = service.routes.get(path) if method == "POST" else None
    if route is None:
        # NoRoute, not NotFound: must not collide with the registry error
        return 404, {"error": "NoRoute", "detail": f"no route {method} {path}"}
    try:
        request = json.loads(body or b"{}")
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        return 400, {"error": "BadRequest", "detail": str(exc)}
    try:
        return 200, route(request)
    except (RegistryError, MailboxError, LedgerError, IdentityError, WireError) as exc:
        # structured fields (BadSequence.expected, InsufficientFunds.
        # shortfall, ...) travel as attributes for the client to restore
        return 400, {"error": type(exc).__name__, "detail": str(exc), "attrs": vars(exc)}
    except (KeyError, TypeError, ValueError) as exc:
        return 400, {"error": "BadRequest", "detail": f"{type(exc).__name__}: {exc}"}


def _reply(connection: socket.socket, status: int, payload: dict, close: bool = False) -> bool:
    """Send status line, headers and body in one write; returns whether
    the connection stays open."""
    body = json.dumps(payload).encode("utf-8")
    if len(body) > _MAX_BODY:
        # a client would drop such a reply unread; tell it why instead
        detail = f"reply of {len(body)} bytes is over {_MAX_BODY}"
        status, body = 400, json.dumps({"error": "BadRequest", "detail": detail}).encode()
    close_field = "Connection: close\r\n" if close else ""
    connection.sendall(
        f"HTTP/1.1 {status} {_REASONS[status]}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{close_field}\r\n".encode("latin-1") + body
    )
    return not close


class ServiceHandle:
    """A running service: its listening socket, the accept loop on `thread`,
    one thread per connection, and the URL clients should use."""

    def __init__(self, host: str, port: int, service_name: str, routes: dict) -> None:
        self.service_name, self.routes = service_name, routes
        self.listener = socket.socket()
        try:
            # a restarted daemon rebinds its port while old connections linger
            self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.listener.bind((host, port))
            self.listener.listen()
        except BaseException:
            self.listener.close()
            raise
        host, port = self.listener.getsockname()
        self.base_url = f"http://{host}:{port}"
        # each open connection and the thread serving it, for close()
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        # close() closes the writing end, which makes the reading end
        # readable (at end of stream) and so wakes the accept loop
        self._wake, self._waker = socket.socketpair()
        self.thread = threading.Thread(target=self._accept_loop, daemon=True)
        self.thread.start()

    def _accept_loop(self) -> None:
        """Accept connections until the wake-up. Each pass waits, with no
        timeout, for a connection or the wake-up, so an idle service makes
        no pass at all."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.listener, selectors.EVENT_READ)
            selector.register(self._wake, selectors.EVENT_READ)
            while not any(key.fileobj is self._wake for key, _ in selector.select()):
                try:
                    connection, _ = self.listener.accept()
                except OSError:  # the peer gave up before the accept
                    continue
                thread = threading.Thread(target=self._serve, args=(connection,), daemon=True)
                with self._lock:
                    self._connections[connection] = thread
                thread.start()

    def _serve(self, connection: socket.socket) -> None:
        """Serve one connection's requests in turn. An error no reply maps
        ends this connection alone, unanswered, and reaches
        threading.excepthook."""
        try:
            # the peer or close() may end the connection any time
            with contextlib.suppress(OSError), connection.makefile("rb") as rfile:
                while _serve_one(self, rfile, connection):
                    pass
        finally:
            with self._lock:
                del self._connections[connection]
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_WR)
            connection.close()

    def close(self) -> None:
        """Stop accepting, end every open connection and join every thread
        the service had. It returns at once: the accept loop waits on its
        listening socket and a wake-up, never on a timer, and close() sends
        the wake-up. A second call does nothing."""
        self._waker.close()
        self.thread.join(timeout=5)
        self.listener.close()
        self._wake.close()
        # a connection's thread blocks reading its client's next request;
        # shutting its socket down ends that read and with it the thread
        with self._lock:
            threads = list(self._connections.values())
            for connection in self._connections:
                with contextlib.suppress(OSError):
                    connection.shutdown(socket.SHUT_RDWR)
        for thread in threads:
            thread.join(timeout=5)


# ---------------------------------------------------------------------------
# registry service

def registry_routes(registry: Registry, ledger: Ledger, dns) -> dict:
    served, lock = {"registry": registry, "ledger": ledger, "resolver": dns}, threading.Lock()
    return _with_batch({rpc.path: _route(rpc, served, lock) for rpc in _REGISTRY_RPCS})


def serve_registry(
    registry: Registry,
    ledger: Ledger,
    dns=None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServiceHandle:
    """Expose a registry over HTTP; port 0 picks a free one."""
    if dns is None:
        dns = FixtureDnsResolver()
    return ServiceHandle(host, port, "registry", registry_routes(registry, ledger, dns))


# ---------------------------------------------------------------------------
# mailbox service

def mailbox_routes(store: MailboxStore) -> dict:
    lock = threading.Lock()
    return _with_batch({rpc.path: _route(rpc, {"store": store}, lock) for rpc in _MAILBOX_RPCS})


def serve_mailbox(store: MailboxStore, host: str = "127.0.0.1", port: int = 0) -> ServiceHandle:
    return ServiceHandle(host, port, "mailbox", mailbox_routes(store))


# ---------------------------------------------------------------------------
# clients

class _Connection:
    """One keep-alive socket to a service, opened on first use."""

    def __init__(self, base_url: str, timeout: float) -> None:
        url = urlsplit(base_url)
        self.host, self.address = url.netloc, (url.hostname, url.port or 80)
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self.rfile = None

    def open(self) -> socket.socket:
        if self.sock is None:
            sock = socket.create_connection(self.address, self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock, self.rfile = sock, sock.makefile("rb")
        return self.sock

    def close(self) -> None:
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = self.rfile = None


def _exchange(
    connection: _Connection, method: str, path: str, body: bytes = b""
) -> tuple[int, bytes]:
    """One request/response on a keep-alive connection, the request sent in
    one write. A transport or framing fault drops the connection (the next
    call reconnects) and is never retried: most routes are not idempotent."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {connection.host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    try:
        connection.open().sendall(head.encode("latin-1") + body)
        reply = _read_head(connection.rfile)
        if reply is None:
            raise ValueError("connection closed before the reply")
        start, headers = reply
        _, status, _ = start.split(" ", 2)  # version, code, reason
        code = int(status)
        length = _body_length(headers)
        data = connection.rfile.read(length)
        if len(data) < length:
            raise ValueError("reply body cut short")
    except (OSError, ValueError) as exc:
        connection.close()
        raise ServiceError(f"{path}: {type(exc).__name__}: {exc}") from exc
    if headers.get("connection", "").lower() == "close":
        connection.close()
    return code, data


def _reply_object(path: str, status: int, data: bytes) -> dict:
    """A reply body as the JSON object every route answers with."""
    try:
        reply = json.loads(data)
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        reply = None
    if not isinstance(reply, dict):
        raise ServiceError(f"{path}: HTTP {status}: reply is not a JSON object")
    return reply


def _post(connection: _Connection, path: str, payload: dict) -> dict:
    """The reply to one POST: an object with a `result` on a 200, and on
    any other status the error it names, raised."""
    status, data = _exchange(connection, "POST", path, json.dumps(payload).encode("utf-8"))
    reply = _reply_object(path, status, data)
    if status == 200:
        if "result" not in reply:
            raise ServiceError(f"{path}: HTTP 200: reply has no result")
        return reply
    error, attrs = reply.get("error"), reply.get("attrs", {})
    cls = _ERROR_CLASSES.get(error) if isinstance(error, str) else None
    if cls is not None and isinstance(attrs, dict):
        raise _rebuild_error(cls, reply.get("detail", ""), attrs)
    raise ServiceError(f"{path}: {error}: {reply.get('detail')}")


def _decoded(path: str, from_json: Callable[[Any], Any], result: Any) -> Any:
    """A call's result through its codec; one the codec cannot read is a
    ServiceError naming the path."""
    try:
        return from_json(result)
    except (KeyError, TypeError, ValueError, WireError) as exc:
        raise ServiceError(f"{path}: result not decodable: {type(exc).__name__}: {exc}") from exc


def _rebuild_error(cls: type[Exception], detail: str, attrs: dict) -> Exception:
    # built without __init__, since some classes take structured arguments;
    # message and attributes come back as the server's instance had them
    exc = cls.__new__(cls)
    Exception.__init__(exc, detail)
    vars(exc).update(attrs)
    return exc


class _ServiceClient:
    """One keep-alive HTTP connection to a service, shared under a lock."""

    # method name -> (path, argument encoder, result decoder), set by _attach
    _stubs: dict[str, tuple[str, Callable[..., dict], Callable[[Any], Any]]] = {}

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self._connection = _Connection(self.base_url, timeout)
        self._lock = threading.Lock()

    def _post(self, path: str, payload: dict) -> dict:
        with self._lock:
            return _post(self._connection, path, payload)

    def call_many(self, calls: Iterable[tuple]) -> list:
        """Make (method name, *positional arguments) calls in order, in one
        `/batch` round trip, and return their results. Every call's
        arguments are bound and encoded before anything is sent. The first
        call that raises ends the batch with its own error: the calls
        before it stay applied and the ones after it never run."""
        requests, decoders = [], []
        for name, *args in calls:
            if name not in self._stubs:
                raise AttributeError(f"{type(self).__name__} has no remote method {name!r}")
            path, encode, decode = self._stubs[name]
            requests.append([path, encode(*args)])
            decoders.append(decode)
        if not requests:
            return []
        results = self._post("/batch", {"calls": requests})["result"]
        if not isinstance(results, list) or len(results) != len(requests):
            raise ServiceError(f"/batch: {len(requests)} calls, but the reply is not "
                               f"a list of {len(requests)} results")
        return [
            _decoded(f"/batch {path}", decode, result)
            for (path, _), decode, result in zip(requests, decoders, results)
        ]

    def health(self) -> bool:
        with self._lock:
            try:
                status, data = _exchange(self._connection, "GET", "/health")
                return status == 200 and _reply_object("/health", status, data).get("ok") is True
            except ServiceError:
                return False

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _attach(cls: type, rpcs: tuple[_Rpc, ...]) -> None:
    """Give a client class one method per table entry, and `call_many` the
    same entries' encoders and decoders."""
    cls._stubs = {}
    for rpc in rpcs:
        encode, method = _client_functions(rpc)
        encode.__qualname__ = method.__qualname__ = f"{cls.__name__}.{rpc.name}"
        setattr(cls, rpc.name, method)
        cls._stubs[rpc.name] = (rpc.path, encode, rpc.result_codec[1])


def _client_functions(rpc: _Rpc) -> tuple[Callable[..., dict], Callable]:
    """One entry's request encoder and client method, generated as
    straight-line source with the in-process parameters, so Python binds
    the arguments (and raises the TypeError the in-process method would).
    The encoder takes the arguments less `self` and returns the request."""
    signature = inspect.signature(rpc.function)
    namespace: dict[str, Any] = {"PATH": rpc.path}
    parameters, names = [], []
    for parameter in list(signature.parameters.values())[1:]:  # less self
        if parameter.kind is not parameter.POSITIONAL_OR_KEYWORD:
            raise TypeError(f"{rpc.path}: parameter {parameter.name} cannot travel")
        names.append(parameter.name)
        if parameter.default is parameter.empty:
            parameters.append(parameter.name)
        else:
            namespace[f"default_{parameter.name}"] = parameter.default
            parameters.append(f"{parameter.name}=default_{parameter.name}")
    items = []
    for name in rpc.sent():
        codec = _ARGUMENT_CODECS.get(name, _AS_IS)
        if codec is _AS_IS:
            items.append(f"{name!r}: {name}")
        else:
            namespace[f"to_json_{name}"] = codec[0]
            items.append(f"{name!r}: to_json_{name}({name})")
    namespace.update(decoded=_decoded, from_json=rpc.result_codec[1])
    request = f"encode({', '.join(names)})"
    source = (
        f"def encode({', '.join(parameters)}):\n    return {{{', '.join(items)}}}\n"
        f"def {rpc.name}({', '.join(['self', *parameters])}):\n"
        f"    return decoded(PATH, from_json, self._post(PATH, {request})['result'])\n"
    )
    exec(compile(source, f"<client {rpc.path}>", "exec"), namespace)
    method = namespace[rpc.name]
    method.__doc__ = rpc.function.__doc__
    method.__signature__ = signature
    return namespace["encode"], method


class RegistryClient(_ServiceClient):
    """Same method signatures as Registry, but backed by a remote service.

    register() takes (and ignores) the caller's ledger: the fee is charged
    on the service's shared ledger, exactly as the in-process call would.
    aname_verify() likewise ignores the resolver argument; the server does
    the TXT lookup itself, so the client offers dns_publish() for fixtures.
    """


_attach(RegistryClient, _REGISTRY_RPCS)


class MailboxClient(_ServiceClient):
    """Same method signatures as MailboxStore, backed by a remote service."""


_attach(MailboxClient, _MAILBOX_RPCS)
