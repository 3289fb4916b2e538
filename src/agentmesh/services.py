"""Registry and mailbox as standalone HTTP services, plus clients with the
in-process call signatures.

The servers wrap the same objects the in-process path uses, so a client and
a direct reference see identical behavior: same validation order, same
errors, same state. One table of remote calls drives both sides: each entry
names an in-process method, and the server route and the client method are
both built from it. JSON carries the requests; bytes travel as hex.

The transport is a keep-alive HTTP/1.1 subset: each message goes out in one
write with a `Content-Length` body; head lines stop at 64 KiB and fields at
100; `Expect: 100-continue` is answered before the body is read. A reply
closes the connection when the request asks (`Connection: close`, HTTP/1.0)
or its end is unknown (any `Transfer-Encoding`, a `Content-Length` that is
not plain digits, a head that cannot be parsed).
"""

from __future__ import annotations

import contextlib
import inspect
import json
import socket
import socketserver
import threading
from dataclasses import asdict, dataclass
from typing import Any, Callable
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
    _Rpc("/register", "registry", Registry.register, _AS_IS, held=("ledger",)),
    _Rpc("/search", "registry", Registry.search, _list_of(_RECORD)),
    _Rpc("/resolve", "registry", Registry.resolve, _RECORD),
    _Rpc("/aname/claim", "registry", Registry.aname_claim, _HEX),
    _Rpc("/aname/verify", "registry", Registry.aname_verify, _ANAME, held=("resolver",)),
    _Rpc("/dns/publish", "resolver", FixtureDnsResolver.publish, _AS_IS),
    _Rpc("/resolve_domain", "registry", Registry.resolve_domain, _AS_IS),
    _Rpc("/domain_of", "registry", Registry.domain_of, _AS_IS),
)

_MAILBOX_RPCS = (
    _Rpc("/create_account", "store", MailboxStore.create_account, _AS_IS),
    _Rpc("/has_account", "store", MailboxStore.has_account, _AS_IS),
    _Rpc("/next_nonce", "store", MailboxStore.next_nonce, _AS_IS),
    _Rpc("/deposit", "store", MailboxStore.deposit, _DEPOSIT),
    _Rpc("/retrieve", "store", MailboxStore.retrieve, _list_of(_ENVELOPE)),
    _Rpc("/acknowledge", "store", MailboxStore.acknowledge, _AS_IS),
    _Rpc("/stats", "store", MailboxStore.stats, _AS_IS),
)


def _route(rpc: _Rpc, served: dict[str, object]) -> Callable[[dict], dict]:
    decoders = [(name, _ARGUMENT_CODECS.get(name, _AS_IS)[1]) for name in rpc.sent()]
    held = {name: served[name] for name in rpc.held}
    target, method_name = served[rpc.target], rpc.function.__name__
    to_json = rpc.result_codec[0]

    def route(request: dict) -> dict:
        arguments = {name: from_json(request[name]) for name, from_json in decoders}
        # looked up per call, so a method replaced on the class is the one run
        method = getattr(target, method_name)
        return {"result": to_json(method(**arguments, **held))}

    return route


# ---------------------------------------------------------------------------
# HTTP/1.1 framing: Content-Length bodies only (RFC 9112 section 6)

_MAX_LINE = 65536  # bytes per start or header line
_MAX_HEADERS = 100
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
    """The declared body length. ValueError when the body's end is unknown:
    any Transfer-Encoding, or a Content-Length missing (with no default) or
    not plain digits, as two fields joined into one are not."""
    value = headers.get("content-length", default)
    if "transfer-encoding" in headers or not (value and value.isascii() and value.isdigit()):
        raise ValueError(f"body not framed by one Content-Length: {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# server plumbing

class _JsonHandler(socketserver.StreamRequestHandler):
    """Serve one connection's requests in turn, dispatching POSTed JSON to
    the route table installed on the server."""

    def handle(self) -> None:
        # the peer or ServiceHandle.close() may end the connection any time
        with contextlib.suppress(OSError):
            while self._serve_one():
                pass

    def _serve_one(self) -> bool:
        """Answer one request; False once the connection is to close."""
        try:
            head = _read_head(self.rfile)
            if head is None:
                return False
            start, headers = head
            method, path, version = start.split(" ")
            if not version.startswith("HTTP/1."):
                raise ValueError(f"unsupported version {version!r}")
            length = _body_length(headers, default="0")
        except ValueError as exc:
            # the request's end is unknown, so the connection cannot be reused
            return self._reply(400, {"error": "BadRequest", "detail": str(exc)}, close=True)
        if headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        # consume the body before any reply: on a keep-alive connection a
        # body left unread would be parsed as the next request
        body = self.rfile.read(length)
        if len(body) < length:
            return False
        close = version == "HTTP/1.0" or headers.get("connection", "").lower() == "close"
        return self._reply(*self._answer(method, path, body), close=close)

    def _answer(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        if method == "GET" and path == "/health":
            return 200, {"ok": True, "service": self.server.service_name}
        route = self.server.routes.get(path) if method == "POST" else None
        if route is None:
            # NoRoute, not NotFound: must not collide with the registry error
            return 404, {"error": "NoRoute", "detail": f"no route {method} {path}"}
        try:
            request = json.loads(body or b"{}")
        except ValueError as exc:
            return 400, {"error": "BadRequest", "detail": str(exc)}
        try:
            with self.server.lock:
                return 200, route(request)
        except (RegistryError, MailboxError, LedgerError, IdentityError, WireError) as exc:
            # structured fields (BadSequence.expected, InsufficientFunds.
            # shortfall, ...) travel as attributes for the client to restore
            return 400, {"error": type(exc).__name__, "detail": str(exc), "attrs": vars(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": "BadRequest", "detail": f"{type(exc).__name__}: {exc}"}

    def _reply(self, status: int, payload: dict, close: bool = False) -> bool:
        """Send status line, headers and body in one write; returns whether
        the connection stays open."""
        body = json.dumps(payload).encode("utf-8")
        close_field = "Connection: close\r\n" if close else ""
        self.wfile.write(
            f"HTTP/1.1 {status} {_REASONS[status]}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{close_field}\r\n".encode("latin-1") + body
        )
        return not close


class _ServiceServer(socketserver.ThreadingTCPServer):
    # a restarted daemon rebinds its port while old connections linger
    allow_reuse_address = True

    def __init__(self, address, service_name: str, routes: dict) -> None:
        super().__init__(address, _JsonHandler)
        self.service_name = service_name
        self.routes = routes
        # the wrapped stores are single-writer; serialize every operation
        self.lock = threading.Lock()
        # each open connection and the thread serving it, so server_close()
        # can end and join them (ThreadingMixIn tracks no daemon thread)
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._connections_lock:
            self._connections[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        # a keep-alive handler blocks reading its client's next request;
        # shutting its socket down ends that read and with it the thread
        with self._connections_lock:
            threads = list(self._connections.values())
            for connection in self._connections:
                with contextlib.suppress(OSError):
                    connection.shutdown(socket.SHUT_RDWR)
        for thread in threads:
            thread.join(timeout=5)


@dataclass
class ServiceHandle:
    """A running service thread and the URL clients should use."""

    server: _ServiceServer
    thread: threading.Thread
    base_url: str

    def close(self) -> None:
        """Stop accepting, end every open connection and join the server's
        threads, handler threads included."""
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def _start(server: _ServiceServer) -> ServiceHandle:
    # a short poll lets close() return promptly instead of after up to 0.5 s
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    return ServiceHandle(server, thread, f"http://{host}:{port}")


# ---------------------------------------------------------------------------
# registry service

def registry_routes(registry: Registry, ledger: Ledger, dns) -> dict:
    served = {"registry": registry, "ledger": ledger, "resolver": dns}
    return {rpc.path: _route(rpc, served) for rpc in _REGISTRY_RPCS}


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
    server = _ServiceServer((host, port), "registry", registry_routes(registry, ledger, dns))
    return _start(server)


# ---------------------------------------------------------------------------
# mailbox service

def mailbox_routes(store: MailboxStore) -> dict:
    def config(request: dict) -> dict:
        return {"ack_mode": store.ack_mode, "capacity": store.capacity}

    routes = {rpc.path: _route(rpc, {"store": store}) for rpc in _MAILBOX_RPCS}
    return {**routes, "/config": config}


def serve_mailbox(store: MailboxStore, host: str = "127.0.0.1", port: int = 0) -> ServiceHandle:
    server = _ServiceServer((host, port), "mailbox", mailbox_routes(store))
    return _start(server)


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


def _post(connection: _Connection, path: str, payload: dict) -> dict:
    status, data = _exchange(connection, "POST", path, json.dumps(payload).encode("utf-8"))
    try:
        reply = json.loads(data)
    except ValueError:
        raise ServiceError(f"{path}: HTTP {status}") from None
    if status == 200:
        return reply
    cls = _ERROR_CLASSES.get(reply.get("error", ""))
    if cls is not None:
        raise _rebuild_error(cls, reply.get("detail", ""), reply.get("attrs", {}))
    raise ServiceError(f"{path}: {reply.get('error')}: {reply.get('detail')}")


def _rebuild_error(cls: type[Exception], detail: str, attrs: dict) -> Exception:
    # built without __init__, since some classes take structured arguments;
    # message and attributes come back as the server's instance had them
    exc = cls.__new__(cls)
    Exception.__init__(exc, detail)
    vars(exc).update(attrs)
    return exc


class _ServiceClient:
    """One keep-alive HTTP connection to a service, shared under a lock."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self._connection = _Connection(self.base_url, timeout)
        self._lock = threading.Lock()

    def _post(self, path: str, payload: dict) -> dict:
        with self._lock:
            return _post(self._connection, path, payload)

    def health(self) -> bool:
        with self._lock:
            try:
                status, data = _exchange(self._connection, "GET", "/health")
                return status == 200 and json.loads(data).get("ok", False)
            except (ServiceError, ValueError):
                return False

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _attach(cls: type, rpcs: tuple[_Rpc, ...]) -> None:
    """Give a client class one method per table entry."""
    for rpc in rpcs:
        setattr(cls, rpc.name, _client_method(rpc))


def _client_method(rpc: _Rpc) -> Callable:
    signature = inspect.signature(rpc.function)
    names = list(signature.parameters)[1:]  # less self
    every_name = set(names)
    defaults = {
        name: p.default for name, p in signature.parameters.items() if p.default is not p.empty
    }
    encoders = [(name, _ARGUMENT_CODECS.get(name, _AS_IS)[0]) for name in rpc.sent()]
    from_json = rpc.result_codec[1]

    def call(self, *args, **kwargs):
        # a well-formed call is bound with dict operations, which cost far
        # less per RPC than Signature.bind; any other call goes through
        # bind, which raises the TypeError the in-process method would
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if (
            len(args) > len(names)
            or not kwargs.keys().isdisjoint(names[: len(args)])
            or values.keys() != every_name
        ):
            bound = signature.bind(self, *args, **kwargs)
            bound.apply_defaults()
            values = bound.arguments
        payload = {name: to_json(values[name]) for name, to_json in encoders}
        return from_json(self._post(rpc.path, payload)["result"])

    call.__name__ = call.__qualname__ = rpc.name
    call.__doc__ = rpc.function.__doc__
    call.__signature__ = signature
    return call


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

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        super().__init__(base_url, timeout)
        config = self._post("/config", {})
        self.ack_mode = config["ack_mode"]
        self.capacity = config["capacity"]


_attach(MailboxClient, _MAILBOX_RPCS)
