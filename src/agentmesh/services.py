"""Registry and mailbox as standalone HTTP services, plus clients with the
in-process call signatures.

The servers wrap the same objects the in-process path uses, so a client and
a direct reference see identical behavior: same validation order, same
errors, same state. One table of remote calls drives both sides: each entry
names an in-process method, and the server route and the client method are
both built from it. JSON carries the requests; bytes travel as hex.
"""

from __future__ import annotations

import contextlib
import http.client
import inspect
import json
import socket
import threading
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

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
# server plumbing

class _JsonHandler(BaseHTTPRequestHandler):
    """Dispatch POSTed JSON to the route table installed on the server."""

    protocol_version = "HTTP/1.1"
    # buffer the reply so status line, headers and body leave in the one
    # write handle_one_request flushes: a separate body write would wait on
    # the client's delayed ACK (Nagle) on every keep-alive round trip
    wbufsize = -1

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        pass

    def _reply(self, status: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/health":
            self._reply(200, {"ok": True, "service": self.server.service_name})
        else:
            # NoRoute, not NotFound: must not collide with the registry error
            self._reply(404, {"error": "NoRoute", "detail": f"no route {self.path}"})

    def do_POST(self) -> None:
        # consume the body before any reply: on a keep-alive connection a
        # body left unread would be parsed as the next request
        try:
            body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        except ValueError as exc:
            # the body's end is unknown, so the connection cannot be reused
            self._reply(400, {"error": "BadRequest", "detail": str(exc)}, close=True)
            return
        route = self.server.routes.get(self.path)
        if route is None:
            self._reply(404, {"error": "NoRoute", "detail": f"no route {self.path}"})
            return
        try:
            request = json.loads(body or b"{}")
        except ValueError as exc:
            self._reply(400, {"error": "BadRequest", "detail": str(exc)})
            return
        try:
            with self.server.lock:
                result = route(request)
        except (RegistryError, MailboxError, LedgerError, IdentityError, WireError) as exc:
            # structured fields (BadSequence.expected, InsufficientFunds.
            # shortfall, ...) travel as attributes for the client to restore
            self._reply(
                400, {"error": type(exc).__name__, "detail": str(exc), "attrs": vars(exc)}
            )
        except (KeyError, TypeError, ValueError) as exc:
            self._reply(400, {"error": "BadRequest", "detail": f"{type(exc).__name__}: {exc}"})
        else:
            self._reply(200, result)


class _ServiceServer(ThreadingHTTPServer):
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

def _exchange(
    connection: http.client.HTTPConnection, method: str, path: str, body: bytes | None = None
) -> tuple[int, bytes]:
    """One request/response on a keep-alive connection. A transport failure
    drops the connection (the next call reconnects) and is never retried:
    most routes are not idempotent."""
    headers = {"Content-Type": "application/json"} if body is not None else {}
    try:
        connection.request(method, path, body, headers)
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        connection.close()
        raise ServiceError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _post(connection: http.client.HTTPConnection, path: str, payload: dict) -> dict:
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
        host = self.base_url.split("://", 1)[-1]
        self._connection = http.client.HTTPConnection(host, timeout=timeout)
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
