"""Registry and mailbox as standalone HTTP services, plus clients that
mirror the in-process call signatures.

The servers wrap the same objects the in-process path uses, so a client and
a direct reference see identical behavior: same validation order, same
errors, same state. JSON carries the requests; bytes travel as hex.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

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


def _record_to_json(record: RegistryRecord) -> dict:
    return {
        "address": record.address,
        "endpoint": record.endpoint,
        "protocol_digests": sorted(d.hex() for d in record.protocol_digests),
        "metadata": dict(record.metadata),
        "sequence": record.sequence,
        "registered_at": record.registered_at,
        "expires_at": record.expires_at,
    }


def _record_from_json(data: dict) -> RegistryRecord:
    return RegistryRecord(
        address=data["address"],
        endpoint=data["endpoint"],
        protocol_digests=frozenset(bytes.fromhex(d) for d in data["protocol_digests"]),
        metadata=dict(data["metadata"]),
        sequence=data["sequence"],
        registered_at=data["registered_at"],
        expires_at=data["expires_at"],
    )


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
    def register(req: dict) -> dict:
        expires_at = registry.register(
            ledger,
            req["address"],
            req["endpoint"],
            [bytes.fromhex(d) for d in req["protocol_digests"]],
            req["metadata"],
            req["sequence"],
            Signature.from_hex(req["signature"]),
            req["fee_wallet"],
        )
        return {"expires_at": expires_at}

    def search(req: dict) -> dict:
        digest = req.get("protocol_digest")
        hits = registry.search(
            req["current_height"],
            protocol_digest=bytes.fromhex(digest) if digest else None,
            metadata=req.get("metadata") or None,
            geo=req.get("geo"),
        )
        return {"records": [_record_to_json(r) for r in hits]}

    def resolve(req: dict) -> dict:
        record = registry.resolve(req["address"], req["current_height"])
        return {"record": _record_to_json(record)}

    def aname_claim(req: dict) -> dict:
        challenge = registry.aname_claim(req["domain"], req["agent_address"])
        return {"challenge": challenge.hex()}

    def aname_verify(req: dict) -> dict:
        record = registry.aname_verify(req["domain"], dns, req["current_height"])
        return {
            "domain": record.domain,
            "agent_address": record.agent_address,
            "state": record.state.value,
            "verified_at": record.verified_at,
        }

    def dns_publish(req: dict) -> dict:
        dns.publish(req["domain"], req["entry"])
        return {"ok": True}

    def resolve_domain(req: dict) -> dict:
        return {"address": registry.resolve_domain(req["domain"])}

    def domain_of(req: dict) -> dict:
        return {"domain": registry.domain_of(req["agent_address"])}

    return {
        "/register": register,
        "/search": search,
        "/resolve": resolve,
        "/aname/claim": aname_claim,
        "/aname/verify": aname_verify,
        "/dns/publish": dns_publish,
        "/resolve_domain": resolve_domain,
        "/domain_of": domain_of,
    }


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
    def create_account(req: dict) -> dict:
        store.create_account(req["address"])
        return {"ok": True}

    def has_account(req: dict) -> dict:
        return {"has_account": store.has_account(req["address"])}

    def next_nonce(req: dict) -> dict:
        return {"nonce": store.next_nonce(req["address"])}

    def deposit(req: dict) -> dict:
        env = Envelope.from_bytes(bytes.fromhex(req["envelope"]))
        result = store.deposit(env, req["current_height"])
        return {"accepted": result.accepted, "reason": result.reason}

    def retrieve(req: dict) -> dict:
        batch = store.retrieve(
            req["address"], req["nonce"], Signature.from_hex(req["auth"])
        )
        return {"envelopes": [env.to_bytes().hex() for env in batch]}

    def acknowledge(req: dict) -> dict:
        return {"count": store.acknowledge(req["address"])}

    def stats(req: dict) -> dict:
        return {
            "queues": store.stats(),
            "deposited_total": store.deposited_total,
            "dropped_total": store.dropped_total,
        }

    def config(req: dict) -> dict:
        return {"ack_mode": store.ack_mode, "capacity": store.capacity}

    return {
        "/create_account": create_account,
        "/has_account": has_account,
        "/next_nonce": next_nonce,
        "/deposit": deposit,
        "/retrieve": retrieve,
        "/acknowledge": acknowledge,
        "/stats": stats,
        "/config": config,
    }


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


class RegistryClient(_ServiceClient):
    """Same method signatures as Registry, but backed by a remote service.

    register() takes (and ignores) the caller's ledger: the fee is charged
    on the service's shared ledger, exactly as the in-process call would.
    aname_verify() likewise ignores the resolver argument; the server does
    the TXT lookup itself, so the client offers dns_publish() for fixtures.
    """

    def register(
        self,
        ledger,
        address: str,
        endpoint: str,
        protocol_digests,
        metadata,
        sequence: int,
        signature: Signature,
        fee_wallet: str,
    ) -> int:
        del ledger  # the service holds the ledger of record
        result = self._post(
            "/register",
            {
                "address": address,
                "endpoint": endpoint,
                "protocol_digests": sorted(d.hex() for d in protocol_digests),
                "metadata": dict(metadata),
                "sequence": sequence,
                "signature": signature.hex(),
                "fee_wallet": fee_wallet,
            },
        )
        return result["expires_at"]

    def search(
        self,
        current_height: int,
        protocol_digest: bytes | None = None,
        metadata=None,
        geo: str | None = None,
    ) -> list[RegistryRecord]:
        result = self._post(
            "/search",
            {
                "current_height": current_height,
                "protocol_digest": protocol_digest.hex() if protocol_digest else None,
                "metadata": dict(metadata) if metadata else None,
                "geo": geo,
            },
        )
        return [_record_from_json(r) for r in result["records"]]

    def resolve(self, address: str, current_height: int) -> RegistryRecord:
        result = self._post("/resolve", {"address": address, "current_height": current_height})
        return _record_from_json(result["record"])

    def aname_claim(self, domain: str, agent_address: str) -> bytes:
        result = self._post("/aname/claim", {"domain": domain, "agent_address": agent_address})
        return bytes.fromhex(result["challenge"])

    def aname_verify(self, domain: str, resolver, current_height: int) -> AnameRecord:
        del resolver  # the server resolves TXT records itself
        result = self._post(
            "/aname/verify", {"domain": domain, "current_height": current_height}
        )
        record = AnameRecord(
            domain=result["domain"],
            agent_address=result["agent_address"],
            challenge=b"",
            state=AnameState(result["state"]),
            verified_at=result["verified_at"],
        )
        return record

    def dns_publish(self, domain: str, entry: str) -> None:
        self._post("/dns/publish", {"domain": domain, "entry": entry})

    def resolve_domain(self, domain: str) -> str:
        return self._post("/resolve_domain", {"domain": domain})["address"]

    def domain_of(self, agent_address: str) -> str | None:
        return self._post("/domain_of", {"agent_address": agent_address})["domain"]


class MailboxClient(_ServiceClient):
    """Same method signatures as MailboxStore, backed by a remote service."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        super().__init__(base_url, timeout)
        config = self._post("/config", {})
        self.ack_mode = config["ack_mode"]
        self.capacity = config["capacity"]

    def create_account(self, address: str) -> None:
        self._post("/create_account", {"address": address})

    def has_account(self, address: str) -> bool:
        return self._post("/has_account", {"address": address})["has_account"]

    def next_nonce(self, address: str) -> int:
        return self._post("/next_nonce", {"address": address})["nonce"]

    def deposit(self, env: Envelope, current_height: int) -> DepositResult:
        result = self._post(
            "/deposit",
            {"envelope": env.to_bytes().hex(), "current_height": current_height},
        )
        return DepositResult(result["accepted"], result["reason"])

    def retrieve(self, address: str, nonce: int, auth: Signature) -> list[Envelope]:
        result = self._post(
            "/retrieve", {"address": address, "nonce": nonce, "auth": auth.hex()}
        )
        return [Envelope.from_bytes(bytes.fromhex(e)) for e in result["envelopes"]]

    def acknowledge(self, address: str) -> int:
        return self._post("/acknowledge", {"address": address})["count"]

    def stats(self) -> dict:
        return self._post("/stats", {})["queues"]
