"""Registry and mailbox as standalone HTTP services, plus clients that
mirror the in-process call signatures.

The servers wrap the same objects the in-process path uses, so a client and
a direct reference see identical behavior: same validation order, same
errors, same state. JSON carries the requests; bytes travel as hex.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
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

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        pass

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/health":
            self._reply(200, {"ok": True, "service": self.server.service_name})
        else:
            # NoRoute, not NotFound: must not collide with the registry error
            self._reply(404, {"error": "NoRoute", "detail": f"no route {self.path}"})

    def do_POST(self) -> None:
        route = self.server.routes.get(self.path)
        if route is None:
            self._reply(404, {"error": "NoRoute", "detail": f"no route {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            request = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": "BadRequest", "detail": str(exc)})
            return
        try:
            with self.server.lock:
                result = route(request)
        except (RegistryError, MailboxError, LedgerError, IdentityError, WireError) as exc:
            self._reply(400, {"error": type(exc).__name__, "detail": str(exc)})
        except (KeyError, TypeError, ValueError) as exc:
            self._reply(400, {"error": "BadRequest", "detail": f"{type(exc).__name__}: {exc}"})
        else:
            self._reply(200, result)


class _ServiceServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, service_name: str, routes: dict) -> None:
        super().__init__(address, _JsonHandler)
        self.service_name = service_name
        self.routes = routes
        # the wrapped stores are single-writer; serialize every operation
        self.lock = threading.Lock()


@dataclass
class ServiceHandle:
    """A running service thread and the URL clients should use."""

    server: _ServiceServer
    thread: threading.Thread
    base_url: str

    def close(self) -> None:
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

def _post(base_url: str, path: str, payload: dict, timeout: float) -> dict:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base_url + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        try:
            error = json.loads(exc.read())
        except (ValueError, json.JSONDecodeError):
            raise ServiceError(f"{path}: HTTP {exc.code}") from exc
        cls = _ERROR_CLASSES.get(error.get("error", ""))
        if cls is not None:
            raise _rebuild_error(cls, error.get("detail", "")) from exc
        raise ServiceError(f"{path}: {error.get('error')}: {error.get('detail')}") from exc
    except urllib.error.URLError as exc:
        raise ServiceError(f"{path}: {exc.reason}") from exc


def _rebuild_error(cls: type[Exception], detail: str) -> Exception:
    try:
        return cls(detail)
    except TypeError:
        # some classes take structured arguments; fall back to the base
        exc = cls.__new__(cls)
        Exception.__init__(exc, detail)
        return exc


class RegistryClient:
    """Same method signatures as Registry, but backed by a remote service.

    register() takes (and ignores) the caller's ledger: the fee is charged
    on the service's shared ledger, exactly as the in-process call would.
    aname_verify() likewise ignores the resolver argument; the server does
    the TXT lookup itself, so the client offers dns_publish() for fixtures.
    """

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _post(self, path: str, payload: dict) -> dict:
        return _post(self.base_url, path, payload, self.timeout)

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

    def health(self) -> bool:
        try:
            with urllib.request.urlopen(self.base_url + "/health", timeout=self.timeout) as r:
                return json.loads(r.read()).get("ok", False)
        except (urllib.error.URLError, ValueError):
            return False


class MailboxClient:
    """Same method signatures as MailboxStore, backed by a remote service."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        config = _post(self.base_url, "/config", {}, timeout)
        self.ack_mode = config["ack_mode"]
        self.capacity = config["capacity"]

    def _post(self, path: str, payload: dict) -> dict:
        return _post(self.base_url, path, payload, self.timeout)

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
