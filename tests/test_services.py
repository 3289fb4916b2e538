"""Registry and mailbox over HTTP: operation parity with the in-process
objects, error types surviving the wire, and the full scenario running
unchanged behind service clients."""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import json
import socket
import threading
import time
import urllib.request

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from agentmesh.config import PresenceWindow, default_config, with_overrides
from agentmesh.identity import derive_identity
from agentmesh.ledger import InsufficientFunds, Ledger, fet, journal_lines
from agentmesh.mailbox import BadAuth, MailboxStore, ReplayedNonce, retrieval_auth_digest
from agentmesh.registry import (
    AlreadyVerified,
    AnameState,
    BadDomain,
    BadSequence,
    BadSignature,
    ChallengeAbsent,
    Expired,
    FixtureDnsResolver,
    NotClaimed,
    NotFound,
    Registry,
    registration_signing_digest,
)
from agentmesh.scenario import build_scenario, run_scenario
from agentmesh import services
from agentmesh.services import (
    MailboxClient,
    RegistryClient,
    ServiceError,
    serve_mailbox,
    serve_registry,
)
from agentmesh.wire import CHAT_PROTOCOL, make_chat_message, seal_envelope

ALICE = derive_identity("service test alice")
BOB = derive_identity("service test bob")


def signed_registration(identity, sequence=0, endpoint="sim://node", metadata=None):
    """Assemble the register() argument list with a valid signature."""
    metadata = dict(metadata or {})
    digests = [CHAT_PROTOCOL.digest()]
    digest = registration_signing_digest(
        identity.address, sequence, digests, endpoint, metadata
    )
    return dict(
        address=identity.address,
        endpoint=endpoint,
        protocol_digests=digests,
        metadata=metadata,
        sequence=sequence,
        signature=identity.sign_digest(digest),
        fee_wallet=identity.wallet_address,
    )


def sealed_chat(sender, target, text, expires_at=100):
    record = make_chat_message("2026-03-02T09:00:00", bytes(16), [text])
    return seal_envelope(sender, target, CHAT_PROTOCOL, record, bytes(16), expires_at)


@pytest.fixture
def registry_service():
    ledger = Ledger()
    ledger.mint(ALICE.wallet_address, fet(10))
    registry = Registry(ttl=50, fee=fet(1))
    dns = FixtureDnsResolver()
    handle = serve_registry(registry, ledger, dns)
    with RegistryClient(handle.base_url) as client:
        yield client, registry, ledger, dns
    handle.close()


@pytest.fixture
def mailbox_service():
    store = MailboxStore()
    handle = serve_mailbox(store)
    with MailboxClient(handle.base_url) as client:
        yield client, store
    handle.close()


# ---------------------------------------------------------------------------
# health and routing

def test_close_is_prompt():
    handle = serve_mailbox(MailboxStore())
    started = time.perf_counter()
    handle.close()
    assert time.perf_counter() - started < 0.3
    assert not handle.thread.is_alive()


def test_health_endpoints(registry_service, mailbox_service):
    client, _, _, _ = registry_service
    assert client.health() is True
    mail_client, _ = mailbox_service
    with urllib.request.urlopen(mail_client.base_url + "/health", timeout=5) as response:
        body = json.loads(response.read())
    assert body == {"ok": True, "service": "mailbox"}


def test_unknown_route_is_a_service_error(registry_service):
    client, _, _, _ = registry_service
    with pytest.raises(ServiceError):
        client._post("/no_such_route", {})


# ---------------------------------------------------------------------------
# registry parity

def test_register_then_resolve_matches_the_served_object(registry_service):
    client, registry, ledger, _ = registry_service
    expires_at = client.register(None, **signed_registration(ALICE))
    assert expires_at == ledger.height + registry.ttl

    via_http = client.resolve(ALICE.address, current_height=0)
    direct = registry.resolve(ALICE.address, current_height=0)
    assert via_http == direct
    assert via_http.metadata == {}
    assert via_http.protocol_digests == frozenset({CHAT_PROTOCOL.digest()})


def test_register_charges_the_service_ledger(registry_service):
    client, _, ledger, _ = registry_service
    before = ledger.balances[ALICE.wallet_address]
    client.register(None, **signed_registration(ALICE, metadata={"geo": "cambridge"}))
    assert ledger.balances[ALICE.wallet_address] == before - fet(1)
    assert ledger.fee_sink == fet(1)


def test_search_filters_cross_the_wire(registry_service):
    client, registry, ledger, _ = registry_service
    ledger.mint(BOB.wallet_address, fet(10))
    client.register(None, **signed_registration(ALICE, metadata={"geo": "cambridge"}))
    client.register(None, **signed_registration(BOB, metadata={"geo": "london"}))

    everyone = client.search(0, protocol_digest=CHAT_PROTOCOL.digest())
    assert [r.address for r in everyone] == sorted([ALICE.address, BOB.address])
    assert everyone == registry.search(0, protocol_digest=CHAT_PROTOCOL.digest())

    # an empty digest is a filter that matches nothing, not a missing one
    assert client.search(0, protocol_digest=b"") == registry.search(0, protocol_digest=b"") == []

    cambridge = client.search(0, geo="cambridge")
    assert [r.address for r in cambridge] == [ALICE.address]
    assert client.search(0, metadata={"geo": "london"}) == registry.search(
        0, metadata={"geo": "london"}
    )


def test_routes_look_up_the_served_method_per_call(registry_service, monkeypatch):
    # a method replaced on the class after the service started is the one a
    # route runs, as it would be for an in-process caller
    client, _, _, _ = registry_service
    calls = []
    search = Registry.search

    def counted(self, *args, **kwargs):
        calls.append(args)
        return search(self, *args, **kwargs)

    monkeypatch.setattr(Registry, "search", counted)
    assert client.search(0) == []
    assert len(calls) == 1


@pytest.mark.parametrize(
    "service, method, args, kwargs",
    [
        ("registry", "search", (), {}),
        ("registry", "search", (1, None, None, None, "extra"), {}),
        ("registry", "search", (1,), {"current_height": 1}),
        ("registry", "search", (1,), {"radius": 5}),
        ("registry", "register", (), {"address": "x"}),
        ("registry", "aname_verify", ("d.example.agent",), {"current_height": 3}),
        ("mailbox", "deposit", (), {"current_height": 1}),
        ("mailbox", "stats", ("extra",), {}),
    ],
)
def test_malformed_calls_raise_the_in_process_type_error(
    mailbox_service, service, method, args, kwargs
):
    # Python binds a client method's arguments before any request is made
    mail_client, _ = mailbox_service
    client, served = {
        "registry": (RegistryClient("http://127.0.0.1:9"), Registry()),
        "mailbox": (mail_client, MailboxStore()),
    }[service]
    with pytest.raises(TypeError) as remote:
        getattr(client, method)(*args, **kwargs)
    with pytest.raises(TypeError) as local:
        getattr(served, method)(*args, **kwargs)
    message = str(remote.value).replace(type(client).__name__, type(served).__name__, 1)
    assert message == str(local.value)


def test_replayed_sequence_raises_the_real_type(registry_service):
    client, _, _, _ = registry_service
    args = signed_registration(ALICE, sequence=0)
    client.register(None, **args)
    with pytest.raises(BadSequence) as excinfo:
        client.register(None, **args)
    assert "expected" in str(excinfo.value) or "1" in str(excinfo.value)


def test_wrong_key_registration_raises_bad_signature(registry_service):
    client, _, _, _ = registry_service
    args = signed_registration(ALICE)
    forged = signed_registration(BOB)
    args["signature"] = forged["signature"]
    with pytest.raises(BadSignature):
        client.register(None, **args)


def test_unfunded_fee_wallet_raises_insufficient_funds(registry_service):
    client, _, _, _ = registry_service
    pauper = derive_identity("service test pauper")
    with pytest.raises(InsufficientFunds):
        client.register(None, **signed_registration(pauper))


def test_resolve_errors_cross_the_wire(registry_service):
    client, _, _, _ = registry_service
    with pytest.raises(NotFound):
        client.resolve(ALICE.address, current_height=0)
    client.register(None, **signed_registration(ALICE))
    with pytest.raises(Expired):
        client.resolve(ALICE.address, current_height=200)  # ttl is 50


@pytest.mark.parametrize("error", [BadSequence, InsufficientFunds])
def test_structured_errors_keep_their_fields(registry_service, error):
    client, _, _, _ = registry_service
    ledger = Ledger()
    ledger.mint(ALICE.wallet_address, fet(10))
    local = Registry(ttl=50, fee=fet(1))
    if error is BadSequence:
        args = signed_registration(ALICE)
        client.register(None, **args)
        local.register(ledger, **args)
    else:
        args = signed_registration(derive_identity("service test pauper"))
    with pytest.raises(error) as in_process:
        local.register(ledger, **args)
    with pytest.raises(error) as over_http:
        client.register(None, **args)
    # BadSequence.expected/.got, InsufficientFunds.wallet/.shortfall
    assert vars(over_http.value) == vars(in_process.value) != {}
    assert str(over_http.value) == str(in_process.value)


# ---------------------------------------------------------------------------
# ANAME over HTTP

def test_aname_flow_over_http(registry_service):
    client, registry, _, dns = registry_service
    challenge = client.aname_claim("speedyvan.example", ALICE.address)
    assert len(challenge) == 32

    with pytest.raises(ChallengeAbsent):
        client.aname_verify("speedyvan.example", None, current_height=5)

    client.dns_publish("speedyvan.example", challenge.hex())
    assert dns.lookup_txt("speedyvan.example") == [challenge.hex()]

    record = client.aname_verify("speedyvan.example", None, current_height=5)
    assert record.state is AnameState.VERIFIED
    assert record.verified_at == 5
    assert record.agent_address == ALICE.address
    assert registry.anames["speedyvan.example"].state is AnameState.VERIFIED
    assert record == registry.anames["speedyvan.example"]  # challenge included

    assert client.resolve_domain("speedyvan.example") == ALICE.address
    assert client.domain_of(ALICE.address) == "speedyvan.example"
    assert client.domain_of(BOB.address) is None


def test_aname_errors_cross_the_wire(registry_service):
    client, _, _, _ = registry_service
    with pytest.raises(BadDomain):
        client.aname_claim("not a domain!", ALICE.address)
    with pytest.raises(NotClaimed):
        client.aname_verify("ghost.example", None, current_height=0)

    challenge = client.aname_claim("taken.example", ALICE.address)
    client.dns_publish("taken.example", challenge.hex())
    client.aname_verify("taken.example", None, current_height=0)
    with pytest.raises(AlreadyVerified):
        client.aname_claim("taken.example", BOB.address)
    with pytest.raises(NotFound):
        client.resolve_domain("ghost.example")


# ---------------------------------------------------------------------------
# mailbox parity

def test_mailbox_roundtrip_is_byte_identical(mailbox_service):
    client, store = mailbox_service
    client.create_account(BOB.address)
    assert client.has_account(BOB.address) is True
    assert store.has_account(BOB.address) is True

    env = sealed_chat(ALICE, BOB.address, "hello over http")
    result = client.deposit(env, current_height=1)
    assert result.accepted is True and result.reason is None
    assert client.stats() == store.stats() == {BOB.address: 1}

    nonce = client.next_nonce(BOB.address)
    assert nonce == store.next_nonce(BOB.address)
    auth = BOB.sign_digest(retrieval_auth_digest(BOB.address, nonce))
    batch = client.retrieve(BOB.address, nonce, auth)
    assert [e.to_bytes() for e in batch] == [env.to_bytes()]
    assert client.acknowledge(BOB.address) == 1
    assert client.stats() == {BOB.address: 0}


def test_deposit_rejection_reasons_cross_the_wire(mailbox_service):
    client, _ = mailbox_service
    env = sealed_chat(ALICE, BOB.address, "nobody home")
    assert client.deposit(env, current_height=1).reason == "NoAccount"

    client.create_account(BOB.address)
    stale = sealed_chat(ALICE, BOB.address, "too late", expires_at=3)
    assert client.deposit(stale, current_height=9).reason == "Expired"


def test_mailbox_auth_errors_cross_the_wire(mailbox_service):
    client, _ = mailbox_service
    client.create_account(BOB.address)
    nonce = client.next_nonce(BOB.address)

    imposter = ALICE.sign_digest(retrieval_auth_digest(BOB.address, nonce))
    with pytest.raises(BadAuth):
        client.retrieve(BOB.address, nonce, imposter)

    auth = BOB.sign_digest(retrieval_auth_digest(BOB.address, nonce))
    client.retrieve(BOB.address, nonce, auth)
    with pytest.raises(ReplayedNonce):
        client.retrieve(BOB.address, nonce, auth)


def test_redelivery_over_http(mailbox_service):
    client, _ = mailbox_service
    client.create_account(BOB.address)
    client.deposit(sealed_chat(ALICE, BOB.address, "once"), current_height=1)

    auth = BOB.sign_digest(retrieval_auth_digest(BOB.address, 0))
    first = client.retrieve(BOB.address, 0, auth)
    # no acknowledge yet: a fresh nonce redelivers the same batch
    auth2 = BOB.sign_digest(retrieval_auth_digest(BOB.address, 1))
    again = client.retrieve(BOB.address, 1, auth2)
    assert [e.to_bytes() for e in again] == [e.to_bytes() for e in first]

    assert client.acknowledge(BOB.address) == 1
    auth3 = BOB.sign_digest(retrieval_auth_digest(BOB.address, 2))
    assert client.retrieve(BOB.address, 2, auth3) == []


# ---------------------------------------------------------------------------
# transport: one keep-alive connection per client

def handler_threads(handle) -> list[threading.Thread]:
    """The server's handler threads, one per accepted connection, recorded
    as each starts."""
    threads = []
    finish_request = handle.server.finish_request

    def recording(request, client_address):
        threads.append(threading.current_thread())
        finish_request(request, client_address)

    handle.server.finish_request = recording
    return threads


def test_one_client_keeps_one_connection():
    handle = serve_mailbox(MailboxStore())
    handlers = handler_threads(handle)
    try:
        with MailboxClient(handle.base_url) as client:
            client.create_account(BOB.address)
            for _ in range(10):
                assert client.has_account(BOB.address) is True
                assert client.stats() == {BOB.address: 0}
        assert len(handlers) == 1
    finally:
        handle.close()


def test_error_replies_keep_the_connection():
    ledger = Ledger()
    ledger.mint(ALICE.wallet_address, fet(10))
    handle = serve_registry(Registry(ttl=50, fee=fet(1)), ledger)
    handlers = handler_threads(handle)
    try:
        with RegistryClient(handle.base_url) as client:
            args = signed_registration(ALICE)
            client.register(None, **args)
            with pytest.raises(BadSequence):
                client.register(None, **args)
            assert client.resolve(ALICE.address, current_height=0).address == ALICE.address
            with pytest.raises(ServiceError):
                client._post("/no_such_route", {"body": "not to be read as a request"})
            assert client.domain_of(ALICE.address) is None
            assert client.health() is True
        assert len(handlers) == 1
    finally:
        handle.close()


def test_an_unsignable_registration_is_refused_typed():
    ledger = Ledger()
    ledger.mint(ALICE.wallet_address, fet(10))
    handle = serve_registry(Registry(ttl=50, fee=fet(1)), ledger)
    handlers = handler_threads(handle)
    try:
        with RegistryClient(handle.base_url) as client:
            args = signed_registration(ALICE)
            with pytest.raises(BadSignature):
                client.register(None, **{**args, "sequence": 2**64})
            client.register(None, **args)  # the same connection serves on
        assert len(handlers) == 1
    finally:
        handle.close()


def test_unreadable_body_length_closes_the_connection(mailbox_service):
    client, _ = mailbox_service
    connection = http.client.HTTPConnection(client.base_url.split("://", 1)[-1], timeout=5)
    try:
        connection.putrequest("POST", "/stats")
        connection.putheader("Content-Length", "many")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["error"] == "BadRequest"
        # the body's end is unknown: the server must not read on for a request
        assert response.getheader("Connection") == "close"
    finally:
        connection.close()
    assert client.stats() == {}


def test_sequential_rpcs_do_not_stall(mailbox_service):
    client, _ = mailbox_service
    client.create_account(BOB.address)
    started = time.perf_counter()
    for _ in range(50):
        client.has_account(BOB.address)
    # a reply sent in two writes waits on delayed ACK: >= 40 ms per call
    assert time.perf_counter() - started < 1.0


def test_close_ends_live_keep_alive_connections():
    handle = serve_mailbox(MailboxStore())
    handlers = handler_threads(handle)
    with MailboxClient(handle.base_url) as client:
        client.create_account(BOB.address)
        started = time.perf_counter()
        handle.close()
        assert time.perf_counter() - started < 0.3
        assert len(handlers) == 1
        assert not any(thread.is_alive() for thread in handlers)
        assert not handle.thread.is_alive()
        for _ in range(2):  # the dropped connection, then a refused reconnect
            started = time.perf_counter()
            with pytest.raises(ServiceError):
                client.has_account(BOB.address)
            assert time.perf_counter() - started < 1.0


def test_lost_reply_is_not_resent_and_the_next_call_reconnects():
    store = MailboxStore()
    handle = serve_mailbox(store)
    handlers = handler_threads(handle)
    server = handle.server
    create_account = server.routes["/create_account"]
    calls = []

    def create_then_drop(request):
        calls.append(request)
        result = create_account(request)
        with server._connections_lock:
            for connection in server._connections:
                connection.shutdown(socket.SHUT_RDWR)
        return result

    server.routes["/create_account"] = create_then_drop
    try:
        with MailboxClient(handle.base_url) as client:
            with pytest.raises(ServiceError):
                client.create_account(BOB.address)
            assert len(calls) == 1  # not resent: create_account is not idempotent
            assert client.has_account(BOB.address) is True
        assert len(handlers) == 2
    finally:
        handle.close()


# ---------------------------------------------------------------------------
# framing: raw requests against the server, odd replies against the client

def raw_connection(client) -> socket.socket:
    host, port = client.base_url.split("://", 1)[-1].rsplit(":", 1)
    return socket.create_connection((host, int(port)), timeout=5)


def raw_request(client, data: bytes) -> tuple[http.client.HTTPResponse, bytes, bool]:
    """Send raw bytes on a fresh connection. Returns the reply, its body, and
    whether the server closed the connection after it."""
    with raw_connection(client) as sock:
        sock.sendall(data)
        response = http.client.HTTPResponse(sock)
        response.begin()
        body = response.read()
        sock.settimeout(0.5)
        try:
            closed = sock.recv(1) == b""
        except ConnectionResetError:
            closed = True
        except TimeoutError:
            closed = False
        return response, body, closed


def test_expect_continue_is_answered_before_the_body(mailbox_service):
    client, _ = mailbox_service
    body = json.dumps({"address": BOB.address}).encode()
    with raw_connection(client) as sock:
        sock.sendall(
            b"POST /create_account HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        )
        # a client that waits for the interim reply must not stall
        sock.settimeout(0.5)
        assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.settimeout(5)
        sock.sendall(body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        assert response.status == 200
        assert json.loads(response.read()) == {"result": None}
    assert client.has_account(BOB.address) is True


POST_STATS = b"POST /stats HTTP/1.1\r\nHost: x\r\n"


@pytest.mark.parametrize(
    "request_bytes",
    [
        POST_STATS + b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        POST_STATS + b"Content-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}",
        POST_STATS + b"Content-Length: -1\r\n\r\n{}",
        POST_STATS + b"Content-Length: 1_0\r\n\r\n{}",
        POST_STATS + b"Content-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
        POST_STATS + b"X-Long: " + b"a" * 65536 + b"\r\n\r\n{}",
        POST_STATS + b"".join(b"X-%d: 1\r\n" % i for i in range(100)) + b"\r\n{}",
        POST_STATS + b"No colon here\r\n\r\n{}",
        b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n",
        b"GET /health HTTP/2.0\r\n\r\n",
        b"GET /health\r\n\r\n",
        POST_STATS + b"Content-Length: 99999999999999\r\n\r\n{}",
    ],
    ids=[
        "chunked", "length_and_chunked", "negative_length", "underscored_length",
        "two_lengths", "header_over_64KiB", "101_headers", "no_colon",
        "request_line_over_64KiB", "http_2", "no_version", "body_over_16MiB",
    ],
)
def test_unframeable_request_is_refused_and_closed(mailbox_service, request_bytes):
    client, _ = mailbox_service
    response, body, closed = raw_request(client, request_bytes)
    assert response.status == 400
    assert json.loads(body)["error"] == "BadRequest"
    assert response.getheader("Connection") == "close"
    assert closed
    assert client.stats() == {}


def test_a_hundred_headers_are_accepted(mailbox_service):
    client, _ = mailbox_service
    headers = b"".join(b"X-%d: 1\r\n" % i for i in range(98))
    response, body, closed = raw_request(
        client, b"GET /health HTTP/1.1\r\nHost: x\r\n" + headers + b"Content-Length: 0\r\n\r\n"
    )
    assert response.status == 200
    assert json.loads(body) == {"ok": True, "service": "mailbox"}
    assert not closed


@pytest.mark.parametrize(
    "request_head",
    [
        b"GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        b"GET /health HTTP/1.1\r\nHost: x\r\nConnection: Close\r\n\r\n",
        b"GET /health HTTP/1.0\r\n\r\n",
    ],
    ids=["connection_close", "connection_close_any_case", "http_1_0"],
)
def test_reply_closes_when_the_request_asks(mailbox_service, request_head):
    client, _ = mailbox_service
    response, body, closed = raw_request(client, request_head)
    assert response.status == 200
    assert json.loads(body) == {"ok": True, "service": "mailbox"}
    assert response.getheader("Connection") == "close"
    assert closed


def test_two_requests_in_one_write_get_two_replies(mailbox_service):
    client, _ = mailbox_service
    body = json.dumps({"address": BOB.address}).encode()
    request = b"POST /has_account HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)

    class OneStream:
        """Hands every HTTPResponse the same buffered stream, left open."""

        def __init__(self, sock):
            self.stream = sock.makefile("rb")

        def makefile(self, mode):
            return self

        def close(self):
            pass

        def __getattr__(self, name):
            return getattr(self.stream, name)

    with raw_connection(client) as sock:
        sock.sendall(request + request.replace(b"/has_account", b"/create_account"))
        replies = OneStream(sock)
        for result in (False, None):
            response = http.client.HTTPResponse(replies)
            response.begin()
            assert json.loads(response.read()) == {"result": result}
    assert client.has_account(BOB.address) is True


def test_one_rpc_is_one_client_write(monkeypatch):
    writes = []

    class CountedSocket:
        def __init__(self, sock):
            self._sock = sock

        def sendall(self, data):
            writes.append(data)
            return self._sock.sendall(data)

        def __getattr__(self, name):
            return getattr(self._sock, name)

    create_connection = socket.create_connection
    monkeypatch.setattr(
        services.socket,
        "create_connection",
        lambda *args, **kwargs: CountedSocket(create_connection(*args, **kwargs)),
    )
    handle = serve_mailbox(MailboxStore())
    try:
        with MailboxClient(handle.base_url) as client:
            writes.clear()
            client.create_account(BOB.address)
            assert len(writes) == 1
            assert writes[0].startswith(b"POST /create_account HTTP/1.1\r\n")
            assert writes[0].endswith(json.dumps({"address": BOB.address}).encode())
            assert client.has_account(BOB.address) is True
            assert len(writes) == 2
    finally:
        handle.close()


def one_reply_server(reply: bytes) -> tuple[str, threading.Thread]:
    """A listener that reads one whole request, sends `reply` and closes."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer():
        with listener:
            connection, _ = listener.accept()
            with connection, connection.makefile("rb") as request:
                connection.settimeout(5)
                length = 0
                while (line := request.readline()) not in (b"\r\n", b""):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                request.read(length)
                connection.sendall(reply)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    return "http://127.0.0.1:%d" % listener.getsockname()[1], thread


@pytest.mark.parametrize(
    ("reply", "fault"),
    [
        (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"result\": null}",
         "not framed"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 16\r\n\r\n"
         b"{\"result\": null}", "not framed"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\n{\"result\": null}", "cut short"),
        (b"HTTP/1.1 OK\r\nContent-Length: 16\r\n\r\n{\"result\": null}", "unpack"),
        (b"", "closed before the reply"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999\r\n\r\n{\"result\": null}",
         "is over"),
    ],
    ids=["no_length", "chunked", "cut_short", "bad_status_line", "no_reply", "huge_length"],
)
def test_unframed_reply_is_a_service_error(reply, fault):
    base_url, thread = one_reply_server(reply)
    with RegistryClient(base_url, timeout=5) as client:
        with pytest.raises(ServiceError, match=fault):
            client.domain_of(ALICE.address)
        thread.join(timeout=5)
        assert not thread.is_alive()
        # the faulty connection is dropped: the next call reconnects, and
        # with the listener gone that is refused
        with pytest.raises(ServiceError, match="ConnectionRefused"):
            client.domain_of(ALICE.address)


# ---------------------------------------------------------------------------
# batches: one round trip, the same calls as an in-process loop

PAUPER = derive_identity("service test pauper")
WHO = {"alice": ALICE, "bob": BOB, "pauper": PAUPER}
DOMAINS = ("van.example", "bike.example", "not a domain")


def _first_challenges(count: int) -> list[str]:
    registry = Registry()
    return [registry.aname_claim(f"d{i}.example", ALICE.address).hex() for i in range(count)]


def _register_call(who: str, sequence: int, forged: bool) -> tuple:
    # in-process argument order, less the ledger the client does not send
    args = signed_registration(WHO[who], sequence, metadata={"geo": who})
    if forged:
        other = BOB if who == "alice" else ALICE
        args["signature"] = signed_registration(other, sequence)["signature"]
    return ("register", None, *args.values())


def _retrieve_call(who: str, nonce: int, forged: bool) -> tuple:
    signer = (BOB if who == "alice" else ALICE) if forged else WHO[who]
    auth = signer.sign_digest(retrieval_auth_digest(WHO[who].address, nonce))
    return ("retrieve", WHO[who].address, nonce, auth)


CHALLENGES = _first_challenges(2)
_who = st.sampled_from(sorted(WHO))
_forged = st.sampled_from([False, False, False, True])
_small = st.sampled_from([0, 0, 1, 2])  # a sequence or nonce, most often the first
_domain = st.sampled_from(DOMAINS)
_address = _who.map(lambda who: WHO[who].address)

REGISTRY_CALLS = st.one_of(
    st.builds(_register_call, _who, _small, _forged),
    st.builds(_register_call, _who, _small, _forged),
    st.tuples(
        st.just("search"), st.sampled_from([0, 60]), st.none(), st.none(),
        st.sampled_from([None, "alice", "bob"]),
    ),
    st.tuples(st.just("resolve"), _address, st.sampled_from([0, 60])),
    st.tuples(st.just("aname_claim"), _domain, _address),
    st.tuples(st.just("dns_publish"), _domain, st.sampled_from(CHALLENGES + ["junk"])),
    st.tuples(st.just("aname_verify"), _domain, st.none(), st.sampled_from([0, 5])),
    st.tuples(st.just("resolve_domain"), _domain),
    st.tuples(st.just("domain_of"), _address),
)

_ENVELOPES = [
    sealed_chat(ALICE, BOB.address, "to bob"),
    sealed_chat(BOB, ALICE.address, "to alice"),
    sealed_chat(PAUPER, ALICE.address, "short-lived", expires_at=3),
]
# a valid signature over another envelope's bytes
_ENVELOPES.append(dataclasses.replace(_ENVELOPES[0], signature=_ENVELOPES[1].signature))

MAILBOX_CALLS = st.one_of(
    st.tuples(st.just("create_account"), _address),
    st.tuples(st.just("has_account"), _address),
    st.tuples(st.just("next_nonce"), _address),
    st.tuples(st.just("deposit"), st.sampled_from(_ENVELOPES), st.sampled_from([0, 9])),
    st.builds(_retrieve_call, _who, _small, _forged),
    st.tuples(st.just("acknowledge"), _address),
    st.tuples(st.just("stats")),
)


def _fresh():
    """Ledger, registry, resolver and mailbox as every batch example starts
    them: alice can pay two registrations, bob ten, the pauper none."""
    ledger = Ledger()
    ledger.mint(ALICE.wallet_address, fet(2))
    ledger.mint(BOB.wallet_address, fet(10))
    return ledger, Registry(ttl=50, fee=fet(1)), FixtureDnsResolver(), MailboxStore(2)


def _in_process_call(call: tuple, ledger: Ledger, registry: Registry, dns, store: MailboxStore):
    """What a client call amounts to on the in-process objects: the held
    ledger and resolver filled in, and the resolver's own publish."""
    name, *args = call
    if name == "register":
        return registry.register(ledger, *args[1:])
    if name == "aname_verify":
        return registry.aname_verify(args[0], dns, args[2])
    if name == "dns_publish":
        return dns.publish(*args)
    return getattr(store if name in services.MailboxClient._stubs else registry, name)(*args)


def _comparable(value):
    if isinstance(value, list):
        return [_comparable(item) for item in value]
    return value.to_bytes() if hasattr(value, "to_bytes") else value


def _outcome(run) -> tuple:
    """The calls' results, or the error they ended in as type, message and
    fields."""
    try:
        return ("returned", _comparable(run()))
    except Exception as exc:  # the error itself is what is compared
        return ("raised", type(exc), str(exc), vars(exc))


def _state(ledger: Ledger, registry: Registry, dns, store: MailboxStore) -> dict:
    queues = {owner: [env.to_bytes() for env in queue] for owner, queue in store.queues.items()}
    return {
        "records": registry.records, "sequences": registry.last_sequence,
        "anames": registry.anames, "rng": registry.rng.getstate(), "txt": dns.txt,
        "balances": ledger.balances, "fee_sink": ledger.fee_sink,
        "journal": journal_lines(ledger.journal), "queues": queues, "pending": store.pending,
        "nonces": store.last_nonce, "deposited": store.deposited_total,
        "dropped": store.dropped_total,
    }


@pytest.fixture(scope="module")
def batch_pair():
    """A served registry and mailbox whose objects each example resets in
    place, and their clients."""
    ledger, registry, dns, store = served = _fresh()
    registry_handle = serve_registry(registry, ledger, dns)
    mailbox_handle = serve_mailbox(store)
    with RegistryClient(registry_handle.base_url) as registry_client, MailboxClient(
        mailbox_handle.base_url
    ) as mailbox_client:
        yield served, registry_client, mailbox_client
    registry_handle.close()
    mailbox_handle.close()


@contextlib.contextmanager
def logged_methods():
    """Log (object id, method name) for every registry, resolver and
    mailbox method a remote call can run, served or in-process."""
    log: list[tuple[int, str]] = []
    owners = {cls.__name__: cls for cls in (Registry, FixtureDnsResolver, MailboxStore)}

    def logged(method):
        def run(self, *args, **kwargs):
            log.append((id(self), method.__name__))
            return method(self, *args, **kwargs)
        return run

    with pytest.MonkeyPatch.context() as patch:
        for rpc in services._REGISTRY_RPCS + services._MAILBOX_RPCS:
            owner = owners[rpc.function.__qualname__.split(".")[0]]
            patch.setattr(owner, rpc.function.__name__, logged(rpc.function))
        yield log


def _check_batch_parity(batch_pair, calls: list[tuple], client_index: int):
    served, *clients = batch_pair
    for obj, fresh in zip(served, _fresh()):
        vars(obj).clear()
        vars(obj).update(vars(fresh))
    local = _fresh()
    with logged_methods() as log:
        expected = _outcome(lambda: [_in_process_call(call, *local) for call in calls])
        got = _outcome(lambda: clients[client_index].call_many(calls))
    event(got[0] if got[0] == "returned" else got[1].__name__)
    assert got == expected

    def run_on(objects):
        ids = {id(obj) for obj in objects}
        return [name for owner, name in log if owner in ids]

    # the same methods ran, in the same order, and stopped at the same call
    assert run_on(served) == run_on(local)
    assert _state(*served) == _state(*local)


@settings(max_examples=60, deadline=None)
@given(calls=st.lists(REGISTRY_CALLS, max_size=12))
@example(calls=[_register_call("alice", 0, False), _register_call("alice", 2, False)])
@example(calls=[_register_call("bob", 0, False), _register_call("alice", 0, True)])
@example(calls=[_register_call("alice", 0, False), _register_call("alice", 1, False),
                _register_call("alice", 2, False)])
@example(calls=[("aname_claim", "van.example", ALICE.address),
                ("dns_publish", "van.example", CHALLENGES[0]),
                ("aname_verify", "van.example", None, 5), ("resolve_domain", "van.example"),
                ("domain_of", ALICE.address), ("aname_claim", "van.example", BOB.address)])
@example(calls=[("aname_claim", "van.example", ALICE.address),
                ("aname_verify", "van.example", None, 5)])
@example(calls=[("aname_claim", "van.example", ALICE.address),
                ("aname_verify", "bike.example", None, 5)])
def test_registry_batch_matches_an_in_process_loop(batch_pair, calls):
    _check_batch_parity(batch_pair, calls, 0)


@settings(max_examples=60, deadline=None)
@given(calls=st.lists(MAILBOX_CALLS, max_size=12))
@example(
    calls=[("create_account", BOB.address), ("deposit", _ENVELOPES[0], 0),
           ("deposit", _ENVELOPES[3], 0), ("stats",), _retrieve_call("bob", 0, False),
           ("acknowledge", BOB.address), _retrieve_call("bob", 0, False)],
)
@example(calls=[_retrieve_call("alice", 0, False), _retrieve_call("alice", 1, True)])
def test_mailbox_batch_matches_an_in_process_loop(batch_pair, calls):
    _check_batch_parity(batch_pair, calls, 1)


@pytest.mark.parametrize("path", ["/no_such_route", "/batch", "/config", "/health"])
def test_a_batch_with_a_path_it_cannot_run_applies_nothing(mailbox_service, path):
    client, store = mailbox_service
    calls = [["/create_account", {"address": BOB.address}], [path, {}]]
    with pytest.raises(ServiceError, match="BadRequest"):
        client._post("/batch", {"calls": calls})
    assert store.queues == {}


@pytest.mark.parametrize("extra, runs", [(0, True), (1, False)])
def test_a_batch_runs_only_up_to_the_call_cap(mailbox_service, extra, runs):
    client, store = mailbox_service
    stats = ["/stats", {}]
    calls = [["/create_account", {"address": BOB.address}]]
    calls += [stats] * (services._MAX_BATCH_CALLS - 1 + extra)
    if runs:
        assert len(client._post("/batch", {"calls": calls})["result"]) == len(calls)
        assert BOB.address in store.queues
    else:
        with pytest.raises(ServiceError, match="at most 4096 calls"):
            client._post("/batch", {"calls": calls})
        assert store.queues == {}


def test_a_failing_batch_replies_as_its_failing_call_would(registry_service):
    client, registry, _, _ = registry_service
    args = signed_registration(ALICE)
    client.register(None, **args)
    replay = client._stubs["register"][1](None, **args)
    alone = services._exchange(client._connection, "POST", "/register", json.dumps(replay).encode())
    batch = {"calls": [["/domain_of", {"agent_address": ALICE.address}], ["/register", replay],
                       ["/aname/claim", {"domain": "van.example", "agent_address": ALICE.address}]]}
    batched = services._exchange(client._connection, "POST", "/batch", json.dumps(batch).encode())
    assert batched == alone
    assert json.loads(alone[1])["attrs"] == {"expected": 1, "got": 0}
    assert registry.anames == {}  # the call after the failure never ran


def test_a_long_batch_does_not_stall_other_clients(monkeypatch):
    """The server takes its lock per call, so while a batch waits between
    two of its calls, another client's call runs."""
    entered, release = threading.Event(), threading.Event()
    decoded = []

    def decode_address(address):
        # the server decodes a call's arguments before it takes the lock,
        # so this wait falls between the batch's first and second calls
        decoded.append(address)
        if address == BOB.address and decoded.count(address) == 2:
            entered.set()
            release.wait(timeout=10)
        return address

    monkeypatch.setitem(services._ARGUMENT_CODECS, "address", (str, decode_address))
    handle = serve_mailbox(MailboxStore())  # its routes take the decoder above
    calls = [("create_account", BOB.address), ("next_nonce", BOB.address)]
    results = []
    with MailboxClient(handle.base_url) as client:
        batch = threading.Thread(target=lambda: results.append(client.call_many(calls)))
        batch.start()
        try:
            assert entered.wait(timeout=5)
            with MailboxClient(handle.base_url, timeout=2) as other:
                assert other.has_account(ALICE.address) is False
            assert batch.is_alive()
        finally:
            release.set()
            batch.join(timeout=5)
    handle.close()
    assert results == [[None, 0]]


def test_a_retrieve_reply_fits_the_cap_and_no_mail_is_lost(mailbox_service):
    """Three 3 MB envelopes would make an 18 MB retrieve reply, over the
    16 MiB a client reads. The queue's byte bound refuses the deposit that
    would not fit, so its sender knows, and the retrieve hands back the rest."""
    client, store = mailbox_service
    client.create_account(BOB.address)
    sent = [sealed_chat(ALICE, BOB.address, str(n) * 3_000_000) for n in range(3)]
    assert [client.deposit(env, 0).reason for env in sent] == [None, "Full", "Full"]
    auth = BOB.sign_digest(retrieval_auth_digest(BOB.address, 0))
    assert [env.to_bytes() for env in client.retrieve(BOB.address, 0, auth)] == [
        sent[0].to_bytes()
    ]
    assert client.acknowledge(BOB.address) == 1
    assert store.queues[BOB.address] == []


def test_a_refused_batch_of_retrieves_loses_no_mail(mailbox_service):
    """Three retrieves on three accounts, each holding one 3 MB envelope,
    make an 18 MB reply. The server refuses it, yet each account's next
    retrieve still hands back its envelope: nothing is gone until acked."""
    client, _ = mailbox_service
    owners = [derive_identity(f"batch owner {n}") for n in range(3)]
    sent = {}
    for n, owner in enumerate(owners):
        client.create_account(owner.address)
        sent[owner.address] = sealed_chat(ALICE, owner.address, str(n) * 3_000_000)
        assert client.deposit(sent[owner.address], 0).accepted
    calls = [
        ("retrieve", owner.address, 0,
         owner.sign_digest(retrieval_auth_digest(owner.address, 0)))
        for owner in owners
    ]
    with pytest.raises(ServiceError, match="BadRequest: reply of .* bytes is over"):
        client.call_many(calls)
    for owner in owners:
        auth = owner.sign_digest(retrieval_auth_digest(owner.address, 1))
        batch = client.retrieve(owner.address, 1, auth)
        assert [env.to_bytes() for env in batch] == [sent[owner.address].to_bytes()]


def test_a_reply_over_the_cap_is_refused_by_the_server(mailbox_service, monkeypatch):
    client, store = mailbox_service
    monkeypatch.setattr(services, "_MAX_BODY", 1000)
    for n in range(20):
        store.create_account(derive_identity(f"owner {n}").address)
    with pytest.raises(ServiceError, match="BadRequest: reply of .* bytes is over 1000"):
        client.stats()  # a reply of about 1.5 KB
    assert client.has_account(ALICE.address) is False  # the connection is kept


def test_call_many_checks_every_call_before_sending(mailbox_service, monkeypatch):
    client, store = mailbox_service
    sent = []
    monkeypatch.setattr(services, "_post", lambda *args: sent.append(args))
    assert client.call_many([]) == []
    with pytest.raises(AttributeError, match="drop_queue"):
        client.call_many([("create_account", BOB.address), ("drop_queue", BOB.address)])
    with pytest.raises(TypeError, match=r"MailboxClient\.deposit\(\) missing"):
        client.call_many([("create_account", BOB.address), ("deposit", None)])
    assert sent == [] and store.queues == {}


# ---------------------------------------------------------------------------
# the whole scenario behind services

def test_scenario_behind_services_matches_in_process():
    config = default_config()
    baseline = run_scenario(config)

    ledger = Ledger()
    registry = Registry(ttl=config.registry_ttl, fee=fet(config.registration_fee_fet))
    store = MailboxStore()
    dns = FixtureDnsResolver()
    registry_handle = serve_registry(registry, ledger, dns)
    mailbox_handle = serve_mailbox(store)
    try:
        with RegistryClient(registry_handle.base_url) as registry_client, MailboxClient(
            mailbox_handle.base_url
        ) as mailbox_client:
            report = run_scenario(
                config, registry=registry_client, mailbox=mailbox_client, ledger=ledger
            )
    finally:
        registry_handle.close()
        mailbox_handle.close()

    assert report.status == "ok"
    assert report.encoded_hex() == baseline.encoded_hex()
    assert report.transcript_sha256() == baseline.transcript_sha256()


def test_a_services_order_makes_thirteen_round_trips(monkeypatch):
    # set-up sends three batches (mailbox accounts; registrations with their
    # domain claims; TXT publish and verify pairs), the order itself ten
    # calls: four searches; the deposit of the call for bids to the offline
    # courier; next_nonce, retrieve and acknowledge when it reconnects;
    # domain_of and resolve
    config = with_overrides(
        default_config(),
        offline=(PresenceWindow("CamBikeExpress", 7, 17),),
        bid_window_ticks=14,
    )
    ledger, registry_handle, mailbox_handle = served_pair(config)
    paths = []
    post = services._post

    def counted(connection, path, payload):
        paths.append(path)
        return post(connection, path, payload)

    try:
        with RegistryClient(registry_handle.base_url) as registry_client, MailboxClient(
            mailbox_handle.base_url
        ) as mailbox_client:
            monkeypatch.setattr(services, "_post", counted)
            scenario = build_scenario(
                config, registry=registry_client, mailbox=mailbox_client, ledger=ledger
            )
            setup = list(paths)
            report = scenario.place_order()
    finally:
        registry_handle.close()
        mailbox_handle.close()
    assert report.status == "ok"
    assert setup == ["/batch"] * 3
    assert len(paths) == 13
    assert report.encoded_hex() == run_scenario(config).encoded_hex()


# ---------------------------------------------------------------------------
# a service gone before or during an order

def served_pair(config):
    ledger = Ledger()
    registry = Registry(ttl=config.registry_ttl, fee=fet(config.registration_fee_fet))
    return ledger, serve_registry(registry, ledger), serve_mailbox(MailboxStore())


def test_registry_gone_before_the_run_fails_typed():
    config = default_config()
    ledger, registry_handle, mailbox_handle = served_pair(config)
    registry_handle.close()
    try:
        with RegistryClient(registry_handle.base_url) as registry_client, MailboxClient(
            mailbox_handle.base_url
        ) as mailbox_client:
            report = run_scenario(
                config, registry=registry_client, mailbox=mailbox_client, ledger=ledger
            )
    finally:
        mailbox_handle.close()
    assert report.status == "failed"
    assert report.failure_cause.startswith("ServiceError")


@pytest.mark.parametrize("gone", ["registry", "mailbox"])
def test_service_gone_mid_order_fails_typed(gone):
    # CamBikeExpress is offline across the call for bids, so its bid
    # request is parked in the mailbox and fetched when it reconnects
    config = with_overrides(
        default_config(), offline=(PresenceWindow("CamBikeExpress", 7, 17),)
    )
    ledger, registry_handle, mailbox_handle = served_pair(config)
    try:
        with RegistryClient(registry_handle.base_url) as registry_client, MailboxClient(
            mailbox_handle.base_url
        ) as mailbox_client:
            scenario = build_scenario(
                config, registry=registry_client, mailbox=mailbox_client, ledger=ledger
            )
            {"registry": registry_handle, "mailbox": mailbox_handle}[gone].close()
            report = scenario.place_order()
    finally:
        registry_handle.close()
        mailbox_handle.close()
    assert report.status == "failed"
    assert report.failure_cause.startswith("ServiceError")
    assert report.conserved
    assert scenario.user_agent.waiters == {}
