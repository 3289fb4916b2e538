"""Registry and mailbox over HTTP: operation parity with the in-process
objects, error types surviving the wire, and the full scenario running
unchanged behind service clients."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.request

import pytest

from agentmesh.config import PresenceWindow, default_config, with_overrides
from agentmesh.identity import derive_identity
from agentmesh.ledger import InsufficientFunds, Ledger, fet
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


def test_ack_mode_redelivery_over_http():
    store = MailboxStore(ack_mode=True)
    handle = serve_mailbox(store)
    try:
        with MailboxClient(handle.base_url) as client:
            assert client.ack_mode is True  # picked up from /config
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
    finally:
        handle.close()


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
    ],
    ids=[
        "chunked", "length_and_chunked", "negative_length", "underscored_length",
        "two_lengths", "header_over_64KiB", "101_headers", "no_colon",
        "request_line_over_64KiB", "http_2", "no_version",
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
    ],
    ids=["no_length", "chunked", "cut_short", "bad_status_line", "no_reply"],
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
            report = scenario.orchestrator.run()
    finally:
        registry_handle.close()
        mailbox_handle.close()
    assert report.status == "failed"
    assert report.failure_cause.startswith("ServiceError")
    assert report.conserved
