"""Registry and mailbox over HTTP: operation parity with the in-process
objects, error types surviving the wire, and the full scenario running
unchanged behind service clients."""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from agentmesh.config import default_config
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
from agentmesh.scenario import run_scenario
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
    client = RegistryClient(handle.base_url)
    yield client, registry, ledger, dns
    handle.close()


@pytest.fixture
def mailbox_service():
    store = MailboxStore()
    handle = serve_mailbox(store)
    yield MailboxClient(handle.base_url), store
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

    cambridge = client.search(0, geo="cambridge")
    assert [r.address for r in cambridge] == [ALICE.address]
    assert client.search(0, metadata={"geo": "london"}) == registry.search(
        0, metadata={"geo": "london"}
    )


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
        client = MailboxClient(handle.base_url)
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
        report = run_scenario(
            config,
            registry=RegistryClient(registry_handle.base_url),
            mailbox=MailboxClient(mailbox_handle.base_url),
            ledger=ledger,
        )
    finally:
        registry_handle.close()
        mailbox_handle.close()

    assert report.status == "ok"
    assert report.encoded_hex() == baseline.encoded_hex()
    assert report.transcript_sha256() == baseline.transcript_sha256()
