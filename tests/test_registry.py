"""Registration proofs, expiry, search, sequence protection, ANAME."""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from agentmesh import identity as identity_module
from agentmesh.contractnet import COURIER_AUCTION
from agentmesh.identity import Signature, derive_identity
from agentmesh.ledger import InsufficientFunds, Ledger, fet, journal_lines
from agentmesh.registry import (
    AlreadyVerified,
    AnameState,
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

AUCTION_DIGEST = COURIER_AUCTION.digest()


def funded(ledger: Ledger, identity) -> None:
    ledger.mint(identity.wallet_address, fet(10))


def signed_registration(identity, sequence, protocols=(), endpoint="sim://ep", metadata=None):
    metadata = metadata or {}
    digest = registration_signing_digest(
        identity.address, sequence, protocols, endpoint, metadata
    )
    return {
        "address": identity.address,
        "endpoint": endpoint,
        "protocol_digests": protocols,
        "metadata": metadata,
        "sequence": sequence,
        "signature": identity.sign_digest(digest),
        "fee_wallet": identity.wallet_address,
    }


def do_register(registry, ledger, identity, sequence, **kw):
    return registry.register(ledger, **signed_registration(identity, sequence, **kw))


class TestRegister:
    def test_first_registration(self):
        registry, ledger = Registry(), Ledger()
        courier = derive_identity("courier zero")
        funded(ledger, courier)
        expires = do_register(registry, ledger, courier, 0, protocols=(AUCTION_DIGEST,))
        assert expires == ledger.height + 500
        assert ledger.fee_sink == fet(1)
        record = registry.records[courier.address]
        assert record.sequence == 0
        assert AUCTION_DIGEST in record.protocol_digests

    def test_signing_digest_matches_oracle(self):
        identity = derive_identity("digest check")
        metadata = {"geo": "cambridge", "service_type": "courier"}
        ours = registration_signing_digest(
            identity.address, 3, [AUCTION_DIGEST], "sim://x", metadata
        )
        theirs = oracles.registration_signing_digest(
            identity.address, 3, [AUCTION_DIGEST], "sim://x", metadata
        )
        assert ours == theirs

    def test_replayed_sequence_rejected(self):
        registry, ledger = Registry(), Ledger()
        courier = derive_identity("replayer")
        funded(ledger, courier)
        do_register(registry, ledger, courier, 0)
        with pytest.raises(BadSequence) as err:
            do_register(registry, ledger, courier, 0)
        assert err.value.expected == 1
        assert err.value.got == 0

    def test_skipped_sequence_rejected(self):
        registry, ledger = Registry(), Ledger()
        courier = derive_identity("skipper")
        funded(ledger, courier)
        do_register(registry, ledger, courier, 0)
        with pytest.raises(BadSequence):
            do_register(registry, ledger, courier, 2)

    def test_wrong_key_rejected(self):
        registry, ledger = Registry(), Ledger()
        honest = derive_identity("honest")
        imposter = derive_identity("imposter")
        funded(ledger, imposter)
        fields = signed_registration(honest, 0)
        forged_digest = registration_signing_digest(
            honest.address, 0, (), fields["endpoint"], {}
        )
        fields["signature"] = imposter.sign_digest(forged_digest)
        fields["fee_wallet"] = imposter.wallet_address
        with pytest.raises(BadSignature):
            registry.register(ledger, **fields)

    def test_tampered_field_rejected(self):
        registry, ledger = Registry(), Ledger()
        courier = derive_identity("tampered")
        funded(ledger, courier)
        fields = signed_registration(courier, 0, endpoint="sim://real")
        fields["endpoint"] = "sim://evil"
        with pytest.raises(BadSignature):
            registry.register(ledger, **fields)

    @pytest.mark.parametrize(
        "field, value",
        [("sequence", 2**64), ("endpoint", 5), ("metadata", {"geo": 5})],
        ids=["sequence_past_i64", "endpoint_int", "metadata_value_int"],
    )
    def test_registration_no_key_could_sign_is_bad_signature(self, field, value):
        registry, ledger = Registry(), Ledger()
        courier = derive_identity("unsignable")
        funded(ledger, courier)
        fields = signed_registration(courier, 0)
        fields[field] = value
        with pytest.raises(BadSignature):
            registry.register(ledger, **fields)
        assert registry.records == {} and ledger.fee_sink == 0

    def test_unpayable_fee_refused(self):
        registry, ledger = Registry(), Ledger()
        broke = derive_identity("broke")
        with pytest.raises(InsufficientFunds):
            do_register(registry, ledger, broke, 0)
        assert broke.address not in registry.records
        # the failed attempt must not consume the sequence number
        funded(ledger, broke)
        do_register(registry, ledger, broke, 0)

    def test_zero_fee_registry_needs_no_funds(self):
        # the standalone daemon defaults to fee 0; an empty wallet must do
        registry, ledger = Registry(fee=0), Ledger()
        courier = derive_identity("free rider")
        expires = do_register(registry, ledger, courier, 0)
        assert expires == registry.ttl
        assert ledger.fee_sink == 0

    def test_reregistration_replaces_window(self):
        registry, ledger = Registry(), Ledger()
        courier = derive_identity("renewer")
        funded(ledger, courier)
        do_register(registry, ledger, courier, 0)
        ledger.advance_block(400)
        expires = do_register(registry, ledger, courier, 1)
        assert expires == 400 + 500
        assert ledger.fee_sink == fet(2)  # fee charged every time

    def test_fee_coupling(self):
        registry, ledger = Registry(), Ledger()
        accepted = 0
        for i in range(12):
            identity = derive_identity(f"fee coupling {i}")
            funded(ledger, identity)
            do_register(registry, ledger, identity, 0)
            accepted += 1
            if i % 3 == 0:  # replay attempts must not add fees
                with pytest.raises(BadSequence):
                    do_register(registry, ledger, identity, 0)
        assert ledger.fee_sink == accepted * registry.fee


class TestSearchResolve:
    def build_world(self):
        registry, ledger = Registry(), Ledger()
        couriers = []
        for i in range(3):
            identity = derive_identity(f"search courier {i}")
            funded(ledger, identity)
            do_register(
                registry, ledger, identity, 0,
                protocols=(AUCTION_DIGEST,),
                metadata={"service_type": "courier", "geo": "cambridge"},
            )
            couriers.append(identity)
        packaging = derive_identity("search packaging")
        funded(ledger, packaging)
        do_register(
            registry, ledger, packaging, 0,
            metadata={"service_type": "packaging", "geo": "cambridge"},
        )
        return registry, ledger, couriers, packaging

    def test_search_by_protocol(self):
        registry, ledger, couriers, _ = self.build_world()
        hits = registry.search(ledger.height, protocol_digest=AUCTION_DIGEST)
        assert [h.address for h in hits] == sorted(c.address for c in couriers)

    def test_expired_record_filtered(self):
        registry, ledger, couriers, _ = self.build_world()
        ledger.advance_block(501)
        assert registry.search(ledger.height, protocol_digest=AUCTION_DIGEST) == []

    def test_boundary_height_still_live(self):
        registry, ledger, couriers, _ = self.build_world()
        ledger.advance_block(500)  # expires_at == height: still live
        hits = registry.search(ledger.height, protocol_digest=AUCTION_DIGEST)
        assert len(hits) == 3

    def test_geo_search_finds_packaging(self):
        registry, ledger, _, packaging = self.build_world()
        hits = registry.search(
            ledger.height, metadata={"service_type": "packaging"}, geo="cambridge"
        )
        assert [h.address for h in hits] == [packaging.address]

    def test_empty_registry(self):
        assert Registry().search(0) == []

    def test_resolve_live(self):
        registry, ledger, couriers, _ = self.build_world()
        record = registry.resolve(couriers[0].address, ledger.height)
        assert record.address == couriers[0].address

    def test_resolve_expired(self):
        registry, ledger, couriers, _ = self.build_world()
        ledger.advance_block(501)
        with pytest.raises(Expired):
            registry.resolve(couriers[0].address, ledger.height)

    def test_resolve_unknown(self):
        with pytest.raises(NotFound):
            Registry().resolve("agent1" + "q" * 52, 0)

    def test_search_matches_brute_force_oracle(self):
        registry, ledger, _, _ = self.build_world()
        ledger.advance_block(123)
        mirror = [
            {
                "address": r.address,
                "expires_at": r.expires_at,
                "protocol_digests": set(r.protocol_digests),
                "metadata": dict(r.metadata),
            }
            for r in registry.records.values()
        ]
        expected = oracles.brute_force_search(
            mirror, AUCTION_DIGEST, {"service_type": "courier"}, "cambridge", ledger.height
        )
        ours = registry.search(
            ledger.height,
            protocol_digest=AUCTION_DIGEST,
            metadata={"service_type": "courier"},
            geo="cambridge",
        )
        assert [r.address for r in ours] == [r["address"] for r in expected]


class TestSequenceFuzz:
    def test_random_accept_reject_interleavings_stay_monotone(self):
        rng = random.Random(7)
        registry, ledger = Registry(), Ledger()
        identities = [derive_identity(f"fuzz {i}") for i in range(5)]
        for identity in identities:
            ledger.mint(identity.wallet_address, fet(1000))
        accepted: dict[str, list[int]] = {i.address: [] for i in identities}
        for _ in range(300):
            identity = rng.choice(identities)
            next_seq = len(accepted[identity.address])
            seq = rng.choice([next_seq, next_seq, max(0, next_seq - 1), next_seq + 3])
            try:
                do_register(registry, ledger, identity, seq)
                accepted[identity.address].append(seq)
            except BadSequence:
                pass
        for seqs in accepted.values():
            assert seqs == sorted(set(seqs))
            assert seqs == list(range(len(seqs)))


class TestAname:
    def test_claim_and_verify(self):
        registry = Registry()
        agent = derive_identity("speedy domain")
        challenge = registry.aname_claim("speedyvan.example.agent", agent.address)
        assert len(challenge) == 32
        dns = FixtureDnsResolver()
        dns.publish("speedyvan.example.agent", challenge.hex())
        record = registry.aname_verify("speedyvan.example.agent", dns, current_height=9)
        assert record.state is AnameState.VERIFIED
        assert record.verified_at == 9
        assert registry.resolve_domain("speedyvan.example.agent") == agent.address

    def test_reclaim_replaces_nonce(self):
        registry = Registry()
        agent = derive_identity("reclaimer")
        first = registry.aname_claim("re.example", agent.address)
        second = registry.aname_claim("re.example", agent.address)
        assert first != second
        assert registry.anames["re.example"].challenge == second

    def test_claim_verified_domain_rejected(self):
        registry = Registry()
        agent = derive_identity("owner")
        challenge = registry.aname_claim("owned.example", agent.address)
        dns = FixtureDnsResolver({"owned.example": [challenge.hex()]})
        registry.aname_verify("owned.example", dns, 0)
        with pytest.raises(AlreadyVerified):
            registry.aname_claim("owned.example", derive_identity("thief").address)

    def test_missing_txt(self):
        registry = Registry()
        registry.aname_claim("absent.example", derive_identity("absent").address)
        with pytest.raises(ChallengeAbsent):
            registry.aname_verify("absent.example", FixtureDnsResolver(), 0)
        assert registry.anames["absent.example"].state is AnameState.CHALLENGED

    def test_wrong_nonce(self):
        registry = Registry()
        registry.aname_claim("wrong.example", derive_identity("wrong").address)
        dns = FixtureDnsResolver({"wrong.example": ["00" * 32]})
        with pytest.raises(ChallengeAbsent):
            registry.aname_verify("wrong.example", dns, 0)

    def test_never_claimed(self):
        with pytest.raises(NotClaimed):
            Registry().aname_verify("never.example", FixtureDnsResolver(), 0)

    def test_unresolved_domain(self):
        with pytest.raises(NotFound):
            Registry().resolve_domain("nobody.example")

    def test_challenge_nonces_deterministic_per_seed(self):
        a = Registry(rng=random.Random(42))
        b = Registry(rng=random.Random(42))
        addr = derive_identity("det").address
        assert a.aname_claim("det.example", addr) == b.aname_claim("det.example", addr)


CASTING = [derive_identity(f"batch registrant {i}") for i in range(3)]
UNFUNDED = derive_identity("batch registrant without funds")


@st.composite
def register_batches(draw):
    """(who, sequence, signer, fee payer, domain, call fault) per call:
    in-order registrations of three agents, with one drawn registration
    fault and at most two drawn call faults at drawn positions, and aname
    claims among them."""
    whos = draw(st.lists(st.integers(0, 2), min_size=1, max_size=20))
    fault = draw(st.sampled_from(["none", "signature", "sequence", "fee"]))
    at = draw(st.integers(0, len(whos) - 1))
    call_faults = dict(draw(st.lists(
        st.tuples(st.integers(0, len(whos) - 1),
                  st.sampled_from(["unknown method", "arity", "endpoint", "digests", "repeat"])),
        max_size=2,
    )))
    claims = draw(st.lists(st.booleans(), min_size=len(whos), max_size=len(whos)))
    rows, counts = [], [0, 0, 0]
    for position, who in enumerate(whos):
        sequence, signer, payer = counts[who], CASTING[who], CASTING[who]
        if position == at and fault == "signature":
            signer = CASTING[(who + 1) % 3]
        elif position == at and fault == "sequence":
            sequence += 1
        elif position == at and fault == "fee":
            payer = UNFUNDED
        domain = f"d{position}.example" if claims[position] else ""
        rows.append((who, sequence, signer, payer, domain, call_faults.get(position, "")))
        counts[who] += 1
    return rows


def batch_calls(ledger: Ledger, rows) -> list[tuple]:
    """The rows' calls. A call fault makes a `register` call with an endpoint
    that is not a str, with no protocol digests to iterate or without its
    fee payer, takes the same signed registration twice (the repeat is a
    BadSequence), or follows the registration with a call of a method the
    registry lacks."""
    calls = []
    for who, sequence, signer, payer, domain, call_fault in rows:
        address, metadata = CASTING[who].address, {"seq": str(sequence), "who": str(who)}
        endpoint = 7 if call_fault == "endpoint" else "sim://b"
        digest = registration_signing_digest(address, sequence, [AUCTION_DIGEST], "sim://b", metadata)
        signature = signer.sign_digest(digest)
        for _ in range(2 if call_fault == "repeat" else 1):
            digests = None if call_fault == "digests" else iter([AUCTION_DIGEST])
            call = ("register", ledger, address, endpoint, digests, metadata,
                    sequence, signature, payer.wallet_address)
            calls.append(call[:-1] if call_fault == "arity" else call)
        if call_fault == "unknown method":
            calls.append(("unregister", address))
        if domain:
            calls.append(("aname_claim", domain, address))
    return calls


def batch_state(registry: Registry, ledger: Ledger, outcome) -> tuple:
    return (
        outcome,
        registry.records,
        registry.last_sequence,
        registry.anames,
        ledger.balances,
        ledger.fee_sink,
        journal_lines(ledger.journal),
    )


@given(register_batches())
@settings(max_examples=60, deadline=None)
def test_call_many_is_a_loop_of_register(rows):
    """The same results, the same first exception, and the same records,
    balances and journal as register called once a call, with the
    signature checks of a batch of 8 or more worked out on the pool."""
    states = []
    for batched in (True, False):
        registry, ledger = Registry(), Ledger()
        for identity in CASTING:
            funded(ledger, identity)
        calls = batch_calls(ledger, rows)
        results = []
        try:
            if batched:
                results = registry.call_many(calls)
            else:
                for name, *args in calls:
                    results.append(getattr(registry, name)(*args))
            outcome = ("ok", results)
        except (AttributeError, BadSequence, BadSignature, InsufficientFunds, TypeError) as exc:
            # a batch hands back no results, only its first error
            outcome = (type(exc), str(exc))
        states.append(batch_state(registry, ledger, outcome))
    assert states[0] == states[1]


def test_call_many_checks_each_registration_once(monkeypatch):
    """Each register call's signature is checked once, on whichever thread
    takes the check first."""
    counts, lock = {}, threading.Lock()
    verify = identity_module.verify_digest

    def counted(address, digest, signature):
        with lock:
            counts[digest] = counts.get(digest, 0) + 1
        return verify(address, digest, signature)

    monkeypatch.setattr(identity_module, "verify_digest", counted)
    rows = [(who, sequence, CASTING[who], CASTING[who], "", "")
            for sequence in range(6) for who in range(3)]
    registry, ledger = Registry(), Ledger()
    for identity in CASTING:
        funded(ledger, identity)
    assert len(registry.call_many(batch_calls(ledger, rows))) == 18
    assert sorted(counts.values()) == [1] * 18
    assert registry.last_sequence == {identity.address: 5 for identity in CASTING}
