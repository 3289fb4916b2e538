"""Store-and-forward queues: deposit rules, authenticated retrieval, and
at-least-once delivery: nothing leaves a queue until it is acknowledged."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import oracles
from agentmesh.contractnet import CALL_FOR_BIDS, COURIER_AUCTION
from agentmesh.identity import Signature, derive_identity
from agentmesh.mailbox import (
    BadAuth,
    DEFAULT_CAPACITY,
    QUEUE_MAX_BYTES,
    MailboxStore,
    NoPendingRetrieve,
    ReplayedNonce,
    retrieval_auth_digest,
)
from agentmesh.wire import (
    MAX_RECIPIENTS,
    Expired,
    ModelSchema,
    ProtocolSpec,
    Record,
    SemanticType,
    SignatureInvalid,
    open_envelope,
    seal_envelope,
)

NOTE = ModelSchema.build("Note", text=SemanticType.STRING)
NOTES = ProtocolSpec("Notes", "1.0", (NOTE,))

SENDER = derive_identity("mailbox sender")
OWNER = derive_identity("mailbox owner")
OTHER = derive_identity("mailbox other owner")


def note_env(text: str, expires_at: int = 1000, sender=SENDER, target=OWNER):
    return seal_envelope(
        sender, target.address, NOTES, Record(NOTE, {"text": text}),
        sender.sign_digest(b"\x01" * 32).data[:16], expires_at,
    )


def auth_for(owner, nonce: int):
    return owner.sign_digest(retrieval_auth_digest(owner.address, nonce))


class TestDeposit:
    def test_accept(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        result = store.deposit(note_env("hello"), current_height=5, recipient=OWNER.address)
        assert result.accepted
        assert store.stats()[OWNER.address] == 1

    def test_no_account(self):
        result = MailboxStore().deposit(note_env("hello"), 5, OWNER.address)
        assert not result.accepted
        assert result.reason == "NoAccount"

    def test_tampered_envelope_rejected(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        env = note_env("hello")
        bad = type(env)(
            env.sender, env.target, env.protocol_digest, env.schema_digest,
            env.payload + b"x", env.session_id, env.expires_at, env.signature,
        )
        result = store.deposit(bad, 5, OWNER.address)
        assert result.reason == "SignatureInvalid"

    def test_expired_rejected(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        result = store.deposit(
            note_env("old", expires_at=4), current_height=5, recipient=OWNER.address
        )
        assert result.reason == "Expired"

    def test_a_recipient_the_envelope_does_not_name_is_refused(self):
        store = MailboxStore()
        for owner in (OWNER, OTHER):
            store.create_account(owner.address)
        named = note_env("for the owner only")
        result = store.deposit(named, 5, OTHER.address)
        assert (result.accepted, result.reason) == (False, "Misaddressed")
        assert store.stats() == {OWNER.address: 0, OTHER.address: 0}
        assert store.dropped_total == 1
        both = seal_envelope(
            SENDER, f"{OWNER.address},{OTHER.address}", NOTES, Record(NOTE, {"text": "both"}),
            bytes(16), 1000,
        )
        assert all(store.deposit(both, 5, owner.address).accepted for owner in (OWNER, OTHER))
        assert store.stats() == {OWNER.address: 1, OTHER.address: 1}

    def test_boundary_expiry_accepted(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        edge = note_env("edge", expires_at=5)
        assert store.deposit(edge, current_height=5, recipient=OWNER.address).accepted

    @given(
        part=st.sampled_from(["none", "sender", "payload", "signature"]),
        position=st.integers(0, 63),
        flip=st.integers(1, 127),
        height=st.integers(8, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_refuses_what_a_reader_refuses(self, part, position, flip, height):
        """A deposit accepts exactly the envelopes open_envelope passes
        through its signature and expiry checks, and names the failed one."""
        def flipped(raw: bytes) -> bytes:
            out = bytearray(raw)
            out[position % len(out)] ^= flip
            return bytes(out)

        env = note_env("flip me", expires_at=10)
        if part == "sender":  # a flip below 128 keeps the address ASCII
            env = dataclasses.replace(env, sender=flipped(env.sender.encode()).decode())
        elif part == "payload":
            env = dataclasses.replace(env, payload=flipped(env.payload))
        elif part == "signature":
            env = dataclasses.replace(env, signature=Signature(flipped(env.signature.data)))
        try:
            open_envelope(env, {m.digest(): m for m in NOTES.models}, height, OWNER.address)
            refusal = None
        except (SignatureInvalid, Expired) as exc:
            refusal = type(exc).__name__
        store = MailboxStore()
        store.create_account(OWNER.address)
        result = store.deposit(env, height, OWNER.address)
        assert (result.accepted, result.reason) == (refusal is None, refusal)

    def test_full_keeps_oldest(self):
        store = MailboxStore(capacity=2)
        store.create_account(OWNER.address)
        assert store.deposit(note_env("first"), 1, OWNER.address).accepted
        assert store.deposit(note_env("second"), 1, OWNER.address).accepted
        result = store.deposit(note_env("third"), 1, OWNER.address)
        assert result.reason == "Full"
        batch = store.retrieve(OWNER.address, 0, auth_for(OWNER, 0))
        texts = [env.payload for env in batch]
        assert len(texts) == 2  # first two retained, newcomer dropped

    def test_full_in_bytes_keeps_oldest(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        big, more, small = note_env("a" * 3_000_000), note_env("b" * 2_000_000), note_env("c")
        assert len(big.to_bytes()) + len(more.to_bytes()) > QUEUE_MAX_BYTES
        assert store.deposit(big, 1, OWNER.address).accepted
        assert store.deposit(more, 1, OWNER.address).reason == "Full"
        assert store.deposit(small, 1, OWNER.address).accepted  # a newcomer that still fits
        assert store.retrieve(OWNER.address, 0, auth_for(OWNER, 0)) == [big, small]
        assert store.acknowledge(OWNER.address) == 2
        assert store.deposit(more, 2, OWNER.address).accepted  # room again once acknowledged

    def test_default_capacity(self):
        assert MailboxStore().capacity == DEFAULT_CAPACITY

    def test_a_queue_of_auction_calls_fills_by_count_before_bytes(self):
        """Every copy of a multicast carries its whole target, and a queue
        is charged the full size; a CallForBids naming as many couriers as
        one envelope may still leaves the envelope cap the binding one."""
        couriers = ",".join(
            derive_identity(f"queued courier {i}").address for i in range(MAX_RECIPIENTS)
        )
        call = Record(CALL_FOR_BIDS, {
            "source": "Cambridge office", "destination": "Liverpool Street London",
            "deadline": "2026-03-02T17:00:00", "bid_deadline": 1000,
        })
        env = seal_envelope(SENDER, couriers, COURIER_AUCTION, call, bytes(16), 1000)
        assert env.size * DEFAULT_CAPACITY <= QUEUE_MAX_BYTES
        owner = env.recipients[0]
        store = MailboxStore()
        store.create_account(owner)
        assert all(store.deposit(env, 1, owner).accepted for _ in range(DEFAULT_CAPACITY))
        assert store.deposit(env, 1, owner).reason == "Full"


class TestRetrieve:
    def test_fifo_order_and_atomic_clear(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        envs = [note_env(f"msg {i}") for i in range(3)]
        for i, env in enumerate(envs):
            store.deposit(env, i, OWNER.address)
        batch = store.retrieve(OWNER.address, 0, auth_for(OWNER, 0))
        assert batch == envs
        assert store.acknowledge(OWNER.address) == 3
        assert store.stats()[OWNER.address] == 0

    def test_wrong_key(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        store.deposit(note_env("keep"), 1, OWNER.address)
        thief = derive_identity("thief")
        with pytest.raises(BadAuth):
            store.retrieve(OWNER.address, 0, auth_for(thief, 0))
        assert store.stats()[OWNER.address] == 1  # queue intact

    def test_replayed_nonce(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        store.retrieve(OWNER.address, 5, auth_for(OWNER, 5))
        with pytest.raises(ReplayedNonce):
            store.retrieve(OWNER.address, 5, auth_for(OWNER, 5))
        with pytest.raises(ReplayedNonce):
            store.retrieve(OWNER.address, 4, auth_for(OWNER, 4))
        store.retrieve(OWNER.address, 6, auth_for(OWNER, 6))  # fresh nonce fine

    @pytest.mark.parametrize(
        "address, nonce",
        [(OWNER.address, 2**63), (OWNER.address, "0"), (OWNER.address, 0.5), (5, 0)],
        ids=["nonce_past_i64", "nonce_str", "nonce_float", "address_int"],
    )
    def test_request_no_key_could_sign_is_bad_auth(self, address, nonce):
        store = MailboxStore()
        store.create_account(OWNER.address)
        with pytest.raises(BadAuth):
            store.retrieve(address, nonce, auth_for(OWNER, 0))
        assert store.last_nonce == {}

    def test_auth_digest_matches_oracle(self):
        assert retrieval_auth_digest(OWNER.address, 17) == oracles.mailbox_auth_digest(
            OWNER.address, 17
        )

    @given(st.integers(0, 100), st.binary(min_size=64, max_size=64))
    @settings(max_examples=50)
    def test_random_wrong_signatures_never_pass(self, nonce, raw_sig):
        store = MailboxStore()
        store.create_account(OWNER.address)
        good = auth_for(OWNER, nonce)
        if raw_sig == good.data:
            return  # astronomically unlikely; not a meaningful case
        with pytest.raises(BadAuth):
            store.retrieve(OWNER.address, nonce, Signature(raw_sig))


class TestAckMode:
    """Retrieve keeps the batch; acknowledge lets it go."""

    def test_crash_before_ack_redelivers(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        envs = [note_env(f"m{i}") for i in range(2)]
        for env in envs:
            store.deposit(env, 1, OWNER.address)
        first = store.retrieve(OWNER.address, 0, auth_for(OWNER, 0))
        assert first == envs
        # crash here: no ack; a later retrieve sees the same batch
        second = store.retrieve(OWNER.address, 1, auth_for(OWNER, 1))
        assert second == envs
        assert store.acknowledge(OWNER.address) == 2
        assert store.stats()[OWNER.address] == 0

    def test_deposits_during_pending_survive_ack(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        store.deposit(note_env("early"), 1, OWNER.address)
        store.retrieve(OWNER.address, 0, auth_for(OWNER, 0))
        store.deposit(note_env("late"), 2, OWNER.address)
        store.acknowledge(OWNER.address)
        assert store.stats()[OWNER.address] == 1

    def test_unacked_empty_retrieve_does_not_freeze_the_queue(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        assert store.retrieve(OWNER.address, 0, auth_for(OWNER, 0)) == []
        later = note_env("later")
        store.deposit(later, 2, OWNER.address)
        assert store.retrieve(OWNER.address, 1, auth_for(OWNER, 1)) == [later]

    def test_ack_without_retrieve(self):
        store = MailboxStore()
        with pytest.raises(NoPendingRetrieve):
            store.acknowledge(OWNER.address)

    def test_a_record_changed_by_its_handler_leaves_the_redelivered_copy_as_sent(self):
        """One envelope retrieved twice before its acknowledge opens to a
        record of its own each time."""
        tally = ModelSchema.build(
            "Tally", label=SemanticType.STRING, names=SemanticType.LIST_OF_STRING
        )
        sent = {"label": "sent", "names": ["a", "b"]}
        env = seal_envelope(
            SENDER, OWNER.address, ProtocolSpec("Tallies", "1.0", (tally,)),
            Record(tally, {"label": "sent", "names": ["a", "b"]}), b"\x05" * 16, 1000,
        )
        store = MailboxStore()
        store.create_account(OWNER.address)
        store.deposit(env, 1, OWNER.address)
        schemas = {tally.digest(): tally}
        first = store.retrieve(OWNER.address, 0, auth_for(OWNER, 0))
        record, _ = open_envelope(first[0], schemas, 2, OWNER.address)
        assert record.values == sent
        record.values["label"] = "changed"
        record.values["names"].append("c")
        second = store.retrieve(OWNER.address, 1, auth_for(OWNER, 1))
        assert second[0] is env
        again, _ = open_envelope(second[0], schemas, 2, OWNER.address)
        assert again.values == sent




class MailboxMachine(RuleBasedStateMachine):
    """Deposit, retrieve, crash and acknowledge against a model FIFO per
    owner. A crash is a retrieve that is never acknowledged. Nothing is
    lost, delivery keeps deposit order, and every accepted deposit is
    acknowledged exactly once."""

    CAPACITY = 3

    def __init__(self):
        super().__init__()
        self.store = MailboxStore(capacity=self.CAPACITY)
        self.sent = 0
        # owner -> accepted deposits, the envelopes of acknowledged batches,
        # and the batch the last unacknowledged retrieve handed out
        self.accepted = {OWNER.address: [], OTHER.address: []}
        self.acked = {OWNER.address: [], OTHER.address: []}
        self.batch = {OWNER.address: None, OTHER.address: None}
        for address in self.accepted:
            self.store.create_account(address)

    @rule(owner=st.sampled_from([OWNER, OTHER]))
    def deposit(self, owner):
        self.sent += 1
        env = note_env(f"m{self.sent}", target=owner)
        queued = len(self.accepted[owner.address]) - len(self.acked[owner.address])
        assert self.store.deposit(env, 1, owner.address).accepted == (queued < self.CAPACITY)
        if queued < self.CAPACITY:
            self.accepted[owner.address].append(env)

    @rule(owner=st.sampled_from([OWNER, OTHER]))
    def retrieve(self, owner):
        """Also the crash: nothing says this batch is acknowledged."""
        address = owner.address
        nonce = self.store.next_nonce(address)
        batch = self.store.retrieve(address, nonce, auth_for(owner, nonce))
        # an outstanding batch is handed out again; an empty one holds nothing
        expected = self.batch[address] or self.accepted[address][len(self.acked[address]):]
        assert batch == expected
        self.batch[address] = batch

    @rule(owner=st.sampled_from([OWNER, OTHER]))
    def acknowledge(self, owner):
        address = owner.address
        if self.batch[address] is None:
            with pytest.raises(NoPendingRetrieve):
                self.store.acknowledge(address)
            return
        assert self.store.acknowledge(address) == len(self.batch[address])
        self.acked[address].extend(self.batch[address])
        self.batch[address] = None

    @invariant()
    def every_deposit_is_acked_once_or_still_queued_in_order(self):
        for address, accepted in self.accepted.items():
            assert self.acked[address] + self.store.queues[address] == accepted


TestMailboxMachine = MailboxMachine.TestCase
TestMailboxMachine.settings = settings(max_examples=50, stateful_step_count=30, deadline=None)
