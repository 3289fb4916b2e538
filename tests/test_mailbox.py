"""Store-and-forward queues: deposit rules, authenticated retrieval, purge."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from agentmesh.identity import derive_identity
from agentmesh.mailbox import (
    BadAuth,
    DEFAULT_CAPACITY,
    MailboxStore,
    NoPendingRetrieve,
    ReplayedNonce,
    retrieval_auth_digest,
)
from agentmesh.wire import ModelSchema, ProtocolSpec, Record, SemanticType, seal_envelope

NOTE = ModelSchema.build("Note", text=SemanticType.STRING)
NOTES = ProtocolSpec("Notes", "1.0", (NOTE,))

SENDER = derive_identity("mailbox sender")
OWNER = derive_identity("mailbox owner")


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
        result = store.deposit(note_env("hello"), current_height=5)
        assert result.accepted
        assert store.stats()[OWNER.address] == 1

    def test_no_account(self):
        result = MailboxStore().deposit(note_env("hello"), 5)
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
        result = store.deposit(bad, 5)
        assert result.reason == "SignatureInvalid"

    def test_expired_rejected(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        result = store.deposit(note_env("old", expires_at=4), current_height=5)
        assert result.reason == "Expired"

    def test_boundary_expiry_accepted(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        assert store.deposit(note_env("edge", expires_at=5), current_height=5).accepted

    def test_full_keeps_oldest(self):
        store = MailboxStore(capacity=2)
        store.create_account(OWNER.address)
        assert store.deposit(note_env("first"), 1).accepted
        assert store.deposit(note_env("second"), 1).accepted
        result = store.deposit(note_env("third"), 1)
        assert result.reason == "Full"
        batch = store.retrieve(OWNER.address, 0, auth_for(OWNER, 0))
        texts = [env.payload for env in batch]
        assert len(texts) == 2  # first two retained, newcomer dropped

    def test_default_capacity(self):
        assert MailboxStore().capacity == DEFAULT_CAPACITY


class TestRetrieve:
    def test_fifo_order_and_atomic_clear(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        envs = [note_env(f"msg {i}") for i in range(3)]
        for i, env in enumerate(envs):
            store.deposit(env, i)
        batch = store.retrieve(OWNER.address, 0, auth_for(OWNER, 0))
        assert batch == envs
        assert store.stats()[OWNER.address] == 0

    def test_wrong_key(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        store.deposit(note_env("keep"), 1)
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

    def test_auth_digest_matches_oracle(self):
        assert retrieval_auth_digest(OWNER.address, 17) == oracles.mailbox_auth_digest(
            OWNER.address, 17
        )

    @given(st.integers(0, 100), st.binary(min_size=64, max_size=64))
    @settings(max_examples=50)
    def test_random_wrong_signatures_never_pass(self, nonce, raw_sig):
        from agentmesh.identity import Signature

        store = MailboxStore()
        store.create_account(OWNER.address)
        good = auth_for(OWNER, nonce)
        if raw_sig == good.data:
            return  # astronomically unlikely; not a meaningful case
        with pytest.raises(BadAuth):
            store.retrieve(OWNER.address, nonce, Signature(raw_sig))


class TestAckMode:
    def test_crash_before_ack_redelivers(self):
        store = MailboxStore(ack_mode=True)
        store.create_account(OWNER.address)
        envs = [note_env(f"m{i}") for i in range(2)]
        for env in envs:
            store.deposit(env, 1)
        first = store.retrieve(OWNER.address, 0, auth_for(OWNER, 0))
        assert first == envs
        # crash here: no ack; a later retrieve sees the same batch
        second = store.retrieve(OWNER.address, 1, auth_for(OWNER, 1))
        assert second == envs
        assert store.acknowledge(OWNER.address) == 2
        assert store.stats()[OWNER.address] == 0

    def test_deposits_during_pending_survive_ack(self):
        store = MailboxStore(ack_mode=True)
        store.create_account(OWNER.address)
        store.deposit(note_env("early"), 1)
        store.retrieve(OWNER.address, 0, auth_for(OWNER, 0))
        store.deposit(note_env("late"), 2)
        store.acknowledge(OWNER.address)
        assert store.stats()[OWNER.address] == 1

    def test_purge_between_retrieve_and_ack_keeps_new_mail(self):
        store = MailboxStore(ack_mode=True)
        store.create_account(OWNER.address)
        store.deposit(note_env("stale", expires_at=10), 1)
        store.retrieve(OWNER.address, 0, auth_for(OWNER, 0))
        fresh = note_env("fresh", expires_at=100)
        store.deposit(fresh, 5)
        assert store.purge_expired(11) == 1  # the pending envelope expires
        store.acknowledge(OWNER.address)
        # the acked batch is gone; the never-delivered deposit is not
        assert store.retrieve(OWNER.address, 1, auth_for(OWNER, 1)) == [fresh]

    def test_purge_that_removes_nothing_then_ack_clears_the_batch(self):
        store = MailboxStore(ack_mode=True)
        store.create_account(OWNER.address)
        store.deposit(note_env("kept", expires_at=100), 1)
        store.retrieve(OWNER.address, 0, auth_for(OWNER, 0))
        assert store.purge_expired(5) == 0
        assert store.acknowledge(OWNER.address) == 1
        # the delivered envelope is not handed out a second time
        assert store.retrieve(OWNER.address, 1, auth_for(OWNER, 1)) == []

    def test_unacked_empty_retrieve_does_not_freeze_the_queue(self):
        store = MailboxStore(ack_mode=True)
        store.create_account(OWNER.address)
        assert store.retrieve(OWNER.address, 0, auth_for(OWNER, 0)) == []
        later = note_env("later")
        store.deposit(later, 2)
        assert store.retrieve(OWNER.address, 1, auth_for(OWNER, 1)) == [later]

    def test_ack_without_retrieve(self):
        store = MailboxStore(ack_mode=True)
        with pytest.raises(NoPendingRetrieve):
            store.acknowledge(OWNER.address)


class TestPurge:
    def test_nothing_expired(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        store.deposit(note_env("fresh", expires_at=100), 1)
        assert store.purge_expired(50) == 0

    def test_all_expired(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        for i in range(3):
            store.deposit(note_env(f"m{i}", expires_at=10), 1)
        assert store.purge_expired(11) == 3
        assert store.stats()[OWNER.address] == 0

    def test_mixed_keeps_order(self):
        store = MailboxStore()
        store.create_account(OWNER.address)
        keep1 = note_env("keep1", expires_at=100)
        dead = note_env("dead", expires_at=10)
        keep2 = note_env("keep2", expires_at=100)
        for env in (keep1, dead, keep2):
            store.deposit(env, 1)
        assert store.purge_expired(50) == 1
        batch = store.retrieve(OWNER.address, 0, auth_for(OWNER, 0))
        assert batch == [keep1, keep2]
