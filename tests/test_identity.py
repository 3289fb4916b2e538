"""Identity derivation and digest signing."""

from __future__ import annotations

import hashlib

import pytest

from agentmesh import identity as identity_module
from agentmesh.identity import (
    AGENT_PREFIX,
    PUBLIC_KEY_CACHE_SIZE,
    WALLET_PREFIX,
    BadDigestLength,
    EmptySeed,
    MalformedAddress,
    Signature,
    decode_address,
    derive_identity,
    verify_digest,
)

# Golden addresses computed by an independent script over the documented
# derivation (SHA-256 of the phrase; wallet key adds the "::wallet" suffix).
DEMO_PHRASE = "a_very_secret_seed_phrase"
DEMO_ADDRESS = "agent1i7ibm23l2qvq6oxnyqxtavlagnmatmxth2bxer5wl5misewgu6fq"
DEMO_WALLET = "wallet1md2j5iz2t5hvstmo2ucb5zt4byv7q6xvzoxoy4sk63utvcm3tcsq"


def digest_of(text: bytes) -> bytes:
    return hashlib.sha256(text).digest()


class TestDerivation:
    def test_demo_phrase_address_golden(self):
        identity = derive_identity(DEMO_PHRASE)
        assert identity.address == DEMO_ADDRESS

    def test_demo_phrase_wallet_golden(self):
        identity = derive_identity(DEMO_PHRASE)
        assert identity.wallet_address == DEMO_WALLET

    def test_deterministic(self):
        a = derive_identity("some phrase")
        b = derive_identity("some phrase")
        assert a.address == b.address
        assert a.wallet_address == b.wallet_address

    def test_distinct_phrases_distinct_addresses(self):
        assert derive_identity("phrase one").address != derive_identity("phrase two").address

    def test_empty_seed_rejected(self):
        with pytest.raises(EmptySeed):
            derive_identity("")

    def test_address_shape(self):
        identity = derive_identity("shape check")
        assert identity.address.startswith(AGENT_PREFIX)
        assert identity.wallet_address.startswith(WALLET_PREFIX)
        assert len(identity.address) == len(AGENT_PREFIX) + 52
        assert identity.address == identity.address.lower()

    def test_agent_and_wallet_keys_differ(self):
        identity = derive_identity("two keys")
        assert decode_address(identity.address) != decode_address(identity.wallet_address)

    def test_decode_roundtrip(self):
        identity = derive_identity("roundtrip")
        assert decode_address(identity.address) == identity.verify_key


class TestSigning:
    def test_sign_verify_roundtrip(self):
        identity = derive_identity("signer")
        digest = digest_of(b"message body")
        sig = identity.sign_digest(digest)
        assert verify_digest(identity.address, digest, sig)

    def test_signature_is_deterministic(self):
        identity = derive_identity("signer")
        digest = digest_of(b"same input")
        assert identity.sign_digest(digest).data == identity.sign_digest(digest).data

    def test_wrong_key_fails(self):
        signer = derive_identity("signer")
        other = derive_identity("other")
        digest = digest_of(b"payload")
        sig = signer.sign_digest(digest)
        assert not verify_digest(other.address, digest, sig)

    def test_wrong_digest_fails(self):
        identity = derive_identity("signer")
        sig = identity.sign_digest(digest_of(b"one"))
        assert not verify_digest(identity.address, digest_of(b"two"), sig)

    def test_wallet_key_signs_for_wallet_address(self):
        identity = derive_identity("wallet signer")
        digest = digest_of(b"spend")
        sig = identity.sign_digest_with_wallet(digest)
        assert verify_digest(identity.wallet_address, digest, sig)
        assert not verify_digest(identity.address, digest, sig)

    def test_bad_digest_length(self):
        identity = derive_identity("short")
        with pytest.raises(BadDigestLength):
            identity.sign_digest(b"too short")
        with pytest.raises(BadDigestLength):
            verify_digest(identity.address, b"too short", Signature(b"\x00" * 64))

    def test_malformed_address(self):
        digest = digest_of(b"x")
        with pytest.raises(MalformedAddress):
            verify_digest("bogus1aaaa", digest, Signature(b"\x00" * 64))
        with pytest.raises(MalformedAddress):
            verify_digest("agent1notbase32!!" + "a" * 36, digest, Signature(b"\x00" * 64))
        with pytest.raises(MalformedAddress):
            verify_digest("agent1short", digest, Signature(b"\x00" * 64))

    def test_garbage_signature_returns_false(self):
        identity = derive_identity("garbage sig")
        digest = digest_of(b"x")
        assert not verify_digest(identity.address, digest, b"\x00" * 64)

    def test_signature_length_enforced(self):
        with pytest.raises(BadDigestLength):
            Signature(b"\x01" * 63)


class TestKeyCache:
    """verify_digest keeps parsed verify keys per address in a bounded cache."""

    def test_cached_key_does_not_verify_another_signer(self):
        alice, bob = derive_identity("cache alice"), derive_identity("cache bob")
        digest = digest_of(b"cached")
        sig = alice.sign_digest(digest)
        assert verify_digest(alice.address, digest, sig)
        assert verify_digest(bob.address, digest, bob.sign_digest(digest))
        # both keys are cached now; neither answers for the other's signature
        assert not verify_digest(bob.address, digest, sig)
        assert verify_digest(alice.address, digest, sig)

    def test_malformed_address_raises_on_every_call(self):
        digest = digest_of(b"x")
        for _ in range(3):
            with pytest.raises(MalformedAddress):
                verify_digest("agent1short", digest, Signature(b"\x00" * 64))
            # the address is checked before the digest length
            with pytest.raises(MalformedAddress):
                verify_digest("bogus1aaaa", b"short", Signature(b"\x00" * 64))

    def test_bad_digest_length_after_key_is_cached(self):
        identity = derive_identity("cached then short")
        digest = digest_of(b"x")
        assert verify_digest(identity.address, digest, identity.sign_digest(digest))
        with pytest.raises(BadDigestLength):
            verify_digest(identity.address, b"short", Signature(b"\x00" * 64))

    def test_cache_is_bounded(self):
        cache_info = identity_module._public_key.cache_info
        assert cache_info().maxsize == PUBLIC_KEY_CACHE_SIZE
        digest = digest_of(b"many signers")
        for i in range(PUBLIC_KEY_CACHE_SIZE + 40):
            signer = derive_identity(f"cache bound {i}")
            assert verify_digest(signer.address, digest, signer.sign_digest(digest))
            assert cache_info().currsize <= PUBLIC_KEY_CACHE_SIZE
        assert cache_info().currsize == PUBLIC_KEY_CACHE_SIZE
