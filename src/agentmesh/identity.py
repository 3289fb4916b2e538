"""Deterministic agent identities and digest signing.

An identity is derived from a seed phrase alone: the phrase is hashed to an
Ed25519 signing key for the agent address, and hashed again with a wallet
suffix for a second, independent wallet key. The same phrase always produces
the same keys, addresses, and signatures.

Address text format (see docs/wire.md):

    agent1<base32>   - 52 chars of lowercase unpadded base32 of the verify key
    wallet1<base32>  - same encoding over the wallet verify key
"""

from __future__ import annotations

import base64
import functools
import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

AGENT_PREFIX = "agent1"
WALLET_PREFIX = "wallet1"
WALLET_SUFFIX = b"::wallet"

DIGEST_LEN = 32
SIGNATURE_LEN = 64

# Verify keys kept by _public_key. Bounded so a long run meeting many
# addresses holds a fixed amount of memory.
PUBLIC_KEY_CACHE_SIZE = 512


class IdentityError(Exception):
    """Base for identity failures."""


class EmptySeed(IdentityError):
    """Seed phrase was empty."""


class BadDigestLength(IdentityError):
    """Digest passed to sign/verify was not exactly 32 bytes."""


class MalformedAddress(IdentityError):
    """Address string does not decode to a verify key."""


def _encode_key(prefix: str, raw: bytes) -> str:
    return prefix + base64.b32encode(raw).decode("ascii").rstrip("=").lower()


def decode_address(address: str) -> bytes:
    """Return the 32-byte verify key behind an agent1/wallet1 address."""
    if address.startswith(AGENT_PREFIX):
        body = address[len(AGENT_PREFIX):]
    elif address.startswith(WALLET_PREFIX):
        body = address[len(WALLET_PREFIX):]
    else:
        raise MalformedAddress(f"unknown address prefix: {address[:12]!r}")
    if len(body) != 52:
        raise MalformedAddress(f"address body must be 52 base32 chars, got {len(body)}")
    try:
        raw = base64.b32decode(body.upper() + "====")
    except Exception as exc:
        raise MalformedAddress(f"address is not valid base32: {exc}") from exc
    if len(raw) != 32:
        raise MalformedAddress("decoded key is not 32 bytes")
    return raw


@dataclass(frozen=True)
class Signature:
    """A 64-byte Ed25519 signature over a 32-byte digest."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != SIGNATURE_LEN:
            raise BadDigestLength(f"signature must be {SIGNATURE_LEN} bytes")

    def hex(self) -> str:
        return self.data.hex()

    @classmethod
    def from_hex(cls, text: str) -> "Signature":
        return cls(bytes.fromhex(text))


@dataclass(frozen=True)
class AgentIdentity:
    """Keys and addresses derived from one seed phrase.

    The signing key controls the agent address; a second key derived from the
    same phrase controls the wallet address. Instances are immutable and safe
    to share.
    """

    address: str
    wallet_address: str
    verify_key: bytes
    _signing_key: Ed25519PrivateKey = field(repr=False)
    _wallet_key: Ed25519PrivateKey = field(repr=False)

    def sign_digest(self, digest: bytes) -> Signature:
        """Sign a 32-byte digest with the agent key (deterministic)."""
        if len(digest) != DIGEST_LEN:
            raise BadDigestLength(f"digest must be {DIGEST_LEN} bytes, got {len(digest)}")
        return Signature(self._signing_key.sign(digest))

    def sign_digest_with_wallet(self, digest: bytes) -> Signature:
        """Sign a 32-byte digest with the wallet key."""
        if len(digest) != DIGEST_LEN:
            raise BadDigestLength(f"digest must be {DIGEST_LEN} bytes, got {len(digest)}")
        return Signature(self._wallet_key.sign(digest))


def derive_identity(phrase: str) -> AgentIdentity:
    """Derive the full identity for a seed phrase.

    Deterministic: the phrase is the only input. Distinct phrases yield
    distinct addresses (collision would require a SHA-256 collision).
    """
    if not phrase:
        raise EmptySeed("seed phrase must be non-empty")
    signing_seed = hashlib.sha256(phrase.encode("utf-8")).digest()
    wallet_seed = hashlib.sha256(phrase.encode("utf-8") + WALLET_SUFFIX).digest()
    signing_key = Ed25519PrivateKey.from_private_bytes(signing_seed)
    wallet_key = Ed25519PrivateKey.from_private_bytes(wallet_seed)
    verify_key = signing_key.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    wallet_verify = wallet_key.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    return AgentIdentity(
        address=_encode_key(AGENT_PREFIX, verify_key),
        wallet_address=_encode_key(WALLET_PREFIX, wallet_verify),
        verify_key=verify_key,
        _signing_key=signing_key,
        _wallet_key=wallet_key,
    )


@functools.lru_cache(maxsize=PUBLIC_KEY_CACHE_SIZE)
def _public_key(address: str) -> Ed25519PublicKey | None:
    """The verify key behind address, or None if its bytes are no valid key.

    A pure function of the address, so it is cached. MalformedAddress is
    raised, and an exception is never cached, so it is raised on every call.
    """
    raw_key = decode_address(address)
    try:
        return Ed25519PublicKey.from_public_bytes(raw_key)
    except ValueError:
        return None


def verify_digest(address: str, digest: bytes, signature: Signature | bytes) -> bool:
    """True iff signature was made over exactly this digest by the key behind address.

    Raises MalformedAddress for undecodable addresses and BadDigestLength for
    digests of the wrong size; malformed signature bytes simply return False.
    """
    key = _public_key(address)
    if len(digest) != DIGEST_LEN:
        raise BadDigestLength(f"digest must be {DIGEST_LEN} bytes, got {len(digest)}")
    sig = signature.data if isinstance(signature, Signature) else signature
    if key is None or len(sig) != SIGNATURE_LEN:
        return False
    try:
        key.verify(sig, digest)
    except InvalidSignature:
        return False
    except Exception:
        return False
    return True
