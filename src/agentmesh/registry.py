"""Agent registry: fee-charged, signed, block-height-expiring registrations.

A registration proves address ownership by signing an incrementing sequence
number together with the advertised endpoint, protocol digests, and metadata.
Records expire TTL blocks after registration and drop out of search results
the block after their expiry height. Domain ownership (ANAME) is proven by
publishing a challenge nonce in the domain's DNS TXT record, checked through
a pluggable resolver so tests can run against fixtures.
"""

from __future__ import annotations

import hashlib
import random
import re
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Protocol as TypingProtocol

# unused here; bench/tests/test_bench.py looks verify_digest up on this module
from .identity import Job, Signature, signed_by, verify_digest, work_ahead
from .ledger import REGISTER_OP, Ledger, fet
from .wire import Record, _enc_str

DEFAULT_TTL = 500
DEFAULT_FEE = fet(1)

_DOMAIN_RE = re.compile(r"^(?!-)[a-z0-9-]{1,63}(?<!-)(\.(?!-)[a-z0-9-]{1,63}(?<!-))+$")


class RegistryError(Exception):
    """Base for registry failures."""


class BadSignature(RegistryError):
    """Registration signature does not verify against the claimed address."""


class BadSequence(RegistryError):
    """Sequence number is not the expected next value."""

    def __init__(self, expected: int, got: int) -> None:
        self.expected = expected
        self.got = got
        super().__init__(f"expected sequence {expected}, got {got}")


class NotFound(RegistryError):
    """Address or domain has no record at all."""


class Expired(RegistryError):
    """Record exists but its expiry height has passed."""


class BadDomain(RegistryError):
    """Domain is not syntactically valid."""


class AlreadyVerified(RegistryError):
    """Domain already has a verified binding."""


class NotClaimed(RegistryError):
    """Domain was never claimed, so there is no challenge to verify."""


class ChallengeAbsent(RegistryError):
    """DNS TXT record does not carry the expected challenge nonce."""


@dataclass(frozen=True)
class RegistryRecord:
    """One agent's advertised presence."""

    address: str
    endpoint: str
    protocol_digests: frozenset[bytes]
    metadata: Mapping[str, str]
    sequence: int
    registered_at: int
    expires_at: int


class AnameState(Enum):
    CHALLENGED = "Challenged"
    VERIFIED = "Verified"


@dataclass
class AnameRecord:
    domain: str
    agent_address: str
    challenge: bytes
    state: AnameState = AnameState.CHALLENGED
    verified_at: int = -1


class DnsResolver(TypingProtocol):
    """TXT lookup interface; tests back it with a dict fixture."""

    def lookup_txt(self, domain: str) -> list[str]: ...


@dataclass
class FixtureDnsResolver:
    """Dict-backed resolver for tests and the simulated oracle agent."""

    txt: dict[str, list[str]] = field(default_factory=dict)

    def lookup_txt(self, domain: str) -> list[str]:
        return list(self.txt.get(domain, []))

    def publish(self, domain: str, entry: str) -> None:
        self.txt.setdefault(domain, []).append(entry)


def registration_signing_digest(
    address: str,
    sequence: int,
    protocol_digests: Iterable[bytes],
    endpoint: str,
    metadata: Mapping[str, str],
) -> bytes:
    """The digest an agent signs to prove it owns a registration.

    Layout (docs/wire.md): str(address) + i64(sequence) + u32(count) +
    sorted 32-byte digests + str(endpoint) + u32(count) + sorted
    str(key) + str(value) pairs.
    """
    buf = [_enc_str(address), struct.pack(">q", sequence)]
    digests = sorted(protocol_digests)
    buf.append(struct.pack(">I", len(digests)))
    buf.extend(digests)
    buf.append(_enc_str(endpoint))
    keys = sorted(metadata, key=lambda k: k.encode("utf-8"))
    buf.append(struct.pack(">I", len(keys)))
    for key in keys:
        buf.append(_enc_str(key))
        buf.append(_enc_str(metadata[key]))
    return hashlib.sha256(b"".join(buf)).digest()


def _check(address: str, sequence: int, digests: frozenset[bytes], endpoint: str,
           metadata: Mapping[str, str], signature: Signature) -> Job | None:
    """The job that checks a registration's signature, or None when no
    signature covers these fields: one is not str, or the sequence no i64."""
    try:
        digest = registration_signing_digest(address, sequence, digests, endpoint, metadata)
    except (AttributeError, ValueError, struct.error):
        return None
    return Job(signed_by, address, digest, signature)


@dataclass
class Registry:
    """Single-writer registry state machine.

    Sequence numbers survive record replacement and expiry: an address that
    lets its record lapse must still continue its sequence, which is what
    blocks replay of old signed registrations.
    """

    ttl: int = DEFAULT_TTL
    fee: int = DEFAULT_FEE
    records: dict[str, RegistryRecord] = field(default_factory=dict)
    last_sequence: dict[str, int] = field(default_factory=dict)
    anames: dict[str, AnameRecord] = field(default_factory=dict)
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def register(
        self,
        ledger: Ledger,
        address: str,
        endpoint: str,
        protocol_digests: Iterable[bytes],
        metadata: Mapping[str, str],
        sequence: int,
        signature: Signature,
        fee_wallet: str,
    ) -> int:
        """Validate, charge the fee, store the record; returns expires_at.

        The signed payload does not name the paying wallet, so the payer is
        an explicit argument (the scenario uses the agent's own wallet).
        """
        digests = frozenset(protocol_digests)
        check = _check(address, sequence, digests, endpoint, metadata, signature)
        return self._register(check, ledger, address, endpoint, digests, metadata, sequence, fee_wallet)

    def _register(self, check: Job | None, ledger: Ledger, address: str, endpoint: str,
                  digests: frozenset[bytes], metadata: Mapping[str, str], sequence: int,
                  fee_wallet: str) -> int:
        """register's apply step, given the registration's signature check."""
        if check is None or not check.result():
            raise BadSignature(f"registration for {address} fails signature check")
        expected = self.last_sequence.get(address, -1) + 1
        if sequence != expected:
            raise BadSequence(expected, sequence)
        if self.fee > 0:  # a free registry charges nothing
            ledger.charge_fee(fee_wallet, self.fee)  # InsufficientFunds propagates
        record = RegistryRecord(
            address=address,
            endpoint=endpoint,
            protocol_digests=digests,
            metadata=dict(metadata),
            sequence=sequence,
            registered_at=ledger.height,
            expires_at=ledger.height + self.ttl,
        )
        self.records[address] = record
        self.last_sequence[address] = sequence
        ledger.journal.append(
            Record(
                REGISTER_OP,
                {
                    "address": address,
                    "sequence": sequence,
                    "endpoint": endpoint,
                    "protocols": sorted(d.hex() for d in digests),
                    "metadata": sorted(f"{k}={v}" for k, v in metadata.items()),
                },
            )
        )
        return record.expires_at

    def call_many(self, calls: Iterable[tuple]) -> list:
        """Make (method name, *positional arguments) calls in order and return
        their results, as a RegistryClient does in one `/batch`: every call
        is taken before any runs, the first call that raises ends the list,
        and the calls before it stay applied. Each `register` call's
        signature check is made as the call is taken and handed to the
        verify pool (work_ahead); the call then takes that check's verdict
        in its turn. A method is looked up in its turn, so an unknown name
        raises there."""
        taken = []

        def checks():
            for name, *args in calls:
                check = None
                if name == "register" and len(args) == 8:
                    ledger, address, endpoint, digests, metadata, sequence, signature, wallet = args
                    try:
                        args[3] = tuple(digests)  # an iterator of digests is read once
                        digests = frozenset(args[3])
                        check = _check(address, sequence, digests, endpoint, metadata, signature)
                    except TypeError:
                        pass  # register raises it, in its turn
                    else:
                        name = "_register"
                        args = [check, ledger, address, endpoint, digests, metadata, sequence, wallet]
                taken.append((name, args))
                if check is not None:
                    yield check

        work_ahead(checks())
        return [getattr(self, name)(*args) for name, args in taken]

    def search(
        self,
        current_height: int,
        protocol_digest: bytes | None = None,
        metadata: Mapping[str, str] | None = None,
        geo: str | None = None,
    ) -> list[RegistryRecord]:
        """Live records matching every given clause, ordered by address."""
        hits = []
        for record in self.records.values():
            if record.expires_at < current_height:
                continue
            if protocol_digest is not None and protocol_digest not in record.protocol_digests:
                continue
            if metadata and any(record.metadata.get(k) != v for k, v in metadata.items()):
                continue
            if geo is not None and record.metadata.get("geo") != geo:
                continue
            hits.append(record)
        return sorted(hits, key=lambda r: r.address)

    def resolve(self, address: str, current_height: int) -> RegistryRecord:
        record = self.records.get(address)
        if record is None:
            raise NotFound(f"no registration for {address}")
        if record.expires_at < current_height:
            raise Expired(
                f"registration for {address} expired at height {record.expires_at}"
            )
        return record

    # -- ANAME ---------------------------------------------------------

    def aname_claim(self, domain: str, agent_address: str) -> bytes:
        """Open (or refresh) a challenge binding domain to agent_address."""
        if not _DOMAIN_RE.match(domain):
            raise BadDomain(f"not a valid domain: {domain!r}")
        existing = self.anames.get(domain)
        if existing is not None and existing.state is AnameState.VERIFIED:
            raise AlreadyVerified(f"{domain} already bound to {existing.agent_address}")
        challenge = bytes(self.rng.getrandbits(8) for _ in range(32))
        self.anames[domain] = AnameRecord(domain, agent_address, challenge)
        return challenge

    def aname_verify(
        self, domain: str, resolver: DnsResolver, current_height: int
    ) -> AnameRecord:
        record = self.anames.get(domain)
        if record is None:
            raise NotClaimed(f"{domain} was never claimed")
        if record.state is AnameState.VERIFIED:
            return record
        txt_entries = resolver.lookup_txt(domain)
        if record.challenge.hex() not in txt_entries:
            raise ChallengeAbsent(f"TXT for {domain} lacks the challenge nonce")
        record.state = AnameState.VERIFIED
        record.verified_at = current_height
        return record

    def resolve_domain(self, domain: str) -> str:
        record = self.anames.get(domain)
        if record is None or record.state is not AnameState.VERIFIED:
            raise NotFound(f"no verified binding for {domain}")
        return record.agent_address

    def domain_of(self, agent_address: str) -> str | None:
        """Verified domain for an address, if any (demo dialogue uses it)."""
        for record in self.anames.values():
            if record.state is AnameState.VERIFIED and record.agent_address == agent_address:
                return record.domain
        return None
