"""Store-and-forward mailbox for offline agents.

Envelopes addressed to an offline agent are deposited here and handed back,
in deposit order, when the agent reconnects and authenticates. Delivery is
at-least-once: a retrieve hands out the queue but removes nothing, and the
batch stays until the owner acknowledges it, so a retrieve whose reply never
arrives loses no mail.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterable

from . import wire
# unused here; bench/tests/test_bench.py looks verify_digest up on this module
from .identity import Signature, signed_by, verify_digest
from .wire import Envelope, _enc_str

DEFAULT_CAPACITY = 1024
# envelope bytes one queue holds at most, so that a retrieve, which hands
# back the whole queue, fits a 16 MiB service reply as hex
QUEUE_MAX_BYTES = 4 * 1024 * 1024


class MailboxError(Exception):
    """Base for mailbox failures."""


class BadAuth(MailboxError):
    """Retrieval signature does not verify against the queue owner."""


class ReplayedNonce(MailboxError):
    """Retrieval nonce is not strictly greater than the last accepted one."""


class NoPendingRetrieve(MailboxError):
    """acknowledge() without a matching outstanding retrieve."""


@dataclass(frozen=True)
class DepositResult:
    accepted: bool
    reason: str | None = None  # NoAccount | Full | SignatureInvalid | Misaddressed | Expired


def retrieval_auth_digest(address: str, nonce: int) -> bytes:
    """Digest the owner signs to authorize one retrieval.

    Layout: str(address) + i64(nonce), hashed with SHA-256 (docs/wire.md).
    """
    return hashlib.sha256(_enc_str(address) + struct.pack(">q", nonce)).digest()


@dataclass
class MailboxStore:
    """Per-agent FIFO queues with bounded capacity, in envelopes and in
    bytes.

    Deposits never evict: a full queue rejects the newcomer so the oldest
    messages survive. Nonces are monotone per owner, mirroring the registry
    sequence discipline, so a captured auth signature cannot be replayed.
    """

    capacity: int = DEFAULT_CAPACITY
    queues: dict[str, list[Envelope]] = field(default_factory=dict)
    last_nonce: dict[str, int] = field(default_factory=dict)
    # owner -> how many envelopes at the head of its queue an unacknowledged
    # retrieve handed out; only acknowledge() removes from a queue, so they
    # stay its head until then
    pending: dict[str, int] = field(default_factory=dict)
    deposited_total: int = 0
    dropped_total: int = 0
    # owner -> envelope bytes its queue holds, kept as deposits and
    # acknowledgements change the queue, so a deposit never sums it
    held_bytes: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.held_bytes = {owner: sum(env.size for env in queue)
                           for owner, queue in self.queues.items()}

    def call_many(self, calls: Iterable[tuple]) -> list:
        """Make (method name, *positional arguments) calls in order and return
        their results, as a MailboxClient does in one `/batch`: the first
        call that raises ends the list."""
        return [getattr(self, name)(*args) for name, *args in calls]

    def create_account(self, address: str) -> None:
        self.queues.setdefault(address, [])
        self.held_bytes.setdefault(address, 0)

    def has_account(self, address: str) -> bool:
        return address in self.queues

    def next_nonce(self, address: str) -> int:
        """Smallest nonce a retrieve for this owner would accept."""
        return self.last_nonce.get(address, -1) + 1

    def deposit(self, env: Envelope, current_height: int, recipient: str) -> DepositResult:
        """Store env's copy for later retrieval by recipient, which its
        target must name."""
        queue = self.queues.get(recipient)
        if queue is None:
            self.dropped_total += 1
            return DepositResult(False, "NoAccount")
        try:
            wire.check_envelope(env, current_height, recipient)
        except (wire.SignatureInvalid, wire.Misaddressed, wire.Expired) as exc:
            self.dropped_total += 1
            return DepositResult(False, type(exc).__name__)
        held = self.held_bytes[recipient] + env.size
        if len(queue) >= self.capacity or held > QUEUE_MAX_BYTES:
            self.dropped_total += 1
            return DepositResult(False, "Full")
        queue.append(env)
        self.held_bytes[recipient] = held
        self.deposited_total += 1
        return DepositResult(True)

    def retrieve(self, address: str, nonce: int, auth: Signature) -> list[Envelope]:
        """Hand back the queue in deposit order, keeping it until
        acknowledge(). A repeat retrieve before the ack redelivers the same
        batch, so a crash between the two loses nothing."""
        try:
            digest = retrieval_auth_digest(address, nonce)
        except (AttributeError, ValueError, struct.error):
            digest = None  # no str address or no i64 nonce: nothing signed it
        if digest is None or not signed_by(address, digest, auth):
            raise BadAuth(f"retrieval auth for {address} fails verification")
        if nonce <= self.last_nonce.get(address, -1):
            raise ReplayedNonce(
                f"nonce {nonce} already used (last {self.last_nonce.get(address)})"
            )
        self.last_nonce[address] = nonce
        queue = self.queues.get(address)
        if queue is None:
            return []
        # an empty batch holds nothing back from the next retrieve
        count = self.pending[address] = self.pending.get(address) or len(queue)
        return queue[:count]

    def acknowledge(self, address: str) -> int:
        """Confirm the outstanding batch: remove it from the head of the
        queue, leaving what was deposited since, and return its size."""
        if address not in self.pending:
            raise NoPendingRetrieve(f"no outstanding retrieve for {address}")
        count = self.pending.pop(address)
        queue = self.queues[address]
        self.held_bytes[address] -= sum(env.size for env in queue[:count])
        del queue[:count]
        return count

    def stats(self) -> dict[str, int]:
        return {addr: len(q) for addr, q in sorted(self.queues.items())}
