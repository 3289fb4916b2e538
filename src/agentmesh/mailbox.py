"""Store-and-forward mailbox for offline agents.

Envelopes addressed to an offline agent are deposited here and handed back,
in deposit order, when the agent reconnects and authenticates. Retrieval is
destructive and atomic by default; an acknowledgment mode keeps messages
until the caller confirms receipt, for crash-between-retrieve-and-ack tests.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from .identity import Signature, verify_digest
from .wire import Envelope, _enc_str

DEFAULT_CAPACITY = 1024


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
    reason: str | None = None  # NoAccount | Full | SignatureInvalid | Expired


def retrieval_auth_digest(address: str, nonce: int) -> bytes:
    """Digest the owner signs to authorize one retrieval.

    Layout: str(address) + i64(nonce), hashed with SHA-256 (docs/wire.md).
    """
    return hashlib.sha256(_enc_str(address) + struct.pack(">q", nonce)).digest()


@dataclass
class MailboxStore:
    """Per-agent FIFO queues with bounded capacity.

    Deposits never evict: a full queue rejects the newcomer so the oldest
    messages survive. Nonces are monotone per owner, mirroring the registry
    sequence discipline, so a captured auth signature cannot be replayed.
    """

    capacity: int = DEFAULT_CAPACITY
    ack_mode: bool = False
    queues: dict[str, list[tuple[int, Envelope]]] = field(default_factory=dict)
    last_nonce: dict[str, int] = field(default_factory=dict)
    # owner -> the queue entries handed out by an unacknowledged retrieve
    pending: dict[str, list[tuple[int, Envelope]]] = field(default_factory=dict)
    deposited_total: int = 0
    dropped_total: int = 0

    def create_account(self, address: str) -> None:
        self.queues.setdefault(address, [])

    def has_account(self, address: str) -> bool:
        return address in self.queues

    def next_nonce(self, address: str) -> int:
        """Smallest nonce a retrieve for this owner would accept."""
        return self.last_nonce.get(address, -1) + 1

    def deposit(self, env: Envelope, current_height: int) -> DepositResult:
        """Store one envelope for later retrieval by env.target."""
        queue = self.queues.get(env.target)
        if queue is None:
            self.dropped_total += 1
            return DepositResult(False, "NoAccount")
        try:
            ok = verify_digest(env.sender, env.signing_digest(), env.signature)
        except Exception:
            ok = False
        if not ok:
            self.dropped_total += 1
            return DepositResult(False, "SignatureInvalid")
        if env.expires_at < current_height:
            self.dropped_total += 1
            return DepositResult(False, "Expired")
        if len(queue) >= self.capacity:
            self.dropped_total += 1
            return DepositResult(False, "Full")
        queue.append((current_height, env))
        self.deposited_total += 1
        return DepositResult(True)

    def retrieve(self, address: str, nonce: int, auth: Signature) -> list[Envelope]:
        """Hand back the queue in deposit order.

        Default mode clears atomically. In ack_mode the queue is kept until
        acknowledge(); a repeat retrieve before the ack redelivers the same
        batch (at-least-once), which the crash test relies on.
        """
        try:
            ok = verify_digest(address, retrieval_auth_digest(address, nonce), auth)
        except Exception:
            ok = False
        if not ok:
            raise BadAuth(f"retrieval auth for {address} fails verification")
        if nonce <= self.last_nonce.get(address, -1):
            raise ReplayedNonce(
                f"nonce {nonce} already used (last {self.last_nonce.get(address)})"
            )
        self.last_nonce[address] = nonce
        queue = self.queues.get(address)
        if queue is None:
            return []
        if self.ack_mode:
            # an unacked batch from a crashed retrieve is redelivered as is;
            # an empty one holds nothing back from the next retrieve
            entries = self.pending.get(address) or list(queue)
            self.pending[address] = entries
            return [env for _, env in entries]
        batch = [env for _, env in queue]
        queue.clear()
        return batch

    def acknowledge(self, address: str) -> int:
        """ack_mode only: confirm the outstanding batch, clearing it.

        The batch is removed by envelope identity, not by position, so deposits
        and purges between retrieve and ack never cost an undelivered envelope
        and never leave a delivered one behind.
        """
        if address not in self.pending:
            raise NoPendingRetrieve(f"no outstanding retrieve for {address}")
        batch = self.pending.pop(address)
        # the batch holds its envelopes, so their ids stay unique until here
        acked = {id(env) for _, env in batch}
        queue = self.queues.get(address, [])
        queue[:] = [entry for entry in queue if id(entry[1]) not in acked]
        return len(batch)

    def purge_expired(self, current_height: int) -> int:
        """Drop every stored envelope whose expiry height has passed."""
        removed = 0
        for queue in self.queues.values():
            keep = [entry for entry in queue if entry[1].expires_at >= current_height]
            removed += len(queue) - len(keep)
            queue[:] = keep
        return removed

    def stats(self) -> dict[str, int]:
        return {addr: len(q) for addr, q in sorted(self.queues.items())}
