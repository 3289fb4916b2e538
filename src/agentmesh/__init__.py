"""Desk-scale multi-agent stack: identities, signed envelopes, a simulated
network, a token ledger with escrow, an expiring agent registry, offline
mailboxes, and a courier auction running end to end on top of them."""

from .identity import AgentIdentity, Signature, derive_identity, verify_digest
from .ledger import Ledger, fet
from .mailbox import MailboxStore
from .registry import Registry
from .runtime import Agent, NetworkModel, World
from .wire import (
    Envelope,
    ModelSchema,
    ProtocolSpec,
    Record,
    SemanticType,
    canonical_decode,
    canonical_encode,
    open_envelope,
    seal_envelope,
)

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "AgentIdentity",
    "Envelope",
    "Ledger",
    "MailboxStore",
    "ModelSchema",
    "NetworkModel",
    "ProtocolSpec",
    "Record",
    "Registry",
    "SemanticType",
    "Signature",
    "World",
    "canonical_decode",
    "canonical_encode",
    "derive_identity",
    "fet",
    "open_envelope",
    "seal_envelope",
    "verify_digest",
]
