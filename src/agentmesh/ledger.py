"""Token ledger: block-height clock, balances, fees, and escrow contracts.

All amounts are integer micro-FET (1 FET = 1_000_000 micro-FET); floats never
touch money. The conservation invariant is checked in tests after every
mutating call:

    sum(balances) + sum(open escrow amounts) + fee_sink == total minted

Every mutating operation appends one canonically encoded record to an
in-memory journal, which can be written to a file (one hex line per entry)
and replayed to reconstruct identical state. Registry operations share the
same journal so a whole world is replayable from one file.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .wire import (
    ModelSchema,
    Record,
    SemanticType,
    canonical_decode,
    canonical_encode,
)

UFET_PER_FET = 1_000_000


def fet(whole: int) -> int:
    """Whole FET to micro-FET."""
    return whole * UFET_PER_FET


class LedgerError(Exception):
    """Base for ledger failures."""


class InsufficientFunds(LedgerError):
    """Balance too low; carries the exact shortfall in micro-FET."""

    def __init__(self, wallet: str, needed: int, available: int) -> None:
        self.wallet = wallet
        self.shortfall = needed - available
        super().__init__(
            f"{wallet} needs {needed} uFET but holds {available} "
            f"(short {self.shortfall})"
        )


class ZeroAmount(LedgerError):
    """Transfers must move a positive amount."""


class UnknownEscrow(LedgerError):
    """No escrow with that id."""


class NotArbiter(LedgerError):
    """Only the escrow's arbiter may settle it."""


class AlreadySettled(LedgerError):
    """Escrow already reached a terminal state."""


class EscrowState(Enum):
    OPEN = "Open"
    RELEASED = "Released"
    REFUNDED = "Refunded"


class EscrowOutcome(Enum):
    RELEASED = "Released"
    REFUNDED = "Refunded"


@dataclass
class EscrowContract:
    escrow_id: bytes
    payer: str
    payee: str
    amount: int
    arbiter: str
    state: EscrowState = EscrowState.OPEN


@dataclass(frozen=True)
class Receipt:
    op: str
    height: int
    amount: int


# Journal record shapes. Addresses travel as strings, escrow ids as hex,
# string->string metadata as sorted "key=value" items (the wire type set
# has no string map).
MINT_OP = ModelSchema.build("LedgerMint", wallet=SemanticType.STRING, amount=SemanticType.INT)
ADVANCE_OP = ModelSchema.build("LedgerAdvance", blocks=SemanticType.INT)
TRANSFER_OP = ModelSchema.build(
    "LedgerTransfer",
    sender=SemanticType.STRING,
    recipient=SemanticType.STRING,
    amount=SemanticType.INT,
)
FEE_OP = ModelSchema.build("LedgerFee", wallet=SemanticType.STRING, amount=SemanticType.INT)
ESCROW_OPEN_OP = ModelSchema.build(
    "EscrowOpen",
    escrow_id=SemanticType.STRING,
    payer=SemanticType.STRING,
    payee=SemanticType.STRING,
    amount=SemanticType.INT,
    arbiter=SemanticType.STRING,
)
ESCROW_SETTLE_OP = ModelSchema.build(
    "EscrowSettle",
    escrow_id=SemanticType.STRING,
    caller=SemanticType.STRING,
    outcome=SemanticType.STRING,
)
REGISTER_OP = ModelSchema.build(
    "RegistryRegister",
    address=SemanticType.STRING,
    sequence=SemanticType.INT,
    endpoint=SemanticType.STRING,
    protocols=SemanticType.LIST_OF_STRING,
    metadata=SemanticType.LIST_OF_STRING,
)

JOURNAL_SCHEMAS: tuple[ModelSchema, ...] = (
    MINT_OP,
    ADVANCE_OP,
    TRANSFER_OP,
    FEE_OP,
    ESCROW_OPEN_OP,
    ESCROW_SETTLE_OP,
    REGISTER_OP,
)


@dataclass
class Ledger:
    """Single-writer token ledger; reads are plain attribute access."""

    height: int = 0
    balances: dict[str, int] = field(default_factory=dict)
    escrows: dict[bytes, EscrowContract] = field(default_factory=dict)
    fee_sink: int = 0
    total_supply: int = 0
    journal: list[Record] = field(default_factory=list)
    _escrow_counter: int = 0

    # -- journal helpers ---------------------------------------------------

    def _journal(self, schema: ModelSchema, **values: object) -> None:
        self.journal.append(Record(schema, values))

    def journal_append(self, record: Record) -> None:
        """Used by the registry to share this journal."""
        self.journal.append(record)

    # -- queries ---------------------------------------------------------

    def balance(self, wallet: str) -> int:
        return self.balances.get(wallet, 0)

    def locked_total(self) -> int:
        return sum(e.amount for e in self.escrows.values() if e.state is EscrowState.OPEN)

    def conservation_ok(self) -> bool:
        return sum(self.balances.values()) + self.locked_total() + self.fee_sink == self.total_supply

    # -- mutations ---------------------------------------------------

    def mint(self, wallet: str, amount: int) -> Receipt:
        """Create supply (scenario setup only)."""
        if amount <= 0:
            raise ZeroAmount("mint amount must be positive")
        self.balances[wallet] = self.balance(wallet) + amount
        self.total_supply += amount
        self._journal(MINT_OP, wallet=wallet, amount=amount)
        return Receipt("mint", self.height, amount)

    def advance_block(self, n: int) -> int:
        if n < 0:
            raise LedgerError("cannot rewind the block clock")
        self.height += n
        if n:
            self._journal(ADVANCE_OP, blocks=n)
        return self.height

    def transfer(self, sender: str, recipient: str, amount: int) -> Receipt:
        if amount <= 0:
            raise ZeroAmount(f"transfer amount must be positive, got {amount}")
        have = self.balance(sender)
        if have < amount:
            raise InsufficientFunds(sender, amount, have)
        self.balances[sender] = have - amount
        self.balances[recipient] = self.balance(recipient) + amount
        self._journal(TRANSFER_OP, sender=sender, recipient=recipient, amount=amount)
        return Receipt("transfer", self.height, amount)

    def charge_fee(self, wallet: str, amount: int) -> Receipt:
        if amount <= 0:
            raise ZeroAmount(f"fee must be positive, got {amount}")
        have = self.balance(wallet)
        if have < amount:
            raise InsufficientFunds(wallet, amount, have)
        self.balances[wallet] = have - amount
        self.fee_sink += amount
        self._journal(FEE_OP, wallet=wallet, amount=amount)
        return Receipt("fee", self.height, amount)

    def open_escrow(
        self, payer: str, payee: str, amount: int, arbiter: str, escrow_id: bytes | None = None
    ) -> bytes:
        """Lock amount from payer; returns the escrow id. Replay passes the
        journaled id, which is reused instead of minting a fresh one."""
        if amount <= 0:
            raise ZeroAmount(f"escrow amount must be positive, got {amount}")
        have = self.balance(payer)
        if have < amount:
            raise InsufficientFunds(payer, amount, have)
        self._escrow_counter += 1
        if escrow_id is None:
            escrow_id = hashlib.sha256(
                b"escrow" + struct.pack(">Q", self._escrow_counter)
            ).digest()[:16]
        self.balances[payer] = have - amount
        self.escrows[escrow_id] = EscrowContract(escrow_id, payer, payee, amount, arbiter)
        self._journal(
            ESCROW_OPEN_OP,
            escrow_id=escrow_id.hex(),
            payer=payer,
            payee=payee,
            amount=amount,
            arbiter=arbiter,
        )
        return escrow_id

    def settle_escrow(self, escrow_id: bytes, caller: str, outcome: EscrowOutcome) -> Receipt:
        contract = self.escrows.get(escrow_id)
        if contract is None:
            raise UnknownEscrow(f"no escrow {escrow_id.hex()}")
        if contract.state is not EscrowState.OPEN:
            raise AlreadySettled(f"escrow {escrow_id.hex()} is {contract.state.value}")
        if caller != contract.arbiter:
            raise NotArbiter(f"{caller} is not the arbiter of {escrow_id.hex()}")
        if outcome is EscrowOutcome.RELEASED:
            contract.state = EscrowState.RELEASED
            self.balances[contract.payee] = self.balance(contract.payee) + contract.amount
        else:
            contract.state = EscrowState.REFUNDED
            self.balances[contract.payer] = self.balance(contract.payer) + contract.amount
        self._journal(
            ESCROW_SETTLE_OP,
            escrow_id=escrow_id.hex(),
            caller=caller,
            outcome=outcome.value,
        )
        return Receipt("settle", self.height, contract.amount)


# -- journal file format ---------------------------------------------------
# One entry per line: hex(schema_digest || canonical payload). See docs/wire.md.

def journal_lines(records: Iterable[Record]) -> list[str]:
    return [(r.schema.digest() + canonical_encode(r)).hex() for r in records]


def write_journal(path: str, records: Iterable[Record]) -> int:
    lines = journal_lines(records)
    with open(path, "w", encoding="ascii") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


def read_journal(path: str) -> list[Record]:
    schemas = {s.digest(): s for s in JOURNAL_SCHEMAS}
    records: list[Record] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            raw = bytes.fromhex(line)
            digest, payload = raw[:32], raw[32:]
            schema = schemas.get(digest)
            if schema is None:
                raise LedgerError(f"line {lineno}: unknown journal schema {digest.hex()[:16]}")
            records.append(canonical_decode(schema, payload))
    return records


def replay(records: Iterable[Record]) -> Ledger:
    """Rebuild a ledger by applying journal records in order.

    Registry records are tolerated (they carry no balance changes beyond the
    fee, which is journaled separately) so one journal can hold the whole
    world. Conservation is verified after every applied record.
    """
    ledger = Ledger()
    for record in records:
        name = record.schema.name
        if name == "LedgerMint":
            ledger.mint(record["wallet"], record["amount"])
        elif name == "LedgerAdvance":
            ledger.advance_block(record["blocks"])
        elif name == "LedgerTransfer":
            ledger.transfer(record["sender"], record["recipient"], record["amount"])
        elif name == "LedgerFee":
            ledger.charge_fee(record["wallet"], record["amount"])
        elif name == "EscrowOpen":
            ledger.open_escrow(
                record["payer"],
                record["payee"],
                record["amount"],
                record["arbiter"],
                escrow_id=bytes.fromhex(record["escrow_id"]),
            )
        elif name == "EscrowSettle":
            ledger.settle_escrow(
                bytes.fromhex(record["escrow_id"]),
                record["caller"],
                EscrowOutcome(record["outcome"]),
            )
        elif name == "RegistryRegister":
            ledger.journal_append(record)
        else:
            raise LedgerError(f"unknown journal record {name!r}")
        if not ledger.conservation_ok():
            raise LedgerError(f"conservation violated after {name}")
    return ledger
