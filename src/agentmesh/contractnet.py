"""Courier auction: call-for-bids, signed bids, reputation, winner selection.

The task-allocation pattern is announce/collect/award: the logistics agent
discovers couriers by protocol digest, sends them a CallForBids that names
them all (a limited broadcast, one signature per MAX_RECIPIENTS couriers),
verifies every CourierBid's content digest and signature, filters out bids
that miss the delivery deadline, scores the rest on price, speed, and
reputation, and awards exactly one AcceptBid (every other bidder gets a
RejectBid sent the same way). Rejected or tampered bids never reach
scoring. This module decides whom to call and whom to award; it moves no
money. The handler's Context seals and sends the messages, and the
logistics agent (scenario.build_logistics_agent) opens the escrow and ends
every order through one `end`, which rejects whoever still waits.

Winner scoring uses exact rational arithmetic:

    total = w_price * (min_price / price)
          + w_speed * (min_eta / eta)
          + w_reputation * reputation

Both normalizations land in (0, 1] with 1 best, so the formula is scale-free
in prices and ETAs. Ties break toward the lexicographically smallest agent
address.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from fractions import Fraction
from typing import Iterable, Mapping, Protocol as TypingProtocol, Sequence

# unused here; bench/tests/test_bench.py looks verify_digest up on this module
from .identity import AgentIdentity, BadDigestLength, Signature, signed_by, verify_digest
from .runtime import Context
from .wire import (
    MAX_RECIPIENTS,
    RECIPIENT_SEP,
    ModelSchema,
    ProtocolSpec,
    Record,
    SemanticType,
    canonical_encode,
)

# Message models. AcceptBid and RejectBid carry no fields: the session id
# already correlates them with the bid they answer.
CALL_FOR_BIDS = ModelSchema.build(
    "CallForBids",
    source=SemanticType.STRING,
    destination=SemanticType.STRING,
    deadline=SemanticType.STRING,
    bid_deadline=SemanticType.INT,
)
COURIER_BID = ModelSchema.build(
    "CourierBid",
    price_fet=SemanticType.INT,
    eta_minutes=SemanticType.INT,
    courier_id=SemanticType.STRING,
    digest=SemanticType.STRING,
    signature=SemanticType.STRING,
)
ACCEPT_BID = ModelSchema.build("AcceptBid")
REJECT_BID = ModelSchema.build("RejectBid")

COURIER_AUCTION = ProtocolSpec(
    "CourierAuction", "1.1", (CALL_FOR_BIDS, COURIER_BID, ACCEPT_BID, REJECT_BID)
)

_BID_BODY = ModelSchema.build(
    "CourierBid",
    price_fet=SemanticType.INT,
    eta_minutes=SemanticType.INT,
    courier_id=SemanticType.STRING,
)


class ContractNetError(Exception):
    """Base for auction failures."""


class NoCouriers(ContractNetError):
    """Registry search found no live courier for the auction protocol."""


class NoFeasibleBid(ContractNetError):
    """Every verified bid misses the delivery deadline."""


class ScorerUnavailable(ContractNetError):
    """Reputation backend is down; callers fall back to a neutral prior."""


def local_time(text: str) -> datetime:
    """An ISO-8601 time without a UTC offset; ValueError for anything else."""
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is not None:
        raise ValueError(f"{text!r} carries a UTC offset")
    return moment


@dataclass(frozen=True)
class DeliveryTask:
    source: str
    destination: str
    deadline: str  # ISO-8601, local time
    requirements: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        local_time(self.deadline)  # ValueError unless a local ISO-8601 time

    def deadline_dt(self) -> datetime:
        return local_time(self.deadline)


@dataclass(frozen=True)
class VerifiedBid:
    """A bid that already passed verify_bid, keyed by sender address."""

    address: str
    courier_id: str
    price_fet: int  # unit is the auctioneer's convention; scoring uses ratios only
    eta_minutes: int

    def __post_init__(self) -> None:
        if self.price_fet <= 0:
            raise ContractNetError("bid price must be positive")
        if self.eta_minutes <= 0:
            raise ContractNetError("bid ETA must be positive")


@dataclass(frozen=True)
class ReputationScore:
    agent_address: str
    score: Fraction
    summary: str

    def __post_init__(self) -> None:
        if not (0 <= self.score <= 1):
            raise ContractNetError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class SelectionWeights:
    w_price: Fraction
    w_speed: Fraction
    w_reputation: Fraction

    def __post_init__(self) -> None:
        total = self.w_price + self.w_speed + self.w_reputation
        if min(self.w_price, self.w_speed, self.w_reputation) < 0 or total != 1:
            raise ContractNetError("weights must be non-negative and sum to exactly 1")

    @classmethod
    def default(cls) -> "SelectionWeights":
        return cls(Fraction(2, 5), Fraction(3, 10), Fraction(3, 10))


@dataclass(frozen=True)
class BidVerification:
    verified: bool
    reason: str | None = None  # TamperedPayload | BadSignature

    def __bool__(self) -> bool:
        return self.verified


def bid_body_digest(price_fet: int, eta_minutes: int, courier_id: str) -> bytes:
    """Digest over the bid's economic content; the courier signs exactly this."""
    body = Record(
        _BID_BODY,
        {"price_fet": price_fet, "eta_minutes": eta_minutes, "courier_id": courier_id},
    )
    return hashlib.sha256(canonical_encode(body)).digest()


def make_bid_record(
    identity: AgentIdentity, courier_id: str, price_fet: int, eta_minutes: int
) -> Record:
    """Build a CourierBid with a fresh digest and signature."""
    digest = bid_body_digest(price_fet, eta_minutes, courier_id)
    signature = identity.sign_digest(digest)
    return Record(
        COURIER_BID,
        {
            "price_fet": price_fet,
            "eta_minutes": eta_minutes,
            "courier_id": courier_id,
            "digest": digest.hex(),
            "signature": signature.hex(),
        },
    )


def verify_bid(bid: Record, sender_address: str) -> BidVerification:
    """Recompute the content digest, then check the signature against the
    envelope sender. Hostile input must never raise."""
    if bid.schema.digest() != COURIER_BID.digest():
        return BidVerification(False, "TamperedPayload")
    # a CourierBid's values were validated when it was built or decoded, and
    # hold the body's three fields, so they are hashed without a new Record
    recomputed = hashlib.sha256(_BID_BODY._codec.encode(bid.values)).digest()
    if recomputed.hex() != bid["digest"]:
        return BidVerification(False, "TamperedPayload")
    try:
        signature = Signature(bytes.fromhex(bid["signature"]))
    except (ValueError, BadDigestLength):
        return BidVerification(False, "BadSignature")
    if not signed_by(sender_address, recomputed, signature):
        return BidVerification(False, "BadSignature")
    return BidVerification(True)


class ReputationScorer(TypingProtocol):
    """Scoring backend interface; the default is deterministic and local.

    An LLM-backed scraper could stand here; it only has to map addresses to
    scores in [0, 1]."""

    def assess(self, addresses: Sequence[str]) -> dict[str, ReputationScore]: ...


NEUTRAL_SCORE = Fraction(1, 2)

POSITIVE_WORDS = frozenset(
    "excellent great reliable fast friendly professional recommend recommended "
    "careful punctual good highly rated top best".split()
)
NEGATIVE_WORDS = frozenset(
    "late broken damaged rude slow lost terrible bad poor unreliable awful worst".split()
)


# a run of characters for which str.isalnum() holds: in `re`, \w is exactly
# those and "_"
_WORD = re.compile(r"[^\W_]+")


def _tokenize(text: str) -> list[str]:
    return _WORD.findall(text.lower())


@dataclass
class DeterministicScorer:
    """Keyword-count scorer over per-agent review texts plus star ratings.

    Rule: pos = positive keyword hits + ratings of 4 or 5 stars,
    neg = negative keyword hits + ratings of 1 or 2 stars,
    score = pos / (pos + neg), or 1/2 when there is no evidence.
    Adding a 4-or-5-star rating never lowers a score (pos/(pos+neg) is
    monotone in pos). A review's keywords are counted once, when it is
    added; ratings are read from `stars` on each assess, so a dict shared
    with whoever publishes them reaches the next score.
    """

    review_hits: dict[str, list[int]] = field(default_factory=dict)  # [pos, neg]
    stars: dict[str, list[int]] = field(default_factory=dict)

    def add_review(self, address: str, text: str) -> None:
        hits = self.review_hits.setdefault(address, [0, 0])
        for token in _tokenize(text):
            if token in POSITIVE_WORDS:
                hits[0] += 1
            elif token in NEGATIVE_WORDS:
                hits[1] += 1

    def assess(self, addresses: Sequence[str]) -> dict[str, ReputationScore]:
        out: dict[str, ReputationScore] = {}
        for address in addresses:
            pos, neg = self.review_hits.get(address, (0, 0))
            for rating in self.stars.get(address, []):
                if rating >= 4:
                    pos += 1
                elif rating <= 2:
                    neg += 1
            if pos + neg == 0:
                score, summary = NEUTRAL_SCORE, "no evidence, neutral prior"
            else:
                score = Fraction(pos, pos + neg)
                summary = f"{pos} positive / {neg} negative signals"
            out[address] = ReputationScore(address, score, summary)
        return out


def assess_reputation(
    scorer: ReputationScorer, addresses: Sequence[str]
) -> dict[str, ReputationScore]:
    """Score every address; a dead scorer degrades to the neutral prior."""
    if not addresses:
        raise ContractNetError("assess_reputation needs at least one address")
    try:
        scores = scorer.assess(addresses)
    except ScorerUnavailable:
        return {
            a: ReputationScore(a, NEUTRAL_SCORE, "scorer unavailable, neutral prior")
            for a in addresses
        }
    missing = [a for a in addresses if a not in scores]
    for address in missing:
        scores[address] = ReputationScore(address, NEUTRAL_SCORE, "unscored, neutral prior")
    return scores


def select_winner(
    bids: Sequence[VerifiedBid],
    scores: Mapping[str, ReputationScore],
    weights: SelectionWeights,
    deadline: datetime,
    announced_at: datetime,
) -> tuple[str, list[str]]:
    """Argmax of the documented formula over deadline-feasible bids.

    Returns (winner address, loser addresses sorted). All arithmetic is
    exact rational, so ties are real ties and break by address order. A bid
    is feasible when its whole-minute ETA fits the whole minutes from the
    announcement to the deadline, so no arrival past the calendar is formed.
    """
    budget = (deadline - announced_at) // timedelta(minutes=1)
    feasible = [bid for bid in bids if bid.eta_minutes <= budget]
    if not feasible:
        raise NoFeasibleBid(f"all {len(bids)} bids arrive after {deadline.isoformat()}")
    min_price = min(b.price_fet for b in feasible)
    min_eta = min(b.eta_minutes for b in feasible)
    # Each total times the weights' common denominator, kept as an integer
    # fraction n/d: price_k/price + speed_k/eta + rep_k*rep over
    # d = price*eta*rep.denominator. Totals compare by cross-multiplying.
    wp, ws, wr = weights.w_price, weights.w_speed, weights.w_reputation
    price_k = wp.numerator * ws.denominator * wr.denominator * min_price
    speed_k = ws.numerator * wp.denominator * wr.denominator * min_eta
    rep_k = wr.numerator * wp.denominator * ws.denominator
    best_address: str | None = None
    best_n, best_d = 0, 1
    for bid in sorted(feasible, key=lambda b: b.address):
        rep = scores[bid.address].score if bid.address in scores else NEUTRAL_SCORE
        price, eta, rep_d = bid.price_fet, bid.eta_minutes, rep.denominator
        n = (price_k * eta + speed_k * price) * rep_d + rep_k * rep.numerator * price * eta
        d = price * eta * rep_d
        if best_address is None or n * best_d > best_n * d:
            best_address, best_n, best_d = bid.address, n, d
    assert best_address is not None
    losers = sorted(b.address for b in bids if b.address != best_address)
    return best_address, losers


def _send_to_each(ctx: Context, addresses: list[str], record: Record, **send) -> None:
    """Send record to every address, in order: one envelope for each run of
    up to MAX_RECIPIENTS of them, in the context's session."""
    for start in range(0, len(addresses), MAX_RECIPIENTS):
        ctx.send(RECIPIENT_SEP.join(addresses[start:start + MAX_RECIPIENTS]), record, **send)


def announce(ctx: Context, task: DeliveryTask, bid_deadline: int) -> list[str]:
    """Send a CallForBids, valid until the bid deadline and in the context's
    session, to every live courier found by protocol-digest search of the
    context's world registry, in search order; returns their addresses. One
    envelope names up to MAX_RECIPIENTS of them, so each courier sees the
    others its envelope names, all of whom the same registry search shows
    anyone.

    Couriers are discovered exclusively through the registry; a hardcoded
    address can never enter the auction.
    """
    if bid_deadline <= ctx.height:
        raise ContractNetError("bid_deadline must be after the announcement height")
    couriers = ctx.world.registry.search(ctx.height, protocol_digest=COURIER_AUCTION.digest())
    invited = [r.address for r in couriers if r.address != ctx.address]
    if not invited:
        raise NoCouriers("no live courier advertises the auction protocol")
    call = Record(
        CALL_FOR_BIDS,
        {
            "source": task.source,
            "destination": task.destination,
            "deadline": task.deadline,
            "bid_deadline": bid_deadline,
        },
    )
    _send_to_each(ctx, invited, call, expires_at=bid_deadline)
    return invited


def reject_bidders(ctx: Context, bidders: Iterable[str]) -> None:
    """Send a RejectBid to every bidder, in address order and in the
    context's session, one envelope naming up to MAX_RECIPIENTS of them,
    and nothing when there is none: to the losers once the escrow opens, or
    to every bidder of an auction that ends without one.

    The signed target shows each bidder the others it names, so a
    rejection tells who else bid and lost. Bids stay private: each goes to
    the logistics agent alone, and no courier is sent another's price or
    ETA. The names are invited couriers, whom anyone can list from the
    registry by protocol digest."""
    _send_to_each(ctx, sorted(bidders), Record(REJECT_BID, {}))
