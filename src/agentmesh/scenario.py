"""End-to-end logistics demo: request parsing, packaging chat, courier
auction, escrow settlement, and feedback, placed by a scripted orchestrator
whose plan yields each request and gets its reply back from World.query.

The cast: a user-side assistant agent, a logistics coordinator, a packaging
business, a traffic-data service, and the configured courier fleet. Every
service address the orchestrator contacts comes out of a registry search;
nothing is hardwired.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, fields, replace
from datetime import date, datetime, timedelta

from .config import CourierSpec, ScenarioConfig
from .contractnet import (
    ACCEPT_BID,
    CALL_FOR_BIDS,
    COURIER_AUCTION,
    COURIER_BID,
    REJECT_BID,
    ContractNetError,
    DeliveryTask,
    DeterministicScorer,
    NoCouriers,
    VerifiedBid,
    announce,
    assess_reputation,
    bid_body_digest,
    make_bid_record,
    reject_bidders,
    select_winner,
    verify_bid,
)
from .identity import AgentIdentity, derive_identities, derive_identity
from .ledger import EscrowOutcome, InsufficientFunds, Ledger, LedgerError, UFET_PER_FET, fet
from .mailbox import MailboxStore
from .registry import (
    Expired as RegistrationExpired,
    FixtureDnsResolver,
    Registry,
    RegistryError,
    registration_signing_digest,
)
from .runtime import Agent, DrainIncomplete, InvalidRecord, NetworkModel, Timeout, World
from .services import ServiceError
from .wire import (
    CHAT_MESSAGE,
    CHAT_PROTOCOL,
    ModelSchema,
    ProtocolSpec,
    Record,
    SemanticType,
    WireError,
    canonical_encode,
    make_chat_message,
)


class ScenarioError(Exception):
    """Base for scenario-level failures."""


class UnparsableRequest(ScenarioError):
    """The request text does not fill every template slot."""

    def __init__(self, missing: list[str]) -> None:
        self.missing = tuple(missing)
        super().__init__(f"request is missing: {', '.join(missing)}")


class DuplicateFeedback(ScenarioError):
    """A rater already reviewed this auction."""


class NoCompletedDelivery(ScenarioError):
    """Feedback requires a delivery completed for this rater."""


# ---------------------------------------------------------------------------
# coordination protocols

LOGISTICS_REQUEST = ModelSchema.build(
    "LogisticsRequest",
    source=SemanticType.STRING,
    destination=SemanticType.STRING,
    deadline=SemanticType.STRING,
    requirements=SemanticType.LIST_OF_STRING,
    payer_wallet=SemanticType.STRING,
)

LOGISTICS_PROPOSAL = ModelSchema.build(
    "LogisticsProposal",
    status=SemanticType.STRING,  # proposal | no_couriers | no_feasible_bid
    courier_id=SemanticType.STRING,
    courier_address=SemanticType.STRING,
    price_fet=SemanticType.INT,
    eta_minutes=SemanticType.INT,
    arrival=SemanticType.STRING,  # ISO-8601, empty on failure
    domain=SemanticType.STRING,
    domain_verified=SemanticType.BOOL,
    detail=SemanticType.STRING,
)

DELIVERY_DECISION = ModelSchema.build(
    "DeliveryDecision",
    approved=SemanticType.BOOL,
    reason=SemanticType.STRING,
)

DELIVERY_OUTCOME = ModelSchema.build(
    "DeliveryOutcome",
    status=SemanticType.STRING,  # delivered | insufficient_funds | declined_by_user | ...
    escrow_id=SemanticType.STRING,
    courier_id=SemanticType.STRING,
    paid_fet=SemanticType.INT,
    detail=SemanticType.STRING,
)

DELIVERY_CONFIRMED = ModelSchema.build(
    "DeliveryConfirmed",
    courier_id=SemanticType.STRING,
)

LOGISTICS_PROTOCOL = ProtocolSpec(
    "LogisticsCoordination",
    "1.0",
    (LOGISTICS_REQUEST, LOGISTICS_PROPOSAL, DELIVERY_DECISION, DELIVERY_OUTCOME, DELIVERY_CONFIRMED),
)

MAPS_QUERY = ModelSchema.build(
    "TrafficQuery",
    origin=SemanticType.STRING,
    destination=SemanticType.STRING,
)

MAPS_REPLY = ModelSchema.build(
    "TrafficEstimate",
    delay_minutes=SemanticType.INT,
)

MAPS_PROTOCOL = ProtocolSpec("TrafficData", "1.0", (MAPS_QUERY, MAPS_REPLY))


# ---------------------------------------------------------------------------
# request parsing

# Template grammar, in order: "from [my office in] <source> to <destination>."
# then "by <H[:MM]> [AM|PM] today". Qualifier phrases are scanned anywhere.
_ROUTE_RE = re.compile(
    r"from (?P<office>my office in )?(?P<src>[A-Za-z][A-Za-z ]*?) to (?P<dst>[A-Za-z][A-Za-z, ]*?)\s*[.!?]"
)
_DEADLINE_RE = re.compile(r"by (\d{1,2})(?::(\d{2}))?\s*(am|pm)?\s+today", re.IGNORECASE)

QUALIFIER_PHRASES = ("fragile", "careful handling", "urgent", "refrigerated", "heavy")

_DEMO_DAY = date(2026, 3, 2)  # default calendar day for "today"


def parse_request(text: str, base_date: date | None = None) -> DeliveryTask:
    """Deterministic slot-filling over the demo template.

    "today" resolves against base_date (the demo calendar day when omitted),
    so parsing never consults the wall clock.
    """
    day = base_date if base_date is not None else _DEMO_DAY
    missing: list[str] = []
    route = _ROUTE_RE.search(text)
    if route is None:
        missing.extend(["source", "destination"])
    deadline_m = _DEADLINE_RE.search(text)
    if deadline_m is None:
        missing.append("deadline")
    if missing:
        raise UnparsableRequest(missing)
    assert route is not None and deadline_m is not None
    source = route.group("src").strip()
    if route.group("office"):
        source = f"{source} office"
    destination = " ".join(route.group("dst").replace(",", " ").split())
    hour = int(deadline_m.group(1))
    minute = int(deadline_m.group(2) or 0)
    meridiem = (deadline_m.group(3) or "").lower()
    if meridiem == "pm" and hour != 12:
        hour += 12
    elif meridiem == "am" and hour == 12:
        hour = 0
    if not (0 <= hour <= 23 and 0 <= minute <= 59):
        raise UnparsableRequest(["deadline"])
    deadline = datetime(day.year, day.month, day.day, hour, minute).isoformat()
    lowered = text.lower()
    requirements = tuple(q for q in QUALIFIER_PHRASES if q in lowered)
    return DeliveryTask(source, destination, deadline, requirements)


# ---------------------------------------------------------------------------
# public feedback register

@dataclass(frozen=True)
class FeedbackRecord:
    rater_wallet: str
    rated_address: str
    stars: int  # 1..5
    published_at: int  # block height


@dataclass
class FeedbackRegister:
    """Append-only public register; one record per (rater, auction).

    mark_delivered() issues the auction id a rating must reference: the
    delivery's escrow id, which never repeats within one world's ledger.
    `stars` indexes the ratings by rated address; a world's reputation
    scorer reads that index as it grows.
    """

    records: list[FeedbackRecord] = field(default_factory=list)
    stars: dict[str, list[int]] = field(default_factory=dict)
    _by_auction: dict[tuple[str, str], FeedbackRecord] = field(default_factory=dict)
    _completed: dict[tuple[str, str], str] = field(default_factory=dict)

    def mark_delivered(self, rater_wallet: str, escrow_hex: str, rated_address: str) -> str:
        self._completed[(rater_wallet, escrow_hex)] = rated_address
        return escrow_hex

    def stars_for(self, address: str) -> list[int]:
        return list(self.stars.get(address, ()))


def record_feedback(
    register: FeedbackRegister,
    rater_wallet: str,
    rated_address: str,
    stars: int,
    auction_id: str,
    published_at: int,
) -> FeedbackRecord:
    """Publish one rating for a completed delivery."""
    if not (1 <= stars <= 5):
        raise ScenarioError(f"stars must be 1..5, got {stars}")
    key = (rater_wallet, auction_id)
    if register._completed.get(key) != rated_address:
        raise NoCompletedDelivery(
            f"no completed delivery by {rated_address} for this rater/auction"
        )
    if key in register._by_auction:
        raise DuplicateFeedback(f"auction {auction_id} already rated by this wallet")
    record = FeedbackRecord(rater_wallet, rated_address, stars, published_at)
    register.records.append(record)
    register.stars.setdefault(rated_address, []).append(stars)
    register._by_auction[key] = record
    return record


# ---------------------------------------------------------------------------
# agent builders

_CLARIFYING_QUESTION = (
    "Of course. To provide a quote, could you tell me the item's dimensions and weight?"
)

USER_SEED = "asi one end user seed"
LOGISTICS_SEED = "fetch logistics coordinator seed"
PACKAGING_SEED = "cambridge secure packaging seed"
MAPS_SEED = "city maps data service seed"

PACKAGING_NAME = "Cambridge Secure Packaging"
LOGISTICS_NAME = "FetchLogistics"
MAPS_NAME = "CityMapsData"
USER_AGENT_NAME = "ASIOne"


def _chat(ctx, text: str) -> Record:
    return make_chat_message(f"tick-{ctx.height}", ctx.agent.fresh_session_id(), [text])


def build_user_agent(identity: AgentIdentity) -> Agent:
    """The assistant's network presence; its waiters take the order's replies."""
    agent = Agent(USER_AGENT_NAME, identity)
    agent.include_protocol(CHAT_PROTOCOL)
    agent.include_protocol(LOGISTICS_PROTOCOL)
    return agent


def build_packaging_agent(identity: AgentIdentity, quote_fet: int) -> Agent:
    agent = Agent(PACKAGING_NAME, identity)
    agent.include_protocol(CHAT_PROTOCOL)
    # (session, customer) pairs asked the clarifying question; the quote ends
    # the dialogue, and a stranger who guesses a session gets one of its own
    asked: set[tuple[bytes, str]] = set()

    @agent.on_message(CHAT_MESSAGE)
    def on_chat(ctx, sender: str, msg: Record):
        dialogue = (ctx.session_id, sender)
        if dialogue not in asked:
            asked.add(dialogue)
            ctx.reply(_chat(ctx, _CLARIFYING_QUESTION))
        else:
            asked.discard(dialogue)
            ctx.reply(
                _chat(ctx, f"We can professionally package your fragile item for {quote_fet} FET.")
            )

    return agent


def build_maps_agent(identity: AgentIdentity, delay_minutes: int) -> Agent:
    agent = Agent(MAPS_NAME, identity)
    agent.include_protocol(MAPS_PROTOCOL)

    @agent.on_message(MAPS_QUERY)
    def on_traffic_query(ctx, sender: str, msg: Record):
        ctx.diag("traffic_sold")
        return Record(MAPS_REPLY, {"delay_minutes": delay_minutes})

    return agent


def build_courier_agent(spec: CourierSpec, identity: AgentIdentity, delivery_ticks: int) -> Agent:
    agent = Agent(spec.name, identity)
    agent.include_protocol(COURIER_AUCTION)
    agent.include_protocol(LOGISTICS_PROTOCOL)

    @agent.on_message(CALL_FOR_BIDS)
    def on_call(ctx, sender: str, msg: Record):
        if spec.service_area not in msg["source"].lower():
            ctx.diag("declined_out_of_area")
            return
        ctx.reply(make_bid_record(identity, spec.name, spec.price_fet, spec.eta_minutes))
        ctx.diag("bid_sent")

    @agent.on_message(ACCEPT_BID)
    def on_accept(ctx, sender: str, msg: Record):
        # each accepted job gets its own timer
        def deliver(ctx):
            ctx.send(sender, Record(DELIVERY_CONFIRMED, {"courier_id": spec.name}))
            ctx.diag("delivered")

        ctx.at(ctx.height + delivery_ticks, deliver)
        ctx.diag("bid_accepted")

    @agent.on_message(REJECT_BID)
    def on_reject(ctx, sender: str, msg: Record):
        ctx.diag("bid_lost")

    return agent


def build_saboteur_agent(name: str, identity: AgentIdentity, bid_quota: int) -> Agent:
    """A registered bidder that floods forged bids with would-win prices.

    Half the forgeries carry a digest over different numbers than the body
    claims; the other half carry a signature from a key that is not the
    sender's. Neither kind should ever reach bid storage.
    """
    agent = Agent(name, identity)
    agent.include_protocol(COURIER_AUCTION)
    decoy = derive_identity(f"{name} decoy key")

    @agent.on_message(CALL_FOR_BIDS)
    def on_call(ctx, sender: str, msg: Record):
        for i in range(bid_quota):
            price, eta = 1, 10  # dominant if any filter slips
            courier_id = f"{name}-{i}"
            if i % 2 == 0:
                # digest/signature over different numbers than the body claims
                forged_digest = bid_body_digest(price + 1, eta, courier_id)
                signature = identity.sign_digest(forged_digest)
            else:
                # consistent body, but signed by a key that is not ours
                forged_digest = bid_body_digest(price, eta, courier_id)
                signature = decoy.sign_digest(forged_digest)
            ctx.reply(
                Record(
                    COURIER_BID,
                    {
                        "price_fet": price,
                        "eta_minutes": eta,
                        "courier_id": courier_id,
                        "digest": forged_digest.hex(),
                        "signature": signature.hex(),
                    },
                )
            )
        ctx.diag(f"forged_{bid_quota}_bids")

    return agent


# each field type's zero comes from calling its Python type, in SemanticType order
_ZERO_OF = dict(zip(SemanticType, (str, int, float, bool, list, dict)))


def _filled(schema: ModelSchema, **values) -> Record:
    """A record of `schema`; every field not given is its type's zero."""
    return Record(schema, {**{name: _ZERO_OF[tag]() for name, tag in schema.fields}, **values})


def _bid_window(config: ScenarioConfig) -> int:
    """Ticks an auction stays open: a round trip at the slowest latency, or more."""
    return max(config.bid_window_ticks, 2 * config.latency_max)


@dataclass
class _Auction:
    """One order as the logistics agent tracks it, from request to payout."""

    requester: str
    payer_wallet: str
    task: DeliveryTask
    # awaiting_traffic | collecting | awaiting_decision | awaiting_delivery
    phase: str = "awaiting_traffic"
    maps_address: str = ""  # the only sender whose traffic estimate counts
    traffic_delay: int = 0
    invited: frozenset[str] = frozenset()
    bid_deadline: int = -1
    bids: dict[str, VerifiedBid] = field(default_factory=dict)
    winner: str = ""
    losers: list[str] = field(default_factory=list)
    price_fet: int = 0
    escrow_id: bytes = b""


def build_logistics_agent(
    identity: AgentIdentity,
    config: ScenarioConfig,
    scorer: DeterministicScorer,
) -> Agent:
    """The auctioneer: traffic lookup, call for bids, verification,
    reputation-weighted selection, and the escrow it opens and releases.

    One auction per request session, kept until the order ends; only its
    requester may decide on it, and only the maps agent it queried may set
    the traffic delay. Every ending goes through `end`, which tells the
    bidders still waiting, sends the requester its last record and forgets
    the auction.
    """
    agent = Agent(LOGISTICS_NAME, identity)
    agent.include_protocol(COURIER_AUCTION)
    agent.include_protocol(LOGISTICS_PROTOCOL)
    agent.include_protocol(MAPS_PROTOCOL)
    weights = config.weights()
    announced_at = config.wall_clock()
    auctions: dict[bytes, _Auction] = {}  # request session -> its live order

    def end(ctx, auction: _Auction, schema: ModelSchema, bidders=(), **values) -> None:
        reject_bidders(ctx, bidders)
        ctx.send(auction.requester, _filled(schema, **values))
        del auctions[ctx.session_id]

    def open_auction(ctx, auction: _Auction) -> None:
        bid_deadline = ctx.height + _bid_window(config)
        registry = ctx.agent.world.registry
        try:
            invited = announce(ctx, auction.task, registry, bid_deadline)
        except NoCouriers as exc:
            end(ctx, auction, LOGISTICS_PROPOSAL, status="no_couriers", detail=str(exc))
            return
        auction.invited = frozenset(invited)
        auction.bid_deadline = bid_deadline
        auction.phase = "collecting"
        ctx.at(bid_deadline, close_when_due)
        ctx.diag("auction_opened")

    @agent.on_message(LOGISTICS_REQUEST)
    def on_request(ctx, sender: str, msg: Record):
        if ctx.session_id in auctions:
            raise InvalidRecord("this session already carries a live order")
        try:
            task = DeliveryTask(
                msg["source"], msg["destination"], msg["deadline"], tuple(msg["requirements"])
            )
        except ValueError as exc:
            raise InvalidRecord(f"deadline: {exc}") from exc
        auction = auctions[ctx.session_id] = _Auction(sender, msg["payer_wallet"], task)
        world = ctx.agent.world
        maps_hits = world.registry.search(ctx.height, metadata={"service_type": "maps"})
        if maps_hits:
            maps_record = maps_hits[0]
            if config.maps_fee_fet > 0 and "wallet" in maps_record.metadata:
                try:
                    world.ledger.transfer(
                        identity.wallet_address,
                        maps_record.metadata["wallet"],
                        fet(config.maps_fee_fet),
                    )
                except InsufficientFunds as exc:
                    detail = f"InsufficientFunds: {exc}"
                    end(ctx, auction, LOGISTICS_PROPOSAL, status="insufficient_funds", detail=detail)
                    return
                ctx.diag("maps_fee_paid")
            auction.maps_address = maps_record.address
            ctx.send(
                maps_record.address,
                Record(MAPS_QUERY, {"origin": msg["source"], "destination": msg["destination"]}),
            )
        else:
            open_auction(ctx, auction)

    @agent.on_message(MAPS_REPLY)
    def on_traffic(ctx, sender: str, msg: Record):
        auction = auctions.get(ctx.session_id)
        if auction is None or auction.phase != "awaiting_traffic" or sender != auction.maps_address:
            ctx.diag("unexpected_traffic_reply")
            return
        auction.traffic_delay = msg["delay_minutes"]
        open_auction(ctx, auction)

    @agent.on_message(COURIER_BID)
    def on_bid(ctx, sender: str, msg: Record):
        auction = auctions.get(ctx.session_id)
        if auction is None or auction.phase != "collecting" or ctx.height > auction.bid_deadline:
            ctx.diag("late_bid_rejected")
            return
        if sender not in auction.invited:
            ctx.diag("bid_rejected_uninvited")
            return
        verification = verify_bid(msg, sender)
        if not verification:
            ctx.diag(f"bid_rejected_{verification.reason}")
            return
        try:
            bid = VerifiedBid(sender, msg["courier_id"], msg["price_fet"], msg["eta_minutes"])
        except ContractNetError:
            ctx.diag("bid_rejected_invalid")
            return
        auction.bids[sender] = bid
        ctx.diag("bid_verified")

    def close_when_due(ctx):
        auction = auctions.get(ctx.session_id)
        if auction is None or auction.phase != "collecting":
            return
        bids = auction.bids
        if not bids:
            detail = "no bids arrived before the deadline"
            end(ctx, auction, LOGISTICS_PROPOSAL, status="no_feasible_bid", detail=detail)
            return
        scores = assess_reputation(scorer, sorted(bids))
        delay = auction.traffic_delay
        adjusted = [
            replace(bid, eta_minutes=bid.eta_minutes + delay) for bid in bids.values()
        ]
        deadline_dt = auction.task.deadline_dt()
        try:
            winner, losers = select_winner(adjusted, scores, weights, deadline_dt, announced_at)
        except ContractNetError as exc:
            end(ctx, auction, LOGISTICS_PROPOSAL, bids, status="no_feasible_bid", detail=str(exc))
            return
        chosen = bids[winner]
        eta = chosen.eta_minutes + delay
        arrival = (announced_at + timedelta(minutes=eta)).isoformat()
        registry = ctx.agent.world.registry
        domain = registry.domain_of(winner) or ""
        auction.winner, auction.losers, auction.price_fet = winner, losers, chosen.price_fet
        ctx.diag("winner_selected")
        proposal = _filled(
            LOGISTICS_PROPOSAL,
            status="proposal",
            courier_id=chosen.courier_id,
            courier_address=winner,
            price_fet=chosen.price_fet,
            eta_minutes=eta,
            arrival=arrival,
            domain=domain,
            domain_verified=bool(domain),
        )
        ctx.send(auction.requester, proposal)
        auction.phase = "awaiting_decision"

    @agent.on_message(DELIVERY_DECISION)
    def on_decision(ctx, sender: str, msg: Record):
        auction = auctions.get(ctx.session_id)
        if auction is None or sender != auction.requester or auction.phase != "awaiting_decision":
            return _filled(DELIVERY_OUTCOME, status="no_open_proposal")
        bidders = [auction.winner, *auction.losers]
        if not msg["approved"]:
            ctx.diag("auction_closed_unapproved")
            end(ctx, auction, DELIVERY_OUTCOME, bidders, status=msg["reason"] or "declined_by_user")
            return
        world = ctx.agent.world
        try:
            payee_wallet = world.registry.resolve(auction.winner, ctx.height).metadata["wallet"]
        except (RegistryError, KeyError) as exc:
            lapsed = isinstance(exc, RegistrationExpired)
            status = "payee_registration_expired" if lapsed else "no_payee_wallet"
            end(ctx, auction, DELIVERY_OUTCOME, bidders, status=status)
            return
        try:
            auction.escrow_id = world.ledger.open_escrow(
                auction.payer_wallet, payee_wallet, fet(auction.price_fet), ctx.address
            )
        except InsufficientFunds as exc:
            ctx.diag("escrow_underfunded")
            detail = f"InsufficientFunds: {exc}"
            end(ctx, auction, DELIVERY_OUTCOME, bidders, status="insufficient_funds", detail=detail)
            return
        reject_bidders(ctx, auction.losers)
        ctx.send(auction.winner, Record(ACCEPT_BID, {}))
        auction.phase = "awaiting_delivery"
        ctx.diag("escrow_opened")

    @agent.on_message(DELIVERY_CONFIRMED)
    def on_confirmed(ctx, sender: str, msg: Record):
        auction = auctions.get(ctx.session_id)
        if auction is None or auction.phase != "awaiting_delivery" or sender != auction.winner:
            ctx.diag("unexpected_delivery_confirmation")
            return
        ctx.agent.world.ledger.settle_escrow(
            auction.escrow_id, identity.address, EscrowOutcome.RELEASED
        )
        ctx.diag("escrow_released")
        end(
            ctx,
            auction,
            DELIVERY_OUTCOME,
            status="delivered",
            escrow_id=auction.escrow_id.hex(),
            courier_id=msg["courier_id"],
            paid_fet=auction.price_fet,
        )

    return agent


# ---------------------------------------------------------------------------
# report

@dataclass(frozen=True)
class ScenarioReport:
    """What one order came to. The defaults are a failed order that
    settled nothing."""

    status: str  # "ok" | "failed"
    failure_cause: str  # "" when ok
    winner: str = ""
    winner_address: str = ""
    winner_domain: str = ""
    packaging_ufet: int = 0
    delivery_ufet: int = 0
    total_user_spend_ufet: int = 0
    fee_sink_ufet: int = 0
    total_supply_ufet: int = 0
    conserved: bool = True
    escrows: tuple[str, ...] = ()  # "escrow_hex=State"
    balances: tuple[str, ...] = ()  # "wallet=micro_fet"
    dialogue: tuple[str, ...] = ()
    discovered: tuple[str, ...] = ()  # addresses returned by registry searches
    contacted: tuple[str, ...] = ()  # addresses the orchestrator messaged
    feedback_stars: int = 0  # 0 = no feedback recorded
    transcript: tuple[str, ...] = ()

    @property
    def packaging_fet(self) -> int:
        return self.packaging_ufet // UFET_PER_FET

    @property
    def delivery_fet(self) -> int:
        return self.delivery_ufet // UFET_PER_FET

    @property
    def total_user_spend_fet(self) -> int:
        return self.total_user_spend_ufet // UFET_PER_FET

    def transcript_sha256(self) -> str:
        joined = "\n".join(self.transcript)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    def to_record(self) -> Record:
        """The wire form: tuples go as lists, the transcript as its digest."""
        values = {}
        for f in fields(self):
            value = getattr(self, f.name)
            values[f.name] = list(value) if isinstance(value, tuple) else value
        del values["transcript"]
        values["transcript_sha256"] = self.transcript_sha256()
        return Record(REPORT_SCHEMA, values)

    def encoded_hex(self) -> str:
        return canonical_encode(self.to_record()).hex()

    def render_text(self) -> str:
        def fmt(ufet: int) -> str:
            if ufet % UFET_PER_FET == 0:
                return f"{ufet // UFET_PER_FET} FET"
            return f"{ufet} uFET"

        feedback = f"{self.feedback_stars} stars" if self.feedback_stars else "-"
        lines = [
            f"status: {self.status}" + (f" ({self.failure_cause})" if self.failure_cause else ""),
            f"winner: {self.winner or '-'}"
            + (f" [{self.winner_domain}]" if self.winner_domain else ""),
            f"packaging: {fmt(self.packaging_ufet)}",
            f"delivery: {fmt(self.delivery_ufet)}",
            f"total user spend: {fmt(self.total_user_spend_ufet)}",
            f"fee sink: {fmt(self.fee_sink_ufet)}",
            f"conserved: {'yes' if self.conserved else 'NO'}",
            f"feedback: {feedback}",
            "",
            "## dialogue",
            *self.dialogue,
            "",
            "## escrows",
            *(self.escrows or ("(none)",)),
            "",
            "## balances (micro-FET)",
            *self.balances,
            "",
            f"## transcript ({len(self.transcript)} events, sha256 {self.transcript_sha256()})",
            *self.transcript,
        ]
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        """Canonical record on line one, human-readable summary after."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.encoded_hex() + "\n\n")
            fh.write(self.render_text())


# the wire form of a report: each field by its type, the transcript as its digest
_REPORT_TYPES = {
    "str": SemanticType.STRING,
    "int": SemanticType.INT,
    "bool": SemanticType.BOOL,
    "tuple[str, ...]": SemanticType.LIST_OF_STRING,
}
REPORT_SCHEMA = ModelSchema.build(
    "ScenarioReport",
    **{f.name: _REPORT_TYPES[f.type] for f in fields(ScenarioReport) if f.name != "transcript"},
    transcript_sha256=SemanticType.STRING,
)


# ---------------------------------------------------------------------------
# orchestrator

def _format_clock(iso: str) -> str:
    dt = datetime.fromisoformat(iso)
    hour12 = dt.hour % 12 or 12
    meridiem = "AM" if dt.hour < 12 else "PM"
    return f"{hour12}:{dt.minute:02d} {meridiem}"


_FAILURE_BY_STATUS = {
    "no_couriers": "NoCouriers",
    "no_feasible_bid": "NoFeasibleBid",
    "insufficient_funds": "InsufficientFunds",
    "no_payee_wallet": "NoPayeeWallet",
    "payee_registration_expired": "PayeeRegistrationExpired",
    "no_open_proposal": "ProtocolViolation",
}


_ORDER_FAILURES = (
    Timeout, LedgerError, RegistryError, ScenarioError, ContractNetError, WireError, ServiceError
)


class Orchestrator:
    """Deterministic stand-in for the conversational planner, for one order.

    Runs a fixed plan, a generator that yields each request it waits on, and
    records every user-facing line; run() is the one driver of the plan. The
    two approval gates block on a decision: scripted configs answer from their
    fields, interactive mode from the terminal, where end of input is "no".
    """

    def __init__(self, scenario: ScenarioWorld, input_fn=None) -> None:
        self.world = scenario.world
        self.config = scenario.config
        self.user_agent = scenario.user_agent
        self.register = scenario.feedback_register
        self._input = input_fn if input_fn is not None else input
        self.dialogue: list[str] = []
        self.discovered: set[str] = set()
        self.contacted: set[str] = set()
        user_wallet = self.user_agent.identity.wallet_address
        self._initial_user_balance = self.world.ledger.balance(user_wallet)
        # report fields the order has settled so far, by name
        self._settled: dict[str, object] = {}

    # -- conversation ------------------------------------------------------

    def _say(self, text: str) -> None:
        self.dialogue.append(f"[assistant] {text}")

    def _hear(self, speaker: str, text: str) -> None:
        self.dialogue.append(f"[{speaker}] {text}")

    def _read(self, prompt: str) -> str:
        """One answer from the terminal; end of input reads as an empty one."""
        try:
            return self._input(prompt).strip()
        except EOFError:
            return ""

    def _ask(self, prompt: str, scripted_answer: bool) -> bool:
        self._say(prompt)
        if self.config.approval_mode == "interactive":
            answer = self._read("approve? [y/n] ").lower() in ("y", "yes")
        else:
            answer = scripted_answer
        self._hear("user", "yes" if answer else "no")
        return answer

    # -- network access (all service addresses come from here) -------------

    def _search(self, **kwargs) -> list:
        hits = self.world.registry.search(self.world.height, **kwargs)
        self.discovered.update(record.address for record in hits)
        return hits

    # -- the plan ----------------------------------------------------------

    def run(self) -> ScenarioReport:
        """Drive the plan: each wait it yields goes out through World.query
        in the order's one session, minted as the first request goes out,
        and the reply goes back in; a typed failure ends the order."""
        plan, reply, session = self._run_plan(), None, None
        try:
            while True:
                target, record, ticks = plan.send(reply)
                session = session or self.user_agent.fresh_session_id()
                self.contacted.add(target)
                reply = self.world.query(self.user_agent, target, record, ticks, session)
        except StopIteration as end:
            return end.value
        except _ORDER_FAILURES as exc:
            return self._report("failed", f"{type(exc).__name__}: {exc}")

    def _run_plan(self):
        """The order, step by step. Each wait is yielded as (target, record,
        ticks), and the reply is sent back in; the plan never catches around
        a yield, so a failed wait ends it."""
        config = self.config
        ledger = self.world.ledger
        user_wallet = self.user_agent.identity.wallet_address

        self._hear("user", config.request)
        try:
            task = parse_request(config.request, base_date=config.wall_clock().date())
        except UnparsableRequest as exc:
            return self._report("failed", f"UnparsableRequest: missing {', '.join(exc.missing)}")

        geo = task.source.split()[0].lower()
        packaging_hits = self._search(metadata={"service_type": "packaging"}, geo=geo)
        if not packaging_hits:
            return self._report("failed", "NoPackagingService")
        business = packaging_hits[0]
        business_name = business.metadata.get("display_name", business.address)

        quote = yield from self._negotiate_packaging(business, business_name, task)

        approved = self._ask(
            f"After a brief chat with '{business_name}', they can professionally "
            f"package your fragile item for {quote} FET. Do you approve?",
            config.approve_packaging,
        )
        if not approved:
            return self._report("failed", "NoPackaging")

        ledger.transfer(user_wallet, business.metadata["wallet"], fet(quote))
        self._settled["packaging_ufet"] = fet(quote)

        logistics_hits = self._search(metadata={"service_type": "logistics"})
        if not logistics_hits:
            return self._report("failed", "NoLogisticsService")
        logistics = logistics_hits[0]
        request = Record(
            LOGISTICS_REQUEST,
            {
                "source": task.source,
                "destination": task.destination,
                "deadline": task.deadline,
                "requirements": list(task.requirements),
                "payer_wallet": user_wallet,
            },
        )
        wait = _bid_window(config) + 4 * config.latency_max  # request, traffic, proposal
        proposal = yield logistics.address, request, wait

        if proposal["status"] != "proposal":
            return self._report(
                "failed", _FAILURE_BY_STATUS.get(proposal["status"], proposal["status"])
            )
        price = proposal["price_fet"]
        arrival = _format_clock(proposal["arrival"])
        total_fet = quote + price
        if ledger.balance(user_wallet) < fet(price):
            # wallet pre-check ahead of the approval gate
            self._say(
                f"Your current balance is not enough to cover the {total_fet} FET cost. "
                "Please top up your wallet to proceed."
            )
            yield self._decide(logistics.address, False, "insufficient_funds")
            return self._report("failed", "InsufficientFunds")

        aname = (
            f"The courier is registered under the domain {proposal['domain']}, "
            "which is verified by the ANAME service. "
        ) if proposal["domain_verified"] else ""
        prompt = (
            f"A logistics agent has found a courier that can deliver your package "
            f"by {arrival} for {price} FET. {aname}If you approve, the funds will be held "
            "in a secure on-chain escrow contract and only released upon successful "
            "delivery. Do you want to proceed?"
        )
        approved = self._ask(prompt, config.approve_delivery)
        if not approved:
            yield self._decide(logistics.address, False, "declined_by_user")
            return self._report("failed", "DeliveryDeclined")

        self._say(
            "Great! I've confirmed the delivery and the payment has been secured in an "
            f"escrow smart contract. The {proposal['courier_id']}, a highly-rated "
            f"service, will deliver your package by {arrival}. I will notify you upon "
            "completion."
        )
        outcome = yield self._decide(logistics.address, True, "")
        if outcome["status"] != "delivered":
            return self._report(
                "failed", _FAILURE_BY_STATUS.get(outcome["status"], outcome["status"])
            )
        winner, winner_address = outcome["courier_id"], proposal["courier_address"]
        self._settled.update(
            winner=winner,
            winner_address=winner_address,
            winner_domain=proposal["domain"],
            delivery_ufet=fet(outcome["paid_fet"]),
        )
        auction_id = self.register.mark_delivered(user_wallet, outcome["escrow_id"], winner_address)

        if config.feedback_stars > 0:
            self._say(
                f"Your package has been delivered. How would you rate the service "
                f"from '{winner}' out of 5 stars?"
            )
            if config.approval_mode == "interactive":
                raw = self._read("stars [1-5, empty to skip] ")
                stars = int(raw) if raw in ("1", "2", "3", "4", "5") else 0
            else:
                stars = config.feedback_stars
            if stars:
                self._hear("user", str(stars))
                record_feedback(
                    self.register,
                    user_wallet,
                    winner_address,
                    stars,
                    auction_id,
                    self.world.height,
                )
                self._settled["feedback_stars"] = stars
        else:
            self._say("Your package has been delivered.")

        return self._report("ok", "")

    def _negotiate_packaging(self, business, business_name: str, task: DeliveryTask):
        """Multi-turn quote negotiation over the chat protocol."""
        world, user = self.world, self.user_agent
        wait = max(20, 2 * self.config.latency_max)  # there and back
        lines = (
            f"Hello, I need packaging for a fragile item shipping from "
            f"{task.source} to {task.destination}.",
            "The item is a 40cm x 30cm x 20cm box weighing 2.5 kilograms.",
        )
        for text in lines:
            message = make_chat_message(f"tick-{world.height}", user.fresh_session_id(), [text])
            self._hear("user", text)
            reply = yield business.address, message, wait
            self._hear(business_name, reply["content"][0])
        match = re.search(r"for (\d+) FET", reply["content"][0])
        if match is None:
            raise ScenarioError(f"no quote in reply: {reply['content'][0]!r}")
        return int(match.group(1))

    def _decide(self, logistics_address: str, approved: bool, reason: str) -> tuple:
        """The decision's wait, for the plan to yield."""
        decision = Record(DELIVERY_DECISION, {"approved": approved, "reason": reason})
        timeout = self.config.delivery_ticks + self.config.latency_max * 6 + 20
        return logistics_address, decision, timeout

    # -- assembly ----------------------------------------------------------

    def _report(self, status: str, failure_cause: str) -> ScenarioReport:
        # let scheduled reconnects happen and stragglers land before the
        # transcript is frozen; a quiet world drains in zero ticks
        try:
            self.world.drain()
        except (ServiceError, DrainIncomplete) as exc:
            # the mailbox went away, or traffic is still moving when the
            # ticks run out: freeze the transcript as it stands, keeping the
            # first failure as the cause
            status, failure_cause = "failed", failure_cause or f"{type(exc).__name__}: {exc}"
        ledger = self.world.ledger
        user_wallet = self.user_agent.identity.wallet_address
        spend = self._initial_user_balance - ledger.balance(user_wallet)
        escrows = tuple(
            f"{eid.hex()}={contract.state.value}"
            for eid, contract in sorted(ledger.escrows.items())
        )
        balances = tuple(
            f"{wallet}={amount}" for wallet, amount in sorted(ledger.balances.items())
        )
        return ScenarioReport(
            status,
            failure_cause,
            total_user_spend_ufet=spend,
            fee_sink_ufet=ledger.fee_sink,
            total_supply_ufet=ledger.total_supply,
            conserved=ledger.conservation_ok(),
            escrows=escrows,
            balances=balances,
            dialogue=tuple(self.dialogue),
            discovered=tuple(sorted(self.discovered)),
            contacted=tuple(sorted(self.contacted)),
            transcript=tuple(self.world.transcript),
            **self._settled,
        )


# ---------------------------------------------------------------------------
# world assembly

def simulate_network(config: ScenarioConfig) -> NetworkModel:
    """Transport policy from config: latency range plus drop probability."""
    return NetworkModel(
        latency_min=config.latency_min,
        latency_max=config.latency_max,
        drop_probability=float(config.drop_probability),
    )


def _registration(ledger: Ledger, agent: Agent, endpoint: str, metadata: dict[str, str]) -> tuple:
    """The signed `register` call for an agent's first registration, whose
    metadata also names the agent's wallet and display name."""
    metadata = {**metadata, "wallet": agent.identity.wallet_address, "display_name": agent.name}
    digests = frozenset(p.digest() for p in agent.protocols)
    address = agent.identity.address
    digest = registration_signing_digest(address, 0, digests, endpoint, metadata)
    signature = agent.identity.sign_digest(digest)
    return ("register", ledger, address, endpoint, digests, metadata, 0, signature,
            agent.identity.wallet_address)


def _verify_domains(registry, challenges: list[tuple[str, bytes]], height: int) -> None:
    """Publish each claimed domain's TXT challenge, then verify the claim.
    Against a service client the server holds the resolver, so publishing
    goes through the client; in process the world's fixture zone is fresh."""
    if hasattr(registry, "dns_publish"):
        calls = []
        for domain, challenge in challenges:
            calls += [("dns_publish", domain, challenge.hex()), ("aname_verify", domain, None, height)]
        registry.call_many(calls)
    else:
        dns = FixtureDnsResolver()
        for domain, challenge in challenges:
            dns.publish(domain, challenge.hex())
            registry.aname_verify(domain, dns, height)


@dataclass
class ScenarioWorld:
    """A standing world: the cast build_scenario assembled, which takes
    order after order."""

    world: World
    config: ScenarioConfig
    user_agent: Agent
    logistics_agent: Agent
    courier_agents: dict[str, Agent]
    feedback_register: FeedbackRegister

    def place_order(self, input_fn=None) -> ScenarioReport:
        """Run the config's request as one order; failures come back as
        reports. `input_fn` answers the interactive gates."""
        return Orchestrator(self, input_fn).run()


def build_scenario(config: ScenarioConfig, registry=None, mailbox=None, ledger=None) -> ScenarioWorld:
    """Mint, register, and wire the whole cast; no ticks happen yet.

    registry and mailbox accept either the in-process objects or service
    clients; when a registry service is used, pass the ledger that service
    charges fees on, so the world and the service see one balance sheet.
    """
    if ledger is None:
        ledger = Ledger()
    if registry is None:
        registry = Registry(ttl=config.registry_ttl, fee=fet(config.registration_fee_fet))
    if mailbox is None:
        mailbox = MailboxStore()
    register = FeedbackRegister()

    halves = ((config.forged_bids + 1) // 2, config.forged_bids // 2)
    quotas = [(i, quota) for i, quota in enumerate(halves) if quota]
    # the whole cast in one batch, so the verify pool derives a share of it
    phrases = [USER_SEED, LOGISTICS_SEED, PACKAGING_SEED, MAPS_SEED]
    phrases += [spec.seed_phrase for spec in config.couriers]
    phrases += [f"bid forging saboteur seed {i}" for i, _ in quotas]
    identities = derive_identities(phrases)
    user_identity, logistics_identity, packaging_identity, maps_identity = identities[:4]
    courier_identities = dict(zip((spec.name for spec in config.couriers), identities[4:]))
    saboteurs = [
        build_saboteur_agent(f"ForgeWorks{i}", identity, quota)
        for (i, quota), identity in zip(quotas, identities[4 + len(config.couriers):])
    ]

    # genesis balances
    ledger.mint(user_identity.wallet_address, fet(config.user_balance_fet))
    for identity in identities[1:]:  # every agent but the user's
        ledger.mint(identity.wallet_address, fet(config.agent_float_fet))

    # reputation evidence: configured reviews, and the ratings as published
    scorer = DeterministicScorer(stars=register.stars)
    name_to_address = {name: ident.address for name, ident in courier_identities.items()}
    for courier_name, text in config.reviews:
        scorer.add_review(name_to_address[courier_name], text)

    user_agent = build_user_agent(user_identity)
    logistics_agent = build_logistics_agent(logistics_identity, config, scorer)
    packaging_agent = build_packaging_agent(packaging_identity, config.packaging_quote_fet)
    maps_agent = build_maps_agent(maps_identity, config.traffic_delay_minutes)
    courier_agents = {
        spec.name: build_courier_agent(spec, courier_identities[spec.name], config.delivery_ticks)
        for spec in config.couriers
    }

    world = World(ledger, registry, mailbox, simulate_network(config), seed=config.random_seed)
    cast = [user_agent, logistics_agent, packaging_agent, maps_agent]
    cast += list(courier_agents.values()) + saboteurs
    for agent in cast:
        world.add_agent(agent)
    mailbox.call_many([("create_account", agent.identity.address) for agent in cast])

    # the business geo mirrors the pickup city so discovery-by-area works
    try:
        geo_hint = parse_request(config.request, config.wall_clock().date()).source.split()[0].lower()
    except UnparsableRequest:
        geo_hint = "cambridge"

    # (agent, endpoint, metadata, domain to claim) in cast order; _registration
    # adds the agent's wallet and display name to the metadata
    listings = [
        (logistics_agent, "sim://logistics", {"service_type": "logistics"}, ""),
        (packaging_agent, "sim://packaging", {"service_type": "packaging", "geo": geo_hint}, ""),
        (maps_agent, "sim://maps", {"service_type": "maps"}, ""),
    ]
    for spec in config.couriers:
        listings.append((courier_agents[spec.name], f"sim://courier/{spec.name}",
                         {"service_type": "courier", "geo": spec.service_area}, spec.domain))
    for saboteur in saboteurs:
        listings.append((saboteur, f"sim://courier/{saboteur.name}",
                         {"service_type": "courier", "geo": geo_hint}, ""))

    def registrations():
        # each signed as it is taken, so an in-process loop never holds them all
        for agent, endpoint, metadata, domain in listings:
            yield _registration(ledger, agent, endpoint, metadata)
            if domain:
                yield ("aname_claim", domain, agent.identity.address)

    results = iter(registry.call_many(registrations()))
    challenges = []
    for _, _, _, domain in listings:
        next(results)  # the registration's expiry height
        if domain:
            challenges.append((domain, next(results)))
    _verify_domains(registry, challenges, world.height)

    for window in config.offline:
        address = name_to_address[window.agent]
        world.schedule_presence(address, window.offline_tick, False)
        world.schedule_presence(address, window.online_tick, True)

    return ScenarioWorld(
        world=world,
        config=config,
        user_agent=user_agent,
        logistics_agent=logistics_agent,
        courier_agents=courier_agents,
        feedback_register=register,
    )


def run_scenario(config: ScenarioConfig, registry=None, mailbox=None, ledger=None) -> ScenarioReport:
    """Build a world and place one order; failures come back as reports,
    not crashes."""
    try:
        scenario = build_scenario(config, registry, mailbox, ledger)
    except (LedgerError, RegistryError, ScenarioError, ServiceError) as exc:
        return ScenarioReport("failed", f"{type(exc).__name__}: {exc}")
    return scenario.place_order()
