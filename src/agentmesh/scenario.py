"""End-to-end logistics demo: request parsing, packaging chat, courier
auction, escrow settlement, and feedback, driven by a scripted orchestrator
over the simulated network.

The cast: a user-side assistant agent, a logistics coordinator, a packaging
business, a traffic-data service, and the configured courier fleet. Every
service address the orchestrator contacts comes out of a registry search;
nothing is hardwired.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
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
    settle,
    verify_bid,
)
from .identity import AgentIdentity, derive_identity
from .ledger import EscrowOutcome, Ledger, LedgerError, UFET_PER_FET, fet
from .mailbox import MailboxStore
from .registry import (
    FixtureDnsResolver,
    Registry,
    RegistryError,
    registration_signing_digest,
)
from .runtime import DEFAULT_REPLY_TTL, Agent, DrainIncomplete, NetworkModel, Timeout, World
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

    mark_delivered() issues the auction id a rating must reference. The id
    is scoped to this register, not to one run's ledger: escrow ids repeat
    across deterministic replays, but each delivery is its own auction.
    """

    records: list[FeedbackRecord] = field(default_factory=list)
    _by_auction: dict[tuple[str, str], FeedbackRecord] = field(default_factory=dict)
    _completed: dict[tuple[str, str], str] = field(default_factory=dict)
    _delivery_seq: int = 0

    def mark_delivered(self, rater_wallet: str, escrow_hex: str, rated_address: str) -> str:
        auction_id = f"{escrow_hex}@{self._delivery_seq}"
        self._delivery_seq += 1
        self._completed[(rater_wallet, auction_id)] = rated_address
        return auction_id

    def stars_for(self, address: str) -> list[int]:
        return [r.stars for r in self.records if r.rated_address == address]


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
    """The assistant's network presence; it only ever drives queries."""
    agent = Agent(USER_AGENT_NAME, identity)
    agent.include_protocol(CHAT_PROTOCOL)
    agent.include_protocol(LOGISTICS_PROTOCOL)
    return agent


def build_packaging_agent(identity: AgentIdentity, quote_fet: int) -> Agent:
    agent = Agent(PACKAGING_NAME, identity)
    agent.include_protocol(CHAT_PROTOCOL)

    @agent.on_message(CHAT_MESSAGE)
    def on_chat(ctx, sender: str, msg: Record):
        # dialogue position is tracked per customer, not per session
        turns = ctx.storage.get(f"turns:{sender}", 0) + 1
        ctx.storage.set(f"turns:{sender}", turns)
        if turns == 1:
            ctx.reply(_chat(ctx, _CLARIFYING_QUESTION))
        else:
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
        ctx.storage.set("auctioneer", sender)
        ctx.storage.set("deliver_at", ctx.height + delivery_ticks)
        ctx.diag("bid_accepted")

    @agent.on_message(REJECT_BID)
    def on_reject(ctx, sender: str, msg: Record):
        ctx.diag("bid_lost")

    @agent.on_interval(1)
    def drive(ctx):
        due = ctx.storage.get("deliver_at")
        if due is not None and ctx.height >= due:
            ctx.storage.delete("deliver_at")
            ctx.send(
                ctx.storage.get("auctioneer"),
                Record(DELIVERY_CONFIRMED, {"courier_id": spec.name}),
            )
            ctx.diag("delivered")

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


def build_logistics_agent(
    identity: AgentIdentity,
    config: ScenarioConfig,
    scorer: DeterministicScorer,
) -> Agent:
    """The auctioneer: traffic lookup, call for bids, verification,
    reputation-weighted selection, escrow settlement."""
    agent = Agent(LOGISTICS_NAME, identity)
    agent.include_protocol(COURIER_AUCTION)
    agent.include_protocol(LOGISTICS_PROTOCOL)
    agent.include_protocol(MAPS_PROTOCOL)
    weights = config.weights()
    announced_at = config.wall_clock()

    def propose(ctx, status: str, detail: str = "", **fields) -> None:
        body = {
            "status": status,
            "courier_id": "",
            "courier_address": "",
            "price_fet": 0,
            "eta_minutes": 0,
            "arrival": "",
            "domain": "",
            "domain_verified": False,
            "detail": detail,
        }
        body.update(fields)
        ctx.send(
            ctx.storage.get("requester"),
            Record(LOGISTICS_PROPOSAL, body),
            session_id=ctx.storage.get("request_session"),
        )
        ctx.storage.set("phase", "awaiting_decision" if status == "proposal" else "closed")

    def open_auction(ctx) -> None:
        task = DeliveryTask(
            ctx.storage.get("source"),
            ctx.storage.get("destination"),
            ctx.storage.get("deadline"),
            tuple(ctx.storage.get("requirements")),
        )
        bid_deadline = ctx.height + config.bid_window_ticks
        registry = ctx.agent.world.registry
        try:
            envelopes = announce(ctx.agent, task, registry, ctx.height, bid_deadline)
        except NoCouriers as exc:
            propose(ctx, "no_couriers", detail=str(exc))
            return
        ctx.storage.set("announced", frozenset(env.target for env in envelopes))
        ctx.storage.set("bid_deadline", bid_deadline)
        ctx.storage.set("bids", {})
        ctx.storage.set("phase", "collecting")
        ctx.outbound.extend(envelopes)
        ctx.diag("auction_opened")

    @agent.on_message(LOGISTICS_REQUEST)
    def on_request(ctx, sender: str, msg: Record):
        ctx.storage.set("requester", sender)
        ctx.storage.set("request_session", ctx.session_id)
        ctx.storage.set("payer_wallet", msg["payer_wallet"])
        for key in ("source", "destination", "deadline"):
            ctx.storage.set(key, msg[key])
        ctx.storage.set("requirements", list(msg["requirements"]))
        ctx.storage.set("traffic_delay", 0)
        world = ctx.agent.world
        maps_hits = world.registry.search(ctx.height, metadata={"service_type": "maps"})
        if maps_hits:
            maps_record = maps_hits[0]
            if config.maps_fee_fet > 0 and "wallet" in maps_record.metadata:
                world.ledger.transfer(
                    identity.wallet_address,
                    maps_record.metadata["wallet"],
                    fet(config.maps_fee_fet),
                )
                ctx.diag("maps_fee_paid")
            ctx.storage.set("phase", "awaiting_traffic")
            ctx.send(
                maps_record.address,
                Record(MAPS_QUERY, {"origin": msg["source"], "destination": msg["destination"]}),
            )
        else:
            open_auction(ctx)

    @agent.on_message(MAPS_REPLY)
    def on_traffic(ctx, sender: str, msg: Record):
        if ctx.storage.get("phase") != "awaiting_traffic":
            ctx.diag("unexpected_traffic_reply")
            return
        ctx.storage.set("traffic_delay", msg["delay_minutes"])
        open_auction(ctx)

    @agent.on_message(COURIER_BID)
    def on_bid(ctx, sender: str, msg: Record):
        phase = ctx.storage.get("phase")
        deadline = ctx.storage.get("bid_deadline", -1)
        if phase != "collecting" or ctx.height > deadline:
            ctx.diag("late_bid_rejected")
            return
        if sender not in ctx.storage.get("announced"):
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
        bids = ctx.storage.get("bids")
        bids[sender] = bid
        ctx.storage.set("bids", bids)
        ctx.diag("bid_verified")

    @agent.on_interval(1)
    def close_when_due(ctx):
        if ctx.storage.get("phase") != "collecting":
            return
        if ctx.height < ctx.storage.get("bid_deadline"):
            return
        bids: dict[str, VerifiedBid] = ctx.storage.get("bids")
        if not bids:
            propose(ctx, "no_feasible_bid", detail="no bids arrived before the deadline")
            return
        scores = assess_reputation(scorer, sorted(bids))
        delay = ctx.storage.get("traffic_delay")
        adjusted = [
            replace(bid, eta_minutes=bid.eta_minutes + delay) for bid in bids.values()
        ]
        deadline_dt = datetime.fromisoformat(ctx.storage.get("deadline"))
        try:
            winner, losers = select_winner(adjusted, scores, weights, deadline_dt, announced_at)
        except ContractNetError as exc:
            propose(ctx, "no_feasible_bid", detail=str(exc))
            return
        chosen = bids[winner]
        eta = chosen.eta_minutes + delay
        arrival = (announced_at + timedelta(minutes=eta)).isoformat()
        registry = ctx.agent.world.registry
        domain = registry.domain_of(winner) or ""
        ctx.storage.set("winner", winner)
        ctx.storage.set("losers", losers)
        ctx.storage.set("price_fet", chosen.price_fet)
        ctx.diag("winner_selected")
        propose(
            ctx,
            "proposal",
            courier_id=chosen.courier_id,
            courier_address=winner,
            price_fet=chosen.price_fet,
            eta_minutes=eta,
            arrival=arrival,
            domain=domain,
            domain_verified=bool(domain),
        )

    def outcome(ctx, status: str, detail: str = "", **fields) -> None:
        body = {
            "status": status,
            "escrow_id": "",
            "courier_id": "",
            "paid_fet": 0,
            "detail": detail,
        }
        body.update(fields)
        ctx.send(
            ctx.storage.get("requester"),
            Record(DELIVERY_OUTCOME, body),
            session_id=ctx.storage.get("decision_session"),
        )

    def reject_everyone(ctx) -> None:
        bidders = [ctx.storage.get("winner"), *ctx.storage.get("losers")]
        ctx.outbound.extend(reject_bidders(ctx.agent, bidders, ctx.height + DEFAULT_REPLY_TTL))

    @agent.on_message(DELIVERY_DECISION)
    def on_decision(ctx, sender: str, msg: Record):
        ctx.storage.set("decision_session", ctx.session_id)
        if ctx.storage.get("phase") != "awaiting_decision":
            outcome(ctx, "no_open_proposal")
            return
        if not msg["approved"]:
            reject_everyone(ctx)
            ctx.storage.set("phase", "closed")
            ctx.diag("auction_closed_unapproved")
            outcome(ctx, msg["reason"] or "declined_by_user")
            return
        world = ctx.agent.world
        winner = ctx.storage.get("winner")
        price = ctx.storage.get("price_fet")
        try:
            payee_wallet = world.registry.resolve(winner, ctx.height).metadata["wallet"]
        except (RegistryError, KeyError):
            reject_everyone(ctx)
            ctx.storage.set("phase", "closed")
            outcome(ctx, "no_payee_wallet")
            return
        result = settle(
            ctx.agent,
            winner,
            ctx.storage.get("losers"),
            world.ledger,
            fet(price),
            ctx.storage.get("payer_wallet"),
            payee_wallet,
            ctx.height,
            ctx.height + 100,
        )
        ctx.outbound.extend(result.rejects)
        if result.error is not None:
            ctx.storage.set("phase", "closed")
            ctx.diag("escrow_underfunded")
            outcome(ctx, "insufficient_funds", detail=result.error)
            return
        ctx.outbound.append(result.accept)
        ctx.storage.set("escrow_id", result.escrow_id)
        ctx.storage.set("phase", "awaiting_delivery")
        ctx.diag("escrow_opened")

    @agent.on_message(DELIVERY_CONFIRMED)
    def on_confirmed(ctx, sender: str, msg: Record):
        if ctx.storage.get("phase") != "awaiting_delivery" or sender != ctx.storage.get("winner"):
            ctx.diag("unexpected_delivery_confirmation")
            return
        escrow_id = ctx.storage.get("escrow_id")
        ctx.agent.world.ledger.settle_escrow(
            escrow_id, identity.address, EscrowOutcome.RELEASED
        )
        ctx.storage.set("phase", "done")
        ctx.diag("escrow_released")
        outcome(
            ctx,
            "delivered",
            escrow_id=escrow_id.hex(),
            courier_id=msg["courier_id"],
            paid_fet=ctx.storage.get("price_fet"),
        )

    return agent


# ---------------------------------------------------------------------------
# report

REPORT_SCHEMA = ModelSchema.build(
    "ScenarioReport",
    status=SemanticType.STRING,
    failure_cause=SemanticType.STRING,
    winner=SemanticType.STRING,
    winner_address=SemanticType.STRING,
    winner_domain=SemanticType.STRING,
    packaging_ufet=SemanticType.INT,
    delivery_ufet=SemanticType.INT,
    total_user_spend_ufet=SemanticType.INT,
    fee_sink_ufet=SemanticType.INT,
    total_supply_ufet=SemanticType.INT,
    conserved=SemanticType.BOOL,
    escrows=SemanticType.LIST_OF_STRING,
    balances=SemanticType.LIST_OF_STRING,
    dialogue=SemanticType.LIST_OF_STRING,
    discovered=SemanticType.LIST_OF_STRING,
    contacted=SemanticType.LIST_OF_STRING,
    feedback_stars=SemanticType.INT,
    transcript_sha256=SemanticType.STRING,
)


@dataclass(frozen=True)
class ScenarioReport:
    status: str  # "ok" | "failed"
    failure_cause: str  # "" when ok
    winner: str
    winner_address: str
    winner_domain: str
    packaging_ufet: int
    delivery_ufet: int
    total_user_spend_ufet: int
    fee_sink_ufet: int
    total_supply_ufet: int
    conserved: bool
    escrows: tuple[str, ...]  # "escrow_hex=State"
    balances: tuple[str, ...]  # "wallet=micro_fet"
    dialogue: tuple[str, ...]
    discovered: tuple[str, ...]  # addresses returned by registry searches
    contacted: tuple[str, ...]  # addresses the orchestrator messaged
    feedback_stars: int  # 0 = no feedback recorded
    transcript: tuple[str, ...]

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
        return Record(
            REPORT_SCHEMA,
            {
                "status": self.status,
                "failure_cause": self.failure_cause,
                "winner": self.winner,
                "winner_address": self.winner_address,
                "winner_domain": self.winner_domain,
                "packaging_ufet": self.packaging_ufet,
                "delivery_ufet": self.delivery_ufet,
                "total_user_spend_ufet": self.total_user_spend_ufet,
                "fee_sink_ufet": self.fee_sink_ufet,
                "total_supply_ufet": self.total_supply_ufet,
                "conserved": self.conserved,
                "escrows": list(self.escrows),
                "balances": list(self.balances),
                "dialogue": list(self.dialogue),
                "discovered": list(self.discovered),
                "contacted": list(self.contacted),
                "feedback_stars": self.feedback_stars,
                "transcript_sha256": self.transcript_sha256(),
            },
        )

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
    "no_open_proposal": "ProtocolViolation",
}


class Orchestrator:
    """Deterministic stand-in for the conversational planner.

    Follows a fixed step list and records every user-facing line. The two
    approval gates block on a decision: scripted configs answer from their
    fields, interactive mode reads y/n from the terminal.
    """

    PLAN = (
        "parse_request",
        "find_packaging",
        "negotiate_packaging",
        "packaging_approval",
        "pay_packaging",
        "trigger_logistics",
        "relay_proposal",
        "delivery_approval",
        "confirm_delivery",
        "feedback",
        "report",
    )

    def __init__(
        self,
        world: World,
        config: ScenarioConfig,
        user_agent: Agent,
        feedback_register: FeedbackRegister,
        input_fn=None,
    ) -> None:
        self.world = world
        self.config = config
        self.user_agent = user_agent
        self.register = feedback_register
        self._input = input_fn if input_fn is not None else input
        self.dialogue: list[str] = []
        self.discovered: set[str] = set()
        self.contacted: set[str] = set()
        self.decisions: list[tuple[str, bool]] = []
        self._step = -1
        self._initial_user_balance = world.ledger.balance(user_agent.identity.wallet_address)
        self._packaging_paid = 0
        self._delivery_paid = 0
        self._winner = ""
        self._winner_address = ""
        self._winner_domain = ""
        self._feedback_stars = 0

    # -- plan bookkeeping --------------------------------------------------

    def _advance(self, step: str) -> None:
        # the plan is strictly monotone; a revisit is a bug, not a retry
        index = self.PLAN.index(step)
        if index <= self._step:
            raise ScenarioError(f"plan step {step} out of order")
        self._step = index

    def current_step(self) -> str:
        return self.PLAN[self._step] if 0 <= self._step < len(self.PLAN) else "(not started)"

    # -- conversation ------------------------------------------------------

    def _say(self, text: str) -> None:
        self.dialogue.append(f"[assistant] {text}")

    def _hear(self, speaker: str, text: str) -> None:
        self.dialogue.append(f"[{speaker}] {text}")

    def _ask(self, gate: str, prompt: str, scripted_answer: bool) -> bool:
        self._say(prompt)
        if self.config.approval_mode == "interactive":
            raw = self._input("approve? [y/n] ").strip().lower()
            answer = raw in ("y", "yes")
        else:
            answer = scripted_answer
        self._hear("user", "yes" if answer else "no")
        self.decisions.append((gate, answer))
        return answer

    # -- network access (all service addresses come from here) -------------

    def _search(self, **kwargs) -> list:
        hits = self.world.registry.search(self.world.height, **kwargs)
        self.discovered.update(record.address for record in hits)
        return hits

    def _query(self, target: str, record: Record, timeout_ticks: int) -> Record:
        self.contacted.add(target)
        return self.world.query(self.user_agent, target, record, timeout_ticks)

    # -- the plan ----------------------------------------------------------

    def run(self) -> ScenarioReport:
        try:
            return self._run_plan()
        except Timeout as exc:
            return self._report("failed", f"Timeout: {exc}")
        except (
            LedgerError, RegistryError, ScenarioError, ContractNetError, WireError, ServiceError
        ) as exc:
            return self._report("failed", f"{type(exc).__name__}: {exc}")

    def _run_plan(self) -> ScenarioReport:
        config = self.config
        ledger = self.world.ledger
        user_wallet = self.user_agent.identity.wallet_address

        self._advance("parse_request")
        self._hear("user", config.request)
        try:
            task = parse_request(config.request, base_date=config.wall_clock().date())
        except UnparsableRequest as exc:
            return self._report("failed", f"UnparsableRequest: missing {', '.join(exc.missing)}")

        self._advance("find_packaging")
        geo = task.source.split()[0].lower()
        packaging_hits = self._search(metadata={"service_type": "packaging"}, geo=geo)
        if not packaging_hits:
            return self._report("failed", "NoPackagingService")
        business = packaging_hits[0]
        business_name = business.metadata.get("display_name", business.address)

        self._advance("negotiate_packaging")
        quote = self._negotiate_packaging(business, business_name, task)

        self._advance("packaging_approval")
        approved = self._ask(
            "packaging",
            f"After a brief chat with '{business_name}', they can professionally "
            f"package your fragile item for {quote} FET. Do you approve?",
            config.approve_packaging,
        )
        if not approved:
            return self._report("failed", "NoPackaging")

        self._advance("pay_packaging")
        ledger.transfer(user_wallet, business.metadata["wallet"], fet(quote))
        self._packaging_paid = fet(quote)

        self._advance("trigger_logistics")
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
        proposal = self._query(
            logistics.address, request, config.bid_window_ticks + 30
        )

        self._advance("relay_proposal")
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
            self._decide(logistics.address, False, "insufficient_funds")
            return self._report("failed", "InsufficientFunds")

        self._advance("delivery_approval")
        if proposal["domain_verified"]:
            prompt = (
                f"A logistics agent has found a courier that can deliver your package "
                f"by {arrival} for {price} FET. The courier is registered under the "
                f"domain {proposal['domain']}, which is verified by the ANAME service. "
                "If you approve, the funds will be held in a secure on-chain escrow "
                "contract and only released upon successful delivery. Do you want to proceed?"
            )
        else:
            prompt = (
                f"A logistics agent has found a courier that can deliver your package "
                f"by {arrival} for {price} FET. If you approve, the funds will be held "
                "in a secure on-chain escrow contract and only released upon successful "
                "delivery. Do you want to proceed?"
            )
        approved = self._ask("delivery", prompt, config.approve_delivery)
        if not approved:
            self._decide(logistics.address, False, "declined_by_user")
            return self._report("failed", "DeliveryDeclined")

        self._advance("confirm_delivery")
        self._say(
            "Great! I've confirmed the delivery and the payment has been secured in an "
            f"escrow smart contract. The {proposal['courier_id']}, a highly-rated "
            f"service, will deliver your package by {arrival}. I will notify you upon "
            "completion."
        )
        outcome = self._decide(logistics.address, True, "")
        if outcome["status"] != "delivered":
            return self._report(
                "failed", _FAILURE_BY_STATUS.get(outcome["status"], outcome["status"])
            )
        self._winner = outcome["courier_id"]
        self._winner_address = proposal["courier_address"]
        self._winner_domain = proposal["domain"]
        self._delivery_paid = fet(outcome["paid_fet"])
        auction_id = self.register.mark_delivered(
            user_wallet, outcome["escrow_id"], self._winner_address
        )

        self._advance("feedback")
        if config.feedback_stars > 0:
            self._say(
                f"Your package has been delivered. How would you rate the service "
                f"from '{self._winner}' out of 5 stars?"
            )
            if config.approval_mode == "interactive":
                raw = self._input("stars [1-5, empty to skip] ").strip()
                stars = int(raw) if raw.isdigit() and 1 <= int(raw) <= 5 else 0
            else:
                stars = config.feedback_stars
            if stars:
                self._hear("user", str(stars))
                record_feedback(
                    self.register,
                    user_wallet,
                    self._winner_address,
                    stars,
                    auction_id,
                    self.world.height,
                )
                self._feedback_stars = stars
        else:
            self._say("Your package has been delivered.")

        self._advance("report")
        return self._report("ok", "")

    def _negotiate_packaging(self, business, business_name: str, task: DeliveryTask) -> int:
        """Multi-turn quote negotiation over the chat protocol."""
        world, user = self.world, self.user_agent
        opener = make_chat_message(
            f"tick-{world.height}",
            user.fresh_session_id(),
            [
                f"Hello, I need packaging for a fragile item shipping from "
                f"{task.source} to {task.destination}."
            ],
        )
        self._hear("user", opener["content"][0])
        question = self._query(business.address, opener, 20)
        self._hear(business_name, question["content"][0])
        answer = make_chat_message(
            f"tick-{world.height}",
            user.fresh_session_id(),
            ["The item is a 40cm x 30cm x 20cm box weighing 2.5 kilograms."],
        )
        self._hear("user", answer["content"][0])
        quote_msg = self._query(business.address, answer, 20)
        self._hear(business_name, quote_msg["content"][0])
        match = re.search(r"for (\d+) FET", quote_msg["content"][0])
        if match is None:
            raise ScenarioError(f"no quote in reply: {quote_msg['content'][0]!r}")
        return int(match.group(1))

    def _decide(self, logistics_address: str, approved: bool, reason: str) -> Record:
        decision = Record(DELIVERY_DECISION, {"approved": approved, "reason": reason})
        timeout = self.config.delivery_ticks + self.config.latency_max * 6 + 20
        return self._query(logistics_address, decision, timeout)

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
            status=status,
            failure_cause=failure_cause,
            winner=self._winner,
            winner_address=self._winner_address,
            winner_domain=self._winner_domain,
            packaging_ufet=self._packaging_paid,
            delivery_ufet=self._delivery_paid,
            total_user_spend_ufet=spend,
            fee_sink_ufet=ledger.fee_sink,
            total_supply_ufet=ledger.total_supply,
            conserved=ledger.conservation_ok(),
            escrows=escrows,
            balances=balances,
            dialogue=tuple(self.dialogue),
            discovered=tuple(sorted(self.discovered)),
            contacted=tuple(sorted(self.contacted)),
            feedback_stars=self._feedback_stars,
            transcript=tuple(self.world.transcript_lines()),
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


def _register_service(
    registry,
    ledger: Ledger,
    agent: Agent,
    endpoint: str,
    metadata: dict[str, str],
) -> None:
    digests = frozenset(p.digest() for p in agent.protocols)
    address = agent.identity.address
    digest = registration_signing_digest(address, 0, digests, endpoint, metadata)
    registry.register(
        ledger,
        address,
        endpoint,
        digests,
        metadata,
        0,
        agent.identity.sign_digest(digest),
        agent.identity.wallet_address,
    )


def _bind_domain(registry, dns, domain: str, address: str, height: int) -> None:
    """Claim, publish the TXT challenge, verify. Works both against the
    in-process registry (explicit resolver) and the service client (the
    server holds the resolver)."""
    challenge = registry.aname_claim(domain, address)
    if hasattr(registry, "dns_publish"):
        registry.dns_publish(domain, challenge.hex())
        registry.aname_verify(domain, None, height)
    else:
        dns.publish(domain, challenge.hex())
        registry.aname_verify(domain, dns, height)


@dataclass
class ScenarioWorld:
    """Everything run_scenario assembled, exposed for tests and the CLI."""

    world: World
    config: ScenarioConfig
    user_agent: Agent
    logistics_agent: Agent
    courier_agents: dict[str, Agent]
    orchestrator: Orchestrator
    feedback_register: FeedbackRegister


def build_scenario(
    config: ScenarioConfig,
    registry=None,
    mailbox=None,
    dns=None,
    feedback_register=None,
    input_fn=None,
    ledger=None,
) -> ScenarioWorld:
    """Mint, register, and wire the whole cast; no ticks happen yet.

    registry and mailbox accept either the in-process objects or service
    clients; when a registry service is used, pass the ledger that service
    charges fees on, so the world and the service see one balance sheet.
    """
    if ledger is None:
        ledger = Ledger()
    if registry is None:
        registry = Registry(ttl=config.registry_ttl, fee=fet(config.registration_fee_fet))
    if dns is None:
        dns = FixtureDnsResolver()
    if mailbox is None:
        mailbox = MailboxStore()
    register = feedback_register if feedback_register is not None else FeedbackRegister()

    user_identity = derive_identity(USER_SEED)
    logistics_identity = derive_identity(LOGISTICS_SEED)
    packaging_identity = derive_identity(PACKAGING_SEED)
    maps_identity = derive_identity(MAPS_SEED)
    courier_identities = {spec.name: derive_identity(spec.seed_phrase) for spec in config.couriers}

    # genesis balances
    ledger.mint(user_identity.wallet_address, fet(config.user_balance_fet))
    service_identities = [logistics_identity, packaging_identity, maps_identity]
    service_identities += list(courier_identities.values())
    saboteurs: list[Agent] = []
    if config.forged_bids > 0:
        quotas = [(config.forged_bids + 1) // 2, config.forged_bids // 2]
        for i, quota in enumerate(quotas):
            if quota == 0:
                continue
            name = f"ForgeWorks{i}"
            identity = derive_identity(f"bid forging saboteur seed {i}")
            saboteurs.append(build_saboteur_agent(name, identity, quota))
            service_identities.append(identity)
    for identity in service_identities:
        ledger.mint(identity.wallet_address, fet(config.agent_float_fet))

    # reputation evidence: configured reviews plus any published ratings
    scorer = DeterministicScorer()
    name_to_address = {name: ident.address for name, ident in courier_identities.items()}
    for courier_name, text in config.reviews:
        scorer.add_review(name_to_address[courier_name], text)
    for record in register.records:
        scorer.add_stars(record.rated_address, record.stars)

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
        mailbox.create_account(agent.identity.address)

    # the business geo mirrors the pickup city so discovery-by-area works
    try:
        geo_hint = parse_request(config.request, config.wall_clock().date()).source.split()[0].lower()
    except UnparsableRequest:
        geo_hint = "cambridge"

    _register_service(
        registry, ledger, logistics_agent, "sim://logistics",
        {"service_type": "logistics", "wallet": logistics_identity.wallet_address,
         "display_name": LOGISTICS_NAME},
    )
    _register_service(
        registry, ledger, packaging_agent, "sim://packaging",
        {"service_type": "packaging", "geo": geo_hint,
         "wallet": packaging_identity.wallet_address, "display_name": PACKAGING_NAME},
    )
    _register_service(
        registry, ledger, maps_agent, "sim://maps",
        {"service_type": "maps", "wallet": maps_identity.wallet_address,
         "display_name": MAPS_NAME},
    )
    for spec in config.couriers:
        agent = courier_agents[spec.name]
        _register_service(
            registry, ledger, agent, f"sim://courier/{spec.name}",
            {"service_type": "courier", "geo": spec.service_area,
             "wallet": agent.identity.wallet_address, "display_name": spec.name},
        )
        if spec.domain:
            _bind_domain(registry, dns, spec.domain, agent.identity.address, world.height)
    for saboteur in saboteurs:
        _register_service(
            registry, ledger, saboteur, f"sim://courier/{saboteur.name}",
            {"service_type": "courier", "geo": geo_hint,
             "wallet": saboteur.identity.wallet_address, "display_name": saboteur.name},
        )

    for window in config.offline:
        address = name_to_address[window.agent]
        world.schedule_presence(address, window.offline_tick, False)
        world.schedule_presence(address, window.online_tick, True)

    orchestrator = Orchestrator(world, config, user_agent, register, input_fn)
    return ScenarioWorld(
        world=world,
        config=config,
        user_agent=user_agent,
        logistics_agent=logistics_agent,
        courier_agents=courier_agents,
        orchestrator=orchestrator,
        feedback_register=register,
    )


def run_scenario(
    config: ScenarioConfig,
    registry=None,
    mailbox=None,
    dns=None,
    feedback_register=None,
    input_fn=None,
    ledger=None,
) -> ScenarioReport:
    """Execute the full plan; failures come back as reports, not crashes."""
    try:
        scenario = build_scenario(
            config, registry, mailbox, dns, feedback_register, input_fn, ledger
        )
    except (LedgerError, RegistryError, ScenarioError, ServiceError) as exc:
        return _setup_failure_report(f"{type(exc).__name__}: {exc}")
    return scenario.orchestrator.run()


def _setup_failure_report(cause: str) -> ScenarioReport:
    return ScenarioReport(
        status="failed",
        failure_cause=cause,
        winner="",
        winner_address="",
        winner_domain="",
        packaging_ufet=0,
        delivery_ufet=0,
        total_user_spend_ufet=0,
        fee_sink_ufet=0,
        total_supply_ufet=0,
        conserved=True,
        escrows=(),
        balances=(),
        dialogue=(),
        discovered=(),
        contacted=(),
        feedback_stars=0,
        transcript=(),
    )
