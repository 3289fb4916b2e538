"""End-to-end scenario: request parsing, the demo run, failure paths,
feedback rules, offline couriers, determinism."""

from __future__ import annotations

import hashlib
from dataclasses import replace
from datetime import date

import pytest

import oracles
from test_golden import fleet_style
from agentmesh.cli import attack_config
from agentmesh.config import (
    CourierSpec,
    PresenceWindow,
    default_config,
    with_overrides,
)
from agentmesh import scenario as scenario_module
from agentmesh.identity import derive_identity
from agentmesh.ledger import UFET_PER_FET, Ledger, fet, replay
from agentmesh.mailbox import MailboxStore
from agentmesh.contractnet import (
    ACCEPT_BID,
    CALL_FOR_BIDS,
    COURIER_AUCTION,
    NEUTRAL_SCORE,
    REJECT_BID,
    assess_reputation,
    make_bid_record,
)
from agentmesh.registry import FixtureDnsResolver, NotFound, Registry
from agentmesh.runtime import DEFAULT_REPLY_TTL, Agent, Context, Timeout, World
from agentmesh.scenario import (
    DELIVERY_DECISION,
    DELIVERY_OUTCOME,
    LOGISTICS_PROPOSAL,
    LOGISTICS_PROTOCOL,
    LOGISTICS_REQUEST,
    MAPS_PROTOCOL,
    MAPS_REPLY,
    PACKAGING_NAME,
    DuplicateFeedback,
    FeedbackRegister,
    NoCompletedDelivery,
    Orchestrator,
    REPORT_SCHEMA,
    ScenarioError,
    ScenarioReport,
    UnparsableRequest,
    build_scenario,
    parse_request,
    record_feedback,
    run_scenario,
)
from agentmesh.services import MailboxClient, RegistryClient, serve_mailbox, serve_registry
from agentmesh.wire import (
    CHAT_MESSAGE,
    CHAT_PROTOCOL,
    Record,
    canonical_decode,
    make_chat_message,
)

DEMO_REQUEST = default_config().request


# ---------------------------------------------------------------------------
# request parsing

def test_parse_demo_request():
    task = parse_request(DEMO_REQUEST)
    assert task.source == "Cambridge office"
    assert task.destination == "Liverpool Street London"
    assert task.deadline == "2026-03-02T17:00:00"
    assert task.requirements == ("fragile", "careful handling")


def test_parse_without_office_phrase():
    task = parse_request("Please ship from Oxford to Cambridge. Deliver by 9 AM today.")
    assert task.source == "Oxford"
    assert task.destination == "Cambridge"
    assert task.deadline.endswith("T09:00:00")
    assert task.requirements == ()


@pytest.mark.parametrize(
    "clause, expected",
    [
        ("by 5 PM today", "17:00"),
        ("by 5 pm today", "17:00"),
        ("by 12 PM today", "12:00"),
        ("by 12 AM today", "00:00"),
        ("by 4:30 pm today", "16:30"),
        ("by 17:30 today", "17:30"),
        ("by 9 today", "09:00"),
    ],
)
def test_parse_deadline_formats(clause, expected):
    task = parse_request(f"Send this from A to B. I need it {clause}.")
    assert task.deadline.endswith(f"T{expected}:00")


def test_parse_base_date_controls_today():
    task = parse_request(DEMO_REQUEST, base_date=date(2030, 7, 4))
    assert task.deadline == "2030-07-04T17:00:00"


def test_parse_missing_deadline():
    with pytest.raises(UnparsableRequest) as exc:
        parse_request("I need to send a package from my office in Cambridge to Liverpool Street, London. It's fragile.")
    assert exc.value.missing == ("deadline",)


@pytest.mark.parametrize("clause", ["by 13 PM today", "by 9:75 today"])
def test_parse_a_deadline_past_the_clock_is_missing(clause):
    with pytest.raises(UnparsableRequest) as exc:
        parse_request(f"Send this from A to B. I need it {clause}.")
    assert exc.value.missing == ("deadline",)


def test_parse_missing_route():
    with pytest.raises(UnparsableRequest) as exc:
        parse_request("Deliver the thing by 5 PM today.")
    assert set(exc.value.missing) == {"source", "destination"}


def test_parse_nothing_usable():
    with pytest.raises(UnparsableRequest) as exc:
        parse_request("hello world")
    assert set(exc.value.missing) == {"source", "destination", "deadline"}


def test_parse_requirement_qualifiers():
    task = parse_request("Urgent! Ship refrigerated goods from A to B. Due by 3 PM today.")
    assert task.requirements == ("urgent", "refrigerated")


# ---------------------------------------------------------------------------
# feedback register

def test_feedback_happy_path():
    register = FeedbackRegister()
    auction = register.mark_delivered("wallet1x", "e1", "agent1abc")
    record = record_feedback(register, "wallet1x", "agent1abc", 5, auction, 10)
    assert record.stars == 5
    assert register.stars["agent1abc"] == [5]


def test_feedback_duplicate_rejected():
    register = FeedbackRegister()
    auction = register.mark_delivered("wallet1x", "e1", "agent1abc")
    record_feedback(register, "wallet1x", "agent1abc", 4, auction, 10)
    with pytest.raises(DuplicateFeedback):
        record_feedback(register, "wallet1x", "agent1abc", 2, auction, 11)


def test_feedback_requires_completed_delivery():
    register = FeedbackRegister()
    with pytest.raises(NoCompletedDelivery):
        record_feedback(register, "wallet1x", "agent1abc", 5, "e1", 10)


def test_feedback_rated_address_must_match_the_delivery():
    register = FeedbackRegister()
    auction = register.mark_delivered("wallet1x", "e1", "agent1abc")
    with pytest.raises(NoCompletedDelivery):
        record_feedback(register, "wallet1x", "agent1other", 5, auction, 10)


def test_feedback_stars_range():
    register = FeedbackRegister()
    auction = register.mark_delivered("wallet1x", "e1", "agent1abc")
    with pytest.raises(ScenarioError):
        record_feedback(register, "wallet1x", "agent1abc", 0, auction, 10)
    with pytest.raises(ScenarioError):
        record_feedback(register, "wallet1x", "agent1abc", 6, auction, 10)


def test_feedback_one_record_per_auction_but_many_auctions():
    register = FeedbackRegister()
    first = register.mark_delivered("wallet1x", "e1", "agent1abc")
    second = register.mark_delivered("wallet1x", "e2", "agent1abc")
    record_feedback(register, "wallet1x", "agent1abc", 5, first, 10)
    record_feedback(register, "wallet1x", "agent1abc", 1, second, 20)
    assert register.stars["agent1abc"] == [5, 1]


def test_feedback_auction_id_is_the_escrow_id():
    # a register belongs to one world, whose ledger never repeats an escrow
    # id, so the escrow names the auction and rates only once
    register = FeedbackRegister()
    auction = register.mark_delivered("wallet1x", "e1", "agent1abc")
    assert auction == "e1"
    record_feedback(register, "wallet1x", "agent1abc", 5, auction, 10)
    with pytest.raises(DuplicateFeedback):
        record_feedback(register, "wallet1x", "agent1abc", 4, auction, 20)
    assert register.stars["agent1abc"] == [5]


# ---------------------------------------------------------------------------
# the demo run

def test_demo_run_reproduces_the_numbers():
    report = run_scenario(default_config())
    assert report.status == "ok"
    assert report.winner == "SpeedyVanCouriers"
    assert report.packaging_fet == 7
    assert report.delivery_fet == 25
    assert report.total_user_spend_fet == 32
    assert report.conserved
    assert report.feedback_stars == 5
    assert report.winner_domain == "speedyvan.example.agent"
    assert len(report.escrows) == 1 and report.escrows[0].endswith("=Released")


def test_a_free_packaging_quote_moves_no_money_for_packaging():
    report = run_scenario(with_overrides(default_config(), packaging_quote_fet=0))
    assert report.status == "ok"
    assert report.packaging_ufet == 0
    assert report.total_user_spend_fet == 25
    assert report.conserved


def test_demo_arrival_beats_the_deadline():
    report = run_scenario(default_config())
    assert any("by 4:30 PM for 25 FET" in line for line in report.dialogue)
    assert any("verified by the ANAME service" in line for line in report.dialogue)


@pytest.mark.parametrize(
    "domain, aname",
    [
        ("speedyvan.example.agent", "The courier is registered under the domain "
         "speedyvan.example.agent, which is verified by the ANAME service. "),
        ("", ""),
    ],
    ids=["verified_domain", "no_domain"],
)
def test_delivery_gate_prompt_text(domain, aname):
    config = default_config()
    if not domain:
        config = with_overrides(
            config, couriers=tuple(replace(c, domain="") for c in config.couriers)
        )
    report = run_scenario(config)
    assert report.winner == "SpeedyVanCouriers" and report.winner_domain == domain
    assert report.dialogue[7] == (
        "[assistant] A logistics agent has found a courier that can deliver your package "
        f"by 4:30 PM for 25 FET. {aname}If you approve, the funds will be held in a secure "
        "on-chain escrow contract and only released upon successful delivery. "
        "Do you want to proceed?"
    )


def test_orchestrator_only_contacts_discovered_addresses():
    report = run_scenario(default_config())
    assert set(report.contacted) <= set(report.discovered)
    assert len(report.contacted) == 2  # packaging business and logistics agent


def test_infeasible_bid_is_filtered_not_fatal():
    # the bike bids 12 FET at 270 minutes: cheapest, but past the deadline
    report = run_scenario(default_config())
    verified = sum("bid_verified" in line for line in report.transcript)
    assert verified == 3
    assert report.winner == "SpeedyVanCouriers"


def test_reviews_shift_the_winner():
    config = default_config()
    flipped = tuple(
        (
            {"SpeedyVanCouriers": "DroneDashLtd", "DroneDashLtd": "SpeedyVanCouriers"}.get(
                agent, agent
            ),
            text,
        )
        for agent, text in config.reviews
    )
    report = run_scenario(with_overrides(config, reviews=flipped))
    assert report.status == "ok"
    assert report.winner == "DroneDashLtd"
    assert report.delivery_fet == 40


def test_traffic_delay_can_push_a_courier_past_the_deadline():
    # 60 extra minutes lift the van's 210 to 270 > 240; the drone still makes it
    report = run_scenario(with_overrides(default_config(), traffic_delay_minutes=60))
    assert report.status == "ok"
    assert report.winner == "DroneDashLtd"
    assert report.delivery_fet == 40


# ---------------------------------------------------------------------------
# failure paths

def test_insufficient_funds_aborts_before_escrow():
    report = run_scenario(with_overrides(default_config(), user_balance_fet=30))
    assert report.status == "failed"
    assert report.failure_cause == "InsufficientFunds"
    assert report.total_user_spend_fet == 7  # packaging went through, delivery did not
    assert report.escrows == ()
    assert report.conserved
    assert any("not enough to cover the 32 FET cost" in line for line in report.dialogue)


def test_packaging_declined_moves_no_funds():
    report = run_scenario(with_overrides(default_config(), approve_packaging=False))
    assert report.status == "failed"
    assert report.failure_cause == "NoPackaging"
    assert report.total_user_spend_ufet == 0


def test_delivery_declined_after_packaging():
    report = run_scenario(with_overrides(default_config(), approve_delivery=False))
    assert report.status == "failed"
    assert report.failure_cause == "DeliveryDeclined"
    assert report.total_user_spend_fet == 7
    assert report.escrows == ()
    # every bidder is told the auction closed
    assert sum("bid_lost" in line for line in report.transcript) == 3


def test_unparsable_request_fails_typed():
    config = with_overrides(default_config(), request="Send a parcel from A to B. No rush.")
    report = run_scenario(config)
    assert report.status == "failed"
    assert report.failure_cause.startswith("UnparsableRequest")
    assert report.total_user_spend_ufet == 0


def test_wire_error_mid_order_fails_typed(monkeypatch):
    # the packaging business answers with a reply that expires before it lands
    scenario = build_scenario(default_config())
    packaging = next(a for a in scenario.world.agents.values() if a.name == PACKAGING_NAME)

    def stale_reply(ctx, sender, msg):
        stale = make_chat_message(f"tick-{ctx.height}", ctx.agent.fresh_session_id(), ["stale"])
        ctx.reply(stale, expires_at=ctx.height)

    monkeypatch.setitem(packaging.message_handlers, CHAT_MESSAGE.digest(), stale_reply)
    report = scenario.place_order()
    assert report.status == "failed"
    assert report.failure_cause == "Expired: query reply failed validation: Expired"
    assert report.total_user_spend_ufet == 0
    assert report.conserved


def test_wallet_emptied_before_approval_rejects_every_bidder(monkeypatch):
    # the wallet pre-check passes, then the funds leave before the escrow opens
    scenario = build_scenario(default_config())
    ledger = scenario.world.ledger
    decide = Orchestrator._decide

    def drain_then_decide(self, target, approved, reason):
        wallet = self.user_agent.identity.wallet_address
        ledger.transfer(wallet, "wallet1" + "z" * 52, ledger.balance(wallet) - 1)
        return decide(self, target, approved, reason)

    monkeypatch.setattr(Orchestrator, "_decide", drain_then_decide)
    report = scenario.place_order()
    assert report.status == "failed"
    assert report.failure_cause == "InsufficientFunds"
    assert report.escrows == ()
    assert sum(line.endswith("|escrow_underfunded") for line in report.transcript) == 1
    # every bidder, the would-be winner included, is told the auction closed
    assert sum("bid_lost" in line for line in report.transcript) == 3
    assert not any("|AcceptBid|" in line for line in report.transcript)
    assert report.conserved


def test_drain_that_cannot_settle_fails_typed():
    # CamBikeExpress reconnects long after the order ends, so the final
    # drain runs out of ticks with that presence change still pending
    config = with_overrides(
        default_config(), offline=(PresenceWindow("CamBikeExpress", 7, 5000),)
    )
    report = run_scenario(config)
    assert report.status == "failed"
    assert report.failure_cause.startswith("DrainIncomplete: ")
    assert "1 presence changes pending" in report.failure_cause
    assert report.conserved


def test_no_feasible_bid_when_every_eta_misses():
    slow = tuple(
        CourierSpec(c.name, c.seed_phrase, c.price_fet, 2000, c.service_area, c.domain)
        for c in default_config().couriers
    )
    report = run_scenario(with_overrides(default_config(), couriers=slow))
    assert report.status == "failed"
    assert report.failure_cause == "NoFeasibleBid"
    assert report.total_user_spend_fet == 7
    # every bidder is told the auction closed
    verified, answered = _bidders_and_answers(report.transcript)
    assert len(verified) == 3
    assert answered == {address: ["bid_lost"] for address in verified}


def _with_van_eta(config, eta: int):
    couriers = tuple(
        replace(c, eta_minutes=eta) if c.name == "SpeedyVanCouriers" else c
        for c in config.couriers
    )
    return with_overrides(config, couriers=couriers)


@pytest.mark.parametrize(
    "make_config, outcome",
    [
        (lambda c: _with_van_eta(c, 2**40), ("ok", "")),
        (lambda c: with_overrides(c, traffic_delay_minutes=2**40), ("failed", "NoFeasibleBid")),
        (lambda c: with_overrides(c, wall_clock_start="9999-12-31T23:59:00"),
         ("failed", "NoFeasibleBid")),
    ],
    ids=["courier_eta", "traffic_delay", "wall_clock"],
)
def test_an_arrival_beyond_the_calendar_is_infeasible(make_config, outcome):
    report = build_scenario(make_config(default_config())).place_order()
    assert (report.status, report.failure_cause) == outcome
    assert report.winner != "SpeedyVanCouriers"
    assert report.conserved


def test_a_signed_bid_beyond_the_calendar_loses(monkeypatch):
    scenario = build_scenario(default_config())
    van = scenario.courier_agents["SpeedyVanCouriers"]

    def glacial_bid(ctx, sender, msg):
        ctx.reply(make_bid_record(van.identity, "SpeedyVanCouriers", 1, 2**62))

    monkeypatch.setitem(van.message_handlers, CALL_FOR_BIDS.digest(), glacial_bid)
    report = scenario.place_order()
    assert (report.status, report.failure_cause) == ("ok", "")
    assert report.winner not in ("", "SpeedyVanCouriers")
    assert report.conserved


def test_out_of_area_couriers_decline():
    config = default_config()
    remote = tuple(
        CourierSpec(c.name, c.seed_phrase, c.price_fet, c.eta_minutes, "oxford", c.domain)
        for c in config.couriers
    )
    report = run_scenario(with_overrides(config, couriers=remote))
    assert report.status == "failed"
    assert report.failure_cause == "NoFeasibleBid"
    assert sum("declined_out_of_area" in line for line in report.transcript) == 3


def test_setup_failure_report_bytes_are_pinned():
    report = run_scenario(with_overrides(default_config(), agent_float_fet=0))
    assert report.failure_cause == "ZeroAmount: mint amount must be positive"
    assert hashlib.sha256(report.encoded_hex().encode()).hexdigest() == (
        "128bd32626eab84032ca4c27fbeffced0c7e599faded895e5a64c018221cc015"
    )
    assert hashlib.sha256(report.render_text().encode()).hexdigest() == (
        "91bf07cf447f2bbbb72072b3c0ddd342c859717cc76507b925bd1b497b6dca6e"
    )


# ---------------------------------------------------------------------------
# only the order's parties move it

def _fast_world(**overrides):
    config = with_overrides(default_config(), latency_min=1, latency_max=1, **overrides)
    return build_scenario(config)


def _logistics_request(payer_wallet: str, deadline: str | None = None) -> Record:
    task = parse_request(DEMO_REQUEST)
    return Record(
        LOGISTICS_REQUEST,
        {
            "source": task.source,
            "destination": task.destination,
            "deadline": task.deadline if deadline is None else deadline,
            "requirements": list(task.requirements),
            "payer_wallet": payer_wallet,
        },
    )


def _ask(world, asker: Agent, target: str, record: Record) -> bytes:
    """Send record in a fresh session whose reply the asker's waiter takes;
    returns the session."""
    session = asker.fresh_session_id()
    asker.waiters[session, target] = None
    world.send_message(asker, target, record, session)
    return session


def _intruder_approves_first(monkeypatch, scenario):
    """A courier, which speaks LogisticsCoordination too, sends an approval
    to the logistics agent just before the user's own decision, in the
    order's own session, which it reads off its CallForBids. Returns the
    intruder and the report."""
    world = scenario.world
    user = scenario.user_agent.identity.address
    intruder = scenario.courier_agents["DroneDashLtd"]
    approval = Record(DELIVERY_DECISION, {"approved": True, "reason": ""})
    send, dispatch, decide = world.send, intruder.dispatch, Orchestrator._decide
    requests, calls = [], []

    def recording_requests(env):
        if env.sender == user and env.schema_digest == LOGISTICS_REQUEST.digest():
            requests.append(env.session_id)
        send(env)

    def reading_calls(env, in_world):
        if env.schema_digest == CALL_FOR_BIDS.digest():
            calls.append(env.session_id)
        return dispatch(env, in_world)

    def approve_first(self, target, approved, reason):
        assert calls == requests  # the call for bids came in the order's session
        world.send_message(intruder, target, approval, session_id=calls[0])
        return decide(self, target, approved, reason)

    monkeypatch.setattr(world, "send", recording_requests)
    monkeypatch.setattr(intruder, "dispatch", reading_calls)
    monkeypatch.setattr(Orchestrator, "_decide", approve_first)
    return intruder, scenario.place_order()


def _outcomes_to(report, address: str) -> int:
    return sum(
        line.split("|")[2] == address and "|DeliveryOutcome|" in line
        for line in report.transcript
    )


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_third_party_approval_does_not_open_the_escrow(monkeypatch, seed):
    scenario = _fast_world(approve_delivery=False, random_seed=seed)
    intruder, report = _intruder_approves_first(monkeypatch, scenario)
    assert report.failure_cause == "DeliveryDeclined"
    assert report.escrows == ()
    assert report.total_user_spend_fet == 7
    assert report.conserved
    assert not any("|AcceptBid|" in line for line in report.transcript)
    # the intruder is answered, and only the user hears the real outcome
    assert _outcomes_to(report, intruder.identity.address) == 1
    assert _outcomes_to(report, scenario.user_agent.identity.address) == 1


def test_third_party_approval_does_not_preempt_the_user(monkeypatch):
    _, report = _intruder_approves_first(monkeypatch, _fast_world())
    assert report.status == "ok"
    assert report.winner == "SpeedyVanCouriers"
    assert report.total_user_spend_fet == 32


def test_spoofed_traffic_estimate_is_ignored(monkeypatch):
    scenario = _fast_world()
    world = scenario.world
    spoofer = Agent("RogueMaps", derive_identity("rogue maps seed"))
    spoofer.include_protocol(MAPS_PROTOCOL)
    world.add_agent(spoofer)
    user = scenario.user_agent.identity.address
    send = world.send

    def estimate_after_request(env):
        send(env)
        if env.sender == user and env.schema_digest == LOGISTICS_REQUEST.digest():
            world.send_message(spoofer, env.target, Record(MAPS_REPLY, {"delay_minutes": 100000}))

    monkeypatch.setattr(world, "send", estimate_after_request)
    report = scenario.place_order()
    assert report.status == "ok"
    assert report.winner == "SpeedyVanCouriers"
    assert sum(line.endswith("|unexpected_traffic_reply") for line in report.transcript) == 1


def _bid_outcomes(report, sender: str) -> list[str]:
    return [
        fields.outcome
        for fields in map(oracles.line_fields, report.transcript)
        if fields.sender == sender and fields.outcome.startswith("bid_")
    ]


def test_a_bid_from_an_agent_the_call_did_not_name_is_refused(monkeypatch):
    scenario = _fast_world()
    world = scenario.world
    logistics = scenario.logistics_agent.identity.address
    gatecrasher = Agent("Gatecrasher", derive_identity("gatecrasher seed"))
    gatecrasher.include_protocol(COURIER_AUCTION)
    world.add_agent(gatecrasher)
    send, calls = world.send, []

    def bid_in_the_order_session(env):
        send(env)
        if env.schema_digest == CALL_FOR_BIDS.digest() and not calls:
            calls.append(env.session_id)
            bid = make_bid_record(gatecrasher.identity, "Gatecrasher", 1, 30)
            world.send_message(gatecrasher, logistics, bid, session_id=env.session_id)

    monkeypatch.setattr(world, "send", bid_in_the_order_session)
    report = scenario.place_order()
    assert calls  # the bid went out in the order's session
    assert _bid_outcomes(report, gatecrasher.identity.address) == ["bid_rejected_uninvited"]
    assert sum(line.endswith("|bid_rejected_uninvited") for line in report.transcript) == 1
    assert sum(line.endswith("|bid_verified") for line in report.transcript) == 3
    assert (report.status, report.winner) == ("ok", "SpeedyVanCouriers")


def _place_with_drone_bid(monkeypatch, price_fet: int, eta_minutes: int):
    """The demo order with DroneDashLtd's bid replaced by a signed one of
    the given price and ETA."""
    scenario = _fast_world()
    drone = scenario.courier_agents["DroneDashLtd"]

    def bid(ctx, sender, msg):
        ctx.reply(make_bid_record(drone.identity, "DroneDashLtd", price_fet, eta_minutes))

    monkeypatch.setitem(drone.message_handlers, CALL_FOR_BIDS.digest(), bid)
    return scenario.place_order(), drone


def test_an_invited_courier_s_signed_bid_at_price_zero_is_refused(monkeypatch):
    report, drone = _place_with_drone_bid(monkeypatch, 0, 90)
    assert _bid_outcomes(report, drone.identity.address) == ["bid_rejected_invalid"]
    assert sum(line.endswith("|bid_rejected_invalid") for line in report.transcript) == 1
    assert sum(line.endswith("|bid_verified") for line in report.transcript) == 2
    assert (report.status, report.winner) == ("ok", "SpeedyVanCouriers")


def test_an_invited_courier_s_signed_bid_at_eta_zero_is_refused(monkeypatch):
    report, drone = _place_with_drone_bid(monkeypatch, 5, 0)
    assert _bid_outcomes(report, drone.identity.address) == ["bid_rejected_invalid"]
    assert sum(line.endswith("|bid_verified") for line in report.transcript) == 2
    assert (report.status, report.winner) == ("ok", "SpeedyVanCouriers")


def test_without_a_maps_service_the_auction_opens_at_once():
    def maps_lines(report) -> tuple[int, int]:
        queries = sum("|TrafficQuery|" in line for line in report.transcript)
        return queries, sum(line.endswith("|maps_fee_paid") for line in report.transcript)

    queries, fees = maps_lines(run_scenario(default_config()))
    assert queries and fees == 1  # the demo asks its maps service, and pays it
    scenario = build_scenario(default_config())
    registry = scenario.world.registry
    (maps,) = registry.search(scenario.world.height, metadata={"service_type": "maps"})
    del registry.records[maps.address]
    report = scenario.place_order()
    assert (report.status, report.winner) == ("ok", "SpeedyVanCouriers")
    assert maps_lines(report) == (0, 0)


@pytest.mark.parametrize(
    "service_type, cause, spend_fet",
    [("packaging", "NoPackagingService", 0), ("logistics", "NoLogisticsService", 7)],
)
def test_an_order_without_a_service_it_needs_fails_typed(service_type, cause, spend_fet):
    scenario = build_scenario(default_config())
    registry = scenario.world.registry
    (service,) = registry.search(scenario.world.height, metadata={"service_type": service_type})
    del registry.records[service.address]
    report = scenario.place_order()
    assert (report.status, report.failure_cause) == ("failed", cause)
    assert report.total_user_spend_fet == spend_fet
    assert report.escrows == ()
    assert report.conserved


def test_a_reply_in_the_order_session_from_a_third_party_is_not_the_answer(monkeypatch):
    # every invited courier sees the order's session in its CallForBids
    scenario = _fast_world()
    world, user = scenario.world, scenario.user_agent.identity.address
    intruder = scenario.courier_agents["DroneDashLtd"]
    forged = Record(
        LOGISTICS_PROPOSAL,
        {"status": "no_couriers", "courier_id": "", "courier_address": "", "price_fet": 0,
         "eta_minutes": 0, "arrival": "", "domain": "", "domain_verified": False, "detail": ""},
    )
    send = world.send

    def forge_after_request(env):
        send(env)
        if env.sender == user and env.schema_digest == LOGISTICS_REQUEST.digest():
            world.send_message(intruder, user, forged, session_id=env.session_id)

    monkeypatch.setattr(world, "send", forge_after_request)
    report = scenario.place_order()
    assert (report.status, report.winner) == ("ok", "SpeedyVanCouriers")
    assert any(
        fields.sender == intruder.identity.address and fields.outcome == "no_handler"
        for fields in map(oracles.line_fields, world.transcript)
    )


@pytest.mark.parametrize(
    "after, schema",
    [(LOGISTICS_REQUEST, LOGISTICS_PROPOSAL), (DELIVERY_DECISION, DELIVERY_OUTCOME)],
    ids=["proposal", "outcome"],
)
def test_a_reply_forged_in_the_logistics_agent_s_name_is_not_the_answer(monkeypatch, after, schema):
    # an invited courier seals a reply with its own key, then names the
    # logistics agent as its sender, in the order's session
    scenario = _fast_world()
    world, user = scenario.world, scenario.user_agent.identity.address
    logistics = scenario.logistics_agent.identity.address
    courier = scenario.courier_agents["DroneDashLtd"]
    record = scenario_module._filled(schema, status="no_couriers")
    send = world.send

    def forge_after(env):
        send(env)
        if env.sender == user and env.schema_digest == after.digest():
            own = Context(world, courier).send(user, record, env.session_id)
            send(replace(own, sender=logistics))

    monkeypatch.setattr(world, "send", forge_after)
    report = scenario.place_order()
    assert (report.status, report.failure_cause) == ("ok", "")
    assert (report.winner, report.total_user_spend_fet) == ("SpeedyVanCouriers", 32)
    lines = map(oracles.line_fields, world.transcript)
    forged = [line for line in lines if line.outcome == "signature_invalid"]
    assert [(line.sender, line.target, line.schema_name) for line in forged] == [
        (logistics, user, schema.name)
    ]


def _silent_logistics(monkeypatch, scenario) -> None:
    monkeypatch.setitem(
        scenario.logistics_agent.message_handlers,
        LOGISTICS_REQUEST.digest(),
        lambda ctx, sender, msg: None,
    )


def test_an_unanswered_request_times_out_at_its_pinned_height(monkeypatch):
    scenario = build_scenario(default_config())
    _silent_logistics(monkeypatch, scenario)
    report = scenario.place_order()
    logistics = scenario.logistics_agent.identity.address
    assert report.failure_cause == f"Timeout: no reply from {logistics} within 14 ticks"
    assert report.total_user_spend_fet == 7
    assert scenario.world.height == 19


@pytest.mark.parametrize("end", ["ok", "declined", "timed_out"])
def test_an_order_leaves_no_waiter_and_no_timer(monkeypatch, end):
    scenario = build_scenario(
        with_overrides(default_config(), approve_delivery=end != "declined")
    )
    if end == "timed_out":
        _silent_logistics(monkeypatch, scenario)
    report = scenario.place_order()
    assert report.status == ("ok" if end == "ok" else "failed")
    world, user = scenario.world, scenario.user_agent
    assert user.waiters == {}
    assert world._pending_timers() == 0
    assert not any(entry[3] is user for entry in world._timers)


def test_an_order_waits_on_each_reply_through_world_query(monkeypatch):
    config = default_config()
    scenario = build_scenario(config)
    world, user = scenario.world, scenario.user_agent
    query, waits = World.query, []

    def spying_query(self, sender, target, record, timeout_ticks, session_id=None):
        waits.append((sender, target, record.schema.name, timeout_ticks))
        return query(self, sender, target, record, timeout_ticks, session_id)

    monkeypatch.setattr(World, "query", spying_query)
    report = scenario.place_order()
    assert report.status == "ok"
    packaging = world.registry.search(
        world.height, metadata={"service_type": "packaging"}
    )[0].address
    logistics = scenario.logistics_agent.identity.address
    chat_wait = max(20, 2 * config.latency_max)
    request_wait = scenario_module._bid_window(config) + 4 * config.latency_max
    decision_wait = config.delivery_ticks + 6 * config.latency_max + 20
    assert waits == [
        (user, packaging, "ChatMessage", chat_wait),
        (user, packaging, "ChatMessage", chat_wait),
        (user, logistics, "LogisticsRequest", request_wait),
        (user, logistics, "DeliveryDecision", decision_wait),
    ]
    assert user.waiters == {}


def test_decision_before_any_request_gets_no_open_proposal():
    scenario = build_scenario(default_config())
    decision = Record(DELIVERY_DECISION, {"approved": True, "reason": ""})
    reply = scenario.world.query(
        scenario.user_agent, scenario.logistics_agent.identity.address, decision, 10
    )
    assert reply["status"] == "no_open_proposal"
    assert scenario.world.ledger.escrows == {}


def test_request_spam_ends_in_a_report():
    """Each request costs the logistics agent the maps fee from its own
    float; once the float runs dry, it refuses requests in place of raising
    out of the world."""
    scenario = build_scenario(default_config())
    world = scenario.world
    spammer = Agent("Spammer", derive_identity("request spammer seed"))
    spammer.include_protocol(LOGISTICS_PROTOCOL)
    world.add_agent(spammer)
    spam = _logistics_request(spammer.identity.wallet_address)
    for _ in range(12):
        world.send_message(spammer, scenario.logistics_agent.identity.address, spam)
    report = scenario.place_order()
    assert report.conserved
    assert not any(escrow.endswith("=Open") for escrow in report.escrows)


def test_two_requests_in_one_world_are_both_answered():
    scenario = build_scenario(default_config())
    world, user = scenario.world, scenario.user_agent
    logistics = scenario.logistics_agent.identity.address
    request = _logistics_request(user.identity.wallet_address)
    sessions = [_ask(world, user, logistics, request) for _ in range(2)]
    world.tick(60)
    replies = [user.waiters[session, logistics] for session in sessions]
    assert [reply and reply["status"] for reply in replies] == ["proposal", "proposal"]


def test_two_orders_in_one_world(monkeypatch):
    scenario = build_scenario(default_config())
    world, ledger = scenario.world, scenario.world.ledger
    tick, unconserved = world.tick, []

    def checked_tick(n=1):
        for _ in range(n):
            tick()
            if not ledger.conservation_ok():
                unconserved.append(world.height)

    monkeypatch.setattr(world, "tick", checked_tick)
    reports = [scenario.place_order() for _ in range(2)]
    assert [(r.status, r.failure_cause) for r in reports] == [("ok", "")] * 2
    assert [r.total_user_spend_fet for r in reports] == [32, 32]
    assert [len(r.dialogue) for r in reports] == [12, 12]
    assert [c.state.value for c in ledger.escrows.values()] == ["Released"] * 2
    assert unconserved == []
    rebuilt = replay(ledger.journal)
    assert rebuilt.balances == ledger.balances
    assert rebuilt.fee_sink == ledger.fee_sink
    assert {eid: c.state for eid, c in rebuilt.escrows.items()} == {
        eid: c.state for eid, c in ledger.escrows.items()
    }


# (status, sha256 of the report's canonical bytes, sha256 of its transcript)
# for five orders in one world; only the first order has a golden pin. An
# order mints three session ids (two chat message ids and its one session),
# so the user's chat lines in later orders carry the ids that follow.
LATER_ORDERS = (
    ("ok", "1815d1cbfd221f8783cda9d32fdacb045cc8fac9af97d274b371ccccaf03392d",
     "18d4cf2b72f7a86e4d31c8fb7ee32a8d26fc8e7cb2e1545985f0bbf36eef696d"),
    ("ok", "b150715658d64b16af64d3fa93d6a9eb6cb0ecb5ffd664d613a2bb8d36c194bc",
     "45b8d527bbb5326eec216de02a68d03a93ab3ffeae2dd5e84f15858a3fbf8646"),
    ("ok", "815d48ccd6c32c86ed07e7dfd6b728d5fac0636007d760edaea82a61eb6a5791",
     "08c9f61849a232955de244a448564106988ad430864295cbcf79cc08d521c8c3"),
    ("ok", "ba48c84f11e999ed09bd17dac00f2f0861275aaaae7bcbb1e586afa1e58ab52a",
     "20abaa6a45c7882286d121009f53d50c4fcfdd9b0048fe2100d23fadee07d011"),
    ("ok", "26cdf2675a157ecb586d0656d7a0f4f2a696cbdf3f5a23c76272cb8453b0c484",
     "f29457d1cc77fc255db366cfa9a11ba2912fab71910e4eb4d2bfc60955693a9b"),
)


def test_later_orders_in_one_world_keep_their_bytes():
    scenario = build_scenario(with_overrides(default_config(), user_balance_fet=1000))
    got = []
    for _ in LATER_ORDERS:
        report = scenario.place_order()
        got.append((
            report.status,
            hashlib.sha256(bytes.fromhex(report.encoded_hex())).hexdigest(),
            hashlib.sha256("\n".join(report.transcript).encode()).hexdigest(),
        ))
    assert tuple(got) == LATER_ORDERS


def test_two_orders_in_one_world_hold_the_same_packaging_chat():
    scenario = build_scenario(default_config())
    first, second = scenario.place_order(), scenario.place_order()

    def packaging_lines(report):
        return [line for line in report.dialogue if line.startswith(f"[{PACKAGING_NAME}]")]

    assert len(packaging_lines(first)) == 2
    assert packaging_lines(second) == packaging_lines(first)


def _packaging_address(scenario) -> str:
    world = scenario.world
    return world.registry.search(world.height, metadata={"service_type": "packaging"})[0].address


def _chat_line(world, user: Agent, text: str) -> Record:
    return make_chat_message(f"tick-{world.height}", user.fresh_session_id(), [text])


def test_two_chat_sessions_from_one_user_hold_their_own_dialogue():
    scenario = build_scenario(default_config())
    world, user = scenario.world, scenario.user_agent
    packaging = _packaging_address(scenario)
    sessions = {"A": user.fresh_session_id(), "B": user.fresh_session_id()}
    heard = []
    for name, turn in (("A", 1), ("B", 1), ("A", 2), ("B", 2)):
        line = _chat_line(world, user, f"{name}{turn}")
        reply = world.query(user, packaging, line, 20, sessions[name])
        heard.append((name, turn, reply["content"][0].startswith("We can")))
    # each session hears the clarifying question, then the quote
    assert heard == [("A", 1, False), ("B", 1, False), ("A", 2, True), ("B", 2, True)]


def test_a_stranger_in_the_session_does_not_move_the_user_s_dialogue():
    scenario = build_scenario(default_config())
    world, user = scenario.world, scenario.user_agent
    stranger = Agent("Chatterbox", derive_identity("chat stranger seed"))
    stranger.include_protocol(CHAT_PROTOCOL)
    world.add_agent(stranger)
    packaging = _packaging_address(scenario)
    session = user.fresh_session_id()
    heard = []
    for speaker in (user, stranger, user):
        reply = world.query(speaker, packaging, _chat_line(world, speaker, "hi"), 20, session)
        heard.append(reply["content"][0].startswith("We can"))
    assert heard == [False, False, True]


def test_an_order_after_an_unanswered_chat_line_ends_ok(monkeypatch):
    scenario = build_scenario(default_config())
    world = scenario.world
    packaging = _packaging_address(scenario)
    send, lost = world.send, []

    def lose_the_first_reply(env):
        if env.sender == packaging and not lost:
            lost.append(env)
            return
        send(env)

    monkeypatch.setattr(world, "send", lose_the_first_reply)
    first, second = scenario.place_order(), scenario.place_order()
    assert first.failure_cause == f"Timeout: no reply from {packaging} within 20 ticks"
    assert (second.status, second.failure_cause) == ("ok", "")
    assert second.total_user_spend_fet == 32


def test_an_order_sends_every_request_in_one_session(monkeypatch):
    scenario = build_scenario(default_config())
    world, user = scenario.world, scenario.user_agent.identity.address
    send, sessions = world.send, []

    def recording(env):
        if env.sender == user:
            sessions.append(env.session_id)
        send(env)

    monkeypatch.setattr(world, "send", recording)
    assert scenario.place_order().status == "ok"
    assert len(sessions) == 4 and len(set(sessions)) == 1
    assert scenario.place_order().status == "ok"
    assert len(set(sessions)) == 2


def test_a_second_request_in_a_live_order_session_is_refused(monkeypatch):
    scenario = _fast_world()
    world = scenario.world
    intruder = Agent("Overwriter", derive_identity("order overwriter seed"))
    intruder.include_protocol(LOGISTICS_PROTOCOL)
    world.add_agent(intruder)
    send = world.send
    user = scenario.user_agent.identity.address

    def request_again(env):
        send(env)
        if env.sender == user and env.schema_digest == LOGISTICS_REQUEST.digest():
            again = _logistics_request(intruder.identity.wallet_address)
            world.send_message(intruder, env.target, again, session_id=env.session_id)

    monkeypatch.setattr(world, "send", request_again)
    report = scenario.place_order()
    lines = map(oracles.line_fields, world.transcript)
    refused = [line for line in lines if line.outcome == "invalid_record"]
    assert [(line.sender, line.schema_name) for line in refused] == [
        (intruder.identity.address, "LogisticsRequest")
    ]
    assert report.status == "ok"
    assert report.winner == "SpeedyVanCouriers"
    assert [escrow.split("=")[1] for escrow in report.escrows] == ["Released"]
    assert report.total_user_spend_fet == 32


@pytest.mark.parametrize("same_min", [False, True], ids=["min_1", "min_eq_max"])
@pytest.mark.parametrize("latency", [10, 20, 40])
def test_waits_follow_the_network_latency(latency, same_min):
    config = with_overrides(
        default_config(), latency_min=latency if same_min else 1, latency_max=latency
    )
    report = run_scenario(config)
    assert (report.status, report.failure_cause) == ("ok", "")
    assert report.total_user_spend_fet == 32
    assert [escrow.split("=")[1] for escrow in report.escrows] == ["Released"]


def test_a_payee_registration_that_lapsed_names_the_lateness():
    # at 60 ticks a hop the couriers' registrations (TTL 500) lapse before
    # the user decides, so the winner's wallet cannot be resolved
    report = run_scenario(with_overrides(default_config(), latency_min=60, latency_max=60))
    assert (report.status, report.failure_cause) == ("failed", "PayeeRegistrationExpired")
    assert report.total_user_spend_fet == 7
    assert report.escrows == ()
    assert report.conserved


def _unknown(record):
    raise NotFound(record.address)


@pytest.mark.parametrize(
    "resolved", [_unknown, lambda record: replace(record, metadata={})], ids=["unknown", "no_wallet"]
)
def test_a_payee_without_a_wallet_is_no_payee_wallet(monkeypatch, resolved):
    scenario = _fast_world()
    registry = scenario.world.registry
    resolve = registry.resolve
    monkeypatch.setattr(registry, "resolve", lambda *args: resolved(resolve(*args)))
    report = scenario.place_order()
    assert (report.status, report.failure_cause) == ("failed", "NoPayeeWallet")
    assert report.escrows == ()
    assert report.total_user_spend_fet == 7


# ---------------------------------------------------------------------------
# how the logistics agent ends an order

def _bidders_and_answers(transcript) -> tuple[set[str], dict[str, list[str]]]:
    """The couriers whose bid was verified, and what each courier logged
    of the answers to its bid."""
    lines = list(map(oracles.line_fields, transcript))
    verified = {line.sender for line in lines if line.outcome == "bid_verified"}
    answered: dict[str, list[str]] = {}
    for line in lines:
        if line.outcome in ("bid_lost", "bid_accepted"):
            answered.setdefault(line.target, []).append(line.outcome)
    return verified, answered


def _proposed(scenario) -> bytes:
    """The user asks the logistics agent for the demo delivery, paid from
    its own wallet, and waits for the proposal; returns the order session."""
    world, user, config = scenario.world, scenario.user_agent, scenario.config
    request = _logistics_request(user.identity.wallet_address)
    session = user.fresh_session_id()
    wait = scenario_module._bid_window(config) + 4 * config.latency_max
    proposal = world.query(user, scenario.logistics_agent.identity.address, request, wait, session)
    assert proposal["status"] == "proposal"
    return session


def _approved(monkeypatch, scenario, session: bytes) -> tuple[int, list]:
    """The user approves in the order session; ticks until the logistics
    agent has handled the decision. Returns the height it was handled at
    and the envelopes the handler sent."""
    world, logistics = scenario.world, scenario.logistics_agent
    dispatch, handled = logistics.dispatch, []

    def recording(env, in_world):
        sent = dispatch(env, in_world)
        if env.schema_digest == DELIVERY_DECISION.digest():
            handled.append((in_world.height, sent))
        return sent

    monkeypatch.setattr(logistics, "dispatch", recording)
    approval = Record(DELIVERY_DECISION, {"approved": True, "reason": ""})
    world.send_message(scenario.user_agent, logistics.identity.address, approval, session)
    deadline = world.height + 2 * scenario.config.latency_max
    while not handled and world.height < deadline:
        world.tick()
    [(height, sent)] = handled
    return height, sent


def _courier_addresses(scenario) -> list[str]:
    return sorted(agent.identity.address for agent in scenario.courier_agents.values())


def test_an_approval_opens_the_escrow_and_awards_one_bidder(monkeypatch):
    scenario = _fast_world()
    world, ledger = scenario.world, scenario.world.ledger
    session = _proposed(scenario)
    payer = scenario.user_agent.identity.wallet_address
    before = ledger.balance(payer)
    height, sent = _approved(monkeypatch, scenario, session)
    winner = scenario.courier_agents["SpeedyVanCouriers"].identity.address
    losers = [address for address in _courier_addresses(scenario) if address != winner]
    reject, accept = sent  # the reject goes out first
    assert (reject.schema_digest, reject.recipients) == (REJECT_BID.digest(), tuple(losers))
    assert (accept.schema_digest, accept.recipients) == (ACCEPT_BID.digest(), (winner,))
    assert all(env.session_id == session for env in sent)
    assert all(env.expires_at == height + DEFAULT_REPLY_TTL for env in sent)
    [escrow] = ledger.escrows.values()
    assert escrow.amount == fet(25)
    assert escrow.arbiter == scenario.logistics_agent.identity.address
    assert ledger.balance(payer) == before - fet(25)
    # each loser takes the reject once, and the winner only its accept
    world.drain()
    _, answered = _bidders_and_answers(world.transcript)
    assert answered == {winner: ["bid_accepted"], **{loser: ["bid_lost"] for loser in losers}}


def test_an_approval_with_one_bidder_sends_only_the_accept(monkeypatch):
    couriers = default_config().couriers[:1]
    scenario = _fast_world(couriers=couriers, reviews=())
    session = _proposed(scenario)
    _, sent = _approved(monkeypatch, scenario, session)
    assert [(env.recipients, env.schema_digest) for env in sent] == [
        (tuple(_courier_addresses(scenario)), ACCEPT_BID.digest())
    ]


def test_an_approval_the_payer_cannot_fund_rejects_every_bidder(monkeypatch):
    scenario = _fast_world()
    world, ledger = scenario.world, scenario.world.ledger
    session = _proposed(scenario)
    payer = scenario.user_agent.identity.wallet_address
    ledger.transfer(payer, "wallet1" + "z" * 52, ledger.balance(payer) - fet(10))  # under 25
    balances = dict(ledger.balances)
    _, sent = _approved(monkeypatch, scenario, session)
    assert ledger.escrows == {}
    assert ledger.locked_total() == 0
    assert ledger.balances == balances
    # one reject names everyone, including the would-be winner, then the outcome
    reject, outcome = sent
    assert (reject.schema_digest, reject.recipients) == (
        REJECT_BID.digest(), tuple(_courier_addresses(scenario))
    )
    assert outcome.recipients == (scenario.user_agent.identity.address,)
    assert canonical_decode(DELIVERY_OUTCOME, outcome.payload)["status"] == "insufficient_funds"
    world.drain()
    _, answered = _bidders_and_answers(world.transcript)
    assert answered == {address: ["bid_lost"] for address in _courier_addresses(scenario)}


def _no_couriers_found(monkeypatch, scenario):
    registry = scenario.world.registry
    search = registry.search

    def without_couriers(height, **query):
        if query.get("protocol_digest") == COURIER_AUCTION.digest():
            return []
        return search(height, **query)

    monkeypatch.setattr(registry, "search", without_couriers)


def _wallet_emptied_before_approval(monkeypatch, scenario):
    ledger, decide = scenario.world.ledger, Orchestrator._decide

    def drain_then_decide(self, target, approved, reason):
        wallet = self.user_agent.identity.wallet_address
        ledger.transfer(wallet, "wallet1" + "z" * 52, ledger.balance(wallet) - 1)
        return decide(self, target, approved, reason)

    monkeypatch.setattr(Orchestrator, "_decide", drain_then_decide)


def _remote_couriers(config):
    return tuple(replace(c, service_area="oxford") for c in config.couriers)


def _slow_couriers(config):
    return tuple(replace(c, eta_minutes=2000) for c in config.couriers)


@pytest.mark.parametrize(
    "overrides, meddle, cause",
    [
        ({}, _no_couriers_found, "NoCouriers"),
        ({"maps_fee_fet": 100}, None, "InsufficientFunds"),
        ({"couriers": _remote_couriers}, None, "NoFeasibleBid"),
        ({"couriers": _slow_couriers}, None, "NoFeasibleBid"),
        ({"approve_delivery": False}, None, "DeliveryDeclined"),
        ({"latency_min": 60, "latency_max": 60}, None, "PayeeRegistrationExpired"),
        ({}, _wallet_emptied_before_approval, "InsufficientFunds"),
        ({}, None, ""),
    ],
    ids=[
        "no_couriers", "maps_fee_unpaid", "no_bids", "no_feasible_bid", "declined",
        "payee_lapsed", "underfunded", "delivered",
    ],
)
def test_every_ending_answers_the_requester_once_and_each_bidder_once(
    monkeypatch, overrides, meddle, cause
):
    config = default_config()
    values = {key: value(config) if callable(value) else value for key, value in overrides.items()}
    scenario = build_scenario(with_overrides(config, **values))
    if meddle is not None:
        meddle(monkeypatch, scenario)
    world = scenario.world
    user, logistics = scenario.user_agent.identity.address, scenario.logistics_agent.identity.address
    answers = {schema.digest(): schema for schema in (LOGISTICS_PROPOSAL, DELIVERY_OUTCOME)}
    send, requests, closing = world.send, [], []

    def recording(env):
        if env.sender == user and env.schema_digest == LOGISTICS_REQUEST.digest():
            requests.append(env.session_id)
        if env.sender == logistics and user in env.recipients:
            answer = canonical_decode(answers[env.schema_digest], env.payload)
            if answer["status"] != "proposal":
                closing.append(env.session_id)
        send(env)

    monkeypatch.setattr(world, "send", recording)
    report = scenario.place_order()
    assert (report.status, report.failure_cause) == ("ok" if not cause else "failed", cause)
    assert len(requests) == 1
    assert closing == requests
    verified, answered = _bidders_and_answers(report.transcript)
    assert set(answered) == verified
    assert all(len(outcomes) == 1 for outcomes in answered.values())


# ---------------------------------------------------------------------------
# feedback wiring

def test_feedback_skipped_when_stars_zero():
    scenario = build_scenario(with_overrides(default_config(), feedback_stars=0))
    report = scenario.place_order()
    assert report.status == "ok"
    assert report.feedback_stars == 0
    assert scenario.feedback_register.records == []


def test_feedback_register_accumulates_across_runs():
    scenario = build_scenario(default_config())
    register = scenario.feedback_register
    first = scenario.place_order()
    second = scenario.place_order()
    assert first.status == second.status == "ok"
    # each delivery is its own auction, so the duplicate rule does not trip
    # and both ratings land
    assert len(register.records) == 2
    assert register.stars[first.winner_address] == [5, 5]


def test_published_stars_feed_the_next_selection():
    # no review fixture: on neutral priors the fast drone edges out the
    # cheap van (0.7 vs 0.679); published ratings then move the choice
    config = with_overrides(default_config(), reviews=())
    baseline = run_scenario(config)
    assert baseline.winner == "DroneDashLtd"

    scenario = build_scenario(config)
    drone = scenario.courier_agents["DroneDashLtd"].identity.address
    van = scenario.courier_agents["SpeedyVanCouriers"].identity.address
    register = scenario.feedback_register
    for i in range(3):
        auction = register.mark_delivered("wallet1seed", f"v{i}", van)
        record_feedback(register, "wallet1seed", van, 5, auction, 0)
        auction = register.mark_delivered("wallet1seed", f"d{i}", drone)
        record_feedback(register, "wallet1seed", drone, 1, auction, 0)

    swayed = scenario.place_order()
    assert swayed.status == "ok"
    assert swayed.winner == "SpeedyVanCouriers"
    assert swayed.delivery_fet == 25


def test_a_rating_in_one_order_sways_the_next_order_in_the_world(monkeypatch):
    # the user rates the drone 1 star after the first order; the second
    # order's auction scores it on that rating and picks the van
    config = with_overrides(default_config(), reviews=(), feedback_stars=1)
    scenario = build_scenario(config)
    drone = scenario.courier_agents["DroneDashLtd"].identity.address
    drone_scores = []

    def recording(scorer, addresses):
        scores = assess_reputation(scorer, addresses)
        drone_scores.append(scores[drone].score)
        return scores

    monkeypatch.setattr(scenario_module, "assess_reputation", recording)
    first, second = scenario.place_order(), scenario.place_order()
    assert (first.status, first.winner, first.feedback_stars) == ("ok", "DroneDashLtd", 1)
    assert (second.status, second.winner) == ("ok", "SpeedyVanCouriers")
    assert drone_scores == [NEUTRAL_SCORE, 0]


# ---------------------------------------------------------------------------
# offline couriers and the network model

def test_offline_courier_gets_mail_on_reconnect():
    config = with_overrides(
        default_config(),
        latency_min=1,
        latency_max=1,
        offline=(PresenceWindow("DroneDashLtd", 1, 60),),
    )
    report = run_scenario(config)
    assert report.status == "ok"
    assert report.winner == "SpeedyVanCouriers"
    assert sum("bid_verified" in line for line in report.transcript) == 2
    mailboxed = [line for line in report.transcript if "mailboxed" in line]
    retrieved = [line for line in report.transcript if "retrieved" in line]
    assert len(mailboxed) == 1 and len(retrieved) == 1
    assert "CallForBids" in mailboxed[0] and "CallForBids" in retrieved[0]


def test_reconnect_at_the_deadline_yields_late_bid_diagnostic():
    base = with_overrides(default_config(), latency_min=1, latency_max=1)
    probe = run_scenario(base)
    opened_line = next(line for line in probe.transcript if "auction_opened" in line)
    deadline = int(opened_line.split("|")[0]) + base.bid_window_ticks
    config = with_overrides(base, offline=(PresenceWindow("DroneDashLtd", 1, deadline),))
    report = run_scenario(config)
    assert report.status == "ok"
    assert any("late_bid_rejected" in line for line in report.transcript)
    assert sum("bid_verified" in line for line in report.transcript) == 2


@pytest.mark.parametrize("online_tick", [50, 60, 80])
def test_final_drain_runs_a_delivery_that_fell_due_offline(online_tick):
    # the winner reconnects after the orchestrator gave up waiting; its
    # AcceptBid is retrieved then and the delivery falls due during the
    # final drain. The report still says failed (the report/ledger
    # disagreement is a separate defect), but no money stays locked.
    config = with_overrides(
        default_config(), offline=(PresenceWindow("SpeedyVanCouriers", 14, online_tick),)
    )
    report = run_scenario(config)
    assert report.escrows
    assert not any(escrow.endswith("=Open") for escrow in report.escrows)
    assert all(escrow.endswith("=Released") for escrow in report.escrows)
    delivered = [line for line in report.transcript if line.endswith("|delivered")]
    assert [int(line.split("|")[0]) for line in delivered] == [online_tick + config.delivery_ticks]
    assert report.conserved


def test_a_courier_serves_every_job_it_accepts():
    scenario = build_scenario(default_config())
    world = scenario.world
    courier = scenario.courier_agents["CamBikeExpress"].identity.address
    for _ in range(2):
        world.send_message(scenario.logistics_agent, courier, Record(ACCEPT_BID, {}))
        world.tick(1)
    world.drain()
    delivered = [line for line in world.transcript if line.endswith("|delivered")]
    assert len(delivered) == 2
    assert len({line.split("|")[0] for line in delivered}) == 2  # one job per timer


def _count_timer_runs(monkeypatch) -> list[str]:
    """Names of the handlers run with a context alone: in a scenario world,
    which has no lifecycle-event handlers, those are the timers."""
    runs: list[str] = []
    original = Agent._run_handler

    def counting(self, handler, *args):
        if len(args) == 1:
            runs.append(handler.__name__)
        return original(self, handler, *args)

    monkeypatch.setattr(Agent, "_run_handler", counting)
    return runs


def _fleet_config(size: int):
    couriers = tuple(
        CourierSpec(
            f"FleetCourier{i:03d}", f"fleet courier seed {i}", 10 + i % 50,
            60 + (37 * i) % 170, "cambridge",
        )
        for i in range(size)
    )
    return with_overrides(default_config(), couriers=couriers, reviews=(), bid_window_ticks=14)


def test_timer_work_per_order_does_not_grow_with_the_fleet(monkeypatch):
    # guard against polling coming back: one close and one delivery per
    # order, whether three couriers bid or a hundred
    runs = _count_timer_runs(monkeypatch)
    counts = []
    for config in (default_config(), _fleet_config(100)):
        runs.clear()
        report = run_scenario(config)
        assert report.status == "ok", report.failure_cause
        counts.append(sorted(runs))
    assert counts == [["close_when_due", "deliver"]] * 2


@pytest.mark.parametrize(
    "deadline", ["soon", "2026-03-02T17:00:00+00:00"], ids=["not_iso", "utc_offset"]
)
def test_a_bad_deadline_is_refused_and_the_open_auction_kept(deadline):
    scenario = build_scenario(default_config())
    world, user = scenario.world, scenario.user_agent
    logistics = scenario.logistics_agent.identity.address
    good = _ask(world, user, logistics, _logistics_request(user.identity.wallet_address))
    for _ in range(20):
        world.tick()
        if any(oracles.line_fields(line).outcome == "auction_opened" for line in world.transcript):
            break
    with pytest.raises(Timeout):
        world.query(user, logistics, _logistics_request(user.identity.wallet_address, deadline), 10)
    lines = map(oracles.line_fields, world.transcript)
    refused = [line for line in lines if line.outcome == "invalid_record"]
    assert [line.schema_name for line in refused] == ["LogisticsRequest"]
    for _ in range(40):
        if user.waiters[good, logistics] is not None:
            break
        world.tick()
    proposal = user.waiters[good, logistics]
    assert proposal is not None and proposal["status"] == "proposal"


def test_simulate_network_reflects_config():
    model = with_overrides(default_config(), latency_min=2, latency_max=5).network()
    assert model.latency_min == 2
    assert model.latency_max == 5
    assert model.drop_probability == 0.0


def test_zero_drop_delivers_exactly_once():
    report = run_scenario(default_config())
    assert not any("dropped" in line for line in report.transcript)
    assert not any("offline_lost" in line for line in report.transcript)
    # each courier saw exactly one call and exactly one verdict
    calls = [line for line in report.transcript if "|CallForBids|" in line and "delivered" not in line]
    assert sum("bid_sent" in line for line in calls) == 3


# ---------------------------------------------------------------------------
# determinism and the report artifact

def test_reports_are_byte_identical_under_fixed_seed():
    first = run_scenario(default_config())
    second = run_scenario(default_config())
    assert first.encoded_hex() == second.encoded_hex()
    assert first.render_text() == second.render_text()
    assert first.transcript == second.transcript


def test_outcome_is_seed_invariant_even_if_timing_is_not():
    for seed in (1, 7, 1234):
        report = run_scenario(with_overrides(default_config(), random_seed=seed))
        assert report.status == "ok"
        assert report.winner == "SpeedyVanCouriers"
        assert report.total_user_spend_fet == 32


def test_report_encodes_and_decodes():
    report = run_scenario(default_config())
    record = canonical_decode(REPORT_SCHEMA, bytes.fromhex(report.encoded_hex()))
    assert record["winner"] == "SpeedyVanCouriers"
    assert record["total_user_spend_ufet"] == 32 * UFET_PER_FET
    assert record["conserved"] is True
    assert record["transcript_sha256"] == report.transcript_sha256()


def test_report_schema_digest_is_pinned():
    # built from ScenarioReport's fields; a field added, renamed or retyped
    # there moves this digest, and with it every encoded report
    assert REPORT_SCHEMA.digest().hex() == (
        "1634e7de1005eb96c4e1b8a6c6cf932766ad5ef25785fabccd185d041b835d4e"
    )


def test_report_write_layout(tmp_path):
    report = run_scenario(default_config())
    path = tmp_path / "report.out"
    report.write(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == report.encoded_hex()
    assert lines[1] == ""
    assert lines[2].startswith("status: ok")


# ---------------------------------------------------------------------------
# interactive approval gates

def test_interactive_gates_read_answers():
    answers = iter(["y", "y", "5"])
    config = with_overrides(default_config(), approval_mode="interactive")
    report = build_scenario(config).place_order(lambda prompt: next(answers))
    assert report.status == "ok"
    assert report.feedback_stars == 5


def test_interactive_no_at_first_gate():
    config = with_overrides(default_config(), approval_mode="interactive")
    report = build_scenario(config).place_order(lambda prompt: "n")
    assert report.status == "failed"
    assert report.failure_cause == "NoPackaging"


def _end_of_input(prompt):
    raise EOFError


def test_interactive_gate_at_end_of_input_answers_no():
    config = with_overrides(default_config(), approval_mode="interactive")
    report = build_scenario(config).place_order(_end_of_input)
    assert report.status == "failed"
    assert report.failure_cause == "NoPackaging"
    assert report.total_user_spend_ufet == 0
    assert report.dialogue[-1] == "[user] no"


def test_interactive_rating_at_end_of_input_is_skipped():
    # so is any answer but 1-5: "²" is a digit to str.isdigit, not to int
    for stars_answer in (_end_of_input, lambda prompt: "²"):
        def answer(prompt):
            return stars_answer(prompt) if prompt.startswith("stars") else "y"

        config = with_overrides(default_config(), approval_mode="interactive")
        report = build_scenario(config).place_order(answer)
        assert report.status == "ok"
        assert report.feedback_stars == 0


def test_interactive_skip_feedback():
    answers = iter(["yes", "yes", ""])
    config = with_overrides(default_config(), approval_mode="interactive")
    report = build_scenario(config).place_order(lambda prompt: next(answers))
    assert report.status == "ok"
    assert report.feedback_stars == 0


# ---------------------------------------------------------------------------
# world lifetime: the world owns its agents and no agent keeps it alive, so a
# dropped world is freed by reference counting, not left to the collector

def _ordered_once(config, **services):
    """Build a world, place one order, and hand back only the World."""
    def make():
        scenario = build_scenario(config, **services)
        assert scenario.place_order().status == "ok"
        return scenario.world
    return make


@pytest.mark.parametrize("config", [
    pytest.param(default_config, id="demo"),
    pytest.param(lambda: attack_config(50), id="attack_50"),
    pytest.param(lambda: fleet_style(40), id="fleet_40"),
])
def test_a_dropped_world_is_freed_at_once(config):
    oracles.assert_freed(_ordered_once(config()))


def test_a_dropped_world_behind_the_services_is_freed_at_once():
    config = default_config()
    ledger = Ledger()
    registry = Registry(ttl=config.registry_ttl, fee=fet(config.registration_fee_fet))
    registry_handle = serve_registry(registry, ledger, FixtureDnsResolver())
    mailbox_handle = serve_mailbox(MailboxStore())
    try:
        with RegistryClient(registry_handle.base_url) as registry_client, MailboxClient(
            mailbox_handle.base_url
        ) as mailbox_client:
            oracles.assert_freed(_ordered_once(
                config, registry=registry_client, mailbox=mailbox_client, ledger=ledger
            ))
    finally:
        registry_handle.close()
        mailbox_handle.close()


def test_an_amount_that_is_not_a_whole_fet_prints_in_micro_fet():
    text = ScenarioReport("ok", "", packaging_ufet=7_500_000, delivery_ufet=fet(25)).render_text()
    assert "packaging: 7500000 uFET\n" in text
    assert "delivery: 25 FET\n" in text
