"""End-to-end scenario: request parsing, the demo run, failure paths,
feedback rules, offline couriers, determinism."""

from __future__ import annotations

import hashlib
from datetime import date

import pytest

from agentmesh.config import (
    CourierSpec,
    PresenceWindow,
    default_config,
    with_overrides,
)
from agentmesh.identity import derive_identity
from agentmesh.ledger import UFET_PER_FET
from agentmesh.contractnet import ACCEPT_BID
from agentmesh.runtime import Agent, Timeout
from agentmesh.scenario import (
    DELIVERY_DECISION,
    LOGISTICS_PROTOCOL,
    LOGISTICS_REQUEST,
    MAPS_PROTOCOL,
    MAPS_REPLY,
    DuplicateFeedback,
    FeedbackRegister,
    NoCompletedDelivery,
    REPORT_SCHEMA,
    ScenarioError,
    UnparsableRequest,
    build_scenario,
    parse_request,
    record_feedback,
    run_scenario,
    simulate_network,
)
from agentmesh.wire import Expired, Record, canonical_decode

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
    assert register.stars_for("agent1abc") == [5]


def test_feedback_duplicate_rejected():
    register = FeedbackRegister()
    auction = register.mark_delivered("wallet1x", "e1", "agent1abc")
    record_feedback(register, "wallet1x", "agent1abc", 4, auction, 10)
    with pytest.raises(DuplicateFeedback):
        record_feedback(register, "wallet1x", "agent1abc", 2, auction, 11)


def test_feedback_requires_completed_delivery():
    register = FeedbackRegister()
    with pytest.raises(NoCompletedDelivery):
        record_feedback(register, "wallet1x", "agent1abc", 5, "e1@0", 10)


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
    assert register.stars_for("agent1abc") == [5, 1]


def test_feedback_same_escrow_hex_across_runs_is_two_auctions():
    # deterministic replays reuse escrow ids; the register still treats
    # each delivery as its own auction
    register = FeedbackRegister()
    first = register.mark_delivered("wallet1x", "e1", "agent1abc")
    second = register.mark_delivered("wallet1x", "e1", "agent1abc")
    assert first != second
    record_feedback(register, "wallet1x", "agent1abc", 5, first, 10)
    record_feedback(register, "wallet1x", "agent1abc", 4, second, 20)
    assert register.stars_for("agent1abc") == [5, 4]


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


def test_demo_arrival_beats_the_deadline():
    report = run_scenario(default_config())
    assert any("by 4:30 PM for 25 FET" in line for line in report.dialogue)
    assert any("verified by the ANAME service" in line for line in report.dialogue)


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
    scenario = build_scenario(default_config())

    def query(*args, **kwargs):
        raise Expired("query reply failed validation: Expired")

    monkeypatch.setattr(scenario.world, "query", query)
    report = scenario.orchestrator.run()
    assert report.status == "failed"
    assert report.failure_cause == "Expired: query reply failed validation: Expired"
    assert report.total_user_spend_ufet == 0
    assert report.conserved


def test_wallet_emptied_before_approval_rejects_every_bidder(monkeypatch):
    # the wallet pre-check passes, then the funds leave before the escrow opens
    scenario = build_scenario(default_config())
    orchestrator, ledger = scenario.orchestrator, scenario.world.ledger
    decide = orchestrator._decide

    def drain_then_decide(target, approved, reason):
        wallet = orchestrator.user_agent.identity.wallet_address
        ledger.transfer(wallet, "wallet1" + "z" * 52, ledger.balance(wallet) - 1)
        return decide(target, approved, reason)

    monkeypatch.setattr(orchestrator, "_decide", drain_then_decide)
    report = orchestrator.run()
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


def _intruder_approves_first(monkeypatch, scenario):
    """A courier, which speaks LogisticsCoordination too, sends an approval
    to the logistics agent just before the user's own decision; returns
    the intruder and the report."""
    orchestrator = scenario.orchestrator
    intruder = scenario.courier_agents["DroneDashLtd"]
    approval = Record(DELIVERY_DECISION, {"approved": True, "reason": ""})
    decide = orchestrator._decide

    def approve_first(target, approved, reason):
        scenario.world.send_message(intruder, target, approval)
        return decide(target, approved, reason)

    monkeypatch.setattr(orchestrator, "_decide", approve_first)
    return intruder, orchestrator.run()


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
    send_query = world.send_query

    def estimate_after_request(sender, target, record, expires_at=None):
        session_id = send_query(sender, target, record, expires_at)
        if record.schema is LOGISTICS_REQUEST:
            world.send_message(spoofer, target, Record(MAPS_REPLY, {"delay_minutes": 100000}))
        return session_id

    monkeypatch.setattr(world, "send_query", estimate_after_request)
    report = scenario.orchestrator.run()
    assert report.status == "ok"
    assert report.winner == "SpeedyVanCouriers"
    assert sum(line.endswith("|unexpected_traffic_reply") for line in report.transcript) == 1


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
    task = parse_request(DEMO_REQUEST)
    spam = Record(
        LOGISTICS_REQUEST,
        {
            "source": task.source,
            "destination": task.destination,
            "deadline": task.deadline,
            "requirements": list(task.requirements),
            "payer_wallet": spammer.identity.wallet_address,
        },
    )
    for _ in range(12):
        world.send_message(spammer, scenario.logistics_agent.identity.address, spam)
    report = scenario.orchestrator.run()
    assert report.conserved
    assert not any(escrow.endswith("=Open") for escrow in report.escrows)


# ---------------------------------------------------------------------------
# feedback wiring

def test_feedback_skipped_when_stars_zero():
    register = FeedbackRegister()
    report = run_scenario(
        with_overrides(default_config(), feedback_stars=0), feedback_register=register
    )
    assert report.status == "ok"
    assert report.feedback_stars == 0
    assert register.records == []


def test_feedback_register_accumulates_across_runs():
    register = FeedbackRegister()
    first = run_scenario(default_config(), feedback_register=register)
    second = run_scenario(default_config(), feedback_register=register)
    assert first.status == second.status == "ok"
    # the replay reuses escrow ids, yet each delivery is its own auction,
    # so the duplicate rule does not trip and both ratings land
    assert len(register.records) == 2
    assert register.stars_for(first.winner_address) == [5, 5]


def test_published_stars_feed_the_next_selection():
    # no review fixture: on neutral priors the fast drone edges out the
    # cheap van (0.7 vs 0.679); published ratings then move the choice
    config = with_overrides(default_config(), reviews=())
    baseline = run_scenario(config)
    assert baseline.winner == "DroneDashLtd"

    scenario = build_scenario(config)
    drone = scenario.courier_agents["DroneDashLtd"].identity.address
    van = scenario.courier_agents["SpeedyVanCouriers"].identity.address
    register = FeedbackRegister()
    for i in range(3):
        auction = register.mark_delivered("wallet1seed", f"v{i}", van)
        record_feedback(register, "wallet1seed", van, 5, auction, 0)
        auction = register.mark_delivered("wallet1seed", f"d{i}", drone)
        record_feedback(register, "wallet1seed", drone, 1, auction, 0)

    swayed = run_scenario(config, feedback_register=register)
    assert swayed.status == "ok"
    assert swayed.winner == "SpeedyVanCouriers"
    assert swayed.delivery_fet == 25


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
    delivered = [line for line in world.transcript_lines() if line.endswith("|delivered")]
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
    task = parse_request(DEMO_REQUEST)

    def request(deadline: str) -> Record:
        return Record(
            LOGISTICS_REQUEST,
            {
                "source": task.source,
                "destination": task.destination,
                "deadline": deadline,
                "requirements": list(task.requirements),
                "payer_wallet": user.identity.wallet_address,
            },
        )

    good = world.send_query(user, logistics, request(task.deadline))
    for _ in range(20):
        world.tick()
        if any(line.outcome == "auction_opened" for line in world.transcript):
            break
    with pytest.raises(Timeout):
        world.query(user, logistics, request(deadline), 10)
    refused = [line for line in world.transcript if line.outcome == "invalid_record"]
    assert [line.schema_name for line in refused] == ["LogisticsRequest"]
    for _ in range(40):
        if world.poll_reply(good) is not None:
            break
        world.tick()
    proposal = world.poll_reply(good)
    assert proposal is not None and proposal["status"] == "proposal"


def test_simulate_network_reflects_config():
    model = simulate_network(with_overrides(default_config(), latency_min=2, latency_max=5))
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
    report = run_scenario(config, input_fn=lambda prompt: next(answers))
    assert report.status == "ok"
    assert report.feedback_stars == 5


def test_interactive_no_at_first_gate():
    config = with_overrides(default_config(), approval_mode="interactive")
    report = run_scenario(config, input_fn=lambda prompt: "n")
    assert report.status == "failed"
    assert report.failure_cause == "NoPackaging"


def test_interactive_skip_feedback():
    answers = iter(["yes", "yes", ""])
    config = with_overrides(default_config(), approval_mode="interactive")
    report = run_scenario(config, input_fn=lambda prompt: next(answers))
    assert report.status == "ok"
    assert report.feedback_stars == 0
