"""Bid signing/verification, reputation scoring, winner selection, announce and reject."""

from __future__ import annotations

from datetime import datetime, timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from agentmesh import contractnet
from agentmesh.contractnet import (
    ACCEPT_BID,
    CALL_FOR_BIDS,
    COURIER_AUCTION,
    COURIER_BID,
    NEUTRAL_SCORE,
    REJECT_BID,
    ContractNetError,
    DeliveryTask,
    DeterministicScorer,
    NoCouriers,
    NoFeasibleBid,
    ReputationScore,
    ScorerUnavailable,
    SelectionWeights,
    VerifiedBid,
    announce,
    assess_reputation,
    bid_body_digest,
    make_bid_record,
    reject_bidders,
    select_winner,
    verify_bid,
)
from agentmesh.identity import derive_identity
from agentmesh.ledger import Ledger, fet
from agentmesh.registry import Registry, registration_signing_digest
from agentmesh.runtime import Agent, Context, World
from agentmesh.wire import I64_MAX, I64_MIN, Record, SchemaMismatch

GOLDEN_BID_BODY = "155a70134b6d99478c04b1bd9f806f1ce37ee7e910d9ac8fc79869020bf59351"

ANNOUNCED = datetime.fromisoformat("2026-03-02T13:00:00")
DEADLINE = datetime.fromisoformat("2026-03-02T17:00:00")

VAN = derive_identity("van strategy")
BIKE = derive_identity("bike strategy")
DRONE = derive_identity("drone strategy")


def neutral(*identities):
    return {
        i.address: ReputationScore(i.address, Fraction(1, 2), "neutral")
        for i in identities
    }


def demo_bids() -> list[VerifiedBid]:
    return [
        VerifiedBid(VAN.address, "SpeedyVanCouriers", fet(25), 210),
        VerifiedBid(BIKE.address, "CamBikeExpress", fet(12), 270),
        VerifiedBid(DRONE.address, "DroneDashLtd", fet(40), 90),
    ]


class TestBidIntegrity:
    def test_golden_body_digest(self):
        assert bid_body_digest(fet(25), 210, "SpeedyVanCouriers").hex() == GOLDEN_BID_BODY

    def test_matches_oracle(self):
        assert bid_body_digest(fet(25), 210, "SpeedyVanCouriers") == oracles.bid_body_digest(
            fet(25), 210, "SpeedyVanCouriers"
        )

    def test_honest_bid_verifies(self):
        bid = make_bid_record(VAN, "SpeedyVanCouriers", fet(25), 210)
        assert verify_bid(bid, VAN.address).verified

    def test_price_mutation_rejected(self):
        bid = make_bid_record(VAN, "SpeedyVanCouriers", fet(25), 210)
        tampered = Record(COURIER_BID, dict(bid.values, price_fet=fet(1)))
        result = verify_bid(tampered, VAN.address)
        assert not result.verified
        assert result.reason == "TamperedPayload"

    def test_wrong_signer_rejected(self):
        bid = make_bid_record(BIKE, "SpeedyVanCouriers", fet(25), 210)
        result = verify_bid(bid, VAN.address)  # claims to come from the van
        assert result.reason == "BadSignature"

    def test_garbage_signature_hex_rejected(self):
        bid = make_bid_record(VAN, "SpeedyVanCouriers", fet(25), 210)
        broken = Record(COURIER_BID, dict(bid.values, signature="zz not hex"))
        assert verify_bid(broken, VAN.address).reason == "BadSignature"

    def test_a_record_that_is_not_a_bid_is_tampered(self):
        assert verify_bid(Record(ACCEPT_BID, {}), VAN.address).reason == "TamperedPayload"

    def test_receiver_recomputes_digest(self):
        bid = make_bid_record(VAN, "SpeedyVanCouriers", fet(25), 210)
        assert bid["digest"] == bid_body_digest(fet(25), 210, "SpeedyVanCouriers").hex()

    @pytest.mark.parametrize("price", [True, False, I64_MAX + 1, I64_MIN - 1])
    def test_the_signer_still_refuses_a_price_no_bid_can_carry(self, price):
        """verify_bid hashes values its decoder validated; the signer's
        digest validates what it is given."""
        with pytest.raises(SchemaMismatch):
            make_bid_record(VAN, "SpeedyVanCouriers", price, 210)
        with pytest.raises(SchemaMismatch):
            bid_body_digest(fet(25), price, "SpeedyVanCouriers")


class TestReputation:
    def test_no_evidence_is_neutral(self):
        scores = DeterministicScorer().assess([VAN.address])
        assert scores[VAN.address].score == Fraction(1, 2)

    def test_all_positive_is_one(self):
        scorer = DeterministicScorer()
        scorer.add_review(VAN.address, "Excellent, fast and careful. Highly recommended!")
        assert scorer.assess([VAN.address])[VAN.address].score == 1

    def test_mixed_counts_keywords(self):
        scorer = DeterministicScorer()
        scorer.add_review(DRONE.address, "fast but the parcel arrived damaged")
        # one positive (fast), one negative (damaged)
        assert scorer.assess([DRONE.address])[DRONE.address].score == Fraction(1, 2)
        scorer.add_review(DRONE.address, "driver was rude")
        assert scorer.assess([DRONE.address])[DRONE.address].score == Fraction(1, 3)

    def test_stars_fold_in(self):
        scorer = DeterministicScorer()
        scorer.stars[VAN.address] = [5, 1]
        assert scorer.assess([VAN.address])[VAN.address].score == Fraction(1, 2)

    def test_high_stars_never_lower_score(self):
        scorer = DeterministicScorer()
        scorer.add_review(VAN.address, "good fast service")
        before = scorer.assess([VAN.address])[VAN.address].score
        scorer.stars[VAN.address] = [5]
        after = scorer.assess([VAN.address])[VAN.address].score
        assert after >= before

    def test_assessing_no_address_is_refused(self):
        with pytest.raises(ContractNetError, match="at least one address"):
            assess_reputation(DeterministicScorer(), [])

    def test_each_review_is_read_once(self, monkeypatch):
        tokenize, read = contractnet._tokenize, []
        monkeypatch.setattr(contractnet, "_tokenize", lambda text: read.append(text) or tokenize(text))
        scorer = DeterministicScorer()
        reviews = {VAN: "good fast service", BIKE: "late, slow and rude", DRONE: "on time"}
        for identity, text in reviews.items():
            scorer.add_review(identity.address, text)
        addresses = [identity.address for identity in reviews]
        scores = scorer.assess(addresses)
        assert scorer.assess(addresses) == scores
        assert read == list(reviews.values())  # two assessments, one read of each review
        assert [(s.score, s.summary) for s in scores.values()] == [
            (1, "2 positive / 0 negative signals"),
            (0, "0 positive / 3 negative signals"),
            (Fraction(1, 2), "no evidence, neutral prior"),
        ]

    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.text("aZ _-'!.,\u0130\u00df\u0663\u2163\u00b2\u0301\u4e00"))
    def test_tokens_are_the_runs_of_alphanumeric_characters(self, text):
        """The regex reads the same tokens as a loop over str.isalnum()."""
        out, word = [], []
        for ch in text.lower():
            if ch.isalnum():
                word.append(ch)
            elif word:
                out.append("".join(word))
                word = []
        if word:
            out.append("".join(word))
        assert contractnet._tokenize(text) == out

    def test_scorer_unavailable_degrades_to_neutral(self):
        class DeadScorer:
            def assess(self, addresses):
                raise ScorerUnavailable("backend down")

        scores = assess_reputation(DeadScorer(), [VAN.address, BIKE.address])
        assert all(s.score == Fraction(1, 2) for s in scores.values())

    def test_an_address_the_scorer_leaves_out_gets_the_neutral_prior(self):
        class PartialScorer:
            def assess(self, addresses):
                return {VAN.address: ReputationScore(VAN.address, Fraction(1), "praised")}

        scores = assess_reputation(PartialScorer(), [VAN.address, BIKE.address])
        assert scores[VAN.address].score == 1
        assert scores[BIKE.address] == ReputationScore(
            BIKE.address, NEUTRAL_SCORE, "unscored, neutral prior"
        )

    def test_score_range_enforced(self):
        with pytest.raises(Exception):
            ReputationScore(VAN.address, Fraction(3, 2), "broken")


class TestSelectWinner:
    def demo_scores(self):
        scorer = DeterministicScorer()
        scorer.add_review(VAN.address, "Excellent careful couriers, highly rated and punctual")
        scorer.add_review(BIKE.address, "good but slow")
        scorer.add_review(DRONE.address, "fast but dropped one parcel, damaged")
        return scorer.assess([VAN.address, BIKE.address, DRONE.address])

    def test_demo_fixture_picks_the_van(self):
        winner, losers = select_winner(
            demo_bids(), self.demo_scores(), SelectionWeights.default(), DEADLINE, ANNOUNCED
        )
        assert winner == VAN.address
        assert losers == sorted([BIKE.address, DRONE.address])

    def test_infeasible_cheap_bid_never_wins(self):
        # the bike is cheapest but arrives 13:00 + 270min = 17:30 > 17:00
        winner, _ = select_winner(
            demo_bids(), neutral(VAN, BIKE, DRONE), SelectionWeights.default(),
            DEADLINE, ANNOUNCED,
        )
        assert winner != BIKE.address

    def test_single_feasible_bid_wins(self):
        bids = [VerifiedBid(VAN.address, "OnlyOne", fet(99), 30)]
        winner, losers = select_winner(
            bids, neutral(VAN), SelectionWeights.default(), DEADLINE, ANNOUNCED
        )
        assert winner == VAN.address
        assert losers == []

    def test_no_feasible_bid(self):
        bids = [VerifiedBid(VAN.address, "TooSlow", fet(1), 1000)]
        with pytest.raises(NoFeasibleBid):
            select_winner(bids, neutral(VAN), SelectionWeights.default(), DEADLINE, ANNOUNCED)

    @pytest.mark.parametrize("eta", [2**40, 2**62], ids=["2**40", "2**62"])
    def test_an_eta_beyond_the_calendar_is_infeasible(self, eta):
        # ANNOUNCED + eta minutes is past year 9999, which datetime cannot hold
        slow = VerifiedBid(VAN.address, "Glacial", fet(1), eta)
        with pytest.raises(NoFeasibleBid):
            select_winner([slow], neutral(VAN), SelectionWeights.default(), DEADLINE, ANNOUNCED)
        bike = VerifiedBid(BIKE.address, "Steady", fet(12), 60)
        winner, losers = select_winner(
            [slow, bike], neutral(VAN, BIKE), SelectionWeights.default(), DEADLINE, ANNOUNCED
        )
        assert (winner, losers) == (BIKE.address, [VAN.address])

    def test_an_auction_at_the_end_of_the_calendar_still_selects(self):
        announced = datetime.fromisoformat("9999-12-31T22:00:00")
        deadline = datetime.fromisoformat("9999-12-31T23:59:00")
        bids = [
            VerifiedBid(VAN.address, "OnTime", fet(30), 119),
            VerifiedBid(BIKE.address, "NextYear", fet(1), 120),
        ]
        winner, _ = select_winner(
            bids, neutral(VAN, BIKE), SelectionWeights.default(), deadline, announced
        )
        assert winner == VAN.address

    def test_tie_breaks_by_address(self):
        a, b = sorted([VAN.address, BIKE.address])
        bids = [
            VerifiedBid(b, "B", fet(10), 60),
            VerifiedBid(a, "A", fet(10), 60),
        ]
        scores = neutral(VAN, BIKE)
        winner, _ = select_winner(
            bids, scores, SelectionWeights.default(), DEADLINE, ANNOUNCED
        )
        assert winner == a

    def test_price_scale_invariance(self):
        scores = self.demo_scores()
        base, _ = select_winner(
            demo_bids(), scores, SelectionWeights.default(), DEADLINE, ANNOUNCED
        )
        scaled_bids = [
            VerifiedBid(b.address, b.courier_id, b.price_fet * 1000, b.eta_minutes)
            for b in demo_bids()
        ]
        scaled, _ = select_winner(
            scaled_bids, scores, SelectionWeights.default(), DEADLINE, ANNOUNCED
        )
        assert base == scaled

    def test_weights_must_sum_to_one(self):
        with pytest.raises(Exception):
            SelectionWeights(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))

    @given(
        st.lists(
            st.tuples(st.integers(1, 60), st.integers(1, 300), st.integers(0, 100)),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200)
    def test_matches_brute_force_oracle(self, rows, rnd):
        bids = []
        scores = {}
        oracle_bids = {}
        oracle_scores = {}
        for i, (price, eta, rep) in enumerate(rows):
            address = derive_identity(f"oracle bidder {i}").address
            bids.append(VerifiedBid(address, f"C{i}", fet(price), eta))
            scores[address] = ReputationScore(address, Fraction(rep, 100), "fixed")
            oracle_bids[address] = (fet(price), eta)
            oracle_scores[address] = Fraction(rep, 100)
        weights = SelectionWeights.default()
        expected = oracles.brute_force_winner(
            oracle_bids,
            oracle_scores,
            (weights.w_price, weights.w_speed, weights.w_reputation),
            DEADLINE,
            ANNOUNCED,
        )
        if expected is None:
            with pytest.raises(NoFeasibleBid):
                select_winner(bids, scores, weights, DEADLINE, ANNOUNCED)
        else:
            winner, _ = select_winner(bids, scores, weights, DEADLINE, ANNOUNCED)
            assert winner == expected


def fraction_select_winner(bids, scores, weights, deadline, announced_at):
    """select_winner as it read when it summed each total in Fractions."""
    budget = (deadline - announced_at) // timedelta(minutes=1)
    feasible = [bid for bid in bids if bid.eta_minutes <= budget]
    if not feasible:
        raise NoFeasibleBid("none")
    min_price = min(b.price_fet for b in feasible)
    min_eta = min(b.eta_minutes for b in feasible)
    best_address, best_total = None, None
    for bid in sorted(feasible, key=lambda b: b.address):
        rep = scores[bid.address].score if bid.address in scores else NEUTRAL_SCORE
        total = (
            weights.w_price * Fraction(min_price, bid.price_fet)
            + weights.w_speed * Fraction(min_eta, bid.eta_minutes)
            + weights.w_reputation * rep
        )
        if best_total is None or total > best_total:
            best_address, best_total = bid.address, total
    return best_address, sorted(b.address for b in bids if b.address != best_address)


@st.composite
def weight_triples(draw):
    """Non-negative Fractions that sum to exactly 1."""
    denominator = draw(st.integers(1, 12))
    first = draw(st.integers(0, denominator))
    second = draw(st.integers(0, denominator - first))
    parts = (first, second, denominator - first - second)
    return SelectionWeights(*(Fraction(part, denominator) for part in parts))


@given(
    st.lists(
        # few distinct prices, ETAs and scores, so that totals often tie
        st.tuples(st.sampled_from([2, 3, 4, 6]), st.sampled_from([30, 45, 60, 90, 300]),
                  st.one_of(st.none(), st.sampled_from([0, 1, 2, 3]))),
        min_size=1, max_size=12,
    ),
    weight_triples(),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_select_winner_picks_what_the_fraction_formula_picks(rows, weights, rnd):
    bids, scores = [], {}
    for i, (price, eta, rep) in enumerate(rows):
        address = f"agent1bidder{rnd.randrange(10**6):06d}{i:02d}"
        bids.append(VerifiedBid(address, f"C{i}", price, eta))
        if rep is not None:  # an unscored bidder takes the neutral prior
            scores[address] = ReputationScore(address, Fraction(rep, 3), "drawn")
    try:
        expected = fraction_select_winner(bids, scores, weights, DEADLINE, ANNOUNCED)
    except NoFeasibleBid:
        with pytest.raises(NoFeasibleBid):
            select_winner(bids, scores, weights, DEADLINE, ANNOUNCED)
        return
    assert select_winner(bids, scores, weights, DEADLINE, ANNOUNCED) == expected


class TestFilterSoundness:
    def test_forged_bids_never_influence_selection(self):
        honest = demo_bids()
        scores = neutral(VAN, BIKE, DRONE)
        baseline, _ = select_winner(
            honest, scores, SelectionWeights.default(), DEADLINE, ANNOUNCED
        )
        # forge juicy bids that would win if admitted
        forger = derive_identity("forger")
        forged_records = []
        for i in range(10):
            record = make_bid_record(forger, f"Fake{i}", fet(1), 5)
            if i % 2 == 0:  # tamper the price after signing
                record = Record(COURIER_BID, dict(record.values, price_fet=fet(1) - 1 - i))
                claimed = forger.address
            else:  # signature from a key other than the claimed sender
                claimed = VAN.address
            forged_records.append((record, claimed))
        admitted = list(honest)
        for record, claimed in forged_records:
            result = verify_bid(record, claimed)
            assert not result.verified
            assert result.reason in ("TamperedPayload", "BadSignature")
        winner, _ = select_winner(
            admitted, scores, SelectionWeights.default(), DEADLINE, ANNOUNCED
        )
        assert winner == baseline


class TestAnnounceAndSettle:
    def registered_world(self, courier_count=5):
        ledger, registry = Ledger(), Registry()
        logistics = Agent("logistics", derive_identity("logistics agent"))
        logistics.include_protocol(COURIER_AUCTION)
        couriers = []
        for i in range(courier_count):
            identity = derive_identity(f"registered courier {i}")
            ledger.mint(identity.wallet_address, fet(10))
            digest = registration_signing_digest(
                identity.address, 0, [COURIER_AUCTION.digest()], f"sim://c{i}", {}
            )
            registry.register(
                ledger,
                address=identity.address,
                endpoint=f"sim://c{i}",
                protocol_digests=[COURIER_AUCTION.digest()],
                metadata={},
                sequence=0,
                signature=identity.sign_digest(digest),
                fee_wallet=identity.wallet_address,
            )
            couriers.append(identity)
        return ledger, registry, logistics, couriers

    def task(self) -> DeliveryTask:
        return DeliveryTask(
            "Cambridge office", "Liverpool Street London", "2026-03-02T17:00:00",
            ("fragile", "careful handling"),
        )

    @staticmethod
    def deliveries(ledger, registry, couriers, *envelopes) -> list[tuple[str, bytes, str]]:
        """Send the envelopes through a world of the couriers; (address,
        session, schema name) for each copy a courier's handler took, in
        the order they took them."""
        world = World(ledger, registry)
        taken = []
        for i, identity in enumerate(couriers):
            courier = Agent(f"courier {i}", identity)
            courier.include_protocol(COURIER_AUCTION)
            for schema in (CALL_FOR_BIDS, ACCEPT_BID, REJECT_BID):
                courier.on_message(schema)(
                    lambda ctx, sender, record: taken.append(
                        (ctx.address, ctx.session_id, record.schema.name)
                    )
                )
            world.add_agent(courier)
        for env in envelopes:
            world.send(env)
        world.drain()
        return taken

    def test_announce_reaches_every_live_courier(self):
        ledger, registry, logistics, couriers = self.registered_world(5)
        ctx = Context(World(ledger, registry), logistics)
        invited = announce(ctx, self.task(), bid_deadline=20)
        [env] = ctx.outbound  # one envelope, one signature
        assert set(env.recipients) == {c.address for c in couriers}
        assert list(env.recipients) == invited
        assert len(set(env.recipients)) == 5
        assert env.schema_digest == CALL_FOR_BIDS.digest()
        assert env.expires_at == 20
        assert logistics._session_counter == 1  # one fresh session, for the one envelope
        assert env.signed()
        # each courier takes its copy once, in the order the search found it
        taken = self.deliveries(ledger, registry, couriers, env)
        assert taken == [(address, env.session_id, "CallForBids") for address in invited]

    def test_announce_sends_in_the_context_session(self):
        ledger, registry, logistics, couriers = self.registered_world(5)
        session = b"\x07" * 16
        ctx = Context(World(ledger, registry), logistics, session_id=session)
        invited = announce(ctx, self.task(), bid_deadline=20)
        assert [e.session_id for e in ctx.outbound] == [session]
        assert len(ctx.outbound[0].recipients) == 5
        taken = self.deliveries(ledger, registry, couriers, *ctx.outbound)
        assert taken == [(address, session, "CallForBids") for address in invited]

    def test_announce_refuses_a_bid_deadline_not_after_now(self):
        ledger, registry, logistics, _ = self.registered_world(1)
        ctx = Context(World(ledger, registry), logistics)
        with pytest.raises(ContractNetError, match="bid_deadline"):
            announce(ctx, self.task(), bid_deadline=ledger.height)
        assert ctx.outbound == []

    def test_announce_without_couriers(self):
        ledger, registry, logistics, _ = self.registered_world(0)
        ctx = Context(World(ledger, registry), logistics)
        with pytest.raises(NoCouriers):
            announce(ctx, self.task(), bid_deadline=20)
        assert ctx.outbound == []

    def test_targets_come_from_search_only(self):
        ledger, registry, logistics, couriers = self.registered_world(3)
        ledger.advance_block(501)  # all registrations lapse
        ctx = Context(World(ledger, registry), logistics)
        with pytest.raises(NoCouriers):
            announce(ctx, self.task(), bid_deadline=600)
        assert ctx.outbound == []

    def test_more_couriers_than_one_envelope_names_take_several(self, monkeypatch):
        monkeypatch.setattr(contractnet, "MAX_RECIPIENTS", 2)
        ledger, registry, logistics, couriers = self.registered_world(5)
        session = b"\x0a" * 16
        ctx = Context(World(ledger, registry), logistics, session_id=session)
        invited = announce(ctx, self.task(), bid_deadline=20)
        reject_bidders(ctx, reversed(invited))
        calls, rejects = ctx.outbound[:3], ctx.outbound[3:]
        # runs of at most two, in search order for the call, address order for the rejects
        assert [e.recipients for e in calls] == [tuple(invited[i:i + 2]) for i in (0, 2, 4)]
        assert [e.recipients for e in rejects] == [
            tuple(sorted(invited)[i:i + 2]) for i in (0, 2, 4)
        ]
        assert {e.session_id for e in ctx.outbound} == {session}
        taken = self.deliveries(ledger, registry, couriers, *ctx.outbound)
        assert sorted(taken) == sorted(
            (address, session, name) for address in invited for name in ("CallForBids", "RejectBid")
        )


class TestDeliveryTask:
    def test_deadline_must_parse(self):
        with pytest.raises(ValueError):
            DeliveryTask("a", "b", "five o'clock")

    def test_requirements_default_empty(self):
        task = DeliveryTask("a", "b", "2026-03-02T17:00:00")
        assert task.requirements == ()
