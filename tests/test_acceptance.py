"""Acceptance gate: ten executable checks, one per shipped guarantee.

Each test exercises the real stack (no mocks), prints one PASS/FAIL line,
and fails loudly with the first divergence. Oracles live in oracles.py and
are intentionally independent reimplementations of the documented rules.
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from datetime import datetime, timedelta
from fractions import Fraction

import oracles
from agentmesh.cli import attack_config
from agentmesh.config import PresenceWindow, default_config, with_overrides
from agentmesh.contractnet import (
    NoFeasibleBid,
    ReputationScore,
    SelectionWeights,
    VerifiedBid,
    select_winner,
)
from agentmesh.identity import derive_identity, verify_digest
from agentmesh.ledger import EscrowOutcome, Ledger, LedgerError, fet
from agentmesh.mailbox import MailboxStore
from agentmesh.registry import (
    BadSequence,
    BadSignature,
    FixtureDnsResolver,
    Registry,
    registration_signing_digest,
)
from agentmesh.runtime import Agent, NetworkModel, World
from agentmesh.scenario import parse_request, run_scenario
from agentmesh.services import MailboxClient, RegistryClient, serve_mailbox, serve_registry
from agentmesh.wire import ModelSchema, ProtocolSpec, Record, SemanticType


def _verdict(number: int, label: str, failures: list[str]) -> None:
    print(f"[criterion {number:2d}] {label}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures)


def _expect(failures: list[str], condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


# ---------------------------------------------------------------------------
# 1. demo reproduction

def test_criterion_01_demo_reproduction():
    failures: list[str] = []
    config = default_config()
    started = time.perf_counter()
    report = run_scenario(config)
    elapsed = time.perf_counter() - started

    _expect(failures, report.status == "ok", f"status {report.status!r}")
    _expect(failures, report.packaging_fet == 7, f"packaging {report.packaging_fet} != 7 FET")
    _expect(failures, report.delivery_fet == 25, f"winning bid {report.delivery_fet} != 25 FET")
    _expect(
        failures,
        report.total_user_spend_fet == 32,
        f"total spend {report.total_user_spend_fet} != 32 FET",
    )
    _expect(
        failures,
        report.winner == "SpeedyVanCouriers",
        f"winner {report.winner!r} != 'SpeedyVanCouriers'",
    )

    deadline = datetime.fromisoformat(parse_request(config.request).deadline)
    arrival = None
    for line in report.dialogue:
        match = re.search(r"deliver your package by (\d{1,2}):(\d{2}) (AM|PM)", line)
        if match:
            hour, minute, meridiem = int(match[1]), int(match[2]), match[3]
            hour = hour % 12 + (12 if meridiem == "PM" else 0)
            arrival = deadline.replace(hour=hour, minute=minute)
            break
    _expect(failures, arrival is not None, "no arrival time in the dialogue")
    if arrival is not None:
        _expect(failures, arrival < deadline, f"arrival {arrival} not before {deadline}")
    _expect(failures, elapsed < 5.0, f"run took {elapsed:.2f}s (budget 5s)")
    _verdict(1, "demo reproduction", failures)


# ---------------------------------------------------------------------------
# 2. conservation

def test_criterion_02_conservation_over_randomized_run():
    failures: list[str] = []
    rng = random.Random(2024)
    ledger = Ledger()
    wallets = [f"wallet1conserve{i:02d}" for i in range(12)]
    arbiter = "agent1conservearbiter"
    for wallet in wallets:
        ledger.mint(wallet, fet(rng.randint(10, 1000)))
    initial_supply = ledger.total_supply
    open_escrows: list[bytes] = []

    def holds() -> bool:
        total = sum(ledger.balances.values()) + ledger.locked_total() + ledger.fee_sink
        return total == initial_supply == ledger.total_supply and ledger.conservation_ok()

    for event in range(10_000):
        op = rng.choices(
            ("transfer", "fee", "open", "settle", "advance"),
            weights=(40, 15, 20, 20, 5),
        )[0]
        try:
            if op == "transfer":
                a, b = rng.sample(wallets, 2)
                ledger.transfer(a, b, rng.randint(1, max(ledger.balance(a), 1)))
            elif op == "fee":
                wallet = rng.choice(wallets)
                ledger.charge_fee(wallet, rng.randint(1, max(ledger.balance(wallet), 1)))
            elif op == "open":
                payer, payee = rng.sample(wallets, 2)
                amount = rng.randint(1, max(ledger.balance(payer), 1))
                open_escrows.append(ledger.open_escrow(payer, payee, amount, arbiter))
            elif op == "settle" and open_escrows:
                escrow_id = open_escrows.pop(rng.randrange(len(open_escrows)))
                outcome = rng.choice((EscrowOutcome.RELEASED, EscrowOutcome.REFUNDED))
                ledger.settle_escrow(escrow_id, arbiter, outcome)
            else:
                ledger.advance_block(1)
        except LedgerError:
            pass  # refused ops must leave the invariant intact too
        if not holds():
            failures.append(f"conservation broken after event {event} ({op})")
            break
    _verdict(2, "conservation across 10,000 events", failures)


# ---------------------------------------------------------------------------
# 3. forged-bid filter soundness

def test_criterion_03_forged_bid_filter():
    failures: list[str] = []
    baseline = run_scenario(attack_config(0))
    attacked = run_scenario(attack_config(50))

    tampered = sum("bid_rejected_TamperedPayload" in line for line in attacked.transcript)
    badsig = sum("bid_rejected_BadSignature" in line for line in attacked.transcript)
    verified = sum("bid_verified" in line for line in attacked.transcript)

    _expect(failures, baseline.status == "ok", f"baseline status {baseline.status!r}")
    _expect(failures, attacked.status == "ok", f"attacked status {attacked.status!r}")
    _expect(
        failures,
        tampered + badsig == 50,
        f"rejected {tampered + badsig}/50 forged bids",
    )
    _expect(failures, verified == 5, f"verified {verified} honest bids, expected 5")
    _expect(
        failures,
        attacked.winner == baseline.winner,
        f"winner changed under attack: {baseline.winner!r} -> {attacked.winner!r}",
    )
    _verdict(3, "forged-bid filter soundness", failures)


# ---------------------------------------------------------------------------
# 4. selection oracle

def test_criterion_04_selection_matches_brute_force():
    failures: list[str] = []
    rng = random.Random(4)
    announced_at = datetime(2026, 3, 2, 13, 0)

    for case in range(1000):
        n_bids = rng.randint(1, 8)
        addresses = [f"agent1sel{case:04d}{i}" for i in range(n_bids)]
        bids = {}
        scores = {}
        for i, address in enumerate(addresses):
            price = rng.randint(1, 500)
            eta = rng.randint(1, 600)
            if case % 5 == 0 and i == 1:
                # exact duplicate of bid 0: a real tie, resolved by address
                price, eta = bids[addresses[0]]
                scores[address] = scores[addresses[0]]
            else:
                scores[address] = Fraction(rng.randint(0, 20), 20)
            bids[address] = (price, eta)
        window = rng.randint(1, 30) if case % 7 == 0 else rng.randint(1, 700)
        deadline = announced_at + timedelta(minutes=window)
        if case % 3 == 0:
            weights = SelectionWeights.default()
        else:
            a = rng.randint(0, 10)
            b = rng.randint(0, 10 - a)
            weights = SelectionWeights(
                Fraction(a, 10), Fraction(b, 10), Fraction(10 - a - b, 10)
            )

        expected = oracles.brute_force_winner(
            bids,
            scores,
            (weights.w_price, weights.w_speed, weights.w_reputation),
            deadline,
            announced_at,
        )
        verified = [
            VerifiedBid(address, f"c{i}", price, eta)
            for i, (address, (price, eta)) in enumerate(sorted(bids.items()))
        ]
        score_map = {
            address: ReputationScore(address, value, "fuzz")
            for address, value in scores.items()
        }
        try:
            winner, losers = select_winner(
                verified, score_map, weights, deadline, announced_at
            )
        except NoFeasibleBid:
            winner = None
            losers = []
        if winner != expected:
            failures.append(f"case {case}: got {winner!r}, oracle says {expected!r}")
            break
        if winner is not None and sorted(losers + [winner]) != sorted(bids):
            failures.append(f"case {case}: losers list wrong")
            break
    _verdict(4, "selection equals brute force over 1,000 auctions", failures)


# ---------------------------------------------------------------------------
# 5. registry liveness sweep

def test_criterion_05_registry_liveness_sweep():
    failures: list[str] = []
    digests = [hashlib.sha256(f"proto{i}".encode()).digest() for i in range(3)]
    geos = ("cambridge", "london", None)

    for trial in range(3):
        rng = random.Random(50 + trial)
        ttl = 40
        registry, ledger = Registry(ttl=ttl, fee=0), Ledger()
        identities = [derive_identity(f"sweep {trial} agent {i}") for i in range(12)]
        sequences = {identity.address: 0 for identity in identities}
        mirror: dict[str, dict] = {}

        for height in range(2 * ttl + 1):
            if rng.random() < 0.35:
                identity = rng.choice(identities)
                protocols = rng.sample(digests, k=rng.randint(1, 3))
                geo = rng.choice(geos)
                metadata = {"geo": geo} if geo else {}
                sequence = sequences[identity.address]
                digest = registration_signing_digest(
                    identity.address, sequence, protocols, "sim://ep", metadata
                )
                registry.register(
                    ledger,
                    identity.address,
                    "sim://ep",
                    protocols,
                    metadata,
                    sequence,
                    identity.sign_digest(digest),
                    identity.wallet_address,
                )
                sequences[identity.address] += 1
                mirror[identity.address] = {
                    "address": identity.address,
                    "expires_at": height + ttl,
                    "protocol_digests": set(protocols),
                    "metadata": metadata,
                }

            for digest_filter in (None, digests[0]):
                for geo_filter in (None, "cambridge"):
                    got = [
                        (r.address, r.expires_at)
                        for r in registry.search(
                            height, protocol_digest=digest_filter, geo=geo_filter
                        )
                    ]
                    want = [
                        (r["address"], r["expires_at"])
                        for r in oracles.brute_force_search(
                            list(mirror.values()), digest_filter, None, geo_filter, height
                        )
                    ]
                    if got != want:
                        failures.append(
                            f"trial {trial} height {height} "
                            f"digest={digest_filter is not None} geo={geo_filter}: "
                            f"{got} != {want}"
                        )
                        break
            ledger.advance_block(1)
            if failures:
                break
        if failures:
            break
    _verdict(5, "registry liveness matches brute-force filter", failures)


# ---------------------------------------------------------------------------
# 6. replay and wrong-key registration fuzz

def test_criterion_06_replay_and_wrong_key_fuzz():
    failures: list[str] = []
    rng = random.Random(6)
    registry, ledger = Registry(fee=0), Ledger()
    identities = [derive_identity(f"fuzz reg {i}") for i in range(30)]
    imposter = derive_identity("fuzz imposter")
    sequences = {identity.address: 0 for identity in identities}
    last_accepted: dict[str, tuple] = {}

    def register_once(identity) -> tuple:
        sequence = sequences[identity.address]
        digest = registration_signing_digest(
            identity.address, sequence, [], "sim://ep", {}
        )
        args = (
            identity.address,
            "sim://ep",
            [],
            {},
            sequence,
            identity.sign_digest(digest),
            identity.wallet_address,
        )
        registry.register(ledger, *args)
        sequences[identity.address] += 1
        return args

    rejected = 0
    for case in range(1000):
        identity = rng.choice(identities)
        if rng.random() < 0.5:
            # replay: resubmit a previously accepted signed registration
            if identity.address not in last_accepted:
                last_accepted[identity.address] = register_once(identity)
            args = last_accepted[identity.address]
            try:
                registry.register(ledger, *args)
                failures.append(f"case {case}: replayed sequence accepted")
            except BadSequence:
                rejected += 1
        else:
            # wrong key: correct payload, signature from another identity
            sequence = sequences[identity.address]
            digest = registration_signing_digest(
                identity.address, sequence, [], "sim://ep", {}
            )
            try:
                registry.register(
                    ledger,
                    identity.address,
                    "sim://ep",
                    [],
                    {},
                    sequence,
                    imposter.sign_digest(digest),
                    identity.wallet_address,
                )
                failures.append(f"case {case}: wrong-key registration accepted")
            except BadSignature:
                rejected += 1
        if failures:
            break
    _expect(failures, rejected == 1000, f"only {rejected}/1000 forgeries rejected")
    _verdict(6, "replay and wrong-key registrations rejected", failures)


# ---------------------------------------------------------------------------
# 7. mailbox no-loss plus the late-bid diagnostic

PING = ModelSchema.build("AcceptPing", text=SemanticType.STRING)
PING_PROTOCOL = ProtocolSpec("AcceptancePing", "1.0", (PING,))


def _mailbox_no_loss_trial(trial: int) -> list[str]:
    problems: list[str] = []
    rng = random.Random(700 + trial)
    mailbox = MailboxStore()
    world = World(
        Ledger(),
        mailbox=mailbox,
        network=NetworkModel(latency_min=1, latency_max=1),
        seed=trial,
    )
    received: list[str] = []

    sender = Agent("acceptance sender", derive_identity(f"no loss sender {trial}"))
    sender.include_protocol(PING_PROTOCOL)
    receiver = Agent("acceptance receiver", derive_identity(f"no loss receiver {trial}"))
    receiver.include_protocol(PING_PROTOCOL)

    @receiver.on_message(PING)
    def collect(ctx, sender_address, record):
        received.append(record["text"])

    target = receiver.identity.address
    sent = 0

    @sender.on_interval(1)
    def emit(ctx):
        nonlocal sent
        if ctx.height > 180:  # stop so the tail can flush before the check
            return
        ctx.send(target, Record(PING, {"text": f"m{sent}"}), expires_at=ctx.height + 10_000)
        sent += 1

    world.add_agent(sender)
    world.add_agent(receiver)
    mailbox.create_account(target)

    online = True
    for tick in sorted(rng.sample(range(5, 180), k=12)):
        online = not online
        world.schedule_presence(target, tick, online)
    world.schedule_presence(target, 190, True)
    world.tick(200)
    world.drain()

    expected = {f"m{i}" for i in range(sent)}
    if len(received) != len(set(received)):
        problems.append(f"trial {trial}: duplicate delivery")
    if set(received) != expected:
        missing = sorted(expected - set(received))[:5]
        problems.append(f"trial {trial}: lost {len(expected) - len(set(received))} "
                        f"messages (first {missing})")
    lines = world.transcript_lines()
    mailboxed = sum("mailboxed" in line for line in lines)
    retrieved = sum("retrieved" in line for line in lines)
    if mailboxed != retrieved:
        problems.append(f"trial {trial}: {mailboxed} deposited but {retrieved} retrieved")
    if mailboxed == 0:
        problems.append(f"trial {trial}: schedule never exercised the mailbox")
    return problems


def test_criterion_07_mailbox_no_loss_and_late_bid():
    failures: list[str] = []
    for trial in range(6):
        failures.extend(_mailbox_no_loss_trial(trial))
        if failures:
            break

    # end to end: a courier reconnecting at the deadline bids one tick late
    base = with_overrides(default_config(), latency_min=1, latency_max=1)
    probe = run_scenario(base)
    opened = next(line for line in probe.transcript if "auction_opened" in line)
    deadline = int(opened.split("|")[0]) + base.bid_window_ticks
    late = run_scenario(
        with_overrides(base, offline=(PresenceWindow("DroneDashLtd", 1, deadline),))
    )
    _expect(failures, late.status == "ok", f"late-bid run status {late.status!r}")
    _expect(
        failures,
        any("late_bid_rejected" in line for line in late.transcript),
        "no late-bid diagnostic in the transcript",
    )
    _verdict(7, "mailbox no-loss and late-bid diagnostic", failures)


# ---------------------------------------------------------------------------
# 8. determinism

def test_criterion_08_byte_identical_reruns():
    failures: list[str] = []
    first = run_scenario(default_config())
    second = run_scenario(default_config())

    first_bytes = bytes.fromhex(first.encoded_hex())
    second_bytes = bytes.fromhex(second.encoded_hex())
    _expect(
        failures,
        hashlib.sha256(first_bytes).digest() == hashlib.sha256(second_bytes).digest(),
        "report bytes differ between identical runs",
    )
    _expect(
        failures,
        first.transcript_sha256() == second.transcript_sha256(),
        "transcript hashes differ between identical runs",
    )
    _expect(failures, first.transcript == second.transcript, "transcript lines differ")
    _verdict(8, "byte-identical reruns", failures)


# ---------------------------------------------------------------------------
# 9. crypto properties

def test_criterion_09_signature_properties():
    failures: list[str] = []
    rng = random.Random(9)
    pool = [derive_identity(f"crypto prop {i}") for i in range(40)]

    for case in range(10_000):
        identity = pool[case % len(pool)]
        digest = rng.randbytes(32)
        signature = identity.sign_digest(digest)
        kind = case % 3
        if kind == 0:
            if not verify_digest(identity.address, digest, signature):
                failures.append(f"case {case}: valid signature rejected")
        elif kind == 1:
            other = pool[(case + 1 + rng.randrange(len(pool) - 1)) % len(pool)]
            if verify_digest(other.address, digest, signature):
                failures.append(f"case {case}: wrong key accepted")
        else:
            if rng.random() < 0.5:
                flipped = bytearray(signature.data)
                flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
                ok = verify_digest(identity.address, digest, bytes(flipped))
            else:
                flipped = bytearray(digest)
                flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
                ok = verify_digest(identity.address, bytes(flipped), signature)
            if ok:
                failures.append(f"case {case}: bit flip accepted")
        if failures:
            break
    _verdict(9, "10,000-case signature property suite", failures)


# ---------------------------------------------------------------------------
# 10. service parity

def test_criterion_10_service_parity():
    failures: list[str] = []
    config = default_config()
    in_process = run_scenario(config)

    ledger = Ledger()
    registry = Registry(ttl=config.registry_ttl, fee=fet(config.registration_fee_fet))
    registry_handle = serve_registry(registry, ledger, FixtureDnsResolver())
    mailbox_handle = serve_mailbox(MailboxStore())
    try:
        with RegistryClient(registry_handle.base_url) as registry_client, MailboxClient(
            mailbox_handle.base_url
        ) as mailbox_client:
            behind_services = run_scenario(
                config, registry=registry_client, mailbox=mailbox_client, ledger=ledger
            )
    finally:
        registry_handle.close()
        mailbox_handle.close()

    _expect(failures, behind_services.status == "ok", f"status {behind_services.status!r}")
    _expect(
        failures,
        behind_services.encoded_hex() == in_process.encoded_hex(),
        "reports differ between in-process and service runs",
    )
    _expect(
        failures,
        behind_services.transcript == in_process.transcript,
        "transcripts differ between in-process and service runs",
    )
    _verdict(10, "service parity", failures)
