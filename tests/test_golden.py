"""Golden byte pins: transcript, report and journal sha256 for fixed configs.

Criterion 8 only compares two runs of the same build, so a change that
moved the bytes the same way in both runs would pass it. These values were
computed once and pin the bytes themselves. A change that alters them on
purpose is a format bump: update docs/wire.md and these pins together.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from fractions import Fraction

import pytest

from agentmesh import identity, registry
from agentmesh import scenario as scenario_module
from agentmesh.cli import attack_config
from agentmesh.config import CourierSpec, PresenceWindow, default_config, with_overrides
from agentmesh.ledger import journal_lines
from agentmesh.scenario import build_scenario


def _sha(text_or_bytes) -> str:
    data = text_or_bytes if isinstance(text_or_bytes, bytes) else text_or_bytes.encode()
    return hashlib.sha256(data).hexdigest()


CONFIGS = {
    "demo": default_config,
    "attack_50": lambda: attack_config(50),
    "offline_window": lambda: with_overrides(
        default_config(), offline=(PresenceWindow("CamBikeExpress", 7, 17),)
    ),
    "lossy_network": lambda: with_overrides(
        default_config(), drop_probability=Fraction(1, 20), random_seed=17
    ),
    # both end with the logistics agent sending RejectBid to every bidder
    "delivery_declined": lambda: with_overrides(default_config(), approve_delivery=False),
    "underfunded_user": lambda: with_overrides(default_config(), user_balance_fet=30),
    # the CallForBids and the RejectBid each take two envelopes, and 15
    # couriers get their copy of the first through the mailbox
    "fleet_60_mailboxed": lambda: with_overrides(
        fleet_style(60),
        offline=tuple(PresenceWindow(f"Courier{i:03d}", 7, 17) for i in range(0, 60, 4)),
        bid_window_ticks=14,
    ),
}

# name -> (report status, transcript sha256, report sha256, journal sha256)
GOLDEN = {
    'attack_50': (
        'ok',
        'afc133a78c7c7a4f7a99a1308aed485f1a7056cfe4c8df802ccdc2f24dcfd155',
        '696a2cc6d7914fa4d8f162e4138b52c141ad3738c8f19558edc5b7f0df58c2b7',
        'a23f85bce579d492a5ec12f7ab08feeb0a3cfdc7918e47c42d105a56776fd079',
    ),
    'delivery_declined': (
        'failed',
        'cf30595845dfff046f36589048ce9519d74ca74669f58ac22574964a7b8191a6',
        '7bd84706dd326a9feff3912594967d6db8aa4b164328abb27231d183565398b9',
        'c4aac3e9ce2a4a93b761e3d6126625726d7ad337b3874efdef802a50855ca956',
    ),
    'demo': (
        'ok',
        '18d4cf2b72f7a86e4d31c8fb7ee32a8d26fc8e7cb2e1545985f0bbf36eef696d',
        '565d62c804db8496938eb36a0f619a991d477da1382ae7cd814702b0e49bf1b4',
        '742d09b02284db06bc452c66d0dc858530242c2dd08d47f9d5150280d26d8eb0',
    ),
    'fleet_60_mailboxed': (
        'ok',
        '76e42bb9f821cc9639fa116a4b5794fdb873e01068221e9df45779096191b037',
        '5d77a9d61183e54c29282cb2c7cf5e17c821eb93549a45ccfc356e62d04d5484',
        '54deb0c17c087f2e359385ff3eaaef1dcad2ec4014d69579fbdf0994039957d0',
    ),
    'lossy_network': (
        'ok',
        '84c51380384be178e1b2fa7b809a710fad19101bf0faa2a20d02040b921028b7',
        '56c367e17c0b85519109cebf6ee5a2fdf841582c08740b1693d452b2d765f578',
        '2f5b5e45431bf13fda8335dc084568950a30819da1971538da2bc75c86894161',
    ),
    'offline_window': (
        'ok',
        'dfe3009b9824c63f0e9ebc309086741497a0454a95e8c680b16e5b5a9d64886d',
        '45f6b5fdb90d40a9bef7baa8582562044091c46e53712b52c02bc7df7b66eb1a',
        'a93f6605aa8a80ca1d2146c13bc6290ed837aa0db055d264c9af80d3d0329fd9',
    ),
    'underfunded_user': (
        'failed',
        '8f505ab607d4839f5d6e53c922ffa32cae33d1ed1a3a3d83e8b2e68226662e89',
        'f63dde5f1a1135b9198ceebdf3a19e5f5237bc50027e332dfd1003dd7b816e7e',
        '5a5c786d4114b38417a901c18a8177d229db42c08554df7ec5e5ed258664f3bb',
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_bytes(name):
    scenario = build_scenario(CONFIGS[name]())
    report = scenario.place_order()
    got = (
        report.status,
        _sha("\n".join(report.transcript)),
        _sha(bytes.fromhex(report.encoded_hex())),
        _sha("\n".join(journal_lines(scenario.world.ledger.journal))),
    )
    assert got == GOLDEN[name]


@pytest.mark.usefixtures("cryptography_backend")
def test_golden_demo_on_the_cryptography_backend():
    """The fallback Ed25519 backend makes the same bytes as libsodium."""
    test_golden_bytes("demo")


# name -> (verify_digest calls, of which False, sign_digest calls,
# sign_digest_with_wallet calls) over build and run. A speed-up that skips a
# signature check, or signs less, moves these.
SIGNATURE_CALLS = {
    "attack_50": (108, 24, 134, 0),
    "demo": (26, 0, 26, 0),
}


def count_signatures(monkeypatch, config) -> tuple[int, int, int, int]:
    """SIGNATURE_CALLS' four counts over building `config`'s world and
    running its first order, which must end ok."""
    counts = {"verify": 0, "verify_false": 0, "sign": 0, "sign_wallet": 0}
    verify = identity.verify_digest
    lock = threading.Lock()  # a tick's verifies may run on the verify pool

    def counted_verify(*args, **kwargs):
        ok = verify(*args, **kwargs)
        with lock:
            counts["verify"] += 1
            counts["verify_false"] += not ok
        return ok

    def counting(method, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return method(*args, **kwargs)

        return counted

    # every module that bound verify_digest by name gets the counter
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("agentmesh"):
            if getattr(module, "verify_digest", None) is verify:
                monkeypatch.setattr(module, "verify_digest", counted_verify)
    for attr, key in (("sign_digest", "sign"), ("sign_digest_with_wallet", "sign_wallet")):
        method = getattr(identity.AgentIdentity, attr)
        monkeypatch.setattr(identity.AgentIdentity, attr, counting(method, key))
    try:
        scenario = build_scenario(config)
        assert scenario.place_order().status == "ok"
    finally:
        monkeypatch.undo()
    return counts["verify"], counts["verify_false"], counts["sign"], counts["sign_wallet"]


@pytest.mark.parametrize("name", sorted(SIGNATURE_CALLS))
def test_signature_checks_are_pinned(name, monkeypatch):
    assert count_signatures(monkeypatch, CONFIGS[name]()) == SIGNATURE_CALLS[name]


# name -> (Ed25519 key pairs derived, of them in a batch handed to
# identity.work_ahead) over build and run. Each agent's two key pairs are
# derived once, in the cast's one batch; only the saboteurs' decoy keys come
# one by one. A change that derives an identity twice, or drops the batch,
# moves these.
KEYPAIRS = {
    "attack_50": (26, 22),
    "demo": (14, 14),
}


@pytest.mark.parametrize("name", sorted(KEYPAIRS))
def test_key_pairs_are_pinned(name, monkeypatch):
    counts, lock = {"keypair": 0, "batched": 0}, threading.Lock()
    keypair, work_ahead = identity._backend.keypair, identity.work_ahead

    def counted_keypair(seed):
        with lock:  # a batch's key pairs may run on the verify pool
            counts["keypair"] += 1
        return keypair(seed)

    def counted_work_ahead(jobs):
        def counted():  # the hand-off takes any iterable, so count as taken
            for job in jobs:
                counts["batched"] += job._call is counted_keypair
                yield job

        return work_ahead(counted())

    monkeypatch.setattr(identity._backend, "keypair", counted_keypair)
    monkeypatch.setattr(identity, "work_ahead", counted_work_ahead)
    scenario = build_scenario(CONFIGS[name]())
    assert scenario.place_order().status == "ok"
    assert (counts["keypair"], counts["batched"]) == KEYPAIRS[name]


# name -> registration_signing_digest calls over build and run: one where
# each agent signs its registration, one where the registry checks it.
REGISTRATION_DIGESTS = {
    "attack_50": 20,
    "demo": 12,
}


@pytest.mark.parametrize("name", sorted(REGISTRATION_DIGESTS))
def test_registration_digests_are_pinned(name, monkeypatch):
    calls = [0]
    digest = registry.registration_signing_digest

    def counted_digest(*args):
        calls[0] += 1
        return digest(*args)

    for module in (registry, scenario_module):
        monkeypatch.setattr(module, "registration_signing_digest", counted_digest)
    scenario = build_scenario(CONFIGS[name]())
    assert scenario.place_order().status == "ok"
    assert calls[0] == REGISTRATION_DIGESTS[name]


def fleet_style(size: int, phrase: str = "growth courier"):
    """The demo order put to `size` online couriers that all serve the
    pickup, each quoting a feasible price and ETA; courier i's seed phrase
    is `phrase` and i."""
    couriers = tuple(
        CourierSpec(f"Courier{i:03d}", f"{phrase} {i}", 10 + i % 40, 60 + 7 * i % 120,
                    "cambridge")
        for i in range(size)
    )
    return with_overrides(default_config(), couriers=couriers, reviews=())


def test_each_added_courier_costs_three_signatures_and_three_checks(monkeypatch):
    """Its registration, its bid body and its bid envelope: the call for
    bids and the rejection are each one envelope however many couriers
    they name, signed once and checked once."""
    small = count_signatures(monkeypatch, fleet_style(20))
    large = count_signatures(monkeypatch, fleet_style(40))
    verifies, rejected, signs, wallet_signs = (b - a for a, b in zip(small, large))
    assert (signs, verifies, rejected, wallet_signs) == (3 * 20, 3 * 20, 0, 0)


def test_a_world_makes_the_same_bytes_and_checks_with_any_number_of_pool_threads(monkeypatch):
    """Key pairs, registration checks and envelope checks go to the verify
    pool; how many threads it has moves no byte and no signature count."""
    config = fleet_style(40)
    runs = []
    for workers in (0, 1, 4):
        pool = identity.VerifyPool(workers)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(identity, "_pool", pool)
                scenario = build_scenario(config)
                report = scenario.place_order()
                runs.append((
                    report.status,
                    report.encoded_hex(),
                    report.transcript,
                    journal_lines(scenario.world.ledger.journal),
                    count_signatures(monkeypatch, config),
                ))
        finally:
            pool.close()
    assert runs[0][0] == "ok"
    assert runs[0] == runs[1] == runs[2]
