"""Golden byte pins: transcript, report and journal sha256 for fixed configs.

Criterion 8 only compares two runs of the same build, so a change that
moved the bytes the same way in both runs would pass it. These values were
computed once and pin the bytes themselves. A change that alters them on
purpose is a format bump: update docs/wire.md and these pins together.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction

import pytest

from agentmesh import identity
from agentmesh.cli import attack_config
from agentmesh.config import PresenceWindow, default_config, with_overrides
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
    "attack_50": (117, 24, 143, 0),
    "demo": (29, 0, 29, 0),
}


@pytest.mark.parametrize("name", sorted(SIGNATURE_CALLS))
def test_signature_checks_are_pinned(name, monkeypatch):
    counts = {"verify": 0, "verify_false": 0, "sign": 0, "sign_wallet": 0}
    verify = identity.verify_digest

    def counted_verify(*args, **kwargs):
        ok = verify(*args, **kwargs)
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
    scenario = build_scenario(CONFIGS[name]())
    assert scenario.place_order().status == "ok"
    got = (counts["verify"], counts["verify_false"], counts["sign"], counts["sign_wallet"])
    assert got == SIGNATURE_CALLS[name]
