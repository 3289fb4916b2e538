"""The benchmark's workloads: per-order config generators, per-order output
checks, and the service pair the `services` workload talks to.

An order is one `run_scenario` call from a config to a ScenarioReport. Each
order gets its own world seed, derived from the workload seed, so no two
orders of a run share an input.
"""

from __future__ import annotations

import hashlib
import random
import threading

from agentmesh import cli, scenario, services
from agentmesh.config import CourierSpec, PresenceWindow, default_config, with_overrides
from agentmesh.ledger import Ledger, fet
from agentmesh.mailbox import MailboxStore
from agentmesh.registry import FixtureDnsResolver, Registry

FORGED_BIDS = 250
FLEET_SIZE = 100

# With latency 1..2 the call for bids leaves the logistics agent at tick 7
# at the earliest and tick 14 at the latest, so it lands on ticks 8..16.
# Going offline at tick 7 and back at tick 17 parks every call for bids in
# the mailbox; a 14-tick bid window then still takes the reconnected
# courier's bid (sent at tick 17, landing by tick 19 <= 7 + 14). The
# per-order checks catch it if the program's tick arithmetic ever moves.
OFFLINE_TICK = 7
ONLINE_TICK = 17
BID_WINDOW_TICKS = 14

REVIEW_POOL = (
    "Excellent service, very professional and careful with fragile parcels.",
    "Highly recommended, always punctual and reliable.",
    "Great couriers, fast and friendly.",
    "Slow on long runs but friendly riders.",
    "Fast delivery but the parcel arrived damaged.",
    "Good speed, poor handling of fragile items.",
    "Late twice, rude staff, parcel damaged.",
    "Reliable and careful, would book again.",
)


def order_seed(workload_seed: int, index: int) -> int:
    """World seed of order `index` (the warm-up order is index -1)."""
    digest = hashlib.sha256(f"agentmesh-bench:{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def forged_bids_config(seed: int):
    return cli.attack_config(FORGED_BIDS, seed)


def fleet_config(seed: int):
    """FLEET_SIZE seeded couriers serving cambridge; a quarter of them are
    offline across the call for bids and reconnect in time to bid."""
    rng = random.Random(seed)
    couriers = tuple(
        CourierSpec(
            f"FleetCourier{i:03d}",
            f"fleet courier seed {seed} {i}",
            rng.randint(10, 60),
            rng.randint(60, 230),
            "cambridge",
        )
        for i in range(FLEET_SIZE)
    )
    reviews = tuple(
        (c.name, rng.choice(REVIEW_POOL)) for c in couriers for _ in range(rng.randint(0, 3))
    )
    offline = tuple(
        PresenceWindow(c.name, OFFLINE_TICK, ONLINE_TICK)
        for c in rng.sample(couriers, FLEET_SIZE // 4)
    )
    return with_overrides(
        default_config(),
        random_seed=seed,
        couriers=couriers,
        reviews=reviews,
        offline=offline,
        bid_window_ticks=BID_WINDOW_TICKS,
    )


def services_config(seed: int):
    """The demo cast with one courier offline across the call for bids."""
    return with_overrides(
        default_config(),
        random_seed=seed,
        offline=(PresenceWindow("CamBikeExpress", OFFLINE_TICK, ONLINE_TICK),),
        bid_window_ticks=BID_WINDOW_TICKS,
    )


def order_digest(report) -> str:
    """sha256 over the report's canonical bytes and its transcript."""
    h = hashlib.sha256(report.encoded_hex().encode())
    for line in report.transcript:
        h.update(b"\n" + line.encode())
    return h.hexdigest()


def _count(report, needle: str) -> int:
    return sum(needle in line for line in report.transcript)


def check_common(report) -> list[str]:
    problems = []
    if report.status != "ok":
        problems.append(f"status {report.status!r} ({report.failure_cause})")
    if not report.conserved:
        problems.append("ledger not conserved")
    return problems


class ServicePair:
    """A registry and a mailbox served over HTTP on free local ports, with
    the clients and shared ledger an order runs against."""

    def __init__(self, config) -> None:
        self.ledger = Ledger()
        registry = Registry(ttl=config.registry_ttl, fee=fet(config.registration_fee_fet))
        self.registry_handle = services.serve_registry(registry, self.ledger, FixtureDnsResolver())
        self.mailbox_handle = services.serve_mailbox(MailboxStore())
        self.registry = services.RegistryClient(self.registry_handle.base_url)
        self.mailbox = services.MailboxClient(self.mailbox_handle.base_url)

    def run(self, config):
        return scenario.run_scenario(
            config, registry=self.registry, mailbox=self.mailbox, ledger=self.ledger
        )

    def close_in_background(self) -> threading.Thread:
        """ServiceHandle.close() waits up to the 0.5 s serve_forever poll;
        doing it on a side thread keeps that wait out of the order loop.
        The caller joins the returned thread before exiting."""
        def close() -> None:
            self.registry_handle.close()
            self.mailbox_handle.close()

        thread = threading.Thread(target=close, name="bench-service-close")
        thread.start()
        return thread


class Workload:
    """How one workload makes, runs and checks an order. The hooks around
    `run` stay outside the order's timing."""

    name = ""
    # HTTP round trips in the machine-speed reference (see machine.py)
    reference_round_trips = 0

    def config(self, seed: int):
        raise NotImplementedError

    def setup(self, first_seed: int) -> None:
        """Per-run preparation beyond the warm-up order."""

    def prepare(self, config) -> None:
        """Called before each order."""

    def run(self, config):
        return scenario.run_scenario(config)

    def release(self) -> None:
        """Called after each order."""

    def check(self, report) -> list[str]:
        return check_common(report)

    def post_check(self, config, digest: str) -> list[str]:
        """Checks that run after the timed loop, given an order's config and
        the `order_digest` of its report."""
        return []

    def finish(self) -> None:
        """Release what the workload holds; called once after the last order."""


class ForgedBids(Workload):
    """Five honest couriers plus two saboteurs sending FORGED_BIDS forged
    bids: per-envelope open, verify and bid checks are most of an order."""

    name = "forged_bids"

    def __init__(self) -> None:
        self.honest_winner = ""

    def config(self, seed: int):
        return forged_bids_config(seed)

    def setup(self, first_seed: int) -> None:
        self.honest_winner = scenario.run_scenario(cli.attack_config(0, first_seed)).winner

    def check(self, report) -> list[str]:
        problems = check_common(report)
        rejected = _count(report, "bid_rejected_TamperedPayload") + _count(
            report, "bid_rejected_BadSignature"
        )
        if rejected != FORGED_BIDS:
            problems.append(f"{rejected} forged bids rejected, want {FORGED_BIDS}")
        if report.winner != self.honest_winner:
            problems.append(f"winner {report.winner!r}, zero-forgery winner {self.honest_winner!r}")
        return problems


class Fleet(Workload):
    """FLEET_SIZE seeded couriers, a quarter mailboxed across the call for
    bids: per-agent identity, registration, schema lookup and selection."""

    name = "fleet"

    def config(self, seed: int):
        return fleet_config(seed)

    def check(self, report) -> list[str]:
        problems = check_common(report)
        if _count(report, "|mailboxed") == 0:
            problems.append("no call for bids was mailboxed")
        if _count(report, "late_bid_rejected"):
            problems.append("a reconnected courier's bid arrived late")
        return problems


class Services(Workload):
    """The demo cast behind the HTTP registry and mailbox. Each order gets a
    fresh service pair, because the fixed-seed cast cannot register twice."""

    name = "services"
    # about 36 of an order's 59 ms are ~33 RPCs; six round trips give the
    # reference the same share next to its 4.2 ms of compute
    reference_round_trips = 6

    def __init__(self) -> None:
        self.pair: ServicePair | None = None
        self.closers: list[threading.Thread] = []

    def config(self, seed: int):
        return services_config(seed)

    def prepare(self, config) -> None:
        self.pair = ServicePair(config)

    def run(self, config):
        return self.pair.run(config)

    def release(self) -> None:
        if self.pair is not None:
            self.closers.append(self.pair.close_in_background())
            self.pair = None

    def post_check(self, config, digest: str) -> list[str]:
        if order_digest(scenario.run_scenario(config)) != digest:
            return ["report or transcript differs from the in-process run of the same config"]
        return []

    def finish(self) -> None:
        self.release()
        for thread in self.closers:
            thread.join()
        self.closers.clear()


WORKLOADS = {cls.name: cls for cls in (ForgedBids, Fleet, Services)}
