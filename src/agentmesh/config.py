"""Scenario configuration: a small line-oriented text format plus the demo fixture.

Scalars are `key = value` lines; three optional pipe-delimited sections
([couriers], [reviews], [offline]) override the fixture tables. Blank
lines and `#` comments are allowed anywhere. docs/config.md is the key
reference; parse_config(render_config(cfg)) round-trips.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace
from datetime import datetime
from fractions import Fraction
from typing import Any, Callable

from .contractnet import ContractNetError, SelectionWeights, local_time
from .ledger import UFET_PER_FET
from .runtime import NetworkModel, RuntimeError_
from .wire import I64_MAX

# the largest whole-FET amount whose micro-FET value fits the wire's i64
MAX_FET = I64_MAX // UFET_PER_FET

_AMOUNT_KEYS = (
    "user_balance_fet",
    "agent_float_fet",
    "registration_fee_fet",
    "packaging_quote_fet",
    "maps_fee_fet",
)


class ConfigError(Exception):
    """Unknown key, malformed row, or invariant violation."""


@dataclass(frozen=True)
class CourierSpec:
    """One courier service: its identity seed and quoting strategy."""

    name: str
    seed_phrase: str
    price_fet: int  # quoted price, whole FET
    eta_minutes: int  # quoted door-to-door time
    service_area: str  # lowercase token matched against the pickup location
    domain: str = ""  # optional ANAME domain, empty = none

    def __post_init__(self) -> None:
        if not self.name or not self.seed_phrase:
            raise ConfigError("courier rows need a name and a seed phrase")
        if self.price_fet <= 0 or self.eta_minutes <= 0:
            raise ConfigError(f"courier {self.name}: price and ETA must be positive")
        if self.price_fet > MAX_FET:
            raise ConfigError(f"courier {self.name}: price {self.price_fet} FET over {MAX_FET}")


@dataclass(frozen=True)
class PresenceWindow:
    """Takes one agent offline at a tick and back online at a later tick."""

    agent: str
    offline_tick: int
    online_tick: int

    def __post_init__(self) -> None:
        if not (1 <= self.offline_tick < self.online_tick):
            raise ConfigError(
                f"presence window for {self.agent}: need 1 <= offline < online, "
                f"got {self.offline_tick}..{self.online_tick}"
            )


DEFAULT_REQUEST = (
    "I need to send a package from my office in Cambridge to Liverpool Street, "
    "London. It's a fragile item, so it needs careful handling. I need it "
    "delivered by 5 PM today."
)

DEFAULT_COURIERS = (
    CourierSpec(
        "SpeedyVanCouriers", "a_very_secret_seed_phrase", 25, 210,
        "cambridge", "speedyvan.example.agent",
    ),
    CourierSpec(
        "CamBikeExpress", "cam bike express fleet seed", 12, 270,
        "cambridge", "cambike.example.agent",
    ),
    CourierSpec(
        "DroneDashLtd", "drone dash ltd fleet seed", 40, 90,
        "cambridge", "dronedash.example.agent",
    ),
)

# Review fixture: the van service is uniformly praised, the drone service is
# mixed. With the default weights that is exactly what makes the slower,
# cheaper van beat the fast expensive drone.
DEFAULT_REVIEWS = (
    ("SpeedyVanCouriers", "Excellent service, very professional and careful with fragile parcels."),
    ("SpeedyVanCouriers", "Highly recommended, always punctual and reliable."),
    ("SpeedyVanCouriers", "Great couriers, fast and friendly."),
    ("CamBikeExpress", "Slow on long runs but friendly riders."),
    ("DroneDashLtd", "Fast delivery but the parcel arrived damaged."),
    ("DroneDashLtd", "Good speed, poor handling of fragile items."),
)


@dataclass(frozen=True)
class ScenarioConfig:
    random_seed: int = 42
    wall_clock_start: str = "2026-03-02T13:00:00"
    latency_min: int = 1
    latency_max: int = 2
    drop_probability: Fraction = Fraction(0)
    weight_price: Fraction = Fraction(2, 5)
    weight_speed: Fraction = Fraction(3, 10)
    weight_reputation: Fraction = Fraction(3, 10)
    user_balance_fet: int = 100
    agent_float_fet: int = 10  # genesis balance of every service agent wallet
    registration_fee_fet: int = 1
    registry_ttl: int = 500
    packaging_quote_fet: int = 7
    maps_fee_fet: int = 1
    traffic_delay_minutes: int = 0
    bid_window_ticks: int = 6
    delivery_ticks: int = 3  # ticks between AcceptBid and the courier's confirmation
    approval_mode: str = "scripted"  # scripted | interactive
    approve_packaging: bool = True
    approve_delivery: bool = True
    feedback_stars: int = 5  # 0 skips the feedback step
    forged_bids: int = 0  # >0 registers saboteur bidders flooding forged bids
    request: str = DEFAULT_REQUEST
    couriers: tuple[CourierSpec, ...] = DEFAULT_COURIERS
    reviews: tuple[tuple[str, str], ...] = DEFAULT_REVIEWS
    offline: tuple[PresenceWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.approval_mode not in ("scripted", "interactive"):
            raise ConfigError(f"approval_mode must be scripted or interactive, got {self.approval_mode!r}")
        if not (0 <= self.feedback_stars <= 5):
            raise ConfigError("feedback_stars must be 0 (skip) or 1..5")
        if self.forged_bids < 0:
            raise ConfigError("forged_bids must be >= 0")
        if self.bid_window_ticks < 2:
            raise ConfigError("bid_window_ticks must be >= 2")
        if self.delivery_ticks < 1:
            raise ConfigError("delivery_ticks must be >= 1")
        if min(self.user_balance_fet, self.agent_float_fet) < 0:
            raise ConfigError("balances cannot be negative")
        if min(self.registration_fee_fet, self.packaging_quote_fet, self.maps_fee_fet) < 0:
            raise ConfigError("fees and quotes cannot be negative")
        for key in _AMOUNT_KEYS:
            if getattr(self, key) > MAX_FET:
                raise ConfigError(f"{key} {getattr(self, key)} FET over {MAX_FET}")
        # every service agent gets a float: logistics, packaging, maps, each
        # courier and each of up to two bid forgers; the supply goes on record
        agents = 3 + len(self.couriers) + min(self.forged_bids, 2)
        genesis = self.user_balance_fet + agents * self.agent_float_fet
        if genesis > MAX_FET:
            raise ConfigError(
                f"genesis supply {genesis} FET (user balance plus {agents} agent floats) "
                f"over {MAX_FET}"
            )
        if self.registry_ttl < 1:
            raise ConfigError("registry_ttl must be >= 1")
        if self.traffic_delay_minutes < 0:
            raise ConfigError("traffic_delay_minutes cannot be negative")
        try:
            self.wall_clock()
        except ValueError as exc:
            raise ConfigError(f"wall_clock_start: {exc}") from exc
        if not self.couriers:
            raise ConfigError("at least one courier is required")
        names = [c.name for c in self.couriers]
        if len(set(names)) != len(names):
            raise ConfigError("courier names must be unique")
        known = set(names)
        for agent, _ in self.reviews:
            if agent not in known:
                raise ConfigError(f"review references unknown courier {agent!r}")
        for window in self.offline:
            if window.agent not in known:
                raise ConfigError(f"offline window references unknown courier {window.agent!r}")
        try:
            self.weights()
            self.network()
        except (ContractNetError, RuntimeError_) as exc:
            raise ConfigError(str(exc)) from exc

    def weights(self) -> SelectionWeights:
        return SelectionWeights(self.weight_price, self.weight_speed, self.weight_reputation)

    def network(self) -> NetworkModel:
        return NetworkModel(self.latency_min, self.latency_max, self.drop_probability)

    def wall_clock(self) -> datetime:
        return local_time(self.wall_clock_start)


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("yes", "true", "on", "1"):
        return True
    if lowered in ("no", "false", "off", "0"):
        return False
    raise ConfigError(f"{key}: expected yes/no, got {value!r}")


def _parse_scalar(key: str, value: str) -> object:
    kind = _SCALAR_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    if kind is bool:
        return _parse_bool(key, value)
    try:
        return kind(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: bad value {value!r} ({exc})") from exc


def _courier_row(line: str, line_no: int) -> CourierSpec:
    cells = [c.strip() for c in line.split("|")]
    if len(cells) not in (5, 6):
        raise ConfigError(
            f"line {line_no}: courier rows need 5 or 6 cells "
            "(name | seed | price_fet | eta_minutes | service_area | domain?)"
        )
    try:
        price, eta = int(cells[2]), int(cells[3])
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: {exc}") from exc
    domain = cells[5] if len(cells) == 6 else ""
    return CourierSpec(cells[0], cells[1], price, eta, cells[4], domain)


def _review_row(line: str, line_no: int) -> tuple[str, str]:
    cells = [c.strip() for c in line.split("|", 1)]  # the text keeps its pipes
    if len(cells) != 2 or not cells[1]:
        raise ConfigError(f"line {line_no}: review rows are agent | text")
    return cells[0], cells[1]


def _offline_row(line: str, line_no: int) -> PresenceWindow:
    cells = [c.strip() for c in line.split("|")]
    if len(cells) != 3:
        raise ConfigError(f"line {line_no}: offline rows are agent | offline_tick | online_tick")
    try:
        return PresenceWindow(cells[0], int(cells[1]), int(cells[2]))
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: {exc}") from exc


# Each table section, in field order: the parser of one row, the cells
# render_config writes for one row, and the comment it puts under the header.
_SECTIONS: dict[str, tuple[Callable[[str, int], object], Callable[[Any], tuple], str]] = {
    "couriers": (
        _courier_row,
        lambda c: astuple(c)[: 6 if c.domain else 5],
        "# name | seed_phrase | price_fet | eta_minutes | service_area | domain",
    ),
    "reviews": (_review_row, tuple, ""),
    "offline": (_offline_row, astuple, ""),
}

# every other field is a scalar key, parsed as the type of its default
_SCALAR_TYPES = {f.name: type(f.default) for f in fields(ScenarioConfig) if f.name not in _SECTIONS}


def parse_config(text: str) -> ScenarioConfig:
    """Parse config text; keys not mentioned keep their demo defaults."""
    scalars: dict[str, object] = {}
    tables: dict[str, list] = {}  # the sections declared, in their rows
    section: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            tables.setdefault(section, [])
            continue
        if section is None:
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            scalars[key] = _parse_scalar(key, value)
            continue
        tables[section].append(_SECTIONS[section][0](line, line_no))
    # a declared section replaces the default table even when left empty
    scalars.update((name, tuple(rows)) for name, rows in tables.items())
    try:
        return ScenarioConfig(**scalars)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_config(text)


def render_config(config: ScenarioConfig) -> str:
    """Emit config text that parses back to an equal ScenarioConfig."""
    out = ["# agentmesh scenario config"]
    for key in _SCALAR_TYPES:
        value = getattr(config, key)
        out.append(f"{key} = {'yes' if value is True else 'no' if value is False else value}")
    for name, (_, cells, comment) in _SECTIONS.items():
        out += ["", f"[{name}]"] + ([comment] if comment else [])
        out.extend(" | ".join(map(str, cells(row))) for row in getattr(config, name))
    return "\n".join(out) + "\n"


def default_config() -> ScenarioConfig:
    return ScenarioConfig()


def with_overrides(config: ScenarioConfig, **changes: object) -> ScenarioConfig:
    """replace() wrapper that reruns the invariant checks."""
    try:
        return replace(config, **changes)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
