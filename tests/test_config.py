"""Scenario config: defaults, parsing, rendering, validation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from agentmesh.config import (
    ConfigError,
    CourierSpec,
    PresenceWindow,
    ScenarioConfig,
    default_config,
    load_config,
    parse_config,
    render_config,
    with_overrides,
)


def test_default_config_demo_values():
    config = default_config()
    assert config.random_seed == 42
    assert config.packaging_quote_fet == 7
    assert config.user_balance_fet == 100
    assert [c.name for c in config.couriers] == [
        "SpeedyVanCouriers",
        "CamBikeExpress",
        "DroneDashLtd",
    ]
    assert config.weight_price + config.weight_speed + config.weight_reputation == 1
    assert config.approval_mode == "scripted"
    assert config.wall_clock().hour == 13


def test_default_courier_economics():
    by_name = {c.name: c for c in default_config().couriers}
    assert by_name["SpeedyVanCouriers"].price_fet == 25
    assert by_name["SpeedyVanCouriers"].eta_minutes == 210
    assert by_name["CamBikeExpress"].price_fet == 12
    assert by_name["CamBikeExpress"].eta_minutes == 270
    assert by_name["DroneDashLtd"].price_fet == 40
    assert by_name["DroneDashLtd"].eta_minutes == 90


def test_render_parse_round_trip():
    config = default_config()
    assert parse_config(render_config(config)) == config


def test_round_trip_with_overrides():
    config = with_overrides(
        default_config(),
        drop_probability=Fraction(1, 10),
        approve_delivery=False,
        forged_bids=7,
        offline=(PresenceWindow("DroneDashLtd", 2, 9),),
    )
    again = parse_config(render_config(config))
    assert again == config
    assert again.drop_probability == Fraction(1, 10)
    assert again.approve_delivery is False


def test_load_config(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(render_config(default_config()), encoding="utf-8")
    assert load_config(str(path)) == default_config()


def test_partial_config_keeps_defaults():
    config = parse_config("random_seed = 7\npackaging_quote_fet = 9\n")
    assert config.random_seed == 7
    assert config.packaging_quote_fet == 9
    assert config.user_balance_fet == default_config().user_balance_fet
    assert config.couriers == default_config().couriers


def test_declared_empty_section_replaces_default_table():
    config = parse_config("[reviews]\n")
    assert config.reviews == ()
    assert config.couriers == default_config().couriers


def test_courier_row_with_and_without_domain():
    text = (
        "[couriers]\n"
        "A | seed a | 10 | 60 | cambridge | a.example.agent\n"
        "B | seed b | 11 | 61 | cambridge\n"
        "[reviews]\n"
        "[offline]\n"
    )
    config = parse_config(text)
    assert config.couriers[0].domain == "a.example.agent"
    assert config.couriers[1].domain == ""


def test_comments_and_blank_lines_ignored():
    config = parse_config("# leading comment\n\nrandom_seed = 3\n# trailing\n")
    assert config.random_seed == 3


@pytest.mark.parametrize(
    "text",
    [
        "not a key value line\n",
        "unknown_key = 5\n",
        "random_seed = nan\n",
        "drop_probability = huge\n",
        "approve_packaging = perhaps\n",
        "[weird]\n",
        "[couriers]\nonly | three | cells\n",
        "[couriers]\nA | seed | -3 | 60 | cambridge\n",
        "[reviews]\nno-pipe-row\n",
        "[offline]\nDroneDashLtd | 5\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize("clock", ["x", "2026-03-02T13:00:00+00:00"], ids=["garbage", "utc_offset"])
def test_bad_wall_clock_is_a_config_error(clock):
    # an offset-carrying clock would later be compared with local deadlines
    with pytest.raises(ConfigError, match="wall_clock_start"):
        parse_config(f"wall_clock_start = {clock}\n")


@pytest.mark.parametrize(
    "text",
    ["[couriers]\nA | seed | ten | 60 | cambridge\n", "[offline]\nDroneDashLtd | five | 9\n"],
    ids=["courier", "offline"],
)
def test_a_row_cell_that_is_not_an_integer_names_its_line(text):
    with pytest.raises(ConfigError, match="line 2: invalid literal for int"):
        parse_config(text)


def test_an_override_of_no_field_is_refused():
    with pytest.raises(ConfigError, match="no_such_key"):
        with_overrides(default_config(), no_such_key=1)


def test_error_messages_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("random_seed = 1\n???\n")


def test_validation_duplicate_courier_names():
    dup = (
        CourierSpec("Same", "seed one", 10, 60, "cambridge"),
        CourierSpec("Same", "seed two", 11, 61, "cambridge"),
    )
    with pytest.raises(ConfigError):
        with_overrides(default_config(), couriers=dup)


def test_validation_review_for_unknown_courier():
    with pytest.raises(ConfigError):
        with_overrides(default_config(), reviews=(("Nobody", "fine work"),))


def test_validation_offline_for_unknown_courier():
    with pytest.raises(ConfigError):
        with_overrides(default_config(), offline=(PresenceWindow("Nobody", 1, 5),))


def test_validation_weights_must_sum_to_one():
    with pytest.raises(ConfigError):
        with_overrides(default_config(), weight_price=Fraction(9, 10))


def test_validation_ranges():
    with pytest.raises(ConfigError):
        with_overrides(default_config(), user_balance_fet=-1)
    with pytest.raises(ConfigError):
        with_overrides(default_config(), latency_min=0)
    with pytest.raises(ConfigError):
        with_overrides(default_config(), latency_max=0)
    with pytest.raises(ConfigError):
        with_overrides(default_config(), drop_probability=Fraction(3, 2))
    with pytest.raises(ConfigError):
        with_overrides(default_config(), feedback_stars=9)
    with pytest.raises(ConfigError):
        with_overrides(default_config(), approval_mode="guess")


def test_presence_window_validation():
    with pytest.raises(ConfigError):
        PresenceWindow("X", 5, 5)
    with pytest.raises(ConfigError):
        PresenceWindow("X", 0, 5)


def test_courier_spec_validation():
    with pytest.raises(ConfigError):
        CourierSpec("X", "seed", 0, 60, "cambridge")
    with pytest.raises(ConfigError):
        CourierSpec("X", "seed", 10, 0, "cambridge")
    with pytest.raises(ConfigError):
        CourierSpec("", "seed", 10, 60, "cambridge")


# the largest whole-FET amount whose micro-FET value fits a signed 64-bit int
LARGEST_FET = (2**63 - 1) // 1_000_000


def test_courier_price_must_fit_i64_micro_fet():
    assert CourierSpec("X", "seed", LARGEST_FET, 60, "cambridge").price_fet == LARGEST_FET
    with pytest.raises(ConfigError, match="price"):
        CourierSpec("X", "seed", LARGEST_FET + 1, 60, "cambridge")
    with pytest.raises(ConfigError):
        parse_config("[couriers]\nX | seed | 9223372036854775808 | 60 | cambridge\n")


@pytest.mark.parametrize(
    "key",
    ["user_balance_fet", "agent_float_fet", "registration_fee_fet",
     "packaging_quote_fet", "maps_fee_fet"],
)
def test_fet_amounts_must_fit_i64_micro_fet(key):
    with pytest.raises(ConfigError, match=key):
        with_overrides(default_config(), **{key: LARGEST_FET + 1})
    with pytest.raises(ConfigError, match=key):
        parse_config(f"{key} = 99999999999999999999\n")


def test_genesis_supply_must_fit_i64_micro_fet():
    # the demo mints one float for each of 6 service agents (logistics,
    # packaging, maps, three couriers) on top of the user's balance
    config = default_config()
    largest_user = LARGEST_FET - 6 * config.agent_float_fet
    assert with_overrides(config, user_balance_fet=largest_user).user_balance_fet == largest_user
    with pytest.raises(ConfigError, match="genesis"):
        with_overrides(config, user_balance_fet=largest_user + 1)
    with pytest.raises(ConfigError, match="genesis"):
        with_overrides(config, user_balance_fet=LARGEST_FET, agent_float_fet=LARGEST_FET)
    # each of up to two bid forgers gets a float too
    with pytest.raises(ConfigError, match="genesis"):
        with_overrides(config, user_balance_fet=largest_user, forged_bids=1)


def test_config_is_frozen():
    config = default_config()
    with pytest.raises(AttributeError):
        config.random_seed = 1  # type: ignore[misc]


def test_weights_helper_matches_fields():
    config = default_config()
    weights = config.weights()
    assert weights.w_price == config.weight_price
    assert weights.w_speed == config.weight_speed
    assert weights.w_reputation == config.weight_reputation


# 1 - 10**-20 is below 1, but the float each drop draw is compared with is 1.0;
# -10**-400 is below 0, but its float is -0.0
NEAR_ONE = Fraction(10**20 - 1, 10**20)
BELOW_ZERO = Fraction(-1, 10**400)


@pytest.mark.parametrize("drop", [NEAR_ONE, BELOW_ZERO], ids=["near_one", "below_zero"])
def test_a_drop_probability_whose_float_leaves_the_range_is_refused(drop):
    with pytest.raises(ConfigError, match=r"outside \[0, 1\)"):
        parse_config(f"drop_probability = {drop}\n")
    with pytest.raises(ConfigError, match=r"outside \[0, 1\)"):
        with_overrides(default_config(), drop_probability=drop)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"bid_window_ticks": 1}, "bid_window_ticks"),
        ({"delivery_ticks": 0}, "delivery_ticks"),
        ({"packaging_quote_fet": -1}, "fees and quotes"),
        ({"maps_fee_fet": -1}, "fees and quotes"),
        ({"registration_fee_fet": -1}, "fees and quotes"),
        ({"registry_ttl": 0}, "registry_ttl"),
        ({"traffic_delay_minutes": -1}, "traffic_delay_minutes"),
        ({"couriers": ()}, "at least one courier"),
    ],
)
def test_each_scenario_invariant_is_refused(overrides, message):
    with pytest.raises(ConfigError, match=message):
        with_overrides(default_config(), **overrides)
