"""CLI surface: exit codes, artifact files, wiretool decoding, journal
replay, and the daemon argument parsing that can fail before serving."""

from __future__ import annotations

import dataclasses
import io
import os
import socket
import subprocess
import sys
import threading

import pytest

import agentmesh
from agentmesh import cli, identity
from agentmesh.cli import attack_config, mailboxd_main, main, registryd_main
from agentmesh.config import default_config, render_config, with_overrides
from agentmesh.contractnet import ACCEPT_BID, REJECT_BID
from agentmesh.identity import derive_identity
from agentmesh.scenario import build_scenario
from agentmesh.wire import (
    CHAT_PROTOCOL,
    Record,
    canonical_encode,
    make_chat_message,
    seal_envelope,
)


def run_cli(*argv: str) -> int:
    return main(list(argv))


# ---------------------------------------------------------------------------
# run

def test_run_demo_exits_zero(capsys):
    assert run_cli("run") == 0
    out = capsys.readouterr().out
    assert "SpeedyVanCouriers" in out
    assert "32 FET" in out


def test_run_writes_all_artifacts(tmp_path, capsys):
    transcript = tmp_path / "transcript.log"
    report = tmp_path / "report.txt"
    journal = tmp_path / "journal.jsonl"
    code = run_cli(
        "run",
        "--transcript", str(transcript),
        "--report", str(report),
        "--journal", str(journal),
    )
    assert code == 0
    capsys.readouterr()

    lines = transcript.read_text().splitlines()
    assert lines and all(line.count("|") >= 2 for line in lines)

    report_lines = report.read_text().splitlines()
    bytes.fromhex(report_lines[0])  # first line is the canonical record
    assert report_lines[1] == ""
    assert any("SpeedyVanCouriers" in line for line in report_lines[2:])

    assert journal.read_text().strip()


@pytest.mark.parametrize("artifact", ["--transcript", "--report", "--journal"])
def test_run_unwritable_artifact_path_exits_two(tmp_path, capsys, artifact):
    path = tmp_path / "no_such_dir" / "artifact.txt"
    assert run_cli("run", artifact, str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {path}: ")
    assert "Traceback" not in err


def test_run_custom_config_failure_exits_one(tmp_path, capsys):
    broke = with_overrides(default_config(), user_balance_fet=30)
    path = tmp_path / "broke.cfg"
    path.write_text(render_config(broke))
    assert run_cli("run", "--config", str(path)) == 1
    out = capsys.readouterr().out
    assert "InsufficientFunds" in out


def test_run_bad_config_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("couriers = what even is this\n]]\n")
    assert run_cli("run", "--config", str(path)) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "[reviews]\n[couriers]\nSpeedyVanCouriers | a_very_secret_seed_phrase | 9223372036854775808 | 210"
        " | cambridge\n",
        "user_balance_fet = 99999999999999999999\n",
        "user_balance_fet = 9223372036854\nagent_float_fet = 9223372036854\n",
    ],
    ids=["courier_price", "user_balance", "genesis_supply"],
)
def test_run_amount_beyond_i64_exits_two(tmp_path, capsys, text):
    path = tmp_path / "huge.cfg"
    path.write_text(text)
    journal = tmp_path / "journal.txt"
    assert run_cli("run", "--config", str(path), "--journal", str(journal)) == 2
    assert "config error" in capsys.readouterr().err
    assert not journal.exists()


def test_run_with_the_largest_accepted_balance_completes(tmp_path, capsys):
    largest_user = (2**63 - 1) // 1_000_000 - 6 * 10
    path = tmp_path / "rich.cfg"
    path.write_text(f"user_balance_fet = {largest_user}\n")
    report = tmp_path / "report.txt"
    journal = tmp_path / "journal.txt"
    code = run_cli("run", "--config", str(path), "--report", str(report), "--journal", str(journal))
    assert code == 0
    assert "32 FET" in capsys.readouterr().out
    assert report.read_text() and journal.read_text()


@pytest.mark.parametrize(
    "overrides",
    [
        {"traffic_delay_minutes": 2**40},
        {"wall_clock_start": "9999-12-31T23:59:00"},
    ],
    ids=["traffic_delay", "wall_clock"],
)
def test_run_with_no_arrival_inside_the_calendar_reports_it(tmp_path, capsys, overrides):
    path = tmp_path / "far.cfg"
    path.write_text(render_config(with_overrides(default_config(), **overrides)))
    assert run_cli("run", "--config", str(path)) == 1
    assert "status: failed (NoFeasibleBid)" in capsys.readouterr().out


def test_run_bad_clock_exits_two(tmp_path, capsys):
    path = tmp_path / "clock.cfg"
    path.write_text("wall_clock_start = x\n")
    assert run_cli("run", "--config", str(path)) == 2
    assert "config error" in capsys.readouterr().err


def test_run_config_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"request = caf\xff\n")
    assert run_cli("run", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "UTF-8" in err


def test_run_missing_config_exits_two(capsys):
    assert run_cli("run", "--config", "/no/such/file.cfg") == 2
    assert "config error" in capsys.readouterr().err


def test_run_seed_override_still_converges(capsys):
    assert run_cli("run", "--seed", "99") == 0
    assert "SpeedyVanCouriers" in capsys.readouterr().out


def test_run_interactive_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("y\ny\n5\n"))
    assert run_cli("run", "--interactive") == 0
    assert "SpeedyVanCouriers" in capsys.readouterr().out


def test_run_interactive_at_end_of_input_exits_one(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert run_cli("run", "--interactive") == 1
    captured = capsys.readouterr()
    assert "status: failed (NoPackaging)" in captured.out
    assert "total user spend: 0 FET" in captured.out
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# attack

def test_attack_rejects_every_forged_bid(capsys):
    assert run_cli("attack", "--forge-bids", "10") == 0
    out = capsys.readouterr().out
    assert "forged bids rejected: 10/10" in out
    assert "filter sound: yes" in out
    assert "winner under attack: SpeedyVanCouriers" in out


def test_attack_with_a_negative_count_exits_two(capsys):
    assert run_cli("attack", "--forge-bids", "-3") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "forged_bids" in err


def test_orders_under_attack_share_one_verify_pool():
    """The forged bids' signatures are checked on the pool as they are
    sent; no order and no tick starts threads of its own."""
    # funds for five orders; the default balance pays for three
    scenario = build_scenario(with_overrides(attack_config(60), user_balance_fet=1000))
    before = threading.active_count()
    for _ in range(5):
        assert scenario.place_order().status == "ok"
    rise = threading.active_count() - before
    assert rise <= identity.verify_pool().workers


def test_attack_process_exits_by_itself():
    src = os.path.dirname(os.path.dirname(os.path.abspath(agentmesh.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from agentmesh.cli import main; "
         "sys.exit(main(['attack', '--forge-bids', '60']))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "forged bids rejected: 60/60" in done.stdout


# ---------------------------------------------------------------------------
# wiretool

def test_wiretool_digests(capsys):
    assert run_cli("wiretool", "digests") == 0
    out = capsys.readouterr().out
    assert "protocol ChatProtocol/1.0:" in out
    assert "protocol CourierAuction/1.1:" in out
    assert "schema ScenarioReport:" in out


def test_wiretool_envelope_from_file(tmp_path, capsys):
    alice = derive_identity("wiretool alice")
    record = make_chat_message("2026-03-02T09:00:00", bytes(16), ["hi there"])
    env = seal_envelope(alice, "agent1target", CHAT_PROTOCOL, record, bytes(16), 42)
    path = tmp_path / "envelope.hex"
    path.write_text(env.to_bytes().hex() + "\n")

    assert run_cli("wiretool", "envelope", str(path)) == 0
    out = capsys.readouterr().out
    assert f"sender:          {alice.address}" in out
    assert "expires at:      42" in out
    assert "schema:          ChatMessage" in out
    assert "content = ['hi there']" in out


def test_wiretool_envelope_prints_one_recipient_per_line(capsys):
    alice = derive_identity("wiretool alice")
    record = make_chat_message("2026-03-02T09:00:00", bytes(16), ["hi all"])
    env = seal_envelope(alice, "agent1one,agent1two", CHAT_PROTOCOL, record, bytes(16), 42)
    assert run_cli("wiretool", "envelope", env.to_bytes().hex()) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("target:")] == [
        "target:          agent1one", "target:          agent1two"
    ]


def test_wiretool_envelope_whose_payload_does_not_decode_exits_one(capsys):
    alice = derive_identity("wiretool alice")
    record = make_chat_message("2026-03-02T09:00:00", bytes(16), ["hi there"])
    env = seal_envelope(alice, "agent1target", CHAT_PROTOCOL, record, bytes(16), 42)
    garbled = dataclasses.replace(env, payload=bytes.fromhex("00000009") + b"junk!")
    assert run_cli("wiretool", "envelope", garbled.to_bytes().hex()) == 1
    out = capsys.readouterr().out.splitlines()
    assert "payload bytes:   9" in out
    assert out[-1].startswith("schema:          ChatMessage")
    assert "does not decode" in out[-1]


def test_wiretool_envelope_rejects_garbage(capsys):
    assert run_cli("wiretool", "envelope", "deadbeef") == 1
    assert "not an envelope" in capsys.readouterr().err


def test_wiretool_bad_hex_exits_two(capsys):
    assert run_cli("wiretool", "envelope", "zz-not-hex") == 2
    assert "cannot read input" in capsys.readouterr().err


def test_wiretool_record_names_the_schema(capsys):
    record = make_chat_message("2026-03-02T09:00:00", bytes(16), ["ping"])
    assert run_cli("wiretool", "record", canonical_encode(record).hex()) == 0
    out = capsys.readouterr().out
    assert "schema: ChatMessage" in out
    assert "msg_id" in out


def test_wiretool_record_names_every_schema_that_decodes_it(capsys):
    # AcceptBid and RejectBid share one layout, so their bare records are
    # the same four bytes
    encoded = canonical_encode(Record(REJECT_BID, {}))
    assert encoded == canonical_encode(Record(ACCEPT_BID, {}))
    assert run_cli("wiretool", "record", encoded.hex()) == 0
    assert capsys.readouterr().out == "schema: AcceptBid or RejectBid\n"


def test_wiretool_record_unknown_bytes_exit_one(capsys):
    assert run_cli("wiretool", "record", "00112233") == 1
    assert "no known schema" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ledger replay

def test_ledger_replay_roundtrip(tmp_path, capsys):
    journal = tmp_path / "journal.jsonl"
    assert run_cli("run", "--journal", str(journal)) == 0
    capsys.readouterr()

    assert run_cli("ledger", "replay", str(journal)) == 0
    out = capsys.readouterr().out
    assert "conservation: ok" in out
    assert "total supply: 160000000 uFET (160 FET)" in out


def test_ledger_replay_missing_file(capsys):
    assert run_cli("ledger", "replay", "/no/such/journal.jsonl") == 1
    assert "replay failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# daemon argument handling (the serving path is covered in test_services)

def test_registryd_rejects_bad_genesis(capsys):
    assert registryd_main(["--genesis", "walletonly"]) == 2
    assert "bad --genesis" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--ttl", "0"], "--ttl must be at least 1"),
        (["--ttl", "-3"], "--ttl must be at least 1"),
        (["--fee-ufet", "-5"], "--fee-ufet must not be negative"),
    ],
    ids=["ttl_zero", "ttl_negative", "fee_negative"],
)
def test_registryd_refuses_settings_that_disable_it(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(cli, "serve_registry", _never_serve)
    assert registryd_main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("capacity", ["0", "-1"])
def test_mailboxd_refuses_a_capacity_below_one(monkeypatch, capsys, capacity):
    monkeypatch.setattr(cli, "serve_mailbox", _never_serve)
    assert mailboxd_main(["--capacity", capacity]) == 2
    assert "--capacity must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "amount, message",
    [("0", "ZeroAmount"), (str(2**63), "SchemaMismatch"), ("²", "ValueError")],
    ids=["zero", "beyond_i64", "superscript_digit"],
)
def test_registryd_refuses_a_genesis_amount_the_ledger_cannot_mint(
    monkeypatch, capsys, amount, message
):
    monkeypatch.setattr(cli, "serve_registry", _never_serve)
    assert registryd_main(["--genesis", f"wallet={amount}"]) == 2
    err = capsys.readouterr().err
    assert f"bad --genesis entry: 'wallet={amount}'" in err and message in err


@pytest.fixture
def held_port():
    """A port that a live listening socket holds."""
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        yield str(holder.getsockname()[1])


@pytest.mark.parametrize("daemon", [registryd_main, mailboxd_main], ids=["registryd", "mailboxd"])
@pytest.mark.parametrize("port", ["70000", "-1", None], ids=["70000", "-1", "held"])
def test_a_daemon_that_cannot_listen_exits_two(monkeypatch, capsys, held_port, daemon, port):
    port = port or held_port
    # a daemon that did bind would serve until interrupted
    monkeypatch.setattr(cli, "_serve_forever", lambda handle, label: handle.close() or 0)
    assert daemon(["--port", port]) == 2
    assert f"cannot listen on 127.0.0.1:{port}: " in capsys.readouterr().err


def _never_serve(*args):
    raise AssertionError("a refused setting must return before serving")


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        run_cli()
