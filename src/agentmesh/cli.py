"""Command line front end.

Subcommands: `run` executes a scenario config, `attack` demonstrates the
forged-bid filter, `wiretool` decodes wire artifacts, `ledger replay`
rebuilds a journal and checks conservation. `registryd` and `mailboxd` are
separate entry points that serve the registry and mailbox over HTTP.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import (
    DEFAULT_COURIERS,
    ConfigError,
    CourierSpec,
    default_config,
    load_config,
    with_overrides,
)
from .contractnet import COURIER_AUCTION
from .ledger import Ledger, LedgerError, UFET_PER_FET, read_journal, replay, write_journal
from .mailbox import MailboxStore
from .registry import FixtureDnsResolver, Registry
from .scenario import (
    LOGISTICS_PROTOCOL,
    MAPS_PROTOCOL,
    REPORT_SCHEMA,
    build_scenario,
    run_scenario,
)
from .services import serve_mailbox, serve_registry
from .wire import (
    CHAT_PROTOCOL,
    Envelope,
    ModelSchema,
    ProtocolSpec,
    Record,
    WireError,
    canonical_decode,
)

KNOWN_PROTOCOLS: tuple[ProtocolSpec, ...] = (
    CHAT_PROTOCOL,
    COURIER_AUCTION,
    LOGISTICS_PROTOCOL,
    MAPS_PROTOCOL,
)

EXTRA_SCHEMAS: tuple[ModelSchema, ...] = (REPORT_SCHEMA,)

# every schema wiretool knows, by digest, with the protocol that carries it
# (None for the extra schemas, which travel in no protocol)
KNOWN_SCHEMAS: dict[bytes, tuple[ModelSchema, ProtocolSpec | None]] = {
    schema.digest(): (schema, proto) for proto in KNOWN_PROTOCOLS for schema in proto.models
}
KNOWN_SCHEMAS.update((schema.digest(), (schema, None)) for schema in EXTRA_SCHEMAS)


# ---------------------------------------------------------------------------
# run

def _load_run_config(args):
    if args.config:
        config = load_config(args.config)
    else:
        config = default_config()
    overrides = {}
    if args.seed is not None:
        overrides["random_seed"] = args.seed
    if args.interactive:
        overrides["approval_mode"] = "interactive"
    if overrides:
        config = with_overrides(config, **overrides)
    return config


def cmd_run(args) -> int:
    try:
        config = _load_run_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        scenario = build_scenario(config)
    except Exception as exc:  # setup must not leave half a world behind
        print(f"setup error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report = scenario.place_order()

    try:
        if args.transcript:
            with open(args.transcript, "w", encoding="utf-8") as fh:
                for line in report.transcript:
                    fh.write(line + "\n")
        if args.report:
            report.write(args.report)
        if args.journal:
            write_journal(args.journal, scenario.world.ledger.journal)
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    print(report.render_text(), end="")
    return 0 if report.status == "ok" else 1


# ---------------------------------------------------------------------------
# attack

ATTACK_COURIERS: tuple[CourierSpec, ...] = DEFAULT_COURIERS + (
    CourierSpec("ParcelPonyCo", "parcel pony co fleet seed", 30, 180, "cambridge"),
    CourierSpec("NightOwlFreight", "night owl freight fleet seed", 28, 240, "cambridge"),
)


def attack_config(forged_bids: int, seed: int | None = None):
    """Demo fixture for the bid filter: five honest couriers plus saboteurs
    flooding forged bids at would-win prices."""
    config = with_overrides(
        default_config(), couriers=ATTACK_COURIERS, forged_bids=forged_bids
    )
    if seed is not None:
        config = with_overrides(config, random_seed=seed)
    return config


def _count(lines, needle: str) -> int:
    return sum(needle in line for line in lines)


def cmd_attack(args) -> int:
    try:
        configs = [attack_config(forged, args.seed) for forged in (0, args.forge_bids)]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    baseline, attacked = map(run_scenario, configs)

    tampered = _count(attacked.transcript, "bid_rejected_TamperedPayload")
    badsig = _count(attacked.transcript, "bid_rejected_BadSignature")
    rejected = tampered + badsig
    verified = _count(attacked.transcript, "bid_verified")

    print(f"baseline winner: {baseline.winner or '-'} ({baseline.delivery_fet} FET)")
    print(f"forged bids injected: {args.forge_bids}")
    print(f"forged bids rejected: {rejected}/{args.forge_bids} "
          f"(tampered payload {tampered}, bad signature {badsig})")
    print(f"honest bids verified: {verified}")
    print(f"winner under attack: {attacked.winner or '-'} ({attacked.delivery_fet} FET)")
    sound = rejected == args.forge_bids and attacked.winner == baseline.winner
    print(f"filter sound: {'yes' if sound else 'NO'}")
    return 0 if sound else 1


# ---------------------------------------------------------------------------
# wiretool

def _read_hex_source(source: str) -> bytes:
    """Accept a hex literal, a file of hex (first non-empty line), or '-'."""
    import os

    if source == "-":
        text = sys.stdin.read()
    elif os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
    for line in text.splitlines():
        line = line.strip()
        if line:
            return bytes.fromhex(line)
    raise ValueError("no hex content found")


def _print_fields(heading: str, record: Record) -> None:
    """Print the heading line, then the record's fields one a line."""
    print(heading)
    for fname, _ in record.schema.sorted_fields():
        print(f"  {fname} = {record[fname]!r}")


def cmd_wiretool(args) -> int:
    if args.what == "digests":
        shown = None
        for digest, (schema, proto) in KNOWN_SCHEMAS.items():
            if proto not in (None, shown):
                print(f"protocol {proto.name}/{proto.version}: {proto.digest().hex()}")
            shown = proto
            print(f"{'  ' if proto else ''}schema {schema.name}: {digest.hex()}")
        return 0

    try:
        data = _read_hex_source(args.source)
    except (ValueError, OSError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2

    if args.what == "envelope":
        try:
            env = Envelope.from_bytes(data)
        except WireError as exc:
            print(f"not an envelope: {exc}", file=sys.stderr)
            return 1
        print(f"sender:          {env.sender}")
        for recipient in env.recipients:
            print(f"target:          {recipient}")
        print(f"protocol digest: {env.protocol_digest.hex()}")
        print(f"schema digest:   {env.schema_digest.hex()}")
        print(f"session id:      {env.session_id.hex()}")
        print(f"expires at:      {env.expires_at}")
        print(f"payload bytes:   {len(env.payload)}")
        print(f"signature:       {env.signature.hex()}")
        if env.schema_digest not in KNOWN_SCHEMAS:
            print("schema:          (not one of the known schemas)")
            return 0
        schema, _ = KNOWN_SCHEMAS[env.schema_digest]
        try:
            record = canonical_decode(schema, env.payload)
        except WireError as exc:
            print(f"schema:          {schema.name}, but the payload does not decode: {exc}")
            return 1
        _print_fields(f"schema:          {schema.name}", record)
        return 0

    # record: a bare record names no schema, so name every known one that
    # decodes it; only schemas that share a layout can, so the fields agree
    decoded = []
    for schema, _ in KNOWN_SCHEMAS.values():
        try:
            decoded.append(canonical_decode(schema, data))
        except WireError:
            continue
    if not decoded:
        print("no known schema decodes this record", file=sys.stderr)
        return 1
    _print_fields("schema: " + " or ".join(r.schema.name for r in decoded), decoded[0])
    return 0


# ---------------------------------------------------------------------------
# ledger

def cmd_ledger(args) -> int:
    try:
        records = read_journal(args.journal)
        state = replay(records)
    except (OSError, LedgerError, WireError, ValueError) as exc:
        print(f"replay failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"operations: {len(records)}")
    print(f"height: {state.height}")
    print(f"total supply: {state.total_supply} uFET "
          f"({state.total_supply // UFET_PER_FET} FET)")
    print(f"fee sink: {state.fee_sink} uFET")
    print(f"open escrow: {state.locked_total()} uFET")
    print(f"wallets: {len(state.balances)}")
    ok = state.conservation_ok()
    print(f"conservation: {'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry points

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentmesh", description="Agent marketplace simulator."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config end to end")
    run_p.add_argument("--config", help="scenario config file (default: built-in demo)")
    run_p.add_argument("--seed", type=int, help="override the random seed")
    run_p.add_argument("--interactive", action="store_true",
                       help="ask y/n at the approval gates instead of scripting them")
    run_p.add_argument("--transcript", help="write the event transcript to this path")
    run_p.add_argument("--report", help="write the canonical report to this path")
    run_p.add_argument("--journal", help="write the ledger journal to this path")
    run_p.set_defaults(func=cmd_run)

    attack_p = sub.add_parser("attack", help="forged-bid filter demonstration")
    attack_p.add_argument("--forge-bids", type=int, default=50, metavar="K",
                          help="number of forged bids to inject (default 50)")
    attack_p.add_argument("--seed", type=int, help="override the random seed")
    attack_p.set_defaults(func=cmd_attack)

    wire_p = sub.add_parser("wiretool", help="decode wire artifacts")
    wire_p.add_argument("what", choices=("digests", "envelope", "record"))
    wire_p.add_argument("source", nargs="?", default="-",
                        help="hex string, file containing hex, or - for stdin")
    wire_p.set_defaults(func=cmd_wiretool)

    ledger_p = sub.add_parser("ledger", help="ledger journal tools")
    ledger_p.add_argument("ledger_action", choices=("replay",))
    ledger_p.add_argument("journal", help="journal file to replay")
    ledger_p.set_defaults(func=cmd_ledger)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def _listen(serve, args, label: str) -> int:
    """Serve on --host and --port until interrupted; 2 if it cannot bind."""
    try:
        handle = serve(host=args.host, port=args.port)
    except (OSError, OverflowError) as exc:
        print(f"cannot listen on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    return _serve_forever(handle, label)


def _serve_forever(handle, label: str) -> int:
    print(f"{label} listening on {handle.base_url}")
    try:
        handle.thread.join()
    except KeyboardInterrupt:
        print("shutting down")
        handle.close()
    return 0


def registryd_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="registryd", description="Agent registry as a JSON-over-HTTP service."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8700)
    parser.add_argument("--ttl", type=int, default=500, help="registration TTL in blocks")
    parser.add_argument("--fee-ufet", type=int, default=0,
                        help="registration fee in micro-FET (default 0 for standalone use)")
    parser.add_argument("--genesis", action="append", default=[], metavar="WALLET=UFET",
                        help="mint a starting balance (repeatable)")
    args = parser.parse_args(argv)
    if args.ttl < 1:
        print(f"--ttl must be at least 1 block, not {args.ttl}", file=sys.stderr)
        return 2
    if args.fee_ufet < 0:
        print(f"--fee-ufet must not be negative, not {args.fee_ufet}", file=sys.stderr)
        return 2

    ledger = Ledger()
    for entry in args.genesis:
        wallet, _, amount = entry.partition("=")
        try:
            if not wallet or not (amount.isascii() and amount.isdigit()):
                raise ValueError("want WALLET=UFET, UFET in the digits 0-9")
            ledger.mint(wallet, int(amount))
        except (ValueError, LedgerError, WireError) as exc:
            print(f"bad --genesis entry: {entry!r}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    registry = Registry(ttl=args.ttl, fee=args.fee_ufet)
    serve = functools.partial(serve_registry, registry, ledger, FixtureDnsResolver())
    return _listen(serve, args, "registryd")


def mailboxd_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mailboxd", description="Store-and-forward mailbox as a JSON-over-HTTP service."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8701)
    parser.add_argument("--capacity", type=int, default=1024)
    args = parser.parse_args(argv)
    if args.capacity < 1:
        print(f"--capacity must be at least 1 envelope, not {args.capacity}", file=sys.stderr)
        return 2

    return _listen(functools.partial(serve_mailbox, MailboxStore(capacity=args.capacity)),
                   args, "mailboxd")


if __name__ == "__main__":
    sys.exit(main())
