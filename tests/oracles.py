"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written at scripting level, straight from the
byte-layout documentation, and never imports the package under test. The
golden hashes committed in the test modules were produced by these functions.
"""

from __future__ import annotations

import hashlib
import struct
from fractions import Fraction
from typing import NamedTuple

TAGS = {
    "string": 1,
    "int": 2,
    "float": 3,
    "bool": 4,
    "list-of-string": 5,
    "map-string-to-float": 6,
}


def enc_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def enc_value(tag: str, value) -> bytes:
    if tag == "string":
        return enc_str(value)
    if tag == "int":
        return struct.pack(">q", value)
    if tag == "float":
        return struct.pack(">d", value)
    if tag == "bool":
        return b"\x01" if value else b"\x00"
    if tag == "list-of-string":
        out = struct.pack(">I", len(value))
        for item in value:
            out += enc_str(item)
        return out
    if tag == "map-string-to-float":
        out = struct.pack(">I", len(value))
        for key in sorted(value, key=lambda k: k.encode("utf-8")):
            out += enc_str(key) + struct.pack(">d", value[key])
        return out
    raise ValueError(tag)


def enc_record(fields: dict[str, str], values: dict) -> bytes:
    """fields maps field name -> semantic type name."""
    out = struct.pack(">I", len(fields))
    for name in sorted(fields, key=lambda k: k.encode("utf-8")):
        tag = fields[name]
        out += enc_str(name) + bytes([TAGS[tag]]) + enc_value(tag, values[name])
    return out


def schema_digest(name: str, fields: dict[str, str]) -> bytes:
    out = enc_str(name) + struct.pack(">I", len(fields))
    for fname in sorted(fields, key=lambda k: k.encode("utf-8")):
        out += enc_str(fname) + bytes([TAGS[fields[fname]]])
    return hashlib.sha256(out).digest()


def protocol_digest(name: str, version: str, model_digests: list[bytes]) -> bytes:
    out = enc_str(name) + enc_str(version) + struct.pack(">I", len(model_digests))
    for d in sorted(model_digests):
        out += d
    return hashlib.sha256(out).digest()


def envelope_signing_digest(
    sender: str,
    target: str,
    proto_digest: bytes,
    schema_dig: bytes,
    payload: bytes,
    session_id: bytes,
    expires_at: int,
) -> bytes:
    out = (
        enc_str(sender)
        + enc_str(target)
        + proto_digest
        + schema_dig
        + struct.pack(">I", len(payload))
        + payload
        + session_id
        + struct.pack(">q", expires_at)
    )
    return hashlib.sha256(out).digest()


# The auction message models, spelled out field by field.

CALL_FOR_BIDS_FIELDS = {
    "source": "string",
    "destination": "string",
    "deadline": "string",
    "bid_deadline": "int",
}
COURIER_BID_FIELDS = {
    "price_fet": "int",
    "eta_minutes": "int",
    "courier_id": "string",
    "digest": "string",
    "signature": "string",
}
ACCEPT_BID_FIELDS: dict[str, str] = {}
REJECT_BID_FIELDS: dict[str, str] = {}


def courier_auction_digest() -> bytes:
    models = [
        schema_digest("CallForBids", CALL_FOR_BIDS_FIELDS),
        schema_digest("CourierBid", COURIER_BID_FIELDS),
        schema_digest("AcceptBid", ACCEPT_BID_FIELDS),
        schema_digest("RejectBid", REJECT_BID_FIELDS),
    ]
    return protocol_digest("CourierAuction", "1.1", models)


def bid_body_digest(price_fet: int, eta_minutes: int, courier_id: str) -> bytes:
    fields = {"price_fet": "int", "eta_minutes": "int", "courier_id": "string"}
    values = {
        "price_fet": price_fet,
        "eta_minutes": eta_minutes,
        "courier_id": courier_id,
    }
    return hashlib.sha256(enc_record(fields, values)).digest()


def brute_force_winner(bids, scores, weights, deadline, announced_at):
    """Exhaustive argmax over the selection formula, exact rational arithmetic.

    bids: dict address -> (price_microfet, eta_minutes)
    scores: dict address -> Fraction in [0, 1]
    weights: (w_price, w_speed, w_reputation) Fractions
    deadline/announced_at: datetimes
    """
    feasible = {}
    for addr, (price, eta) in bids.items():
        arrival = announced_at + __import__("datetime").timedelta(minutes=eta)
        if arrival <= deadline:
            feasible[addr] = (price, eta)
    if not feasible:
        return None
    min_price = min(p for p, _ in feasible.values())
    min_eta = min(e for _, e in feasible.values())
    w_price, w_speed, w_rep = weights
    best_addr = None
    best_score = None
    for addr in sorted(feasible):
        price, eta = feasible[addr]
        total = (
            w_price * Fraction(min_price, price)
            + w_speed * Fraction(min_eta, eta)
            + w_rep * scores[addr]
        )
        if best_score is None or total > best_score:
            best_addr, best_score = addr, total
    return best_addr


def brute_force_search(records, proto_digest, metadata, geo, height):
    """Linear-scan filter over registry records, mirroring the search contract."""
    hits = []
    for rec in records:
        if rec["expires_at"] < height:
            continue
        if proto_digest is not None and proto_digest not in rec["protocol_digests"]:
            continue
        if metadata and any(rec["metadata"].get(k) != v for k, v in metadata.items()):
            continue
        if geo is not None and rec["metadata"].get("geo") != geo:
            continue
        hits.append(rec)
    return sorted(hits, key=lambda r: r["address"])


def registration_signing_digest(
    address: str,
    sequence: int,
    protocol_digests: list[bytes],
    endpoint: str,
    metadata: dict[str, str],
) -> bytes:
    out = enc_str(address) + struct.pack(">q", sequence)
    out += struct.pack(">I", len(protocol_digests))
    for d in sorted(protocol_digests):
        out += d
    out += enc_str(endpoint)
    out += struct.pack(">I", len(metadata))
    for key in sorted(metadata, key=lambda k: k.encode("utf-8")):
        out += enc_str(key) + enc_str(metadata[key])
    return hashlib.sha256(out).digest()


def mailbox_auth_digest(address: str, nonce: int) -> bytes:
    return hashlib.sha256(enc_str(address) + struct.pack(">q", nonce)).digest()


class TranscriptFields(NamedTuple):
    tick: int
    sender: str
    target: str
    schema_name: str
    digest_prefix: str
    outcome: str


def line_fields(line: str) -> TranscriptFields:
    """The fields of one transcript line,
    tick|sender|target|schema_name|payload_digest_prefix|outcome."""
    tick, *rest = line.split("|", 5)
    return TranscriptFields(int(tick), *rest)
