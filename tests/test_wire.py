"""Canonical encoding, digests, and envelope seal/open."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from agentmesh import wire
from agentmesh.identity import Signature, derive_identity
from agentmesh.wire import (
    CHAT_MESSAGE,
    I64_MAX,
    I64_MIN,
    MAX_RECIPIENTS,
    CHAT_PROTOCOL,
    DuplicateField,
    EmptyProtocol,
    Envelope,
    Expired,
    Misaddressed,
    ModelSchema,
    ProtocolSpec,
    Record,
    SchemaMismatch,
    SchemaNotInProtocol,
    SemanticType,
    SignatureInvalid,
    UnknownSchema,
    WireError,
    canonical_decode,
    canonical_encode,
    check_envelope,
    make_chat_message,
    open_envelope,
    seal_envelope,
)

# Golden hashes computed by tests/oracles.py before this module existed.
GOLDEN_EXAMPLE_SHA256 = "949afa07341cc8216ef13a2215107d158ff8119b5d3691a383b6af900af96c66"
GOLDEN_COURIER_BID_SCHEMA = "0f605f16593c7605e393b01a4d64ebf1de823b722cae5da00d0dfa9a8abd9a4e"
GOLDEN_AUCTION_PROTOCOL = "82e9beefe562d0d08936d4c1378f88210fe4a3cea13c5f9c03f72d0eef3dc7c1"

EXAMPLE = ModelSchema.build(
    "Example",
    price_fet=SemanticType.FLOAT,
    eta_minutes=SemanticType.INT,
    courier_id=SemanticType.STRING,
)
EXAMPLE_VALUES = {"price_fet": 25.0, "eta_minutes": 90, "courier_id": "SpeedyVanCouriers"}


def sample_protocol() -> ProtocolSpec:
    ping = ModelSchema.build("Ping", text=SemanticType.STRING)
    pong = ModelSchema.build("Pong", text=SemanticType.STRING)
    return ProtocolSpec("PingPong", "1.0", (ping, pong))


def by_digest(models) -> dict:
    """The digest -> schema map open_envelope looks schemas up in."""
    return {m.digest(): m for m in models}


class TestCanonicalEncode:
    def test_golden_example(self):
        import hashlib

        data = canonical_encode(Record(EXAMPLE, EXAMPLE_VALUES))
        assert hashlib.sha256(data).hexdigest() == GOLDEN_EXAMPLE_SHA256

    def test_matches_oracle_bytes(self):
        data = canonical_encode(Record(EXAMPLE, EXAMPLE_VALUES))
        fields = {"price_fet": "float", "eta_minutes": "int", "courier_id": "string"}
        assert data == oracles.enc_record(fields, EXAMPLE_VALUES)

    def test_empty_schema(self):
        empty = ModelSchema.build("Empty")
        assert canonical_encode(Record(empty, {})) == b"\x00\x00\x00\x00"

    def test_determinism(self):
        a = canonical_encode(Record(EXAMPLE, EXAMPLE_VALUES))
        b = canonical_encode(Record(EXAMPLE, dict(EXAMPLE_VALUES)))
        assert a == b

    def test_roundtrip_all_types(self):
        schema = ModelSchema.build(
            "AllTypes",
            s=SemanticType.STRING,
            i=SemanticType.INT,
            f=SemanticType.FLOAT,
            b=SemanticType.BOOL,
            ls=SemanticType.LIST_OF_STRING,
            mf=SemanticType.MAP_STRING_TO_FLOAT,
        )
        values = {
            "s": "héllo",
            "i": -42,
            "f": 3.5,
            "b": True,
            "ls": ["b", "a", "b"],
            "mf": {"y": 1.0, "x": -0.5},
        }
        record = Record(schema, values)
        decoded = canonical_decode(schema, canonical_encode(record))
        assert decoded.values == values

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaMismatch, match="missing"):
            Record(EXAMPLE, {"price_fet": 25.0, "eta_minutes": 90})

    def test_extra_field_rejected(self):
        with pytest.raises(SchemaMismatch, match="unexpected"):
            Record(EXAMPLE, dict(EXAMPLE_VALUES, rogue="x"))

    def test_wrong_type_rejected(self):
        with pytest.raises(SchemaMismatch, match="wrong type"):
            Record(EXAMPLE, dict(EXAMPLE_VALUES, eta_minutes="ninety"))

    def test_bool_is_not_int(self):
        schema = ModelSchema.build("I", n=SemanticType.INT)
        with pytest.raises(SchemaMismatch):
            Record(schema, {"n": True})

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 10**20])
    def test_int_outside_i64_rejected(self, value):
        schema = ModelSchema.build("I", n=SemanticType.INT, m=SemanticType.INT)
        with pytest.raises(SchemaMismatch, match=r"^I: out of i64 range: n$"):
            Record(schema, {"n": value, "m": 0})

    def test_int_i64_bounds_round_trip(self):
        schema = ModelSchema.build("I", lo=SemanticType.INT, hi=SemanticType.INT)
        record = Record(schema, {"lo": -(2**63), "hi": 2**63 - 1})
        data = canonical_encode(record)
        assert data == oracles.enc_record({"lo": "int", "hi": "int"}, record.values)
        assert canonical_decode(schema, data) == record

    def test_mismatch_message_lists_every_fault(self):
        with pytest.raises(SchemaMismatch) as info:
            Record(EXAMPLE, {"price_fet": 1, "rogue": 1, "zzz": 2})
        assert str(info.value) == (
            "Example: missing: courier_id, eta_minutes; unexpected: rogue, zzz; "
            "wrong type: price_fet"
        )

    def test_trailing_bytes_rejected(self):
        data = canonical_encode(Record(EXAMPLE, EXAMPLE_VALUES))
        with pytest.raises(SchemaMismatch, match="trailing"):
            canonical_decode(EXAMPLE, data + b"\x00")

    def test_truncated_rejected(self):
        data = canonical_encode(Record(EXAMPLE, EXAMPLE_VALUES))
        with pytest.raises(SchemaMismatch):
            canonical_decode(EXAMPLE, data[:-3])

    def test_single_field_change_changes_bytes(self):
        base = canonical_encode(Record(EXAMPLE, EXAMPLE_VALUES))
        bumped = canonical_encode(Record(EXAMPLE, dict(EXAMPLE_VALUES, eta_minutes=91)))
        assert base != bumped

    @pytest.mark.parametrize(
        "schema, values",
        [
            (ModelSchema.build("S", a=SemanticType.STRING), {"a": "\udcff"}),
            (ModelSchema.build("L", a=SemanticType.LIST_OF_STRING), {"a": ["ok", "\ud800"]}),
            (ModelSchema.build("M", a=SemanticType.MAP_STRING_TO_FLOAT), {"a": {"\udcff": 1.0}}),
        ],
        ids=["string", "list", "map_key"],
    )
    def test_lone_surrogate_is_a_schema_mismatch(self, schema, values):
        # what surrogateescape makes of undecodable bytes has no UTF-8 form
        with pytest.raises(SchemaMismatch, match="UTF-8"):
            canonical_encode(Record(schema, values))


class TestSchemaDigest:
    def test_golden_courier_bid(self):
        bid = ModelSchema.build(
            "CourierBid",
            price_fet=SemanticType.INT,
            eta_minutes=SemanticType.INT,
            courier_id=SemanticType.STRING,
            digest=SemanticType.STRING,
            signature=SemanticType.STRING,
        )
        assert bid.digest().hex() == GOLDEN_COURIER_BID_SCHEMA

    def test_field_order_invariant(self):
        a = ModelSchema("S", (("a", SemanticType.INT), ("b", SemanticType.STRING)))
        b = ModelSchema("S", (("b", SemanticType.STRING), ("a", SemanticType.INT)))
        assert a.digest() == b.digest()

    def test_rename_changes_digest(self):
        a = ModelSchema.build("S", x=SemanticType.INT)
        b = ModelSchema.build("S", y=SemanticType.INT)
        assert a.digest() != b.digest()

    def test_duplicate_field_rejected(self):
        with pytest.raises(DuplicateField):
            ModelSchema("S", (("x", SemanticType.INT), ("x", SemanticType.STRING)))

    @pytest.mark.parametrize(
        "fields",
        [{"\udcff": SemanticType.STRING}, {"a": SemanticType.INT, "\udcff": SemanticType.INT}],
        ids=["only_field", "second_field"],
    )
    def test_lone_surrogate_field_name_is_a_schema_mismatch(self, fields):
        schema = ModelSchema.build("X", **fields)
        with pytest.raises(SchemaMismatch, match="UTF-8"):
            schema.digest()
        values = {fname: "" if tag is SemanticType.STRING else 0 for fname, tag in fields.items()}
        with pytest.raises(SchemaMismatch, match="UTF-8"):
            canonical_encode(Record(schema, values))

    def test_lone_surrogate_schema_name_is_a_schema_mismatch(self):
        with pytest.raises(SchemaMismatch, match="UTF-8"):
            ModelSchema.build("\udcff", a=SemanticType.INT).digest()

    def test_matches_oracle(self):
        fields = {"a": "int", "b": "string", "c": "bool"}
        schema = ModelSchema.build(
            "Mixed", a=SemanticType.INT, b=SemanticType.STRING, c=SemanticType.BOOL
        )
        assert schema.digest() == oracles.schema_digest("Mixed", fields)


class TestDigestCache:
    """Digests are kept on the frozen instance after the first call; these
    check that what is kept is what a fresh computation gives."""

    def test_tag_change_still_changes_digest_once_cached(self):
        a = ModelSchema.build("S", x=SemanticType.INT, y=SemanticType.STRING)
        b = ModelSchema.build("S", x=SemanticType.FLOAT, y=SemanticType.STRING)
        first = (a.digest(), b.digest())
        assert first[0] != first[1]
        assert (a.digest(), b.digest()) == first
        assert a.digest() == oracles.schema_digest("S", {"x": "int", "y": "string"})
        assert b.digest() == oracles.schema_digest("S", {"x": "float", "y": "string"})

    def test_cached_values_equal_fresh_ones(self):
        for model in CHAT_PROTOCOL.models + (EXAMPLE,):
            model.digest()
            fresh = ModelSchema(model.name, model.fields)
            assert model.digest() == fresh.digest()
            assert model.sorted_fields() == fresh.sorted_fields()
            assert isinstance(model.sorted_fields(), tuple)
        spec = ProtocolSpec("P", "1.0", (EXAMPLE, CHAT_MESSAGE))
        spec.digest()
        assert spec.digest() == ProtocolSpec("P", "1.0", (EXAMPLE, CHAT_MESSAGE)).digest()

    def test_schema_lookup_by_digest(self):
        spec = ProtocolSpec("P", "1.0", (EXAMPLE, CHAT_MESSAGE))
        assert spec.has_schema(ModelSchema(EXAMPLE.name, EXAMPLE.fields))
        assert not spec.has_schema(ModelSchema.build("Example", other=SemanticType.INT))

    def test_empty_protocol_raises_every_time(self):
        spec = ProtocolSpec("Empty", "1.0", ())
        for _ in range(2):
            with pytest.raises(EmptyProtocol):
                spec.digest()


class TestProtocolDigest:
    def test_golden_courier_auction(self):
        from agentmesh.contractnet import COURIER_AUCTION

        assert COURIER_AUCTION.digest().hex() == GOLDEN_AUCTION_PROTOCOL

    def test_version_changes_digest(self):
        models = (ModelSchema.build("M", x=SemanticType.INT),)
        a = ProtocolSpec("P", "1.1", models)
        b = ProtocolSpec("P", "1.2", models)
        assert a.digest() != b.digest()

    def test_model_order_invariant(self):
        m1 = ModelSchema.build("A", x=SemanticType.INT)
        m2 = ModelSchema.build("B", y=SemanticType.STRING)
        assert (
            ProtocolSpec("P", "1", (m1, m2)).digest() == ProtocolSpec("P", "1", (m2, m1)).digest()
        )

    def test_empty_protocol_rejected(self):
        with pytest.raises(EmptyProtocol):
            ProtocolSpec("P", "1", ()).digest()


class TestEnvelope:
    def make_envelope(self, expires_at=1000):
        sender = derive_identity("env sender")
        proto = sample_protocol()
        record = Record(proto.models[0], {"text": "hello"})
        return (
            seal_envelope(
                sender, "agent1" + "a" * 52, proto, record, b"\x07" * 16, expires_at
            ),
            proto,
            record,
        )

    def test_seal_open_roundtrip(self):
        env, proto, record = self.make_envelope()
        out, sender_addr = open_envelope(
            env, by_digest(proto.models), current_height=5, recipient=env.target
        )
        assert out.values == record.values
        assert sender_addr == env.sender

    def test_signing_digest_matches_oracle(self):
        env, _, _ = self.make_envelope()
        expected = oracles.envelope_signing_digest(
            env.sender,
            env.target,
            env.protocol_digest,
            env.schema_digest,
            env.payload,
            env.session_id,
            env.expires_at,
        )
        assert env.signing_digest() == expected
        assert hashlib.sha256(env.to_bytes()[:-64]).digest() == expected

    @staticmethod
    def count_unsigned_bytes(monkeypatch) -> list:
        built, unsigned = [], wire._unsigned_envelope
        monkeypatch.setattr(wire, "_unsigned_envelope", lambda *f: built.append(f) or unsigned(*f))
        return built

    def test_a_sealed_envelope_checks_the_digest_it_signed(self, monkeypatch):
        env, proto, _ = self.make_envelope()
        built = self.count_unsigned_bytes(monkeypatch)
        assert env.signed()
        open_envelope(env, by_digest(proto.models), 5, env.target)
        assert built == []
        assert env.signing_digest() == hashlib.sha256(env.to_bytes()[:-64]).digest()

    def test_a_replaced_envelope_hashes_its_own_bytes(self, monkeypatch):
        env, proto, _ = self.make_envelope()
        built = self.count_unsigned_bytes(monkeypatch)
        again = dataclasses.replace(env)
        assert again.signed()
        assert len(built) == 1
        other = canonical_encode(Record(proto.models[0], {"text": "goodbye"}))
        forged = dataclasses.replace(env, payload=other)
        assert forged.signing_digest() != env.signing_digest()
        with pytest.raises(SignatureInvalid):
            open_envelope(forged, by_digest(proto.models), 5, forged.target)

    def test_payload_tamper_fails(self):
        env, proto, _ = self.make_envelope()
        bad = Envelope(
            env.sender,
            env.target,
            env.protocol_digest,
            env.schema_digest,
            env.payload[:-1] + bytes([env.payload[-1] ^ 1]),
            env.session_id,
            env.expires_at,
            env.signature,
        )
        with pytest.raises(SignatureInvalid):
            open_envelope(bad, by_digest(proto.models), 5, bad.target)

    def test_sender_swap_fails(self):
        env, proto, _ = self.make_envelope()
        other = derive_identity("someone else")
        bad = Envelope(
            other.address,
            env.target,
            env.protocol_digest,
            env.schema_digest,
            env.payload,
            env.session_id,
            env.expires_at,
            env.signature,
        )
        with pytest.raises(SignatureInvalid):
            open_envelope(bad, by_digest(proto.models), 5, bad.target)

    def test_expired(self):
        env, proto, _ = self.make_envelope(expires_at=10)
        # boundary: still valid
        out, _ = open_envelope(env, by_digest(proto.models), 10, env.target)
        assert out["text"] == "hello"
        with pytest.raises(Expired):
            open_envelope(env, by_digest(proto.models), 11, env.target)

    def test_unknown_schema(self):
        env, _, _ = self.make_envelope()
        stranger = ModelSchema.build("Stranger", z=SemanticType.INT)
        with pytest.raises(UnknownSchema):
            open_envelope(env, by_digest([stranger]), 5, env.target)

    def test_a_signed_payload_that_does_not_decode_is_an_unknown_schema(self):
        env, proto, _ = self.make_envelope()
        unsigned = dataclasses.replace(env, payload=b"\xff")
        signature = derive_identity("env sender").sign_digest(unsigned.signing_digest())
        garbled = dataclasses.replace(unsigned, signature=signature)
        assert garbled.signed()
        with pytest.raises(UnknownSchema, match="does not decode as Ping"):
            open_envelope(garbled, by_digest(proto.models), 5, garbled.target)

    def test_schema_not_in_protocol(self):
        sender = derive_identity("env sender")
        proto = sample_protocol()
        outsider = Record(ModelSchema.build("Out", z=SemanticType.INT), {"z": 1})
        with pytest.raises(SchemaNotInProtocol):
            seal_envelope(sender, "agent1" + "a" * 52, proto, outsider, b"\x00" * 16, 10)

    def test_bytes_roundtrip(self):
        env, _, _ = self.make_envelope()
        again = Envelope.from_bytes(env.to_bytes())
        assert again == env

    def test_trailing_bytes_are_refused(self):
        env, _, _ = self.make_envelope()
        with pytest.raises(SchemaMismatch, match="trailing bytes"):
            Envelope.from_bytes(env.to_bytes() + b"\x00")

    def test_bit_flip_anywhere_fails_open(self):
        env, proto, _ = self.make_envelope()
        raw = bytearray(env.to_bytes())
        # flip one bit in every tenth byte; each mutation must fail to open
        for pos in range(0, len(raw), 10):
            mutated = bytearray(raw)
            mutated[pos] ^= 0x01
            try:
                candidate = Envelope.from_bytes(bytes(mutated))
            except Exception:
                continue  # refusing to parse is also a pass
            with pytest.raises((SignatureInvalid, UnknownSchema, Expired, SchemaMismatch)):
                out, _ = open_envelope(candidate, by_digest(proto.models), 5, env.target)
                # opening may only succeed if the flip left the envelope identical
                assert candidate == env


class TestChat:
    def test_chat_message_shape(self):
        record = make_chat_message("2026-01-01T12:00:00", b"\x01" * 16, ["hi there"])
        assert record.schema is CHAT_MESSAGE
        assert CHAT_PROTOCOL.has_schema(CHAT_MESSAGE)

    def test_empty_content_rejected(self):
        with pytest.raises(SchemaMismatch):
            make_chat_message("2026-01-01T12:00:00", b"\x01" * 16, [])


def sender_not_utf8() -> bytes:
    """An envelope's bytes whose sender, the first string, is not UTF-8."""
    env = TestEnvelope().make_envelope()[0]
    raw = bytearray(env.to_bytes())
    raw[4] = 0xFF  # the sender's first byte, after its u32 length
    return bytes(raw)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ModelSchema("Odd", (("x", 9),))._codec, SchemaMismatch, "Odd: 9 is not a valid"),
        (lambda: Envelope.from_bytes(sender_not_utf8()), SchemaMismatch, "invalid UTF-8"),
        (
            lambda: seal_envelope(
                derive_identity("env sender"), "agent1a", sample_protocol(),
                Record(sample_protocol().models[0], {"text": "hi"}), b"\x07" * 15, 100,
            ),
            WireError, "session_id must be 16 bytes",
        ),
        (
            lambda: make_chat_message("2026-01-01T12:00:00", b"\x01" * 15, ["hi"]),
            WireError, "msg_id must be 16 bytes",
        ),
    ],
    ids=["tag_outside_semantic_type", "sender_not_utf8", "short_session_id", "short_msg_id"],
)
def test_a_malformed_input_is_refused_typed(call, error, message):
    with pytest.raises(error, match=message):
        call()


# any text but the separator, so a list of them joins and splits back
ADDRESSES = st.text(
    st.characters(blacklist_characters=",", blacklist_categories=("Cs",)), min_size=1, max_size=12
)


class TestRecipients:
    """A target that names several recipients under one signature."""

    SENDER = derive_identity("multicast env sender")

    def seal_to(self, target) -> Envelope:
        proto = sample_protocol()
        record = Record(proto.models[0], {"text": "hi"})
        return seal_envelope(self.SENDER, target, proto, record, b"\x07" * 16, 100)

    @pytest.mark.parametrize(
        "target", ["", ",", ",agent1a", "agent1a,,agent1b", "agent1a,",
                   "agent1a,agent1a", "agent1a,agent1b,agent1a"]
    )
    def test_seal_refuses_an_empty_or_repeated_recipient(self, target):
        with pytest.raises(WireError, match="distinct, non-empty"):
            self.seal_to(target)

    def test_seal_refuses_more_recipients_than_one_envelope_names(self):
        addresses = [f"agent1{i}" for i in range(MAX_RECIPIENTS + 1)]
        assert self.seal_to(",".join(addresses[:-1])).recipients == tuple(addresses[:-1])
        with pytest.raises(WireError, match=f"over {MAX_RECIPIENTS}"):
            self.seal_to(",".join(addresses))

    def test_one_address_names_only_itself(self):
        address = "agent1" + "a" * 52
        env = self.seal_to(address)
        assert (env.target, env.recipients) == (address, (address,))
        assert env.names(address)
        assert not env.names(address[:-1]) and not env.names(address + ",")

    def test_check_order_is_signature_then_recipient_then_expiry(self):
        env = self.seal_to("agent1a,agent1b")  # valid to height 100
        forged = dataclasses.replace(env, payload=env.payload + b"x")
        with pytest.raises(SignatureInvalid):
            check_envelope(forged, 200, "agent1a")
        with pytest.raises(Misaddressed):
            check_envelope(env, 200, "agent1c")
        with pytest.raises(Expired):
            check_envelope(env, 200, "agent1b")
        for recipient in ("agent1a", "agent1b"):
            check_envelope(env, 100, recipient)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(ADDRESSES, min_size=1, max_size=6, unique=True), ADDRESSES)
    def test_a_multi_recipient_envelope_round_trips_and_opens_only_for_its_recipients(
        self, recipients, stranger
    ):
        env = self.seal_to(",".join(recipients))
        again = Envelope.from_bytes(env.to_bytes())
        assert again == env
        assert again.target == ",".join(recipients)
        assert again.recipients == tuple(recipients)
        schemas = by_digest(sample_protocol().models)
        for recipient in recipients:
            record, sender = open_envelope(again, schemas, 5, recipient)
            assert (record["text"], sender) == ("hi", self.SENDER.address)
        if stranger not in recipients:
            with pytest.raises(Misaddressed):
                open_envelope(again, schemas, 5, stranger)


class TestTamperEvidence:
    def test_any_single_field_change_changes_digest(self):
        import hashlib

        base = Record(EXAMPLE, EXAMPLE_VALUES)
        base_digest = hashlib.sha256(canonical_encode(base)).digest()
        variants = [
            dict(EXAMPLE_VALUES, price_fet=26.0),
            dict(EXAMPLE_VALUES, eta_minutes=89),
            dict(EXAMPLE_VALUES, courier_id="speedyVanCouriers"),
        ]
        for values in variants:
            digest = hashlib.sha256(canonical_encode(Record(EXAMPLE, values))).digest()
            assert digest != base_digest


# ---------------------------------------------------------------------------
# generated codecs against the oracle, on random schemas

ORACLE_TAGS = {tag: name for name, tag in oracles.TAGS.items()}
FLOATS = st.floats(allow_nan=False) | st.just(-0.0)
VALUES = {
    SemanticType.STRING: st.text(max_size=6),
    SemanticType.INT: st.integers(I64_MIN, I64_MAX) | st.sampled_from([I64_MIN, I64_MAX, 0, -1]),
    SemanticType.FLOAT: FLOATS,
    SemanticType.BOOL: st.booleans(),
    SemanticType.LIST_OF_STRING: st.lists(st.text(max_size=4), max_size=3),
    SemanticType.MAP_STRING_TO_FLOAT: st.dictionaries(st.text(max_size=4), FLOATS, max_size=3),
}
# names mix ASCII with characters that take two to four UTF-8 bytes; lone
# surrogates have no UTF-8 form, so no schema or value can hold them
NAMES = st.text(
    st.sampled_from("abzé名𝄞_") | st.characters(exclude_categories=("Cs",)), max_size=5
)


@st.composite
def records(draw):
    fields = draw(st.dictionaries(NAMES, st.sampled_from(list(SemanticType)), max_size=8))
    schema = ModelSchema(draw(NAMES), tuple(fields.items()))
    values = {name: draw(VALUES[tag]) for name, tag in fields.items()}
    return Record(schema, values)


def oracle_bytes(record: Record) -> bytes:
    fields = {name: ORACLE_TAGS[tag] for name, tag in record.schema.fields}
    return oracles.enc_record(fields, record.values)


def decodes_to_itself_or_mismatches(schema: ModelSchema, data: bytes) -> None:
    try:
        decoded = canonical_decode(schema, data)
    except SchemaMismatch:
        return
    assert canonical_encode(decoded) == data
    Record(schema, decoded.values)  # what the decoder builds is valid


class TestGeneratedCodecs:
    @settings(max_examples=150, deadline=None)
    @given(records())
    def test_encoding_matches_the_oracle_and_decodes_back(self, record):
        data = canonical_encode(record)
        assert data == oracle_bytes(record)
        decoded = canonical_decode(record.schema, data)
        assert decoded == record
        assert canonical_encode(decoded) == data  # -0.0 keeps its sign

    @settings(max_examples=100, deadline=None)
    @given(records(), st.integers(1, 255))
    def test_every_cut_and_byte_flip_mismatches_or_round_trips(self, record, mask):
        data = canonical_encode(record)
        for end in range(len(data)):
            decodes_to_itself_or_mismatches(record.schema, data[:end])
        for pos in range(len(data)):
            mutated = bytearray(data)
            mutated[pos] ^= mask
            decodes_to_itself_or_mismatches(record.schema, bytes(mutated))

    @settings(max_examples=50, deadline=None)
    @given(records(), st.sampled_from([I64_MAX + 1, I64_MIN - 1, 2**100]))
    def test_ints_outside_i64_never_reach_the_encoder(self, record, value):
        ints = [name for name, tag in record.schema.fields if tag is SemanticType.INT]
        for name in ints:
            with pytest.raises(SchemaMismatch, match="out of i64 range"):
                Record(record.schema, dict(record.values, **{name: value}))
