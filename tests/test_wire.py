"""Canonical encoding, digests, and envelope seal/open."""

from __future__ import annotations

import pytest

import oracles
from agentmesh.identity import Signature, derive_identity
from agentmesh.wire import (
    CHAT_MESSAGE,
    CHAT_PROTOCOL,
    DuplicateField,
    EmptyProtocol,
    Envelope,
    Expired,
    ModelSchema,
    ProtocolSpec,
    Record,
    SchemaMismatch,
    SchemaNotInProtocol,
    SemanticType,
    SignatureInvalid,
    UnknownSchema,
    canonical_decode,
    canonical_encode,
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
        assert spec.schema_by_digest(EXAMPLE.digest()) is EXAMPLE
        assert spec.schema_by_digest(b"\x00" * 32) is None
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
        out, sender_addr = open_envelope(env, proto.models, current_height=5)
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
            open_envelope(bad, proto.models, 5)

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
            open_envelope(bad, proto.models, 5)

    def test_expired(self):
        env, proto, _ = self.make_envelope(expires_at=10)
        out, _ = open_envelope(env, proto.models, 10)  # boundary: still valid
        assert out["text"] == "hello"
        with pytest.raises(Expired):
            open_envelope(env, proto.models, 11)

    def test_unknown_schema(self):
        env, _, _ = self.make_envelope()
        stranger = ModelSchema.build("Stranger", z=SemanticType.INT)
        with pytest.raises(UnknownSchema):
            open_envelope(env, [stranger], 5)

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
                out, _ = open_envelope(candidate, proto.models, 5)
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
