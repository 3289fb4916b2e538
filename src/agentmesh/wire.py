"""Canonical message encoding, schema digests, and signed envelopes.

Everything agents exchange is a typed record conforming to a ModelSchema.
Records encode to a canonical byte string (sorted field names, length
prefixes, fixed-width numerics) so that digests are reproducible on any
platform. Schemas hash to a 32-byte digest; protocols hash their name,
version, and member schema digests. An Envelope wraps one encoded record
with sender, target, session id, and block-height expiry, all signed by
the sender's key.

Byte layouts are documented bit-exactly in docs/wire.md.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Iterable, Mapping

from .identity import (
    AgentIdentity,
    Signature,
    verify_digest,
)

SESSION_ID_LEN = 16
DIGEST_LEN = 32


class WireError(Exception):
    """Base for encoding and envelope failures."""


class SchemaMismatch(WireError):
    """Value does not conform to its schema; message lists offending fields."""


class DuplicateField(WireError):
    """Schema declares the same field name twice."""


class EmptyProtocol(WireError):
    """Protocol has no member schemas."""


class SchemaNotInProtocol(WireError):
    """Record's schema is not one of the protocol's models."""


class SignatureInvalid(WireError):
    """Envelope signature does not verify against the sender address."""


class UnknownSchema(WireError):
    """Envelope's schema digest matches no known schema (or payload malformed)."""


class Expired(WireError):
    """Envelope expiry height has passed."""


class SemanticType(IntEnum):
    """Wire type tags. The tag byte is part of the canonical encoding."""

    STRING = 1
    INT = 2
    FLOAT = 3
    BOOL = 4
    LIST_OF_STRING = 5
    MAP_STRING_TO_FLOAT = 6


def _enc_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _enc_value(tag: SemanticType, value: Any) -> bytes:
    if tag is SemanticType.STRING:
        return _enc_str(value)
    if tag is SemanticType.INT:
        return struct.pack(">q", value)
    if tag is SemanticType.FLOAT:
        return struct.pack(">d", value)
    if tag is SemanticType.BOOL:
        return b"\x01" if value else b"\x00"
    if tag is SemanticType.LIST_OF_STRING:
        out = [struct.pack(">I", len(value))]
        out.extend(_enc_str(item) for item in value)
        return b"".join(out)
    if tag is SemanticType.MAP_STRING_TO_FLOAT:
        out = [struct.pack(">I", len(value))]
        for key in sorted(value, key=lambda k: k.encode("utf-8")):
            out.append(_enc_str(key))
            out.append(struct.pack(">d", value[key]))
        return b"".join(out)
    raise SchemaMismatch(f"unencodable tag {tag!r}")


def _check_value(tag: SemanticType, value: Any) -> bool:
    if tag is SemanticType.STRING:
        return isinstance(value, str)
    if tag is SemanticType.INT:
        # bool passes isinstance(int); reject it so tags stay unambiguous
        return isinstance(value, int) and not isinstance(value, bool)
    if tag is SemanticType.FLOAT:
        return isinstance(value, float)
    if tag is SemanticType.BOOL:
        return isinstance(value, bool)
    if tag is SemanticType.LIST_OF_STRING:
        return isinstance(value, list) and all(isinstance(i, str) for i in value)
    if tag is SemanticType.MAP_STRING_TO_FLOAT:
        return isinstance(value, dict) and all(
            isinstance(k, str) and isinstance(v, float) for k, v in value.items()
        )
    return False


@dataclass(frozen=True)
class ModelSchema:
    """A named message shape: ordered (field_name, SemanticType) pairs.

    The digest sorts fields by name first, so declaration order never
    affects identity. The instance is immutable, so the sorted fields and
    the digest are computed on first use and kept on it.
    """

    name: str
    fields: tuple[tuple[str, SemanticType], ...]

    def __post_init__(self) -> None:
        names = [fname for fname, _ in self.fields]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DuplicateField(f"duplicate field names: {', '.join(dupes)}")

    @staticmethod
    def build(name: str, **fields: SemanticType) -> "ModelSchema":
        return ModelSchema(name, tuple(fields.items()))

    def sorted_fields(self) -> tuple[tuple[str, SemanticType], ...]:
        cached = self.__dict__.get("_sorted_fields")
        if cached is None:
            cached = tuple(sorted(self.fields, key=lambda f: f[0].encode("utf-8")))
            self.__dict__["_sorted_fields"] = cached
        return cached

    def digest(self) -> bytes:
        cached = self.__dict__.get("_digest")
        if cached is None:
            buf = [_enc_str(self.name), struct.pack(">I", len(self.fields))]
            for fname, tag in self.sorted_fields():
                buf.append(_enc_str(fname))
                buf.append(bytes([tag]))
            cached = self.__dict__["_digest"] = hashlib.sha256(b"".join(buf)).digest()
        return cached


@dataclass(frozen=True)
class Record:
    """A value conforming to a ModelSchema. Validated on construction."""

    schema: ModelSchema
    values: Mapping[str, Any]

    def __post_init__(self) -> None:
        declared = {fname: tag for fname, tag in self.schema.fields}
        missing = sorted(set(declared) - set(self.values))
        extra = sorted(set(self.values) - set(declared))
        badtype = sorted(
            fname
            for fname, tag in declared.items()
            if fname in self.values and not _check_value(tag, self.values[fname])
        )
        if missing or extra or badtype:
            parts = []
            if missing:
                parts.append(f"missing: {', '.join(missing)}")
            if extra:
                parts.append(f"unexpected: {', '.join(extra)}")
            if badtype:
                parts.append(f"wrong type: {', '.join(badtype)}")
            raise SchemaMismatch(f"{self.schema.name}: " + "; ".join(parts))

    def __getitem__(self, key: str) -> Any:
        return self.values[key]


def canonical_encode(record: Record) -> bytes:
    """Deterministic bytes for a record: u32 field count, then each field
    sorted by name as str(name) + tag byte + encoded value."""
    buf = [struct.pack(">I", len(record.schema.fields))]
    for fname, tag in record.schema.sorted_fields():
        buf.append(_enc_str(fname))
        buf.append(bytes([tag]))
        buf.append(_enc_value(tag, record.values[fname]))
    return b"".join(buf)


class _Reader:
    """Cursor over immutable bytes; every read is bounds-checked."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise SchemaMismatch("truncated payload")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def i64(self) -> int:
        return struct.unpack(">q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self.take(8))[0]

    def string(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaMismatch(f"invalid UTF-8 in payload: {exc}") from exc

    def done(self) -> bool:
        return self.pos == len(self.data)


def _dec_value(reader: _Reader, tag: SemanticType) -> Any:
    if tag is SemanticType.STRING:
        return reader.string()
    if tag is SemanticType.INT:
        return reader.i64()
    if tag is SemanticType.FLOAT:
        return reader.f64()
    if tag is SemanticType.BOOL:
        byte = reader.u8()
        if byte not in (0, 1):
            raise SchemaMismatch(f"bool byte must be 0 or 1, got {byte}")
        return bool(byte)
    if tag is SemanticType.LIST_OF_STRING:
        return [reader.string() for _ in range(reader.u32())]
    if tag is SemanticType.MAP_STRING_TO_FLOAT:
        out: dict[str, float] = {}
        prev: bytes | None = None
        for _ in range(reader.u32()):
            key = reader.string()
            raw_key = key.encode("utf-8")
            if prev is not None and raw_key <= prev:
                raise SchemaMismatch("map keys not strictly sorted")
            prev = raw_key
            out[key] = reader.f64()
        return out
    raise SchemaMismatch(f"undecodable tag {tag!r}")


def canonical_decode(schema: ModelSchema, data: bytes) -> Record:
    """Inverse of canonical_encode; rejects trailing bytes and any layout
    that canonical_encode could not have produced."""
    reader = _Reader(data)
    count = reader.u32()
    if count != len(schema.fields):
        raise SchemaMismatch(
            f"{schema.name}: field count {count} != declared {len(schema.fields)}"
        )
    values: dict[str, Any] = {}
    for fname, tag in schema.sorted_fields():
        got_name = reader.string()
        if got_name != fname:
            raise SchemaMismatch(f"{schema.name}: expected field {fname!r}, got {got_name!r}")
        got_tag = reader.u8()
        if got_tag != int(tag):
            raise SchemaMismatch(f"{schema.name}.{fname}: tag {got_tag} != {int(tag)}")
        values[fname] = _dec_value(reader, tag)
    if not reader.done():
        raise SchemaMismatch(f"{schema.name}: {len(data) - reader.pos} trailing bytes")
    return Record(schema, values)


def record_digest(record: Record) -> bytes:
    return hashlib.sha256(canonical_encode(record)).digest()


@dataclass(frozen=True)
class ProtocolSpec:
    """A named, versioned set of message schemas.

    Two agents advertising the same protocol digest speak the same models;
    the digest covers name, version, and every member schema. Like a
    schema's, it is computed once and kept on the immutable instance.
    """

    name: str
    version: str
    models: tuple[ModelSchema, ...]

    def digest(self) -> bytes:
        if not self.models:
            raise EmptyProtocol(f"protocol {self.name!r} has no models")
        cached = self.__dict__.get("_digest")
        if cached is None:
            model_digests = sorted(m.digest() for m in self.models)
            buf = [_enc_str(self.name), _enc_str(self.version), struct.pack(">I", len(model_digests))]
            buf.extend(model_digests)
            cached = self.__dict__["_digest"] = hashlib.sha256(b"".join(buf)).digest()
        return cached

    def _models_by_digest(self) -> dict[bytes, ModelSchema]:
        """Member schemas by digest; the first declared wins a tie."""
        cached = self.__dict__.get("_by_digest")
        if cached is None:
            cached = {}
            for model in self.models:
                cached.setdefault(model.digest(), model)
            self.__dict__["_by_digest"] = cached
        return cached

    def schema_by_digest(self, digest: bytes) -> ModelSchema | None:
        return self._models_by_digest().get(digest)

    def has_schema(self, schema: ModelSchema) -> bool:
        return schema.digest() in self._models_by_digest()


@dataclass(frozen=True)
class Envelope:
    """One signed message in flight. Immutable; safe to share."""

    sender: str
    target: str
    protocol_digest: bytes
    schema_digest: bytes
    payload: bytes
    session_id: bytes
    expires_at: int
    signature: Signature

    def signing_digest(self) -> bytes:
        return envelope_signing_digest(
            self.sender,
            self.target,
            self.protocol_digest,
            self.schema_digest,
            self.payload,
            self.session_id,
            self.expires_at,
        )

    def to_bytes(self) -> bytes:
        return b"".join(
            [
                _enc_str(self.sender),
                _enc_str(self.target),
                self.protocol_digest,
                self.schema_digest,
                struct.pack(">I", len(self.payload)),
                self.payload,
                self.session_id,
                struct.pack(">q", self.expires_at),
                self.signature.data,
            ]
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Envelope":
        reader = _Reader(data)
        sender = reader.string()
        target = reader.string()
        proto = reader.take(DIGEST_LEN)
        schema = reader.take(DIGEST_LEN)
        payload = reader.take(reader.u32())
        session = reader.take(SESSION_ID_LEN)
        expires = reader.i64()
        sig = reader.take(64)
        if not reader.done():
            raise SchemaMismatch("trailing bytes after envelope")
        return cls(sender, target, proto, schema, payload, session, expires, Signature(sig))


def envelope_signing_digest(
    sender: str,
    target: str,
    proto_digest: bytes,
    sch_digest: bytes,
    payload: bytes,
    session_id: bytes,
    expires_at: int,
) -> bytes:
    buf = b"".join(
        [
            _enc_str(sender),
            _enc_str(target),
            proto_digest,
            sch_digest,
            struct.pack(">I", len(payload)),
            payload,
            session_id,
            struct.pack(">q", expires_at),
        ]
    )
    return hashlib.sha256(buf).digest()


def seal_envelope(
    identity: AgentIdentity,
    target: str,
    protocol: ProtocolSpec,
    record: Record,
    session_id: bytes,
    expires_at: int,
) -> Envelope:
    """Encode, address, and sign one record for transport."""
    if not protocol.has_schema(record.schema):
        raise SchemaNotInProtocol(
            f"schema {record.schema.name!r} not in protocol {protocol.name!r}"
        )
    if len(session_id) != SESSION_ID_LEN:
        raise WireError(f"session_id must be {SESSION_ID_LEN} bytes")
    payload = canonical_encode(record)
    proto = protocol.digest()
    schema = record.schema.digest()
    digest = envelope_signing_digest(
        identity.address, target, proto, schema, payload, session_id, expires_at
    )
    return Envelope(
        sender=identity.address,
        target=target,
        protocol_digest=proto,
        schema_digest=schema,
        payload=payload,
        session_id=session_id,
        expires_at=expires_at,
        signature=identity.sign_digest(digest),
    )


def open_envelope(
    env: Envelope,
    known_schemas: Iterable[ModelSchema],
    current_height: int,
) -> tuple[Record, str]:
    """Validate and decode one envelope.

    Check order is fixed: signature, then expiry, then schema lookup, then
    payload decode. Each failure is a distinct typed error so transports can
    report precise diagnostics.
    """
    try:
        ok = verify_digest(env.sender, env.signing_digest(), env.signature)
    except Exception:
        ok = False
    if not ok:
        raise SignatureInvalid(f"envelope from {env.sender} fails verification")
    if env.expires_at < current_height:
        raise Expired(f"expired at height {env.expires_at}, now {current_height}")
    schema = None
    for candidate in known_schemas:
        if candidate.digest() == env.schema_digest:
            schema = candidate
            break
    if schema is None:
        raise UnknownSchema(f"no schema with digest {env.schema_digest.hex()[:16]}")
    try:
        record = canonical_decode(schema, env.payload)
    except SchemaMismatch as exc:
        # Signed, unexpired, digest matches a schema we know, yet the payload
        # does not parse as it: the bytes belong to no known schema.
        raise UnknownSchema(f"payload does not decode as {schema.name}: {exc}") from exc
    return record, env.sender


# The built-in chat protocol: free-form negotiation text between agents.
# msg_id is 16 bytes carried as 32 hex chars (the wire has no bytes type).
CHAT_MESSAGE = ModelSchema.build(
    "ChatMessage",
    timestamp=SemanticType.STRING,
    msg_id=SemanticType.STRING,
    content=SemanticType.LIST_OF_STRING,
)

CHAT_PROTOCOL = ProtocolSpec("ChatProtocol", "1.0", (CHAT_MESSAGE,))


def make_chat_message(timestamp: str, msg_id: bytes, content: list[str]) -> Record:
    if not content:
        raise SchemaMismatch("ChatMessage content must be non-empty")
    if len(msg_id) != SESSION_ID_LEN:
        raise WireError(f"msg_id must be {SESSION_ID_LEN} bytes")
    return Record(
        CHAT_MESSAGE,
        {"timestamp": timestamp, "msg_id": msg_id.hex(), "content": list(content)},
    )
