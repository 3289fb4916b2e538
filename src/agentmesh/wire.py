"""Canonical message encoding, schema digests, and signed envelopes.

Everything agents exchange is a typed record conforming to a ModelSchema.
Records encode to a canonical byte string (sorted field names, length
prefixes, fixed-width numerics) so that digests are reproducible on any
platform. Schemas hash to a 32-byte digest; protocols hash their name,
version, and member schema digests. An Envelope wraps one encoded record
with sender, target, session id, and block-height expiry, all signed by
the sender's key. The target names one recipient or several, so one
signature covers a message sent to a named set of agents.

Byte layouts are documented bit-exactly in docs/wire.md.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Any, Callable, Mapping

# unused here; bench/tests/test_bench.py looks verify_digest up on this module
from .identity import AgentIdentity, Job, Signature, signed_by, verify_digest

SESSION_ID_LEN = 16
DIGEST_LEN = 32
RECIPIENT_SEP = ","  # joins the addresses of an envelope sent to several agents
# Most addresses one envelope names. Every copy carries the whole target
# (59 bytes an address), and a mailbox charges each queue the full size, so
# this keeps an auction message near 3 KB: a queue's 1,024-envelope cap
# binds before its 4 MiB byte cap, as for an envelope to one agent.
MAX_RECIPIENTS = 50


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


class Misaddressed(WireError):
    """Envelope does not name the agent it was handed to."""


class SemanticType(IntEnum):
    """Wire type tags. The tag byte is part of the canonical encoding."""

    STRING = 1
    INT = 2
    FLOAT = 3
    BOOL = 4
    LIST_OF_STRING = 5
    MAP_STRING_TO_FLOAT = 6


_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
I64_MIN, I64_MAX = -(2**63), 2**63 - 1


def _enc_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U32.pack(len(raw)) + raw


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
            try:
                cached = tuple(sorted(self.fields, key=lambda f: f[0].encode("utf-8")))
            except UnicodeEncodeError as exc:
                raise SchemaMismatch(f"{self.name}: field name not UTF-8: {exc}") from None
            self.__dict__["_sorted_fields"] = cached
        return cached

    def digest(self) -> bytes:
        cached = self.__dict__.get("_digest")
        if cached is None:
            try:
                buf = [_enc_str(self.name), struct.pack(">I", len(self.fields))]
            except UnicodeEncodeError as exc:
                raise SchemaMismatch(f"schema name not UTF-8: {exc}") from None
            for fname, tag in self.sorted_fields():
                buf.append(_enc_str(fname))
                buf.append(bytes([tag]))
            cached = self.__dict__["_digest"] = hashlib.sha256(b"".join(buf)).digest()
        return cached

    @cached_property
    def _codec(self) -> "_Codec":
        return _Codec(self)


@dataclass(frozen=True)
class Record:
    """A value conforming to a ModelSchema. Validated on construction."""

    schema: ModelSchema
    values: Mapping[str, Any]

    def __post_init__(self) -> None:
        self.schema._codec.validate(self.values)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]


def canonical_encode(record: Record) -> bytes:
    """Deterministic bytes for a record: u32 field count, then each field
    sorted by name as str(name) + tag byte + encoded value."""
    return record.schema._codec.encode(record.values)


def canonical_decode(schema: ModelSchema, data: bytes) -> Record:
    """Inverse of canonical_encode; rejects trailing bytes and any layout
    that canonical_encode could not have produced."""
    return schema._codec.decode(data)


# ---------------------------------------------------------------------------
# generated codecs
#
# Each schema gets one encoder, decoder and validator, written as Python
# source for its sorted fields and compiled once, the way dataclasses builds
# __init__. A field's head, str(name) || tag byte, is a bytes constant (the
# first one also carries the u32 field count), so the encoder is one join and
# the decoder checks each head with one slice compare. Only a failed check
# goes back over the input to say what is wrong, with the same messages a
# field-by-field reader would give.

# the test that a value `v` has a tag's type, inlined by the validator
_TYPE_TESTS = {
    SemanticType.STRING: "isinstance(v, str)",
    # bool passes isinstance(int); reject it so tags stay unambiguous
    SemanticType.INT: "isinstance(v, int) and not isinstance(v, bool)",
    SemanticType.FLOAT: "isinstance(v, float)",
    SemanticType.BOOL: "isinstance(v, bool)",
    SemanticType.LIST_OF_STRING: "isinstance(v, list) and all([isinstance(i, str) for i in v])",
    SemanticType.MAP_STRING_TO_FLOAT: (
        "isinstance(v, dict)"
        " and all([isinstance(k, str) and isinstance(x, float) for k, x in v.items()])"
    ),
}
_I64_TEST = f"{I64_MIN} <= v <= {I64_MAX}"
_IS_TYPE = {tag: eval(f"lambda v: {test}") for tag, test in _TYPE_TESTS.items()}
_IN_I64 = eval(f"lambda v: {_I64_TEST}")

_TRUNCATED = "truncated payload"

# the statements that read one value of a tag into `v` and advance `pos`
_READERS = {
    SemanticType.STRING: """\
stop = pos + 4 + U32(data, pos)[0]
if stop > end:
    raise SchemaMismatch(TRUNCATED)
v = data[pos + 4:stop].decode()
pos = stop""",
    SemanticType.INT: "v = I64(data, pos)[0]\npos += 8",
    SemanticType.FLOAT: "v = F64(data, pos)[0]\npos += 8",
    SemanticType.BOOL: """\
v = data[pos]
if v > 1:
    raise SchemaMismatch(f"bool byte must be 0 or 1, got {v}")
v = v == 1
pos += 1""",
    SemanticType.LIST_OF_STRING: "v, pos = dec_list(data, pos, end)",
    SemanticType.MAP_STRING_TO_FLOAT: "v, pos = dec_map(data, pos, end)",
}


# the list and map readers; like the inline ones they leave a short read to
# struct.error, caught by the generated decoder
def _dec_list(data: bytes, pos: int, end: int) -> tuple[list[str], int]:
    items = []
    count = _U32.unpack_from(data, pos)[0]
    pos += 4
    for _ in range(count):
        stop = pos + 4 + _U32.unpack_from(data, pos)[0]
        if stop > end:
            raise SchemaMismatch(_TRUNCATED)
        items.append(data[pos + 4:stop].decode())
        pos = stop
    return items, pos


def _dec_map(data: bytes, pos: int, end: int) -> tuple[dict[str, float], int]:
    mapping = {}
    count = _U32.unpack_from(data, pos)[0]
    pos += 4
    prev = None
    for _ in range(count):
        stop = pos + 4 + _U32.unpack_from(data, pos)[0]
        if stop > end:
            raise SchemaMismatch(_TRUNCATED)
        raw = data[pos + 4:stop]
        key = raw.decode()
        if prev is not None and raw <= prev:
            raise SchemaMismatch("map keys not strictly sorted")
        prev = raw
        mapping[key] = _F64.unpack_from(data, stop)[0]
        pos = stop + 8
    return mapping, pos


def _enc_list(items: list[str]) -> bytes:
    return _U32.pack(len(items)) + b"".join(map(_enc_str, items))


def _enc_map(mapping: dict[str, float]) -> bytes:
    keys = sorted(mapping, key=lambda key: key.encode("utf-8"))
    return _U32.pack(len(keys)) + b"".join(_enc_str(k) + _F64.pack(mapping[k]) for k in keys)


def _indent(block: str, depth: int) -> str:
    return "".join(" " * depth + line + "\n" for line in block.splitlines())


class _Codec:
    """One schema's generated `encode(values) -> bytes`,
    `decode(data) -> Record` and `validate(values)`, each compiled on first
    use: many schemas are only ever built and encoded, or only decoded."""

    def __init__(self, schema: ModelSchema) -> None:
        try:
            fields = tuple((fname, SemanticType(tag)) for fname, tag in schema.sorted_fields())
        except ValueError as exc:
            raise SchemaMismatch(f"{schema.name}: {exc}") from None
        heads = [_enc_str(fname) + bytes([tag]) for fname, tag in fields]
        heads[:1] = [_U32.pack(len(fields)) + b"".join(heads[:1])]
        self._fields, self._heads, self._name = fields, heads, schema.name
        self._namespace = {
            **{f"HEAD{i}": head for i, head in enumerate(heads)},
            "schema": schema,
            "KEYS": frozenset(fname for fname, _ in fields),
            "U32": _U32.unpack_from,
            "I64": _I64.unpack_from,
            "F64": _F64.unpack_from,
            "pack_u32": _U32.pack,
            "pack_i64": _I64.pack,
            "pack_f64": _F64.pack,
            "enc_list": _enc_list,
            "enc_map": _enc_map,
            "dec_list": _dec_list,
            "dec_map": _dec_map,
            "mismatch": _mismatch,
            "head_error": _head_error,
            "trusted_record": _trusted_record,
            "SchemaMismatch": SchemaMismatch,
            "TRUNCATED": _TRUNCATED,
            "struct_error": struct.error,
        }

    def _compile(self, source: str, name: str) -> Callable:
        exec(compile(source, f"<codec {self._name!r}>", "exec"), self._namespace)
        return self._namespace[name]

    @cached_property
    def encode(self) -> Callable[[Mapping[str, Any]], bytes]:
        return self._compile(_encoder_source(self._fields), "encode")

    @cached_property
    def decode(self) -> Callable[[bytes], "Record"]:
        return self._compile(_decoder_source(self._fields, self._heads), "decode")

    @cached_property
    def validate(self) -> Callable[[Mapping[str, Any]], None]:
        return self._compile(_validator_source(self._fields), "validate")


def _encoder_source(fields) -> str:
    lines, parts = [], []
    for i, (fname, tag) in enumerate(fields):
        value = f"values[{fname!r}]"
        parts.append(f"HEAD{i}")
        if tag is SemanticType.STRING:
            lines.append(f"s{i} = {value}.encode()")
            parts += [f"pack_u32(len(s{i}))", f"s{i}"]
        elif tag is SemanticType.INT:
            parts.append(f"pack_i64({value})")
        elif tag is SemanticType.FLOAT:
            parts.append(f"pack_f64({value})")
        elif tag is SemanticType.BOOL:
            parts.append(f'(b"\\x01" if {value} else b"\\x00")')
        elif tag is SemanticType.LIST_OF_STRING:
            parts.append(f"enc_list({value})")
        else:
            parts.append(f"enc_map({value})")
    if not fields:
        parts.append("HEAD0")
    lines.append(f"return b''.join(({', '.join(parts)},))")
    # a lone surrogate passes the type checks but has no UTF-8 form
    return (
        "def encode(values):\n"
        "    try:\n"
        + _indent("\n".join(lines), 8)
        + "    except UnicodeEncodeError as exc:\n"
        '        raise SchemaMismatch(f"{schema.name}: text not UTF-8: {exc}") from None\n'
    )


def _decoder_source(fields, heads: list[bytes]) -> str:
    body = [
        f"if data[0:{len(heads[0])}] != HEAD0:",
        "    raise head_error(schema, data, 0, 0)",
        f"pos = {len(heads[0])}",
    ]
    for i, (_, tag) in enumerate(fields):
        if i:
            body += [
                f"if data[pos:pos + {len(heads[i])}] != HEAD{i}:",
                f"    raise head_error(schema, data, pos, {i})",
                f"pos += {len(heads[i])}",
            ]
        body += [_READERS[tag], f"v{i} = v"]
    values = ", ".join(f"{fname!r}: v{i}" for i, (fname, _) in enumerate(fields))
    return (
        "def decode(data):\n"
        "    end = len(data)\n"
        "    try:\n"
        + _indent("\n".join(body), 8)
        + "    except (struct_error, IndexError):\n"
        "        raise SchemaMismatch(TRUNCATED) from None\n"
        "    except UnicodeDecodeError as exc:\n"
        '        raise SchemaMismatch(f"invalid UTF-8 in payload: {exc}") from exc\n'
        "    if pos != end:\n"
        '        raise SchemaMismatch(f"{schema.name}: {end - pos} trailing bytes")\n'
        f"    return trusted_record(schema, {{{values}}})\n"
    )


def _validator_source(fields) -> str:
    lines = ["if values.keys() != KEYS:", "    raise mismatch(schema, values)"]
    for fname, tag in fields:
        test = _TYPE_TESTS[tag]
        if tag is SemanticType.INT:
            test = f"{test} and {_I64_TEST}"
        lines += [f"v = values[{fname!r}]", f"if not ({test}):", "    raise mismatch(schema, values)"]
    return "def validate(values):\n" + _indent("\n".join(lines), 4)


def _mismatch(schema: ModelSchema, values: Mapping[str, Any]) -> SchemaMismatch:
    """What is wrong with values that failed a validator, listed in full."""
    declared = dict(schema.fields)
    present = sorted(fname for fname in declared if fname in values)
    badtype = [fname for fname in present if not _IS_TYPE[declared[fname]](values[fname])]
    outside = [
        fname
        for fname in present
        if declared[fname] == SemanticType.INT
        and fname not in badtype
        and not _IN_I64(values[fname])
    ]
    faults = (
        ("missing", sorted(set(declared) - set(values))),
        ("unexpected", sorted(set(values) - set(declared))),
        ("wrong type", badtype),
        ("out of i64 range", outside),
    )
    parts = [f"{label}: {', '.join(names)}" for label, names in faults if names]
    return SchemaMismatch(f"{schema.name}: " + "; ".join(parts))


def _head_error(schema: ModelSchema, data: bytes, pos: int, index: int) -> SchemaMismatch:
    """Why the field head at `pos` (for index 0, the field count before it)
    does not match the schema's sorted field `index`."""
    try:
        if index == 0:
            count = _U32.unpack_from(data, 0)[0]
            if count != len(schema.fields):
                return SchemaMismatch(
                    f"{schema.name}: field count {count} != declared {len(schema.fields)}"
                )
            pos = 4
        fname, tag = schema.sorted_fields()[index]
        stop = pos + 4 + _U32.unpack_from(data, pos)[0]
        if stop > len(data):
            return SchemaMismatch(_TRUNCATED)
        got_name = data[pos + 4:stop].decode("utf-8")
        if got_name != fname:
            return SchemaMismatch(f"{schema.name}: expected field {fname!r}, got {got_name!r}")
        got_tag = data[stop]
        if got_tag != tag:
            return SchemaMismatch(f"{schema.name}.{fname}: tag {got_tag} != {int(tag)}")
    except (struct.error, IndexError):
        return SchemaMismatch(_TRUNCATED)
    except UnicodeDecodeError as exc:
        return SchemaMismatch(f"invalid UTF-8 in payload: {exc}")
    raise AssertionError(f"{schema.name}: field head {index} matches after all")


def _trusted_record(schema: ModelSchema, values: dict[str, Any]) -> "Record":
    """A Record the decoder has already checked, built without validating
    it again."""
    record = object.__new__(Record)
    # frozen: set past __setattr__, as the dataclass __init__ does
    object.__setattr__(record, "schema", schema)
    object.__setattr__(record, "values", values)
    return record


class _Reader:
    """Cursor over immutable bytes; every read is bounds-checked."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise SchemaMismatch(_TRUNCATED)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def i64(self) -> int:
        return _I64.unpack(self.take(8))[0]

    def string(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaMismatch(f"invalid UTF-8 in payload: {exc}") from exc

    def done(self) -> bool:
        return self.pos == len(self.data)


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

    def _unsigned_bytes(self) -> bytes:
        return _unsigned_envelope(
            self.sender,
            self.target,
            self.protocol_digest,
            self.schema_digest,
            self.payload,
            self.session_id,
            self.expires_at,
        )

    def signing_digest(self) -> bytes:
        """SHA-256 of the unsigned bytes. seal_envelope keeps the digest it
        signed on the envelope it makes; any other envelope (from_bytes,
        dataclasses.replace) hashes its own bytes."""
        digest = self.__dict__.get("_signing_digest")
        if digest is None:
            digest = hashlib.sha256(self._unsigned_bytes()).digest()
        return digest

    def check(self) -> Job:
        """The job that works out whether the sender's key signed this
        envelope (identity.signed_by): made once and kept on the envelope,
        which is immutable, so every thread that asks shares one check. Kept
        by hand, as ModelSchema.digest is, because a cached_property takes
        one lock across all envelopes and would serialise a pool's checks."""
        state = self.__dict__
        job = state.get("_check")
        if job is None:
            job = Job(signed_by, self.sender, self.signing_digest(), self.signature)
            job = state.setdefault("_check", job)  # atomic: every thread gets one job
        return job

    def signed(self) -> bool:
        """Whether the sender's key signed this envelope; see check()."""
        return self.check().result()

    def run_ahead(self) -> None:
        """Work out signed() here unless it is known or claimed (for the
        verify pool): a pending signature is made first. Never waits."""
        self.check().run_ahead()

    def to_bytes(self) -> bytes:
        return self._unsigned_bytes() + self.signature.data

    @cached_property
    def payload_prefix(self) -> str:
        """The first 8 hex chars of the payload's SHA-256, which key the
        envelope's transcript lines; worked out once, not once a copy."""
        return hashlib.sha256(self.payload).hexdigest()[:8]

    @cached_property
    def size(self) -> int:
        """len(self.to_bytes()), worked out once."""
        return len(self.to_bytes())

    @property
    def recipients(self) -> tuple[str, ...]:
        """The distinct addresses the target names, in the sender's order."""
        return tuple(self._named)

    def names(self, address: str) -> bool:
        """Whether the target names address; one lookup however many it names."""
        return address in self._named

    @cached_property
    def _named(self) -> dict[str, None]:
        return dict.fromkeys(self.target.split(RECIPIENT_SEP))

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


def _unsigned_envelope(
    sender: str,
    target: str,
    proto_digest: bytes,
    sch_digest: bytes,
    payload: bytes,
    session_id: bytes,
    expires_at: int,
) -> bytes:
    """An envelope's bytes less its signature, in wire order (docs/wire.md)."""
    return b"".join(
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


def seal_envelope(
    identity: AgentIdentity,
    target: str,
    protocol: ProtocolSpec,
    record: Record,
    session_id: bytes,
    expires_at: int,
) -> Envelope:
    """Encode, address, and sign one record for transport. `target` is one
    address or up to MAX_RECIPIENTS distinct ones joined by RECIPIENT_SEP;
    each named agent may receive it under this one signature, which
    Signature.pending may leave pending: made on the verify pool once the
    envelope is handed to it, or by the first thread that reads it."""
    if not protocol.has_schema(record.schema):
        raise SchemaNotInProtocol(
            f"schema {record.schema.name!r} not in protocol {protocol.name!r}"
        )
    if len(session_id) != SESSION_ID_LEN:
        raise WireError(f"session_id must be {SESSION_ID_LEN} bytes")
    recipients = target.split(RECIPIENT_SEP)
    if "" in recipients or len(set(recipients)) != len(recipients):
        raise WireError(f"target must name distinct, non-empty addresses: {target!r}")
    if len(recipients) > MAX_RECIPIENTS:
        raise WireError(f"target names {len(recipients)} addresses, over {MAX_RECIPIENTS}")
    payload = canonical_encode(record)
    proto = protocol.digest()
    schema = record.schema.digest()
    unsigned = _unsigned_envelope(
        identity.address, target, proto, schema, payload, session_id, expires_at
    )
    digest = hashlib.sha256(unsigned).digest()
    signature = Signature.pending(Job(identity.sign_digest, digest))
    env = Envelope(
        sender=identity.address,
        target=target,
        protocol_digest=proto,
        schema_digest=schema,
        payload=payload,
        session_id=session_id,
        expires_at=expires_at,
        signature=signature,
    )
    env.__dict__["_signing_digest"] = digest  # what signed() checks; see signing_digest
    return env


def check_envelope(env: Envelope, current_height: int, recipient: str) -> None:
    """Accept an envelope from outside for `recipient` or raise:
    SignatureInvalid unless its sender signed it, then Misaddressed unless
    its signed target names the recipient, then Expired if its expiry
    height has passed. Every reader and every mailbox deposit makes these
    three checks here, so a copy reaches only an agent its signer named."""
    if not env.signed():
        raise SignatureInvalid(f"envelope from {env.sender} fails verification")
    if not env.names(recipient):
        raise Misaddressed(f"envelope for {env.target} handed to {recipient}")
    if env.expires_at < current_height:
        raise Expired(f"expired at height {env.expires_at}, now {current_height}")


def open_envelope(
    env: Envelope,
    known_schemas: Mapping[bytes, ModelSchema],
    current_height: int,
    recipient: str,
) -> tuple[Record, str]:
    """Validate and decode one envelope handed to `recipient`.

    `known_schemas` maps a schema digest to its schema. Check order is
    fixed: signature, then recipient, then expiry, then schema lookup, then
    payload decode. Each failure is a distinct typed error so transports can
    report precise diagnostics.

    Each open decodes the payload afresh, so every copy of a multicast
    envelope hands its recipient a record of its own.
    """
    check_envelope(env, current_height, recipient)
    schema = known_schemas.get(env.schema_digest)
    if schema is None:
        raise UnknownSchema(f"no schema with digest {env.schema_digest.hex()[:16]}")
    try:
        return canonical_decode(schema, env.payload), env.sender
    except SchemaMismatch as exc:
        # Signed, unexpired, digest matches a schema we know, yet the
        # payload does not parse as it: the bytes belong to no known schema.
        raise UnknownSchema(f"payload does not decode as {schema.name}: {exc}") from exc


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
