"""Agent execution engine and the simulated network world.

Agent code runs in two cases only: a message is delivered, or a timer
falls due. Agents register message handlers and exchange signed envelopes
through a World that owns the clock. Time is a logical tick
counter equal to the ledger block height: one tick is one block. The world
delivers a copy of each envelope to every recipient its target names, each
with its own seeded random latency and drop draw, redirects copies for
offline agents to the mailbox when one is attached, and appends one
transcript line per delivery outcome: the pipe-joined string
of docs/wire.md, rendered once when the event happens and kept as it is.
Identical (config, seed) runs produce byte-identical transcripts. Nothing
polls: `ctx.at(height, fn)` sets a timer on one world heap, and
`on_interval(p)` is a timer that fires at each multiple of p. Once enough
envelopes are in flight, a send hands each one the world will open to the
process's verify pool (identity.VerifyPool), whose threads run claim-once
jobs: here the envelope's signature check, while the calling thread runs the
handlers of earlier deliveries; dispatch keeps the order and the outcomes.
The same pool derives a world's key pairs and checks its registrations
ahead while it is built. Every copy reaches its recipient through
Agent.dispatch, which refuses one that does not name its agent and gives an
awaited reply to its waiter.

Handlers inside one agent never overlap; the world may interleave agents
but each dispatch is serialized per agent (enforced with a reentrancy
flag, asserted in tests).

The world owns its agents; an agent does not keep its world alive.
Agent.world is a weak link that reads None before the agent joins a world
and after that world is gone, so a dropped world is freed at once, by
reference counting. Callers hold the World (or the ScenarioWorld around
it) while they use its agents.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import struct
import weakref
from dataclasses import dataclass
from typing import Any, Callable

from .identity import POOL_MIN_BATCH, AgentIdentity, verifies_overlap, verify_pool
from .ledger import Ledger
from .mailbox import MailboxStore, retrieval_auth_digest
from .registry import Registry
from .wire import (
    Envelope,
    Expired,
    Misaddressed,
    ModelSchema,
    ProtocolSpec,
    Record,
    SchemaNotInProtocol,
    SignatureInvalid,
    UnknownSchema,
    WireError,
    open_envelope,
    seal_envelope,
)

DEFAULT_REPLY_TTL = 100  # blocks an emitted envelope stays valid


class RuntimeError_(Exception):
    """Base for runtime failures."""


class DuplicateHandler(RuntimeError_):
    """A handler is already registered for that schema."""


class AgentAlreadyStarted(RuntimeError_):
    """Registration attempted after the agent joined a world."""


class AgentNotStarted(RuntimeError_):
    """Dispatch attempted before the agent joined a world."""


class Timeout(RuntimeError_):
    """A wait for a reply ran out of ticks."""


class HandlerOverlap(RuntimeError_):
    """Two handlers of one agent ran concurrently (must never happen)."""


class DrainIncomplete(RuntimeError_):
    """World.drain ran out of ticks before the world settled."""

    def __init__(self, max_ticks: int, in_flight: int, presence_changes: int, timers: int) -> None:
        super().__init__(
            f"not settled after {max_ticks} ticks: {in_flight} envelopes in flight, "
            f"{presence_changes} presence changes pending, {timers} timers pending"
        )
        self.in_flight = in_flight
        self.presence_changes = presence_changes
        self.timers = timers


class InvalidRecord(WireError):
    """A handler refuses a record that decoded but whose values it cannot
    act on; dispatch logs it like an envelope that failed to open."""


def _line(tick: int, sender: str, target: str, schema_name: str, digest_prefix: str,
          outcome: str) -> str:
    """One observable event, in the one layout the transcript keeps."""
    return f"{tick}|{sender}|{target}|{schema_name}|{digest_prefix}|{outcome}"


def transcript_line(height: int, env: Envelope, recipient: str, outcome: str,
                    schema_name: str) -> str:
    """The transcript line for one envelope's copy to `recipient`, keyed by
    its payload digest."""
    return _line(height, env.sender, recipient, schema_name, env.payload_prefix, outcome)


# what an envelope that fails to open is logged as
_REJECT_OUTCOMES: dict[type[WireError], str] = {
    SignatureInvalid: "signature_invalid",
    Misaddressed: "misaddressed",
    Expired: "expired",
    UnknownSchema: "unknown_schema",
    InvalidRecord: "invalid_record",
}


class Context:
    """What a handler sees: its agent, the clock, and an outbox."""

    def __init__(
        self,
        agent: "Agent",
        height: int,
        sender: str | None = None,
        session_id: bytes | None = None,
        schema_name: str | None = None,
        digest_prefix: str = "-",
    ) -> None:
        self.agent = agent
        self.height = height
        self.sender = sender
        self.session_id = session_id
        self.outbound: list[Envelope] = []
        self._schema_name = schema_name
        self._digest_prefix = digest_prefix

    @property
    def address(self) -> str:
        return self.agent.identity.address

    def send(
        self,
        target: str,
        record: Record,
        session_id: bytes | None = None,
        expires_at: int | None = None,
    ) -> Envelope:
        """Seal and queue one envelope, to one address or to several joined
        by RECIPIENT_SEP under one signature; the transport picks it up after
        the handler returns. Every envelope an agent emits is sealed here, by
        default in this context's session, or a fresh one outside any."""
        protocol = self.agent.protocol_for(record.schema)
        if session_id is None:
            session_id = self.session_id or self.agent.fresh_session_id()
        if expires_at is None:
            expires_at = self.height + DEFAULT_REPLY_TTL
        env = seal_envelope(
            self.agent.identity, target, protocol, record, session_id, expires_at
        )
        self.outbound.append(env)
        return env

    def at(self, height: int, handler: Callable) -> None:
        """Run handler(ctx) once, in the first timer phase at or after tick
        `height`, in this context's session."""
        self.agent.world.schedule_timer(self.agent, height, handler, session_id=self.session_id)

    def reply(self, record: Record, expires_at: int | None = None) -> Envelope:
        """Send back to the incoming sender, reusing its session id."""
        if self.sender is None or self.session_id is None:
            raise RuntimeError_("reply() outside a message handler")
        return self.send(self.sender, record, self.session_id, expires_at)

    def diag(self, outcome: str) -> None:
        """Record a handler-level diagnostic in the world transcript."""
        self.agent.record_diag(
            _line(
                self.height,
                self.sender or self.address,
                self.address,
                self._schema_name or "-",
                self._digest_prefix,
                outcome,
            )
        )


class Agent:
    """One agent: identity, protocols and handlers."""

    def __init__(self, name: str, identity: AgentIdentity) -> None:
        self.name = name
        self.identity = identity
        self.protocols: list[ProtocolSpec] = []
        self.message_handlers: dict[bytes, Callable] = {}
        self.interval_handlers: list[tuple[int, Callable]] = []
        self.started = False
        # digest -> schema over every included protocol, first declared wins;
        # include_protocol raises after start, so it never goes stale
        self._schemas: dict[bytes, ModelSchema] = {}
        self._world: "weakref.ref[World] | None" = None  # set by World.add_agent
        self._in_handler = False
        self._session_counter = 0
        # (session, peer) asked -> None until dispatch takes the peer's first
        # signed reply: then its record, or the error of a check it failed
        self.waiters: dict[tuple[bytes, str], Record | WireError | None] = {}

    @property
    def world(self) -> "World | None":
        """The world this agent joined, or None before it joins one and
        after that world is gone."""
        return None if self._world is None else self._world()

    # -- setup (before start) ---------------------------------------------

    def _refuse_if_started(self) -> None:
        if self.started:
            raise AgentAlreadyStarted(f"{self.name} already started")

    def include_protocol(self, spec: ProtocolSpec) -> None:
        self._refuse_if_started()
        if any(p.digest() == spec.digest() for p in self.protocols):
            return
        self.protocols.append(spec)
        for model in spec.models:
            self._schemas.setdefault(model.digest(), model)

    def on_interval(self, period: int) -> Callable:
        """Decorator: run fn(ctx) at every multiple of `period` ticks."""
        def wrap(fn: Callable) -> Callable:
            if period < 1:
                raise RuntimeError_("interval period must be >= 1 tick")
            self._refuse_if_started()
            self.interval_handlers.append((period, fn))
            return fn
        return wrap

    def on_message(self, schema: ModelSchema) -> Callable:
        """Decorator: run fn(ctx, sender, record) on each delivered `schema`."""
        def wrap(fn: Callable) -> Callable:
            self._refuse_if_started()
            if not any(p.has_schema(schema) for p in self.protocols):
                raise SchemaNotInProtocol(f"{schema.name} is in none of {self.name}'s protocols")
            digest = schema.digest()
            if digest in self.message_handlers:
                raise DuplicateHandler(f"handler for {schema.name} already registered")
            self.message_handlers[digest] = fn
            return fn
        return wrap

    # -- runtime ------------------------------------------------------------

    def start(self) -> None:
        self.started = True

    def known_schemas(self) -> list[ModelSchema]:
        return list(self._schemas.values())

    def protocol_for(self, schema: ModelSchema) -> ProtocolSpec:
        for proto in self.protocols:
            if proto.has_schema(schema):
                return proto
        raise SchemaNotInProtocol(f"{schema.name} is in none of {self.name}'s protocols")

    def fresh_session_id(self) -> bytes:
        """Deterministic 16-byte session id (no wall clock, no uuid)."""
        self._session_counter += 1
        return hashlib.sha256(
            b"session" + self.identity.verify_key + struct.pack(">Q", self._session_counter)
        ).digest()[:16]

    def record_diag(self, line: str) -> None:
        world = self.world
        if world is not None:
            world.transcript.append(line)

    def _run_handler(self, handler: Callable, *args: Any) -> Any:
        if self._in_handler:
            raise HandlerOverlap(f"handler overlap inside {self.name}")
        self._in_handler = True
        try:
            return handler(*args)
        finally:
            self._in_handler = False

    def invoke(self, handler: Callable, height: int,
               session_id: bytes | None = None) -> list[Envelope]:
        """Run a timer handler, which takes only a context, in the session
        that set it; returns what it sent."""
        ctx = Context(self, height, session_id=session_id)
        self._run_handler(handler, ctx)
        return ctx.outbound

    def dispatch(self, env: Envelope, current_height: int) -> list[Envelope]:
        """Validate one envelope and run its handler.

        Fire-and-forget: validation failures drop the envelope and record a
        diagnostic; nothing flows back to the sender. An awaited reply goes
        to its waiter, not to a handler. Returns the envelopes the handler
        emitted, sealed and ready for transport.
        """
        if not self.started:
            raise AgentNotStarted(f"{self.name} has not joined a world")
        key = (env.session_id, env.sender)
        awaited = key in self.waiters and self.waiters[key] is None
        address = self.identity.address
        try:
            record, sender = open_envelope(env, self._schemas, current_height, address)
        except tuple(_REJECT_OUTCOMES) as exc:
            self.record_diag(self._reject_line(current_height, env, exc))
            # neither a bad signature nor a copy the peer sent another agent
            # says anything of the peer's reply, so its wait goes on
            if awaited and not isinstance(exc, (SignatureInvalid, Misaddressed)):
                failed = type(exc)
                self.waiters[key] = failed(f"query reply failed validation: {failed.__name__}")
            return []
        schema_name = record.schema.name
        if awaited:
            self.waiters[key] = record
            self.record_diag(
                transcript_line(current_height, env, address, "reply_received", schema_name)
            )
            return []
        handler = self.message_handlers.get(env.schema_digest)
        if handler is None:
            self.record_diag(
                transcript_line(current_height, env, address, "no_handler", schema_name)
            )
            return []
        # the handler's diagnostics share the handled line's digest prefix
        prefix = env.payload_prefix
        ctx = Context(
            self,
            current_height,
            sender=sender,
            session_id=env.session_id,
            schema_name=schema_name,
            digest_prefix=prefix,
        )
        try:
            result = self._run_handler(handler, ctx, sender, record)
        except InvalidRecord as exc:
            self.record_diag(self._reject_line(current_height, env, exc))
            return []
        if isinstance(result, Record):
            ctx.reply(result)
        self.record_diag(
            _line(current_height, env.sender, address, schema_name, prefix, "handled")
        )
        return ctx.outbound

    def _reject_line(self, height: int, env: Envelope, exc: WireError) -> str:
        """The line for an envelope to this agent that failed to open."""
        outcome, schema_name = _REJECT_OUTCOMES[type(exc)], self._schema_name_of(env.schema_digest)
        return transcript_line(height, env, self.identity.address, outcome, schema_name)

    def _schema_name_of(self, digest: bytes) -> str:
        schema = self._schemas.get(digest)
        return digest.hex()[:8] if schema is None else schema.name


@dataclass
class NetworkModel:
    """Latency range in ticks plus an independent drop probability.

    Latency is at least 1 tick so a handler's output can never re-enter the
    same tick's delivery loop.
    """

    latency_min: int = 1
    latency_max: int = 1
    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_min < 1 or self.latency_max < self.latency_min:
            raise RuntimeError_("latency range must satisfy 1 <= min <= max")
        if not (0.0 <= self.drop_probability < 1.0):
            raise RuntimeError_("drop probability must be in [0, 1)")


class World:
    """Discrete-tick scheduler owning the clock, transport, and transcript."""

    def __init__(
        self,
        ledger: Ledger,
        registry: Registry | None = None,
        mailbox: MailboxStore | None = None,
        network: NetworkModel | None = None,
        seed: int = 0,
    ) -> None:
        self.ledger = ledger
        self.registry = registry if registry is not None else Registry()
        self.mailbox = mailbox
        self.network = network if network is not None else NetworkModel()
        self.rng = random.Random(seed)
        self.agents: dict[str, Agent] = {}
        self.online: dict[str, bool] = {}
        self.transcript: list[str] = []
        # heap of (due, send order, envelope, recipient, dropped)
        self._in_flight: list[tuple[int, int, Envelope, str, bool]] = []
        self._send_seq = 0
        self._last_delivery: dict[tuple[str, str], int] = {}
        self._status_changes: list[tuple[int, str, bool]] = []  # a heap
        # heap of (due, join rank, set order, agent, handler, period; 0 = once, session)
        self._timers: list[tuple] = []
        self._timer_seq = 0
        self._parked: dict[str, list[tuple]] = {}  # offline agent -> its due timers
        self._rank: dict[str, int] = {}
        # schema digest -> name over every agent's schemas (the name is part
        # of the digest, so agents never disagree on it)
        self._schema_names: dict[bytes, str] = {}

    @property
    def height(self) -> int:
        return self.ledger.height

    # -- population --------------------------------------------------------

    def add_agent(self, agent: Agent) -> None:
        if agent.identity.address in self.agents:
            raise RuntimeError_(f"agent {agent.name} already in world")
        agent._world = weakref.ref(self)
        agent.start()
        self.agents[agent.identity.address] = agent
        self._rank[agent.identity.address] = len(self._rank)
        self.online[agent.identity.address] = True
        for schema in agent.known_schemas():
            self._schema_names[schema.digest()] = schema.name
        for period, handler in agent.interval_handlers:
            self.schedule_timer(agent, (self.height // period + 1) * period, handler, period)

    def schedule_timer(self, agent: Agent, height: int, handler: Callable, period: int = 0,
                       session_id: bytes | None = None) -> None:
        """Run handler(ctx) for the agent in the first timer phase at or
        after tick `height`; a periodic one then at each multiple of period."""
        self._timer_seq += 1
        order = (max(height, self.height), self._rank[agent.identity.address], self._timer_seq)
        heapq.heappush(self._timers, (*order, agent, handler, period, session_id))

    def _pending_timers(self) -> int:
        return sum(1 for entry in self._timers if not entry[5])

    def schema_name_of(self, digest: bytes) -> str:
        name = self._schema_names.get(digest)
        return digest.hex()[:8] if name is None else name

    # -- presence ------------------------------------------------------------

    def set_online(self, address: str, online: bool) -> None:
        """Immediate status flip; coming back online drains the mailbox and
        puts the timers that fell due while offline back on the heap."""
        was = self.online.get(address, True)
        self.online[address] = online
        if online and not was:
            self._drain_mailbox(address)
            for entry in self._parked.pop(address, ()):
                heapq.heappush(self._timers, (self.height, *entry[1:]))

    def schedule_presence(self, address: str, tick: int, online: bool) -> None:
        """Apply a status change at the start of the given tick."""
        heapq.heappush(self._status_changes, (tick, address, online))

    def _drain_mailbox(self, address: str) -> None:
        agent = self.agents.get(address)
        if self.mailbox is None or agent is None:
            return
        nonce = self.mailbox.next_nonce(address)
        auth = agent.identity.sign_digest(retrieval_auth_digest(address, nonce))
        batch = self.mailbox.retrieve(address, nonce, auth)
        for env in batch:
            self.transcript.append(
                transcript_line(
                    self.height, env, address, "retrieved", self.schema_name_of(env.schema_digest)
                )
            )
            self._arrive(env, address, "open")
        if batch:  # delivered: the mailbox may let it go
            self.mailbox.acknowledge(address)

    # -- transport ---------------------------------------------------------

    def send(self, env: Envelope) -> None:
        """Schedule one delivery per recipient the envelope names, in its
        order, each with its own latency and drop draw; per (sender,
        recipient) pair FIFO holds. The envelope goes to the verify pool at
        most once, with its first copy that will open."""
        pooled = False
        for recipient in env.recipients:
            latency = self.rng.randint(self.network.latency_min, self.network.latency_max)
            dropped = (
                self.network.drop_probability > 0.0
                and self.rng.random() < self.network.drop_probability
            )
            pair = (env.sender, recipient)
            deliver_at = max(self.height + latency, self._last_delivery.get(pair, 0))
            self._last_delivery[pair] = deliver_at
            self._send_seq += 1
            # the drop decision rides along; offline redirection outranks it
            heapq.heappush(self._in_flight, (deliver_at, self._send_seq, env, recipient, dropped))
            if (
                not pooled
                and len(self._in_flight) >= POOL_MIN_BATCH
                and self._fate(recipient, dropped) == "open"
                and verifies_overlap()
            ):
                verify_pool().submit(env)
                pooled = True

    def _fate(self, recipient: str, dropped: bool) -> str:
        """What delivering a copy to recipient now does. `open`: the
        recipient is in the world and online, and the copy was not dropped.
        `store`: the recipient is offline and this process's MailboxStore,
        which checks the copy first, holds its account (a mailbox client is
        never asked). `deposit`: any other offline recipient with a mailbox
        attached. Otherwise `dropped`, `offline_lost` or `no_such_agent`,
        which only log a line."""
        if self.online.get(recipient, True):
            if dropped:
                return "dropped"
            return "open" if recipient in self.agents else "no_such_agent"
        if self.mailbox is None:
            return "offline_lost"
        held = isinstance(self.mailbox, MailboxStore) and self.mailbox.has_account(recipient)
        return "store" if held else "deposit"

    def _arrive(self, env: Envelope, recipient: str, fate: str) -> None:
        """Deliver env's copy to recipient as its fate says: dispatch it,
        deposit it, or log it."""
        if fate == "open":
            for out in self.agents[recipient].dispatch(env, self.height):
                self.send(out)
            return
        if fate in ("store", "deposit"):
            result = self.mailbox.deposit(env, self.height, recipient)
            fate = "mailboxed" if result.accepted else f"mailbox_{result.reason}"
        schema_name = self.schema_name_of(env.schema_digest)
        self.transcript.append(transcript_line(self.height, env, recipient, fate, schema_name))

    # -- clock ---------------------------------------------------------------

    def tick(self, n: int = 1) -> None:
        """Advance n ticks: presence changes, due deliveries, then due
        timers; one block per tick."""
        for _ in range(n):
            self.ledger.advance_block(1)
            h = self.height
            while self._status_changes and self._status_changes[0][0] <= h:
                _, address, online = heapq.heappop(self._status_changes)
                self.set_online(address, online)
            while self._in_flight and self._in_flight[0][0] <= h:
                _, _, env, recipient, dropped = self._in_flight[0]
                fate = self._fate(recipient, dropped)
                if fate in ("open", "store"):
                    env.signed()  # a check that raises leaves env in flight
                heapq.heappop(self._in_flight)
                self._arrive(env, recipient, fate)
            while self._timers and self._timers[0][0] <= h:
                entry = heapq.heappop(self._timers)
                agent, handler, period, session_id = entry[3:]
                address = agent.identity.address
                if not self.online.get(address, True):
                    self._parked.setdefault(address, []).append(entry)
                    continue
                if period:
                    heapq.heappush(self._timers, ((h // period + 1) * period, *entry[1:]))
                    if h % period:
                        continue  # back from offline between beats
                for env in agent.invoke(handler, h, session_id):
                    self.send(env)

    def drain(self, max_ticks: int = 1000) -> int:
        """Tick until pending presence changes, in-flight traffic and one-shot
        timers settle; returns the ticks used, or raises DrainIncomplete when
        `max_ticks` run out first.

        Envelopes parked in an offline agent's mailbox do not count as in
        flight, nor do its parked timers; both wait for the owner to
        reconnect. Periodic timers never settle, so they do not count.
        """
        used = 0
        while self._in_flight or self._status_changes or self._pending_timers():
            if used >= max_ticks:
                pending = (len(self._in_flight), len(self._status_changes), self._pending_timers())
                raise DrainIncomplete(max_ticks, *pending)
            self.tick()
            used += 1
        return used

    # -- direct sends and queries ------------------------------------------

    def send_message(
        self,
        sender: Agent,
        target: str,
        record: Record,
        session_id: bytes | None = None,
        expires_at: int | None = None,
    ) -> Envelope:
        env = Context(sender, self.height).send(target, record, session_id, expires_at)
        self.send(env)
        return env

    def query(self, sender: Agent, target: str, record: Record, timeout_ticks: int,
              session_id: bytes | None = None) -> Record:
        """Blocking request-response, never for a handler: ticks until the
        sender's waiter holds the reply, or raises its error. It is also the
        order's wait: Orchestrator.run sends each request of its plan here."""
        waiter = (session_id or sender.fresh_session_id(), target)
        sender.waiters[waiter] = None
        try:
            self.send_message(sender, target, record, waiter[0])
            for _ in range(timeout_ticks):
                self.tick()
                if isinstance(reply := sender.waiters[waiter], WireError):
                    raise reply
                if reply is not None:
                    return reply
            raise Timeout(f"no reply from {target} within {timeout_ticks} ticks")
        finally:
            del sender.waiters[waiter]
