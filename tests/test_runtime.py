"""Agent handlers, dispatch validation, world scheduling, queries."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import os
import sys
import threading
import time
import types

import pytest

import oracles
from agentmesh import contractnet, identity, runtime, wire
from agentmesh.identity import AGENT_PREFIX, Signature, derive_identity
from agentmesh.ledger import Ledger
from agentmesh.mailbox import MailboxStore
from agentmesh.runtime import (
    Agent,
    AgentAlreadyStarted,
    AgentNotStarted,
    Context,
    DrainIncomplete,
    DuplicateHandler,
    HandlerOverlap,
    InvalidRecord,
    POOL_MIN_BATCH,
    NetworkModel,
    Timeout,
    World,
    transcript_line,
)
from agentmesh.wire import (
    MAX_RECIPIENTS,
    RECIPIENT_SEP,
    Envelope,
    Expired,
    ModelSchema,
    ProtocolSpec,
    Record,
    SchemaNotInProtocol,
    SemanticType,
    UnknownSchema,
    seal_envelope,
)

PING = ModelSchema.build("Ping", text=SemanticType.STRING)
PONG = ModelSchema.build("Pong", text=SemanticType.STRING)
ECHO = ProtocolSpec("Echo", "1.0", (PING, PONG))


def make_agent(phrase: str, name: str | None = None) -> Agent:
    agent = Agent(name or phrase, derive_identity(phrase))
    agent.include_protocol(ECHO)
    return agent


def echo_agent(phrase: str) -> Agent:
    agent = make_agent(phrase)

    @agent.on_message(PING)
    def handle(ctx, sender, record):
        return Record(PONG, {"text": record["text"]})

    return agent


def fresh_world(**kw) -> World:
    return World(Ledger(), **kw)


class TestRegistration:
    def test_duplicate_handler(self):
        agent = make_agent("dup")
        agent.on_message(PING)(lambda ctx, s, r: None)
        with pytest.raises(DuplicateHandler):
            agent.on_message(PING)(lambda ctx, s, r: None)

    def test_schema_not_in_protocol(self):
        agent = Agent("bare", derive_identity("bare"))
        with pytest.raises(SchemaNotInProtocol):
            agent.on_message(PING)(lambda ctx, s, r: None)

    def test_register_after_start(self):
        agent = make_agent("late reg")
        world = fresh_world()
        world.add_agent(agent)
        with pytest.raises(AgentAlreadyStarted):
            agent.on_message(PING)(lambda ctx, s, r: None)
        with pytest.raises(AgentAlreadyStarted):
            agent.include_protocol(ECHO)

    def test_include_idempotent(self):
        agent = make_agent("idem")
        agent.include_protocol(ECHO)
        assert len(agent.protocols) == 1

    def test_interval_period_validated(self):
        with pytest.raises(Exception):
            make_agent("zero period").on_interval(0)(lambda ctx: None)

    def test_an_agent_does_not_keep_its_world_alive(self):
        agent = echo_agent("outlives its world")
        assert agent.world is None

        def joined():
            world = fresh_world()
            world.add_agent(agent)
            assert agent.world is world
            return world

        oracles.assert_freed(joined)
        assert agent.world is None


class TestSchemaIndex:
    """Agents index schemas by digest as protocols are included; the world
    indexes names as agents are added."""

    def test_frozen_index_equals_a_fresh_one(self):
        other = ProtocolSpec("Other", "2.0", (ModelSchema.build("Note", body=SemanticType.STRING),))
        agent = make_agent("index agent")
        agent.include_protocol(other)
        fresh_world().add_agent(agent)
        fresh = {
            ModelSchema(m.name, m.fields).digest(): m
            for proto in agent.protocols
            for m in proto.models
        }
        assert agent._schemas == fresh
        assert agent.known_schemas() == list(fresh.values())

    def test_world_names_every_agents_schemas(self):
        world = fresh_world()
        extra = ModelSchema.build("Extra", n=SemanticType.INT)
        second = Agent("names second", derive_identity("names second"))
        second.include_protocol(ProtocolSpec("Mixed", "1.0", (PING, extra)))
        world.add_agent(make_agent("names first"))
        world.add_agent(second)
        assert world.schema_name_of(PING.digest()) == "Ping"
        assert world.schema_name_of(PONG.digest()) == "Pong"
        assert world.schema_name_of(extra.digest()) == "Extra"
        unknown = bytes(range(32))
        assert world.schema_name_of(unknown) == unknown.hex()[:8]

    def test_unstarted_agent_knows_its_schemas(self):
        agent = make_agent("unstarted agent")
        assert not agent.started
        assert agent.known_schemas() == [PING, PONG]
        assert agent._schema_name_of(PONG.digest()) == "Pong"


class TestDispatch:
    @staticmethod
    def ping_env(sender, target: Agent, text="hi", expires=1000, session=b"\x05" * 16):
        return seal_envelope(
            sender.identity if isinstance(sender, Agent) else sender,
            target.identity.address,
            ECHO,
            Record(PING, {"text": text}),
            session,
            expires,
        )

    def test_valid_message_invokes_handler_once(self):
        calls = []
        agent = make_agent("receiver")

        @agent.on_message(PING)
        def handle(ctx, sender, record):
            calls.append((sender, record["text"]))

        agent.start()
        sender = make_agent("sender")
        out = agent.dispatch(self.ping_env(sender, agent), 1)
        assert calls == [(sender.identity.address, "hi")]
        assert out == []

    def test_reply_reuses_session(self):
        agent = echo_agent("echoer")
        agent.start()
        sender = make_agent("asker")
        session = b"\x09" * 16
        out = agent.dispatch(self.ping_env(sender, agent, session=session), 1)
        assert len(out) == 1
        assert out[0].session_id == session
        assert out[0].target == sender.identity.address

    def test_dispatch_before_start(self):
        agent = echo_agent("not started")
        sender = make_agent("s")
        with pytest.raises(AgentNotStarted):
            agent.dispatch(self.ping_env(sender, agent), 1)

    def test_tampered_envelope_diagnostic(self):
        agent = echo_agent("tamper target")
        world = fresh_world()
        world.add_agent(agent)
        sender = make_agent("tamper sender")
        env = self.ping_env(sender, agent)
        bad = Envelope(
            env.sender, env.target, env.protocol_digest, env.schema_digest,
            env.payload[:-1] + b"!", env.session_id, env.expires_at, env.signature,
        )
        assert agent.dispatch(bad, 1) == []
        assert [oracles.line_fields(d).outcome for d in world.transcript] == ["signature_invalid"]

    def test_no_handler_diagnostic(self):
        agent = make_agent("no handler")
        world = fresh_world()
        world.add_agent(agent)
        sender = make_agent("nh sender")
        assert agent.dispatch(self.ping_env(sender, agent), 1) == []
        assert [oracles.line_fields(d).outcome for d in world.transcript] == ["no_handler"]

    def test_expired_diagnostic(self):
        agent = echo_agent("expired target")
        world = fresh_world()
        world.add_agent(agent)
        sender = make_agent("expired sender")
        assert agent.dispatch(self.ping_env(sender, agent, expires=3), 10) == []
        assert [oracles.line_fields(d).outcome for d in world.transcript] == ["expired"]

    def test_unknown_schema_diagnostic(self):
        agent = echo_agent("unknown target")
        world = fresh_world()
        world.add_agent(agent)
        stranger_schema = ModelSchema.build("Stranger", n=SemanticType.INT)
        stranger_proto = ProtocolSpec("Strange", "1.0", (stranger_schema,))
        sender = Agent("stranger", derive_identity("stranger"))
        sender.include_protocol(stranger_proto)
        env = seal_envelope(
            sender.identity, agent.identity.address, stranger_proto,
            Record(stranger_schema, {"n": 1}), b"\x00" * 16, 100,
        )
        assert agent.dispatch(env, 1) == []
        assert [oracles.line_fields(d).outcome for d in world.transcript] == ["unknown_schema"]

    def test_invalid_record_reject_is_one_line_and_sends_nothing(self):
        agent = make_agent("picky")
        sender = make_agent("picky sender")

        @agent.on_message(PING)
        def handle(ctx, sender_address, record):
            ctx.diag("looked")
            ctx.reply(Record(PONG, {"text": "never sent"}))
            raise InvalidRecord(f"text {record['text']!r} makes no sense here")

        world = fresh_world()
        world.add_agent(agent)
        assert agent.dispatch(self.ping_env(sender, agent), 1) == []
        outcomes = [oracles.line_fields(d).outcome for d in world.transcript]
        assert outcomes == ["looked", "invalid_record"]
        assert oracles.line_fields(world.transcript[-1]).schema_name == "Ping"

    def test_a_misaddressed_envelope_runs_no_handler(self):
        calls = []
        agent = make_agent("misaddressed receiver")
        agent.on_message(PING)(lambda ctx, sender, record: calls.append(record))
        world = fresh_world()
        world.add_agent(agent)
        sender = make_agent("misaddressed sender")
        named = [make_agent(f"named agent {i}") for i in range(2)]
        for env in (self.ping_env(sender, named[0]),
                    Context(sender, 1).send(",".join(a.identity.address for a in named),
                                            Record(PING, {"text": "not you"}))):
            assert agent.dispatch(env, 1) == []
        assert calls == []
        lines = [oracles.line_fields(line) for line in world.transcript]
        assert [(f.sender, f.target, f.outcome) for f in lines] == [
            (sender.identity.address, agent.identity.address, "misaddressed")
        ] * 2

    def test_handler_overlap_detected(self):
        agent = make_agent("overlap")
        inner_error = []

        @agent.on_message(PING)
        def handle(ctx, sender, record):
            env = seal_envelope(
                agent.identity, agent.identity.address, ECHO,
                Record(PING, {"text": "again"}), b"\x01" * 16, 1000,
            )
            try:
                agent.dispatch(env, ctx.height)  # reentrant call must fail
            except HandlerOverlap as exc:
                inner_error.append(exc)

        agent.start()
        sender = make_agent("overlap sender")
        agent.dispatch(self.ping_env(sender, agent), 1)
        assert len(inner_error) == 1


class TestScheduling:
    def test_tick_zero_no_effect(self):
        world = fresh_world()
        agent = echo_agent("idle")
        world.add_agent(agent)
        world.tick(0)
        assert world.height == 0
        assert world.transcript == []

    def test_interval_period_one_fires_every_tick(self):
        fired = []
        world = fresh_world()
        agent = make_agent("every tick")

        @agent.on_interval(1)
        def every(ctx):
            fired.append(ctx.height)

        world.add_agent(agent)
        world.tick(3)
        assert fired == [1, 2, 3]

    def test_interval_period_five_in_twelve_ticks(self):
        fired = []
        world = fresh_world()
        agent = make_agent("five")

        @agent.on_interval(5)
        def every(ctx):
            fired.append(ctx.height)

        world.add_agent(agent)
        world.tick(12)
        assert fired == [5, 10]

    def test_latency_two_delivers_at_five(self):
        world = fresh_world(network=NetworkModel(latency_min=2, latency_max=2))
        receiver = echo_agent("latency receiver")
        sender = make_agent("latency sender")
        world.add_agent(receiver)
        world.add_agent(sender)
        world.tick(3)  # height now 3
        world.send_message(sender, receiver.identity.address, Record(PING, {"text": "t"}))
        world.tick(1)
        assert not any(oracles.line_fields(line).outcome == "handled" for line in world.transcript)
        world.tick(1)  # height 5
        lines = map(oracles.line_fields, world.transcript)
        handled = [line for line in lines if line.outcome == "handled"]
        assert len(handled) == 1
        assert handled[0].tick == 5

    def test_per_pair_fifo_with_jittery_latency(self):
        world = fresh_world(network=NetworkModel(latency_min=1, latency_max=5), seed=11)
        texts = []
        receiver = make_agent("fifo receiver")

        @receiver.on_message(PING)
        def handle(ctx, sender, record):
            texts.append(record["text"])

        sender = make_agent("fifo sender")
        world.add_agent(receiver)
        world.add_agent(sender)
        for i in range(10):
            world.send_message(sender, receiver.identity.address, Record(PING, {"text": str(i)}))
        world.tick(30)
        assert texts == [str(i) for i in range(10)]

    def test_drain_that_runs_out_of_ticks_says_so(self):
        world = fresh_world()
        pinger = make_agent("forever pinger")
        ponger = echo_agent("forever ponger")

        @pinger.on_message(PONG)
        def again(ctx, sender, record):
            return Record(PING, {"text": record["text"]})

        world.add_agent(pinger)
        world.add_agent(ponger)
        world.schedule_presence(ponger.identity.address, 50, True)
        world.send_message(pinger, ponger.identity.address, Record(PING, {"text": "loop"}))
        with pytest.raises(DrainIncomplete) as excinfo:
            world.drain(max_ticks=5)
        assert world.height == 5
        assert (excinfo.value.in_flight, excinfo.value.presence_changes) == (1, 1)

    def test_drain_that_settles_returns_the_ticks_used(self):
        world = fresh_world(network=NetworkModel(latency_min=3, latency_max=3))
        receiver = make_agent("settling receiver")
        sender = make_agent("settling sender")
        world.add_agent(receiver)
        world.add_agent(sender)
        world.send_message(sender, receiver.identity.address, Record(PING, {"text": "t"}))
        assert world.drain(max_ticks=3) == 3
        assert world.drain(max_ticks=0) == 0


def count_timer_runs(monkeypatch) -> list[str]:
    """Names of the handlers run with a context alone (timers, intervals
    and lifecycle events), in the order they ran."""
    runs: list[str] = []
    original = Agent._run_handler

    def counting(self, handler, *args):
        if len(args) == 1:
            runs.append(handler.__name__)
        return original(self, handler, *args)

    monkeypatch.setattr(Agent, "_run_handler", counting)
    return runs


class TestTimers:
    def test_one_shot_fires_once_after_deliveries(self):
        world = fresh_world()
        receiver = make_agent("timer receiver")
        sender = make_agent("timer sender")
        order = []

        @receiver.on_message(PING)
        def handle(ctx, sender_address, record):
            order.append(f"ping@{ctx.height}")
            ctx.at(ctx.height + 2, lambda later: order.append(f"timer@{later.height}"))

        world.add_agent(receiver)
        world.add_agent(sender)
        world.send_message(sender, receiver.identity.address, Record(PING, {"text": "t"}))
        world.tick(10)
        assert order == ["ping@1", "timer@3"]

    def test_timer_at_or_below_the_current_height_runs_this_tick(self):
        world = fresh_world()
        receiver = make_agent("past timer receiver")
        sender = make_agent("past timer sender")
        fired = []

        @receiver.on_message(PING)
        def handle(ctx, sender_address, record):
            ctx.at(ctx.height - 5, lambda later: fired.append(later.height))
            ctx.at(ctx.height, lambda later: fired.append(later.height))

        world.add_agent(receiver)
        world.add_agent(sender)
        world.tick(2)
        world.send_message(sender, receiver.identity.address, Record(PING, {"text": "t"}))
        world.tick(3)
        assert fired == [3, 3]

    def test_a_timer_set_by_a_handler_sends_in_its_session(self):
        world = fresh_world()
        receiver = make_agent("session timer receiver")
        sender = make_agent("session timer sender")
        sent = []

        @receiver.on_message(PING)
        def handle(ctx, sender_address, record):
            def answer_later(later):
                sent.append(later.send(sender_address, Record(PONG, {"text": "later"})))

            ctx.at(ctx.height + 2, answer_later)

        world.add_agent(receiver)
        world.add_agent(sender)
        ping = world.send_message(sender, receiver.identity.address, Record(PING, {"text": "t"}))
        world.tick(4)
        assert [env.session_id for env in sent] == [ping.session_id]

    def test_timer_sends_like_a_handler(self):
        world = fresh_world()
        receiver = echo_agent("timer echo")
        waker = make_agent("waker")
        world.add_agent(receiver)
        world.add_agent(waker)
        world.schedule_timer(waker, 4, lambda later: later.send(receiver.identity.address,
                                                                Record(PING, {"text": "late"})))
        world.tick(6)
        outcomes = [
            (fields.tick, fields.schema_name, fields.outcome)
            for fields in map(oracles.line_fields, world.transcript)
        ]
        assert outcomes == [(5, "Ping", "handled"), (6, "Pong", "no_handler")]

    def test_offline_agents_timer_fires_on_its_reconnect_tick(self):
        world = fresh_world()
        agent = make_agent("sleeper")
        fired = []
        world.add_agent(agent)
        world.schedule_timer(agent, 3, lambda later: fired.append(later.height))
        world.schedule_presence(agent.identity.address, 2, False)
        world.schedule_presence(agent.identity.address, 9, True)
        world.tick(8)
        assert fired == []
        world.tick(1)
        assert fired == [9]
        world.tick(5)
        assert fired == [9]

    def test_interval_pauses_offline_and_resumes_on_its_beat(self):
        world = fresh_world()
        agent = make_agent("beat")
        fired = []

        @agent.on_interval(3)
        def every(ctx):
            fired.append(ctx.height)

        world.add_agent(agent)
        world.schedule_presence(agent.identity.address, 4, False)
        world.schedule_presence(agent.identity.address, 10, True)
        world.tick(16)
        assert fired == [3, 12, 15]

    def test_interval_resumes_on_its_beat_after_a_reconnect_between_ticks(self):
        world = fresh_world()
        agent = make_agent("between")
        fired = []

        @agent.on_interval(3)
        def every(ctx):
            fired.append(ctx.height)

        world.add_agent(agent)
        world.tick(4)
        world.set_online(agent.identity.address, False)
        world.tick(2)  # the beat at 6 is missed
        world.set_online(agent.identity.address, True)  # after tick 6's timers
        world.tick(4)
        assert fired == [3, 9]

    def test_interval_joining_late_starts_at_the_next_multiple(self):
        world = fresh_world()
        world.tick(4)
        agent = make_agent("late joiner")
        fired = []

        @agent.on_interval(5)
        def every(ctx):
            fired.append(ctx.height)

        world.add_agent(agent)
        world.tick(8)
        assert fired == [5, 10]

    def test_due_timers_run_in_join_order_then_set_order(self):
        world = fresh_world()
        first, second, third = agents = [make_agent(f"joiner {i}") for i in range(3)]
        for agent in agents:
            world.add_agent(agent)
        order = []
        plan = [("third a", third, 5), ("second", second, 5), ("third b", third, 5),
                ("first", first, 5), ("second early", second, 4)]
        for label, agent, height in plan:
            world.schedule_timer(agent, height, lambda later, label=label: order.append(label))
        world.tick(5)
        assert order == ["second early", "first", "second", "third a", "third b"]

    def test_drain_waits_for_a_one_shot_timer(self):
        world = fresh_world()
        agent = make_agent("drain timer")
        fired = []
        world.add_agent(agent)
        world.schedule_timer(agent, 7, lambda later: fired.append(later.height))
        assert world.drain(max_ticks=20) == 7
        assert fired == [7]
        assert world.drain(max_ticks=20) == 0

    def test_drain_does_not_wait_for_a_periodic_timer(self):
        world = fresh_world()
        agent = make_agent("drain interval")

        @agent.on_interval(1)
        def every(ctx):
            pass

        world.add_agent(agent)
        assert world.drain(max_ticks=20) == 0

    def test_drain_does_not_wait_for_a_parked_timer(self):
        world = fresh_world()
        agent = make_agent("drain parked")
        world.add_agent(agent)
        world.schedule_timer(agent, 2, lambda later: None)
        world.set_online(agent.identity.address, False)
        assert world.drain(max_ticks=20) == 2  # popped at 2 and parked

    def test_drain_that_runs_out_counts_pending_timers(self):
        world = fresh_world()
        agent = make_agent("drain far timer")
        world.add_agent(agent)
        world.schedule_timer(agent, 50, lambda later: None)
        with pytest.raises(DrainIncomplete) as excinfo:
            world.drain(max_ticks=5)
        assert "1 timers pending" in str(excinfo.value)
        assert excinfo.value.timers == 1

    def test_idle_agents_run_no_handler(self, monkeypatch):
        # guard against polling coming back: ticking a world of agents
        # that set no timer runs nothing per agent
        runs = count_timer_runs(monkeypatch)
        world = fresh_world()
        for i in range(400):
            world.add_agent(make_agent(f"idle {i}"))
        world.tick(40)
        assert runs == []
        assert world.transcript == []


class TestOfflineAndMailbox:
    def build(self):
        mailbox = MailboxStore()
        world = fresh_world(mailbox=mailbox)
        receiver = echo_agent("offline receiver")
        sender = make_agent("offline sender")
        world.add_agent(receiver)
        world.add_agent(sender)
        mailbox.create_account(receiver.identity.address)
        return world, mailbox, receiver, sender

    def test_offline_with_mailbox_deposits(self):
        world, mailbox, receiver, sender = self.build()
        world.set_online(receiver.identity.address, False)
        world.send_message(sender, receiver.identity.address, Record(PING, {"text": "stored"}))
        world.tick(2)
        assert mailbox.stats()[receiver.identity.address] == 1
        assert any(oracles.line_fields(line).outcome == "mailboxed" for line in world.transcript)

    def test_reconnect_drains_and_dispatches(self):
        world, mailbox, receiver, sender = self.build()
        world.set_online(receiver.identity.address, False)
        world.send_message(sender, receiver.identity.address, Record(PING, {"text": "stored"}))
        world.tick(2)
        world.set_online(receiver.identity.address, True)
        assert mailbox.stats()[receiver.identity.address] == 0
        outcomes = [oracles.line_fields(line).outcome for line in world.transcript]
        assert "retrieved" in outcomes and "handled" in outcomes

    def test_offline_without_an_account_is_refused_by_the_mailbox(self):
        mailbox = MailboxStore()
        world = fresh_world(mailbox=mailbox)
        receiver = echo_agent("unaccounted receiver")
        sender = make_agent("unaccounted sender")
        world.add_agent(receiver)
        world.add_agent(sender)
        world.set_online(receiver.identity.address, False)
        world.send_message(sender, receiver.identity.address, Record(PING, {"text": "refused"}))
        world.tick(2)
        world.set_online(receiver.identity.address, True)  # nothing to retrieve
        outcomes = [oracles.line_fields(line).outcome for line in world.transcript]
        assert outcomes == ["mailbox_NoAccount"]
        assert (mailbox.dropped_total, mailbox.stats()) == (1, {})

    def test_offline_without_mailbox_loses(self):
        world = fresh_world()  # no mailbox attached
        receiver = echo_agent("lost receiver")
        sender = make_agent("lost sender")
        world.add_agent(receiver)
        world.add_agent(sender)
        world.set_online(receiver.identity.address, False)
        world.send_message(sender, receiver.identity.address, Record(PING, {"text": "gone"}))
        world.tick(2)
        outcomes = [oracles.line_fields(line).outcome for line in world.transcript]
        assert "offline_lost" in outcomes

    def test_scheduled_presence(self):
        world, mailbox, receiver, sender = self.build()
        world.schedule_presence(receiver.identity.address, 2, False)
        world.schedule_presence(receiver.identity.address, 6, True)
        world.tick(1)
        assert world.online[receiver.identity.address]
        world.tick(1)
        assert not world.online[receiver.identity.address]
        world.send_message(sender, receiver.identity.address, Record(PING, {"text": "wait"}))
        world.tick(3)
        assert mailbox.stats()[receiver.identity.address] == 1
        world.tick(1)  # tick 6: back online, drains
        assert mailbox.stats()[receiver.identity.address] == 0


class TestQuery:
    def test_echo_query(self):
        world = fresh_world()
        server = echo_agent("query server")
        client = make_agent("query client")
        world.add_agent(server)
        world.add_agent(client)
        reply = world.query(client, server.identity.address, Record(PING, {"text": "abc"}), 10)
        assert reply.schema.name == "Pong"
        assert reply["text"] == "abc"

    def test_query_offline_no_mailbox_times_out(self):
        world = fresh_world()
        server = echo_agent("silent server")
        client = make_agent("timeout client")
        world.add_agent(server)
        world.add_agent(client)
        world.set_online(server.identity.address, False)
        with pytest.raises(Timeout):
            world.query(client, server.identity.address, Record(PING, {"text": "x"}), 5)

    def test_interleaved_sessions_no_crosstalk(self):
        # exhaust both interleavings of two outstanding queries
        for first_to_answer in ("a", "b"):
            world = fresh_world(network=NetworkModel(latency_min=1, latency_max=1))
            stash = {}
            server = make_agent("interleave server")

            @server.on_message(PING)
            def handle(ctx, sender, record, _stash=stash):
                # answer out of order: hold the first, release on the second
                if not _stash:
                    _stash["held"] = (ctx.sender, ctx.session_id, record["text"])
                    return None
                held_sender, held_session, held_text = _stash.pop("held")
                order = (
                    [(held_sender, held_session, held_text),
                     (ctx.sender, ctx.session_id, record["text"])]
                    if first_to_answer == "a"
                    else [(ctx.sender, ctx.session_id, record["text"]),
                          (held_sender, held_session, held_text)]
                )
                for target, session, text in order:
                    ctx.send(target, Record(PONG, {"text": text}), session_id=session)
                return None

            client = make_agent("interleave client")
            world.add_agent(server)
            world.add_agent(client)
            target = server.identity.address
            session_a = self.ask(world, client, target, Record(PING, {"text": "A"}))
            session_b = self.ask(world, client, target, Record(PING, {"text": "B"}))
            world.tick(6)
            assert client.waiters[session_a, target]["text"] == "A"
            assert client.waiters[session_b, target]["text"] == "B"

    @staticmethod
    def ask(world: World, client: Agent, target: str, record: Record) -> bytes:
        """Send record in a fresh session whose reply the client's waiter
        takes; returns the session."""
        session = client.fresh_session_id()
        client.waiters[session, target] = None
        world.send_message(client, target, record, session)
        return session

    @staticmethod
    def faulty_pair(fault: str) -> tuple[World, Agent, Agent]:
        """A client and a server whose reply to Ping fails with fault."""
        stranger = ModelSchema.build("Stranger", text=SemanticType.STRING)
        server = make_agent("faulty server")
        server.include_protocol(ProtocolSpec("Private", "1.0", (stranger,)))

        @server.on_message(PING)
        def handle(ctx, sender, record):
            if fault == "Expired":
                # valid only until this tick; it lands one tick later
                ctx.reply(Record(PONG, {"text": "late"}), expires_at=ctx.height)
            else:
                # a schema the client has never heard of
                ctx.reply(Record(stranger, {"text": "?"}))

        client = make_agent("faulty client")
        world = fresh_world(network=NetworkModel(latency_min=1, latency_max=1))
        world.add_agent(server)
        world.add_agent(client)
        return world, client, server

    @pytest.mark.parametrize("fault", ["Expired", "UnknownSchema"])
    def test_failed_reply_raises_its_own_type_and_cleans_up(self, fault):
        world, client, server = self.faulty_pair(fault)
        expected = {"Expired": Expired, "UnknownSchema": UnknownSchema}[fault]
        with pytest.raises(expected, match=f"query reply failed validation: {fault}$"):
            world.query(client, server.identity.address, Record(PING, {"text": "x"}), 10)
        assert client.waiters == {}

    @pytest.mark.parametrize("fault", ["Expired", "UnknownSchema"])
    def test_the_waiter_holds_the_failed_reply_s_error(self, fault):
        world, client, server = self.faulty_pair(fault)
        target = server.identity.address
        session = self.ask(world, client, target, Record(PING, {"text": "x"}))
        world.tick(6)
        expected = {"Expired": Expired, "UnknownSchema": UnknownSchema}[fault]
        error = client.waiters[session, target]
        assert type(error) is expected
        assert str(error) == f"query reply failed validation: {fault}"

    def test_a_forged_reply_does_not_end_the_wait(self):
        # an envelope that claims the server as sender but was signed by
        # another key is an ordinary signature_invalid line
        world = fresh_world(network=NetworkModel(latency_min=1, latency_max=1))
        server, client = echo_agent("forged server"), make_agent("forged client")
        forger = make_agent("forger")
        for agent in (server, client, forger):
            world.add_agent(agent)
        target = server.identity.address
        session = self.ask(world, client, target, Record(PING, {"text": "x"}))
        forged = Context(forger, world.height).send(
            client.identity.address, Record(PONG, {"text": "forged"}), session
        )
        world.send(dataclasses.replace(forged, sender=target))
        world.tick(1)
        assert oracles.line_fields(world.transcript[-1]).outcome == "signature_invalid"
        assert client.waiters[session, target] is None
        world.tick(1)
        assert client.waiters[session, target]["text"] == "x"
        assert oracles.line_fields(world.transcript[-1]).outcome == "reply_received"

    def test_a_copy_the_peer_sent_another_agent_does_not_end_the_wait(self):
        world = fresh_world(network=NetworkModel(latency_min=1, latency_max=1))
        server, client = echo_agent("aside server"), make_agent("aside client")
        bystander = make_agent("aside bystander")
        for agent in (server, client, bystander):
            world.add_agent(agent)
        target = server.identity.address
        session = self.ask(world, client, target, Record(PING, {"text": "x"}))
        aside = Context(server, world.height).send(
            bystander.identity.address, Record(PONG, {"text": "not yours"}), session
        )
        assert client.dispatch(aside, world.height) == []
        assert oracles.line_fields(world.transcript[-1]).outcome == "misaddressed"
        assert client.waiters[session, target] is None
        world.tick(2)
        assert client.waiters[session, target]["text"] == "x"

    @pytest.mark.parametrize(
        "fault, outcome", [("Expired", "expired"), ("UnknownSchema", "unknown_schema")]
    )
    def test_failed_reply_is_logged_like_a_dispatch_reject(self, fault, outcome):
        world, client, server = self.faulty_pair(fault)
        self.ask(world, client, server.identity.address, Record(PING, {"text": "x"}))
        world.tick(6)
        # the client never learnt Stranger, so it names the schema by digest
        stranger = ModelSchema.build("Stranger", text=SemanticType.STRING)
        schema_name = {"Expired": "Pong", "UnknownSchema": stranger.digest().hex()[:8]}[fault]
        handled, rejected = [line.split("|") for line in world.transcript]
        assert handled[1:4] + handled[5:] == [
            client.identity.address, server.identity.address, "Ping", "handled"
        ]
        assert rejected[1:4] + rejected[5:] == [
            server.identity.address, client.identity.address, schema_name, outcome
        ]

    def test_timeout_cleans_up(self):
        world = fresh_world()
        server = echo_agent("cleanup server")
        client = make_agent("cleanup client")
        world.add_agent(server)
        world.add_agent(client)
        world.set_online(server.identity.address, False)
        with pytest.raises(Timeout):
            world.query(client, server.identity.address, Record(PING, {"text": "x"}), 3)
        assert client.waiters == {}


class TestDeterminism:
    def run_once(self, seed: int) -> list[str]:
        world = fresh_world(
            network=NetworkModel(latency_min=1, latency_max=4, drop_probability=0.2),
            seed=seed,
        )
        agents = [echo_agent(f"det {i}") for i in range(4)]
        for agent in agents:
            world.add_agent(agent)
        sender = make_agent("det sender")
        world.add_agent(sender)
        for i, agent in enumerate(agents * 3):
            world.send_message(sender, agent.identity.address, Record(PING, {"text": str(i)}))
        world.tick(20)
        return world.transcript

    def test_same_seed_same_transcript(self):
        assert self.run_once(42) == self.run_once(42)

    def test_different_seed_different_transcript(self):
        assert self.run_once(42) != self.run_once(43)

    def test_drops_happen_and_are_logged(self):
        lines = self.run_once(42)
        assert any("|dropped" in line for line in lines)


class TestSignaturePool:
    """Once enough envelopes are in flight, a send hands each one the world
    will open to a pool of threads, when the Ed25519 backend lets verifies
    overlap; dispatch keeps the order and the outcomes."""

    SMALL_ORDER_SENDER = AGENT_PREFIX + "ae" + "a" * 50  # the identity point

    def big_tick(self, mailbox: MailboxStore | None = None, count: int = 72):
        """A world, and `count` envelopes for one receiver that its next tick
        opens once they are sent, a quarter of them bad in four ways, with
        the outcome each should get."""
        world = fresh_world(mailbox=mailbox)
        receiver = make_agent("pool receiver")
        receiver.on_message(PING)(lambda ctx, sender, record: None)
        world.add_agent(receiver)
        senders = [make_agent(f"pool sender {i}") for i in range(3)]
        target = receiver.identity.address
        envelopes, expected = [], []
        for i in range(count):
            env = TestDispatch.ping_env(senders[i % 3], receiver, text=f"m{i}")
            outcome = "handled"
            if i % 8 == 1:
                flipped = bytes([env.signature.data[0] ^ 1]) + env.signature.data[1:]
                env = dataclasses.replace(env, signature=Signature(flipped))
                outcome = "signature_invalid"
            elif i % 8 == 3:
                env = dataclasses.replace(
                    env, sender=self.SMALL_ORDER_SENDER, signature=Signature(b"\x01" + bytes(63))
                )
                outcome = "signature_invalid"
            elif i % 8 == 5:
                env = dataclasses.replace(env, sender="agent1short")
                outcome = "signature_invalid"
            elif i % 8 == 7:
                env = TestDispatch.ping_env(senders[0], receiver, f"m{i}", expires=0)
                outcome = "expired"
            assert env.target == target
            envelopes.append(env)
            expected.append((env.sender, outcome))
        return world, envelopes, expected

    @staticmethod
    def spy_on_pool(monkeypatch) -> list[Envelope]:
        submitted = []
        submit = identity.VerifyPool.submit

        def spy(pool, env):
            submitted.append(env)
            return submit(pool, env)

        monkeypatch.setattr(identity.VerifyPool, "submit", spy)
        return submitted

    @staticmethod
    def outcomes(world: World) -> list[tuple[str, str]]:
        lines = map(oracles.line_fields, world.transcript)
        return [(line.sender, line.outcome) for line in lines]

    def tick_lines(self, monkeypatch) -> tuple[list[str], list[Envelope]]:
        submitted = self.spy_on_pool(monkeypatch)
        world, envelopes, expected = self.big_tick()
        for env in envelopes:
            world.send(env)
        world.tick(1)
        assert self.outcomes(world) == expected
        return world.transcript, submitted

    def test_pool_and_calling_thread_log_the_same_lines(self, monkeypatch, request):
        pooled, submitted = self.tick_lines(monkeypatch)
        if identity.verifies_overlap():  # every send from the POOL_MIN_BATCH-th on
            assert len(submitted) == 72 - POOL_MIN_BATCH + 1
        request.getfixturevalue("cryptography_backend")
        assert not identity.verifies_overlap()
        alone, submitted = self.tick_lines(monkeypatch)
        assert submitted == []
        assert alone == pooled

    @pytest.mark.parametrize("count, broken_at", [(72, 40), (POOL_MIN_BATCH - 1, 2)])
    def test_a_check_that_raises_fails_the_tick_in_its_thread_and_loses_nothing(
        self, monkeypatch, count, broken_at
    ):
        world, envelopes, expected = self.big_tick(count=count)
        verify = identity.verify_digest
        broken = {envelopes[broken_at].signing_digest()}
        caller = []

        def flaky_verify(address, digest, signature):
            if threading.get_ident() in caller:
                time.sleep(0.001)  # so that the pool takes a share
            if digest in broken:
                raise RuntimeError("verify broke")
            return verify(address, digest, signature)

        monkeypatch.setattr(identity, "verify_digest", flaky_verify)
        raised = []

        def send_and_tick():
            caller.append(threading.get_ident())
            for env in envelopes:
                world.send(env)
            try:
                world.tick(1)
            except RuntimeError as exc:
                raised.append(exc)

        thread = threading.Thread(target=send_and_tick)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert [str(exc) for exc in raised] == ["verify broke"]
        # the envelopes ahead of the broken one went out; it and the rest wait
        assert self.outcomes(world) == expected[:broken_at]
        broken.clear()
        world.tick(1)
        assert self.outcomes(world) == expected

    def test_the_mailbox_checks_what_it_stores_itself(self, monkeypatch):
        mailbox = MailboxStore()
        submitted = self.spy_on_pool(monkeypatch)
        world, envelopes, expected = self.big_tick(mailbox)
        away = make_agent("pool away")
        world.add_agent(away)
        mailbox.create_account(away.identity.address)
        world.set_online(away.identity.address, False)
        good = TestDispatch.ping_env(make_agent("pool tamperer"), away)
        tampered = dataclasses.replace(good, payload=good.payload[:-1] + b"!")
        for env in envelopes:
            world.send(env)
        world.send(tampered)
        world.tick(1)
        assert bool(submitted) == identity.verifies_overlap()
        assert tampered not in submitted
        assert oracles.line_fields(world.transcript[-1]).outcome == "mailbox_SignatureInvalid"
        assert mailbox.dropped_total == 1

    def test_a_small_tick_stays_on_the_calling_thread(self, monkeypatch):
        submitted = self.spy_on_pool(monkeypatch)
        world, envelopes, expected = self.big_tick(count=POOL_MIN_BATCH - 1)
        for env in envelopes:
            world.send(env)
        world.tick(1)
        assert self.outcomes(world) == expected
        assert submitted == []

    def test_a_pool_without_threads_queues_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(identity, "_pool", None)
        world, envelopes, expected = self.big_tick()
        for env in envelopes:
            world.send(env)
        world.tick(1)
        assert self.outcomes(world) == expected
        assert identity.verify_pool().workers == 0
        assert identity.verify_pool()._jobs.empty()


def test_the_pool_has_a_thread_for_each_cpu_this_process_may_use_but_one(monkeypatch):
    """The affinity mask, where the platform has one, not the host's CPU count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for cpus, workers in [({0}, 0), ({0, 2}, 1), (None, 2)]:
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(identity, "_pool", None)
        pool = identity.verify_pool()
        pool.close()
        assert pool.workers == workers


def count_verifies(monkeypatch, pause: float = 0.0) -> dict[bytes, int]:
    """Count identity.verify_digest calls by digest, under a lock; each call
    first sleeps `pause` so that other threads take a share."""
    counts, lock = {}, threading.Lock()
    verify = identity.verify_digest

    def counted(address, digest, signature):
        time.sleep(pause)
        with lock:
            counts[digest] = counts.get(digest, 0) + 1
        return verify(address, digest, signature)

    monkeypatch.setattr(identity, "verify_digest", counted)
    return counts


def test_more_pool_threads_than_cores_check_each_envelope_once(monkeypatch):
    counts = count_verifies(monkeypatch, pause=0.0002)
    sender, receiver = make_agent("once sender"), make_agent("once receiver")
    pool = identity.VerifyPool(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(50):
            envelopes = [
                TestDispatch.ping_env(sender, receiver, text=f"r{round_} m{i}") for i in range(40)
            ]
            for env in envelopes * 2:
                pool.submit(env)
            assert all(env.signed() for env in envelopes)
            assert sorted(counts) == sorted(env.signing_digest() for env in envelopes)
            assert set(counts.values()) == {1}
            counts.clear()
    finally:
        sys.setswitchinterval(interval)
        pool.close()


def test_a_raise_on_a_pool_thread_lets_go_of_the_claim_and_the_caller_raises(monkeypatch):
    claimed = threading.Event()
    threads = []

    def broken_verify(address, digest, signature):
        threads.append(threading.current_thread().name)
        if threading.current_thread().name == "agentmesh-verify":
            claimed.set()
            time.sleep(0.05)  # the caller asks while this thread holds the claim
        raise RuntimeError("verify broke")

    monkeypatch.setattr(identity, "verify_digest", broken_verify)
    env = TestDispatch.ping_env(make_agent("claim sender"), make_agent("claim receiver"))
    pool = identity.VerifyPool(1)
    raised = []

    def ask():
        try:
            env.signed()
        except RuntimeError as exc:
            raised.append(exc)

    try:
        pool.submit(env)
        assert claimed.wait(timeout=30)
        thread = threading.Thread(target=ask, name="caller")
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
    finally:
        pool.close()
    assert [str(exc) for exc in raised] == ["verify broke"]
    assert threads == ["agentmesh-verify", "caller"]


def test_envelopes_the_world_never_opens_are_never_checked(monkeypatch):
    counts = count_verifies(monkeypatch)
    mailbox = MailboxStore()
    world = fresh_world(mailbox=mailbox, network=NetworkModel(drop_probability=0.5), seed=7)
    receiver = make_agent("unopened receiver")
    receiver.on_message(PING)(lambda ctx, sender, record: None)
    sender, ghost = make_agent("unopened sender"), make_agent("unopened ghost")
    away, stranger = make_agent("unopened away"), make_agent("unopened stranger")
    for agent in (receiver, away, stranger):
        world.add_agent(agent)
        world.set_online(agent.identity.address, agent is receiver)
    mailbox.create_account(away.identity.address)  # the stranger has no account
    envelopes = [
        TestDispatch.ping_env(sender, target, text=f"{target.name} m{i}")
        for i in range(16)
        for target in (receiver, ghost, away, stranger)
    ]
    for env in envelopes:
        world.send(env)
    world.drain()
    outcome_of = {fields.digest_prefix: fields.outcome
                  for fields in map(oracles.line_fields, world.transcript)}
    seen = set()
    for env in envelopes:
        line = transcript_line(0, env, env.target, "-", "-")
        outcome = outcome_of[oracles.line_fields(line).digest_prefix]
        seen.add(outcome)
        checked = outcome in ("handled", "mailboxed")
        assert counts.get(env.signing_digest(), 0) == checked, outcome
    assert seen == {"handled", "dropped", "no_such_agent", "mailboxed", "mailbox_NoAccount"}


def test_a_check_that_raises_on_the_way_to_a_mailbox_loses_nothing(monkeypatch):
    mailbox = MailboxStore()
    world = fresh_world(mailbox=mailbox)
    away, sender = make_agent("stored away"), make_agent("stored sender")
    world.add_agent(away)
    world.add_agent(sender)
    mailbox.create_account(away.identity.address)
    world.set_online(away.identity.address, False)
    verify = identity.verify_digest

    def broken_verify(address, digest, signature):
        raise RuntimeError("verify broke")

    monkeypatch.setattr(identity, "verify_digest", broken_verify)
    world.send_message(sender, away.identity.address, Record(PING, {"text": "keep"}))
    with pytest.raises(RuntimeError, match="verify broke"):
        world.tick(1)
    monkeypatch.setattr(identity, "verify_digest", verify)
    world.tick(3)
    assert [oracles.line_fields(line).outcome for line in world.transcript] == ["mailboxed"]
    assert mailbox.stats()[away.identity.address] == 1


class TestMulticast:
    """One envelope that names several recipients: one signature, and one
    copy for each, with its own latency and drop draw."""

    @staticmethod
    def cast(count: int, **world_kw) -> tuple[World, Agent, list[str], list[tuple[str, str]]]:
        """A world with a sender and `count` receivers; the receivers'
        addresses, and a list of (receiver, text) each Ping it handles adds."""
        world = fresh_world(**world_kw)
        sender = make_agent("multicast sender")
        world.add_agent(sender)
        receivers, handled = [], []
        for i in range(count):
            receiver = make_agent(f"multicast receiver {i}")
            receiver.on_message(PING)(
                lambda ctx, _, record: handled.append((ctx.address, record["text"]))
            )
            world.add_agent(receiver)
            receivers.append(receiver.identity.address)
        return world, sender, receivers, handled

    def test_one_sign_and_one_verify_reach_every_recipient(self, monkeypatch):
        world, sender, receivers, handled = self.cast(6)
        verifies = count_verifies(monkeypatch)
        signs = []
        sign = identity.AgentIdentity.sign_digest

        def counted_sign(self, digest):
            signs.append(digest)
            return sign(self, digest)

        monkeypatch.setattr(identity.AgentIdentity, "sign_digest", counted_sign)
        env = world.send_message(sender, ",".join(receivers), Record(PING, {"text": "all"}))
        world.drain()
        assert env.recipients == tuple(receivers)
        assert signs == [env.signing_digest()]
        assert verifies == {env.signing_digest(): 1}
        assert handled == [(address, "all") for address in receivers]
        lines = [oracles.line_fields(line) for line in world.transcript]
        assert [(f.target, f.outcome) for f in lines] == [(a, "handled") for a in receivers]

    def test_offline_recipients_each_find_their_copy_in_the_mailbox(self, monkeypatch):
        mailbox = MailboxStore()
        world, sender, receivers, handled = self.cast(4, mailbox=mailbox)
        away = receivers[1::2]
        for address in away:
            mailbox.create_account(address)
            world.set_online(address, False)
        verifies = count_verifies(monkeypatch)
        env = world.send_message(sender, ",".join(receivers), Record(PING, {"text": "later"}))
        world.drain()
        assert mailbox.stats() == {address: 1 for address in away}
        for address in away:
            world.set_online(address, True)
        assert sorted(handled) == sorted((address, "later") for address in receivers)
        assert verifies[env.signing_digest()] == 1  # the others check retrieval auths
        assert len(verifies) == 1 + len(away)

    def test_a_lossy_multicast_drops_copies_independently(self):
        network = NetworkModel(latency_min=1, latency_max=4, drop_probability=0.5)
        record = Record(PING, {"text": "lossy"})
        world, sender, receivers, handled = self.cast(24, network=network, seed=11)
        world.send_message(sender, ",".join(receivers), record)
        world.drain()
        # one envelope per recipient, sent in the same order, draws the same fates
        alone, sender, receivers, _ = self.cast(24, network=network, seed=11)
        for address in receivers:
            alone.send_message(sender, address, record)
        alone.drain()
        assert world.transcript == alone.transcript
        lines = [oracles.line_fields(line) for line in world.transcript]
        assert sorted(f.target for f in lines) == sorted(receivers)
        assert {f.outcome for f in lines} == {"handled", "dropped"}
        assert len({f.tick for f in lines if f.outcome == "handled"}) > 1
        assert sorted(address for address, _ in handled) == sorted(
            f.target for f in lines if f.outcome == "handled"
        )

    def test_copies_keep_fifo_per_sender_and_recipient(self):
        network = NetworkModel(latency_min=1, latency_max=4)
        for seed in range(10):
            world, sender, receivers, handled = self.cast(5, network=network, seed=seed)
            world.send_message(sender, ",".join(receivers), Record(PING, {"text": "first"}))
            for address in receivers:
                world.send_message(sender, address, Record(PING, {"text": "second"}))
            world.drain()
            for address in receivers:
                texts = [text for receiver, text in handled if receiver == address]
                assert texts == ["first", "second"]

    def test_a_multicast_goes_to_the_verify_pool_once(self, monkeypatch):
        submitted = TestSignaturePool.spy_on_pool(monkeypatch)
        monkeypatch.setattr(runtime, "verifies_overlap", lambda: True)
        world, sender, receivers, handled = self.cast(3 * POOL_MIN_BATCH)
        env = world.send_message(sender, ",".join(receivers), Record(PING, {"text": "pooled"}))
        world.drain()
        assert submitted == [env]
        assert handled == [(address, "pooled") for address in receivers]

    def test_a_call_for_bids_to_50_decodes_once_and_hashes_its_prefix_once(self, monkeypatch):
        world = fresh_world()
        sender = Agent("auctioneer", derive_identity("auctioneer"))
        sender.include_protocol(contractnet.COURIER_AUCTION)
        world.add_agent(sender)
        handled = []
        for i in range(MAX_RECIPIENTS):
            courier = Agent(f"courier {i}", derive_identity(f"courier {i}"))
            courier.include_protocol(contractnet.COURIER_AUCTION)
            courier.on_message(contractnet.CALL_FOR_BIDS)(
                lambda ctx, _, record: handled.append(dict(record.values))
            )
            world.add_agent(courier)
        call = Record(contractnet.CALL_FOR_BIDS, {
            "source": "here", "destination": "there",
            "deadline": "2026-03-02T17:00:00", "bid_deadline": 20,
        })
        couriers = [a for a in world.agents if a != sender.identity.address]
        env = world.send_message(sender, RECIPIENT_SEP.join(couriers), call)
        decodes, hashed = [], []
        decode = wire.canonical_decode
        monkeypatch.setattr(
            wire, "canonical_decode", lambda schema, data: decodes.append(data) or decode(schema, data)
        )
        spy = types.SimpleNamespace(sha256=lambda data: hashed.append(data) or hashlib.sha256(data))
        monkeypatch.setattr(wire, "hashlib", spy)  # all wire uses of hashlib
        world.drain()
        assert handled == [call.values] * MAX_RECIPIENTS
        assert decodes == [env.payload]
        assert hashed.count(env.payload) == 1
        outcomes = [oracles.line_fields(line).outcome for line in world.transcript]
        assert outcomes == ["handled"] * MAX_RECIPIENTS

    def test_a_handler_that_changes_its_record_changes_no_other_copy(self):
        tally = ModelSchema.build(
            "Tally",
            label=SemanticType.STRING,
            names=SemanticType.LIST_OF_STRING,
            weights=SemanticType.MAP_STRING_TO_FLOAT,
        )
        tallies = ProtocolSpec("Tallies", "1.0", (tally,))
        world = fresh_world()
        sender = Agent("tally sender", derive_identity("tally sender"))
        sender.include_protocol(tallies)
        world.add_agent(sender)
        seen = []

        def change(ctx, _, record):
            seen.append(copy.deepcopy(record.values))
            record.values["label"] = ctx.address
            record.values["names"].append(ctx.address)
            record.values["weights"][ctx.address] = 1.0
            del record.values["names"][0]

        for i in range(4):
            receiver = Agent(f"tally receiver {i}", derive_identity(f"tally receiver {i}"))
            receiver.include_protocol(tallies)
            receiver.on_message(tally)(change)
            world.add_agent(receiver)
        values = {"label": "sent", "names": ["a", "b"], "weights": {"a": 0.5}}
        sent = copy.deepcopy(values)
        receivers = [a for a in world.agents if a != sender.identity.address]
        world.send_message(sender, RECIPIENT_SEP.join(receivers), Record(tally, values))
        world.drain()
        assert seen == [sent] * len(receivers)
