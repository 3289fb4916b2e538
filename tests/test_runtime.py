"""Agent handlers, dispatch validation, world scheduling, queries."""

from __future__ import annotations

import pytest

from agentmesh.identity import derive_identity
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
    NetworkModel,
    Timeout,
    World,
)
from agentmesh.wire import (
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
    def ping_env(self, sender, target: Agent, text="hi", expires=1000, session=b"\x05" * 16):
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
        assert [d.outcome for d in world.transcript] == ["signature_invalid"]

    def test_no_handler_diagnostic(self):
        agent = make_agent("no handler")
        world = fresh_world()
        world.add_agent(agent)
        sender = make_agent("nh sender")
        assert agent.dispatch(self.ping_env(sender, agent), 1) == []
        assert [d.outcome for d in world.transcript] == ["no_handler"]

    def test_expired_diagnostic(self):
        agent = echo_agent("expired target")
        world = fresh_world()
        world.add_agent(agent)
        sender = make_agent("expired sender")
        assert agent.dispatch(self.ping_env(sender, agent, expires=3), 10) == []
        assert [d.outcome for d in world.transcript] == ["expired"]

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
        assert [d.outcome for d in world.transcript] == ["unknown_schema"]

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
        assert [d.outcome for d in world.transcript] == ["looked", "invalid_record"]
        assert world.transcript[-1].schema_name == "Ping"

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
        assert not any(line.outcome == "handled" for line in world.transcript)
        world.tick(1)  # height 5
        handled = [line for line in world.transcript if line.outcome == "handled"]
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
        outcomes = [(line.tick, line.schema_name, line.outcome) for line in world.transcript]
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
        assert any(line.outcome == "mailboxed" for line in world.transcript)

    def test_reconnect_drains_and_dispatches(self):
        world, mailbox, receiver, sender = self.build()
        world.set_online(receiver.identity.address, False)
        world.send_message(sender, receiver.identity.address, Record(PING, {"text": "stored"}))
        world.tick(2)
        world.set_online(receiver.identity.address, True)
        assert mailbox.stats()[receiver.identity.address] == 0
        outcomes = [line.outcome for line in world.transcript]
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
        outcomes = [line.outcome for line in world.transcript]
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
        assert any(line.outcome == "offline_lost" for line in world.transcript)

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
            session_a = world.send_query(client, server.identity.address, Record(PING, {"text": "A"}))
            session_b = world.send_query(client, server.identity.address, Record(PING, {"text": "B"}))
            world.tick(6)
            assert world.poll_reply(session_a)["text"] == "A"
            assert world.poll_reply(session_b)["text"] == "B"

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
        assert world._pending_queries == {}
        assert world._query_errors == {}

    @pytest.mark.parametrize("fault", ["Expired", "UnknownSchema"])
    def test_poll_reply_raises_the_recorded_type(self, fault):
        world, client, server = self.faulty_pair(fault)
        session = world.send_query(client, server.identity.address, Record(PING, {"text": "x"}))
        world.tick(6)
        expected = {"Expired": Expired, "UnknownSchema": UnknownSchema}[fault]
        for _ in range(2):  # raised on every poll, from the recorded type alone
            with pytest.raises(expected, match=f"query reply failed validation: {fault}$"):
                world.poll_reply(session)
        assert world._query_errors[session] is expected

    @pytest.mark.parametrize(
        "fault, outcome", [("Expired", "expired"), ("UnknownSchema", "unknown_schema")]
    )
    def test_failed_reply_is_logged_like_a_dispatch_reject(self, fault, outcome):
        world, client, server = self.faulty_pair(fault)
        world.send_query(client, server.identity.address, Record(PING, {"text": "x"}))
        world.tick(6)
        # the client never learnt Stranger, so it names the schema by digest
        stranger = ModelSchema.build("Stranger", text=SemanticType.STRING)
        schema_name = {"Expired": "Pong", "UnknownSchema": stranger.digest().hex()[:8]}[fault]
        handled, rejected = [line.split("|") for line in world.transcript_lines()]
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
        assert world._pending_queries == {}
        assert world._query_errors == {}


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
        return world.transcript_lines()

    def test_same_seed_same_transcript(self):
        assert self.run_once(42) == self.run_once(42)

    def test_different_seed_different_transcript(self):
        assert self.run_once(42) != self.run_once(43)

    def test_drops_happen_and_are_logged(self):
        lines = self.run_once(42)
        assert any("|dropped" in line for line in lines)
