"""Span recorder for the traced run, and the probes that feed it.

The benchmark measures each module from outside: it replaces public
functions and methods of agentmesh with wrappers that record a span (name,
start, end, parent) per call, and puts the originals back afterwards.
Nothing under src/ changes.

A module-level function is replaced at every binding site, not only in the
module that defines it: `runtime` binds `seal_envelope`/`open_envelope` at
import, `contractnet`/`registry`/`mailbox`/`wire` bind `verify_digest`, and
`scenario` binds `announce`/`verify_bid`/`select_winner`/`derive_identity`.
Patching only the defining module would miss every call made through those
names.

Each thread keeps its own span stack. A span that starts on an empty stack
(a service handler thread) takes as parent the open span marked as a link:
the client RPC that caused it. With one client in one process that RPC is
unambiguous.
"""

from __future__ import annotations

import statistics
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

from agentmesh import (
    contractnet,
    identity,
    ledger,
    mailbox,
    registry,
    runtime,
    scenario,
    services,
    wire,
)


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Recorder:
    """Collects finished spans and event counters in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._local = threading.local()
        self._link: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, link: bool = False) -> Span:
        stack = self._stack()
        span = Span(name, perf_counter(), stack[-1] if stack else self._link)
        stack.append(span)
        if link:
            self._link = span
        return span

    def end(self, span: Span, link: bool = False) -> None:
        span.end = perf_counter()
        self._stack().pop()
        if link:
            self._link = None
        self.spans.append(span)

    def take(self) -> tuple[list[Span], Counter[str]]:
        """Hand over everything recorded so far and start empty."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], Counter()
        return spans, counters


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span counting its duration minus the part
    of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered = _covered(children.get(id(span), []), span.start, span.end)
        totals[span.name] += span.end - span.start - covered
    return totals


# ---------------------------------------------------------------------------
# probes

def _reject_if_false(rec, args, result, error):
    if error is None and not result:
        rec.counters["identity.verify.rejects"] += 1


def _open_rejects(rec, args, result, error):
    if error is not None:
        rec.counters["wire.open.rejects"] += 1


def _bid_rejects(rec, args, result, error):
    if error is None and not result:
        rec.counters["contractnet.verify_bid.rejects"] += 1


def _deposit_rejects(rec, args, result, error):
    if error is None and not result.accepted:
        rec.counters["mailbox.deposit.rejects"] += 1


def _retrieved(rec, args, result, error):
    if error is None:
        rec.counters["mailbox.retrieved"] += len(result)


def _search_records(rec, args, result, error):
    rec.counters["registry.search.records"] += len(args[0].records)


def _winner_bids(rec, args, result, error):
    rec.counters["contractnet.select_winner.bids"] += len(args[0])


def _rpc_errors(rec, args, result, error):
    if error is not None:
        rec.counters["services.rpc.errors"] += 1


def probe_table() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, observer) for every traced call."""
    table = [
        (identity.AgentIdentity, "sign_digest", "identity.sign", None),
        (identity.AgentIdentity, "sign_digest_with_wallet", "identity.sign", None),
        (identity, "verify_digest", "identity.verify", _reject_if_false),
        (identity, "derive_identity", "identity.derive", None),
        (wire, "seal_envelope", "wire.seal", None),
        (wire, "open_envelope", "wire.open", _open_rejects),
        (wire.ModelSchema, "digest", "wire.digest", None),
        (wire.ProtocolSpec, "digest", "wire.digest", None),
        (wire, "canonical_encode", "wire.codec", None),
        (wire, "canonical_decode", "wire.codec", None),
        (runtime.World, "tick", "runtime.tick", None),
        (runtime.Agent, "dispatch", "runtime.dispatch", None),
        (runtime.World, "schema_name_of", "runtime.schema_lookup", None),
        (runtime.Agent, "known_schemas", "runtime.schema_lookup", None),
        (runtime.World, "send", "runtime.send", None),
        (runtime.World, "query", "runtime.query", None),
        (registry.Registry, "register", "registry.register", None),
        (registry.Registry, "search", "registry.search", _search_records),
        (mailbox.MailboxStore, "deposit", "mailbox.deposit", _deposit_rejects),
        (mailbox.MailboxStore, "retrieve", "mailbox.retrieve", _retrieved),
        (contractnet, "announce", "contractnet.announce", None),
        (contractnet, "verify_bid", "contractnet.verify_bid", _bid_rejects),
        (contractnet, "select_winner", "contractnet.select_winner", _winner_bids),
        (contractnet, "assess_reputation", "contractnet.assess", None),
        (scenario, "build_scenario", "scenario.build", None),
        (scenario.Orchestrator, "run", "scenario.run", None),
        (services, "_post", "services.rpc", _rpc_errors),
    ]
    for op in ("mint", "advance_block", "transfer", "charge_fee", "open_escrow", "settle_escrow"):
        table.append((ledger.Ledger, op, "ledger.ops", None))
    return table


def _wrap(rec: Recorder, fn, name: str, observe, link: bool = False):
    def traced(*args, **kwargs):
        span = rec.begin(name, link)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.end(span, link)
            if observe is not None:
                observe(rec, args, None, exc)
            raise
        rec.end(span, link)
        if observe is not None:
            observe(rec, args, result, None)
        return result

    return traced


class Tracer:
    """Installs the probes on the loaded agentmesh modules and removes them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement) -> None:
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("agentmesh"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self) -> None:
        rec = self.recorder
        for owner, attr, name, observe in probe_table():
            original = owner.__dict__[attr]
            wrapped = _wrap(rec, original, name, observe, link=(name == "services.rpc"))
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
            else:
                self._patch_everywhere(original, wrapped)
        # every route a service server is built with gets a server-side span
        for attr in ("registry_routes", "mailbox_routes"):
            make_routes = services.__dict__[attr]

            def traced_routes(*args, _make=make_routes, **kwargs):
                return {
                    path: _wrap(rec, route, "services.route", None)
                    for path, route in _make(*args, **kwargs).items()
                }

            self._patch_everywhere(make_routes, traced_routes)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER = (
    ("identity.sign.calls", "count"),
    ("identity.sign.self_ms", "ms"),
    ("identity.verify.calls", "count"),
    ("identity.verify.self_ms", "ms"),
    ("identity.verify.rejects", "count"),
    ("identity.derive.calls", "count"),
    ("identity.derive.self_ms", "ms"),
    ("wire.seal.calls", "count"),
    ("wire.seal.self_ms", "ms"),
    ("wire.open.calls", "count"),
    ("wire.open.self_ms", "ms"),
    ("wire.open.rejects", "count"),
    ("wire.digest.calls", "count"),
    ("wire.digest.self_ms", "ms"),
    ("wire.codec.calls", "count"),
    ("wire.codec.self_ms", "ms"),
    ("runtime.tick.calls", "count"),
    ("runtime.tick.self_ms", "ms"),
    ("runtime.dispatch.calls", "count"),
    ("runtime.dispatch.self_ms", "ms"),
    ("runtime.schema_lookup.calls", "count"),
    ("runtime.schema_lookup.self_ms", "ms"),
    ("runtime.sends", "count"),
    ("runtime.events", "count"),
    ("runtime.query.calls", "count"),
    ("runtime.query.wait_ticks", "ticks"),
    ("ledger.ops.calls", "count"),
    ("ledger.ops.self_ms", "ms"),
    ("registry.register.calls", "count"),
    ("registry.register.self_ms", "ms"),
    ("registry.search.calls", "count"),
    ("registry.search.self_ms", "ms"),
    ("registry.search.records", "records"),
    ("mailbox.deposit.calls", "count"),
    ("mailbox.deposit.self_ms", "ms"),
    ("mailbox.deposit.rejects", "count"),
    ("mailbox.retrieve.calls", "count"),
    ("mailbox.retrieve.self_ms", "ms"),
    ("mailbox.retrieved", "count"),
    ("contractnet.announce.self_ms", "ms"),
    ("contractnet.verify_bid.calls", "count"),
    ("contractnet.verify_bid.self_ms", "ms"),
    ("contractnet.verify_bid.rejects", "count"),
    ("contractnet.bid_accept_ratio", "ratio"),
    ("contractnet.select_winner.self_ms", "ms"),
    ("contractnet.select_winner.bids", "count"),
    ("contractnet.assess.self_ms", "ms"),
    ("scenario.build.self_ms", "ms"),
    ("scenario.run.self_ms", "ms"),
    ("services.rpc.calls", "count"),
    ("services.rpc.ms_p50", "ms"),
    ("services.rpc.errors", "count"),
    ("services.rpc.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


class LayerTotals:
    """Per-layer sums over the orders of a traced run. Times are kept per
    order so that each can be scaled by its order's machine-speed factor."""

    def __init__(self) -> None:
        self.orders = 0
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.self_s: list[dict[str, float]] = []
        self.rpc_s: list[list[float]] = []

    def add_order(self, spans: list[Span], counters: Counter[str], events: int) -> None:
        self.orders += 1
        rpc = []
        for span in spans:
            self.calls[span.name] += 1
            if span.name == "services.rpc":
                rpc.append(span.end - span.start)
            elif (span.name == "runtime.tick" and span.parent is not None
                  and span.parent.name == "runtime.query"):
                self.counters["runtime.query.wait_ticks"] += 1
        self.self_s.append(self_times(spans))
        self.rpc_s.append(rpc)
        self.counters.update(counters)
        self.counters["runtime.events"] += events

    def metrics(self, factors: list[float], overhead_ratio: float) -> dict[str, float]:
        """Every PER_LAYER metric, normalised per order; times are scaled by
        the orders' machine-speed factors."""
        n = max(self.orders, 1)
        self_s: dict[str, float] = defaultdict(float)
        for per_order, factor in zip(self.self_s, factors):
            for name, seconds in per_order.items():
                self_s[name] += seconds * factor
        rpc_ms = [s * 1000 * f for rpc, f in zip(self.rpc_s, factors) for s in rpc]
        values: dict[str, float] = {}
        for name, unit in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = self.calls[layer] / n
            elif kind == "self_ms":
                values[name] = self_s[layer] * 1000 / n
            else:
                values[name] = self.counters[name] / n
        values["runtime.sends"] = self.calls["runtime.send"] / n
        values["services.rpc.ms_p50"] = statistics.median(rpc_ms) if rpc_ms else 0.0
        values["services.rpc.overhead_ms"] = self_s["services.rpc"] * 1000 / n
        bids = self.calls["contractnet.verify_bid"]
        rejected = self.counters["contractnet.verify_bid.rejects"]
        values["contractnet.bid_accept_ratio"] = (bids - rejected) / bids if bids else 0.0
        searches = self.calls["registry.search"]
        values["registry.search.records"] = (
            self.counters["registry.search.records"] / searches if searches else 0.0
        )
        winners = self.calls["contractnet.select_winner"]
        values["contractnet.select_winner.bids"] = (
            self.counters["contractnet.select_winner.bids"] / winners if winners else 0.0
        )
        values["trace.overhead_ratio"] = overhead_ratio
        return values
