"""Traced mode: spans recorded around each layer's public entry points.

The program is not edited.  :class:`Tracer` rebinds the entry points of
one deployment (instance attributes where the program looks them up on
the instance, module attributes where a module imported a function by
name) to timing wrappers, and puts every original back on
:meth:`Tracer.restore`.  Spans nest (the simulated deployments run on
one thread), so a span's *self* time is its duration minus the time of
the spans opened inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict

from common import dgesv_flops


class _Stat:
    __slots__ = ("calls", "total", "child", "amount")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        #: bytes moved by codec spans, flops done by kernel spans
        self.amount = 0.0


def _nbytes(part) -> int:
    return part.nbytes if isinstance(part, memoryview) else len(part)


class Tracer:
    """Per-name span totals (calls, time, child time) plus counts."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, int] = defaultdict(int)
        #: raw samples of selected program histograms, by name
        self.samples: dict[str, list] = defaultdict(list)
        #: open spans, innermost last: time their children took so far
        self._stack: list = []
        self._undo: list = []

    # -- rebinding -------------------------------------------------------
    def rebind(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` (a module, class or instance attribute);
        :meth:`restore` puts back what was there."""
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, had_own, original in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- spans ---------------------------------------------------------
    def span(self, name: str, fn, measure=None):
        """Wrap ``fn`` in a span; ``measure(args, result)`` returns the
        bytes or flops the call handled."""
        stats = self.stats[name]
        clock = time.perf_counter
        stack = self._stack

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
            amount = measure(args, result) if measure is not None else 0
            stats.calls += 1
            stats.total += dt
            stats.child += child
            stats.amount += amount
            return result

        return wrapped

    def patch(self, owner, attr: str, name: str, measure=None) -> None:
        """Rebind ``owner.attr`` to a span named ``name``."""
        self.rebind(owner, attr, self.span(name, getattr(owner, attr), measure))

    def count(self, owner, attr: str, name: str) -> None:
        """Rebind ``owner.attr`` to count its calls (no timing)."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self.rebind(owner, attr, counted)

    def reset(self) -> None:
        """Zero every reading; the installed wrappers stay."""
        for s in self.stats.values():
            s.calls = 0
            s.total = s.child = s.amount = 0.0
        self.counts.clear()
        self.samples.clear()

    # -- readings --------------------------------------------------------
    def calls(self, name: str) -> int:
        s = self.stats.get(name)
        return s.calls if s is not None else 0

    def mean_us(self, name: str, *, self_time: bool = False) -> float:
        """Mean span time in microseconds (self time: minus children)."""
        s = self.stats.get(name)
        if s is None or not s.calls:
            return 0.0
        total = s.total - s.child if self_time else s.total
        return 1e6 * total / s.calls

    def rate(self, name: str, *, self_time: bool = False) -> float:
        """Measured amount (bytes or flops) per second of span time."""
        s = self.stats.get(name)
        if s is None or not s.calls:
            return 0.0
        t = s.total - s.child if self_time else s.total
        return s.amount / t if t > 0 else 0.0


# ----------------------------------------------------------------------
# what each layer's spans wrap
# ----------------------------------------------------------------------
def _encode_bytes(_args, parts) -> int:
    return sum(_nbytes(p) for p in parts)


def _decode_bytes(args, _result) -> int:
    data = args[0]
    return _nbytes(data) if isinstance(data, memoryview) else len(data)


def _dgesv_flops(args, _result) -> float:
    return dgesv_flops(args[0].shape[0])


def instrument_modules(tracer: Tracer) -> None:
    """Spans on the module-level entry points every deployment shares:
    the codec, argument validation, registry construction, the handle
    store's lookups and the program's raw histogram observations."""
    import repro.core.client as client_mod
    import repro.core.server as server_mod
    import repro.problems.builtin as builtin_mod
    import repro.problems.registry as registry_mod
    import repro.protocol.transport as transport_mod
    import repro.testbed as testbed_mod
    from repro.store.handles import HandleStore
    from repro.trace.instruments import Histogram

    tracer.patch(
        transport_mod, "encode_message_iov", "codec.encode", _encode_bytes
    )
    tracer.patch(transport_mod, "decode_message", "codec.decode", _decode_bytes)
    for mod in (client_mod, server_mod, registry_mod):
        tracer.patch(mod, "validate_inputs", "problems.validate")

    build = builtin_mod.builtin_registry

    def traced_registry():
        registry = build()
        reg = registry.get("linsys/dgesv")
        registry.unregister("linsys/dgesv")
        registry.register(
            reg.spec,
            tracer.span("numerics.dgesv", reg.handler, _dgesv_flops),
            batch=reg.batch_handler,
        )
        return registry

    traced_registry = tracer.span("problems.registry_build", traced_registry)
    for mod in (builtin_mod, testbed_mod):
        tracer.rebind(mod, "builtin_registry", traced_registry)

    tracer.count(HandleStore, "entry", "store.resolve")
    tracer.count(HandleStore, "get", "store.resolve")

    observe = Histogram.observe
    wanted = {"server.queue_wait_seconds"}
    samples = tracer.samples

    def sampling_observe(self, value):
        if self.name in wanted:
            samples[self.name].append(value)
        observe(self, value)

    tracer.rebind(Histogram, "observe", sampling_observe)


def instrument_roles(tracer: Tracer, *, agents, servers, clients) -> None:
    """Spans around each role's ``on_message`` and the client's
    ``submit``; the agent's queries (ranking included) get their own
    span as well."""
    from repro.protocol.messages import QueryRequest

    for agent in agents:
        handle = tracer.span("agent.on_message", agent.on_message)
        query = tracer.span("agent.query", handle)

        def on_message(src, msg, handle=handle, query=query):
            if type(msg) is QueryRequest:
                return query(src, msg)
            return handle(src, msg)

        tracer.rebind(agent, "on_message", on_message)
    for server in servers:
        tracer.patch(server, "on_message", "server.on_message")
    for client in clients:
        tracer.patch(client, "on_message", "client.on_message")
        tracer.patch(client, "submit", "client.submit")
