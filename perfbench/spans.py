"""Span tracing for the benchmark's traced run, installed from outside.

The simulator carries no tracing of its own.  :func:`install_layers`
replaces public entry points of each layer (engine scheduling, the
channel, node PHY ledgers and delivery, fading, the MAC, topology
generation) with wrappers that open a span around every call, and
:func:`install_cache` does the same for the result-cache calls of the
sweep executor.  :meth:`Patches.restore` puts every original back.

Spans nest.  Only per-name aggregates are kept in memory -- call count,
total time and self time (the span's duration minus the time of the
spans it encloses) -- so a traced paper-scale run with millions of
ledger calls stays small.  By construction the self times of all spans
add up to the duration of the outermost spans.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

#: Packet kinds whose delivery is routing work (ODMRP control and data).
ROUTING_KINDS = frozenset({"join_query", "join_reply", "data"})

#: Layer of a scheduled callback, keyed by the ``repro`` subpackage it
#: lives in.  ``repro.net`` schedules only the channel's
#: end-of-transmission events, which belong to the PHY fan-out.
_EVENT_LAYERS = {"sim": "sim", "net": "phy", "phy": "phy"}


class Tracer:
    """Aggregating recorder of nested spans and plain counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[list] = []
        #: span name -> [count, total_s, self_s]
        self.spans: Dict[str, List[float]] = {}
        #: counter name -> count, for work that is not a span of its own
        self.counts: Dict[str, int] = {}

    def open(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def close(self) -> None:
        name, start, enclosed = self._stack.pop()
        duration = self._clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        record = self.spans.get(name)
        if record is None:
            record = self.spans[name] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += duration
        record[2] += duration - enclosed

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``function`` with every call enclosed in a span called ``name``."""
        open_, close = self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Any:
            open_(name)
            try:
                return function(*args, **kwargs)
            finally:
                close()

        return traced

    def calls(self, name: str) -> int:
        record = self.spans.get(name)
        return int(record[0]) if record else 0

    def total_s(self, name: str) -> float:
        record = self.spans.get(name)
        return record[1] if record else 0.0

    def self_s(self, *names: str) -> float:
        return sum(self.spans[name][2] for name in names if name in self.spans)

    def self_by_layer(self) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for name, (_count, _total, self_time) in self.spans.items():
            layer = layer_of_span(name)
            layers[layer] = layers.get(layer, 0.0) + self_time
        return layers

    def report(self) -> Dict[str, Any]:
        """Everything recorded, as plain data for the trace file."""
        return {
            "spans": {
                name: {"count": int(count), "total_s": total, "self_s": self_time}
                for name, (count, total, self_time) in sorted(self.spans.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "self_s_by_layer": dict(sorted(self.self_by_layer().items())),
        }


def layer_of_module(module: Any) -> str:
    """The ``repro`` subpackage a module belongs to (``"other"`` outside)."""
    parts = str(module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "other"


def callback_span_name(callback: Any) -> str:
    """Span name of a scheduled callback: ``event.<subpackage>``."""
    return "event." + layer_of_module(getattr(callback, "__module__", None))


def layer_of_span(name: str) -> str:
    """The layer whose self time a span counts toward."""
    head, _, tail = name.partition(".")
    if head == "event":
        return _EVENT_LAYERS.get(tail, tail)
    if head == "deliver":
        if tail in ROUTING_KINDS:
            return "odmrp"
        if tail.startswith("probe"):
            return "probing"
        return "phy"
    return head


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []
        self._restored: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attribute: str, value: Any) -> Any:
        """Set ``owner.attribute = value``; returns the original."""
        original = vars(owner)[attribute]
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, value)
        return original

    def wrap(self, tracer: Tracer, owner: Any, attribute: str, name: str) -> None:
        self.replace(owner, attribute, tracer.wrap(vars(owner)[attribute], name))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
            self._restored.append((owner, attribute, original))

    def all_restored(self) -> bool:
        """True when nothing is patched and every original is back."""
        return not self._saved and all(
            vars(owner)[attribute] is original
            for owner, attribute, original in self._restored
        )


def install_layers(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public entry points of every simulation layer."""
    import repro.experiments.scenarios as scenarios
    from repro.mac.csma import CsmaMac
    from repro.net.channel import WirelessChannel
    from repro.net.node import Node
    from repro.phy import vectorized
    from repro.phy.fading import FadingModel
    from repro.sim.engine import Simulator
    from repro.sim.process import PeriodicTask, Timer

    open_, close = tracer.open, tracer.close
    names: Dict[Any, str] = {}

    def traced_callback(callback: Callable[..., Any]) -> Callable[..., Any]:
        module = getattr(callback, "__module__", None)
        name = names.get(module)
        if name is None:
            name = names[module] = callback_span_name(callback)

        def fire(*args: Any) -> Any:
            open_(name)
            try:
                return callback(*args)
            finally:
                close()

        return fire

    # Engine: every scheduled callback becomes a span named after the
    # module it lives in.  Timer and PeriodicTask fire their owner's
    # callback from repro.sim.process, so the owner's callback is
    # wrapped as well and its time lands in the owner's layer.
    def traced_scheduler(original: Callable[..., Any]) -> Callable[..., Any]:
        def schedule(self: Any, when: float, callback: Any, *args: Any, **kwargs: Any) -> Any:
            open_("sim.schedule")
            try:
                return original(self, when, traced_callback(callback), *args, **kwargs)
            finally:
                close()

        return schedule

    for attribute in ("schedule", "schedule_at"):
        patches.replace(
            Simulator, attribute, traced_scheduler(vars(Simulator)[attribute])
        )
    timer_init = vars(Timer)["__init__"]
    task_init = vars(PeriodicTask)["__init__"]

    def traced_timer_init(self: Any, sim: Any, callback: Any, *args: Any, **kwargs: Any) -> None:
        timer_init(self, sim, traced_callback(callback), *args, **kwargs)

    def traced_task_init(
        self: Any, sim: Any, interval: float, callback: Any, *args: Any, **kwargs: Any
    ) -> None:
        task_init(self, sim, interval, traced_callback(callback), *args, **kwargs)

    patches.replace(Timer, "__init__", traced_timer_init)
    patches.replace(PeriodicTask, "__init__", traced_task_init)

    # PHY fan-out, node ledgers and delivery.
    patches.wrap(tracer, WirelessChannel, "begin_transmission", "phy.begin_transmission")
    patches.wrap(tracer, WirelessChannel, "finalize", "setup.finalize")
    for attribute in (
        "phy_add_power",
        "phy_remove_power",
        "phy_start_reception",
        "phy_finish_reception",
    ):
        patches.wrap(tracer, Node, attribute, "phy.ledger." + attribute[4:])
    deliver = vars(Node)["deliver"]
    kind_names: Dict[Any, str] = {}

    def traced_deliver(self: Any, packet: Any, *args: Any) -> Any:
        name = kind_names.get(packet.kind)
        if name is None:
            name = kind_names[packet.kind] = "deliver." + packet.kind.value
        open_(name)
        try:
            return deliver(self, packet, *args)
        finally:
            close()

    patches.replace(Node, "deliver", traced_deliver)

    # Fading: the scalar per-link draw, and the vectorized batch draw,
    # which samples ``len(sel)`` (or ``count``) links at once.
    for cls in _with_own(FadingModel, "sample_link_gain"):
        patches.wrap(tracer, cls, "sample_link_gain", "phy.fading")
    count = tracer.count
    for cls in _with_own(vectorized.VectorizedSampler, "gains"):
        gains = vars(cls)["gains"]

        def traced_gains(self: Any, slot: Any, n: int, sel: Any, now: float, _gains=gains) -> Any:
            count("phy.fading_draws_batched", n if sel is None else len(sel))
            open_("phy.fading_batch")
            try:
                return _gains(self, slot, n, sel, now)
            finally:
                close()

        patches.replace(cls, "gains", traced_gains)

    for attribute in (
        "enqueue",
        "on_medium_state",
        "on_tx_complete",
        "on_ack",
        "handle_received_data",
    ):
        patches.wrap(tracer, CsmaMac, attribute, "mac." + attribute)

    # build_simulation_scenario calls the name bound in its own module.
    patches.wrap(tracer, scenarios, "random_topology", "setup.topology")


def install_cache(tracer: Tracer, patches: Patches) -> None:
    """Wrap the sweep executor's result-cache calls."""
    import repro.experiments.parallel as parallel

    patches.wrap(tracer, parallel, "cache_load", "experiments.cache_load")
    patches.wrap(tracer, parallel, "cache_store", "experiments.cache_store")


def _with_own(base: type, attribute: str) -> List[type]:
    """``base`` and its loaded subclasses that define ``attribute`` themselves."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if attribute in vars(cls):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found
