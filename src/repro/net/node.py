"""A mesh router node: radio state, MAC, and protocol dispatch.

The node owns the PHY-side bookkeeping for the shared channel:

* the set of transmissions currently audible at this position and their
  fading-sampled powers (``current_power_mw`` is their sum),
* the pending :class:`~repro.phy.reception.Reception` objects for frames
  this node may decode, and
* the carrier-sense state it reports to its MAC.

Protocols register per-:class:`~repro.net.packet.PacketKind` handlers and
send through :meth:`send_broadcast` / :meth:`send_unicast`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.mac.csma import BROADCAST_ID, CsmaMac
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Position
from repro.phy.radio import RadioParams
from repro.phy.reception import Reception, ReceptionModel
from repro.sim.engine import Simulator
from repro.sim.trace import CounterSet

PacketHandler = Callable[[Packet, int, float], Any]


class Node:
    """One mesh router (static by default; movable via set_position)."""

    def __init__(
        self,
        node_id: int,
        position: Position,
        sim: Simulator,
        params: Optional[RadioParams] = None,
        mac: Optional[CsmaMac] = None,
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.sim = sim
        self.params = params or RadioParams()
        self.reception_model = ReceptionModel(self.params)
        self.mac = mac or CsmaMac(sim)
        self.mac.node = self
        self.channel: Any = None  # set when registered with a channel
        self.counters = CounterSet()

        # PHY state
        self.transmitting = False
        self.current_power_mw = 0.0
        self._power_contributions: Dict[Any, float] = {}
        self.pending_receptions: Dict[Any, Reception] = {}
        self._last_busy = False
        #: Radio power state; a "failed" node neither sends nor receives.
        self.active = True

        # Protocol dispatch
        self._handlers: Dict[PacketKind, PacketHandler] = {}

    # ------------------------------------------------------------------
    # Upper-layer API

    def register_handler(self, kind: PacketKind, handler: PacketHandler) -> None:
        """Route received packets of ``kind`` to ``handler(packet, sender, rx_mw)``."""
        if kind in self._handlers:
            raise ValueError(
                f"node {self.node_id} already has a handler for {kind}"
            )
        self._handlers[kind] = handler

    def wrap_handler(
        self,
        kind: PacketKind,
        wrap: Callable[[PacketHandler], PacketHandler],
    ) -> None:
        """Replace the handler for ``kind`` with ``wrap(current_handler)``.

        Observability hook: the validation monitors use this to observe
        every delivered packet of a kind without the node or router
        knowing they are being watched.  The wrapper must call through to
        the original handler to preserve behaviour.
        """
        handler = self._handlers.get(kind)
        if handler is None:
            raise ValueError(
                f"node {self.node_id} has no handler for {kind} to wrap"
            )
        self._handlers[kind] = wrap(handler)

    def power_ledger(self) -> Dict[Any, float]:
        """Per-transmission audible-power contributions (a copy).

        Conservation audit hook: the entries must always sum to
        ``current_power_mw`` (within float drift) and must drain to
        nothing once the channel reports no transmission in flight.
        """
        return dict(self._power_contributions)

    def send_broadcast(
        self, packet: Packet, on_done: Optional[Callable[[bool], Any]] = None
    ) -> bool:
        """Queue a link-layer broadcast (one attempt, no ACK)."""
        kind = packet.kind
        self.counters.add(kind.tx_packets)
        self.counters.add(kind.tx_bytes, packet.size_bytes)
        return self.mac.enqueue(packet, BROADCAST_ID, on_done)

    def send_unicast(
        self,
        packet: Packet,
        dest_id: int,
        on_done: Optional[Callable[[bool], Any]] = None,
    ) -> bool:
        """Queue a link-layer unicast (ACKed, retried)."""
        kind = packet.kind
        self.counters.add(kind.tx_packets)
        self.counters.add(kind.tx_bytes, packet.size_bytes)
        return self.mac.enqueue(packet, dest_id, on_done)

    def set_position(self, position: Position) -> None:
        """Move the node (mobility).

        The one legal way to change a position after network assembly:
        it keeps the channel's spatial grid in sync via an O(1)
        re-bucket.  Derived radio state (audible sets, connectivity
        map, vectorized batch arrays) is *not* recomputed here -- after
        a batch of moves, call ``channel.invalidate_topology()`` once,
        which is how :class:`~repro.mobility.driver.MobilityDriver`
        amortizes one re-derivation over a whole tick.
        """
        if position == self.position:
            return
        self.position = position
        if self.channel is not None:
            self.channel.note_position_change(self)

    def set_active(self, active: bool) -> None:
        """Turn the radio on or off (failure injection).

        Going down kills any in-flight receptions (their signal is gone
        for the decoder) and silently drops frames the MAC tries to send;
        protocol state above the radio survives, as it would across a
        radio reset.
        """
        if active == self.active:
            return
        self.active = active
        if self.channel is not None:
            self.channel.note_active_change(active)
        if not active:
            self.counters.add("node.down_events")
            for reception in self.pending_receptions.values():
                reception.signal_mw = 0.0
        else:
            self.counters.add("node.up_events")
        self._update_sense_state()

    # ------------------------------------------------------------------
    # PHY-side interface (called by the channel)

    @property
    def medium_busy(self) -> bool:
        """Carrier-sense state: own transmission or enough foreign energy."""
        return self.transmitting or self.reception_model.can_sense(
            self.current_power_mw
        )

    def phy_add_power(self, transmission: Any, power_mw: float) -> None:
        """A transmission became audible here at the given faded power.

        One flat body on the fan-out hot path.  More power can only turn
        an idle medium busy (never the reverse), so the carrier-sense
        check runs only while idle and compares against the threshold
        directly; ``ChannelConservationMonitor`` asserts the
        ``_last_busy == medium_busy`` invariant this relies on.
        """
        self._power_contributions[transmission] = power_mw
        total = self.current_power_mw + power_mw
        self.current_power_mw = total
        if self.pending_receptions:
            contributions = self._power_contributions
            for tx, reception in self.pending_receptions.items():
                reception.note_interference(
                    total - contributions.get(tx, 0.0)
                )
        if (
            not self._last_busy
            and total >= self.params.carrier_sense_threshold_mw
        ):
            self._last_busy = True
            self.mac.on_medium_state(True)

    def phy_remove_power(self, transmission: Any) -> None:
        """An audible transmission ended; withdraw its power.

        Less power can only turn a busy medium idle, so the check runs
        only while busy (mirror image of :meth:`phy_add_power`).
        """
        contributions = self._power_contributions
        total = self.current_power_mw - contributions.pop(transmission, 0.0)
        if total < 0.0 or not contributions:  # float drift / drained
            total = 0.0
        self.current_power_mw = total
        if (
            self._last_busy
            and not self.transmitting
            and total < self.params.carrier_sense_threshold_mw
        ):
            self._last_busy = False
            self.mac.on_medium_state(False)

    def phy_begin_own_tx(self) -> None:
        """Half duplex: starting to transmit kills any in-flight receptions."""
        self.transmitting = True
        for reception in self.pending_receptions.values():
            reception.signal_mw = 0.0
        self._update_sense_state()

    def phy_end_own_tx(self) -> None:
        self.transmitting = False
        self._update_sense_state()

    def phy_start_reception(self, reception: Reception) -> None:
        """Register a decodable frame arriving at this node."""
        self.pending_receptions[reception.transmission] = reception
        own = self._power_contributions.get(reception.transmission, 0.0)
        reception.note_interference(self.current_power_mw - own)

    def phy_finish_reception(
        self, transmission: Any, dest_id: int
    ) -> None:
        """Decide a pending reception and deliver on success."""
        reception = self.pending_receptions.pop(transmission, None)
        if reception is None:
            return
        if reception.signal_mw <= 0.0:
            self.counters.add("phy.rx_failed_half_duplex")
            return
        if self.reception_model.decide(reception):
            self.counters.add("phy.rx_ok")
            self.deliver(transmission.packet, transmission.sender_id, dest_id,
                         reception.signal_mw)
        elif reception.signal_mw < self.params.rx_threshold_mw:
            self.counters.add("phy.rx_failed_weak")
        else:
            self.counters.add("phy.rx_failed_collision")

    def _update_sense_state(self) -> None:
        # Full re-derivation for own-transmission start/end and radio
        # up/down; the power ledgers use the one-way checks above.
        busy = self.transmitting or self.reception_model.can_sense(
            self.current_power_mw
        )
        if busy != self._last_busy:
            self._last_busy = busy
            self.mac.on_medium_state(busy)

    # ------------------------------------------------------------------
    # Delivery

    def deliver(
        self, packet: Packet, sender_id: int, dest_id: int, rx_power_mw: float
    ) -> None:
        """A frame was successfully decoded; dispatch it."""
        if dest_id != BROADCAST_ID and dest_id != self.node_id:
            self.counters.add("phy.rx_overheard")
            return
        kind = packet.kind
        self.counters.add(kind.rx_packets)
        self.counters.add(kind.rx_bytes, packet.size_bytes)
        if kind is PacketKind.ACK:
            if packet.payload.acked_sender == self.node_id:
                self.mac.on_ack(packet.payload.acked_uid)
            return
        if dest_id == self.node_id:
            self.mac.handle_received_data(packet, sender_id, dest_id)
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(packet, sender_id, rx_power_mw)
        else:
            self.counters.add("rx.unhandled")

    def distance_to(self, other: "Node") -> float:
        return self.position.distance_to(other.position)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} @({self.position.x:.0f},{self.position.y:.0f})>"
