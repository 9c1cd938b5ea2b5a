"""Node power ledgers: the flat one-call bodies against the 4-call form.

``Node.phy_add_power`` / ``phy_remove_power`` fold the interference
update and the carrier-sense check into one body each, relying on power
only ever flipping carrier sense one way per call.  These tests replay
random ledger histories against a reference copy of the earlier 4-call
methods and require the same bits: audible power, the ordered
``on_medium_state`` log, and every pending reception's peak
interference.  Channel-level tests check that each transmission
finishes exactly the receptions it started.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.scenarios import (
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.net.network import Network, NetworkConfig
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Position, random_topology
from repro.phy.radio import RadioParams
from repro.phy.reception import Reception
from repro.sim.engine import Simulator


class RecordingMac:
    """MAC stand-in that logs every carrier-sense report."""

    def __init__(self) -> None:
        self.node = None
        self.log = []

    def on_medium_state(self, busy: bool) -> None:
        self.log.append(busy)


class ReferenceNode(Node):
    """The earlier ledgers: add and remove each go through helpers."""

    def phy_add_power(self, transmission, power_mw):
        self._power_contributions[transmission] = power_mw
        self.current_power_mw += power_mw
        self._reference_interference_changed()
        self._update_sense_state()

    def phy_remove_power(self, transmission):
        power = self._power_contributions.pop(transmission, 0.0)
        self.current_power_mw -= power
        if self.current_power_mw < 0.0:
            self.current_power_mw = 0.0
        if not self._power_contributions:
            self.current_power_mw = 0.0
        self._update_sense_state()

    def _reference_interference_changed(self):
        if not self.pending_receptions:
            return
        total = self.current_power_mw
        for transmission, reception in self.pending_receptions.items():
            own = self._power_contributions.get(transmission, 0.0)
            reception.note_interference(total - own)


class FakeTransmission:
    """Just enough of a Transmission for the node-side ledger calls."""

    def __init__(self, key: int) -> None:
        self.key = key
        self.sender_id = 1000 + key
        self.packet = Packet(PacketKind.DATA, self.sender_id, 100, 0.0)


CS = RadioParams().carrier_sense_threshold_mw

#: Powers straddling the carrier-sense threshold, so random histories
#: cross it in both directions and drift on removal.
powers = st.one_of(
    st.floats(min_value=CS * 1e-3, max_value=CS * 20.0),
    st.sampled_from([CS, CS * 0.5, CS * 0.999999, CS * 1e-9]),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), powers),
        st.tuples(st.just("remove"), st.integers(0, 40)),
        st.tuples(st.just("start"), st.integers(0, 40)),
        st.tuples(st.just("finish"), st.integers(0, 40)),
        st.tuples(st.just("own_tx"), st.booleans()),
        st.tuples(st.just("active"), st.booleans()),
    ),
    max_size=60,
)


def make_node(cls=Node) -> Node:
    return cls(7, Position(0.0, 0.0), Simulator(seed=1),
               params=RadioParams(), mac=RecordingMac())


def snapshot(node: Node):
    return (
        node.current_power_mw.hex(),
        list(node.mac.log),
        [
            (tx.key, reception.peak_interference_mw.hex())
            for tx, reception in node.pending_receptions.items()
        ],
    )


def replay(ops, nodes) -> None:
    """Apply ``ops`` to every node in lock-step, checking after each.

    Each operation is resolved once against the first node's state (the
    channel only ever makes legal calls: it adds a transmission once,
    removes only what it added, starts a reception only for an audible
    frame while not transmitting), then applied to all nodes.
    """
    live = []
    next_key = 0
    first = nodes[0]
    for kind, arg in ops:
        if kind == "add":
            tx = FakeTransmission(next_key)
            next_key += 1
            live.append(tx)
            call = lambda node: node.phy_add_power(tx, arg)  # noqa: E731
        elif kind == "remove" and live:
            tx = live.pop(arg % len(live))
            call = lambda node: node.phy_remove_power(tx)  # noqa: E731
        elif kind == "start" and live and not first.transmitting:
            tx = live[arg % len(live)]
            if tx in first.pending_receptions:
                continue
            call = lambda node: node.phy_start_reception(  # noqa: E731
                Reception(tx, node.node_id, node.power_ledger()[tx], 0.0, 1.0)
            )
        elif kind == "finish" and first.pending_receptions:
            pending = list(first.pending_receptions)
            tx = pending[arg % len(pending)]
            call = lambda node: node.phy_finish_reception(tx, 999)  # noqa: E731
        elif kind == "own_tx" and arg != first.transmitting:
            call = (
                Node.phy_begin_own_tx if arg else Node.phy_end_own_tx
            )
        elif kind == "active":
            call = lambda node: node.set_active(arg)  # noqa: E731
        else:
            continue
        for node in nodes:
            call(node)
        expected = snapshot(nodes[-1])
        for node in nodes[:-1]:
            assert snapshot(node) == expected
        for node in nodes:
            assert node._last_busy == node.medium_busy


class TestFlatLedgersMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(operations)
    def test_random_histories_bit_identical(self, ops):
        flat, reference = make_node(), make_node(ReferenceNode)
        replay(ops, [flat, reference])
        assert flat.counters.as_dict() == reference.counters.as_dict()

    def test_flip_only_on_threshold_crossings(self):
        node = make_node()
        a, b = FakeTransmission(0), FakeTransmission(1)
        node.phy_add_power(a, CS * 0.6)
        node.phy_add_power(b, CS * 0.6)  # crosses: idle -> busy
        node.phy_remove_power(a)  # drops below: busy -> idle
        node.phy_remove_power(b)
        assert node.mac.log == [True, False]

    def test_own_transmission_holds_busy_through_removal(self):
        node = make_node()
        tx = FakeTransmission(0)
        node.phy_add_power(tx, CS * 2.0)
        node.phy_begin_own_tx()
        node.phy_remove_power(tx)  # still transmitting: stays busy
        node.phy_end_own_tx()
        assert node.mac.log == [True, False]

    def test_threshold_read_through_params(self):
        """A retuned threshold takes effect without rebuilding the node."""
        node = make_node()
        node.params.set_rx_threshold_dbm(-90.0)  # carrier sense -100 dBm
        node.phy_add_power(FakeTransmission(0), CS * 0.1)
        assert node.mac.log == [True]


#: The counters ``phy_finish_reception`` bumps, one per decided frame
#: (``phy.rx_overheard`` counts deliveries, not decisions).
RX_OUTCOMES = ("phy.rx_ok", "phy.rx_failed_half_duplex",
               "phy.rx_failed_weak", "phy.rx_failed_collision")


def rx_outcomes(scenario) -> int:
    """Decided receptions, summed over every node."""
    return sum(
        node.counters.as_dict().get(name, 0)
        for node in scenario.network.nodes
        for name in RX_OUTCOMES
    )


class TestChannelFinishesOnlyStartedReceptions:
    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_finish_runs_once_per_rx_outcome(self, monkeypatch, backend):
        calls = {"start": 0, "finish": 0}
        start = Node.phy_start_reception
        finish = Node.phy_finish_reception

        def counted_start(self, reception):
            calls["start"] += 1
            return start(self, reception)

        def counted_finish(self, transmission, dest_id):
            calls["finish"] += 1
            return finish(self, transmission, dest_id)

        monkeypatch.setattr(Node, "phy_start_reception", counted_start)
        monkeypatch.setattr(Node, "phy_finish_reception", counted_finish)
        config = SimulationScenarioConfig(
            num_nodes=12, area_width_m=500.0, area_height_m=500.0,
            num_groups=1, members_per_group=3, duration_s=6.0,
            warmup_s=2.0, topology_seed=3,
        )
        config = dataclasses.replace(
            config,
            network=dataclasses.replace(config.network, phy_backend=backend),
        )
        scenario = build_simulation_scenario("spp", config)
        scenario.run()
        assert scenario.network.channel.phy_backend_resolved == backend
        assert calls["finish"] > 0
        assert calls["finish"] == rx_outcomes(scenario)
        # Frames still on the air at the end were started, not finished.
        in_flight = sum(
            len(node.pending_receptions) for node in scenario.network.nodes
        )
        assert calls["finish"] + in_flight == calls["start"]

    def test_transmission_records_started_receivers(self):
        """NoFading: exactly the receivers above threshold decode."""
        positions = random_topology(
            10, 500.0, 500.0, rng=random.Random(2),
            connectivity_range_m=250.0,
        )
        network = Network(positions, seed=1,
                          config=NetworkConfig(rayleigh_fading=False))
        channel = network.channel
        tx = channel.begin_transmission(
            network.nodes[0], Packet(PacketKind.DATA, 0, 200, 0.0), 999,
            1e-3, notify_sender=False,
        )
        decodable = [
            receiver.node_id
            for receiver, mean_mw in channel.audible_neighbors(0)
            if mean_mw >= receiver.params.rx_threshold_mw
        ]
        assert [node.node_id for node in tx.decoding] == decodable
        assert decodable
        assert set(tx.decoding) <= set(tx.touched)
