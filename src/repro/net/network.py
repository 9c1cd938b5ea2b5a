"""Network assembly: one call from positions to a ready-to-run mesh.

``Network`` wires together the simulator, radio parameters (calibrated so
the no-fading range matches the paper's 250 m), the shared channel, and
one node per position.  Protocol stacks are attached afterwards by the
scenario builders in :mod:`repro.experiments.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.mac.csma import CsmaMac, MacConfig
from repro.net.channel import PHY_BACKENDS, WirelessChannel
from repro.net.node import Node
from repro.net.topology import Position
from repro.phy.fading import FadingModel, RayleighFading
from repro.phy.propagation import PropagationModel, TwoRayGroundPropagation
from repro.phy.radio import RadioParams, calibrate_rx_threshold_dbm
from repro.sim.engine import Simulator


@dataclass
class NetworkConfig:
    """Knobs for network assembly.

    Defaults reproduce the paper's simulation setup: two-ray propagation,
    Rayleigh fading, 250 m nominal range, 2 Mbps.
    """

    nominal_range_m: float = 250.0
    data_rate_bps: float = 2_000_000.0
    tx_power_dbm: float = 15.0
    carrier_sense_margin_db: float = 10.0
    rayleigh_fading: bool = True
    #: Channel memory per link.  Zero means i.i.d. per-packet fading;
    #: positive values use the Gauss-Markov correlated Rayleigh model.
    #: GloMoSim replays time-correlated fading traces, and for static
    #: nodes the channel changes over seconds; with memoryless fading the
    #: min-hop baseline collapses and the metrics' relative gains come
    #: out ~2x the paper's.  10 s reproduces the paper's gain magnitudes.
    fading_coherence_time_s: float = 10.0
    #: Reception backend: "auto" batches fading/decode math with numpy
    #: when transmissions reach at least ``VECTOR_MIN_AUDIBLE`` (10)
    #: receivers on average -- the paper's 50-node mesh reaches about
    #: 43 -- and keeps the per-receiver loop below that (bit-identical
    #: either way); "scalar"/"vectorized" force a path (see
    #: repro.net.channel).
    phy_backend: str = "auto"
    propagation: Optional[PropagationModel] = None
    fading: Optional[FadingModel] = None
    mac: MacConfig = field(default_factory=MacConfig)

    def __post_init__(self) -> None:
        # Fail at construction (spec load, config assembly) rather than
        # deep inside begin_transmission's backend resolution.
        if self.phy_backend not in PHY_BACKENDS:
            import difflib

            message = (
                f"unknown phy_backend {self.phy_backend!r}; expected one "
                f"of {PHY_BACKENDS}"
            )
            close = difflib.get_close_matches(
                str(self.phy_backend), PHY_BACKENDS, n=1
            )
            if close:
                message += f" (did you mean {close[0]!r}?)"
            raise ValueError(message)

    def build_propagation(self) -> PropagationModel:
        return self.propagation or TwoRayGroundPropagation()

    def build_fading(self) -> FadingModel:
        if self.fading is not None:
            return self.fading
        if self.rayleigh_fading:
            if self.fading_coherence_time_s > 0:
                from repro.phy.fading import CorrelatedRayleighFading

                return CorrelatedRayleighFading(self.fading_coherence_time_s)
            return RayleighFading()
        from repro.phy.fading import NoFading

        return NoFading()


class Network:
    """A simulator, a channel, and a set of nodes, wired together."""

    def __init__(
        self,
        positions: Sequence[Position],
        seed: int = 0,
        config: Optional[NetworkConfig] = None,
        channel_factory: Optional[Callable[[Simulator], WirelessChannel]] = None,
        radio_params: Optional[RadioParams] = None,
    ) -> None:
        """Assemble the network.

        ``channel_factory`` and ``radio_params`` exist for substrates that
        replace the pathloss/fading stack -- the testbed emulation injects
        an empirical-loss channel and virtual radio levels through them.
        """
        self.config = config or NetworkConfig()
        self.sim = Simulator(seed=seed)

        if radio_params is not None:
            params = radio_params
        else:
            propagation = self.config.build_propagation()
            params = RadioParams(
                tx_power_dbm=self.config.tx_power_dbm,
                data_rate_bps=self.config.data_rate_bps,
            )
            params.set_rx_threshold_dbm(
                calibrate_rx_threshold_dbm(
                    propagation, params, self.config.nominal_range_m
                ),
                cs_margin_db=self.config.carrier_sense_margin_db,
            )
        self.radio_params = params

        if channel_factory is not None:
            self.channel = channel_factory(self.sim)
        else:
            self.channel = WirelessChannel(
                self.sim, self.config.build_propagation(),
                self.config.build_fading(),
                phy_backend=self.config.phy_backend,
            )
        self.nodes: List[Node] = []
        for index, position in enumerate(positions):
            mac = CsmaMac(self.sim, self.config.mac)
            node = Node(index, position, self.sim, params, mac)
            self.channel.register_node(node)
            self.nodes.append(node)
        self.channel.finalize()

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def run(self, until: float) -> None:
        """Run the simulation clock up to ``until`` seconds."""
        self.sim.run(until=until)

    def total_counter(self, name: str) -> float:
        """Sum a counter across every node."""
        return sum(node.counters.get(name) for node in self.nodes)

    def total_counter_prefix(self, prefix: str) -> float:
        """Sum all counters matching a prefix across every node."""
        return sum(node.counters.total(prefix) for node in self.nodes)
